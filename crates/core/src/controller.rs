//! The adaptive controller: monitoring → cost model → search →
//! repartitioning (paper §V-D, "Detecting changes").
//!
//! The controller is driven by the execution engine at the end of every
//! monitoring interval with the throughput observed during that interval and
//! the aggregated workload trace.  It decides whether to keep the current
//! partitioning and placement scheme or to adopt a new one, in which case it
//! produces the repartitioning plan the engine must apply (pausing regular
//! execution while it does).

use crate::cost_model::{evaluate, CostBreakdown};
use crate::monitor::{AdaptiveInterval, IntervalDecision};
use crate::partitioning::PartitioningScheme;
use crate::repartition::{plan_repartitioning, RepartitionPlan};
use crate::search::{choose_scheme, SearchConfig};
use crate::stats::WorkloadStats;
use atrapos_numa::Topology;
use serde::{Deserialize, Serialize};

/// Controller parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Search parameters for the partitioning/placement algorithms.
    pub search: SearchConfig,
    /// Minimum relative improvement of the combined cost required to adopt a
    /// new scheme (prevents oscillation on noise).
    pub improvement_threshold: f64,
    /// Weight converting synchronization byte·hops into the same unit as
    /// the resource-utilization objective (≈ interconnect cycles per
    /// byte-hop).
    pub sync_weight: f64,
    /// Adaptive monitoring interval.
    pub interval: AdaptiveInterval,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            search: SearchConfig {
                max_iterations: 200,
                ..SearchConfig::default()
            },
            improvement_threshold: 0.05,
            sync_weight: 0.6,
            interval: AdaptiveInterval::default(),
        }
    }
}

/// What the controller decided at the end of an interval.
#[derive(Debug, Clone)]
pub enum AdaptationOutcome {
    /// Keep the current scheme (throughput stable or no better scheme
    /// found).
    NoChange,
    /// Adopt a new scheme; the engine must apply `plan` and rebuild its
    /// routing tables.  The caller holds the scheme in force: if it cannot
    /// apply the plan it keeps its old scheme, and the next evaluation
    /// starts from that.
    Repartition {
        /// The new scheme.
        new_scheme: PartitioningScheme,
        /// Physical actions to apply.
        plan: RepartitionPlan,
        /// Cost of the old scheme under the interval's trace.
        old_cost: CostBreakdown,
        /// Cost of the new scheme under the interval's trace.
        new_cost: CostBreakdown,
    },
}

/// The adaptive controller.  It counts nothing itself: the design that
/// applies its plans counts the repartitionings that happened.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    /// Configuration.
    pub config: ControllerConfig,
}

impl AdaptiveController {
    /// Build a controller.  The scheme it evaluates against is the one the
    /// caller passes to [`AdaptiveController::on_interval`].
    pub fn new(config: ControllerConfig) -> Self {
        Self { config }
    }

    /// Length of the next monitoring interval, in (virtual) seconds.
    pub fn interval_secs(&self) -> f64 {
        self.config.interval.current_secs()
    }

    /// Feed the result of one monitoring interval.  `current` is the scheme
    /// in force; `throughput` is in transactions per second over the
    /// interval; `stats` is the aggregated trace of the interval; `topo`
    /// reflects the *current* hardware (a failed socket shows up here).
    pub fn on_interval(
        &mut self,
        current: &PartitioningScheme,
        throughput: f64,
        stats: &WorkloadStats,
        topo: &Topology,
    ) -> AdaptationOutcome {
        let hardware_changed = current
            .check_invariants(topo, &current.table_ids())
            .is_err();
        let decision = self.config.interval.observe(throughput);
        if decision == IntervalDecision::Stable && !hardware_changed {
            return AdaptationOutcome::NoChange;
        }
        self.evaluate_and_maybe_adapt(current, stats, topo, hardware_changed)
    }

    fn evaluate_and_maybe_adapt(
        &mut self,
        current: &PartitioningScheme,
        stats: &WorkloadStats,
        topo: &Topology,
        hardware_changed: bool,
    ) -> AdaptationOutcome {
        let candidate = choose_scheme(current, stats, topo, &self.config.search);
        let old_cost = evaluate(current, stats, topo);
        let new_cost = evaluate(&candidate, stats, topo);
        let old_combined = old_cost.combined(self.config.sync_weight);
        let new_combined = new_cost.combined(self.config.sync_weight);
        let improved = new_combined < old_combined * (1.0 - self.config.improvement_threshold)
            || (hardware_changed
                && candidate
                    .check_invariants(topo, &current.table_ids())
                    .is_ok());
        if !improved {
            return AdaptationOutcome::NoChange;
        }
        let plan = plan_repartitioning(current, &candidate);
        if plan.is_empty() {
            return AdaptationOutcome::NoChange;
        }
        self.config.interval.reset();
        AdaptationOutcome::Repartition {
            new_scheme: candidate,
            plan,
            old_cost,
            new_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::KeyDomain;
    use crate::stats::SubPartitionId;
    use atrapos_storage::TableId;

    fn setup() -> (Topology, PartitioningScheme, AdaptiveController) {
        let topo = Topology::multisocket(2, 4);
        let scheme = PartitioningScheme::naive(&[(TableId(0), KeyDomain::new(0, 1000))], &topo, 10);
        (
            topo,
            scheme,
            AdaptiveController::new(ControllerConfig::default()),
        )
    }

    fn uniform_stats(n_sub: usize) -> WorkloadStats {
        let mut s = WorkloadStats::new();
        for sub in 0..n_sub {
            s.record_action(SubPartitionId::new(TableId(0), sub), 10.0);
        }
        s
    }

    fn skewed_stats(n_sub: usize) -> WorkloadStats {
        let mut s = WorkloadStats::new();
        for sub in 0..n_sub {
            let w = if sub < n_sub / 5 { 100.0 } else { 5.0 };
            s.record_action(SubPartitionId::new(TableId(0), sub), w);
        }
        s
    }

    #[test]
    fn stable_throughput_never_repartitions() {
        let (topo, scheme, mut ctl) = setup();
        let stats = uniform_stats(80);
        for _ in 0..5 {
            let out = ctl.on_interval(&scheme, 1000.0, &stats, &topo);
            assert!(matches!(out, AdaptationOutcome::NoChange));
        }
        assert!(ctl.interval_secs() > 1.0, "interval should have grown");
    }

    #[test]
    fn throughput_drop_with_skew_triggers_repartitioning() {
        let (topo, scheme, mut ctl) = setup();
        let uniform = uniform_stats(80);
        for _ in 0..3 {
            let out = ctl.on_interval(&scheme, 1000.0, &uniform, &topo);
            assert!(matches!(out, AdaptationOutcome::NoChange));
        }
        // Skew appears and throughput collapses (paper Figure 11).
        let skew = skewed_stats(80);
        let out = ctl.on_interval(&scheme, 200.0, &skew, &topo);
        match out {
            AdaptationOutcome::Repartition {
                old_cost, new_cost, ..
            } => {
                assert!(new_cost.resource_imbalance < old_cost.resource_imbalance);
            }
            AdaptationOutcome::NoChange => panic!("expected a repartitioning"),
        }
        // The monitoring interval resets to stay alert.
        assert_eq!(ctl.interval_secs(), 1.0);
    }

    #[test]
    fn hardware_failure_forces_adaptation_even_with_stable_throughput() {
        let (mut topo, scheme, mut ctl) = setup();
        let stats = uniform_stats(80);
        ctl.on_interval(&scheme, 1000.0, &stats, &topo);
        topo.fail_socket(atrapos_numa::SocketId(1)).unwrap();
        let out = ctl.on_interval(&scheme, 1000.0, &stats, &topo);
        match out {
            AdaptationOutcome::Repartition { new_scheme, .. } => {
                new_scheme.check_invariants(&topo, &[TableId(0)]).unwrap();
            }
            AdaptationOutcome::NoChange => panic!("expected adaptation after socket failure"),
        }
    }

    #[test]
    fn evaluation_without_improvement_keeps_the_scheme() {
        let (topo, scheme, mut ctl) = setup();
        let stats = uniform_stats(80);
        // Big throughput swing triggers an evaluation, but the uniform load
        // cannot be balanced any better than the naive scheme already is.
        ctl.on_interval(&scheme, 1000.0, &stats, &topo);
        let mut interval = ctl.config.interval.clone();
        assert_eq!(interval.observe(100.0), IntervalDecision::Evaluate);
        let out = ctl.on_interval(&scheme, 100.0, &stats, &topo);
        assert!(matches!(out, AdaptationOutcome::NoChange));
    }

    #[test]
    fn an_unadopted_repartition_leaves_the_callers_scheme_in_force() {
        let (topo, scheme, mut ctl) = setup();
        let uniform = uniform_stats(80);
        let skew = skewed_stats(80);
        ctl.on_interval(&scheme, 1000.0, &uniform, &topo);
        let first = match ctl.on_interval(&scheme, 200.0, &skew, &topo) {
            AdaptationOutcome::Repartition {
                new_scheme, plan, ..
            } => (new_scheme, plan),
            AdaptationOutcome::NoChange => panic!("expected a repartitioning"),
        };
        // The caller could not apply the plan and keeps its old scheme.
        // The next evaluation starts from that scheme, so it proposes the
        // same move again rather than an empty step from the candidate.
        ctl.on_interval(&scheme, 1000.0, &skew, &topo);
        match ctl.on_interval(&scheme, 200.0, &skew, &topo) {
            AdaptationOutcome::Repartition {
                new_scheme, plan, ..
            } => {
                assert_eq!(new_scheme, first.0);
                assert_eq!(plan.actions, first.1.actions);
                assert_eq!(plan.placement_changes, first.1.placement_changes);
            }
            AdaptationOutcome::NoChange => panic!("the old scheme is still skewed"),
        }
    }
}
