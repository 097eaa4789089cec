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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AdaptationOutcome {
    /// Keep the current scheme (throughput stable or no better scheme
    /// found).
    NoChange,
    /// Adopt a new scheme; the engine must apply `plan` and rebuild its
    /// routing tables.
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

/// The adaptive controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveController {
    /// Configuration.
    pub config: ControllerConfig,
    current: PartitioningScheme,
    /// Number of repartitionings performed.
    pub adaptations: u64,
    /// Number of model evaluations performed.
    pub evaluations: u64,
}

impl AdaptiveController {
    /// Build a controller starting from `initial` (typically the naive
    /// scheme, which is what ATraPos uses when it has no workload
    /// information yet).
    pub fn new(initial: PartitioningScheme, config: ControllerConfig) -> Self {
        Self {
            config,
            current: initial,
            adaptations: 0,
            evaluations: 0,
        }
    }

    /// Length of the next monitoring interval, in (virtual) seconds.
    pub fn interval_secs(&self) -> f64 {
        self.config.interval.current_secs()
    }

    /// Feed the result of one monitoring interval.  `throughput` is in
    /// transactions per second over the interval; `stats` is the aggregated
    /// trace of the interval; `topo` reflects the *current* hardware (a
    /// failed socket shows up here).
    pub fn on_interval(
        &mut self,
        throughput: f64,
        stats: &WorkloadStats,
        topo: &Topology,
    ) -> AdaptationOutcome {
        let hardware_changed = self.current.check_invariants(topo).is_err();
        let decision = self.config.interval.observe(throughput);
        if decision == IntervalDecision::Stable && !hardware_changed {
            return AdaptationOutcome::NoChange;
        }
        self.evaluate_and_maybe_adapt(stats, topo, hardware_changed)
    }

    fn evaluate_and_maybe_adapt(
        &mut self,
        stats: &WorkloadStats,
        topo: &Topology,
        hardware_changed: bool,
    ) -> AdaptationOutcome {
        self.evaluations += 1;
        let candidate = choose_scheme(&self.current, stats, topo, &self.config.search);
        let old_cost = evaluate(&self.current, stats, topo);
        let new_cost = evaluate(&candidate, stats, topo);
        let old_combined = old_cost.combined(self.config.sync_weight);
        let new_combined = new_cost.combined(self.config.sync_weight);
        let improved = new_combined < old_combined * (1.0 - self.config.improvement_threshold)
            || (hardware_changed && candidate.check_invariants(topo).is_ok());
        if !improved {
            return AdaptationOutcome::NoChange;
        }
        let plan = plan_repartitioning(&self.current, &candidate);
        if plan.is_empty() {
            return AdaptationOutcome::NoChange;
        }
        self.current = candidate.clone();
        self.adaptations += 1;
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

    fn setup() -> (Topology, AdaptiveController) {
        let topo = Topology::multisocket(2, 4);
        let scheme = PartitioningScheme::naive(&[(TableId(0), KeyDomain::new(0, 1000))], &topo, 10);
        (
            topo,
            AdaptiveController::new(scheme, ControllerConfig::default()),
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
        let (topo, mut ctl) = setup();
        let stats = uniform_stats(80);
        for _ in 0..5 {
            let out = ctl.on_interval(1000.0, &stats, &topo);
            assert!(matches!(out, AdaptationOutcome::NoChange));
        }
        assert_eq!(ctl.adaptations, 0);
        assert!(ctl.interval_secs() > 1.0, "interval should have grown");
    }

    #[test]
    fn throughput_drop_with_skew_triggers_repartitioning() {
        let (topo, mut ctl) = setup();
        let uniform = uniform_stats(80);
        for _ in 0..3 {
            ctl.on_interval(1000.0, &uniform, &topo);
        }
        // Skew appears and throughput collapses (paper Figure 11).
        let skew = skewed_stats(80);
        let out = ctl.on_interval(200.0, &skew, &topo);
        match out {
            AdaptationOutcome::Repartition {
                old_cost, new_cost, ..
            } => {
                assert!(new_cost.resource_imbalance < old_cost.resource_imbalance);
            }
            AdaptationOutcome::NoChange => panic!("expected a repartitioning"),
        }
        assert_eq!(ctl.adaptations, 1);
        // The monitoring interval resets to stay alert.
        assert_eq!(ctl.interval_secs(), 1.0);
    }

    #[test]
    fn hardware_failure_forces_adaptation_even_with_stable_throughput() {
        let (mut topo, mut ctl) = setup();
        let stats = uniform_stats(80);
        ctl.on_interval(1000.0, &stats, &topo);
        topo.fail_socket(atrapos_numa::SocketId(1));
        let out = ctl.on_interval(1000.0, &stats, &topo);
        match out {
            AdaptationOutcome::Repartition { new_scheme, .. } => {
                new_scheme.check_invariants(&topo).unwrap();
            }
            AdaptationOutcome::NoChange => panic!("expected adaptation after socket failure"),
        }
    }

    #[test]
    fn evaluation_without_improvement_keeps_the_scheme() {
        let (topo, mut ctl) = setup();
        let stats = uniform_stats(80);
        // Big throughput swing triggers an evaluation, but the uniform load
        // cannot be balanced any better than the naive scheme already is.
        ctl.on_interval(1000.0, &stats, &topo);
        let out = ctl.on_interval(100.0, &stats, &topo);
        assert!(matches!(out, AdaptationOutcome::NoChange));
        assert!(ctl.evaluations >= 1);
        assert_eq!(ctl.adaptations, 0);
    }
}
