//! Lightweight workload monitoring and the adaptive monitoring interval
//! (paper §V-D).
//!
//! Monitoring keeps two arrays per partition — the cost of actions executed
//! per sub-partition and the number of synchronization points per
//! sub-partition — so its space overhead is independent of the data size and
//! the transaction rate.  The arrays feed [`crate::stats::WorkloadStats`],
//! which the cost model and the search consume.  A small, fixed instruction
//! cost per recorded event models the runtime overhead, which the paper
//! measures at ≤ 3.3% (Table II).
//!
//! The monitoring interval adapts to workload volatility: it starts at one
//! second, doubles (up to eight seconds) whenever throughput stays within
//! 10% of the average of the previous five measurements, and resets to one
//! second after a repartitioning.

use crate::stats::{SubPartitionId, WorkloadStats};
use atrapos_numa::{Component, SimCtx};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Instructions charged per monitored event (array index + add).
pub const MONITOR_INSTRUCTIONS_PER_EVENT: u64 = 30;

/// The workload monitor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Monitor {
    enabled: bool,
    stats: WorkloadStats,
    /// Events recorded since the last aggregation.
    pub events: u64,
}

impl Monitor {
    /// A monitor; when `enabled` is false, recording is a no-op with no
    /// simulated cost (the paper's "monitoring disabled" baseline of
    /// Table II).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            stats: WorkloadStats::new(),
            events: 0,
        }
    }

    /// Whether monitoring is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an executed action: `cycles` of work on `sub`.  Charges the
    /// monitoring overhead to `ctx` when enabled.
    pub fn record_action(&mut self, ctx: &mut SimCtx<'_>, sub: SubPartitionId, cycles: f64) {
        if !self.enabled {
            return;
        }
        ctx.work(Component::Monitoring, MONITOR_INSTRUCTIONS_PER_EVENT);
        self.stats.record_action(sub, cycles);
        self.events += 1;
    }

    /// Record a synchronization point between two sub-partitions.
    pub fn record_sync(
        &mut self,
        ctx: &mut SimCtx<'_>,
        a: SubPartitionId,
        b: SubPartitionId,
        bytes: u64,
    ) {
        if !self.enabled {
            return;
        }
        ctx.work(Component::Monitoring, MONITOR_INSTRUCTIONS_PER_EVENT);
        self.stats.record_sync(a, b, bytes);
        self.events += 1;
    }

    /// Record a completed transaction (no simulated cost: the descriptor is
    /// already in cache).
    pub fn record_transaction(&mut self) {
        if self.enabled {
            self.stats.record_transaction();
        }
    }

    /// Current (unaggregated) statistics.
    pub fn stats(&self) -> &WorkloadStats {
        &self.stats
    }

    /// Take the aggregated statistics and reset the monitor (the paper
    /// discards traces after each evaluation).
    pub fn take_stats(&mut self) -> WorkloadStats {
        self.events = 0;
        std::mem::take(&mut self.stats)
    }
}

/// Decision produced after a monitoring interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntervalDecision {
    /// Throughput is stable: keep running, interval was (possibly)
    /// lengthened.
    Stable,
    /// Throughput deviated from the recent average by more than the
    /// threshold: evaluate the cost model.
    Evaluate,
}

/// The adaptive monitoring-interval controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveInterval {
    /// Minimum (and initial) interval in seconds.
    pub min_secs: f64,
    /// Maximum interval in seconds.
    pub max_secs: f64,
    /// Relative throughput deviation that triggers a model evaluation.
    pub threshold: f64,
    current_secs: f64,
    history: VecDeque<f64>,
}

impl Default for AdaptiveInterval {
    fn default() -> Self {
        Self::new(1.0, 8.0, 0.10)
    }
}

impl AdaptiveInterval {
    /// Build a controller with the given bounds and deviation threshold.
    pub fn new(min_secs: f64, max_secs: f64, threshold: f64) -> Self {
        assert!(min_secs > 0.0 && max_secs >= min_secs && threshold > 0.0);
        Self {
            min_secs,
            max_secs,
            threshold,
            current_secs: min_secs,
            history: VecDeque::with_capacity(5),
        }
    }

    /// Current monitoring interval in seconds.
    pub fn current_secs(&self) -> f64 {
        self.current_secs
    }

    /// Feed the throughput measured over the last interval.  Returns whether
    /// the cost model should be evaluated.
    pub fn observe(&mut self, throughput: f64) -> IntervalDecision {
        let decision = if self.history.is_empty() {
            IntervalDecision::Stable
        } else {
            let avg: f64 = self.history.iter().sum::<f64>() / self.history.len() as f64;
            let deviation = if avg > 0.0 {
                (throughput - avg).abs() / avg
            } else if throughput > 0.0 {
                1.0
            } else {
                0.0
            };
            if deviation <= self.threshold {
                IntervalDecision::Stable
            } else {
                IntervalDecision::Evaluate
            }
        };
        if self.history.len() == 5 {
            self.history.pop_front();
        }
        self.history.push_back(throughput);
        if decision == IntervalDecision::Stable {
            self.current_secs = (self.current_secs * 2.0).min(self.max_secs);
        }
        decision
    }

    /// Reset the interval to its minimum (called after a repartitioning so
    /// the system stays alert while the workload settles).
    pub fn reset(&mut self) {
        self.current_secs = self.min_secs;
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_numa::{CoreId, CostModel, Topology};
    use atrapos_storage::TableId;

    #[test]
    fn disabled_monitor_has_no_cost_and_records_nothing() {
        let topo = Topology::multisocket(1, 2);
        let cost = CostModel::westmere();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
        let mut m = Monitor::new(false);
        m.record_action(&mut ctx, SubPartitionId::new(TableId(0), 0), 100.0);
        assert_eq!(ctx.elapsed(), 0);
        assert_eq!(m.events, 0);
        assert_eq!(m.stats().total_load(), 0.0);
    }

    #[test]
    fn enabled_monitor_charges_overhead_and_records() {
        let topo = Topology::multisocket(1, 2);
        let cost = CostModel::westmere();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
        let mut m = Monitor::new(true);
        m.record_action(&mut ctx, SubPartitionId::new(TableId(0), 3), 100.0);
        m.record_sync(
            &mut ctx,
            SubPartitionId::new(TableId(0), 3),
            SubPartitionId::new(TableId(1), 3),
            64,
        );
        assert_eq!(ctx.elapsed(), 2 * MONITOR_INSTRUCTIONS_PER_EVENT);
        assert_eq!(m.events, 2);
        let stats = m.take_stats();
        assert_eq!(stats.table_load(TableId(0))[3], 100.0);
        assert_eq!(stats.num_sync_pairs(), 1);
        assert_eq!(m.events, 0);
        assert_eq!(m.stats().total_load(), 0.0);
    }

    #[test]
    fn interval_doubles_while_stable_and_caps_at_max() {
        let mut ai = AdaptiveInterval::default();
        assert_eq!(ai.current_secs(), 1.0);
        for _ in 0..6 {
            assert_eq!(ai.observe(1000.0), IntervalDecision::Stable);
        }
        assert_eq!(ai.current_secs(), 8.0);
    }

    #[test]
    fn interval_triggers_evaluation_on_throughput_change() {
        let mut ai = AdaptiveInterval::default();
        for _ in 0..3 {
            ai.observe(1000.0);
        }
        // A 40% drop exceeds the 10% threshold.
        assert_eq!(ai.observe(600.0), IntervalDecision::Evaluate);
    }

    #[test]
    fn reset_returns_to_minimum_interval() {
        let mut ai = AdaptiveInterval::default();
        for _ in 0..4 {
            ai.observe(1000.0);
        }
        assert!(ai.current_secs() > 1.0);
        ai.reset();
        assert_eq!(ai.current_secs(), 1.0);
        // After a reset the next observation has no history to compare to.
        assert_eq!(ai.observe(250.0), IntervalDecision::Stable);
    }

    #[test]
    fn small_fluctuations_do_not_trigger_evaluation() {
        let mut ai = AdaptiveInterval::default();
        ai.observe(1000.0);
        assert_eq!(ai.observe(1050.0), IntervalDecision::Stable);
        assert_eq!(ai.observe(960.0), IntervalDecision::Stable);
    }
}
