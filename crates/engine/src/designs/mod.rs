//! The system designs compared in the paper's evaluation.

pub mod atrapos;
pub mod centralized;
pub mod common;
pub mod shared_nothing;
pub mod spec;

use crate::action::{TransactionSpec, TxnOutcome};
use atrapos_numa::{CoreId, Cycles, Machine};
use serde::{Deserialize, Serialize};

/// What a design did at a monitoring-interval boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IntervalOutcome {
    /// Cycles during which regular execution was paused (repartitioning).
    pub pause_cycles: Cycles,
    /// Whether the design repartitioned.
    pub repartitioned: bool,
    /// Length of the next monitoring interval in (virtual) seconds; `None`
    /// keeps the executor's default.
    pub next_interval_secs: Option<f64>,
}

/// A structured statistics report of a design, readable after (or during)
/// a run without downcasting.  Fields that do not apply to a design are
/// `None`; counters that apply to every design are plain integers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DesignStats {
    /// Transactions aborted because of storage errors.
    pub aborted: u64,
    /// Distributed (multi-instance) transactions executed — shared-nothing
    /// designs only (paper §III-C).
    pub distributed_txns: Option<u64>,
    /// Number of database instances — shared-nothing designs only.
    pub instances: Option<usize>,
    /// Repartitionings performed so far — adaptive designs only.
    pub repartitions: Option<u64>,
    /// Data partitions currently in force, summed over tables —
    /// partitioned designs only.
    pub partitions: Option<usize>,
}

/// A transaction-processing system design under evaluation.
///
/// Designs are `Send`: each one owns its whole state (database instances,
/// lock tables, controllers), so a `Box<dyn SystemDesign>` can move to a
/// worker thread of the [`crate::sweep`] experiment lab.
pub trait SystemDesign: Send {
    /// Human-readable name used in benchmark output.
    fn name(&self) -> &str;

    /// Execute one transaction submitted by the client bound to `client`,
    /// starting at virtual time `start`.  The design charges all costs to
    /// `machine` and returns when the transaction finished.
    fn execute(
        &mut self,
        machine: &mut Machine,
        spec: &TransactionSpec,
        client: CoreId,
        start: Cycles,
    ) -> TxnOutcome;

    /// Called by the executor at the end of every monitoring interval with
    /// the throughput observed during that interval (committed transactions
    /// per virtual second).  Adaptive designs may repartition here.
    fn on_interval(
        &mut self,
        _machine: &mut Machine,
        _now: Cycles,
        _interval_throughput: f64,
    ) -> IntervalOutcome {
        IntervalOutcome::default()
    }

    /// Called when the machine topology changed (socket failure/restore) so
    /// the design can react on the next interval.
    fn on_topology_change(&mut self, _machine: &Machine) {}

    /// Structured statistics of the design (distributed-transaction counts,
    /// partition counts, repartitioning history, …).  Harnesses read this
    /// instead of downcasting to concrete design types.
    fn stats(&self) -> DesignStats {
        DesignStats::default()
    }
}
