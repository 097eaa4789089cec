//! What a run counts: the [`Tally`] of a step, and the component time
//! breakdown inside it.
//!
//! The paper's evaluation reports hardware-counter-derived metrics
//! (instructions retired per cycle, Figure 1; the QPI/IMC traffic ratio,
//! Table I) and profiler-derived time breakdowns per system component
//! (Figure 4).  The simulator computes them from first principles: every
//! simulated operation reports how many instructions it retires, how many
//! cycles it takes, which component of the storage manager it belongs to,
//! and how many bytes it moves across or within a socket.  All of these
//! are machine-wide sums; nothing is kept per link, per line or per core.

use crate::clock::Cycles;
use serde::{Deserialize, Serialize};

/// Storage-manager component a piece of work is attributed to.  Matches the
/// categories of the paper's Figure 4 time breakdown, plus latching and
/// monitoring which the paper discusses separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Transaction management: begin/commit/abort bookkeeping, transaction
    /// list maintenance, state read-locks.
    XctManagement,
    /// Useful transaction logic: index probes, tuple reads and writes.
    XctExecution,
    /// Inter-thread / inter-instance communication (action routing,
    /// synchronization points, 2PC messages).
    Communication,
    /// Logical locking (lock-manager work and lock waits).
    Locking,
    /// Physical latching on pages and internal structures.
    Latching,
    /// Log-buffer insertion and commit-time log waits.
    Logging,
    /// ATraPos monitoring instrumentation.
    Monitoring,
}

/// Number of distinct [`Component`] values.
pub const COMPONENT_COUNT: usize = 7;

impl Component {
    /// All components, in display order.
    pub const ALL: [Component; COMPONENT_COUNT] = [
        Component::XctManagement,
        Component::XctExecution,
        Component::Communication,
        Component::Locking,
        Component::Latching,
        Component::Logging,
        Component::Monitoring,
    ];

    /// Dense index for array-indexed accumulation.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Component::XctManagement => 0,
            Component::XctExecution => 1,
            Component::Communication => 2,
            Component::Locking => 3,
            Component::Latching => 4,
            Component::Logging => 5,
            Component::Monitoring => 6,
        }
    }

    /// Human-readable label (matches the paper's Figure 4 legend where
    /// applicable).
    pub fn label(self) -> &'static str {
        match self {
            Component::XctManagement => "xct management",
            Component::XctExecution => "xct execution",
            Component::Communication => "communication",
            Component::Locking => "locking",
            Component::Latching => "latching",
            Component::Logging => "logging",
            Component::Monitoring => "monitoring",
        }
    }
}

/// Cycle breakdown by component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    cycles: [u64; COMPONENT_COUNT],
}

impl Breakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `cycles` to `component`.
    #[inline]
    pub fn add(&mut self, component: Component, cycles: Cycles) {
        self.cycles[component.index()] += cycles;
    }

    /// Cycles attributed to `component`.
    #[inline]
    pub fn get(&self, component: Component) -> Cycles {
        self.cycles[component.index()]
    }

    /// Sum of all components.
    pub fn total(&self) -> Cycles {
        self.cycles.iter().sum()
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for i in 0..COMPONENT_COUNT {
            self.cycles[i] += other.cycles[i];
        }
    }

    /// Component-wise difference `self − other` (saturating at zero).  Used
    /// to compute per-segment breakdowns from cumulative counters.
    pub fn saturating_sub(&self, other: &Breakdown) -> Breakdown {
        let mut out = Breakdown::new();
        for i in 0..COMPONENT_COUNT {
            out.cycles[i] = self.cycles[i].saturating_sub(other.cycles[i]);
        }
        out
    }

    /// Fraction of the total attributed to `component` (0.0 if empty).
    pub fn fraction(&self, component: Component) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(component) as f64 / total as f64
        }
    }
}

/// Everything a simulated step (action, transaction, or background task)
/// accrues: produced by [`crate::SimCtx::finish`] and absorbed into the
/// machine-wide running total, which is a `Tally` too.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Virtual time at which the step started.
    pub start: Cycles,
    /// Virtual time at which the step finished.
    pub end: Cycles,
    /// Instructions retired (useful work plus spin-loop instructions).
    pub instructions: u64,
    /// Cycles spent doing useful work.
    pub busy_cycles: Cycles,
    /// Cycles stalled on memory/cache/interconnect with no instructions
    /// retiring.
    pub stall_cycles: Cycles,
    /// Cycles spent spin-waiting (instructions retire at the spin IPC).
    pub spin_cycles: Cycles,
    /// Per-component breakdown of all cycles.
    pub breakdown: Breakdown,
    /// Bytes that crossed a socket boundary (the paper's QPI traffic).
    pub remote_bytes: u64,
    /// Bytes served from the local memory controller.
    pub local_memory_bytes: u64,
}

impl Tally {
    /// Add `other`'s counts to this one; `start` and `end` stay as they are.
    pub fn absorb(&mut self, other: &Tally) {
        self.instructions += other.instructions;
        self.busy_cycles += other.busy_cycles;
        self.stall_cycles += other.stall_cycles;
        self.spin_cycles += other.spin_cycles;
        self.breakdown.merge(&other.breakdown);
        self.remote_bytes += other.remote_bytes;
        self.local_memory_bytes += other.local_memory_bytes;
    }

    /// The counts accrued between `earlier` and `self`, two readings of the
    /// same running total.
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            start: earlier.end,
            end: self.end,
            instructions: self.instructions - earlier.instructions,
            busy_cycles: self.busy_cycles - earlier.busy_cycles,
            stall_cycles: self.stall_cycles - earlier.stall_cycles,
            spin_cycles: self.spin_cycles - earlier.spin_cycles,
            breakdown: self.breakdown.saturating_sub(&earlier.breakdown),
            remote_bytes: self.remote_bytes - earlier.remote_bytes,
            local_memory_bytes: self.local_memory_bytes - earlier.local_memory_bytes,
        }
    }

    /// Cycles the cores were occupied: busy + stall + spin.
    pub fn occupied_cycles(&self) -> Cycles {
        self.busy_cycles + self.stall_cycles + self.spin_cycles
    }

    /// Instructions per occupied cycle (0.0 when nothing ran).
    ///
    /// This mirrors what a profiler reports on a saturated system: every
    /// core is either doing work, stalled on the memory system, or
    /// spinning, and IPC is instructions retired divided by those cycles
    /// (Figure 1).
    pub fn ipc(&self) -> f64 {
        let c = self.occupied_cycles();
        if c == 0 {
            0.0
        } else {
            self.instructions as f64 / c as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_indices_are_dense_and_unique() {
        let mut seen = [false; COMPONENT_COUNT];
        for c in Component::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn breakdown_accumulates_and_merges() {
        let mut a = Breakdown::new();
        a.add(Component::Locking, 100);
        a.add(Component::Logging, 300);
        let mut b = Breakdown::new();
        b.add(Component::Locking, 50);
        a.merge(&b);
        assert_eq!(a.get(Component::Locking), 150);
        assert_eq!(a.total(), 450);
        assert!((a.fraction(Component::Logging) - 300.0 / 450.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        let b = Breakdown::new();
        assert_eq!(b.fraction(Component::Locking), 0.0);
    }

    #[test]
    fn a_running_total_absorbs_tallies_and_reads_back_deltas() {
        let mut total = Tally::default();
        let mut t = Tally {
            start: 0,
            end: 500,
            instructions: 400,
            busy_cycles: 400,
            stall_cycles: 100,
            remote_bytes: 64,
            ..Default::default()
        };
        t.breakdown.add(Component::XctExecution, 500);
        total.absorb(&t);
        let first = total;
        total.absorb(&t);
        assert_eq!(total.instructions, 800);
        assert_eq!(total.occupied_cycles(), 1000);
        assert_eq!(total.remote_bytes, 128);
        assert!((total.ipc() - 0.8).abs() < 1e-12);
        let delta = total.since(&first);
        assert_eq!((delta.instructions, delta.remote_bytes), (400, 64));
        assert_eq!(delta.breakdown, t.breakdown);
    }

    #[test]
    fn ipc_of_idle_core_is_zero() {
        assert_eq!(Tally::default().ipc(), 0.0);
    }
}
