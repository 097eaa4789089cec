//! Per-core performance counters and component time breakdowns.
//!
//! The paper's evaluation reports hardware-counter-derived metrics
//! (instructions retired per cycle, Figure 1) and profiler-derived time
//! breakdowns per system component (Figure 4).  The simulator computes both
//! from first principles: every simulated operation reports how many
//! instructions it retires, how many cycles it takes, and which component of
//! the storage manager it belongs to.

use crate::clock::Cycles;
use crate::topology::SocketId;
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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

/// One interconnect transfer: (from socket, to socket, bytes).
pub type Transfer = (SocketId, SocketId, u64);

/// Inline capacity of [`TrafficList`].  A single simulated step rarely
/// generates more than a couple of cross-socket transfers (one line
/// transfer plus a synchronization message or two), so four inline slots
/// keep the hot path allocation-free.
const TRAFFIC_INLINE: usize = 4;

/// The interconnect transfers of one step: a small-vector that stores the
/// common case inline and spills to the heap only for unusually chatty
/// steps.
#[derive(Debug, Clone)]
pub struct TrafficList {
    len: u8,
    inline: [Transfer; TRAFFIC_INLINE],
    spill: Vec<Transfer>,
}

impl Default for TrafficList {
    fn default() -> Self {
        Self {
            len: 0,
            inline: [(SocketId(0), SocketId(0), 0); TRAFFIC_INLINE],
            spill: Vec::new(),
        }
    }
}

impl TrafficList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a transfer.
    #[inline]
    pub fn push(&mut self, t: Transfer) {
        let i = self.len as usize;
        if i < TRAFFIC_INLINE {
            self.inline[i] = t;
            self.len += 1;
        } else {
            self.spill.push(t);
        }
    }

    /// Number of transfers recorded.
    pub fn len(&self) -> usize {
        self.len as usize + self.spill.len()
    }

    /// Whether no transfer was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over the transfers in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Transfer> {
        self.inline[..self.len as usize]
            .iter()
            .chain(self.spill.iter())
    }

    /// Drop all transfers (keeps the spill capacity).
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

impl<'a> IntoIterator for &'a TrafficList {
    type Item = &'a Transfer;
    type IntoIter =
        std::iter::Chain<std::slice::Iter<'a, Transfer>, std::slice::Iter<'a, Transfer>>;

    fn into_iter(self) -> Self::IntoIter {
        self.inline[..self.len as usize]
            .iter()
            .chain(self.spill.iter())
    }
}

/// Everything a single simulated step (action, transaction, or background
/// task) accrues.  Produced by [`crate::SimCtx::finish`] and merged into the
/// machine-wide counters.
#[derive(Debug, Clone, Default)]
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
    /// Interconnect traffic generated: (from socket, to socket, bytes).
    pub traffic: TrafficList,
    /// Bytes served from the local memory controller.
    pub local_memory_bytes: u64,
    /// Number of times this step had to wait for a contended line or
    /// resource held by another core.
    pub waits: u64,
}

/// Cumulative counters for one core.
#[derive(Debug, Clone, Default)]
pub struct CoreCounters {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles doing useful work.
    pub busy_cycles: Cycles,
    /// Stalled cycles.
    pub stall_cycles: Cycles,
    /// Spinning cycles.
    pub spin_cycles: Cycles,
    /// Per-component cycle breakdown.
    pub breakdown: Breakdown,
    /// Number of waits on contended lines/resources.
    pub waits: u64,
    /// Latest virtual time observed on this core.
    pub last_seen: Cycles,
}

impl CoreCounters {
    /// Fold a step's tally into the cumulative counters.
    pub fn absorb(&mut self, tally: &Tally) {
        self.instructions += tally.instructions;
        self.busy_cycles += tally.busy_cycles;
        self.stall_cycles += tally.stall_cycles;
        self.spin_cycles += tally.spin_cycles;
        self.breakdown.merge(&tally.breakdown);
        self.waits += tally.waits;
        self.last_seen = self.last_seen.max(tally.end);
    }

    /// Total cycles the core was occupied.
    pub fn occupied_cycles(&self) -> Cycles {
        self.busy_cycles + self.stall_cycles + self.spin_cycles
    }

    /// Instructions per cycle over the cycles the core was occupied.
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
    fn core_counters_absorb_tallies() {
        let mut cc = CoreCounters::default();
        let mut t = Tally {
            start: 0,
            end: 500,
            instructions: 400,
            busy_cycles: 400,
            stall_cycles: 100,
            ..Default::default()
        };
        t.breakdown.add(Component::XctExecution, 500);
        cc.absorb(&t);
        cc.absorb(&t);
        assert_eq!(cc.instructions, 800);
        assert_eq!(cc.occupied_cycles(), 1000);
        assert!((cc.ipc() - 0.8).abs() < 1e-12);
        assert_eq!(cc.last_seen, 500);
    }

    #[test]
    fn ipc_of_idle_core_is_zero() {
        assert_eq!(CoreCounters::default().ipc(), 0.0);
    }
}
