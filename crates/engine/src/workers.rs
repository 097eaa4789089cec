//! Partition worker bookkeeping.
//!
//! In the data-oriented execution model every logical partition is served by
//! exactly one worker thread bound to one core.  In the virtual-time
//! simulation a worker is represented by its core and the time until which
//! it is busy: actions routed to a worker queue behind its previous work.
//! This is what makes oversaturation visible — when the naive partitioning
//! scheme puts one partition of *every* table on each core (paper Figure 6),
//! the per-core worker becomes the bottleneck and throughput halves.

use atrapos_numa::{CoreId, Cycles, Topology};

/// The set of partition workers, one per (active) core that hosts at least
/// one partition.
#[derive(Debug, Clone, Default)]
pub struct WorkerPool {
    /// `busy_until[core]`: virtual time until which the worker bound to that
    /// core is occupied.
    busy_until: Vec<Cycles>,
    /// Cumulative busy cycles per core (utilization accounting).
    busy_cycles: Vec<Cycles>,
}

impl WorkerPool {
    /// A pool with one (idle) worker slot per core of the machine.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.num_cores();
        Self {
            busy_until: vec![0; n],
            busy_cycles: vec![0; n],
        }
    }

    /// Earliest time at or after `at` when the worker on `core` can start a
    /// new action.
    pub fn available_at(&self, core: CoreId, at: Cycles) -> Cycles {
        self.busy_until[core.index()].max(at)
    }

    /// Record that the worker on `core` executed an action from `start` to
    /// `end`.
    pub fn occupy(&mut self, core: CoreId, start: Cycles, end: Cycles) {
        debug_assert!(end >= start);
        let slot = &mut self.busy_until[core.index()];
        *slot = (*slot).max(end);
        self.busy_cycles[core.index()] += end - start;
    }

    /// Push every worker's availability forward to at least `t` (used when
    /// the system pauses for repartitioning).
    pub fn pause_all_until(&mut self, t: Cycles) {
        for b in &mut self.busy_until {
            *b = (*b).max(t);
        }
    }

    /// Cumulative busy cycles of the worker on `core`.
    pub fn busy_cycles(&self, core: CoreId) -> Cycles {
        self.busy_cycles[core.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_queue_back_to_back() {
        let topo = Topology::multisocket(1, 2);
        let mut pool = WorkerPool::new(&topo);
        assert_eq!(pool.available_at(CoreId(0), 100), 100);
        pool.occupy(CoreId(0), 100, 600);
        // The next action queued at t=200 cannot start before 600.
        assert_eq!(pool.available_at(CoreId(0), 200), 600);
        // A different core is unaffected.
        assert_eq!(pool.available_at(CoreId(1), 200), 200);
        assert_eq!(pool.busy_cycles(CoreId(0)), 500);
    }

    #[test]
    fn pause_pushes_all_workers_forward() {
        let topo = Topology::multisocket(1, 2);
        let mut pool = WorkerPool::new(&topo);
        pool.occupy(CoreId(0), 0, 100);
        pool.pause_all_until(5_000);
        assert_eq!(pool.available_at(CoreId(0), 0), 5_000);
        assert_eq!(pool.available_at(CoreId(1), 0), 5_000);
    }
}
