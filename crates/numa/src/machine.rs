//! The simulated machine: topology + cost model + cumulative counters.

use crate::clock::{cycles_to_secs, Cycles};
use crate::cost::CostModel;
use crate::counters::{Breakdown, CoreCounters, Tally};
use crate::ctx::SimCtx;
use crate::interconnect::Interconnect;
use crate::topology::{CoreId, Topology};

/// A multisocket machine under simulation.
///
/// Owns the hardware description (topology, cost model) and the cumulative
/// performance counters (per-core work, interconnect traffic).  Execution
/// engines create short-lived [`SimCtx`] accounting contexts with
/// [`Machine::ctx`] and merge them back with [`Machine::commit`].
#[derive(Debug, Clone)]
pub struct Machine {
    /// Hardware topology (sockets, cores, distances).
    pub topology: Topology,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Cumulative per-core counters.
    cores: Vec<CoreCounters>,
    /// Cumulative interconnect/memory traffic.
    pub interconnect: Interconnect,
    /// No step still to come starts before this virtual time.
    low_water: Cycles,
}

impl Machine {
    /// Build a machine from a topology and cost model.
    pub fn new(topology: Topology, cost: CostModel) -> Self {
        let n_cores = topology.num_cores();
        let n_sockets = topology.num_sockets();
        Self {
            topology,
            cost,
            cores: vec![CoreCounters::default(); n_cores],
            interconnect: Interconnect::new(n_sockets),
            low_water: 0,
        }
    }

    /// Start an accounting context for `core` at virtual time `start`,
    /// stamped with the machine's low-water mark.
    pub fn ctx(&self, core: CoreId, start: Cycles) -> SimCtx<'_> {
        SimCtx::new(&self.topology, &self.cost, core, start).with_low_water(self.low_water)
    }

    /// The low-water mark: the earliest virtual time at which any step
    /// still to come can start.
    pub fn low_water(&self) -> Cycles {
        self.low_water
    }

    /// Raise the low-water mark to `mark`.  The caller promises that no
    /// context it creates from now on starts, or does anything, before
    /// `mark` — which lets time-stamped state that only an earlier request
    /// could observe be forgotten.  The mark never decreases.
    pub fn set_low_water(&mut self, mark: Cycles) {
        debug_assert!(
            mark >= self.low_water,
            "low-water mark went back from {} to {mark}",
            self.low_water
        );
        self.low_water = mark;
    }

    /// Merge a finished step's tally into the machine counters.
    pub fn commit(&mut self, core: CoreId, tally: &Tally) {
        self.cores[core.index()].absorb(tally);
        for &(from, to, bytes) in &tally.traffic {
            self.interconnect.record(from, to, bytes);
        }
        self.interconnect.record_local(tally.local_memory_bytes);
    }

    /// Cumulative counters of one core.
    pub fn core_counters(&self, core: CoreId) -> &CoreCounters {
        &self.cores[core.index()]
    }

    /// Machine-wide instructions retired.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Machine-wide occupied cycles (busy + stall + spin over all cores).
    pub fn total_occupied_cycles(&self) -> Cycles {
        self.cores.iter().map(|c| c.occupied_cycles()).sum()
    }

    /// Machine-wide IPC over occupied cycles.
    ///
    /// This mirrors what a profiler reports on a saturated system: every
    /// core is either doing work, stalled on the memory system, or spinning,
    /// and IPC is instructions retired divided by those cycles (Figure 1).
    pub fn ipc(&self) -> f64 {
        let cycles = self.total_occupied_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / cycles as f64
        }
    }

    /// Machine-wide component breakdown.
    pub fn breakdown(&self) -> Breakdown {
        let mut b = Breakdown::new();
        for c in &self.cores {
            b.merge(&c.breakdown);
        }
        b
    }

    /// Convert cycles to seconds at this machine's frequency.
    pub fn secs(&self, cycles: Cycles) -> f64 {
        cycles_to_secs(cycles, self.topology.frequency_ghz())
    }

    /// Reset all counters (topology and cost model are preserved).
    pub fn reset_counters(&mut self) {
        for c in &mut self.cores {
            *c = CoreCounters::default();
        }
        self.interconnect.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Component;
    use crate::topology::SocketId;

    #[test]
    fn commit_accumulates_per_core_and_traffic() {
        let mut m = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
        let mut ctx = m.ctx(CoreId(0), 0);
        ctx.work(Component::XctExecution, 1000);
        ctx.memory_read(Component::XctExecution, SocketId(1), 128);
        let tally = ctx.finish();
        m.commit(CoreId(0), &tally);
        assert_eq!(m.core_counters(CoreId(0)).instructions, 1000);
        assert_eq!(m.interconnect.total_cross_socket_bytes(), 128);
        assert!(m.ipc() > 0.0 && m.ipc() <= 1.0);
    }

    #[test]
    fn reset_clears_counters_but_keeps_hardware() {
        let mut m = Machine::new(Topology::westmere_ex_8x10(), CostModel::westmere());
        let mut ctx = m.ctx(CoreId(5), 0);
        ctx.work(Component::Locking, 10);
        let t = ctx.finish();
        m.commit(CoreId(5), &t);
        assert!(m.total_instructions() > 0);
        m.reset_counters();
        assert_eq!(m.total_instructions(), 0);
        assert_eq!(m.topology.num_cores(), 80);
    }

    #[test]
    fn contexts_carry_the_low_water_mark() {
        let mut m = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
        assert_eq!(m.ctx(CoreId(0), 0).low_water(), 0);
        m.set_low_water(500);
        m.set_low_water(500);
        assert_eq!(m.low_water(), 500);
        assert_eq!(m.ctx(CoreId(1), 700).low_water(), 500);
        // A bare context knows nothing about later steps.
        assert_eq!(
            SimCtx::new(&m.topology, &m.cost, CoreId(1), 700).low_water(),
            0
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "low-water mark went back")]
    fn the_low_water_mark_never_decreases() {
        let mut m = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
        m.set_low_water(500);
        m.set_low_water(499);
    }

    #[test]
    fn breakdown_merges_components_across_cores() {
        let mut m = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
        for core in [CoreId(0), CoreId(3)] {
            let mut ctx = m.ctx(core, 0);
            ctx.work(Component::Logging, 100);
            let t = ctx.finish();
            m.commit(core, &t);
        }
        let b = m.breakdown();
        assert_eq!(b.get(Component::Logging), 200);
    }
}
