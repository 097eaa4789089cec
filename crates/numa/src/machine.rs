//! The simulated machine: topology + cost model + one running total.

use crate::clock::{cycles_to_secs, Cycles};
use crate::cost::CostModel;
use crate::counters::Tally;
use crate::ctx::SimCtx;
use crate::topology::{CoreId, Topology};

/// A multisocket machine under simulation.
///
/// Owns the hardware description (topology, cost model) and the
/// machine-wide running total of everything the committed steps accrued.
/// Execution engines create short-lived [`SimCtx`] accounting contexts with
/// [`Machine::ctx`] and merge them back with [`Machine::commit`].
#[derive(Debug, Clone)]
pub struct Machine {
    /// Hardware topology (sockets, cores, distances).
    pub topology: Topology,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Sum of every committed tally.
    totals: Tally,
    /// No step still to come starts before this virtual time.
    low_water: Cycles,
}

impl Machine {
    /// Build a machine from a topology and cost model.
    pub fn new(topology: Topology, cost: CostModel) -> Self {
        Self {
            topology,
            cost,
            totals: Tally::default(),
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

    /// Add a finished step's tally to the machine-wide total.
    pub fn commit(&mut self, tally: &Tally) {
        self.totals.absorb(tally);
    }

    /// The machine-wide total of every committed tally: instructions,
    /// occupied cycles, the component breakdown, and the remote and local
    /// byte counts.  Its `start` and `end` are 0.
    pub fn totals(&self) -> &Tally {
        &self.totals
    }

    /// Convert cycles to seconds at this machine's frequency.
    pub fn secs(&self, cycles: Cycles) -> f64 {
        cycles_to_secs(cycles, self.topology.frequency_ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Component;
    use crate::topology::SocketId;

    #[test]
    fn commit_accumulates_work_and_traffic() {
        let mut m = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
        let mut ctx = m.ctx(CoreId(0), 0);
        ctx.work(Component::XctExecution, 1000);
        ctx.memory_read(Component::XctExecution, SocketId(1), 128);
        let tally = ctx.finish();
        m.commit(&tally);
        assert_eq!(m.totals().instructions, 1000);
        assert_eq!(m.totals().remote_bytes, 128);
        assert!(m.totals().ipc() > 0.0 && m.totals().ipc() <= 1.0);
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
            m.commit(&t);
        }
        assert_eq!(m.totals().breakdown.get(Component::Logging), 200);
    }
}
