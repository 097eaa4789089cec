//! The simulation context: the accounting object threaded through every
//! storage-manager and execution-engine operation.
//!
//! A [`SimCtx`] represents one core executing one piece of work (an action,
//! a whole transaction, or a background task) starting at some virtual time.
//! Storage operations call its methods to charge useful work, cache-line
//! accesses, resource acquisitions, memory reads, and messages; the context
//! advances its virtual clock and records instructions, cycles (by
//! [`Component`]), and the bytes it moved across and within sockets.  When
//! the step is done, [`SimCtx::finish`] yields a [`Tally`] that the caller
//! merges into the machine-wide total.

use crate::clock::Cycles;
use crate::contention::{AccessKind, ContendedLine, WaitMode};
use crate::cost::CostModel;
use crate::counters::{Component, Tally};
use crate::topology::{CoreId, SocketId, Topology};

/// Per-step simulation context for one core.
#[derive(Debug)]
pub struct SimCtx<'a> {
    topo: &'a Topology,
    cost: &'a CostModel,
    core: CoreId,
    socket: SocketId,
    now: Cycles,
    low_water: Cycles,
    tally: Tally,
}

impl<'a> SimCtx<'a> {
    /// Start a step on `core` at virtual time `start`.  Its low-water mark
    /// is 0: nothing is known about the times of later steps.
    pub fn new(topo: &'a Topology, cost: &'a CostModel, core: CoreId, start: Cycles) -> Self {
        let socket = topo.socket_of(core);
        let tally = Tally {
            start,
            end: start,
            ..Tally::default()
        };
        Self {
            topo,
            cost,
            core,
            socket,
            now: start,
            low_water: 0,
            tally,
        }
    }

    /// Stamp the machine's low-water mark on a fresh step.
    pub(crate) fn with_low_water(mut self, mark: Cycles) -> Self {
        self.low_water = mark;
        self
    }

    /// Current virtual time on this core.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The earliest virtual time at which this or any later step can still
    /// start (see [`crate::Machine::set_low_water`]); 0 when unknown.
    #[inline]
    pub fn low_water(&self) -> Cycles {
        self.low_water
    }

    /// The core executing this step.
    #[inline]
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The socket of the executing core.
    #[inline]
    pub fn socket(&self) -> SocketId {
        self.socket
    }

    /// The machine topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// The cost model.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        self.cost
    }

    /// Cycles elapsed since the step started.
    #[inline]
    pub fn elapsed(&self) -> Cycles {
        self.now - self.tally.start
    }

    /// Cycles and instructions accrued so far, without ending the step.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Execute `instructions` instructions of useful work attributed to
    /// `component`.
    pub fn work(&mut self, component: Component, instructions: u64) {
        let cycles = self.cost.work_cycles(instructions);
        self.tally.instructions += instructions;
        self.tally.busy_cycles += cycles;
        self.tally.breakdown.add(component, cycles);
        self.now += cycles;
    }

    /// Stall for `cycles` cycles (no instructions retire).
    pub fn stall(&mut self, component: Component, cycles: Cycles) {
        self.tally.stall_cycles += cycles;
        self.tally.breakdown.add(component, cycles);
        self.now += cycles;
    }

    /// Spin-wait for `cycles` cycles (instructions retire at the spin IPC).
    pub fn spin(&mut self, component: Component, cycles: Cycles) {
        self.tally.spin_cycles += cycles;
        self.tally.instructions += self.cost.spin_instructions(cycles);
        self.tally.breakdown.add(component, cycles);
        self.now += cycles;
    }

    /// Wait (in the given mode) until virtual time `t`, if `t` is in the
    /// future.  Returns the number of cycles waited.
    pub fn wait_until(&mut self, component: Component, t: Cycles, mode: WaitMode) -> Cycles {
        let waited = t.saturating_sub(self.now);
        if waited > 0 {
            match mode {
                WaitMode::Spin => self.spin(component, waited),
                WaitMode::Stall => self.stall(component, waited),
            }
        }
        waited
    }

    /// Access a contended cache line.
    ///
    /// For [`AccessKind::Rmw`] the access books an exclusive span on the
    /// line's timeline (waiting for earlier exclusive accesses to drain),
    /// transfers the line (paying a distance-dependent cost), and takes
    /// ownership — concurrent RMWs therefore serialize, exactly like CAS
    /// operations on the head of a shared list.  For [`AccessKind::Read`]
    /// the access waits for any in-flight exclusive access but does not
    /// itself occupy the line.
    ///
    /// Returns the total cycles consumed (wait + transfer).
    pub fn access_line(
        &mut self,
        component: Component,
        line: &mut ContendedLine,
        kind: AccessKind,
        wait: WaitMode,
    ) -> Cycles {
        let before = self.now;
        let (transfer, crossed) = self.line_transfer_cost(line, kind);
        let grant = match kind {
            AccessKind::Rmw => line.book_exclusive(self.now, transfer),
            AccessKind::Read => line.earliest_grant(self.now, 1),
        };
        self.wait_until(component, grant, wait);
        self.stall(component, transfer);
        self.record_line_traffic(line, crossed);
        line.commit_access(kind, self.socket);
        self.now - before
    }

    /// Cost of bringing `line` into this core's cache, given its current
    /// owner: (cycles, crossed a socket boundary).
    fn line_transfer_cost(&self, line: &ContendedLine, kind: AccessKind) -> (Cycles, bool) {
        let (cycles, hops) = match line.owner() {
            Some(owner) if owner == self.socket => (self.cost.cache_transfer(0), 0),
            Some(owner) => {
                let hops = self.topo.distance(self.socket, owner);
                (self.cost.cache_transfer(hops), hops)
            }
            None => {
                let hops = self.topo.distance(self.socket, line.home);
                (self.cost.memory_access(hops), hops)
            }
        };
        let cycles = if kind == AccessKind::Rmw {
            cycles + self.cost.atomic_local
        } else {
            cycles
        };
        (cycles, hops > 0)
    }

    /// Count the line's bytes: remote when the transfer crossed a socket
    /// boundary, local when it came from this socket's memory.
    fn record_line_traffic(&mut self, line: &ContendedLine, crossed: bool) {
        if crossed {
            self.tally.remote_bytes += self.cost.cache_line_bytes;
        } else if line.owner().is_none() {
            self.tally.local_memory_bytes += self.cost.cache_line_bytes;
        }
    }

    /// Execute a *short* critical section protected by a spinlock/latch whose
    /// lock word is `line`: wait for any in-flight holder, transfer the line
    /// exclusively, execute `instructions` of protected work, and keep the
    /// line occupied until the work completes — the model for latches and
    /// lock-table buckets that are held for a few hundred cycles at a time.
    ///
    /// Returns the total cycles consumed (wait + transfer + work).
    pub fn critical_section(
        &mut self,
        component: Component,
        line: &mut ContendedLine,
        wait: WaitMode,
        instructions: u64,
    ) -> Cycles {
        let before = self.now;
        let (transfer, crossed) = self.line_transfer_cost(line, AccessKind::Rmw);
        let work = self.cost.work_cycles(instructions);
        let grant = line.book_exclusive(self.now, transfer + work);
        self.wait_until(component, grant, wait);
        self.stall(component, transfer);
        self.work(component, instructions);
        self.record_line_traffic(line, crossed);
        line.commit_access(AccessKind::Rmw, self.socket);
        self.now - before
    }

    /// Read `bytes` bytes from the memory node of socket `node`.  The first
    /// cache line pays the full access latency; subsequent lines stream at a
    /// quarter of it (hardware prefetching).
    pub fn memory_read(&mut self, component: Component, node: SocketId, bytes: u64) -> Cycles {
        let before = self.now;
        let hops = self.topo.distance(self.socket, node);
        let lines = bytes.div_ceil(self.cost.cache_line_bytes).max(1);
        let first = self.cost.memory_access(hops);
        let rest = (lines - 1) * (first / 4);
        self.stall(component, first + rest);
        if hops > 0 {
            self.tally.remote_bytes += lines * self.cost.cache_line_bytes;
        } else {
            self.tally.local_memory_bytes += lines * self.cost.cache_line_bytes;
        }
        self.now - before
    }

    /// Exchange a `bytes`-sized message with a thread on `to` (cost depends
    /// on the hop distance; same-socket messages are nearly free).
    pub fn send_message(&mut self, component: Component, to: SocketId, bytes: u64) -> Cycles {
        let hops = self.topo.distance(self.socket, to);
        let cycles = self.cost.message(hops, bytes);
        self.stall(component, cycles);
        if hops > 0 {
            self.tally.remote_bytes += bytes;
        }
        cycles
    }

    /// End the step and return its tally.
    pub fn finish(mut self) -> Tally {
        self.tally.end = self.now;
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn setup() -> (Topology, CostModel) {
        (Topology::multisocket(4, 4), CostModel::westmere())
    }

    #[test]
    fn work_advances_time_and_counts_instructions() {
        let (t, c) = setup();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 100);
        ctx.work(Component::XctExecution, 500);
        assert_eq!(ctx.now(), 100 + 500); // base_ipc = 1.0
        let tally = ctx.finish();
        assert_eq!(tally.instructions, 500);
        assert_eq!(tally.busy_cycles, 500);
        assert_eq!(tally.start, 100);
        assert_eq!(tally.end, 600);
    }

    #[test]
    fn local_line_access_is_cheap_remote_is_expensive() {
        let (t, c) = setup();
        // Core 0 (socket 0) takes the line.
        let mut line = ContendedLine::new(SocketId(0));
        let mut ctx0 = SimCtx::new(&t, &c, CoreId(0), 0);
        ctx0.access_line(
            Component::XctManagement,
            &mut line,
            AccessKind::Rmw,
            WaitMode::Stall,
        );
        let local_cost = {
            let mut ctx = SimCtx::new(&t, &c, CoreId(1), ctx0.now());
            ctx.access_line(
                Component::XctManagement,
                &mut line,
                AccessKind::Rmw,
                WaitMode::Stall,
            )
        };
        // Core on socket 2 accesses the line now owned by socket 0.
        let remote_cost = {
            let mut ctx = SimCtx::new(&t, &c, CoreId(8), line.busy_horizon());
            ctx.access_line(
                Component::XctManagement,
                &mut line,
                AccessKind::Rmw,
                WaitMode::Stall,
            )
        };
        assert!(
            remote_cost > 3 * local_cost,
            "remote {remote_cost} vs local {local_cost}"
        );
        assert_eq!(line.owner(), Some(SocketId(2)));
    }

    #[test]
    fn concurrent_rmw_accesses_serialize() {
        let (t, c) = setup();
        let mut line = ContendedLine::new(SocketId(0));
        // First access at t=0 pins the line until its completion.
        let mut ctx_a = SimCtx::new(&t, &c, CoreId(0), 0);
        ctx_a.access_line(
            Component::Logging,
            &mut line,
            AccessKind::Rmw,
            WaitMode::Stall,
        );
        let free = line.busy_horizon();
        assert!(free > 0);
        // Second access starting at the same time must wait until the first
        // completes.
        let mut ctx_b = SimCtx::new(&t, &c, CoreId(4), 0);
        ctx_b.access_line(
            Component::Logging,
            &mut line,
            AccessKind::Rmw,
            WaitMode::Stall,
        );
        assert!(ctx_b.now() > free);
        let tally_b = ctx_b.finish();
        assert!(tally_b.stall_cycles >= free);
    }

    #[test]
    fn reads_wait_but_do_not_pin() {
        let (t, c) = setup();
        let mut line = ContendedLine::new(SocketId(0));
        let mut w = SimCtx::new(&t, &c, CoreId(0), 0);
        w.access_line(
            Component::XctManagement,
            &mut line,
            AccessKind::Rmw,
            WaitMode::Stall,
        );
        let pinned_until = line.busy_horizon();
        let mut r = SimCtx::new(&t, &c, CoreId(1), 0);
        r.access_line(
            Component::XctManagement,
            &mut line,
            AccessKind::Read,
            WaitMode::Stall,
        );
        assert!(r.now() >= pinned_until);
        // Reading did not extend the occupancy.
        assert_eq!(line.busy_horizon(), pinned_until);
    }

    #[test]
    fn spin_waits_retire_instructions_stalls_do_not() {
        let (t, c) = setup();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        ctx.spin(Component::Locking, 1000);
        let spin_instr = ctx.tally().instructions;
        assert!(spin_instr > 1000, "spin IPC should exceed 1");
        let mut ctx2 = SimCtx::new(&t, &c, CoreId(0), 0);
        ctx2.stall(Component::Locking, 1000);
        assert_eq!(ctx2.tally().instructions, 0);
    }

    #[test]
    fn remote_memory_read_generates_interconnect_traffic() {
        let (t, c) = setup();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        ctx.memory_read(Component::XctExecution, SocketId(3), 256);
        let tally = ctx.finish();
        assert_eq!(tally.remote_bytes, 256);
        assert_eq!(tally.local_memory_bytes, 0);

        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        ctx.memory_read(Component::XctExecution, SocketId(0), 256);
        let tally = ctx.finish();
        assert_eq!(tally.remote_bytes, 0);
        assert_eq!(tally.local_memory_bytes, 256);
    }

    #[test]
    fn messages_between_sockets_cost_more_than_local() {
        let (t, c) = setup();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let local = ctx.send_message(Component::Communication, SocketId(0), 128);
        let remote = ctx.send_message(Component::Communication, SocketId(2), 128);
        assert!(remote > 10 * local.max(1));
    }
}
