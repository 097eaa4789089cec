//! Property-based tests for the hardware-Island machine model: topology
//! metrics, the virtual-time contention primitives, the calibrated cost
//! model, the per-step accounting context, and what the machine counts.

use atrapos_numa::{
    AccessKind, Breakdown, Component, ContendedLine, CoreId, CostModel, Cycles, Machine, SimCtx,
    SocketId, Tally, Topology, WaitMode,
};
use proptest::prelude::*;

fn machine_shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=8, 1usize..=10)
}

proptest! {
    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// The inter-socket distance matrix of every preset is a metric-like
    /// function: zero on the diagonal, symmetric, positive off-diagonal, and
    /// bounded by the diameter.
    #[test]
    fn topology_distances_are_symmetric_and_bounded((sockets, cores) in machine_shape()) {
        let topo = Topology::multisocket(sockets, cores);
        prop_assert_eq!(topo.num_sockets(), sockets);
        prop_assert_eq!(topo.num_cores(), sockets * cores);
        let diameter = topo.diameter();
        for a in 0..sockets {
            for b in 0..sockets {
                let (sa, sb) = (SocketId(a as u16), SocketId(b as u16));
                let d = topo.distance(sa, sb);
                prop_assert_eq!(d, topo.distance(sb, sa));
                prop_assert!(d <= diameter);
                if a == b {
                    prop_assert_eq!(d, 0);
                } else {
                    prop_assert!(d >= 1);
                }
            }
        }
    }

    /// Core → socket assignment is consistent with socket → cores, and
    /// failing/restoring sockets updates the active sets exactly.
    #[test]
    fn topology_core_socket_maps_are_consistent(
        (sockets, cores) in machine_shape(),
        to_fail in prop::collection::btree_set(0usize..8, 0..4),
    ) {
        let mut topo = Topology::multisocket(sockets, cores);
        for s in 0..sockets {
            let socket = SocketId(s as u16);
            for &core in topo.cores_of(socket) {
                prop_assert_eq!(topo.socket_of(core), socket);
            }
            prop_assert_eq!(topo.cores_of(socket).len(), cores);
        }
        // Fail a subset of sockets, keeping at least one alive.
        let mut failed = Vec::new();
        for s in to_fail {
            if s < sockets && topo.active_sockets().len() > 1 {
                topo.fail_socket(SocketId(s as u16)).unwrap();
                failed.push(SocketId(s as u16));
            }
        }
        prop_assert_eq!(topo.active_sockets().len(), sockets - failed.len());
        prop_assert_eq!(topo.num_active_cores(), (sockets - failed.len()) * cores);
        for &s in &failed {
            prop_assert!(!topo.is_active(s));
            for &core in topo.cores_of(s) {
                prop_assert!(!topo.active_cores().contains(&core));
            }
        }
        for &s in &failed {
            topo.restore_socket(s).unwrap();
        }
        prop_assert_eq!(topo.num_active_cores(), sockets * cores);
    }

    // ------------------------------------------------------------------
    // Cost model
    // ------------------------------------------------------------------

    /// Cache-transfer, memory, atomic, and message costs are monotone in hop
    /// distance and message size, and the uniform ablation model removes the
    /// remote penalty entirely.
    #[test]
    fn cost_model_is_monotone_in_distance_and_size(
        hops_a in 0u32..4,
        hops_b in 0u32..4,
        bytes_a in 1u64..8_192,
        bytes_b in 1u64..8_192,
        instructions in prop_oneof![0u64..100_000, (1u64 << 53) - 2..(1u64 << 53) + 3, any::<u64>()],
        ipc in 0.25f64..4.0,
    ) {
        let c = CostModel::westmere();
        let (lo_hops, hi_hops) = (hops_a.min(hops_b), hops_a.max(hops_b));
        let (lo_bytes, hi_bytes) = (bytes_a.min(bytes_b), bytes_a.max(bytes_b));
        prop_assert!(c.cache_transfer(lo_hops) <= c.cache_transfer(hi_hops));
        prop_assert!(c.memory_access(lo_hops) <= c.memory_access(hi_hops));
        prop_assert!(c.message(lo_hops, lo_bytes) <= c.message(hi_hops, hi_bytes));
        // Work cycles follow the base IPC exactly: at the shipped IPC 1
        // (counts up to 2⁵³ take the integer path, larger ones the float
        // one) and at any other.
        prop_assert_eq!(c.work_cycles(instructions), (instructions as f64 / c.base_ipc).ceil() as Cycles);
        let custom = CostModel { base_ipc: ipc, ..CostModel::westmere() };
        prop_assert_eq!(custom.work_cycles(instructions), (instructions as f64 / ipc).ceil() as Cycles);
        // The uniform machine has no remote penalty at all.
        let u = CostModel::uniform();
        prop_assert_eq!(u.cache_transfer(0), u.cache_transfer(hi_hops));
        prop_assert_eq!(u.memory_access(0), u.memory_access(hi_hops));
    }

    // ------------------------------------------------------------------
    // Contended cache lines
    // ------------------------------------------------------------------

    /// Exclusive (RMW) accesses to one cache line serialize in virtual time:
    /// however the request times interleave, every access consumes cycles
    /// and the line stays busy until the last of them completes.
    #[test]
    fn contended_line_serializes_rmw_accesses(
        accesses in prop::collection::vec((0u32..16, 0u64..10_000), 1..60),
    ) {
        let topo = Topology::multisocket(4, 4);
        let cost = CostModel::westmere();
        let mut line = ContendedLine::new(SocketId(0));
        let mut last_end: Cycles = 0;
        for (core, start) in accesses {
            let mut ctx = SimCtx::new(&topo, &cost, CoreId(core), start);
            ctx.access_line(Component::XctManagement, &mut line, AccessKind::Rmw, WaitMode::Stall);
            prop_assert!(ctx.now() > start, "an RMW always consumes cycles");
            last_end = last_end.max(ctx.now());
        }
        prop_assert!(line.busy_horizon() >= last_end);
    }

    // ------------------------------------------------------------------
    // Simulation context accounting
    // ------------------------------------------------------------------

    /// Every accounting operation advances the virtual clock by exactly the
    /// cycles it reports, and the final tally's components sum to the
    /// elapsed time.
    #[test]
    fn sim_ctx_accounting_is_conservative(
        ops in prop::collection::vec((0usize..4, 1u64..5_000), 1..50),
        core in 0u32..8,
        start in 0u64..1_000_000,
    ) {
        let topo = Topology::multisocket(4, 2);
        let cost = CostModel::westmere();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(core), start);
        prop_assert_eq!(ctx.socket(), topo.socket_of(CoreId(core)));
        for (kind, amount) in ops {
            let before = ctx.now();
            match kind {
                0 => { ctx.work(Component::XctExecution, amount); }
                1 => { ctx.stall(Component::Locking, amount); }
                2 => { ctx.spin(Component::Latching, amount); }
                _ => { ctx.memory_read(Component::XctExecution, SocketId((amount % 4) as u16), amount); }
            }
            prop_assert!(ctx.now() >= before);
        }
        let elapsed = ctx.elapsed();
        let tally = ctx.finish();
        prop_assert_eq!(tally.end - tally.start, elapsed);
        prop_assert_eq!(tally.start, start);
        // Busy + stall + spin cycles never exceed the elapsed wall time on
        // this core, and the per-component breakdown matches it exactly.
        prop_assert!(tally.busy_cycles + tally.stall_cycles + tally.spin_cycles <= elapsed);
        prop_assert_eq!(tally.breakdown.total(), elapsed);
    }

    /// Machine-level counters absorb tallies additively: total instructions
    /// and occupied cycles equal the sums over the committed tallies, and
    /// the IPC stays within the spin/base bounds of the cost model.
    #[test]
    fn machine_counters_absorb_tallies_additively(
        steps in prop::collection::vec((0u32..8, 10u64..10_000), 1..40),
    ) {
        let mut machine = Machine::new(Topology::multisocket(4, 2), CostModel::westmere());
        let mut expected_instructions = 0u64;
        let mut now = 0;
        for (core, instructions) in steps {
            let mut ctx = machine.ctx(CoreId(core), now);
            ctx.work(Component::XctExecution, instructions);
            expected_instructions += instructions;
            now = ctx.now();
            let tally = ctx.finish();
            machine.commit(&tally);
        }
        prop_assert_eq!(machine.totals().instructions, expected_instructions);
        prop_assert!(machine.totals().occupied_cycles() > 0);
        let ipc = machine.totals().ipc();
        let c = CostModel::westmere();
        prop_assert!(ipc > 0.0 && ipc <= c.spin_ipc.max(c.base_ipc) + 1e-9);
    }

    // ------------------------------------------------------------------
    // What the machine counts
    // ------------------------------------------------------------------

    /// The machine counts what a run reports.  On any machine shape and any
    /// sequence of line accesses, critical sections, memory reads and
    /// messages across cores, a step's `remote_bytes` are exactly the bytes
    /// of its accesses whose hop distance is > 0, and its
    /// `local_memory_bytes` those served by its own socket's memory.  After
    /// the commits, the machine total's instructions, occupied cycles,
    /// breakdown and both byte counts are the sums over the committed
    /// tallies.
    #[test]
    fn the_machine_counts_what_a_run_reports(
        (sockets, cores) in (1usize..=8, 1usize..=4),
        steps in prop::collection::vec(
            (0usize..32, 0u64..5_000, prop::collection::vec((0u8..5, 0usize..8, 1u64..2_048), 1..8)),
            1..30,
        ),
    ) {
        let mut machine = Machine::new(Topology::multisocket(sockets, cores), CostModel::westmere());
        let line_bytes = machine.cost.cache_line_bytes;
        let socket = |i: usize| SocketId((i % sockets) as u16);
        let mut lines: Vec<ContendedLine> = (0..3).map(|i| ContendedLine::new(socket(i))).collect();
        let (mut instructions, mut occupied, mut breakdown) = (0u64, 0, Breakdown::new());
        let (mut remote, mut local) = (0u64, 0u64);
        let mut now: Cycles = 0;
        for (core, jitter, ops) in steps {
            let core = CoreId((core % (sockets * cores)) as u32);
            let mut ctx = machine.ctx(core, now.saturating_sub(jitter));
            let here = ctx.socket();
            let (mut want_remote, mut want_local) = (0u64, 0u64);
            for (kind, target, bytes) in ops {
                let hops = |from: SocketId| machine.topology.distance(here, from);
                if kind < 3 {
                    let line = &mut lines[target % 3];
                    let from = line.owner().unwrap_or(line.home);
                    if hops(from) > 0 {
                        want_remote += line_bytes;
                    } else if line.owner().is_none() {
                        want_local += line_bytes;
                    }
                    match kind {
                        0 => ctx.access_line(Component::Locking, line, AccessKind::Rmw, WaitMode::Spin),
                        1 => ctx.access_line(Component::Latching, line, AccessKind::Read, WaitMode::Stall),
                        _ => ctx.critical_section(Component::Logging, line, WaitMode::Spin, bytes),
                    };
                } else if kind == 3 {
                    let moved = bytes.div_ceil(line_bytes) * line_bytes;
                    if hops(socket(target)) > 0 {
                        want_remote += moved;
                    } else {
                        want_local += moved;
                    }
                    ctx.memory_read(Component::XctExecution, socket(target), bytes);
                } else {
                    if hops(socket(target)) > 0 {
                        want_remote += bytes;
                    }
                    ctx.send_message(Component::Communication, socket(target), bytes);
                }
            }
            let tally = ctx.finish();
            prop_assert_eq!(tally.remote_bytes, want_remote);
            prop_assert_eq!(tally.local_memory_bytes, want_local);
            instructions += tally.instructions;
            occupied += tally.busy_cycles + tally.stall_cycles + tally.spin_cycles;
            breakdown.merge(&tally.breakdown);
            remote += tally.remote_bytes;
            local += tally.local_memory_bytes;
            now = now.max(tally.end);
            machine.commit(&tally);
        }
        let totals: Tally = *machine.totals();
        prop_assert_eq!(totals.instructions, instructions);
        prop_assert_eq!(totals.occupied_cycles(), occupied);
        prop_assert_eq!(totals.breakdown, breakdown);
        prop_assert_eq!((totals.remote_bytes, totals.local_memory_bytes), (remote, local));
    }
}
