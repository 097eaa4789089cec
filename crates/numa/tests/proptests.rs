//! Property-based tests for the hardware-Island machine model: topology
//! metrics, the virtual-time contention primitives, the calibrated cost
//! model, the per-step accounting context, and interconnect traffic
//! bookkeeping.

use atrapos_numa::{
    round_robin_by_socket, socket_fill, AccessKind, Component, ContendedLine, CoreId, CostModel,
    Cycles, Interconnect, Machine, SimCtx, SocketId, Topology, WaitMode,
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
        if sockets > 1 {
            prop_assert!(topo.average_distance() > 0.0);
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

    /// The mesh (Tilera-style) preset produces hop distances consistent with
    /// a Manhattan grid: bounded by `(nx-1)+(ny-1)` and symmetric.
    #[test]
    fn mesh_topology_distances_follow_the_grid(nx in 1usize..=6, ny in 1usize..=6, cores in 1usize..=4) {
        let topo = Topology::mesh(nx, ny, cores);
        prop_assert_eq!(topo.num_sockets(), nx * ny);
        let max_hops = (nx - 1 + ny - 1) as u32;
        prop_assert!(topo.diameter() <= max_hops);
        for a in 0..(nx * ny) {
            for b in 0..(nx * ny) {
                let d = topo.distance(SocketId(a as u16), SocketId(b as u16));
                prop_assert_eq!(d, topo.distance(SocketId(b as u16), SocketId(a as u16)));
                // Manhattan distance of the grid coordinates.
                let (ax, ay) = (a % nx, a / nx);
                let (bx, by) = (b % nx, b / nx);
                let manhattan = (ax.abs_diff(bx) + ay.abs_diff(by)) as u32;
                prop_assert_eq!(d, manhattan);
            }
        }
    }

    // ------------------------------------------------------------------
    // Placement helpers
    // ------------------------------------------------------------------

    /// Round-robin placement spreads threads so that no core is assigned
    /// more than one thread above any other, while socket-fill packs them
    /// socket by socket.
    #[test]
    fn placement_strategies_cover_requested_threads((sockets, cores) in machine_shape(), n in 1usize..100) {
        let topo = Topology::multisocket(sockets, cores);
        for placement in [round_robin_by_socket(&topo, n), socket_fill(&topo, n)] {
            prop_assert_eq!(placement.len(), n);
            let per_core = placement.load_per_core(&topo);
            prop_assert_eq!(per_core.iter().sum::<usize>(), n);
            for (i, _) in placement.iter() {
                prop_assert!(placement.core_of(i).index() < topo.num_cores());
            }
        }
        let rr = round_robin_by_socket(&topo, n);
        let loads = rr.load_per_core(&topo);
        let max = loads.iter().copied().max().unwrap_or(0);
        let min = loads.iter().copied().min().unwrap_or(0);
        prop_assert!(max - min <= 1, "round-robin should be balanced: {loads:?}");
    }

    // ------------------------------------------------------------------
    // Cost model
    // ------------------------------------------------------------------

    /// Transfer, memory, atomic, and message costs are monotone in hop
    /// distance and message size, and the uniform ablation model removes the
    /// remote penalty entirely.
    #[test]
    fn cost_model_is_monotone_in_distance_and_size(
        hops_a in 0u32..4,
        hops_b in 0u32..4,
        bytes_a in 1u64..8_192,
        bytes_b in 1u64..8_192,
        instructions in 0u64..100_000,
    ) {
        let c = CostModel::westmere();
        let (lo_hops, hi_hops) = (hops_a.min(hops_b), hops_a.max(hops_b));
        let (lo_bytes, hi_bytes) = (bytes_a.min(bytes_b), bytes_a.max(bytes_b));
        prop_assert!(c.cache_transfer(lo_hops) <= c.cache_transfer(hi_hops));
        prop_assert!(c.memory_access(lo_hops) <= c.memory_access(hi_hops));
        prop_assert!(c.message(lo_hops, lo_bytes) <= c.message(hi_hops, hi_bytes));
        // Work cycles follow the base IPC exactly.
        prop_assert_eq!(c.work_cycles(instructions), (instructions as f64 / c.base_ipc).ceil() as Cycles);
        // The uniform machine has no remote penalty at all.
        let u = CostModel::uniform();
        prop_assert_eq!(u.cache_transfer(0), u.cache_transfer(hi_hops));
        prop_assert_eq!(u.memory_access(0), u.memory_access(hi_hops));
    }

    // ------------------------------------------------------------------
    // Contended cache lines
    // ------------------------------------------------------------------

    /// Exclusive (RMW) accesses to one cache line serialize in virtual time:
    /// however the request times interleave, no two booked exclusive spans
    /// overlap, and every access from a different socket than the previous
    /// owner is counted as remote.
    #[test]
    fn contended_line_serializes_rmw_accesses(
        accesses in prop::collection::vec((0u32..16, 0u64..10_000), 1..60),
    ) {
        let topo = Topology::multisocket(4, 4);
        let cost = CostModel::westmere();
        let mut line = ContendedLine::new(SocketId(0));
        let mut spans: Vec<(Cycles, Cycles)> = Vec::new();
        let mut rmws = 0u64;
        for (core, start) in accesses {
            let mut ctx = SimCtx::new(&topo, &cost, CoreId(core), start);
            let begin = ctx.now();
            ctx.access_line(Component::XctManagement, &mut line, AccessKind::Rmw, WaitMode::Stall);
            rmws += 1;
            let end = ctx.now();
            prop_assert!(end > begin, "an RMW always consumes cycles");
            spans.push((begin, end));
        }
        prop_assert_eq!(line.rmw_count, rmws);
        prop_assert!(line.busy_horizon() >= spans.iter().map(|&(_, e)| e).max().unwrap_or(0));
        // The line's busy timeline keeps disjoint intervals (the booked
        // exclusive spans never overlap), so the total wait it reports is
        // consistent with serialization.
        prop_assert!(line.total_wait <= spans.iter().map(|&(s, e)| e - s).sum::<u64>());
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
            machine.commit(CoreId(core), &tally);
        }
        prop_assert_eq!(machine.total_instructions(), expected_instructions);
        prop_assert!(machine.total_occupied_cycles() > 0);
        let ipc = machine.ipc();
        let c = CostModel::westmere();
        prop_assert!(ipc > 0.0 && ipc <= c.spin_ipc.max(c.base_ipc) + 1e-9);
        machine.reset_counters();
        prop_assert_eq!(machine.total_instructions(), 0);
        prop_assert_eq!(machine.total_occupied_cycles(), 0);
    }

    // ------------------------------------------------------------------
    // Interconnect traffic
    // ------------------------------------------------------------------

    /// Link-level traffic accounting is conservative: the per-link counters
    /// sum to the total cross-socket bytes, local traffic never appears on a
    /// link, and the QPI/IMC ratio is the cross-socket to local byte ratio.
    #[test]
    fn interconnect_accounting_is_conservative(
        transfers in prop::collection::vec((0u16..4, 0u16..4, 1u64..4_096), 0..60),
        local in prop::collection::vec(1u64..4_096, 0..20),
    ) {
        let topo = Topology::multisocket(4, 2);
        let mut ic = Interconnect::new(4);
        let mut cross = 0u64;
        let mut local_total = 0u64;
        for &(a, b, bytes) in &transfers {
            ic.record(SocketId(a), SocketId(b), bytes);
            if a != b {
                cross += bytes;
            } else {
                local_total += bytes;
            }
        }
        for &bytes in &local {
            ic.record_local(bytes);
            local_total += bytes;
        }
        prop_assert_eq!(ic.total_cross_socket_bytes(), cross);
        // Per-link counters cover exactly the cross-socket bytes.
        let mut link_sum = 0u64;
        for a in 0..4u16 {
            for b in (a + 1)..4u16 {
                link_sum += ic.link(SocketId(a), SocketId(b));
            }
        }
        prop_assert_eq!(link_sum, cross);
        // QPI/IMC ratio: every remote access also hits a memory controller,
        // so the denominator is local + remote bytes.
        let ratio = ic.qpi_to_imc_ratio();
        if local_total + cross > 0 {
            let expected = cross as f64 / (local_total + cross) as f64;
            prop_assert!((ratio - expected).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&ratio));
        }
        prop_assert!(ic.max_link_utilization(1_000_000, &topo, 12.8) >= 0.0);
        ic.reset();
        prop_assert_eq!(ic.total_cross_socket_bytes(), 0);
    }
}
