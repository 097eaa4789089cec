//! Property-based tests for the execution engine: transaction flow graphs,
//! the partition worker pool, the deterministic virtual-time executor, and —
//! most importantly — *design equivalence*: every system design (centralized
//! shared-everything, shared-nothing, PLP, ATraPos) applies the same
//! transactions to the same logical database state, so the paper's
//! performance comparisons are between structurally different systems doing
//! identical work.

use atrapos_engine::workload::testing::{TinyUpdateWorkload, TinyWorkload};
use atrapos_engine::{
    Action, ActionOp, AtraposConfig, AtraposDesign, CentralizedDesign, ExecutorConfig, Phase,
    SharedNothingDesign, SharedNothingGranularity, SystemDesign, TransactionSpec, VirtualExecutor,
    WorkerPool, Workload,
};
use atrapos_numa::{CoreId, CostModel, Cycles, Machine, Topology};
use atrapos_storage::{Key, MemoryPolicy, TableId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn machine(sockets: usize, cores: usize) -> Machine {
    Machine::new(Topology::multisocket(sockets, cores), CostModel::westmere())
}

/// Build a deterministic batch of increment transactions over `rows` rows of
/// the two-table tiny update workload, from a seed.  Every transaction
/// increments column 1 of one row in each table by 1.
fn increment_batch(rows: i64, count: usize, seed: u64) -> Vec<TransactionSpec> {
    let mut w = TinyUpdateWorkload { rows };
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| w.next_transaction(&mut rng, CoreId(0)))
        .collect()
}

/// Sum of column 1 over every row of `table` in a database (the "balance"
/// invariant the increment workload preserves).
fn column_sum(db: &atrapos_storage::Database, table: TableId) -> i64 {
    db.table(table)
        .map(|t| t.index().iter().map(|(_, r)| r.get(1).as_int()).sum())
        .unwrap_or(0)
}

proptest! {
    // ------------------------------------------------------------------
    // Transaction specs
    // ------------------------------------------------------------------

    /// `num_actions` counts every action of every phase, and `is_update` is
    /// true exactly when some action writes.
    #[test]
    fn transaction_spec_counts_and_update_flag(
        phase_sizes in prop::collection::vec(1usize..6, 1..5),
        write_phase in prop::option::of(0usize..5),
    ) {
        let phases: Vec<Phase> = phase_sizes
            .iter()
            .enumerate()
            .map(|(pi, &n)| {
                Phase::new(
                    (0..n)
                        .map(|ai| {
                            let key = Key::int((pi * 10 + ai) as i64);
                            if write_phase == Some(pi) && ai == 0 {
                                Action::new(ActionOp::Increment {
                                    table: TableId(0),
                                    key,
                                    column: 1,
                                    delta: 1,
                                })
                            } else {
                                Action::new(ActionOp::Read { table: TableId(0), key })
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let spec = TransactionSpec::new("prop", phases);
        prop_assert_eq!(spec.num_actions(), phase_sizes.iter().sum::<usize>());
        let expect_update = matches!(write_phase, Some(p) if p < phase_sizes.len());
        prop_assert_eq!(spec.is_update(), expect_update);
    }

    // ------------------------------------------------------------------
    // Worker pool
    // ------------------------------------------------------------------

    /// A worker core never runs two occupancies that overlap in virtual
    /// time: `available_at` always returns a slot at or after both the
    /// request time and the end of all previously booked work.
    #[test]
    fn worker_pool_occupancies_never_overlap(
        requests in prop::collection::vec((0u32..8, 0u64..50_000, 1u64..5_000), 1..60),
    ) {
        let topo = Topology::multisocket(4, 2);
        let mut pool = WorkerPool::new(&topo);
        let mut bookings: Vec<(u32, Cycles, Cycles)> = Vec::new();
        for (core, at, len) in requests {
            let core_id = CoreId(core);
            let start = pool.available_at(core_id, at);
            prop_assert!(start >= at);
            let end = start + len;
            // The granted slot must not overlap any earlier booking on the
            // same core.
            for &(c, s, e) in &bookings {
                if c == core {
                    prop_assert!(end <= s || start >= e, "overlap on core {core}: [{start},{end}) vs [{s},{e})");
                }
            }
            pool.occupy(core_id, start, end);
            bookings.push((core, start, end));
        }
        // Busy cycles per core equal the sum of its bookings.
        for core in 0..8u32 {
            let expected: u64 = bookings
                .iter()
                .filter(|&&(c, _, _)| c == core)
                .map(|&(_, s, e)| e - s)
                .sum();
            prop_assert_eq!(pool.busy_cycles(CoreId(core)), expected);
        }
    }

}

// The remaining properties build whole designs and run the closed-loop
// executor, which costs tens of milliseconds per case: a smaller case count
// keeps the suite fast while still exploring machine shapes, seeds, and
// batch sizes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ------------------------------------------------------------------
    // Design equivalence
    // ------------------------------------------------------------------

    /// Whatever the machine shape and transaction batch, all four designs
    /// commit the same transactions and leave the database in the same
    /// logical state (the sum of every increment shows up exactly once —
    /// no lost or duplicated updates in any design).
    #[test]
    fn all_designs_apply_the_same_updates(
        sockets in 1usize..=4,
        cores in 1usize..=2,
        rows in 40i64..400,
        count in 1usize..60,
        seed in any::<u64>(),
    ) {
        let batch = increment_batch(rows, count, seed);
        let workload = TinyUpdateWorkload { rows };
        let expected_per_table = count as i64; // one +1 per table per transaction

        // Centralized shared-everything.
        let mut m = machine(sockets, cores);
        let mut centralized = CentralizedDesign::new(&m, &workload);
        let cores_list = m.topology.active_cores();
        let mut now = 0;
        for (i, spec) in batch.iter().enumerate() {
            let out = centralized.execute(&mut m, spec, cores_list[i % cores_list.len()], now);
            prop_assert!(out.committed);
            now = out.end;
        }
        prop_assert_eq!(column_sum(centralized.database(), TableId(0)), expected_per_table);
        prop_assert_eq!(column_sum(centralized.database(), TableId(1)), expected_per_table);

        // ATraPos and the PLP baseline.
        let mut m = machine(sockets, cores);
        let mut atrapos = AtraposDesign::new(&m, &workload, AtraposConfig::default());
        let mut now = 0;
        for (i, spec) in batch.iter().enumerate() {
            let out = atrapos.execute(&mut m, spec, cores_list[i % cores_list.len()], now);
            prop_assert!(out.committed);
            now = out.end;
        }
        prop_assert_eq!(column_sum(atrapos.database(), TableId(0)), expected_per_table);
        prop_assert_eq!(column_sum(atrapos.database(), TableId(1)), expected_per_table);

        let mut m = machine(sockets, cores);
        let mut plp =
            AtraposDesign::with_name("plp", &m, &workload, AtraposConfig::plp_baseline());
        let mut now = 0;
        for (i, spec) in batch.iter().enumerate() {
            let out = plp.execute(&mut m, spec, cores_list[i % cores_list.len()], now);
            prop_assert!(out.committed);
            now = out.end;
        }
        prop_assert_eq!(column_sum(plp.database(), TableId(0)), expected_per_table);
        prop_assert_eq!(column_sum(plp.database(), TableId(1)), expected_per_table);

        // Shared-nothing (per socket): updates land on the owning instance;
        // the sums across instances must match, and multi-instance
        // deployments must have run the cross-instance work as distributed
        // transactions when the two keys live on different instances.
        let mut m = machine(sockets, cores);
        let mut sn = SharedNothingDesign::new(
            &m,
            &workload,
            SharedNothingGranularity::PerSocket,
            MemoryPolicy::Local,
            None,
        );
        let mut now = 0;
        for (i, spec) in batch.iter().enumerate() {
            let out = sn.execute(&mut m, spec, cores_list[i % cores_list.len()], now);
            prop_assert!(out.committed);
            now = out.end;
        }
        let sn_sum_t0: i64 = (0..sn.num_instances()).map(|i| column_sum(sn.instance_db(i), TableId(0))).sum();
        let sn_sum_t1: i64 = (0..sn.num_instances()).map(|i| column_sum(sn.instance_db(i), TableId(1))).sum();
        prop_assert_eq!(sn_sum_t0, expected_per_table);
        prop_assert_eq!(sn_sum_t1, expected_per_table);
    }

    // ------------------------------------------------------------------
    // Virtual-time executor
    // ------------------------------------------------------------------

    /// The executor is deterministic: two executors built with the same
    /// seed, machine, design, and workload commit exactly the same number of
    /// transactions over the same virtual duration, and splitting the run
    /// into segments does not change the total.
    #[test]
    fn executor_is_deterministic_and_composable(
        sockets in 1usize..=3,
        cores in 1usize..=2,
        seed in any::<u64>(),
        segments in 1usize..4,
    ) {
        let rows = 2_000i64;
        let total_secs = 0.006;
        let build = || {
            let m = machine(sockets, cores);
            let w = TinyWorkload { rows };
            let design: Box<dyn SystemDesign> =
                Box::new(AtraposDesign::new(&m, &w, AtraposConfig::default()));
            VirtualExecutor::new(
                m,
                design,
                Box::new(w),
                ExecutorConfig {
                    seed,
                    default_interval_secs: 0.002,
                    time_series_bucket_secs: 0.002,
                },
            )
        };
        let mut single = build();
        let whole = single.run_for(total_secs);
        prop_assert!(whole.committed > 0);
        prop_assert_eq!(whole.aborted, 0);
        prop_assert!(whole.throughput_tps > 0.0);
        prop_assert!(whole.ipc > 0.0);

        let mut segmented = build();
        let mut committed = 0;
        for _ in 0..segments {
            committed += segmented.run_for(total_secs / segments as f64).committed;
        }
        prop_assert_eq!(committed, whole.committed);
        prop_assert!((segmented.now_secs() - single.now_secs()).abs() < 1e-9);
    }

    /// Failing a socket mid-run never stops the system: the remaining cores
    /// keep committing transactions, and restoring the socket brings the
    /// client count back.
    #[test]
    fn executor_survives_socket_failures(
        sockets in 2usize..=4,
        cores in 1usize..=2,
        seed in any::<u64>(),
        fail_idx in 0usize..4,
    ) {
        let m = machine(sockets, cores);
        let w = TinyWorkload { rows: 2_000 };
        let design: Box<dyn SystemDesign> =
            Box::new(AtraposDesign::new(&m, &w, AtraposConfig::default()));
        let mut ex = VirtualExecutor::new(
            m,
            design,
            Box::new(w),
            ExecutorConfig {
                seed,
                default_interval_secs: 0.002,
                time_series_bucket_secs: 0.002,
            },
        );
        let before = ex.run_for(0.004);
        prop_assert!(before.committed > 0);
        let failed = atrapos_numa::SocketId((fail_idx % sockets) as u16);
        let active_before = ex.machine().topology.num_active_cores();
        ex.fail_socket(failed);
        prop_assert_eq!(ex.machine().topology.num_active_cores(), active_before - cores);
        let during = ex.run_for(0.004);
        prop_assert!(during.committed > 0, "system stalled after losing socket {failed}");
        ex.restore_socket(failed);
        prop_assert_eq!(ex.machine().topology.num_active_cores(), active_before);
        let after = ex.run_for(0.004);
        prop_assert!(after.committed > 0);
    }
}
