//! Criterion microbenchmarks for the performance-critical components of the
//! library: the B+-tree, the lock manager, the cost model, the partitioning
//! search, and end-to-end transaction execution of two system designs.
//!
//! Set `ATRAPOS_BENCH_SMOKE=1` to shrink the measurement budget to a few
//! milliseconds per benchmark (CI runs this to keep the benches compiling
//! and executing without paying for stable numbers).

use atrapos_core::{
    choose_scheme, resource_utilization, sync_overhead, KeyDomain, PartitioningScheme,
    SearchConfig, SubPartitionId, WorkloadStats,
};
use atrapos_engine::workload::testing::TinyWorkload;
use atrapos_engine::{AtraposConfig, AtraposDesign, CentralizedDesign, SystemDesign, Workload};
use atrapos_numa::{CoreId, CostModel, Machine, SimCtx, SocketId, Topology};
use atrapos_storage::{
    BTree, Column, ColumnType, Key, LockId, LockManager, LockMode, Record, Schema, Table, TableId,
    Txn, TxnId, Value,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn rec(v: i64) -> Record {
    Record::new(vec![Value::Int(v), Value::Int(v * 2)])
}

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    let tree = BTree::bulk_load((0..100_000).map(|i| (Key::int(i), rec(i))).collect());
    let mut rng = SmallRng::seed_from_u64(1);
    group.bench_function("get/100k", |b| {
        b.iter(|| {
            let k = Key::int(rng.gen_range(0..100_000));
            std::hint::black_box(tree.get(&k));
        })
    });
    group.bench_function("insert/10k", |b| {
        b.iter_batched(
            BTree::new,
            |mut t| {
                for i in 0..10_000 {
                    t.insert(Key::int(i), rec(i));
                }
                t
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("range_20_of_100k", |b| {
        b.iter(|| {
            let from = rng.gen_range(0..99_980);
            let (lo, hi) = (Key::int(from), Key::int(from + 20));
            std::hint::black_box(tree.range_iter(Some(&lo), Some(&hi)).count())
        })
    });
    group.bench_function("split_off/100k", |b| {
        b.iter_batched(
            || tree.clone(),
            |mut t| t.split_off(&Key::int(50_000)),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Twenty-row scans of a 40-partition table — the TPC-C StockLevel /
/// OrderStatus shape, and the shape `benchmark/src/ops.rs` measures as
/// `storage.table.range_read.ns_per_op`.
fn bench_table(c: &mut Criterion) {
    let topo = Topology::multisocket(4, 2);
    let cost = CostModel::westmere();
    let schema = Schema::new(
        "ops",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ],
        vec![0],
    );
    let boundaries: Vec<Key> = (1..40).map(|i| Key::int(i * 1_000)).collect();
    let nodes: Vec<SocketId> = (0..40).map(|i| SocketId(i / 10)).collect();
    let mut table = Table::range_partitioned(TableId(0), schema, boundaries, nodes);
    table
        .load_many((0..40_000).map(rec))
        .expect("distinct keys");
    let mut rng = SmallRng::seed_from_u64(2);
    let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
    c.bench_function("table/range_read_20_of_40_partitions", |b| {
        b.iter(|| {
            let from = rng.gen_range(0..39_900);
            let (lo, hi) = (Key::int(from), Key::int(from + 20));
            std::hint::black_box(table.range_read(&mut ctx, Some(&lo), Some(&hi), 20).len())
        })
    });
}

fn bench_lock_manager(c: &mut Criterion) {
    let topo = Topology::multisocket(4, 2);
    let cost = CostModel::westmere();
    c.bench_function("lock_manager/acquire_release", |b| {
        let mut lm = LockManager::centralized(256, 4);
        let mut i = 0u64;
        b.iter(|| {
            let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), i);
            let mut txn = Txn::begin(TxnId(i));
            lm.acquire(
                &mut ctx,
                &mut txn,
                LockId::Record(TableId(0), Key::int((i % 1000) as i64)),
                LockMode::X,
            );
            lm.release_all(&mut ctx, &mut txn);
            i += 10_000;
        })
    });
}

fn bench_cost_model_and_search(c: &mut Criterion) {
    let topo = Topology::westmere_ex_8x10();
    let scheme = PartitioningScheme::naive(
        &[
            (TableId(0), KeyDomain::new(0, 1_000_000)),
            (TableId(1), KeyDomain::new(0, 1_000_000)),
        ],
        &topo,
        10,
    );
    let mut stats = WorkloadStats::new();
    let mut rng = SmallRng::seed_from_u64(3);
    for t in 0..2u32 {
        for sub in 0..800 {
            stats.record_action(
                SubPartitionId::new(TableId(t), sub),
                rng.gen_range(1.0..50.0),
            );
        }
    }
    for sub in (0..800).step_by(2) {
        stats.record_sync(
            SubPartitionId::new(TableId(0), sub),
            SubPartitionId::new(TableId(1), sub),
            128,
        );
    }
    c.bench_function("cost_model/evaluate", |b| {
        b.iter(|| {
            std::hint::black_box(resource_utilization(&scheme, &stats, &topo));
            std::hint::black_box(sync_overhead(&scheme, &stats, &topo));
        })
    });
    c.bench_function("search/choose_scheme_80_cores", |b| {
        b.iter(|| {
            std::hint::black_box(choose_scheme(
                &scheme,
                &stats,
                &topo,
                &SearchConfig {
                    max_iterations: 50,
                    ..SearchConfig::default()
                },
            ))
        })
    });
}

fn bench_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("txn_execution");
    {
        let mut m = Machine::new(Topology::multisocket(4, 2), CostModel::westmere());
        let mut w = TinyWorkload { rows: 10_000 };
        let mut design = CentralizedDesign::new(&m, &w);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut now = 0;
        group.bench_function("centralized_read", |b| {
            b.iter(|| {
                let spec = w.next_transaction(&mut rng, CoreId(0));
                let out = design.execute(&mut m, &spec, CoreId(0), now);
                now = out.end;
                std::hint::black_box(out)
            })
        });
    }
    {
        let mut m = Machine::new(Topology::multisocket(4, 2), CostModel::westmere());
        let mut w = TinyWorkload { rows: 10_000 };
        let mut design = AtraposDesign::new(&m, &w, AtraposConfig::default());
        let mut rng = SmallRng::seed_from_u64(5);
        let mut now = 0;
        group.bench_function("atrapos_read", |b| {
            b.iter(|| {
                let spec = w.next_transaction(&mut rng, CoreId(0));
                let out = design.execute(&mut m, &spec, CoreId(0), now);
                now = out.end;
                std::hint::black_box(out)
            })
        });
    }
    group.finish();
}

/// Full measurement budget by default, a few milliseconds per benchmark
/// under `ATRAPOS_BENCH_SMOKE`.
fn config() -> Criterion {
    let smoke = std::env::var("ATRAPOS_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let (samples, warm_ms, measure_ms) = if smoke { (5, 5, 20) } else { (20, 300, 2000) };
    Criterion::default()
        .sample_size(samples)
        .warm_up_time(std::time::Duration::from_millis(warm_ms))
        .measurement_time(std::time::Duration::from_millis(measure_ms))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_btree,
        bench_table,
        bench_lock_manager,
        bench_cost_model_and_search,
        bench_designs
}
criterion_main!(benches);
