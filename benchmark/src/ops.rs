//! Op costs: host ns per call of a public function of each layer — what
//! lies beneath `SystemDesign::execute` and cannot be split from outside
//! the program until the crates grow their own counters.
//!
//! Each op is timed in batches around `Instant::now()` with inputs and
//! results passed through `black_box`; the reported value is the median
//! batch.  Key streams come from a `SmallRng` seeded with the run's seed.

use atrapos_core::{
    choose_scheme, cost_model, plan_repartitioning, KeyDistribution, KeyDomain, LatencyHistogram,
    Monitor, PartitioningScheme, SearchConfig, SubPartitionId, WorkloadStats,
};
use atrapos_engine::ArrivalProcess;
use atrapos_numa::contention::Timeline;
use atrapos_numa::{
    AccessKind, Component, ContendedLine, CoreId, CostModel, SimCtx, SocketId, Topology, WaitMode,
};
use atrapos_report::FiguresFile;
use atrapos_storage::{
    BTree, Column, ColumnType, Key, LockId, LockManager, LockMode, LogManager, LogRecordKind,
    MrBTree, Record, Schema, Table, TableId, Txn, TxnId, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured op cost.
pub struct OpCost {
    /// Metric name.
    pub name: &'static str,
    /// Unit of `value` (`ns`, `us` or `ms`, per op).
    pub unit: &'static str,
    /// Median over the batches.
    pub value: f64,
}

/// The committed figure results the report generator is timed on.
const FIGURES_JSON: &str = include_str!("../inputs/figures.json");

/// Batches per op; the median is reported.
const BATCHES: usize = 5;

struct Bench {
    batch: Duration,
    out: Vec<OpCost>,
}

impl Bench {
    /// Time `op` and push `name` in `unit` per call (`ns`, `us` or `ms`).
    fn run<R>(&mut self, name: &'static str, unit: &'static str, mut op: impl FnMut() -> R) {
        // Size a batch from a short calibration pass, which also warms up.
        let mut calls = 1u64;
        let per_call = loop {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(op());
            }
            let dt = t.elapsed();
            if dt >= self.batch / 8 || calls >= 1 << 28 {
                break dt.as_secs_f64() / calls as f64;
            }
            calls *= 4;
        };
        let per_batch = ((self.batch.as_secs_f64() / per_call.max(1e-12)) as u64).max(1);
        let mut samples = [0.0f64; BATCHES];
        for s in &mut samples {
            let t = Instant::now();
            for _ in 0..per_batch {
                black_box(op());
            }
            *s = t.elapsed().as_secs_f64() / per_batch as f64;
        }
        samples.sort_by(f64::total_cmp);
        let scale = match unit {
            "ns" => 1e9,
            "us" => 1e6,
            _ => 1e3,
        };
        self.out.push(OpCost {
            name,
            unit,
            value: samples[BATCHES / 2] * scale,
        });
    }
}

fn row(i: i64) -> Record {
    Record::new(vec![Value::Int(i), Value::Int(i * 2)])
}

/// Measure every op cost.  `batch` is the time budget of one batch
/// (≈ `BATCHES` + 1 of them run per op).
pub fn measure(seed: u64, batch: Duration) -> Vec<OpCost> {
    let mut b = Bench {
        batch,
        out: Vec::new(),
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0b5e_55ed);

    // core.distribution
    for (name, dist, n) in [
        (
            "core.distribution.sample.uniform.ns_per_op",
            KeyDistribution::Uniform,
            100_000,
        ),
        (
            "core.distribution.sample.hotspot.ns_per_op",
            KeyDistribution::Hotspot {
                data_fraction: 0.2,
                access_fraction: 0.5,
            },
            100_000,
        ),
        (
            "core.distribution.sample.zipfian_1m.ns_per_op",
            KeyDistribution::Zipfian { theta: 0.99 },
            1_000_000,
        ),
        (
            "core.distribution.sample.drift.ns_per_op",
            KeyDistribution::Drift {
                data_fraction: 0.1,
                access_fraction: 0.9,
                period_txns: 10_000,
            },
            100_000,
        ),
    ] {
        let mut sampler = dist.sampler(0, n);
        b.run(name, "ns", || sampler.sample(&mut rng));
    }
    b.run("core.distribution.build.zipfian_1m.ms", "ms", || {
        KeyDistribution::Zipfian { theta: 0.99 }.sampler(0, 1_000_000)
    });

    // core.histogram
    {
        let mut hist = LatencyHistogram::new();
        b.run("core.histogram.record.ns_per_op", "ns", || {
            hist.record(rng.gen_range(0..5_000_000u64))
        });
        b.run("core.histogram.quantile.ns_per_op", "ns", || {
            hist.quantile(0.99)
        });
    }

    // core.monitor / cost_model / search / repartition on the 80-core box
    let topo80 = Topology::multisocket(8, 10);
    let cost = CostModel::westmere();
    {
        let mut monitor = Monitor::new(true);
        let mut ctx = SimCtx::new(&topo80, &cost, CoreId(0), 0);
        b.run("core.monitor.record_action.ns_per_op", "ns", || {
            let sub = SubPartitionId::new(TableId(0), rng.gen_range(0..800));
            monitor.record_action(&mut ctx, sub, 40.0)
        });
    }
    {
        let domains = [
            (TableId(0), KeyDomain::new(0, 1_000_000)),
            (TableId(1), KeyDomain::new(0, 1_000_000)),
        ];
        let scheme = PartitioningScheme::naive(&domains, &topo80, 10);
        let mut stats = WorkloadStats::new();
        for t in 0..2u32 {
            for sub in 0..800 {
                // A hot fifth of each table, as after a skew shift.
                let load = if sub < 160 { 40.0 } else { 10.0 };
                stats.record_action(
                    SubPartitionId::new(TableId(t), sub),
                    load + rng.gen_range(0.0..1.0),
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
        b.run("core.cost_model.evaluate.us_per_op", "us", || {
            cost_model::evaluate(&scheme, &stats, &topo80)
        });
        let search = SearchConfig {
            max_iterations: 50,
            ..SearchConfig::default()
        };
        b.run("core.search.choose_scheme.ms_per_op", "ms", || {
            choose_scheme(&scheme, &stats, &topo80, &search)
        });
        let chosen = choose_scheme(&scheme, &stats, &topo80, &search);
        b.run("core.repartition.plan.us_per_op", "us", || {
            plan_repartitioning(&scheme, &chosen)
        });
    }

    // numa.timeline / numa.ctx
    {
        let mut t = Timeline::default();
        let mut at = 0u64;
        b.run("numa.timeline.book.in_order.ns_per_op", "ns", || {
            let granted = t.book(at, 20);
            at = granted + 25;
            granted
        });
        let mut t = Timeline::default();
        let (mut base, mut i) = (10_000u64, 0u64);
        b.run("numa.timeline.book.out_of_order.ns_per_op", "ns", || {
            let jitter = i.wrapping_mul(7919) % 2_000;
            i += 1;
            base += 30;
            t.book(base.saturating_sub(jitter), 20)
        });
    }
    {
        let topo = Topology::multisocket(4, 10);
        // `local`: one core keeps the line, so every access finds it owned
        // on its own socket.  `remote`: cores of sockets 0 and 3 take turns,
        // so every access pulls the line across the interconnect.
        for (name, cores) in [
            (
                "numa.ctx.access_line.local.ns_per_op",
                [CoreId(0), CoreId(0)],
            ),
            (
                "numa.ctx.access_line.remote.ns_per_op",
                [CoreId(0), CoreId(30)],
            ),
        ] {
            let mut line = ContendedLine::new(SocketId(0));
            let (mut now, mut turn) = (0u64, 0usize);
            b.run(name, "ns", || {
                let mut ctx = SimCtx::new(&topo, &cost, cores[turn], now);
                turn ^= 1;
                let spent = ctx.access_line(
                    Component::Locking,
                    &mut line,
                    AccessKind::Rmw,
                    WaitMode::Spin,
                );
                now = ctx.now();
                spent
            });
        }
    }

    // storage
    let topo4 = Topology::multisocket(4, 10);
    {
        let small = BTree::bulk_load((0..40_000).map(|i| (Key::int(i), row(i))).collect());
        b.run("storage.btree.get.40k.ns_per_op", "ns", || {
            small.get(&Key::int(rng.gen_range(0..40_000))).is_some()
        });
        let large = BTree::bulk_load((0..1_000_000).map(|i| (Key::int(i), row(i))).collect());
        let mut zipf = KeyDistribution::Zipfian { theta: 0.99 }.sampler(0, 1_000_000);
        b.run("storage.btree.get.1m.ns_per_op", "ns", || {
            large.get(&Key::int(zipf.sample(&mut rng))).is_some()
        });
        // Appends past the loaded keys, the TPC-C order-insert pattern;
        // the tree is rebuilt when it has doubled so its height stays put.
        let mut tree = small.clone();
        let mut next = 40_000i64;
        b.run("storage.btree.insert.ns_per_op", "ns", || {
            if next == 80_000 {
                tree = small.clone();
                next = 40_000;
            }
            next += 1;
            tree.insert(Key::int(next), row(next)).is_none()
        });
    }
    {
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
        let mut table = Table::range_partitioned(TableId(0), schema, boundaries.clone(), nodes);
        for i in 0..40_000 {
            table.load(row(i)).expect("distinct keys");
        }
        let mut ctx = SimCtx::new(&topo4, &cost, CoreId(0), 0);
        // Twenty-row scans, the TPC-C StockLevel / OrderStatus shape.
        b.run("storage.table.range_read.ns_per_op", "ns", || {
            let from = rng.gen_range(0..39_900);
            table
                .range_read(
                    &mut ctx,
                    Some(&Key::int(from)),
                    Some(&Key::int(from + 20)),
                    20,
                )
                .len()
        });
        let index = MrBTree::range_partitioned(boundaries, vec![SocketId(0); 40]);
        b.run("storage.mrbtree.partition_for.ns_per_op", "ns", || {
            index.partition_for(&Key::int(rng.gen_range(0..40_000)))
        });
    }
    for (name, mut lm) in [
        (
            "storage.lock_manager.acquire_release.centralized.ns_per_op",
            LockManager::centralized(256, 4),
        ),
        (
            "storage.lock_manager.acquire_release.partition_local.ns_per_op",
            LockManager::partition_local(SocketId(0)),
        ),
    ] {
        let mut i = 0u64;
        let mut txn = Txn::begin(TxnId(0));
        b.run(name, "ns", || {
            let mut ctx = SimCtx::new(&topo4, &cost, CoreId(0), i);
            txn.reset(TxnId(i));
            lm.acquire(
                &mut ctx,
                &mut txn,
                LockId::Record(TableId(0), Key::int((i % 1_000) as i64)),
                LockMode::X,
            );
            i += 10_000;
            lm.release_all(&mut ctx, &mut txn)
        });
    }
    {
        let mut log = LogManager::per_socket(4);
        let mut i = 0u64;
        b.run("storage.log.insert.ns_per_op", "ns", || {
            let mut ctx = SimCtx::new(&topo4, &cost, CoreId(0), i);
            i += 1_000;
            log.insert(&mut ctx, TxnId(i), LogRecordKind::Update, 120)
        });
    }

    // engine.arrival
    {
        let poisson = ArrivalProcess::Poisson { rate_tps: 12e6 };
        let mut t = 0.0f64;
        b.run("engine.arrival.poisson_draw.ns_per_op", "ns", || {
            t = poisson.next_arrival_secs(t, &mut rng);
            t
        });
    }

    // report
    {
        let figures =
            FiguresFile::from_json(FIGURES_JSON).expect("benchmark-owned copy of the figures file");
        b.run("report.generate.ms", "ms", || {
            atrapos_report::generate(&figures, "reports/figures")
        });
    }
    b.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_runs_and_reports_a_positive_cost_once() {
        let costs = measure(1, Duration::from_micros(200));
        let mut names: Vec<&str> = costs.iter().map(|c| c.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate op name");
        for c in &costs {
            assert!(c.value > 0.0 && c.value.is_finite(), "{}", c.name);
            assert!(
                c.name.ends_with(c.unit) || c.name.contains(&format!(".{}_per_op", c.unit)),
                "{} reported in {}",
                c.name,
                c.unit
            );
        }
    }
}
