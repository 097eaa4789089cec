//! Criterion microbenchmarks for the simulator's serial hot paths — the
//! loops the `atrapos wallclock` bundle spends its time in: key-sampler
//! draws, latency-histogram recording and quantile queries, timeline
//! booking, arrival-process draws, and the closed-loop executor's inner
//! loop.
//!
//! Set `ATRAPOS_BENCH_SMOKE=1` to shrink the measurement budget to a few
//! milliseconds per benchmark (CI runs this to keep the benches compiling
//! and executing without paying for stable numbers).

use atrapos_bench::harness;
use atrapos_core::{KeyDistribution, LatencyHistogram};
use atrapos_engine::{ArrivalProcess, DesignSpec};
use atrapos_numa::contention::Timeline;
use atrapos_workloads::{Ycsb, YcsbConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Shared config: full measurement budget by default, a few milliseconds
/// per benchmark under `ATRAPOS_BENCH_SMOKE`.
fn config() -> Criterion {
    let smoke = std::env::var("ATRAPOS_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let (samples, warm_ms, measure_ms) = if smoke { (5, 5, 20) } else { (20, 300, 2000) };
    Criterion::default()
        .sample_size(samples)
        .warm_up_time(Duration::from_millis(warm_ms))
        .measurement_time(Duration::from_millis(measure_ms))
}

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampler");
    let cases = [
        ("uniform", KeyDistribution::Uniform),
        (
            "hotspot",
            KeyDistribution::Hotspot {
                data_fraction: 0.2,
                access_fraction: 0.5,
            },
        ),
        // The wallclock bundle's YCSB components draw from exactly this
        // distribution — the squeeze target of the first-level CDF index.
        (
            "zipfian_0.99/100k",
            KeyDistribution::Zipfian { theta: 0.99 },
        ),
        (
            "drift",
            KeyDistribution::Drift {
                data_fraction: 0.1,
                access_fraction: 0.9,
                period_txns: 10_000,
            },
        ),
    ];
    for (name, dist) in cases {
        let mut sampler = dist.sampler(0, 100_000);
        let mut rng = SmallRng::seed_from_u64(1);
        group.bench_function(name, |b| b.iter(|| sampler.sample(&mut rng)));
    }
    // Worst case for the bucket index: theta = 0 keeps the CDF uniform, so
    // every bucket window still holds ~n/1024 entries to binary-search.
    let mut flat = KeyDistribution::Zipfian { theta: 0.0 }.sampler(0, 100_000);
    let mut rng = SmallRng::seed_from_u64(2);
    group.bench_function("zipfian_0.0/100k", |b| b.iter(|| flat.sample(&mut rng)));
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram");
    let mut hist = LatencyHistogram::new();
    let mut x = 0x9e3779b97f4a7c15u64;
    group.bench_function("record", |b| {
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            hist.record(x % 1_000_000);
        })
    });
    let mut filled = LatencyHistogram::new();
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..100_000 {
        filled.record(rng.gen_range(0..5_000_000u64));
    }
    group.bench_function("quantile/p50_p99_p999", |b| {
        b.iter(|| {
            (
                filled.quantile(0.5),
                filled.quantile(0.99),
                filled.quantile(0.999),
            )
        })
    });
    group.finish();
}

fn bench_timeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("timeline");
    {
        // The common case: the executor books cache-line accesses in
        // roughly increasing virtual time (hits the append fast path).
        let mut t = Timeline::default();
        let mut at = 0u64;
        group.bench_function("book/sequential", |b| {
            b.iter(|| {
                let granted = t.book(at, 20);
                at = granted + 25;
                granted
            })
        });
    }
    {
        // Out-of-order bookings about one transaction length behind the
        // horizon exercise the interval scan-and-merge path.
        let mut t = Timeline::default();
        let mut base = 10_000u64;
        let mut i = 0u64;
        group.bench_function("book/out_of_order", |b| {
            b.iter(|| {
                let jitter = (i.wrapping_mul(7919)) % 2_000;
                i += 1;
                base += 30;
                t.book(base.saturating_sub(jitter), 20)
            })
        });
    }
    group.finish();
}

fn bench_arrivals(c: &mut Criterion) {
    let mut group = c.benchmark_group("arrival");
    let poisson = ArrivalProcess::Poisson { rate_tps: 10_000.0 };
    let mut rng = SmallRng::seed_from_u64(5);
    let mut t = 0.0f64;
    group.bench_function("poisson_draw", |b| {
        b.iter(|| {
            t = poisson.next_arrival_secs(t, &mut rng);
            t
        })
    });
    group.finish();
}

fn bench_executor(c: &mut Criterion) {
    // The closed-loop executor's inner loop end to end, on the same
    // YCSB-A/Zipfian(0.99) workload the wallclock bundle times: each
    // iteration advances the simulation by half a virtual millisecond.
    let workload = Ycsb::new(YcsbConfig::workload_a(10_000).with_theta(0.99)).unwrap();
    let mut exec = harness::executor(
        harness::machine(2, 2),
        &DesignSpec::Centralized,
        Box::new(workload),
        0.1,
    );
    c.bench_function("executor/closed_loop_ycsb_0.5ms", |b| {
        b.iter(|| exec.run_for(0.0005))
    });
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_samplers,
        bench_histogram,
        bench_timeline,
        bench_arrivals,
        bench_executor
}
criterion_main!(benches);
