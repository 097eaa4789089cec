//! One run of one workload in this process: repetitions, checks, and the
//! numbers derived from them.  This is what the driver's
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` executes, and
//! what `suite` spawns once per (round, workload).
//!
//! A *repetition* builds every timed job fresh and runs it.  End-to-end
//! metrics always come from untraced repetitions; with `--trace 1` a
//! further set of repetitions runs under the wrapper tracer and the op
//! costs are measured, which gives the per-layer metrics.

use crate::jobs::{
    jobs, table_hash, JobSpec, Role, WorkloadId, ATRAPOS_RATES, CENTRALIZED_RATES, P99_RATE,
};
use crate::layers::{ratio, span_and_count_layers, JobTrace, LayerInputs};
use crate::measure::{
    check_outcome, max_rate_in_slo, peak_rss_mb, quantile_cycles, run_job, rung, submitted, JobRun,
    SimFacts,
};
use crate::ops;
use crate::stats::{combine_digests, Quartiles};
use crate::trace::{ClassAgg, RawSpan, SpanKind};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: WorkloadId,
    /// Seed handed to `ExecutorConfig::seed`.
    pub seed: u64,
    /// How long to measure, wall seconds (set-up of each repetition
    /// included).
    pub seconds: f64,
    /// Produce the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Every virtual duration ÷ 10 and at least 2 repetitions instead of 5.
    pub smoke: bool,
    /// Run exactly this many untraced repetitions, whatever `seconds` says
    /// (`suite` interleaves single repetitions across workloads).
    pub reps: Option<usize>,
}

/// Everything one run measured, as written by `--detail` and pooled by
/// `suite`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Detail {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Smoke scale.
    pub smoke: bool,
    /// Hex FNV of the frozen job table.
    pub table_hash: String,
    /// Untraced repetitions run.
    pub reps: usize,
    /// The samples of every end-to-end metric, in catalogue order: one per
    /// repetition for the host-time ones, a single reading for peak memory
    /// and the simulated ones (which repeat exactly for a seed).
    pub end_to_end: Vec<(String, Vec<f64>)>,
    /// Per-layer metrics as (name, value, unit); `--trace 1` only.
    pub per_layer: Vec<(String, f64, String)>,
    /// Transactions submitted in the timed repetitions.
    pub attempted: u64,
    /// Operations whose result was wrong: all of `attempted` if any check
    /// failed, else 0.
    pub failed: u64,
    /// Simulated aborts per repetition (modelled behaviour, exact for a
    /// seed: TATP's mix aborts ~2 % by specification).
    pub aborted: u64,
    /// Simulated admission rejections per repetition (the overloaded rungs
    /// of `serve-openloop` reject by design).
    pub rejected: u64,
    /// Hex outcome digest of every job, in job order.
    pub job_digests: Vec<(String, String)>,
    /// Hex digest over all of them.
    pub sim_digest: String,
    /// Check failures (empty when `correct`).
    pub errors: Vec<String>,
}

impl Detail {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Share of a traced run's time spent on untraced repetitions, and again
/// on traced ones.
const UNTRACED_SHARE: f64 = 0.4;

fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Run `opts.workload` and return what was measured.  Check failures and
/// job errors land in `Detail::errors`; `Err` is reserved for problems
/// with the benchmark's own inputs.
pub fn run_workload(opts: &RunOptions) -> Result<Detail, String> {
    let started = Instant::now();
    let all = jobs(opts.workload, opts.smoke);
    let (references, timed): (Vec<JobSpec>, Vec<JobSpec>) = all
        .into_iter()
        .partition(|j| j.role == Role::UntimedReference);
    let mut errors: Vec<String> = Vec::new();

    // Reference jobs run once, untimed, for the simulated comparison.
    let mut reference_runs = Vec::new();
    for job in &references {
        let run = run_job(job, opts.seed, false)?;
        if let Err(e) = check_outcome(job, &run.outcome) {
            errors.push(e);
        }
        reference_runs.push(run);
    }

    // Untraced repetitions: the end-to-end host metrics.  A traced run
    // splits its time 40 % untraced (the overhead baseline), 40 % traced,
    // and the rest on op costs.
    let budget = Duration::from_secs_f64(if opts.trace {
        opts.seconds * UNTRACED_SHARE
    } else {
        opts.seconds
    });
    let min_reps = match (opts.trace, opts.smoke) {
        (true, _) | (_, true) => 2,
        _ => 5,
    };
    let mut first: Vec<JobRun> = Vec::new();
    let mut host_ns = Vec::new();
    let mut host_cpu_ns = Vec::new();
    let mut setup_s = Vec::new();
    let mut construct_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut attempted = 0u64;
    let mut reps = 0usize;
    loop {
        let mut runs = Vec::with_capacity(timed.len());
        for job in &timed {
            runs.push(run_job(job, opts.seed, false)?);
        }
        let txns: u64 = runs
            .iter()
            .flat_map(|r| &r.outcome.segments)
            .map(|s| submitted(&s.stats))
            .sum();
        let sum = |f: fn(&JobRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
        host_ns.push(ratio(sum(|r| r.wall_ns), txns as f64));
        host_cpu_ns.push(ratio(sum(|r| r.cpu_ns), txns as f64));
        setup_s.push(sum(|r| r.construct_ns + r.build_ns) / 1e9);
        construct_ms.push(sum(|r| r.construct_ns) / 1e6);
        build_ms.push(sum(|r| r.build_ns) / 1e6);
        attempted += txns;
        if first.is_empty() {
            for (job, run) in timed.iter().zip(&runs) {
                if let Err(e) = check_outcome(job, &run.outcome) {
                    errors.push(e);
                }
            }
            first = runs;
        } else {
            for ((job, a), b) in timed.iter().zip(&first).zip(&runs) {
                if a.digest != b.digest {
                    errors.push(format!(
                        "job {}: repetition {} digests {} but repetition 1 digested {}",
                        job.name,
                        reps + 1,
                        hex(b.digest),
                        hex(a.digest)
                    ));
                }
            }
        }
        reps += 1;
        let done = match opts.reps {
            Some(n) => reps >= n,
            None => reps >= min_reps && started.elapsed() >= budget,
        };
        if done {
            break;
        }
    }

    // Simulated facts of repetition 1 (every other one digested the same).
    let facts: Vec<SimFacts> = first.iter().map(|r| SimFacts::of(&r.outcome)).collect();
    let primary = timed
        .iter()
        .position(|j| j.role == Role::Primary)
        .expect("every workload has a primary job");
    let p_run = &first[primary];
    let p_facts = &facts[primary];
    let serving = opts.workload == WorkloadId::ServeOpenloop;
    let (sim_tps, sim_p99_cycles, sim_gain, max_rate) = if serving {
        let last = *ATRAPOS_RATES.last().expect("non-empty ladder");
        let goodput = rung(&p_run.outcome, last).map_or(0.0, |s| s.throughput_tps);
        let p99 = rung(&p_run.outcome, P99_RATE)
            .map_or(0.0, |s| quantile_cycles(&s.latency_histogram, 0.99));
        let ours = max_rate_in_slo(&p_run.outcome, &ATRAPOS_RATES, p_run.ghz);
        let theirs = timed
            .iter()
            .zip(&first)
            .filter(|(j, _)| j.role == Role::Other)
            .map(|(_, r)| max_rate_in_slo(&r.outcome, &CENTRALIZED_RATES, r.ghz))
            .fold(0.0, f64::max);
        (goodput, p99, ratio(ours, theirs), ours)
    } else {
        let best_other = timed
            .iter()
            .zip(&facts)
            .filter(|(j, _)| j.role == Role::Other)
            .map(|(_, f)| f.tps())
            .chain(
                reference_runs
                    .iter()
                    .map(|r| SimFacts::of(&r.outcome).tps()),
            )
            .fold(0.0, f64::max);
        (
            p_facts.tps(),
            quantile_cycles(&p_facts.latency, 0.99),
            ratio(p_facts.tps(), best_other),
            0.0,
        )
    };
    for (name, v) in [
        ("sim_tps", sim_tps),
        ("sim_p99_cycles", sim_p99_cycles),
        ("sim_gain_vs_best_other", sim_gain),
    ] {
        if !(v.is_finite() && v > 0.0) {
            errors.push(format!("{name} is {v}, expected a positive number"));
        }
    }

    let job_digests: Vec<(String, u64)> = timed
        .iter()
        .zip(&first)
        .chain(references.iter().zip(&reference_runs))
        .map(|(j, r)| (j.name.clone(), r.digest))
        .collect();

    let mut per_layer: Vec<(String, f64, String)> = Vec::new();
    if opts.trace {
        let traced = run_traced(opts, &timed, &first, started, &mut errors)?;
        let untraced_ns = Quartiles::of(&host_ns).median;
        let inputs = LayerInputs {
            timed: &timed,
            first: &first,
            facts: &facts,
            primary,
            traces: &traced.jobs,
            traced_reps: traced.host_ns.len(),
            traced_host_ns: Quartiles::of(&traced.host_ns).median,
            untraced_host_ns: untraced_ns,
            construct_ms: Quartiles::of(&construct_ms).median,
            build_ms: Quartiles::of(&build_ms).median,
            max_rate,
        };
        per_layer = span_and_count_layers(Some(&inputs))
            .into_iter()
            .map(|(l, v)| (l.name, v, l.unit.to_string()))
            .collect();
        // Op costs get what is left of the time, spread over their batches.
        let left = (opts.seconds - started.elapsed().as_secs_f64()).max(0.0);
        let batch = Duration::from_secs_f64((left / 200.0).clamp(0.001, 0.02));
        for c in ops::measure(opts.seed, batch) {
            per_layer.push((c.name.to_string(), c.value, c.unit.to_string()));
        }
        write_trace_file(opts, &traced.jobs)?;
    }

    let detail = Detail {
        workload: opts.workload.name().to_string(),
        seed: opts.seed,
        smoke: opts.smoke,
        table_hash: hex(table_hash(opts.smoke)),
        reps,
        end_to_end: vec![
            ("host_ns_per_txn".into(), host_ns),
            ("host_cpu_ns_per_txn".into(), host_cpu_ns),
            ("setup_s".into(), setup_s),
            ("peak_rss_mb".into(), vec![peak_rss_mb().unwrap_or(0.0)]),
            ("sim_tps".into(), vec![sim_tps]),
            ("sim_p99_cycles".into(), vec![sim_p99_cycles]),
            ("sim_gain_vs_best_other".into(), vec![sim_gain]),
        ],
        per_layer,
        attempted,
        failed: if errors.is_empty() { 0 } else { attempted },
        aborted: facts.iter().map(|f| f.aborted).sum(),
        rejected: facts.iter().map(|f| f.rejected).sum(),
        sim_digest: hex(combine_digests(job_digests.iter().map(|(_, d)| *d))),
        job_digests: job_digests.into_iter().map(|(n, d)| (n, hex(d))).collect(),
        errors,
    };
    Ok(detail)
}

struct Traced {
    jobs: Vec<JobTrace>,
    /// Root wall ns per transaction, one sample per traced repetition.
    host_ns: Vec<f64>,
}

/// The traced repetitions: same jobs under the wrapper tracer, for about
/// as long as the untraced ones took.
fn run_traced(
    opts: &RunOptions,
    timed: &[JobSpec],
    first: &[JobRun],
    started: Instant,
    errors: &mut Vec<String>,
) -> Result<Traced, String> {
    let until = Duration::from_secs_f64(opts.seconds * 2.0 * UNTRACED_SHARE);
    let mut jobs: Vec<JobTrace> = timed.iter().map(JobTrace::new).collect();
    let mut host_ns = Vec::new();
    loop {
        let (mut wall, mut txns) = (0u64, 0u64);
        for ((job, reference), trace) in timed.iter().zip(first).zip(&mut jobs) {
            let mut run = run_job(job, opts.seed, true)?;
            if run.digest != reference.digest {
                errors.push(format!(
                    "job {}: traced run digests {} but the untraced one {}",
                    job.name,
                    hex(run.digest),
                    hex(reference.digest)
                ));
            }
            let tracer = run.trace.take().expect("traced run carries its tracer");
            wall += run.wall_ns;
            txns += run
                .outcome
                .segments
                .iter()
                .map(|s| submitted(&s.stats))
                .sum::<u64>();
            // The first repetition's raw spans are the ones written out.
            trace.absorb(&run, tracer, host_ns.is_empty());
        }
        host_ns.push(ratio(wall as f64, txns as f64));
        if started.elapsed() >= until {
            break;
        }
    }
    Ok(Traced { jobs, host_ns })
}

/// Where result files go: `results/` beside the package's manifest.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Write `text` to `path`, creating its directory.
pub fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[derive(Serialize)]
struct TraceAggregate {
    name: &'static str,
    parent: &'static str,
    count: u64,
    total_ns: u64,
    max_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
}

#[derive(Serialize)]
struct TraceJob {
    job: String,
    design: &'static str,
    transactions: u64,
    root_ns: u64,
    self_ns: u64,
    aggregates: Vec<TraceAggregate>,
    classes: Vec<ClassAgg>,
    spans: Vec<RawSpan>,
}

#[derive(Serialize)]
struct TraceFile {
    workload: &'static str,
    seed: u64,
    smoke: bool,
    sample_every: u64,
    jobs: Vec<TraceJob>,
}

/// Write `results/trace-<workload>.json`: per job the aggregates of every
/// span name over all traced repetitions and the first repetition's
/// sampled raw spans.
fn write_trace_file(opts: &RunOptions, traces: &[JobTrace]) -> Result<(), String> {
    let file = TraceFile {
        workload: opts.workload.name(),
        seed: opts.seed,
        smoke: opts.smoke,
        sample_every: crate::trace::SAMPLE_EVERY,
        jobs: traces
            .iter()
            .map(|t| TraceJob {
                job: t.name.clone(),
                design: t.design.key(),
                transactions: t.txns,
                root_ns: t.root_ns,
                self_ns: t.self_ns(),
                aggregates: SpanKind::ALL
                    .into_iter()
                    .map(|k| {
                        let a = t.agg(k);
                        TraceAggregate {
                            name: k.name(),
                            parent: k.parent(),
                            count: a.count,
                            total_ns: a.total_ns,
                            max_ns: a.max_ns,
                            p50_ns: if a.count == 0 {
                                0
                            } else {
                                a.histogram.quantile(0.5)
                            },
                            p99_ns: a.p99_ns(),
                        }
                    })
                    .collect(),
                classes: t.classes.clone(),
                spans: t.raw.clone(),
            })
            .collect(),
    };
    let path = results_dir().join(format!("trace-{}.json", opts.workload.name()));
    write_file(&path, &serde::json::to_string_pretty(&file))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(d: &Detail, name: &str) -> f64 {
        d.per_layer
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("no per-layer metric {name}"))
            .1
    }

    #[test]
    fn traced_layers_add_up_to_the_root_span() {
        // adaptive-shift exercises every span kind; serve-openloop the
        // open-loop path.  Every catalogue metric must get a value, and the
        // root span must equal its children plus the executor's self time.
        for workload in [WorkloadId::AdaptiveShift, WorkloadId::ServeOpenloop] {
            let d = run_workload(&RunOptions {
                workload,
                seed: 5,
                seconds: 0.0,
                trace: true,
                smoke: true,
                reps: None,
            })
            .unwrap();
            assert!(d.correct(), "{:?}", d.errors);
            assert_eq!(d.failed, 0);
            let names: Vec<&str> = d.per_layer.iter().map(|(n, _, _)| n.as_str()).collect();
            for (l, _) in span_and_count_layers(None) {
                assert!(names.contains(&l.name.as_str()), "{} missing", l.name);
            }
            // Totals per transaction, so per-repetition metrics (ms) are
            // converted back: every one is over the same traced repetitions.
            let txns_per_rep = d.attempted as f64 / d.reps as f64;
            let per_txn = |ms: f64| ms * 1e6 / txns_per_rep;
            let children = layer(&d, "workloads.generate.ns_per_txn")
                + layer(&d, "engine.designs.execute.ns_per_txn")
                + layer(&d, "engine.executor.self.ns_per_txn");
            let rare = per_txn(layer(&d, "engine.designs.on_interval.ms_total"))
                + per_txn(layer(&d, "workloads.reconfigure.ms_total"))
                + per_txn(layer(&d, "engine.designs.on_topology_change.ms_total"));
            let root = layer(&d, "engine.executor.run.ns_per_txn");
            if workload == WorkloadId::AdaptiveShift {
                // Closed loop: transactions generated = transactions
                // submitted, so the conversion above is exact.
                assert!(
                    (children + rare - root).abs() < 1e-6 * root,
                    "{children} + {rare} != {root}"
                );
                assert!(layer(&d, "core.controller.intervals") > 0.0);
                assert!(layer(&d, "engine.designs.on_topology_change.ms_total") > 0.0);
                assert!(layer(&d, "workloads.reconfigure.ms_total") > 0.0);
            } else {
                assert!(children <= root * (1.0 + 1e-9));
                assert!(layer(&d, "engine.arrival.offered") > 0.0);
                assert!(layer(&d, "sim_max_rate_in_slo_tps") > 0.0);
            }
        }
    }
}
