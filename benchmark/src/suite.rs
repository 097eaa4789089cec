//! `suite`: every workload in one command, and `compare` over two of its
//! result files.
//!
//! The suite measures each workload in child processes of this same
//! binary — one repetition per child, the rounds interleaved round-robin
//! across workloads (round 1 of all six, then round 2 …), so one noisy
//! period on a shared host cannot hit every repetition of one workload,
//! and `VmHWM` of a child is the peak memory of exactly one workload.
//! A traced child per workload follows.  One thread, one child at a time:
//! the parallel lab is deliberately not what is timed.

use crate::jobs::{table_hash, WorkloadId, WORKLOADS};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::run::{results_dir, write_file, Detail};
use crate::stats::Quartiles;
use atrapos_engine::HostFingerprint;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Schema tag of a suite result file.
pub const SCHEMA: &str = "atrapos-benchmark-v1";

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricResult {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median over the repetitions (the value itself for a simulated
    /// metric, which repeats exactly).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Repetitions.
    pub n: usize,
    /// Inter-quartile range ÷ median.
    pub spread: f64,
    /// The spread exceeds the metric's bound, so this host cannot resolve
    /// a difference of the size the bound forbids.
    pub unresolved: bool,
}

/// Everything the suite learned about one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Transactions submitted in the timed repetitions (`ops`).
    pub attempted: u64,
    /// Operations whose result was wrong.
    pub failed: u64,
    /// Simulated aborts per repetition.
    pub aborted: u64,
    /// Simulated admission rejections per repetition.
    pub rejected: u64,
    /// Digest over every job's outcome, for cross-commit comparison.
    /// Never pinned in the benchmark: a behaviour fix must stay landable.
    pub sim_digest: String,
    /// Check failures.
    pub errors: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricResult>,
    /// Per-layer metrics: name, value, unit.
    pub per_layer: Vec<(String, f64, String)>,
}

impl WorkloadResult {
    /// Wrong results as a share of the operations attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Simulated aborts as a share of one repetition's operations.
    pub fn aborted_share(&self, repetitions: usize) -> f64 {
        (self.aborted * repetitions as u64) as f64 / self.attempted.max(1) as f64
    }

    /// Simulated rejections as a share of one repetition's operations.
    pub fn rejected_share(&self, repetitions: usize) -> f64 {
        (self.rejected * repetitions as u64) as f64 / self.attempted.max(1) as f64
    }
}

/// A suite result file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteResult {
    /// [`SCHEMA`].
    pub schema: String,
    /// Seed.
    pub seed: u64,
    /// Smoke scale.
    pub smoke: bool,
    /// Repetitions per workload.
    pub repetitions: usize,
    /// `git` short revision, `+dirty` if the tree differs, or `unknown`.
    pub git: String,
    /// The host that produced the host-time numbers.
    pub host: HostFingerprint,
    /// Cores available to the process.
    pub nproc: usize,
    /// Hex FNV of the frozen job table.
    pub table_hash: String,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

/// Short git revision of the working directory (`+dirty` when it has
/// uncommitted changes), `unknown` outside a checkout.
fn git_revision() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            if git(&["status", "--porcelain"]).is_none_or(|s| !s.is_empty()) {
                format!("{rev}+dirty")
            } else {
                rev
            }
        }
        _ => "unknown".to_string(),
    }
}

/// Run this binary on one workload and read back its detail file.
fn child(workload: WorkloadId, seed: u64, smoke: bool, extra: &[&str]) -> Result<Detail, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let detail_path = results_dir().join(format!(".detail-{}.json", std::process::id()));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(extra)
        .arg("--detail")
        .arg(&detail_path);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives the suite.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let text = std::fs::read_to_string(&detail_path);
    // Best effort: a leftover scratch file is ignored by git and harmless.
    let _ = std::fs::remove_file(&detail_path);
    match text {
        Ok(text) => serde::json::from_str(&text)
            .map_err(|e| format!("{}: detail file: {e}", workload.name())),
        Err(_) => Err(format!(
            "{} exited with {} and no detail file: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn metric_result(def: &EndToEnd, samples: &[f64]) -> MetricResult {
    let q = Quartiles::of(samples);
    MetricResult {
        name: def.name.to_string(),
        unit: def.unit.to_string(),
        median: q.median,
        q1: q.q1,
        q3: q.q3,
        n: q.n,
        spread: q.spread(),
        unresolved: q.spread() > def.bound,
    }
}

/// Pool the children of one workload.
fn pool(workload: WorkloadId, untraced: &[Detail], traced: &Detail) -> WorkloadResult {
    let first = &untraced[0];
    let mut errors: Vec<String> = Vec::new();
    for d in untraced.iter().chain([traced]) {
        errors.extend(d.errors.iter().cloned());
        if d.sim_digest != first.sim_digest {
            errors.push(format!(
                "sim_digest {} differs from the first repetition's {}",
                d.sim_digest, first.sim_digest
            ));
        }
    }
    let end_to_end = END_TO_END
        .iter()
        .map(|def| {
            let samples: Vec<f64> = untraced
                .iter()
                .flat_map(|d| d.end_to_end.iter().filter(|(n, _)| n == def.name))
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            // A simulated metric is one number, not a distribution.
            let exact = def.name.starts_with("sim_");
            if exact && samples.iter().any(|v| *v != samples[0]) {
                errors.push(format!(
                    "{} differs between repetitions of one seed: {samples:?}",
                    def.name
                ));
            }
            metric_result(def, if exact { &samples[..1] } else { &samples })
        })
        .collect();
    let attempted = untraced.iter().map(|d| d.attempted).sum();
    WorkloadResult {
        name: workload.name().to_string(),
        attempted,
        failed: if errors.is_empty() { 0 } else { attempted },
        aborted: first.aborted,
        rejected: first.rejected,
        sim_digest: first.sim_digest.clone(),
        errors,
        end_to_end,
        per_layer: traced.per_layer.clone(),
    }
}

/// Run the whole suite and write the result file.  Returns whether every
/// check passed.
pub fn run_suite(seed: u64, smoke: bool, out: Option<PathBuf>) -> Result<bool, String> {
    let rounds = if smoke { 2 } else { 5 };
    let mut untraced: Vec<Vec<Detail>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 1..=rounds {
        for (i, w) in WORKLOADS.into_iter().enumerate() {
            eprintln!("round {round}/{rounds}: {}", w.name());
            untraced[i].push(child(w, seed, smoke, &["--trace", "0", "--reps", "1"])?);
        }
    }
    let mut workloads = Vec::new();
    for (i, w) in WORKLOADS.into_iter().enumerate() {
        eprintln!("traced: {}", w.name());
        let seconds = if smoke { "1" } else { "10" };
        let traced = child(w, seed, smoke, &["--trace", "1", "--seconds", seconds])?;
        workloads.push(pool(w, &untraced[i], &traced));
    }
    let host = HostFingerprint::detect();
    let result = SuiteResult {
        schema: SCHEMA.to_string(),
        seed,
        smoke,
        repetitions: rounds,
        git: git_revision(),
        nproc: host.cpus,
        host,
        table_hash: format!("{:016x}", table_hash(smoke)),
        workloads,
    };
    print_suite(&result);
    let path = out.unwrap_or_else(|| results_dir().join(format!("result-seed{seed}.json")));
    write_file(&path, &serde::json::to_string_pretty(&result))?;
    println!("\nresult written to {}", path.display());
    Ok(result.workloads.iter().all(|w| w.errors.is_empty()))
}

fn print_suite(r: &SuiteResult) {
    println!(
        "atrapos benchmark: seed {}, {} repetitions per workload{}, git {}, {} ({} cpus), job table {}",
        r.seed,
        r.repetitions,
        if r.smoke { " (smoke scale)" } else { "" },
        r.git,
        r.host.summary(),
        r.nproc,
        r.table_hash
    );
    println!(
        "host = the simulator's cost on this machine; sim = the modelled system, exact for a seed.\n\
         serve-openloop latency is virtual time from arrival to commit, queue wait included; the\n\
         arrival generator runs in virtual time and cannot run late."
    );
    for w in &r.workloads {
        println!(
            "\n== {}: ops {}  failed {}  (simulated: aborted {} rejected {})  sim_digest {}  checks {}",
            w.name,
            w.attempted,
            w.failed,
            w.aborted,
            w.rejected,
            w.sim_digest,
            if w.errors.is_empty() { "pass" } else { "FAIL" }
        );
        for e in &w.errors {
            println!("   check failed: {e}");
        }
        for m in &w.end_to_end {
            println!(
                "   {:<26} {:>16.4} {:<4} q1 {:.4} q3 {:.4} n {} spread {:.2}%{}",
                m.name,
                m.median,
                m.unit,
                m.q1,
                m.q3,
                m.n,
                100.0 * m.spread,
                if m.unresolved { "  UNRESOLVED" } else { "" }
            );
        }
        for (name, value, unit) in &w.per_layer {
            println!("   {name:<64} {value:>16.4} {unit}");
        }
    }
    println!("\nnoise (inter-quartile range ÷ median over the repetitions):");
    for w in &r.workloads {
        let spread = |name: &str| {
            w.end_to_end
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| 100.0 * m.spread)
        };
        println!(
            "   {:<16} host_ns_per_txn {:.2}%   host_cpu_ns_per_txn {:.2}%",
            w.name,
            spread("host_ns_per_txn"),
            spread("host_cpu_ns_per_txn")
        );
    }
}

fn load(path: &Path) -> Result<SuiteResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let r: SuiteResult =
        serde::json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if r.schema != SCHEMA {
        return Err(format!(
            "{}: schema {} is not {SCHEMA}",
            path.display(),
            r.schema
        ));
    }
    Ok(r)
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// A side's own spread exceeds the bound; no verdict possible.
    Unresolved,
}

/// Judge `new` against `base` for one metric.
pub fn judge(def: &EndToEnd, base: &MetricResult, new: &MetricResult) -> Verdict {
    if base.unresolved || new.unresolved {
        Verdict::Unresolved
    } else if def.better.worsening(base.median, new.median) > def.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `compare <a.json> <b.json>`: per workload × end-to-end metric print
/// both medians, the ratio with its base, the bound and the verdict.
/// Returns whether nothing is worse and no failed share changed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    println!(
        "base A = {} (git {}, seed {})\nnew  B = {} (git {}, seed {})",
        a.display(),
        ra.git,
        ra.seed,
        b.display(),
        rb.git,
        rb.seed
    );
    if ra.table_hash != rb.table_hash {
        return Err(format!(
            "job tables differ ({} vs {}): the two files measured different work",
            ra.table_hash, rb.table_hash
        ));
    }
    if ra.host != rb.host {
        println!("note: different hosts — host-time metrics are not comparable");
    }
    let mut good = true;
    for wa in &ra.workloads {
        let Some(wb) = rb.workloads.iter().find(|w| w.name == wa.name) else {
            println!("\n== {}: missing from B", wa.name);
            good = false;
            continue;
        };
        println!(
            "\n== {}: sim_digest {}",
            wa.name,
            if wa.sim_digest == wb.sim_digest {
                "identical".to_string()
            } else if ra.seed == rb.seed {
                format!("CHANGED {} -> {}", wa.sim_digest, wb.sim_digest)
            } else {
                "not comparable (different seeds)".to_string()
            }
        );
        for (label, sa, sb) in [
            ("failed", wa.failed_share(), wb.failed_share()),
            (
                "simulated aborts",
                wa.aborted_share(ra.repetitions),
                wb.aborted_share(rb.repetitions),
            ),
            (
                "simulated rejections",
                wa.rejected_share(ra.repetitions),
                wb.rejected_share(rb.repetitions),
            ),
        ] {
            // Exact for one seed; across seeds the counts differ by sampling
            // noise, so only a shift of more than 1 % of the share counts.
            let changed = if ra.seed == rb.seed {
                sa != sb
            } else {
                (sa - sb).abs() > 0.01 * sa.max(sb)
            };
            if changed {
                good = false;
            }
            println!(
                "   {label:<26} share of ops A {sa:.6}  B {sb:.6}  {}",
                if changed { "CHANGED" } else { "same" }
            );
        }
        for def in &END_TO_END {
            let find =
                |w: &WorkloadResult| w.end_to_end.iter().find(|m| m.name == def.name).cloned();
            let (Some(ma), Some(mb)) = (find(wa), find(wb)) else {
                println!("   {:<26} missing", def.name);
                good = false;
                continue;
            };
            let verdict = judge(def, &ma, &mb);
            if verdict == Verdict::Worse {
                good = false;
            }
            println!(
                "   {:<26} A {:>14.4}  B {:>14.4} {:<4} B/A {:.4} (base A)  {} is better, bound {:.0}%  {}",
                def.name,
                ma.median,
                mb.median,
                def.unit,
                if ma.median == 0.0 { 0.0 } else { mb.median / ma.median },
                def.better.word(),
                100.0 * def.bound,
                match verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Worse => "WORSE".to_string(),
                    Verdict::Unresolved => format!(
                        "unresolved (spread A {:.1}% B {:.1}%)",
                        100.0 * ma.spread,
                        100.0 * mb.spread
                    ),
                }
            );
        }
    }
    println!(
        "\n{}",
        if good {
            "compare: ok"
        } else {
            "compare: FAILED"
        }
    );
    Ok(good)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;

    fn metric(median: f64, spread: f64, bound: f64) -> MetricResult {
        MetricResult {
            name: "m".into(),
            unit: "ns".into(),
            median,
            q1: median,
            q3: median * (1.0 + spread),
            n: 5,
            spread,
            unresolved: spread > bound,
        }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let lower = &END_TO_END[0];
        assert_eq!(lower.better, Better::Lower);
        let b = lower.bound;
        let just_inside = 100.0 * (1.0 + b - 0.01);
        let just_outside = 100.0 * (1.0 + b + 0.01);
        let base = metric(100.0, 0.01, b);
        assert_eq!(
            judge(lower, &base, &metric(just_inside, 0.01, b)),
            Verdict::Ok
        );
        assert_eq!(judge(lower, &base, &metric(50.0, 0.01, b)), Verdict::Ok);
        assert_eq!(
            judge(lower, &base, &metric(just_outside, 0.01, b)),
            Verdict::Worse
        );
        assert_eq!(
            judge(lower, &metric(100.0, b + 0.1, b), &metric(200.0, 0.01, b)),
            Verdict::Unresolved
        );
        let higher = END_TO_END
            .iter()
            .find(|d| d.better == Better::Higher)
            .unwrap();
        let b = higher.bound;
        let just_outside = 100.0 * (1.0 - b - 0.01);
        assert_eq!(
            judge(
                higher,
                &metric(100.0, 0.0, b),
                &metric(just_outside, 0.0, b)
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(higher, &metric(100.0, 0.0, b), &metric(120.0, 0.0, b)),
            Verdict::Ok
        );
    }
}
