//! Wall-clock benchmark of the simulator itself (`atrapos wallclock`)
//! and the perf-regression gate over its trajectory
//! (`atrapos wallclock --check`).
//!
//! Times a fixed scenario bundle — the adaptive TATP figure timelines
//! (Figures 10–13), TATP and TPC-C design sweeps, and a YCSB-A Zipfian
//! sweep on the paper's 4-socket machine across all four system designs —
//! and records the result in `reports/BENCH_wallclock.json`.  Successive
//! runs with different labels append to the same file, so the repo
//! accumulates a wall-clock trajectory (e.g. a `pre-refactor` and a
//! `post-refactor` entry per optimization PR).
//!
//! Every entry embeds a [`WallclockMeta`]: the *host* fingerprint
//! ([`HostFingerprint`]) of the machine that produced the wall-clock
//! numbers, the [`RunMeta`] of the simulated sweep machine, and a source
//! label (the git revision where obtainable).  Wall-clock milliseconds
//! only mean something relative to entries from the same host at the same
//! thread count, and the gate enforces exactly that:
//!
//! **Baseline-selection rule.** `--check` takes the *last* entry of the
//! file as the run under test and searches the *earlier* entries, newest
//! first, for one with the same host fingerprint, the same `threads`, and
//! the same `smoke` flag.  Entries recorded before fingerprints existed
//! (`meta: null`) are never comparable.  If no entry qualifies the check
//! passes with a notice (a fresh host has no baseline to regress
//! against); otherwise any component whose `wall_ms` — or the bundle
//! total — exceeds the baseline by more than the tolerance (default
//! [`DEFAULT_TOLERANCE_PCT`]%, `--tolerance` flag) fails the check with a
//! per-component table.
//!
//! `speedup_vs_first` uses the same comparability rule: it is the ratio
//! of the oldest to the newest entry among full (non-smoke) runs
//! comparable to the newest full run, and `null` when fewer than two such
//! entries exist — it never again compares a serial run on one host
//! against a threaded run on another.
//!
//! The ~20 components of the bundle are independent deterministic
//! simulations, so they run as one job list on the engine's parallel
//! experiment lab (`--threads N`, default: all available cores).  The
//! bundle is fixed (no `ATRAPOS_PAPER` dependence) so that entries
//! written at different times stay comparable, and the gate compares
//! components *by name*, so extending the bundle (as the YCSB components
//! did) leaves existing components gated while new ones simply have no
//! baseline yet.  `total_committed` is the total number of simulated
//! transactions the bundle commits; it must be identical across runs of
//! the same source revision, across behaviour-preserving optimizations,
//! *and across thread counts* (same seed ⇒ same simulated work), so it
//! doubles as a cheap cross-run determinism check.

use crate::cli::{self, FlagSpec};
use crate::figures::{fig10_scenario, fig11_scenario, fig12_scenario, fig13_scenario, figure_job};
use crate::harness::{machine, measurement_config, Scale};
use crate::report::report_dir;
use atrapos_engine::sweep::{default_threads, run_sweep, SweepJob};
use atrapos_engine::{DesignSpec, HostFingerprint, RunMeta, Workload};
use atrapos_workloads::{Tatp, TatpConfig, TatpTxn, Tpcc, TpccConfig, Ycsb, YcsbConfig};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default regression tolerance of the gate, in percent: a component (or
/// the total) may be up to this much slower than its baseline before
/// `--check` fails.
pub const DEFAULT_TOLERANCE_PCT: f64 = 10.0;

/// One timed component of the bundle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentTiming {
    /// Component name (e.g. `fig10/atrapos`, `tpcc/Centralized`).
    pub name: String,
    /// Wall-clock milliseconds spent simulating this component, excluding
    /// design build / data population (measured on its worker thread; with
    /// more jobs than cores the per-component times overlap and their sum
    /// exceeds `total_ms`).
    pub wall_ms: f64,
    /// Transactions committed inside the simulation.
    pub committed: u64,
}

/// Provenance of one wall-clock entry: who measured it, on what hardware,
/// from which source revision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallclockMeta {
    /// Fingerprint of the host that produced the wall-clock numbers — the
    /// gate's comparability key.
    pub host: HostFingerprint,
    /// The simulated sweep machine, seed, and lab thread count.
    pub lab: RunMeta,
    /// Source revision label (`git` short hash, `+dirty` when the tree had
    /// uncommitted changes), or `"unknown"` outside a git checkout.
    pub source: String,
}

/// One labelled run of the whole bundle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WallclockRun {
    /// Run label (`pre-refactor`, `post-refactor`, `smoke`, …).
    pub label: String,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_secs: u64,
    /// Whether this was the reduced CI smoke bundle.
    pub smoke: bool,
    /// OS threads the bundle ran on (`null` in entries recorded before the
    /// parallel lab existed, which were serial).
    pub threads: Option<usize>,
    /// Host fingerprint + lab meta + source label (`null` in entries
    /// recorded before the gate existed; such entries are never used as
    /// baselines).
    pub meta: Option<WallclockMeta>,
    /// Per-component timings.
    pub components: Vec<ComponentTiming>,
    /// Total wall-clock milliseconds over all components.
    pub total_ms: f64,
    /// Total committed transactions over all components (cross-run
    /// determinism check: identical for behaviour-preserving changes and
    /// for every `--threads` value).
    pub total_committed: u64,
}

/// The whole report file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WallclockReport {
    /// Schema tag.
    pub schema: String,
    /// Accumulated runs, oldest first.
    pub runs: Vec<WallclockRun>,
    /// `oldest.total_ms / newest.total_ms` over the full (non-smoke) runs
    /// comparable to the newest full run under the gate's baseline rule
    /// (same host fingerprint and thread count) — > 1.0 means the latest
    /// run is faster.  `null` when fewer than two comparable entries
    /// exist.
    pub speedup_vs_first: Option<f64>,
}

/// Schema tag written to new and updated report files.  v2 added the
/// optional per-entry `meta` and restricted `speedup_vs_first` to
/// gate-comparable entries; v1 files load unchanged (`meta` defaults to
/// `null`).
pub const SCHEMA: &str = "atrapos-wallclock-v2";

/// Fixed bundle scale (matches `Scale::quick` where relevant; pinned here
/// so the bundle cannot drift with harness defaults).
fn bundle_scale(smoke: bool) -> Scale {
    let mut s = Scale::quick();
    if smoke {
        s.tatp_subscribers /= 10;
        s.tpcc_warehouses = 4;
        s.ycsb_records /= 10;
        s.measure_secs /= 10.0;
        s.phase_secs /= 10.0;
    }
    s
}

/// The four designs of the sweep components.
fn sweep_designs() -> Vec<DesignSpec> {
    vec![
        DesignSpec::Centralized,
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::Plp,
        DesignSpec::atrapos(),
    ]
}

/// Design-sweep jobs: `workload` against each of the four designs on the
/// 4-socket, 10-cores-per-socket machine.
fn sweep_jobs(
    workload_name: &str,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    secs: f64,
    out: &mut Vec<SweepJob>,
) {
    for spec in sweep_designs() {
        out.push(SweepJob::measurement(
            format!("{workload_name}/{}", spec.label()),
            machine(4, 10),
            spec,
            make_workload(),
            secs,
            measurement_config(secs),
        ));
    }
}

/// Every component of the bundle as one lab job list, in the fixed
/// historical order (the gate compares components by name, so appending
/// new components keeps old ones gated).
fn bundle_jobs(scale: &Scale) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    // The four adaptive-figure timelines, under both variants where the
    // figure compares them.
    for (name, adaptive, initial, scenario) in [
        (
            "fig10/static",
            false,
            TatpTxn::UpdateSubscriberData,
            fig10_scenario(scale),
        ),
        (
            "fig10/atrapos",
            true,
            TatpTxn::UpdateSubscriberData,
            fig10_scenario(scale),
        ),
        (
            "fig11/static",
            false,
            TatpTxn::GetSubscriberData,
            fig11_scenario(scale),
        ),
        (
            "fig11/atrapos",
            true,
            TatpTxn::GetSubscriberData,
            fig11_scenario(scale),
        ),
        (
            "fig12/static",
            false,
            TatpTxn::GetSubscriberData,
            fig12_scenario(scale),
        ),
        (
            "fig12/atrapos",
            true,
            TatpTxn::GetSubscriberData,
            fig12_scenario(scale),
        ),
        (
            "fig13/atrapos",
            true,
            TatpTxn::GetNewDestination,
            fig13_scenario(scale),
        ),
    ] {
        jobs.push(figure_job(name, scale, adaptive, initial, &scenario));
    }
    // Design sweeps on the 4-socket, 10-cores-per-socket machine.
    let tatp_subs = scale.tatp_subscribers;
    sweep_jobs(
        "tatp",
        &|| Box::new(Tatp::new(TatpConfig::scaled(tatp_subs))),
        scale.measure_secs,
        &mut jobs,
    );
    let warehouses = scale.tpcc_warehouses;
    sweep_jobs(
        "tpcc",
        &|| Box::new(Tpcc::new(TpccConfig::scaled(warehouses))),
        scale.measure_secs,
        &mut jobs,
    );
    // YCSB-A at the standard Zipfian skew: the only bundle components that
    // exercise the precomputed-CDF sampler hot path.
    let ycsb_records = scale.ycsb_records;
    sweep_jobs(
        "ycsb",
        &|| {
            Box::new(
                Ycsb::new(YcsbConfig::workload_a(ycsb_records).with_theta(0.99))
                    .expect("the scale's YCSB-A config is valid"),
            )
        },
        scale.measure_secs,
        &mut jobs,
    );
    jobs
}

fn run_bundle(scale: &Scale, threads: usize) -> Vec<ComponentTiming> {
    run_sweep(bundle_jobs(scale), threads)
        .into_iter()
        .map(|r| {
            let outcome = r
                .outcome
                .unwrap_or_else(|e| panic!("bundle component '{}' failed: {e}", r.name));
            ComponentTiming {
                name: r.name,
                wall_ms: r.wall_ms,
                committed: outcome.total_committed(),
            }
        })
        .collect()
}

/// The source label recorded in [`WallclockMeta`]: the short git hash of
/// `HEAD`, with `+dirty` appended when the working tree differs from it;
/// `"unknown"` when git (or the repository) is unavailable.
fn source_label() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.is_empty());
            if dirty {
                format!("{rev}+dirty")
            } else {
                rev
            }
        }
        _ => "unknown".to_string(),
    }
}

const RUN_USAGE: &str =
    "atrapos wallclock [--label L] [--threads N] [--smoke] | --check [--tolerance PCT]";

/// Entry point of `atrapos wallclock`: run the bundle and append an entry,
/// or, with `--check`, gate the last entry against its baseline.
pub fn run(args: &[String]) -> Result<(), String> {
    let parsed = cli::parse(
        args,
        &[
            FlagSpec::switch("--smoke"),
            FlagSpec::switch("--check"),
            FlagSpec::value("--label"),
            FlagSpec::value("--threads"),
            FlagSpec::value("--tolerance"),
        ],
        0,
        RUN_USAGE,
    )?;
    if parsed.has("--check") {
        for incompatible in ["--smoke", "--label", "--threads"] {
            if parsed.has(incompatible) {
                return Err(format!(
                    "'{incompatible}' does not apply to --check (the gate examines \
                     the last recorded entry)\n\nUSAGE: {RUN_USAGE}"
                ));
            }
        }
        let tolerance = match parsed.value("--tolerance") {
            Some(t) => t
                .parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or(format!(
                    "--tolerance needs a non-negative percentage (e.g. --tolerance 15)\
                     \n\nUSAGE: {RUN_USAGE}"
                ))?,
            None => DEFAULT_TOLERANCE_PCT,
        };
        return check(tolerance);
    }
    if parsed.has("--tolerance") {
        return Err(format!(
            "'--tolerance' only applies to --check\n\nUSAGE: {RUN_USAGE}"
        ));
    }
    let smoke = parsed.has("--smoke");
    let label = parsed
        .value("--label")
        .map(str::to_string)
        .unwrap_or_else(|| if smoke { "smoke".into() } else { "run".into() });
    let threads = match parsed.value("--threads") {
        Some(t) => t.parse::<usize>().ok().filter(|&n| n >= 1).ok_or(format!(
            "--threads needs a positive integer\n\nUSAGE: {RUN_USAGE}"
        ))?,
        None => default_threads(),
    };
    run_bundle_and_record(smoke, label, threads)
}

fn run_bundle_and_record(smoke: bool, label: String, threads: usize) -> Result<(), String> {
    let scale = bundle_scale(smoke);
    eprintln!(
        "running wallclock bundle '{label}' on {threads} thread{}{}",
        if threads == 1 { "" } else { "s" },
        if smoke { " (smoke)" } else { "" }
    );
    let total_start = Instant::now();
    let components = run_bundle(&scale, threads);
    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;
    let total_committed = components.iter().map(|c| c.committed).sum();

    for c in &components {
        eprintln!(
            "  {:<28} {:>9.1} ms  {:>9} committed",
            c.name, c.wall_ms, c.committed
        );
    }
    eprintln!(
        "  {:<28} {:>9.1} ms  {:>9} committed",
        "TOTAL", total_ms, total_committed
    );

    let run = WallclockRun {
        label,
        unix_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        smoke,
        threads: Some(threads),
        meta: Some(WallclockMeta {
            host: HostFingerprint::detect(),
            lab: RunMeta::of(&machine(4, 10), 42, threads),
            source: source_label(),
        }),
        components,
        total_ms,
        total_committed,
    };

    let dir = report_dir();
    let path = wallclock_path(&dir);
    let mut report = load_report(&path)?;
    report.runs.push(run);
    report.schema = SCHEMA.to_string();
    report.speedup_vs_first = speedup_vs_first(&report.runs);
    if let Some(s) = report.speedup_vs_first {
        eprintln!("  speedup vs first comparable full run: {s:.2}x");
    }
    let written = write_report(&dir, &report)?;
    eprintln!("wrote {}", written.display());
    Ok(())
}

/// The report path inside `dir`.
pub fn wallclock_path(dir: &Path) -> PathBuf {
    dir.join("BENCH_wallclock.json")
}

/// Load the report at `path`, or an empty one if the file does not exist.
/// An unreadable file is an error: never silently wipe an accumulated
/// trajectory — the baseline entries in it are irreplaceable.
pub fn load_report(path: &Path) -> Result<WallclockReport, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => serde::json::from_str::<WallclockReport>(&text).map_err(|e| {
            format!(
                "existing {} is unreadable: {e}\nfix or remove the file, then re-run",
                path.display()
            )
        }),
        Err(_) => Ok(WallclockReport {
            schema: SCHEMA.to_string(),
            runs: Vec::new(),
            speedup_vs_first: None,
        }),
    }
}

/// Write `report` into `dir`, creating the directory as needed.  Both the
/// directory creation and the write propagate failures: a smoke run whose
/// report cannot be written must fail, not "pass" having written nothing.
pub fn write_report(dir: &Path, report: &WallclockReport) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create report directory {}: {e}", dir.display()))?;
    let path = wallclock_path(dir);
    std::fs::write(&path, serde::json::to_string_pretty(report))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Whether `candidate` may serve as a wall-clock baseline for `current`:
/// same host fingerprint, same lab thread count, same smoke flag.
/// Entries without a fingerprint are never comparable.
pub fn comparable(candidate: &WallclockRun, current: &WallclockRun) -> bool {
    match (&candidate.meta, &current.meta) {
        (Some(c), Some(r)) => {
            c.host == r.host
                && candidate.threads == current.threads
                && candidate.smoke == current.smoke
        }
        _ => false,
    }
}

/// The gate's baseline-selection rule: the most recent entry of `pool`
/// comparable to `current` (see [`comparable`]).
pub fn select_baseline<'a>(
    pool: &'a [WallclockRun],
    current: &WallclockRun,
) -> Option<&'a WallclockRun> {
    pool.iter().rev().find(|r| comparable(r, current))
}

/// `speedup_vs_first` under the comparability rule: oldest vs newest
/// among the full (non-smoke) runs comparable to the newest full run.
pub fn speedup_vs_first(runs: &[WallclockRun]) -> Option<f64> {
    let newest_full = runs.iter().rev().find(|r| !r.smoke)?;
    let comparable_full: Vec<&WallclockRun> = runs
        .iter()
        .filter(|r| !r.smoke && (std::ptr::eq(*r, newest_full) || comparable(r, newest_full)))
        .collect();
    match (comparable_full.first(), comparable_full.last()) {
        (Some(first), Some(last)) if comparable_full.len() >= 2 && last.total_ms > 0.0 => {
            Some(first.total_ms / last.total_ms)
        }
        _ => None,
    }
}

/// One gated comparison row.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Component name (or `"TOTAL"`).
    pub name: String,
    /// Baseline milliseconds.
    pub baseline_ms: f64,
    /// Current milliseconds.
    pub current_ms: f64,
    /// Whether the row exceeds the tolerance.
    pub regressed: bool,
}

impl GateRow {
    /// Percentage change vs the baseline (positive = slower).
    pub fn delta_pct(&self) -> f64 {
        if self.baseline_ms > 0.0 {
            (self.current_ms / self.baseline_ms - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// Outcome of gating one run against the trajectory.
#[derive(Debug, Clone)]
pub enum GateOutcome {
    /// No earlier entry qualifies as a baseline; the gate passes with this
    /// human-readable explanation.
    NoBaseline {
        /// Why nothing qualified (fresh host, thread-count mismatch, …).
        reason: String,
    },
    /// Compared against a baseline.
    Compared {
        /// Label of the selected baseline entry.
        baseline_label: String,
        /// Per-component rows plus the `TOTAL` row, in bundle order.
        rows: Vec<GateRow>,
        /// Components present on only one side (new or vanished bundle
        /// components; listed, never failed on).
        unmatched: Vec<String>,
    },
}

impl GateOutcome {
    /// Whether any gated row regressed.
    pub fn failed(&self) -> bool {
        match self {
            GateOutcome::NoBaseline { .. } => false,
            GateOutcome::Compared { rows, .. } => rows.iter().any(|r| r.regressed),
        }
    }
}

/// Explain why no baseline qualified for `current`, pointing at the
/// nearest miss so CI logs show *which* rule excluded it.
fn no_baseline_reason(pool: &[WallclockRun], current: &WallclockRun) -> String {
    let Some(meta) = &current.meta else {
        return "the entry under test has no host fingerprint (recorded before the gate existed)"
            .to_string();
    };
    let same_host: Vec<&WallclockRun> = pool
        .iter()
        .filter(|r| r.meta.as_ref().is_some_and(|m| m.host == meta.host))
        .collect();
    if same_host.is_empty() {
        return format!(
            "no earlier entry was recorded on this host ({})",
            meta.host.summary()
        );
    }
    // Same host but rejected — say why, for the most recent candidate.
    let near = same_host.last().expect("non-empty");
    let mut why = Vec::new();
    if near.threads != current.threads {
        why.push(format!(
            "it ran on {} lab thread(s), this run on {} — thread-count mismatch",
            near.threads.map_or("unknown".into(), |t| t.to_string()),
            current.threads.map_or("unknown".into(), |t| t.to_string()),
        ));
    }
    if near.smoke != current.smoke {
        why.push(format!(
            "it is a {} run, this is a {} run",
            if near.smoke { "smoke" } else { "full" },
            if current.smoke { "smoke" } else { "full" }
        ));
    }
    format!(
        "{} same-host entr{} found, but the nearest ('{}') is not comparable: {}",
        same_host.len(),
        if same_host.len() == 1 { "y" } else { "ies" },
        near.label,
        why.join("; ")
    )
}

/// Gate the last entry of `runs` against the entries before it.  Pure —
/// all I/O stays in the CLI-facing `check` — so synthetic trajectories
/// can unit-test every verdict.
pub fn gate_last_run(runs: &[WallclockRun], tolerance_pct: f64) -> Result<GateOutcome, String> {
    let (current, pool) = runs
        .split_last()
        .ok_or("the wallclock report holds no runs — run `atrapos wallclock` first")?;
    let Some(baseline) = select_baseline(pool, current) else {
        return Ok(GateOutcome::NoBaseline {
            reason: no_baseline_reason(pool, current),
        });
    };
    let allowed = 1.0 + tolerance_pct / 100.0;
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for c in &current.components {
        match baseline.components.iter().find(|b| b.name == c.name) {
            Some(b) => rows.push(GateRow {
                name: c.name.clone(),
                baseline_ms: b.wall_ms,
                current_ms: c.wall_ms,
                regressed: c.wall_ms > b.wall_ms * allowed,
            }),
            None => unmatched.push(format!("{} (no baseline)", c.name)),
        }
    }
    for b in &baseline.components {
        if !current.components.iter().any(|c| c.name == b.name) {
            unmatched.push(format!("{} (gone from bundle)", b.name));
        }
    }
    rows.push(GateRow {
        name: "TOTAL".to_string(),
        baseline_ms: baseline.total_ms,
        current_ms: current.total_ms,
        regressed: current.total_ms > baseline.total_ms * allowed,
    });
    Ok(GateOutcome::Compared {
        baseline_label: baseline.label.clone(),
        rows,
        unmatched,
    })
}

/// `atrapos wallclock --check`: load the report, gate its last entry, and
/// print the verdict.  Returns `Err` — nonzero exit — on regression.
fn check(tolerance_pct: f64) -> Result<(), String> {
    let path = wallclock_path(&report_dir());
    if !std::fs::metadata(&path).is_ok_and(|m| m.is_file()) {
        return Err(format!(
            "{} not found — run `atrapos wallclock` first",
            path.display()
        ));
    }
    let report = load_report(&path)?;
    let outcome = gate_last_run(&report.runs, tolerance_pct)?;
    let current = report.runs.last().expect("gate_last_run checked");
    eprintln!(
        "checking entry '{}' ({}) against {} with tolerance {tolerance_pct}%",
        current.label,
        current
            .meta
            .as_ref()
            .map_or("no fingerprint".to_string(), |m| m.host.summary()),
        path.display()
    );
    match &outcome {
        GateOutcome::NoBaseline { reason } => {
            eprintln!("PASS (no comparable baseline): {reason}");
            eprintln!(
                "this run's entry becomes the baseline for the next same-host, \
                 same-thread-count run"
            );
            Ok(())
        }
        GateOutcome::Compared {
            baseline_label,
            rows,
            unmatched,
        } => {
            eprintln!(
                "baseline: '{}' (most recent same-host, same-threads, same-smoke entry)",
                baseline_label
            );
            eprintln!(
                "  {:<28} {:>12} {:>12} {:>8}",
                "component", "baseline ms", "current ms", "delta"
            );
            for row in rows {
                eprintln!(
                    "  {:<28} {:>12.1} {:>12.1} {:>+7.1}%{}",
                    row.name,
                    row.baseline_ms,
                    row.current_ms,
                    row.delta_pct(),
                    if row.regressed { "  REGRESSED" } else { "" }
                );
            }
            for name in unmatched {
                eprintln!("  {name:<28} {:>12} {:>12}", "-", "-");
            }
            if outcome.failed() {
                let worst = rows
                    .iter()
                    .filter(|r| r.regressed)
                    .map(|r| format!("{} {:+.1}%", r.name, r.delta_pct()))
                    .collect::<Vec<_>>()
                    .join(", ");
                Err(format!(
                    "wall-clock regression beyond {tolerance_pct}% vs baseline \
                     '{baseline_label}': {worst}"
                ))
            } else {
                eprintln!("PASS: no component beyond {tolerance_pct}% of baseline");
                Ok(())
            }
        }
    }
}
