//! Wall-clock timing of the figure bundle on the parallel lab
//! (`atrapos wallclock`).
//!
//! Times a fixed scenario bundle — the adaptive TATP figure timelines
//! (Figures 10–13), TATP and TPC-C design sweeps, and a YCSB-A Zipfian
//! sweep on the paper's 4-socket machine across all four system designs —
//! and appends the result to `reports/BENCH_wallclock.json`, one labelled
//! entry per run.
//!
//! This is a timer, not a judge.  One run per entry wanders ±30 % on a
//! shared host, so whether a change made the simulator faster or slower
//! is decided by the `benchmark/` package alone (`suite` result files
//! under `reports/trajectory/`, judged by `compare`).  What this command
//! does that the benchmark deliberately does not is run on the engine's
//! *parallel* experiment lab: the ~20 components are independent
//! deterministic simulations handed to `run_sweep` as one job list
//! (`--threads N`, default: all available cores).
//!
//! Every entry embeds a [`WallclockMeta`]: the *host* fingerprint
//! ([`HostFingerprint`]) of the machine that produced the numbers, the
//! [`RunMeta`] of the simulated sweep machine, and a source label (the git
//! revision where obtainable) — wall-clock milliseconds only mean
//! something next to entries from the same host at the same thread count.
//! Entries recorded before fingerprints existed carry `meta: null` and
//! keep loading.
//!
//! The bundle is fixed (no `ATRAPOS_PAPER` dependence) and its component
//! names are stable, so the file stays a series comparable by name.
//! `total_committed` is the total number of simulated transactions the
//! bundle commits; it is identical across runs of the same source
//! revision, across behaviour-preserving optimizations, *and across thread
//! counts* (same seed ⇒ same simulated work).

use crate::cli::{self, FlagSpec};
use crate::figures::timeline_jobs;
use crate::harness::{machine, measurement_job, Scale};
use crate::report::report_dir;
use atrapos_engine::sweep::{default_threads, run_sweep, SweepJob};
use atrapos_engine::{DesignSpec, HostFingerprint, RunMeta, Workload};
use atrapos_workloads::{Tatp, TatpConfig, Tpcc, TpccConfig, Ycsb, YcsbConfig};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

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
    /// Fingerprint of the host that produced the wall-clock numbers.
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
    /// recorded before fingerprints existed).
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
}

/// Schema tag written to new and updated report files.  v2 added the
/// optional per-entry `meta`; v1 files load unchanged (`meta` defaults to
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
        out.push(measurement_job(
            format!("{workload_name}/{}", spec.label()),
            machine(4, 10),
            spec,
            make_workload(),
            secs,
        ));
    }
}

/// Every component of the bundle as one lab job list, in the fixed
/// historical order (entries are compared by component name, so new
/// components are appended, never renamed).
fn bundle_jobs(scale: &Scale) -> Vec<SweepJob> {
    // The four adaptive-figure timelines, under both variants where the
    // figure compares them: the figures' own jobs (`fig10/static`, …).
    let mut jobs: Vec<SweepJob> = ["fig10", "fig11", "fig12", "fig13"]
        .into_iter()
        .flat_map(|id| timeline_jobs(id, scale).expect("a timeline experiment"))
        .collect();
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

const RUN_USAGE: &str = "atrapos wallclock [--label L] [--threads N] [--smoke]";

/// Entry point of `atrapos wallclock`: run the bundle and append an entry.
pub fn run(args: &[String]) -> Result<(), String> {
    let parsed = cli::parse(
        args,
        &[
            FlagSpec::switch("--smoke"),
            FlagSpec::value("--label"),
            FlagSpec::value("--threads"),
        ],
        0,
        RUN_USAGE,
    )?;
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
    let written = write_report(&dir, &report)?;
    eprintln!("wrote {}", written.display());
    Ok(())
}

/// The report path inside `dir`.
fn wallclock_path(dir: &Path) -> PathBuf {
    dir.join("BENCH_wallclock.json")
}

/// Load the report at `path`, or an empty one if the file does not exist.
/// An unreadable file is an error: never silently wipe the accumulated
/// entries.
fn load_report(path: &Path) -> Result<WallclockReport, String> {
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
        }),
    }
}

/// Write `report` into `dir`, creating the directory as needed.  Both the
/// directory creation and the write propagate failures: a smoke run whose
/// report cannot be written must fail, not "pass" having written nothing.
fn write_report(dir: &Path, report: &WallclockReport) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create report directory {}: {e}", dir.display()))?;
    let path = wallclock_path(dir);
    std::fs::write(&path, serde::json::to_string_pretty(report))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_meta;

    fn meta() -> WallclockMeta {
        WallclockMeta {
            host: HostFingerprint {
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                cpu_model: "cpu-a".to_string(),
                cpus: 8,
            },
            lab: run_meta(4, 10),
            source: "test".to_string(),
        }
    }

    /// A one-entry report whose single component took `wall_ms`.
    fn report(threads: usize, wall_ms: f64) -> WallclockReport {
        WallclockReport {
            schema: SCHEMA.to_string(),
            runs: vec![WallclockRun {
                label: "entry".to_string(),
                unix_secs: 1_000_000,
                smoke: false,
                threads: Some(threads),
                meta: Some(meta()),
                components: vec![ComponentTiming {
                    name: "fig10/atrapos".to_string(),
                    wall_ms,
                    committed: 42,
                }],
                total_ms: wall_ms,
                total_committed: 42,
            }],
        }
    }

    /// The committed `reports/BENCH_wallclock.json`.
    fn committed_report() -> WallclockReport {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")) // crates/bench
            .join("../../reports/BENCH_wallclock.json");
        load_report(&path).unwrap()
    }

    #[test]
    fn report_round_trips_through_serde_with_meta() {
        let report = report(2, 123.5);
        let text = serde::json::to_string_pretty(&report);
        for key in [
            "\"meta\"",
            "\"host\"",
            "\"cpu_model\"",
            "\"source\"",
            "\"threads\"",
        ] {
            assert!(text.contains(key), "serialized report lacks {key}");
        }
        let back: WallclockReport = serde::json::from_str(&text).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert_eq!(back.runs.len(), 1);
        let r = &back.runs[0];
        assert_eq!(r.meta, report.runs[0].meta);
        assert_eq!(r.threads, Some(2));
        assert_eq!(r.components[0].name, "fig10/atrapos");
        assert!((r.components[0].wall_ms - 123.5).abs() < 1e-9);
    }

    #[test]
    fn entries_without_meta_still_load() {
        // The oldest committed entries carry no `meta` key and no
        // `threads`; they must deserialize with `None` in both.
        let text = r#"{
            "schema": "atrapos-wallclock-v1",
            "runs": [{
                "label": "pre-refactor",
                "unix_secs": 1754000000,
                "smoke": false,
                "components": [{"name": "fig10/static", "wall_ms": 6500.0, "committed": 2536187}],
                "total_ms": 6500.0,
                "total_committed": 2536187
            }]
        }"#;
        let report: WallclockReport = serde::json::from_str(text).unwrap();
        let r = &report.runs[0];
        assert_eq!(r.meta, None);
        assert_eq!(r.threads, None);
        assert_eq!(r.label, "pre-refactor");
    }

    #[test]
    fn write_report_propagates_filesystem_errors() {
        // A regular file where the report *directory* should be: both the
        // directory creation and the write beneath it must surface as Err,
        // not an eprintln-and-pass.
        let clash = std::env::temp_dir().join("atrapos_wallclock_test_dir_clash");
        std::fs::write(&clash, b"not a directory").unwrap();
        let err = write_report(&clash, &report(1, 1.0)).expect_err("writing into a file must fail");
        assert!(
            err.contains("atrapos_wallclock_test_dir_clash"),
            "got: {err}"
        );
        std::fs::remove_file(&clash).unwrap();
    }

    #[test]
    fn write_report_writes_loadable_json() {
        let dir = std::env::temp_dir().join("atrapos_wallclock_test_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let report = report(1, 1.0);
        let path = write_report(&dir, &report).unwrap();
        assert_eq!(path, wallclock_path(&dir));
        let back = load_report(&path).unwrap();
        assert_eq!(back.runs.len(), 1);
        assert_eq!(back.runs[0].meta, report.runs[0].meta);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_report_rejects_corrupt_files() {
        let dir = std::env::temp_dir().join("atrapos_wallclock_test_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = wallclock_path(&dir);
        std::fs::write(&path, b"{ not json").unwrap();
        let err = load_report(&path).expect_err("corrupt file must error");
        assert!(err.contains("unreadable"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
        // An absent file, by contrast, is an empty report.
        assert!(load_report(&path).unwrap().runs.is_empty());
    }

    /// The strict argument parser: every malformed invocation must be
    /// rejected with a usage message, not silently ignored.
    #[test]
    fn malformed_wallclock_flags_are_rejected() {
        let reject = |args: &[&str], needle: &str| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = run(&args).expect_err("must reject");
            assert!(
                err.contains(needle),
                "args {args:?}: expected '{needle}' in: {err}"
            );
            assert!(err.contains("USAGE"), "args {args:?}: no usage in: {err}");
        };
        reject(&["--smok"], "unknown flag '--smok'");
        reject(&["--thread", "4"], "unknown flag '--thread'");
        reject(&["--label"], "flag '--label' needs a value");
        reject(&["--label", "--smoke"], "flag '--label' needs a value");
        // The gate's two flags went with the gate.
        for gone in ["check", "tolerance"] {
            let flag = format!("--{gone}");
            reject(&[&flag, "5"], &format!("unknown flag '{flag}'"));
        }
        reject(&["--threads", "0"], "--threads needs a positive integer");
        reject(&["--smoke", "--smoke"], "given more than once");
        reject(&["extra"], "unexpected argument 'extra'");
    }

    #[test]
    fn the_committed_trajectory_still_loads() {
        // Its top-level ratio field, which new files no longer carry, is
        // skipped like any unknown key.
        let report = committed_report();
        assert!(
            report.runs.len() >= 7,
            "committed trajectory lost entries ({})",
            report.runs.len()
        );
        assert_eq!(
            report.runs[0].meta, None,
            "the oldest entries stay meta-less"
        );
        assert!(report.runs.last().unwrap().meta.is_some());
    }

    #[test]
    fn bundle_names_are_unique_and_match_the_newest_committed_full_entry() {
        let names: Vec<String> = bundle_jobs(&bundle_scale(true))
            .into_iter()
            .map(|j| j.name)
            .collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate component name");
        let committed = committed_report();
        let newest_full = committed.runs.iter().rev().find(|r| !r.smoke).unwrap();
        let recorded: Vec<&str> = newest_full
            .components
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, recorded, "the bundle no longer matches the series");
    }
}
