//! The `atrapos workload` subcommand: validate and run declarative
//! workload specs.
//!
//! * `atrapos workload check <spec.json>...` — parse and validate each
//!   file, print a one-line summary per spec, and exit nonzero if any is
//!   rejected (the typed [`SpecError`](atrapos_workloads::SpecError)
//!   prints as the reason).  CI runs
//!   this over every shipped `examples/specs/*.json`.
//! * `atrapos workload run <spec.json> [--secs S] [--threads N]` —
//!   compile the spec and run it across the four YCSB-family designs on
//!   the 4×4 machine, printing per-design committed/aborted counts and
//!   throughput.

use crate::cli::{self, FlagSpec};
use crate::figures::{load_spec, spec_job, ycsb_designs};
use crate::harness::Scale;
use atrapos_engine::scenario::{Scenario, ScenarioOutcome};
use atrapos_engine::sweep::{default_threads, run_sweep, SweepJob};
use atrapos_workloads::spec::{CompiledWorkload, WorkloadSpec};
use std::path::Path;

/// Usage string for the subcommand family.
pub const USAGE: &str = "atrapos workload check <spec.json>... | \
     atrapos workload run <spec.json> [--secs S] [--threads N]";

/// Dispatch `atrapos workload <check|run> ...`.
pub fn cmd(args: &[String]) -> Result<(), String> {
    match args.split_first() {
        Some((sub, rest)) if sub == "check" => cmd_check(rest),
        Some((sub, rest)) if sub == "run" => cmd_run(rest),
        _ => Err(format!("usage: {USAGE}")),
    }
}

/// `atrapos workload check <spec.json>...`
fn cmd_check(args: &[String]) -> Result<(), String> {
    let parsed = cli::parse(args, &[], usize::MAX, USAGE)?;
    if parsed.positionals().is_empty() {
        return Err(format!("usage: {USAGE}"));
    }
    let mut failures = 0usize;
    for path in parsed.positionals() {
        match checked_spec(Path::new(path)) {
            Ok(spec) => {
                let rows: i64 = spec.tables.iter().map(|t| t.keys * t.sub_rows).sum();
                println!(
                    "OK {path}: workload '{}' — {} table(s), {rows} rows, {} template(s): {}",
                    spec.name,
                    spec.tables.len(),
                    spec.templates.len(),
                    spec.templates
                        .iter()
                        .map(|t| format!("{} ({})", t.name, t.weight))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
            Err(e) => {
                eprintln!("FAIL {path}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} spec file(s) failed validation"));
    }
    Ok(())
}

/// Load and validate one spec file.
fn checked_spec(path: &Path) -> Result<WorkloadSpec, String> {
    let spec = load_spec(path)?;
    spec.validate()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(spec)
}

/// `atrapos workload run <spec.json> [--secs S] [--threads N]`
fn cmd_run(args: &[String]) -> Result<(), String> {
    let parsed = cli::parse(
        args,
        &[FlagSpec::value("--secs"), FlagSpec::value("--threads")],
        1,
        USAGE,
    )?;
    let path = parsed
        .positionals()
        .first()
        .ok_or_else(|| format!("usage: {USAGE}"))?;
    let scale = Scale::from_env();
    let secs: f64 = match parsed.value("--secs") {
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or("--secs needs a positive duration in simulated seconds")?,
        None => scale.measure_secs,
    };
    let threads = match parsed.value("--threads") {
        Some(t) => t
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--threads needs a positive thread count")?,
        None => default_threads(),
    };
    let workload = load_spec(Path::new(path))?
        .compile()
        .map_err(|e| format!("{path}: {e}"))?;

    let outcomes = run_designs(&workload, &scale, secs, threads);
    println!(
        "workload '{}' ({path}) — {} designs × {secs} simulated s",
        workload.spec().name,
        outcomes.len()
    );
    println!(
        "  {:<16} {:>10} {:>8} {:>10}",
        "design", "committed", "aborted", "KTPS"
    );
    for (label, outcome) in &outcomes {
        let stats = &outcome.segments[0].stats;
        println!(
            "  {:<16} {:>10} {:>8} {:>10.1}",
            label,
            stats.committed,
            stats.aborted,
            stats.throughput_tps / 1e3
        );
    }
    Ok(())
}

/// Run one instance of the workload per design and return `(label,
/// outcome)` in design order.
fn run_designs(
    workload: &CompiledWorkload,
    scale: &Scale,
    secs: f64,
    threads: usize,
) -> Vec<(&'static str, ScenarioOutcome)> {
    let designs = ycsb_designs(scale);
    let scenario = Scenario::new("workload-run", secs);
    let jobs: Vec<SweepJob> = designs
        .iter()
        .map(|(label, design)| {
            spec_job(
                format!("{}/{label}", workload.spec().name),
                scale,
                workload.clone(),
                design.clone(),
                &scenario,
            )
        })
        .collect();
    designs
        .iter()
        .zip(run_sweep(jobs, threads))
        .map(|((label, _), r)| {
            let outcome = r
                .outcome
                .unwrap_or_else(|e| panic!("workload job '{}' failed: {e}", r.name));
            (*label, outcome)
        })
        .collect()
}
