//! The repo's benchmark (see `README.md` beside this package and
//! `BENCHMARK.json` at the repo root).
//!
//! ```text
//! atrapos-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! atrapos-benchmark suite [--seed N] [--smoke] [--out FILE]
//! atrapos-benchmark compare <a.json> <b.json>
//! ```

mod jobs;
mod layers;
mod measure;
mod metrics;
mod ops;
mod run;
mod stats;
mod suite;
mod trace;

use jobs::{WorkloadId, WORKLOADS};
use metrics::END_TO_END;
use run::{run_workload, Detail, RunOptions};
use serde::Value;
use stats::Quartiles;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  atrapos-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--reps N] [--detail FILE]
  atrapos-benchmark suite [--seed N] [--smoke] [--out FILE]
  atrapos-benchmark compare <a.json> <b.json>
workloads: tatp-mix tpcc-mix ycsb-zipf scaleup-micro adaptive-shift serve-openloop";

/// `--flag value` pairs and bare switches, in any order.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        match self.args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) if i + 1 < self.args.len() => {
                let v = self.args.remove(i + 1);
                self.args.remove(i);
                Ok(Some(v))
            }
            Some(_) => Err(format!("{flag} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read '{v}'")))
            .transpose()
    }

    fn switch(&mut self, flag: &str) -> bool {
        match self.args.iter().position(|a| a == flag) {
            Some(i) => {
                self.args.remove(i);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.args.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown flag {unknown}")),
            None => Ok(self.args),
        }
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: Vec<String>) -> Result<bool, String> {
    let mut flags = Flags { args };
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(42);
    let smoke = flags.switch("--smoke");
    match flags.args.first().map(String::as_str) {
        Some("suite") => {
            let out = flags.value("--out")?.map(PathBuf::from);
            let rest = flags.finish()?;
            if rest.len() != 1 {
                return Err("suite takes no positional arguments".into());
            }
            suite::run_suite(seed, smoke, out)
        }
        Some("compare") => {
            let rest = flags.finish()?;
            match rest.as_slice() {
                [_, a, b] => suite::compare(a.as_ref(), b.as_ref()),
                _ => Err("compare takes two result files".into()),
            }
        }
        _ => {
            let name = flags
                .value("--workload")?
                .ok_or("no --workload given (or use `suite` for all six)")?;
            let workload = WorkloadId::from_name(&name).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (known: {})", known.join(" "))
            })?;
            let trace = match flags.value("--trace")?.as_deref() {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, got '{other}'")),
            };
            let opts = RunOptions {
                workload,
                seed,
                seconds: flags
                    .parsed("--seconds")?
                    .unwrap_or(if smoke { 0.0 } else { 10.0 }),
                trace,
                smoke,
                reps: flags.parsed("--reps")?,
            };
            let detail_path = flags.value("--detail")?.map(PathBuf::from);
            if !flags.finish()?.is_empty() {
                return Err("unexpected positional argument".into());
            }
            if !(opts.seconds.is_finite() && (0.0..=600.0).contains(&opts.seconds)) {
                return Err(format!("--seconds {} is out of range", opts.seconds));
            }
            let detail = run_workload(&opts)?;
            if let Some(path) = detail_path {
                run::write_file(&path, &serde::json::to_string_pretty(&detail))?;
            }
            print_detail(&detail, trace);
            println!(
                "{}",
                serde::json::to_string(&ResultLine {
                    detail: &detail,
                    trace
                })
            );
            Ok(detail.correct())
        }
    }
}

/// The metrics of one run as (name, value, unit), end-to-end or per-layer.
fn reported(detail: &Detail, trace: bool) -> Vec<(String, f64, String)> {
    if trace {
        return detail.per_layer.clone();
    }
    detail
        .end_to_end
        .iter()
        .zip(&END_TO_END)
        .map(|((name, samples), def)| {
            (
                name.clone(),
                Quartiles::of(samples).median,
                def.unit.to_string(),
            )
        })
        .collect()
}

/// The one-line JSON object the driver reads.  Metric names are object
/// keys, which no derived type can express, so the value tree is built by
/// hand.
struct ResultLine<'a> {
    detail: &'a Detail,
    trace: bool,
}

impl serde::ser::Serialize for ResultLine<'_> {
    fn to_value(&self) -> Value {
        let detail = self.detail;
        let metrics = reported(detail, self.trace)
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name,
                    Value::Object(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::Str(unit)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(detail.correct())),
            ("attempted".into(), detail.attempted.to_value()),
            ("failed".into(), detail.failed.to_value()),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

fn print_detail(d: &Detail, trace: bool) {
    println!(
        "{}: seed {}{}, {} untraced repetitions, ops {}, failed {} (simulated: aborted {} rejected {} per repetition), sim_digest {}",
        d.workload,
        d.seed,
        if d.smoke { " (smoke scale)" } else { "" },
        d.reps,
        d.attempted,
        d.failed,
        d.aborted,
        d.rejected,
        d.sim_digest
    );
    for e in &d.errors {
        println!("check failed: {e}");
    }
    for (name, samples) in d.end_to_end.iter().filter(|(_, s)| s.len() > 1) {
        let q = Quartiles::of(samples);
        println!(
            "  {name:<26} median {:.4} q1 {:.4} q3 {:.4} n {} spread {:.2}%",
            q.median,
            q.q1,
            q.q3,
            q.n,
            100.0 * q.spread()
        );
    }
    for (name, value, unit) in reported(d, trace) {
        println!("  {name:<64} {value:>16.4} {unit}");
    }
}
