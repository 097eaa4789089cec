//! The `atrapos workload` subcommand: validate declarative workload
//! specs.
//!
//! `atrapos workload check <spec.json>...` parses and validates each file,
//! prints a one-line summary per spec, and exits nonzero if any is
//! rejected (the typed [`SpecError`](atrapos_workloads::SpecError) prints
//! as the reason).  CI runs this over every shipped
//! `examples/specs/*.json`.  To *run* a spec across the designs, use
//! `atrapos sweep --workload spec:<file.json>`.

use crate::cli;
use crate::figures::load_spec;
use atrapos_workloads::spec::WorkloadSpec;
use std::path::Path;

/// Usage string for the subcommand.
pub const USAGE: &str = "atrapos workload check <spec.json>...";

/// Dispatch `atrapos workload check ...`.
pub fn cmd(args: &[String]) -> Result<(), String> {
    match args.split_first() {
        Some((sub, rest)) if sub == "check" => cmd_check(rest),
        Some((sub, _)) => Err(format!(
            "unknown workload subcommand '{sub}'\n\nUSAGE: {USAGE}"
        )),
        None => Err(format!("usage: {USAGE}")),
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
            // The error names the file already.
            Err(e) => {
                eprintln!("FAIL {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} spec file(s) failed validation"));
    }
    Ok(())
}

/// Load and validate one spec file; an error starts with the path.
fn checked_spec(path: &Path) -> Result<WorkloadSpec, String> {
    let spec = load_spec(path)?;
    spec.validate()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_is_no_longer_a_subcommand() {
        let args = ["run".to_string(), "examples/specs/ycsb_a.json".to_string()];
        let err = cmd(&args).unwrap_err();
        assert!(err.contains("unknown workload subcommand 'run'"), "{err}");
    }
}
