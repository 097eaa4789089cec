//! The declarative-workload experiment (`spec01`) — workloads the paper
//! never had, expressed purely as data.
//!
//! Every row is a shipped `examples/specs/*.json` file compiled by
//! [`WorkloadSpec::compile`] — the engine that also runs YCSB and
//! SimpleAb — then run across the four YCSB-family designs on the 4×4
//! machine:
//!
//! * **secondary-index** — Zipfian point lookups through an index table
//!   into a base table, mixed with index-maintenance updates that touch
//!   both tables across a sync point.  The foreign key lets the
//!   partitioning advisor co-locate index and base partitions.
//! * **scan-write** — hotspot range scans racing tail inserts and
//!   uniform single-row updates: the scan/write interference pattern.
//! * **multi-tenant** — four small per-tenant tables with a heavily
//!   skewed tenant mix (55/25/15/5), each tenant hammering its own 20%
//!   hot set.
//!
//! The same loaders back `atrapos workload check` and
//! `atrapos sweep --workload spec:<file>`.

use super::ycsb::{ycsb_designs, DESIGN_LABELS};
use crate::harness::{grid, labelled, run_meta, timeline_job, Scale};
use crate::report::FigureResult;
use atrapos_engine::scenario::Scenario;
use atrapos_workloads::spec::WorkloadSpec;
use std::path::{Path, PathBuf};

/// The shipped spec-only workload files behind `spec01`, in row order.
pub const SPEC01_FILES: &[&str] = &[
    "secondary_index.json",
    "scan_write.json",
    "multi_tenant.json",
];

/// The shipped spec directory: `examples/specs/` under the current
/// directory when run from the workspace root, else resolved relative to
/// this crate (tests and benches run from `crates/bench`).
pub fn shipped_specs_dir() -> PathBuf {
    let local = Path::new("examples/specs");
    if local.is_dir() {
        return local.to_path_buf();
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs")
}

/// Load a spec file (parse only — callers validate or compile next).
pub fn load_spec(path: &Path) -> Result<WorkloadSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    WorkloadSpec::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load one shipped `examples/specs/` file by name.
pub fn shipped_spec(file: &str) -> Result<WorkloadSpec, String> {
    load_spec(&shipped_specs_dir().join(file))
}

/// spec01: throughput of the three spec-only workloads across the four
/// designs.
pub fn spec01_declarative_workloads(scale: &Scale) -> FigureResult {
    let mut header = vec!["workload"];
    header.extend(DESIGN_LABELS);
    let mut fig = FigureResult::new(
        "spec01",
        "Declarative spec-only workloads across the designs (KTPS)",
        header,
    );
    let specs: Vec<WorkloadSpec> = SPEC01_FILES
        .iter()
        .map(|file| shipped_spec(file).unwrap_or_else(|e| panic!("shipped spec {file}: {e}")))
        .collect();
    let scenario = Scenario::new("spec01-declarative", scale.measure_secs);
    grid(
        &mut fig,
        &specs,
        &ycsb_designs(scale),
        |spec, (label, design)| {
            let workload = spec
                .compile()
                .unwrap_or_else(|e| panic!("shipped spec {} does not compile: {e}", spec.name));
            timeline_job(
                format!("{}/{label}", spec.name),
                scale,
                design.clone(),
                Box::new(workload),
                &scenario,
            )
        },
        |spec, measured| labelled(&spec.name, measured.iter().map(|s| s.throughput_tps / 1e3)),
    );
    fig.note(
        "workloads defined entirely in examples/specs/*.json and compiled onto the \
         hand-rolled generators' sampler + buffer-reuse hot path; no Rust per workload",
    );
    fig.note(
        "expected shape: the partition-friendly specs (secondary-index with its \
         co-locatable foreign key, multi-tenant with disjoint per-tenant tables) reward \
         the partitioned designs, and ATraPos stays at or above PLP on every row",
    );
    fig.set_meta(run_meta(4, 4));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_specs_parse_validate_and_compile() {
        for file in SPEC01_FILES {
            let spec = shipped_spec(file).unwrap();
            spec.compile().unwrap_or_else(|e| panic!("{file}: {e}"));
        }
    }

    #[test]
    fn parity_spec_files_match_their_constructors_byte_for_byte() {
        // `ycsb_a.json` and `simple_ab.json` are generated from the
        // in-crate workloads (`cargo run -p atrapos-workloads --example
        // regen_shipped_specs`); a drifted file would silently decouple
        // what the CLI and CI smoke-run from what the digest tests pin.
        let mut ycsb_a = atrapos_workloads::YcsbConfig::workload_a(25_000).spec();
        ycsb_a.name = "ycsb-a-spec".to_string();
        ycsb_a.templates.retain(|t| t.weight > 0.0);
        for (file, spec) in [
            ("ycsb_a.json", ycsb_a),
            ("simple_ab.json", atrapos_workloads::spec::simple_ab(10_000)),
        ] {
            let path = shipped_specs_dir().join(file);
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(
                text,
                spec.to_json() + "\n",
                "{file} drifted from its constructor; regenerate with \
                 `cargo run -p atrapos-workloads --example regen_shipped_specs`"
            );
        }
    }

    #[test]
    fn spec01_runs_at_tiny_scale() {
        let scale = Scale {
            ycsb_records: 4_000,
            measure_secs: 0.002,
            phase_secs: 0.004,
            interval_min_secs: 0.002,
            interval_max_secs: 0.008,
            ..Scale::quick()
        };
        let fig = spec01_declarative_workloads(&scale);
        assert_eq!(fig.rows.len(), SPEC01_FILES.len());
        for row in &fig.rows {
            for cell in &row[1..] {
                assert!(cell.parse::<f64>().unwrap() > 0.0, "empty cell in {row:?}");
            }
        }
    }
}
