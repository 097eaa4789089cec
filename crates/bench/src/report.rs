//! Report output glue: where JSON artifacts go, and re-exports of the
//! result model from `atrapos-report`.
//!
//! The result types themselves ([`FigureResult`], [`FiguresFile`]) live in
//! `atrapos-report` so the report generator can consume recorded results
//! without depending on the harness; this module only decides *where* the
//! harness writes them.

use atrapos_engine::{RunMeta, ScenarioOutcome};
pub use atrapos_report::{fmt, FigureResult, FiguresFile};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The workspace this binary was built from: two levels above the crate's
/// manifest, so report paths do not depend on the current directory.
pub fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// Directory the JSON reports go to (`ATRAPOS_REPORT_DIR` overrides;
/// default `reports/` at the workspace root).
pub fn report_dir() -> PathBuf {
    report_dir_or(std::env::var_os("ATRAPOS_REPORT_DIR"))
}

fn report_dir_or(overridden: Option<std::ffi::OsString>) -> PathBuf {
    overridden.map_or_else(|| workspace_root().join("reports"), PathBuf::from)
}

/// Path of the accumulated figure-result store,
/// `reports/BENCH_figures.json`.
pub fn figures_path() -> PathBuf {
    report_dir().join("BENCH_figures.json")
}

/// Load the figure-result store, or an empty one if the file does not
/// exist yet.  An unparseable file is an error — never silently wipe
/// accumulated results.
pub fn load_figures() -> Result<FiguresFile, String> {
    let path = figures_path();
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            FiguresFile::from_json(&text).map_err(|e| format!("unreadable {}: {e}", path.display()))
        }
        Err(_) => Ok(FiguresFile::new()),
    }
}

/// Write the figure-result store back to `reports/BENCH_figures.json`.
pub fn save_figures(file: &FiguresFile) -> Result<PathBuf, String> {
    let dir = report_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = figures_path();
    std::fs::write(&path, file.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// A segment-report file: the scenario outcomes of one experiment plus the
/// provenance of the run that produced them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentsFile {
    /// Provenance: machine spec, seed, lab threads.
    pub meta: RunMeta,
    /// One outcome per design variant the experiment ran.
    pub outcomes: Vec<ScenarioOutcome>,
}

/// Write the per-segment statistics of one experiment's scenario runs as
/// JSON next to the figure store (`reports/BENCH_<id>_segments.json`).
/// Best-effort: a read-only working directory only loses the JSON copy,
/// never the run.
pub fn write_scenario_json(
    id: &str,
    meta: RunMeta,
    outcomes: Vec<ScenarioOutcome>,
) -> Option<PathBuf> {
    let dir = report_dir();
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("BENCH_{id}_segments.json"));
    let body = serde::json::to_string_pretty(&SegmentsFile { meta, outcomes });
    std::fs::write(&path, body).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_report_dir_is_the_workspace_one_whatever_the_current_directory() {
        // Nothing here reads the current directory: the default is absolute.
        let dir = report_dir_or(None);
        assert!(dir.is_absolute(), "{}", dir.display());
        assert_eq!(dir, workspace_root().join("reports"));
        let manifest = std::fs::read_to_string(workspace_root().join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"));
        assert_eq!(report_dir_or(Some("out".into())), PathBuf::from("out"));
    }
}
