//! One function per experiment, and the id → runner table that matches
//! the report's catalogue (`atrapos_report::CATALOGUE`).

pub mod ablation;
pub mod adaptive;
pub mod motivation;
pub mod overload;
pub mod partitioning;
pub mod specs;
pub mod standard;
pub mod ycsb;

use crate::harness::{run, Scale};
use crate::report::FigureResult;
use atrapos_engine::sweep::SweepJob;
use atrapos_engine::ScenarioOutcome;

pub use ablation::{
    abl01_uniform_interconnect, abl02_oversubscription, abl03_sub_partition_granularity,
    abl04_sharding_advisor,
};
pub use adaptive::{
    fig09_repartitioning, fig10_adapt_workload, fig10_scenario, fig11_adapt_skew, fig11_scenario,
    fig12_adapt_hardware, fig12_scenario, fig13_adapt_frequency, fig13_scenario,
    tatp_timeline_jobs,
};
pub use motivation::{
    fig01_ipc, fig02_scaleup, fig03_multisite, fig04_breakdown, fig05_atrapos_scaleup,
    tab01_memory_policy,
};
pub use overload::{
    overload01_jobs, overload01_load_sweep, overload02_burst_recovery, overload02_jobs,
    overload02_scenario, OVERLOAD_MULTIPLIERS,
};
pub use partitioning::{fig06_placement, fig07_neworder_flowgraph};
pub use specs::{
    load_spec, shipped_spec, shipped_specs_dir, spec01_declarative_workloads, SPEC01_FILES,
};
pub use standard::{fig08_standard_benchmarks, tab02_monitoring_overhead};
pub use ycsb::{
    ycsb01_skew_sweep, ycsb02_drifting_hotspot, ycsb02_jobs, ycsb02_scenario, ycsb02_workload,
    ycsb_designs,
};

/// How an experiment produces its table.
#[derive(Clone, Copy)]
pub enum Runner {
    /// Runs its own measurements and returns the table.
    Table(fn(&Scale) -> FigureResult),
    /// A list of lab jobs whose outcomes are folded into the table and
    /// also recorded per segment (`reports/BENCH_<id>_segments.json`).
    Timeline {
        /// The lab jobs, after any calibration stage.
        jobs: fn(&Scale) -> Vec<SweepJob>,
        /// Outcomes (in job order) → table.
        fold: fn(&Scale, &[ScenarioOutcome]) -> FigureResult,
    },
}

/// Every experiment's runner, in catalogue order.
#[rustfmt::skip] // one row per experiment
pub const RUNNERS: &[(&str, Runner)] = &[
    ("fig01", Runner::Table(fig01_ipc)),
    ("fig02", Runner::Table(fig02_scaleup)),
    ("fig03", Runner::Table(fig03_multisite)),
    ("fig04", Runner::Table(fig04_breakdown)),
    ("tab01", Runner::Table(tab01_memory_policy)),
    ("fig05", Runner::Table(fig05_atrapos_scaleup)),
    ("fig06", Runner::Table(fig06_placement)),
    ("fig07", Runner::Table(fig07_neworder_flowgraph)),
    ("fig08", Runner::Table(fig08_standard_benchmarks)),
    ("tab02", Runner::Table(tab02_monitoring_overhead)),
    ("fig09", Runner::Table(fig09_repartitioning)),
    ("fig10", Runner::Timeline { jobs: |s| tatp_timeline_jobs("fig10", s), fold: fig10_adapt_workload }),
    ("fig11", Runner::Timeline { jobs: |s| tatp_timeline_jobs("fig11", s), fold: fig11_adapt_skew }),
    ("fig12", Runner::Timeline { jobs: |s| tatp_timeline_jobs("fig12", s), fold: fig12_adapt_hardware }),
    ("fig13", Runner::Timeline { jobs: |s| tatp_timeline_jobs("fig13", s), fold: fig13_adapt_frequency }),
    ("abl01", Runner::Table(abl01_uniform_interconnect)),
    ("abl02", Runner::Table(abl02_oversubscription)),
    ("abl03", Runner::Table(abl03_sub_partition_granularity)),
    ("abl04", Runner::Table(abl04_sharding_advisor)),
    ("ycsb01", Runner::Table(ycsb01_skew_sweep)),
    ("ycsb02", Runner::Timeline { jobs: ycsb02_jobs, fold: ycsb02_drifting_hotspot }),
    ("overload01", Runner::Timeline { jobs: overload01_jobs, fold: overload01_load_sweep }),
    ("overload02", Runner::Timeline { jobs: overload02_jobs, fold: overload02_burst_recovery }),
    ("spec01", Runner::Table(spec01_declarative_workloads)),
];

/// Run one experiment by id.  Timeline experiments also return the
/// scenario outcomes their rows were read from (empty for the others);
/// nothing here touches the file system — `atrapos figures` owns the
/// writes.
pub fn run_by_id(id: &str, scale: &Scale) -> Option<(FigureResult, Vec<ScenarioOutcome>)> {
    let (_, runner) = RUNNERS.iter().find(|(k, _)| *k == id)?;
    Some(match *runner {
        Runner::Table(table) => (table(scale), Vec::new()),
        Runner::Timeline { jobs, fold } => {
            let outcomes = run(jobs(scale));
            (fold(scale, &outcomes), outcomes)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::workspace_root;
    use atrapos_report::{FiguresFile, CATALOGUE};

    /// FNV-1a over a byte stream.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The golden line of one experiment: id, row count, the digest of the
    /// rows (every cell followed by a tab), for a timeline experiment the
    /// digest of its serialized outcomes, and the header.
    fn golden_line(fig: &FigureResult, outcomes: &[ScenarioOutcome]) -> String {
        let rows = fnv1a(
            fig.rows
                .iter()
                .flat_map(|row| row.iter().flat_map(|cell| cell.bytes().chain([b'\t']))),
        );
        let outcomes = match outcomes {
            [] => String::new(),
            _ => format!(
                " outcomes={:016x}",
                fnv1a(
                    outcomes
                        .iter()
                        .flat_map(|o| serde::json::to_string(o).into_bytes())
                )
            ),
        };
        format!(
            "{} rows={} digest={rows:016x}{outcomes} header={}",
            fig.id,
            fig.rows.len(),
            fig.header.join("|")
        )
    }

    /// The one determinism net over the whole catalogue: every experiment
    /// of [`RUNNERS`] runs at the tiny scale and must reproduce its line of
    /// `tests/goldens/catalogue.txt` — one line per id, no more, no fewer.
    /// The simulator is deterministic at any lab thread count, so a changed
    /// line means changed simulated behaviour.  A mismatching experiment's
    /// rows and outcomes go to `target/golden-diff/<id>.json`, for diffing
    /// against the same file from another checkout; regenerate on purpose
    /// with `UPDATE_GOLDENS=1`.
    #[test]
    fn catalogue() {
        let root = workspace_root();
        let path = root.join("tests/goldens/catalogue.txt");
        let runs: Vec<(&str, FigureResult, Vec<ScenarioOutcome>)> = RUNNERS
            .iter()
            .map(|(id, _)| {
                let (fig, outcomes) = run_by_id(id, &Scale::tiny()).expect("a runner id");
                assert_eq!(fig.id, *id);
                (*id, fig, outcomes)
            })
            .collect();
        let lines: Vec<String> = runs
            .iter()
            .map(|(_, fig, outcomes)| golden_line(fig, outcomes))
            .collect();
        if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
            std::fs::write(&path, lines.join("\n") + "\n").expect("write golden");
            return;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        let regenerate = "if intended, regenerate with \
                          UPDATE_GOLDENS=1 cargo test -p atrapos-bench --lib catalogue";
        let diff_dir = root.join("target/golden-diff");
        let mut failed: Vec<&str> = Vec::new();
        for ((id, fig, outcomes), line) in runs.iter().zip(&lines) {
            if !want.lines().any(|l| l == line) {
                failed.push(id);
                std::fs::create_dir_all(&diff_dir).expect("create the diff directory");
                let body = format!(
                    "{{\"figure\": {}, \"outcomes\": {}}}\n",
                    serde::json::to_string_pretty(fig),
                    serde::json::to_string_pretty(outcomes)
                );
                std::fs::write(diff_dir.join(format!("{id}.json")), body).expect("write diff");
            }
        }
        assert!(
            failed.is_empty(),
            "experiments diverged from tests/goldens/catalogue.txt: {failed:?} (rows and \
             outcomes in {}); {regenerate}",
            diff_dir.display()
        );
        let pinned: Vec<&str> = want
            .lines()
            .map(|l| l.split(' ').next().unwrap_or(""))
            .collect();
        let runnable: Vec<&str> = runs.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(
            pinned, runnable,
            "tests/goldens/catalogue.txt needs exactly one line per runner, in order; {regenerate}"
        );
    }

    #[test]
    fn runners_and_catalogue_agree() {
        let catalogued: Vec<&str> = CATALOGUE.iter().map(|e| e.id).collect();
        let runnable: Vec<&str> = RUNNERS.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            runnable, catalogued,
            "every catalogue id needs a runner, in order"
        );
        // Recording results in any order yields the catalogue order, with
        // spec01 in its place.
        let mut file = FiguresFile::new();
        for id in runnable.iter().rev() {
            file.upsert(FigureResult::new(*id, "t", vec!["x"]));
        }
        let recorded: Vec<&str> = file.figures.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(recorded, catalogued);
        // Every runnable experiment is recorded: an experiment with a
        // runner but no committed rows goes unwatched by the report.
        let committed =
            std::fs::read_to_string(workspace_root().join("reports/BENCH_figures.json"))
                .expect("the committed figure store");
        let committed = FiguresFile::from_json(&committed).expect("a parseable figure store");
        let recorded: Vec<&str> = committed.figures.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(
            recorded, catalogued,
            "reports/BENCH_figures.json must record every catalogue id, in order"
        );
    }
}
