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

/// The runner of experiment `id`.
fn runner(id: &str) -> Option<Runner> {
    RUNNERS.iter().find(|(k, _)| *k == id).map(|(_, r)| *r)
}

/// Run one experiment by id.  Timeline experiments also return the
/// scenario outcomes their rows were read from (empty for the others);
/// nothing here touches the file system — `atrapos figures` owns the
/// writes.
pub fn run_by_id(id: &str, scale: &Scale) -> Option<(FigureResult, Vec<ScenarioOutcome>)> {
    Some(match runner(id)? {
        Runner::Table(table) => (table(scale), Vec::new()),
        Runner::Timeline { jobs, fold } => {
            let outcomes = run(jobs(scale));
            (fold(scale, &outcomes), outcomes)
        }
    })
}

/// The lab jobs of timeline experiment `id` (`None` for table experiments
/// and unknown ids) — for callers that time or pin the runs themselves.
pub fn timeline_jobs(id: &str, scale: &Scale) -> Option<Vec<SweepJob>> {
    match runner(id)? {
        Runner::Table(_) => None,
        Runner::Timeline { jobs, .. } => Some(jobs(scale)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_report::{FiguresFile, CATALOGUE};
    use std::path::Path;

    /// The experiments no other net runs: §III's motivation figures, the
    /// placement comparison, the flow graph and the repartitioning cost.
    /// Each runs through the runner table at the tiny scale and its table
    /// is pinned — header, row count, FNV-1a digest of the rows — by one
    /// line of `tests/goldens/paper_tables.txt`.  The simulator is
    /// deterministic, so a changed line means changed simulated behaviour;
    /// regenerate on purpose with `UPDATE_GOLDENS=1`.
    #[test]
    fn unwatched_paper_experiments_match_their_golden_lines() {
        let ids = [
            "fig01", "fig02", "fig03", "fig04", "tab01", "fig05", "fig06", "fig07", "fig09",
        ];
        let lines: String = ids
            .iter()
            .map(|id| {
                let (fig, _) = run_by_id(id, &Scale::tiny()).expect("a catalogue id");
                assert_eq!(fig.id, *id);
                let digest = fig
                    .rows
                    .iter()
                    .flat_map(|row| row.iter().flat_map(|cell| cell.bytes().chain([b'\t'])))
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                    });
                format!(
                    "{id} rows={} digest={digest:016x} header={}\n",
                    fig.rows.len(),
                    fig.header.join("|")
                )
            })
            .collect();
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/paper_tables.txt");
        if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
            std::fs::write(&path, &lines).expect("write golden");
            return;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert_eq!(
            want, lines,
            "a paper table diverged from its golden line; if intended, regenerate with \
             UPDATE_GOLDENS=1 cargo test -p atrapos-bench --lib unwatched_paper"
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
    }
}
