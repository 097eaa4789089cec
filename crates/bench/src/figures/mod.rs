//! One function per table/figure of the paper's evaluation.

pub mod ablation;
pub mod adaptive;
pub mod motivation;
pub mod overload;
pub mod partitioning;
pub mod specs;
pub mod standard;
pub mod ycsb;

use crate::harness::Scale;
use crate::report::FigureResult;
use atrapos_engine::ScenarioOutcome;

pub use ablation::{
    abl01_uniform_interconnect, abl02_oversubscription, abl03_sub_partition_granularity,
    abl04_sharding_advisor, run_ablation, ABLATION_IDS,
};
pub use adaptive::{
    fig09_repartitioning, fig10_adapt_workload, fig10_scenario, fig11_adapt_skew, fig11_scenario,
    fig12_adapt_hardware, fig12_scenario, fig13_adapt_frequency, fig13_scenario, figure_executor,
    figure_job,
};
pub use motivation::{
    fig01_ipc, fig02_scaleup, fig03_multisite, fig04_breakdown, fig05_atrapos_scaleup,
    tab01_memory_policy,
};
pub use overload::{
    overload01_load_sweep, overload02_burst_recovery, overload02_jobs, overload02_scenario,
    OVERLOAD_IDS, OVERLOAD_MULTIPLIERS,
};
pub use partitioning::{fig06_placement, fig07_neworder_flowgraph};
pub use specs::{
    load_spec, shipped_spec, shipped_specs_dir, spec01_declarative_workloads, spec01_jobs,
    spec_job, SPEC01_FILES, SPEC_IDS,
};
pub use standard::{fig08_standard_benchmarks, tab02_monitoring_overhead};
pub use ycsb::{
    ycsb01_skew_sweep, ycsb02_drifting_hotspot, ycsb02_jobs, ycsb02_scenario, ycsb02_workload,
    ycsb_designs, ycsb_job, YCSB_IDS,
};

/// All experiment identifiers in paper order.
pub const ALL_IDS: &[&str] = &[
    "fig01", "fig02", "fig03", "fig04", "tab01", "fig05", "fig06", "fig07", "fig08", "tab02",
    "fig09", "fig10", "fig11", "fig12", "fig13",
];

/// The reproduction report set: the experiments `REPRODUCTION.md` tracks
/// with reference-trend or SLO verdicts (the headline comparisons of §VI,
/// the four ablations, the YCSB extension pair, and the open-loop
/// overload pair).  `atrapos figures` runs these by default.
pub const REPORT_IDS: &[&str] = &[
    "fig08",
    "tab02",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "abl01",
    "abl02",
    "abl03",
    "abl04",
    "ycsb01",
    "ycsb02",
    "overload01",
    "overload02",
    "spec01",
];

/// Run one experiment by id.  Timeline experiments also return the
/// scenario outcomes their rows were read from (empty for the others);
/// nothing here touches the file system — `atrapos figures` owns the
/// writes.
pub fn run_by_id(id: &str, scale: &Scale) -> Option<(FigureResult, Vec<ScenarioOutcome>)> {
    let plain = |fig| (fig, Vec::new());
    Some(match id {
        "fig01" => plain(fig01_ipc(scale)),
        "fig02" => plain(fig02_scaleup(scale)),
        "fig03" => plain(fig03_multisite(scale)),
        "fig04" => plain(fig04_breakdown(scale)),
        "tab01" => plain(tab01_memory_policy(scale)),
        "fig05" => plain(fig05_atrapos_scaleup(scale)),
        "fig06" => plain(fig06_placement(scale)),
        "fig07" => plain(fig07_neworder_flowgraph()),
        "fig08" => plain(fig08_standard_benchmarks(scale)),
        "tab02" => plain(tab02_monitoring_overhead(scale)),
        "fig09" => plain(fig09_repartitioning(scale)),
        "fig10" => fig10_adapt_workload(scale),
        "fig11" => fig11_adapt_skew(scale),
        "fig12" => fig12_adapt_hardware(scale),
        "fig13" => fig13_adapt_frequency(scale),
        // Extensions beyond the paper's figure set.
        "ycsb01" => plain(ycsb01_skew_sweep(scale)),
        "ycsb02" => ycsb02_drifting_hotspot(scale),
        "overload01" => overload01_load_sweep(scale),
        "overload02" => overload02_burst_recovery(scale),
        "spec01" => plain(spec01_declarative_workloads(scale)),
        // Ablations (not figures of the paper; see `ablation`).
        other => plain(run_ablation(other, scale)?),
    })
}
