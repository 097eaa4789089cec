//! The YCSB experiments — an extension beyond the paper's evaluation.
//!
//! Two experiments over the update-heavy core mix (YCSB-A) on the
//! adaptive figures' 4×4 machine:
//!
//! * **ycsb01** — a Zipfian skew sweep: θ ∈ {0, 0.6, 0.99} across all
//!   four system designs.  The partition-affinity story of the paper in
//!   YCSB terms: skew concentrates load on few partitions, and how much
//!   throughput survives depends on how the design shares work.
//! * **ycsb02** — a *drifting* hotspot timeline across the same four
//!   designs: after a uniform warm-up phase, a compact hot window starts
//!   rotating around the keyspace, so no static layout stays right.  The
//!   ATraPos variant runs with monitoring and adaptation on (the same
//!   scaled controller as Figures 10–13) and repartitions as the hotspot
//!   moves.
//!
//! Like every other experiment, both are declarative: scenarios are
//! serializable timelines, designs are [`DesignSpec`]s, and the runs fan
//! out on the parallel experiment lab.

use crate::harness::{
    adaptive_atrapos, grid, labelled, run_meta, time_series_figure, timeline_job, Scale,
};
use crate::report::FigureResult;
use atrapos_core::KeyDistribution;
use atrapos_engine::scenario::{Scenario, ScenarioEvent, ScenarioOutcome};
use atrapos_engine::sweep::SweepJob;
use atrapos_engine::DesignSpec;
use atrapos_workloads::{Ycsb, YcsbConfig};

/// Table labels of the four designs the YCSB, overload and spec
/// experiments compare, in column order.
pub const DESIGN_LABELS: [&str; 4] = ["Centralized", "Shared-nothing", "PLP", "ATraPos"];

/// Those four designs with their labels.  The ATraPos entry runs the full
/// adaptive configuration with the monitoring interval scaled like the
/// Figure 10–13 variant.
pub fn ycsb_designs(scale: &Scale) -> Vec<(&'static str, DesignSpec)> {
    let designs = [
        DesignSpec::Centralized,
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::Plp,
        DesignSpec::atrapos_with(adaptive_atrapos(scale)),
    ];
    DESIGN_LABELS.into_iter().zip(designs).collect()
}

/// Package one YCSB scenario × design as a lab job on the 4×4 machine.
pub(crate) fn ycsb_job(
    name: String,
    scale: &Scale,
    workload: YcsbConfig,
    design: DesignSpec,
    scenario: &Scenario,
) -> SweepJob {
    let workload = Ycsb::new(workload).expect("the experiments' YCSB configs are valid");
    timeline_job(name, scale, design, Box::new(workload), scenario)
}

/// The θ values of the skew sweep.
pub const YCSB_THETAS: [f64; 3] = [0.0, 0.6, 0.99];

/// ycsb01: YCSB-A throughput under Zipfian skew θ ∈ {0, 0.6, 0.99} on all
/// four designs.
pub fn ycsb01_skew_sweep(scale: &Scale) -> FigureResult {
    let mut header = vec!["theta"];
    header.extend(DESIGN_LABELS);
    let mut fig = FigureResult::new(
        "ycsb01",
        "YCSB-A throughput under Zipfian skew (KTPS vs. theta)",
        header,
    );
    let scenario = Scenario::new("ycsb01-skew-sweep", scale.measure_secs);
    grid(
        &mut fig,
        &YCSB_THETAS,
        &ycsb_designs(scale),
        |&theta, (label, design)| {
            ycsb_job(
                format!("ycsb-a/theta{theta}/{label}"),
                scale,
                YcsbConfig::workload_a(scale.ycsb_records).with_theta(theta),
                design.clone(),
                &scenario,
            )
        },
        |theta, measured| labelled(theta, measured.iter().map(|s| s.throughput_tps / 1e3)),
    );
    fig.note(format!(
        "YCSB core mix A (50% reads / 50% updates) over {} records on the 4x4 machine; \
         theta 0 is uniform, 0.99 is the YCSB standard",
        scale.ycsb_records
    ));
    fig.note(
        "expected shape: skew erodes the partitioned designs' lead — at theta 0.99 the \
         few hot partitions saturate and fall to (or below) the skew-insensitive \
         centralized baseline — while ATraPos stays at or above PLP at every theta",
    );
    fig.set_meta(run_meta(4, 4));
    fig
}

/// The ycsb02 timeline: one uniform phase, then a compact hot window
/// (10% of the keys drawing 90% of the accesses) starts rotating around
/// the keyspace for the remaining two phases.
///
/// The rotation period is expressed in *transactions* (the distribution
/// layer is workload-side and sees draws, not seconds) and sized so the
/// window needs several monitoring intervals to traverse its own width —
/// the window fully leaves its original position over the run (a static
/// layout ends up wrong), yet each position lasts long enough for the
/// adaptive controller to repartition toward it and collect the payoff
/// before the heat moves on.  A much faster drift degenerates into
/// repartition thrash for *any* controller: the layout is stale the
/// moment it is installed.
pub fn ycsb02_scenario(scale: &Scale) -> Scenario {
    let p = scale.phase_secs;
    let period_txns = (p * 16_000_000.0).max(1_000.0) as u64;
    Scenario::new("ycsb02-drifting-hotspot", 3.0 * p)
        .starting_as("uniform")
        .at(
            p,
            "drifting",
            ScenarioEvent::SetSkew {
                distribution: KeyDistribution::Drift {
                    data_fraction: 0.1,
                    access_fraction: 0.9,
                    period_txns,
                },
            },
        )
        .at(2.0 * p, "drifting", ScenarioEvent::Measure)
}

/// The workload every ycsb02 variant starts from: YCSB-A with a uniform
/// request distribution (the drift arrives via the timeline).
pub fn ycsb02_workload(scale: &Scale) -> YcsbConfig {
    YcsbConfig::workload_a(scale.ycsb_records).with_distribution(KeyDistribution::Uniform)
}

/// The ycsb02 lab jobs, one per design, in table order.
pub fn ycsb02_jobs(scale: &Scale) -> Vec<SweepJob> {
    let scenario = ycsb02_scenario(scale);
    ycsb_designs(scale)
        .into_iter()
        .map(|(label, spec)| {
            ycsb_job(
                format!("ycsb02/{label}"),
                scale,
                ycsb02_workload(scale),
                spec,
                &scenario,
            )
        })
        .collect()
}

/// ycsb02: the drifting-hotspot adaptivity run (KTPS over time) across
/// all four designs.
pub fn ycsb02_drifting_hotspot(scale: &Scale, outcomes: &[ScenarioOutcome]) -> FigureResult {
    let mut fig = time_series_figure(
        "ycsb02",
        "Adapting to a drifting hotspot (YCSB-A, KTPS over time)",
        &DESIGN_LABELS,
        outcomes,
    );
    fig.note(format!(
        "after {:.2} virtual s a hot window (10% of the keys, 90% of the accesses) starts \
         rotating around the keyspace; ATraPos runs with monitoring + adaptation on",
        scale.phase_secs
    ));
    fig.note(
        "expected shape: the drifting hotspot collapses every static layout to its \
         hot partitions' capacity; the adaptive ATraPos configuration repeatedly \
         repartitions toward the moving window (paying a visible pause at each \
         repartitioning) and settles above the static designs",
    );
    fig.set_meta(run_meta(4, 4));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run;

    fn tiny_scale() -> Scale {
        let mut s = Scale::quick();
        s.ycsb_records = 4_000;
        s.measure_secs = 0.002;
        s.phase_secs = 0.004;
        s.interval_min_secs = 0.002;
        s.interval_max_secs = 0.008;
        s
    }

    #[test]
    fn ycsb02_scenario_is_valid_and_serializable() {
        let scenario = ycsb02_scenario(&tiny_scale());
        scenario.validate().expect("ycsb02 timeline is valid");
        let json = scenario.to_json();
        assert_eq!(Scenario::from_json(&json).unwrap(), scenario);
    }

    #[test]
    fn ycsb02_runs_three_labelled_segments_on_every_design() {
        let scale = tiny_scale();
        for outcome in run(ycsb02_jobs(&scale)) {
            let labels: Vec<&str> = outcome.segments.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(labels, vec!["uniform", "drifting", "drifting"]);
            assert!(outcome.total_committed() > 0, "{} stalled", outcome.design);
        }
    }

    #[test]
    fn ycsb01_produces_one_row_per_theta() {
        let fig = ycsb01_skew_sweep(&tiny_scale());
        assert_eq!(fig.rows.len(), YCSB_THETAS.len());
        assert_eq!(fig.header.len(), 5);
        // Every cell is a positive throughput.
        for c in 1..fig.header.len() {
            for v in fig.column(c) {
                assert!(v > 0.0);
            }
            assert_eq!(fig.column(c).len(), fig.rows.len());
        }
    }
}
