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

use crate::harness::{machine, run_meta, Scale};
use crate::report::{fmt, FigureResult};
use atrapos_core::{AdaptiveInterval, ControllerConfig, KeyDistribution};
use atrapos_engine::scenario::{Scenario, ScenarioEvent, ScenarioOutcome};
use atrapos_engine::sweep::{default_threads, run_sweep, SweepJob};
use atrapos_engine::{AtraposConfig, DesignSpec, ExecutorConfig, RunMeta, TimePoint};
use atrapos_workloads::{Ycsb, YcsbConfig};

/// The experiment identifiers this module provides.
pub const YCSB_IDS: &[&str] = &["ycsb01", "ycsb02"];

/// The provenance record of the YCSB runs (the 4×4 machine).
pub(crate) fn ycsb_meta() -> RunMeta {
    run_meta(4, 4)
}

/// The four designs both experiments compare, with their table labels.
/// The ATraPos entry runs the full adaptive configuration with the
/// monitoring interval scaled like the Figure 10–13 variant.
pub fn ycsb_designs(scale: &Scale) -> Vec<(&'static str, DesignSpec)> {
    vec![
        ("Centralized", DesignSpec::Centralized),
        ("Shared-nothing", DesignSpec::coarse_shared_nothing()),
        ("PLP", DesignSpec::Plp),
        (
            "ATraPos",
            DesignSpec::atrapos_with(AtraposConfig {
                monitoring: true,
                adaptive: true,
                controller: ControllerConfig {
                    interval: AdaptiveInterval::new(
                        scale.interval_min_secs,
                        scale.interval_max_secs,
                        0.10,
                    ),
                    ..ControllerConfig::default()
                },
                ..AtraposConfig::default()
            }),
        ),
    ]
}

/// The executor configuration of every YCSB and spec-file job: fixed
/// seed, the monitoring interval and time-series bucket of the adaptive
/// figures.
pub(crate) fn ycsb_config(scale: &Scale) -> ExecutorConfig {
    ExecutorConfig {
        seed: 42,
        default_interval_secs: scale.interval_min_secs,
        time_series_bucket_secs: scale.interval_min_secs,
    }
}

/// Package one YCSB scenario × design as a lab job on the 4×4 machine.
pub fn ycsb_job(
    name: impl Into<String>,
    scale: &Scale,
    workload: YcsbConfig,
    design: DesignSpec,
    scenario: &Scenario,
) -> SweepJob {
    SweepJob {
        name: name.into(),
        machine: machine(4, 4),
        design,
        workload: Box::new(Ycsb::new(workload).expect("the experiments' YCSB configs are valid")),
        scenario: scenario.clone(),
        config: ycsb_config(scale),
    }
}

/// The eventless measurement scenario of the skew sweep.
fn measurement_scenario(name: &str, scale: &Scale) -> Scenario {
    Scenario::new(name, scale.measure_secs)
}

/// The θ values of the skew sweep.
pub const YCSB_THETAS: [f64; 3] = [0.0, 0.6, 0.99];

/// ycsb01: YCSB-A throughput under Zipfian skew θ ∈ {0, 0.6, 0.99} on all
/// four designs.
pub fn ycsb01_skew_sweep(scale: &Scale) -> FigureResult {
    let designs = ycsb_designs(scale);
    let mut header = vec!["theta"];
    header.extend(designs.iter().map(|(label, _)| *label));
    let mut fig = FigureResult::new(
        "ycsb01",
        "YCSB-A throughput under Zipfian skew (KTPS vs. theta)",
        header,
    );
    let mut jobs = Vec::new();
    for theta in YCSB_THETAS {
        for (label, spec) in &designs {
            jobs.push(ycsb_job(
                format!("ycsb-a/theta{theta}/{label}"),
                scale,
                YcsbConfig::workload_a(scale.ycsb_records).with_theta(theta),
                spec.clone(),
                &measurement_scenario("ycsb01-skew-sweep", scale),
            ));
        }
    }
    let results = run_sweep(jobs, default_threads());
    let mut rows = results.chunks(designs.len());
    for theta in YCSB_THETAS {
        let chunk = rows.next().expect("one result chunk per theta");
        let mut row = vec![format!("{theta}")];
        for r in chunk {
            let outcome = r
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("ycsb01 job '{}' failed: {e}", r.name));
            row.push(fmt(outcome.segments[0].stats.throughput_tps / 1e3));
        }
        fig.push_row(row);
    }
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
    fig.set_meta(ycsb_meta());
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

/// Merge the per-design time series into rows of (time, KTPS…).
pub(crate) fn series_rows(series: &[Vec<TimePoint>]) -> Vec<Vec<String>> {
    let len = series.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            let mut row = vec![format!("{:.2}", series[0][i].secs)];
            row.extend(series.iter().map(|s| fmt(s[i].tps / 1e3)));
            row
        })
        .collect()
}

/// ycsb02: the drifting-hotspot adaptivity run (KTPS over time) across
/// all four designs.
pub fn ycsb02_drifting_hotspot(scale: &Scale) -> (FigureResult, Vec<ScenarioOutcome>) {
    let designs = ycsb_designs(scale);
    let mut header = vec!["time (s)"];
    header.extend(designs.iter().map(|(label, _)| *label));
    let mut fig = FigureResult::new(
        "ycsb02",
        "Adapting to a drifting hotspot (YCSB-A, KTPS over time)",
        header,
    );
    let outcomes: Vec<ScenarioOutcome> = run_sweep(ycsb02_jobs(scale), default_threads())
        .into_iter()
        .map(|r| {
            r.outcome
                .unwrap_or_else(|e| panic!("ycsb02 job '{}' failed: {e}", r.name))
        })
        .collect();
    let series: Vec<Vec<TimePoint>> = outcomes.iter().map(|o| o.time_series()).collect();
    for row in series_rows(&series) {
        fig.push_row(row);
    }
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
    fig.set_meta(ycsb_meta());
    (fig, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for r in run_sweep(ycsb02_jobs(&scale), 2) {
            let outcome = r.outcome.expect("ycsb02 job runs");
            let labels: Vec<&str> = outcome.segments.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(labels, vec!["uniform", "drifting", "drifting"]);
            assert!(outcome.total_committed() > 0, "{} stalled", r.name);
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
