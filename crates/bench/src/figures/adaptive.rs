//! The adaptivity experiments: repartitioning cost (Figure 9) and the four
//! time-series experiments (Figures 10–13).
//!
//! The time-series experiments compress the paper's time axis: the paper
//! runs 30-second workload phases with a 1–8 s monitoring interval, the
//! quick scale runs proportionally shorter virtual phases with a
//! proportionally shorter interval, so the *number* of monitoring intervals
//! per phase — and therefore the adaptation behaviour — matches the paper.
//!
//! Each experiment is a declarative [`Scenario`] run against two
//! [`DesignSpec`]s (the static baseline and full ATraPos) — the timeline is
//! data, so the same scenario could be loaded from a file (see the
//! `scenario_replay` example) or swept over other designs.

use crate::harness::{machine, run_meta, Scale};
use crate::report::{fmt, FigureResult};
use atrapos_core::{AdaptiveInterval, ControllerConfig, KeyDistribution};
use atrapos_engine::scenario::{Scenario, ScenarioEvent, ScenarioOutcome};
use atrapos_engine::sweep::{default_threads, run_sweep, SweepJob};
use atrapos_engine::{
    AtraposConfig, DesignSpec, ExecutorConfig, RunMeta, TimePoint, VirtualExecutor,
};
use atrapos_numa::{Machine, SocketId};
use atrapos_storage::{Key, Record, Schema, Table, TableId, Value};
use atrapos_workloads::{Tatp, TatpConfig, TatpTxn};
use std::time::Instant;

/// Figure 9: wall-clock cost of repartitioning batches (merge, split,
/// rearrange) as a function of the number of repartitioning actions, on a
/// table of `scale.micro_rows` rows split into 80 partitions.
pub fn fig09_repartitioning(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig09",
        "Repartitioning cost (ms) vs. number of repartitioning actions",
        vec!["actions", "merge", "split", "rearrange"],
    );
    let rows = scale.micro_rows;
    let partitions = 80i64;
    let build = || {
        let schema = Schema::new(
            "repart",
            (0..10)
                .map(|i| {
                    atrapos_storage::Column::new(format!("c{i}"), atrapos_storage::ColumnType::Int)
                })
                .collect(),
            vec![0],
        );
        let boundaries: Vec<Key> = (1..partitions)
            .map(|i| Key::int(i * rows / partitions))
            .collect();
        let nodes = vec![SocketId(0); partitions as usize];
        let mut t = Table::range_partitioned(TableId(0), schema, boundaries, nodes);
        for i in 0..rows {
            t.load(Record::new((0..10).map(|c| Value::Int(i + c)).collect()))
                .expect("unique keys");
        }
        t
    };
    let base = build();
    for n in [10usize, 20, 30, 40, 50, 60, 70, 80] {
        // Merge n disjoint adjacent pairs.
        let mut t = base.clone();
        let start = Instant::now();
        for k in 0..n.min((partitions as usize) / 2) {
            t.index_mut().merge_with_next(k).expect("merge succeeds");
        }
        let merge_ms = start.elapsed().as_secs_f64() * 1e3;
        // Split n partitions at their midpoints.
        let mut t = base.clone();
        let start = Instant::now();
        for k in 0..n.min(partitions as usize) {
            let idx = 2 * k;
            let lower = k as i64 * 2 * rows / partitions;
            let upper = (k as i64 * 2 + 1) * rows / partitions;
            let mid = (lower + upper) / 2;
            t.index_mut()
                .split_partition(idx, Key::int(mid), SocketId(0))
                .expect("split succeeds");
        }
        let split_ms = start.elapsed().as_secs_f64() * 1e3;
        // Rearrangements: split + merge per action.
        let mut t = base.clone();
        let start = Instant::now();
        for k in 0..n.min(partitions as usize) {
            let lower = k as i64 * rows / partitions;
            let upper = (k as i64 + 1) * rows / partitions;
            let mid = (lower + upper) / 2;
            t.index_mut()
                .split_partition(k, Key::int(mid), SocketId(0))
                .expect("split succeeds");
            t.index_mut().merge_with_next(k).expect("merge succeeds");
        }
        let rearrange_ms = start.elapsed().as_secs_f64() * 1e3;
        fig.push_row(vec![
            n.to_string(),
            fmt(merge_ms),
            fmt(split_ms),
            fmt(rearrange_ms),
        ]);
    }
    fig.note(format!(
        "table of {rows} rows, 80 partitions; paper: linear growth, < 200 ms at 80 actions on 800 K rows"
    ));
    fig
}

/// The provenance record of the adaptive figure runs (the 4×4 machine of
/// [`figure_parts`]).
fn figure_meta() -> RunMeta {
    run_meta(4, 4)
}

/// Which adaptive variant to run.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    /// Monitoring and adaptation disabled (the paper's "Static" baseline).
    Static,
    /// Full ATraPos.
    Adaptive,
}

/// The design specification of one variant.
fn variant_spec(scale: &Scale, variant: Variant) -> DesignSpec {
    match variant {
        Variant::Static => DesignSpec::atrapos_named(
            "static",
            AtraposConfig {
                monitoring: false,
                adaptive: false,
                ..AtraposConfig::default()
            },
        ),
        Variant::Adaptive => DesignSpec::atrapos_named(
            "atrapos",
            AtraposConfig {
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
            },
        ),
    }
}

/// The machine, workload, design, and executor parameters of one adaptive
/// figure variant: a 4×4 machine with TATP pinned to an initial transaction
/// type.  Everything else (executor, sweep job) derives from this.
fn figure_parts(
    scale: &Scale,
    variant: Variant,
    initial: TatpTxn,
) -> (Machine, Box<Tatp>, DesignSpec, ExecutorConfig) {
    // A smaller machine keeps the per-second transaction counts tractable
    // while preserving the multi-socket structure.
    let m = machine(4, 4);
    let mut workload = Tatp::new(TatpConfig::scaled(scale.tatp_subscribers / 2));
    workload.set_single(initial);
    let config = ExecutorConfig {
        seed: 42,
        default_interval_secs: scale.interval_min_secs,
        time_series_bucket_secs: scale.interval_min_secs,
    };
    (m, Box::new(workload), variant_spec(scale, variant), config)
}

/// Build the executor the adaptive figure timelines (Figures 10–13) run
/// on: a 4×4 machine with TATP pinned to an initial transaction type.
/// Public so the wallclock harness and the golden-figure regression tests
/// reuse the exact figure configuration.
pub fn figure_executor(scale: &Scale, adaptive: bool, initial: TatpTxn) -> VirtualExecutor {
    let variant = if adaptive {
        Variant::Adaptive
    } else {
        Variant::Static
    };
    let (m, workload, spec, config) = figure_parts(scale, variant, initial);
    let design = spec.build(&m, workload.as_ref());
    VirtualExecutor::new(m, design, workload, config)
}

/// Package one adaptive figure variant as a lab job (the exact simulation
/// [`figure_executor`] + `run_scenario` would perform).  Public so the
/// wallclock harness sweeps the figure bundle on the same jobs the figure
/// runners use.
pub fn figure_job(
    name: impl Into<String>,
    scale: &Scale,
    adaptive: bool,
    initial: TatpTxn,
    scenario: &Scenario,
) -> SweepJob {
    let variant = if adaptive {
        Variant::Adaptive
    } else {
        Variant::Static
    };
    let (machine, workload, design, config) = figure_parts(scale, variant, initial);
    SweepJob {
        name: name.into(),
        machine,
        design,
        workload,
        scenario: scenario.clone(),
        config,
    }
}

/// Run a scenario under both variants — in parallel, one lab job each —
/// and return (static, adaptive).
fn run_both(
    scale: &Scale,
    initial: TatpTxn,
    scenario: &Scenario,
) -> (ScenarioOutcome, ScenarioOutcome) {
    let jobs = vec![
        figure_job("static", scale, false, initial, scenario),
        figure_job("atrapos", scale, true, initial, scenario),
    ];
    let mut results = run_sweep(jobs, default_threads());
    let a = results
        .remove(1)
        .outcome
        .expect("scenario runs on the adaptive variant");
    let s = results
        .remove(0)
        .outcome
        .expect("scenario runs on the static variant");
    (s, a)
}

/// Merge per-variant time series into rows of (time, static, atrapos).
fn series_rows(static_ts: &[TimePoint], adaptive_ts: &[TimePoint]) -> Vec<Vec<String>> {
    static_ts
        .iter()
        .zip(adaptive_ts.iter())
        .map(|(s, a)| vec![format!("{:.2}", s.secs), fmt(s.tps / 1e3), fmt(a.tps / 1e3)])
        .collect()
}

/// The Figure 10 timeline: UpdSubData → GetNewDest → TATP-Mix.
pub fn fig10_scenario(scale: &Scale) -> Scenario {
    let p = scale.phase_secs;
    Scenario::new("fig10-adapt-to-workload-change", 3.0 * p)
        .starting_as("UpdSubData")
        .at(
            p,
            "GetNewDest",
            ScenarioEvent::SetWorkloadPhase {
                txn: "GetNewDest".to_string(),
            },
        )
        .at(2.0 * p, "TATP-Mix", ScenarioEvent::SetMix)
}

/// Figure 10: adapting to workload changes (UpdSubData → GetNewDest →
/// TATP-Mix).
pub fn fig10_adapt_workload(scale: &Scale) -> (FigureResult, Vec<ScenarioOutcome>) {
    let mut fig = FigureResult::new(
        "fig10",
        "Adapting to workload changes (KTPS over time)",
        vec!["time (s)", "Static", "ATraPos"],
    );
    let scenario = fig10_scenario(scale);
    let (s, a) = run_both(scale, TatpTxn::UpdateSubscriberData, &scenario);
    for row in series_rows(&s.time_series(), &a.time_series()) {
        fig.push_row(row);
    }
    fig.note(format!(
        "workload switches every {:.2} virtual s (paper: 30 s phases, time axis compressed {:.0}x)",
        scale.phase_secs,
        scale.time_compression()
    ));
    fig.note("expected shape: ATraPos recovers within a few monitoring intervals after each switch and exceeds the static configuration");
    fig.set_meta(figure_meta());
    (fig, vec![s, a])
}

/// The Figure 11 timeline: uniform, then a sudden hotspot (50% of the
/// requests on 20% of the data) held for two phases.
pub fn fig11_scenario(scale: &Scale) -> Scenario {
    let p = scale.phase_secs;
    Scenario::new("fig11-adapt-to-skew", 3.0 * p)
        .starting_as("uniform")
        .at(
            p,
            "skewed",
            ScenarioEvent::SetSkew {
                distribution: KeyDistribution::Hotspot {
                    data_fraction: 0.2,
                    access_fraction: 0.5,
                },
            },
        )
        .at(2.0 * p, "skewed", ScenarioEvent::Measure)
}

/// Figure 11: adapting to sudden skew (50% of requests to 20% of the data).
pub fn fig11_adapt_skew(scale: &Scale) -> (FigureResult, Vec<ScenarioOutcome>) {
    let mut fig = FigureResult::new(
        "fig11",
        "Adapting to sudden workload skew (KTPS over time)",
        vec!["time (s)", "Static", "ATraPos"],
    );
    let scenario = fig11_scenario(scale);
    let (s, a) = run_both(scale, TatpTxn::GetSubscriberData, &scenario);
    for row in series_rows(&s.time_series(), &a.time_series()) {
        fig.push_row(row);
    }
    fig.note("expected shape: both drop when the skew appears; ATraPos repartitions and recovers most of the loss, the static system does not");
    fig.set_meta(figure_meta());
    (fig, vec![s, a])
}

/// The Figure 12 timeline: one of four sockets fails after the first
/// phase.
pub fn fig12_scenario(scale: &Scale) -> Scenario {
    let p = scale.phase_secs;
    Scenario::new("fig12-adapt-to-processor-failure", 3.0 * p)
        .starting_as("before")
        .at(p, "failed", ScenarioEvent::FailSocket { socket: 3 })
        .at(2.0 * p, "failed", ScenarioEvent::Measure)
}

/// Figure 12: adapting to a hardware change (one socket fails).
pub fn fig12_adapt_hardware(scale: &Scale) -> (FigureResult, Vec<ScenarioOutcome>) {
    let mut fig = FigureResult::new(
        "fig12",
        "Adapting to a processor failure (KTPS over time)",
        vec!["time (s)", "Static", "ATraPos"],
    );
    let scenario = fig12_scenario(scale);
    let (s, a) = run_both(scale, TatpTxn::GetSubscriberData, &scenario);
    for row in series_rows(&s.time_series(), &a.time_series()) {
        fig.push_row(row);
    }
    fig.note("one of four sockets fails after the first phase; the static system overloads one remaining socket, ATraPos repartitions across the surviving cores");
    fig.set_meta(figure_meta());
    (fig, vec![s, a])
}

/// The Figure 13 timeline: A = GetNewDest and B = TATP-Mix alternating
/// every phase.
pub fn fig13_scenario(scale: &Scale) -> Scenario {
    let p = scale.phase_secs;
    let mut scenario = Scenario::new("fig13-adapt-to-frequent-changes", 6.0 * p).starting_as("A");
    for i in 1..6 {
        let (label, event) = if i % 2 == 1 {
            ("B", ScenarioEvent::SetMix)
        } else {
            (
                "A",
                ScenarioEvent::SetWorkloadPhase {
                    txn: "GetNewDest".to_string(),
                },
            )
        };
        scenario = scenario.at(i as f64 * p, label, event);
    }
    scenario
}

/// Figure 13: adapting to frequent workload changes (A = GetNewDest,
/// B = TATP-Mix, alternating).
pub fn fig13_adapt_frequency(scale: &Scale) -> (FigureResult, Vec<ScenarioOutcome>) {
    let mut fig = FigureResult::new(
        "fig13",
        "Adapting to frequent workload changes (KTPS over time, ATraPos)",
        vec!["time (s)", "ATraPos", "phase"],
    );
    let scenario = fig13_scenario(scale);
    let outcome = run_sweep(
        vec![figure_job(
            "atrapos",
            scale,
            true,
            TatpTxn::GetNewDestination,
            &scenario,
        )],
        default_threads(),
    )
    .remove(0)
    .outcome
    .expect("scenario runs");
    for segment in &outcome.segments {
        for p in &segment.stats.time_series {
            fig.push_row(vec![
                format!("{:.2}", p.secs),
                fmt(p.tps / 1e3),
                segment.label.clone(),
            ]);
        }
    }
    fig.note("A = GetNewDest, B = TATP-Mix; the monitoring interval relaxes while the workload is stable and resets after each adaptation");
    fig.set_meta(figure_meta());
    (fig, vec![outcome])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            micro_rows: 8_000,
            memory_rows: 8_000,
            tatp_subscribers: 4_000,
            tpcc_warehouses: 2,
            ycsb_records: 4_000,
            measure_secs: 0.002,
            phase_secs: 0.004,
            interval_min_secs: 0.002,
            interval_max_secs: 0.008,
            max_sockets: 2,
            cores_per_socket: 2,
        }
    }

    #[test]
    fn figure_scenarios_are_valid_and_serializable() {
        let scale = tiny_scale();
        for scenario in [
            fig10_scenario(&scale),
            fig11_scenario(&scale),
            fig12_scenario(&scale),
            fig13_scenario(&scale),
        ] {
            scenario.validate().expect("figure timelines are valid");
            let json = scenario.to_json();
            assert_eq!(Scenario::from_json(&json).unwrap(), scenario);
        }
    }

    #[test]
    fn fig10_runs_three_labelled_segments() {
        let scale = tiny_scale();
        let scenario = fig10_scenario(&scale);
        let outcome = figure_executor(&scale, true, TatpTxn::UpdateSubscriberData)
            .run_scenario(&scenario)
            .unwrap();
        let labels: Vec<&str> = outcome.segments.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["UpdSubData", "GetNewDest", "TATP-Mix"]);
        assert!(outcome.total_committed() > 0);
    }
}
