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

use crate::harness::{adaptive_atrapos, run_meta, time_series_figure, timeline_job, Scale};
use crate::report::{fmt, FigureResult};
use atrapos_core::KeyDistribution;
use atrapos_engine::scenario::{Scenario, ScenarioEvent, ScenarioOutcome};
use atrapos_engine::sweep::SweepJob;
use atrapos_engine::{AtraposConfig, DesignSpec};
use atrapos_numa::SocketId;
use atrapos_storage::{Column, ColumnType, Key, Record, Schema, Table, TableId, Value};
use atrapos_workloads::{Tatp, TatpConfig, TatpTxn};

/// Figure 9: the cost of repartitioning batches (merge, split, rearrange)
/// as a function of the number of repartitioning actions, in records moved
/// between partition trees, on a table of `scale.micro_rows` rows split
/// into 80 partitions.  (The host time those moves take is priced by the
/// benchmark's `engine.designs.on_interval.ms_total` on `adaptive-shift`.)
pub fn fig09_repartitioning(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig09",
        "Repartitioning cost (records moved) vs. number of repartitioning actions",
        vec!["actions", "merge", "split", "rearrange"],
    );
    let rows = scale.micro_rows;
    let partitions = 80i64;
    let schema = Schema::new(
        "repart",
        (0..10)
            .map(|i| Column::new(format!("c{i}"), ColumnType::Int))
            .collect(),
        vec![0],
    );
    let boundaries = (1..partitions)
        .map(|i| Key::int(i * rows / partitions))
        .collect();
    let nodes = vec![SocketId(0); partitions as usize];
    let mut base = Table::range_partitioned(TableId(0), schema, boundaries, nodes);
    for i in 0..rows {
        base.load(Record::new((0..10).map(|c| Value::Int(i + c)).collect()))
            .expect("unique keys");
    }
    // The midpoint of original partition `k`.
    let mid = |k: usize| Key::int((2 * k as i64 + 1) * rows / (2 * partitions));
    // Split the first `n` partitions at their midpoints; earlier splits
    // shift original partition `k` to index `2k`.
    let split = |t: &mut Table, n: usize| -> usize {
        (0..n)
            .map(|k| {
                t.index_mut()
                    .split_partition(2 * k, mid(k), SocketId(0))
                    .expect("split succeeds")
            })
            .sum()
    };
    for n in [10usize, 20, 30, 40, 50, 60, 70, 80] {
        // Merges undo that many splits: `n` disjoint adjacent pairs.
        let mut t = base.clone();
        split(&mut t, n);
        let merged: usize = (0..n)
            .map(|k| t.index_mut().merge_with_next(k).expect("merge succeeds"))
            .sum();
        let split_moved = split(&mut base.clone(), n);
        // Rearrangements: split + merge per action.
        let mut t = base.clone();
        let rearranged: usize = (0..n)
            .map(|k| {
                let index = t.index_mut();
                index
                    .split_partition(k, mid(k), SocketId(0))
                    .expect("split succeeds")
                    + index.merge_with_next(k).expect("merge succeeds")
            })
            .sum();
        fig.push_row(vec![
            n.to_string(),
            merged.to_string(),
            split_moved.to_string(),
            rearranged.to_string(),
        ]);
    }
    fig.note(format!(
        "table of {rows} rows, 80 partitions; paper: cost linear in the number of actions \
         (< 200 ms at 80 actions on 800 K rows)"
    ));
    fig
}

/// The lab jobs of TATP timeline `id` (`fig10` … `fig13`) on the 4×4
/// machine: `<id>/static` (monitoring and adaptation disabled, the paper's
/// "Static" baseline) where the figure compares it, then `<id>/atrapos`
/// (full ATraPos).
pub fn tatp_timeline_jobs(id: &str, scale: &Scale) -> Vec<SweepJob> {
    // (transaction type TATP starts pinned to, timeline, static baseline?)
    let (initial, scenario, with_static) = match id {
        "fig10" => (TatpTxn::UpdateSubscriberData, fig10_scenario(scale), true),
        "fig11" => (TatpTxn::GetSubscriberData, fig11_scenario(scale), true),
        "fig12" => (TatpTxn::GetSubscriberData, fig12_scenario(scale), true),
        "fig13" => (TatpTxn::GetNewDestination, fig13_scenario(scale), false),
        other => panic!("'{other}' is not a TATP timeline figure"),
    };
    let static_variant = with_static.then(|| ("static", AtraposConfig::static_atrapos()));
    static_variant
        .into_iter()
        .chain([("atrapos", adaptive_atrapos(scale))])
        .map(|(name, config)| {
            let mut workload = Tatp::new(TatpConfig::scaled(scale.tatp_subscribers / 2));
            workload.set_single(initial);
            timeline_job(
                format!("{id}/{name}"),
                scale,
                DesignSpec::atrapos_named(name, config),
                Box::new(workload),
                &scenario,
            )
        })
        .collect()
}

/// The (time, Static, ATraPos) table of Figures 10–12.
fn static_vs_atrapos(id: &str, title: &str, outcomes: &[ScenarioOutcome]) -> FigureResult {
    let mut fig = time_series_figure(id, title, &["Static", "ATraPos"], outcomes);
    fig.set_meta(run_meta(4, 4));
    fig
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
pub fn fig10_adapt_workload(scale: &Scale, outcomes: &[ScenarioOutcome]) -> FigureResult {
    let mut fig = static_vs_atrapos(
        "fig10",
        "Adapting to workload changes (KTPS over time)",
        outcomes,
    );
    fig.note(format!(
        "workload switches every {:.2} virtual s (paper: 30 s phases, time axis compressed {:.0}x)",
        scale.phase_secs,
        scale.time_compression()
    ));
    fig.note("expected shape: ATraPos recovers within a few monitoring intervals after each switch and exceeds the static configuration");
    fig
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
pub fn fig11_adapt_skew(_scale: &Scale, outcomes: &[ScenarioOutcome]) -> FigureResult {
    let mut fig = static_vs_atrapos(
        "fig11",
        "Adapting to sudden workload skew (KTPS over time)",
        outcomes,
    );
    fig.note("expected shape: both drop when the skew appears; ATraPos repartitions and recovers most of the loss, the static system does not");
    fig
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
pub fn fig12_adapt_hardware(_scale: &Scale, outcomes: &[ScenarioOutcome]) -> FigureResult {
    let mut fig = static_vs_atrapos(
        "fig12",
        "Adapting to a processor failure (KTPS over time)",
        outcomes,
    );
    fig.note("one of four sockets fails after the first phase; the static system overloads one remaining socket, ATraPos repartitions across the surviving cores");
    fig
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
pub fn fig13_adapt_frequency(_scale: &Scale, outcomes: &[ScenarioOutcome]) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig13",
        "Adapting to frequent workload changes (KTPS over time, ATraPos)",
        vec!["time (s)", "ATraPos", "phase"],
    );
    for segment in &outcomes[0].segments {
        for p in &segment.stats.time_series {
            fig.push_row(vec![
                format!("{:.2}", p.secs),
                fmt(p.tps / 1e3),
                segment.label.clone(),
            ]);
        }
    }
    fig.note("A = GetNewDest, B = TATP-Mix; the monitoring interval relaxes while the workload is stable and resets after each adaptation");
    fig.set_meta(run_meta(4, 4));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_scenarios_are_valid_and_serializable() {
        let scale = Scale::tiny();
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
        let outcome = tatp_timeline_jobs("fig10", &Scale::tiny())
            .pop()
            .expect("the adaptive variant is the last job")
            .run()
            .unwrap();
        let labels: Vec<&str> = outcome.segments.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["UpdSubData", "GetNewDest", "TATP-Mix"]);
        assert!(outcome.total_committed() > 0);
    }
}
