//! The open-loop overload experiments — an extension beyond the paper's
//! evaluation.
//!
//! Every experiment the paper reports is closed-loop: clients resubmit
//! the instant the engine commits, so the system sits exactly at
//! saturation and overload behaviour is never observed.  These two
//! experiments drive the same four designs *open loop* — Poisson arrivals
//! through a bounded admission queue — in the regime the paper's
//! coordination-free design is supposed to win:
//!
//! * **overload01** — goodput, p99 latency, and rejection rate vs offered
//!   load from 0.5× to 3× each design's measured saturation throughput.
//!   A well-behaved design degrades gracefully: goodput holds near
//!   capacity past saturation while the admission queue sheds the excess.
//! * **overload02** — a burst-recovery timeline: steady load at 70% of
//!   saturation, a 2.5× burst, then back to 70%.  The interesting part is
//!   the recovery segment — whether goodput returns to the baseline once
//!   the backlog drains.
//!
//! Offered rates are calibrated *per design* from a closed-loop
//! measurement at the same scale, so "1× load" means the same thing for
//! the centralized baseline and for ATraPos even though their capacities
//! differ by an order of magnitude.

use crate::harness::Scale;
use crate::report::{fmt, FigureResult};
use atrapos_engine::scenario::{Scenario, ScenarioEvent, ScenarioOutcome};
use atrapos_engine::sweep::{default_threads, run_sweep, SweepJob};
use atrapos_engine::RunMeta;

use super::ycsb::{series_rows, ycsb02_workload, ycsb_designs, ycsb_job, ycsb_meta};

/// The experiment identifiers this module provides.
pub const OVERLOAD_IDS: &[&str] = &["overload01", "overload02"];

/// Offered-load multiples of each design's saturation throughput swept by
/// overload01.
pub const OVERLOAD_MULTIPLIERS: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];

/// The admission-queue bound of both experiments: deep enough to absorb
/// scheduling jitter, shallow enough that sustained overload rejects
/// (and p99 stays a queue-bound multiple of service time, not unbounded).
pub const ADMISSION_BOUND: u64 = 128;

/// The provenance record of the overload runs (the YCSB 4×4 machine).
fn overload_meta() -> RunMeta {
    ycsb_meta()
}

/// Closed-loop saturation throughput of every design, in table order —
/// the per-design "1×" the open-loop rates are multiples of.  Measured
/// with the exact YCSB-A uniform workload the open-loop jobs serve.
fn saturation_tps(scale: &Scale) -> Vec<(&'static str, f64)> {
    let jobs: Vec<SweepJob> = ycsb_designs(scale)
        .into_iter()
        .map(|(label, spec)| {
            ycsb_job(
                format!("overload-calibrate/{label}"),
                scale,
                ycsb02_workload(scale),
                spec,
                &Scenario::new("overload-calibration", scale.measure_secs),
            )
        })
        .collect();
    run_sweep(jobs, default_threads())
        .into_iter()
        .zip(ycsb_designs(scale))
        .map(|(r, (label, _))| {
            let outcome = r
                .outcome
                .unwrap_or_else(|e| panic!("calibration job '{}' failed: {e}", r.name));
            (label, outcome.segments[0].stats.throughput_tps)
        })
        .collect()
}

/// An open-loop serving scenario: bound and rate installed at t = 0, one
/// measured segment of `duration_secs`.
fn serving_scenario(name: impl Into<String>, duration_secs: f64, rate_tps: f64) -> Scenario {
    Scenario::new(name, duration_secs)
        .starting_as("serve")
        .at_unlabelled(
            0.0,
            ScenarioEvent::SetAdmissionBound {
                bound: ADMISSION_BOUND,
            },
        )
        .at_unlabelled(0.0, ScenarioEvent::SetArrivalRate { rate_tps })
}

/// overload01: goodput, p99 latency, and rejection rate vs offered load
/// (0.5×–3× of each design's own saturation) on all four designs.
pub fn overload01_load_sweep(scale: &Scale) -> (FigureResult, Vec<ScenarioOutcome>) {
    let saturation = saturation_tps(scale);
    let mut header = vec!["offered (x sat)".to_string()];
    for (label, _) in &saturation {
        header.push(format!("{label} goodput (KTPS)"));
    }
    for (label, _) in &saturation {
        header.push(format!("{label} p99 (us)"));
    }
    for (label, _) in &saturation {
        header.push(format!("{label} rejected (%)"));
    }
    let mut fig = FigureResult::new(
        "overload01",
        "Open-loop overload: goodput, p99, and rejection vs offered load",
        header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let designs = ycsb_designs(scale);
    let mut jobs = Vec::new();
    for mult in OVERLOAD_MULTIPLIERS {
        for ((label, spec), (_, sat)) in designs.iter().zip(&saturation) {
            jobs.push(ycsb_job(
                format!("overload01/x{mult}/{label}"),
                scale,
                ycsb02_workload(scale),
                spec.clone(),
                &serving_scenario("overload01-load-sweep", scale.measure_secs, mult * sat),
            ));
        }
    }
    let outcomes: Vec<ScenarioOutcome> = run_sweep(jobs, default_threads())
        .into_iter()
        .map(|r| {
            r.outcome
                .unwrap_or_else(|e| panic!("overload01 job '{}' failed: {e}", r.name))
        })
        .collect();
    for (i, mult) in OVERLOAD_MULTIPLIERS.iter().enumerate() {
        let chunk = &outcomes[i * designs.len()..(i + 1) * designs.len()];
        let mut row = vec![format!("{mult}")];
        for o in chunk {
            row.push(fmt(o.segments[0].stats.throughput_tps / 1e3));
        }
        for o in chunk {
            row.push(fmt(o.segments[0].stats.p99_latency_us));
        }
        for o in chunk {
            let s = &o.segments[0].stats;
            let pct = if s.offered == 0 {
                0.0
            } else {
                100.0 * s.rejected as f64 / s.offered as f64
            };
            row.push(fmt(pct));
        }
        fig.push_row(row);
    }
    fig.note(format!(
        "YCSB-A uniform over {} records on the 4x4 machine; Poisson arrivals through a \
         {ADMISSION_BOUND}-slot admission queue; offered rate is the multiple of each \
         design's own closed-loop saturation, so 1x means the same relative stress for \
         every design; p99 includes queueing delay",
        scale.ycsb_records
    ));
    fig.note(
        "expected shape: below saturation nothing is rejected and goodput tracks the \
         offered rate; past saturation goodput plateaus at capacity (graceful \
         degradation) while the queue sheds the excess and p99 saturates at the \
         queue-bound latency instead of growing without bound",
    );
    fig.set_meta(overload_meta());
    (fig, outcomes)
}

/// The overload02 burst timeline for one design: 0.7× saturation, a 2.5×
/// burst for half a phase, then 0.7× again for the recovery window.
pub fn overload02_scenario(scale: &Scale, saturation_tps: f64) -> Scenario {
    let p = scale.phase_secs;
    Scenario::new("overload02-burst-recovery", 3.0 * p)
        .starting_as("baseline")
        .at_unlabelled(
            0.0,
            ScenarioEvent::SetAdmissionBound {
                bound: ADMISSION_BOUND,
            },
        )
        .at_unlabelled(
            0.0,
            ScenarioEvent::SetArrivalRate {
                rate_tps: 0.7 * saturation_tps,
            },
        )
        .at(
            p,
            "burst",
            ScenarioEvent::SetArrivalRate {
                rate_tps: 2.5 * saturation_tps,
            },
        )
        .at(
            1.5 * p,
            "recovery",
            ScenarioEvent::SetArrivalRate {
                rate_tps: 0.7 * saturation_tps,
            },
        )
}

/// The overload02 lab jobs, one per design in table order, with rates
/// calibrated to each design's saturation.
pub fn overload02_jobs(scale: &Scale) -> Vec<SweepJob> {
    saturation_tps(scale)
        .into_iter()
        .zip(ycsb_designs(scale))
        .map(|((label, sat), (_, spec))| {
            ycsb_job(
                format!("overload02/{label}"),
                scale,
                ycsb02_workload(scale),
                spec,
                &overload02_scenario(scale, sat),
            )
        })
        .collect()
}

/// overload02: the burst-recovery timeline (goodput in KTPS over time)
/// across all four designs.
pub fn overload02_burst_recovery(scale: &Scale) -> (FigureResult, Vec<ScenarioOutcome>) {
    let designs = ycsb_designs(scale);
    let mut header = vec!["time (s)"];
    header.extend(designs.iter().map(|(label, _)| *label));
    let mut fig = FigureResult::new(
        "overload02",
        "Burst recovery under open-loop load (goodput, KTPS over time)",
        header,
    );
    let outcomes: Vec<ScenarioOutcome> = run_sweep(overload02_jobs(scale), default_threads())
        .into_iter()
        .map(|r| {
            r.outcome
                .unwrap_or_else(|e| panic!("overload02 job '{}' failed: {e}", r.name))
        })
        .collect();
    let series: Vec<Vec<_>> = outcomes.iter().map(|o| o.time_series()).collect();
    for row in series_rows(&series) {
        fig.push_row(row);
    }
    fig.note(format!(
        "open-loop Poisson arrivals at 0.7x each design's saturation, a 2.5x burst for \
         {:.2} virtual s, then 0.7x again; {ADMISSION_BOUND}-slot admission queue",
        0.5 * scale.phase_secs
    ));
    fig.note(
        "expected shape: during the burst goodput is pinned at capacity and the queue \
         rejects the excess; once the rate drops back, the backlog drains and goodput \
         returns to the baseline level within the recovery window",
    );
    fig.set_meta(overload_meta());
    (fig, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        let mut s = Scale::quick();
        s.ycsb_records = 4_000;
        s.measure_secs = 0.004;
        s.phase_secs = 0.004;
        s.interval_min_secs = 0.002;
        s.interval_max_secs = 0.008;
        s
    }

    #[test]
    fn serving_scenarios_are_valid_and_serializable() {
        let scenario = serving_scenario("t", 0.01, 50_000.0);
        scenario.validate().expect("serving timeline is valid");
        assert_eq!(Scenario::from_json(&scenario.to_json()).unwrap(), scenario);
        let burst = overload02_scenario(&tiny_scale(), 100_000.0);
        burst.validate().expect("burst timeline is valid");
        assert_eq!(Scenario::from_json(&burst.to_json()).unwrap(), burst);
    }

    #[test]
    fn overload01_produces_one_row_per_multiplier_and_conserves() {
        let (fig, outcomes) = overload01_load_sweep(&tiny_scale());
        assert_eq!(outcomes.len(), OVERLOAD_MULTIPLIERS.len() * 4);
        assert_eq!(fig.rows.len(), OVERLOAD_MULTIPLIERS.len());
        // 1 multiplier column + 3 metric groups × 4 designs.
        assert_eq!(fig.header.len(), 13);
        // Goodput is positive everywhere; rejection percentages are
        // percentages.
        for c in 1..=4 {
            for v in fig.column(c) {
                assert!(v > 0.0, "column {c} holds a non-positive goodput");
            }
        }
        for c in 9..=12 {
            for v in fig.column(c) {
                assert!((0.0..=100.0).contains(&v));
            }
        }
        // Past saturation the queue must actually reject: at 3x offered
        // load a 128-slot queue cannot absorb the excess for any design.
        let last = fig.rows.last().expect("3x row");
        let any_rejecting = (9..=12).any(|c| last[c].parse::<f64>().unwrap_or(0.0) > 0.0);
        assert!(any_rejecting, "3x saturation rejected nothing: {last:?}");
    }

    #[test]
    fn overload02_runs_three_labelled_segments_on_every_design() {
        let scale = tiny_scale();
        for r in run_sweep(overload02_jobs(&scale), 2) {
            let outcome = r.outcome.expect("overload02 job runs");
            let labels: Vec<&str> = outcome.segments.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(labels, vec!["baseline", "burst", "recovery"]);
            for seg in &outcome.segments {
                let s = &seg.stats;
                assert!(s.open_loop, "{}/{} is not open loop", r.name, seg.label);
                assert_eq!(s.offered, s.admitted + s.rejected);
                assert_eq!(
                    s.admitted + s.queue_depth_start,
                    s.committed + s.aborted + s.queue_depth_end,
                    "{}/{}: queue accounting must balance",
                    r.name,
                    seg.label
                );
                assert_eq!(s.latency_histogram.count(), s.committed);
            }
        }
    }
}
