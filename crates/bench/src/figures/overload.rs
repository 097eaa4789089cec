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

use super::ycsb::{ycsb02_workload, ycsb_designs, ycsb_job, DESIGN_LABELS};
use crate::harness::{fold_rows, labelled, run, run_meta, stats, time_series_figure, Scale};
use crate::report::FigureResult;
use atrapos_engine::scenario::{Scenario, ScenarioEvent, ScenarioOutcome};
use atrapos_engine::sweep::SweepJob;
use atrapos_engine::DesignSpec;

/// Offered-load multiples of each design's saturation throughput swept by
/// overload01.
pub const OVERLOAD_MULTIPLIERS: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];

/// The admission-queue bound of both experiments: deep enough to absorb
/// scheduling jitter, shallow enough that sustained overload rejects
/// (and p99 stays a queue-bound multiple of service time, not unbounded).
pub const ADMISSION_BOUND: u64 = 128;

/// Closed-loop saturation throughput of every design, in table order —
/// the per-design "1×" the open-loop rates are multiples of.  Measured
/// with the exact YCSB-A uniform workload the open-loop jobs serve.
fn saturation_tps(scale: &Scale) -> Vec<f64> {
    let scenario = Scenario::new("overload-calibration", scale.measure_secs);
    let jobs = ycsb_designs(scale)
        .into_iter()
        .map(|(label, design)| {
            serving_job(
                format!("overload-calibrate/{label}"),
                scale,
                design,
                &scenario,
            )
        })
        .collect();
    run(jobs).iter().map(|o| stats(o).throughput_tps).collect()
}

/// One lab job serving the uniform YCSB-A workload of both experiments.
fn serving_job(name: String, scale: &Scale, design: DesignSpec, scenario: &Scenario) -> SweepJob {
    ycsb_job(name, scale, ycsb02_workload(scale), design, scenario)
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

/// The overload01 lab jobs, row-major: every offered-load multiple × every
/// design, rates calibrated to each design's saturation.
pub fn overload01_jobs(scale: &Scale) -> Vec<SweepJob> {
    let designs: Vec<_> = ycsb_designs(scale)
        .into_iter()
        .zip(saturation_tps(scale))
        .collect();
    let mut jobs = Vec::new();
    for mult in OVERLOAD_MULTIPLIERS {
        for ((label, design), sat) in &designs {
            jobs.push(serving_job(
                format!("overload01/x{mult}/{label}"),
                scale,
                design.clone(),
                &serving_scenario("overload01-load-sweep", scale.measure_secs, mult * sat),
            ));
        }
    }
    jobs
}

/// overload01: goodput, p99 latency, and rejection rate vs offered load
/// (0.5×–3× of each design's own saturation) on all four designs.
pub fn overload01_load_sweep(scale: &Scale, outcomes: &[ScenarioOutcome]) -> FigureResult {
    let mut header = vec!["offered (x sat)".to_string()];
    for column in ["goodput (KTPS)", "p99 (us)", "rejected (%)"] {
        header.extend(DESIGN_LABELS.map(|label| format!("{label} {column}")));
    }
    let mut fig = FigureResult::new(
        "overload01",
        "Open-loop overload: goodput, p99, and rejection vs offered load",
        header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    fold_rows(&mut fig, &OVERLOAD_MULTIPLIERS, outcomes, |mult, served| {
        let goodput = served.iter().map(|s| s.throughput_tps / 1e3);
        let p99 = served.iter().map(|s| s.p99_latency_us);
        let rejected = served.iter().map(|s| match s.offered {
            0 => 0.0,
            offered => 100.0 * s.rejected as f64 / offered as f64,
        });
        labelled(mult, goodput.chain(p99).chain(rejected))
    });
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
    fig.set_meta(run_meta(4, 4));
    fig
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
    ycsb_designs(scale)
        .into_iter()
        .zip(saturation_tps(scale))
        .map(|((label, design), sat)| {
            serving_job(
                format!("overload02/{label}"),
                scale,
                design,
                &overload02_scenario(scale, sat),
            )
        })
        .collect()
}

/// overload02: the burst-recovery timeline (goodput in KTPS over time)
/// across all four designs.
pub fn overload02_burst_recovery(scale: &Scale, outcomes: &[ScenarioOutcome]) -> FigureResult {
    let mut fig = time_series_figure(
        "overload02",
        "Burst recovery under open-loop load (goodput, KTPS over time)",
        &DESIGN_LABELS,
        outcomes,
    );
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
    fig.set_meta(run_meta(4, 4));
    fig
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
        let scale = tiny_scale();
        let outcomes = run(overload01_jobs(&scale));
        assert_eq!(outcomes.len(), OVERLOAD_MULTIPLIERS.len() * 4);
        let fig = overload01_load_sweep(&scale, &outcomes);
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
        for outcome in run(overload02_jobs(&scale)) {
            let name = &outcome.design;
            let labels: Vec<&str> = outcome.segments.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(labels, vec!["baseline", "burst", "recovery"]);
            for seg in &outcome.segments {
                let s = &seg.stats;
                assert!(s.open_loop, "{name}/{} is not open loop", seg.label);
                assert_eq!(s.offered, s.admitted + s.rejected);
                assert_eq!(
                    s.admitted + s.queue_depth_start,
                    s.committed + s.aborted + s.queue_depth_end,
                    "{name}/{}: queue accounting must balance",
                    seg.label
                );
                assert_eq!(s.latency_histogram.count(), s.committed);
            }
        }
    }
}
