//! Parallel-lab determinism regression test.
//!
//! The experiment lab's contract: a job list produces byte-identical
//! serialized reports no matter how many OS threads run it.  This test
//! builds a miniature wallclock bundle — adaptive figure timelines plus a
//! TATP design sweep, the same job constructors the harness uses — and
//! runs it with 1 thread and with 4, comparing the full serialized
//! `ScenarioOutcome` of every component (committed counts, segment stats,
//! time series, design stats).

use atrapos_bench::figures::{shipped_spec, timeline_jobs};
use atrapos_bench::harness::{machine, measurement_job, timeline_job, Scale};
use atrapos_engine::scenario::{Scenario, ScenarioOutcome};
use atrapos_engine::sweep::{run_sweep, SweepJob};
use atrapos_engine::DesignSpec;
use atrapos_workloads::{Tatp, TatpConfig};

fn tiny_scale() -> Scale {
    let mut s = Scale::quick();
    s.tatp_subscribers = 4_000;
    s.ycsb_records = 4_000;
    s.measure_secs = 0.004;
    s.phase_secs = 0.004;
    s.interval_min_secs = 0.002;
    s.interval_max_secs = 0.008;
    s
}

/// A reduced wallclock bundle: four figure variants, the four-design
/// ycsb02 drifting-hotspot timeline, a four-design TATP sweep, and a
/// four-design spec-driven declarative workload (16 jobs).
fn bundle() -> Vec<SweepJob> {
    let scale = tiny_scale();
    let mut jobs: Vec<SweepJob> = ["fig10", "fig11", "ycsb02"]
        .into_iter()
        .flat_map(|id| timeline_jobs(id, &scale).expect("a timeline experiment"))
        .collect();
    for spec in [
        DesignSpec::Centralized,
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::Plp,
        DesignSpec::atrapos(),
    ] {
        jobs.push(measurement_job(
            format!("tatp/{}", spec.label()),
            machine(2, 2),
            spec,
            Box::new(Tatp::new(TatpConfig::scaled(scale.tatp_subscribers))),
            scale.measure_secs,
        ));
    }
    // Spec-driven jobs: a declarative workload compiled from a shipped
    // spec file, including tail inserts and range scans, must hold the
    // same thread-count contract as the hand-rolled modules.
    let spec = shipped_spec("scan_write.json").unwrap_or_else(|e| panic!("{e}"));
    let scenario = Scenario::new("sweep-determinism-spec", scale.measure_secs);
    for design in [
        DesignSpec::Centralized,
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::Plp,
        DesignSpec::atrapos(),
    ] {
        jobs.push(timeline_job(
            format!("spec/{}", design.label()),
            &scale,
            design,
            Box::new(spec.compile().expect("shipped spec compiles")),
            &scenario,
        ));
    }
    jobs
}

fn serialized_report(threads: usize) -> Vec<(String, String)> {
    run_sweep(bundle(), threads)
        .into_iter()
        .map(|r| {
            let outcome: ScenarioOutcome = r
                .outcome
                .unwrap_or_else(|e| panic!("component '{}' failed: {e}", r.name));
            assert!(
                outcome.total_committed() > 0,
                "component '{}' committed nothing — the reduced scale is broken",
                r.name
            );
            (r.name, serde::json::to_string_pretty(&outcome))
        })
        .collect()
}

#[test]
fn sweep_reports_are_byte_identical_across_thread_counts() {
    let serial = serialized_report(1);
    let parallel = serialized_report(4);
    assert_eq!(serial.len(), parallel.len());
    for ((s_name, s_json), (p_name, p_json)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s_name, p_name, "job order must not depend on threads");
        assert_eq!(
            s_json, p_json,
            "component '{s_name}' serialized differently under 1 vs 4 threads"
        );
    }
}
