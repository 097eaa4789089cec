//! Determinism regression test.
//!
//! The virtual-time simulator promises bit-for-bit reproducibility: the
//! same experiment description (design spec + workload seed + scenario
//! timeline) must yield byte-identical serialized segment reports every
//! time it runs.  This test loads the shipped JSON experiment
//! (`examples/scenarios/adaptive_tatp.json`) through the same
//! [`atrapos_bench::replay::ReplayFile`] loader `atrapos replay` uses,
//! executes it twice in one process, and compares the serialized outcomes.
//!
//! The experiment is scaled down (fewer subscribers, shorter timeline)
//! so the test also runs quickly in debug builds; the *structure* —
//! design spec, event sequence, relative offsets — is exactly the shipped
//! file's.

use atrapos_bench::replay::ReplayFile;
use std::path::PathBuf;

fn shipped_replay() -> ReplayFile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/adaptive_tatp.json");
    ReplayFile::load(&path).unwrap_or_else(|e| panic!("{e}"))
}

/// Shrink the experiment for test budgets while keeping its structure.
fn shrink(replay: &mut ReplayFile, factor: f64) {
    replay.tatp_subscribers = (replay.tatp_subscribers / 10).max(1_000);
    replay.interval_secs /= factor;
    replay.scenario.duration_secs /= factor;
    for e in &mut replay.scenario.events {
        e.at_secs /= factor;
    }
}

/// The adaptive ycsb02 variant (drifting hotspot, stateful sampler,
/// monotone insert cursor) twice in one process must serialize byte-
/// identically — the drift counter and cursor are owned per job, so a
/// rerun starts from the exact same state.
#[test]
fn ycsb_drift_experiment_is_byte_identical_across_runs() {
    use atrapos_bench::figures::ycsb02_jobs;
    use atrapos_bench::Scale;

    let scale = {
        let mut s = Scale::quick();
        s.ycsb_records = 4_000;
        s.phase_secs = 0.01;
        s.interval_min_secs = 0.002;
        s.interval_max_secs = 0.008;
        s
    };
    let run_adaptive = || {
        let job = ycsb02_jobs(&scale)
            .into_iter()
            .find(|j| j.name.ends_with("ATraPos"))
            .expect("the adaptive variant is in the job list");
        job.run().expect("ycsb02 scenario runs")
    };
    let first = run_adaptive();
    let second = run_adaptive();
    assert!(first.total_committed() > 0);
    assert_eq!(
        serde::json::to_string_pretty(&first),
        serde::json::to_string_pretty(&second),
        "two in-process runs of the ycsb02 adaptive experiment serialized differently"
    );
}

/// The open-loop overload02 variant (Poisson arrivals, admission queue,
/// burst timeline) twice in one process must serialize byte-identically —
/// the arrival RNG is seeded from the job's config, so a rerun replays
/// the exact same arrival sequence.
#[test]
fn open_loop_experiment_is_byte_identical_across_runs() {
    use atrapos_bench::figures::overload02_jobs;
    use atrapos_bench::Scale;

    let scale = {
        let mut s = Scale::quick();
        s.ycsb_records = 4_000;
        s.measure_secs = 0.004;
        s.phase_secs = 0.004;
        s.interval_min_secs = 0.002;
        s.interval_max_secs = 0.008;
        s
    };
    let run_open_loop = || {
        let job = overload02_jobs(&scale)
            .into_iter()
            .find(|j| j.name.ends_with("ATraPos"))
            .expect("the adaptive variant is in the job list");
        job.run().expect("overload02 scenario runs")
    };
    let first = run_open_loop();
    let second = run_open_loop();
    assert!(first.total_committed() > 0);
    assert!(
        first
            .segments
            .iter()
            .all(|s| s.stats.open_loop && s.stats.offered > 0),
        "every overload02 segment serves open loop"
    );
    assert_eq!(
        serde::json::to_string_pretty(&first),
        serde::json::to_string_pretty(&second),
        "two in-process runs of the overload02 open-loop experiment serialized differently"
    );
}

#[test]
fn replay_experiment_is_byte_identical_across_runs() {
    let mut replay = shipped_replay();
    shrink(&mut replay, 5.0);

    let first = replay.run().expect("scenario runs");
    let second = replay.run().expect("scenario runs");

    let a = serde::json::to_string_pretty(&first);
    let b = serde::json::to_string_pretty(&second);
    assert!(
        first.total_committed() > 0,
        "determinism run committed nothing — the shrunken scale is broken"
    );
    assert_eq!(
        a, b,
        "two in-process runs of the same replay experiment serialized differently"
    );
}

/// A spec-driven job (declarative workload compiled from a shipped
/// `examples/specs` file, including its stateful insert cursor and
/// adaptive design) twice in one process must serialize byte-identically
/// — compiling the spec twice yields fully independent generator state.
#[test]
fn spec_driven_experiment_is_byte_identical_across_runs() {
    use atrapos_bench::figures::{shipped_spec, ycsb_designs};
    use atrapos_bench::harness::timeline_job;
    use atrapos_bench::Scale;
    use atrapos_engine::scenario::Scenario;

    let scale = {
        let mut s = Scale::quick();
        s.ycsb_records = 4_000;
        s.measure_secs = 0.004;
        s.interval_min_secs = 0.002;
        s.interval_max_secs = 0.008;
        s
    };
    let spec = shipped_spec("scan_write.json").unwrap_or_else(|e| panic!("{e}"));
    let run = || {
        let (label, design) = ycsb_designs(&scale)
            .into_iter()
            .find(|(label, _)| *label == "ATraPos")
            .expect("the adaptive design is in the list");
        timeline_job(
            format!("{}/{label}", spec.name),
            &scale,
            design,
            Box::new(spec.compile().expect("shipped spec compiles")),
            &Scenario::new("spec-determinism", scale.measure_secs),
        )
        .run()
        .expect("spec scenario runs")
    };
    let first = run();
    let second = run();
    assert!(first.total_committed() > 0);
    assert_eq!(
        serde::json::to_string_pretty(&first),
        serde::json::to_string_pretty(&second),
        "two in-process runs of the spec-driven experiment serialized differently"
    );
}
