//! Golden-figure regression tests.
//!
//! The committed Figure 10–13 scenario timelines run at a fixed seed on a
//! reduced scale, and the per-segment `RunStats` (committed / aborted /
//! throughput / repartitionings) must match the snapshot JSON files under
//! `tests/goldens/`.  The virtual-time simulator is fully deterministic, so
//! any mismatch means a change to the *simulated behaviour* — which every
//! pure performance refactor must avoid (same seed ⇒ same simulated
//! stats).
//!
//! To regenerate the snapshots after an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p atrapos-bench --test golden_figures
//! ```
//!
//! then commit the updated files together with the change that explains
//! them.

use atrapos_bench::figures::timeline_jobs;
use atrapos_bench::Scale;
use atrapos_engine::scenario::ScenarioOutcome;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The fixed scale the goldens are recorded at: small enough that the whole
/// suite runs in seconds even unoptimized, large enough that the adaptive
/// controller still observes several monitoring intervals per phase.
fn golden_scale() -> Scale {
    let mut s = Scale::quick();
    s.tatp_subscribers = 4_000;
    s.ycsb_records = 4_000;
    s.phase_secs = 0.01;
    s.interval_min_secs = 0.002;
    s.interval_max_secs = 0.008;
    s
}

/// One segment of a golden snapshot.  Floats are compared exactly: the
/// simulator is deterministic and JSON float printing round-trips.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenSegment {
    label: String,
    start_secs: f64,
    committed: u64,
    aborted: u64,
    throughput_tps: f64,
    repartitions: u64,
}

/// A golden snapshot of one scenario × variant run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenFile {
    scenario: String,
    variant: String,
    segments: Vec<GoldenSegment>,
}

fn golden_of(outcome: &ScenarioOutcome, variant: &str) -> GoldenFile {
    GoldenFile {
        scenario: outcome.scenario.clone(),
        variant: variant.to_string(),
        segments: outcome
            .segments
            .iter()
            .map(|s| GoldenSegment {
                label: s.label.clone(),
                start_secs: s.start_secs,
                committed: s.stats.committed,
                aborted: s.stats.aborted,
                throughput_tps: s.stats.throughput_tps,
                repartitions: s.stats.repartitions,
            })
            .collect(),
    }
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

/// Run the figure's own lab job `<id>/<variant>` at the golden scale and
/// compare it with `tests/goldens/<id>_<variant>.json`.
fn check_golden(id: &str, variant: &str) {
    let job = timeline_jobs(id, &golden_scale())
        .expect("a timeline experiment")
        .into_iter()
        .find(|j| j.name == format!("{id}/{variant}"))
        .expect("the figure runs this variant");
    let outcome = job.run().expect("figure scenario runs");
    check_outcome_golden(&format!("{id}_{variant}"), variant, &outcome);
}

fn check_outcome_golden(name: &str, variant: &str, outcome: &ScenarioOutcome) {
    let got = golden_of(outcome, variant);
    assert!(
        got.segments.iter().any(|s| s.committed > 0),
        "{name}: golden run committed nothing — the scale is broken"
    );

    let path = goldens_dir().join(format!("{name}.json"));
    if std::env::var("UPDATE_GOLDENS")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&path, serde::json::to_string_pretty(&got)).expect("write golden");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             run `UPDATE_GOLDENS=1 cargo test -p atrapos-bench --test golden_figures` to create it",
            path.display()
        )
    });
    let want: GoldenFile = serde::json::from_str(&text)
        .unwrap_or_else(|e| panic!("unparseable golden {}: {e}", path.display()));
    assert_eq!(
        want, got,
        "\n{name}: simulated per-segment stats diverged from the committed golden snapshot.\n\
         If this behaviour change is intentional, regenerate with\n\
         UPDATE_GOLDENS=1 cargo test -p atrapos-bench --test golden_figures\n"
    );
}

#[test]
fn fig10_static_matches_golden() {
    check_golden("fig10", "static");
}

#[test]
fn fig10_adaptive_matches_golden() {
    check_golden("fig10", "atrapos");
}

#[test]
fn fig11_static_matches_golden() {
    check_golden("fig11", "static");
}

#[test]
fn fig11_adaptive_matches_golden() {
    check_golden("fig11", "atrapos");
}

#[test]
fn fig12_static_matches_golden() {
    check_golden("fig12", "static");
}

#[test]
fn fig12_adaptive_matches_golden() {
    check_golden("fig12", "atrapos");
}

#[test]
fn fig13_adaptive_matches_golden() {
    check_golden("fig13", "atrapos");
}

#[test]
fn ycsb02_matches_goldens_on_all_four_designs() {
    // The drifting-hotspot timeline, pinned per design: the golden file
    // name is derived from the job name (`ycsb02/<design label>`).
    for job in timeline_jobs("ycsb02", &golden_scale()).expect("a timeline experiment") {
        let name = job.name.to_lowercase().replace(['/', '-', ' '], "_");
        let variant = job.name.clone();
        let outcome = job.run().expect("ycsb02 golden scenario runs");
        check_outcome_golden(&name, &variant, &outcome);
    }
}
