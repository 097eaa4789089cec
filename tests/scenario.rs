//! The scenario layer end to end: serde round-trips for the declarative
//! experiment vocabulary (property-based), and equivalence between a
//! scenario-driven run and the hand-rolled phase loop it replaced.

use atrapos_core::{AdaptiveInterval, ControllerConfig, KeyDistribution};
use atrapos_engine::scenario::{Scenario, ScenarioEvent, TimedEvent};
use atrapos_engine::{
    ArrivalProcess, AtraposConfig, DesignSpec, ExecutorConfig, VirtualExecutor, WorkloadChange,
};
use atrapos_numa::{CostModel, Machine, Topology};
use atrapos_workloads::{Tatp, TatpConfig, TatpTxn};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Serde round-trips (property-based)
// ---------------------------------------------------------------------

fn distribution_strategy() -> impl Strategy<Value = KeyDistribution> {
    prop_oneof![
        1 => (0u32..1).prop_map(|_| KeyDistribution::Uniform),
        2 => (0.05f64..0.95, 0.05f64..0.95).prop_map(|(d, a)| KeyDistribution::Hotspot {
            data_fraction: d,
            access_fraction: a,
        }),
        2 => (0.0f64..1.2).prop_map(|theta| KeyDistribution::Zipfian { theta }),
        2 => (0.05f64..0.5, 0.05f64..0.95, 100u64..1_000_000).prop_map(|(d, a, p)| {
            KeyDistribution::Drift {
                data_fraction: d,
                access_fraction: a,
                period_txns: p,
            }
        }),
    ]
}

fn change_strategy() -> impl Strategy<Value = WorkloadChange> {
    let txn = prop::sample::select(vec![
        "GetSubData".to_string(),
        "GetNewDest".to_string(),
        "UpdSubData".to_string(),
        "NewOrder".to_string(),
        "RMW".to_string(),
    ]);
    prop_oneof![
        2 => txn.prop_map(|txn| WorkloadChange::SingleTransaction { txn }),
        1 => (0u32..1).prop_map(|_| WorkloadChange::StandardMix),
        2 => distribution_strategy()
            .prop_map(|distribution| WorkloadChange::Distribution { distribution }),
    ]
}

fn arrival_process_strategy() -> impl Strategy<Value = ArrivalProcess> {
    (100.0f64..200_000.0).prop_map(|rate_tps| ArrivalProcess::Poisson { rate_tps })
}

fn event_strategy() -> impl Strategy<Value = ScenarioEvent> {
    prop_oneof![
        2 => prop::sample::select(vec!["GetNewDest".to_string(), "UpdSubData".to_string()])
            .prop_map(|txn| ScenarioEvent::SetWorkloadPhase { txn }),
        1 => (0u32..1).prop_map(|_| ScenarioEvent::SetMix),
        2 => distribution_strategy()
            .prop_map(|distribution| ScenarioEvent::SetSkew { distribution }),
        1 => (0u16..8).prop_map(|socket| ScenarioEvent::FailSocket { socket }),
        1 => (0u16..8).prop_map(|socket| ScenarioEvent::RestoreSocket { socket }),
        1 => (0u32..1).prop_map(|_| ScenarioEvent::Measure),
        1 => (100.0f64..200_000.0).prop_map(|rate_tps| ScenarioEvent::SetArrivalRate { rate_tps }),
        1 => (1u64..10_000).prop_map(|bound| ScenarioEvent::SetAdmissionBound { bound }),
        1 => arrival_process_strategy()
            .prop_map(|process| ScenarioEvent::SetArrivalProcess { process }),
    ]
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec((0.0f64..1.0, event_strategy(), any::<bool>()), 0..8),
        0.05f64..2.0,
    )
        .prop_map(|(raw, extra)| {
            // Sort offsets so the timeline is valid by construction.
            let mut raw = raw;
            raw.sort_by(|a, b| a.0.total_cmp(&b.0));
            let duration = 1.0 + extra;
            let events = raw
                .into_iter()
                .enumerate()
                .map(|(i, (at_secs, event, labelled))| TimedEvent {
                    at_secs,
                    label: labelled.then(|| format!("phase{i}")),
                    event,
                })
                .collect();
            Scenario {
                name: "prop-scenario".to_string(),
                initial_label: "start".to_string(),
                duration_secs: duration,
                events,
            }
        })
}

proptest! {
    /// Every `WorkloadChange` survives a JSON round-trip bit-exactly.
    #[test]
    fn workload_changes_round_trip(change in change_strategy()) {
        let text = serde::json::to_string(&change);
        let back: WorkloadChange = serde::json::from_str(&text).unwrap();
        prop_assert_eq!(back, change);
    }

    /// Every generated scenario is valid and survives a JSON round-trip.
    #[test]
    fn scenarios_round_trip(scenario in scenario_strategy()) {
        prop_assert!(scenario.validate().is_ok());
        let json = scenario.to_json();
        let back = Scenario::from_json(&json).unwrap();
        prop_assert_eq!(back, scenario);
    }

    /// Non-positive or non-finite arrival rates — and zero admission
    /// bounds — are rejected by `Scenario::validate` wherever they sit on
    /// the timeline.
    #[test]
    fn malformed_arrival_events_are_rejected_by_validation(
        bad_rate in prop_oneof![
            Just(0.0f64),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            -1e9f64..0.0,
        ],
        at in 0.0f64..0.5,
    ) {
        let rate = Scenario::new("bad-rate", 1.0)
            .at_unlabelled(at, ScenarioEvent::SetArrivalRate { rate_tps: bad_rate });
        prop_assert!(rate.validate().is_err());
        let bound = Scenario::new("bad-bound", 1.0)
            .at_unlabelled(at, ScenarioEvent::SetAdmissionBound { bound: 0 });
        prop_assert!(bound.validate().is_err());
    }

    /// A Poisson process at a rate that is not positive and finite (0,
    /// negative, NaN, ∞) is rejected through `SetArrivalProcess`
    /// validation.
    #[test]
    fn malformed_arrival_processes_are_rejected_by_validation(
        rate_tps in prop_oneof![
            Just(0.0f64),
            -1e6f64..0.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
        ],
        at in 0.0f64..1.0,
    ) {
        let scenario = Scenario::new("bad-process", 1.0).at_unlabelled(
            at,
            ScenarioEvent::SetArrivalProcess {
                process: ArrivalProcess::Poisson { rate_tps },
            },
        );
        prop_assert!(scenario.validate().is_err());
    }

    /// Design specs re-serialize to identical JSON after a round-trip
    /// (AtraposConfig has no PartialEq, so the text form is the witness).
    #[test]
    fn design_specs_round_trip(
        locking in any::<bool>(),
        monitoring in any::<bool>(),
        adaptive in any::<bool>(),
        sub_per in 1usize..40,
        which in 0usize..4,
    ) {
        let spec = match which {
            0 => DesignSpec::Centralized,
            1 => DesignSpec::extreme_shared_nothing(locking),
            2 => DesignSpec::Plp,
            _ => DesignSpec::atrapos_with(AtraposConfig {
                monitoring,
                adaptive: monitoring && adaptive,
                sub_per_partition: sub_per,
                ..AtraposConfig::default()
            }),
        };
        let text = serde::json::to_string(&spec);
        let back: DesignSpec = serde::json::from_str(&text).unwrap();
        prop_assert_eq!(serde::json::to_string(&back), text);
        prop_assert_eq!(back.label(), spec.label());
    }
}

// ---------------------------------------------------------------------
// Scenario-driven vs. hand-rolled equivalence
// ---------------------------------------------------------------------

/// A reduced Figure-10 setup: small TATP, short phases, but still several
/// monitoring intervals per phase so the adaptation behaviour is exercised.
const PHASE_SECS: f64 = 0.03;
const INTERVAL_MIN_SECS: f64 = 0.005;
const INTERVAL_MAX_SECS: f64 = 0.04;

fn tatp_executor(adaptive: bool) -> VirtualExecutor {
    let machine = Machine::new(Topology::multisocket(4, 2), CostModel::westmere());
    let mut workload = Tatp::new(TatpConfig::scaled(4_000));
    workload.set_single(TatpTxn::UpdateSubscriberData);
    let spec = DesignSpec::atrapos_named(
        if adaptive { "atrapos" } else { "static" },
        AtraposConfig {
            monitoring: adaptive,
            adaptive,
            controller: ControllerConfig {
                interval: AdaptiveInterval::new(INTERVAL_MIN_SECS, INTERVAL_MAX_SECS, 0.10),
                ..ControllerConfig::default()
            },
            ..AtraposConfig::default()
        },
    );
    let design = spec.build(&machine, &workload);
    VirtualExecutor::new(
        machine,
        design,
        Box::new(workload),
        ExecutorConfig {
            seed: 42,
            default_interval_secs: INTERVAL_MIN_SECS,
            time_series_bucket_secs: INTERVAL_MIN_SECS,
        },
    )
}

fn fig10_like_scenario(phase_secs: f64) -> Scenario {
    Scenario::new("equivalence", 3.0 * phase_secs)
        .starting_as("UpdSubData")
        .at(
            phase_secs,
            "GetNewDest",
            ScenarioEvent::SetWorkloadPhase {
                txn: "GetNewDest".to_string(),
            },
        )
        .at(2.0 * phase_secs, "TATP-Mix", ScenarioEvent::SetMix)
}

/// The scenario runner is a pure reformulation of the old hand-rolled phase
/// loop: same segments, same reconfigurations, same committed counts.
#[test]
fn scenario_run_matches_hand_rolled_loop() {
    let phase = PHASE_SECS;
    let outcome = tatp_executor(true)
        .run_scenario(&fig10_like_scenario(phase))
        .expect("scenario runs");

    // The hand-rolled loop the scenario API replaced.
    let mut manual = tatp_executor(true);
    let mut manual_segments = Vec::new();
    manual_segments.push(manual.run_for(phase));
    manual
        .reconfigure_workload(&WorkloadChange::SingleTransaction {
            txn: "GetNewDest".to_string(),
        })
        .unwrap();
    manual_segments.push(manual.run_for(phase));
    manual
        .reconfigure_workload(&WorkloadChange::StandardMix)
        .unwrap();
    manual_segments.push(manual.run_for(phase));

    assert_eq!(outcome.segments.len(), manual_segments.len());
    for (s, m) in outcome.segments.iter().zip(&manual_segments) {
        assert_eq!(s.stats.committed, m.committed, "segment '{}'", s.label);
        assert_eq!(s.stats.aborted, m.aborted, "segment '{}'", s.label);
        assert_eq!(
            s.stats.repartitions, m.repartitions,
            "segment '{}'",
            s.label
        );
    }
}

/// The paper's Figure 10 claim at test scale: after each workload switch
/// the adaptive system keeps committing and ends at least as fast as the
/// static configuration over the post-switch phases.
#[test]
fn adaptive_tatp_recovers_after_phase_change() {
    let phase = PHASE_SECS;
    let scenario = fig10_like_scenario(phase);
    let adaptive = tatp_executor(true).run_scenario(&scenario).unwrap();
    let static_ = tatp_executor(false).run_scenario(&scenario).unwrap();

    for segment in &adaptive.segments {
        assert!(
            segment.stats.committed > 0,
            "adaptive run stalled in segment '{}'",
            segment.label
        );
    }
    let post_switch = |o: &atrapos_engine::ScenarioOutcome| {
        o.segments[1].stats.committed + o.segments[2].stats.committed
    };
    let a = post_switch(&adaptive);
    let s = post_switch(&static_);
    assert!(
        a as f64 >= s as f64 * 0.95,
        "adaptive ({a}) should not trail static ({s}) after the switches"
    );
}

/// The replay file shipped with the repository.
const SHIPPED_REPLAY: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/scenarios/adaptive_tatp.json"
);

/// The shipped replay file parses and its timeline is valid — scenarios
/// really are data on disk.
#[test]
fn shipped_replay_scenario_parses() {
    let text = std::fs::read_to_string(SHIPPED_REPLAY).expect("sample replay file exists");
    let value = serde::json::parse(&text).expect("sample is valid JSON");
    let scenario: Scenario =
        serde::de::Deserialize::from_value(value.get("scenario").expect("has scenario"))
            .expect("scenario parses");
    scenario.validate().expect("scenario is valid");
    assert_eq!(scenario.events.len(), 2);
    let design: DesignSpec =
        serde::de::Deserialize::from_value(value.get("design").expect("has design"))
            .expect("design parses");
    assert_eq!(design.label(), "ATraPos");
}

/// `atrapos replay` on a hand-edited copy of the shipped file whose
/// timeline fails a socket the 4-socket machine does not have: a typed
/// error naming the event, not an index panic in the topology.
#[test]
fn replay_rejects_an_out_of_range_socket_with_a_typed_error() {
    let text = std::fs::read_to_string(SHIPPED_REPLAY).expect("sample replay file exists");
    let edited = text
        .replace("\"tatp_subscribers\": 20000", "\"tatp_subscribers\": 2000")
        .replace(
            "\"event\": \"SetMix\"",
            "\"event\": {\"FailSocket\": {\"socket\": 99}}",
        );
    assert_ne!(edited, text, "edit anchors present in the shipped file");
    let dir = std::env::temp_dir().join(format!("atrapos_replay_oor_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("fail_socket_99.json");
    std::fs::write(&file, edited).expect("write edited replay file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_atrapos"))
        .arg("replay")
        .arg(&file)
        .output()
        .expect("atrapos binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("event 1 at 0.5s names socket 99") && stderr.contains("4 sockets"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

// ---------------------------------------------------------------------
// Declarative workload specs are data too
// ---------------------------------------------------------------------

/// Random valid `WorkloadSpec`s: YCSB-A and SimpleAb with randomized
/// sizes, weights, distributions, and sync payloads.
fn workload_spec_strategy() -> impl Strategy<Value = atrapos_workloads::WorkloadSpec> {
    use atrapos_workloads::spec::{simple_ab, ArgDef};
    prop_oneof![
        (
            100i64..100_000,
            0.1f64..5.0,
            0.1f64..5.0,
            distribution_strategy()
        )
            .prop_map(|(records, w_read, w_update, dist)| {
                let mut spec = atrapos_workloads::YcsbConfig::workload_a(records).spec();
                spec.templates[0].weight = w_read;
                spec.templates[1].weight = w_update;
                if let ArgDef::Key { distribution, .. } = &mut spec.templates[0].args[0] {
                    *distribution = dist;
                }
                spec
            }),
        (100i64..50_000, prop::option::of(1u64..4_096)).prop_map(|(rows, sync)| {
            let mut spec = simple_ab(rows);
            spec.templates[0].phases[0].sync_bytes = sync;
            spec
        }),
    ]
}

proptest! {
    /// Every generated `WorkloadSpec` is valid and survives both the
    /// pretty (`to_json`/`from_json`) and the compact JSON round-trip
    /// bit-exactly.
    #[test]
    fn workload_specs_round_trip(spec in workload_spec_strategy()) {
        prop_assert!(spec.validate().is_ok());
        let back = atrapos_workloads::WorkloadSpec::from_json(&spec.to_json()).unwrap();
        prop_assert_eq!(&back, &spec);
        let compact = serde::json::to_string(&spec);
        let back: atrapos_workloads::WorkloadSpec = serde::json::from_str(&compact).unwrap();
        prop_assert_eq!(back, spec);
    }

    /// Every generated `WorkloadSpec` survives the `serde::Value`
    /// round-trip (the path replay-style embeddings use).
    #[test]
    fn workload_specs_round_trip_through_values(spec in workload_spec_strategy()) {
        use serde::de::Deserialize;
        use serde::ser::Serialize;
        let value = spec.to_value();
        let back = atrapos_workloads::WorkloadSpec::from_value(&value).unwrap();
        prop_assert_eq!(back, spec);
    }
}

/// Malformed spec JSON is rejected at load with a typed parse error, not
/// a panic — the vocabulary itself is the first validation layer.
#[test]
fn malformed_spec_json_is_rejected_with_a_typed_error() {
    let err = atrapos_workloads::WorkloadSpec::from_json("{\"name\": \"x\"}").unwrap_err();
    assert!(matches!(err, atrapos_workloads::SpecError::Parse { .. }));
}
