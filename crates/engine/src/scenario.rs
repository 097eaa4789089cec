//! Declarative experiment timelines.
//!
//! The paper's headline experiments (Figures 10–13, the hardware-failure
//! run) are *scenarios*: a workload runs while typed events fire at
//! virtual-time offsets — the transaction mix switches, skew appears, a
//! processor socket fails.  A [`Scenario`] captures such a timeline as
//! plain serializable data: an event list plus a total duration.  The
//! executor interprets it with [`VirtualExecutor::run_scenario`], emitting
//! one labelled [`RunStats`] segment per inter-event span, so the same
//! scenario can be stored in a file, replayed, swept over designs, and
//! compared — no hand-rolled phase loops, no downcasts.
//!
//! ```
//! use atrapos_engine::scenario::{Scenario, ScenarioEvent};
//!
//! // Figure 10 in miniature: two mix switches at 0.25s and 0.5s.
//! let scenario = Scenario::new("adapt-to-workload-change", 0.75)
//!     .starting_as("UpdSubData")
//!     .at(0.25, "GetNewDest", ScenarioEvent::SetWorkloadPhase { txn: "GetNewDest".into() })
//!     .at(0.50, "TATP-Mix", ScenarioEvent::SetMix);
//! assert_eq!(scenario.events.len(), 2);
//! let json = scenario.to_json();
//! assert_eq!(Scenario::from_json(&json).unwrap(), scenario);
//! ```

use crate::arrival::ArrivalProcess;
use crate::designs::DesignStats;
use crate::executor::{RunStats, TimePoint, VirtualExecutor};
use crate::workload::{ReconfigureError, WorkloadChange};
use atrapos_core::KeyDistribution;
use atrapos_numa::SocketId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed event on a scenario timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioEvent {
    /// Switch the workload to a single transaction type — the phase
    /// changes of Figures 10 and 13.
    SetWorkloadPhase {
        /// Transaction-type label (e.g. `"GetNewDest"`).
        txn: String,
    },
    /// Restore the workload's standard transaction mix.
    SetMix,
    /// Change the key-access distribution — Figure 11's sudden hotspot.
    SetSkew {
        /// The new distribution.
        distribution: KeyDistribution,
    },
    /// Set the key-access distribution to a Zipfian with the given
    /// exponent.  A sequence of these events at increasing offsets is a
    /// *theta ramp* — skew that tightens (or relaxes) over the timeline.
    SetZipfTheta {
        /// Zipfian exponent (0 = uniform; YCSB's standard is 0.99).
        theta: f64,
    },
    /// Switch to a named operation mix the workload defines (the YCSB
    /// core mixes "A"–"F").
    SetNamedMix {
        /// Mix name.
        name: String,
    },
    /// Apply any other typed workload change (escape hatch covering the
    /// full [`WorkloadChange`] vocabulary).
    ChangeWorkload {
        /// The change.
        change: WorkloadChange,
    },
    /// Fail a processor socket — the hardware change of Figure 12.
    FailSocket {
        /// Socket index.
        socket: u16,
    },
    /// Restore a previously failed socket.
    RestoreSocket {
        /// Socket index.
        socket: u16,
    },
    /// Override the executor's default monitoring interval from this point
    /// on.
    SetInterval {
        /// New default interval in virtual seconds.
        secs: f64,
    },
    /// Switch the executor to open-loop serving with Poisson arrivals at
    /// the given mean rate (or retune the rate of an already-installed
    /// process).  The rate must be positive and finite.
    SetArrivalRate {
        /// Mean offered load in transactions per virtual second.
        rate_tps: f64,
    },
    /// Set the admission-queue bound for open-loop serving (must be ≥ 1).
    /// Applies immediately if a process is installed, and is remembered
    /// for processes installed later on the timeline.
    SetAdmissionBound {
        /// Maximum queued arrivals before new ones are rejected.
        bound: u64,
    },
    /// Install an arbitrary arrival process — the escape hatch covering
    /// the full [`ArrivalProcess`] vocabulary (bursts, diurnal cycles).
    SetArrivalProcess {
        /// The process.
        process: ArrivalProcess,
    },
    /// Pure measurement boundary: close the current segment and start a
    /// new one without changing anything.
    Measure,
}

impl ScenarioEvent {
    /// The workload change this event carries, if any.
    fn workload_change(&self) -> Option<WorkloadChange> {
        match self {
            ScenarioEvent::SetWorkloadPhase { txn } => {
                Some(WorkloadChange::SingleTransaction { txn: txn.clone() })
            }
            ScenarioEvent::SetMix => Some(WorkloadChange::StandardMix),
            ScenarioEvent::SetSkew { distribution } => Some(WorkloadChange::Distribution {
                distribution: *distribution,
            }),
            ScenarioEvent::SetZipfTheta { theta } => {
                Some(WorkloadChange::ZipfianTheta { theta: *theta })
            }
            ScenarioEvent::SetNamedMix { name } => {
                Some(WorkloadChange::NamedMix { name: name.clone() })
            }
            ScenarioEvent::ChangeWorkload { change } => Some(change.clone()),
            _ => None,
        }
    }
}

/// An event bound to a virtual-time offset, optionally starting a new
/// labelled segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Offset from the scenario start, in virtual seconds.
    pub at_secs: f64,
    /// Label of the segment that begins at this event; `None` keeps the
    /// previous label.
    pub label: Option<String>,
    /// The event.
    pub event: ScenarioEvent,
}

/// A declarative experiment timeline: an event list plus a total duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// Label of the initial segment (before any event fires).
    pub initial_label: String,
    /// Total duration in virtual seconds.
    pub duration_secs: f64,
    /// Events, at offsets within `[0, duration_secs]`.
    pub events: Vec<TimedEvent>,
}

impl Scenario {
    /// An empty scenario of the given virtual duration.
    pub fn new(name: impl Into<String>, duration_secs: f64) -> Self {
        Self {
            name: name.into(),
            initial_label: "start".to_string(),
            duration_secs,
            events: Vec::new(),
        }
    }

    /// Name the initial segment (before any event fires).
    pub fn starting_as(mut self, label: impl Into<String>) -> Self {
        self.initial_label = label.into();
        self
    }

    /// Add an event starting a new labelled segment.
    pub fn at(mut self, at_secs: f64, label: impl Into<String>, event: ScenarioEvent) -> Self {
        self.events.push(TimedEvent {
            at_secs,
            label: Some(label.into()),
            event,
        });
        self
    }

    /// Add an event that keeps the current segment label.
    pub fn at_unlabelled(mut self, at_secs: f64, event: ScenarioEvent) -> Self {
        self.events.push(TimedEvent {
            at_secs,
            label: None,
            event,
        });
        self
    }

    /// Check the timeline is well-formed: positive duration, events in
    /// non-decreasing time order, offsets within the duration.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        // NaN durations/offsets fail the `is_finite` checks, so a timeline
        // with unparseable numbers can never validate.
        if !self.duration_secs.is_finite() || self.duration_secs <= 0.0 {
            return Err(ScenarioError::BadTimeline {
                scenario: self.name.clone(),
                reason: format!("duration must be positive, got {}", self.duration_secs),
            });
        }
        let mut last = 0.0f64;
        for (i, e) in self.events.iter().enumerate() {
            if !e.at_secs.is_finite() || e.at_secs < 0.0 || e.at_secs > self.duration_secs {
                return Err(ScenarioError::BadTimeline {
                    scenario: self.name.clone(),
                    reason: format!(
                        "event {i} at {}s lies outside [0, {}]",
                        e.at_secs, self.duration_secs
                    ),
                });
            }
            if e.at_secs < last {
                return Err(ScenarioError::BadTimeline {
                    scenario: self.name.clone(),
                    reason: format!(
                        "event {i} at {}s is earlier than its predecessor at {last}s",
                        e.at_secs
                    ),
                });
            }
            if let ScenarioEvent::SetInterval { secs } = &e.event {
                if !secs.is_finite() || *secs <= 0.0 {
                    return Err(ScenarioError::BadTimeline {
                        scenario: self.name.clone(),
                        reason: format!(
                            "event {i}: SetInterval needs a positive interval, got {secs}"
                        ),
                    });
                }
            }
            if let ScenarioEvent::SetArrivalRate { rate_tps } = &e.event {
                if !rate_tps.is_finite() || *rate_tps <= 0.0 {
                    return Err(ScenarioError::BadTimeline {
                        scenario: self.name.clone(),
                        reason: format!(
                            "event {i}: SetArrivalRate needs a positive finite rate, \
                             got {rate_tps}"
                        ),
                    });
                }
            }
            if let ScenarioEvent::SetAdmissionBound { bound } = &e.event {
                if *bound < 1 {
                    return Err(ScenarioError::BadTimeline {
                        scenario: self.name.clone(),
                        reason: format!("event {i}: SetAdmissionBound needs a bound ≥ 1"),
                    });
                }
            }
            if let ScenarioEvent::SetArrivalProcess { process } = &e.event {
                if let Err(reason) = process.validate() {
                    return Err(ScenarioError::BadTimeline {
                        scenario: self.name.clone(),
                        reason: format!("event {i}: {reason}"),
                    });
                }
            }
            if let ScenarioEvent::SetZipfTheta { theta } = &e.event {
                if !theta.is_finite() || *theta < 0.0 {
                    return Err(ScenarioError::BadTimeline {
                        scenario: self.name.clone(),
                        reason: format!(
                            "event {i}: SetZipfTheta needs a finite non-negative exponent, \
                             got {theta}"
                        ),
                    });
                }
            }
            last = e.at_secs;
        }
        Ok(())
    }

    /// Serialize to pretty JSON (scenarios are data — store them in
    /// files).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parse a scenario from JSON text.  The parsed timeline is validated,
    /// so a malformed file (unsorted or out-of-range offsets) is rejected at
    /// load time with a typed error instead of misbehaving mid-run.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let scenario: Self =
            serde::json::from_str(text).map_err(|e| ScenarioError::BadTimeline {
                scenario: "<json>".to_string(),
                reason: e.to_string(),
            })?;
        scenario.validate()?;
        Ok(scenario)
    }
}

/// Why a scenario could not be run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The timeline itself is malformed (or failed to parse).
    BadTimeline {
        /// Scenario name.
        scenario: String,
        /// What is wrong.
        reason: String,
    },
    /// A workload-change event was rejected by the workload.
    Reconfigure {
        /// Scenario name.
        scenario: String,
        /// Offset of the rejected event.
        at_secs: f64,
        /// The underlying rejection.
        source: ReconfigureError,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BadTimeline { scenario, reason } => {
                write!(f, "scenario '{scenario}': {reason}")
            }
            ScenarioError::Reconfigure {
                scenario,
                at_secs,
                source,
            } => write!(f, "scenario '{scenario}' at {at_secs}s: {source}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One measured segment of a scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentStats {
    /// Label of the segment (from the event that started it).
    pub label: String,
    /// Segment start, as an offset from the scenario start in virtual
    /// seconds.
    pub start_secs: f64,
    /// Executor statistics of the segment.
    pub stats: RunStats,
}

/// The full result of a scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Name of the scenario that ran.
    pub scenario: String,
    /// Name of the design it ran against.
    pub design: String,
    /// Per-segment statistics, in timeline order.
    pub segments: Vec<SegmentStats>,
    /// The design's structured statistics after the run.
    pub design_stats: DesignStats,
}

impl ScenarioOutcome {
    /// The concatenated throughput time series of every segment (time
    /// points carry absolute virtual time, so segments chain naturally).
    pub fn time_series(&self) -> Vec<TimePoint> {
        self.segments
            .iter()
            .flat_map(|s| s.stats.time_series.iter().copied())
            .collect()
    }

    /// Total committed transactions over the whole run.
    pub fn total_committed(&self) -> u64 {
        self.segments.iter().map(|s| s.stats.committed).sum()
    }

    /// Total repartitionings over the whole run.
    pub fn total_repartitions(&self) -> u64 {
        self.segments.iter().map(|s| s.stats.repartitions).sum()
    }

    /// The segments carrying a given label, in order.
    pub fn segments_labelled<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = &'a SegmentStats> {
        self.segments.iter().filter(move |s| s.label == label)
    }
}

impl VirtualExecutor {
    /// Interpret a scenario timeline: run each inter-event span as one
    /// measured segment, applying events at their offsets.
    ///
    /// Offsets are relative to the executor's current virtual time, so a
    /// scenario can run on a fresh executor or continue an existing run.
    /// Events sharing an offset apply in list order without producing
    /// zero-length segments.  A timeline that names a socket this machine
    /// lacks, or at any point leaves it no active socket, is a
    /// [`ScenarioError::BadTimeline`] before anything runs.
    pub fn run_scenario(&mut self, scenario: &Scenario) -> Result<ScenarioOutcome, ScenarioError> {
        scenario.validate()?;
        // `validate` knows no machine.  Before anything runs, the socket
        // events are replayed against this one's active set: every index
        // must exist, and no prefix may leave the designs without an active
        // socket to run on.
        let mut active: Vec<bool> = self
            .machine()
            .topology
            .sockets()
            .iter()
            .map(|s| s.active)
            .collect();
        let n_sockets = active.len();
        for (i, e) in scenario.events.iter().enumerate() {
            let (socket, up) = match e.event {
                ScenarioEvent::FailSocket { socket } => (socket, false),
                ScenarioEvent::RestoreSocket { socket } => (socket, true),
                _ => continue,
            };
            let why = match active.get_mut(usize::from(socket)) {
                None => format!("names socket {socket}, but the machine has {n_sockets} sockets"),
                Some(slot) => {
                    *slot = up;
                    if active.contains(&true) {
                        continue;
                    }
                    format!("fails socket {socket}, the last active one")
                }
            };
            return Err(ScenarioError::BadTimeline {
                scenario: scenario.name.clone(),
                reason: format!("event {i} at {}s {why}", e.at_secs),
            });
        }
        let mut segments = Vec::new();
        let mut label = scenario.initial_label.clone();
        let mut now = 0.0f64;
        let run_segment =
            |ex: &mut Self, from: f64, to: f64, label: &str, out: &mut Vec<SegmentStats>| {
                if to > from + 1e-12 {
                    let stats = ex.run_for(to - from);
                    out.push(SegmentStats {
                        label: label.to_string(),
                        start_secs: from,
                        stats,
                    });
                }
            };
        for e in &scenario.events {
            run_segment(self, now, e.at_secs, &label, &mut segments);
            now = now.max(e.at_secs);
            if let Some(l) = &e.label {
                label = l.clone();
            }
            if let Some(change) = e.event.workload_change() {
                self.reconfigure_workload(&change).map_err(|source| {
                    ScenarioError::Reconfigure {
                        scenario: scenario.name.clone(),
                        at_secs: e.at_secs,
                        source,
                    }
                })?;
            } else {
                match &e.event {
                    ScenarioEvent::FailSocket { socket } => self
                        .fail_socket(SocketId(*socket))
                        .expect("socket events were checked against this machine"),
                    ScenarioEvent::RestoreSocket { socket } => self
                        .restore_socket(SocketId(*socket))
                        .expect("socket events were checked against this machine"),
                    ScenarioEvent::SetInterval { secs } => self.set_default_interval_secs(*secs),
                    ScenarioEvent::SetArrivalRate { rate_tps } => {
                        self.set_arrival_process(ArrivalProcess::Poisson {
                            rate_tps: *rate_tps,
                        })
                    }
                    ScenarioEvent::SetAdmissionBound { bound } => self.set_admission_bound(*bound),
                    ScenarioEvent::SetArrivalProcess { process } => {
                        self.set_arrival_process(*process)
                    }
                    ScenarioEvent::Measure => {}
                    // Workload changes were handled above.
                    _ => {}
                }
            }
        }
        run_segment(self, now, scenario.duration_secs, &label, &mut segments);
        Ok(ScenarioOutcome {
            scenario: scenario.name.clone(),
            design: self.design().name().to_string(),
            segments,
            design_stats: self.design_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::spec::DesignSpec;
    use crate::executor::ExecutorConfig;
    use crate::workload::testing::TinyWorkload;
    use atrapos_numa::{CostModel, Machine, Topology};

    fn executor() -> VirtualExecutor {
        executor_with(&DesignSpec::atrapos())
    }

    fn executor_with(spec: &DesignSpec) -> VirtualExecutor {
        let machine = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
        let workload = TinyWorkload { rows: 2_000 };
        let design = spec.build(&machine, &workload);
        VirtualExecutor::new(
            machine,
            design,
            Box::new(workload),
            ExecutorConfig {
                seed: 9,
                default_interval_secs: 0.002,
                time_series_bucket_secs: 0.002,
            },
        )
    }

    #[test]
    fn scenario_emits_one_segment_per_span() {
        let scenario = Scenario::new("three-phases", 0.03)
            .starting_as("a")
            .at(0.01, "b", ScenarioEvent::Measure)
            .at(0.02, "c", ScenarioEvent::Measure);
        let outcome = executor().run_scenario(&scenario).unwrap();
        let labels: Vec<&str> = outcome.segments.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        assert!(outcome.segments.iter().all(|s| s.stats.committed > 0));
        assert_eq!(
            outcome.total_committed(),
            outcome
                .segments
                .iter()
                .map(|s| s.stats.committed)
                .sum::<u64>()
        );
    }

    #[test]
    fn scenario_matches_equivalent_run_for_calls() {
        let scenario = Scenario::new("plain", 0.03).at_unlabelled(0.015, ScenarioEvent::Measure);
        let outcome = executor().run_scenario(&scenario).unwrap();
        let mut manual = executor();
        let m1 = manual.run_for(0.015);
        let m2 = manual.run_for(0.015);
        assert_eq!(
            outcome.total_committed(),
            m1.committed + m2.committed,
            "scenario runner must be a pure reformulation of run_for"
        );
    }

    #[test]
    fn fail_and_restore_events_change_the_topology() {
        let scenario = Scenario::new("hw", 0.03)
            .starting_as("before")
            .at(0.01, "failed", ScenarioEvent::FailSocket { socket: 1 })
            .at(0.02, "restored", ScenarioEvent::RestoreSocket { socket: 1 });
        let mut ex = executor();
        let cores_before = ex.machine().topology.num_active_cores();
        let outcome = ex.run_scenario(&scenario).unwrap();
        assert_eq!(ex.machine().topology.num_active_cores(), cores_before);
        assert_eq!(outcome.segments.len(), 3);
        assert!(outcome
            .segments_labelled("failed")
            .all(|s| s.stats.committed > 0));
    }

    #[test]
    fn out_of_range_sockets_are_rejected_before_anything_runs() {
        // Valid as data (a scenario knows no machine), out of range on the
        // 2-socket test machine: a typed error, not an index panic.
        for event in [
            ScenarioEvent::FailSocket { socket: 99 },
            ScenarioEvent::RestoreSocket { socket: 2 },
        ] {
            let scenario = Scenario::new("hw-oor", 0.03)
                .at(0.01, "a", ScenarioEvent::Measure)
                .at(0.02, "b", event);
            scenario.validate().unwrap();
            let mut ex = executor();
            match ex.run_scenario(&scenario).unwrap_err() {
                ScenarioError::BadTimeline { scenario, reason } => {
                    assert_eq!(scenario, "hw-oor");
                    assert!(
                        reason.contains("event 1 at 0.02s"),
                        "index and offset: {reason}"
                    );
                    assert!(reason.contains("2 sockets"), "{reason}");
                }
                other => panic!("expected BadTimeline, got {other:?}"),
            }
            assert_eq!(ex.total_committed(), 0, "nothing may run first");
        }
    }

    fn four_designs() -> [DesignSpec; 4] {
        [
            DesignSpec::Centralized,
            DesignSpec::coarse_shared_nothing(),
            DesignSpec::Plp,
            DesignSpec::atrapos(),
        ]
    }

    fn socket_timeline(name: &str, events: &[ScenarioEvent]) -> Scenario {
        events
            .iter()
            .enumerate()
            .fold(Scenario::new(name, 0.03), |s, (i, e)| {
                s.at(0.005 * (i + 1) as f64, "x", e.clone())
            })
    }

    /// A timeline that fails every socket leaves no core to run on: a
    /// typed error before anything runs, on every design.
    #[test]
    fn failing_every_socket_is_rejected_before_anything_runs() {
        use ScenarioEvent::{FailSocket, RestoreSocket};
        let timelines = [
            vec![FailSocket { socket: 0 }, FailSocket { socket: 1 }],
            vec![
                FailSocket { socket: 1 },
                RestoreSocket { socket: 1 },
                FailSocket { socket: 0 },
                FailSocket { socket: 1 },
            ],
        ];
        for spec in four_designs() {
            for events in &timelines {
                let scenario = socket_timeline("hw-all", events);
                scenario.validate().unwrap();
                let mut ex = executor_with(&spec);
                match ex.run_scenario(&scenario).unwrap_err() {
                    ScenarioError::BadTimeline { reason, .. } => {
                        let last = events.len() - 1;
                        assert!(reason.starts_with(&format!("event {last} ")), "{reason}");
                        assert!(reason.contains("last active"), "{reason}");
                    }
                    other => panic!("{}: expected BadTimeline, got {other:?}", spec.label()),
                }
                assert_eq!(ex.total_committed(), 0, "nothing may run first");
            }
        }
    }

    /// Failing a failed socket again, or failing one that was restored,
    /// still leaves a socket to run on.
    #[test]
    fn timelines_that_keep_a_socket_alive_still_run() {
        use ScenarioEvent::{FailSocket, RestoreSocket};
        let timelines = [
            vec![FailSocket { socket: 1 }, FailSocket { socket: 1 }],
            vec![
                FailSocket { socket: 1 },
                RestoreSocket { socket: 1 },
                FailSocket { socket: 1 },
            ],
            vec![
                FailSocket { socket: 0 },
                RestoreSocket { socket: 0 },
                FailSocket { socket: 1 },
            ],
        ];
        for spec in four_designs() {
            for events in &timelines {
                let outcome = executor_with(&spec)
                    .run_scenario(&socket_timeline("hw-alive", events))
                    .unwrap();
                assert!(outcome.total_committed() > 0, "{}", spec.label());
            }
        }
    }

    #[test]
    fn unsupported_workload_change_is_reported_with_offset() {
        let scenario = Scenario::new("bad", 0.02).at(0.01, "x", ScenarioEvent::SetMix);
        // TinyWorkload supports no reconfiguration at all.
        let err = executor().run_scenario(&scenario).unwrap_err();
        match err {
            ScenarioError::Reconfigure { at_secs, .. } => assert_eq!(at_secs, 0.01),
            other => panic!("expected Reconfigure error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_timelines_are_rejected() {
        assert!(Scenario::new("empty", 0.0).validate().is_err());
        let out_of_range = Scenario::new("oor", 0.01).at(0.5, "x", ScenarioEvent::Measure);
        assert!(out_of_range.validate().is_err());
        let unordered = Scenario::new("uo", 1.0)
            .at(0.5, "a", ScenarioEvent::Measure)
            .at(0.25, "b", ScenarioEvent::Measure);
        assert!(unordered.validate().is_err());
        // A non-positive interval must be caught at validation time, not by
        // the executor's assert mid-run.
        let bad_interval =
            Scenario::new("bi", 1.0).at(0.5, "x", ScenarioEvent::SetInterval { secs: 0.0 });
        assert!(bad_interval.validate().is_err());
        assert!(executor().run_scenario(&bad_interval).is_err());
        // Zipfian exponents must be finite and non-negative.
        let bad_theta =
            Scenario::new("bt", 1.0).at(0.5, "x", ScenarioEvent::SetZipfTheta { theta: -0.5 });
        assert!(bad_theta.validate().is_err());
        let nan_theta =
            Scenario::new("nt", 1.0).at(0.5, "x", ScenarioEvent::SetZipfTheta { theta: f64::NAN });
        assert!(nan_theta.validate().is_err());
        // Open-loop events are validated up front too.
        let bad_rate =
            Scenario::new("br", 1.0).at(0.5, "x", ScenarioEvent::SetArrivalRate { rate_tps: 0.0 });
        assert!(bad_rate.validate().is_err());
        let nan_rate = Scenario::new("nr", 1.0).at(
            0.5,
            "x",
            ScenarioEvent::SetArrivalRate { rate_tps: f64::NAN },
        );
        assert!(nan_rate.validate().is_err());
        let bad_bound =
            Scenario::new("bb", 1.0).at(0.5, "x", ScenarioEvent::SetAdmissionBound { bound: 0 });
        assert!(bad_bound.validate().is_err());
        let bad_process = Scenario::new("bp", 1.0).at(
            0.5,
            "x",
            ScenarioEvent::SetArrivalProcess {
                process: ArrivalProcess::Diurnal {
                    base_tps: 100.0,
                    amplitude: 1.5,
                    period_secs: 1.0,
                },
            },
        );
        assert!(bad_process.validate().is_err());
    }

    #[test]
    fn arrival_events_switch_a_scenario_to_open_loop() {
        // A closed-loop warmup segment, then open loop at a modest rate:
        // only the open segments carry offered-load accounting, and the
        // closed segment is byte-identical to a plain closed-loop run.
        let scenario = Scenario::new("open", 0.03)
            .starting_as("closed")
            .at(0.01, "open", ScenarioEvent::SetAdmissionBound { bound: 16 })
            .at_unlabelled(0.01, ScenarioEvent::SetArrivalRate { rate_tps: 50_000.0 })
            .at_unlabelled(0.02, ScenarioEvent::Measure);
        let outcome = executor().run_scenario(&scenario).unwrap();
        assert_eq!(outcome.segments.len(), 3);
        let closed = &outcome.segments[0].stats;
        assert!(!closed.open_loop);
        assert_eq!(closed.offered, 0);
        for seg in &outcome.segments[1..] {
            let s = &seg.stats;
            assert!(s.open_loop, "segment '{}' should be open loop", seg.label);
            assert!(s.offered > 0);
            assert_eq!(s.offered, s.admitted + s.rejected);
            assert_eq!(
                s.admitted + s.queue_depth_start,
                s.committed + s.aborted + s.queue_depth_end
            );
        }
        // The warmup is untouched by the later open-loop events.
        let plain = executor().run_for(0.01);
        assert_eq!(plain.committed, closed.committed);
        assert_eq!(plain.aborted, closed.aborted);
    }

    #[test]
    fn optional_fields_may_be_omitted_in_scenario_json() {
        // serde_json-style files omit nullable keys; TimedEvent.label is
        // Option and must default to None when absent.
        let json = r#"{
            "name": "omitted", "initial_label": "start", "duration_secs": 0.5,
            "events": [{"at_secs": 0.1, "event": "Measure"}]
        }"#;
        let scenario = Scenario::from_json(json).unwrap();
        assert_eq!(scenario.events[0].label, None);
        scenario.validate().unwrap();
    }

    #[test]
    fn from_json_rejects_malformed_timelines_with_a_typed_error() {
        // Parseable JSON, but the offsets are out of order and out of range:
        // loading must fail up front, not mid-run.
        let json = r#"{
            "name": "bad-file", "initial_label": "start", "duration_secs": 1.0,
            "events": [
                {"at_secs": 0.9, "event": "Measure"},
                {"at_secs": 0.1, "event": "Measure"}
            ]
        }"#;
        match Scenario::from_json(json) {
            Err(ScenarioError::BadTimeline { scenario, .. }) => assert_eq!(scenario, "bad-file"),
            other => panic!("expected BadTimeline, got {other:?}"),
        }
        let out_of_range = r#"{
            "name": "oor", "initial_label": "start", "duration_secs": 0.5,
            "events": [{"at_secs": 2.0, "event": "Measure"}]
        }"#;
        assert!(Scenario::from_json(out_of_range).is_err());
    }

    #[test]
    fn scenarios_round_trip_through_json() {
        let scenario = Scenario::new("roundtrip", 0.75)
            .starting_as("uniform")
            .at(
                0.25,
                "skewed",
                ScenarioEvent::SetSkew {
                    distribution: KeyDistribution::Hotspot {
                        data_fraction: 0.2,
                        access_fraction: 0.5,
                    },
                },
            )
            .at_unlabelled(0.5, ScenarioEvent::SetInterval { secs: 0.1 })
            .at(0.5, "mix", ScenarioEvent::SetMix)
            .at(0.55, "theta", ScenarioEvent::SetZipfTheta { theta: 0.99 })
            .at(
                0.55,
                "ycsb-b",
                ScenarioEvent::SetNamedMix {
                    name: "B".to_string(),
                },
            )
            .at(0.6, "failed", ScenarioEvent::FailSocket { socket: 3 });
        let json = scenario.to_json();
        assert_eq!(Scenario::from_json(&json).unwrap(), scenario);
    }
}
