//! The frozen job table: what each of the six named workloads runs.
//!
//! A workload is a fixed list of jobs (design × workload generator ×
//! scenario timeline on a simulated machine).  Sizes and virtual durations
//! are part of a workload's identity — host cost per transaction depends on
//! run length (tables and timelines grow) — so the constants below never
//! change once landed; `table_hash` is recorded in every result so two
//! result files can prove they measured the same table.
//!
//! Everything is built from items re-exported at the simulator crates'
//! roots, and the two YCSB workloads go through benchmark-owned spec files
//! under `inputs/`, so refactors inside the crates cannot break the
//! benchmark as long as the public surface holds.

use crate::stats::fnv1a;
use atrapos_core::{AdaptiveInterval, ControllerConfig, KeyDistribution};
use atrapos_engine::{
    AtraposConfig, DesignSpec, ExecutorConfig, Scenario, ScenarioEvent, Workload,
};
use atrapos_numa::{CostModel, Machine, Topology};
use atrapos_workloads::{ReadOneRow, Tatp, TatpConfig, TatpTxn, Tpcc, TpccConfig, WorkloadSpec};

/// The six workloads, in reporting order.
pub const WORKLOADS: [WorkloadId; 6] = [
    WorkloadId::TatpMix,
    WorkloadId::TpccMix,
    WorkloadId::YcsbZipf,
    WorkloadId::ScaleupMicro,
    WorkloadId::AdaptiveShift,
    WorkloadId::ServeOpenloop,
];

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// TATP standard mix, closed loop, four designs.
    TatpMix,
    /// TPC-C standard mix, closed loop, four designs.
    TpccMix,
    /// YCSB-A Zipfian over 1 M records, closed loop, four designs.
    YcsbZipf,
    /// One-row reads on the 8×10 machine, closed loop, four designs.
    ScaleupMicro,
    /// Adaptive ATraPos through skew and socket loss, closed loop.
    AdaptiveShift,
    /// YCSB-B uniform served open loop up a fixed rate ladder.
    ServeOpenloop,
}

impl WorkloadId {
    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::TatpMix => "tatp-mix",
            WorkloadId::TpccMix => "tpcc-mix",
            WorkloadId::YcsbZipf => "ycsb-zipf",
            WorkloadId::ScaleupMicro => "scaleup-micro",
            WorkloadId::AdaptiveShift => "adaptive-shift",
            WorkloadId::ServeOpenloop => "serve-openloop",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// The four designs every sweep workload compares; the key names the
/// design in per-design metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignKey {
    /// Centralized shared-everything.
    Centralized,
    /// Coarse shared-nothing (one instance per socket).
    SharedNothing,
    /// PLP.
    Plp,
    /// ATraPos.
    Atrapos,
}

impl DesignKey {
    /// All four, in job order.
    pub const ALL: [DesignKey; 4] = [
        DesignKey::Centralized,
        DesignKey::SharedNothing,
        DesignKey::Plp,
        DesignKey::Atrapos,
    ];

    /// Metric-name component.
    pub fn key(self) -> &'static str {
        match self {
            DesignKey::Centralized => "centralized",
            DesignKey::SharedNothing => "shared_nothing",
            DesignKey::Plp => "plp",
            DesignKey::Atrapos => "atrapos",
        }
    }

    fn spec(self) -> DesignSpec {
        match self {
            DesignKey::Centralized => DesignSpec::Centralized,
            DesignKey::SharedNothing => DesignSpec::coarse_shared_nothing(),
            DesignKey::Plp => DesignSpec::Plp,
            DesignKey::Atrapos => DesignSpec::atrapos(),
        }
    }
}

/// What a job's result is used for beyond host timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The ATraPos job: `sim_tps`, `sim_p99_cycles`, breakdown shares.
    Primary,
    /// A design ATraPos is compared against.
    Other,
    /// Runs once per process, untimed, for the simulated comparison only
    /// (the static variant of `adaptive-shift`).
    UntimedReference,
}

/// How to construct a job's workload generator.
#[derive(Debug, Clone, Copy)]
pub enum Generator {
    /// TATP with `subscribers`, standard mix or pinned to one type.
    Tatp {
        /// Subscriber count.
        subscribers: i64,
        /// `Some` pins the mix to one transaction type.
        single: Option<TatpTxn>,
    },
    /// TPC-C with `warehouses` (scaled-down row counts).
    Tpcc {
        /// Warehouse count.
        warehouses: i64,
    },
    /// A benchmark-owned `WorkloadSpec` JSON file compiled at set-up.
    Spec {
        /// The spec file's text.
        json: &'static str,
    },
    /// The perfectly partitionable one-row read.
    ReadOneRow {
        /// Table rows.
        rows: i64,
        /// Sites the key space divides into.
        sites: usize,
        /// Cores per site.
        cores_per_site: usize,
    },
}

impl Generator {
    /// Construct the generator (the `workloads.construct` part of set-up:
    /// sampler tables, spec parsing and compilation).
    pub fn construct(&self) -> Result<Box<dyn Workload>, String> {
        Ok(match *self {
            Generator::Tatp {
                subscribers,
                single,
            } => {
                let mut w = Tatp::new(TatpConfig::scaled(subscribers));
                if let Some(txn) = single {
                    w.set_single(txn);
                }
                Box::new(w)
            }
            Generator::Tpcc { warehouses } => Box::new(Tpcc::new(TpccConfig::scaled(warehouses))),
            Generator::Spec { json } => Box::new(
                WorkloadSpec::from_json(json)
                    .and_then(|s| s.compile())
                    .map_err(|e| format!("benchmark spec file: {e}"))?,
            ),
            Generator::ReadOneRow {
                rows,
                sites,
                cores_per_site,
            } => Box::new(ReadOneRow::partitionable(rows, sites, cores_per_site)),
        })
    }
}

/// One frozen job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// `<workload>/<variant>`.
    pub name: String,
    /// Which design family the job runs (for per-design metrics).
    pub design_key: DesignKey,
    /// What the result is used for.
    pub role: Role,
    /// The design.
    pub design: DesignSpec,
    /// Sockets of the simulated machine.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// The workload generator.
    pub generator: Generator,
    /// The timeline (an eventless scenario is a plain measurement).
    pub scenario: Scenario,
    /// Default monitoring interval and time-series bucket, virtual seconds.
    pub interval_secs: f64,
}

impl JobSpec {
    /// The simulated machine.
    pub fn machine(&self) -> Machine {
        Machine::new(
            Topology::multisocket(self.sockets, self.cores_per_socket),
            CostModel::westmere(),
        )
    }

    /// Executor parameters for `seed`.
    pub fn executor_config(&self, seed: u64) -> ExecutorConfig {
        ExecutorConfig {
            seed,
            default_interval_secs: self.interval_secs,
            time_series_bucket_secs: self.interval_secs,
        }
    }

    /// Whether the scenario serves open loop.
    pub fn is_open_loop(&self) -> bool {
        self.scenario.events.iter().any(|e| {
            matches!(
                e.event,
                ScenarioEvent::SetArrivalRate { .. } | ScenarioEvent::SetArrivalProcess { .. }
            )
        })
    }
}

const YCSB_ZIPF_1M: &str = include_str!("../inputs/ycsb_zipf_1m.json");
const YCSB_B_UNIFORM_100K: &str = include_str!("../inputs/ycsb_b_uniform_100k.json");

/// ATraPos offered-rate ladder of `serve-openloop`, transactions per
/// virtual second.  Constants, never calibrated at run time, so the
/// offered stream is identical on every commit.
pub const ATRAPOS_RATES: [f64; 6] = [4e6, 8e6, 12e6, 16e6, 20e6, 26e6];
/// Centralized offered-rate ladder of `serve-openloop`.  No rung sits at
/// the knee (≈ 3 M tps, where the p99 straddles the SLO from seed to
/// seed), so the highest rung in SLO does not depend on the seed.
pub const CENTRALIZED_RATES: [f64; 5] = [1e6, 2e6, 2.5e6, 4e6, 8e6];
/// Admission-queue bound of `serve-openloop`.
pub const ADMISSION_BOUND: u64 = 128;
/// The rung whose p99 is `sim_p99_cycles` on `serve-openloop`.
pub const P99_RATE: f64 = 12e6;
/// The SLO of `sim_max_rate_in_slo_tps`: simulated p99 at most this many
/// microseconds, zero rejections, and at most `SLO_MAX_QUEUE_END` arrivals
/// still queued when the rung ends (no growing backlog).
pub const SLO_P99_US: f64 = 10.0;
/// Half the admission bound: a rung in SLO ends with 0–31 queued at 91 %
/// utilisation (an instant sample), an overloaded one with 107–128.
pub const SLO_MAX_QUEUE_END: u64 = ADMISSION_BOUND / 2;

/// Label of the ladder segment offered at `rate`.
pub fn rate_label(rate: f64) -> String {
    format!("{}M", rate / 1e6)
}

/// Closed-loop measurement of `secs` virtual seconds against each of the
/// four designs.
fn sweep(
    workload: WorkloadId,
    sockets: usize,
    cores_per_socket: usize,
    generator: Generator,
    secs: f64,
) -> Vec<JobSpec> {
    DesignKey::ALL
        .into_iter()
        .map(|key| {
            let name = format!("{}/{}", workload.name(), key.key());
            JobSpec {
                scenario: Scenario::new(name.clone(), secs),
                name,
                design_key: key,
                role: if key == DesignKey::Atrapos {
                    Role::Primary
                } else {
                    Role::Other
                },
                design: key.spec(),
                sockets,
                cores_per_socket,
                generator,
                // One interval spanning the measurement (floored like the
                // figure harness does), so no sweep job crosses a boundary.
                interval_secs: secs.max(0.01),
            }
        })
        .collect()
}

/// One open-loop ladder: the bound and first rate at t = 0, then one
/// labelled segment of `rung_secs` per rate.
fn ladder(name: &str, rates: &[f64], rung_secs: f64) -> Scenario {
    let mut s = Scenario::new(name, rung_secs * rates.len() as f64)
        .starting_as(rate_label(rates[0]))
        .at_unlabelled(
            0.0,
            ScenarioEvent::SetAdmissionBound {
                bound: ADMISSION_BOUND,
            },
        )
        .at_unlabelled(0.0, ScenarioEvent::SetArrivalRate { rate_tps: rates[0] });
    for (i, &rate) in rates.iter().enumerate().skip(1) {
        s = s.at(
            rung_secs * i as f64,
            rate_label(rate),
            ScenarioEvent::SetArrivalRate { rate_tps: rate },
        );
    }
    s
}

/// The jobs of `workload`.  `smoke` divides every virtual duration by ten.
pub fn jobs(workload: WorkloadId, smoke: bool) -> Vec<JobSpec> {
    let scale = if smoke { 0.1 } else { 1.0 };
    match workload {
        WorkloadId::TatpMix => sweep(
            workload,
            4,
            10,
            Generator::Tatp {
                subscribers: 40_000,
                single: None,
            },
            0.01 * scale,
        ),
        WorkloadId::TpccMix => sweep(
            workload,
            4,
            10,
            Generator::Tpcc { warehouses: 40 },
            0.1 * scale,
        ),
        WorkloadId::YcsbZipf => sweep(
            workload,
            4,
            10,
            Generator::Spec { json: YCSB_ZIPF_1M },
            0.1 * scale,
        ),
        WorkloadId::ScaleupMicro => sweep(
            workload,
            8,
            10,
            Generator::ReadOneRow {
                rows: 160_000,
                sites: 80,
                cores_per_site: 1,
            },
            0.003 * scale,
        ),
        WorkloadId::AdaptiveShift => {
            let phase = ADAPTIVE_PHASE_SECS * scale;
            let scenario = Scenario::new("adaptive-shift", 4.0 * phase)
                .starting_as("uniform")
                .at(
                    phase,
                    "hotspot",
                    ScenarioEvent::SetSkew {
                        distribution: KeyDistribution::Hotspot {
                            data_fraction: 0.2,
                            access_fraction: 0.5,
                        },
                    },
                )
                .at(
                    2.0 * phase,
                    "socket-lost",
                    ScenarioEvent::FailSocket { socket: 3 },
                )
                .at(
                    3.0 * phase,
                    "socket-back",
                    ScenarioEvent::RestoreSocket { socket: 3 },
                );
            let interval_min = ADAPTIVE_INTERVAL_MIN_SECS * scale;
            let variant = |name: &str, role, config| JobSpec {
                name: format!("{}/{name}", workload.name()),
                design_key: DesignKey::Atrapos,
                role,
                design: DesignSpec::atrapos_named(name, config),
                sockets: 4,
                cores_per_socket: 2,
                generator: Generator::Tatp {
                    subscribers: 20_000,
                    single: Some(TatpTxn::GetSubscriberData),
                },
                scenario: scenario.clone(),
                interval_secs: interval_min,
            };
            vec![
                variant(
                    "adaptive",
                    Role::Primary,
                    AtraposConfig {
                        monitoring: true,
                        adaptive: true,
                        controller: ControllerConfig {
                            interval: AdaptiveInterval::new(interval_min, phase, 0.10),
                            ..ControllerConfig::default()
                        },
                        ..AtraposConfig::default()
                    },
                ),
                variant(
                    "static",
                    Role::UntimedReference,
                    AtraposConfig {
                        monitoring: false,
                        adaptive: false,
                        ..AtraposConfig::default()
                    },
                ),
            ]
        }
        WorkloadId::ServeOpenloop => {
            let rung = SERVE_RUNG_SECS * scale;
            let job = |key: DesignKey, role, rates: &[f64]| {
                let name = format!("{}/{}", workload.name(), key.key());
                JobSpec {
                    scenario: ladder(&name, rates, rung),
                    name,
                    design_key: key,
                    role,
                    design: key.spec(),
                    sockets: 4,
                    cores_per_socket: 10,
                    generator: Generator::Spec {
                        json: YCSB_B_UNIFORM_100K,
                    },
                    interval_secs: rung.max(0.01),
                }
            };
            vec![
                job(DesignKey::Atrapos, Role::Primary, &ATRAPOS_RATES),
                job(DesignKey::Centralized, Role::Other, &CENTRALIZED_RATES),
            ]
        }
    }
}

/// Virtual seconds per phase of `adaptive-shift`.
const ADAPTIVE_PHASE_SECS: f64 = 0.12;
/// Shortest monitoring interval of `adaptive-shift`: three per phase; the
/// longest is one phase.
const ADAPTIVE_INTERVAL_MIN_SECS: f64 = 0.04;
/// Virtual seconds per rung of `serve-openloop`.
const SERVE_RUNG_SECS: f64 = 0.005;

/// FNV digest of the whole job table (all six workloads at `smoke`), for
/// result provenance.
pub fn table_hash(smoke: bool) -> u64 {
    let mut text = String::new();
    for w in WORKLOADS {
        for j in jobs(w, smoke) {
            text.push_str(&format!(
                "{}|{:?}|{}x{}|{}|{:?}|{}|{}\n",
                j.name,
                j.role,
                j.sockets,
                j.cores_per_socket,
                serde::json::to_string(&j.design),
                j.generator,
                j.scenario.to_json(),
                j.interval_secs,
            ));
        }
    }
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in WORKLOADS {
            assert_eq!(WorkloadId::from_name(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::from_name("nope"), None);
        let mut names: Vec<String> = WORKLOADS
            .into_iter()
            .flat_map(|w| jobs(w, false))
            .map(|j| j.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn every_workload_has_one_primary_job_and_valid_scenarios() {
        for w in WORKLOADS {
            for smoke in [false, true] {
                let js = jobs(w, smoke);
                assert_eq!(
                    js.iter().filter(|j| j.role == Role::Primary).count(),
                    1,
                    "{}",
                    w.name()
                );
                for j in &js {
                    j.scenario.validate().unwrap();
                    j.generator.construct().unwrap();
                }
            }
        }
    }

    #[test]
    fn table_hash_is_stable_and_scale_sensitive() {
        assert_eq!(table_hash(false), table_hash(false));
        assert_ne!(table_hash(false), table_hash(true));
    }

    #[test]
    fn only_the_serving_workload_is_open_loop() {
        for w in WORKLOADS {
            for j in jobs(w, false) {
                assert_eq!(
                    j.is_open_loop(),
                    w == WorkloadId::ServeOpenloop,
                    "{}",
                    j.name
                );
            }
        }
    }
}
