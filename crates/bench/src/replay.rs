//! Replay-file experiments: a complete experiment description — machine,
//! design spec, workload parameters, and event timeline — stored as JSON.
//!
//! This is the "scenarios are data" endpoint: `atrapos replay file.json`
//! loads a [`ReplayFile`], runs it, and prints per-segment statistics.  A
//! canonical file ships at `examples/scenarios/adaptive_tatp.json`; the
//! determinism regression test replays it twice and requires byte-identical
//! serialized outcomes.

use atrapos_engine::scenario::{Scenario, ScenarioError, ScenarioOutcome};
use atrapos_engine::{
    DesignSpec, ExecutorConfig, SharedNothingGranularity, VirtualExecutor, Workload,
};
use atrapos_numa::{CostModel, Machine, Topology};
use atrapos_storage::{MemoryPolicy, TableId};
use atrapos_workloads::{Tatp, TatpConfig, TatpTxn};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The default replay file, shipped with the repository.
pub const DEFAULT_REPLAY_PATH: &str = "examples/scenarios/adaptive_tatp.json";

/// Most time-series buckets a run may ask for: `interval_secs` is also the
/// bucket width, and the executor keeps one counter per bucket.
const MAX_BUCKETS: f64 = 1e6;

/// A complete, self-contained experiment description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayFile {
    /// Simulated machine: sockets × cores per socket.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// The design to run (serializable spec, no code).
    pub design: DesignSpec,
    /// TATP dataset size.
    pub tatp_subscribers: i64,
    /// Transaction type the workload starts on.
    pub initial_txn: String,
    /// Workload-generator seed.
    pub seed: u64,
    /// Default monitoring interval in virtual seconds.
    pub interval_secs: f64,
    /// The event timeline.
    pub scenario: Scenario,
}

impl ReplayFile {
    /// Load and validate a replay file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read replay file '{}': {e}", path.display()))?;
        let replay: Self = serde::json::from_str(&text)
            .map_err(|e| format!("cannot parse replay file '{}': {e}", path.display()))?;
        replay
            .scenario
            .validate()
            .map_err(|e| format!("invalid scenario in '{}': {e}", path.display()))?;
        replay
            .validate()
            .map_err(|e| format!("invalid replay file '{}': {e}", path.display()))?;
        Ok(replay)
    }

    /// Reject the machine and design fields a run could not survive, naming
    /// the field.  The scenario is checked by [`Scenario::validate`].
    pub fn validate(&self) -> Result<(), String> {
        let interval = self.interval_secs;
        if !(interval.is_finite() && interval > 0.0)
            || self.scenario.duration_secs / interval > MAX_BUCKETS
        {
            return Err(format!(
                "interval_secs = {interval}: must be a finite number of seconds > 0 and at \
                 least 1/{MAX_BUCKETS} of the scenario's {} s",
                self.scenario.duration_secs
            ));
        }
        for (field, n) in [
            ("sockets", self.sockets),
            ("cores_per_socket", self.cores_per_socket),
        ] {
            if n == 0 {
                return Err(format!("{field} = 0: a machine needs at least one"));
            }
        }
        if self.tatp_subscribers <= 0 {
            return Err(format!(
                "tatp_subscribers = {}: the dataset needs at least one subscriber",
                self.tatp_subscribers
            ));
        }
        if let DesignSpec::Atrapos { config, .. } = &self.design {
            match &config.initial_scheme {
                Some(scheme) => {
                    let topo = Topology::multisocket(self.sockets, self.cores_per_socket);
                    let tables: Vec<TableId> = self.tatp().tables().iter().map(|t| t.id).collect();
                    scheme
                        .check_invariants(&topo, &tables)
                        .map_err(|e| format!("design.config.initial_scheme: {e}"))?;
                }
                None if config.sub_per_partition == 0 => {
                    return Err(
                        "design.config.sub_per_partition = 0: with no initial_scheme, \
                         every partition needs at least one sub-partition"
                            .into(),
                    );
                }
                None => {}
            }
        }
        let DesignSpec::SharedNothing {
            granularity,
            memory_policy,
            plan,
            ..
        } = &self.design
        else {
            return Ok(());
        };
        if let MemoryPolicy::Central(node) = memory_policy {
            if node.index() >= self.sockets {
                return Err(format!(
                    "design.memory_policy = Central({}): the machine has {} sockets",
                    node.0, self.sockets
                ));
            }
        }
        if let Some(plan) = plan {
            let instances = match granularity {
                SharedNothingGranularity::PerCore => self.sockets * self.cores_per_socket,
                SharedNothingGranularity::PerSocket => self.sockets,
            };
            if plan.n_instances != instances {
                return Err(format!(
                    "design.plan.n_instances = {}: the deployment has {instances} instances",
                    plan.n_instances
                ));
            }
            plan.check_invariants()
                .map_err(|e| format!("design.plan: {e}"))?;
        }
        Ok(())
    }

    /// Build the executor this file describes (machine, populated design,
    /// seeded workload).
    pub fn build_executor(&self) -> Result<VirtualExecutor, String> {
        let machine = Machine::new(
            Topology::multisocket(self.sockets, self.cores_per_socket),
            CostModel::westmere(),
        );
        let mut workload = self.tatp();
        let initial = TatpTxn::from_label(&self.initial_txn)
            .ok_or_else(|| format!("unknown initial transaction '{}'", self.initial_txn))?;
        workload.set_single(initial);
        let design = self.design.build(&machine, &workload);
        Ok(VirtualExecutor::new(
            machine,
            design,
            Box::new(workload),
            ExecutorConfig {
                seed: self.seed,
                default_interval_secs: self.interval_secs,
                time_series_bucket_secs: self.interval_secs,
            },
        ))
    }

    /// The file's TATP workload, on the standard mix.
    fn tatp(&self) -> Tatp {
        Tatp::new(TatpConfig::scaled(self.tatp_subscribers))
    }

    /// Run the experiment to completion.
    pub fn run(&self) -> Result<ScenarioOutcome, String> {
        self.build_executor()?
            .run_scenario(&self.scenario)
            .map_err(|e: ScenarioError| e.to_string())
    }
}

/// The canonical sample experiment (the contents of
/// [`DEFAULT_REPLAY_PATH`]): the `adaptive_tatp` timeline on a 4×4 machine.
pub fn sample() -> ReplayFile {
    use atrapos_core::{AdaptiveInterval, ControllerConfig};
    use atrapos_engine::scenario::ScenarioEvent;
    use atrapos_engine::AtraposConfig;
    ReplayFile {
        sockets: 4,
        cores_per_socket: 4,
        design: DesignSpec::atrapos_with(AtraposConfig {
            controller: ControllerConfig {
                interval: AdaptiveInterval::new(0.05, 0.4, 0.10),
                ..ControllerConfig::default()
            },
            ..AtraposConfig::default()
        }),
        tatp_subscribers: 20_000,
        initial_txn: "UpdSubData".to_string(),
        seed: 7,
        interval_secs: 0.05,
        scenario: Scenario::new("adaptive-tatp-replay", 0.75)
            .starting_as("UpdSubData")
            .at(
                0.25,
                "GetNewDest",
                ScenarioEvent::SetWorkloadPhase {
                    txn: "GetNewDest".to_string(),
                },
            )
            .at(0.5, "TATP-Mix", ScenarioEvent::SetMix),
    }
}

/// Print a replay outcome's per-segment statistics to stdout.
pub fn print_outcome(replay: &ReplayFile, outcome: &ScenarioOutcome) {
    println!(
        "replaying '{}' ({} events over {:.2} virtual s) against {}",
        replay.scenario.name,
        replay.scenario.events.len(),
        replay.scenario.duration_secs,
        replay.design.label(),
    );
    for segment in &outcome.segments {
        println!(
            "  segment {:<12} t={:>5.2}s  {:>9.0} TPS  latency {:>6.1} µs  repartitionings {}",
            segment.label,
            segment.start_secs,
            segment.stats.throughput_tps,
            segment.stats.avg_latency_us,
            segment.stats.repartitions,
        );
    }
    println!(
        "total committed {}  design stats {:?}",
        outcome.total_committed(),
        outcome.design_stats
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_core::{KeyDomain, PartitioningScheme, TablePartitioning};
    use atrapos_numa::CoreId;

    #[test]
    fn sample_round_trips_and_runs() {
        let mut replay = sample();
        // Shrink for test budgets; structure stays the sample's.
        replay.tatp_subscribers = 2_000;
        replay.interval_secs /= 5.0;
        replay.scenario.duration_secs /= 5.0;
        for e in &mut replay.scenario.events {
            e.at_secs /= 5.0;
        }
        let json = serde::json::to_string_pretty(&replay);
        let back: ReplayFile = serde::json::from_str(&json).unwrap();
        assert_eq!(back.scenario, replay.scenario);
        let outcome = replay.run().expect("sample replay runs");
        assert!(outcome.total_committed() > 0);
        assert_eq!(outcome.segments.len(), 3);
    }

    /// The sample with one field broken: `validate` must reject it, naming
    /// `field`.
    fn rejects(field: &str, break_it: impl FnOnce(&mut ReplayFile)) {
        let mut replay = sample();
        break_it(&mut replay);
        let err = replay.validate().expect_err(field);
        assert!(err.starts_with(field), "{field}: {err}");
    }

    #[test]
    fn a_non_positive_or_too_fine_interval_is_rejected() {
        for secs in [0.0, -0.05, f64::NAN, f64::INFINITY, 1e-9] {
            rejects("interval_secs", |r| r.interval_secs = secs);
        }
    }

    #[test]
    fn an_empty_machine_is_rejected() {
        rejects("sockets", |r| r.sockets = 0);
        rejects("cores_per_socket", |r| r.cores_per_socket = 0);
    }

    #[test]
    fn a_dataset_without_subscribers_is_rejected() {
        for n in [0, -5] {
            rejects("tatp_subscribers", |r| r.tatp_subscribers = n);
        }
    }

    /// ATraPos's naive starting scheme needs a sub-partition per partition;
    /// an initial scheme brings its own, and the field goes unused.
    #[test]
    fn zero_sub_partitions_per_partition_are_rejected_without_a_scheme() {
        let zero = |r: &mut ReplayFile| {
            let DesignSpec::Atrapos { config, .. } = &mut r.design else {
                unreachable!("the sample runs ATraPos")
            };
            config.sub_per_partition = 0;
        };
        rejects("design.config.sub_per_partition", zero);
        let mut fine = with_scheme(|_| {});
        zero(&mut fine);
        assert_eq!(fine.validate(), Ok(()));
    }

    #[test]
    fn central_memory_on_a_missing_socket_is_rejected() {
        rejects("design.memory_policy", |r| {
            r.design = DesignSpec::shared_nothing_with_memory_policy(MemoryPolicy::Central(
                atrapos_numa::SocketId(4),
            ))
        });
        let mut fine = sample();
        fine.design = DesignSpec::shared_nothing_with_memory_policy(MemoryPolicy::Central(
            atrapos_numa::SocketId(3),
        ));
        assert_eq!(fine.validate(), Ok(()));
    }

    #[test]
    fn a_sharding_plan_that_does_not_fit_the_deployment_is_rejected() {
        use atrapos_core::ShardingPlan;
        use atrapos_engine::Workload;
        let domains = Tatp::new(TatpConfig::scaled(2_000)).table_domains();
        let plan = |instances| ShardingPlan::range(&domains, 8, instances);
        rejects("design.plan.n_instances", |r| {
            r.design = DesignSpec::shared_nothing_with_plan(plan(3))
        });
        let mut empty = domains.clone();
        empty[0].1 = KeyDomain { lo: 1, hi: 1 };
        rejects("design.plan: table T0: key domain [1, 1) is empty", |r| {
            r.design = DesignSpec::shared_nothing_with_plan(ShardingPlan::range(&empty, 8, 4))
        });
        let mut fine = sample();
        fine.design = DesignSpec::shared_nothing_with_plan(plan(4));
        assert_eq!(fine.validate(), Ok(()));
    }

    /// The sample on a valid initial scheme — two partitions of two
    /// sub-partitions per table — after `break_it`.
    fn with_scheme(break_it: impl FnOnce(&mut PartitioningScheme)) -> ReplayFile {
        let mut replay = sample();
        let topo = Topology::multisocket(replay.sockets, replay.cores_per_socket);
        let mut scheme = PartitioningScheme::even(&replay.tatp().table_domains(), &topo, 2, 2);
        break_it(&mut scheme);
        let DesignSpec::Atrapos { config, .. } = &mut replay.design else {
            unreachable!("the sample runs ATraPos")
        };
        config.initial_scheme = Some(scheme);
        replay
    }

    /// `validate` rejects the sample's initial scheme once `break_it` broke
    /// it, with a message containing `why`.
    fn rejects_scheme(why: &str, break_it: impl FnOnce(&mut TablePartitioning)) {
        let replay = with_scheme(|s| break_it(&mut s.tables_mut()[0]));
        let err = replay.validate().expect_err(why);
        assert!(
            err.starts_with("design.config.initial_scheme: ") && err.contains(why),
            "{why}: {err}"
        );
    }

    #[test]
    fn a_valid_initial_scheme_is_accepted() {
        assert_eq!(with_scheme(|_| {}).validate(), Ok(()));
    }

    #[test]
    fn an_initial_scheme_over_an_empty_domain_is_rejected() {
        rejects_scheme("[1, 1) is empty", |t| t.domain = KeyDomain { lo: 1, hi: 1 });
    }

    #[test]
    fn an_initial_scheme_over_a_domain_wider_than_i64_is_rejected() {
        rejects_scheme("wider than i64::MAX", |t| {
            t.domain = KeyDomain {
                lo: i64::MIN,
                hi: i64::MAX,
            }
        });
    }

    #[test]
    fn an_initial_scheme_on_a_core_past_the_machine_is_rejected() {
        rejects_scheme("core C16 of a 16-core machine", |t| {
            t.partitions[0].core = CoreId(16)
        });
    }

    #[test]
    fn an_initial_scheme_that_misses_a_sub_partition_is_rejected() {
        rejects_scheme("cover 4 of 5 sub-partitions", |t| t.num_sub_partitions = 5);
    }

    #[test]
    fn an_initial_scheme_without_sub_partitions_is_rejected() {
        rejects_scheme("has no partitions", |t| {
            t.num_sub_partitions = 0;
            t.partitions.clear();
        });
    }

    #[test]
    fn an_initial_scheme_that_misses_a_table_is_rejected() {
        let replay = with_scheme(|s| *s = PartitioningScheme::new(s.tables()[..3].to_vec()));
        assert_eq!(
            replay.validate(),
            Err("design.config.initial_scheme: table T3 is not in the scheme".to_string())
        );
    }

    #[test]
    fn unknown_initial_txn_is_a_load_error() {
        let mut replay = sample();
        replay.initial_txn = "NoSuchTxn".to_string();
        assert!(replay.run().unwrap_err().contains("NoSuchTxn"));
    }
}
