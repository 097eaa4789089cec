//! Serializable design specifications.
//!
//! A [`DesignSpec`] names one of the paper's system designs together with
//! everything needed to instantiate it — as plain data, with no function
//! pointers.  Examples, tests, benchmarks, and the figure harness all build
//! designs through [`DesignSpec::build`], and because the spec derives
//! serde it can sit next to a [`crate::scenario::Scenario`] in a replay
//! file: design + timeline together describe a complete experiment.

use crate::designs::atrapos::{AtraposConfig, AtraposDesign};
use crate::designs::centralized::CentralizedDesign;
use crate::designs::shared_nothing::{SharedNothingDesign, SharedNothingGranularity};
use crate::designs::SystemDesign;
use crate::workload::Workload;
use atrapos_core::ShardingPlan;
use atrapos_numa::Machine;
use atrapos_storage::MemoryPolicy;
use serde::{Deserialize, Serialize};

/// Which system design to instantiate, with its full configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DesignSpec {
    /// Centralized shared-everything (stock Shore-MT).
    Centralized,
    /// Shared-nothing at a given granularity.
    SharedNothing {
        /// One instance per core ("extreme") or per socket ("coarse").
        granularity: SharedNothingGranularity,
        /// Whether locking/latching is enabled (the paper disables it for
        /// the extreme configuration on read-only workloads).
        locking: bool,
        /// Memory-placement policy of the instances (Table I).
        memory_policy: MemoryPolicy,
        /// Optional advisor-produced sharding (§VII); `None` means the
        /// range plan over the instances (`ShardingPlan::range` with one
        /// sub-partition per instance).  Serializable like everything else
        /// in the spec, so an advised deployment can sit in a replay file
        /// too.
        plan: Option<ShardingPlan>,
    },
    /// PLP (physiological partitioning), the state-of-the-art baseline.
    Plp,
    /// The partitioned shared-everything engine of the paper.
    Atrapos {
        /// Display name used in benchmark output ("atrapos" if `None`;
        /// the figures use "static" for the adaptation-disabled variant).
        name: Option<String>,
        /// Engine configuration.
        config: AtraposConfig,
    },
}

impl DesignSpec {
    /// ATraPos with its default configuration.
    pub fn atrapos() -> Self {
        DesignSpec::Atrapos {
            name: None,
            config: AtraposConfig::default(),
        }
    }

    /// ATraPos with an explicit configuration.
    pub fn atrapos_with(config: AtraposConfig) -> Self {
        DesignSpec::Atrapos { name: None, config }
    }

    /// A named ATraPos variant (e.g. the "static" baseline of Figures
    /// 10–13).
    pub fn atrapos_named(name: impl Into<String>, config: AtraposConfig) -> Self {
        DesignSpec::Atrapos {
            name: Some(name.into()),
            config,
        }
    }

    /// Extreme shared-nothing: one instance per core.
    pub fn extreme_shared_nothing(locking: bool) -> Self {
        DesignSpec::SharedNothing {
            granularity: SharedNothingGranularity::PerCore,
            locking,
            memory_policy: MemoryPolicy::Local,
            plan: None,
        }
    }

    /// Coarse shared-nothing: one instance per socket.
    pub fn coarse_shared_nothing() -> Self {
        DesignSpec::SharedNothing {
            granularity: SharedNothingGranularity::PerSocket,
            locking: true,
            memory_policy: MemoryPolicy::Local,
            plan: None,
        }
    }

    /// Coarse shared-nothing with an explicit memory policy and locking
    /// disabled (the §III-D memory-placement experiment, Table I).
    pub fn shared_nothing_with_memory_policy(policy: MemoryPolicy) -> Self {
        DesignSpec::SharedNothing {
            granularity: SharedNothingGranularity::PerSocket,
            locking: false,
            memory_policy: policy,
            plan: None,
        }
    }

    /// Coarse shared-nothing routing every key through an advisor-produced
    /// [`ShardingPlan`] (the §VII extension).
    pub fn shared_nothing_with_plan(plan: ShardingPlan) -> Self {
        DesignSpec::SharedNothing {
            granularity: SharedNothingGranularity::PerSocket,
            locking: true,
            memory_policy: MemoryPolicy::Local,
            plan: Some(plan),
        }
    }

    /// Short label for result tables.
    pub fn label(&self) -> &'static str {
        match self {
            DesignSpec::Centralized => "Centralized",
            DesignSpec::SharedNothing {
                granularity: SharedNothingGranularity::PerCore,
                ..
            } => "Extreme shared-nothing",
            DesignSpec::SharedNothing {
                granularity: SharedNothingGranularity::PerSocket,
                ..
            } => "Coarse shared-nothing",
            DesignSpec::Plp => "PLP",
            DesignSpec::Atrapos { name: None, .. } => "ATraPos",
            DesignSpec::Atrapos { name: Some(_), .. } => "ATraPos (custom)",
        }
    }

    /// Instantiate the design for `machine` and `workload`.
    pub fn build(&self, machine: &Machine, workload: &dyn Workload) -> Box<dyn SystemDesign> {
        match self {
            DesignSpec::Centralized => Box::new(CentralizedDesign::new(machine, workload)),
            DesignSpec::SharedNothing {
                granularity,
                locking,
                memory_policy,
                plan,
            } => Box::new(
                SharedNothingDesign::new(
                    machine,
                    workload,
                    *granularity,
                    *memory_policy,
                    plan.clone(),
                )
                .with_locking(*locking),
            ),
            // PLP is the partitioned engine with the ATraPos features off:
            // naive partitioning, centralized internal structures.
            DesignSpec::Plp => Box::new(AtraposDesign::with_name(
                "plp",
                machine,
                workload,
                AtraposConfig::plp_baseline(),
            )),
            DesignSpec::Atrapos { name, config } => Box::new(AtraposDesign::with_name(
                name.as_deref().unwrap_or("atrapos"),
                machine,
                workload,
                config.clone(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::testing::TinyWorkload;
    use atrapos_numa::{CoreId, CostModel, Topology};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn all_specs() -> Vec<DesignSpec> {
        vec![
            DesignSpec::Centralized,
            DesignSpec::extreme_shared_nothing(false),
            DesignSpec::coarse_shared_nothing(),
            DesignSpec::shared_nothing_with_memory_policy(MemoryPolicy::Remote),
            DesignSpec::Plp,
            DesignSpec::atrapos(),
            DesignSpec::atrapos_named("static", AtraposConfig::static_atrapos()),
        ]
    }

    #[test]
    fn every_spec_builds_and_executes() {
        for spec in all_specs() {
            let mut m = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
            let mut w = TinyWorkload { rows: 500 };
            let mut design = spec.build(&m, &w);
            let mut rng = SmallRng::seed_from_u64(1);
            let mut now = 0;
            for _ in 0..10 {
                let txn = w.next_transaction(&mut rng, CoreId(0));
                let out = design.execute(&mut m, &txn, CoreId(0), now);
                assert!(out.committed, "{} failed a read", spec.label());
                now = out.end;
            }
        }
    }

    #[test]
    fn specs_round_trip_through_serde() {
        for spec in all_specs() {
            let text = serde::json::to_string(&spec);
            let back: DesignSpec = serde::json::from_str(&text).unwrap();
            // DesignSpec has no PartialEq (AtraposConfig carries schemes);
            // byte-identical re-serialization is the round-trip check.
            assert_eq!(serde::json::to_string(&back), text);
        }
    }

    #[test]
    fn labels_distinguish_the_designs() {
        let labels: Vec<&str> = all_specs().iter().map(|s| s.label()).collect();
        assert!(labels.contains(&"Centralized"));
        assert!(labels.contains(&"Extreme shared-nothing"));
        assert!(labels.contains(&"Coarse shared-nothing"));
        assert!(labels.contains(&"PLP"));
        assert!(labels.contains(&"ATraPos"));
        assert!(labels.contains(&"ATraPos (custom)"));
    }
}
