//! # atrapos-core
//!
//! The primary contribution of the ATraPos paper (Porobic et al., ICDE
//! 2014): workload- and hardware-aware adaptive partitioning and placement
//! for a physiologically partitioned shared-everything OLTP system.
//!
//! The crate is organized along the paper's §V:
//!
//! * [`partitioning`] — the representation of a partitioning and placement
//!   scheme: every table's key domain is divided into fixed *sub-partitions*
//!   (the monitoring granule), contiguous runs of sub-partitions form
//!   *partitions*, and each partition is assigned to a processor core.
//! * [`stats`] — the dynamic workload information the cost model consumes:
//!   per-sub-partition action costs and pairwise synchronization-point
//!   observations.
//! * [`cost_model`] — the two objective functions of §V-B: resource
//!   utilization imbalance `RU(S,W)` and transaction synchronization
//!   overhead `TS(S,W)`.
//! * [`search`] — the two-step greedy search of §V-C: Algorithm 1 (choose a
//!   partitioning that balances utilization) and Algorithm 2 (choose a
//!   placement that minimizes synchronization overhead).
//! * [`monitor`] — the lightweight monitoring of §V-D: partition-local
//!   arrays of sub-partition costs and sync counts, plus the adaptive
//!   monitoring-interval controller (1 s → 8 s, doubling when stable).
//! * [`repartition`] — split / merge / rearrange repartitioning actions that
//!   transform one scheme into another, and their application to the
//!   physical multi-rooted B-trees.
//! * [`controller`] — the adaptive loop that glues monitoring, the cost
//!   model, the search, and repartitioning together.
//! * [`advisor`] — the §VII future-work extension: the same cost model
//!   applied to coarse- and fine-grained shared-nothing deployments, where
//!   the dominant costs are distributed transactions and physical data
//!   movement.
//! * [`distribution`] — key-access distributions (uniform, hotspot,
//!   Zipfian, drifting hotspot) and their precomputed samplers;
//!   shared data for the engine's typed workload-reconfiguration channel.
//! * [`histogram`] — an allocation-free log-bucketed latency histogram
//!   with deterministic merge and bounded-error quantiles, used by the
//!   engine's open-loop serving mode to report p50/p95/p99/p999.

#![warn(missing_docs)]

pub mod advisor;
pub mod controller;
pub mod cost_model;
pub mod distribution;
pub mod histogram;
pub mod monitor;
pub mod partitioning;
pub mod repartition;
pub mod search;
pub mod stats;

pub use advisor::{
    advise_sharding, estimate_migration_bytes, evaluate_sharding, ShardingConfig, ShardingCost,
    ShardingPlan,
};
pub use controller::{AdaptationOutcome, AdaptiveController, ControllerConfig};
pub use cost_model::{resource_utilization, sync_overhead, CostBreakdown};
pub use distribution::{KeyDistribution, KeySampler, ZipfianDomainTooLarge, MAX_ZIPFIAN_DOMAIN};
pub use histogram::LatencyHistogram;
pub use monitor::{AdaptiveInterval, IntervalDecision, Monitor, MONITOR_INSTRUCTIONS_PER_EVENT};
pub use partitioning::{KeyDomain, PartitionSpec, PartitioningScheme, TablePartitioning};
pub use repartition::{apply_plan, plan_repartitioning, RepartitionAction, RepartitionPlan};
pub use search::{choose_partitioning, choose_placement, choose_scheme, SearchConfig};
pub use stats::{SubPartitionId, SyncObservation, WorkloadStats};
