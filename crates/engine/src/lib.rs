//! # atrapos-engine
//!
//! The transaction-execution engine of the ATraPos reproduction: transaction
//! flow graphs, partition workers, a deterministic virtual-time executor,
//! and the five system designs compared in the paper's evaluation:
//!
//! | Design | Paper §III | Module |
//! |--------|-----------|--------|
//! | Centralized shared-everything | stock Shore-MT | [`designs::centralized`] |
//! | Extreme shared-nothing (one instance per core) | H-Store-style | [`designs::shared_nothing`] |
//! | Coarse shared-nothing (one instance per socket) | | [`designs::shared_nothing`] |
//! | PLP (physiological partitioning) | state of the art | [`designs::atrapos`], features off |
//! | ATraPos | this paper | [`designs::atrapos`] |
//!
//! Every design executes the *same* [`TransactionSpec`]s produced by a
//! [`Workload`] against real storage structures from `atrapos-storage`,
//! charging costs through the `atrapos-numa` virtual-time machine, so the
//! comparisons between designs come from their structure (what is
//! centralized, what is partitioned, where data and threads are placed) and
//! not from per-design tuning constants.
//!
//! ## The scenario layer
//!
//! Experiments are driven declaratively:
//!
//! * [`scenario::Scenario`] — a serializable timeline of typed
//!   [`scenario::ScenarioEvent`]s at virtual-time offsets (mix switches,
//!   skew, socket failures, measurement boundaries) plus a total duration.
//! * [`workload::WorkloadChange`] — the typed runtime-reconfiguration
//!   vocabulary every reconfigurable workload implements via
//!   [`Workload::reconfigure`]; no downcasting.
//! * [`designs::DesignStats`] — the structured statistics report every
//!   design exposes via [`SystemDesign::stats`]; no downcasting either.
//! * [`designs::spec::DesignSpec`] — a serializable design specification;
//!   the one way harnesses, examples, and tests instantiate designs.
//!
//! [`VirtualExecutor::run_scenario`] interprets a timeline and returns a
//! [`scenario::ScenarioOutcome`] with per-segment [`RunStats`] keyed by the
//! labels on the timeline — the paper's Figures 10–13 are each a `Scenario`
//! plus two `DesignSpec`s.  Scenarios round-trip through JSON (see
//! `atrapos replay [--emit-sample]`).
//!
//! ## The parallel experiment lab
//!
//! Experiments are independent deterministic simulations, so bundles of
//! them run on all cores: a [`sweep::SweepJob`] packages one
//! (design × workload × scenario) simulation as data and
//! [`sweep::run_sweep`] executes a job list on a pool of scoped OS threads,
//! returning results in job order — the output is byte-identical whether
//! one thread ran the list or sixteen did.  `SystemDesign` and `Workload`
//! are `Send` so boxed trait objects can move to the worker threads.  No
//! module of this crate reads the wall clock; the harness times the host.

#![warn(missing_docs)]

pub mod action;
pub mod arrival;
pub mod designs;
pub mod executor;
pub mod meta;
mod ready;
pub mod scenario;
pub mod sweep;
pub mod workers;
pub mod workload;

pub use action::{Action, ActionOp, Phase, SpecRefill, TransactionSpec, TxnOutcome};
pub use arrival::ArrivalProcess;
pub use designs::atrapos::{AtraposConfig, AtraposDesign};
pub use designs::centralized::CentralizedDesign;
pub use designs::shared_nothing::{SharedNothingDesign, SharedNothingGranularity};
pub use designs::spec::DesignSpec;
pub use designs::{DesignStats, IntervalOutcome, SystemDesign};
pub use executor::{ExecutorConfig, RunStats, TimePoint, VirtualExecutor};
pub use meta::{HostFingerprint, RunMeta};
pub use scenario::{Scenario, ScenarioEvent, ScenarioOutcome, SegmentStats, TimedEvent};
pub use sweep::{
    default_threads, parallel_map, run_sweep, threads_from_env, SweepJob, SweepResult,
};
pub use workers::WorkerPool;
pub use workload::{ReconfigureError, TableSpec, Workload, WorkloadChange};
