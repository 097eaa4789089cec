//! # atrapos-workloads
//!
//! The workloads of the ATraPos evaluation (paper §III and §VI):
//!
//! * [`micro`] — the microbenchmarks of §III: the perfectly partitionable
//!   one-row read (Figures 1, 2, 5), the multi-site update benchmark
//!   (Figures 3, 4), and the 100-row read used for the memory-placement
//!   experiment (Table I).
//! * [`simple_ab`] — the two-table transaction of §V-A used to compare
//!   partitioning and placement strategies (Figure 6); a spec.
//! * [`tatp`] — the TATP telecom benchmark: 4 tables, 7 transaction types,
//!   the standard mix, plus the skew and mix-switching knobs used by the
//!   adaptive experiments (Figures 8, 10–13, Table II).
//! * [`tpcc`] — the TPC-C wholesale-supplier benchmark: 9 tables, 5
//!   transaction types including the NewOrder flow graph of Figure 7
//!   (Figure 8).
//! * [`ycsb`] — the YCSB workload family (core mixes A–F over one table),
//!   an extension beyond the paper: Zipfian and continuously drifting
//!   skew for the adaptive-controller experiments.  A typed config mapped
//!   onto a spec.
//! * [`spec`] — workloads as data: the declarative [`WorkloadSpec`]
//!   language, validated at load with typed errors and compiled by
//!   [`CompiledWorkload`] onto a precomputed-sampler, buffer-reuse hot
//!   path.  The one engine behind YCSB, SimpleAb and every
//!   `examples/specs/*.json` file.
//! * [`generator`] — shared key-distribution helpers (uniform, hotspot,
//!   Zipfian, and drifting-hotspot skew) and transaction-mix selection.

pub mod generator;
pub mod micro;
pub mod simple_ab;
pub mod spec;
pub mod tatp;
pub mod tpcc;
pub mod ycsb;

pub use generator::{KeyDistribution, KeySampler, Mix};
pub use micro::{MultiSiteUpdate, ReadManyRows, ReadOneRow};
pub use simple_ab::SimpleAb;
pub use spec::{CompiledWorkload, SpecError, WorkloadSpec};
pub use tatp::{Tatp, TatpConfig, TatpTxn};
pub use tpcc::{Tpcc, TpccConfig, TpccTxn};
pub use ycsb::{Ycsb, YcsbConfig};
