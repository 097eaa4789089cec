//! # atrapos-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! ATraPos (ICDE 2014) evaluation on the simulated hardware-Island machine,
//! behind the single `atrapos` command-line binary.
//!
//! * [`cli`] — strict flag parsing shared by every subcommand (unknown
//!   flags are errors, not silently ignored defaults).
//! * [`figures`] — one function per experiment and the id → runner table
//!   ([`figures::RUNNERS`]) matching the report's catalogue of 24
//!   (`fig01` … `fig13`, `tab01`, `tab02`, the ablations, the YCSB,
//!   overload and spec extensions); each returns a serializable
//!   [`report::FigureResult`] with the same rows or series the paper
//!   reports.
//! * [`harness`] — the one path every experiment takes: job builders, the
//!   lab runner ([`harness::run`]) and the two folds from outcomes to
//!   table rows.
//! * [`report`] — where the JSON artifacts live (`reports/BENCH_*.json`);
//!   the result model itself comes from `atrapos-report`.
//! * [`replay`] — complete experiments (machine + design + timeline) as
//!   JSON files.
//! * [`shootout`] — ad-hoc design sweeps over a workload.
//! * [`workload_cmd`] — the `atrapos workload check` subcommand over
//!   declarative `WorkloadSpec` JSON files.
//!
//! Run `cargo run --release -p atrapos-bench --bin atrapos -- help` for the
//! CLI surface; `atrapos figures && atrapos report` regenerates the
//! experiment data and renders `REPRODUCTION.md` from it.  Set
//! `ATRAPOS_PAPER=1` to use the paper-sized datasets and durations
//! (slower); the default scale is reduced so the whole suite completes in
//! a few minutes.
//!
//! ---
//!
//! The repository README follows, included here so that its code examples
//! compile and run as doctests under `cargo test`:
#![doc = include_str!("../../../README.md")]

pub mod cli;
pub mod figures;
pub mod harness;
pub mod replay;
pub mod report;
pub mod shootout;
pub mod workload_cmd;

pub use atrapos_engine::DesignSpec;
pub use harness::Scale;
pub use report::FigureResult;
