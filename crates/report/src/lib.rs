//! # atrapos-report
//!
//! Self-documenting reproduction evidence for the ATraPos (ICDE 2014)
//! reproduction: experiment results as serializable data, hand-rolled SVG
//! charts, and pass/warn verdicts against the paper's reference trends.
//!
//! * [`catalogue`] — the ordered table of every experiment: id, chart
//!   columns and the check that judges its recorded rows.
//! * [`model`] — [`FigureResult`] (one regenerated table/figure, with run
//!   provenance) and [`FiguresFile`], the accumulated store behind
//!   `reports/BENCH_figures.json`.
//! * [`svg`] — a dependency-free deterministic SVG emitter: multi-series
//!   line charts and grouped bar charts.
//! * [`verdict`] — the reference-trend and SLO checks: for each headline
//!   experiment, whether the recorded rows show the trend the paper's
//!   conclusions rest on (or, for the open-loop overload extensions, meet
//!   the stated service-level objective).
//! * [`reproduction`] — the `REPRODUCTION.md` generator gluing the three
//!   together: one section per experiment with a markdown table, a chart,
//!   and a verdict.
//!
//! The whole pipeline is pure and deterministic: the same input JSON
//! produces byte-identical markdown and SVG, so the committed report can be
//! regenerated and diffed in CI.  Simulations happen elsewhere
//! (`atrapos-bench`); this crate only renders recorded results.

#![warn(missing_docs)]

pub mod catalogue;
pub mod model;
pub mod reproduction;
pub mod svg;
pub mod verdict;

pub use catalogue::{Experiment, CATALOGUE};
pub use model::{fmt, FigureResult, FiguresFile, FIGURES_SCHEMA};
pub use reproduction::{chart, generate, Reproduction};
pub use verdict::{assess, Assessment, CheckKind, Verdict};
