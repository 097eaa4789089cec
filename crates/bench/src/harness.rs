//! The one path from an experiment's description to its table: job
//! builders, the lab runner, and the two folds that turn outcomes into
//! rows.
//!
//! Every measurement is a [`SweepJob`] — a machine, a serializable
//! [`DesignSpec`], a workload and a scenario timeline (eventless for a
//! single-point measurement) — so anything the harness runs can also be
//! described in a replay file.  [`run`] hands a job list to the engine's
//! parallel experiment lab ([`atrapos_engine::sweep`]) and returns the
//! outcomes in job order, identical to a serial run; [`grid`] and
//! [`time_series_figure`] fold them into the two table shapes the
//! experiments have.

use crate::report::{fmt, FigureResult};
use atrapos_core::{AdaptiveInterval, ControllerConfig};
use atrapos_engine::scenario::{Scenario, ScenarioOutcome};
use atrapos_engine::sweep::{default_threads, run_sweep, SweepJob};
use atrapos_engine::{
    AtraposConfig, DesignSpec, ExecutorConfig, RunMeta, RunStats, TimePoint, Workload,
};
use atrapos_numa::{CostModel, Machine, Topology};

/// Experiment scale: reduced by default so the whole suite runs in minutes;
/// `ATRAPOS_PAPER=1` switches to the paper's dataset sizes (slow).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the microbenchmark table (paper: 800 000).
    pub micro_rows: i64,
    /// Rows of the remote-memory microbenchmark table (paper: 1 000 000).
    pub memory_rows: i64,
    /// TATP subscribers (paper: 800 000).
    pub tatp_subscribers: i64,
    /// TPC-C warehouses (paper: 80).
    pub tpcc_warehouses: i64,
    /// YCSB records (the benchmark's standard runs use 1 M+; an extension
    /// beyond the paper's evaluation).
    pub ycsb_records: i64,
    /// Virtual seconds simulated per throughput measurement.
    pub measure_secs: f64,
    /// Virtual seconds per phase of the adaptive time-series experiments
    /// (paper: 30 s / 20 s phases).
    pub phase_secs: f64,
    /// Minimum monitoring interval in virtual seconds (paper: 1 s).
    pub interval_min_secs: f64,
    /// Maximum monitoring interval in virtual seconds (paper: 8 s).
    pub interval_max_secs: f64,
    /// Sockets × cores of the simulated machine for the heavyweight
    /// scale-up figures (paper: 8 × 10).
    pub max_sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
}

impl Scale {
    /// The reduced default scale.
    pub fn quick() -> Self {
        Self {
            micro_rows: 160_000,
            memory_rows: 200_000,
            tatp_subscribers: 40_000,
            tpcc_warehouses: 40,
            ycsb_records: 25_000,
            measure_secs: 0.03,
            phase_secs: 0.25,
            interval_min_secs: 0.05,
            interval_max_secs: 0.4,
            max_sockets: 8,
            cores_per_socket: 10,
        }
    }

    /// The paper's scale (slow: hours).
    pub fn paper() -> Self {
        Self {
            micro_rows: 800_000,
            memory_rows: 1_000_000,
            tatp_subscribers: 800_000,
            tpcc_warehouses: 80,
            ycsb_records: 1_000_000,
            measure_secs: 1.0,
            phase_secs: 30.0,
            interval_min_secs: 1.0,
            interval_max_secs: 8.0,
            max_sockets: 8,
            cores_per_socket: 10,
        }
    }

    /// Pick the scale from the `ATRAPOS_PAPER` environment variable.
    pub fn from_env() -> Self {
        if std::env::var("ATRAPOS_PAPER")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Self::paper()
        } else {
            Self::quick()
        }
    }

    /// The smallest scale every experiment still runs at (a 2×2 machine,
    /// milliseconds of virtual time): what the harness's own tests use.
    #[cfg(test)]
    pub(crate) fn tiny() -> Self {
        Self {
            micro_rows: 8_000,
            memory_rows: 8_000,
            tatp_subscribers: 4_000,
            tpcc_warehouses: 2,
            ycsb_records: 4_000,
            measure_secs: 0.002,
            phase_secs: 0.004,
            interval_min_secs: 0.002,
            interval_max_secs: 0.008,
            max_sockets: 2,
            cores_per_socket: 2,
        }
    }

    /// Time-axis compression factor relative to the paper (for the adaptive
    /// experiments' captions).
    pub fn time_compression(&self) -> f64 {
        30.0 / self.phase_secs
    }
}

/// Build the simulated machine.
pub fn machine(sockets: usize, cores_per_socket: usize) -> Machine {
    Machine::new(
        Topology::multisocket(sockets, cores_per_socket),
        CostModel::westmere(),
    )
}

/// The provenance record of a harness measurement on the standard machine:
/// the fixed seed (42) and the experiment lab's thread count.
pub fn run_meta(sockets: usize, cores_per_socket: usize) -> RunMeta {
    RunMeta::of(&machine(sockets, cores_per_socket), 42, default_threads())
}

/// The [`ExecutorConfig`] of every harness job: the fixed seed, and the
/// monitoring interval and time-series bucket both `interval_secs`.
fn config(interval_secs: f64) -> ExecutorConfig {
    ExecutorConfig {
        seed: 42,
        default_interval_secs: interval_secs,
        time_series_bucket_secs: interval_secs,
    }
}

/// The fully adaptive ATraPos configuration at the experiment scale.  The
/// `ControllerConfig` default is the paper's 1–8 s interval; at the reduced
/// scale a run lasts well under a second, so an unscaled controller never
/// fires and the "adaptive" variant silently degenerates to the static one
/// (plus monitoring overhead).
pub fn adaptive_atrapos(scale: &Scale) -> AtraposConfig {
    AtraposConfig {
        controller: ControllerConfig {
            interval: AdaptiveInterval::new(scale.interval_min_secs, scale.interval_max_secs, 0.10),
            ..ControllerConfig::default()
        },
        ..AtraposConfig::default()
    }
}

/// A single-point measurement as a lab job: an eventless scenario of
/// `secs` virtual seconds, the monitoring interval equal to the
/// measurement length (floored at 10 ms of virtual time).
pub fn measurement_job(
    name: impl Into<String>,
    machine: Machine,
    design: DesignSpec,
    workload: Box<dyn Workload>,
    secs: f64,
) -> SweepJob {
    SweepJob::measurement(
        name,
        machine,
        design,
        workload,
        secs,
        config(secs.max(0.01)),
    )
}

/// A timeline experiment as a lab job: `scenario` on the 4×4 machine of
/// the adaptive figures — small enough to keep the per-second transaction
/// counts tractable, multi-socket all the same — with the monitoring
/// interval scaled like the paper's 1 s.
pub fn timeline_job(
    name: impl Into<String>,
    scale: &Scale,
    design: DesignSpec,
    workload: Box<dyn Workload>,
    scenario: &Scenario,
) -> SweepJob {
    SweepJob {
        name: name.into(),
        machine: machine(4, 4),
        design,
        workload,
        scenario: scenario.clone(),
        config: config(scale.interval_min_secs),
    }
}

/// The one runner: every job on the lab's thread pool, outcomes in job
/// order.  Panics if a job fails — harness jobs are built from valid
/// scenarios, so a failure is a bug.
pub fn run(jobs: Vec<SweepJob>) -> Vec<ScenarioOutcome> {
    run_sweep(jobs, default_threads())
        .into_iter()
        .map(|r| {
            r.outcome
                .unwrap_or_else(|e| panic!("lab job '{}' failed: {e}", r.name))
        })
        .collect()
}

/// The statistics of a measurement outcome (its first segment; the only
/// one of an eventless job).
pub fn stats(outcome: &ScenarioOutcome) -> &RunStats {
    &outcome.segments[0].stats
}

/// A table row: `label`, then each value formatted for the table.
pub fn labelled(label: impl ToString, values: impl IntoIterator<Item = f64>) -> Vec<String> {
    std::iter::once(label.to_string())
        .chain(values.into_iter().map(fmt))
        .collect()
}

/// The rows × designs fold: build one job per (row, column) cell, run them
/// all as one lab sweep, and push one table row per entry of `rows` — what
/// `cells` makes of the row's measurements, in column order.  Returns the
/// outcomes in job (row-major) order.
pub fn grid<R, C>(
    fig: &mut FigureResult,
    rows: &[R],
    cols: &[C],
    job: impl Fn(&R, &C) -> SweepJob,
    cells: impl Fn(&R, &[&RunStats]) -> Vec<String>,
) -> Vec<ScenarioOutcome> {
    let jobs = rows
        .iter()
        .flat_map(|r| cols.iter().map(|c| job(r, c)))
        .collect();
    let outcomes = run(jobs);
    fold_rows(fig, rows, &outcomes, cells);
    outcomes
}

/// The folding half of [`grid`], for experiments that built and ran their
/// row-major job list themselves.
pub fn fold_rows<R>(
    fig: &mut FigureResult,
    rows: &[R],
    outcomes: &[ScenarioOutcome],
    cells: impl Fn(&R, &[&RunStats]) -> Vec<String>,
) {
    let per_row = outcomes.len() / rows.len().max(1);
    for (row, chunk) in rows.iter().zip(outcomes.chunks(per_row.max(1))) {
        let measured: Vec<&RunStats> = chunk.iter().map(stats).collect();
        fig.push_row(cells(row, &measured));
    }
}

/// The time-series fold: a figure with one row per time bucket — the
/// bucket's end in virtual seconds, then each outcome's throughput in
/// KTPS under its label.
pub fn time_series_figure(
    id: &str,
    title: &str,
    labels: &[&str],
    outcomes: &[ScenarioOutcome],
) -> FigureResult {
    let mut header = vec!["time (s)"];
    header.extend(labels);
    let mut fig = FigureResult::new(id, title, header);
    let series: Vec<Vec<TimePoint>> = outcomes.iter().map(|o| o.time_series()).collect();
    let len = series.iter().map(Vec::len).min().unwrap_or(0);
    for i in 0..len {
        let mut row = vec![format!("{:.2}", series[0][i].secs)];
        row.extend(series.iter().map(|s| fmt(s[i].tps / 1e3)));
        fig.push_row(row);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_workloads::ReadOneRow;

    #[test]
    fn scale_presets_differ() {
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(p.micro_rows > q.micro_rows);
        assert!(p.phase_secs > q.phase_secs);
        assert!(q.time_compression() > 1.0);
    }

    #[test]
    fn measure_runs_every_design_spec() {
        // One grid row of five designs: the runner returns one outcome per
        // job, in job order, and the fold sees them in column order.
        let designs = [
            DesignSpec::Centralized,
            DesignSpec::extreme_shared_nothing(false),
            DesignSpec::coarse_shared_nothing(),
            DesignSpec::Plp,
            DesignSpec::atrapos(),
        ];
        let mut fig = FigureResult::new("t", "t", vec!["rows", "c", "e", "s", "p", "a"]);
        let outcomes = grid(
            &mut fig,
            &[2_000i64],
            &designs,
            |&rows, spec| {
                let workload = Box::new(ReadOneRow::with_rows(rows));
                measurement_job(spec.label(), machine(1, 2), spec.clone(), workload, 0.002)
            },
            |rows, measured| labelled(rows, measured.iter().map(|s| s.committed as f64)),
        );
        assert_eq!(outcomes.len(), designs.len());
        for (spec, outcome) in designs.iter().zip(&outcomes) {
            assert_eq!(outcome.scenario, spec.label());
            assert!(
                stats(outcome).committed > 0,
                "{} committed nothing",
                spec.label()
            );
        }
        assert_eq!(fig.rows.len(), 1);
        assert_eq!(fig.rows[0][0], "2000");
        assert_eq!(fig.num(0, 5), Some(stats(&outcomes[4]).committed as f64));
    }
}
