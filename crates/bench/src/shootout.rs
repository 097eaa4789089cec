//! Ad-hoc design sweeps (`atrapos sweep`): compare the five system designs
//! on a chosen workload and machine size, through the parallel experiment
//! lab.
//!
//! This is the generalization of the old `design_shootout` example: the
//! (socket count × design) measurements are independent jobs, fan out over
//! the lab, and come back in submission order as one [`FigureResult`]
//! table per socket count.
//!
//! With `--arrival <tps>` the sweep serves the workload *open loop* —
//! Poisson arrivals through a bounded admission queue (`--bound`) — and
//! the table switches to the serving metrics: goodput, p99 latency, and
//! rejection rate.

use crate::harness::{machine, measure_jobs, measurement_config, measurement_job, run_meta, Scale};
use crate::report::{fmt, FigureResult};
use atrapos_core::KeyDistribution;
use atrapos_engine::scenario::{Scenario, ScenarioEvent};
use atrapos_engine::sweep::SweepJob;
use atrapos_engine::{DesignSpec, Workload};
use atrapos_workloads::{ReadOneRow, Tatp, TatpConfig, Tpcc, TpccConfig, Ycsb, YcsbConfig};

/// The workloads `atrapos sweep` can run.
pub const SWEEP_WORKLOADS: &[&str] = &["micro", "tatp", "tpcc", "ycsb"];

/// The five designs of the shootout, in presentation order.
pub fn shootout_designs() -> Vec<DesignSpec> {
    vec![
        DesignSpec::extreme_shared_nothing(false),
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::Centralized,
        DesignSpec::Plp,
        DesignSpec::atrapos(),
    ]
}

/// Build one instance of a named sweep workload, sized for `scale` and the
/// given core count.  `spec:<file.json>` loads a declarative
/// [`WorkloadSpec`](atrapos_workloads::WorkloadSpec) file instead.
fn build_workload(
    name: &str,
    scale: &Scale,
    total_cores: usize,
) -> Result<Box<dyn Workload>, String> {
    if let Some(path) = name.strip_prefix("spec:") {
        let spec = crate::figures::load_spec(std::path::Path::new(path))?;
        return spec
            .compile()
            .map(|w| Box::new(w) as Box<dyn Workload>)
            .map_err(|e| format!("{path}: {e}"));
    }
    match name {
        "micro" => Ok(Box::new(ReadOneRow::partitionable(
            scale.micro_rows,
            total_cores,
            1,
        ))),
        "tatp" => Ok(Box::new(Tatp::new(TatpConfig::scaled(
            scale.tatp_subscribers,
        )))),
        "tpcc" => Ok(Box::new(Tpcc::new(TpccConfig::scaled(
            scale.tpcc_warehouses,
        )))),
        "ycsb" => Ycsb::new(
            YcsbConfig::workload_a(scale.ycsb_records).with_distribution(KeyDistribution::Uniform),
        )
        .map(|w| Box::new(w) as Box<dyn Workload>)
        .map_err(|e| format!("ycsb: {e}")),
        other => Err(format!(
            "unknown workload '{other}' (known: {}, or spec:<file.json>)",
            SWEEP_WORKLOADS.join(", ")
        )),
    }
}

/// Sweep every design over `workload_name` at each socket count, returning
/// one result table per socket count.  `open_loop` switches every job to
/// open-loop serving at `(rate_tps, admission bound)` and the tables to
/// the serving metrics.  Unknown workload names are an error (the caller
/// lists [`SWEEP_WORKLOADS`]).
pub fn design_sweep(
    workload_name: &str,
    scale: &Scale,
    socket_counts: &[usize],
    open_loop: Option<(f64, u64)>,
) -> Result<Vec<FigureResult>, String> {
    let designs = shootout_designs();
    let mut jobs = Vec::new();
    for &sockets in socket_counts {
        for spec in &designs {
            let workload = build_workload(workload_name, scale, sockets * scale.cores_per_socket)?;
            let name = format!("{sockets}-socket/{}", spec.label());
            jobs.push(match open_loop {
                Some((rate_tps, bound)) => SweepJob {
                    name,
                    machine: machine(sockets, scale.cores_per_socket),
                    design: spec.clone(),
                    workload,
                    scenario: Scenario::new("design-sweep-serving", scale.measure_secs)
                        .starting_as("serve")
                        .at_unlabelled(0.0, ScenarioEvent::SetAdmissionBound { bound })
                        .at_unlabelled(0.0, ScenarioEvent::SetArrivalRate { rate_tps }),
                    config: measurement_config(scale.measure_secs),
                },
                None => measurement_job(
                    name,
                    sockets,
                    scale.cores_per_socket,
                    spec.clone(),
                    workload,
                    scale.measure_secs,
                ),
            });
        }
    }
    let results = measure_jobs(jobs);
    Ok(socket_counts
        .iter()
        .zip(results.chunks(designs.len()))
        .map(|(&sockets, chunk)| {
            let title = format!(
                "{workload_name} on {sockets} socket(s) × {} cores",
                scale.cores_per_socket
            );
            let mut fig = match open_loop {
                Some((rate_tps, bound)) => {
                    let mut fig = FigureResult::new(
                        format!("sweep-{workload_name}-{sockets}s"),
                        title,
                        vec!["design", "goodput (KTPS)", "p99 (µs)", "rejected %"],
                    );
                    fig.note(format!(
                        "open loop: Poisson arrivals at {rate_tps} TPS through a \
                         {bound}-slot admission queue; p99 includes queueing delay"
                    ));
                    for (spec, stats) in designs.iter().zip(chunk) {
                        let rejected_pct = if stats.offered == 0 {
                            0.0
                        } else {
                            100.0 * stats.rejected as f64 / stats.offered as f64
                        };
                        fig.push_row(vec![
                            spec.label().to_string(),
                            fmt(stats.throughput_tps / 1e3),
                            fmt(stats.p99_latency_us),
                            fmt(rejected_pct),
                        ]);
                    }
                    fig
                }
                None => {
                    let mut fig = FigureResult::new(
                        format!("sweep-{workload_name}-{sockets}s"),
                        title,
                        vec!["design", "KTPS", "IPC", "avg latency (µs)"],
                    );
                    for (spec, stats) in designs.iter().zip(chunk) {
                        fig.push_row(vec![
                            spec.label().to_string(),
                            fmt(stats.throughput_tps / 1e3),
                            fmt(stats.ipc),
                            fmt(stats.avg_latency_us),
                        ]);
                    }
                    fig
                }
            };
            fig.set_meta(run_meta(sockets, scale.cores_per_socket));
            fig
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_table_per_socket_count() {
        let mut scale = Scale::quick();
        scale.micro_rows = 4_000;
        scale.measure_secs = 0.002;
        scale.cores_per_socket = 2;
        let figs = design_sweep("micro", &scale, &[1, 2], None).unwrap();
        assert_eq!(figs.len(), 2);
        for fig in &figs {
            assert_eq!(fig.rows.len(), shootout_designs().len());
            assert!(fig.meta.is_some());
        }
    }

    #[test]
    fn open_loop_sweep_reports_serving_metrics() {
        let mut scale = Scale::quick();
        scale.ycsb_records = 4_000;
        scale.measure_secs = 0.002;
        scale.cores_per_socket = 2;
        let figs = design_sweep("ycsb", &scale, &[1], Some((50_000.0, 64))).unwrap();
        assert_eq!(figs.len(), 1);
        let fig = &figs[0];
        assert_eq!(
            fig.header,
            vec!["design", "goodput (KTPS)", "p99 (µs)", "rejected %"]
        );
        assert_eq!(fig.rows.len(), shootout_designs().len());
        // At a modest offered rate every design serves something, and the
        // rejection column stays a percentage.
        for r in 0..fig.rows.len() {
            assert!(fig.num(r, 1).unwrap() > 0.0);
            let rej = fig.num(r, 3).unwrap();
            assert!((0.0..=100.0).contains(&rej));
        }
    }

    #[test]
    fn unknown_workloads_are_rejected_with_the_known_list() {
        let err = design_sweep("nope", &Scale::quick(), &[1], None).unwrap_err();
        assert!(err.contains("micro, tatp, tpcc, ycsb"));
    }
}
