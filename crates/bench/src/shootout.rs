//! Ad-hoc design sweeps (`atrapos sweep`): compare the five system designs
//! on a chosen workload and machine size, through the parallel experiment
//! lab.
//!
//! The (socket count × design) measurements are independent jobs: they fan
//! out over the lab and come back in submission order as one
//! [`FigureResult`] table per socket count.
//!
//! With `--arrival <tps>` the sweep serves the workload *open loop* —
//! Poisson arrivals through a bounded admission queue (`--bound`) — and
//! the table switches to the serving metrics: goodput, p99 latency, and
//! rejection rate.

use crate::harness::{fold_rows, labelled, machine, measurement_job, run, run_meta, Scale};
use crate::report::FigureResult;
use atrapos_core::KeyDistribution;
use atrapos_engine::scenario::{Scenario, ScenarioEvent};
use atrapos_engine::{DesignSpec, Workload};
use atrapos_workloads::{ReadOneRow, Tatp, TatpConfig, Tpcc, TpccConfig, Ycsb, YcsbConfig};

/// The workloads `atrapos sweep` can run.
pub const SWEEP_WORKLOADS: &[&str] = &["micro", "tatp", "tpcc", "ycsb"];

/// The five designs of the shootout, in presentation order.
fn shootout_designs() -> Vec<DesignSpec> {
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
    let cores = scale.cores_per_socket;
    socket_counts
        .iter()
        .map(|&sockets| {
            let header = match open_loop {
                Some(_) => vec!["design", "goodput (KTPS)", "p99 (µs)", "rejected %"],
                None => vec!["design", "KTPS", "IPC", "avg latency (µs)", "aborted"],
            };
            let mut fig = FigureResult::new(
                format!("sweep-{workload_name}-{sockets}s"),
                format!("{workload_name} on {sockets} socket(s) × {cores} cores"),
                header,
            );
            // Build every workload first: a bad name or spec file is the
            // caller's error, not a panic inside the fold.
            let workloads = designs
                .iter()
                .map(|_| build_workload(workload_name, scale, sockets * cores))
                .collect::<Result<Vec<_>, _>>()?;
            let jobs = designs
                .iter()
                .zip(workloads)
                .map(|(design, workload)| {
                    let name = format!("{sockets}-socket/{}", design.label());
                    let mut job = measurement_job(
                        name,
                        machine(sockets, cores),
                        design.clone(),
                        workload,
                        scale.measure_secs,
                    );
                    if let Some((rate_tps, bound)) = open_loop {
                        job.scenario = Scenario::new("design-sweep-serving", scale.measure_secs)
                            .starting_as("serve")
                            .at_unlabelled(0.0, ScenarioEvent::SetAdmissionBound { bound })
                            .at_unlabelled(0.0, ScenarioEvent::SetArrivalRate { rate_tps });
                    }
                    job
                })
                .collect();
            fold_rows(&mut fig, &designs, &run(jobs), |design, measured| {
                let s = measured[0];
                match open_loop {
                    Some(_) => {
                        let rejected_pct = match s.offered {
                            0 => 0.0,
                            offered => 100.0 * s.rejected as f64 / offered as f64,
                        };
                        let served = [s.throughput_tps / 1e3, s.p99_latency_us, rejected_pct];
                        labelled(design.label(), served)
                    }
                    None => {
                        let ran = [s.throughput_tps / 1e3, s.ipc, s.avg_latency_us];
                        let mut row = labelled(design.label(), ran);
                        row.push(s.aborted.to_string());
                        row
                    }
                }
            });
            if let Some((rate_tps, bound)) = open_loop {
                fig.note(format!(
                    "open loop: Poisson arrivals at {rate_tps} TPS through a \
                     {bound}-slot admission queue; p99 includes queueing delay"
                ));
            }
            fig.set_meta(run_meta(sockets, cores));
            Ok(fig)
        })
        .collect()
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
    fn spec_file_sweep_reports_throughput_and_aborts_per_design() {
        // What `atrapos workload run <spec>` used to print: committed work
        // (as KTPS) and the abort count, per design.
        let mut scale = Scale::quick();
        scale.measure_secs = 0.002;
        scale.cores_per_socket = 2;
        let path = crate::figures::shipped_specs_dir().join("simple_ab.json");
        let workload = format!("spec:{}", path.display());
        let figs = design_sweep(&workload, &scale, &[1], None).unwrap();
        let fig = &figs[0];
        assert_eq!(fig.header.last().map(String::as_str), Some("aborted"));
        assert_eq!(fig.rows.len(), shootout_designs().len());
        for r in 0..fig.rows.len() {
            assert!(
                fig.num(r, 1).unwrap() > 0.0,
                "{:?} ran nothing",
                fig.rows[r]
            );
            assert!(fig.rows[r][4].parse::<u64>().is_ok());
        }
        let err = design_sweep("spec:/no/such/file.json", &scale, &[1], None).unwrap_err();
        assert!(err.contains("/no/such/file.json"), "{err}");
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
