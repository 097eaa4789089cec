//! The standard-benchmark experiments: Figure 8 (TATP and TPC-C throughput
//! normalized to PLP) and Table II (monitoring overhead).
//!
//! Both experiments are design sweeps — a list of independent
//! (design × workload) measurements — so they fan out over the parallel
//! experiment lab and the rows are assembled from the in-order results.

use crate::harness::{grid, labelled, machine, measurement_job, run_meta, Scale};
use crate::report::FigureResult;
use atrapos_engine::{AtraposConfig, DesignSpec, Workload};
use atrapos_workloads::{Tatp, TatpConfig, TatpTxn, Tpcc, TpccConfig, TpccTxn};

fn tatp_workload(scale: &Scale, txn: Option<TatpTxn>) -> Box<dyn Workload> {
    let mut w = Tatp::new(TatpConfig::scaled(scale.tatp_subscribers));
    if let Some(t) = txn {
        w.set_single(t);
    }
    Box::new(w)
}

fn tpcc_workload(scale: &Scale, txn: Option<TpccTxn>) -> Box<dyn Workload> {
    let mut w = Tpcc::new(TpccConfig::scaled(scale.tpcc_warehouses));
    if let Some(t) = txn {
        w.set_single(t);
    }
    Box::new(w)
}

/// Figure 8: throughput of ATraPos normalized over PLP for TATP transaction
/// types / mix and for the TPC-C read-only transactions / mix.
pub fn fig08_standard_benchmarks(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig08",
        "Standard benchmarks: ATraPos throughput normalized over PLP",
        vec!["workload", "PLP (KTPS)", "ATraPos (KTPS)", "ATraPos / PLP"],
    );
    let sockets = scale.max_sockets;
    let cores = scale.cores_per_socket;
    type WorkloadFactory<'a> = Box<dyn Fn() -> Box<dyn Workload> + 'a>;
    let cases: Vec<(&str, WorkloadFactory)> = vec![
        (
            "TATP GetSubData",
            Box::new(|| tatp_workload(scale, Some(TatpTxn::GetSubscriberData))),
        ),
        (
            "TATP GetNewDest",
            Box::new(|| tatp_workload(scale, Some(TatpTxn::GetNewDestination))),
        ),
        (
            "TATP UpdSubData",
            Box::new(|| tatp_workload(scale, Some(TatpTxn::UpdateSubscriberData))),
        ),
        ("TATP-Mix", Box::new(|| tatp_workload(scale, None))),
        (
            "TPCC StockLevel",
            Box::new(|| tpcc_workload(scale, Some(TpccTxn::StockLevel))),
        ),
        (
            "TPCC OrderStatus",
            Box::new(|| tpcc_workload(scale, Some(TpccTxn::OrderStatus))),
        ),
        ("TPCC-Mix", Box::new(|| tpcc_workload(scale, None))),
    ];
    // Two jobs per case (PLP, ATraPos), swept in parallel.
    grid(
        &mut fig,
        &cases,
        &[DesignSpec::Plp, DesignSpec::atrapos()],
        |(label, make), design| {
            measurement_job(
                format!("{label}/{}", design.label()),
                machine(sockets, cores),
                design.clone(),
                make(),
                scale.measure_secs,
            )
        },
        |(label, _), measured| {
            let (plp, atrapos) = (measured[0].throughput_tps, measured[1].throughput_tps);
            let ratio = if plp > 0.0 { atrapos / plp } else { 0.0 };
            labelled(label, [plp / 1e3, atrapos / 1e3, ratio])
        },
    );
    fig.note("paper reports 6.7x (GetSubData), 3.2x (GetNewDest), 5.4x (UpdSubData), 4.4x (TATP-Mix), 2.7x (StockLevel), 1.4x (OrderStatus), 1.5x (TPCC-Mix)");
    fig.set_meta(run_meta(sockets, cores));
    fig
}

/// Table II: throughput of ATraPos with and without monitoring and the
/// resulting overhead.
pub fn tab02_monitoring_overhead(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "tab02",
        "Monitoring overhead on TATP (TPS)",
        vec!["workload", "no monitoring", "monitoring", "overhead (%)"],
    );
    let sockets = scale.max_sockets;
    let cores = scale.cores_per_socket;
    let cases: Vec<(&str, Option<TatpTxn>)> = vec![
        ("GetSubData", Some(TatpTxn::GetSubscriberData)),
        ("GetNewDest", Some(TatpTxn::GetNewDestination)),
        ("UpdSubData", Some(TatpTxn::UpdateSubscriberData)),
        ("TATP-Mix", None),
    ];
    let monitoring = [
        ("off", AtraposConfig::static_atrapos()),
        (
            "on",
            AtraposConfig {
                adaptive: false,
                ..AtraposConfig::default()
            },
        ),
    ];
    grid(
        &mut fig,
        &cases,
        &monitoring,
        |(label, txn), (tag, config)| {
            measurement_job(
                format!("{label}/monitoring-{tag}"),
                machine(sockets, cores),
                DesignSpec::atrapos_with(config.clone()),
                tatp_workload(scale, *txn),
                scale.measure_secs,
            )
        },
        |(label, _), measured| {
            let (off, on) = (measured[0].throughput_tps, measured[1].throughput_tps);
            let overhead = if off > 0.0 {
                (1.0 - on / off) * 100.0
            } else {
                0.0
            };
            labelled(label, [off, on, overhead])
        },
    );
    fig.note("paper reports at most 3.32% (GetSubData) and ~1% elsewhere");
    fig.set_meta(run_meta(sockets, cores));
    fig
}
