//! Cross-crate integration tests: every system design executes every
//! workload end-to-end on the simulated multisocket machine, and the
//! headline qualitative results of the paper hold at test scale.

use atrapos_bench::harness::{machine, measurement_job, run, Scale};
use atrapos_engine::{DesignSpec, RunStats, Workload};
use atrapos_workloads::{
    MultiSiteUpdate, ReadOneRow, SimpleAb, Tatp, TatpConfig, TatpTxn, Tpcc, TpccConfig,
};

/// A reduced scale for debug-mode integration tests.
fn test_scale() -> Scale {
    Scale {
        micro_rows: 8_000,
        memory_rows: 8_000,
        tatp_subscribers: 2_000,
        tpcc_warehouses: 2,
        ycsb_records: 2_000,
        measure_secs: 0.004,
        phase_secs: 0.02,
        interval_min_secs: 0.005,
        interval_max_secs: 0.04,
        max_sockets: 2,
        cores_per_socket: 2,
    }
}

/// One measurement through the harness's runner: `workload` on `spec`
/// for `secs` virtual seconds on a `sockets` × `cores_per_socket` machine.
fn run_one(
    sockets: usize,
    cores_per_socket: usize,
    spec: &DesignSpec,
    workload: Box<dyn Workload>,
    secs: f64,
) -> RunStats {
    let job = measurement_job(
        spec.label(),
        machine(sockets, cores_per_socket),
        spec.clone(),
        workload,
        secs,
    );
    run(vec![job]).remove(0).segments.remove(0).stats
}

fn all_designs() -> Vec<DesignSpec> {
    vec![
        DesignSpec::Centralized,
        DesignSpec::extreme_shared_nothing(true),
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::Plp,
        DesignSpec::atrapos(),
    ]
}

#[test]
fn every_design_runs_the_read_microbenchmark() {
    let s = test_scale();
    for spec in all_designs() {
        let stats = run_one(
            2,
            2,
            &spec,
            Box::new(ReadOneRow::with_rows(s.micro_rows)),
            s.measure_secs,
        );
        assert!(stats.committed > 0, "{} committed nothing", spec.label());
        assert_eq!(stats.aborted, 0, "{} aborted reads", spec.label());
        assert!(stats.ipc > 0.0);
    }
}

#[test]
fn every_design_runs_the_multi_site_update_benchmark() {
    let s = test_scale();
    for spec in all_designs() {
        let stats = run_one(
            2,
            2,
            &spec,
            Box::new(MultiSiteUpdate::new(s.micro_rows, 4, 1, 50)),
            s.measure_secs,
        );
        assert!(stats.committed > 0, "{} committed nothing", spec.label());
    }
}

#[test]
fn every_design_runs_tatp_and_tpcc() {
    let s = test_scale();
    for spec in all_designs() {
        let tatp = Tatp::new(TatpConfig::scaled(s.tatp_subscribers));
        let stats = run_one(2, 2, &spec, Box::new(tatp), s.measure_secs);
        assert!(
            stats.committed > 0,
            "{} committed no TATP transactions",
            spec.label()
        );
        let tpcc = Tpcc::new(TpccConfig::scaled(s.tpcc_warehouses));
        let stats = run_one(2, 2, &spec, Box::new(tpcc), s.measure_secs);
        assert!(
            stats.committed > 0,
            "{} committed no TPC-C transactions",
            spec.label()
        );
    }
}

#[test]
fn shared_nothing_scales_on_partitionable_work_centralized_does_not() {
    let s = test_scale();
    // The paper's Figure 2 workload is *perfectly partitionable*: every
    // client draws keys from its own site, so shared-nothing instances never
    // communicate (one site per core in the extreme configuration).
    let run = |spec: &DesignSpec, sockets: usize| {
        run_one(
            sockets,
            2,
            spec,
            Box::new(ReadOneRow::partitionable(s.micro_rows, sockets * 2, 1)),
            s.measure_secs,
        )
        .throughput_tps
    };
    let sn1 = run(&DesignSpec::extreme_shared_nothing(false), 1);
    let sn4 = run(&DesignSpec::extreme_shared_nothing(false), 4);
    let ce1 = run(&DesignSpec::Centralized, 1);
    let ce4 = run(&DesignSpec::Centralized, 4);
    // Shared-nothing gains substantially from 4x the cores; the centralized
    // design gains much less (paper Figure 2's shape).
    let sn_speedup = sn4 / sn1;
    let ce_speedup = ce4 / ce1;
    assert!(sn_speedup > 2.5, "shared-nothing speedup {sn_speedup}");
    assert!(
        ce_speedup < sn_speedup * 0.7,
        "centralized speedup {ce_speedup} vs shared-nothing {sn_speedup}"
    );
}

#[test]
fn atrapos_beats_plp_on_tatp_at_multisocket_scale() {
    let s = test_scale();
    let tatp = || {
        let mut t = Tatp::new(TatpConfig::scaled(s.tatp_subscribers));
        t.set_single(TatpTxn::GetSubscriberData);
        Box::new(t) as Box<dyn Workload>
    };
    // The PLP penalty comes from centralized structures whose cache line
    // serializes cross-socket CAS traffic; the effect needs enough cores
    // hammering the line to show (the paper uses 80 cores, we use 16 here).
    let plp = run_one(8, 2, &DesignSpec::Plp, tatp(), s.measure_secs);
    let atr = run_one(8, 2, &DesignSpec::atrapos(), tatp(), s.measure_secs);
    assert!(
        atr.throughput_tps > plp.throughput_tps * 1.3,
        "ATraPos {} vs PLP {}",
        atr.throughput_tps,
        plp.throughput_tps
    );
}

#[test]
fn multi_site_transactions_hurt_shared_nothing_throughput() {
    let s = test_scale();
    let run = |pct| {
        run_one(
            2,
            2,
            &DesignSpec::coarse_shared_nothing(),
            Box::new(MultiSiteUpdate::new(s.micro_rows, 2, 2, pct)),
            s.measure_secs,
        )
        .throughput_tps
    };
    let local_only = run(0);
    let all_multi = run(100);
    assert!(
        all_multi < local_only * 0.7,
        "100% multi-site {all_multi} should be well below 0% {local_only}"
    );
}

#[test]
fn simple_ab_workload_runs_on_partitioned_designs() {
    let s = test_scale();
    for spec in [DesignSpec::Plp, DesignSpec::atrapos()] {
        let stats = run_one(
            2,
            2,
            &spec,
            Box::new(SimpleAb::new(s.micro_rows / 4).unwrap()),
            s.measure_secs,
        );
        assert!(stats.committed > 0);
        assert_eq!(stats.aborted, 0);
    }
}
