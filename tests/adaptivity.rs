//! End-to-end tests of the adaptive behaviour: monitoring, repartitioning,
//! and reaction to skew and hardware changes through the full executor.

use atrapos_core::{AdaptiveInterval, ControllerConfig};
use atrapos_engine::{
    AtraposConfig, AtraposDesign, ExecutorConfig, SystemDesign, VirtualExecutor, WorkloadChange,
};
use atrapos_numa::{CostModel, Machine, SocketId, Topology};
use atrapos_workloads::{KeyDistribution, ReadOneRow, Tatp, TatpConfig, TatpTxn};

fn adaptive_executor(adaptive: bool) -> VirtualExecutor {
    let machine = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
    let workload = ReadOneRow::with_rows(4_000);
    let config = AtraposConfig {
        monitoring: adaptive,
        adaptive,
        controller: ControllerConfig {
            interval: AdaptiveInterval::new(0.002, 0.016, 0.10),
            ..ControllerConfig::default()
        },
        ..AtraposConfig::default()
    };
    let design: Box<dyn SystemDesign> = Box::new(AtraposDesign::new(&machine, &workload, config));
    VirtualExecutor::new(
        machine,
        design,
        Box::new(workload),
        ExecutorConfig {
            seed: 3,
            default_interval_secs: 0.002,
            time_series_bucket_secs: 0.002,
        },
    )
}

#[test]
fn skew_triggers_repartitioning_and_recovers_throughput() {
    let mut ex = adaptive_executor(true);
    let uniform = ex.run_for(0.01);
    // Introduce a heavy hotspot: 60% of accesses on 10% of the data.
    ex.reconfigure_workload(&WorkloadChange::Distribution {
        distribution: KeyDistribution::Hotspot {
            data_fraction: 0.1,
            access_fraction: 0.6,
        },
    })
    .expect("read-one-row supports distribution changes");
    let skew_first = ex.run_for(0.01);
    let skew_later = ex.run_for(0.02);
    assert!(uniform.committed > 0 && skew_first.committed > 0);
    // The adaptive system must eventually repartition under skew...
    let total_repartitions = skew_first.repartitions + skew_later.repartitions;
    assert!(
        total_repartitions >= 1,
        "expected at least one repartitioning under skew"
    );
    // ...and keep committing afterwards.
    assert!(skew_later.committed > 0);
}

#[test]
fn static_configuration_never_repartitions() {
    let mut ex = adaptive_executor(false);
    let a = ex.run_for(0.01);
    ex.reconfigure_workload(&WorkloadChange::Distribution {
        distribution: KeyDistribution::Hotspot {
            data_fraction: 0.1,
            access_fraction: 0.6,
        },
    })
    .expect("read-one-row supports distribution changes");
    let b = ex.run_for(0.02);
    assert_eq!(a.repartitions + b.repartitions, 0);
}

#[test]
fn socket_failure_is_survived_and_adapted_to() {
    let machine = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
    let mut workload = Tatp::new(TatpConfig::scaled(1_000));
    workload.set_single(TatpTxn::GetSubscriberData);
    let config = AtraposConfig {
        controller: ControllerConfig {
            interval: AdaptiveInterval::new(0.002, 0.016, 0.10),
            ..ControllerConfig::default()
        },
        ..AtraposConfig::default()
    };
    let design: Box<dyn SystemDesign> = Box::new(AtraposDesign::new(&machine, &workload, config));
    let mut ex = VirtualExecutor::new(
        machine,
        design,
        Box::new(workload),
        ExecutorConfig {
            seed: 5,
            default_interval_secs: 0.002,
            time_series_bucket_secs: 0.002,
        },
    );
    let before = ex.run_for(0.01);
    ex.fail_socket(SocketId(1)).unwrap();
    let after = ex.run_for(0.02);
    assert!(before.committed > 0);
    assert!(
        after.committed > 0,
        "system must keep running after the failure"
    );
    assert!(
        after.repartitions >= 1,
        "the controller should repartition for the surviving cores"
    );
    // The new scheme only uses the surviving socket's cores.
    ex.restore_socket(SocketId(1)).unwrap();
    let restored = ex.run_for(0.005);
    assert!(restored.committed > 0);
}

#[test]
fn monitoring_interval_relaxes_when_the_workload_is_stable() {
    let mut ex = adaptive_executor(true);
    // A long stable run: intervals should have grown beyond the minimum, so
    // fewer than (duration / min_interval) boundaries fire.  We only verify
    // the system stays healthy and commits throughout.
    let stats = ex.run_for(0.04);
    assert!(stats.committed > 0);
    assert_eq!(stats.aborted, 0);
}
