//! Quickstart: simulate an 8-socket machine, run the TATP mix on ATraPos,
//! and print the headline metrics.
//!
//! ```text
//! cargo run --release -p atrapos-bench --example quickstart
//! ```

use atrapos_engine::{AtraposConfig, AtraposDesign, ExecutorConfig, VirtualExecutor};
use atrapos_numa::{CostModel, Machine, Topology};
use atrapos_workloads::{Tatp, TatpConfig};

fn main() {
    // 1. Describe the hardware: the paper's 8-socket × 10-core box.
    let machine = Machine::new(Topology::westmere_ex_8x10(), CostModel::westmere());
    println!(
        "machine: {} sockets × {} cores, diameter {} hops",
        machine.topology.num_sockets(),
        machine.topology.cores_of(atrapos_numa::SocketId(0)).len(),
        machine.topology.diameter()
    );

    // 2. Pick a workload: TATP with a scaled-down subscriber count.
    let workload = Tatp::new(TatpConfig::scaled(50_000));

    // 3. Build the ATraPos design (NUMA-aware structures + adaptive
    //    partitioning) and a closed-loop executor with one client per core.
    let design = AtraposDesign::new(&machine, &workload, AtraposConfig::default());
    let mut executor = VirtualExecutor::new(
        machine,
        Box::new(design),
        Box::new(workload),
        ExecutorConfig::default(),
    );

    // 4. Run for a tenth of a virtual second and look at the results.
    let stats = executor.run_for(0.1);
    println!("committed transactions : {}", stats.committed);
    println!("throughput             : {:.0} TPS", stats.throughput_tps);
    println!("average latency        : {:.1} µs", stats.avg_latency_us);
    println!("machine IPC            : {:.2}", stats.ipc);
    println!("QPI/IMC traffic ratio  : {:.2}", stats.qpi_imc_ratio);
    println!(
        "interconnect bandwidth : {:.2} Gbit/s",
        stats.interconnect_gbps
    );
    println!("repartitionings        : {}", stats.repartitions);

    // 5. The machine counts machine-wide totals, nothing per link or core:
    //    the ratio and bandwidth above are derived from these two sums.
    let totals = executor.machine().totals();
    println!(
        "bytes moved            : {} remote, {} local",
        totals.remote_bytes, totals.local_memory_bytes
    );
}
