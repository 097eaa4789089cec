//! The partitioning/placement strategy comparison (Figure 6) and the
//! NewOrder flow graph (Figure 7).

use crate::harness::{grid, labelled, machine, measurement_job, run_meta, Scale};
use crate::report::FigureResult;
use atrapos_core::{KeyDomain, PartitionSpec, PartitioningScheme, TablePartitioning};
use atrapos_engine::{ActionOp, AtraposConfig, DesignSpec, Workload};
use atrapos_numa::{CoreId, Topology};
use atrapos_storage::TableId;
use atrapos_workloads::{SimpleAb, Tpcc, TpccConfig, TpccTxn};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Build a scheme with one partition per core *in total* (half per table):
/// table A's partition `i` goes to an even core, table B's partition `i`
/// goes either to the adjacent odd core (same socket — the ATraPos
/// placement) or to a core one socket away (hardware-oblivious placement).
/// Shared with the oversubscription ablation (`abl02`), which compares this
/// layout against the naive one-partition-per-table-per-core scheme.
pub(crate) fn half_scheme(
    topo: &Topology,
    domains: &[(TableId, KeyDomain)],
    colocate: bool,
    sub_per_partition: usize,
) -> PartitioningScheme {
    let cores = topo.active_cores();
    let n = cores.len();
    let parts_per_table = (n / 2).max(1);
    let cores_per_socket = topo.cores_of(topo.active_sockets()[0]).len();
    let tables = domains
        .iter()
        .enumerate()
        .map(|(t_idx, &(table, domain))| {
            let partitions = (0..parts_per_table)
                .map(|i| {
                    let core = if t_idx == 0 {
                        cores[(2 * i) % n]
                    } else if colocate {
                        cores[(2 * i + 1) % n]
                    } else {
                        cores[(2 * i + 1 + cores_per_socket) % n]
                    };
                    PartitionSpec {
                        sub_start: i * sub_per_partition,
                        sub_end: (i + 1) * sub_per_partition,
                        core,
                    }
                })
                .collect();
            TablePartitioning {
                table,
                domain,
                num_sub_partitions: parts_per_table * sub_per_partition,
                partitions,
            }
        })
        .collect();
    PartitioningScheme::new(tables)
}

/// Figure 6: throughput of the simple two-table transaction under the five
/// partitioning and placement strategies.
pub fn fig06_placement(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig06",
        "Simple two-table transaction: partitioning & placement strategies (KTPS)",
        vec!["strategy", "throughput (KTPS)"],
    );
    let sockets = scale.max_sockets;
    let cores = scale.cores_per_socket;
    let workload = SimpleAb::new(scale.micro_rows / 4).expect("the scale has rows");
    let topology = machine(sockets, cores).topology;
    // One partition per core in total, placed by `half_scheme`.
    let placed = |name: &str, colocate: bool| {
        DesignSpec::atrapos_named(
            name,
            AtraposConfig {
                initial_scheme: Some(half_scheme(
                    &topology,
                    &workload.table_domains(),
                    colocate,
                    10,
                )),
                ..AtraposConfig::static_atrapos()
            },
        )
    };
    let strategies = [
        ("Centralized", DesignSpec::Centralized),
        ("PLP", DesignSpec::Plp),
        // One partition of each table per core → two partitions per core:
        // oversaturated.
        (
            "HW-aware (naive)",
            DesignSpec::atrapos_named("hw-aware", AtraposConfig::static_atrapos()),
        ),
        // One partition per core, placed obliviously to the topology.
        ("Workload-aware", placed("workload-aware", false)),
        // The full ATraPos placement: correlated partitions co-located.
        ("ATraPos", placed("atrapos", true)),
    ];
    grid(
        &mut fig,
        &strategies,
        &[()],
        |(label, design), _| {
            measurement_job(
                *label,
                machine(sockets, cores),
                design.clone(),
                Box::new(workload.clone()),
                scale.measure_secs,
            )
        },
        |(label, _), measured| labelled(label, [measured[0].throughput_tps / 1e3]),
    );
    fig.note("expected shape: HW-aware ≈ 1.7-2x over the baselines; removing oversaturation ≈ 2.3x more; co-locating dependent partitions adds ≈ 10%");
    fig.set_meta(run_meta(sockets, cores));
    fig
}

/// Figure 7: the transaction flow graph of the TPC-C NewOrder transaction.
pub fn fig07_neworder_flowgraph(_scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig07",
        "Transaction flow graph of the TPC-C NewOrder transaction",
        vec!["phase", "actions", "synchronization point"],
    );
    let mut tpcc = Tpcc::new(TpccConfig::scaled(2));
    tpcc.set_single(TpccTxn::NewOrder);
    let mut rng = SmallRng::seed_from_u64(7);
    let spec = tpcc.next_transaction(&mut rng, CoreId(0));
    let table_name = |id: TableId| match id.0 {
        0 => "WH",
        1 => "DIST",
        2 => "CUST",
        3 => "HIST",
        4 => "NORD",
        5 => "ORD",
        6 => "OL",
        7 => "ITEM",
        8 => "STO",
        _ => "?",
    };
    for (i, phase) in spec.phases.iter().enumerate() {
        let mut ops: Vec<String> = Vec::new();
        for a in &phase.actions {
            let tag = match &a.op {
                ActionOp::Read { table, .. } | ActionOp::ReadRange { table, .. } => {
                    format!("R({})", table_name(*table))
                }
                ActionOp::Update { table, .. } | ActionOp::Increment { table, .. } => {
                    format!("U({})", table_name(*table))
                }
                ActionOp::Insert { table, .. } => format!("I({})", table_name(*table)),
                ActionOp::Delete { table, .. } => format!("D({})", table_name(*table)),
            };
            ops.push(tag);
        }
        // Compress repeated per-item actions like the paper's "x(5-15)".
        ops.dedup();
        fig.push_row(vec![
            format!("{}", i + 1),
            ops.join(" "),
            if i + 1 < spec.phases.len() {
                format!("sync point {} ({} B)", i + 1, phase.sync_bytes)
            } else {
                "commit".to_string()
            },
        ]);
    }
    fig.note("matches the paper's Figure 7: fixed part (WH/DIST/CUST/ITEM reads), district update, order inserts + stock reads, stock updates + order-line inserts");
    fig
}
