//! Sharding advisor: apply the ATraPos cost model to a coarse-grained
//! shared-nothing deployment (the paper's §VII future-work extension).
//!
//! A two-table workload whose cross-table correlation is *shifted* — every
//! transaction reads `A[k]` and updates `B[(k + N/2) % N]` — is the worst
//! case for classic range sharding: almost every transaction spans two
//! instances and must run two-phase commit.  This example collects an
//! offline workload trace, asks the advisor for a better sharding plan, and
//! scores both plans with the advisor's cost model (`atrapos figures abl04`
//! measures them end-to-end on the simulated 4-socket machine).
//!
//! ```text
//! cargo run --release -p atrapos-bench --example sharding_advisor
//! ```

use atrapos_bench::figures::ablation::sample_shifted_trace;
use atrapos_core::{advise_sharding, evaluate_sharding, KeyDomain, ShardingPlan};
use atrapos_storage::TableId;

fn main() {
    let rows = 40_000i64;
    let instances = 4;
    let sub_per_table = instances * 8;
    let domains = vec![
        (TableId(0), KeyDomain::new(0, rows)),
        (TableId(1), KeyDomain::new(0, rows)),
    ];

    // 1. Collect an offline trace of the workload: per-sub-partition load
    //    plus which sub-partitions are co-accessed by the same transaction.
    let trace = sample_shifted_trace(rows, sub_per_table, 5_000);
    println!(
        "trace: {} transactions, {} distinct co-access pairs",
        trace.transactions,
        trace.num_sync_pairs()
    );

    // 2. Score the classic range sharding (what the coarse shared-nothing
    //    deployment of §III uses) against the advisor's plan.
    let range = ShardingPlan::range(&domains, sub_per_table, instances);
    let advised = advise_sharding(&domains, sub_per_table, instances, &trace);

    for (label, plan) in [("range sharding", &range), ("advisor sharding", &advised)] {
        let cost = evaluate_sharding(plan, &trace);
        println!(
            "{label:18}: {:6.0} distributed co-accesses, load imbalance {:.0}, combined cost {:.0}",
            cost.distributed,
            cost.load_imbalance,
            cost.combined(),
        );
    }

    println!();
    println!(
        "run `cargo run --release --bin atrapos -- figures abl04` to measure both plans end-to-end"
    );
}
