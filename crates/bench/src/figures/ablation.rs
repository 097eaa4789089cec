//! Ablation experiments.
//!
//! These are not figures of the paper; they isolate the design choices that
//! DESIGN.md calls out and exercise the §VII future-work extension:
//!
//! * `abl01` — what if the hardware were uniform?  The ATraPos advantage
//!   over PLP comes entirely from the non-uniform interconnect, so it must
//!   vanish under the uniform cost model.
//! * `abl02` — oversaturation: the penalty of hosting several partitions of
//!   different tables on the same core (the effect that motivates the
//!   workload-aware partition counts of Figure 6).
//! * `abl03` — sub-partitions per partition: the monitoring granule trades
//!   adaptation quality against monitoring state (the paper settles on 10).
//! * `abl04` — the shared-nothing sharding advisor of §VII: on a workload
//!   with shifted cross-table correlation, the advisor's plan turns almost
//!   every distributed transaction into a single-instance transaction.

use crate::harness::{
    adaptive_atrapos, grid, labelled, machine, measurement_job, run, run_meta, stats, timeline_job,
    Scale,
};
use crate::report::{fmt, FigureResult};
use atrapos_core::{
    advise_sharding, evaluate_sharding, KeyDistribution, KeyDomain, ShardingConfig, ShardingPlan,
    SubPartitionId, WorkloadStats,
};
use atrapos_engine::scenario::{Scenario, ScenarioEvent};
use atrapos_engine::workload::ensure_tables;
use atrapos_engine::{
    Action, ActionOp, AtraposConfig, DesignSpec, TableSpec, TransactionSpec, Workload,
};
use atrapos_numa::{CoreId, CostModel, Machine, Topology};
use atrapos_storage::{Column, ColumnType, Database, Key, Schema, TableId};
use atrapos_workloads::{SimpleAb, Tatp, TatpConfig, TatpTxn};
use rand::rngs::SmallRng;
use rand::Rng;

/// abl01: ATraPos vs PLP under the calibrated Westmere cost model and under
/// a hypothetical uniform interconnect.  The speedup of ATraPos over PLP
/// should collapse to ~1x when remote accesses cost the same as local ones,
/// confirming that the gains come from NUMA-awareness and not from an
/// unrelated implementation difference.
pub fn abl01_uniform_interconnect(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "abl01",
        "ATraPos/PLP speedup under Westmere vs. uniform interconnect costs",
        vec!["cost model", "PLP (KTPS)", "ATraPos (KTPS)", "speedup"],
    );
    let sockets = scale.max_sockets;
    let cores = scale.cores_per_socket.min(4);
    let cost_models = [
        ("westmere", CostModel::westmere()),
        ("uniform", CostModel::uniform()),
    ];
    grid(
        &mut fig,
        &cost_models,
        &[DesignSpec::Plp, DesignSpec::atrapos()],
        |(label, cost), design| {
            let mut workload = Tatp::new(TatpConfig::scaled(scale.tatp_subscribers / 4));
            workload.set_single(TatpTxn::GetSubscriberData);
            measurement_job(
                format!("abl01/{label}/{}", design.label()),
                Machine::new(Topology::multisocket(sockets, cores), cost.clone()),
                design.clone(),
                Box::new(workload),
                scale.measure_secs,
            )
        },
        |(label, _), measured| {
            let (plp, atrapos) = (measured[0].throughput_tps, measured[1].throughput_tps);
            labelled(label, [plp / 1e3, atrapos / 1e3, atrapos / plp])
        },
    );
    fig.note(
        "expected shape: a clear ATraPos speedup on the Westmere model, ~1x on the uniform model",
    );
    // The cost model is the swept variable here, so the provenance names
    // both rather than claiming a single one.
    let mut meta = run_meta(sockets, cores);
    meta.cost_model = "westmere vs uniform".to_string();
    fig.set_meta(meta);
    fig
}

/// abl02: the oversubscription penalty.  The Figure 6 workload is run on
/// the naive one-partition-per-table-per-core scheme and on the ATraPos
/// layout (one partition per core in total, correlated partitions
/// co-located) while sweeping the per-extra-partition scheduling penalty:
/// with the penalty disabled the naive scheme looks artificially good, with
/// the calibrated penalty the ATraPos scheme wins as in the paper.
pub fn abl02_oversubscription(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "abl02",
        "Throughput (KTPS) of the naive scheme vs. oversubscription penalty",
        vec!["penalty", "naive scheme", "ATraPos scheme", "ATraPos/naive"],
    );
    let sockets = scale.max_sockets.min(4);
    let cores = scale.cores_per_socket.min(4);
    let penalties = [0.0f64, 0.2, 0.35, 0.5];
    grid(
        &mut fig,
        &penalties,
        &[("naive", false), ("atrapos", true)],
        |&penalty, &(layout, atrapos_layout)| {
            let machine = machine(sockets, cores);
            let workload = SimpleAb::new(scale.micro_rows / 8).expect("the scale has rows");
            // A pure scheme comparison: adaptation off, only the initial
            // layout differs (the penalty itself is what is ablated).
            let initial_scheme = atrapos_layout.then(|| {
                crate::figures::partitioning::half_scheme(
                    &machine.topology,
                    &workload.table_domains(),
                    true,
                    AtraposConfig::default().sub_per_partition,
                )
            });
            let config = AtraposConfig {
                oversubscription_penalty: penalty,
                initial_scheme,
                ..AtraposConfig::static_atrapos()
            };
            measurement_job(
                format!("abl02/penalty-{penalty}/{layout}"),
                machine,
                DesignSpec::atrapos_with(config),
                Box::new(workload),
                scale.measure_secs,
            )
        },
        |&penalty, measured| {
            let (naive, atrapos) = (measured[0].throughput_tps, measured[1].throughput_tps);
            labelled(fmt(penalty), [naive / 1e3, atrapos / 1e3, atrapos / naive])
        },
    );
    fig.note(
        "expected shape: the ATraPos layout's advantage grows with the oversubscription penalty",
    );
    fig.set_meta(run_meta(sockets, cores));
    fig
}

/// abl03: sub-partitions per partition (the monitoring granule).  ATraPos
/// adapts to a sudden hotspot (Figure 11's skew) with 2, 10, and 40
/// sub-partitions per partition: too few sub-partitions cannot isolate the
/// hot range, more sub-partitions cost more monitoring state for little
/// additional benefit.
pub fn abl03_sub_partition_granularity(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "abl03",
        "Throughput (KTPS) after adapting to a hotspot vs. sub-partitions per partition",
        vec![
            "sub-partitions",
            "before skew",
            "after adaptation",
            "repartitions",
        ],
    );
    // One lab job per granularity on the adaptive figures' machine; the
    // skew arrives as a timeline event after the first phase, and the three
    // post-skew phases are measurement boundaries.
    let p = scale.phase_secs;
    let sub_pers = [2usize, 10, 40];
    let jobs = sub_pers
        .iter()
        .map(|&sub_per| {
            let mut workload = Tatp::new(TatpConfig::scaled(scale.tatp_subscribers / 4));
            workload.set_single(TatpTxn::GetSubscriberData);
            let config = AtraposConfig {
                sub_per_partition: sub_per,
                ..adaptive_atrapos(scale)
            };
            // The Figure 11 hotspot: 50% of the requests on 20% of the data.
            let scenario = Scenario::new(format!("abl03-sub-{sub_per}"), 4.0 * p)
                .starting_as("before")
                .at(
                    p,
                    "skewed",
                    ScenarioEvent::SetSkew {
                        distribution: KeyDistribution::Hotspot {
                            data_fraction: 0.2,
                            access_fraction: 0.5,
                        },
                    },
                )
                .at(2.0 * p, "skewed", ScenarioEvent::Measure)
                .at(3.0 * p, "skewed", ScenarioEvent::Measure);
            timeline_job(
                format!("abl03/sub-{sub_per}"),
                scale,
                DesignSpec::atrapos_with(config),
                Box::new(workload),
                &scenario,
            )
        })
        .collect();
    for (sub_per, outcome) in sub_pers.iter().zip(run(jobs)) {
        let before = outcome.segments[0].stats.throughput_tps;
        let post_skew = &outcome.segments[1..];
        let after = post_skew.last().map_or(0.0, |s| s.stats.throughput_tps);
        let repartitions: u64 = post_skew.iter().map(|s| s.stats.repartitions).sum();
        fig.push_row(vec![
            sub_per.to_string(),
            fmt(before / 1e3),
            fmt(after / 1e3),
            repartitions.to_string(),
        ]);
    }
    fig.note("expected shape: the coarsest granule adapts worst; 10 sub-partitions (the paper's choice) captures most of the benefit");
    fig.set_meta(run_meta(4, 4));
    fig
}

// ----------------------------------------------------------------------
// abl04: the shared-nothing sharding advisor (§VII)
// ----------------------------------------------------------------------

/// A two-table workload whose cross-table correlation is *shifted*: the
/// transaction reads `A[k]` and updates `B[(k + rows/2) % rows]`.  Classic
/// range sharding therefore turns almost every transaction into a
/// distributed transaction, while a workload-aware sharding can co-locate
/// the correlated halves.
#[derive(Debug, Clone)]
struct ShiftedAb {
    rows: i64,
}

impl ShiftedAb {
    fn partner(&self, k: i64) -> i64 {
        (k + self.rows / 2) % self.rows
    }

    fn schema(name: &str) -> Schema {
        Schema::new(
            name,
            vec![
                Column::new("pk", ColumnType::Int),
                Column::new("val", ColumnType::Int),
            ],
            vec![0],
        )
    }
}

impl Workload for ShiftedAb {
    fn name(&self) -> &str {
        "shifted-ab"
    }

    fn tables(&self) -> Vec<TableSpec> {
        (0..2)
            .map(|t| TableSpec {
                id: TableId(t),
                schema: Self::schema(if t == 0 { "A" } else { "B" }),
                domain: KeyDomain::new(0, self.rows),
                rows: self.rows as u64,
            })
            .collect()
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        ensure_tables(self, db);
        for t in 0..2u32 {
            let table = db.table_mut(TableId(t)).expect("table exists");
            for i in 0..self.rows {
                let key = Key::int(i);
                if filter(TableId(t), &key) {
                    table.load_cells(&[i, 0]).expect("unique keys");
                }
            }
        }
    }

    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        _client: CoreId,
        spec: &mut TransactionSpec,
    ) {
        let k = rng.gen_range(0..self.rows);
        let partner = self.partner(k);
        let mut w = spec.refill("shifted-ab");
        let phase = w.phase();
        phase.push(Action::new(ActionOp::Read {
            table: TableId(0),
            key: Key::int(k),
        }));
        phase.push(Action::new(ActionOp::Increment {
            table: TableId(1),
            key: Key::int(partner),
            column: 1,
            delta: 1,
        }));
        w.finish();
    }
}

/// Build the workload trace the advisor consumes by sampling the workload's
/// transaction generator — the shared-nothing engine has no built-in
/// monitoring, so the trace is collected offline, exactly as trace-driven
/// partitioning tools do (Schism, Horticulture).
pub fn sample_shifted_trace(rows: i64, n_sub: usize, samples: usize) -> WorkloadStats {
    let mut workload = ShiftedAb { rows };
    let domain = KeyDomain::new(0, rows);
    let mut stats = WorkloadStats::new();
    stats.declare_table(TableId(0), n_sub);
    stats.declare_table(TableId(1), n_sub);
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(7);
    let mut spec = TransactionSpec::empty();
    for _ in 0..samples {
        workload.next_transaction_into(&mut rng, CoreId(0), &mut spec);
        let mut subs = Vec::new();
        for action in spec.phases.iter().flat_map(|p| &p.actions) {
            let sub = SubPartitionId::new(
                action.op.table(),
                domain.sub_partition_of(action.op.routing_key_head(), n_sub),
            );
            stats.record_action(sub, 100.0);
            subs.push(sub);
        }
        if subs.len() == 2 {
            stats.record_sync(subs[0], subs[1], 64);
        }
        stats.record_transaction();
    }
    stats
}

/// abl04: measured throughput and distributed-transaction count of the
/// coarse shared-nothing deployment under (a) classic range sharding and
/// (b) the sharding plan produced by the §VII advisor, on the shifted
/// correlated workload.
pub fn abl04_sharding_advisor(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "abl04",
        "Shared-nothing sharding: range vs. advisor (distributed txns and KTPS)",
        vec![
            "sharding",
            "est. distributed co-accesses",
            "measured distributed txns",
            "throughput (KTPS)",
        ],
    );
    let rows = (scale.micro_rows / 8).max(2_000);
    let sockets = scale.max_sockets.min(4);
    let cores = scale.cores_per_socket.min(4);
    let n_sub = sockets * 8;
    let trace = sample_shifted_trace(rows, n_sub, 2_000);
    let domains = vec![
        (TableId(0), KeyDomain::new(0, rows)),
        (TableId(1), KeyDomain::new(0, rows)),
    ];
    let range_plan = ShardingPlan::range(&domains, n_sub, sockets, sockets);
    let advised_plan = advise_sharding(
        &domains,
        n_sub,
        sockets,
        sockets,
        &trace,
        &ShardingConfig::default(),
    );
    let cases = [("range", range_plan), ("advisor", advised_plan)];
    let estimates: Vec<f64> = cases
        .iter()
        .map(|(_, plan)| evaluate_sharding(plan, &trace).total_distributed())
        .collect();
    let jobs = cases
        .iter()
        .map(|(label, plan)| {
            measurement_job(
                format!("abl04/{label}"),
                machine(sockets, cores),
                DesignSpec::shared_nothing_with_plan(plan.clone()),
                Box::new(ShiftedAb { rows }),
                scale.measure_secs,
            )
        })
        .collect();
    for (((label, _), estimated), outcome) in cases.iter().zip(estimates).zip(run(jobs)) {
        let distributed = outcome.design_stats.distributed_txns.unwrap_or(0);
        let tps = stats(&outcome).throughput_tps;
        fig.push_row(vec![
            label.to_string(),
            fmt(estimated),
            distributed.to_string(),
            fmt(tps / 1e3),
        ]);
    }
    fig.note("expected shape: the advisor removes nearly all distributed transactions and raises throughput");
    fig.set_meta(run_meta(sockets, cores));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifted_trace_has_cross_sub_partition_pairs() {
        let stats = sample_shifted_trace(4_000, 16, 500);
        assert!(stats.num_sync_pairs() > 0);
        assert_eq!(stats.transactions, 500);
    }

    #[test]
    fn advisor_ablation_reports_both_plans() {
        let fig = abl04_sharding_advisor(&Scale::tiny());
        assert_eq!(fig.rows.len(), 2);
        // The advisor row should not estimate more distributed co-accesses
        // than the range row.
        let range: f64 = fig.rows[0][1].parse().unwrap();
        let advised: f64 = fig.rows[1][1].parse().unwrap();
        assert!(advised <= range);
    }

    #[test]
    fn uniform_interconnect_ablation_runs() {
        let fig = abl01_uniform_interconnect(&Scale::tiny());
        assert_eq!(fig.rows.len(), 2);
    }
}
