//! Cross-design conservation invariants.
//!
//! Randomized short YCSB scenarios (proptest-generated mixes, skews, and
//! phase timelines) run over all four system designs, and every segment's
//! accounting must balance:
//!
//! * committed + aborted == attempted — every transaction the workload
//!   generated is accounted for, none double-counted, none lost;
//! * the per-socket committed tallies sum to the segment's committed
//!   count and cover exactly the machine's sockets;
//! * the throughput time series decomposes the segment: each bucket's
//!   `tps × width` is a whole number of transactions, and the bucket
//!   counts sum back to the committed count (minus at most one in-flight
//!   transaction per client straddling the segment end);
//! * the reported throughput is exactly committed / virtual seconds.
//!
//! A second family covers *open-loop* serving over proptest-generated
//! arrival timelines (Poisson phases at independent rates) on the same
//! four designs: every generated arrival is admitted or rejected, the
//! admission queue's books balance across segments, and the latency
//! histogram records exactly the committed transactions with monotone
//! quantiles.
//!
//! These hold by construction today; the test pins them against any
//! future executor or design change that breaks the books.

use atrapos_bench::harness::machine;
use atrapos_core::KeyDistribution;
use atrapos_engine::workload::WorkloadChange;
use atrapos_engine::{
    ArrivalProcess, DesignSpec, ExecutorConfig, ReconfigureError, RunStats, TableSpec,
    TransactionSpec, VirtualExecutor, Workload,
};
use atrapos_numa::CoreId;
use atrapos_storage::{Database, Key, TableId};
use atrapos_workloads::{Ycsb, YcsbConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps a workload and counts every generated transaction, so the test
/// knows exactly how many the executor *attempted* in a window.
struct Counting<W> {
    inner: W,
    generated: Arc<AtomicU64>,
}

impl<W: Workload> Workload for Counting<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn tables(&self) -> Vec<TableSpec> {
        self.inner.tables()
    }
    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        self.inner.populate(db, filter)
    }
    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        client: CoreId,
        spec: &mut TransactionSpec,
    ) {
        self.generated.fetch_add(1, Ordering::Relaxed);
        self.inner.next_transaction_into(rng, client, spec)
    }
    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        self.inner.reconfigure(change)
    }
}

/// The four designs the invariants run over.
fn four_designs() -> Vec<DesignSpec> {
    vec![
        DesignSpec::Centralized,
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::Plp,
        DesignSpec::atrapos(),
    ]
}

/// One proptest-generated experiment: a starting config plus a list of
/// (reconfiguration, phase length) steps.
#[derive(Debug, Clone)]
struct Case {
    config: YcsbConfig,
    seed: u64,
    phases: Vec<(Option<WorkloadChange>, f64)>,
}

fn change_strategy() -> impl Strategy<Value = WorkloadChange> {
    prop_oneof![
        (0.0f64..1.2).prop_map(|theta| WorkloadChange::Distribution {
            distribution: KeyDistribution::Zipfian { theta },
        }),
        prop::sample::select(vec!["Read", "Update", "RMW"])
            .prop_map(|t| WorkloadChange::SingleTransaction { txn: t.to_string() }),
        (0.05f64..0.3, 0.5f64..0.95, 500u64..5_000).prop_map(|(d, a, p)| {
            WorkloadChange::Distribution {
                distribution: KeyDistribution::Drift {
                    data_fraction: d,
                    access_fraction: a,
                    period_txns: p,
                },
            }
        }),
    ]
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        prop::sample::select(vec!["A", "B", "C", "D", "E", "F"]),
        0.0f64..1.0,
        0u64..1_000,
        prop::collection::vec(
            (prop::option::of(change_strategy()), 0.001f64..0.004),
            1..=3,
        ),
    )
        .prop_map(|(mix, theta, seed, phases)| Case {
            config: YcsbConfig::named(mix, 1_500)
                .expect("core mix")
                .with_theta(theta),
            seed,
            phases,
        })
}

/// Check one segment's books against the number of generated specs.
fn check_segment(label: &str, stats: &RunStats, attempted: u64, clients: u64, start_secs: f64) {
    assert_eq!(
        stats.committed + stats.aborted,
        attempted,
        "{label}: committed + aborted must equal the {attempted} generated transactions"
    );
    assert_eq!(
        stats.committed_by_socket.iter().sum::<u64>(),
        stats.committed,
        "{label}: per-socket tallies must sum to the committed count"
    );
    let expected_tps = stats.committed as f64 / stats.virtual_secs;
    assert!(
        (stats.throughput_tps - expected_tps).abs() <= 1e-9 * expected_tps.max(1.0),
        "{label}: throughput {} != committed/secs {expected_tps}",
        stats.throughput_tps
    );
    // The time series decomposes the committed count: each bucket holds a
    // whole number of transactions and the buckets cover the whole
    // segment.  A transaction can finish exactly at (or beyond) the
    // segment end and be committed but not bucketed — at most one per
    // client.
    let mut bucketed = 0.0f64;
    let mut prev = start_secs;
    for p in &stats.time_series {
        let width = p.secs - prev;
        prev = p.secs;
        assert!(
            width > 0.0,
            "{label}: empty time-series bucket at {}",
            p.secs
        );
        let count = p.tps * width;
        assert!(
            (count - count.round()).abs() < 1e-3,
            "{label}: bucket at {} holds a fractional count {count}",
            p.secs
        );
        bucketed += count.round();
    }
    let bucketed = bucketed as u64;
    assert!(
        bucketed <= stats.committed,
        "{label}: bucket counts {bucketed} exceed committed {}",
        stats.committed
    );
    assert!(
        stats.committed - bucketed <= clients,
        "{label}: {} committed transactions missing from the time series \
         (more than one straddler per client)",
        stats.committed - bucketed
    );
    // Cycle-rounding accumulates sub-nanosecond drift per phase, hence
    // the loose-but-tiny tolerance.
    assert!(
        (prev - (start_secs + stats.virtual_secs)).abs() < 1e-8,
        "{label}: time series ends at {prev}, segment ends at {}",
        start_secs + stats.virtual_secs
    );
}

fn run_case(case: &Case, spec: &DesignSpec) {
    let m = machine(2, 2);
    let clients = m.topology.num_active_cores() as u64;
    let generated = Arc::new(AtomicU64::new(0));
    let workload = Counting {
        inner: Ycsb::new(case.config.clone()).unwrap(),
        generated: Arc::clone(&generated),
    };
    let design = spec.build(&m, &workload.inner);
    let mut ex = VirtualExecutor::new(
        m,
        design,
        Box::new(workload),
        ExecutorConfig {
            seed: case.seed,
            default_interval_secs: 0.001,
            time_series_bucket_secs: 0.001,
        },
    );
    let mut now = 0.0f64;
    for (i, (change, secs)) in case.phases.iter().enumerate() {
        if let Some(change) = change {
            ex.reconfigure_workload(change)
                .unwrap_or_else(|e| panic!("YCSB rejected {change}: {e}"));
        }
        let before = generated.load(Ordering::Relaxed);
        let stats = ex.run_for(*secs);
        let attempted = generated.load(Ordering::Relaxed) - before;
        let label = format!("{} phase {i}", spec.label());
        assert!(attempted > 0, "{label}: the executor generated nothing");
        check_segment(&label, &stats, attempted, clients, now);
        now += secs;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation holds for every design on every generated timeline.
    #[test]
    fn conservation_invariants_hold_across_designs(case in case_strategy()) {
        for spec in four_designs() {
            run_case(&case, &spec);
        }
    }
}

// ---------------------------------------------------------------------
// Open-loop conservation
// ---------------------------------------------------------------------

/// One proptest-generated open-loop experiment: an admission bound plus a
/// timeline of (arrival process, phase length) steps.
#[derive(Debug, Clone)]
struct OpenLoopCase {
    config: YcsbConfig,
    seed: u64,
    bound: u64,
    phases: Vec<(ArrivalProcess, f64)>,
}

/// Poisson processes sized for millisecond phases: rates from a trickle
/// to well past the tiny machine's capacity, drawn independently per
/// phase, so the generated timelines step the load up and down and cover
/// both the empty-queue and the rejecting regimes.
fn arrival_strategy() -> impl Strategy<Value = ArrivalProcess> {
    (10_000.0f64..5_000_000.0).prop_map(|rate_tps| ArrivalProcess::Poisson { rate_tps })
}

fn open_loop_case_strategy() -> impl Strategy<Value = OpenLoopCase> {
    (
        prop::sample::select(vec!["A", "B", "C"]),
        0.0f64..1.0,
        0u64..1_000,
        1u64..64,
        prop::collection::vec((arrival_strategy(), 0.001f64..0.004), 1..=3),
    )
        .prop_map(|(mix, theta, seed, bound, phases)| OpenLoopCase {
            config: YcsbConfig::named(mix, 1_500)
                .expect("core mix")
                .with_theta(theta),
            seed,
            bound,
            phases,
        })
}

/// Check one open-loop segment's serving books.
fn check_open_segment(label: &str, stats: &RunStats, attempted: u64) {
    assert!(stats.open_loop, "{label}: segment must report open loop");
    assert_eq!(
        stats.offered,
        stats.admitted + stats.rejected,
        "{label}: every generated arrival is admitted or rejected"
    );
    assert_eq!(
        stats.admitted + stats.queue_depth_start,
        stats.committed + stats.aborted + stats.queue_depth_end,
        "{label}: queue accounting must balance"
    );
    assert_eq!(
        stats.committed + stats.aborted,
        attempted,
        "{label}: committed + aborted must equal the {attempted} generated transactions"
    );
    assert_eq!(
        stats.latency_histogram.count(),
        stats.committed,
        "{label}: the latency histogram records exactly the committed transactions"
    );
    assert!(
        stats.p50_latency_us <= stats.p95_latency_us
            && stats.p95_latency_us <= stats.p99_latency_us
            && stats.p99_latency_us <= stats.p999_latency_us,
        "{label}: latency quantiles must be monotone \
         (p50 {} / p95 {} / p99 {} / p999 {})",
        stats.p50_latency_us,
        stats.p95_latency_us,
        stats.p99_latency_us,
        stats.p999_latency_us
    );
    assert!(
        stats.queue_depth_max >= stats.queue_depth_start.max(stats.queue_depth_end),
        "{label}: the max queue depth bounds the endpoints"
    );
}

fn run_open_loop_case(case: &OpenLoopCase, spec: &DesignSpec) {
    let m = machine(2, 2);
    let generated = Arc::new(AtomicU64::new(0));
    let workload = Counting {
        inner: Ycsb::new(case.config.clone()).unwrap(),
        generated: Arc::clone(&generated),
    };
    let design = spec.build(&m, &workload.inner);
    let mut ex = VirtualExecutor::new(
        m,
        design,
        Box::new(workload),
        ExecutorConfig {
            seed: case.seed,
            default_interval_secs: 0.001,
            time_series_bucket_secs: 0.001,
        },
    );
    ex.set_admission_bound(case.bound);
    for (i, (process, secs)) in case.phases.iter().enumerate() {
        ex.set_arrival_process(*process);
        let before = generated.load(Ordering::Relaxed);
        let stats = ex.run_for(*secs);
        let attempted = generated.load(Ordering::Relaxed) - before;
        let label = format!("{} open-loop phase {i}", spec.label());
        check_open_segment(&label, &stats, attempted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The open-loop serving books balance for every design on every
    /// generated arrival timeline: generated == admitted + rejected,
    /// admitted (plus the carried queue) == committed + aborted (plus the
    /// remaining queue), and the latency histogram covers exactly the
    /// committed transactions.
    #[test]
    fn open_loop_conservation_holds_across_designs(case in open_loop_case_strategy()) {
        for spec in four_designs() {
            run_open_loop_case(&case, &spec);
        }
    }
}

// ---------------------------------------------------------------------
// Random declarative-spec conservation
// ---------------------------------------------------------------------

use atrapos_workloads::spec::{ArgDef, OpDef, PhaseDef, TableDef, TemplateDef, WorkloadSpec};

/// One proptest-generated declarative experiment: a random valid
/// `WorkloadSpec` plus a reconfiguration timeline.  Specs are valid *by
/// construction* (every compiled one would also pass `validate()`), so
/// the family explores the compiler's whole op vocabulary — point reads,
/// two-phase RMWs, updates, head-key scans, tail inserts, composite-key
/// child tables with foreign keys — under the same conservation checks
/// as the YCSB family.
#[derive(Debug, Clone)]
struct SpecCase {
    spec: WorkloadSpec,
    seed: u64,
    phases: Vec<(Option<WorkloadChange>, f64)>,
}

fn spec_distribution_strategy() -> impl Strategy<Value = KeyDistribution> {
    prop_oneof![
        Just(KeyDistribution::Uniform),
        (0.05f64..0.5, 0.5f64..0.95).prop_map(|(data_fraction, access_fraction)| {
            KeyDistribution::Hotspot {
                data_fraction,
                access_fraction,
            }
        }),
        (0.2f64..1.1).prop_map(|theta| KeyDistribution::Zipfian { theta }),
        (0.05f64..0.3, 0.5f64..0.95, 200u64..2_000).prop_map(
            |(data_fraction, access_fraction, period_txns)| KeyDistribution::Drift {
                data_fraction,
                access_fraction,
                period_txns,
            }
        ),
    ]
}

/// One or two tables: a plain base table, optionally with a
/// composite-key child referencing it (the SimpleAb shape).
fn spec_tables_strategy() -> impl Strategy<Value = Vec<TableDef>> {
    (
        200i64..1_500,
        1usize..4,
        prop::option::of((2i64..5, 1usize..3, 100i64..800)),
    )
        .prop_map(|(keys, payload_fields, child)| {
            let mut tables = vec![TableDef {
                name: "t0".to_string(),
                keys,
                sub_rows: 1,
                payload_fields,
                parent: None,
            }];
            if let Some((sub_rows, child_payload, child_keys)) = child {
                tables.push(TableDef {
                    name: "t1".to_string(),
                    keys: child_keys.min(keys),
                    sub_rows,
                    payload_fields: child_payload,
                    parent: Some("t0".to_string()),
                });
            }
            tables
        })
}

/// Build template `i` over `tables[t]` with one of five op shapes.
/// Scans and inserts only target plain tables; a composite pick falls
/// back to a point read.
fn build_spec_template(
    i: usize,
    tables: &[TableDef],
    t: usize,
    shape: usize,
    weight: f64,
    distribution: KeyDistribution,
) -> TemplateDef {
    let table = &tables[t];
    let name = table.name.clone();
    let composite = table.sub_rows > 1;
    let arity: i64 = if composite { 2 } else { 1 };
    let args = vec![
        ArgDef::Key {
            name: "k".to_string(),
            table: name.clone(),
            distribution,
        },
        ArgDef::Uniform {
            name: "s".to_string(),
            lo: 0,
            hi: table.sub_rows.max(1),
        },
        ArgDef::Uniform {
            name: "f".to_string(),
            lo: arity,
            hi: arity + table.payload_fields as i64,
        },
        ArgDef::Uniform {
            name: "v".to_string(),
            lo: 0,
            hi: 1 << 20,
        },
        ArgDef::Uniform {
            name: "n".to_string(),
            lo: 1,
            hi: 20,
        },
    ];
    let key: Vec<String> = if composite {
        vec!["k".to_string(), "s".to_string()]
    } else {
        vec!["k".to_string()]
    };
    let read = OpDef::Read {
        table: name.clone(),
        key: key.clone(),
    };
    let update = OpDef::Update {
        table: name.clone(),
        key,
        field: "f".to_string(),
        value: "v".to_string(),
    };
    let phase = |ops: Vec<OpDef>| PhaseDef {
        ops,
        sync_bytes: None,
    };
    let shape = if composite && shape >= 3 { 0 } else { shape };
    let phases = match shape {
        0 => vec![phase(vec![read])],
        1 => vec![phase(vec![read]), phase(vec![update])],
        2 => vec![phase(vec![update])],
        3 => vec![phase(vec![OpDef::Scan {
            table: name,
            key: "k".to_string(),
            len: "n".to_string(),
        }])],
        _ => vec![phase(vec![OpDef::Insert { table: name }])],
    };
    TemplateDef {
        name: format!("tpl{i}"),
        weight,
        args,
        phases,
    }
}

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    // Table picks are generated as free indices and folded into range
    // with a modulo, since the shimmed proptest has no `prop_flat_map`
    // to parameterize one strategy by another's output.
    (
        spec_tables_strategy(),
        prop::collection::vec(
            (
                0usize..8,
                0usize..5,
                0.1f64..2.0,
                spec_distribution_strategy(),
            ),
            1..=3,
        ),
    )
        .prop_map(|(tables, raw)| WorkloadSpec {
            name: "random-spec".to_string(),
            templates: raw
                .into_iter()
                .enumerate()
                .map(|(i, (t, shape, weight, dist))| {
                    build_spec_template(i, &tables, t % tables.len(), shape, weight, dist)
                })
                .collect(),
            tables,
        })
}

/// Reconfigurations a compiled spec supports; single-template picks are
/// resolved to a declared name after generation.
#[derive(Debug, Clone)]
enum RawSpecChange {
    Theta(f64),
    Dist(KeyDistribution),
    Single(usize),
    StandardMix,
}

fn spec_change_strategy() -> impl Strategy<Value = RawSpecChange> {
    prop_oneof![
        (0.0f64..1.2).prop_map(RawSpecChange::Theta),
        spec_distribution_strategy().prop_map(RawSpecChange::Dist),
        (0usize..3).prop_map(RawSpecChange::Single),
        Just(RawSpecChange::StandardMix),
    ]
}

fn spec_case_strategy() -> impl Strategy<Value = SpecCase> {
    (
        spec_strategy(),
        0u64..1_000,
        prop::collection::vec(
            (prop::option::of(spec_change_strategy()), 0.001f64..0.004),
            1..=3,
        ),
    )
        .prop_map(|(spec, seed, raw_phases)| {
            let phases = raw_phases
                .into_iter()
                .map(|(change, secs)| {
                    let change = change.map(|c| match c {
                        RawSpecChange::Theta(theta) => WorkloadChange::Distribution {
                            distribution: KeyDistribution::Zipfian { theta },
                        },
                        RawSpecChange::Dist(distribution) => {
                            WorkloadChange::Distribution { distribution }
                        }
                        RawSpecChange::Single(i) => WorkloadChange::SingleTransaction {
                            txn: format!("tpl{}", i % spec.templates.len()),
                        },
                        RawSpecChange::StandardMix => WorkloadChange::StandardMix,
                    });
                    (change, secs)
                })
                .collect();
            SpecCase { spec, seed, phases }
        })
}

fn run_spec_case(case: &SpecCase, design_spec: &DesignSpec) {
    assert_eq!(case.spec.validate(), Ok(()), "generated spec must be valid");
    let m = machine(2, 2);
    let clients = m.topology.num_active_cores() as u64;
    let generated = Arc::new(AtomicU64::new(0));
    let workload = Counting {
        inner: case.spec.compile().expect("generated spec compiles"),
        generated: Arc::clone(&generated),
    };
    let design = design_spec.build(&m, &workload.inner);
    let mut ex = VirtualExecutor::new(
        m,
        design,
        Box::new(workload),
        ExecutorConfig {
            seed: case.seed,
            default_interval_secs: 0.001,
            time_series_bucket_secs: 0.001,
        },
    );
    let mut now = 0.0f64;
    for (i, (change, secs)) in case.phases.iter().enumerate() {
        if let Some(change) = change {
            ex.reconfigure_workload(change)
                .unwrap_or_else(|e| panic!("compiled spec rejected {change}: {e}"));
        }
        let before = generated.load(Ordering::Relaxed);
        let stats = ex.run_for(*secs);
        let attempted = generated.load(Ordering::Relaxed) - before;
        let label = format!("{} spec phase {i}", design_spec.label());
        assert!(attempted > 0, "{label}: the executor generated nothing");
        check_segment(&label, &stats, attempted, clients, now);
        now += secs;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation holds for every design on every randomly generated
    /// declarative workload and reconfiguration timeline.
    #[test]
    fn spec_conservation_invariants_hold_across_designs(case in spec_case_strategy()) {
        for spec in four_designs() {
            run_spec_case(&case, &spec);
        }
    }
}
