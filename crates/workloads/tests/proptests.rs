//! Property-based tests for the workload generators: key distributions,
//! transaction mixes, the microbenchmarks of paper §III, the TATP and
//! TPC-C benchmark implementations of §VI, and the spec-run SimpleAb and
//! YCSB.
//!
//! The central property is *routing validity*: every transaction a workload
//! emits only references tables the workload declares, with routing keys
//! inside those tables' declared key domains — or, for a workload that
//! grows its table, exactly at the tail.  That property is what allows
//! any partitioning scheme built from `table_domains()` to route every
//! action to a live partition (every layer routes beyond-domain keys to
//! the last one).

use atrapos_engine::{ActionOp, Workload};
use atrapos_numa::CoreId;
use atrapos_storage::record::MAX_COLUMNS;
use atrapos_storage::{ColumnType, Database};
use atrapos_workloads::spec::{ArgDef, OpDef, PhaseDef, TableDef, TemplateDef};
use atrapos_workloads::{
    KeyDistribution, Mix, MultiSiteUpdate, ReadManyRows, ReadOneRow, SimpleAb, Tatp, TatpConfig,
    TatpTxn, Tpcc, TpccConfig, TpccTxn, WorkloadSpec, Ycsb, YcsbConfig,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Assert that every action of every transaction a workload generates routes
/// to a declared table with a key head inside that table's domain.  The
/// one way out of the domain is growing it: an insert beyond the domain
/// must land exactly at the table's tail (the domain's end plus the
/// inserts so far), and later actions may reach what was inserted.
fn assert_routing_validity(
    workload: &mut dyn Workload,
    seed: u64,
    clients: &[CoreId],
    transactions: usize,
) -> Result<(), TestCaseError> {
    let mut domains = workload.table_domains();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..transactions {
        let client = clients[i % clients.len()];
        let spec = workload.next_transaction(&mut rng, client);
        prop_assert!(spec.num_actions() >= 1, "empty transaction");
        prop_assert!(!spec.phases.is_empty());
        for phase in &spec.phases {
            prop_assert!(!phase.actions.is_empty(), "empty phase");
            for action in &phase.actions {
                let table = action.op.table();
                let (_, domain) =
                    domains
                        .iter_mut()
                        .find(|(t, _)| *t == table)
                        .ok_or_else(|| {
                            TestCaseError::fail(format!(
                                "action references undeclared table {table}"
                            ))
                        })?;
                let head = action.op.routing_key_head();
                if matches!(action.op, ActionOp::Insert { .. }) && head >= domain.hi {
                    prop_assert_eq!(
                        head,
                        domain.hi,
                        "tail insert into table {} not at the tail",
                        table
                    );
                    domain.hi += 1;
                    continue;
                }
                prop_assert!(
                    head >= domain.lo && head < domain.hi,
                    "routing key {head} outside domain [{}, {}) of table {table}",
                    domain.lo,
                    domain.hi
                );
            }
        }
    }
    Ok(())
}

proptest! {
    // ------------------------------------------------------------------
    // Generators
    // ------------------------------------------------------------------

    /// Uniform and hotspot key distributions always draw keys inside the
    /// requested `[lo, hi)` range, and the hotspot distribution actually
    /// concentrates accesses on the hot fraction of the domain.
    #[test]
    fn key_distributions_sample_inside_the_domain(
        lo in -10_000i64..10_000,
        width in 10i64..100_000,
        data_fraction in 0.05f64..0.95,
        access_fraction in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let hi = lo + width;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut uniform = KeyDistribution::Uniform.sampler(lo, hi);
        let mut hotspot = KeyDistribution::Hotspot { data_fraction, access_fraction }.sampler(lo, hi);
        for _ in 0..200 {
            let u = uniform.sample(&mut rng);
            prop_assert!(u >= lo && u < hi);
            let h = hotspot.sample(&mut rng);
            prop_assert!(h >= lo && h < hi);
        }
    }

    /// A strongly skewed hotspot (the paper's 50%-of-accesses-to-20%-of-data
    /// and harsher) sends a clearly disproportionate share of samples to the
    /// hot range.
    #[test]
    fn hotspot_distribution_concentrates_accesses(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (lo, hi) = (0i64, 10_000i64);
        let mut s = KeyDistribution::Hotspot { data_fraction: 0.2, access_fraction: 0.8 }.sampler(lo, hi);
        let hot_cutoff = lo + ((hi - lo) as f64 * 0.2).ceil() as i64;
        let samples = 2_000;
        let hot_hits = (0..samples)
            .filter(|_| s.sample(&mut rng) < hot_cutoff)
            .count();
        // 80% of accesses should land in the first 20% of the domain; leave
        // a generous margin for sampling noise.
        prop_assert!(hot_hits as f64 / samples as f64 > 0.6, "hot hits: {hot_hits}/{samples}");
    }

    /// `Mix::pick` only ever returns declared entries, and entries with zero
    /// weight are never picked.
    #[test]
    fn mix_only_picks_declared_entries(
        weights in prop::collection::vec(0.0f64..10.0, 1..8),
        seed in any::<u64>(),
    ) {
        // Ensure at least one positive weight.
        let mut weights = weights;
        if weights.iter().all(|w| *w == 0.0) {
            weights[0] = 1.0;
        }
        let entries: Vec<(usize, f64)> = weights.iter().copied().enumerate().collect();
        let mix = Mix::new(entries.clone());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let picked = mix.pick(&mut rng);
            prop_assert!(picked < weights.len());
            prop_assert!(weights[picked] > 0.0, "picked a zero-weight entry");
        }
        prop_assert_eq!(mix.entries().len(), weights.len());
    }

    // ------------------------------------------------------------------
    // Microbenchmarks (paper §III)
    // ------------------------------------------------------------------

    /// The perfectly partitionable read microbenchmark keeps every client's
    /// keys inside its own site slice, so no transaction ever crosses
    /// sites — the property Figures 1, 2, and 5 rely on.
    #[test]
    fn partitionable_reads_stay_site_local(
        rows in 100i64..50_000,
        sites in 1usize..16,
        cores_per_site in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut w = ReadOneRow::partitionable(rows, sites, cores_per_site);
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = rows / sites as i64;
        for client_idx in 0..(sites * cores_per_site) {
            let client = CoreId(client_idx as u32);
            let site = (client_idx / cores_per_site) % sites;
            for _ in 0..20 {
                let spec = w.next_transaction(&mut rng, client);
                let head = spec.phases[0].actions[0].op.routing_key_head();
                let lo = site as i64 * width;
                let hi = if site + 1 == sites { rows } else { lo + width };
                prop_assert!(head >= lo && head < hi, "key {head} outside site [{lo}, {hi})");
            }
        }
        // Routing validity also holds for the plain (single-site) variant.
        let mut plain = ReadOneRow::with_rows(rows);
        assert_routing_validity(&mut plain, seed, &[CoreId(0)], 50)?;
    }

    /// Multi-site update transactions: with 0% multi-site every key stays in
    /// the submitting site's slice; the declared class matches the keys; and
    /// keys within a transaction are unique (the generator dedups).
    #[test]
    fn multi_site_update_respects_percentage_and_locality(
        rows in 400i64..20_000,
        sites in 1usize..8,
        pct in 0u32..=100,
        seed in any::<u64>(),
    ) {
        let mut w = MultiSiteUpdate::new(rows, sites, 1, pct);
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = rows / sites as i64;
        for client_idx in 0..sites {
            let client = CoreId(client_idx as u32);
            let lo = client_idx as i64 * width;
            let hi = if client_idx + 1 == sites { rows } else { lo + width };
            for _ in 0..20 {
                let spec = w.next_transaction(&mut rng, client);
                let keys: Vec<i64> = spec.phases[0]
                    .actions
                    .iter()
                    .map(|a| a.op.routing_key_head())
                    .collect();
                prop_assert!(spec.is_update());
                // Keys are sorted and unique.
                prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
                let all_local = keys.iter().all(|&k| k >= lo && k < hi);
                if pct == 0 {
                    prop_assert_eq!(spec.class, "local");
                    prop_assert!(all_local);
                }
                if spec.class == "local" {
                    prop_assert!(all_local, "a 'local' transaction touched a remote key");
                }
                // The first key always comes from the local site.
                prop_assert!(keys.iter().any(|&k| k >= lo && k < hi));
            }
        }
    }

    /// The remote-memory microbenchmark (Table I) always reads the requested
    /// number of rows from inside the table.
    #[test]
    fn read_many_rows_generates_in_domain_reads(
        rows in 1_000i64..100_000,
        per_txn in 1usize..150,
        seed in any::<u64>(),
    ) {
        let mut w = ReadManyRows::with_rows(rows, per_txn);
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = w.next_transaction(&mut rng, CoreId(0));
        prop_assert_eq!(spec.num_actions(), per_txn);
        prop_assert!(!spec.is_update());
        assert_routing_validity(&mut w, seed, &[CoreId(0), CoreId(3)], 20)?;
    }

    // ------------------------------------------------------------------
    // TATP
    // ------------------------------------------------------------------

    /// Every TATP transaction type routes only to declared tables with
    /// subscriber ids inside the configured population, for any population
    /// size and seed.
    #[test]
    fn tatp_transactions_route_inside_declared_domains(
        subscribers in 10i64..20_000,
        seed in any::<u64>(),
        txn_idx in 0usize..7,
    ) {
        let txn = [
            TatpTxn::GetSubscriberData,
            TatpTxn::GetNewDestination,
            TatpTxn::GetAccessData,
            TatpTxn::UpdateSubscriberData,
            TatpTxn::UpdateLocation,
            TatpTxn::InsertCallForwarding,
            TatpTxn::DeleteCallForwarding,
        ][txn_idx];
        let mut w = Tatp::new(TatpConfig::scaled(subscribers));
        w.set_single(txn);
        let clients = [CoreId(0), CoreId(1), CoreId(7)];
        assert_routing_validity(&mut w, seed, &clients, 40)?;
        // The standard mix is also valid.
        let mut mixed = Tatp::new(TatpConfig::scaled(subscribers));
        assert_routing_validity(&mut mixed, seed, &clients, 60)?;
    }

    /// TATP population matches the declared table cardinalities: one
    /// subscriber row per subscriber and `records_per_subscriber` rows in
    /// the per-subscriber detail tables.
    #[test]
    fn tatp_population_matches_declared_cardinalities(subscribers in 10i64..2_000) {
        let w = Tatp::new(TatpConfig::scaled(subscribers));
        let mut db = Database::new();
        w.populate(&mut db, &|_, _| true);
        for spec in w.tables() {
            let table = db.table(spec.id).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(
                table.len() as u64,
                spec.rows,
                "table {} holds {} rows, declared {}",
                spec.id,
                table.len(),
                spec.rows
            );
        }
        // Partial population (a shared-nothing slice) loads strictly less.
        let mut half = Database::new();
        w.populate(&mut half, &|_, key| key.head_int() <= subscribers / 2);
        prop_assert!(half.total_records() < db.total_records() || subscribers == 1);
    }

    /// Switching a TATP workload to a hotspot distribution keeps every
    /// generated subscriber id valid (the skew experiment of Figure 11 must
    /// not push keys out of the domain).
    #[test]
    fn tatp_skew_keeps_keys_in_domain(
        subscribers in 100i64..10_000,
        data_fraction in 0.05f64..0.5,
        access_fraction in 0.5f64..0.95,
        seed in any::<u64>(),
    ) {
        let mut w = Tatp::new(TatpConfig::scaled(subscribers));
        w.set_single(TatpTxn::GetSubscriberData);
        w.set_distribution(KeyDistribution::Hotspot { data_fraction, access_fraction }).unwrap();
        assert_routing_validity(&mut w, seed, &[CoreId(0)], 100)?;
    }

    // ------------------------------------------------------------------
    // TPC-C
    // ------------------------------------------------------------------

    /// Every TPC-C transaction type routes only to declared tables with
    /// warehouse-headed keys inside the configured scale, for any warehouse
    /// count and seed.
    #[test]
    fn tpcc_transactions_route_inside_declared_domains(
        warehouses in 1i64..20,
        seed in any::<u64>(),
        txn_idx in 0usize..5,
    ) {
        let txn = [
            TpccTxn::NewOrder,
            TpccTxn::Payment,
            TpccTxn::OrderStatus,
            TpccTxn::Delivery,
            TpccTxn::StockLevel,
        ][txn_idx];
        let mut w = Tpcc::new(TpccConfig::scaled(warehouses));
        w.set_single(txn);
        let clients = [CoreId(0), CoreId(2)];
        assert_routing_validity(&mut w, seed, &clients, 30)?;
        let mut mixed = Tpcc::new(TpccConfig::scaled(warehouses));
        assert_routing_validity(&mut mixed, seed, &clients, 50)?;
    }

    /// The NewOrder flow graph has the structure of the paper's Figure 7: a
    /// fixed part, a variable part whose size tracks the 5–15 ordered items,
    /// and more than one synchronization point.
    #[test]
    fn tpcc_new_order_flow_graph_matches_figure7(warehouses in 1i64..10, seed in any::<u64>()) {
        let mut w = Tpcc::new(TpccConfig::scaled(warehouses));
        w.set_single(TpccTxn::NewOrder);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            prop_assert!(spec.is_update());
            // Fixed part (warehouse, district, customer reads + order
            // inserts) plus one stock read/update and one order line per
            // item: 5..=15 items means at least 5 + fixed actions and at
            // most 15 * 3 + fixed.
            // Per ordered item the variable part performs R(ITEM), R(STO),
            // U(STO), and I(OL): 5 items → ≥ 26 actions, 15 items → ≤ 70.
            prop_assert!(spec.num_actions() >= 26, "too few actions: {}", spec.num_actions());
            prop_assert!(spec.num_actions() <= 70, "too many actions: {}", spec.num_actions());
            // Multiple synchronization points (phases), as in Figure 7.
            prop_assert!(spec.phases.len() >= 2);
        }
    }

    /// TPC-C population matches the declared cardinalities for every table.
    #[test]
    fn tpcc_population_matches_declared_cardinalities(warehouses in 1i64..4) {
        let w = Tpcc::new(TpccConfig::scaled(warehouses));
        let mut db = Database::new();
        w.populate(&mut db, &|_, _| true);
        for spec in w.tables() {
            let table = db.table(spec.id).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(
                table.len() as u64,
                spec.rows,
                "table {} holds {} rows, declared {}",
                spec.id,
                table.len(),
                spec.rows
            );
        }
    }

    // ------------------------------------------------------------------
    // Simple A/B workload (Figure 6)
    // ------------------------------------------------------------------

    /// The two-table A/B transaction always reads one row of A and one row
    /// of B with the same `pk_a` head, which is what makes co-locating the
    /// correlated partitions remove all synchronization cost.
    #[test]
    fn simple_ab_actions_share_the_same_a_key(rows_a in 10i64..5_000, seed in any::<u64>()) {
        let mut w = SimpleAb::new(rows_a).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            prop_assert_eq!(spec.num_actions(), 2);
            let key_heads: Vec<i64> = spec
                .phases
                .iter()
                .flat_map(|p| p.actions.iter().map(|a| a.op.routing_key_head()))
                .collect();
            prop_assert_eq!(key_heads[0], key_heads[1], "A and B keys must share the same head");
        }
        assert_routing_validity(&mut w, seed, &[CoreId(0), CoreId(1)], 50)?;
        // Population respects the declared table specs.
        let mut db = Database::new();
        w.populate(&mut db, &|_, _| true);
        let declared: u64 = w.tables().iter().map(|t| t.rows).sum();
        prop_assert_eq!(db.total_records() as u64, declared);
    }

    // ------------------------------------------------------------------
    // YCSB
    // ------------------------------------------------------------------

    /// Any YCSB config — core mix, dataset size, scan length, Zipfian or
    /// uniform requests, read-latest or not — maps onto a valid spec that
    /// survives JSON, loads the declared rows, and only generates keys in
    /// `[0, insert cursor)` with inserts exactly at the cursor.
    #[test]
    fn ycsb_configs_compile_populate_and_route(
        mix in prop::sample::select(vec!["A", "B", "C", "D", "E", "F"]),
        record_count in 10i64..3_000,
        max_scan_len in 1i64..200,
        theta in prop::option::of(0.0f64..1.2),
        latest in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let config = YcsbConfig {
            max_scan_len,
            latest,
            distribution: theta.map_or(KeyDistribution::Uniform, |theta| {
                KeyDistribution::Zipfian { theta }
            }),
            ..YcsbConfig::named(mix, record_count).expect("core mix")
        };
        let spec = config.spec();
        prop_assert_eq!(spec.validate(), Ok(()));
        prop_assert_eq!(&WorkloadSpec::from_json(&spec.to_json()).unwrap(), &spec);
        let mut w = Ycsb::new(config).unwrap();
        let mut db = Database::new();
        w.populate(&mut db, &|_, _| true);
        let declared: u64 = w.tables().iter().map(|t| t.rows).sum();
        prop_assert_eq!(declared, record_count as u64);
        prop_assert_eq!(db.total_records() as u64, declared);
        assert_routing_validity(&mut w, seed, &[CoreId(0), CoreId(1)], 200)?;
    }
}

// ----------------------------------------------------------------------
// Specs from files: `Schema::new`'s asserts stay out of reach
// ----------------------------------------------------------------------

/// Compile `spec` (a rejection is a typed `SpecError`; a panic fails the
/// test).  Whatever compiles must declare only primary keys of one or two
/// `Int` columns and rows of at most `MAX_COLUMNS` columns, so
/// `Schema::new`'s asserts — a text key column, more columns than a `Key`
/// or a `Record` holds — cannot fire.  Returns whether it compiled.
fn compiles_to_small_int_keys(spec: &WorkloadSpec) -> bool {
    let Ok(w) = spec.compile() else {
        return false;
    };
    for t in w.tables() {
        let pk = &t.schema.primary_key;
        assert!(
            (1..=2).contains(&pk.len()),
            "table {}: {}-column key",
            t.schema.name,
            pk.len()
        );
        assert!(
            pk.iter()
                .all(|&c| t.schema.columns[c].ty == ColumnType::Int),
            "table {}: non-Int key column",
            t.schema.name
        );
        assert!(t.schema.arity() <= MAX_COLUMNS, "table {}", t.schema.name);
    }
    true
}

#[test]
fn shipped_spec_files_compile_to_one_or_two_column_int_keys() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for dir in ["examples/specs", "benchmark/inputs"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            // The benchmark's reference figures, not a spec.
            if path.ends_with("figures.json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let spec = WorkloadSpec::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(compiles_to_small_int_keys(&spec), "{}", path.display());
        }
    }
}

const TABLE_NAMES: [&str; 3] = ["a", "b", "c"];
const ARG_NAMES: [&str; 4] = ["k", "s", "f", "v"];

fn one_of(names: &[&'static str]) -> impl Strategy<Value = String> {
    prop::sample::select(names.to_vec()).prop_map(String::from)
}

fn distribution() -> impl Strategy<Value = KeyDistribution> {
    prop::option::of(0.0f64..1.2).prop_map(|theta| {
        theta.map_or(KeyDistribution::Uniform, |theta| KeyDistribution::Zipfian {
            theta,
        })
    })
}

/// Any table: from empty to a row count past `i64::MAX`, from no payload
/// to rows around the column limit and a column count past `usize::MAX`.
fn table_def() -> impl Strategy<Value = TableDef> {
    (
        one_of(&TABLE_NAMES),
        prop_oneof![4 => -1i64..400, 1 => Just(i64::MAX)],
        prop_oneof![4 => -1i64..4, 1 => Just(i64::MAX)],
        prop_oneof![
            4 => 0usize..6,
            1 => MAX_COLUMNS - 3..MAX_COLUMNS + 2,
            1 => Just(usize::MAX),
        ],
        prop::option::of(one_of(&TABLE_NAMES)),
    )
        .prop_map(|(name, keys, sub_rows, payload_fields, parent)| TableDef {
            name,
            keys,
            sub_rows,
            payload_fields,
            parent,
        })
}

fn arg_def() -> impl Strategy<Value = ArgDef> {
    prop_oneof![
        (one_of(&ARG_NAMES), one_of(&TABLE_NAMES), distribution()).prop_map(
            |(name, table, distribution)| ArgDef::Key {
                name,
                table,
                distribution
            }
        ),
        (one_of(&ARG_NAMES), one_of(&TABLE_NAMES), distribution()).prop_map(
            |(name, table, distribution)| ArgDef::LatestKey {
                name,
                table,
                distribution
            }
        ),
        (one_of(&ARG_NAMES), -1i64..6, -1i64..6).prop_map(|(name, lo, hi)| ArgDef::Uniform {
            name,
            lo,
            hi
        }),
    ]
}

fn key_ref() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(one_of(&ARG_NAMES), 0..4)
}

fn op_def() -> impl Strategy<Value = OpDef> {
    prop_oneof![
        (one_of(&TABLE_NAMES), key_ref()).prop_map(|(table, key)| OpDef::Read { table, key }),
        (
            one_of(&TABLE_NAMES),
            key_ref(),
            one_of(&ARG_NAMES),
            one_of(&ARG_NAMES)
        )
            .prop_map(|(table, key, field, value)| OpDef::Update {
                table,
                key,
                field,
                value
            }),
        (one_of(&TABLE_NAMES), one_of(&ARG_NAMES), one_of(&ARG_NAMES))
            .prop_map(|(table, key, len)| OpDef::Scan { table, key, len }),
        one_of(&TABLE_NAMES).prop_map(|table| OpDef::Insert { table }),
    ]
}

fn template_def() -> impl Strategy<Value = TemplateDef> {
    let phase = (
        prop::collection::vec(op_def(), 0..3),
        prop::option::of(1u64..256),
    )
        .prop_map(|(ops, sync_bytes)| PhaseDef { ops, sync_bytes });
    (
        one_of(&["T", "U"]),
        -0.5f64..2.0,
        prop::collection::vec(arg_def(), 0..5),
        prop::collection::vec(phase, 0..3),
    )
        .prop_map(|(name, weight, args, phases)| TemplateDef {
            name,
            weight,
            args,
            phases,
        })
}

/// Any spec the vocabulary can hold: names come from small pools, so
/// references resolve, dangle and collide.  Nearly all are rejected.
fn any_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        prop::collection::vec(table_def(), 0..4),
        prop::collection::vec(template_def(), 0..3),
    )
        .prop_map(|(tables, templates)| WorkloadSpec {
            name: "generated".into(),
            tables,
            templates,
        })
}

/// Specs valid by construction: one to four tables with one- or
/// two-column keys, narrow or up to the column limit, some the children of
/// the table before, all read by one template.
fn valid_spec() -> impl Strategy<Value = WorkloadSpec> {
    let payload = prop_oneof![4 => 0usize..5, 1 => MAX_COLUMNS - 6..=MAX_COLUMNS - 2];
    prop::collection::vec((1i64..400, 1i64..4, payload, any::<bool>()), 1..5).prop_map(|shapes| {
        let (mut tables, mut args, mut ops) = (Vec::<TableDef>::new(), Vec::new(), Vec::new());
        for (i, (keys, sub_rows, payload_fields, child)) in shapes.into_iter().enumerate() {
            let parent = tables
                .last()
                .filter(|_| child)
                .map(|p| (p.name.clone(), p.keys));
            let name = format!("t{i}");
            tables.push(TableDef {
                name: name.clone(),
                keys: parent.as_ref().map_or(keys, |p| keys.min(p.1)),
                sub_rows,
                payload_fields,
                parent: parent.map(|p| p.0),
            });
            let mut key = vec![format!("k{i}")];
            args.push(ArgDef::Key {
                name: key[0].clone(),
                table: name.clone(),
                distribution: KeyDistribution::Uniform,
            });
            if sub_rows > 1 {
                key.push(format!("s{i}"));
                args.push(ArgDef::Uniform {
                    name: key[1].clone(),
                    lo: 0,
                    hi: sub_rows,
                });
            }
            ops.push(OpDef::Read { table: name, key });
        }
        WorkloadSpec {
            name: "valid".into(),
            tables,
            templates: vec![TemplateDef {
                name: "Read".into(),
                weight: 1.0,
                args,
                phases: vec![PhaseDef {
                    ops,
                    sync_bytes: None,
                }],
            }],
        }
    })
}

proptest! {
    #[test]
    fn valid_specs_compile_to_one_or_two_column_int_keys(spec in valid_spec()) {
        prop_assert!(compiles_to_small_int_keys(&spec), "{:?}", spec.validate());
    }
}

proptest! {
    // Checking a spec takes microseconds, and the rejection paths are many.
    #![proptest_config(ProptestConfig::with_cases(1_000))]
    #[test]
    fn any_spec_compiles_or_is_rejected_with_a_typed_error(spec in any_spec()) {
        compiles_to_small_int_keys(&spec);
    }
}
