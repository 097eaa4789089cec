//! Model-based property tests: the storage structures against naive
//! oracles.
//!
//! * The B+-tree (and its repartitioning primitive `recut`) is driven
//!   against a `std::collections::BTreeMap` under random operation
//!   sequences that include range scans and re-cuts at random bounds and
//!   back: the tree and the ordered map must agree on every observable.
//! * The range cursor (`BTree::range_iter`, and `Table::range_read` over
//!   random partition boundaries) is checked against `BTreeMap::range` for
//!   every bound shape: open or closed on either side, in a key gap, below
//!   the minimum, above the maximum, inverted, and starting inside leaves
//!   that lazy deletion emptied.
//! * The flat key column of the B+-tree nodes (`KeyColumn`) searches like
//!   the plain key slice: its searches equal `binary_search` /
//!   `partition_point` over the keys, for every key and probe shape.
//! * The packed leaves — keys stored flat at one width, rows in one byte
//!   block per leaf — of a `BTree` and of a `Table` are driven against a
//!   `BTreeMap<Key, Record>` through inserts, rejected duplicates, removes,
//!   in-place integer writes beside text columns, re-cuts, bulk loads, repartitionings at one-integer bounds, scans with
//!   bounds shorter than the keys, and runs of appends above the maximum interleaved with
//!   inserts and removes of it; after every step the contents equal the
//!   model's byte for byte and every invariant holds.
//! * A `Table`, whose leaves keep each key only in their key column, is
//!   driven against a `BTreeMap<Key, Record>` through inserts, loads,
//!   updates, increments, deletes and partition splits and merges, with
//!   keys one to four integers wide; every row reads back whole under its
//!   own key, a delete hands back the whole record, and a write to a key
//!   column is refused.
//! * The packed row block (`Record`) is checked against the `Vec<Value>`
//!   row it replaced: accessors, schema checks, key extraction,
//!   equality, and the `Debug` form byte for byte.
//! * The lock manager is driven against a naive lock-table oracle that
//!   tracks, per lock, exactly which transactions hold it in which mode,
//!   and per transaction the set of grants — verifying holder sets, the
//!   upgrade fast path, release-all semantics, and the grant-compatibility
//!   invariant after every step.  Extended with each lock's two occupancy
//!   times and the bucket latches, the oracle becomes a lock table that
//!   never forgets: under a rising low-water mark and request times that
//!   jump backwards, the manager that forgets charges every request the
//!   same cycles.  A deterministic count pins the memory bound.
//! * Range-partition routing (`MrBTree::partition_for`, an integer search
//!   of the key's head over the partitions' one-integer lower bounds)
//!   equals a binary search over whole keys, for probes of every width,
//!   through splits and merges; a wider split bound is refused.

use atrapos_numa::{
    Component, ContendedLine, CoreId, CostModel, Cycles, Machine, SimCtx, SocketId, Topology,
    WaitMode,
};
use atrapos_storage::btree::KeyColumn;
use atrapos_storage::lock_manager::SWEEP_FLOOR;
use atrapos_storage::record::{MAX_COLUMNS, MAX_KEY_COMPONENTS};
use atrapos_storage::{
    BTree, Column, ColumnType, Key, LockId, LockManager, LockMode, MrBTree, Record, Schema,
    StorageError, Table, TableId, Txn, TxnId, Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;
// `LockId` has no `Ord` impl, so the oracle's holder table must stay a
// hash map; the oracle only does keyed access and sorts before comparing,
// so iteration order never reaches an assertion.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

fn record_for(key: i64, payload: i64) -> Record {
    Record::new(vec![Value::Int(key), Value::Int(payload)])
}

/// Operations of the B+-tree model workload.  `Recut` performs the
/// physical repartitioning round-trip (re-cut at ascending bounds, then
/// re-cut the parts back into one tree), which must be a no-op on the
/// logical contents.
#[derive(Debug, Clone)]
enum TreeOp {
    Insert(i64, i64),
    Remove(i64),
    Get(i64),
    Range(i64, i64),
    Recut(Vec<i64>),
}

fn tree_op_strategy(key_range: i64) -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        4 => (0..key_range, any::<i64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        2 => (0..key_range).prop_map(TreeOp::Remove),
        2 => (0..key_range).prop_map(TreeOp::Get),
        1 => (0..key_range, 0..key_range).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
        2 => prop::collection::btree_set(0..key_range, 0..5)
            .prop_map(|cuts| TreeOp::Recut(cuts.into_iter().collect())),
    ]
}

proptest! {
    /// The tree agrees with the ordered-map model on every lookup, range
    /// scan, and iteration — even with structural splits and merges
    /// interleaved.
    #[test]
    fn btree_with_splits_matches_ordered_map(
        ops in prop::collection::vec(tree_op_strategy(256), 1..300),
    ) {
        let mut tree = BTree::new();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let a = tree.insert(Key::int(k), record_for(k, v)).is_some();
                    let b = model.insert(k, v).is_some();
                    prop_assert_eq!(a, b);
                }
                TreeOp::Remove(k) => {
                    let a = tree.remove(&Key::int(k));
                    let b = model.remove(&k).is_some();
                    prop_assert_eq!(a, b);
                }
                TreeOp::Get(k) => {
                    let a = tree.get(&Key::int(k)).map(|r| r.get(1).as_int());
                    let b = model.get(&k).copied();
                    prop_assert_eq!(a, b);
                }
                TreeOp::Range(lo, hi) => {
                    let a: Vec<(i64, i64)> = tree
                        .range_iter(Some(&Key::int(lo)), Some(&Key::int(hi)))
                        .map(|(k, r)| (k.head_int(), r.get(1).as_int()))
                        .collect();
                    let b: Vec<(i64, i64)> =
                        model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(a, b);
                }
                TreeOp::Recut(cuts) => {
                    let parts = BTree::recut(vec![std::mem::take(&mut tree)], &cuts);
                    // Each part is well-formed and holds the keys of its range.
                    let bounds: Vec<i64> =
                        std::iter::once(i64::MIN).chain(cuts).chain([i64::MAX]).collect();
                    for (part, range) in parts.iter().zip(bounds.windows(2)) {
                        part.check_invariants().map_err(TestCaseError::fail)?;
                        let want = model.range(range[0]..range[1]).map(|(&k, _)| k);
                        prop_assert!(part.iter().map(|(k, _)| k.head_int()).eq(want));
                    }
                    tree = BTree::recut(parts, &[]).pop().unwrap();
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let a: Vec<(i64, i64)> = tree
            .iter()
            .map(|(k, r)| (k.head_int(), r.get(1).as_int()))
            .collect();
        let b: Vec<(i64, i64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(a, b);
    }
}

// ----------------------------------------------------------------------
// Range cursor vs. `BTreeMap::range`
// ----------------------------------------------------------------------

/// `model.range(from..to)` with `None` = unbounded; empty (instead of
/// `BTreeMap::range`'s panic) when the bounds are inverted.
fn model_range(model: &BTreeMap<i64, i64>, from: Option<i64>, to: Option<i64>) -> Vec<(i64, i64)> {
    if matches!((from, to), (Some(f), Some(t)) if f >= t) {
        return Vec::new();
    }
    let lo = from.map_or(Bound::Unbounded, Bound::Included);
    let hi = to.map_or(Bound::Unbounded, Bound::Excluded);
    model.range((lo, hi)).map(|(&k, &v)| (k, v)).collect()
}

fn tree_range(tree: &BTree, from: Option<i64>, to: Option<i64>) -> Vec<(i64, i64)> {
    let (from, to) = (from.map(Key::int), to.map(Key::int));
    tree.range_iter(from.as_ref(), to.as_ref())
        .map(|(k, r)| (k.head_int(), r.get(1).as_int()))
        .collect()
}

/// A scan bound: unbounded, anywhere from below the minimum to above the
/// maximum key, or inside the low run that the properties delete.
fn bound_strategy() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        1 => Just(None),
        3 => (-50i64..2_100).prop_map(Some),
        2 => (0i64..400).prop_map(Some),
    ]
}

/// TPC-C Delivery's shape, fixed: a dense table loses a contiguous low run
/// (six whole bulk-loaded leaves and part of a seventh), and scans start
/// before, inside, at the end of, and after the emptied leaves.
#[test]
fn range_iter_starts_inside_leaves_emptied_by_remove() {
    let mut tree = BTree::bulk_load(
        (0..1_000)
            .map(|k| (Key::int(k), record_for(k, k)))
            .collect(),
    );
    let mut model: BTreeMap<i64, i64> = (0..1_000).map(|k| (k, k)).collect();
    for k in 0..300 {
        assert!(tree.remove(&Key::int(k)));
        model.remove(&k);
    }
    for from in [
        None,
        Some(-5),
        Some(0),
        Some(47),
        Some(48),
        Some(150),
        Some(299),
        Some(300),
        Some(301),
    ] {
        for to in [None, Some(0), Some(200), Some(300), Some(305), Some(2_000)] {
            assert_eq!(
                tree_range(&tree, from, to),
                model_range(&model, from, to),
                "{from:?}..{to:?}"
            );
        }
    }
    assert_eq!(tree.min_key().as_ref().map(Key::head_int), Some(300));
}

fn two_int_schema() -> Schema {
    Schema::new(
        "t",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ],
        vec![0],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `range_iter(from, to)` equals `BTreeMap::range` for every bound
    /// shape, on a tree whose low key run (whole leaves of it) was removed.
    #[test]
    fn range_iter_matches_ordered_map_range(
        sparse in prop::collection::btree_set(0i64..2_000, 0..200),
        dense in 0i64..400,
        cut in 0i64..400,
        from in bound_strategy(),
        to in bound_strategy(),
    ) {
        let mut tree = BTree::new();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for k in (0..dense).chain(sparse) {
            tree.insert(Key::int(k), record_for(k, k * 3));
            model.insert(k, k * 3);
        }
        for k in 0..cut {
            prop_assert_eq!(tree.remove(&Key::int(k)), model.remove(&k).is_some());
        }
        prop_assert_eq!(tree_range(&tree, from, to), model_range(&model, from, to));
        prop_assert_eq!(tree.min_key().as_ref().map(Key::head_int), model.keys().next().copied());
        prop_assert_eq!(tree.max_key().as_ref().map(Key::head_int), model.keys().next_back().copied());
    }

    /// `Table::range_read(from, to, limit)` equals
    /// `model.range(from..to).take(limit)` over random partition boundaries
    /// — a key hole leaves whole partitions empty, wide ranges span many —
    /// and `limit == 0` returns nothing.
    #[test]
    fn table_range_read_matches_ordered_map_over_random_partitions(
        boundaries in prop::collection::btree_set(1i64..1_000, 0..12),
        keys in prop::collection::btree_set(0i64..1_000, 0..300),
        hole in 0i64..1_000,
        from in prop::option::of(-20i64..1_020),
        to in prop::option::of(-20i64..1_020),
        limit in 0usize..120,
    ) {
        let nodes = vec![SocketId(0); boundaries.len() + 1];
        let mut table = Table::range_partitioned(
            TableId(0),
            two_int_schema(),
            boundaries.iter().map(|&b| Key::int(b)).collect(),
            nodes,
        );
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for k in keys.into_iter().filter(|k| !(hole..hole + 250).contains(k)) {
            table.load(record_for(k, k + 1)).map_err(|e| TestCaseError::fail(e.to_string()))?;
            model.insert(k, k + 1);
        }
        let topo = Topology::multisocket(2, 2);
        let cost = CostModel::westmere();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
        let (from_key, to_key) = (from.map(Key::int), to.map(Key::int));
        for limit in [limit, 0, usize::MAX] {
            let got: Vec<(i64, i64)> = table
                .range_read(&mut ctx, from_key.as_ref(), to_key.as_ref(), limit)
                .into_iter()
                .map(|r| (r.get(0).as_int(), r.get(1).as_int()))
                .collect();
            let mut want = model_range(&model, from, to);
            want.truncate(limit);
            prop_assert_eq!(got, want);
        }
    }
}

// ----------------------------------------------------------------------
// The node key column vs. the plain key slice
// ----------------------------------------------------------------------

/// One key component: small integers (shared prefixes, negative, zero),
/// the edges of `i32` and of `[0, 2³²)`, and arbitrary integers.
fn component_strategy() -> impl Strategy<Value = i64> {
    const I32_MIN: i64 = i32::MIN as i64;
    const I32_MAX: i64 = i32::MAX as i64;
    const LOW_END: i64 = 1 << 32;
    let edges = vec![
        i64::MIN,
        I32_MIN - 1,
        I32_MIN,
        I32_MAX,
        I32_MAX + 1,
        LOW_END - 1,
        LOW_END,
        LOW_END + 1,
        i64::MAX,
    ];
    prop_oneof![
        6 => -2i64..3,
        2 => prop::sample::select(edges),
        1 => any::<i64>(),
    ]
}

/// Keys of every shape a node has to order: one to four components of
/// [`component_strategy`] (so `(1, 2)` meets `(1, 2, 0)`), and TPC-C-like
/// composites, many of which share their `(w_id, d_id)` prefix.
fn key_strategy() -> impl Strategy<Value = Key> {
    (raw_key_strategy(), 1usize..=MAX_KEY_COMPONENTS)
        .prop_map(|(raw, width)| Key::ints(&raw[..width]))
}

/// Four key components, to be cut to a key width: [`component_strategy`]
/// values, or a TPC-C-like `(w_id, d_id, o_id, ol_number)` from a small
/// space, so that keys share their `(w_id, d_id)` prefix in long runs.
fn raw_key_strategy() -> impl Strategy<Value = [i64; MAX_KEY_COMPONENTS]> {
    prop_oneof![
        3 => prop::collection::vec(component_strategy(), MAX_KEY_COMPONENTS..=MAX_KEY_COMPONENTS)
            .prop_map(|c| [c[0], c[1], c[2], c[3]]),
        2 => (1i64..3, 1i64..3, 0i64..40, 0i64..4).prop_map(|(w, d, o, ol)| [w, d, o, ol]),
    ]
}

proptest! {
    /// The column search is the plain search: `search` equals
    /// `binary_search` and `lower_bound` equals `partition_point` over the
    /// keys, for probes of any shape — shorter than the stored keys (range
    /// bounds), longer, absent, sharing a long prefix — on columns of one key
    /// width from one to four, built by `insert`, thinned by `remove` and
    /// cut by `split_off`.
    #[test]
    fn key_column_searches_like_the_plain_key_slice(
        width in 1usize..=MAX_KEY_COMPONENTS,
        keys in prop::collection::vec(raw_key_strategy(), 0..120),
        removals in prop::collection::vec(any::<u64>(), 0..30),
        cut in any::<u64>(),
        probes in prop::collection::vec(key_strategy(), 1..40),
    ) {
        let mut column = KeyColumn::default();
        let mut model: Vec<Key> = Vec::new();
        for raw in keys {
            let key = Key::ints(&raw[..width]);
            let slot = column.search(&key);
            prop_assert_eq!(slot, model.binary_search(&key));
            if let Err(i) = slot {
                column.insert(i, key);
                model.insert(i, key);
            }
        }
        for r in removals {
            if !model.is_empty() {
                let i = r as usize % model.len();
                prop_assert_eq!(column.remove(i), model.remove(i));
            }
        }
        let mid = cut as usize % (model.len() + 1);
        let (right, right_model) = (column.split_off(mid), model.split_off(mid));
        for (column, model) in [(&column, &model), (&right, &right_model)] {
            column.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(column.keys().collect::<Vec<_>>(), model.clone());
            for probe in probes.iter().chain(model) {
                prop_assert_eq!(column.search(probe), model.binary_search(probe), "{probe}");
                prop_assert_eq!(
                    column.lower_bound(probe),
                    model.partition_point(|k| k < probe),
                    "{probe}"
                );
            }
        }
    }

    /// Trees over keys of every width keep their invariants through any sequence
    /// of inserts, removes, re-cuts at the heads of bounds of any width and
    /// back, and agree with an ordered map on lookups and scans.
    #[test]
    fn btree_over_any_key_shape_matches_ordered_map(
        width in 1usize..=MAX_KEY_COMPONENTS,
        ops in prop::collection::vec((0u8..8, raw_key_strategy(), any::<i64>()), 1..500),
        bound_widths in prop::collection::vec(1usize..=MAX_KEY_COMPONENTS, 500..=500),
    ) {
        let mut tree = BTree::new();
        let mut model: BTreeMap<Key, i64> = BTreeMap::new();
        for ((op, raw, v), bound_width) in ops.into_iter().zip(bound_widths) {
            let key = Key::ints(&raw[..width]);
            let bound = Key::ints(&raw[..bound_width]);
            match op {
                0..=3 => {
                    let a = tree.insert(key, record_for(0, v)).is_some();
                    prop_assert_eq!(a, model.insert(key, v).is_some());
                }
                4 => prop_assert_eq!(tree.remove(&key), model.remove(&key).is_some()),
                5 => {
                    let a = tree.get(&key).map(|r| r.get(1).as_int());
                    prop_assert_eq!(a, model.get(&key).copied());
                }
                6 => {
                    let a: Vec<Key> = tree.range_iter(Some(&bound), None).map(|(k, _)| k).collect();
                    let b: Vec<Key> = model.range(bound..).map(|(k, _)| *k).collect();
                    prop_assert_eq!(a, b);
                }
                _ => {
                    let head = bound.head_int();
                    let parts = BTree::recut(vec![std::mem::take(&mut tree)], &[head]);
                    parts[0].check_invariants().map_err(TestCaseError::fail)?;
                    parts[1].check_invariants().map_err(TestCaseError::fail)?;
                    prop_assert!(parts[0].iter().all(|(k, _)| k.head_int() < head));
                    prop_assert!(parts[1].iter().all(|(k, _)| k.head_int() >= head));
                    tree = BTree::recut(parts, &[]).pop().unwrap();
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let a: Vec<(Key, i64)> = tree.iter().map(|(k, r)| (k, r.get(1).as_int())).collect();
        let b: Vec<(Key, i64)> = model.iter().map(|(k, &v)| (*k, v)).collect();
        prop_assert_eq!(a, b);
    }
}

// ----------------------------------------------------------------------
// Packed leaves vs. an ordered map of records
// ----------------------------------------------------------------------

/// One step of the packed-leaf model workload.  Keys are cut from four raw
/// components to the case's key width; bounds to a width of their own (`0`
/// is unbounded), usually shorter than the keys.
#[derive(Debug, Clone)]
enum LeafOp {
    /// `BTree::insert` (replaces); the table deletes and inserts.
    Insert([i64; 4], i64),
    /// `BTree::insert_new` and `Table::load`: a present key keeps its row.
    InsertNew([i64; 4], i64),
    Remove([i64; 4]),
    /// Write an integer into the first (`false`) or second integer column;
    /// the table increments the second one.
    SetInt([i64; 4], bool, i64),
    /// `recut` at the bound's first integer, then the halves back into one.
    Recut([i64; 4], usize),
    /// Rebuild the tree with `bulk_load` from its own entries.
    Rebuild,
    /// Split the table's partition at the bound's first integer (even) or
    /// merge two (odd).
    Repartition([i64; 4], usize, u64),
    /// Scan `[from, to)` and read up to `limit` rows of it from the table.
    Range([i64; 4], usize, [i64; 4], usize, usize),
    /// Append keys above the maximum, each `step` above the one before in
    /// its last component, and after each one touch the new maximum as
    /// `then` says: 0 nothing, 1 `insert_new` it (rejected), 2 `insert`
    /// it (replaced), 3 remove it.
    Append(Vec<(i64, u8)>, i64),
}

/// Texts of zero to twenty characters, empty a fifth of the time.
fn text_strategy() -> impl Strategy<Value = String> {
    let chars = vec!['a', 'z', ' ', '"', 'é', '€', '\u{1F980}'];
    prop_oneof![
        1 => Just(String::new()),
        4 => prop::collection::vec(prop::sample::select(chars), 0..20)
            .prop_map(|cs| cs.into_iter().collect()),
    ]
}

fn leaf_op_strategy() -> impl Strategy<Value = LeafOp> {
    let bound = || (raw_key_strategy(), 0usize..=MAX_KEY_COMPONENTS);
    let small = || -1_000_000i64..1_000_000;
    prop_oneof![
        6 => (raw_key_strategy(), small()).prop_map(|(k, v)| LeafOp::Insert(k, v)),
        3 => (raw_key_strategy(), small()).prop_map(|(k, v)| LeafOp::InsertNew(k, v)),
        3 => raw_key_strategy().prop_map(LeafOp::Remove),
        3 => (raw_key_strategy(), any::<bool>(), small())
            .prop_map(|(k, second, v)| LeafOp::SetInt(k, second, v)),
        2 => bound().prop_map(|(k, w)| LeafOp::Recut(k, w)),
        1 => Just(LeafOp::Rebuild),
        1 => (bound(), any::<u64>()).prop_map(|((k, w), u)| LeafOp::Repartition(k, w, u)),
        2 => (bound(), bound(), 0usize..40)
            .prop_map(|((f, fw), (t, tw), limit)| LeafOp::Range(f, fw, t, tw, limit)),
        2 => (prop::collection::vec((1i64..4, 0u8..4), 1..150), small())
            .prop_map(|(steps, v)| LeafOp::Append(steps, v)),
    ]
}

/// A row of the model workload's table: the key's components, then
/// `a: Int, s: Text, b: Int, t: Text`.
fn leaf_row(key: &[i64], a: i64, s: &str, b: i64, t: &str) -> Record {
    let mut values: Vec<Value> = key.iter().map(|&c| Value::Int(c)).collect();
    values.extend([Value::Int(a), Value::from(s), Value::Int(b), Value::from(t)]);
    Record::new(values)
}

/// `record` with column `col` set to `v`, packed afresh (not through the
/// write path under test).
fn with_value(record: &Record, col: usize, v: Value) -> Record {
    let mut values: Vec<Value> = (0..record.arity()).map(|c| record.get(c)).collect();
    values[col] = v;
    Record::new(values)
}

/// The tree and the table hold exactly the model's rows, byte for byte,
/// and both keep their invariants.
fn check_leaves(
    tree: &BTree,
    table: &Table,
    model: &BTreeMap<Key, Record>,
) -> Result<(), TestCaseError> {
    tree.check_invariants().map_err(TestCaseError::fail)?;
    table
        .index()
        .check_invariants()
        .map_err(TestCaseError::fail)?;
    prop_assert_eq!(tree.len(), model.len());
    prop_assert_eq!(table.len(), model.len());
    let want = || model.iter().map(|(k, r)| (*k, r.row()));
    if !tree.iter().eq(want()) || !table.index().iter().eq(want()) {
        let want: Vec<(Key, Record)> = model.iter().map(|(k, r)| (*k, r.clone())).collect();
        for got in [
            tree.iter()
                .map(|(k, r)| (k, r.to_record()))
                .collect::<Vec<_>>(),
            table
                .index()
                .iter()
                .map(|(k, r)| (k, r.to_record()))
                .collect(),
        ] {
            prop_assert_eq!(got, want.clone());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A tree and a table of packed leaves — keys at one width from one to
    /// four, rows with two text columns — agree with an ordered map of
    /// records after every insert, rejected duplicate, remove, integer
    /// write, re-cut, bulk load, repartitioning at one-integer bounds and
    /// scan, with scan bounds of every width, and through ascending runs
    /// that re-insert or remove their maximum.
    #[test]
    fn packed_leaves_match_the_ordered_map_model(
        width in 1usize..=MAX_KEY_COMPONENTS,
        bounds in prop::collection::vec(raw_key_strategy(), 0..4),
        ops in prop::collection::vec(leaf_op_strategy(), 1..300),
    ) {
        let cut = |raw: &[i64; 4], w: usize| (w > 0).then(|| Key::ints(&raw[..w.min(width)]));
        let columns: Vec<Column> = (0..width)
            .map(|i| Column::new(format!("k{i}"), ColumnType::Int))
            .chain([
                Column::new("a", ColumnType::Int),
                Column::new("s", ColumnType::Text),
                Column::new("b", ColumnType::Int),
                Column::new("t", ColumnType::Text),
            ])
            .collect();
        let schema = Schema::new("packed", columns, (0..width).collect());
        let mut bounds: Vec<Key> = bounds.iter().filter_map(|raw| cut(raw, 1)).collect();
        bounds.sort();
        bounds.dedup();
        let nodes = vec![SocketId(0); bounds.len() + 1];
        let mut table = Table::range_partitioned(TableId(0), schema, bounds, nodes);
        let mut tree = BTree::new();
        let mut model: BTreeMap<Key, Record> = BTreeMap::new();
        let topo = Topology::multisocket(2, 2);
        let cost = CostModel::westmere();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
        let (a, b) = (width, width + 2);
        for op in ops {
            match op {
                LeafOp::Insert(raw, v) => {
                    let key = Key::ints(&raw[..width]);
                    let row = leaf_row(&raw[..width], v, "ins", -v, "");
                    prop_assert_eq!(tree.insert(key, row.clone()), model.get(&key).cloned());
                    if model.contains_key(&key) {
                        table.delete(&mut ctx, &key).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    }
                    prop_assert_eq!(table.insert(&mut ctx, row.row()).ok(), Some(key));
                    model.insert(key, row);
                }
                LeafOp::InsertNew(raw, v) => {
                    let key = Key::ints(&raw[..width]);
                    let row = leaf_row(&raw[..width], v, "new", v, "ü");
                    let present = model.contains_key(&key);
                    prop_assert_eq!(tree.insert_new(key, row.clone()).err(), present.then(|| row.clone()));
                    prop_assert_eq!(table.load(row.clone()).is_err(), present);
                    model.entry(key).or_insert(row);
                }
                LeafOp::Remove(raw) => {
                    let key = Key::ints(&raw[..width]);
                    // A delete hands nothing back: the row is read before
                    // and is gone after.
                    let want = model.remove(&key);
                    prop_assert_eq!(tree.get(&key).map(|r| r.to_record()), want.clone());
                    prop_assert_eq!(tree.remove(&key), want.is_some());
                    prop_assert!(tree.get(&key).is_none());
                    prop_assert_eq!(table.peek(&key).map(|r| r.to_record()), want.clone());
                    prop_assert_eq!(table.delete(&mut ctx, &key).is_ok(), want.is_some());
                    prop_assert!(table.peek(&key).is_none());
                }
                LeafOp::SetInt(raw, second, v) => {
                    let key = Key::ints(&raw[..width]);
                    let col = if second { b } else { a };
                    let Some(old) = model.get(&key) else {
                        prop_assert!(tree.get_mut(&key).is_none());
                        prop_assert!(table.increment(&mut ctx, &key, b, v).is_err());
                        continue;
                    };
                    let new = old.int(col).unwrap() + v;
                    let mut row = tree.get_mut(&key).unwrap();
                    prop_assert_eq!(row.int(col), old.int(col));
                    row.set(col, new);
                    if second {
                        table.increment(&mut ctx, &key, col, v)
                    } else {
                        table.update(&mut ctx, &key, col, new)
                    }
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    let new = with_value(old, col, Value::Int(new));
                    model.insert(key, new);
                }
                LeafOp::Recut(raw, w) => {
                    let Some(bound) = cut(&raw, w) else { continue };
                    let head = bound.head_int();
                    let parts = BTree::recut(vec![std::mem::take(&mut tree)], &[head]);
                    let (below, rest) = (model.range(..Key::int(head)), model.range(Key::int(head)..));
                    parts[0].check_invariants().map_err(TestCaseError::fail)?;
                    parts[1].check_invariants().map_err(TestCaseError::fail)?;
                    prop_assert!(parts[0].iter().map(|(k, _)| k).eq(below.map(|(k, _)| *k)));
                    prop_assert!(parts[1].iter().map(|(k, _)| k).eq(rest.map(|(k, _)| *k)));
                    tree = BTree::recut(parts, &[]).pop().unwrap();
                }
                LeafOp::Rebuild => {
                    tree = BTree::bulk_load(tree.iter().map(|(k, r)| (k, r.to_record())).collect());
                }
                LeafOp::Repartition(raw, w, u) => {
                    let index = table.index_mut();
                    match cut(&raw, w.min(1)) {
                        Some(bound) if u % 2 == 0 => {
                            let idx = index.partition_for(&bound);
                            let on_bound = index.lower_bound(idx) == Some(bound.head_int());
                            prop_assert_eq!(
                                index.split_partition(idx, bound, SocketId(1)).is_err(),
                                on_bound
                            );
                        }
                        _ if index.num_partitions() > 1 => {
                            let idx = u as usize % (index.num_partitions() - 1);
                            index.merge_with_next(idx).map_err(|e| TestCaseError::fail(e.to_string()))?;
                        }
                        _ => {}
                    }
                }
                LeafOp::Range(f, fw, to, tw, limit) => {
                    let (from, to) = (cut(&f, fw), cut(&to, tw));
                    let want: Vec<(Key, Record)> = match (&from, &to) {
                        (Some(f), Some(t)) if f >= t => Vec::new(),
                        _ => {
                            let lo = from.map_or(Bound::Unbounded, Bound::Included);
                            let hi = to.map_or(Bound::Unbounded, Bound::Excluded);
                            model.range((lo, hi)).map(|(k, r)| (*k, r.clone())).collect()
                        }
                    };
                    let got: Vec<(Key, Record)> = tree
                        .range_iter(from.as_ref(), to.as_ref())
                        .map(|(k, r)| (k, r.to_record()))
                        .collect();
                    prop_assert_eq!(&got, &want);
                    let read: Vec<Record> = table
                        .range_read(&mut ctx, from.as_ref(), to.as_ref(), limit)
                        .into_iter()
                        .map(|r| r.to_record())
                        .collect();
                    let want: Vec<Record> = want.into_iter().take(limit).map(|(_, r)| r).collect();
                    prop_assert_eq!(read, want);
                }
                LeafOp::Append(steps, v) => {
                    for (i, (step, then)) in (0..).zip(steps) {
                        // A row's first columns are its key's components.
                        let mut comps = [0; 4];
                        if let Some(max) = model.values().next_back() {
                            for (c, slot) in comps[..width].iter_mut().enumerate() {
                                *slot = max.int(c).unwrap();
                            }
                        }
                        let Some(last) = comps[width - 1].checked_add(step) else { break };
                        comps[width - 1] = last;
                        let key = Key::ints(&comps[..width]);
                        let row = leaf_row(&comps[..width], v + i, "app", i, "end");
                        prop_assert!(tree.insert_new(key, row.clone()).is_ok());
                        // The table appends through both of its paths.
                        if i % 2 == 0 {
                            table.load(row.clone()).map_err(|e| TestCaseError::fail(e.to_string()))?;
                        } else {
                            prop_assert_eq!(table.insert(&mut ctx, row.row()).ok(), Some(key));
                        }
                        model.insert(key, row.clone());
                        match then {
                            1 => {
                                let again = leaf_row(&comps[..width], -v, "dup", i, "");
                                prop_assert_eq!(tree.insert_new(key, again.clone()).err(), Some(again.clone()));
                                prop_assert!(table.load(again).is_err());
                            }
                            2 => {
                                let new = leaf_row(&comps[..width], -v, "replaced", i, "");
                                prop_assert_eq!(tree.insert(key, new.clone()), Some(row.clone()));
                                table.delete(&mut ctx, &key).map_err(|e| TestCaseError::fail(e.to_string()))?;
                                prop_assert_eq!(table.insert(&mut ctx, new.row()).ok(), Some(key));
                                model.insert(key, new);
                            }
                            3 => {
                                prop_assert_eq!(tree.get(&key).map(|r| r.to_record()), Some(row.clone()));
                                prop_assert!(tree.remove(&key));
                                prop_assert!(tree.get(&key).is_none());
                                prop_assert_eq!(table.peek(&key).map(|r| r.to_record()), Some(row));
                                prop_assert_eq!(table.delete(&mut ctx, &key), Ok(()));
                                prop_assert!(table.peek(&key).is_none());
                                model.remove(&key);
                            }
                            _ => {}
                        }
                    }
                }
            }
            check_leaves(&tree, &table, &model)?;
        }
    }
}

// ----------------------------------------------------------------------
// A table vs. an ordered map of records
// ----------------------------------------------------------------------

/// One step of a table driven against an ordered map of its records.  Raw
/// keys are cut to the case's key width.
#[derive(Debug, Clone)]
enum TableOp {
    /// `Table::insert` (`false`) or `Table::load` of a row: a present key is
    /// refused and keeps its row.
    Insert([i64; 4], bool, i64, String),
    /// `Table::update` of integer column `col % (width + 2)` — the key
    /// columns, then `a` and `b`; a key column is refused.
    Update([i64; 4], usize, i64),
    /// `Table::increment` of the integer column `Update` would pick.
    Increment([i64; 4], usize, i64),
    /// `Table::delete`: hands back the full record.
    Delete([i64; 4]),
    /// Split the partition that holds the first integer there.
    Split(i64),
    /// Merge partition `u % (partitions - 1)` with the next.
    Merge(u64),
}

fn table_op_strategy() -> impl Strategy<Value = TableOp> {
    let small = || -1_000_000i64..1_000_000;
    prop_oneof![
        6 => (raw_key_strategy(), any::<bool>(), small(), text_strategy())
            .prop_map(|(k, load, v, t)| TableOp::Insert(k, load, v, t)),
        4 => (raw_key_strategy(), any::<usize>(), small())
            .prop_map(|(k, col, v)| TableOp::Update(k, col, v)),
        3 => (raw_key_strategy(), any::<usize>(), small())
            .prop_map(|(k, col, d)| TableOp::Increment(k, col, d)),
        3 => raw_key_strategy().prop_map(TableOp::Delete),
        1 => raw_key_strategy().prop_map(|k| TableOp::Split(k[0])),
        1 => any::<u64>().prop_map(TableOp::Merge),
    ]
}

/// The table holds exactly the model's records, each under its own key,
/// and keeps its invariants.
fn check_table(table: &Table, model: &BTreeMap<Key, Record>) -> Result<(), TestCaseError> {
    table
        .index()
        .check_invariants()
        .map_err(TestCaseError::fail)?;
    prop_assert_eq!(table.len(), model.len());
    let got: Vec<(Key, Record)> = table
        .index()
        .iter()
        .map(|(k, r)| {
            prop_assert_eq!(r.key(table.schema()), k);
            prop_assert!(r.conforms_to(table.schema()));
            Ok((k, r.to_record()))
        })
        .collect::<Result<_, TestCaseError>>()?;
    let want: Vec<(Key, Record)> = model.iter().map(|(k, r)| (*k, r.clone())).collect();
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A table whose leaves keep each key only in their key column — keys
    /// one to four integers wide, two integer columns behind them, and
    /// between those a text column or none (leaves of fixed-stride rows
    /// with no end offsets) — agrees with an ordered map of whole records
    /// through inserts and loads (duplicates refused), integer updates and
    /// increments, deletes that hand back the whole record, and partition
    /// splits and merges, which rebuild trees through the bulk loader.  A
    /// write to a key column is refused with a typed error and changes
    /// nothing.
    #[test]
    fn a_table_matches_the_ordered_map_of_its_records(
        width in 1usize..=MAX_KEY_COMPONENTS,
        with_text in any::<bool>(),
        ops in prop::collection::vec(table_op_strategy(), 1..300),
    ) {
        let text_column = with_text.then(|| Column::new("s", ColumnType::Text));
        let columns: Vec<Column> = (0..width)
            .map(|i| Column::new(format!("k{i}"), ColumnType::Int))
            .chain([Column::new("a", ColumnType::Int)])
            .chain(text_column)
            .chain([Column::new("b", ColumnType::Int)])
            .collect();
        let b = columns.len() - 1;
        let schema = Schema::new("keyed", columns, (0..width).collect());
        // The key columns, then `a` and `b`.
        let int_column = |col: usize| match col % (width + 2) {
            c if c <= width => c,
            _ => b,
        };
        let mut table = Table::new(TableId(3), schema, SocketId(0));
        let mut model: BTreeMap<Key, Record> = BTreeMap::new();
        let topo = Topology::multisocket(2, 2);
        let cost = CostModel::westmere();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
        let key_column = |column| StorageError::KeyColumnWrite { table: TableId(3), column };
        for op in ops {
            match op {
                TableOp::Insert(raw, load, v, text) => {
                    let key = Key::ints(&raw[..width]);
                    let mut values: Vec<Value> = raw[..width].iter().map(|&c| Value::Int(c)).collect();
                    values.push(Value::Int(v));
                    values.extend(with_text.then_some(Value::Text(text)));
                    values.push(Value::Int(-v));
                    let row = Record::new(values);
                    let present = model.contains_key(&key);
                    let got = if load {
                        table.load(row.clone()).map(|()| key)
                    } else {
                        table.insert(&mut ctx, row.row())
                    };
                    match got {
                        Ok(k) => prop_assert!(!present && k == key),
                        Err(e) => prop_assert!(present && e == StorageError::DuplicateKey { table: TableId(3), key }),
                    }
                    model.entry(key).or_insert(row);
                }
                TableOp::Update(raw, col, v) | TableOp::Increment(raw, col, v) => {
                    let key = Key::ints(&raw[..width]);
                    let col = int_column(col);
                    let increment = matches!(op, TableOp::Increment(..));
                    let got = if increment {
                        table.increment(&mut ctx, &key, col, v)
                    } else {
                        table.update(&mut ctx, &key, col, v)
                    };
                    match model.get_mut(&key) {
                        _ if col < width => prop_assert_eq!(got, Err(key_column(col))),
                        None => prop_assert!(matches!(got, Err(StorageError::KeyNotFound { .. }))),
                        Some(record) => {
                            prop_assert_eq!(got, Ok(()));
                            let now = if increment { record.int(col).unwrap() + v } else { v };
                            *record = with_value(record, col, Value::Int(now));
                        }
                    }
                }
                TableOp::Delete(raw) => {
                    let key = Key::ints(&raw[..width]);
                    let want = model.remove(&key);
                    prop_assert_eq!(table.peek(&key).map(|r| r.to_record()), want.clone());
                    prop_assert_eq!(table.delete(&mut ctx, &key).is_ok(), want.is_some());
                    prop_assert!(table.peek(&key).is_none());
                }
                TableOp::Split(head) => {
                    let index = table.index_mut();
                    let idx = index.partition_for(&Key::int(head));
                    let on_bound = index.lower_bound(idx) == Some(head);
                    prop_assert_eq!(
                        index.split_partition(idx, Key::int(head), SocketId(1)).is_err(),
                        on_bound
                    );
                }
                TableOp::Merge(u) => {
                    let index = table.index_mut();
                    if index.num_partitions() > 1 {
                        let idx = u as usize % (index.num_partitions() - 1);
                        index.merge_with_next(idx).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    }
                }
            }
            check_table(&table, &model)?;
        }
    }
}

// ----------------------------------------------------------------------
// Packed records vs. the `Vec<Value>` row they replaced
// ----------------------------------------------------------------------

/// The row representation the packed block replaced, with its derived
/// `Debug` form — which the packed record must reproduce.
mod naive {
    use atrapos_storage::Value;

    #[derive(Debug, Clone, PartialEq)]
    pub struct Record {
        pub values: Vec<Value>,
    }
}

/// One column value: integers with their extremes, and texts of zero to
/// eleven characters, one to four UTF-8 bytes each, `Debug` escapes included.
fn value_strategy() -> impl Strategy<Value = Value> {
    let chars = vec!['a', 'z', '0', ' ', '"', '\\', 'é', 'ü', '€', '\u{1F980}'];
    let ints = prop_oneof![
        3 => any::<i64>(),
        1 => prop::sample::select(vec![i64::MIN, i64::MAX, 0, -1]),
    ];
    prop_oneof![
        3 => ints.prop_map(Value::Int),
        2 => prop::collection::vec(prop::sample::select(chars), 0..12)
            .prop_map(|cs| Value::Text(cs.into_iter().collect())),
    ]
}

/// Every observable of `record` equals the model's.
fn check_against_model(record: &Record, model: &naive::Record) -> Result<(), TestCaseError> {
    let values = &model.values;
    prop_assert_eq!(record.arity(), values.len());
    for (i, v) in values.iter().enumerate() {
        prop_assert_eq!(&record.get(i), v);
        let int = match v {
            Value::Int(x) => Some(*x),
            Value::Text(_) => None,
        };
        prop_assert_eq!(record.int(i), int);
    }
    prop_assert_eq!(
        record.size_bytes(),
        values.iter().map(Value::size_bytes).sum::<u64>()
    );
    prop_assert_eq!(format!("{record:?}"), format!("{model:?}"));
    prop_assert_eq!(&record.clone(), record);
    // The layout is canonical: the same values packed afresh are equal.
    prop_assert_eq!(&Record::new(values.clone()), record);
    let ints: Option<Vec<i64>> = values
        .iter()
        .map(|v| match v {
            Value::Int(x) => Some(*x),
            Value::Text(_) => None,
        })
        .collect();
    if let Some(ints) = ints {
        prop_assert_eq!(&Record::ints(&ints), record);
    }
    // A key of the leading Int columns, up to four.
    let pk: Vec<usize> = (0..values.len())
        .take_while(|&i| matches!(values[i], Value::Int(_)))
        .take(MAX_KEY_COMPONENTS)
        .collect();
    if pk.is_empty() {
        return Ok(());
    }
    let columns = |types: &mut dyn Iterator<Item = ColumnType>| {
        types
            .enumerate()
            .map(|(i, ty)| Column::new(format!("c{i}"), ty))
            .collect::<Vec<_>>()
    };
    let types: Vec<ColumnType> = values.iter().map(Value::column_type).collect();
    let schema = Schema::new("t", columns(&mut types.iter().copied()), pk.clone());
    prop_assert!(record.conforms_to(&schema));
    let key: Vec<i64> = pk.iter().map(|&c| values[c].as_int()).collect();
    prop_assert_eq!(record.key(&schema), Key::ints(&key));
    if values.len() < MAX_COLUMNS {
        let wider = types.iter().copied().chain([ColumnType::Int]);
        let wider = Schema::new("t", columns(&mut wider.into_iter()), pk.clone());
        prop_assert!(!record.conforms_to(&wider));
    }
    if let Some(c) = (0..values.len()).find(|c| !pk.contains(c)) {
        let mut flipped = types.clone();
        flipped[c] = match flipped[c] {
            ColumnType::Int => ColumnType::Text,
            ColumnType::Text => ColumnType::Int,
        };
        let flipped = Schema::new("t", columns(&mut flipped.into_iter()), pk);
        prop_assert!(!record.conforms_to(&flipped));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A packed record agrees with a plain `Vec<Value>` on every accessor,
    /// on its schema checks and key, on equality, and on its `Debug` form.
    #[test]
    fn packed_records_agree_with_the_vec_model(
        values in prop::collection::vec(value_strategy(), 0..=MAX_COLUMNS),
    ) {
        let model = naive::Record { values };
        let record = Record::new(model.values.clone());
        check_against_model(&record, &model)?;
    }
}

// ----------------------------------------------------------------------
// Lock manager vs. naive oracle
// ----------------------------------------------------------------------

/// The naive oracle: per lock the exact multiset of (txn, mode) grants
/// and the two occupancy times (exclusive, shared) its releases left, per
/// transaction its grant list in acquisition order.  Nothing is ever
/// removed.
#[derive(Debug, Default)]
struct LockOracle {
    #[allow(clippy::disallowed_types)]
    holders: HashMap<LockId, Vec<(TxnId, LockMode)>>,
    held: BTreeMap<TxnId, Vec<(LockId, LockMode)>>,
    #[allow(clippy::disallowed_types)]
    until: HashMap<LockId, (Cycles, Cycles)>,
}

impl LockOracle {
    /// Whether `txn` already holds `id` in a mode at least as strong as
    /// `mode` (the upgrade fast path must skip the acquisition).
    fn holds(&self, txn: TxnId, id: &LockId, mode: LockMode) -> bool {
        self.held
            .get(&txn)
            .map(|locks| {
                locks.iter().any(|(held, m)| {
                    held == id && (*m == mode || (m.is_exclusive() && !mode.is_exclusive()))
                })
            })
            .unwrap_or(false)
    }

    fn grant(&mut self, txn: TxnId, id: LockId, mode: LockMode) {
        self.holders.entry(id).or_default().push((txn, mode));
        self.held.entry(txn).or_default().push((id, mode));
    }

    fn release_all(&mut self, txn: TxnId) {
        for (id, mode) in self.held.remove(&txn).unwrap_or_default() {
            self.release(txn, id, mode, 0);
        }
    }

    /// `txn`'s grant of `id` in `mode` ends at `now`.
    fn release(&mut self, txn: TxnId, id: LockId, mode: LockMode, now: Cycles) {
        if let Some(hs) = self.holders.get_mut(&id) {
            if let Some(pos) = hs.iter().position(|(t, m)| *t == txn && *m == mode) {
                hs.swap_remove(pos);
            }
        }
        let (exclusive, shared) = self.until.entry(id).or_default();
        let until = if mode.is_exclusive() {
            exclusive
        } else {
            shared
        };
        *until = (*until).max(now);
    }

    /// The virtual time a `mode` request on `id` waits until.
    fn wait_until(&self, id: &LockId, mode: LockMode) -> Cycles {
        let (exclusive, shared) = self.until.get(id).copied().unwrap_or_default();
        if mode == LockMode::X {
            exclusive.max(shared)
        } else {
            exclusive
        }
    }

    fn sorted_holders(&self, id: &LockId) -> Vec<(TxnId, LockMode)> {
        let mut v = self.holders.get(id).cloned().unwrap_or_default();
        v.sort_by_key(|(t, m)| (*t, format!("{m:?}")));
        v
    }
}

fn lock_id(l: u8) -> LockId {
    if l < 3 {
        LockId::Table(TableId(u32::from(l)))
    } else {
        LockId::Record(TableId(u32::from(l % 3)), Key::int(i64::from(l)))
    }
}

/// A transaction's grants, in order, without the manager's latch and slot.
fn grants(txn: &Txn) -> Vec<(LockId, LockMode)> {
    txn.held_locks.iter().map(|h| (h.id, h.mode)).collect()
}

fn lock_mode(m: u8) -> LockMode {
    match m {
        0 => LockMode::IS,
        1 => LockMode::IX,
        2 => LockMode::S,
        _ => LockMode::X,
    }
}

proptest! {
    /// Transactions acquire batches of locks and release them all at
    /// commit — the exact pattern the execution designs use (strict 2PL,
    /// with each `execute` call fully releasing before the next begins).
    /// The lock manager's observable state — holder sets, per-transaction
    /// grant lists, the upgrade fast path, acquisition counts, wait
    /// accounting, and the grant-compatibility invariant — must match the
    /// naive oracle at every step.  The low-water mark follows each
    /// transaction's start, so with nine record locks the table sweeps
    /// (at its floor of 8) between the grants of one transaction.
    #[test]
    fn lock_manager_matches_naive_oracle(
        centralized in any::<bool>(),
        txn_batches in prop::collection::vec(
            prop::collection::vec((0..12u8, 0..4u8), 1..10),
            1..40,
        ),
    ) {
        let mut machine = Machine::new(Topology::multisocket(4, 2), CostModel::westmere());
        let mut lm = if centralized {
            LockManager::centralized(16, 4)
        } else {
            LockManager::partition_local(atrapos_numa::SocketId(0))
        };
        let mut oracle = LockOracle::default();
        // Locks a previous transaction has held exclusively (or at all, for
        // X requests): the only locks a later request may ever wait on.
        let mut ever_exclusive: Vec<bool> = vec![false; 12];
        let mut ever_held: Vec<bool> = vec![false; 12];
        let mut now = 0;

        for (i, batch) in txn_batches.iter().enumerate() {
            // No request comes before this transaction's start, so every
            // record request past the sweep floor forgets the committed
            // entries while this transaction's own grants stay held.
            machine.set_low_water(now);
            let mut txn = Txn::begin(TxnId(i as u64 + 1));
            let core = CoreId(((i % 4) * 2) as u32);
            for &(l, m) in batch {
                let id = lock_id(l);
                let mode = lock_mode(m);
                let expect_fast_path = oracle.holds(txn.id, &id, mode);
                prop_assert_eq!(
                    expect_fast_path,
                    lm.holds(txn.id, &id, mode),
                    "oracle and LockManager::holds disagree"
                );
                let acquisitions_before = lm.acquisitions;
                let waits_before = lm.logical_waits;
                let mut ctx = machine.ctx(core, now);
                lm.acquire(&mut ctx, &mut txn, id, mode);
                now = ctx.now();
                if expect_fast_path {
                    prop_assert_eq!(lm.acquisitions, acquisitions_before,
                        "upgrade fast path re-acquired");
                    prop_assert_eq!(lm.logical_waits, waits_before);
                } else {
                    prop_assert_eq!(lm.acquisitions, acquisitions_before + 1);
                    oracle.grant(txn.id, id, mode);
                    // A request can only wait on occupancy a previous
                    // holder left behind.
                    let could_wait = if mode == LockMode::X {
                        ever_held[l as usize]
                    } else {
                        ever_exclusive[l as usize]
                    };
                    if !could_wait {
                        prop_assert_eq!(lm.logical_waits, waits_before,
                            "waited on a never-contended lock");
                    }
                }
                // Holder multisets agree.
                let mut got = lm.holders_of(&id);
                got.sort_by_key(|(t, m)| (*t, format!("{m:?}")));
                prop_assert_eq!(got, oracle.sorted_holders(&id));
                // The transaction's grant list agrees exactly (order
                // preserved).
                let want = oracle.held.get(&txn.id).cloned().unwrap_or_default();
                prop_assert_eq!(grants(&txn), want);
                lm.check_grant_invariants().map_err(TestCaseError::fail)?;
            }
            // Commit: strict 2PL releases everything.
            for (l, m) in batch {
                ever_held[*l as usize] = true;
                if lock_mode(*m).is_exclusive() {
                    ever_exclusive[*l as usize] = true;
                }
            }
            let mut ctx = machine.ctx(core, now);
            lm.release_all(&mut ctx, &mut txn);
            now = ctx.now();
            oracle.release_all(txn.id);
            prop_assert!(txn.held_locks.is_empty());
            for l in 0..12u8 {
                prop_assert!(
                    lm.holders_of(&lock_id(l)).is_empty(),
                    "holders survive release_all"
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// Forgetting lock entries vs. a lock table that never forgets
// ----------------------------------------------------------------------

/// What the lock manager charges: a latched probe per acquisition, a
/// latched release per grant, and the latch-free upgrade check.
const LOCK_TABLE_WORK: u64 = 120;
const LOCK_RELEASE_WORK: u64 = 60;
const UPGRADE_CHECK_WORK: u64 = 10;

/// The lock table that never forgets: the naive oracle, charging the
/// manager's work on the same bucket latches.  Its upgrade fast path reads
/// the transaction's own grant list, as the manager's used to.
struct NeverForgets {
    oracle: LockOracle,
    latches: Vec<ContendedLine>,
    wait: WaitMode,
    acquisitions: u64,
    logical_waits: u64,
}

impl NeverForgets {
    fn new(centralized: bool) -> Self {
        let (latches, wait) = if centralized {
            let latches = (0..16)
                .map(|i| ContendedLine::new(SocketId(i % 4)))
                .collect();
            (latches, WaitMode::Spin)
        } else {
            (vec![ContendedLine::new(SocketId(0))], WaitMode::Stall)
        };
        Self {
            oracle: LockOracle::default(),
            latches,
            wait,
            acquisitions: 0,
            logical_waits: 0,
        }
    }

    fn latch(&mut self, id: &LockId) -> &mut ContendedLine {
        let n = self.latches.len();
        let bucket = if n == 1 {
            0
        } else {
            (id.bucket_hash() % n as u64) as usize
        };
        &mut self.latches[bucket]
    }

    fn acquire(&mut self, ctx: &mut SimCtx<'_>, txn: TxnId, id: LockId, mode: LockMode) -> Cycles {
        let before = ctx.now();
        if self.oracle.holds(txn, &id, mode) {
            ctx.work(Component::Locking, UPGRADE_CHECK_WORK);
            return ctx.now() - before;
        }
        self.acquisitions += 1;
        let wait = self.wait;
        ctx.critical_section(Component::Locking, self.latch(&id), wait, LOCK_TABLE_WORK);
        let wait_until = self.oracle.wait_until(&id, mode);
        if wait_until > ctx.now() {
            self.logical_waits += 1;
            ctx.wait_until(Component::Locking, wait_until, WaitMode::Stall);
        }
        self.oracle.grant(txn, id, mode);
        ctx.now() - before
    }

    fn release_all(&mut self, ctx: &mut SimCtx<'_>, txn: TxnId) -> Cycles {
        let before = ctx.now();
        let wait = self.wait;
        for (id, mode) in self.oracle.held.remove(&txn).unwrap_or_default() {
            ctx.critical_section(Component::Locking, self.latch(&id), wait, LOCK_RELEASE_WORK);
            self.oracle.release(txn, id, mode, ctx.now());
        }
        ctx.now() - before
    }
}

/// Locks of the reclamation stream: three table locks and 157 records,
/// enough distinct entries to cross the sweep floor several times.
const STREAM_LOCKS: u8 = 160;

/// One step of a lock stream with up to three transactions open at once.
/// Request times are offsets above the current low-water mark, so they
/// jump backwards as often as forwards, yet never fall below the mark.
#[derive(Debug, Clone)]
enum LockOp {
    Acquire {
        txn: usize,
        lock: u8,
        mode: u8,
        offset: Cycles,
    },
    /// The transaction commits, and its slot starts a fresh one.
    Release { txn: usize, offset: Cycles },
    /// The low-water mark rises.
    Advance(Cycles),
}

fn lock_op_strategy() -> impl Strategy<Value = LockOp> {
    prop_oneof![
        6 => (0..3usize, 0..STREAM_LOCKS, 0..4u8, 0..40_000u64)
            .prop_map(|(txn, lock, mode, offset)| LockOp::Acquire { txn, lock, mode, offset }),
        2 => (0..3usize, 0..40_000u64).prop_map(|(txn, offset)| LockOp::Release { txn, offset }),
        2 => (0..30_000u64).prop_map(LockOp::Advance),
    ]
}

fn sorted(mut grants: Vec<(TxnId, LockMode)>) -> Vec<(TxnId, LockMode)> {
    grants.sort_by_key(|(t, m)| (*t, format!("{m:?}")));
    grants
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The manager forgets entries against the mark; the reference keeps
    /// every entry forever.  They agree on the cycles of every `acquire`
    /// and `release_all`, on the upgrade fast path, on `acquisitions` and
    /// `logical_waits`, and on every holder set — so forgetting is never
    /// observable — and the manager keeps no more entries than the
    /// reference.
    #[test]
    fn lock_manager_forgets_only_what_no_later_request_can_observe(
        centralized in any::<bool>(),
        ops in prop::collection::vec(lock_op_strategy(), 1..400),
    ) {
        let mut machine = Machine::new(Topology::multisocket(4, 2), CostModel::westmere());
        let (topo, cost) = (machine.topology.clone(), machine.cost.clone());
        let mut lm = if centralized {
            LockManager::centralized(16, 4)
        } else {
            LockManager::partition_local(SocketId(0))
        };
        let mut reference = NeverForgets::new(centralized);
        let mut txns: Vec<Txn> = (1..=3).map(|i| Txn::begin(TxnId(i))).collect();
        let mut next_txn = 4;
        let mut mark = 0;
        for op in ops {
            match op {
                LockOp::Advance(step) => {
                    mark += step;
                    machine.set_low_water(mark);
                }
                LockOp::Acquire { txn: slot, lock, mode, offset } => {
                    let (id, mode) = (lock_id(lock), lock_mode(mode));
                    let txn = &mut txns[slot];
                    let fast_path = reference.oracle.holds(txn.id, &id, mode);
                    prop_assert_eq!(lm.holds(txn.id, &id, mode), fast_path, "fast path on {:?}", id);
                    let core = CoreId(slot as u32 * 2);
                    let mut ctx = machine.ctx(core, mark + offset);
                    let mut rctx = SimCtx::new(&topo, &cost, core, mark + offset);
                    let got = lm.acquire(&mut ctx, txn, id, mode);
                    let want = reference.acquire(&mut rctx, txn.id, id, mode);
                    prop_assert_eq!(got, want, "cycles of {:?} {:?}", id, mode);
                    let held = reference.oracle.held.get(&txn.id).cloned().unwrap_or_default();
                    prop_assert_eq!(grants(txn), held);
                    prop_assert_eq!(sorted(lm.holders_of(&id)), reference.oracle.sorted_holders(&id));
                }
                LockOp::Release { txn: slot, offset } => {
                    let txn = &mut txns[slot];
                    let core = CoreId(slot as u32 * 2);
                    let mut ctx = machine.ctx(core, mark + offset);
                    let mut rctx = SimCtx::new(&topo, &cost, core, mark + offset);
                    let got = lm.release_all(&mut ctx, txn);
                    let want = reference.release_all(&mut rctx, txn.id);
                    prop_assert_eq!(got, want, "cycles of release_all");
                    txn.reset(TxnId(next_txn));
                    next_txn += 1;
                }
            }
            prop_assert_eq!(lm.acquisitions, reference.acquisitions);
            prop_assert_eq!(lm.logical_waits, reference.logical_waits);
            prop_assert!(lm.record_entries() <= reference.oracle.holders.len());
        }
        for l in 0..STREAM_LOCKS {
            let id = lock_id(l);
            prop_assert_eq!(sorted(lm.holders_of(&id)), reference.oracle.sorted_holders(&id));
        }
    }
}

/// The memory bound as a count: 10 000 one-key transactions over 10 000
/// distinct keys, with the mark at each transaction's start, never leave
/// more than twice the sweep floor of record entries — on either kind of
/// table.  Without a mark every key keeps its entry, as every key did
/// before entries were forgotten.
#[test]
fn lock_entries_stay_bounded_by_the_locks_in_flight() {
    for centralized in [false, true] {
        let make = || {
            if centralized {
                LockManager::centralized(256, 4)
            } else {
                LockManager::partition_local(SocketId(0))
            }
        };
        let mut machine = Machine::new(Topology::multisocket(4, 2), CostModel::westmere());
        let (mut forgets, mut keeps) = (make(), make());
        let mut now = 0;
        let mut most = 0;
        for i in 0..10_000u64 {
            machine.set_low_water(now);
            let id = LockId::Record(TableId(0), Key::int(i as i64));
            let mut txn = Txn::begin(TxnId(i));
            let mut ctx = machine.ctx(CoreId(0), now);
            forgets.acquire(&mut ctx, &mut txn, LockId::Table(TableId(0)), LockMode::IX);
            forgets.acquire(&mut ctx, &mut txn, id, LockMode::X);
            forgets.release_all(&mut ctx, &mut txn);
            now = ctx.now();
            most = most.max(forgets.record_entries());
            let mut ctx = SimCtx::new(&machine.topology, &machine.cost, CoreId(0), now);
            keeps.acquire(&mut ctx, &mut txn, id, LockMode::X);
            keeps.release_all(&mut ctx, &mut txn);
        }
        assert!(
            most <= 2 * SWEEP_FLOOR,
            "centralized {centralized}: {most} live entries"
        );
        assert_eq!(keeps.record_entries(), 10_000, "centralized {centralized}");
    }
}

// ----------------------------------------------------------------------
// Range-partition routing vs. a whole-key search
// ----------------------------------------------------------------------

/// The last partition whose lower bound is `<= key`, by binary search over
/// whole keys (`partition_for` before the bounds became integers).
fn whole_key_partition_for(tree: &MrBTree, key: &Key) -> usize {
    let (mut lo, mut hi) = (1, tree.num_partitions());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if tree
            .lower_bound(mid)
            .is_some_and(|lower| Key::int(lower) > *key)
        {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo - 1
}

proptest! {
    /// Routing equals the whole-key search for probes of every shape —
    /// composite keys sharing a prefix, probes equal to a boundary — over
    /// random one-integer boundaries reshaped by splits, merges and
    /// whole-table re-cuts that keep some bounds and add one, and the
    /// bounds stay where `lower_bound`/`upper_bound` say.  A split at a
    /// wider key is refused.
    #[test]
    fn partition_routing_matches_the_whole_key_search(
        bounds in prop::collection::btree_set(component_strategy(), 0..100),
        edits in prop::collection::vec(
            (0u8..3, any::<u64>(), prop_oneof![
                3 => component_strategy().prop_map(Key::int),
                1 => key_strategy(),
            ]),
            0..20,
        ),
        probes in prop::collection::vec(key_strategy(), 1..40),
    ) {
        let nodes = vec![SocketId(0); bounds.len() + 1];
        let mut tree = MrBTree::range_partitioned(bounds.into_iter().map(Key::int).collect(), nodes);
        for (edit, at, key) in edits {
            if edit == 0 {
                let idx = tree.partition_for(&key);
                let refused = key.len() > 1 || tree.lower_bound(idx) == Some(key.head_int());
                let split = tree.split_partition(idx, key, SocketId(1));
                prop_assert_eq!(split.is_err(), refused, "split at {}", key);
            } else if edit == 1 && tree.num_partitions() > 1 {
                let idx = at as usize % (tree.num_partitions() - 1);
                tree.merge_with_next(idx).map_err(|e| TestCaseError::fail(e.to_string()))?;
            } else if edit == 2 {
                // Keep the bounds `at`'s bits pick, and add the key's head.
                let kept = tree.lowers().iter().enumerate().filter(|&(i, _)| at >> (i % 64) & 1 == 1);
                let mut lowers: Vec<i64> = kept.map(|(_, &b)| b).chain([key.head_int()]).collect();
                lowers.sort_unstable();
                lowers.dedup();
                let nodes = vec![SocketId(0); lowers.len() + 1];
                tree.recut(lowers, nodes).map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let n = tree.num_partitions();
        prop_assert_eq!(tree.lower_bound(0), None);
        prop_assert_eq!(tree.upper_bound(n - 1), None);
        let lowers: Vec<Key> = (1..n).map(|i| Key::int(tree.lower_bound(i).unwrap())).collect();
        for (i, lower) in lowers.iter().enumerate() {
            prop_assert_eq!(tree.upper_bound(i).map(Key::int), Some(*lower));
        }
        for probe in probes.iter().chain(&lowers) {
            prop_assert_eq!(tree.partition_for(probe), whole_key_partition_for(&tree, probe), "{}", probe);
        }
    }
}
