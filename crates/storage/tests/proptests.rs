//! Property-based tests for the storage substrate.
//!
//! These exercise the invariants that the rest of the system relies on: the
//! B+-tree and the multi-rooted B+-tree behave exactly like an ordered map,
//! repartitioning actions (split/merge) never lose or duplicate records,
//! keys order lexicographically, lock modes follow the hierarchical
//! compatibility matrix, and both log-manager variants account every record.

use atrapos_numa::{CoreId, CostModel, SimCtx, SocketId, Topology};
use atrapos_storage::{
    BTree, Key, LockId, LockManager, LockMode, LogManager, LogRecordKind, MrBTree, Record,
    StateRwLock, TableId, Txn, TxnId, TxnList, Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn record_for(key: i64, payload: i64) -> Record {
    Record::new(vec![Value::Int(key), Value::Int(payload)])
}

/// A workload of keyed operations applied both to the tree under test and to
/// a `BTreeMap` model.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(i64, i64),
    Remove(i64),
    Get(i64),
}

fn map_op_strategy(key_range: i64) -> impl Strategy<Value = MapOp> {
    prop_oneof![
        3 => (0..key_range, any::<i64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        1 => (0..key_range).prop_map(MapOp::Remove),
        1 => (0..key_range).prop_map(MapOp::Get),
    ]
}

proptest! {
    // ------------------------------------------------------------------
    // B+-tree
    // ------------------------------------------------------------------

    /// The B+-tree behaves exactly like an ordered map under arbitrary
    /// insert/remove/get sequences, and its structural invariants hold at
    /// the end.
    #[test]
    fn btree_matches_ordered_map_model(ops in prop::collection::vec(map_op_strategy(512), 1..400)) {
        let mut tree = BTree::new();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let prev_tree = tree.insert(Key::int(k), record_for(k, v));
                    let prev_model = model.insert(k, v);
                    prop_assert_eq!(prev_tree.is_some(), prev_model.is_some());
                }
                MapOp::Remove(k) => {
                    let removed_tree = tree.remove(&Key::int(k));
                    let removed_model = model.remove(&k);
                    prop_assert_eq!(removed_tree, removed_model.is_some());
                }
                MapOp::Get(k) => {
                    let got = tree.get(&Key::int(k)).map(|r| r.get(1).as_int());
                    prop_assert_eq!(got, model.get(&k).copied());
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        tree.check_invariants().map_err(TestCaseError::fail)?;
        // Iteration yields exactly the model's entries, in order.
        let tree_entries: Vec<(i64, i64)> = tree
            .iter()
            .map(|(k, r)| (k.head_int(), r.get(1).as_int()))
            .collect();
        let model_entries: Vec<(i64, i64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(tree_entries, model_entries);
    }

    /// Iteration is always strictly sorted and `min_key`/`max_key` agree
    /// with it.
    #[test]
    fn btree_iteration_is_sorted_and_bounded(keys in prop::collection::btree_set(0i64..10_000, 1..300)) {
        let mut tree = BTree::new();
        for &k in &keys {
            tree.insert(Key::int(k), record_for(k, k));
        }
        let collected: Vec<i64> = tree.iter().map(|(k, _)| k.head_int()).collect();
        prop_assert!(collected.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(collected.first().copied(), keys.iter().next().copied());
        prop_assert_eq!(tree.min_key().map(|k| k.head_int()), keys.iter().next().copied());
        prop_assert_eq!(tree.max_key().map(|k| k.head_int()), keys.iter().next_back().copied());
    }

    /// `bulk_load` produces the same tree contents as inserting one by one.
    #[test]
    fn btree_bulk_load_equals_incremental_inserts(keys in prop::collection::btree_set(0i64..100_000, 0..500)) {
        let pairs: Vec<(Key, Record)> = keys
            .iter()
            .map(|&k| (Key::int(k), record_for(k, k * 3)))
            .collect();
        let bulk = BTree::bulk_load(pairs.clone());
        let mut incremental = BTree::new();
        for (k, r) in pairs {
            incremental.insert(k, r);
        }
        prop_assert_eq!(bulk.len(), incremental.len());
        bulk.check_invariants().map_err(TestCaseError::fail)?;
        let a: Vec<i64> = bulk.iter().map(|(k, _)| k.head_int()).collect();
        let b: Vec<i64> = incremental.iter().map(|(k, _)| k.head_int()).collect();
        prop_assert_eq!(a, b);
    }

    /// `range_iter(from, to)` yields exactly the keys in `[from, to)`.
    #[test]
    fn btree_range_query_matches_model(
        keys in prop::collection::btree_set(0i64..2_000, 1..200),
        from in 0i64..2_000,
        width in 0i64..2_000,
    ) {
        let mut tree = BTree::new();
        for &k in &keys {
            tree.insert(Key::int(k), record_for(k, k));
        }
        let to = from + width;
        let got: Vec<i64> = tree
            .range_iter(Some(&Key::int(from)), Some(&Key::int(to)))
            .map(|(k, _)| k.head_int())
            .collect();
        let expected: Vec<i64> = keys.iter().copied().filter(|&k| k >= from && k < to).collect();
        prop_assert_eq!(got, expected);
    }

    /// A re-cut at a boundary and back is the identity on the set of
    /// entries, and both halves are valid trees that partition the key
    /// space at the boundary.
    #[test]
    fn btree_split_then_merge_roundtrips(
        keys in prop::collection::btree_set(0i64..5_000, 1..300),
        boundary in 0i64..5_000,
    ) {
        let mut tree = BTree::new();
        for &k in &keys {
            tree.insert(Key::int(k), record_for(k, k + 7));
        }
        let original: Vec<i64> = tree.iter().map(|(k, _)| k.head_int()).collect();
        let halves = BTree::recut(vec![tree], &[boundary]);
        let [left, right] = [&halves[0], &halves[1]];
        prop_assert!(left.iter().all(|(k, _)| k.head_int() < boundary));
        prop_assert!(right.iter().all(|(k, _)| k.head_int() >= boundary));
        prop_assert_eq!(left.len() + right.len(), original.len());
        left.check_invariants().map_err(TestCaseError::fail)?;
        right.check_invariants().map_err(TestCaseError::fail)?;
        let tree = BTree::recut(halves, &[]).pop().unwrap();
        let merged: Vec<i64> = tree.iter().map(|(k, _)| k.head_int()).collect();
        prop_assert_eq!(merged, original);
        tree.check_invariants().map_err(TestCaseError::fail)?;
    }

    // ------------------------------------------------------------------
    // Multi-rooted B+-tree
    // ------------------------------------------------------------------

    /// A range-partitioned multi-rooted tree routes every key to the
    /// partition whose `[lower, upper)` range contains it, and behaves like
    /// an ordered map overall.
    #[test]
    fn mrbtree_routes_keys_to_covering_partitions(
        mut boundaries in prop::collection::btree_set(1i64..1_000, 0..6),
        keys in prop::collection::btree_set(0i64..1_000, 1..200),
    ) {
        let boundary_keys: Vec<Key> = boundaries.iter().map(|&b| Key::int(b)).collect();
        let nodes = vec![SocketId(0); boundary_keys.len() + 1];
        let mut mr = MrBTree::range_partitioned(boundary_keys, nodes);
        prop_assert_eq!(mr.num_partitions(), boundaries.len() + 1);
        for &k in &keys {
            let key = Key::int(k);
            prop_assert!(mr.insert_new_in(mr.partition_for(&key), key, record_for(k, k).row()));
        }
        mr.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(mr.len(), keys.len());
        boundaries.insert(0); // implicit lower bound of partition 0
        for &k in &keys {
            let key = Key::int(k);
            let idx = mr.partition_for(&key);
            if let Some(lower) = mr.lower_bound(idx) {
                prop_assert!(lower <= k);
            }
            if let Some(upper) = mr.upper_bound(idx) {
                prop_assert!(k < upper);
            }
            prop_assert_eq!(mr.get(&key).map(|r| r.get(0).as_int()), Some(k));
        }
        // Global iteration is sorted across partitions.
        let collected: Vec<i64> = mr.iter().map(|(k, _)| k.head_int()).collect();
        prop_assert!(collected.windows(2).all(|w| w[0] < w[1]));
    }

    /// Splitting a partition and merging it back never loses or duplicates
    /// records, regardless of where the boundary falls.
    #[test]
    fn mrbtree_split_and_merge_preserve_contents(
        keys in prop::collection::btree_set(0i64..2_000, 1..200),
        boundary in 1i64..2_000,
    ) {
        let mut mr = MrBTree::new(SocketId(0));
        for &k in &keys {
            let key = Key::int(k);
            prop_assert!(mr.insert_new_in(mr.partition_for(&key), key, record_for(k, k).row()));
        }
        let before: Vec<i64> = mr.iter().map(|(k, _)| k.head_int()).collect();
        let moved = mr
            .split_partition(0, Key::int(boundary), SocketId(1))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(mr.num_partitions(), 2);
        prop_assert_eq!(moved, keys.iter().filter(|&&k| k >= boundary).count());
        prop_assert_eq!(mr.len(), keys.len());
        mr.check_invariants().map_err(TestCaseError::fail)?;
        // Every key still readable after the split.
        for &k in &keys {
            prop_assert!(mr.contains(&Key::int(k)));
        }
        mr.merge_with_next(0).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(mr.num_partitions(), 1);
        let after: Vec<i64> = mr.iter().map(|(k, _)| k.head_int()).collect();
        prop_assert_eq!(after, before);
        mr.check_invariants().map_err(TestCaseError::fail)?;
    }

    // ------------------------------------------------------------------
    // Keys
    // ------------------------------------------------------------------

    /// Composite integer keys order exactly like the tuples they encode
    /// (lexicographic order), which the range partitioning relies on.
    #[test]
    fn composite_keys_order_lexicographically(
        a in prop::collection::vec(-1_000i64..1_000, 1..4),
        b in prop::collection::vec(-1_000i64..1_000, 1..4),
    ) {
        let ka = Key::ints(&a);
        let kb = Key::ints(&b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(ka == kb, a == b);
        prop_assert_eq!(ka.head_int(), a[0]);
        prop_assert_eq!(ka.len(), a.len());
    }

    // ------------------------------------------------------------------
    // Lock manager
    // ------------------------------------------------------------------

    /// The lock-mode compatibility matrix is symmetric and follows the
    /// hierarchical (IS/IX/S/X) rules: only X is exclusive against
    /// everything, and intention locks are mutually compatible.
    #[test]
    fn lock_mode_compatibility_is_symmetric(a_idx in 0usize..4, b_idx in 0usize..4) {
        let modes = [LockMode::IS, LockMode::IX, LockMode::S, LockMode::X];
        let a = modes[a_idx];
        let b = modes[b_idx];
        prop_assert_eq!(a.compatible(b), b.compatible(a));
        if a == LockMode::X || b == LockMode::X {
            prop_assert!(!a.compatible(b));
        }
        if matches!(a, LockMode::IS | LockMode::IX) && matches!(b, LockMode::IS | LockMode::IX) {
            prop_assert!(a.compatible(b));
        }
        // IX and X both carry write intent.
        prop_assert_eq!(a.is_exclusive(), matches!(a, LockMode::X | LockMode::IX));
    }

    /// Transactions executed back-to-back (acquire all locks, do work,
    /// release all — exactly how the engine drives the lock manager) never
    /// leave incompatible holders behind, leave no holders at all once every
    /// transaction released, and serialize conflicting accesses in virtual
    /// time: a writer that logically starts before an earlier-processed
    /// holder's release is pushed past that release.
    #[test]
    fn lock_manager_serializes_sequentially_executed_transactions(
        txn_requests in prop::collection::vec(
            prop::collection::vec((0i64..20, any::<bool>()), 1..6),
            1..25,
        ),
        centralized in any::<bool>(),
    ) {
        let topo = Topology::multisocket(2, 2);
        let cost = CostModel::westmere();
        let mut lm = if centralized {
            LockManager::centralized(16, 2)
        } else {
            LockManager::partition_local(SocketId(0))
        };
        // The latest virtual time at which a key was released with write
        // intent, to check serialization below.
        let mut write_release: std::collections::BTreeMap<i64, u64> = std::collections::BTreeMap::new();
        for (i, requests) in txn_requests.iter().enumerate() {
            let mut txn = Txn::begin(TxnId(i as u64 + 1));
            // Every transaction starts at virtual time 0: conflicts with the
            // (virtual-time-overlapping) earlier transactions must be
            // resolved by waiting.
            let mut ctx = SimCtx::new(&topo, &cost, CoreId((i % 4) as u32), 0);
            let mut conflicting_floor = 0u64;
            for (key, write) in requests {
                let (table_mode, record_mode) = if *write {
                    (LockMode::IX, LockMode::X)
                } else {
                    (LockMode::IS, LockMode::S)
                };
                if *write {
                    if let Some(&t) = write_release.get(key) {
                        conflicting_floor = conflicting_floor.max(t);
                    }
                }
                lm.acquire(&mut ctx, &mut txn, LockId::Table(TableId(0)), table_mode);
                lm.acquire(&mut ctx, &mut txn, LockId::Record(TableId(0), Key::int(*key)), record_mode);
                lm.check_grant_invariants().map_err(TestCaseError::fail)?;
            }
            ctx.work(atrapos_numa::Component::XctExecution, 500);
            lm.release_all(&mut ctx, &mut txn);
            let release_time = ctx.now();
            prop_assert!(
                release_time >= conflicting_floor,
                "a writer must not finish before the conflicting writers it waited for"
            );
            for (key, write) in requests {
                if *write {
                    let e = write_release.entry(*key).or_insert(0);
                    *e = (*e).max(release_time);
                }
            }
            prop_assert!(txn.held_locks.is_empty());
            lm.check_grant_invariants().map_err(TestCaseError::fail)?;
        }
        for key in 0..20 {
            prop_assert!(lm.holders_of(&LockId::Record(TableId(0), Key::int(key))).is_empty());
        }
        prop_assert!(lm.holders_of(&LockId::Table(TableId(0))).is_empty());
        prop_assert_eq!(lm.acquisitions > 0, true);
    }

    // ------------------------------------------------------------------
    // Log manager
    // ------------------------------------------------------------------

    /// Both log-manager variants account every inserted record and its
    /// bytes, regardless of which core/socket wrote it, and the per-socket
    /// variant never pulls a log-buffer head across a socket boundary.
    #[test]
    fn log_managers_account_all_records(
        writes in prop::collection::vec((0u32..8, 32u64..512), 1..80),
        per_socket in any::<bool>(),
    ) {
        let topo = Topology::multisocket(4, 2);
        let cost = CostModel::westmere();
        let mut log = if per_socket {
            LogManager::per_socket(4)
        } else {
            LogManager::centralized()
        };
        let mut now = 0;
        let mut expected_bytes = 0u64;
        let mut remote_reservations = 0;
        for (i, (core, bytes)) in writes.iter().enumerate() {
            let mut ctx = SimCtx::new(&topo, &cost, CoreId(*core), now);
            log.insert(&mut ctx, TxnId(i as u64 + 1), LogRecordKind::Update, *bytes);
            expected_bytes += *bytes;
            now = ctx.now();
            remote_reservations += usize::from(ctx.tally().remote_bytes > 0);
        }
        prop_assert_eq!(log.total_records(), writes.len() as u64);
        prop_assert!(log.total_bytes() >= expected_bytes);
        if per_socket {
            prop_assert_eq!(remote_reservations, 0);
        }
    }

    // ------------------------------------------------------------------
    // Transaction list and state locks (NUMA-aware variants)
    // ------------------------------------------------------------------

    /// The per-socket transaction list keeps every add/remove socket-local
    /// and preserves the active set; the centralized list preserves the same
    /// active set but pays remote accesses.
    #[test]
    fn txn_list_variants_preserve_active_set(
        ops in prop::collection::vec((0u32..8, any::<bool>()), 1..100),
        per_socket in any::<bool>(),
    ) {
        let topo = Topology::multisocket(4, 2);
        let cost = CostModel::westmere();
        let mut list = if per_socket {
            TxnList::per_socket(4)
        } else {
            TxnList::centralized()
        };
        // Track which transactions are active, and from which core they were
        // added (removal must come from the same socket, as ATraPos
        // guarantees through thread binding).
        let mut active: Vec<(u64, u32)> = Vec::new();
        let mut next_id = 1u64;
        let mut now = 0;
        let mut remote_head_accesses = 0;
        for (core, add) in ops {
            let ctx = if add || active.is_empty() {
                let mut ctx = SimCtx::new(&topo, &cost, CoreId(core), now);
                list.add(&mut ctx, TxnId(next_id));
                active.push((next_id, core));
                next_id += 1;
                ctx
            } else {
                let (id, owner_core) = active.swap_remove(0);
                let mut ctx = SimCtx::new(&topo, &cost, CoreId(owner_core), now);
                list.remove(&mut ctx, TxnId(id));
                ctx
            };
            now = ctx.now();
            remote_head_accesses += usize::from(ctx.tally().remote_bytes > 0);
        }
        prop_assert_eq!(list.active_count(), active.len());
        if per_socket {
            // Adds and removes are socket-local in the NUMA-aware variant.
            prop_assert_eq!(remote_head_accesses, 0);
        }
    }

    /// Per-socket state read/write locks never touch remote cache lines on
    /// the read path, whatever the sequence of readers.
    #[test]
    fn per_socket_state_lock_read_path_is_local(readers in prop::collection::vec(0u32..16, 1..80)) {
        let topo = Topology::multisocket(8, 2);
        let cost = CostModel::westmere();
        let mut lock = StateRwLock::per_socket(8);
        let mut now = 0;
        for core in readers {
            let mut ctx = SimCtx::new(&topo, &cost, CoreId(core), now);
            lock.read_acquire(&mut ctx);
            lock.read_release(&mut ctx);
            now = ctx.now();
            prop_assert_eq!(ctx.tally().remote_bytes, 0, "reader on core {} went remote", core);
        }
    }
}
