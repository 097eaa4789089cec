//! Tables: schema + a (possibly partitioned) primary index holding the
//! records.
//!
//! Every simulated access charges an index-probe cost proportional to the
//! tree height plus a memory access to the partition's NUMA node, so the
//! remote-memory experiments (paper §III-D, Table I) and the partition
//! placement decisions of ATraPos have a physical effect.
//!
//! A table stores each primary key once: every schema keys on its leading
//! integer columns, and a row goes into its leaf with those cells lent from
//! its key (`Row::lend_key`), so the leaf keeps them only in its key
//! column and hands them back on every read.  Key columns are therefore not
//! writable: a row is filed under its key.

use crate::error::{StorageError, StorageResult};
use crate::mrbtree::MrBTree;
use crate::record::{shape_of, with_row, AsCell, Key, Record, Row};
use crate::schema::{Schema, TableId};
use atrapos_numa::{Component, SimCtx, SocketId};

/// Instruction cost of descending one B+-tree level.
const PROBE_INSTRUCTIONS_PER_LEVEL: u64 = 55;
/// Fixed instruction cost of a tuple read/update once located.
const TUPLE_WORK_INSTRUCTIONS: u64 = 140;
/// Extra instruction cost of an insert/delete (leaf maintenance).
const STRUCTURE_CHANGE_INSTRUCTIONS: u64 = 220;

/// A table: schema plus the multi-rooted primary index.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table identifier.
    pub id: TableId,
    schema: Schema,
    /// The shape word of the schema's rows: a row conforms exactly when it
    /// has this shape.
    shape: u64,
    index: MrBTree,
}

impl Table {
    /// A single-partition table allocated on `memory_node`.
    pub fn new(id: TableId, schema: Schema, memory_node: SocketId) -> Self {
        Self::with_index(id, schema, MrBTree::new(memory_node))
    }

    /// A table over `index`.
    fn with_index(id: TableId, schema: Schema, index: MrBTree) -> Self {
        Self {
            id,
            shape: shape_of(&schema),
            schema,
            index,
        }
    }

    /// A range-partitioned table (see [`MrBTree::range_partitioned`]).
    pub fn range_partitioned(
        id: TableId,
        schema: Schema,
        boundaries: Vec<Key>,
        memory_nodes: Vec<SocketId>,
    ) -> Self {
        Self::with_index(
            id,
            schema,
            MrBTree::range_partitioned(boundaries, memory_nodes),
        )
    }

    /// Table schema, fixed at construction.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Table name (from the schema).
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Direct access to the underlying multi-rooted index (partitioning
    /// metadata, repartitioning).
    pub fn index(&self) -> &MrBTree {
        &self.index
    }

    /// Mutable access to the underlying index.
    pub fn index_mut(&mut self) -> &mut MrBTree {
        &mut self.index
    }

    /// Populate the table outside of simulation (initial load) with an
    /// owned record.  Returns an error on schema mismatch or duplicate key.
    pub fn load(&mut self, record: Record) -> StorageResult<()> {
        self.load_row(record.row())
    }

    /// [`Table::load`] of the row of `cells` — integers, [`Cell`]s or
    /// [`Value`]s — packed on the stack and copied straight into its leaf:
    /// no heap block per row.
    ///
    /// [`Cell`]: crate::Cell
    /// [`Value`]: crate::Value
    pub fn load_cells<C: AsCell>(&mut self, cells: &[C]) -> StorageResult<()> {
        with_row(cells, |row| self.load_row(row))
    }

    /// [`Table::load`] of a borrowed row.
    fn load_row(&mut self, row: Row<'_>) -> StorageResult<()> {
        self.check_schema(row)?;
        let key = row.key(&self.schema);
        let partition = self.index.partition_for(&key);
        self.insert_new(partition, key, row).map(drop)
    }

    /// A key-column error if `column` is one of the primary-key columns.
    #[inline]
    fn check_writable(&self, column: usize) -> StorageResult<()> {
        if column < self.schema.primary_key.len() {
            return Err(StorageError::KeyColumnWrite {
                table: self.id,
                column,
            });
        }
        Ok(())
    }

    /// A schema-mismatch error unless `row` conforms to the schema.
    fn check_schema(&self, row: Row<'_>) -> StorageResult<()> {
        if row.shape() == self.shape {
            return Ok(());
        }
        Err(StorageError::SchemaMismatch {
            table: self.id,
            expected: self.schema.arity(),
            got: row.arity(),
        })
    }

    /// Copy `row`, a whole row of the schema, in under its `key` to
    /// `partition`, leaving its key cells to the leaf's key column.  A key
    /// that is already there is an error and keeps the row it has.
    fn insert_new(&mut self, partition: usize, key: Key, row: Row<'_>) -> StorageResult<Key> {
        if self
            .index
            .insert_new_in(partition, key, row.lend_key(key.comps()))
        {
            Ok(key)
        } else {
            Err(StorageError::DuplicateKey {
                table: self.id,
                key,
            })
        }
    }

    /// Bulk-populate from an iterator of records (initial load).
    pub fn load_many(&mut self, records: impl IntoIterator<Item = Record>) -> StorageResult<usize> {
        let mut n = 0;
        for r in records {
            self.load(r)?;
            n += 1;
        }
        Ok(n)
    }

    fn charge_probe(&self, ctx: &mut SimCtx<'_>, partition: usize) {
        let p = self.index.partition(partition);
        let height = p.tree.height() as u64;
        ctx.work(
            Component::XctExecution,
            PROBE_INSTRUCTIONS_PER_LEVEL * height,
        );
        ctx.memory_read(
            Component::XctExecution,
            p.memory_node,
            self.schema.record_bytes,
        );
    }

    /// Read a record by primary key.  Returns a borrowed row — the hot
    /// path does not even look inside it; callers that need an owned copy
    /// take one with [`Row::to_record`].
    // One per simulated read action.
    // lint: hot-path
    pub fn read(&self, ctx: &mut SimCtx<'_>, key: &Key) -> StorageResult<Row<'_>> {
        let partition = self.index.partition_for(key);
        self.charge_probe(ctx, partition);
        ctx.work(Component::XctExecution, TUPLE_WORK_INSTRUCTIONS);
        self.index
            .get_in(partition, key)
            .ok_or(StorageError::KeyNotFound {
                table: self.id,
                // lint: allow(hot-path-alloc) — error path only, and Key stores up to four ints inline
                key: *key,
            })
    }

    /// Set integer column `column` of an existing record to `value`, in
    /// place.  A primary-key column is an error.
    // One per simulated update action.
    // lint: hot-path
    pub fn update(
        &mut self,
        ctx: &mut SimCtx<'_>,
        key: &Key,
        column: usize,
        value: i64,
    ) -> StorageResult<()> {
        self.write_int(ctx, key, column, |_| value)
    }

    /// Add `delta` to an integer column of an existing record, in place.  A
    /// primary-key column is an error.
    // One per simulated increment action.
    // lint: hot-path
    pub fn increment(
        &mut self,
        ctx: &mut SimCtx<'_>,
        key: &Key,
        column: usize,
        delta: i64,
    ) -> StorageResult<()> {
        self.write_int(ctx, key, column, |current| current + delta)
    }

    /// The body of [`Table::update`] and [`Table::increment`]: refuse a
    /// key column, locate the record with one index probe (charged as
    /// probe + tuple work for one column), and write `new(current)` over
    /// the integer in `column`.
    // lint: hot-path
    #[inline]
    fn write_int(
        &mut self,
        ctx: &mut SimCtx<'_>,
        key: &Key,
        column: usize,
        new: impl FnOnce(i64) -> i64,
    ) -> StorageResult<()> {
        self.check_writable(column)?;
        let partition = self.index.partition_for(key);
        self.charge_probe(ctx, partition);
        ctx.work(Component::XctExecution, TUPLE_WORK_INSTRUCTIONS + 30);
        let mut row = self
            .index
            .get_mut_in(partition, key)
            .ok_or(StorageError::KeyNotFound {
                table: self.id,
                // lint: allow(hot-path-alloc) — error path only, and Key stores up to four ints inline
                key: *key,
            })?;
        let current = row.int(column).expect("writes target an Int column");
        row.set(column, new(current));
        Ok(())
    }

    /// Insert a new row, copied from `row` straight into its leaf: the
    /// caller keeps what it lent (a spec's record).  Returns the row's
    /// key; a present key is an error and keeps the row it has.
    // One per simulated insert action.
    // lint: hot-path
    pub fn insert(&mut self, ctx: &mut SimCtx<'_>, row: Row<'_>) -> StorageResult<Key> {
        self.check_schema(row)?;
        let key = row.key(&self.schema);
        let partition = self.index.partition_for(&key);
        self.charge_probe(ctx, partition);
        ctx.work(
            Component::XctExecution,
            TUPLE_WORK_INSTRUCTIONS + STRUCTURE_CHANGE_INSTRUCTIONS,
        );
        self.insert_new(partition, key, row)
    }

    /// Delete a record by primary key.  The row is dropped where it lies:
    /// nothing is handed back, so a delete copies nothing out; a caller
    /// that wants the row reads it first ([`Table::peek`]).
    // One per simulated delete action.
    // lint: hot-path
    pub fn delete(&mut self, ctx: &mut SimCtx<'_>, key: &Key) -> StorageResult<()> {
        let partition = self.index.partition_for(key);
        self.charge_probe(ctx, partition);
        ctx.work(
            Component::XctExecution,
            TUPLE_WORK_INSTRUCTIONS + STRUCTURE_CHANGE_INSTRUCTIONS,
        );
        if self.index.remove_in(partition, key) {
            return Ok(());
        }
        Err(StorageError::KeyNotFound {
            table: self.id,
            // lint: allow(hot-path-alloc) — error path only, and Key stores up to four ints inline
            key: *key,
        })
    }

    /// Read up to `limit` records with keys in `[from, to)`.  Returns
    /// borrows for the same reason as [`Table::read`].  Host cost is
    /// O(height + rows returned): the index cursor seeks to `from` and
    /// stops after `limit` rows or at `to`.
    // Called once per `ReadRange` action (TPC-C OrderStatus / StockLevel).
    // lint: hot-path
    pub fn range_read(
        &self,
        ctx: &mut SimCtx<'_>,
        from: Option<&Key>,
        to: Option<&Key>,
        limit: usize,
    ) -> Vec<Row<'_>> {
        let rows: Vec<Row<'_>> = self
            .index
            .range_rows(from, to)
            .take(limit)
            // lint: allow(hot-path-alloc) — the rows handed back to the caller; the scan's one allocation
            .collect();
        // Charge a probe on the first relevant partition plus streaming cost
        // for the scanned rows.
        let start_partition = from.map(|k| self.index.partition_for(k)).unwrap_or(0);
        self.charge_probe(ctx, start_partition);
        let node = self.index.partition(start_partition).memory_node;
        ctx.memory_read(
            Component::XctExecution,
            node,
            self.schema.record_bytes * rows.len() as u64,
        );
        ctx.work(
            Component::XctExecution,
            TUPLE_WORK_INSTRUCTIONS / 4 * rows.len() as u64,
        );
        rows
    }

    /// Read a record without charging simulation costs (tests, loaders,
    /// consistency checks).
    pub fn peek(&self, key: &Key) -> Option<Row<'_>> {
        self.index.get(key)
    }

    /// Number of partitions of the primary index.
    pub fn num_partitions(&self) -> usize {
        self.index.num_partitions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::tests::shape_digest;
    use crate::record::{Cell, Value};
    use crate::schema::{Column, ColumnType};
    use atrapos_numa::{CoreId, CostModel, Topology};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(
            "accounts",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("balance", ColumnType::Int),
                Column::new("owner", ColumnType::Text),
            ],
            vec![0],
        )
    }

    fn rec(id: i64, balance: i64) -> Record {
        Record::new(vec![
            Value::Int(id),
            Value::Int(balance),
            Value::from(format!("owner-{id}")),
        ])
    }

    fn env() -> (Topology, CostModel) {
        (Topology::multisocket(4, 2), CostModel::westmere())
    }

    #[test]
    fn load_and_read_roundtrip() {
        let (t, c) = env();
        let mut table = Table::new(TableId(0), schema(), SocketId(0));
        table.load_many((0..100).map(|i| rec(i, 1000 + i))).unwrap();
        assert_eq!(table.len(), 100);
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let r = table.read(&mut ctx, &Key::int(42)).unwrap();
        assert_eq!(r.get(1).as_int(), 1042);
        assert!(ctx.elapsed() > 0);
        assert!(matches!(
            table.read(&mut ctx, &Key::int(500)),
            Err(StorageError::KeyNotFound { .. })
        ));
    }

    #[test]
    fn duplicate_load_is_rejected() {
        let mut table = Table::new(TableId(0), schema(), SocketId(0));
        table.load(rec(1, 10)).unwrap();
        assert!(matches!(
            table.load(rec(1, 20)),
            Err(StorageError::DuplicateKey { .. })
        ));
        // The rejected load left the row it collided with alone.
        assert_eq!(table.peek(&Key::int(1)).unwrap().get(1).as_int(), 10);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut table = Table::new(TableId(0), schema(), SocketId(0));
        let bad = Record::new(vec![Value::Int(1), Value::Int(2)]);
        assert!(matches!(
            table.load(bad),
            Err(StorageError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn update_changes_selected_columns() {
        let (t, c) = env();
        let mut table = Table::new(TableId(0), schema(), SocketId(0));
        table.load(rec(7, 700)).unwrap();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        table.update(&mut ctx, &Key::int(7), 1, 999).unwrap();
        assert_eq!(table.peek(&Key::int(7)).unwrap().get(1).as_int(), 999);
        assert_eq!(
            table.peek(&Key::int(7)).unwrap().get(2).as_text(),
            "owner-7"
        );
    }

    /// A row is filed under its key, so a write to a key column is refused
    /// with a typed error, and the row still reports the key it is filed
    /// under.
    #[test]
    fn key_columns_are_not_writable() {
        let (t, c) = env();
        let mut table = Table::new(TableId(4), schema(), SocketId(0));
        table.load(rec(7, 700)).unwrap();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let refused = StorageError::KeyColumnWrite {
            table: TableId(4),
            column: 0,
        };
        let key = Key::int(7);
        assert_eq!(table.update(&mut ctx, &key, 0, 8), Err(refused.clone()));
        assert_eq!(table.increment(&mut ctx, &key, 0, 1), Err(refused));
        let row = table.peek(&key).unwrap();
        assert_eq!(row.key(table.schema()), key);
        assert_eq!(row.to_record(), rec(7, 700));
        assert!(table.peek(&Key::int(8)).is_none());
    }

    #[test]
    fn insert_and_delete_in_simulation() {
        let (t, c) = env();
        let mut table = Table::new(TableId(0), schema(), SocketId(0));
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let key = table.insert(&mut ctx, rec(1, 100).row()).unwrap();
        assert_eq!(key, Key::int(1));
        // A rejected insert leaves the table untouched.
        assert!(matches!(
            table.insert(&mut ctx, rec(1, 999).row()),
            Err(StorageError::DuplicateKey { .. })
        ));
        assert_eq!(table.peek(&Key::int(1)).unwrap().get(1).as_int(), 100);
        assert_eq!(table.len(), 1);
        table.delete(&mut ctx, &Key::int(1)).unwrap();
        assert!(table.peek(&Key::int(1)).is_none());
        assert!(table.delete(&mut ctx, &Key::int(1)).is_err());
    }

    #[test]
    fn remote_partition_reads_cost_more_than_local() {
        let (t, c) = env();
        // Same data, one table on the local node, one on a remote node.
        let mut local = Table::new(TableId(0), schema(), SocketId(0));
        let mut remote = Table::new(TableId(1), schema(), SocketId(3));
        local.load(rec(1, 1)).unwrap();
        remote.load(rec(1, 1)).unwrap();
        let mut ctx_l = SimCtx::new(&t, &c, CoreId(0), 0);
        local.read(&mut ctx_l, &Key::int(1)).unwrap();
        let mut ctx_r = SimCtx::new(&t, &c, CoreId(0), 0);
        remote.read(&mut ctx_r, &Key::int(1)).unwrap();
        assert!(ctx_r.elapsed() > ctx_l.elapsed());
    }

    #[test]
    fn range_read_respects_limit_and_bounds() {
        let (t, c) = env();
        let mut table = Table::new(TableId(0), schema(), SocketId(0));
        table.load_many((0..50).map(|i| rec(i, i))).unwrap();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let rows = table.range_read(&mut ctx, Some(&Key::int(10)), Some(&Key::int(40)), 5);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].get(0).as_int(), 10);
    }

    /// The simulated charge of a scan is part of the model: one probe on
    /// the start partition plus per-row streaming, whatever the host-side
    /// cursor does.  The constants are the cycle counts the
    /// collect-then-truncate implementation produced for the same scans.
    #[test]
    fn range_read_simulated_cost_is_pinned() {
        let (t, c) = env();
        let boundaries: Vec<Key> = (1..4).map(|i| Key::int(i * 100)).collect();
        let nodes = (0..4).map(SocketId).collect();
        let mut table = Table::range_partitioned(TableId(0), schema(), boundaries, nodes);
        table.load_many((0..400).map(|i| rec(i, i))).unwrap();
        // Starts in partition 1 (remote), crosses into partition 2.
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let rows = table.range_read(&mut ctx, Some(&Key::int(190)), Some(&Key::int(260)), 20);
        let ids: Vec<i64> = rows.iter().map(|r| r.get(0).as_int()).collect();
        assert_eq!(ids, (190..210).collect::<Vec<_>>());
        assert_eq!(ctx.elapsed(), 2410);
        // Unbounded below: probes partition 0 (local), ends at `to`.
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        assert_eq!(
            table
                .range_read(&mut ctx, None, Some(&Key::int(5)), 20)
                .len(),
            5
        );
        assert_eq!(ctx.elapsed(), 835);
    }

    /// Scan complexity, pinned by a count: a 20-row scan descends into at
    /// most `height` nodes to find its start, plus at most three more to
    /// cross into the next leaf or the next partition — never a number
    /// that grows with the table.
    #[test]
    fn short_scans_visit_a_bounded_number_of_nodes() {
        use crate::btree::NODE_VISITS;
        const ROWS: i64 = 200_000;
        const PARTITIONS: i64 = 40;
        let (t, c) = env();
        let schema = Schema::new(
            "wide",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ],
            vec![0],
        );
        let per_partition = ROWS / PARTITIONS;
        let boundaries: Vec<Key> = (1..PARTITIONS)
            .map(|i| Key::int(i * per_partition))
            .collect();
        let nodes = vec![SocketId(0); PARTITIONS as usize];
        let mut table = Table::range_partitioned(TableId(0), schema, boundaries, nodes);
        table
            .load_many((0..ROWS).map(|i| Record::new(vec![Value::Int(i), Value::Int(i)])))
            .unwrap();
        let height = (0..table.num_partitions())
            .map(|p| table.index().partition(p).tree.height())
            .max()
            .unwrap();
        assert!(
            height >= 3,
            "the table must be deep enough to mean something"
        );
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        // A stride across the whole key space, plus every partition seam.
        let starts = (0..ROWS)
            .step_by(997)
            .chain((1..PARTITIONS).map(|i| i * per_partition - 10))
            .chain([ROWS - 20, ROWS - 5]);
        for from in starts {
            NODE_VISITS.with(|n| n.set(0));
            let rows = table.range_read(
                &mut ctx,
                Some(&Key::int(from)),
                Some(&Key::int(from + 20)),
                20,
            );
            assert_eq!(rows.len() as i64, (ROWS - from).min(20));
            let visits = NODE_VISITS.with(|n| n.get());
            assert!(
                visits <= height + 3,
                "scan from {from} visited {visits} nodes (height {height})"
            );
        }
    }

    /// Point-probe cost, pinned by a count: a column of single-int keys is
    /// searched over its integers, so a probe never compares whole keys; a
    /// column of two-int keys is searched by halving with no early exit,
    /// so a probe compares whole keys at most `⌈log₂ 64⌉ + 1 = 7` times
    /// per level.
    #[test]
    fn point_probes_compare_whole_keys_at_most_seven_times_per_level() {
        use crate::btree::FULL_COMPARES;
        const ROWS: i64 = 200_000;
        let (t, c) = env();
        for width in [1, 2] {
            let schema = Schema::new(
                "narrow",
                vec![
                    Column::new("a", ColumnType::Int),
                    Column::new("b", ColumnType::Int),
                ],
                (0..width).collect(),
            );
            // Present (even) and absent (odd) keys across the whole key
            // space; two-int keys split it into `(i / 1000, i % 1000)`.
            let key = |i: i64| match width {
                1 => Key::int(i),
                _ => Key::ints(&[i / 1_000, i % 1_000]),
            };
            let mut table = Table::new(TableId(0), schema, SocketId(0));
            table
                .load_many((0..ROWS).map(|i| {
                    let k = key(2 * i);
                    let b = if width == 1 { i } else { k.comps()[1] };
                    Record::ints(&[k.head_int(), b])
                }))
                .unwrap();
            let height = table.index().partition(0).tree.height();
            assert!(
                height >= 3,
                "the table must be deep enough to mean something"
            );
            let most = if width == 1 { 0 } else { 7 * height };
            let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
            for i in (0..2 * ROWS).step_by(997) {
                FULL_COMPARES.with(|n| n.set(0));
                assert_eq!(table.read(&mut ctx, &key(i)).is_ok(), i % 2 == 0);
                let compares = FULL_COMPARES.with(|n| n.get());
                assert!(
                    compares <= most,
                    "width {width}: probe for {i} made {compares} full compares (height {height})"
                );
            }
        }
    }

    /// Memory, pinned by a count: a table of four-int keys and all-int
    /// rows (TPC-C's order lines) stores per row its key at table width,
    /// the row's other cells and at most 8 bytes of node structs and spare
    /// slots — the key once, and no end offset.
    #[test]
    fn four_int_keys_cost_their_width_per_row() {
        let schema = Schema::new(
            "order_line",
            (0..6)
                .map(|i| Column::new(format!("c{i}"), ColumnType::Int))
                .collect(),
            vec![0, 1, 2, 3],
        );
        let mut table = Table::new(TableId(0), schema, SocketId(0));
        let mut rows = 0;
        for w in 1..=2 {
            for d in 1..=10 {
                for o in 1..=300 {
                    for ol in 1..=(5 + o % 11) {
                        table.load_cells(&[w, d, o, ol, o * ol, 7]).unwrap();
                        rows += 1;
                    }
                }
            }
        }
        let per_row = table.index().partition(0).tree.heap_bytes() as f64 / rows as f64;
        let bound = (8 * 4 + (6 - 4) * 8 + 8) as f64;
        assert!(per_row <= bound, "{per_row:.2} B per row (bound {bound})");
    }

    /// Memory, pinned by a count: 200 k ascending five-integer rows under
    /// one-integer keys cost a table at most 46 heap bytes each — 8 of
    /// key, 32 of the four other cells, and the node structs their parents
    /// hold, with no end offset — where a row that kept its key cell too
    /// cost 56.
    #[test]
    fn five_int_rows_store_their_key_once() {
        const ROWS: i64 = 200_000;
        let schema = Schema::new(
            "usertable",
            (0..5)
                .map(|i| Column::new(format!("f{i}"), ColumnType::Int))
                .collect(),
            vec![0],
        );
        let mut table = Table::new(TableId(0), schema, SocketId(0));
        for i in 0..ROWS {
            table.load_cells(&[i, i, i, i, i]).unwrap();
        }
        let per_row = table.index().partition(0).tree.heap_bytes() as f64 / ROWS as f64;
        assert!(per_row <= 46.0, "{per_row:.2} B per row");
    }

    proptest! {
        /// A table loaded through borrowed cells equals one loaded through
        /// records: the same outcome for every load, duplicates included,
        /// then the same rows in trees of the same shape and heap size —
        /// rows whose text pushes them past the packer's stack buffer too.
        #[test]
        fn loading_cells_equals_loading_records(
            rows in prop::collection::vec((0i64..500, any::<i64>(), 0usize..160), 1..300),
        ) {
            let mut by_record = Table::new(TableId(0), schema(), SocketId(0));
            let mut by_cells = by_record.clone();
            for (id, balance, len) in rows {
                let owner: String = "oö".chars().cycle().take(len).collect();
                let a = by_record.load(Record::new(vec![
                    Value::Int(id),
                    Value::Int(balance),
                    Value::Text(owner.clone()),
                ]));
                let b = by_cells.load_cells(&[Cell::Int(id), Cell::Int(balance), Cell::Text(&owner)]);
                prop_assert_eq!(a, b);
            }
            let (a, b) = (&by_record.index().partition(0).tree, &by_cells.index().partition(0).tree);
            prop_assert_eq!(shape_digest(a), shape_digest(b));
            prop_assert_eq!(a.heap_bytes(), b.heap_bytes());
        }
    }

    #[test]
    fn partitioned_table_routes_by_key() {
        let boundaries = vec![Key::int(50)];
        let table = Table::range_partitioned(
            TableId(0),
            schema(),
            boundaries,
            vec![SocketId(0), SocketId(1)],
        );
        assert_eq!(table.num_partitions(), 2);
        assert_eq!(table.index().partition_for(&Key::int(10)), 0);
        assert_eq!(table.index().partition_for(&Key::int(60)), 1);
    }
}
