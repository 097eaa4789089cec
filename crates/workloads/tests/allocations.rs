//! Heap allocations of an ascending load and of transaction generation,
//! pinned by a count.
//!
//! A counting global allocator — in this test binary only — counts every
//! allocation and reallocation the current thread makes while a count is
//! open.  A load copies each row into its leaf's block, so it allocates
//! only when a node is created or split: about twice per 33 rows (the
//! exact-size key column and row block a split leaves behind; a leaf of
//! all-integer rows keeps no end offsets), and never per row.
//! A generator refills the executor's reused `TransactionSpec`, so once
//! its buffers have grown it allocates little beyond what its actions own
//! (an insert's record, one block): an update carries its one cell inline.  The pins
//! are upper bounds: a change may lower a count (and then the pin), never
//! raise it.

use atrapos_engine::workload::populate_all;
use atrapos_engine::{TransactionSpec, Workload};
use atrapos_numa::{CoreId, SocketId};
use atrapos_storage::{Column, ColumnType, Database, Schema, Table, TableId};
use atrapos_workloads::{
    KeyDistribution, MultiSiteUpdate, ReadManyRows, ReadOneRow, Tatp, TatpConfig, Tpcc, TpccConfig,
    WorkloadSpec, Ycsb, YcsbConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// Rows each pinned load makes.
const ROWS: i64 = 100_000;

struct Counting;

thread_local! {
    /// Allocations this thread made since its count opened; `None` while
    /// no count is open.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Count one allocation if this thread has a count open.
fn tick() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a const-initialized thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.take()).expect("the count was open")
}

/// `Table::load_cells` of 100 k ascending five-integer rows under one-int
/// keys: the leaves and internal nodes, nothing per row.
#[test]
fn an_ascending_load_allocates_per_split_not_per_row() {
    const PIN: usize = 6_446;
    let schema = Schema::new(
        "usertable",
        (0..5)
            .map(|i| Column::new(format!("c{i}"), ColumnType::Int))
            .collect(),
        vec![0],
    );
    let mut table = Table::new(TableId(0), schema, SocketId(0));
    let count = allocations(|| {
        for i in 0..ROWS {
            table.load_cells(&[i, i, i, i, i]).unwrap();
        }
    });
    assert_eq!(table.len(), ROWS as usize);
    assert!(count <= PIN, "{count} allocations, pinned at most {PIN}");
}

/// The shipped YCSB spec's populate, scaled to 100 k rows, into the
/// single-partition table a shared-everything design loads.
#[test]
fn the_ycsb_spec_populate_allocates_per_split_not_per_row() {
    // The load's count plus creating the table.
    const PIN: usize = 6_467;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/ycsb_a.json");
    let mut spec = WorkloadSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    spec.tables[0].keys = ROWS;
    let workload = spec.compile().unwrap();
    let mut db = Database::new();
    let count = allocations(|| populate_all(&workload, &mut db));
    assert_eq!(db.table(TableId(0)).unwrap().len(), ROWS as usize);
    assert!(count <= PIN, "{count} allocations, pinned at most {PIN}");
}

/// Transactions each generator makes before its count opens, so every
/// reused buffer has reached its working size.
const WARM_UP: usize = 100;

/// The allocations `w` makes generating 1 000 transactions into one
/// reused spec after warm-up, from four clients.
fn generation_allocations(w: &mut dyn Workload) -> usize {
    let mut rng = SmallRng::seed_from_u64(9);
    let mut spec = TransactionSpec::empty();
    for i in 0..WARM_UP {
        w.next_transaction_into(&mut rng, CoreId((i % 4) as u32), &mut spec);
    }
    allocations(|| {
        for i in 0..1_000 {
            w.next_transaction_into(&mut rng, CoreId((i % 4) as u32), &mut spec);
        }
    })
}

#[test]
fn the_micro_generators_allocate_nothing_per_transaction() {
    let mut one = ReadOneRow::partitionable(10_000, 4, 1);
    let mut multi = MultiSiteUpdate::new(10_000, 4, 1, 50);
    let mut many = ReadManyRows::with_rows(10_000, 100);
    for (name, w) in [
        ("read-one-row", &mut one as &mut dyn Workload),
        ("multi-site-update", &mut multi),
        ("read-many-rows", &mut many),
    ] {
        assert_eq!(generation_allocations(w), 0, "{name}");
    }
}

/// The standard mixes allocate what their actions own: the record of an
/// insert, one block (TATP's call-forwarding insert, TPC-C's inserts).
/// A refill sets the phases a shorter transaction leaves unused aside,
/// action buffers and all, so no buffer is regrown: TATP's 18 are its
/// records.  An update carries its one cell inline, so YCSB-A, reads and
/// updates only, allocates nothing.
#[test]
fn the_standard_mixes_allocate_only_what_their_actions_own() {
    const TATP_PIN: usize = 18;
    const TPCC_PIN: usize = 5_791;
    let mut tatp = Tatp::new(TatpConfig::scaled(1_000));
    let mut tpcc = Tpcc::new(TpccConfig::scaled(2));
    let mut ycsb = Ycsb::new(YcsbConfig::workload_a(10_000)).unwrap();
    assert_eq!(generation_allocations(&mut ycsb), 0, "YCSB-A");
    for (name, w, pin) in [
        ("TATP", &mut tatp as &mut dyn Workload, TATP_PIN),
        ("TPC-C", &mut tpcc, TPCC_PIN),
    ] {
        let count = generation_allocations(w);
        assert!(
            count <= pin,
            "{name}: {count} allocations, pinned at most {pin}"
        );
    }
}

#[test]
fn a_zipfian_draw_allocates_nothing() {
    let mut sampler = KeyDistribution::Zipfian { theta: 0.99 }.sampler(0, 100_000);
    let mut rng = SmallRng::seed_from_u64(3);
    let count = allocations(|| {
        for _ in 0..10_000 {
            std::hint::black_box(sampler.sample(&mut rng));
        }
    });
    assert_eq!(count, 0);
}
