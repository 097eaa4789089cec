//! Heap allocations of an ascending load, pinned by a count.
//!
//! A counting global allocator — in this test binary only — counts every
//! allocation and reallocation the current thread makes while a count is
//! open.  A load copies each row into its leaf's block, so it allocates
//! only when a node is created or split: about three times per 33 rows
//! (the exact-size vectors a split leaves behind), and never per row.
//! The pins are upper bounds: a change may lower a count (and then the
//! pin), never raise it.

use atrapos_engine::workload::populate_all;
use atrapos_numa::SocketId;
use atrapos_storage::{Column, ColumnType, Database, Schema, Table, TableId};
use atrapos_workloads::WorkloadSpec;
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

/// `Table::load_ints` of 100 k ascending five-integer rows under one-int
/// keys: the leaves and internal nodes, nothing per row.
#[test]
fn an_ascending_load_allocates_per_split_not_per_row() {
    const PIN: usize = 9_570;
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
            table.load_ints(&[i, i, i, i, i]).unwrap();
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
    const PIN: usize = 9_591;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/ycsb_a.json");
    let mut spec = WorkloadSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    spec.tables[0].keys = ROWS;
    let workload = spec.compile().unwrap();
    let mut db = Database::new();
    let count = allocations(|| populate_all(&workload, &mut db));
    assert_eq!(db.table(TableId(0)).unwrap().len(), ROWS as usize);
    assert!(count <= PIN, "{count} allocations, pinned at most {PIN}");
}
