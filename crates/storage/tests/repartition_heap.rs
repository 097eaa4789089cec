//! The heap a repartitioning holds while it runs, pinned by a count.
//!
//! A re-cut of a table's partitions — a split, a merge, or a whole plan —
//! streams rows from the old trees into the new: each old leaf is dropped
//! once its rows are copied, and each internal node once its children are
//! handed on.  So the live heap never holds two copies of the rows that
//! move; a rebuild that kept the old trees until the new ones were done
//! would peak about twice as high.
//!
//! A counting global allocator — in this test binary only — tracks the
//! bytes the current thread holds live and the most it held.

use atrapos_numa::SocketId;
use atrapos_storage::{Key, MrBTree, Record};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Rows of each of the two partitions a merge joins and a split parts.
const ROWS: i64 = 100_000;

/// How far the live heap may rise above the larger of the heaps before
/// and after a repartitioning, as a share of that heap.
const MOST_OVER: f64 = 1.0 / 16.0;

struct Counting;

thread_local! {
    /// Heap bytes this thread allocated and has not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` reached since the last `reset_peak`.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Count `by` more live bytes on this thread.
fn grow(by: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialized thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// A table of two partitions, cut at `ROWS`, of ascending five-integer
/// rows under the keys `0..2 * ROWS`.
fn five_ints() -> MrBTree {
    let mut t = MrBTree::range_partitioned(vec![Key::int(ROWS)], vec![SocketId(0); 2]);
    for i in 0..2 * ROWS {
        let key = Key::int(i);
        let row = Record::ints(&[i, i, i, i, i]);
        assert!(t.insert_new_in(t.partition_for(&key), key, row.row()));
    }
    t
}

/// How far the live heap rose above the larger of the heaps before and
/// after `f`, as a share of that heap; heaps count from `base`.
fn rise(base: isize, f: impl FnOnce()) -> f64 {
    let before = live() - base;
    PEAK.with(|peak| peak.set(live()));
    f();
    let after = live() - base;
    let larger = before.max(after);
    (PEAK.with(Cell::get) - base - larger) as f64 / larger as f64
}

/// Merging two 100 k-row partitions, splitting the result in two again,
/// and re-cutting four partitions to three at shifted bounds, each stays
/// within 1/16 of the larger heap.
#[test]
fn a_merge_and_a_split_never_hold_two_copies_of_a_partition() {
    let base = live();
    let mut t = five_ints();
    let merge = rise(base, || assert_eq!(t.merge_with_next(0), Ok(ROWS as usize)));
    assert_eq!(t.partition(0).tree.len(), 2 * ROWS as usize);
    let split = rise(base, || {
        assert_eq!(
            t.split_partition(0, Key::int(ROWS), SocketId(0)),
            Ok(ROWS as usize)
        );
    });
    assert_eq!(t.partition(1).tree.len(), ROWS as usize);
    let quarter = ROWS / 2;
    t.split_partition(0, Key::int(quarter), SocketId(0))
        .unwrap();
    t.split_partition(2, Key::int(ROWS + quarter), SocketId(0))
        .unwrap();
    let shifted = vec![quarter + 1_000, ROWS + 1_000];
    let recut = rise(base, || {
        t.recut(shifted, vec![SocketId(0); 3]).unwrap();
    });
    assert_eq!(t.len(), 2 * ROWS as usize);
    for (action, over) in [("merge", merge), ("split", split), ("re-cut", recut)] {
        assert!(
            over <= MOST_OVER,
            "the {action} peaked {:.1} % above the larger heap",
            over * 100.0
        );
    }
}
