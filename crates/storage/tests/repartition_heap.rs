//! The heap a repartitioning holds while it runs, pinned by a count.
//!
//! A split or a merge streams rows from the old trees into the new: each
//! old leaf is dropped once its rows are copied, and each internal node
//! once its children are handed on.  So the live heap never holds two
//! copies of the partition that moves; a rebuild that kept the old trees
//! until the new ones were done would peak about twice as high.
//!
//! A counting global allocator — in this test binary only — tracks the
//! bytes the current thread holds live and the most it held.

use atrapos_storage::{BTree, Key, Record};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Rows of each of the two trees a merge joins and a split parts.
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

/// A tree of ascending five-integer rows under the keys `keys`.
fn five_ints(keys: std::ops::Range<i64>) -> BTree {
    let mut t = BTree::new();
    for i in keys {
        t.insert(Key::int(i), Record::ints(&[i, i, i, i, i]));
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

/// Merging two 100 k-row trees, then splitting the result in two, each
/// stays within 1/16 of the larger heap.
#[test]
fn a_merge_and_a_split_never_hold_two_copies_of_a_partition() {
    let base = live();
    let mut left = five_ints(0..ROWS);
    let right = five_ints(ROWS..2 * ROWS);
    let merge = rise(base, || left.merge_from(right));
    assert_eq!(left.len(), 2 * ROWS as usize);
    let mut parted = BTree::new();
    let split = rise(base, || parted = left.split_off(&Key::int(ROWS)));
    assert_eq!((left.len(), parted.len()), (ROWS as usize, ROWS as usize));
    for (action, over) in [("merge", merge), ("split", split)] {
        assert!(
            over <= MOST_OVER,
            "the {action} peaked {:.1} % above the larger heap",
            over * 100.0
        );
    }
}
