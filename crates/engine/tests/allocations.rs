//! Heap allocations of building each design over TATP and of executing
//! transactions on it, pinned by a count.
//!
//! A counting global allocator — in this test binary only — counts every
//! allocation and reallocation the current thread makes while a count is
//! open.  A design build loads every row through a borrowed row packed on
//! the stack, text cells included, so it allocates per node, not per row.
//! Execution inserts borrowed rows and deletes without copying the row
//! out, so it allocates only where a tree grows or a scan hands its rows
//! back.  Transactions are generated before a count opens: only execution
//! is counted.  The pins are upper bounds: a change may lower a count (and
//! then the pin), never raise it.

use atrapos_engine::{DesignSpec, SystemDesign, TransactionSpec, Workload};
use atrapos_numa::{CoreId, CostModel, Cycles, Machine, SocketId, Topology};
use atrapos_workloads::{Tatp, TatpConfig, TatpTxn, Tpcc, TpccConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// The allocations `f` makes on this thread, and what it returns.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (COUNT.with(|c| c.take()).expect("the count was open"), out)
}

/// The four designs of the paper's comparison.
fn designs() -> [DesignSpec; 4] {
    [
        DesignSpec::Centralized,
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::Plp,
        DesignSpec::atrapos(),
    ]
}

/// The 4 × 2-core machine every count runs on.
fn machine() -> Machine {
    Machine::new(Topology::multisocket(4, 2), CostModel::westmere())
}

/// `n` transactions of `w`, generated before any count opens; the client
/// of transaction `i` is `clients[i % clients.len()]`.
fn generate(w: &mut dyn Workload, n: usize, clients: &[CoreId]) -> Vec<TransactionSpec> {
    let mut rng = SmallRng::seed_from_u64(11);
    (0..n)
        .map(|i| w.next_transaction(&mut rng, clients[i % clients.len()]))
        .collect()
}

/// Execute `specs` back to back on `design`, the client of spec `i` being
/// `clients[i % clients.len()]`, from virtual time `now`; returns the
/// time the last one finished.
fn execute(
    design: &mut dyn SystemDesign,
    m: &mut Machine,
    specs: &[TransactionSpec],
    clients: &[CoreId],
    mut now: Cycles,
) -> Cycles {
    for (i, spec) in specs.iter().enumerate() {
        now = design.execute(m, spec, clients[i % clients.len()], now).end;
    }
    now
}

/// Every core of the machine.
fn all_cores() -> Vec<CoreId> {
    (0..8).map(CoreId).collect()
}

/// Building TATP at 40 000 subscribers (240 000 rows) on each design
/// allocates per node, not per row: at most one block per 8 rows loaded
/// (about 0.08 per row, where a text row built as a record cost 1.24).
#[test]
fn a_tatp_build_allocates_per_node_not_per_row() {
    let m = machine();
    let w = Tatp::new(TatpConfig::scaled(40_000));
    let rows: u64 = w.tables().iter().map(|t| t.rows).sum();
    assert_eq!(rows, 240_000);
    for spec in designs() {
        let (count, design) = allocations(|| spec.build(&m, &w));
        drop(design);
        assert!(
            count as u64 * 8 <= rows,
            "{}: {count} allocations for {rows} rows, pinned at most one per 8",
            spec.label()
        );
    }
}

/// Executing 1 000 TPC-C transactions of the standard mix after a
/// warm-up, on each design: no insert copies its record and no delete
/// copies the row out, so what is left is tree growth and the rows each
/// range read hands back.  Coarse shared-nothing runs its distributed
/// transactions on each instance's reused branch descriptor, so it
/// allocates no more than the shared-everything designs.
#[test]
fn tpcc_execution_allocates_within_its_pins() {
    // Centralized, coarse shared-nothing, PLP, ATraPos.
    const PINS: [usize; 4] = [999, 994, 1_009, 1_009];
    let cores = all_cores();
    for (spec, pin) in designs().into_iter().zip(PINS) {
        let mut m = machine();
        let mut w = Tpcc::new(TpccConfig::scaled(2));
        let mut design = spec.build(&m, &w);
        let warm_up = generate(&mut w, 500, &cores);
        let now = execute(design.as_mut(), &mut m, &warm_up, &cores, 0);
        let specs = generate(&mut w, 1_000, &cores);
        let (count, _) = allocations(|| execute(design.as_mut(), &mut m, &specs, &cores, now));
        assert!(
            count <= pin,
            "{}: {count} allocations per 1 000 transactions, pinned at most {pin}",
            spec.label()
        );
    }
}

/// ATraPos reroutes the actions a failed socket's cores own to the first
/// active socket until the controller re-plans: with socket 3 failed and
/// no interval run, 15 000 TATP GetSubscriberData transactions allocate
/// no more than with every socket up.
#[test]
fn rerouting_around_a_failed_socket_allocates_nothing_extra() {
    // Clients on sockets 0–2, up in both runs.
    let clients: Vec<CoreId> = (0..6).map(CoreId).collect();
    let mut w = Tatp::new(TatpConfig::scaled(4_000));
    w.set_single(TatpTxn::GetSubscriberData);
    let warm_up = generate(&mut w, 5_000, &clients);
    let specs = generate(&mut w, 15_000, &clients);
    let counts = [false, true].map(|fail| {
        let mut m = machine();
        let mut design = DesignSpec::atrapos().build(&m, &w);
        let now = execute(design.as_mut(), &mut m, &warm_up, &clients, 0);
        if fail {
            m.topology.fail_socket(SocketId(3)).unwrap();
            design.on_topology_change(&m);
        }
        allocations(|| execute(design.as_mut(), &mut m, &specs, &clients, now)).0
    });
    let [up, failed] = counts;
    assert!(
        failed <= up,
        "{failed} allocations with socket 3 failed, {up} with every socket up"
    );
}
