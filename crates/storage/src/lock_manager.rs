//! The logical lock manager: hierarchical two-phase locking with either a
//! centralized lock table or partition-local lock tables.
//!
//! The centralized variant models Shore-MT's global lock manager: a hash
//! table of buckets, each protected by a latch.  Table-level intention locks
//! all hash to the same entry, so its bucket latch is the classic
//! shared-everything hot spot — threads *spin* on it, which is why the
//! centralized design's IPC rises while its throughput collapses (paper
//! Figure 1).  The partition-local variant is what PLP and ATraPos use: each
//! partition worker owns a small lock table that only it touches, so
//! acquisitions are socket-local and uncontended.
//!
//! ## What an entry is
//!
//! Locks are granted in virtual time.  An entry is a lock's current holders
//! — stored inline for one or two, the most one `execute` ever puts on a
//! lock (one transaction, at most two modes) — plus two occupancy times:
//! until when an exclusive holder, and until when shared holders, occupied
//! the lock.  A request waits until the occupancy its mode conflicts with
//! has drained; a release raises the matching time to the release instant.
//! Table-intent entries sit in a dense slot per [`TableId`], record entries
//! in a slab whose slot a hash map finds by key.  Either way a request
//! latches the bucket that [`LockId::bucket_hash`] picks, so every table
//! lock of the centralized table keeps contending on its one fixed bucket.
//! A grant goes on the transaction's [`HeldLock`] list with its latch and
//! slot, so a release hashes and probes nothing: each lock is hashed and
//! looked up once, at its request.  A slot keeps its entry for as long as
//! the entry has holders, so the slot a held lock remembers stays valid.
//!
//! ## Why forgetting is exact
//!
//! Designs execute one transaction at a time, so a transaction processed
//! later can request a lock at an *earlier* virtual time than another one
//! already released it; the occupancy times are what make it wait.  An
//! entry therefore cannot go at release.  But every context carries a
//! low-water mark ([`SimCtx::low_water`]): no request still to come runs
//! before it.  An entry with no holders and both occupancy times at or
//! below the mark behaves exactly like an absent one — a request at any
//! `t ≥ mark` waits for neither, and after its release the entry holds
//! `max(old, now) = now` either way.  Dropping such entries changes no
//! charge, and bounds lock memory by the locks in flight instead of by the
//! keys ever touched.
//!
//! ## The sweep rule
//!
//! When the record map has grown to `max(8, 2 × its size after the last
//! sweep)` ([`SWEEP_FLOOR`] is 8), the next record request first drops
//! every forgettable entry against its context's mark and frees its slot
//! for the next new key.  Each sweep leaves at least as much room as it
//! found entries, so sweeping costs O(1) amortized per request.  The floor
//! is small because a table is usually one partition's: PLP and ATraPos
//! keep one per partition (80 to 360 in the benchmark's workloads), and a
//! transaction holds a few locks of each.  A context without a mark
//! ([`SimCtx::new`]) has 0 and forgets nothing that was ever occupied.

use crate::lock::{LockId, LockMode};
use crate::record::Key;
use crate::schema::TableId;
use crate::txn::{HeldLock, Txn, TxnId};
use atrapos_numa::{Component, ContendedLine, Cycles, SimCtx, SocketId, WaitMode};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, deterministic multiply-xor hasher (FxHash-style) for the record
/// lock map.  A record lock is looked up once per request, and
/// nothing observable depends on the map's iteration order, so trading
/// SipHash's DoS resistance for speed is free here.  (The *bucket* hash of
/// [`LockId::bucket_hash`] is unchanged — it feeds the simulation model.)
#[derive(Default)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher64>;

/// A hash map with the deterministic [`FxHasher64`]: the hasher is fixed
/// (not randomly seeded), so this type is exempt from the workspace-wide
/// `HashMap` ban — every instance hashes identically in every process.
#[allow(clippy::disallowed_types)]
type FxMap<K, V> = std::collections::HashMap<K, V, FxBuild>;

/// Instruction cost of a lock-table probe + queue manipulation.
const LOCK_TABLE_WORK: u64 = 120;
/// Instruction cost of releasing one lock.
const LOCK_RELEASE_WORK: u64 = 60;
/// Instruction cost of the upgrade fast path (no latch is taken).
const UPGRADE_CHECK_WORK: u64 = 10;
/// Record entries the map may hold before its first sweep.
pub const SWEEP_FLOOR: usize = 8;

/// One grant: a transaction holding a lock in a mode.
type Grant = (TxnId, LockMode);

/// The holders of one lock: up to two inline, more on the heap.  Only
/// concurrently open transactions (tests drive those) ever need the heap,
/// and an entry moves back inline once it is down to two.
#[derive(Debug, Clone)]
enum Holders {
    Inline { len: u8, slots: [Grant; 2] },
    Spilled(Vec<Grant>),
}

impl Default for Holders {
    fn default() -> Self {
        Holders::Inline {
            len: 0,
            slots: [(TxnId(0), LockMode::IS); 2],
        }
    }
}

impl Holders {
    #[inline]
    fn as_slice(&self) -> &[Grant] {
        match self {
            Holders::Inline { len, slots } => &slots[..usize::from(*len)],
            Holders::Spilled(grants) => grants,
        }
    }

    #[inline]
    fn push(&mut self, grant: Grant) {
        match self {
            Holders::Inline { len, slots } if usize::from(*len) < slots.len() => {
                slots[usize::from(*len)] = grant;
                *len += 1;
            }
            Holders::Inline { slots, .. } => {
                let mut grants = slots.to_vec();
                grants.push(grant);
                *self = Holders::Spilled(grants);
            }
            Holders::Spilled(grants) => grants.push(grant),
        }
    }

    /// Remove one copy of `grant`; false if it was not held.
    #[inline]
    fn remove(&mut self, grant: Grant) -> bool {
        let Some(pos) = self.as_slice().iter().position(|g| *g == grant) else {
            return false;
        };
        match self {
            Holders::Inline { len, slots } => {
                *len -= 1;
                slots.swap(pos, usize::from(*len));
            }
            Holders::Spilled(grants) => {
                grants.swap_remove(pos);
                if let [a, b] = grants[..] {
                    *self = Holders::Inline {
                        len: 2,
                        slots: [a, b],
                    };
                }
            }
        }
        true
    }
}

/// One lock: who holds it, and until when it was occupied.
#[derive(Debug, Clone, Default)]
struct LockEntry {
    /// Virtual time until which an exclusive holder occupies the lock.
    exclusive_until: Cycles,
    /// Virtual time until which shared holders occupy the lock.
    shared_until: Cycles,
    holders: Holders,
}

impl LockEntry {
    /// Whether `txn` already holds the lock in a mode that covers `mode`
    /// (the lock-upgrade fast path).
    #[inline]
    fn covers(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .as_slice()
            .iter()
            .any(|&(t, m)| t == txn && (m == mode || (m.is_exclusive() && !mode.is_exclusive())))
    }

    /// The virtual time a `mode` request waits until.
    #[inline]
    fn wait_until(&self, mode: LockMode) -> Cycles {
        match mode {
            LockMode::X => self.exclusive_until.max(self.shared_until),
            LockMode::IX | LockMode::S | LockMode::IS => self.exclusive_until,
        }
    }

    /// `grant` ends at virtual time `now`.  Returns whether the entry
    /// held it.
    #[inline]
    fn release(&mut self, grant: Grant, now: Cycles) -> bool {
        let held = self.holders.remove(grant);
        let until = if grant.1.is_exclusive() {
            &mut self.exclusive_until
        } else {
            &mut self.shared_until
        };
        *until = (*until).max(now);
        held
    }

    /// Whether the entry behaves like an absent one for every request at
    /// or after `mark`.
    fn forgettable(&self, mark: Cycles) -> bool {
        self.holders.as_slice().is_empty()
            && self.exclusive_until <= mark
            && self.shared_until <= mark
    }
}

/// A table's intent-lock entry and the bucket latch it contends on.
#[derive(Debug, Clone)]
struct TableSlot {
    latch: usize,
    entry: LockEntry,
}

/// The bucket latch `id` contends on, out of `n_latches`.
#[inline]
fn bucket_of(id: &LockId, n_latches: usize) -> usize {
    // A partition-local table has one bucket: skip hashing to `x % 1`.
    if n_latches == 1 {
        return 0;
    }
    (id.bucket_hash() as usize) % n_latches
}

/// The slot of `table`, creating the slots up to it on first use.
#[inline]
fn table_slot(tables: &mut Vec<TableSlot>, n_latches: usize, table: TableId) -> &mut TableSlot {
    while tables.len() <= table.index() {
        let id = LockId::Table(TableId(tables.len() as u32));
        tables.push(TableSlot {
            latch: bucket_of(&id, n_latches),
            entry: LockEntry::default(),
        });
    }
    &mut tables[table.index()]
}

/// Record entries: a slab of entries and the map from a key to its slot.
/// A slot stays put while its key is mapped, and a sweep unmaps only
/// entries without holders, so the slot a held lock remembers stays valid
/// until its release.
#[derive(Debug, Clone, Default)]
struct RecordEntries {
    /// The slot of every record entry that could still make a request wait.
    slots: FxMap<(TableId, Key), u32>,
    /// Entries by slot; an unmapped slot holds a default entry.
    slab: Vec<LockEntry>,
    /// Unmapped slots, reused before the slab grows.
    free: Vec<u32>,
}

impl RecordEntries {
    /// The slot of `key`'s entry, mapping a free or new one on first use.
    #[inline]
    fn slot(&mut self, key: (TableId, Key)) -> u32 {
        let RecordEntries { slots, slab, free } = self;
        *slots.entry(key).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                // Grows only when more entries are live than ever before.
                slab.push(LockEntry::default());
                (slab.len() - 1) as u32
            })
        })
    }

    /// Unmap every entry that can no longer make a request at or after
    /// `mark` wait, and free its slot.
    fn sweep(&mut self, mark: Cycles) {
        let RecordEntries { slots, slab, free } = self;
        slots.retain(|_, &mut slot| {
            let entry = &mut slab[slot as usize];
            if !entry.forgettable(mark) {
                return true;
            }
            *entry = LockEntry::default();
            free.push(slot);
            false
        });
    }
}

/// A lock manager instance.
#[derive(Debug, Clone)]
pub struct LockManager {
    /// Bucket latches: the centralized table's buckets, or the one latch
    /// of a partition-local table.
    latches: Vec<ContendedLine>,
    /// Table-intent entries, indexed by [`TableId`].
    tables: Vec<TableSlot>,
    /// Record entries that could still make a request wait.
    records: RecordEntries,
    /// Record-map size at which the next record request sweeps.
    sweep_at: usize,
    /// Waiting policy: the centralized manager spins (cache-friendly
    /// back-off loop on a locally cached latch word), partition-local
    /// managers never wait in practice.
    wait_mode: WaitMode,
    /// Total lock acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that waited for a logical conflict.
    pub logical_waits: u64,
}

impl LockManager {
    fn with_latches(latches: Vec<ContendedLine>, wait_mode: WaitMode) -> Self {
        Self {
            latches,
            tables: Vec::new(),
            records: RecordEntries::default(),
            sweep_at: SWEEP_FLOOR,
            wait_mode,
            acquisitions: 0,
            logical_waits: 0,
        }
    }

    /// The centralized (shared-everything) lock manager with `n_buckets`
    /// buckets whose latches are spread round-robin over `n_sockets`
    /// memory nodes.
    pub fn centralized(n_buckets: usize, n_sockets: usize) -> Self {
        assert!(n_buckets >= 1);
        let latches = (0..n_buckets)
            .map(|i| ContendedLine::new(SocketId((i % n_sockets.max(1)) as u16)))
            .collect();
        Self::with_latches(latches, WaitMode::Spin)
    }

    /// A partition-local lock table homed on `home`.
    pub fn partition_local(home: SocketId) -> Self {
        Self::with_latches(vec![ContendedLine::new(home)], WaitMode::Stall)
    }

    /// Acquire `id` in `mode` on behalf of `txn`.  Blocks (in virtual time)
    /// until conflicting holders have released.  Returns the cycles spent.
    ///
    /// The grant goes on `txn.held_locks` with its latch and slot, so
    /// [`release_all`](Self::release_all) finds it without a lookup.
    // Twice per simulated action: the table intent lock, then the record's.
    // lint: hot-path
    pub fn acquire(
        &mut self,
        ctx: &mut SimCtx<'_>,
        txn: &mut Txn,
        id: LockId,
        mode: LockMode,
    ) -> Cycles {
        debug_assert!(
            ctx.now() >= ctx.low_water(),
            "lock request at {} below the low-water mark {}",
            ctx.now(),
            ctx.low_water()
        );
        let before = ctx.now();
        let n_latches = self.latches.len();
        let (latch, slot) = match id {
            LockId::Table(table) => (
                table_slot(&mut self.tables, n_latches, table).latch,
                table.0,
            ),
            LockId::Record(table, key) => {
                if self.records.slots.len() >= self.sweep_at {
                    self.sweep(ctx.low_water());
                }
                (bucket_of(&id, n_latches), self.records.slot((table, key)))
            }
        };
        let entry = match id {
            LockId::Table(_) => &mut self.tables[slot as usize].entry,
            LockId::Record(..) => &mut self.records.slab[slot as usize],
        };
        if entry.covers(txn.id, mode) {
            ctx.work(Component::Locking, UPGRADE_CHECK_WORK);
            return ctx.now() - before;
        }
        self.acquisitions += 1;
        // Latch the bucket (the physically contended part): a short critical
        // section on the bucket's latch word.
        ctx.critical_section(
            Component::Locking,
            &mut self.latches[latch],
            self.wait_mode,
            LOCK_TABLE_WORK,
        );
        // Logical conflict: wait until the conflicting occupancy drains.
        // The latch is not held while waiting (a real lock manager enqueues
        // the request and blocks).
        let wait_until = entry.wait_until(mode);
        if wait_until > ctx.now() {
            self.logical_waits += 1;
            ctx.wait_until(Component::Locking, wait_until, WaitMode::Stall);
        }
        entry.holders.push((txn.id, mode));
        txn.held_locks.push(HeldLock {
            id,
            mode,
            latch: latch as u32,
            slot,
        });
        ctx.now() - before
    }

    /// Release every lock held by `txn` (strict two-phase locking at
    /// commit/abort).  Returns the cycles spent.
    ///
    /// Each grant goes straight to the latch and slot it was granted on.
    /// The held-lock list is cleared in place (not taken), so a reused
    /// transaction descriptor keeps its capacity and the next
    /// transaction's lock bookkeeping is allocation-free.
    // Once per transaction (per action on ATraPos and PLP).
    // lint: hot-path
    pub fn release_all(&mut self, ctx: &mut SimCtx<'_>, txn: &mut Txn) -> Cycles {
        let before = ctx.now();
        for held in &txn.held_locks {
            ctx.critical_section(
                Component::Locking,
                &mut self.latches[held.latch as usize],
                self.wait_mode,
                LOCK_RELEASE_WORK,
            );
            let entry = match held.id {
                LockId::Table(_) => &mut self.tables[held.slot as usize].entry,
                LockId::Record(..) => &mut self.records.slab[held.slot as usize],
            };
            let granted_here = entry.release((txn.id, held.mode), ctx.now());
            assert!(
                granted_here,
                "{:?} released on a lock manager that did not grant it",
                held.id
            );
        }
        txn.held_locks.clear();
        ctx.now() - before
    }

    /// Drop every record entry that can no longer make a request at or
    /// after `mark` wait, and set the size of the next sweep.
    #[cold]
    fn sweep(&mut self, mark: Cycles) {
        self.records.sweep(mark);
        self.sweep_at = SWEEP_FLOOR.max(2 * self.records.slots.len());
    }

    fn entry(&self, id: &LockId) -> Option<&LockEntry> {
        match *id {
            LockId::Table(table) => self.tables.get(table.index()).map(|slot| &slot.entry),
            LockId::Record(table, key) => {
                let slot = *self.records.slots.get(&(table, key))?;
                Some(&self.records.slab[slot as usize])
            }
        }
    }

    /// Whether `txn` holds `id` in a mode at least as strong as `mode` —
    /// the requests the upgrade fast path answers without a latch.
    pub fn holds(&self, txn: TxnId, id: &LockId, mode: LockMode) -> bool {
        self.entry(id).is_some_and(|e| e.covers(txn, mode))
    }

    /// Current holders of `id` (for tests and invariant checks).
    pub fn holders_of(&self, id: &LockId) -> Vec<(TxnId, LockMode)> {
        self.entry(id)
            .map(|e| e.holders.as_slice().to_vec())
            .unwrap_or_default()
    }

    /// Record-lock entries currently kept: the table's memory, which the
    /// sweep bounds by the locks in flight.
    pub fn record_entries(&self) -> usize {
        self.records.slots.len()
    }

    /// Heap bytes of the lock entries, counted by capacity: the record
    /// map, the slab, its free list and the table slots.  (Holder lists
    /// spilled to the heap, which only concurrently open transactions
    /// make, are not counted.)
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.records.slots.capacity() * size_of::<((TableId, Key), u32)>()
            + self.records.slab.capacity() * size_of::<LockEntry>()
            + self.records.free.capacity() * size_of::<u32>()
            + self.tables.capacity() * size_of::<TableSlot>()
    }

    /// Check that no two current holders of any lock are incompatible
    /// (ignoring same-transaction grants).  Used by tests.
    pub fn check_grant_invariants(&self) -> Result<(), String> {
        let tables = (0..).zip(&self.tables).map(|(i, slot)| {
            let id = LockId::Table(TableId(i));
            (id, &slot.entry)
        });
        let records = self.records.slots.iter().map(|(&(table, key), &slot)| {
            let entry = &self.records.slab[slot as usize];
            (LockId::Record(table, key), entry)
        });
        for (id, entry) in tables.chain(records) {
            let holders = entry.holders.as_slice();
            for (i, (ta, ma)) in holders.iter().enumerate() {
                for (tb, mb) in &holders[i + 1..] {
                    if ta != tb && !ma.compatible(*mb) {
                        return Err(format!(
                            "incompatible holders on {id:?}: {ta:?}:{ma:?} vs {tb:?}:{mb:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_numa::{CoreId, CostModel, Machine, Topology};

    fn env() -> (Topology, CostModel) {
        (Topology::multisocket(4, 2), CostModel::westmere())
    }

    #[test]
    fn shared_locks_do_not_conflict() {
        let (t, c) = env();
        let mut lm = LockManager::centralized(64, 4);
        let id = LockId::Record(TableId(0), Key::int(1));
        let mut t1 = Txn::begin(TxnId(1));
        let mut t2 = Txn::begin(TxnId(2));
        let mut ctx1 = SimCtx::new(&t, &c, CoreId(0), 0);
        lm.acquire(&mut ctx1, &mut t1, id, LockMode::S);
        let mut ctx2 = SimCtx::new(&t, &c, CoreId(2), 0);
        lm.acquire(&mut ctx2, &mut t2, id, LockMode::S);
        assert_eq!(lm.logical_waits, 0);
        assert_eq!(lm.holders_of(&id).len(), 2);
        lm.check_grant_invariants().unwrap();
    }

    #[test]
    fn exclusive_lock_blocks_later_requester_until_release() {
        let (t, c) = env();
        let mut lm = LockManager::centralized(64, 4);
        let id = LockId::Record(TableId(0), Key::int(9));
        // T1 takes X, works for a while, and releases.
        let mut t1 = Txn::begin(TxnId(1));
        let mut ctx1 = SimCtx::new(&t, &c, CoreId(0), 0);
        lm.acquire(&mut ctx1, &mut t1, id, LockMode::X);
        ctx1.work(Component::XctExecution, 50_000);
        lm.release_all(&mut ctx1, &mut t1);
        let release_time = ctx1.now();
        // T2 starts earlier but must wait (in virtual time) for the release.
        let mut t2 = Txn::begin(TxnId(2));
        let mut ctx2 = SimCtx::new(&t, &c, CoreId(2), 100);
        lm.acquire(&mut ctx2, &mut t2, id, LockMode::X);
        assert!(ctx2.now() >= release_time);
        assert_eq!(lm.logical_waits, 1);
    }

    #[test]
    fn upgrade_fast_path_skips_reacquisition() {
        let (t, c) = env();
        let mut lm = LockManager::centralized(64, 4);
        let id = LockId::Record(TableId(0), Key::int(3));
        let mut txn = Txn::begin(TxnId(1));
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        lm.acquire(&mut ctx, &mut txn, id, LockMode::X);
        let acq = lm.acquisitions;
        assert!(lm.holds(txn.id, &id, LockMode::S));
        assert!(!lm.holds(TxnId(2), &id, LockMode::S));
        let before = ctx.now();
        lm.acquire(&mut ctx, &mut txn, id, LockMode::S);
        assert_eq!(lm.acquisitions, acq, "S under held X must not re-acquire");
        assert_eq!(ctx.now() - before, c.work_cycles(UPGRADE_CHECK_WORK));
        assert_eq!(txn.held_locks.len(), 1);
        assert_eq!(
            (txn.held_locks[0].id, txn.held_locks[0].mode),
            (id, LockMode::X)
        );
    }

    #[test]
    fn release_all_clears_held_locks() {
        let (t, c) = env();
        let mut lm = LockManager::partition_local(SocketId(1));
        let mut txn = Txn::begin(TxnId(1));
        let mut ctx = SimCtx::new(&t, &c, CoreId(2), 0);
        lm.acquire(&mut ctx, &mut txn, LockId::Table(TableId(0)), LockMode::IX);
        lm.acquire(
            &mut ctx,
            &mut txn,
            LockId::Record(TableId(0), Key::int(5)),
            LockMode::X,
        );
        assert_eq!(txn.held_locks.len(), 2);
        lm.release_all(&mut ctx, &mut txn);
        assert!(txn.held_locks.is_empty());
        assert!(lm.holders_of(&LockId::Table(TableId(0))).is_empty());
        lm.check_grant_invariants().unwrap();
    }

    #[test]
    fn centralized_manager_spins_partition_local_is_cheap() {
        let (t, c) = env();
        let mut central = LockManager::centralized(64, 4);
        let mut local = LockManager::partition_local(SocketId(0));
        let id = LockId::Table(TableId(0));
        // Warm both from a remote socket so the next access pays a transfer
        // in the centralized case.
        let mut warm = Txn::begin(TxnId(1));
        let mut ctx = SimCtx::new(&t, &c, CoreId(6), 0);
        central.acquire(&mut ctx, &mut warm, id, LockMode::IS);
        let mut warm2 = Txn::begin(TxnId(2));
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        local.acquire(&mut ctx, &mut warm2, id, LockMode::IS);

        let mut txn = Txn::begin(TxnId(3));
        let mut ctx_c = SimCtx::new(&t, &c, CoreId(0), 1_000_000);
        central.acquire(&mut ctx_c, &mut txn, id, LockMode::IS);
        let central_cost = ctx_c.elapsed();

        let mut txn2 = Txn::begin(TxnId(4));
        let mut ctx_l = SimCtx::new(&t, &c, CoreId(0), 1_000_000);
        local.acquire(&mut ctx_l, &mut txn2, id, LockMode::IS);
        let local_cost = ctx_l.elapsed();
        assert!(central_cost > local_cost);
    }

    #[test]
    fn table_locks_latch_the_bucket_their_hash_picks() {
        let mut lm = LockManager::centralized(256, 4);
        let mut slots = Vec::new();
        for table in [TableId(3), TableId(0), TableId(7)] {
            let id = LockId::Table(table);
            let latch = table_slot(&mut slots, 256, table).latch;
            assert_eq!(latch, (id.bucket_hash() % 256) as usize, "{table}");
            assert_eq!(table_slot(&mut lm.tables, 256, table).latch, latch);
        }
        assert_eq!(lm.tables.len(), 8);
        assert!(LockManager::partition_local(SocketId(0)).tables.is_empty());
    }

    #[test]
    fn two_holders_stay_inline_and_more_spill_until_released() {
        let mut holders = Holders::default();
        let grant = |t: u64, m: LockMode| (TxnId(t), m);
        holders.push(grant(1, LockMode::S));
        holders.push(grant(1, LockMode::X));
        assert!(matches!(holders, Holders::Inline { len: 2, .. }));
        holders.push(grant(2, LockMode::S));
        assert!(matches!(&holders, Holders::Spilled(g) if g.len() == 3));
        holders.remove(grant(1, LockMode::S));
        assert!(matches!(holders, Holders::Inline { len: 2, .. }));
        holders.remove(grant(9, LockMode::S));
        holders.remove(grant(2, LockMode::S));
        assert_eq!(holders.as_slice(), [grant(1, LockMode::X)]);
    }

    /// A forgotten entry is recreated exactly as it would have been kept:
    /// a request at or after the mark waits for nothing either way.
    #[test]
    fn entries_below_the_mark_are_swept_without_changing_a_charge() {
        let (t, c) = env();
        let mut machine = Machine::new(t, c);
        let mut forgets = LockManager::partition_local(SocketId(0));
        let mut keeps = LockManager::partition_local(SocketId(0));
        let mut now = 0;
        for i in 0..300u64 {
            machine.set_low_water(now);
            let id = LockId::Record(TableId(0), Key::int((i % 100) as i64));
            let mut txn = Txn::begin(TxnId(i));
            let mut ctx = machine.ctx(CoreId(0), now);
            let charged = forgets.acquire(&mut ctx, &mut txn, id, LockMode::X)
                + forgets.release_all(&mut ctx, &mut txn);
            // The same request, from a context without a mark.
            let mut ctx = SimCtx::new(&machine.topology, &machine.cost, CoreId(0), now);
            let kept = keeps.acquire(&mut ctx, &mut txn, id, LockMode::X)
                + keeps.release_all(&mut ctx, &mut txn);
            assert_eq!(charged, kept, "txn {i}");
            now += charged;
        }
        assert_eq!(keeps.record_entries(), 100);
        assert!(forgets.record_entries() <= 2 * SWEEP_FLOOR);
        assert_eq!(forgets.acquisitions, keeps.acquisitions);
        assert_eq!(forgets.logical_waits, keeps.logical_waits);
    }

    /// One transaction takes `key` in X at `now` and commits at once.
    fn touch(lm: &mut LockManager, ctx: &mut SimCtx<'_>, txn: u64, key: i64) {
        let mut txn = Txn::begin(TxnId(txn));
        let id = LockId::Record(TableId(0), Key::int(key));
        lm.acquire(ctx, &mut txn, id, LockMode::X);
        lm.release_all(ctx, &mut txn);
    }

    /// A sweep between two acquisitions of one transaction frees the slots
    /// of more than the floor of forgettable entries and reuses one for the
    /// second grant; `release_all` still releases both grants on their own
    /// entries, raising exactly the occupancy each mode left.
    #[test]
    fn release_finds_its_grants_after_a_sweep_between_two_acquisitions() {
        let (t, c) = env();
        let mut machine = Machine::new(t, c);
        let mut lm = LockManager::partition_local(SocketId(0));
        // 15 committed keys at mark 0: the sweep at 8 keeps them all and
        // moves the next sweep to 16.
        let mut ctx = machine.ctx(CoreId(0), 0);
        for key in 0..15 {
            touch(&mut lm, &mut ctx, key as u64, key);
        }
        assert_eq!((lm.record_entries(), lm.sweep_at), (15, 16));
        let mark = ctx.now();
        machine.set_low_water(mark);

        let (held, read) = (
            LockId::Record(TableId(0), Key::int(100)),
            LockId::Record(TableId(0), Key::int(101)),
        );
        let mut txn = Txn::begin(TxnId(100));
        let mut ctx = machine.ctx(CoreId(0), mark);
        lm.acquire(&mut ctx, &mut txn, held, LockMode::X);
        assert_eq!(lm.record_entries(), 16);
        lm.acquire(&mut ctx, &mut txn, read, LockMode::S);
        // The 15 entries below the mark went; the held one kept its slot.
        assert_eq!(lm.record_entries(), 2);
        assert_eq!(lm.records.slab.len(), 16);
        let slots: Vec<u32> = txn.held_locks.iter().map(|h| h.slot).collect();
        assert_eq!(slots[0], 15);
        assert!(slots[1] < 15, "the second grant reuses a freed slot");

        ctx.work(Component::XctExecution, 10_000);
        lm.release_all(&mut ctx, &mut txn);
        let released = ctx.now();
        assert!(lm.holders_of(&held).is_empty() && lm.holders_of(&read).is_empty());
        let entry = |id| lm.entry(&id).expect("entry kept");
        assert!(entry(held).exclusive_until > mark && entry(held).exclusive_until <= released);
        assert_eq!(entry(held).shared_until, 0);
        assert!(entry(read).shared_until > entry(held).exclusive_until);
        assert_eq!(entry(read).exclusive_until, 0);
        lm.check_grant_invariants().unwrap();
    }

    /// A slot freed by a sweep goes to a new key while another transaction
    /// holds a lock: the two grants never share an entry.
    #[test]
    fn a_reused_slot_never_aliases_a_held_lock() {
        let (t, c) = env();
        let mut machine = Machine::new(t, c);
        let mut lm = LockManager::partition_local(SocketId(0));
        let holder_lock = LockId::Record(TableId(0), Key::int(50));
        let mut holder = Txn::begin(TxnId(50));
        let mut ctx = machine.ctx(CoreId(0), 0);
        lm.acquire(&mut ctx, &mut holder, holder_lock, LockMode::X);
        for key in 0..7 {
            touch(&mut lm, &mut ctx, key as u64, key);
        }
        let mark = ctx.now();
        machine.set_low_water(mark);
        // The eighth entry triggers a sweep that frees the seven.
        let new_lock = LockId::Record(TableId(0), Key::int(60));
        let mut newcomer = Txn::begin(TxnId(60));
        let mut ctx = machine.ctx(CoreId(0), mark);
        lm.acquire(&mut ctx, &mut newcomer, new_lock, LockMode::X);
        assert_eq!(lm.record_entries(), 2);
        assert_eq!(lm.records.slab.len(), 8, "the new key took a freed slot");
        assert_ne!(holder.held_locks[0].slot, newcomer.held_locks[0].slot);
        assert_eq!(lm.holders_of(&holder_lock), [(TxnId(50), LockMode::X)]);
        assert_eq!(lm.holders_of(&new_lock), [(TxnId(60), LockMode::X)]);
        lm.release_all(&mut ctx, &mut newcomer);
        assert_eq!(lm.holders_of(&holder_lock), [(TxnId(50), LockMode::X)]);
        lm.release_all(&mut ctx, &mut holder);
        assert!(lm.holders_of(&holder_lock).is_empty());
        lm.check_grant_invariants().unwrap();
    }

    /// Pins a known fault, and the fix flips it: IX counts as exclusive
    /// ([`LockMode::is_exclusive`]), so an IX release raises the table
    /// entry's exclusive occupancy and a later IS or IX request waits for
    /// it, although [`LockMode::compatible`] says intention modes never
    /// conflict.  Table locks are only taken in IS or IX, so every
    /// table-lock wait the simulator charges comes from this.  Once
    /// intention modes stop occupying the lock for each other, neither
    /// request below waits and this test must be inverted.
    #[test]
    fn intent_requests_wait_for_an_earlier_ix_release_until_the_fix_flips_it() {
        let (t, c) = env();
        let table = LockId::Table(TableId(0));
        for later in [LockMode::IS, LockMode::IX] {
            assert!(later.compatible(LockMode::IX));
            let mut lm = LockManager::partition_local(SocketId(0));
            let mut writer = Txn::begin(TxnId(1));
            let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
            lm.acquire(&mut ctx, &mut writer, table, LockMode::IX);
            ctx.work(Component::XctExecution, 50_000);
            lm.release_all(&mut ctx, &mut writer);
            let released = ctx.now();
            let mut reader = Txn::begin(TxnId(2));
            let mut ctx = SimCtx::new(&t, &c, CoreId(0), 100);
            lm.acquire(&mut ctx, &mut reader, table, later);
            assert_eq!(lm.logical_waits, 1, "{later:?} after IX");
            assert!(ctx.now() >= released, "{later:?} after IX");
        }
    }

    /// A grant remembers its slot in the table that made it; releasing it
    /// on another table panics instead of releasing whatever that table
    /// keeps in the same slot.
    #[test]
    #[should_panic(expected = "did not grant it")]
    fn releasing_on_a_table_that_did_not_grant_the_lock_panics() {
        let (t, c) = env();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let (mut granting, mut other) = (
            LockManager::partition_local(SocketId(0)),
            LockManager::partition_local(SocketId(0)),
        );
        let mut bystander = Txn::begin(TxnId(2));
        let id = LockId::Record(TableId(0), Key::int(7));
        other.acquire(&mut ctx, &mut bystander, id, LockMode::X);
        let mut txn = Txn::begin(TxnId(1));
        let id = LockId::Record(TableId(0), Key::int(5));
        granting.acquire(&mut ctx, &mut txn, id, LockMode::X);
        other.release_all(&mut ctx, &mut txn);
    }
}
