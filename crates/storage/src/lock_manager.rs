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

use crate::lock::{LockId, LockMode};
use crate::txn::{Txn, TxnId};
use atrapos_numa::{Component, ContendedLine, Cycles, SimCtx, SocketId, WaitMode};
use serde::{Deserialize, Serialize};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, deterministic multiply-xor hasher (FxHash-style) for the lock
/// tables.  Lock entries are probed four times per simulated action, and
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

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct LockEntry {
    holders: Vec<(TxnId, LockMode)>,
    /// Virtual time until which an exclusive holder occupies the lock.
    exclusive_until: Cycles,
    /// Virtual time until which shared holders occupy the lock.
    shared_until: Cycles,
    /// Total times a requester had to wait for a logical conflict.
    conflicts: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Bucket {
    latch: ContendedLine,
    entries: FxMap<LockId, LockEntry>,
}

/// A lock manager instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LockManager {
    buckets: Vec<Bucket>,
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
    /// The centralized (shared-everything) lock manager with `n_buckets`
    /// buckets whose latches are spread round-robin over `n_sockets`
    /// memory nodes.
    pub fn centralized(n_buckets: usize, n_sockets: usize) -> Self {
        assert!(n_buckets >= 1);
        let buckets = (0..n_buckets)
            .map(|i| Bucket {
                latch: ContendedLine::new(SocketId((i % n_sockets.max(1)) as u16)),
                entries: FxMap::default(),
            })
            .collect();
        Self {
            buckets,
            wait_mode: WaitMode::Spin,
            acquisitions: 0,
            logical_waits: 0,
        }
    }

    /// A partition-local lock table homed on `home`.
    pub fn partition_local(home: SocketId) -> Self {
        Self {
            buckets: vec![Bucket {
                latch: ContendedLine::new(home),
                entries: FxMap::default(),
            }],
            wait_mode: WaitMode::Stall,
            acquisitions: 0,
            logical_waits: 0,
        }
    }

    fn bucket_index(&self, id: &LockId) -> usize {
        // A partition-local table has one bucket: skip hashing to `x % 1`.
        if self.buckets.len() == 1 {
            return 0;
        }
        (id.bucket_hash() as usize) % self.buckets.len()
    }

    /// Acquire `id` in `mode` on behalf of `txn`.  Blocks (in virtual time)
    /// until conflicting holders have released.  Returns the cycles spent.
    pub fn acquire(
        &mut self,
        ctx: &mut SimCtx<'_>,
        txn: &mut Txn,
        id: LockId,
        mode: LockMode,
    ) -> Cycles {
        let before = ctx.now();
        if txn.holds(&id, mode) {
            // Lock-upgrade fast path: already held in a sufficient mode.
            ctx.work(Component::Locking, 10);
            return ctx.now() - before;
        }
        self.acquisitions += 1;
        let b = self.bucket_index(&id);
        let bucket = &mut self.buckets[b];
        // Latch the bucket (the physically contended part): a short critical
        // section on the bucket's latch word.
        ctx.critical_section(
            Component::Locking,
            &mut bucket.latch,
            self.wait_mode,
            LOCK_TABLE_WORK,
        );
        let entry = bucket.entries.entry(id).or_default();
        // Logical conflict: wait until the conflicting occupancy drains.
        // The latch is not held while waiting (a real lock manager enqueues
        // the request and blocks).
        let wait_until = match mode {
            LockMode::X | LockMode::IX => entry.exclusive_until.max(if mode == LockMode::X {
                entry.shared_until
            } else {
                0
            }),
            LockMode::S | LockMode::IS => entry.exclusive_until,
        };
        if wait_until > ctx.now() {
            entry.conflicts += 1;
            self.logical_waits += 1;
            ctx.wait_until(Component::Locking, wait_until, WaitMode::Stall);
        }
        entry.holders.push((txn.id, mode));
        txn.add_lock(id, mode);
        ctx.now() - before
    }

    /// Release every lock held by `txn` (strict two-phase locking at
    /// commit/abort).  Returns the cycles spent.
    ///
    /// The held-lock list is cleared in place (not taken), so a reused
    /// transaction descriptor keeps its capacity and the next
    /// transaction's lock bookkeeping is allocation-free.
    pub fn release_all(&mut self, ctx: &mut SimCtx<'_>, txn: &mut Txn) -> Cycles {
        let before = ctx.now();
        for (id, mode) in &txn.held_locks {
            let b = self.bucket_index(id);
            let bucket = &mut self.buckets[b];
            ctx.critical_section(
                Component::Locking,
                &mut bucket.latch,
                self.wait_mode,
                LOCK_RELEASE_WORK,
            );
            if let Some(entry) = bucket.entries.get_mut(id) {
                if let Some(pos) = entry
                    .holders
                    .iter()
                    .position(|(t, m)| *t == txn.id && *m == *mode)
                {
                    entry.holders.swap_remove(pos);
                }
                let now = ctx.now();
                if mode.is_exclusive() {
                    entry.exclusive_until = entry.exclusive_until.max(now);
                } else {
                    entry.shared_until = entry.shared_until.max(now);
                }
            }
        }
        txn.held_locks.clear();
        ctx.now() - before
    }

    /// Current holders of `id` (for tests and invariant checks).
    pub fn holders_of(&self, id: &LockId) -> Vec<(TxnId, LockMode)> {
        let b = self.bucket_index(id);
        self.buckets[b]
            .entries
            .get(id)
            .map(|e| e.holders.clone())
            .unwrap_or_default()
    }

    /// Check that no two current holders of any lock are incompatible
    /// (ignoring same-transaction grants).  Used by tests.
    pub fn check_grant_invariants(&self) -> Result<(), String> {
        for bucket in &self.buckets {
            for (id, entry) in &bucket.entries {
                for (i, (ta, ma)) in entry.holders.iter().enumerate() {
                    for (tb, mb) in entry.holders.iter().skip(i + 1) {
                        if ta != tb && !ma.compatible(*mb) {
                            return Err(format!(
                                "incompatible holders on {id:?}: {ta:?}:{ma:?} vs {tb:?}:{mb:?}"
                            ));
                        }
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
    use crate::record::Key;
    use crate::schema::TableId;
    use atrapos_numa::{CoreId, CostModel, Topology};

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
        lm.acquire(&mut ctx, &mut txn, id, LockMode::S);
        assert_eq!(lm.acquisitions, acq, "S under held X must not re-acquire");
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
}
