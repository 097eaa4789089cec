//! Calibrated cycle costs for the primitive operations of a multisocket
//! machine.
//!
//! All costs are expressed in core cycles.  The defaults
//! ([`CostModel::westmere`]) are calibrated to publicly reported numbers for
//! Intel Westmere-EX class machines (the paper's platform): a socket-local
//! LLC/cache-to-cache transfer costs a few tens of cycles, while a
//! cache-line transfer from a remote socket costs several hundred cycles and
//! grows with the hop distance.  The exact magnitudes are not important for
//! the reproduction; what matters is the *ratio* between local and remote
//! operations, which is what makes centralized data structures collapse on
//! multisockets (paper §III-B).

use crate::clock::{ceil_u64, round_u64, Cycles};

/// Cycle costs of primitive machine operations.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Instructions retired per cycle while executing useful transaction
    /// logic.  OLTP barely exceeds 1 IPC (paper §III-B, ref. \[25\]).
    pub base_ipc: f64,
    /// Instructions retired per cycle while spin-waiting on a lock whose
    /// cache line is locally cached.  Spinning retires instructions quickly,
    /// which is why the centralized design shows *higher* IPC while its
    /// throughput drops (paper Figure 1).
    pub spin_ipc: f64,
    /// L1 hit latency.
    pub l1_hit: Cycles,
    /// Socket-local LLC hit / cache-to-cache transfer within one socket.
    pub llc_local: Cycles,
    /// Base cost of fetching a cache line from another socket's cache.
    pub remote_cache_base: Cycles,
    /// Additional cost per interconnect hop for a remote cache fetch.
    pub remote_cache_per_hop: Cycles,
    /// Local-node DRAM access.
    pub mem_local: Cycles,
    /// Additional DRAM access cost per hop when the memory node is remote.
    pub mem_remote_per_hop: Cycles,
    /// Uncontended, socket-local atomic read-modify-write (CAS) on a line
    /// already in the local cache.
    pub atomic_local: Cycles,
    /// Size of a cache line in bytes (interconnect traffic accounting).
    pub cache_line_bytes: u64,
    /// Fixed cost of a shared-memory message between two threads on
    /// different sockets (used at synchronization points and for the
    /// distributed-transaction communication of shared-nothing designs).
    pub msg_base: Cycles,
    /// Per-byte, per-hop cost of moving message payload across sockets.
    pub msg_per_byte_per_hop: f64,
    /// Per-byte cost of moving message payload within one socket.
    pub msg_local_per_byte: f64,
}

impl CostModel {
    /// Costs calibrated to the paper's 8-socket Westmere-EX platform.
    pub fn westmere() -> Self {
        Self {
            base_ipc: 1.0,
            spin_ipc: 2.2,
            l1_hit: 4,
            llc_local: 45,
            remote_cache_base: 180,
            remote_cache_per_hop: 130,
            mem_local: 200,
            mem_remote_per_hop: 120,
            atomic_local: 24,
            cache_line_bytes: 64,
            msg_base: 600,
            msg_per_byte_per_hop: 0.6,
            msg_local_per_byte: 0.12,
        }
    }

    /// A cost model in which remote accesses cost the same as local ones:
    /// useful for ablations ("what if the hardware were uniform?").
    pub fn uniform() -> Self {
        let w = Self::westmere();
        Self {
            remote_cache_base: w.llc_local,
            remote_cache_per_hop: 0,
            mem_remote_per_hop: 0,
            msg_per_byte_per_hop: w.msg_local_per_byte,
            ..w
        }
    }

    /// Cost of bringing a cache line currently owned `hops` sockets away
    /// into the local cache (0 hops = already on this socket).
    #[inline]
    pub fn cache_transfer(&self, hops: u32) -> Cycles {
        if hops == 0 {
            self.llc_local
        } else {
            self.remote_cache_base + Cycles::from(hops) * self.remote_cache_per_hop
        }
    }

    /// Cost of a DRAM access to a memory node `hops` sockets away.
    #[inline]
    pub fn memory_access(&self, hops: u32) -> Cycles {
        self.mem_local + Cycles::from(hops) * self.mem_remote_per_hop
    }

    /// Cost of exchanging a `bytes`-sized message between threads whose
    /// sockets are `hops` apart (0 = same socket).
    // lint: hot-path
    #[inline]
    pub fn message(&self, hops: u32, bytes: u64) -> Cycles {
        if hops == 0 {
            round_u64(bytes as f64 * self.msg_local_per_byte)
        } else {
            self.msg_base + round_u64(bytes as f64 * self.msg_per_byte_per_hop * f64::from(hops))
        }
    }

    /// Cycles needed to execute `instructions` instructions of useful work:
    /// `⌈instructions / base_ipc⌉`.
    ///
    /// At IPC 1 — every shipped model's — that is the count itself while
    /// it is at most 2⁵³: such a count converts to `f64` exactly, dividing
    /// by 1 is exact, and so is the ceiling of an integer.  That case
    /// returns the count with no float work.  Any other IPC (a custom or
    /// calibrated model), or a larger count, takes the float division.
    // lint: hot-path
    #[inline]
    pub fn work_cycles(&self, instructions: u64) -> Cycles {
        if self.base_ipc == 1.0 && instructions <= 1 << f64::MANTISSA_DIGITS {
            return instructions;
        }
        ceil_u64(instructions as f64 / self.base_ipc)
    }

    /// Instructions retired while spin-waiting for `cycles` cycles.
    // lint: hot-path
    #[inline]
    pub fn spin_instructions(&self, cycles: Cycles) -> u64 {
        round_u64(cycles as f64 * self.spin_ipc)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::westmere()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_transfers_are_much_more_expensive_than_local() {
        let c = CostModel::westmere();
        assert!(c.cache_transfer(1) > 4 * c.cache_transfer(0));
        assert!(c.cache_transfer(2) > c.cache_transfer(1));
    }

    #[test]
    fn remote_memory_penalty_is_moderate() {
        // Paper §III-D: accessing remote memory costs < 10% in end-to-end
        // throughput; the raw latency penalty is well under 2x.
        let c = CostModel::westmere();
        let local = c.memory_access(0) as f64;
        let remote = c.memory_access(2) as f64;
        assert!(remote / local < 2.5, "remote/local = {}", remote / local);
        assert!(remote > local);
    }

    #[test]
    fn uniform_model_has_no_remote_penalty() {
        let c = CostModel::uniform();
        assert_eq!(c.cache_transfer(0), c.cache_transfer(2));
        assert_eq!(c.memory_access(0), c.memory_access(3));
    }

    #[test]
    fn message_cost_grows_with_bytes_and_distance() {
        let c = CostModel::westmere();
        assert!(c.message(1, 64) > c.message(0, 64));
        assert!(c.message(2, 1024) > c.message(2, 64));
        assert!(c.message(2, 64) > c.message(1, 64));
    }

    #[test]
    fn work_cycles_respects_ipc() {
        let mut c = CostModel::westmere();
        c.base_ipc = 2.0;
        assert_eq!(c.work_cycles(1000), 500);
        c.base_ipc = 0.5;
        assert_eq!(c.work_cycles(1000), 2000);
    }
}
