//! Shared state read/write locks: centralized vs NUMA-partitioned.
//!
//! A typical storage manager protects global state (volume metadata,
//! checkpoint state, ...) with read/write locks that every transaction
//! acquires in *read* mode for a short moment in its critical path, while
//! background tasks (checkpointing) occasionally acquire them in *write*
//! mode (paper §IV, "Shared locks").  Acquiring even a read lock writes the
//! lock word, so on a multisocket machine every transaction pays a remote
//! cache-line transfer.
//!
//! The NUMA-aware variant keeps one lock per socket: readers touch only
//! their socket-local lock word.  Only the read path — the one in every
//! transaction's critical path — is modelled; no simulated background task
//! takes the locks in write mode.

use crate::per_socket::PerSocket;
use atrapos_numa::{AccessKind, Component, ContendedLine, Cycles, SimCtx, WaitMode};

/// Instruction cost of the read-lock fast path (check + increment).
const READ_LOCK_INSTRUCTIONS: u64 = 20;

/// A state read/write lock, possibly partitioned by socket.
#[derive(Debug, Clone)]
pub struct StateRwLock {
    words: PerSocket<ContendedLine>,
}

impl StateRwLock {
    /// A single centralized lock word homed on socket 0.
    pub fn centralized() -> Self {
        Self {
            words: PerSocket::centralized(ContendedLine::new),
        }
    }

    /// One lock word per socket (NUMA-aware).
    pub fn per_socket(n_sockets: usize) -> Self {
        Self {
            words: PerSocket::partitioned(n_sockets, ContendedLine::new),
        }
    }

    /// Acquire in read mode from the calling context's socket (critical
    /// path).  Returns the cycles consumed.
    pub fn read_acquire(&mut self, ctx: &mut SimCtx<'_>) -> Cycles {
        let spent = ctx.access_line(
            Component::XctManagement,
            self.words.local(ctx.socket()),
            AccessKind::Rmw,
            WaitMode::Stall,
        );
        ctx.work(Component::XctManagement, READ_LOCK_INSTRUCTIONS);
        spent
    }

    /// Release a read acquisition (decrement of the local word).
    pub fn read_release(&mut self, ctx: &mut SimCtx<'_>) -> Cycles {
        ctx.access_line(
            Component::XctManagement,
            self.words.local(ctx.socket()),
            AccessKind::Rmw,
            WaitMode::Stall,
        )
    }

    /// Exclusive accesses that crossed a socket boundary.
    pub fn remote_accesses(&self) -> u64 {
        self.words.iter().map(|w| w.remote_accesses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_numa::{CoreId, CostModel, Topology};

    #[test]
    fn partitioned_read_acquisitions_stay_local() {
        let topo = Topology::multisocket(8, 2);
        let cost = CostModel::westmere();
        let mut lock = StateRwLock::per_socket(8);
        let mut now = 0;
        for i in 0..16u32 {
            let mut ctx = SimCtx::new(&topo, &cost, CoreId(i % 16), now);
            lock.read_acquire(&mut ctx);
            lock.read_release(&mut ctx);
            now = ctx.now();
        }
        assert_eq!(lock.remote_accesses(), 0);
    }

    #[test]
    fn centralized_read_acquisitions_bounce() {
        let topo = Topology::multisocket(8, 2);
        let cost = CostModel::westmere();
        let mut lock = StateRwLock::centralized();
        let mut now = 0;
        let mut remote_cost = 0;
        for i in 0..16u32 {
            let mut ctx = SimCtx::new(&topo, &cost, CoreId((i * 2) % 16), now);
            lock.read_acquire(&mut ctx);
            remote_cost += ctx.elapsed();
            now = ctx.now();
        }
        assert!(lock.remote_accesses() > 0);
        assert!(remote_cost > 16 * cost.llc_local);
    }
}
