//! The list of active transactions.
//!
//! In Shore-MT this is a centralized lock-free list: beginning a transaction
//! CASes the list head, and so does removing it at commit.  On a multisocket
//! machine the head's cache line bounces between sockets and every
//! short-lived transaction pays hundreds of cycles for it (paper §IV, "List
//! of transactions").  ATraPos replaces it with one list per socket: adding
//! and removing are then socket-local; a background operation that needs
//! the global view (checkpointing, page cleaning) would walk all per-socket
//! lists, which the simulation does not model.

use crate::per_socket::PerSocket;
use crate::txn::TxnId;
use atrapos_numa::{AccessKind, Component, ContendedLine, SimCtx, SocketId, WaitMode};

/// Instruction cost of the list manipulation itself (pointer swizzling),
/// excluding the cache-line transfer which the simulator charges separately.
const LIST_OP_INSTRUCTIONS: u64 = 40;

/// A list of active transactions: either one centralized list or one list
/// per socket.
#[derive(Debug, Clone)]
pub struct TxnList {
    partitions: PerSocket<TxnListPartition>,
}

#[derive(Debug, Clone)]
struct TxnListPartition {
    head: ContendedLine,
    active: Vec<TxnId>,
}

impl TxnListPartition {
    fn new(home: SocketId) -> Self {
        Self {
            head: ContendedLine::new(home),
            active: Vec::new(),
        }
    }
}

impl TxnList {
    /// A single centralized list whose head line is homed on socket 0, as in
    /// stock Shore-MT.
    pub fn centralized() -> Self {
        Self {
            partitions: PerSocket::centralized(TxnListPartition::new),
        }
    }

    /// One list per socket (the ATraPos NUMA-aware variant).
    pub fn per_socket(n_sockets: usize) -> Self {
        Self {
            partitions: PerSocket::partitioned(n_sockets, TxnListPartition::new),
        }
    }

    /// Register a transaction as active.  Charges the CAS on the list head
    /// of the caller's partition.
    pub fn add(&mut self, ctx: &mut SimCtx<'_>, txn: TxnId) {
        let part = self.partitions.local(ctx.socket());
        ctx.access_line(
            Component::XctManagement,
            &mut part.head,
            AccessKind::Rmw,
            WaitMode::Stall,
        );
        ctx.work(Component::XctManagement, LIST_OP_INSTRUCTIONS);
        part.active.push(txn);
    }

    /// Remove a transaction at commit/abort.  Charges the CAS on the list
    /// head of the caller's partition: ATraPos binds threads so that a
    /// transaction normally ends on the socket it began on.  When it does
    /// not (its last action ran on another socket's worker), the entry is
    /// still found and removed from the list that holds it, so no list
    /// grows without bound; the charge stays the socket-local one.
    pub fn remove(&mut self, ctx: &mut SimCtx<'_>, txn: TxnId) {
        ctx.access_line(
            Component::XctManagement,
            &mut self.partitions.local(ctx.socket()).head,
            AccessKind::Rmw,
            WaitMode::Stall,
        );
        ctx.work(Component::XctManagement, LIST_OP_INSTRUCTIONS);
        for part in self.partitions.iter_mut() {
            if let Some(pos) = part.active.iter().position(|t| *t == txn) {
                part.active.swap_remove(pos);
                return;
            }
        }
    }

    /// Number of currently active transactions across all partitions
    /// (a background-thread style traversal; not charged to any context).
    pub fn active_count(&self) -> usize {
        self.partitions.iter().map(|p| p.active.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_numa::{CoreId, CostModel, Topology};

    fn machine() -> (Topology, CostModel) {
        (Topology::multisocket(4, 2), CostModel::westmere())
    }

    #[test]
    fn add_and_remove_maintain_active_set() {
        let (t, c) = machine();
        let mut list = TxnList::centralized();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        list.add(&mut ctx, TxnId(1));
        list.add(&mut ctx, TxnId(2));
        assert_eq!(list.active_count(), 2);
        list.remove(&mut ctx, TxnId(1));
        assert_eq!(list.active_count(), 1);
        list.remove(&mut ctx, TxnId(2));
        assert_eq!(list.active_count(), 0);
    }

    /// Eight adds by cores on different sockets taking turns; returns how
    /// many of them pulled a list head across a socket boundary.
    fn remote_head_accesses(list: &mut TxnList) -> usize {
        let (t, c) = machine();
        let mut now = 0;
        let mut remote = 0;
        for i in 0..8u64 {
            let core = CoreId(((i % 4) * 2) as u32);
            let mut ctx = SimCtx::new(&t, &c, core, now);
            list.add(&mut ctx, TxnId(i));
            now = ctx.now();
            remote += ctx.tally().traffic.len();
        }
        remote
    }

    #[test]
    fn centralized_list_bounces_across_sockets() {
        // Every access is remote relative to the previous owner.
        assert!(remote_head_accesses(&mut TxnList::centralized()) >= 6);
    }

    #[test]
    fn per_socket_lists_keep_accesses_local() {
        let mut list = TxnList::per_socket(4);
        assert_eq!(remote_head_accesses(&mut list), 0);
        assert_eq!(list.active_count(), 8);
    }

    #[test]
    fn removal_from_another_socket_finds_the_entry_and_stays_local() {
        let (t, c) = machine();
        let mut list = TxnList::per_socket(4);
        let mut begin = SimCtx::new(&t, &c, CoreId(0), 0);
        list.add(&mut begin, TxnId(7));
        // The transaction ends on socket 2: its entry lives in socket 0's
        // list and must not be left there.
        let mut end = SimCtx::new(&t, &c, CoreId(4), begin.now());
        list.remove(&mut end, TxnId(7));
        assert_eq!(list.active_count(), 0);
        assert!(begin.tally().traffic.is_empty() && end.tally().traffic.is_empty());
    }

    #[test]
    fn per_socket_add_is_cheaper_than_contended_centralized_add() {
        let (t, c) = machine();
        let mut central = TxnList::centralized();
        let mut local = TxnList::per_socket(4);
        // Prime the centralized head from socket 3 (so socket 0 pays a
        // remote transfer) and socket 0's local list from socket 0 itself
        // (so its head stays in the local cache).
        let mut ctx = SimCtx::new(&t, &c, CoreId(6), 0);
        central.add(&mut ctx, TxnId(0));
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        local.add(&mut ctx, TxnId(0));

        let mut ctx_central = SimCtx::new(&t, &c, CoreId(0), 10_000);
        central.add(&mut ctx_central, TxnId(1));
        let central_cost = ctx_central.elapsed();

        let mut ctx_local = SimCtx::new(&t, &c, CoreId(0), 10_000);
        local.add(&mut ctx_local, TxnId(1));
        let local_cost = ctx_local.elapsed();

        assert!(
            central_cost > 2 * local_cost,
            "centralized {central_cost} vs per-socket {local_cost}"
        );
    }
}
