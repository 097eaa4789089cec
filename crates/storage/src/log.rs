//! The log manager.
//!
//! Shore-MT (with Aether) keeps a single log with a shared buffer whose
//! insertion point every update transaction must reserve — on a multisocket
//! machine that reservation is another centralized hot spot.  The
//! NUMA-partitioned variant keeps one log buffer per socket, so
//! reservations stay socket-local (log records carry the socket id so a
//! total order can be reconstructed at recovery, which the simulation does
//! not need to model).
//!
//! Records are accounted by size and LSN; their contents are not
//! materialized.

use crate::per_socket::PerSocket;
use crate::txn::TxnId;
use atrapos_numa::{AccessKind, Component, ContendedLine, Cycles, SimCtx, SocketId, WaitMode};

/// Instruction cost per 16 bytes of log payload copied into the buffer.
const COPY_INSTRUCTIONS_PER_16B: u64 = 4;
/// Fixed instruction cost of formatting a log record header.
const HEADER_INSTRUCTIONS: u64 = 60;
/// Commit-time flush latency in cycles (memory-mapped log device, so this
/// is small; it mainly models the group-commit wait).
const FLUSH_LATENCY: Cycles = 2_500;

/// Kinds of log records generated by the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecordKind {
    /// Tuple update (before/after image).
    Update,
    /// Tuple insert.
    Insert,
    /// Tuple delete.
    Delete,
    /// Local commit record.
    Commit,
    /// Abort record.
    Abort,
    /// Two-phase-commit prepare record.
    Prepare,
    /// Two-phase-commit decision record (coordinator).
    DistributedCommit,
}

#[derive(Debug, Clone)]
struct LogBuffer {
    head: ContendedLine,
    next_lsn: u64,
    bytes: u64,
    records: u64,
}

impl LogBuffer {
    fn new(home: SocketId) -> Self {
        Self {
            head: ContendedLine::new(home),
            next_lsn: 1,
            bytes: 0,
            records: 0,
        }
    }
}

/// The log manager.
#[derive(Debug, Clone)]
pub struct LogManager {
    buffers: PerSocket<LogBuffer>,
}

impl LogManager {
    /// A centralized log whose buffer head is homed on socket 0 (stock
    /// Shore-MT / Aether).
    pub fn centralized() -> Self {
        Self {
            buffers: PerSocket::centralized(LogBuffer::new),
        }
    }

    /// One log buffer per socket (NUMA-aware).
    pub fn per_socket(n_sockets: usize) -> Self {
        Self {
            buffers: PerSocket::partitioned(n_sockets, LogBuffer::new),
        }
    }

    /// Append a record of `bytes` payload bytes on behalf of `txn`.
    /// Returns the record's LSN.  The owner and kind name the record at
    /// the call site; only its size is modelled.
    pub fn insert(
        &mut self,
        ctx: &mut SimCtx<'_>,
        _txn: TxnId,
        _kind: LogRecordKind,
        bytes: u64,
    ) -> u64 {
        let buffer = self.buffers.local(ctx.socket());
        // Reserve space: an atomic on the buffer head.
        ctx.access_line(
            Component::Logging,
            &mut buffer.head,
            AccessKind::Rmw,
            WaitMode::Stall,
        );
        // Format the header and copy the payload.
        ctx.work(
            Component::Logging,
            HEADER_INSTRUCTIONS + bytes.div_ceil(16) * COPY_INSTRUCTIONS_PER_16B,
        );
        let lsn = buffer.next_lsn;
        buffer.next_lsn += 1;
        buffer.bytes += bytes;
        buffer.records += 1;
        lsn
    }

    /// Wait for the commit record to become durable (group-commit flush).
    pub fn commit_flush(&mut self, ctx: &mut SimCtx<'_>) {
        ctx.stall(Component::Logging, FLUSH_LATENCY);
    }

    /// Total records written across buffers.
    pub fn total_records(&self) -> u64 {
        self.buffers.iter().map(|b| b.records).sum()
    }

    /// Total payload bytes written across buffers.
    pub fn total_bytes(&self) -> u64 {
        self.buffers.iter().map(|b| b.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_numa::{CoreId, CostModel, Topology};

    fn env() -> (Topology, CostModel) {
        (Topology::multisocket(4, 2), CostModel::westmere())
    }

    #[test]
    fn lsns_are_monotonic_per_buffer() {
        let (t, c) = env();
        let mut log = LogManager::centralized();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let a = log.insert(&mut ctx, TxnId(1), LogRecordKind::Update, 100);
        let b = log.insert(&mut ctx, TxnId(1), LogRecordKind::Commit, 16);
        assert!(b > a);
        assert_eq!(log.total_records(), 2);
        assert_eq!(log.total_bytes(), 116);
    }

    /// Eight inserts from cores on alternating sockets; returns how many
    /// of them pulled the buffer head across a socket boundary.
    fn remote_reservations(log: &mut LogManager) -> usize {
        let (t, c) = env();
        let mut now = 0;
        let mut remote = 0;
        for i in 0..8u64 {
            let core = CoreId(((i % 4) * 2) as u32);
            let mut ctx = SimCtx::new(&t, &c, core, now);
            log.insert(&mut ctx, TxnId(i), LogRecordKind::Update, 120);
            now = ctx.now();
            remote += usize::from(ctx.tally().remote_bytes > 0);
        }
        remote
    }

    #[test]
    fn centralized_log_reservations_bounce_across_sockets() {
        assert!(remote_reservations(&mut LogManager::centralized()) >= 6);
    }

    #[test]
    fn per_socket_log_reservations_stay_local() {
        let mut log = LogManager::per_socket(4);
        assert_eq!(remote_reservations(&mut log), 0);
        assert_eq!(log.total_records(), 8);
    }

    #[test]
    fn bigger_payloads_cost_more() {
        let (t, c) = env();
        let mut log = LogManager::centralized();
        let mut ctx_small = SimCtx::new(&t, &c, CoreId(0), 0);
        log.insert(&mut ctx_small, TxnId(1), LogRecordKind::Update, 16);
        let small = ctx_small.elapsed();
        let mut ctx_big = SimCtx::new(&t, &c, CoreId(0), ctx_small.now());
        log.insert(&mut ctx_big, TxnId(1), LogRecordKind::Update, 4096);
        let big = ctx_big.elapsed();
        assert!(big > small);
    }

    #[test]
    fn commit_flush_costs_the_flush_latency() {
        let (t, c) = env();
        let mut log = LogManager::centralized();
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        log.commit_flush(&mut ctx);
        assert_eq!(ctx.elapsed(), FLUSH_LATENCY);
    }
}
