//! Two-phase commit for the shared-nothing configurations.
//!
//! When a multi-site transaction spans several shared-nothing instances, the
//! paper's distributed-transaction layer runs standard two-phase commit over
//! shared-memory channels (§III-C).  The measured overheads are: holding
//! locks until every participant reaches a decision, extra log records
//! (prepare + decision), and the round-trip communication itself —
//! Figure 4 breaks a transaction's time into exactly these components.
//!
//! The coordinator-side model below charges all phases to the coordinating
//! context; participant-side log writes are charged at the same cost as
//! coordinator log writes, which preserves the per-transaction totals the
//! figure reports.

use crate::log::{LogManager, LogRecordKind};
use crate::txn::TxnId;
use atrapos_numa::{Component, SimCtx, SocketId};

/// Size of a prepare/vote/decision/ack message in bytes (shared-nothing
/// charges the same size for every request it forwards to an instance).
pub const MESSAGE_BYTES: u64 = 96;
/// Payload size of a participant's prepare log record.
const PREPARE_LOG_BYTES: u64 = 64;
/// Payload size of a decision log record.
const DECISION_LOG_BYTES: u64 = 48;
/// Instruction cost of coordinator/participant state bookkeeping per
/// participant and phase.
const STATE_INSTRUCTIONS: u64 = 400;

/// Run two-phase commit from the coordinator's context.
///
/// * `participants` — sockets of the remote instances involved (the
///   coordinator's own instance is not included); none means a local
///   transaction, which pays nothing here.
/// * `log` — the coordinator's log manager (participant log writes are
///   charged here too, see module docs).
/// * `commit` — the global decision: `false` when a participant voted no,
///   so every instance logs an abort rather than a commit.
pub fn coordinate(
    ctx: &mut SimCtx<'_>,
    txn: TxnId,
    participants: &[SocketId],
    log: &mut LogManager,
    commit: bool,
) {
    if participants.is_empty() {
        return;
    }

    // Phase 1: prepare requests + participant prepare records + votes.
    for &p in participants {
        ctx.send_message(Component::Communication, p, MESSAGE_BYTES);
        ctx.work(Component::XctManagement, STATE_INSTRUCTIONS);
        // The participant must force its prepare record to the log
        // before it may vote yes.
        log.insert(ctx, txn, LogRecordKind::Prepare, PREPARE_LOG_BYTES);
        log.commit_flush(ctx);
        // Vote reply.
        ctx.send_message(Component::Communication, p, MESSAGE_BYTES);
    }

    // Coordinator decision record (commit or abort) is forced to disk.
    let decision_kind = if commit {
        LogRecordKind::DistributedCommit
    } else {
        LogRecordKind::Abort
    };
    log.insert(ctx, txn, decision_kind, DECISION_LOG_BYTES);
    log.commit_flush(ctx);

    // Phase 2: decision messages + participant decision records + acks.
    for &p in participants {
        ctx.send_message(Component::Communication, p, MESSAGE_BYTES);
        log.insert(ctx, txn, decision_kind, DECISION_LOG_BYTES);
        ctx.work(Component::XctManagement, STATE_INSTRUCTIONS);
        ctx.send_message(Component::Communication, p, MESSAGE_BYTES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_numa::{CoreId, CostModel, Cycles, Tally, Topology};

    fn env() -> (Topology, CostModel) {
        (Topology::multisocket(8, 2), CostModel::westmere())
    }

    /// One round with `n` participants on sockets `1..=n`: the
    /// coordinator's elapsed cycles, its tally and the log it wrote.
    fn run(n: u16, commit: bool) -> (Cycles, Tally, LogManager) {
        let (t, c) = env();
        let mut log = LogManager::per_socket(8);
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let participants: Vec<SocketId> = (1..=n).map(SocketId).collect();
        coordinate(&mut ctx, TxnId(7), &participants, &mut log, commit);
        (ctx.elapsed(), ctx.finish(), log)
    }

    /// Every charge of a round, recorded from the protocol's earlier
    /// struct-and-stats form: elapsed cycles, the per-component breakdown
    /// (in `Component::ALL` order), remote bytes, and the log's record and
    /// byte totals.  Sockets 1 and 2 are one hop from the coordinator,
    /// socket 3 two.
    #[test]
    fn charges_match_the_recorded_table() {
        type Row = (u16, bool, Cycles, [Cycles; 7], u64, u64, u64);
        let table: [Row; 8] = [
            (0, true, 0, [0, 0, 0, 0, 0, 0, 0], 0, 0, 0),
            (0, false, 0, [0, 0, 0, 0, 0, 0, 0], 0, 0, 0),
            (1, true, 9014, [800, 0, 2632, 0, 0, 5582, 0], 384, 3, 160),
            (1, false, 9014, [800, 0, 2632, 0, 0, 5582, 0], 384, 3, 160),
            (2, true, 15232, [1600, 0, 5264, 0, 0, 8368, 0], 768, 5, 272),
            (2, false, 15232, [1600, 0, 5264, 0, 0, 8368, 0], 768, 5, 272),
            (
                3,
                true,
                21678,
                [2400, 0, 8124, 0, 0, 11154, 0],
                1152,
                7,
                384,
            ),
            (
                3,
                false,
                21678,
                [2400, 0, 8124, 0, 0, 11154, 0],
                1152,
                7,
                384,
            ),
        ];
        for (n, commit, elapsed, breakdown, remote_bytes, records, bytes) in table {
            let (got, tally, log) = run(n, commit);
            let row = format!("{n} participant(s), commit {commit}");
            assert_eq!(got, elapsed, "{row}");
            assert_eq!(
                Component::ALL.map(|k| tally.breakdown.get(k)),
                breakdown,
                "{row}"
            );
            assert_eq!(tally.remote_bytes, remote_bytes, "{row}");
            assert_eq!(log.total_records(), records, "{row}");
            assert_eq!(log.total_bytes(), bytes, "{row}");
        }
    }

    #[test]
    fn local_transactions_pay_nothing() {
        let (elapsed, tally, log) = run(0, true);
        assert_eq!(elapsed, 0);
        assert_eq!(tally.remote_bytes, 0);
        assert_eq!(log.total_records(), 0);
    }

    #[test]
    fn cost_grows_with_participants() {
        let (c1, t1, l1) = run(1, true);
        let (c3, t3, l3) = run(3, true);
        assert!(c3 > 2 * c1);
        // Four messages per participant: prepare, vote, decision, ack.
        assert_eq!(t1.remote_bytes, 4 * MESSAGE_BYTES);
        assert_eq!(t3.remote_bytes, 12 * MESSAGE_BYTES);
        assert!(l3.total_records() > l1.total_records());
    }

    /// A no vote still runs both phases: the vote is collected before the
    /// decision, and every instance logs the abort at a commit's cost.
    #[test]
    fn abort_vote_aborts_the_round() {
        let (committed, _, commit_log) = run(2, true);
        let (aborted, _, abort_log) = run(2, false);
        assert_eq!(aborted, committed);
        assert_eq!(abort_log.total_records(), commit_log.total_records());
    }

    #[test]
    fn distributed_commit_writes_prepare_and_decision_records() {
        let (_, _, log) = run(2, true);
        // 2 prepare + 1 coordinator decision + 2 participant decisions.
        assert_eq!(log.total_records(), 5);
    }
}
