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
use atrapos_numa::{Component, Cycles, SimCtx, SocketId};

/// Outcome of a two-phase commit round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoPcOutcome {
    /// Every participant voted yes and the transaction committed.
    Committed,
    /// A participant voted no; the transaction aborted.
    Aborted {
        /// Index of the first participant that voted no.
        participant: usize,
    },
}

/// Two-phase-commit protocol parameters.
#[derive(Debug, Clone)]
pub struct TwoPhaseCommit {
    /// Size of a prepare/vote/decision/ack message in bytes.
    pub message_bytes: u64,
    /// Payload size of a participant's prepare log record.
    pub prepare_log_bytes: u64,
    /// Payload size of the coordinator's decision log record.
    pub decision_log_bytes: u64,
    /// Instruction cost of coordinator/participant state bookkeeping per
    /// participant.
    pub state_instructions: u64,
}

impl Default for TwoPhaseCommit {
    fn default() -> Self {
        Self {
            message_bytes: 96,
            prepare_log_bytes: 64,
            decision_log_bytes: 48,
            state_instructions: 400,
        }
    }
}

/// Statistics of a completed 2PC round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TwoPcStats {
    /// Messages exchanged.
    pub messages: u64,
    /// Log records written (coordinator + participants).
    pub log_records: u64,
    /// Cycles spent in the protocol.
    pub cycles: Cycles,
}

impl TwoPhaseCommit {
    /// Run two-phase commit from the coordinator's context.
    ///
    /// * `participants` — sockets of the remote instances involved (the
    ///   coordinator's own instance is not included).
    /// * `log` — the coordinator's log manager (participant log writes are
    ///   charged here too, see module docs).
    /// * `abort_vote` — when `Some(i)`, participant `i` votes no and the
    ///   round aborts after the voting phase.
    pub fn coordinate(
        &self,
        ctx: &mut SimCtx<'_>,
        txn: TxnId,
        participants: &[SocketId],
        log: &mut LogManager,
        abort_vote: Option<usize>,
    ) -> (TwoPcOutcome, TwoPcStats) {
        let start = ctx.now();
        let mut stats = TwoPcStats::default();
        if participants.is_empty() {
            // Not a distributed transaction: nothing to do.
            return (TwoPcOutcome::Committed, stats);
        }

        // Phase 1: prepare requests + participant prepare records + votes.
        for &p in participants {
            ctx.send_message(Component::Communication, p, self.message_bytes);
            stats.messages += 1;
            ctx.work(Component::XctManagement, self.state_instructions);
            // The participant must force its prepare record to the log
            // before it may vote yes.
            log.insert(ctx, txn, LogRecordKind::Prepare, self.prepare_log_bytes);
            log.commit_flush(ctx);
            stats.log_records += 1;
            // Vote reply.
            ctx.send_message(Component::Communication, p, self.message_bytes);
            stats.messages += 1;
        }

        let outcome = match abort_vote {
            Some(i) if i < participants.len() => TwoPcOutcome::Aborted { participant: i },
            _ => TwoPcOutcome::Committed,
        };

        // Coordinator decision record (commit or abort) is forced to disk.
        let decision_kind = match outcome {
            TwoPcOutcome::Committed => LogRecordKind::DistributedCommit,
            TwoPcOutcome::Aborted { .. } => LogRecordKind::Abort,
        };
        log.insert(ctx, txn, decision_kind, self.decision_log_bytes);
        stats.log_records += 1;
        log.commit_flush(ctx);

        // Phase 2: decision messages + participant decision records + acks.
        for &p in participants {
            ctx.send_message(Component::Communication, p, self.message_bytes);
            stats.messages += 1;
            log.insert(ctx, txn, decision_kind, self.decision_log_bytes);
            stats.log_records += 1;
            ctx.work(Component::XctManagement, self.state_instructions);
            ctx.send_message(Component::Communication, p, self.message_bytes);
            stats.messages += 1;
        }

        stats.cycles = ctx.now() - start;
        (outcome, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_numa::{CoreId, CostModel, Topology};

    fn env() -> (Topology, CostModel) {
        (Topology::multisocket(8, 2), CostModel::westmere())
    }

    #[test]
    fn local_transactions_pay_nothing() {
        let (t, c) = env();
        let mut log = LogManager::per_socket(8);
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let (outcome, stats) =
            TwoPhaseCommit::default().coordinate(&mut ctx, TxnId(1), &[], &mut log, None);
        assert_eq!(outcome, TwoPcOutcome::Committed);
        assert_eq!(stats.messages, 0);
        assert_eq!(ctx.elapsed(), 0);
    }

    #[test]
    fn cost_grows_with_participants() {
        let (t, c) = env();
        let tpc = TwoPhaseCommit::default();
        let run = |n: usize| {
            let mut log = LogManager::per_socket(8);
            let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
            let participants: Vec<SocketId> = (1..=n).map(|i| SocketId(i as u16)).collect();
            let (_, stats) = tpc.coordinate(&mut ctx, TxnId(1), &participants, &mut log, None);
            (ctx.elapsed(), stats)
        };
        let (c1, s1) = run(1);
        let (c4, s4) = run(4);
        assert!(c4 > 2 * c1);
        assert_eq!(s1.messages, 4);
        assert_eq!(s4.messages, 16);
        assert!(s4.log_records > s1.log_records);
    }

    #[test]
    fn abort_vote_aborts_the_round() {
        let (t, c) = env();
        let mut log = LogManager::per_socket(8);
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let participants = [SocketId(1), SocketId(2)];
        let (outcome, _) = TwoPhaseCommit::default().coordinate(
            &mut ctx,
            TxnId(9),
            &participants,
            &mut log,
            Some(1),
        );
        assert_eq!(outcome, TwoPcOutcome::Aborted { participant: 1 });
    }

    #[test]
    fn distributed_commit_writes_prepare_and_decision_records() {
        let (t, c) = env();
        let mut log = LogManager::per_socket(8);
        let mut ctx = SimCtx::new(&t, &c, CoreId(0), 0);
        let participants = [SocketId(1), SocketId(3)];
        let (_, stats) =
            TwoPhaseCommit::default().coordinate(&mut ctx, TxnId(9), &participants, &mut log, None);
        // 2 prepare + 1 coordinator decision + 2 participant decisions.
        assert_eq!(stats.log_records, 5);
        assert_eq!(log.total_records(), 5);
    }
}
