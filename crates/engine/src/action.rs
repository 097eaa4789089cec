//! Transactions, actions, and flow graphs.
//!
//! Following the data-oriented execution model the paper builds on
//! (DORA/PLP, §V-A), a transaction is decomposed into *actions*, each of
//! which touches exactly one table (and therefore one data partition), and
//! *synchronization points* where actions exchange data.  A
//! [`TransactionSpec`] is the instantiated flow graph of one transaction:
//! an ordered list of [`Phase`]s, each containing actions that may run in
//! parallel on their partitions, terminated by a synchronization point.
//!
//! The paper's Figure 7 (the TPC-C NewOrder flow graph) maps directly onto
//! this representation: its fixed part and variable part become phases, and
//! its four synchronization points become the phase boundaries.

use atrapos_numa::Cycles;
use atrapos_storage::{Key, Record, TableId};
use std::fmt;

/// What an action does to its table.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionOp {
    /// Read one record by primary key.
    Read {
        /// Table to read from.
        table: TableId,
        /// Primary key.
        key: Key,
    },
    /// Read up to `limit` records in `[from, to)`.
    ReadRange {
        /// Table to scan.
        table: TableId,
        /// Inclusive lower bound.
        from: Key,
        /// Exclusive upper bound.
        to: Key,
        /// Maximum rows returned.
        limit: usize,
    },
    /// Overwrite one integer column of one record, in place.
    Update {
        /// Table to update.
        table: TableId,
        /// Primary key.
        key: Key,
        /// Column to overwrite.
        column: usize,
        /// New value.
        value: i64,
    },
    /// Add a signed delta to an integer column (used for balances and
    /// counters so that consistency checks remain meaningful).
    Increment {
        /// Table to update.
        table: TableId,
        /// Primary key.
        key: Key,
        /// Column to adjust.
        column: usize,
        /// Signed delta.
        delta: i64,
    },
    /// Insert a new record.
    Insert {
        /// Table to insert into.
        table: TableId,
        /// The record.
        record: Record,
    },
    /// Delete a record by primary key.
    Delete {
        /// Table to delete from.
        table: TableId,
        /// Primary key.
        key: Key,
    },
}

impl ActionOp {
    /// The table this action touches.
    pub fn table(&self) -> TableId {
        match self {
            ActionOp::Read { table, .. }
            | ActionOp::ReadRange { table, .. }
            | ActionOp::Update { table, .. }
            | ActionOp::Increment { table, .. }
            | ActionOp::Insert { table, .. }
            | ActionOp::Delete { table, .. } => *table,
        }
    }

    /// The primary key this action is routed by (the range scan routes by
    /// its lower bound; the insert by the record's first column).
    // Once per action, by every design's router and lock acquisition.
    // lint: hot-path
    pub fn routing_key_head(&self) -> i64 {
        match self {
            ActionOp::Read { key, .. }
            | ActionOp::Update { key, .. }
            | ActionOp::Increment { key, .. }
            | ActionOp::Delete { key, .. } => key.head_int(),
            ActionOp::ReadRange { from, .. } => from.head_int(),
            ActionOp::Insert { record, .. } => record.int(0).unwrap_or(0),
        }
    }

    /// Whether the action modifies data (and therefore needs an exclusive
    /// lock and a log record).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            ActionOp::Update { .. }
                | ActionOp::Increment { .. }
                | ActionOp::Insert { .. }
                | ActionOp::Delete { .. }
        )
    }
}

/// One action of a transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    /// The storage operation.
    pub op: ActionOp,
    /// Business-logic instructions executed around the storage operation.
    pub extra_instructions: u64,
}

impl Action {
    /// An action with the default amount of surrounding business logic.
    pub fn new(op: ActionOp) -> Self {
        Self {
            op,
            extra_instructions: 300,
        }
    }

    /// Override the business-logic instruction count.
    pub fn with_extra_instructions(mut self, instructions: u64) -> Self {
        self.extra_instructions = instructions;
        self
    }
}

/// A phase: actions that can run in parallel, terminated by a
/// synchronization point.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Actions of this phase.
    pub actions: Vec<Action>,
    /// Bytes exchanged at the synchronization point that ends this phase.
    pub sync_bytes: u64,
}

/// The default synchronization payload of a phase: one cache line per
/// action.
fn default_sync_bytes(actions: &[Action]) -> u64 {
    64 * actions.len() as u64
}

impl Phase {
    /// A phase with the default synchronization payload (one cache line per
    /// action).  Generators refill through [`TransactionSpec::refill`]; this
    /// builds the phases of hand-made test transactions.
    pub fn new(actions: Vec<Action>) -> Self {
        let sync_bytes = default_sync_bytes(&actions);
        Self {
            actions,
            sync_bytes,
        }
    }
}

/// A fully instantiated transaction: its class and its flow graph.
///
/// `Debug` and `PartialEq` see the class and the phases only, not the
/// spare phases a refill keeps for later transactions.
#[derive(Clone)]
pub struct TransactionSpec {
    /// Transaction class (e.g. "GetSubData", "NewOrder").
    pub class: &'static str,
    /// Phases in execution order.
    pub phases: Vec<Phase>,
    /// Phases a refill did not use, kept with their action buffers for the
    /// next refill that needs more phases.
    spare: Vec<Phase>,
}

impl fmt::Debug for TransactionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransactionSpec")
            .field("class", &self.class)
            .field("phases", &self.phases)
            .finish()
    }
}

impl PartialEq for TransactionSpec {
    fn eq(&self, other: &Self) -> bool {
        self.class == other.class && self.phases == other.phases
    }
}

impl TransactionSpec {
    /// An empty spec, for use as a reusable generation buffer (see
    /// [`TransactionSpec::refill`]).
    pub fn empty() -> Self {
        Self::new("", Vec::new())
    }

    /// Begin refilling this spec in place for a new transaction.
    ///
    /// Workload generators run once per simulated transaction, which made
    /// their nested `Vec<Phase>` / `Vec<Action>` construction one of the
    /// executor's main allocation sources.  Refilling reuses the buffers
    /// of the previous transaction: phases are overwritten slot by slot
    /// (their action vectors keep their capacity), and
    /// [`SpecRefill::finish`] sets unused trailing phases aside, buffers
    /// and all, for a later transaction with more phases.
    pub fn refill(&mut self, class: &'static str) -> SpecRefill<'_> {
        self.class = class;
        SpecRefill {
            spec: self,
            used: 0,
        }
    }

    /// A transaction with explicit phases (for hand-made test
    /// transactions; generators refill through [`TransactionSpec::refill`]).
    pub fn new(class: &'static str, phases: Vec<Phase>) -> Self {
        Self {
            class,
            phases,
            spare: Vec::new(),
        }
    }

    /// Total number of actions.
    pub fn num_actions(&self) -> usize {
        self.phases.iter().map(|p| p.actions.len()).sum()
    }

    /// Number of synchronization points (phase boundaries with more than
    /// one participating action, plus joins between phases).
    pub fn num_sync_points(&self) -> usize {
        self.phases.iter().filter(|p| p.actions.len() > 1).count()
            + self.phases.len().saturating_sub(1)
    }

    /// Whether any action writes.
    pub fn is_update(&self) -> bool {
        self.phases
            .iter()
            .any(|p| p.actions.iter().any(|a| a.op.is_write()))
    }
}

/// In-place refiller for a reusable [`TransactionSpec`] buffer (created by
/// [`TransactionSpec::refill`]).
pub struct SpecRefill<'a> {
    spec: &'a mut TransactionSpec,
    used: usize,
}

impl SpecRefill<'_> {
    /// Start the next phase and return its action buffer, cleared but with
    /// capacity preserved.
    pub fn phase(&mut self) -> &mut Vec<Action> {
        if self.used == self.spec.phases.len() {
            let spare = self.spec.spare.pop();
            self.spec
                .phases
                .push(spare.unwrap_or_else(|| Phase::new(Vec::new())));
        }
        let p = &mut self.spec.phases[self.used];
        self.used += 1;
        p.actions.clear();
        &mut p.actions
    }

    /// Finish the refill: set unused trailing phases aside and give every
    /// phase the default synchronization payload of one cache line per
    /// action.
    pub fn finish(self) {
        let spec = self.spec;
        spec.spare.extend(spec.phases.drain(self.used..).rev());
        for p in &mut spec.phases {
            p.sync_bytes = default_sync_bytes(&p.actions);
        }
    }
}

/// The result of executing one transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnOutcome {
    /// Whether the transaction committed.
    pub committed: bool,
    /// Virtual time at which the transaction started.
    pub start: Cycles,
    /// Virtual time at which it finished (committed or aborted).
    pub end: Cycles,
}

impl TxnOutcome {
    /// Transaction latency in cycles.
    pub fn latency(&self) -> Cycles {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(table: u32, key: i64) -> Action {
        Action::new(ActionOp::Read {
            table: TableId(table),
            key: Key::int(key),
        })
    }

    #[test]
    fn action_metadata() {
        let a = read(3, 42);
        assert_eq!(a.op.table(), TableId(3));
        assert_eq!(a.op.routing_key_head(), 42);
        assert!(!a.op.is_write());
        let w = Action::new(ActionOp::Increment {
            table: TableId(1),
            key: Key::int(7),
            column: 2,
            delta: -5,
        });
        assert!(w.op.is_write());
        assert_eq!(w.op.routing_key_head(), 7);
    }

    #[test]
    fn spec_statistics() {
        let spec = TransactionSpec::new(
            "test",
            vec![
                Phase::new(vec![read(0, 1), read(1, 1)]),
                Phase::new(vec![read(2, 5)]),
            ],
        );
        assert_eq!(spec.num_actions(), 3);
        assert_eq!(spec.num_sync_points(), 2);
        assert!(!spec.is_update());
        let single = TransactionSpec::new("t", vec![Phase::new(vec![read(0, 1)])]);
        assert_eq!(single.num_sync_points(), 0);
    }

    #[test]
    fn outcome_latency() {
        let out = TxnOutcome {
            committed: true,
            start: 100,
            end: 350,
        };
        assert_eq!(out.latency(), 250);
    }
}
