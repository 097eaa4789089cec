//! The workload abstraction: schemas, population, and transaction
//! generation.

use crate::action::TransactionSpec;
use atrapos_core::{KeyDistribution, KeyDomain, ZipfianDomainTooLarge};
use atrapos_numa::CoreId;
use atrapos_storage::{Database, Key, Schema, TableId};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Description of one table of a workload.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table identifier.
    pub id: TableId,
    /// Table schema.
    pub schema: Schema,
    /// Integer key domain (head column of the primary key).
    pub domain: KeyDomain,
    /// Approximate number of rows the populated table holds.
    pub rows: u64,
}

/// A typed runtime reconfiguration of a workload.
///
/// The adaptive experiments of the paper (Figures 10–13) change the
/// workload mid-run: they switch the transaction mix, introduce access
/// skew, or both.  `WorkloadChange` is the serializable vocabulary of those
/// changes — scenario timelines carry values of this type instead of
/// downcasting to concrete workload structs, so an experiment is plain
/// data that can be stored, replayed, and swept.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadChange {
    /// Run only the named transaction type (e.g. `"GetNewDest"` for TATP,
    /// `"NewOrder"` for TPC-C) — the workload-phase switches of Figures 10
    /// and 13.
    SingleTransaction {
        /// Transaction-type label as printed in the paper's figures.
        txn: String,
    },
    /// Restore the workload's standard transaction mix.
    StandardMix,
    /// Change the key-access distribution (Figure 11 introduces a hotspot
    /// where 50% of the requests hit 20% of the data).
    Distribution {
        /// The new distribution.
        distribution: KeyDistribution,
    },
    /// Change the percentage of multi-site transactions (the knob of the
    /// §III-C microbenchmark).
    MultiSitePercent {
        /// Percentage (0–100) of transactions that touch remote sites.
        percent: u32,
    },
    /// Set the key-access distribution to a Zipfian with the given
    /// exponent — the theta-ramp knob of the YCSB skew experiments.
    /// Shorthand for `Distribution { Zipfian { theta } }` that scenario
    /// timelines can step through to ramp skew up or down.
    ZipfianTheta {
        /// Zipfian exponent (0 = uniform; YCSB's standard is 0.99).
        theta: f64,
    },
    /// Switch to a named operation mix the workload defines (the YCSB
    /// core mixes are named "A" through "F").
    NamedMix {
        /// Mix name as the workload publishes it.
        name: String,
    },
}

impl fmt::Display for WorkloadChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadChange::SingleTransaction { txn } => write!(f, "single transaction '{txn}'"),
            WorkloadChange::StandardMix => write!(f, "standard mix"),
            WorkloadChange::Distribution { distribution } => {
                write!(f, "distribution {distribution:?}")
            }
            WorkloadChange::MultiSitePercent { percent } => {
                write!(f, "{percent}% multi-site")
            }
            WorkloadChange::ZipfianTheta { theta } => write!(f, "Zipfian theta {theta}"),
            WorkloadChange::NamedMix { name } => write!(f, "named mix '{name}'"),
        }
    }
}

/// Why a [`WorkloadChange`] could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigureError {
    /// The workload does not support this kind of change at all.
    Unsupported {
        /// Name of the workload.
        workload: String,
        /// The rejected change.
        change: WorkloadChange,
    },
    /// A `SingleTransaction` change named a transaction type the workload
    /// does not have.
    UnknownTransaction {
        /// Name of the workload.
        workload: String,
        /// The unrecognized label.
        txn: String,
        /// The labels the workload accepts.
        known: Vec<&'static str>,
    },
    /// A `NamedMix` change named a mix the workload does not define.
    UnknownMix {
        /// Name of the workload.
        workload: String,
        /// The unrecognized mix name.
        name: String,
        /// The mix names the workload accepts.
        known: Vec<&'static str>,
    },
    /// A Zipfian distribution was asked for over a key domain the sampler
    /// refuses to build a table for; the workload keeps drawing from its
    /// previous distribution.
    ZipfianDomain {
        /// Name of the workload.
        workload: String,
        /// The refused domain.
        source: ZipfianDomainTooLarge,
    },
}

impl fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigureError::Unsupported { workload, change } => {
                write!(f, "workload '{workload}' does not support {change}")
            }
            ReconfigureError::UnknownTransaction {
                workload,
                txn,
                known,
            } => write!(
                f,
                "workload '{workload}' has no transaction type '{txn}' (known: {})",
                known.join(", ")
            ),
            ReconfigureError::UnknownMix {
                workload,
                name,
                known,
            } => write!(
                f,
                "workload '{workload}' has no mix named '{name}' (known: {})",
                known.join(", ")
            ),
            ReconfigureError::ZipfianDomain { workload, source } => {
                write!(f, "workload '{workload}': {source}")
            }
        }
    }
}

impl std::error::Error for ReconfigureError {}

/// A benchmark workload: its schema, how to populate it, and how to generate
/// transactions.
///
/// Population contract: `populate` loads rows *into the tables already
/// registered in the database* (designs pre-create them with their chosen
/// physical partitioning); if a table is missing it is created as a
/// single-partition table on socket 0.
///
/// Workloads are `Send`: generators own their state (configs, mixes,
/// per-table domains), so a `Box<dyn Workload>` can move to a worker thread
/// of the [`crate::sweep`] experiment lab.
pub trait Workload: Send {
    /// Workload name (e.g. "TATP", "TPC-C", "read-one-row").
    fn name(&self) -> &str;

    /// Tables of the workload.
    fn tables(&self) -> Vec<TableSpec>;

    /// Load rows into `db`.  Only rows for which `filter` returns true are
    /// loaded — shared-nothing designs use this to populate each instance
    /// with its slice of the data.
    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool);

    /// Generate the next transaction into a reusable spec buffer,
    /// submitted by the client bound to `client` (site-aware workloads use
    /// it to decide which rows are "local" to the submitting site).
    ///
    /// This is a workload's one generator.  The executor calls it once per
    /// simulated transaction with the same buffer, and implementations
    /// refill it through [`TransactionSpec::refill`], so once the buffer
    /// has grown to the workload's largest transaction generation
    /// allocates nothing beyond what the actions own (an update's
    /// changes, an insert's record).
    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        client: CoreId,
        spec: &mut TransactionSpec,
    );

    /// Generate the next transaction into a fresh spec: the allocating
    /// convenience for tests and one-off callers, drawing from `rng`
    /// exactly as [`Workload::next_transaction_into`] does.
    fn next_transaction(&mut self, rng: &mut SmallRng, client: CoreId) -> TransactionSpec {
        let mut spec = TransactionSpec::empty();
        self.next_transaction_into(rng, client, &mut spec);
        spec
    }

    /// Table ids and key domains (convenience for building partitioning
    /// schemes).
    fn table_domains(&self) -> Vec<(TableId, KeyDomain)> {
        self.tables().iter().map(|t| (t.id, t.domain)).collect()
    }

    /// Apply a typed runtime reconfiguration (switching the transaction
    /// mix, introducing skew, …).  The default rejects every change;
    /// workloads opt in per [`WorkloadChange`] variant.
    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        Err(ReconfigureError::Unsupported {
            workload: self.name().to_string(),
            change: change.clone(),
        })
    }
}

/// Populate every row (no filtering): the shared-everything designs use
/// this.
pub fn populate_all(workload: &dyn Workload, db: &mut Database) {
    workload.populate(db, &|_, _| true);
}

/// Ensure every table of the workload exists in `db` (as a single-partition
/// table on socket 0 if the caller did not pre-create it).
pub fn ensure_tables(workload: &dyn Workload, db: &mut Database) {
    use atrapos_numa::SocketId;
    for spec in workload.tables() {
        if db.table(spec.id).is_err() {
            db.add_table(atrapos_storage::Table::new(
                spec.id,
                spec.schema.clone(),
                SocketId(0),
            ));
        }
    }
}

/// Simple built-in workloads used by the engine's own tests and by the
/// quickstart example.
pub mod testing {
    use super::*;
    use crate::action::{Action, ActionOp};
    use atrapos_storage::{Column, ColumnType};
    use rand::Rng;

    /// A minimal workload: one table of `rows` rows, each transaction reads
    /// one uniformly random row.
    #[derive(Debug, Clone)]
    pub struct TinyWorkload {
        /// Number of rows.
        pub rows: i64,
    }

    impl Workload for TinyWorkload {
        fn name(&self) -> &str {
            "tiny"
        }

        fn tables(&self) -> Vec<TableSpec> {
            vec![TableSpec {
                id: TableId(0),
                schema: Schema::new(
                    "tiny",
                    vec![
                        Column::new("id", ColumnType::Int),
                        Column::new("v", ColumnType::Int),
                    ],
                    vec![0],
                ),
                domain: KeyDomain::new(0, self.rows),
                rows: self.rows as u64,
            }]
        }

        fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
            ensure_tables(self, db);
            let table = db.table_mut(TableId(0)).expect("table created above");
            for i in 0..self.rows {
                let key = Key::int(i);
                if filter(TableId(0), &key) {
                    table.load_ints(&[i, i * 2]).expect("unique keys");
                }
            }
        }

        fn next_transaction_into(
            &mut self,
            rng: &mut SmallRng,
            _client: CoreId,
            spec: &mut TransactionSpec,
        ) {
            let k = rng.gen_range(0..self.rows);
            let mut w = spec.refill("tiny-read");
            w.phase().push(Action::new(ActionOp::Read {
                table: TableId(0),
                key: Key::int(k),
            }));
            w.finish();
        }
    }

    /// A two-table workload whose transactions update one row in each table
    /// (used to exercise logging, locking, and synchronization points in
    /// tests).
    #[derive(Debug, Clone)]
    pub struct TinyUpdateWorkload {
        /// Rows per table.
        pub rows: i64,
    }

    impl Workload for TinyUpdateWorkload {
        fn name(&self) -> &str {
            "tiny-update"
        }

        fn tables(&self) -> Vec<TableSpec> {
            (0..2)
                .map(|t| TableSpec {
                    id: TableId(t),
                    schema: Schema::new(
                        format!("tiny{t}"),
                        vec![
                            Column::new("id", ColumnType::Int),
                            Column::new("v", ColumnType::Int),
                        ],
                        vec![0],
                    ),
                    domain: KeyDomain::new(0, self.rows),
                    rows: self.rows as u64,
                })
                .collect()
        }

        fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
            ensure_tables(self, db);
            for t in 0..2u32 {
                let table = db.table_mut(TableId(t)).expect("table created above");
                for i in 0..self.rows {
                    let key = Key::int(i);
                    if filter(TableId(t), &key) {
                        table.load_ints(&[i, 0]).expect("unique keys");
                    }
                }
            }
        }

        fn next_transaction_into(
            &mut self,
            rng: &mut SmallRng,
            _client: CoreId,
            spec: &mut TransactionSpec,
        ) {
            let k = rng.gen_range(0..self.rows);
            let mut w = spec.refill("tiny-update");
            w.phase().extend((0..2).map(|t| {
                Action::new(ActionOp::Increment {
                    table: TableId(t),
                    key: Key::int(k),
                    column: 1,
                    delta: 1,
                })
            }));
            w.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{TinyUpdateWorkload, TinyWorkload};
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn tiny_workload_populates_with_filter() {
        let w = TinyWorkload { rows: 100 };
        let mut db = Database::new();
        w.populate(&mut db, &|_, k| k.head_int() < 50);
        assert_eq!(db.table(TableId(0)).unwrap().len(), 50);
        let mut full = Database::new();
        populate_all(&w, &mut full);
        assert_eq!(full.table(TableId(0)).unwrap().len(), 100);
    }

    #[test]
    fn tiny_workload_generates_reads_in_domain() {
        let mut w = TinyWorkload { rows: 100 };
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            assert_eq!(spec.num_actions(), 1);
            let head = spec.phases[0].actions[0].op.routing_key_head();
            assert!((0..100).contains(&head));
        }
    }

    #[test]
    fn tiny_update_workload_touches_both_tables() {
        let mut w = TinyUpdateWorkload { rows: 10 };
        let mut rng = SmallRng::seed_from_u64(1);
        let spec = w.next_transaction(&mut rng, CoreId(0));
        assert!(spec.is_update());
        let mut tables: Vec<TableId> = spec
            .phases
            .iter()
            .flat_map(|p| p.actions.iter().map(|a| a.op.table()))
            .collect();
        tables.sort();
        tables.dedup();
        assert_eq!(tables.len(), 2);
        let mut db = Database::new();
        populate_all(&w, &mut db);
        assert_eq!(db.total_records(), 20);
    }
}
