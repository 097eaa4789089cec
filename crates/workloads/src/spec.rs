//! Workloads as data: the declarative [`WorkloadSpec`] engine.
//!
//! A serializable [`WorkloadSpec`] describes tables (key domains, record
//! shapes, optional parent links) and weighted transaction templates over
//! the op vocabulary — read / update / insert / scan / RMW — with
//! per-argument [`KeyDistribution`]s, and [`WorkloadSpec::compile`] turns
//! it into a [`CompiledWorkload`], so opening a new access pattern for
//! the partitioning advisor to chase is a JSON file, not a crate-level
//! change.  YCSB ([`crate::ycsb`]) and the paper's two-table SimpleAb
//! transaction ([`simple_ab`]) *are* specs run by this engine; TATP,
//! TPC-C and the microbenchmarks are still Rust modules.
//!
//! * every key argument draws from a precomputed [`KeySampler`] built
//!   once at compile time, so per-transaction draws never allocate;
//! * transactions are built through the [`TransactionSpec::refill`]
//!   buffer-reuse path;
//! * the template mix is a [`Mix`] over template indices;
//! * a compiled workload takes every `WorkloadChange` a scenario sends —
//!   one template alone, the declared mix back, or one distribution for
//!   every key argument — and writes it through to the retained spec, so
//!   [`CompiledWorkload::spec`] describes the workload as it runs.
//!
//! Arguments draw from the rng in declaration order, one draw each, so a
//! spec fixes its transaction stream bit for bit: same seed, same
//! stream, same simulated history.  `tests/workload_spec.rs` pins the
//! streams of YCSB A–F and SimpleAb to digests recorded from the
//! hand-written generators these specs replaced.
//!
//! Malformed specs are rejected at load with typed [`SpecError`]s
//! (zero-weight mixes, dangling table references, out-of-range key
//! domains, empty tables, rows wider than a record holds, unknown ops or
//! arguments), never at run time.
//!
//! ```
//! use atrapos_engine::Workload;
//! use atrapos_workloads::spec::WorkloadSpec;
//!
//! let json = r#"{
//!   "name": "tiny-reads",
//!   "tables": [{ "name": "t", "keys": 1000, "sub_rows": 1, "payload_fields": 1 }],
//!   "templates": [{
//!     "name": "Read",
//!     "weight": 1.0,
//!     "args": [{ "Key": { "name": "k", "table": "t", "distribution": "Uniform" } }],
//!     "phases": [{ "ops": [{ "Read": { "table": "t", "key": ["k"] } }] }]
//!   }]
//! }"#;
//! let mut w = WorkloadSpec::from_json(json).unwrap().compile().unwrap();
//! let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(42);
//! let txn = w.next_transaction(&mut rng, atrapos_numa::CoreId(0));
//! assert_eq!(txn.class, "Read");
//! assert_eq!(txn.phases.len(), 1);
//! ```

use crate::generator::{KeyDistribution, KeySampler, Mix};
use atrapos_core::{KeyDomain, ZipfianDomainTooLarge, MAX_ZIPFIAN_DOMAIN};
use atrapos_engine::workload::{ensure_tables, ReconfigureError, WorkloadChange};
use atrapos_engine::{Action, ActionOp, TableSpec, TransactionSpec, Workload};
use atrapos_numa::CoreId;
use atrapos_storage::record::MAX_COLUMNS;
use atrapos_storage::{Column, ColumnType, Database, Key, Record, Schema, TableId};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Most rows a spec may declare, summed over its tables: `populate` loads
/// every one of them, so a larger spec would run the host out of memory
/// instead of failing validation.  The largest shipped spec has 1 M rows.
pub const MAX_SPEC_ROWS: i64 = 1 << 26;

// ---------------------------------------------------------------------
// The spec vocabulary
// ---------------------------------------------------------------------

/// One table of a spec workload.
///
/// `keys` head keys make up the domain `[0, keys)`.  With `sub_rows = 1`
/// the table has a single-column integer primary key and `keys` rows;
/// with `sub_rows > 1` the primary key is the composite
/// `(head, sub)` with `sub` in `[0, sub_rows)`, for `keys × sub_rows`
/// rows — the SimpleAb "B holds N rows per A row" shape.  `parent`
/// declares that the head key references another table's head key, which
/// the placement advisor uses to co-locate the correlated partitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableDef {
    /// Table name (referenced by templates and `parent` links).
    pub name: String,
    /// Distinct head keys; the key domain is `[0, keys)`.
    pub keys: i64,
    /// Rows per head key (`1` = plain single-column primary key).
    pub sub_rows: i64,
    /// Integer payload columns after the key column(s); with them a row
    /// has at most [`MAX_COLUMNS`] columns.
    pub payload_fields: usize,
    /// Head keys reference this table's head keys (foreign key).
    pub parent: Option<String>,
}

/// One drawn argument of a transaction template.  Arguments draw from
/// the rng **in declaration order**, one draw each — this is what fixes a
/// spec's transaction stream for a given seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArgDef {
    /// A head key of `table`, drawn from `distribution` over the table's
    /// key domain (compiled to a precomputed [`KeySampler`]).
    Key {
        /// Argument name (referenced by ops).
        name: String,
        /// The table whose domain is sampled.
        table: String,
        /// How the key is drawn.
        distribution: KeyDistribution,
    },
    /// A head key of `table` ranked backwards from its insert cursor: a
    /// draw `r` from `distribution` names key `cursor - 1 - r` (clamped
    /// at 0), so rank 0 is the newest key — YCSB workload D's "read
    /// latest".
    LatestKey {
        /// Argument name (referenced by ops).
        name: String,
        /// The table whose newest keys are sampled.
        table: String,
        /// How the rank is drawn.
        distribution: KeyDistribution,
    },
    /// An integer drawn uniformly from `[lo, hi)`.
    Uniform {
        /// Argument name (referenced by ops).
        name: String,
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
}

impl ArgDef {
    /// The argument's name.
    pub fn name(&self) -> &str {
        match self {
            ArgDef::Key { name, .. }
            | ArgDef::LatestKey { name, .. }
            | ArgDef::Uniform { name, .. } => name,
        }
    }
}

/// One operation of a template phase.  Key references name arguments;
/// a single-column key is `["k"]`, a composite key `["a", "b"]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpDef {
    /// Read one record by key.
    Read {
        /// Target table.
        table: String,
        /// Key argument name(s), matching the table's key arity.
        key: Vec<String>,
    },
    /// Overwrite one field of one record: column index `field` (a
    /// `Uniform` argument ranging over the table's payload columns, never
    /// a key column) is set to the integer value of argument `value`.
    Update {
        /// Target table.
        table: String,
        /// Key argument name(s).
        key: Vec<String>,
        /// Argument naming the column index to overwrite.
        field: String,
        /// Argument providing the new value.
        value: String,
    },
    /// Read the head-key range `[key, key + len)` (at most `len`
    /// records); `len` is a `Uniform` argument with `lo ≥ 1`.
    Scan {
        /// Target table.
        table: String,
        /// Argument naming the range start (head key).
        key: String,
        /// Argument naming the range length.
        len: String,
    },
    /// Insert a new record at the tail of the keyspace (the per-table
    /// insert cursor starts at `keys` and grows monotonically, exactly
    /// like YCSB's tail inserts).  Plain tables only.
    Insert {
        /// Target table.
        table: String,
    },
}

/// One phase of a template: its ops run in parallel and synchronize at
/// the phase boundary.  `sync_bytes` overrides the default
/// synchronization payload of one cache line (64 B) per op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseDef {
    /// The phase's operations.
    pub ops: Vec<OpDef>,
    /// Synchronization payload override (`null` = 64 B per op).
    pub sync_bytes: Option<u64>,
}

/// One weighted transaction template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplateDef {
    /// Template name — becomes the transaction class.
    pub name: String,
    /// Mix weight (ratios matter, not the sum; `0` excludes the template
    /// from the standard mix but keeps it addressable by
    /// `WorkloadChange::SingleTransaction`).
    pub weight: f64,
    /// Drawn arguments, in rng draw order.
    pub args: Vec<ArgDef>,
    /// Phases in execution order.
    pub phases: Vec<PhaseDef>,
}

/// A complete declarative workload: tables plus weighted transaction
/// templates.  Serializable, validated at load, compiled by
/// [`WorkloadSpec::compile`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name (reported by `Workload::name`).
    pub name: String,
    /// The tables, in [`TableId`] order.
    pub tables: Vec<TableDef>,
    /// The transaction templates.
    pub templates: Vec<TemplateDef>,
}

// ---------------------------------------------------------------------
// Typed validation errors
// ---------------------------------------------------------------------

/// Why a spec was rejected at load time.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The JSON did not parse into the spec vocabulary (including
    /// unknown op or argument variants).
    Parse {
        /// The underlying parse error.
        message: String,
    },
    /// The spec declares no tables.
    NoTables,
    /// The spec declares no templates.
    NoTemplates,
    /// Two tables share a name.
    DuplicateTable {
        /// The repeated name.
        table: String,
    },
    /// A table declares no rows (`keys < 1` or `sub_rows < 1`).
    EmptyTable {
        /// The offending table.
        table: String,
    },
    /// The spec's row count (`keys × sub_rows`, summed over the tables)
    /// passes [`MAX_SPEC_ROWS`]; reported at the table where it overflows
    /// an `i64`, if it does, and otherwise where it passes the cap.
    TooManyRows {
        /// The offending table.
        table: String,
    },
    /// A table's key column(s) plus `payload_fields` exceed the
    /// [`MAX_COLUMNS`] a record holds.
    TooManyColumns {
        /// The offending table.
        table: String,
    },
    /// A `parent` link or op references a table the spec never declares.
    UnknownTable {
        /// Where the dangling reference sits (template or table name).
        context: String,
        /// The missing table name.
        table: String,
    },
    /// A child table's key domain exceeds its parent's (its head keys
    /// could reference rows that do not exist).
    DomainExceedsParent {
        /// The child table.
        table: String,
        /// Its declared parent.
        parent: String,
    },
    /// A `Zipfian` argument samples a domain too large to materialize.
    ZipfianDomain {
        /// The template declaring the argument.
        template: String,
        /// The oversized table.
        table: String,
    },
    /// Two templates share a name.
    DuplicateTemplate {
        /// The repeated name.
        template: String,
    },
    /// A template weight is negative.
    NegativeWeight {
        /// The offending template.
        template: String,
    },
    /// The template weights sum to zero — the mix describes no workload.
    ZeroWeightSum,
    /// A template has no phases.
    EmptyTemplate {
        /// The offending template.
        template: String,
    },
    /// A phase has no ops.
    EmptyPhase {
        /// The offending template.
        template: String,
    },
    /// Two arguments of one template share a name.
    DuplicateArg {
        /// The template.
        template: String,
        /// The repeated argument name.
        arg: String,
    },
    /// A `Uniform` argument's range `[lo, hi)` is empty.
    EmptyRange {
        /// The template.
        template: String,
        /// The offending argument.
        arg: String,
    },
    /// An op references an argument the template never declares.
    UnknownArg {
        /// The template.
        template: String,
        /// The missing argument name.
        arg: String,
    },
    /// An op's key reference does not match the table's key arity.
    KeyArity {
        /// The template.
        template: String,
        /// The table.
        table: String,
        /// The table's key arity (1 or 2).
        expected: usize,
        /// The op's key reference length.
        got: usize,
    },
    /// An update's `field` argument is not a `Uniform` bounded inside
    /// the table's payload columns (it is unbounded, or reaches a key
    /// column or past the last column).
    FieldOutOfRange {
        /// The template.
        template: String,
        /// The table.
        table: String,
        /// The offending argument.
        arg: String,
    },
    /// A scan's `len` argument is not a `Uniform` with `lo ≥ 1`.
    BadScanLength {
        /// The template.
        template: String,
        /// The offending argument.
        arg: String,
    },
    /// An insert targets a composite-key (child) table.
    InsertIntoChild {
        /// The template.
        template: String,
        /// The table.
        table: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { message } => write!(f, "spec does not parse: {message}"),
            SpecError::NoTables => write!(f, "spec declares no tables"),
            SpecError::NoTemplates => write!(f, "spec declares no templates"),
            SpecError::DuplicateTable { table } => {
                write!(f, "table '{table}' is declared twice")
            }
            SpecError::EmptyTable { table } => {
                write!(
                    f,
                    "table '{table}' is empty (keys and sub_rows must be >= 1)"
                )
            }
            SpecError::TooManyRows { table } => write!(
                f,
                "table '{table}' takes the spec's row count (keys x sub_rows, summed over \
                 the tables) past the cap of {MAX_SPEC_ROWS} rows"
            ),
            SpecError::TooManyColumns { table } => write!(
                f,
                "table '{table}' has more than {MAX_COLUMNS} columns (key plus payload_fields)"
            ),
            SpecError::UnknownTable { context, table } => {
                write!(f, "'{context}' references unknown table '{table}'")
            }
            SpecError::DomainExceedsParent { table, parent } => write!(
                f,
                "table '{table}' has more head keys than its parent '{parent}'"
            ),
            SpecError::ZipfianDomain { template, table } => write!(
                f,
                "template '{template}': Zipfian argument over table '{table}' \
                 exceeds the {MAX_ZIPFIAN_DOMAIN}-key cap"
            ),
            SpecError::DuplicateTemplate { template } => {
                write!(f, "template '{template}' is declared twice")
            }
            SpecError::NegativeWeight { template } => {
                write!(f, "template '{template}' has a negative weight")
            }
            SpecError::ZeroWeightSum => {
                write!(f, "template weights must sum to a positive value")
            }
            SpecError::EmptyTemplate { template } => {
                write!(f, "template '{template}' has no phases")
            }
            SpecError::EmptyPhase { template } => {
                write!(f, "template '{template}' has a phase with no ops")
            }
            SpecError::DuplicateArg { template, arg } => {
                write!(f, "template '{template}' declares argument '{arg}' twice")
            }
            SpecError::EmptyRange { template, arg } => write!(
                f,
                "template '{template}': argument '{arg}' has an empty range"
            ),
            SpecError::UnknownArg { template, arg } => write!(
                f,
                "template '{template}' references unknown argument '{arg}'"
            ),
            SpecError::KeyArity {
                template,
                table,
                expected,
                got,
            } => write!(
                f,
                "template '{template}': table '{table}' has a {expected}-column key, \
                 the op references {got} argument(s)"
            ),
            SpecError::FieldOutOfRange {
                template,
                table,
                arg,
            } => write!(
                f,
                "template '{template}': field argument '{arg}' must be a Uniform \
                 bounded inside table '{table}'s payload columns"
            ),
            SpecError::BadScanLength { template, arg } => write!(
                f,
                "template '{template}': scan length '{arg}' must be a Uniform with lo >= 1"
            ),
            SpecError::InsertIntoChild { template, table } => write!(
                f,
                "template '{template}': cannot insert into composite-key table '{table}'"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

impl WorkloadSpec {
    /// Parse a spec from JSON (no validation beyond the vocabulary; call
    /// [`WorkloadSpec::validate`] or [`WorkloadSpec::compile`] next).
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        serde::json::from_str(text).map_err(|e| SpecError::Parse {
            message: e.to_string(),
        })
    }

    /// Serialize the spec as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// The index of `name` in the table list.
    fn table_index(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.name == name)
    }

    /// The key arity of table `i` (1, or 2 for composite child tables).
    fn key_arity(&self, i: usize) -> usize {
        if self.tables[i].sub_rows > 1 {
            2
        } else {
            1
        }
    }

    /// Total columns of table `i` (key column(s) plus payload fields).
    fn columns(&self, i: usize) -> usize {
        self.key_arity(i) + self.tables[i].payload_fields
    }

    /// Check every structural rule; compiled specs cannot fail at run
    /// time.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.tables.is_empty() {
            return Err(SpecError::NoTables);
        }
        if self.templates.is_empty() {
            return Err(SpecError::NoTemplates);
        }
        let mut rows = 0i64;
        let mut past_cap = None;
        for (i, t) in self.tables.iter().enumerate() {
            if self.tables[..i].iter().any(|o| o.name == t.name) {
                return Err(SpecError::DuplicateTable {
                    table: t.name.clone(),
                });
            }
            if t.keys < 1 || t.sub_rows < 1 {
                return Err(SpecError::EmptyTable {
                    table: t.name.clone(),
                });
            }
            rows = t
                .keys
                .checked_mul(t.sub_rows)
                .and_then(|r| rows.checked_add(r))
                .ok_or_else(|| SpecError::TooManyRows {
                    table: t.name.clone(),
                })?;
            if rows > MAX_SPEC_ROWS && past_cap.is_none() {
                past_cap = Some(t.name.clone());
            }
            // Compared this way round, a huge `payload_fields` cannot
            // overflow the column count.
            if t.payload_fields > MAX_COLUMNS - self.key_arity(i) {
                return Err(SpecError::TooManyColumns {
                    table: t.name.clone(),
                });
            }
            if let Some(parent) = &t.parent {
                let p = self
                    .table_index(parent)
                    .ok_or_else(|| SpecError::UnknownTable {
                        context: t.name.clone(),
                        table: parent.clone(),
                    })?;
                if t.keys > self.tables[p].keys {
                    return Err(SpecError::DomainExceedsParent {
                        table: t.name.clone(),
                        parent: parent.clone(),
                    });
                }
            }
        }
        if let Some(table) = past_cap {
            return Err(SpecError::TooManyRows { table });
        }
        let mut total = 0.0f64;
        for (i, tpl) in self.templates.iter().enumerate() {
            if self.templates[..i].iter().any(|o| o.name == tpl.name) {
                return Err(SpecError::DuplicateTemplate {
                    template: tpl.name.clone(),
                });
            }
            if tpl.weight < 0.0 {
                return Err(SpecError::NegativeWeight {
                    template: tpl.name.clone(),
                });
            }
            total += tpl.weight;
            self.validate_template(tpl)?;
        }
        // NaN weights (which slip past the negative check) must also land
        // here, so test "not strictly positive" rather than `<= 0.0`.
        if total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(SpecError::ZeroWeightSum);
        }
        Ok(())
    }

    fn validate_template(&self, tpl: &TemplateDef) -> Result<(), SpecError> {
        let name = || tpl.name.clone();
        if tpl.phases.is_empty() {
            return Err(SpecError::EmptyTemplate { template: name() });
        }
        for (i, arg) in tpl.args.iter().enumerate() {
            if tpl.args[..i].iter().any(|o| o.name() == arg.name()) {
                return Err(SpecError::DuplicateArg {
                    template: name(),
                    arg: arg.name().to_string(),
                });
            }
            match arg {
                ArgDef::Key {
                    table,
                    distribution,
                    ..
                }
                | ArgDef::LatestKey {
                    table,
                    distribution,
                    ..
                } => {
                    let t = self
                        .table_index(table)
                        .ok_or_else(|| SpecError::UnknownTable {
                            context: name(),
                            table: table.clone(),
                        })?;
                    if matches!(distribution, KeyDistribution::Zipfian { .. })
                        && self.tables[t].keys > MAX_ZIPFIAN_DOMAIN
                    {
                        return Err(SpecError::ZipfianDomain {
                            template: name(),
                            table: table.clone(),
                        });
                    }
                }
                ArgDef::Uniform { name: arg, lo, hi } => {
                    if lo >= hi {
                        return Err(SpecError::EmptyRange {
                            template: name(),
                            arg: arg.clone(),
                        });
                    }
                }
            }
        }
        let arg_of = |a: &str| tpl.args.iter().find(|x| x.name() == a);
        let resolve = |a: &str| {
            arg_of(a).ok_or_else(|| SpecError::UnknownArg {
                template: name(),
                arg: a.to_string(),
            })
        };
        for phase in &tpl.phases {
            if phase.ops.is_empty() {
                return Err(SpecError::EmptyPhase { template: name() });
            }
            for op in &phase.ops {
                let table = match op {
                    OpDef::Read { table, .. }
                    | OpDef::Update { table, .. }
                    | OpDef::Scan { table, .. }
                    | OpDef::Insert { table } => table,
                };
                let t = self
                    .table_index(table)
                    .ok_or_else(|| SpecError::UnknownTable {
                        context: name(),
                        table: table.clone(),
                    })?;
                let check_key = |key: &[String]| -> Result<(), SpecError> {
                    if key.len() != self.key_arity(t) {
                        return Err(SpecError::KeyArity {
                            template: name(),
                            table: table.clone(),
                            expected: self.key_arity(t),
                            got: key.len(),
                        });
                    }
                    for a in key {
                        resolve(a)?;
                    }
                    Ok(())
                };
                match op {
                    OpDef::Read { key, .. } => check_key(key)?,
                    OpDef::Update {
                        key, field, value, ..
                    } => {
                        check_key(key)?;
                        match resolve(field)? {
                            // Column indices below the key arity are
                            // the primary key: overwriting one leaves a
                            // record filed under a key it no longer holds.
                            ArgDef::Uniform { lo, hi, .. }
                                if *lo >= self.key_arity(t) as i64
                                    && *hi <= self.columns(t) as i64 => {}
                            _ => {
                                return Err(SpecError::FieldOutOfRange {
                                    template: name(),
                                    table: table.clone(),
                                    arg: field.clone(),
                                })
                            }
                        }
                        resolve(value)?;
                    }
                    OpDef::Scan { key, len, .. } => {
                        // Scans range over head keys, so a single
                        // argument regardless of arity.
                        resolve(key)?;
                        match resolve(len)? {
                            ArgDef::Uniform { lo, .. } if *lo >= 1 => {}
                            _ => {
                                return Err(SpecError::BadScanLength {
                                    template: name(),
                                    arg: len.clone(),
                                })
                            }
                        }
                    }
                    OpDef::Insert { .. } => {
                        if self.key_arity(t) != 1 {
                            return Err(SpecError::InsertIntoChild {
                                template: name(),
                                table: table.clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Validate and compile the spec onto the precomputed-sampler +
    /// buffer-reuse hot path.
    pub fn compile(&self) -> Result<CompiledWorkload, SpecError> {
        CompiledWorkload::compile(self.clone())
    }
}

// ---------------------------------------------------------------------
// The compiled form
// ---------------------------------------------------------------------

/// A compiled argument: ready to draw without allocation.
#[derive(Debug, Clone)]
enum CompiledArg {
    /// A draw from `samplers[sampler]`.
    Key { sampler: usize },
    /// The same draw, counted backwards from the sampled table's insert
    /// cursor.
    LatestKey { sampler: usize },
    /// A uniform integer draw from `[lo, hi)`.
    Uniform { lo: i64, hi: i64 },
}

/// A precomputed sampler over one table's key domain, shared by every key
/// argument that draws that table with that distribution: a stateful
/// distribution (the drifting hot window) then advances once per draw of
/// the *workload*, whichever template drew, and a Zipfian table is built
/// once per table rather than once per template.
#[derive(Debug, Clone)]
struct SharedSampler {
    table: usize,
    sampler: KeySampler,
}

/// The slot of the sampler for `distribution` over `table`'s `keys`,
/// built on first use.
fn sampler_slot(
    samplers: &mut Vec<SharedSampler>,
    table: usize,
    keys: i64,
    distribution: KeyDistribution,
) -> Result<usize, ZipfianDomainTooLarge> {
    if let Some(shared) = samplers
        .iter()
        .position(|s| s.table == table && s.sampler.distribution() == distribution)
    {
        return Ok(shared);
    }
    samplers.push(SharedSampler {
        table,
        sampler: distribution.try_sampler(0, keys)?,
    });
    Ok(samplers.len() - 1)
}

/// How an op finds its key in the drawn-argument buffer.
#[derive(Debug, Clone, Copy)]
enum KeySlot {
    /// Single-column key: argument index.
    One(usize),
    /// Composite key: (head, sub) argument indices.
    Two(usize, usize),
}

/// A compiled op: argument and table references resolved to indices.
#[derive(Debug, Clone)]
enum CompiledOp {
    Read {
        table: TableId,
        key: KeySlot,
    },
    Update {
        table: TableId,
        key: KeySlot,
        field: usize,
        value: usize,
    },
    Scan {
        table: TableId,
        key: usize,
        len: usize,
    },
    Insert {
        table: usize,
    },
}

/// A compiled template: leaked class name (once, at compile time),
/// arguments in draw order, resolved phases.
#[derive(Debug, Clone)]
struct CompiledTemplate {
    class: &'static str,
    args: Vec<CompiledArg>,
    phases: Vec<(Vec<CompiledOp>, Option<u64>)>,
}

/// Shape of one compiled table (population and insert-cursor data).
#[derive(Debug, Clone)]
struct CompiledTable {
    keys: i64,
    sub_rows: i64,
    payload_fields: usize,
    parent: Option<usize>,
}

/// A [`WorkloadSpec`] compiled onto the allocation-free generation hot
/// path.  The spec is retained and reconfigurations write through to it,
/// so [`CompiledWorkload::spec`] always describes the workload as it
/// currently runs.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    spec: WorkloadSpec,
    tables: Vec<CompiledTable>,
    templates: Vec<CompiledTemplate>,
    /// The key samplers the templates' arguments index into.
    samplers: Vec<SharedSampler>,
    /// Template selection by index; rebuilt on mix reconfigurations.
    mix: Mix<usize>,
    /// Per-table next insert key (starts at `keys`, grows monotonically).
    insert_cursors: Vec<i64>,
    /// Reusable buffer of drawn argument values.
    arg_buf: Vec<i64>,
}

impl CompiledWorkload {
    /// Validate `spec` and compile it.
    fn compile(spec: WorkloadSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        let tables: Vec<CompiledTable> = spec
            .tables
            .iter()
            .map(|t| CompiledTable {
                keys: t.keys,
                sub_rows: t.sub_rows,
                payload_fields: t.payload_fields,
                parent: t.parent.as_deref().and_then(|p| spec.table_index(p)),
            })
            .collect();
        let mut samplers = Vec::new();
        let templates: Vec<CompiledTemplate> = spec
            .templates
            .iter()
            .map(|tpl| Self::compile_template(&spec, tpl, &mut samplers))
            .collect();
        let mix = standard_mix(&spec);
        let insert_cursors = tables.iter().map(|t| t.keys).collect();
        Ok(Self {
            spec,
            tables,
            templates,
            samplers,
            mix,
            insert_cursors,
            arg_buf: Vec::new(),
        })
    }

    /// Compile one (already validated) template.
    fn compile_template(
        spec: &WorkloadSpec,
        tpl: &TemplateDef,
        samplers: &mut Vec<SharedSampler>,
    ) -> CompiledTemplate {
        // The transaction class is a `&'static str` throughout the
        // engine: a template name is leaked here once, never per
        // transaction.
        let class: &'static str = Box::leak(tpl.name.clone().into_boxed_str());
        let arg_index = |a: &str| {
            tpl.args
                .iter()
                .position(|x| x.name() == a)
                .expect("validated arg reference")
        };
        let mut sampler = |table: &str, distribution: KeyDistribution| {
            let table = spec.table_index(table).expect("validated table reference");
            sampler_slot(samplers, table, spec.tables[table].keys, distribution)
                .expect("validated Zipfian domain")
        };
        let args = tpl
            .args
            .iter()
            .map(|arg| match arg {
                ArgDef::Key {
                    table,
                    distribution,
                    ..
                } => CompiledArg::Key {
                    sampler: sampler(table, *distribution),
                },
                ArgDef::LatestKey {
                    table,
                    distribution,
                    ..
                } => CompiledArg::LatestKey {
                    sampler: sampler(table, *distribution),
                },
                ArgDef::Uniform { lo, hi, .. } => CompiledArg::Uniform { lo: *lo, hi: *hi },
            })
            .collect();
        let phases = tpl
            .phases
            .iter()
            .map(|phase| {
                let ops = phase
                    .ops
                    .iter()
                    .map(|op| {
                        let table =
                            |name: &str| spec.table_index(name).expect("validated table reference");
                        match op {
                            OpDef::Read { table: t, key } => CompiledOp::Read {
                                table: TableId(table(t) as u32),
                                key: key_slot(key, &arg_index),
                            },
                            OpDef::Update {
                                table: t,
                                key,
                                field,
                                value,
                            } => CompiledOp::Update {
                                table: TableId(table(t) as u32),
                                key: key_slot(key, &arg_index),
                                field: arg_index(field),
                                value: arg_index(value),
                            },
                            OpDef::Scan { table: t, key, len } => CompiledOp::Scan {
                                table: TableId(table(t) as u32),
                                key: arg_index(key),
                                len: arg_index(len),
                            },
                            OpDef::Insert { table: t } => CompiledOp::Insert { table: table(t) },
                        }
                    })
                    .collect();
                (ops, phase.sync_bytes)
            })
            .collect();
        CompiledTemplate {
            class,
            args,
            phases,
        }
    }

    /// The spec as it currently runs (reconfigurations write through).
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The template class names, in declaration order.
    pub fn classes(&self) -> Vec<&'static str> {
        self.templates.iter().map(|t| t.class).collect()
    }

    /// Set every key argument's distribution and rebuild the samplers
    /// (one per sampled table from here on).  A Zipfian distribution over a
    /// table larger than the sampler's cap is refused, and the workload
    /// keeps its previous distribution.
    pub fn set_distribution(&mut self, d: KeyDistribution) -> Result<(), ReconfigureError> {
        // Rebuild into copies, so a refusal leaves the workload untouched.
        let mut samplers = Vec::new();
        let mut templates = self.templates.clone();
        for tpl in &mut templates {
            for arg in &mut tpl.args {
                if let CompiledArg::Key { sampler } | CompiledArg::LatestKey { sampler } = arg {
                    let table = self.samplers[*sampler].table;
                    let keys = self.spec.tables[table].keys;
                    *sampler = sampler_slot(&mut samplers, table, keys, d).map_err(|source| {
                        ReconfigureError::ZipfianDomain {
                            workload: self.spec.name.clone(),
                            source,
                        }
                    })?;
                }
            }
        }
        self.templates = templates;
        self.samplers = samplers;
        for tpl in &mut self.spec.templates {
            for arg in &mut tpl.args {
                if let ArgDef::Key { distribution, .. } | ArgDef::LatestKey { distribution, .. } =
                    arg
                {
                    *distribution = d;
                }
            }
        }
        Ok(())
    }
}

/// The standard mix over template indices: positive-weight templates in
/// declaration order.
fn standard_mix(spec: &WorkloadSpec) -> Mix<usize> {
    Mix::new(
        spec.templates
            .iter()
            .enumerate()
            .filter(|(_, t)| t.weight > 0.0)
            .map(|(i, t)| (i, t.weight))
            .collect(),
    )
}

/// Resolve a key reference to argument-buffer slots.
fn key_slot(key: &[String], arg_index: &dyn Fn(&str) -> usize) -> KeySlot {
    match key {
        [a] => KeySlot::One(arg_index(a)),
        [a, b] => KeySlot::Two(arg_index(a), arg_index(b)),
        _ => unreachable!("validated key arity"),
    }
}

/// Build the storage key for a slot from the drawn arguments.
fn key_of(slot: KeySlot, args: &[i64]) -> Key {
    match slot {
        KeySlot::One(a) => Key::int(args[a]),
        KeySlot::Two(a, b) => Key::ints(&[args[a], args[b]]),
    }
}

/// Hand `f` the integers stored under head key `k` of a plain table: the
/// key column plus `payload_fields` integer fields.
fn with_plain_row<R>(k: i64, payload_fields: usize, f: impl FnOnce(&[i64]) -> R) -> R {
    let mut values = [0; MAX_COLUMNS];
    values[0] = k;
    for (f, v) in (0..).zip(&mut values[1..=payload_fields]) {
        *v = k * 10 + f;
    }
    f(&values[..1 + payload_fields])
}

/// Hand `f` the integers stored under `(i, j)` of a composite-key table.
fn with_composite_row<R>(i: i64, j: i64, payload_fields: usize, f: impl FnOnce(&[i64]) -> R) -> R {
    let mut values = [0; MAX_COLUMNS];
    values[..2].copy_from_slice(&[i, j]);
    for (f, v) in (0..).zip(&mut values[2..2 + payload_fields]) {
        *v = i * 100 + j + f;
    }
    f(&values[..2 + payload_fields])
}

impl Workload for CompiledWorkload {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn tables(&self) -> Vec<TableSpec> {
        self.spec
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let composite = t.sub_rows > 1;
                let mut columns = if composite {
                    vec![
                        Column::new("pk_head", ColumnType::Int),
                        Column::new("pk_sub", ColumnType::Int),
                    ]
                } else {
                    vec![Column::new("id", ColumnType::Int)]
                };
                for f in 0..t.payload_fields {
                    columns.push(Column::new(format!("f{f}"), ColumnType::Int));
                }
                let pk = if composite { vec![0, 1] } else { vec![0] };
                let mut schema = Schema::new(t.name.clone(), columns, pk);
                if let Some(p) = self.tables[i].parent {
                    schema = schema.with_foreign_key(vec![0], TableId(p as u32));
                }
                TableSpec {
                    id: TableId(i as u32),
                    schema,
                    domain: KeyDomain::new(0, t.keys),
                    rows: (t.keys * t.sub_rows) as u64,
                }
            })
            .collect()
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        ensure_tables(self, db);
        for (i, t) in self.tables.iter().enumerate() {
            let id = TableId(i as u32);
            let table = db.table_mut(id).expect("spec table exists");
            if t.sub_rows > 1 {
                for k in 0..t.keys {
                    for j in 0..t.sub_rows {
                        let key = Key::ints(&[k, j]);
                        if filter(id, &key) {
                            with_composite_row(k, j, t.payload_fields, |row| table.load_cells(row))
                                .expect("unique keys");
                        }
                    }
                }
            } else {
                for k in 0..t.keys {
                    let key = Key::int(k);
                    if filter(id, &key) {
                        with_plain_row(k, t.payload_fields, |row| table.load_cells(row))
                            .expect("unique keys");
                    }
                }
            }
        }
    }

    // Once per generated transaction of YCSB, SimpleAb and every spec
    // file.
    // lint: hot-path
    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        _client: CoreId,
        out: &mut TransactionSpec,
    ) {
        // A single-template spec consumes no mix draw; multi-template
        // specs always pick, even through a `Mix::single`
        // reconfiguration.  Both are part of the pinned streams.
        let t = if self.templates.len() == 1 {
            0
        } else {
            self.mix.pick(rng)
        };
        let Self {
            tables,
            templates,
            samplers,
            insert_cursors,
            arg_buf,
            ..
        } = self;
        let tpl = &templates[t];
        // Arguments draw in declaration order — the contract that fixes
        // a spec's rng stream bit for bit.
        arg_buf.clear();
        for arg in &tpl.args {
            arg_buf.push(match arg {
                CompiledArg::Key { sampler } => samplers[*sampler].sampler.sample(rng),
                // Rank 0 = the newest key (the last insert, or the last
                // loaded record before any insert happened).
                CompiledArg::LatestKey { sampler } => {
                    let shared = &mut samplers[*sampler];
                    (insert_cursors[shared.table] - 1 - shared.sampler.sample(rng)).max(0)
                }
                CompiledArg::Uniform { lo, hi } => rng.gen_range(*lo..*hi),
            });
        }
        let mut w = out.refill(tpl.class);
        for (ops, _) in &tpl.phases {
            let phase = w.phase();
            for op in ops {
                phase.push(match op {
                    CompiledOp::Read { table, key } => Action::new(ActionOp::Read {
                        table: *table,
                        key: key_of(*key, arg_buf),
                    }),
                    CompiledOp::Update {
                        table,
                        key,
                        field,
                        value,
                    } => Action::new(ActionOp::Update {
                        table: *table,
                        key: key_of(*key, arg_buf),
                        column: arg_buf[*field] as usize,
                        value: arg_buf[*value],
                    }),
                    CompiledOp::Scan { table, key, len } => {
                        let start = arg_buf[*key];
                        let len = arg_buf[*len];
                        Action::new(ActionOp::ReadRange {
                            table: *table,
                            from: Key::int(start),
                            to: Key::int(start + len),
                            limit: len as usize,
                        })
                    }
                    CompiledOp::Insert { table } => {
                        let k = insert_cursors[*table];
                        insert_cursors[*table] += 1;
                        Action::new(ActionOp::Insert {
                            table: TableId(*table as u32),
                            record: with_plain_row(k, tables[*table].payload_fields, Record::ints),
                        })
                    }
                });
            }
        }
        w.finish();
        // Explicit synchronization payloads override the one-cache-line
        // default `finish` installs.
        for (i, (_, sync)) in tpl.phases.iter().enumerate() {
            if let Some(bytes) = sync {
                out.phases[i].sync_bytes = *bytes;
            }
        }
    }

    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        match change {
            WorkloadChange::SingleTransaction { txn } => {
                match self.templates.iter().position(|t| t.class == txn.as_str()) {
                    Some(i) => {
                        self.mix = Mix::single(i);
                        Ok(())
                    }
                    None => Err(ReconfigureError::UnknownTransaction {
                        workload: self.spec.name.clone(),
                        txn: txn.clone(),
                        known: self.classes(),
                    }),
                }
            }
            WorkloadChange::StandardMix => {
                self.mix = standard_mix(&self.spec);
                Ok(())
            }
            WorkloadChange::Distribution { distribution } => self.set_distribution(*distribution),
        }
    }
}

// ---------------------------------------------------------------------
// The paper's two-table workload
// ---------------------------------------------------------------------

/// The two-table SimpleAb transaction of paper §V-A (Figure 6) over
/// `rows_a` A rows: one uniform head key shared by a read of A and a read
/// of B's composite `(pk_a, pk_b)` (four B rows per A row, declared as
/// A's child so the placement advisor can co-locate them), with a
/// 96-byte synchronization payload.  `SimpleAb::new` runs exactly this.
pub fn simple_ab(rows_a: i64) -> WorkloadSpec {
    WorkloadSpec {
        name: "simple-ab-spec".to_string(),
        tables: vec![
            TableDef {
                name: "A".to_string(),
                keys: rows_a,
                sub_rows: 1,
                payload_fields: 1,
                parent: None,
            },
            TableDef {
                name: "B".to_string(),
                keys: rows_a,
                sub_rows: 4,
                payload_fields: 1,
                parent: Some("A".to_string()),
            },
        ],
        templates: vec![TemplateDef {
            name: "simple-ab".to_string(),
            weight: 1.0,
            args: vec![
                ArgDef::Key {
                    name: "a".to_string(),
                    table: "A".to_string(),
                    distribution: KeyDistribution::Uniform,
                },
                ArgDef::Uniform {
                    name: "b".to_string(),
                    lo: 0,
                    hi: 4,
                },
            ],
            phases: vec![PhaseDef {
                ops: vec![
                    OpDef::Read {
                        table: "A".to_string(),
                        key: vec!["a".to_string()],
                    },
                    OpDef::Read {
                        table: "B".to_string(),
                        key: vec!["a".to_string(), "b".to_string()],
                    },
                ],
                sync_bytes: Some(96),
            }],
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::YcsbConfig;
    use rand::SeedableRng;

    /// YCSB core mix A over `records` keys: the multi-template spec most
    /// of these tests poke at (`templates[0]` reads, `templates[1]`
    /// updates).
    fn ycsb_a(records: i64) -> WorkloadSpec {
        YcsbConfig::workload_a(records).spec()
    }

    /// FNV-1a digest of `n` transactions' debug representations — the
    /// PR-8 spec-stream technique: any drift in class, phases, sync
    /// bytes, keys, or drawn values changes the digest.
    fn spec_stream_digest(w: &mut dyn Workload, seed: u64, n: usize) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..n {
            let spec = w.next_transaction(&mut rng, CoreId((i % 4) as u32));
            for byte in format!("{spec:?}").bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    // The hand-written `Ycsb` and `SimpleAb` generators these specs
    // replaced were the oracle of the next four tests; the digests below
    // were recorded from them at commit d2462b7 (`tests/workload_spec.rs`
    // pins all six YCSB mixes the same way).  Streams holding an update
    // were re-pinned for `ActionOp::Update`'s one-cell debug form: the
    // recorded streams with `changes: [(c, Int(v))]` rewritten as
    // `column: c, value: v` give exactly these constants.

    #[test]
    fn ycsb_a_spec_digest_matches_hand_rolled() {
        for (seed, hand) in [
            (42u64, 0xe8de_4f8e_4a05_efb4u64),
            (1337, 0x4a97_70b9_c761_ba72),
        ] {
            let mut spec = ycsb_a(2_000).compile().unwrap();
            assert_eq!(
                spec_stream_digest(&mut spec, seed, 300),
                hand,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn simple_ab_spec_digest_matches_hand_rolled() {
        for (seed, hand) in [
            (42u64, 0xb3d3_7724_836b_97d7u64),
            (1337, 0x3c0d_0d3b_6177_dc77),
        ] {
            let mut spec = simple_ab(1_000).compile().unwrap();
            assert_eq!(
                spec_stream_digest(&mut spec, seed, 300),
                hand,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn generation_into_buffer_matches_by_value_generation() {
        let mut a = ycsb_a(1_000).compile().unwrap();
        let mut b = ycsb_a(1_000).compile().unwrap();
        let mut rng_a = SmallRng::seed_from_u64(3);
        let mut rng_b = SmallRng::seed_from_u64(3);
        let mut buf = TransactionSpec::empty();
        for _ in 0..200 {
            let by_value = a.next_transaction(&mut rng_a, CoreId(0));
            b.next_transaction_into(&mut rng_b, CoreId(0), &mut buf);
            assert_eq!(by_value, buf);
        }
    }

    #[test]
    fn sync_bytes_override_survives_buffer_reuse() {
        // A 96-byte one-phase transaction followed by a default-payload
        // one must not inherit the override through the reused buffer.
        let mut ab = simple_ab(100).compile().unwrap();
        let mut ycsb = ycsb_a(100).compile().unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        let mut buf = TransactionSpec::empty();
        ab.next_transaction_into(&mut rng, CoreId(0), &mut buf);
        assert_eq!(buf.phases[0].sync_bytes, 96);
        ycsb.next_transaction_into(&mut rng, CoreId(0), &mut buf);
        assert_eq!(buf.phases[0].sync_bytes, 64);
    }

    #[test]
    fn tables_match_hand_rolled_shapes() {
        // The hand-written SimpleAb declared A = `rows` rows and B = 4
        // per A row over the same head-key domain, B referencing A.
        let spec = simple_ab(500).compile().unwrap();
        let tables = spec.tables();
        for (i, (table, rows)) in tables.iter().zip([500, 2_000]).enumerate() {
            assert_eq!(table.id, TableId(i as u32));
            assert_eq!(table.domain, KeyDomain::new(0, 500));
            assert_eq!(table.rows, rows);
        }
        assert!(tables[1].schema.references(TableId(0)));
        let mut db_s = Database::new();
        spec.populate(&mut db_s, &|_, _| true);
        assert_eq!(db_s.table(TableId(0)).unwrap().len(), 500);
        assert_eq!(db_s.table(TableId(1)).unwrap().len(), 2_000);
    }

    #[test]
    fn inserts_append_monotonically_at_the_tail() {
        let mut spec = WorkloadSpec {
            name: "ins".to_string(),
            tables: vec![TableDef {
                name: "t".to_string(),
                keys: 100,
                sub_rows: 1,
                payload_fields: 2,
                parent: None,
            }],
            templates: vec![TemplateDef {
                name: "Insert".to_string(),
                weight: 1.0,
                args: vec![],
                phases: vec![PhaseDef {
                    ops: vec![OpDef::Insert {
                        table: "t".to_string(),
                    }],
                    sync_bytes: None,
                }],
            }],
        }
        .compile()
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut last = 99;
        for _ in 0..20 {
            let txn = spec.next_transaction(&mut rng, CoreId(0));
            let head = txn.phases[0].actions[0].op.routing_key_head();
            assert_eq!(head, last + 1, "inserts must be dense at the tail");
            last = head;
        }
    }

    #[test]
    fn reconfigure_matches_hand_rolled_after_the_same_change() {
        let mut spec = ycsb_a(2_000).compile().unwrap();
        for (change, hand) in [
            (
                WorkloadChange::SingleTransaction {
                    txn: "Update".to_string(),
                },
                0xb2cb_c217_5223_0d9cu64,
            ),
            (
                WorkloadChange::Distribution {
                    distribution: KeyDistribution::Zipfian { theta: 0.4 },
                },
                0xa5cb_c40a_58f6_816f,
            ),
            (WorkloadChange::StandardMix, 0xf2c3_2003_e549_f6f9),
            (
                WorkloadChange::Distribution {
                    distribution: KeyDistribution::Hotspot {
                        data_fraction: 0.2,
                        access_fraction: 0.8,
                    },
                },
                0x11ac_a7ed_d2a9_44ea,
            ),
        ] {
            spec.reconfigure(&change).unwrap();
            assert_eq!(
                spec_stream_digest(&mut spec, 7, 120),
                hand,
                "diverged after {change:?}"
            );
        }
    }

    /// Key arguments with the same table and distribution share one
    /// sampler, so the drifting window moves with the workload's draws,
    /// not with each template's — as it did in the hand-written YCSB
    /// (one sampler for all ops), whose digest under this drift this is.
    #[test]
    fn a_drifting_window_advances_once_per_draw_across_templates() {
        let mut w = ycsb_a(2_000).compile().unwrap();
        w.reconfigure(&WorkloadChange::Distribution {
            distribution: KeyDistribution::Drift {
                data_fraction: 0.1,
                access_fraction: 0.9,
                period_txns: 500,
            },
        })
        .unwrap();
        assert_eq!(w.samplers.len(), 1);
        assert_eq!(spec_stream_digest(&mut w, 42, 300), 0xaeea_ad83_2c80_6551);
    }

    #[test]
    fn reconfigure_rejects_unknown_transactions() {
        let mut w = ycsb_a(500).compile().unwrap();
        let err = w
            .reconfigure(&WorkloadChange::SingleTransaction {
                txn: "NewOrder".to_string(),
            })
            .unwrap_err();
        match err {
            ReconfigureError::UnknownTransaction { known, .. } => {
                assert_eq!(known, vec!["Read", "Update", "Insert", "Scan", "RMW"]);
            }
            other => panic!("expected UnknownTransaction, got {other}"),
        }
    }

    #[test]
    fn a_zipfian_reconfiguration_past_the_cap_is_refused_and_changes_nothing() {
        let spec = simple_ab(10_000_000);
        let mut w = spec.clone().compile().unwrap();
        let err = w
            .reconfigure(&WorkloadChange::Distribution {
                distribution: KeyDistribution::Zipfian { theta: 0.99 },
            })
            .unwrap_err();
        assert!(
            matches!(&err, ReconfigureError::ZipfianDomain { source, .. } if source.keys == 10_000_000),
            "{err}"
        );
        assert_eq!(w.spec(), &spec);
        let mut fresh = spec.compile().unwrap();
        assert_eq!(
            spec_stream_digest(&mut w, 7, 50),
            spec_stream_digest(&mut fresh, 7, 50)
        );
    }

    #[test]
    fn specs_round_trip_through_json() {
        for spec in [ycsb_a(1_234), simple_ab(567)] {
            let back = WorkloadSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec);
        }
    }

    // ---------------------------------------------------------------
    // Negative paths: typed rejection at load time
    // ---------------------------------------------------------------

    #[test]
    fn zero_weight_sum_is_rejected() {
        let mut spec = ycsb_a(100);
        for t in &mut spec.templates {
            t.weight = 0.0;
        }
        assert_eq!(spec.validate(), Err(SpecError::ZeroWeightSum));
    }

    #[test]
    fn unknown_op_fails_to_parse() {
        let json = r#"{
          "name": "bad",
          "tables": [{ "name": "t", "keys": 10, "sub_rows": 1, "payload_fields": 1 }],
          "templates": [{
            "name": "x", "weight": 1.0, "args": [],
            "phases": [{ "ops": [{ "Truncate": { "table": "t" } }] }]
          }]
        }"#;
        match WorkloadSpec::from_json(json) {
            Err(SpecError::Parse { message }) => {
                assert!(message.contains("unknown variant"), "{message}")
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn empty_table_is_rejected() {
        let mut spec = ycsb_a(100);
        spec.tables[0].keys = 0;
        assert_eq!(
            spec.validate(),
            Err(SpecError::EmptyTable {
                table: "usertable".to_string()
            })
        );
    }

    /// `keys × sub_rows` past `i64` — in one table or summed over all — is
    /// a typed error, not an overflow panic when the rows are counted.
    #[test]
    fn row_counts_past_i64_are_rejected() {
        let too_many = Err(SpecError::TooManyRows {
            table: "B".to_string(),
        });
        let mut spec = simple_ab(100);
        spec.tables[1].sub_rows = i64::MAX;
        assert_eq!(spec.validate(), too_many);
        let mut spec = simple_ab(100);
        spec.tables[0].keys = i64::MAX - 100;
        assert_eq!(spec.validate(), too_many);
    }

    /// A spec declares at most `MAX_SPEC_ROWS` rows, summed over its tables:
    /// one row more is a typed error naming the cap and the table where
    /// the count passes it, not a `populate` that runs out of memory.
    #[test]
    fn row_counts_past_the_cap_are_rejected() {
        let too_many = |table: &str| {
            Err(SpecError::TooManyRows {
                table: table.to_string(),
            })
        };
        // Table B holds `keys × sub_rows` = 400 rows.
        let mut spec = simple_ab(100);
        spec.tables[0].keys = MAX_SPEC_ROWS - 400;
        assert_eq!(spec.validate(), Ok(()));
        spec.tables[0].keys += 1;
        assert_eq!(spec.validate(), too_many("B"));
        spec.tables[0].keys = MAX_SPEC_ROWS + 1;
        assert_eq!(spec.validate(), too_many("A"));
        let message = spec.validate().unwrap_err().to_string();
        assert!(message.contains("cap of 67108864 rows"), "{message}");
    }

    /// A row as wide as a record holds loads; one column more — or a
    /// `payload_fields` whose sum with the key would overflow — is a
    /// typed error, not an overflow or an allocation abort in `tables()`.
    #[test]
    fn rows_wider_than_a_record_are_rejected() {
        // Table B of SimpleAb has a two-column key, `usertable` one.
        for (mut spec, table, key_arity) in [(simple_ab(10), 1, 2), (ycsb_a(10), 0, 1)] {
            let name = spec.tables[table].name.clone();
            spec.tables[table].payload_fields = MAX_COLUMNS - key_arity;
            let w = spec.clone().compile().unwrap();
            assert_eq!(w.tables()[table].schema.arity(), MAX_COLUMNS);
            let mut db = Database::new();
            w.populate(&mut db, &|_, _| true);
            let rows = db.table(TableId(table as u32)).unwrap();
            assert!(!rows.is_empty());
            assert!(rows.index().iter().all(|(_, r)| r.arity() == MAX_COLUMNS));
            for payload_fields in [MAX_COLUMNS - key_arity + 1, usize::MAX] {
                spec.tables[table].payload_fields = payload_fields;
                assert_eq!(
                    spec.validate(),
                    Err(SpecError::TooManyColumns {
                        table: name.clone()
                    })
                );
            }
        }
    }

    #[test]
    fn out_of_range_key_domain_is_rejected() {
        let mut spec = simple_ab(100);
        spec.tables[1].keys = 200;
        assert_eq!(
            spec.validate(),
            Err(SpecError::DomainExceedsParent {
                table: "B".to_string(),
                parent: "A".to_string()
            })
        );
    }

    #[test]
    fn dangling_table_references_are_rejected() {
        // A parent link to a table that does not exist…
        let mut spec = simple_ab(100);
        spec.tables[1].parent = Some("Z".to_string());
        assert_eq!(
            spec.validate(),
            Err(SpecError::UnknownTable {
                context: "B".to_string(),
                table: "Z".to_string()
            })
        );
        // …and an op targeting one.
        let mut spec = ycsb_a(100);
        spec.templates[0].phases[0].ops[0] = OpDef::Read {
            table: "ghost".to_string(),
            key: vec!["k".to_string()],
        };
        assert_eq!(
            spec.validate(),
            Err(SpecError::UnknownTable {
                context: "Read".to_string(),
                table: "ghost".to_string()
            })
        );
    }

    #[test]
    fn arity_arg_and_range_errors_are_typed() {
        // Composite table read through a single-column key.
        let mut spec = simple_ab(100);
        spec.templates[0].phases[0].ops[1] = OpDef::Read {
            table: "B".to_string(),
            key: vec!["a".to_string()],
        };
        assert!(matches!(
            spec.validate(),
            Err(SpecError::KeyArity {
                expected: 2,
                got: 1,
                ..
            })
        ));
        // Unknown argument.
        let mut spec = ycsb_a(100);
        spec.templates[0].phases[0].ops[0] = OpDef::Read {
            table: "usertable".to_string(),
            key: vec!["nope".to_string()],
        };
        assert!(matches!(spec.validate(), Err(SpecError::UnknownArg { .. })));
        // Empty uniform range.
        let mut spec = ycsb_a(100);
        spec.templates[1].args[1] = ArgDef::Uniform {
            name: "field".to_string(),
            lo: 5,
            hi: 5,
        };
        assert!(matches!(spec.validate(), Err(SpecError::EmptyRange { .. })));
        // Field index outside the column range.
        let mut spec = ycsb_a(100);
        spec.templates[1].args[1] = ArgDef::Uniform {
            name: "field".to_string(),
            lo: 1,
            hi: 99,
        };
        assert!(matches!(
            spec.validate(),
            Err(SpecError::FieldOutOfRange { .. })
        ));
        // Field index reaching the primary key: column 0 of a single-key
        // table…
        let mut spec = ycsb_a(100);
        spec.templates[1].args[1] = ArgDef::Uniform {
            name: "field".to_string(),
            lo: 0,
            hi: 5,
        };
        assert!(matches!(
            spec.validate(),
            Err(SpecError::FieldOutOfRange { .. })
        ));
        // …and column 1 (`pk_sub`) of a composite-key one, whose only
        // payload column is 2.
        let mut spec = simple_ab(100);
        spec.templates[0].args[1] = ArgDef::Uniform {
            name: "b".to_string(),
            lo: 1,
            hi: 3,
        };
        spec.templates[0].phases[0].ops[1] = OpDef::Update {
            table: "B".to_string(),
            key: vec!["a".to_string(), "b".to_string()],
            field: "b".to_string(),
            value: "a".to_string(),
        };
        assert!(matches!(
            spec.validate(),
            Err(SpecError::FieldOutOfRange { .. })
        ));
        spec.templates[0].args[1] = ArgDef::Uniform {
            name: "b".to_string(),
            lo: 2,
            hi: 3,
        };
        assert_eq!(spec.validate(), Ok(()));
        // Insert into a composite-key table.
        let mut spec = simple_ab(100);
        spec.templates[0].phases[0].ops[1] = OpDef::Insert {
            table: "B".to_string(),
        };
        assert!(matches!(
            spec.validate(),
            Err(SpecError::InsertIntoChild { .. })
        ));
    }

    #[test]
    fn compile_rejects_what_validate_rejects() {
        let mut spec = ycsb_a(100);
        spec.templates.clear();
        assert_eq!(spec.compile().unwrap_err(), SpecError::NoTemplates);
        let spec = WorkloadSpec {
            name: "no-tables".to_string(),
            tables: vec![],
            templates: ycsb_a(100).templates,
        };
        assert_eq!(spec.compile().unwrap_err(), SpecError::NoTables);
    }

    #[test]
    fn spec_errors_render_helpful_messages() {
        let e = SpecError::UnknownTable {
            context: "Pay".to_string(),
            table: "accounts".to_string(),
        };
        assert_eq!(e.to_string(), "'Pay' references unknown table 'accounts'");
        assert!(SpecError::ZeroWeightSum.to_string().contains("positive"));
    }
}
