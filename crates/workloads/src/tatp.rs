//! The TATP (Telecom Application Transaction Processing) benchmark.
//!
//! TATP models a mobile-phone provider: four tables, all perfectly
//! partitionable on the subscriber id, and seven transaction types of three
//! classes — single-table read-only (GetSubscriberData, GetAccessData),
//! multi-table read-only (GetNewDestination), and updates
//! (UpdateSubscriberData, UpdateLocation, InsertCallForwarding,
//! DeleteCallForwarding).  The paper uses an 800 K-subscriber dataset; the
//! default here is scaled down (see [`TatpConfig`]) and the paper size is
//! available via [`TatpConfig::paper`].
//!
//! The workload exposes the knobs the adaptive experiments need: switching
//! to a single transaction type (Figures 10 and 13, Table II) and
//! introducing access skew at runtime (Figure 11).

use crate::generator::{KeyDistribution, Mix};
use atrapos_core::{KeyDomain, KeySampler};
use atrapos_engine::workload::{ensure_tables, ReconfigureError, WorkloadChange};
use atrapos_engine::{Action, ActionOp, TableSpec, TransactionSpec, Workload};
use atrapos_numa::CoreId;
use atrapos_storage::{Column, ColumnType, Database, Key, Record, Schema, TableId, Value};
use rand::rngs::SmallRng;
use rand::Rng;

/// Table id of SUBSCRIBER.
pub const SUBSCRIBER: TableId = TableId(0);
/// Table id of ACCESS_INFO.
pub const ACCESS_INFO: TableId = TableId(1);
/// Table id of SPECIAL_FACILITY.
pub const SPECIAL_FACILITY: TableId = TableId(2);
/// Table id of CALL_FORWARDING.
pub const CALL_FORWARDING: TableId = TableId(3);

/// The seven TATP transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TatpTxn {
    /// Read one subscriber row (35% of the standard mix).
    GetSubscriberData,
    /// Read a special facility and the matching call forwarding row (10%).
    GetNewDestination,
    /// Read one access-info row (35%).
    GetAccessData,
    /// Update subscriber and special-facility data (2%).
    UpdateSubscriberData,
    /// Update the subscriber's VLR location (14%).
    UpdateLocation,
    /// Insert a call-forwarding row (2%).
    InsertCallForwarding,
    /// Delete a call-forwarding row (2%).
    DeleteCallForwarding,
}

impl TatpTxn {
    /// All seven transaction types.
    pub const ALL: [TatpTxn; 7] = [
        TatpTxn::GetSubscriberData,
        TatpTxn::GetNewDestination,
        TatpTxn::GetAccessData,
        TatpTxn::UpdateSubscriberData,
        TatpTxn::UpdateLocation,
        TatpTxn::InsertCallForwarding,
        TatpTxn::DeleteCallForwarding,
    ];

    /// Human-readable name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            TatpTxn::GetSubscriberData => "GetSubData",
            TatpTxn::GetNewDestination => "GetNewDest",
            TatpTxn::GetAccessData => "GetAccData",
            TatpTxn::UpdateSubscriberData => "UpdSubData",
            TatpTxn::UpdateLocation => "UpdLocation",
            TatpTxn::InsertCallForwarding => "InsCallFwd",
            TatpTxn::DeleteCallForwarding => "DelCallFwd",
        }
    }

    /// Parse a figure label back into the transaction type (the typed
    /// reconfiguration channel names transactions by label).
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.label() == label)
    }
}

/// TATP configuration.
#[derive(Debug, Clone)]
pub struct TatpConfig {
    /// Number of subscribers.
    pub subscribers: i64,
    /// Access-info / special-facility rows per subscriber.
    pub records_per_subscriber: i64,
}

impl TatpConfig {
    /// The paper's dataset: 800 K subscribers.
    pub fn paper() -> Self {
        Self {
            subscribers: 800_000,
            records_per_subscriber: 2,
        }
    }

    /// A scaled-down dataset suitable for fast runs.
    pub fn scaled(subscribers: i64) -> Self {
        Self {
            subscribers,
            records_per_subscriber: 2,
        }
    }
}

/// The TATP workload.
#[derive(Debug, Clone)]
pub struct Tatp {
    config: TatpConfig,
    mix: Mix<TatpTxn>,
    distribution: KeyDistribution,
    /// Derived from `distribution` over the subscriber domain; rebuilt on
    /// reconfiguration so per-transaction draws never allocate (the
    /// Zipfian variant precomputes its table here).
    sampler: KeySampler,
}

impl Tatp {
    /// Build the workload with the standard transaction mix.
    pub fn new(config: TatpConfig) -> Self {
        let distribution = KeyDistribution::Uniform;
        let sampler = distribution.sampler(1, config.subscribers + 1);
        Self {
            config,
            mix: Self::standard_mix(),
            distribution,
            sampler,
        }
    }

    /// The standard TATP mix (35/10/35/2/14/2/2).
    pub fn standard_mix() -> Mix<TatpTxn> {
        Mix::new(vec![
            (TatpTxn::GetSubscriberData, 35.0),
            (TatpTxn::GetNewDestination, 10.0),
            (TatpTxn::GetAccessData, 35.0),
            (TatpTxn::UpdateSubscriberData, 2.0),
            (TatpTxn::UpdateLocation, 14.0),
            (TatpTxn::InsertCallForwarding, 2.0),
            (TatpTxn::DeleteCallForwarding, 2.0),
        ])
    }

    /// Run only one transaction type (Table II, Figures 8/10/13).
    pub fn set_single(&mut self, txn: TatpTxn) {
        self.mix = Mix::single(txn);
    }

    /// Restore the standard mix.
    pub fn set_standard_mix(&mut self) {
        self.mix = Self::standard_mix();
    }

    /// Change the subscriber-id distribution (Figure 11 uses a hotspot where
    /// 50% of the requests hit 20% of the data; the YCSB-style experiments
    /// may carry Zipfian or drifting skew over).  A Zipfian distribution
    /// over more subscribers than the sampler's cap is refused, and the
    /// workload keeps its previous distribution.
    pub fn set_distribution(&mut self, d: KeyDistribution) -> Result<(), ReconfigureError> {
        self.sampler = d
            .try_sampler(1, self.config.subscribers + 1)
            .map_err(|source| ReconfigureError::ZipfianDomain {
                workload: self.name().to_string(),
                source,
            })?;
        self.distribution = d;
        Ok(())
    }

    /// Number of subscribers.
    pub fn subscribers(&self) -> i64 {
        self.config.subscribers
    }

    /// The current subscriber-id distribution.
    pub fn distribution(&self) -> KeyDistribution {
        self.distribution
    }

    fn subscriber_id(&mut self, rng: &mut SmallRng) -> i64 {
        self.sampler.sample(rng)
    }

    /// Build a transaction of type `txn` into a reusable spec buffer.
    fn build_into(&mut self, txn: TatpTxn, rng: &mut SmallRng, spec: &mut TransactionSpec) {
        let s = self.subscriber_id(rng);
        match txn {
            TatpTxn::GetSubscriberData => {
                let mut w = spec.refill("GetSubData");
                w.phase().push(Action::new(ActionOp::Read {
                    table: SUBSCRIBER,
                    key: Key::int(s),
                }));
                w.finish();
            }
            TatpTxn::GetAccessData => {
                let mut w = spec.refill("GetAccData");
                w.phase().push(Action::new(ActionOp::Read {
                    table: ACCESS_INFO,
                    key: Key::ints(&[s, 1]),
                }));
                w.finish();
            }
            TatpTxn::GetNewDestination => {
                let mut w = spec.refill("GetNewDest");
                w.phase().push(Action::new(ActionOp::Read {
                    table: SPECIAL_FACILITY,
                    key: Key::ints(&[s, 1]),
                }));
                w.phase().push(Action::new(ActionOp::Read {
                    table: CALL_FORWARDING,
                    key: Key::ints(&[s, 1, 0]),
                }));
                w.finish();
            }
            TatpTxn::UpdateSubscriberData => {
                let mut w = spec.refill("UpdSubData");
                let phase = w.phase();
                phase.push(Action::new(ActionOp::Update {
                    table: SUBSCRIBER,
                    key: Key::int(s),
                    changes: vec![(2, Value::Int(rng.gen_range(0..2)))],
                }));
                phase.push(Action::new(ActionOp::Update {
                    table: SPECIAL_FACILITY,
                    key: Key::ints(&[s, 1]),
                    changes: vec![(3, Value::Int(rng.gen_range(0..256)))],
                }));
                w.finish();
            }
            TatpTxn::UpdateLocation => {
                let mut w = spec.refill("UpdLocation");
                w.phase().push(Action::new(ActionOp::Update {
                    table: SUBSCRIBER,
                    key: Key::int(s),
                    changes: vec![(4, Value::Int(rng.gen_range(0..1 << 30)))],
                }));
                w.finish();
            }
            TatpTxn::InsertCallForwarding => {
                let mut w = spec.refill("InsCallFwd");
                let phase = w.phase();
                phase.push(Action::new(ActionOp::Read {
                    table: SUBSCRIBER,
                    key: Key::int(s),
                }));
                phase.push(Action::new(ActionOp::Read {
                    table: SPECIAL_FACILITY,
                    key: Key::ints(&[s, 1]),
                }));
                w.phase().push(Action::new(ActionOp::Insert {
                    table: CALL_FORWARDING,
                    record: Record::new(vec![
                        Value::Int(s),
                        Value::Int(1),
                        Value::Int(8 * rng.gen_range(1i64..3)),
                        Value::Int(24),
                        Value::from("5551234"),
                    ]),
                }));
                w.finish();
            }
            TatpTxn::DeleteCallForwarding => {
                let mut w = spec.refill("DelCallFwd");
                w.phase().push(Action::new(ActionOp::Read {
                    table: SUBSCRIBER,
                    key: Key::int(s),
                }));
                w.phase().push(Action::new(ActionOp::Delete {
                    table: CALL_FORWARDING,
                    key: Key::ints(&[s, 1, 8 * rng.gen_range(1i64..3)]),
                }));
                w.finish();
            }
        }
    }
}

impl Workload for Tatp {
    fn name(&self) -> &str {
        "TATP"
    }

    fn tables(&self) -> Vec<TableSpec> {
        let n = self.config.subscribers;
        let domain = KeyDomain::new(1, n + 1);
        let per_sub = self.config.records_per_subscriber as u64;
        vec![
            TableSpec {
                id: SUBSCRIBER,
                schema: Schema::new(
                    "subscriber",
                    vec![
                        Column::new("s_id", ColumnType::Int),
                        Column::new("sub_nbr", ColumnType::Text),
                        Column::new("bit_1", ColumnType::Int),
                        Column::new("msc_location", ColumnType::Int),
                        Column::new("vlr_location", ColumnType::Int),
                    ],
                    vec![0],
                ),
                domain,
                rows: n as u64,
            },
            TableSpec {
                id: ACCESS_INFO,
                schema: Schema::new(
                    "access_info",
                    vec![
                        Column::new("s_id", ColumnType::Int),
                        Column::new("ai_type", ColumnType::Int),
                        Column::new("data1", ColumnType::Int),
                        Column::new("data2", ColumnType::Int),
                    ],
                    vec![0, 1],
                )
                .with_foreign_key(vec![0], SUBSCRIBER),
                domain,
                rows: n as u64 * per_sub,
            },
            TableSpec {
                id: SPECIAL_FACILITY,
                schema: Schema::new(
                    "special_facility",
                    vec![
                        Column::new("s_id", ColumnType::Int),
                        Column::new("sf_type", ColumnType::Int),
                        Column::new("is_active", ColumnType::Int),
                        Column::new("data_a", ColumnType::Int),
                    ],
                    vec![0, 1],
                )
                .with_foreign_key(vec![0], SUBSCRIBER),
                domain,
                rows: n as u64 * per_sub,
            },
            TableSpec {
                id: CALL_FORWARDING,
                schema: Schema::new(
                    "call_forwarding",
                    vec![
                        Column::new("s_id", ColumnType::Int),
                        Column::new("sf_type", ColumnType::Int),
                        Column::new("start_time", ColumnType::Int),
                        Column::new("end_time", ColumnType::Int),
                        Column::new("numberx", ColumnType::Text),
                    ],
                    vec![0, 1, 2],
                )
                .with_foreign_key(vec![0, 1], SPECIAL_FACILITY),
                domain,
                rows: n as u64,
            },
        ]
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        ensure_tables(self, db);
        let n = self.config.subscribers;
        let per_sub = self.config.records_per_subscriber;
        {
            let t = db.table_mut(SUBSCRIBER).expect("subscriber table");
            for s in 1..=n {
                let key = Key::int(s);
                if filter(SUBSCRIBER, &key) {
                    t.load(Record::new(vec![
                        Value::Int(s),
                        Value::Text(format!("{s:015}")),
                        Value::Int(s % 2),
                        Value::Int(s % 1000),
                        Value::Int(s % 10_000),
                    ]))
                    .expect("unique subscriber");
                }
            }
        }
        {
            let t = db.table_mut(ACCESS_INFO).expect("access_info table");
            for s in 1..=n {
                for ai in 1..=per_sub {
                    let key = Key::ints(&[s, ai]);
                    if filter(ACCESS_INFO, &key) {
                        t.load_ints(&[s, ai, s % 256, ai % 256])
                            .expect("unique access info");
                    }
                }
            }
        }
        {
            let t = db
                .table_mut(SPECIAL_FACILITY)
                .expect("special_facility table");
            for s in 1..=n {
                for sf in 1..=per_sub {
                    let key = Key::ints(&[s, sf]);
                    if filter(SPECIAL_FACILITY, &key) {
                        t.load_ints(&[s, sf, 1, (s + sf) % 256])
                            .expect("unique special facility");
                    }
                }
            }
        }
        {
            let t = db
                .table_mut(CALL_FORWARDING)
                .expect("call_forwarding table");
            for s in 1..=n {
                let key = Key::ints(&[s, 1, 0]);
                if filter(CALL_FORWARDING, &key) {
                    t.load(Record::new(vec![
                        Value::Int(s),
                        Value::Int(1),
                        Value::Int(0),
                        Value::Int(8),
                        Value::from("5550000"),
                    ]))
                    .expect("unique call forwarding");
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
        let txn = self.mix.pick(rng);
        self.build_into(txn, rng, spec);
    }

    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        match change {
            WorkloadChange::SingleTransaction { txn } => match TatpTxn::from_label(txn) {
                Some(t) => {
                    self.set_single(t);
                    Ok(())
                }
                None => Err(ReconfigureError::UnknownTransaction {
                    workload: self.name().to_string(),
                    txn: txn.clone(),
                    known: TatpTxn::ALL.iter().map(|t| t.label()).collect(),
                }),
            },
            WorkloadChange::StandardMix => {
                self.set_standard_mix();
                Ok(())
            }
            WorkloadChange::Distribution { distribution } => self.set_distribution(*distribution),
            WorkloadChange::ZipfianTheta { theta } => {
                self.set_distribution(KeyDistribution::Zipfian { theta: *theta })
            }
            other => Err(ReconfigureError::Unsupported {
                workload: self.name().to_string(),
                change: other.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small() -> Tatp {
        Tatp::new(TatpConfig::scaled(200))
    }

    #[test]
    fn a_zipfian_reconfiguration_past_the_cap_is_refused_and_changes_nothing() {
        let mut w = Tatp::new(TatpConfig::scaled(9_000_000));
        let err = w
            .reconfigure(&WorkloadChange::Distribution {
                distribution: KeyDistribution::Zipfian { theta: 0.99 },
            })
            .unwrap_err();
        assert!(
            matches!(&err, ReconfigureError::ZipfianDomain { source, .. } if source.keys == 9_000_000),
            "{err}"
        );
        assert_eq!(w.distribution(), KeyDistribution::Uniform);
        let mut fresh = Tatp::new(TatpConfig::scaled(9_000_000));
        let mut a = SmallRng::seed_from_u64(5);
        let mut b = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            assert_eq!(
                w.next_transaction(&mut a, CoreId(0)),
                fresh.next_transaction(&mut b, CoreId(0))
            );
        }
    }

    #[test]
    fn population_matches_the_schema_counts() {
        let w = small();
        let mut db = Database::new();
        w.populate(&mut db, &|_, _| true);
        assert_eq!(db.table(SUBSCRIBER).unwrap().len(), 200);
        assert_eq!(db.table(ACCESS_INFO).unwrap().len(), 400);
        assert_eq!(db.table(SPECIAL_FACILITY).unwrap().len(), 400);
        assert_eq!(db.table(CALL_FORWARDING).unwrap().len(), 200);
    }

    #[test]
    fn filtered_population_slices_by_subscriber() {
        let w = small();
        let mut db = Database::new();
        w.populate(&mut db, &|_, k| k.head_int() <= 100);
        assert_eq!(db.table(SUBSCRIBER).unwrap().len(), 100);
        assert_eq!(db.table(ACCESS_INFO).unwrap().len(), 200);
    }

    #[test]
    fn standard_mix_generates_all_classes() {
        let mut w = small();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut classes = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            classes.insert(spec.class);
        }
        assert!(classes.contains("GetSubData"));
        assert!(classes.contains("GetNewDest"));
        assert!(classes.contains("UpdLocation"));
        assert!(classes.len() >= 5, "saw classes {classes:?}");
    }

    #[test]
    fn single_type_mode_only_generates_that_type() {
        let mut w = small();
        w.set_single(TatpTxn::UpdateSubscriberData);
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..20 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            assert_eq!(spec.class, "UpdSubData");
            assert!(spec.is_update());
            let tables: std::collections::BTreeSet<TableId> = spec
                .phases
                .iter()
                .flat_map(|p| p.actions.iter().map(|a| a.op.table()))
                .collect();
            assert_eq!(tables.len(), 2);
        }
        w.set_standard_mix();
    }

    #[test]
    fn skewed_distribution_prefers_low_subscriber_ids() {
        let mut w = small();
        w.set_distribution(KeyDistribution::Hotspot {
            data_fraction: 0.2,
            access_fraction: 0.9,
        })
        .unwrap();
        w.set_single(TatpTxn::GetSubscriberData);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut hot = 0;
        for _ in 0..500 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            if spec.phases[0].actions[0].op.routing_key_head() <= 40 {
                hot += 1;
            }
        }
        assert!(hot > 350, "hot accesses {hot}");
    }

    #[test]
    fn zipfian_theta_reconfigure_concentrates_on_low_ids() {
        let mut w = small();
        w.reconfigure(&WorkloadChange::ZipfianTheta { theta: 0.99 })
            .unwrap();
        assert_eq!(w.distribution(), KeyDistribution::Zipfian { theta: 0.99 });
        w.set_single(TatpTxn::GetSubscriberData);
        let mut rng = SmallRng::seed_from_u64(12);
        let mut hot = 0;
        for _ in 0..500 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            let head = spec.phases[0].actions[0].op.routing_key_head();
            assert!((1..=200).contains(&head));
            if head <= 40 {
                hot += 1;
            }
        }
        // The hottest fifth of the domain draws well over its uniform
        // share (100 of 500) under theta = 0.99.
        assert!(hot > 250, "hot accesses {hot}");
    }

    #[test]
    fn keys_stay_within_the_subscriber_domain() {
        let mut w = small();
        let mut rng = SmallRng::seed_from_u64(10);
        for _ in 0..300 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            for phase in &spec.phases {
                for a in &phase.actions {
                    let head = a.op.routing_key_head();
                    assert!((1..=200).contains(&head), "key head {head} out of domain");
                }
            }
        }
    }
}
