//! The YCSB workload family (Cooper et al., SoCC 2010).
//!
//! The Yahoo! Cloud Serving Benchmark is the standard stress for
//! partition-affinity systems: five operation types (read, update, insert,
//! short range scan, read-modify-write) over one table, combined into the
//! six *core mixes* A–F, with a Zipfian request distribution whose
//! exponent θ dials the skew from uniform (θ = 0) to the standard heavily
//! skewed θ = 0.99.  The paper never evaluates ATraPos under YCSB; this
//! module opens that axis — in particular the *drifting* hotspot
//! ([`KeyDistribution::Drift`]) that gives the adaptive controller no
//! stable layout to converge to.
//!
//! Everything is plain data: a [`YcsbConfig`] (serializable, named
//! constructors [`YcsbConfig::named`] for the core mixes) fully describes
//! the workload, and [`YcsbConfig::spec`] maps it onto five
//! [`WorkloadSpec`] templates that the spec engine runs — there is no
//! YCSB generator besides [`CompiledWorkload`].  [`Ycsb`] accepts the
//! typed `WorkloadChange::{NamedMix, ZipfianTheta, Distribution,
//! SingleTransaction, StandardMix}` reconfigurations, so scenario
//! timelines can switch mixes and ramp θ mid-run.
//!
//! Modelling notes:
//!
//! * Keys are dense integers; Zipfian rank 0 is key 0, so the hot head is
//!   *contiguous* — deliberately un-scrambled, because clustered heat is
//!   what stresses range-partitioned designs (see
//!   `atrapos_core::distribution`).
//! * Inserts append at the tail of the keyspace (`record_count`,
//!   `record_count + 1`, …), beyond the initially declared domain; every
//!   layer routes beyond-domain keys to the last partition, so an
//!   insert-heavy run heats the tail partition — exactly the skew the
//!   adaptive controller is supposed to chase.  Workload D's
//!   "read-latest" distribution reads backwards from the insert cursor.

use crate::generator::KeyDistribution;
use crate::spec::{
    ArgDef, CompiledWorkload, OpDef, PhaseDef, SpecError, TableDef, TemplateDef, WorkloadSpec,
};
use atrapos_engine::workload::{ReconfigureError, WorkloadChange};
use atrapos_engine::{TableSpec, TransactionSpec, Workload};
use atrapos_numa::CoreId;
use atrapos_storage::{Database, Key, TableId};
use rand::rngs::SmallRng;

/// Payload fields per record (YCSB's default schema has ten 100-byte
/// fields; the simulator charges per-row costs, so a compact fixed set
/// keeps population fast without changing access patterns).
pub const FIELDS: usize = 4;

/// The names of the six core mixes.
pub const MIX_NAMES: [&str; 6] = ["A", "B", "C", "D", "E", "F"];

/// A complete, serializable description of a YCSB workload: dataset
/// size, per-operation weights, scan length, and request distribution.
///
/// The six core mixes are available by name ([`YcsbConfig::named`]); a
/// config is also directly constructible for custom mixes.  Weights need
/// not sum to 1 — only their ratios matter — but at least one must be
/// positive ([`Ycsb::new`] rejects what [`WorkloadSpec::validate`]
/// rejects).
#[derive(Debug, Clone, PartialEq)]
pub struct YcsbConfig {
    /// Initially loaded records (keys `0..record_count`).
    pub record_count: i64,
    /// Weight of single-key reads.
    pub read_weight: f64,
    /// Weight of single-field updates.
    pub update_weight: f64,
    /// Weight of tail inserts.
    pub insert_weight: f64,
    /// Weight of short range scans.
    pub scan_weight: f64,
    /// Weight of read-modify-writes.
    pub rmw_weight: f64,
    /// Maximum records per scan (scan lengths are uniform in
    /// `1..=max_scan_len`).
    pub max_scan_len: i64,
    /// Request distribution over the keyspace.
    pub distribution: KeyDistribution,
    /// Workload D's "latest" semantics: sampled ranks count backwards
    /// from the most recently inserted key instead of forwards from key
    /// 0, so the hottest keys are the newest.
    pub latest: bool,
}

impl YcsbConfig {
    /// A read-only baseline (workload C shape) to derive the mixes from.
    fn base(record_count: i64) -> Self {
        Self {
            record_count,
            read_weight: 1.0,
            update_weight: 0.0,
            insert_weight: 0.0,
            scan_weight: 0.0,
            rmw_weight: 0.0,
            max_scan_len: 100,
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            latest: false,
        }
    }

    /// Core workload A — update heavy: 50% reads, 50% updates.
    pub fn workload_a(record_count: i64) -> Self {
        Self {
            read_weight: 0.5,
            update_weight: 0.5,
            ..Self::base(record_count)
        }
    }

    /// Core workload B — read mostly: 95% reads, 5% updates.
    pub fn workload_b(record_count: i64) -> Self {
        Self {
            read_weight: 0.95,
            update_weight: 0.05,
            ..Self::base(record_count)
        }
    }

    /// Core workload C — read only.
    pub fn workload_c(record_count: i64) -> Self {
        Self::base(record_count)
    }

    /// Core workload D — read latest: 95% reads, 5% inserts, reads
    /// concentrated on the newest keys.
    pub fn workload_d(record_count: i64) -> Self {
        Self {
            read_weight: 0.95,
            insert_weight: 0.05,
            latest: true,
            ..Self::base(record_count)
        }
    }

    /// Core workload E — short ranges: 95% scans, 5% inserts.
    pub fn workload_e(record_count: i64) -> Self {
        Self {
            read_weight: 0.0,
            scan_weight: 0.95,
            insert_weight: 0.05,
            ..Self::base(record_count)
        }
    }

    /// Core workload F — read-modify-write: 50% reads, 50% RMWs.
    pub fn workload_f(record_count: i64) -> Self {
        Self {
            read_weight: 0.5,
            rmw_weight: 0.5,
            ..Self::base(record_count)
        }
    }

    /// The core mix with the given name ("A" through "F"), or `None` for
    /// an unknown name.
    pub fn named(name: &str, record_count: i64) -> Option<Self> {
        match name {
            "A" => Some(Self::workload_a(record_count)),
            "B" => Some(Self::workload_b(record_count)),
            "C" => Some(Self::workload_c(record_count)),
            "D" => Some(Self::workload_d(record_count)),
            "E" => Some(Self::workload_e(record_count)),
            "F" => Some(Self::workload_f(record_count)),
            _ => None,
        }
    }

    /// This config with a different request distribution.
    pub fn with_distribution(mut self, d: KeyDistribution) -> Self {
        self.distribution = d;
        self
    }

    /// This config with a Zipfian request distribution of exponent
    /// `theta`.
    pub fn with_theta(self, theta: f64) -> Self {
        self.with_distribution(KeyDistribution::Zipfian { theta })
    }

    /// The workload as a spec: one table, five templates in the fixed
    /// order `Read`, `Update`, `Insert`, `Scan`, `RMW`.  A zero weight
    /// keeps its template out of the mix but addressable by
    /// `WorkloadChange::SingleTransaction`; with `latest`, every key is a
    /// [`ArgDef::LatestKey`].
    pub fn spec(&self) -> WorkloadSpec {
        let [table, k, field, value, len] =
            ["usertable", "k", "field", "value", "len"].map(String::from);
        let distribution = self.distribution;
        let key = if self.latest {
            ArgDef::LatestKey {
                name: k.clone(),
                table: table.clone(),
                distribution,
            }
        } else {
            ArgDef::Key {
                name: k.clone(),
                table: table.clone(),
                distribution,
            }
        };
        let uniform = |name: &String, lo, hi| ArgDef::Uniform {
            name: name.clone(),
            lo,
            hi,
        };
        let write_args = vec![
            key.clone(),
            uniform(&field, 1, 1 + FIELDS as i64),
            uniform(&value, 0, 1 << 30),
        ];
        // Scan lengths are uniform in `1..=max_scan_len`.
        let scan_len = uniform(&len, 1, self.max_scan_len.saturating_add(1));
        let read = OpDef::Read {
            table: table.clone(),
            key: vec![k.clone()],
        };
        let update = OpDef::Update {
            table: table.clone(),
            key: vec![k.clone()],
            field,
            value,
        };
        let scan = OpDef::Scan {
            table: table.clone(),
            key: k,
            len,
        };
        let insert = OpDef::Insert {
            table: table.clone(),
        };
        // One op per phase: RMW's update depends on its read's result, so
        // the two synchronize at the phase boundary.
        let template = |name: &str, weight, args, ops: Vec<OpDef>| TemplateDef {
            name: name.to_string(),
            weight,
            args,
            phases: ops
                .into_iter()
                .map(|op| PhaseDef {
                    ops: vec![op],
                    sync_bytes: None,
                })
                .collect(),
        };
        let templates = vec![
            template(
                "Read",
                self.read_weight,
                vec![key.clone()],
                vec![read.clone()],
            ),
            template(
                "Update",
                self.update_weight,
                write_args.clone(),
                vec![update.clone()],
            ),
            template("Insert", self.insert_weight, vec![], vec![insert]),
            template("Scan", self.scan_weight, vec![key, scan_len], vec![scan]),
            template("RMW", self.rmw_weight, write_args, vec![read, update]),
        ];
        WorkloadSpec {
            name: "YCSB".to_string(),
            tables: vec![TableDef {
                name: table,
                keys: self.record_count,
                sub_rows: 1,
                payload_fields: FIELDS,
                parent: None,
            }],
            templates,
        }
    }
}

/// The YCSB workload: [`YcsbConfig::spec`] run by the spec engine.
///
/// The handle exists for the one reconfiguration the spec language has no
/// word for: `NamedMix` swaps in the named core mix's whole spec (weights,
/// scan length, distribution, latest flag) over the same dataset, and the
/// insert cursor carries over so tail inserts stay dense.  Everything else
/// delegates.
#[derive(Debug, Clone)]
pub struct Ycsb(CompiledWorkload);

impl Ycsb {
    /// Compile the workload a config describes; a config that describes
    /// none (no records, no positive weight, an empty scan range, a
    /// Zipfian domain past the sampler cap) is a typed error.
    pub fn new(config: YcsbConfig) -> Result<Self, SpecError> {
        config.spec().compile().map(Self)
    }
}

impl Workload for Ycsb {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn tables(&self) -> Vec<TableSpec> {
        self.0.tables()
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        self.0.populate(db, filter)
    }

    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        client: CoreId,
        spec: &mut TransactionSpec,
    ) {
        self.0.next_transaction_into(rng, client, spec)
    }

    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        let WorkloadChange::NamedMix { name } = change else {
            return self.0.reconfigure(change);
        };
        let records = self.0.spec().tables[0].keys;
        let config =
            YcsbConfig::named(name, records).ok_or_else(|| ReconfigureError::UnknownMix {
                workload: self.name().to_string(),
                name: name.clone(),
                known: MIX_NAMES.to_vec(),
            })?;
        // The core mixes are Zipfian, so a dataset past the sampler cap
        // (loaded under another distribution) cannot switch to one.
        self.0 = CompiledWorkload::compile(config.spec(), Some(&self.0)).map_err(|_| {
            ReconfigureError::Unsupported {
                workload: self.name().to_string(),
                change: change.clone(),
            }
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_engine::ActionOp;
    use rand::SeedableRng;

    const USERTABLE: TableId = TableId(0);

    fn core(name: &str, record_count: i64) -> Ycsb {
        Ycsb::new(YcsbConfig::named(name, record_count).unwrap()).unwrap()
    }

    fn ops_of(w: &mut Ycsb, n: usize, seed: u64) -> Vec<&'static str> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| w.next_transaction(&mut rng, CoreId(0)).class)
            .collect()
    }

    #[test]
    fn population_loads_the_declared_rows() {
        let w = core("A", 500);
        let mut db = Database::new();
        w.populate(&mut db, &|_, _| true);
        assert_eq!(db.table(USERTABLE).unwrap().len(), 500);
        let mut half = Database::new();
        w.populate(&mut half, &|_, k| k.head_int() < 250);
        assert_eq!(db.table(USERTABLE).unwrap().len(), 500);
        assert_eq!(half.table(USERTABLE).unwrap().len(), 250);
    }

    #[test]
    fn core_mixes_have_the_standard_shapes() {
        // A: half the operations update; C: none do.
        let classes_a = ops_of(&mut core("A", 500), 400, 1);
        let updates = classes_a.iter().filter(|c| **c == "Update").count();
        assert!((120..280).contains(&updates), "A updates {updates}");
        let classes_c = ops_of(&mut core("C", 500), 200, 2);
        assert!(classes_c.iter().all(|c| *c == "Read"));
        // E is scan-dominated, F mixes reads and RMWs.
        let classes_e = ops_of(&mut core("E", 500), 200, 3);
        assert!(classes_e.iter().filter(|c| **c == "Scan").count() > 150);
        let classes_f = ops_of(&mut core("F", 500), 200, 4);
        assert!(classes_f.contains(&"RMW") && classes_f.contains(&"Read"));
        assert!(YcsbConfig::named("G", 500).is_none());
    }

    #[test]
    fn inserts_append_monotonically_at_the_tail() {
        let mut w = core("D", 100);
        w.reconfigure(&WorkloadChange::SingleTransaction {
            txn: "Insert".into(),
        })
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut last = 99;
        for _ in 0..20 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            let head = spec.phases[0].actions[0].op.routing_key_head();
            assert_eq!(head, last + 1, "inserts must be dense at the tail");
            last = head;
        }
    }

    #[test]
    fn latest_reads_track_the_insert_cursor() {
        let mut w = core("D", 1_000);
        let mut rng = SmallRng::seed_from_u64(6);
        // Generate a batch; D is 95% reads with the newest keys hottest.
        let mut near_tail = 0;
        let mut total_reads = 0;
        for _ in 0..500 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            if spec.class == "Read" {
                total_reads += 1;
                let head = spec.phases[0].actions[0].op.routing_key_head();
                if head >= 900 {
                    near_tail += 1;
                }
            }
        }
        assert!(total_reads > 300);
        assert!(
            near_tail as f64 > 0.5 * total_reads as f64,
            "only {near_tail}/{total_reads} reads near the tail"
        );
    }

    #[test]
    fn rmw_reads_then_updates_the_same_key_across_a_sync_point() {
        let mut w = core("F", 500);
        w.reconfigure(&WorkloadChange::SingleTransaction { txn: "RMW".into() })
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let spec = w.next_transaction(&mut rng, CoreId(0));
        assert_eq!(spec.phases.len(), 2);
        assert!(spec.num_sync_points() >= 1);
        let r = spec.phases[0].actions[0].op.routing_key_head();
        let u = spec.phases[1].actions[0].op.routing_key_head();
        assert_eq!(r, u);
        assert!(spec.is_update());
    }

    #[test]
    fn scans_stay_short_and_start_in_the_domain() {
        let mut w = core("E", 500);
        w.reconfigure(&WorkloadChange::SingleTransaction { txn: "Scan".into() })
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..50 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            match &spec.phases[0].actions[0].op {
                ActionOp::ReadRange {
                    from, to, limit, ..
                } => {
                    assert!((0..500).contains(&from.head_int()));
                    assert!(*limit >= 1 && *limit <= 100);
                    assert_eq!(to.head_int() - from.head_int(), *limit as i64);
                }
                other => panic!("expected a range read, got {other:?}"),
            }
        }
    }

    #[test]
    fn named_mix_and_theta_reconfigure() {
        let mut w = core("C", 500);
        w.reconfigure(&WorkloadChange::NamedMix { name: "A".into() })
            .unwrap();
        assert_eq!(w.0.spec(), &YcsbConfig::workload_a(500).spec());
        w.reconfigure(&WorkloadChange::ZipfianTheta { theta: 0.0 })
            .unwrap();
        // The spec writes through: serializing it reproduces the
        // workload as it currently runs, not as it started.
        assert_eq!(
            w.0.spec(),
            &YcsbConfig::workload_a(500).with_theta(0.0).spec()
        );
        let err = w
            .reconfigure(&WorkloadChange::NamedMix { name: "Z".into() })
            .unwrap_err();
        assert!(matches!(err, ReconfigureError::UnknownMix { .. }));
    }

    #[test]
    fn named_mix_swaps_reuse_the_leaked_class_names() {
        let mut w = core("A", 500);
        let first: Vec<*const u8> = w.0.classes().iter().map(|c| c.as_ptr()).collect();
        assert_eq!(first.len(), 5);
        for mix in ["B", "A"] {
            w.reconfigure(&WorkloadChange::NamedMix { name: mix.into() })
                .unwrap();
        }
        let again: Vec<*const u8> = w.0.classes().iter().map(|c| c.as_ptr()).collect();
        assert_eq!(again, first, "a swap leaked a class name a second time");
    }

    #[test]
    fn generation_into_buffer_matches_by_value_generation() {
        let mut a = core("A", 500);
        let mut b = core("A", 500);
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        let mut buf = TransactionSpec::empty();
        for _ in 0..100 {
            let by_value = a.next_transaction(&mut rng_a, CoreId(0));
            b.next_transaction_into(&mut rng_b, CoreId(0), &mut buf);
            assert_eq!(by_value, buf);
        }
    }

    #[test]
    fn named_mix_carries_the_insert_cursor_over() {
        let insert = WorkloadChange::SingleTransaction {
            txn: "Insert".into(),
        };
        let mut w = core("D", 100);
        let mut rng = SmallRng::seed_from_u64(10);
        w.reconfigure(&insert).unwrap();
        for _ in 0..7 {
            w.next_transaction(&mut rng, CoreId(0));
        }
        w.reconfigure(&WorkloadChange::NamedMix { name: "E".into() })
            .unwrap();
        w.reconfigure(&insert).unwrap();
        let spec = w.next_transaction(&mut rng, CoreId(0));
        assert_eq!(spec.phases[0].actions[0].op.routing_key_head(), 107);
    }

    #[test]
    fn configs_that_describe_no_workload_are_typed_errors() {
        let a = YcsbConfig::workload_a(500);
        let no_records = YcsbConfig {
            record_count: 0,
            ..a.clone()
        };
        assert!(matches!(
            Ycsb::new(no_records),
            Err(SpecError::EmptyTable { .. })
        ));
        let no_scan_length = YcsbConfig {
            max_scan_len: 0,
            ..a.clone()
        };
        assert!(matches!(
            Ycsb::new(no_scan_length),
            Err(SpecError::EmptyRange { .. })
        ));
        let no_weight = YcsbConfig {
            read_weight: 0.0,
            update_weight: 0.0,
            ..a.clone()
        };
        assert!(matches!(
            Ycsb::new(no_weight),
            Err(SpecError::ZeroWeightSum)
        ));
        let oversized_zipfian = YcsbConfig {
            record_count: (1 << 23) + 1,
            ..a
        };
        assert!(matches!(
            Ycsb::new(oversized_zipfian),
            Err(SpecError::ZipfianDomain { .. })
        ));
    }
}
