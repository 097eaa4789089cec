//! The microbenchmarks of paper §III.

use crate::generator::{KeyDistribution, KeySampler};
use atrapos_core::KeyDomain;
use atrapos_engine::workload::{ensure_tables, ReconfigureError, WorkloadChange};
use atrapos_engine::{Action, ActionOp, TableSpec, TransactionSpec, Workload};
use atrapos_numa::CoreId;
use atrapos_storage::{Column, ColumnType, Database, Key, Schema, TableId};
use rand::rngs::SmallRng;
use rand::Rng;

/// The single table used by all three microbenchmarks: ten integer columns,
/// keyed by the first.
fn probe_schema(name: &str) -> Schema {
    Schema::new(
        name,
        (0..10)
            .map(|i| Column::new(format!("c{i}"), ColumnType::Int))
            .collect(),
        vec![0],
    )
}

fn probe_row(key: i64) -> [i64; 10] {
    // Column 0 is the primary key; the remaining columns carry payload.
    std::array::from_fn(|c| if c == 0 { key } else { key * 10 + c as i64 })
}

fn populate_probe(
    workload: &dyn Workload,
    rows: i64,
    db: &mut Database,
    filter: &dyn Fn(TableId, &Key) -> bool,
) {
    ensure_tables(workload, db);
    let table = db.table_mut(TableId(0)).expect("probe table exists");
    for i in 0..rows {
        let key = Key::int(i);
        if filter(TableId(0), &key) {
            table.load_ints(&probe_row(i)).expect("unique keys");
        }
    }
}

/// The perfectly partitionable microbenchmark: every transaction reads one
/// row, chosen uniformly, from a table of ten integer columns (paper §III-B,
/// Figures 1, 2, and 5; 800 K rows in the paper).
#[derive(Debug, Clone)]
pub struct ReadOneRow {
    /// Number of rows.
    pub rows: i64,
    /// Number of sites the key space is divided into for site-local key
    /// generation (1 = uniform over the whole table).  The paper's
    /// "perfectly partitionable" workload draws each client's keys from its
    /// own site, so transactions never cross sites.
    pub sites: usize,
    /// Cores per site (maps a submitting core to its site).
    pub cores_per_site: usize,
    /// Key distribution (uniform by default; the skew experiments switch
    /// to a hotspot — or Zipfian / drifting skew — at runtime via
    /// [`ReadOneRow::set_distribution`]).
    distribution: KeyDistribution,
    /// One precomputed sampler per site, rebuilt on reconfiguration so
    /// per-transaction draws never allocate (see
    /// `atrapos_core::distribution`).
    samplers: Vec<KeySampler>,
}

impl ReadOneRow {
    /// The paper-sized dataset (800 K rows).
    pub fn paper() -> Self {
        Self::with_rows(800_000)
    }

    /// A dataset with `rows` rows.
    pub fn with_rows(rows: i64) -> Self {
        Self::partitionable(rows, 1, 1)
    }

    /// Make the workload perfectly partitionable over `sites` sites with
    /// `cores_per_site` cores each: every client only reads rows of its own
    /// site.
    pub fn partitionable(rows: i64, sites: usize, cores_per_site: usize) -> Self {
        assert!(sites >= 1 && cores_per_site >= 1);
        let mut w = Self {
            rows,
            sites,
            cores_per_site,
            distribution: KeyDistribution::Uniform,
            samplers: Vec::new(),
        };
        w.set_distribution(KeyDistribution::Uniform)
            .expect("a uniform sampler has no cap");
        w
    }

    /// Switch the key distribution (e.g. to a hotspot) at runtime.  A
    /// Zipfian distribution over a site wider than the sampler's cap is
    /// refused, and the workload keeps its previous distribution.
    pub fn set_distribution(&mut self, d: KeyDistribution) -> Result<(), ReconfigureError> {
        self.samplers = (0..self.sites)
            .map(|site| {
                let (lo, hi) = self.site_range(site);
                d.try_sampler(lo, hi)
            })
            .collect::<Result<_, _>>()
            .map_err(|source| ReconfigureError::ZipfianDomain {
                workload: self.name().to_string(),
                source,
            })?;
        self.distribution = d;
        Ok(())
    }

    /// The current key distribution.
    pub fn distribution(&self) -> KeyDistribution {
        self.distribution
    }

    fn site_range(&self, site: usize) -> (i64, i64) {
        if self.sites <= 1 {
            return (0, self.rows);
        }
        let width = self.rows / self.sites as i64;
        let lo = site as i64 * width;
        let hi = if site + 1 == self.sites {
            self.rows
        } else {
            lo + width
        };
        (lo, hi.max(lo + 1))
    }

    fn site_of(&self, client: CoreId) -> usize {
        (client.index() / self.cores_per_site) % self.sites
    }
}

impl Workload for ReadOneRow {
    fn name(&self) -> &str {
        "read-one-row"
    }

    fn tables(&self) -> Vec<TableSpec> {
        vec![TableSpec {
            id: TableId(0),
            schema: probe_schema("probe"),
            domain: KeyDomain::new(0, self.rows),
            rows: self.rows as u64,
        }]
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        populate_probe(self, self.rows, db, filter);
    }

    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        client: CoreId,
        spec: &mut TransactionSpec,
    ) {
        let site = self.site_of(client);
        let k = self.samplers[site].sample(rng);
        let mut w = spec.refill("read-one-row");
        w.phase().push(Action::new(ActionOp::Read {
            table: TableId(0),
            key: Key::int(k),
        }));
        w.finish();
    }

    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        match change {
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

/// The multi-site update microbenchmark (paper §III-C, Figures 3 and 4).
///
/// Local transactions update 10 rows chosen from the submitting site's slice
/// of the data; multi-site transactions update 1 local row and 9 rows chosen
/// uniformly from the whole dataset.
#[derive(Debug, Clone)]
pub struct MultiSiteUpdate {
    /// Number of rows.
    pub rows: i64,
    /// Number of sites the data is partitioned over (instances of the
    /// shared-nothing deployment being driven).
    pub sites: usize,
    /// Cores per site (1 for the extreme configuration, cores-per-socket for
    /// the coarse one).
    pub cores_per_site: usize,
    /// Percentage (0–100) of multi-site transactions.
    pub multi_site_percent: u32,
    /// Rows updated per transaction (10 in the paper).
    pub rows_per_txn: usize,
    /// Scratch buffer the generator sorts and dedups each transaction's
    /// keys in, kept so generation does not allocate.
    keys: Vec<i64>,
}

impl MultiSiteUpdate {
    /// Build the benchmark for a deployment of `sites` sites with
    /// `cores_per_site` cores each.
    pub fn new(rows: i64, sites: usize, cores_per_site: usize, multi_site_percent: u32) -> Self {
        assert!(sites >= 1 && cores_per_site >= 1);
        Self {
            rows,
            sites,
            cores_per_site,
            multi_site_percent: multi_site_percent.min(100),
            rows_per_txn: 10,
            keys: Vec::new(),
        }
    }

    fn site_of(&self, client: CoreId) -> usize {
        (client.index() / self.cores_per_site) % self.sites
    }

    fn local_range(&self, site: usize) -> (i64, i64) {
        let width = self.rows / self.sites as i64;
        let lo = site as i64 * width;
        let hi = if site + 1 == self.sites {
            self.rows
        } else {
            lo + width
        };
        (lo, hi.max(lo + 1))
    }
}

impl Workload for MultiSiteUpdate {
    fn name(&self) -> &str {
        "multi-site-update"
    }

    fn tables(&self) -> Vec<TableSpec> {
        vec![TableSpec {
            id: TableId(0),
            schema: probe_schema("probe"),
            domain: KeyDomain::new(0, self.rows),
            rows: self.rows as u64,
        }]
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        populate_probe(self, self.rows, db, filter);
    }

    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        client: CoreId,
        spec: &mut TransactionSpec,
    ) {
        let site = self.site_of(client);
        let (lo, hi) = self.local_range(site);
        let multi = rng.gen_range(0u32..100) < self.multi_site_percent;
        let keys = &mut self.keys;
        keys.clear();
        // The first row always comes from the local site.
        keys.push(rng.gen_range(lo..hi));
        for _ in 1..self.rows_per_txn {
            if multi {
                keys.push(rng.gen_range(0..self.rows));
            } else {
                keys.push(rng.gen_range(lo..hi));
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let mut w = spec.refill(if multi { "multi-site" } else { "local" });
        w.phase().extend(keys.iter().map(|&k| {
            Action::new(ActionOp::Increment {
                table: TableId(0),
                key: Key::int(k),
                column: 1,
                delta: 1,
            })
        }));
        w.finish();
    }

    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        match change {
            WorkloadChange::MultiSitePercent { percent } => {
                self.multi_site_percent = (*percent).min(100);
                Ok(())
            }
            other => Err(ReconfigureError::Unsupported {
                workload: self.name().to_string(),
                change: other.clone(),
            }),
        }
    }
}

/// The remote-memory microbenchmark (paper §III-D, Table I): every
/// transaction reads 100 rows chosen uniformly from a 1 M-row table —
/// random enough to defeat the last-level cache and the prefetchers.
#[derive(Debug, Clone)]
pub struct ReadManyRows {
    /// Number of rows.
    pub rows: i64,
    /// Rows read per transaction (100 in the paper).
    pub rows_per_txn: usize,
}

impl ReadManyRows {
    /// The paper-sized dataset (1 M rows, 100 rows per transaction).
    pub fn paper() -> Self {
        Self {
            rows: 1_000_000,
            rows_per_txn: 100,
        }
    }

    /// A scaled dataset.
    pub fn with_rows(rows: i64, rows_per_txn: usize) -> Self {
        Self { rows, rows_per_txn }
    }
}

impl Workload for ReadManyRows {
    fn name(&self) -> &str {
        "read-many-rows"
    }

    fn tables(&self) -> Vec<TableSpec> {
        vec![TableSpec {
            id: TableId(0),
            schema: probe_schema("probe"),
            domain: KeyDomain::new(0, self.rows),
            rows: self.rows as u64,
        }]
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        populate_probe(self, self.rows, db, filter);
    }

    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        _client: CoreId,
        spec: &mut TransactionSpec,
    ) {
        let mut w = spec.refill("read-many-rows");
        w.phase().extend((0..self.rows_per_txn).map(|_| {
            Action::new(ActionOp::Read {
                table: TableId(0),
                key: Key::int(rng.gen_range(0..self.rows)),
            })
            .with_extra_instructions(60)
        }));
        w.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn read_one_row_generates_single_reads() {
        let mut w = ReadOneRow::with_rows(1000);
        let mut rng = SmallRng::seed_from_u64(1);
        let spec = w.next_transaction(&mut rng, CoreId(0));
        assert_eq!(spec.num_actions(), 1);
        assert!(!spec.is_update());
        let mut db = Database::new();
        w.populate(&mut db, &|_, _| true);
        assert_eq!(db.table(TableId(0)).unwrap().len(), 1000);
    }

    #[test]
    fn read_one_row_drift_window_rotates_per_draw() {
        // A drifting distribution applied through reconfigure must keep
        // its draw counter between transactions (a stateless per-call
        // sampler would freeze the window at its initial position).
        let mut w = ReadOneRow::with_rows(1_000);
        w.set_distribution(KeyDistribution::Drift {
            data_fraction: 0.05,
            access_fraction: 1.0,
            period_txns: 100,
        })
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let key_at = |w: &mut ReadOneRow, rng: &mut SmallRng| {
            w.next_transaction(rng, CoreId(0)).phases[0].actions[0]
                .op
                .routing_key_head()
        };
        let early: Vec<i64> = (0..10).map(|_| key_at(&mut w, &mut rng)).collect();
        for _ in 0..40 {
            key_at(&mut w, &mut rng);
        }
        let late: Vec<i64> = (0..10).map(|_| key_at(&mut w, &mut rng)).collect();
        // 50 draws into a 100-draw period, the window sits near the
        // middle of the domain; at the start it covered the low keys.
        assert!(early.iter().all(|&k| k < 150), "early keys {early:?}");
        assert!(
            late.iter().all(|&k| (400..700).contains(&k)),
            "late keys {late:?}"
        );
    }

    #[test]
    fn a_zipfian_reconfiguration_past_the_cap_is_refused_and_changes_nothing() {
        let mut w = ReadOneRow::with_rows(9_000_000);
        let err = w
            .reconfigure(&WorkloadChange::ZipfianTheta { theta: 0.99 })
            .unwrap_err();
        assert!(
            matches!(&err, ReconfigureError::ZipfianDomain { source, .. } if source.keys == 9_000_000),
            "{err}"
        );
        assert_eq!(w.distribution(), KeyDistribution::Uniform);
        let mut fresh = ReadOneRow::with_rows(9_000_000);
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
    fn multi_site_percentage_controls_remote_keys() {
        let mut rng = SmallRng::seed_from_u64(2);
        // 4 sites, 1 core per site, client on core 0 => site 0 owns 0..250.
        let mut local_only = MultiSiteUpdate::new(1000, 4, 1, 0);
        for _ in 0..50 {
            let spec = local_only.next_transaction(&mut rng, CoreId(0));
            assert_eq!(spec.class, "local");
            for a in &spec.phases[0].actions {
                assert!(a.op.routing_key_head() < 250);
            }
        }
        let mut all_multi = MultiSiteUpdate::new(1000, 4, 1, 100);
        let mut saw_remote = false;
        for _ in 0..50 {
            let spec = all_multi.next_transaction(&mut rng, CoreId(0));
            assert_eq!(spec.class, "multi-site");
            if spec.phases[0]
                .actions
                .iter()
                .any(|a| a.op.routing_key_head() >= 250)
            {
                saw_remote = true;
            }
        }
        assert!(saw_remote);
    }

    #[test]
    fn multi_site_maps_clients_to_sites_by_cores_per_site() {
        let w = MultiSiteUpdate::new(1000, 4, 10, 50);
        assert_eq!(w.site_of(CoreId(0)), 0);
        assert_eq!(w.site_of(CoreId(9)), 0);
        assert_eq!(w.site_of(CoreId(10)), 1);
        assert_eq!(w.site_of(CoreId(39)), 3);
    }

    #[test]
    fn read_many_rows_reads_the_requested_count() {
        let mut w = ReadManyRows::with_rows(10_000, 100);
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = w.next_transaction(&mut rng, CoreId(2));
        assert_eq!(spec.num_actions(), 100);
        assert!(!spec.is_update());
    }
}
