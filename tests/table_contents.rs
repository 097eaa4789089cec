//! Data goldens: what every design leaves in its database.
//!
//! Fixed-seed transaction streams of TATP (text columns, call-forwarding
//! inserts and deletes), TPC-C at two warehouses (keys of one to four
//! components, inserts, Delivery's deletes) and the shipped YCSB-A spec
//! scaled down run through centralized, shared-nothing (the union of its
//! instances), PLP, static ATraPos and adaptive ATraPos.  The adaptive run
//! loses a socket and gets it back, so it repartitions (splits and merges
//! index partitions) along the way.  Every table's rows, in key order, fold
//! into one FNV-1a digest per (design, workload), and the digests are
//! pinned in `tests/goldens/table_contents.txt`: a change to how the
//! storage layer lays out keys and rows must leave every database as it
//! was.
//!
//! Regenerate (only after an intended change to what the designs store):
//! `UPDATE_GOLDENS=1 cargo test -p atrapos-bench --test table_contents`.

use atrapos_core::{AdaptiveInterval, ControllerConfig};
use atrapos_engine::{
    AtraposConfig, AtraposDesign, CentralizedDesign, SharedNothingDesign, SharedNothingGranularity,
    SystemDesign, Workload,
};
use atrapos_numa::{secs_to_cycles, CostModel, Machine, SocketId, Topology};
use atrapos_storage::{Database, Key, MemoryPolicy, Value};
use atrapos_workloads::spec::WorkloadSpec;
use atrapos_workloads::{Tatp, TatpConfig, Tpcc, TpccConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

/// Transactions per run.
const TXNS: usize = 3_000;
/// Monitoring interval of the closed loop, in virtual seconds.
const INTERVAL_SECS: f64 = 0.0005;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fold the union of `dbs` into a digest: per table its id and row count,
/// then each row in key order as its key and its values.  Only what a row
/// holds counts, never how the storage layer lays it out.  A row several
/// instances hold (a replicated table) must be the same in each and
/// counts once.  Returns the row count and the digest.
fn digest(dbs: &[&Database]) -> (usize, u64) {
    let mut tables: BTreeMap<u32, BTreeMap<Key, Vec<Value>>> = BTreeMap::new();
    for db in dbs {
        for table in db.tables() {
            let rows = tables.entry(table.id.0).or_default();
            for (key, row) in table.index().iter() {
                let values: Vec<Value> = (0..row.arity()).map(|c| row.get(c)).collect();
                if let Some(held) = rows.insert(key, values.clone()) {
                    assert_eq!(
                        held, values,
                        "instances disagree on table {} key {key}",
                        table.id.0
                    );
                }
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut total = 0;
    for (id, rows) in &tables {
        h.write_u32(*id);
        h.write_usize(rows.len());
        for (key, values) in rows {
            key.hash(&mut h);
            h.write_usize(values.len());
            for v in values {
                match v {
                    Value::Int(v) => {
                        h.write_u8(0);
                        h.write_i64(*v);
                    }
                    Value::Text(s) => {
                        h.write_u8(1);
                        h.write_usize(s.len());
                        h.write(s.as_bytes());
                    }
                }
            }
        }
        total += rows.len();
    }
    (total, h.finish())
}

/// A two-socket, two-cores-per-socket machine.
fn machine() -> Machine {
    Machine::new(Topology::multisocket(2, 2), CostModel::westmere())
}

/// Run `TXNS` transactions closed-loop, one client per active core, with a
/// monitoring interval every `INTERVAL_SECS` of virtual time.  With
/// `lose_socket`, socket 1 fails after a third of the stream and comes
/// back after two thirds.
fn drive(
    design: &mut dyn SystemDesign,
    machine: &mut Machine,
    workload: &mut dyn Workload,
    lose_socket: bool,
) {
    let mut rng = SmallRng::seed_from_u64(34);
    let cores = machine.topology.active_cores();
    let mut next_free = vec![0u64; cores.len()];
    let interval = secs_to_cycles(INTERVAL_SECS, machine.topology.frequency_ghz());
    let (mut next_interval_at, mut interval_committed) = (interval, 0u64);
    let mut clock = 0;
    for i in 0..TXNS {
        if lose_socket && i == TXNS / 3 {
            machine.topology.fail_socket(SocketId(1)).unwrap();
            design.on_topology_change(machine);
        }
        if lose_socket && i == 2 * TXNS / 3 {
            machine.topology.restore_socket(SocketId(1)).unwrap();
            // The restored clients start no earlier than the rest.
            for t in &mut next_free {
                *t = (*t).max(clock);
            }
            design.on_topology_change(machine);
        }
        let topology = &machine.topology;
        let (c, start) = cores
            .iter()
            .enumerate()
            .filter(|(_, &core)| topology.is_active(topology.socket_of(core)))
            .map(|(c, _)| (c, next_free[c]))
            .min_by_key(|&(_, t)| t)
            .unwrap();
        while next_interval_at <= start {
            let tput = interval_committed as f64 / machine.secs(interval);
            let out = design.on_interval(machine, next_interval_at, tput);
            for t in &mut next_free {
                *t = (*t).max(next_interval_at + out.pause_cycles);
            }
            interval_committed = 0;
            next_interval_at += interval;
        }
        let start = start.max(next_free[c]);
        machine.set_low_water(start);
        clock = start;
        let spec = workload.next_transaction(&mut rng, cores[c]);
        let out = design.execute(machine, &spec, cores[c], start);
        next_free[c] = out.end;
        interval_committed += u64::from(out.committed);
    }
}

/// Builds a workload afresh for each design.
type MakeWorkload = fn() -> Box<dyn Workload>;

/// The workloads, by name.
fn workloads() -> Vec<(&'static str, MakeWorkload)> {
    fn ycsb() -> Box<dyn Workload> {
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/ycsb_a.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut spec = WorkloadSpec::from_json(&text).unwrap();
        spec.tables[0].keys = 3_000;
        Box::new(spec.compile().unwrap())
    }
    vec![
        ("tatp", || Box::new(Tatp::new(TatpConfig::scaled(500)))),
        ("tpcc", || Box::new(Tpcc::new(TpccConfig::scaled(2)))),
        ("ycsb", ycsb),
    ]
}

/// One golden line per (design, workload): the row count and the digest.
/// Every design runs the same stream, so all five must also agree.
fn contents_table() -> String {
    let adaptive = || AtraposConfig {
        controller: ControllerConfig {
            interval: AdaptiveInterval::new(INTERVAL_SECS, 0.016, 0.10),
            ..ControllerConfig::default()
        },
        ..AtraposConfig::default()
    };
    let mut out = String::new();
    for (name, make) in workloads() {
        let mut runs: Vec<(&str, (usize, u64))> = Vec::new();
        let mut line = |design, digest| runs.push((design, digest));

        let (mut m, mut w) = (machine(), make());
        let mut d = CentralizedDesign::new(&m, w.as_ref());
        drive(&mut d, &mut m, w.as_mut(), false);
        line("centralized", digest(&[d.database()]));

        let (mut m, mut w) = (machine(), make());
        let mut d = SharedNothingDesign::new(
            &m,
            w.as_ref(),
            SharedNothingGranularity::PerSocket,
            MemoryPolicy::Local,
            None,
        );
        drive(&mut d, &mut m, w.as_mut(), false);
        let dbs: Vec<&Database> = (0..d.num_instances()).map(|i| d.instance_db(i)).collect();
        line("shared-nothing", digest(&dbs));

        for (design, config) in [
            ("plp", AtraposConfig::plp_baseline()),
            ("static-atrapos", AtraposConfig::static_atrapos()),
        ] {
            let (mut m, mut w) = (machine(), make());
            let mut d = AtraposDesign::new(&m, w.as_ref(), config);
            drive(&mut d, &mut m, w.as_mut(), false);
            line(design, digest(&[d.database()]));
        }

        let (mut m, mut w) = (machine(), make());
        let mut d = AtraposDesign::new(&m, w.as_ref(), adaptive());
        drive(&mut d, &mut m, w.as_mut(), true);
        assert!(
            d.repartitions >= 1,
            "{name}: the adaptive run never repartitioned"
        );
        line("adaptive-atrapos", digest(&[d.database()]));

        for (design, (rows, digest)) in &runs {
            writeln!(out, "{design:<16} {name:<5} {rows:>6} {digest:016x}").unwrap();
        }
        assert!(
            runs.iter().all(|(_, d)| *d == runs[0].1),
            "{name}: the designs left different databases"
        );
    }
    out
}

#[test]
fn every_design_leaves_the_pinned_database_contents() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/table_contents.txt");
    let got = contents_table();
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(
        want,
        got,
        "database contents diverged from {}; regenerate with \
         `UPDATE_GOLDENS=1 cargo test -p atrapos-bench --test table_contents` \
         only after an intended change to what the designs store",
        path.display()
    );
}
