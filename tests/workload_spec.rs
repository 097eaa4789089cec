//! Stream lockdown for the one workload engine.
//!
//! YCSB and SimpleAb used to exist twice: as hand-written generators and
//! as `WorkloadSpec`s proven bit-identical to them.  The generators are
//! gone — `Ycsb` and `SimpleAb` are specs run by `CompiledWorkload` — and
//! a deleted reference cannot stay the oracle, so what this suite compares
//! against is what the generators *produced*, recorded at commit d2462b7
//! (the last one that had them):
//!
//! * **spec-stream digests** — FNV-1a over the debug form of generated
//!   transactions (the PR-8 technique): any drift in mix selection, rng
//!   draw order, keys, classes, phase structure, or sync payloads changes
//!   the digest.  Pinned for all six YCSB core mixes and SimpleAb at two
//!   seeds, for one reconfiguration sequence (θ step, single-operation
//!   inserts, mix restore), and for the two shipped files
//!   `examples/specs/{ycsb_a,simple_ab}.json`.  A stream holding
//!   an update was re-pinned when `ActionOp::Update` came to print its one
//!   cell as `column: c, value: v` instead of `changes: [(c, Int(v))]`:
//!   the recorded streams, hashed with that one rewrite, give exactly the
//!   new constants;
//! * **full-run outcomes** — the shipped files and the in-crate
//!   constructors (`Ycsb::new(YcsbConfig::workload_a(n))` names five
//!   templates, the file only the two weighted ones) must serialize
//!   byte-identically on all four YCSB-family designs, committed counts
//!   included.

use atrapos_bench::figures::ycsb_designs;
use atrapos_bench::harness::timeline_job;
use atrapos_bench::Scale;
use atrapos_core::KeyDistribution;
use atrapos_engine::scenario::Scenario;
use atrapos_engine::workload::WorkloadChange;
use atrapos_engine::Workload;
use atrapos_numa::CoreId;
use atrapos_workloads::spec::WorkloadSpec;
use atrapos_workloads::{CompiledWorkload, SimpleAb, Ycsb, YcsbConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn shipped(file: &str) -> WorkloadSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs")
        .join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    WorkloadSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn ycsb(mix: &str, records: i64) -> CompiledWorkload {
    Ycsb::new(YcsbConfig::named(mix, records).unwrap()).unwrap()
}

/// Fold `n` more transactions' debug representations into the running
/// FNV-1a `hash`; `i` numbers the transactions (it picks the client).
fn fold_stream(w: &mut dyn Workload, rng: &mut SmallRng, n: usize, i: &mut usize, hash: &mut u64) {
    for _ in 0..n {
        let spec = w.next_transaction(rng, CoreId((*i % 4) as u32));
        *i += 1;
        for byte in format!("{spec:?}").bytes() {
            *hash ^= byte as u64;
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a digest of `n` transactions' debug representations.
fn spec_stream_digest(w: &mut dyn Workload, seed: u64, n: usize) -> u64 {
    let mut hash = FNV_OFFSET;
    fold_stream(w, &mut SmallRng::seed_from_u64(seed), n, &mut 0, &mut hash);
    hash
}

const SEEDS: [u64; 2] = [42, 1337];

#[test]
fn ycsb_core_mixes_and_simple_ab_match_the_hand_rolled_digests() {
    // 300 transactions over 2 000 records / 1 000 A rows, seeds 42 and 1337.
    for (mix, hand) in [
        ("A", [0xe8de_4f8e_4a05_efb4u64, 0x4a97_70b9_c761_ba72]),
        ("B", [0x1c17_69c8_cbcb_eec2, 0xe756_605a_6693_71ca]),
        ("C", [0xf0e5_dba0_74d0_7995, 0x8a97_a3c6_b803_d8ae]),
        ("D", [0x56c5_eb1c_d7e9_5707, 0x4b9c_ec6a_3cdd_439a]),
        ("E", [0xae4f_8cd7_fd7c_7218, 0x4a9f_a20a_54b3_3261]),
        ("F", [0xe802_ad41_dca4_6cc4, 0x9e70_6cc6_75aa_7377]),
    ] {
        for (seed, hand) in SEEDS.into_iter().zip(hand) {
            assert_eq!(
                spec_stream_digest(&mut ycsb(mix, 2_000), seed, 300),
                hand,
                "YCSB-{mix}, seed {seed}"
            );
        }
    }
    for (seed, hand) in SEEDS
        .into_iter()
        .zip([0xb3d3_7724_836b_97d7, 0x3c0d_0d3b_6177_dc77])
    {
        let mut w = SimpleAb::new(1_000).unwrap();
        assert_eq!(
            spec_stream_digest(&mut w, seed, 300),
            hand,
            "SimpleAb, seed {seed}"
        );
    }
}

/// One rng, one running digest, through every kind of reconfiguration
/// YCSB accepts: a θ step, a single-operation phase of tail inserts and
/// the mix restored, so a step that kept a stale mix or sampler (or an
/// insert cursor that did not advance) changes the digest.  The constant
/// was recorded at commit 818ced4, where the θ step could still also be
/// spelled as the `ZipfianTheta` shorthand; both spellings gave it.
#[test]
fn a_reconfiguration_sequence_matches_the_hand_rolled_digest() {
    let mut w = ycsb("A", 2_000);
    let mut rng = SmallRng::seed_from_u64(11);
    let (mut i, mut hash) = (0, FNV_OFFSET);
    fold_stream(&mut w, &mut rng, 100, &mut i, &mut hash);
    for (change, n) in [
        (
            WorkloadChange::Distribution {
                distribution: KeyDistribution::Zipfian { theta: 0.6 },
            },
            200,
        ),
        (
            WorkloadChange::SingleTransaction {
                txn: "Insert".into(),
            },
            20,
        ),
        (WorkloadChange::StandardMix, 200),
    ] {
        w.reconfigure(&change).unwrap();
        fold_stream(&mut w, &mut rng, n, &mut i, &mut hash);
    }
    assert_eq!(i, 520);
    assert_eq!(hash, 0xbca8_2f7b_55e6_3b4b);
}

/// The shipped file at its own size, against the hand-rolled generator's
/// digest at that size and against the in-crate constructor.
#[test]
fn shipped_ycsb_a_spec_digest_matches_hand_rolled() {
    let spec = shipped("ycsb_a.json");
    let records = spec.tables[0].keys;
    assert_eq!(records, 25_000, "the digests below are for this size");
    for (seed, hand) in SEEDS
        .into_iter()
        .zip([0xa13c_59da_f6ce_a05a, 0xbffa_537a_c0a4_f8db])
    {
        let mut compiled = spec.compile().unwrap();
        assert_eq!(
            spec_stream_digest(&mut compiled, seed, 300),
            hand,
            "seed {seed}: shipped ycsb_a.json diverged from the hand-rolled module"
        );
        assert_eq!(
            spec_stream_digest(&mut ycsb("A", records), seed, 300),
            hand,
            "seed {seed}: Ycsb A diverged from the hand-rolled module"
        );
    }
}

#[test]
fn shipped_simple_ab_spec_digest_matches_hand_rolled() {
    let spec = shipped("simple_ab.json");
    let rows_a = spec.tables[0].keys;
    assert_eq!(rows_a, 10_000, "the digests below are for this size");
    for (seed, hand) in SEEDS
        .into_iter()
        .zip([0x7b31_c464_e546_ce01, 0x7631_279c_81b3_4561])
    {
        let mut compiled = spec.compile().unwrap();
        assert_eq!(
            spec_stream_digest(&mut compiled, seed, 300),
            hand,
            "seed {seed}: shipped simple_ab.json diverged from the hand-rolled module"
        );
        let mut constructed = SimpleAb::new(rows_a).unwrap();
        assert_eq!(spec_stream_digest(&mut constructed, seed, 300), hand);
    }
}

fn tiny_scale() -> Scale {
    let mut s = Scale::quick();
    s.ycsb_records = 4_000;
    s.measure_secs = 0.002;
    s.phase_secs = 0.004;
    s.interval_min_secs = 0.002;
    s.interval_max_secs = 0.008;
    s
}

/// Run the shipped `spec` file and the in-crate constructor across all
/// four designs and assert every design's entire serialized outcome —
/// committed counts included — is byte-identical.
fn assert_full_run_parity(
    spec: &WorkloadSpec,
    constructed: impl Fn() -> Box<dyn Workload>,
    what: &str,
) {
    let scale = tiny_scale();
    let scenario = Scenario::new("spec-parity", scale.measure_secs);
    for (label, design) in ycsb_designs(&scale) {
        let job = |name: &str, workload: Box<dyn Workload>| {
            timeline_job(
                format!("{name}/{label}"),
                &scale,
                design.clone(),
                workload,
                &scenario,
            )
        };
        let file_outcome = job("file", Box::new(spec.compile().unwrap()))
            .run()
            .unwrap_or_else(|e| panic!("{what}/{label} (file): {e}"));
        let constructed_outcome = job("constructed", constructed())
            .run()
            .unwrap_or_else(|e| panic!("{what}/{label} (constructor): {e}"));
        assert!(
            file_outcome.total_committed() > 0,
            "{what}/{label}: the parity run committed nothing"
        );
        assert_eq!(
            serde::json::to_string_pretty(&file_outcome),
            serde::json::to_string_pretty(&constructed_outcome),
            "{what}/{label}: the shipped file and the constructor ran differently"
        );
    }
}

#[test]
fn ycsb_a_full_run_outcomes_match_on_all_four_designs() {
    let spec = shipped("ycsb_a.json");
    let records = spec.tables[0].keys;
    assert_full_run_parity(&spec, || Box::new(ycsb("A", records)), "ycsb-a");
}

#[test]
fn simple_ab_full_run_outcomes_match_on_all_four_designs() {
    let spec = shipped("simple_ab.json");
    let rows_a = spec.tables[0].keys;
    assert_full_run_parity(
        &spec,
        || Box::new(SimpleAb::new(rows_a).unwrap()),
        "simple-ab",
    );
}

/// Reconfiguration events reach the compiled engine through the bare
/// file and through `Ycsb::new` alike: after the same theta change both
/// produce the stream the hand-rolled generator did (recorded after the
/// `ZipfianTheta` shorthand, which drew the same stream).
#[test]
fn shipped_spec_reconfigures_in_lockstep_with_hand_rolled() {
    let spec = shipped("ycsb_a.json");
    let records = spec.tables[0].keys;
    let mut compiled = spec.compile().unwrap();
    let mut handle = ycsb("A", records);
    let change = WorkloadChange::Distribution {
        distribution: KeyDistribution::Zipfian { theta: 0.6 },
    };
    compiled.reconfigure(&change).unwrap();
    handle.reconfigure(&change).unwrap();
    let hand = 0x3d3b_8d07_26a6_47ee;
    assert_eq!(spec_stream_digest(&mut compiled, 11, 200), hand);
    assert_eq!(spec_stream_digest(&mut handle, 11, 200), hand);
}
