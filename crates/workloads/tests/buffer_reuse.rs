//! One reused spec buffer generates exactly what fresh buffers do, for
//! every shipped generator.
//!
//! The executor refills one `TransactionSpec` per client stream, so a
//! generator that leaves anything of the previous transaction behind (a
//! trailing phase, a stale action, a synchronization payload) changes what
//! the simulator runs.  Each case builds two twin workloads from the same
//! constructor and drives them with the same rng seed: one refills a single
//! buffer, the other generates every transaction into a fresh one.

use atrapos_engine::{TransactionSpec, Workload};
use atrapos_numa::CoreId;
use atrapos_workloads::ycsb::MIX_NAMES;
use atrapos_workloads::{
    MultiSiteUpdate, ReadManyRows, ReadOneRow, SimpleAb, Tatp, TatpConfig, TatpTxn, Tpcc,
    TpccConfig, TpccTxn, Ycsb, YcsbConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Transactions each case compares.
const TRANSACTIONS: usize = 1_000;

/// Drive two twins from `make` with one seed: one refills a single buffer,
/// the other generates into fresh ones.
fn assert_reuse_matches_fresh<W: Workload>(name: &str, make: impl Fn() -> W) {
    let (mut reused, mut fresh) = (make(), make());
    let mut rng_reused = SmallRng::seed_from_u64(11);
    let mut rng_fresh = SmallRng::seed_from_u64(11);
    let mut buf = TransactionSpec::empty();
    for i in 0..TRANSACTIONS {
        let client = CoreId((i % 4) as u32);
        reused.next_transaction_into(&mut rng_reused, client, &mut buf);
        let expected = fresh.next_transaction(&mut rng_fresh, client);
        assert_eq!(buf, expected, "{name}: transaction {i}");
    }
}

#[test]
fn tatp_standard_mix_and_every_single_type() {
    assert_reuse_matches_fresh("TATP standard mix", || Tatp::new(TatpConfig::scaled(1_000)));
    for txn in TatpTxn::ALL {
        assert_reuse_matches_fresh(&format!("TATP {}", txn.label()), || {
            let mut w = Tatp::new(TatpConfig::scaled(1_000));
            w.set_single(txn);
            w
        });
    }
}

/// Two warehouses deliver their preloaded orders within the first few
/// dozen Deliveries, so both of Delivery's shapes (two phases, and the
/// one-read fallback) follow longer transactions here.
#[test]
fn tpcc_standard_mix_and_every_single_type() {
    assert_reuse_matches_fresh("TPC-C standard mix", || Tpcc::new(TpccConfig::scaled(2)));
    for txn in TpccTxn::ALL {
        assert_reuse_matches_fresh(&format!("TPC-C {}", txn.label()), || {
            let mut w = Tpcc::new(TpccConfig::scaled(2));
            w.set_single(txn);
            w
        });
    }
}

#[test]
fn ycsb_core_mixes() {
    for name in MIX_NAMES {
        assert_reuse_matches_fresh(&format!("YCSB-{name}"), || {
            Ycsb::new(YcsbConfig::named(name, 1_000).unwrap()).unwrap()
        });
    }
}

#[test]
fn simple_ab_and_the_microbenchmarks() {
    assert_reuse_matches_fresh("SimpleAb", || SimpleAb::new(1_000).unwrap());
    assert_reuse_matches_fresh("read-one-row, 4 sites", || {
        ReadOneRow::partitionable(10_000, 4, 1)
    });
    assert_reuse_matches_fresh("multi-site-update, 50 %", || {
        MultiSiteUpdate::new(10_000, 4, 1, 50)
    });
    assert_reuse_matches_fresh("read-many-rows", || ReadManyRows::with_rows(10_000, 100));
}
