//! Chase a moving hotspot: run YCSB-A while a compact hot window rotates
//! around the keyspace, on a static layout and on adaptive ATraPos, and
//! print both throughput time series side by side.
//!
//! The drifting skew arrives as a plain scenario event
//! (`SetSkew { Drift { .. } }`), so the same timeline works on any design
//! and could be loaded from a JSON file.
//!
//! ```text
//! cargo run --release -p atrapos-bench --example ycsb_drift
//! ```

use atrapos_core::{AdaptiveInterval, ControllerConfig, KeyDistribution};
use atrapos_engine::scenario::{Scenario, ScenarioEvent};
use atrapos_engine::sweep::{default_threads, run_sweep, SweepJob};
use atrapos_engine::{AtraposConfig, DesignSpec, ExecutorConfig};
use atrapos_numa::{CostModel, Machine, Topology};
use atrapos_workloads::{Ycsb, YcsbConfig};

fn main() {
    // One uniform warm-up phase, then the hot window (10% of the keys,
    // 90% of the accesses) starts a slow rotation around the keyspace.
    let scenario = Scenario::new("ycsb-drift", 0.75).starting_as("uniform").at(
        0.25,
        "drifting",
        ScenarioEvent::SetSkew {
            distribution: KeyDistribution::Drift {
                data_fraction: 0.1,
                access_fraction: 0.9,
                period_txns: 4_000_000,
            },
        },
    );

    let static_spec = DesignSpec::atrapos_named("static", AtraposConfig::static_atrapos());
    let adaptive_spec = DesignSpec::atrapos_with(AtraposConfig {
        monitoring: true,
        adaptive: true,
        controller: ControllerConfig {
            interval: AdaptiveInterval::new(0.05, 0.4, 0.10),
            ..ControllerConfig::default()
        },
        ..AtraposConfig::default()
    });

    let job = |name: &str, spec: DesignSpec| SweepJob {
        name: name.to_string(),
        machine: Machine::new(Topology::multisocket(4, 4), CostModel::westmere()),
        design: spec,
        workload: Box::new(
            Ycsb::new(YcsbConfig::workload_a(25_000).with_distribution(KeyDistribution::Uniform))
                .expect("YCSB-A over 25 000 records is a valid config"),
        ),
        scenario: scenario.clone(),
        config: ExecutorConfig {
            seed: 42,
            default_interval_secs: 0.05,
            time_series_bucket_secs: 0.05,
        },
    };

    let mut results = run_sweep(
        vec![job("static", static_spec), job("adaptive", adaptive_spec)],
        default_threads(),
    );
    let adaptive = results.remove(1).outcome.expect("adaptive run succeeds");
    let static_ = results.remove(0).outcome.expect("static run succeeds");

    println!(
        "{:>7}  {:>14}  {:>14}",
        "t (s)", "static TPS", "adaptive TPS"
    );
    let s = static_.time_series();
    let a = adaptive.time_series();
    for (sp, ap) in s.iter().zip(a.iter()) {
        let marker = if ap.tps > sp.tps {
            "  <- adaptive ahead"
        } else {
            ""
        };
        println!(
            "{:>7.2}  {:>14.0}  {:>14.0}{marker}",
            sp.secs, sp.tps, ap.tps
        );
    }
    println!(
        "totals: static {} committed, adaptive {} committed \
         ({} repartitionings)",
        static_.total_committed(),
        adaptive.total_committed(),
        adaptive.total_repartitions(),
    );
}
