//! The motivation experiments of paper §III: how the existing designs behave
//! on multisocket hardware (Figures 1–5, Table I).

use crate::harness::{grid, labelled, machine, measurement_job, run_meta, stats, Scale};
use crate::report::FigureResult;
use atrapos_engine::sweep::SweepJob;
use atrapos_engine::{DesignSpec, RunStats, SharedNothingGranularity};
use atrapos_numa::{Component, SocketId};
use atrapos_storage::MemoryPolicy;
use atrapos_workloads::{MultiSiteUpdate, ReadManyRows, ReadOneRow};

/// The scale-up figures (1, 2, 5): `metric` of every design on the
/// perfectly partitionable microbenchmark, one row per socket count.
fn scaleup_figure(
    mut fig: FigureResult,
    scale: &Scale,
    socket_counts: &[usize],
    designs: &[DesignSpec],
    metric: fn(&RunStats) -> f64,
) -> FigureResult {
    grid(
        &mut fig,
        socket_counts,
        designs,
        |&sockets, design| {
            measurement_job(
                format!("{sockets}-socket/{}", design.label()),
                machine(sockets, scale.cores_per_socket),
                design.clone(),
                Box::new(ReadOneRow::partitionable(
                    scale.micro_rows,
                    sockets * scale.cores_per_socket,
                    1,
                )),
                scale.measure_secs,
            )
        },
        |sockets, measured| labelled(sockets, measured.iter().map(|s| metric(s))),
    );
    fig.set_meta(run_meta(scale.max_sockets, scale.cores_per_socket));
    fig
}

/// The three designs of Figures 1 and 2.
fn existing_designs() -> [DesignSpec; 3] {
    [
        DesignSpec::extreme_shared_nothing(false),
        DesignSpec::Centralized,
        DesignSpec::Plp,
    ]
}

/// Figure 1: instructions retired per cycle of the extreme shared-nothing,
/// centralized, and PLP designs on the perfectly partitionable
/// microbenchmark, for 1/2/4/8 sockets.
pub fn fig01_ipc(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig01",
        "Instructions retired per cycle (perfectly partitionable workload)",
        vec!["sockets", "extreme-SN", "centralized", "PLP"],
    );
    fig.note("expected shape: shared-nothing flat; centralized rises with spinning; PLP drops with cross-socket CAS stalls");
    let socket_counts = [1usize, 2, 4, 8].map(|s| s.min(scale.max_sockets));
    scaleup_figure(fig, scale, &socket_counts, &existing_designs(), |s| s.ipc)
}

/// Figure 2: throughput (millions of transactions per second) of the same
/// three designs as the number of sockets grows.
pub fn fig02_scaleup(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig02",
        "Throughput of shared-nothing, centralized, and PLP (MTPS)",
        vec!["sockets", "extreme-SN", "centralized", "PLP"],
    );
    fig.note("expected shape: extreme shared-nothing scales linearly; centralized and PLP stop scaling past 1-2 sockets");
    let socket_counts: Vec<usize> = (1..=scale.max_sockets).collect();
    scaleup_figure(fig, scale, &socket_counts, &existing_designs(), |s| {
        s.throughput_tps / 1e6
    })
}

/// Figure 5: throughput of the perfectly partitionable workload for the
/// extreme/coarse shared-nothing designs, ATraPos, and PLP.
pub fn fig05_atrapos_scaleup(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig05",
        "Throughput of a perfectly partitionable workload (MTPS)",
        vec!["sockets", "extreme-SN", "coarse-SN", "ATraPos", "PLP"],
    );
    fig.note(
        "expected shape: ATraPos scales like both shared-nothing configurations; PLP does not",
    );
    let socket_counts: Vec<usize> = (1..=scale.max_sockets).collect();
    let designs = [
        DesignSpec::extreme_shared_nothing(false),
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::atrapos(),
        DesignSpec::Plp,
    ];
    scaleup_figure(fig, scale, &socket_counts, &designs, |s| {
        s.throughput_tps / 1e6
    })
}

/// The percentages of multi-site transactions Figures 3 and 4 sweep.
const MULTI_SITE_PCTS: [u32; 6] = [0, 20, 40, 60, 80, 100];

/// One multi-site-update job on the largest machine: one site per core for
/// the extreme shared-nothing design, one per socket otherwise.
fn multisite_job(scale: &Scale, pct: u32, design: &DesignSpec) -> SweepJob {
    let (sockets, cores) = (scale.max_sockets, scale.cores_per_socket);
    let (sites, cores_per_site) = match design {
        DesignSpec::SharedNothing {
            granularity: SharedNothingGranularity::PerCore,
            ..
        } => (sockets * cores, 1),
        _ => (sockets, cores),
    };
    measurement_job(
        format!("{pct}%-multi-site/{}", design.label()),
        machine(sockets, cores),
        design.clone(),
        Box::new(MultiSiteUpdate::new(
            scale.micro_rows,
            sites,
            cores_per_site,
            pct,
        )),
        scale.measure_secs,
    )
}

/// Figure 3: throughput (KTPS) as the percentage of multi-site update
/// transactions grows, for the extreme/coarse shared-nothing and the
/// centralized designs.
pub fn fig03_multisite(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig03",
        "Throughput vs. % multi-site transactions (KTPS)",
        vec!["% multi-site", "extreme-SN", "coarse-SN", "centralized"],
    );
    let designs = [
        DesignSpec::extreme_shared_nothing(true),
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::Centralized,
    ];
    grid(
        &mut fig,
        &MULTI_SITE_PCTS,
        &designs,
        |&pct, design| multisite_job(scale, pct, design),
        |pct, measured| labelled(pct, measured.iter().map(|s| s.throughput_tps / 1e3)),
    );
    fig.note("expected shape: shared-nothing throughput collapses as multi-site % grows; centralized is flat but low");
    fig.set_meta(run_meta(scale.max_sockets, scale.cores_per_socket));
    fig
}

/// Figure 4: per-transaction time breakdown of the coarse shared-nothing
/// configuration as the percentage of multi-site transactions grows.
pub fn fig04_breakdown(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig04",
        "Time breakdown per transaction, coarse shared-nothing (µs)",
        vec![
            "% multi-site",
            "xct management",
            "xct execution",
            "communication",
            "locking",
            "logging",
            "total",
        ],
    );
    let components = [
        Component::XctManagement,
        Component::XctExecution,
        Component::Communication,
        Component::Locking,
        Component::Logging,
    ];
    let ghz = 2.4;
    grid(
        &mut fig,
        &MULTI_SITE_PCTS,
        &[DesignSpec::coarse_shared_nothing()],
        |&pct, design| multisite_job(scale, pct, design),
        |pct, measured| {
            let s = measured[0];
            let per_txn: Vec<f64> = components
                .iter()
                .map(|&c| match s.committed {
                    0 => 0.0,
                    n => atrapos_numa::cycles_to_micros(s.breakdown.get(c), ghz) / n as f64,
                })
                .collect();
            let total = per_txn.iter().sum();
            labelled(pct, per_txn.into_iter().chain([total]))
        },
    );
    let last = MULTI_SITE_PCTS.len() - 1;
    if let (Some(locking), Some(total)) = (fig.num(last, 4), fig.num(last, 6)) {
        fig.note(format!(
            "expected shape: total time per transaction grows steeply with multi-site %; \
             here the growth is lock waiting ({:.0}% of the total at 100%, locks are held \
             across the commit round trips) and communication — logging and transaction \
             management grow too but stay a small part (the paper attributes more of it \
             to logging)",
            100.0 * locking / total
        ));
    }
    fig.set_meta(run_meta(scale.max_sockets, scale.cores_per_socket));
    fig
}

/// Table I: per-instance throughput of the coarse shared-nothing deployment
/// under the Local / Central / Remote memory-allocation policies.
pub fn tab01_memory_policy(scale: &Scale) -> FigureResult {
    let sockets = scale.max_sockets;
    let mut header = vec!["policy".to_string()];
    header.extend((0..sockets).map(|s| format!("socket{s}")));
    header.push("total".to_string());
    let mut fig = FigureResult::new(
        "tab01",
        "Throughput (TPS) per instance under memory-allocation policies",
        header.iter().map(String::as_str).collect(),
    );
    let policies = [
        MemoryPolicy::Local,
        MemoryPolicy::Central(SocketId((sockets - 1) as u16)),
        MemoryPolicy::Remote,
    ];
    let outcomes = grid(
        &mut fig,
        &policies,
        &[()],
        |&policy, _| {
            measurement_job(
                policy.label(),
                machine(sockets, scale.cores_per_socket),
                DesignSpec::shared_nothing_with_memory_policy(policy),
                Box::new(ReadManyRows::with_rows(scale.memory_rows, 100)),
                scale.measure_secs,
            )
        },
        |policy, measured| {
            let s = measured[0];
            let per_socket = (0..sockets).map(|i| {
                s.committed_by_socket.get(i).copied().unwrap_or(0) as f64 / scale.measure_secs
            });
            labelled(policy.label(), per_socket.chain([s.throughput_tps]))
        },
    );
    let totals: Vec<f64> = outcomes.iter().map(|o| stats(o).throughput_tps).collect();
    if totals[0] > 0.0 {
        fig.note(format!(
            "central penalty {:.1}%, remote penalty {:.1}% (paper: 2.5-6.2% and 3.3-7%)",
            (1.0 - totals[1] / totals[0]) * 100.0,
            (1.0 - totals[2] / totals[0]) * 100.0
        ));
    }
    fig.set_meta(run_meta(sockets, scale.cores_per_socket));
    fig
}
