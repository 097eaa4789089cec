//! The motivation experiments of paper §III: how the existing designs behave
//! on multisocket hardware (Figures 1–5, Table I).

use crate::harness::{measure, measure_with_memory_policy, run_meta, Scale};
use crate::report::{fmt, FigureResult};
use atrapos_engine::DesignSpec;
use atrapos_numa::Component;
use atrapos_numa::SocketId;
use atrapos_storage::MemoryPolicy;
use atrapos_workloads::{MultiSiteUpdate, ReadManyRows, ReadOneRow};

/// Socket counts used by the scale-up figures.
fn socket_counts(max: usize) -> Vec<usize> {
    (1..=max).collect()
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
    for sockets in [1usize, 2, 4, 8] {
        let sockets = sockets.min(scale.max_sockets);
        let mut row = vec![sockets.to_string()];
        for kind in [
            DesignSpec::extreme_shared_nothing(false),
            DesignSpec::Centralized,
            DesignSpec::Plp,
        ] {
            let stats = measure(
                sockets,
                scale.cores_per_socket,
                &kind,
                Box::new(ReadOneRow::partitionable(
                    scale.micro_rows,
                    sockets * scale.cores_per_socket,
                    1,
                )),
                scale.measure_secs,
            );
            row.push(fmt(stats.ipc));
        }
        fig.push_row(row);
    }
    fig.note("expected shape: shared-nothing flat; centralized rises with spinning; PLP drops with cross-socket CAS stalls");
    fig.set_meta(run_meta(scale.max_sockets, scale.cores_per_socket));
    fig
}

/// Figure 2: throughput (millions of transactions per second) of the same
/// three designs as the number of sockets grows.
pub fn fig02_scaleup(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig02",
        "Throughput of shared-nothing, centralized, and PLP (MTPS)",
        vec!["sockets", "extreme-SN", "centralized", "PLP"],
    );
    for sockets in socket_counts(scale.max_sockets) {
        let mut row = vec![sockets.to_string()];
        for kind in [
            DesignSpec::extreme_shared_nothing(false),
            DesignSpec::Centralized,
            DesignSpec::Plp,
        ] {
            let stats = measure(
                sockets,
                scale.cores_per_socket,
                &kind,
                Box::new(ReadOneRow::partitionable(
                    scale.micro_rows,
                    sockets * scale.cores_per_socket,
                    1,
                )),
                scale.measure_secs,
            );
            row.push(fmt(stats.throughput_tps / 1e6));
        }
        fig.push_row(row);
    }
    fig.note("expected shape: extreme shared-nothing scales linearly; centralized and PLP stop scaling past 1-2 sockets");
    fig.set_meta(run_meta(scale.max_sockets, scale.cores_per_socket));
    fig
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
    let sockets = scale.max_sockets;
    let cores = scale.cores_per_socket;
    for pct in [0u32, 20, 40, 60, 80, 100] {
        let mut row = vec![pct.to_string()];
        for kind in [
            DesignSpec::extreme_shared_nothing(true),
            DesignSpec::coarse_shared_nothing(),
            DesignSpec::Centralized,
        ] {
            let (sites, cores_per_site) = match &kind {
                DesignSpec::SharedNothing {
                    granularity: atrapos_engine::SharedNothingGranularity::PerCore,
                    ..
                } => (sockets * cores, 1),
                _ => (sockets, cores),
            };
            let workload = MultiSiteUpdate::new(scale.micro_rows, sites, cores_per_site, pct);
            let stats = measure(
                sockets,
                cores,
                &kind,
                Box::new(workload),
                scale.measure_secs,
            );
            row.push(fmt(stats.throughput_tps / 1e3));
        }
        fig.push_row(row);
    }
    fig.note("expected shape: shared-nothing throughput collapses as multi-site % grows; centralized is flat but low");
    fig.set_meta(run_meta(sockets, cores));
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
    let sockets = scale.max_sockets;
    let cores = scale.cores_per_socket;
    let ghz = 2.4;
    for pct in [0u32, 20, 40, 60, 80, 100] {
        let workload = MultiSiteUpdate::new(scale.micro_rows, sockets, cores, pct);
        let stats = measure(
            sockets,
            cores,
            &DesignSpec::coarse_shared_nothing(),
            Box::new(workload),
            scale.measure_secs,
        );
        let per_txn = |c: Component| {
            if stats.committed == 0 {
                0.0
            } else {
                atrapos_numa::cycles_to_micros(stats.breakdown.get(c), ghz) / stats.committed as f64
            }
        };
        let mgmt = per_txn(Component::XctManagement);
        let exec = per_txn(Component::XctExecution);
        let comm = per_txn(Component::Communication);
        let lock = per_txn(Component::Locking);
        let log = per_txn(Component::Logging);
        fig.push_row(vec![
            pct.to_string(),
            fmt(mgmt),
            fmt(exec),
            fmt(comm),
            fmt(lock),
            fmt(log),
            fmt(mgmt + exec + comm + lock + log),
        ]);
    }
    fig.note("expected shape: total time per transaction grows steeply with multi-site %, driven by logging, communication, and transaction management");
    fig.set_meta(run_meta(sockets, cores));
    fig
}

/// Table I: per-instance throughput of the coarse shared-nothing deployment
/// under the Local / Central / Remote memory-allocation policies.
pub fn tab01_memory_policy(scale: &Scale) -> FigureResult {
    let sockets = scale.max_sockets;
    let mut header = vec!["policy".to_string()];
    for s in 0..sockets {
        header.push(format!("socket{s}"));
    }
    header.push("total".to_string());
    let mut fig = FigureResult::new(
        "tab01",
        "Throughput (TPS) per instance under memory-allocation policies",
        header.iter().map(|s| s.as_str()).collect(),
    );
    let mut totals = Vec::new();
    for policy in [
        MemoryPolicy::Local,
        MemoryPolicy::Central(SocketId((sockets - 1) as u16)),
        MemoryPolicy::Remote,
    ] {
        let stats = measure_with_memory_policy(
            sockets,
            scale.cores_per_socket,
            policy,
            Box::new(ReadManyRows::with_rows(scale.memory_rows, 100)),
            scale.measure_secs,
        );
        let mut row = vec![policy.label().to_string()];
        for s in 0..sockets {
            row.push(fmt(stats.committed_by_socket.get(s).copied().unwrap_or(0)
                as f64
                / scale.measure_secs));
        }
        row.push(fmt(stats.throughput_tps));
        totals.push(stats.throughput_tps);
        fig.push_row(row);
    }
    if totals.len() == 3 && totals[0] > 0.0 {
        fig.note(format!(
            "central penalty {:.1}%, remote penalty {:.1}% (paper: 2.5-6.2% and 3.3-7%)",
            (1.0 - totals[1] / totals[0]) * 100.0,
            (1.0 - totals[2] / totals[0]) * 100.0
        ));
    }
    fig.set_meta(run_meta(sockets, scale.cores_per_socket));
    fig
}

/// Figure 5: throughput of the perfectly partitionable workload for the
/// extreme/coarse shared-nothing designs, ATraPos, and PLP.
pub fn fig05_atrapos_scaleup(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig05",
        "Throughput of a perfectly partitionable workload (MTPS)",
        vec!["sockets", "extreme-SN", "coarse-SN", "ATraPos", "PLP"],
    );
    for sockets in socket_counts(scale.max_sockets) {
        let mut row = vec![sockets.to_string()];
        for kind in [
            DesignSpec::extreme_shared_nothing(false),
            DesignSpec::coarse_shared_nothing(),
            DesignSpec::atrapos(),
            DesignSpec::Plp,
        ] {
            let stats = measure(
                sockets,
                scale.cores_per_socket,
                &kind,
                Box::new(ReadOneRow::partitionable(
                    scale.micro_rows,
                    sockets * scale.cores_per_socket,
                    1,
                )),
                scale.measure_secs,
            );
            row.push(fmt(stats.throughput_tps / 1e6));
        }
        fig.push_row(row);
    }
    fig.note(
        "expected shape: ATraPos scales like both shared-nothing configurations; PLP does not",
    );
    fig.set_meta(run_meta(scale.max_sockets, scale.cores_per_socket));
    fig
}
