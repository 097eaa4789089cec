//! Provenance metadata for emitted reports.
//!
//! Every JSON artifact the harnesses write (`reports/BENCH_*.json`) embeds
//! a [`RunMeta`]: the simulated machine, the workload-generator seed, and
//! the number of OS threads the experiment lab fanned out over.  A report
//! file is therefore self-describing — a reader can tell *what* was
//! simulated without chasing the harness source at the revision that wrote
//! it.
//!
//! Only the machine spec and the seed influence simulated results (the lab
//! is deterministic across thread counts); `threads` is recorded anyway as
//! context for how long the run took on the host.

use atrapos_numa::{CostModel, Machine};
use serde::{Deserialize, Serialize};

/// The provenance of one simulated experiment: machine spec, seed, and
/// experiment-lab thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Sockets of the simulated machine.
    pub sockets: usize,
    /// Cores per socket of the simulated machine.
    pub cores_per_socket: usize,
    /// Interconnect cost model: `"westmere"` (the calibrated default),
    /// `"uniform"` (the no-remote-penalty ablation model), or `"custom"`.
    pub cost_model: String,
    /// Workload-generator seed.
    pub seed: u64,
    /// OS threads the experiment lab ran on.  Does not affect simulated
    /// results (the lab is deterministic); recorded for wall-clock context.
    pub threads: usize,
}

impl RunMeta {
    /// Describe a run of `machine` with the given seed and lab thread
    /// count.
    pub fn of(machine: &Machine, seed: u64, threads: usize) -> Self {
        let sockets = machine.topology.num_sockets();
        let cores_per_socket = machine
            .topology
            .num_cores()
            .checked_div(sockets)
            .unwrap_or(0);
        Self {
            sockets,
            cores_per_socket,
            cost_model: cost_model_label(&machine.cost).to_string(),
            seed,
            threads,
        }
    }

    /// One-line human-readable summary, e.g.
    /// `4×4 cores, westmere costs, seed 42, 8 threads`.
    pub fn summary(&self) -> String {
        format!(
            "{}×{} cores, {} costs, seed {}, {} thread{}",
            self.sockets,
            self.cores_per_socket,
            self.cost_model,
            self.seed,
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        )
    }
}

/// A fingerprint of the *real* machine a harness process ran on — as
/// opposed to [`RunMeta`], which describes the *simulated* machine.
///
/// Simulated results are host-independent, but wall-clock numbers are
/// only comparable between runs on the same hardware, so everything that
/// records host time (the `benchmark/` suite's result files) stores this
/// fingerprint beside its numbers.  Detection is best-effort and deterministic for a given host:
/// OS, architecture, CPU model string (from `/proc/cpuinfo` where
/// available), and the core count the process can use.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostFingerprint {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// CPU model name, or `"unknown"` where it cannot be read.
    pub cpu_model: String,
    /// Cores available to the process (`std::thread::available_parallelism`).
    pub cpus: usize,
}

impl HostFingerprint {
    /// Fingerprint the machine this process is running on.
    pub fn detect() -> Self {
        Self {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpu_model: cpu_model(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// One-line human-readable summary, e.g.
    /// `linux/x86_64, 8 cpus, Intel(R) Xeon(R) ...`.
    pub fn summary(&self) -> String {
        format!(
            "{}/{}, {} cpu{}, {}",
            self.os,
            self.arch,
            self.cpus,
            if self.cpus == 1 { "" } else { "s" },
            self.cpu_model
        )
    }
}

/// The host CPU's model name, read from `/proc/cpuinfo` (Linux); other
/// platforms report `"unknown"` and rely on OS/arch/core count.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Name a cost model by comparing it against the two built-in presets.
fn cost_model_label(cost: &CostModel) -> &'static str {
    if *cost == CostModel::westmere() {
        "westmere"
    } else if *cost == CostModel::uniform() {
        "uniform"
    } else {
        "custom"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_numa::Topology;

    #[test]
    fn meta_records_machine_shape_and_cost_model() {
        let m = Machine::new(Topology::multisocket(4, 10), CostModel::westmere());
        let meta = RunMeta::of(&m, 42, 8);
        assert_eq!(meta.sockets, 4);
        assert_eq!(meta.cores_per_socket, 10);
        assert_eq!(meta.cost_model, "westmere");
        assert_eq!(
            meta.summary(),
            "4×10 cores, westmere costs, seed 42, 8 threads"
        );

        let u = Machine::new(Topology::multisocket(2, 2), CostModel::uniform());
        assert_eq!(RunMeta::of(&u, 7, 1).cost_model, "uniform");
        let mut custom = CostModel::westmere();
        custom.base_ipc *= 2.0;
        let c = Machine::new(Topology::multisocket(2, 2), custom);
        assert_eq!(RunMeta::of(&c, 7, 1).cost_model, "custom");
    }

    #[test]
    fn host_fingerprint_is_stable_and_round_trips() {
        let a = HostFingerprint::detect();
        let b = HostFingerprint::detect();
        // Same process, same host: detection must be deterministic — the
        // gate's comparability rule is fingerprint equality.
        assert_eq!(a, b);
        assert!(!a.os.is_empty() && !a.arch.is_empty());
        assert!(a.cpus >= 1);
        assert!(!a.cpu_model.is_empty());
        let json = serde::json::to_string_pretty(&a);
        let back: HostFingerprint = serde::json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert!(back.summary().contains(&back.os));
    }

    #[test]
    fn meta_round_trips_through_json() {
        let m = Machine::new(Topology::multisocket(2, 3), CostModel::westmere());
        let meta = RunMeta::of(&m, 9, 2);
        let json = serde::json::to_string_pretty(&meta);
        let back: RunMeta = serde::json::from_str(&json).unwrap();
        assert_eq!(back, meta);
    }
}
