//! Interconnect (QPI) and memory-controller traffic accounting.
//!
//! The paper's §III-D uses Intel's Performance Counter Monitor to measure
//! the ratio of interconnect (QPI) to memory-controller (IMC) data traffic
//! and per-link utilization under different memory-allocation policies.  The
//! simulator reproduces those metrics by recording every cross-socket byte.

use crate::clock::{cycles_to_secs, Cycles};
use crate::topology::{SocketId, Topology};

/// Machine-wide traffic counters.
#[derive(Debug, Clone)]
pub struct Interconnect {
    n_sockets: usize,
    /// Bytes moved from socket `from` to socket `to`, indexed `[from][to]`.
    link_bytes: Vec<Vec<u64>>,
    /// Bytes served by local memory controllers (no interconnect crossing).
    pub local_memory_bytes: u64,
}

impl Interconnect {
    /// A traffic tracker for a machine with `n_sockets` sockets.
    pub fn new(n_sockets: usize) -> Self {
        Self {
            n_sockets,
            link_bytes: vec![vec![0; n_sockets]; n_sockets],
            local_memory_bytes: 0,
        }
    }

    /// Record `bytes` moving from `from` to `to` (no-op when equal).
    pub fn record(&mut self, from: SocketId, to: SocketId, bytes: u64) {
        if from == to {
            self.local_memory_bytes += bytes;
        } else {
            self.link_bytes[from.index()][to.index()] += bytes;
        }
    }

    /// Record bytes served by a local memory controller.
    pub fn record_local(&mut self, bytes: u64) {
        self.local_memory_bytes += bytes;
    }

    /// Total bytes that crossed any socket boundary.
    pub fn total_cross_socket_bytes(&self) -> u64 {
        self.link_bytes.iter().flatten().sum()
    }

    /// Bytes moved over the (undirected) link between `a` and `b`.
    pub fn link(&self, a: SocketId, b: SocketId) -> u64 {
        self.link_bytes[a.index()][b.index()] + self.link_bytes[b.index()][a.index()]
    }

    /// Ratio of interconnect traffic to memory-controller traffic
    /// (QPI / IMC in the paper's terminology).  Memory-controller traffic is
    /// local bytes plus remote bytes (every remote access is ultimately
    /// served by some controller).
    pub fn qpi_to_imc_ratio(&self) -> f64 {
        let qpi = self.total_cross_socket_bytes() as f64;
        let imc = (self.local_memory_bytes + self.total_cross_socket_bytes()) as f64;
        if imc == 0.0 {
            0.0
        } else {
            qpi / imc
        }
    }

    /// Bandwidth in Gbit/s of `bytes` moved over `elapsed` cycles at the
    /// topology's frequency.  Takes the byte count explicitly — pass a
    /// *delta* of [`Interconnect::total_cross_socket_bytes`] to get the
    /// bandwidth of a measurement window (dividing the cumulative counter
    /// by the cumulative clock yields a running average, not the window's
    /// bandwidth).
    pub fn bandwidth_gbps(bytes: u64, elapsed: Cycles, topo: &Topology) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let secs = cycles_to_secs(elapsed, topo.frequency_ghz());
        bytes as f64 * 8.0 / 1e9 / secs
    }

    /// Utilization (0..1) of the most-used directed link, given a per-link
    /// bandwidth in GB/s.
    pub fn max_link_utilization(
        &self,
        elapsed: Cycles,
        topo: &Topology,
        link_gbytes_per_sec: f64,
    ) -> f64 {
        if elapsed == 0 || link_gbytes_per_sec <= 0.0 {
            return 0.0;
        }
        let secs = cycles_to_secs(elapsed, topo.frequency_ghz());
        let max_bytes = self.link_bytes.iter().flatten().copied().max().unwrap_or(0) as f64;
        (max_bytes / secs) / (link_gbytes_per_sec * 1e9)
    }

    /// Reset all counters.
    pub fn reset(&mut self) {
        for row in &mut self.link_bytes {
            row.iter_mut().for_each(|b| *b = 0);
        }
        self.local_memory_bytes = 0;
    }

    /// Number of sockets this tracker was built for.
    pub fn num_sockets(&self) -> usize {
        self.n_sockets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates_traffic() {
        let mut ic = Interconnect::new(4);
        ic.record(SocketId(0), SocketId(1), 100);
        ic.record(SocketId(1), SocketId(0), 50);
        ic.record(SocketId(2), SocketId(2), 999); // local
        assert_eq!(ic.total_cross_socket_bytes(), 150);
        assert_eq!(ic.link(SocketId(0), SocketId(1)), 150);
        assert_eq!(ic.local_memory_bytes, 999);
    }

    #[test]
    fn qpi_imc_ratio_matches_definition() {
        let mut ic = Interconnect::new(2);
        // All-local: ratio ~ 0.
        ic.record_local(1000);
        assert!(ic.qpi_to_imc_ratio() < 1e-9);
        // Add remote traffic equal to local: ratio = 0.5.
        ic.record(SocketId(0), SocketId(1), 1000);
        assert!((ic.qpi_to_imc_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_is_bytes_over_time() {
        let topo = Topology::multisocket(2, 2); // 2.4 GHz
        let mut ic = Interconnect::new(2);
        ic.record(SocketId(0), SocketId(1), 3_000_000_000); // 3 GB
        let one_sec = crate::clock::secs_to_cycles(1.0, topo.frequency_ghz());
        let gbps = Interconnect::bandwidth_gbps(ic.total_cross_socket_bytes(), one_sec, &topo);
        assert!((gbps - 24.0).abs() < 0.1, "got {gbps}");
        assert_eq!(Interconnect::bandwidth_gbps(123, 0, &topo), 0.0);
    }

    #[test]
    fn reset_clears_counters() {
        let mut ic = Interconnect::new(2);
        ic.record(SocketId(0), SocketId(1), 10);
        ic.record_local(20);
        ic.reset();
        assert_eq!(ic.total_cross_socket_bytes(), 0);
        assert_eq!(ic.local_memory_bytes, 0);
    }
}
