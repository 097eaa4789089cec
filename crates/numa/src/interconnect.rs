//! The two interconnect metrics a run reports, derived from its byte
//! totals.
//!
//! The paper's §III-D uses Intel's Performance Counter Monitor to measure
//! the ratio of interconnect (QPI) to memory-controller (IMC) data traffic
//! under different memory-allocation policies (Table I).  The simulator
//! counts the same two quantities machine-wide — bytes that crossed a
//! socket boundary and bytes served by a local memory controller, the
//! [`crate::Tally`] fields `remote_bytes` and `local_memory_bytes` — and
//! derives the ratio and the bandwidth from them.  Nothing is kept per link.

use crate::clock::{cycles_to_secs, Cycles};
use crate::topology::Topology;

/// Ratio of interconnect traffic to memory-controller traffic (QPI / IMC
/// in the paper's terminology); 0.0 when no byte moved.  Memory-controller
/// traffic is local plus remote bytes: every remote access is ultimately
/// served by some controller.
pub fn qpi_imc_ratio(remote_bytes: u64, local_bytes: u64) -> f64 {
    let memory_bytes = remote_bytes + local_bytes;
    if memory_bytes == 0 {
        0.0
    } else {
        remote_bytes as f64 / memory_bytes as f64
    }
}

/// Bandwidth in Gbit/s of `bytes` moved over `elapsed` cycles at the
/// topology's frequency.  Pass the bytes and cycles of one measurement
/// window: dividing a cumulative count by the cumulative clock yields a
/// running average, not the window's bandwidth.
pub fn bandwidth_gbps(bytes: u64, elapsed: Cycles, topo: &Topology) -> f64 {
    if elapsed == 0 {
        return 0.0;
    }
    let secs = cycles_to_secs(elapsed, topo.frequency_ghz());
    bytes as f64 * 8.0 / 1e9 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpi_imc_ratio_matches_definition() {
        assert_eq!(qpi_imc_ratio(0, 0), 0.0);
        // All-local: ratio 0.
        assert_eq!(qpi_imc_ratio(0, 1000), 0.0);
        // Remote traffic equal to local: ratio 0.5.
        assert!((qpi_imc_ratio(1000, 1000) - 0.5).abs() < 1e-12);
        assert_eq!(qpi_imc_ratio(1000, 0), 1.0);
    }

    #[test]
    fn bandwidth_is_bytes_over_time() {
        let topo = Topology::multisocket(2, 2); // 2.4 GHz
        let one_sec = crate::clock::secs_to_cycles(1.0, topo.frequency_ghz());
        let gbps = bandwidth_gbps(3_000_000_000, one_sec, &topo); // 3 GB
        assert!((gbps - 24.0).abs() < 0.1, "got {gbps}");
        assert_eq!(bandwidth_gbps(123, 0, &topo), 0.0);
    }
}
