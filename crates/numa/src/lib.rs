//! # atrapos-numa
//!
//! Hardware-Island (multisocket multicore NUMA) machine model and the
//! deterministic virtual-time simulation substrate used by the ATraPos
//! reproduction.
//!
//! The ATraPos paper (Porobic et al., ICDE 2014) evaluates its storage-manager
//! design on an 8-socket × 10-core Intel Westmere server.  Cross-socket
//! communication (cache-line transfers, atomic operations, memory accesses)
//! is several times more expensive than socket-local communication, which is
//! exactly the effect the paper's design exploits.  Since that class of
//! hardware is not available in this environment, this crate models it
//! explicitly:
//!
//! * [`Topology`] — sockets, cores, and an inter-socket distance (hop) matrix,
//!   with presets for the paper's 8-socket twisted-cube box as well as smaller
//!   configurations.
//! * [`CostModel`] — calibrated cycle costs for local/remote cache-line
//!   transfers, memory accesses, atomic read-modify-write operations, and
//!   message exchanges.
//! * [`ContendedLine`] — the virtual-time model of a contended cache line
//!   (the head of a lock-free list that every transaction CASes, a
//!   lock-table bucket latch, a log-buffer head).  It serializes exclusive
//!   accesses in virtual time and charges distance-dependent transfer
//!   costs, which is what produces the multisocket scalability collapse of
//!   centralized designs.
//! * [`SimCtx`] — the accounting context threaded through every storage and
//!   engine operation.  It accumulates instructions, cycles (split by
//!   [`Component`]), and interconnect traffic for the current step.
//! * [`Machine`] — the aggregate: topology + cost model + per-core counters +
//!   interconnect traffic, with derived metrics (IPC, QPI/IMC ratios,
//!   per-component time breakdowns).
//!
//! Everything is deterministic and single-threaded: a discrete virtual clock
//! replaces wall-clock time, so every figure of the paper can be regenerated
//! bit-for-bit on any host.

pub mod clock;
pub mod contention;
pub mod cost;
pub mod counters;
pub mod ctx;
pub mod interconnect;
pub mod machine;
pub mod placement;
pub mod topology;

pub use clock::{
    cycles_to_micros, cycles_to_secs, frac_cycles_to_micros, micros_to_cycles, secs_to_cycles,
    Cycles,
};
pub use contention::{AccessKind, ContendedLine, WaitMode};
pub use cost::CostModel;
pub use counters::{
    Breakdown, Component, CoreCounters, Tally, TrafficList, Transfer, COMPONENT_COUNT,
};
pub use ctx::SimCtx;
pub use interconnect::Interconnect;
pub use machine::Machine;
pub use placement::{round_robin_by_socket, socket_fill, CorePlacement};
pub use topology::{CoreId, SocketId, Topology, TopologyKind, UnknownSocket};
