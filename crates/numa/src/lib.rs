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
//! * [`Topology`] — sockets, cores, and an inter-socket distance (hop) matrix:
//!   the paper's 8-socket twisted-cube box, and smaller fully connected
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
//!   engine operation.  It accumulates a step's [`Tally`]: instructions,
//!   cycles (split by [`Component`]), and the bytes it moved across socket
//!   boundaries and from local memory.
//! * [`Machine`] — the aggregate: topology + cost model + one machine-wide
//!   running [`Tally`].  A run reports what that total holds — IPC, the
//!   component breakdown, and the QPI/IMC ratio and interconnect bandwidth
//!   derived in [`interconnect`] — and the machine counts nothing per
//!   link, per cache line or per core.
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
pub mod topology;

pub use clock::{
    ceil_u64, cycles_to_micros, cycles_to_secs, frac_cycles_to_micros, micros_to_cycles, round_u64,
    secs_to_cycles, Cycles,
};
pub use contention::{AccessKind, ContendedLine, WaitMode};
pub use cost::CostModel;
pub use counters::{Breakdown, Component, Tally, COMPONENT_COUNT};
pub use ctx::SimCtx;
pub use machine::Machine;
pub use topology::{CoreId, SocketId, Topology, UnknownSocket};
