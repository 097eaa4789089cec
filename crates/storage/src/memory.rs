//! Memory-placement policies.
//!
//! Reproduces the `numactl`-style placement modes of the paper's §III-D
//! (Table I): each shared-nothing instance (or each table partition) can
//! allocate its memory on its local NUMA node, on one central node, or on a
//! deliberately remote node.

use atrapos_numa::{SocketId, Topology};
use serde::{Deserialize, Serialize};

/// Where the data of an instance/partition running on a given socket is
/// allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryPolicy {
    /// Allocate on the instance's own NUMA node (`numactl --localalloc`).
    Local,
    /// Allocate everything on one designated node (`numactl --membind=N`).
    Central(SocketId),
    /// Allocate on a node that is guaranteed to be remote (each instance
    /// binds to a different remote node, as in the paper's third mode).
    Remote,
}

impl MemoryPolicy {
    /// The memory node the data of an instance running on `socket` ends up
    /// on under this policy.
    pub fn node_for(&self, socket: SocketId, topo: &Topology) -> SocketId {
        match self {
            MemoryPolicy::Local => socket,
            MemoryPolicy::Central(node) => *node,
            MemoryPolicy::Remote => {
                let n = topo.num_sockets() as u16;
                if n <= 1 {
                    socket
                } else {
                    // The "opposite" socket: guaranteed different and, on the
                    // twisted cube, usually more than one hop away.
                    SocketId((socket.0 + n / 2) % n)
                }
            }
        }
    }

    /// Human-readable label matching Table I's row names.
    pub fn label(&self) -> &'static str {
        match self {
            MemoryPolicy::Local => "Local",
            MemoryPolicy::Central(_) => "Central",
            MemoryPolicy::Remote => "Remote",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_policy_keeps_data_on_the_socket() {
        let topo = Topology::multisocket(8, 2);
        assert_eq!(
            MemoryPolicy::Local.node_for(SocketId(5), &topo),
            SocketId(5)
        );
    }

    #[test]
    fn central_policy_uses_the_designated_node() {
        let topo = Topology::multisocket(8, 2);
        let p = MemoryPolicy::Central(SocketId(7));
        for s in 0..8 {
            assert_eq!(p.node_for(SocketId(s), &topo), SocketId(7));
        }
    }

    #[test]
    fn remote_policy_always_picks_a_different_node() {
        let topo = Topology::multisocket(8, 2);
        for s in 0..8 {
            let node = MemoryPolicy::Remote.node_for(SocketId(s), &topo);
            assert_ne!(node, SocketId(s));
        }
        // Different instances use different remote nodes.
        let a = MemoryPolicy::Remote.node_for(SocketId(0), &topo);
        let b = MemoryPolicy::Remote.node_for(SocketId(1), &topo);
        assert_ne!(a, b);
    }

    #[test]
    fn remote_policy_on_single_socket_degenerates_to_local() {
        let topo = Topology::multisocket(1, 4);
        assert_eq!(
            MemoryPolicy::Remote.node_for(SocketId(0), &topo),
            SocketId(0)
        );
    }
}
