//! Helpers for placing workers and partitions onto cores.
//!
//! ATraPos binds every worker thread to a specific core (paper §IV, "Thread
//! binding") so that each thread only ever touches the socket-local
//! partitions of NUMA-aware data structures.  In the simulator the binding
//! is a mapping from logical workers (or data partitions) to [`CoreId`]s.

use crate::topology::{CoreId, SocketId, Topology};

/// An explicit assignment of logical workers/partitions to cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorePlacement {
    assignment: Vec<CoreId>,
}

impl CorePlacement {
    /// Build a placement from an explicit assignment vector (index =
    /// worker/partition id).
    pub fn new(assignment: Vec<CoreId>) -> Self {
        Self { assignment }
    }

    /// Number of placed workers.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Core assigned to worker `i`.
    pub fn core_of(&self, i: usize) -> CoreId {
        self.assignment[i]
    }

    /// Socket of the core assigned to worker `i`.
    pub fn socket_of(&self, i: usize, topo: &Topology) -> SocketId {
        topo.socket_of(self.assignment[i])
    }

    /// Iterate over `(worker, core)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, CoreId)> + '_ {
        self.assignment.iter().copied().enumerate()
    }

    /// Number of workers placed on each core (indexed by core id).
    pub fn load_per_core(&self, topo: &Topology) -> Vec<usize> {
        let mut load = vec![0usize; topo.num_cores()];
        for &c in &self.assignment {
            load[c.index()] += 1;
        }
        load
    }
}

/// Assign `n` workers to active cores round-robin *across sockets*: worker 0
/// goes to the first core of socket 0, worker 1 to the first core of socket
/// 1, and so on.  This spreads partitions of one table over all sockets — the
/// hardware-oblivious placement the paper calls "Workload-aware" in Figure 6.
pub fn round_robin_by_socket(topo: &Topology, n: usize) -> CorePlacement {
    let sockets = topo.active_sockets();
    assert!(!sockets.is_empty(), "no active sockets");
    let mut per_socket_next: Vec<usize> = vec![0; sockets.len()];
    let mut assignment = Vec::with_capacity(n);
    for s in 0..n {
        // Walk the sockets round-robin; wrap the per-socket core index when
        // all cores of the socket have been used.
        let socket = sockets[s % sockets.len()];
        let cores = topo.cores_of(socket);
        let idx = per_socket_next[s % sockets.len()];
        assignment.push(cores[idx % cores.len()]);
        per_socket_next[s % sockets.len()] += 1;
    }
    CorePlacement::new(assignment)
}

/// Assign `n` workers to active cores by filling sockets one after another:
/// workers 0..k go to socket 0's cores, the next k to socket 1, etc.  This
/// keeps consecutive workers (and thus consecutive partitions of one table)
/// on the same socket.
pub fn socket_fill(topo: &Topology, n: usize) -> CorePlacement {
    let cores = topo.active_cores();
    assert!(!cores.is_empty(), "no active cores");
    let assignment = (0..n).map(|i| cores[i % cores.len()]).collect();
    CorePlacement::new(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_fill_packs_sockets_in_order() {
        let topo = Topology::multisocket(4, 4);
        let p = socket_fill(&topo, 8);
        // First 4 workers on socket 0, next 4 on socket 1.
        for i in 0..4 {
            assert_eq!(p.socket_of(i, &topo), SocketId(0));
        }
        for i in 4..8 {
            assert_eq!(p.socket_of(i, &topo), SocketId(1));
        }
    }

    #[test]
    fn round_robin_spreads_across_sockets() {
        let topo = Topology::multisocket(4, 4);
        let p = round_robin_by_socket(&topo, 8);
        let sockets: Vec<SocketId> = (0..8).map(|i| p.socket_of(i, &topo)).collect();
        assert_eq!(
            sockets,
            vec![
                SocketId(0),
                SocketId(1),
                SocketId(2),
                SocketId(3),
                SocketId(0),
                SocketId(1),
                SocketId(2),
                SocketId(3)
            ]
        );
    }

    #[test]
    fn placement_wraps_when_oversubscribed() {
        let topo = Topology::multisocket(2, 2);
        let p = socket_fill(&topo, 10);
        let load = p.load_per_core(&topo);
        assert_eq!(load.iter().sum::<usize>(), 10);
        assert!(load.iter().all(|&l| l >= 2));
    }

    #[test]
    fn placements_skip_failed_sockets() {
        let mut topo = Topology::multisocket(4, 2);
        topo.fail_socket(SocketId(1)).unwrap();
        let p = round_robin_by_socket(&topo, 6);
        for (i, _) in p.iter() {
            assert_ne!(p.socket_of(i, &topo), SocketId(1));
        }
        let p = socket_fill(&topo, 6);
        for (i, _) in p.iter() {
            assert_ne!(p.socket_of(i, &topo), SocketId(1));
        }
    }
}
