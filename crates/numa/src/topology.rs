//! Multisocket hardware topology: sockets, cores, and inter-socket distances.
//!
//! The paper's experimental platform is an 8-socket Intel Xeon E7-L8867
//! (Westmere-EX) server whose sockets are connected in a *twisted cube*:
//! every socket reaches every other socket in at most two QPI hops.  The
//! distance matrix built here reproduces that property.  Smaller
//! configurations (1/2/4 sockets) are fully connected, matching glueless
//! QPI topologies of commodity boxes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a processor socket (a hardware "Island").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SocketId(pub u16);

/// Identifier of a processor core (global across the machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(pub u32);

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl SocketId {
    /// Index usable for vector lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CoreId {
    /// Index usable for vector lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A socket index past the last socket of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownSocket {
    /// The socket asked for.
    pub socket: SocketId,
    /// How many sockets the machine has.
    pub sockets: usize,
}

impl fmt::Display for UnknownSocket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no socket {}: the machine has {} sockets",
            self.socket, self.sockets
        )
    }
}

impl std::error::Error for UnknownSocket {}

/// How the sockets of a machine are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// A single socket: every core communicates through the shared LLC.
    SingleSocket,
    /// All sockets are directly connected (1 hop), typical for 2- and
    /// 4-socket glueless QPI machines.
    FullyConnected,
    /// The 8-socket twisted-cube wiring of the paper's Westmere-EX box:
    /// diameter 2, i.e. every pair of sockets is at most two hops apart.
    TwistedCube,
    /// A 2D mesh of tiles grouped into islands (Tilera-style, mentioned in
    /// §II-A of the paper as a future source of on-chip Islands).
    Mesh,
    /// Arbitrary, user-provided distance matrix.
    Custom,
}

/// A processor socket: a group of cores sharing a last-level cache.
#[derive(Debug, Clone)]
pub struct Socket {
    /// Socket identifier.
    pub id: SocketId,
    /// Cores located on this socket.
    pub cores: Vec<CoreId>,
    /// Whether the socket is currently active. `false` models the
    /// processor-failure experiment of Figure 12.
    pub active: bool,
    /// Size of the local memory node, in bytes (used by memory-placement
    /// experiments; not enforced).
    pub memory_bytes: u64,
}

/// The machine topology: sockets, cores, and the hop-distance matrix.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    sockets: Vec<Socket>,
    core_to_socket: Vec<SocketId>,
    /// `distance[a][b]` = number of interconnect hops between sockets `a`
    /// and `b`; 0 when `a == b`.
    distance: Vec<Vec<u32>>,
    /// Clock frequency in GHz, used to convert cycles to seconds.
    frequency_ghz: f64,
}

impl Topology {
    /// Build a multisocket machine with `n_sockets` sockets of
    /// `cores_per_socket` cores each.
    ///
    /// * 1 socket → [`TopologyKind::SingleSocket`]
    /// * 2–4 sockets → [`TopologyKind::FullyConnected`] (1 hop everywhere)
    /// * more sockets → [`TopologyKind::TwistedCube`] (diameter 2); for
    ///   exactly 8 sockets this reproduces the paper's platform.
    pub fn multisocket(n_sockets: usize, cores_per_socket: usize) -> Self {
        assert!(n_sockets >= 1, "a machine needs at least one socket");
        assert!(cores_per_socket >= 1, "a socket needs at least one core");
        let kind = match n_sockets {
            1 => TopologyKind::SingleSocket,
            2..=4 => TopologyKind::FullyConnected,
            _ => TopologyKind::TwistedCube,
        };
        let distance = match kind {
            TopologyKind::SingleSocket => vec![vec![0]],
            TopologyKind::FullyConnected => fully_connected(n_sockets),
            TopologyKind::TwistedCube => twisted_cube(n_sockets),
            _ => unreachable!(),
        };
        Self::from_parts(kind, n_sockets, cores_per_socket, distance)
    }

    /// The paper's experimental platform: 8 sockets × 10 cores, twisted cube.
    pub fn westmere_ex_8x10() -> Self {
        Self::multisocket(8, 10)
    }

    /// A 2D mesh of `nx * ny` islands with `cores_per_island` cores each.
    /// Distance between islands is their Manhattan distance, modelling
    /// Tilera-style on-chip islands.
    pub fn mesh(nx: usize, ny: usize, cores_per_island: usize) -> Self {
        assert!(nx >= 1 && ny >= 1);
        let n = nx * ny;
        let mut distance = vec![vec![0u32; n]; n];
        for (a, row) in distance.iter_mut().enumerate() {
            for (b, d) in row.iter_mut().enumerate() {
                let (ax, ay) = (a % nx, a / nx);
                let (bx, by) = (b % nx, b / nx);
                *d = (ax.abs_diff(bx) + ay.abs_diff(by)) as u32;
            }
        }
        Self::from_parts(TopologyKind::Mesh, n, cores_per_island, distance)
    }

    /// Build a topology from an explicit distance matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square, not zero on the diagonal, or not
    /// symmetric.
    pub fn custom(cores_per_socket: usize, distance: Vec<Vec<u32>>) -> Self {
        let n = distance.len();
        assert!(n >= 1, "distance matrix must be non-empty");
        for (i, row) in distance.iter().enumerate() {
            assert_eq!(row.len(), n, "distance matrix must be square");
            assert_eq!(row[i], 0, "diagonal of the distance matrix must be 0");
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, distance[j][i], "distance matrix must be symmetric");
            }
        }
        Self::from_parts(TopologyKind::Custom, n, cores_per_socket, distance)
    }

    fn from_parts(
        kind: TopologyKind,
        n_sockets: usize,
        cores_per_socket: usize,
        distance: Vec<Vec<u32>>,
    ) -> Self {
        let mut sockets = Vec::with_capacity(n_sockets);
        let mut core_to_socket = Vec::with_capacity(n_sockets * cores_per_socket);
        let mut next_core = 0u32;
        for s in 0..n_sockets {
            let id = SocketId(s as u16);
            let mut cores = Vec::with_capacity(cores_per_socket);
            for _ in 0..cores_per_socket {
                cores.push(CoreId(next_core));
                core_to_socket.push(id);
                next_core += 1;
            }
            sockets.push(Socket {
                id,
                cores,
                active: true,
                memory_bytes: 32 * (1 << 30), // 32 GB per NUMA node, as in the paper
            });
        }
        Self {
            kind,
            sockets,
            core_to_socket,
            distance,
            frequency_ghz: 2.4,
        }
    }

    /// The wiring style of this machine.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Clock frequency in GHz.
    pub fn frequency_ghz(&self) -> f64 {
        self.frequency_ghz
    }

    /// Total number of sockets (including failed ones).
    pub fn num_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// Total number of cores (including those on failed sockets).
    pub fn num_cores(&self) -> usize {
        self.core_to_socket.len()
    }

    /// All sockets.
    pub fn sockets(&self) -> &[Socket] {
        &self.sockets
    }

    /// The socket a core belongs to.
    #[inline]
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        self.core_to_socket[core.index()]
    }

    /// Cores belonging to `socket`.
    pub fn cores_of(&self, socket: SocketId) -> &[CoreId] {
        &self.sockets[socket.index()].cores
    }

    /// Hop distance between two sockets (0 if identical).
    #[inline]
    pub fn distance(&self, a: SocketId, b: SocketId) -> u32 {
        self.distance[a.index()][b.index()]
    }

    /// Whether a socket is currently active.
    pub fn is_active(&self, socket: SocketId) -> bool {
        self.sockets[socket.index()].active
    }

    /// The socket `socket` names, or the error that this machine lacks it.
    fn socket_mut(&mut self, socket: SocketId) -> Result<&mut Socket, UnknownSocket> {
        let sockets = self.sockets.len();
        self.sockets
            .get_mut(socket.index())
            .ok_or(UnknownSocket { socket, sockets })
    }

    /// Mark a socket as failed (its cores become unavailable).  Models the
    /// processor-failure experiment (Figure 12).
    ///
    /// Returns `Ok(false)` if the socket was already failed.
    pub fn fail_socket(&mut self, socket: SocketId) -> Result<bool, UnknownSocket> {
        let s = self.socket_mut(socket)?;
        let was = s.active;
        s.active = false;
        Ok(was)
    }

    /// Bring a previously failed socket back.
    pub fn restore_socket(&mut self, socket: SocketId) -> Result<(), UnknownSocket> {
        self.socket_mut(socket)?.active = true;
        Ok(())
    }

    /// Identifiers of all active sockets.
    pub fn active_sockets(&self) -> Vec<SocketId> {
        self.sockets
            .iter()
            .filter(|s| s.active)
            .map(|s| s.id)
            .collect()
    }

    /// Identifiers of all cores on active sockets, in socket order.
    pub fn active_cores(&self) -> Vec<CoreId> {
        self.sockets
            .iter()
            .filter(|s| s.active)
            .flat_map(|s| s.cores.iter().copied())
            .collect()
    }

    /// Number of cores on active sockets.
    pub fn num_active_cores(&self) -> usize {
        self.sockets
            .iter()
            .filter(|s| s.active)
            .map(|s| s.cores.len())
            .sum()
    }

    /// Average hop distance between distinct active sockets.  Returns 0.0 on a
    /// single-socket machine.
    pub fn average_distance(&self) -> f64 {
        let active = self.active_sockets();
        if active.len() < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        let mut pairs = 0u64;
        for (i, &a) in active.iter().enumerate() {
            for &b in active.iter().skip(i + 1) {
                total += u64::from(self.distance(a, b));
                pairs += 1;
            }
        }
        total as f64 / pairs as f64
    }

    /// Maximum hop distance between any two active sockets (the network
    /// diameter restricted to active sockets).
    pub fn diameter(&self) -> u32 {
        let active = self.active_sockets();
        let mut max = 0;
        for &a in &active {
            for &b in &active {
                max = max.max(self.distance(a, b));
            }
        }
        max
    }
}

/// All-pairs distance 1 (except the diagonal).
fn fully_connected(n: usize) -> Vec<Vec<u32>> {
    let mut m = vec![vec![1u32; n]; n];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 0;
    }
    m
}

/// Twisted-cube-style wiring: each socket has direct links to the sockets
/// reached by XOR-ing its index with 1, 2, 4, and (for the twist) with
/// `n - 1`; remaining distances come from a BFS over that adjacency.  For
/// n = 8 this yields a diameter of 2, matching the Westmere-EX platform.
fn twisted_cube(n: usize) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    for (i, neighbours) in adj.iter_mut().enumerate() {
        for mask in [1usize, 2, 4, n.saturating_sub(1)] {
            if mask == 0 {
                continue;
            }
            let j = i ^ mask;
            if j < n && j != i {
                neighbours.push(j);
            }
        }
    }
    // BFS from every node to get hop counts.
    let mut dist = vec![vec![u32::MAX; n]; n];
    for (start, row) in dist.iter_mut().enumerate() {
        row[start] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            let du = row[u];
            for &v in &adj[u] {
                if row[v] == u32::MAX {
                    row[v] = du + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    // A disconnected custom size would leave MAX entries; clamp to diameter+1.
    let finite_max = dist
        .iter()
        .flatten()
        .copied()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0);
    for row in &mut dist {
        for d in row.iter_mut() {
            if *d == u32::MAX {
                *d = finite_max + 1;
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_socket_has_zero_distances() {
        let t = Topology::multisocket(1, 10);
        assert_eq!(t.num_sockets(), 1);
        assert_eq!(t.num_cores(), 10);
        assert_eq!(t.distance(SocketId(0), SocketId(0)), 0);
        assert_eq!(t.diameter(), 0);
        assert_eq!(t.kind(), TopologyKind::SingleSocket);
    }

    #[test]
    fn four_socket_machine_is_fully_connected() {
        let t = Topology::multisocket(4, 8);
        assert_eq!(t.kind(), TopologyKind::FullyConnected);
        assert_eq!(t.diameter(), 1);
        for a in 0..4 {
            for b in 0..4 {
                let expect = if a == b { 0 } else { 1 };
                assert_eq!(t.distance(SocketId(a), SocketId(b)), expect);
            }
        }
    }

    #[test]
    fn westmere_topology_matches_paper_platform() {
        let t = Topology::westmere_ex_8x10();
        assert_eq!(t.num_sockets(), 8);
        assert_eq!(t.num_cores(), 80);
        assert_eq!(t.kind(), TopologyKind::TwistedCube);
        // Twisted cube: no socket pair is more than 2 hops apart.
        assert_eq!(t.diameter(), 2);
        // ... and at least one pair is 2 hops apart (it is not fully connected).
        let mut has_two = false;
        for a in 0..8 {
            for b in 0..8 {
                if t.distance(SocketId(a), SocketId(b)) == 2 {
                    has_two = true;
                }
            }
        }
        assert!(has_two);
    }

    #[test]
    fn distance_matrix_is_symmetric_and_zero_diagonal() {
        for n in [1usize, 2, 4, 6, 8, 16] {
            let t = Topology::multisocket(n, 2);
            for a in 0..n {
                assert_eq!(t.distance(SocketId(a as u16), SocketId(a as u16)), 0);
                for b in 0..n {
                    assert_eq!(
                        t.distance(SocketId(a as u16), SocketId(b as u16)),
                        t.distance(SocketId(b as u16), SocketId(a as u16))
                    );
                }
            }
        }
    }

    #[test]
    fn core_to_socket_mapping_is_contiguous() {
        let t = Topology::multisocket(8, 10);
        for s in 0..8u16 {
            let cores = t.cores_of(SocketId(s));
            assert_eq!(cores.len(), 10);
            for c in cores {
                assert_eq!(t.socket_of(*c), SocketId(s));
            }
        }
        assert_eq!(t.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(79)), SocketId(7));
    }

    #[test]
    fn socket_failure_removes_cores() {
        let mut t = Topology::multisocket(8, 10);
        assert_eq!(t.num_active_cores(), 80);
        assert_eq!(t.fail_socket(SocketId(3)), Ok(true));
        assert!(!t.is_active(SocketId(3)));
        assert_eq!(t.num_active_cores(), 70);
        assert_eq!(t.active_sockets().len(), 7);
        assert!(!t
            .active_cores()
            .iter()
            .any(|c| t.socket_of(*c) == SocketId(3)));
        // Failing twice reports it was already failed.
        assert_eq!(t.fail_socket(SocketId(3)), Ok(false));
        t.restore_socket(SocketId(3)).unwrap();
        assert_eq!(t.num_active_cores(), 80);
    }

    const MISSING: UnknownSocket = UnknownSocket {
        socket: SocketId(4),
        sockets: 4,
    };

    #[test]
    fn failing_a_socket_the_machine_lacks_is_a_typed_error() {
        let mut t = Topology::multisocket(4, 2);
        assert_eq!(t.fail_socket(SocketId(4)), Err(MISSING));
        assert_eq!(t.active_sockets().len(), 4);
        assert_eq!(
            MISSING.to_string(),
            "no socket S4: the machine has 4 sockets"
        );
    }

    #[test]
    fn restoring_a_socket_the_machine_lacks_is_a_typed_error() {
        let mut t = Topology::multisocket(4, 2);
        t.fail_socket(SocketId(0)).unwrap();
        assert_eq!(t.restore_socket(SocketId(4)), Err(MISSING));
        assert_eq!(t.active_sockets().len(), 3);
    }

    #[test]
    fn mesh_uses_manhattan_distance() {
        let t = Topology::mesh(3, 2, 4);
        assert_eq!(t.num_sockets(), 6);
        assert_eq!(t.num_cores(), 24);
        // Island 0 is at (0,0), island 5 at (2,1): distance 3.
        assert_eq!(t.distance(SocketId(0), SocketId(5)), 3);
        assert_eq!(t.kind(), TopologyKind::Mesh);
    }

    #[test]
    fn custom_topology_validates_matrix() {
        let t = Topology::custom(2, vec![vec![0, 3], vec![3, 0]]);
        assert_eq!(t.distance(SocketId(0), SocketId(1)), 3);
        assert_eq!(t.kind(), TopologyKind::Custom);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn custom_topology_rejects_asymmetric_matrix() {
        let _ = Topology::custom(2, vec![vec![0, 3], vec![2, 0]]);
    }

    #[test]
    fn average_distance_is_between_one_and_diameter() {
        let t = Topology::westmere_ex_8x10();
        let avg = t.average_distance();
        assert!((1.0..=2.0).contains(&avg), "avg distance {avg}");
    }
}
