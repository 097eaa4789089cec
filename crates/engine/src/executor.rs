//! The deterministic virtual-time executor.
//!
//! One client per active core submits transactions against a
//! [`SystemDesign`], all in virtual time.  The executor tracks throughput,
//! latency, hardware-counter-derived metrics (IPC, interconnect traffic),
//! per-component time breakdowns, and a per-second throughput time series
//! (for the adaptive experiments of the paper's Figures 10–13).  At
//! monitoring-interval boundaries it hands control to the design, which
//! may repartition and pause execution.
//!
//! ## One loop, two arrival sources
//!
//! [`VirtualExecutor::run_for`] is the single event loop: pick the client
//! that frees up first, ask the arrival source what it serves and when,
//! generate, execute, account.  By default the loop is *closed*: the next
//! arrival is the instant the chosen client frees up, so every client
//! resubmits back-to-back and latency is service time.  Installing an
//! [`ArrivalProcess`] (see [`VirtualExecutor::set_arrival_process`]) makes
//! it *open*: transactions arrive on their own deterministic schedule and
//! wait in a bounded admission queue for a free client, so offered load
//! and service capacity decouple — the executor then also reports offered
//! load, admission rejections, queue depths, and latency that includes the
//! queueing delay.  The closed source draws nothing and queues nothing, so
//! fixed seeds produce the same results whether or not the open-loop
//! machinery exists.
//!
//! ## The pick
//!
//! The client that frees up first is the root of a min-tree over every
//! client's `(next_free, index)`, with inactive clients at a `Cycles::MAX`
//! sentinel, so ties go to the lowest index and a failed socket's clients
//! never win.  After each transaction the client it ran walks one
//! leaf-to-root path (7 levels for 80 clients).  The rare bulk edits — a
//! socket failing or coming back, an interval's pause, the segment-end
//! coast — rebuild the tree from the clients in O(n).  `Client::next_free`
//! stays the only record of when a client is free; the tree is an index
//! built from it.

use crate::action::{TransactionSpec, TxnOutcome};
use crate::arrival::ArrivalProcess;
use crate::designs::{DesignStats, SystemDesign};
use crate::ready::{ReadyTree, IDLE};
use crate::workload::{ReconfigureError, Workload, WorkloadChange};
use atrapos_core::LatencyHistogram;
use atrapos_numa::interconnect::{bandwidth_gbps, qpi_imc_ratio};
use atrapos_numa::{
    frac_cycles_to_micros, secs_to_cycles, Breakdown, CoreId, Cycles, Machine, SocketId, Tally,
    UnknownSocket,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Executor parameters.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Random seed for the workload generator.
    pub seed: u64,
    /// Default monitoring-interval length, in virtual seconds.
    pub default_interval_secs: f64,
    /// Width of the throughput time-series buckets, in virtual seconds.
    pub time_series_bucket_secs: f64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            default_interval_secs: 1.0,
            time_series_bucket_secs: 1.0,
        }
    }
}

/// One point of the throughput time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    /// End of the bucket, in virtual seconds from the executor's origin.
    pub secs: f64,
    /// Committed transactions per second during the bucket.
    pub tps: f64,
}

/// Admission-queue bound used when an arrival process is installed without
/// an explicit [`VirtualExecutor::set_admission_bound`] call.
pub const DEFAULT_ADMISSION_BOUND: u64 = 1024;

/// Statistics of one `run_for` segment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunStats {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Segment length in virtual seconds.
    pub virtual_secs: f64,
    /// Committed transactions per virtual second (the goodput, in open
    /// loop).
    pub throughput_tps: f64,
    /// Mean transaction latency in microseconds.  In open loop this
    /// includes the time spent waiting in the admission queue.
    pub avg_latency_us: f64,
    /// Median latency of committed transactions in microseconds, from the
    /// log-bucketed histogram (≤ 3.2% relative bucket error).
    pub p50_latency_us: f64,
    /// 95th-percentile latency of committed transactions in microseconds.
    pub p95_latency_us: f64,
    /// 99th-percentile latency of committed transactions in microseconds.
    pub p99_latency_us: f64,
    /// 99.9th-percentile latency of committed transactions in microseconds.
    pub p999_latency_us: f64,
    /// Latency distribution of the segment's committed transactions, in
    /// CPU cycles (the source of the `p*_latency_us` fields).
    pub latency_histogram: LatencyHistogram,
    /// Machine-wide instructions per cycle over the segment.
    pub ipc: f64,
    /// Per-component cycle breakdown accumulated during the segment.
    pub breakdown: Breakdown,
    /// Ratio of interconnect to memory-controller traffic over the
    /// segment (computed from per-segment deltas).
    pub qpi_imc_ratio: f64,
    /// Aggregate interconnect bandwidth in Gbit/s over the segment.
    pub interconnect_gbps: f64,
    /// Throughput time series.
    pub time_series: Vec<TimePoint>,
    /// Repartitionings performed during the segment.
    pub repartitions: u64,
    /// Committed transactions per socket of the submitting client (the
    /// per-instance throughput of Table I).
    pub committed_by_socket: Vec<u64>,
    /// Whether the segment ran open-loop (an arrival process was
    /// installed).  All the fields below are zero for closed-loop runs.
    pub open_loop: bool,
    /// Transactions the arrival process generated during the segment.
    pub offered: u64,
    /// Offered arrivals that entered the admission queue.
    pub admitted: u64,
    /// Offered arrivals turned away because the queue was full.
    pub rejected: u64,
    /// Offered arrivals per virtual second.
    pub offered_tps: f64,
    /// Admission-queue depth when the segment began (work carried over
    /// from the previous segment).
    pub queue_depth_start: u64,
    /// Admission-queue depth when the segment ended.
    pub queue_depth_end: u64,
    /// Maximum admission-queue depth observed during the segment.
    pub queue_depth_max: u64,
}

#[derive(Debug, Clone)]
struct Client {
    core: CoreId,
    next_free: Cycles,
    active: bool,
}

impl Client {
    /// The client's key in the ready index.
    fn ready_key(&self) -> Cycles {
        if self.active {
            self.next_free
        } else {
            IDLE
        }
    }
}

/// Open-loop serving state: the arrival process, the sampled-but-not-yet-
/// offered next arrival, and the bounded admission queue of arrival
/// timestamps waiting for a free client.
struct OpenLoopState {
    process: ArrivalProcess,
    bound: u64,
    /// Dedicated arrival RNG: drawing arrivals never perturbs the workload
    /// generator's stream, so installing a process cannot change what
    /// transactions a given seed produces.
    rng: SmallRng,
    /// Absolute virtual time of the last sampled arrival, in seconds.
    last_arrival_secs: f64,
    /// Next sampled arrival (cycles), not yet counted as offered.
    next_arrival: Option<Cycles>,
    /// Admitted arrivals (their timestamps) waiting for a client.
    queue: VecDeque<Cycles>,
    // Per-segment accounting, reset by `begin_segment`.
    offered: u64,
    admitted: u64,
    rejected: u64,
    depth_start: u64,
    depth_max: u64,
}

impl OpenLoopState {
    /// Restart the per-segment accounting; queued work carries over.
    fn begin_segment(&mut self) {
        self.depth_start = self.queue.len() as u64;
        self.depth_max = self.depth_start;
        self.offered = 0;
        self.admitted = 0;
        self.rejected = 0;
    }

    /// The next arrival's timestamp, sampling it if necessary.
    fn peek_next(&mut self, ghz: f64) -> Cycles {
        if self.next_arrival.is_none() {
            let t = self
                .process
                .next_arrival_secs(self.last_arrival_secs, &mut self.rng);
            self.last_arrival_secs = t;
            self.next_arrival = Some(secs_to_cycles(t, ghz));
        }
        self.next_arrival.unwrap()
    }

    /// Offer every arrival with timestamp strictly before `before` to the
    /// admission queue, rejecting when it is full.
    fn drain_arrivals(&mut self, before: Cycles, ghz: f64) {
        loop {
            let at = self.peek_next(ghz);
            if at >= before {
                return;
            }
            self.next_arrival = None;
            self.offered += 1;
            if self.queue.len() as u64 >= self.bound {
                self.rejected += 1;
            } else {
                self.queue.push_back(at);
                self.admitted += 1;
                self.depth_max = self.depth_max.max(self.queue.len() as u64);
            }
        }
    }
}

/// The segment's geometry: boundaries and time-series bucketing.
struct SegFrame {
    seg_start: Cycles,
    seg_len: Cycles,
    end_at: Cycles,
    bucket_len: Cycles,
    n_buckets: usize,
}

/// Per-segment tallies.
struct SegCounters {
    committed: u64,
    aborted: u64,
    latency_sum: u128,
    repartitions: u64,
    committed_by_socket: Vec<u64>,
    latency_histogram: LatencyHistogram,
    buckets: Vec<u64>,
}

/// The virtual-time executor (closed loop by default; see the module docs
/// for the open-loop arrival source).
pub struct VirtualExecutor {
    machine: Machine,
    design: Box<dyn SystemDesign>,
    workload: Box<dyn Workload>,
    config: ExecutorConfig,
    rng: SmallRng,
    clients: Vec<Client>,
    /// Index over `clients`' ready keys: which client frees up first.
    ready: ReadyTree,
    clock: Cycles,
    next_interval_at: Cycles,
    interval_len: Cycles,
    interval_committed: u64,
    total_committed: u64,
    /// Reusable transaction-spec buffer: the workload refills it in place
    /// once per transaction, so generation does not allocate per
    /// transaction.
    spec_buf: TransactionSpec,
    /// Admission bound applied when (or while) an arrival process is
    /// installed.
    admission_bound: u64,
    /// Open-loop serving state; `None` means closed loop.
    open_loop: Option<OpenLoopState>,
}

impl VirtualExecutor {
    /// Build an executor: one client per active core of the machine.
    pub fn new(
        machine: Machine,
        design: Box<dyn SystemDesign>,
        workload: Box<dyn Workload>,
        config: ExecutorConfig,
    ) -> Self {
        let clients: Vec<Client> = machine
            .topology
            .active_cores()
            .into_iter()
            .map(|core| Client {
                core,
                next_free: 0,
                active: true,
            })
            .collect();
        let ready = ReadyTree::new(clients.iter().map(Client::ready_key));
        let interval_len = secs_to_cycles(
            config.default_interval_secs,
            machine.topology.frequency_ghz(),
        );
        let rng = SmallRng::seed_from_u64(config.seed);
        Self {
            machine,
            design,
            workload,
            config,
            rng,
            clients,
            ready,
            clock: 0,
            next_interval_at: interval_len,
            interval_len,
            interval_committed: 0,
            total_committed: 0,
            spec_buf: TransactionSpec::empty(),
            admission_bound: DEFAULT_ADMISSION_BOUND,
            open_loop: None,
        }
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The design under test.
    pub fn design(&self) -> &dyn SystemDesign {
        self.design.as_ref()
    }

    /// Apply a typed reconfiguration to the workload (the adaptive
    /// experiments change the transaction mix or skew between segments).
    pub fn reconfigure_workload(
        &mut self,
        change: &WorkloadChange,
    ) -> Result<(), ReconfigureError> {
        self.workload.reconfigure(change)
    }

    /// The design's structured statistics (distributed-transaction counts,
    /// partition counts, repartitioning history).
    pub fn design_stats(&self) -> DesignStats {
        self.design.stats()
    }

    /// Install (or replace) an arrival process, switching the executor to
    /// open-loop serving from the current virtual time on.  A pending
    /// unconsumed arrival of a previous process is discarded and sampling
    /// restarts from now; arrivals already admitted to the queue stay
    /// queued.  The process must satisfy [`ArrivalProcess::validate`].
    pub fn set_arrival_process(&mut self, process: ArrivalProcess) {
        process
            .validate()
            .unwrap_or_else(|e| panic!("invalid arrival process: {e}"));
        let now = self.now_secs();
        match &mut self.open_loop {
            Some(ol) => {
                ol.process = process;
                ol.next_arrival = None;
                ol.last_arrival_secs = ol.last_arrival_secs.max(now);
            }
            None => {
                self.open_loop = Some(OpenLoopState {
                    process,
                    bound: self.admission_bound,
                    // A fixed tweak keeps the arrival stream seeded from the
                    // run's seed but distinct from the workload stream.
                    rng: SmallRng::seed_from_u64(self.config.seed ^ 0x9E37_79B9_7F4A_7C15),
                    last_arrival_secs: now,
                    next_arrival: None,
                    queue: VecDeque::new(),
                    offered: 0,
                    admitted: 0,
                    rejected: 0,
                    depth_start: 0,
                    depth_max: 0,
                });
            }
        }
    }

    /// Set the admission-queue bound (must be ≥ 1).  Takes effect
    /// immediately if a process is installed, and is remembered for
    /// processes installed later.  Shrinking the bound below the current
    /// queue depth rejects *new* arrivals only; queued work is never
    /// dropped.
    pub fn set_admission_bound(&mut self, bound: u64) {
        assert!(bound >= 1, "admission bound must be at least 1");
        self.admission_bound = bound;
        if let Some(ol) = &mut self.open_loop {
            ol.bound = bound;
        }
    }

    /// Whether an arrival process is installed (the executor serves open
    /// loop).
    pub fn is_open_loop(&self) -> bool {
        self.open_loop.is_some()
    }

    /// Current virtual time in seconds since the executor started.
    pub fn now_secs(&self) -> f64 {
        self.machine.secs(self.clock)
    }

    /// Total committed transactions since the executor started.
    pub fn total_committed(&self) -> u64 {
        self.total_committed
    }

    /// Fail a socket: its clients stop submitting and the design is
    /// notified (paper Figure 12).  A socket the machine lacks is an error
    /// and changes nothing.
    pub fn fail_socket(&mut self, socket: SocketId) -> Result<(), UnknownSocket> {
        self.machine.topology.fail_socket(socket)?;
        for c in &mut self.clients {
            if self.machine.topology.socket_of(c.core) == socket {
                c.active = false;
            }
        }
        self.rebuild_ready();
        self.design.on_topology_change(&self.machine);
        Ok(())
    }

    /// Restore a previously failed socket.  A socket the machine lacks is
    /// an error and changes nothing.
    pub fn restore_socket(&mut self, socket: SocketId) -> Result<(), UnknownSocket> {
        self.machine.topology.restore_socket(socket)?;
        for c in &mut self.clients {
            if self.machine.topology.socket_of(c.core) == socket {
                c.active = true;
                c.next_free = c.next_free.max(self.clock);
            }
        }
        self.rebuild_ready();
        self.design.on_topology_change(&self.machine);
        Ok(())
    }

    /// Run for `virtual_secs` of virtual time and return the segment's
    /// statistics.  Can be called repeatedly; state (virtual clock, client
    /// queues, design, workload, admission queue) carries over.  The loop
    /// is closed unless an arrival process is installed; in open loop,
    /// latency spans arrival to completion, queue wait included.
    pub fn run_for(&mut self, virtual_secs: f64) -> RunStats {
        let ghz = self.machine.topology.frequency_ghz();
        let frame = self.seg_frame(virtual_secs);
        let SegFrame {
            seg_start,
            end_at,
            bucket_len,
            n_buckets,
            ..
        } = frame;
        let snap = *self.machine.totals();
        let mut counters = SegCounters {
            committed: 0,
            aborted: 0,
            latency_sum: 0,
            repartitions: 0,
            committed_by_socket: vec![0u64; self.machine.topology.num_sockets()],
            latency_histogram: LatencyHistogram::new(),
            buckets: vec![0u64; n_buckets],
        };
        if let Some(ol) = &mut self.open_loop {
            ol.begin_segment();
        }

        // Keep picking the next client ready to serve (the ready index's
        // root) until no client is active or the segment ends.  The loop
        // body is the per-transaction path: it allocates nothing (spec
        // buffers are reused) and re-indexes only the client it ran, and
        // the marker makes the lint keep it that way.
        // lint: hot-path
        while let Some((ci, t)) = self.ready.first() {
            let t_ready = t.max(seg_start);
            if t_ready >= end_at {
                break;
            }
            // What the client serves and when it starts.
            let (arrival, submit_at) = match &mut self.open_loop {
                // Closed loop: the client's next transaction arrives the
                // moment it is free.
                None => (t_ready, t_ready),
                Some(ol) => {
                    // Everything that arrived while this client was busy
                    // gets offered (admitted or rejected) before service
                    // resumes.
                    ol.drain_arrivals(t_ready.saturating_add(1), ghz);
                    match ol.queue.pop_front() {
                        // Queued work: the client starts it the moment it
                        // is free.
                        Some(arrival) => (arrival, t_ready),
                        None => {
                            // The system is idle; jump to the next arrival.
                            let next = ol.peek_next(ghz);
                            if next >= end_at {
                                break;
                            }
                            ol.drain_arrivals(next.saturating_add(1), ghz);
                            match ol.queue.pop_front() {
                                Some(arrival) => (arrival, next.max(t_ready)),
                                // Unreachable with bound ≥ 1 and an empty queue.
                                None => continue,
                            }
                        }
                    }
                }
            };
            // Monitoring-interval boundaries that elapsed before the start.
            self.cross_interval_boundaries(submit_at, ghz, &mut counters.repartitions);

            // No client is free before `t_ready`, and it never decreases:
            // every later step starts at or after it.  (Not `submit_at`: a
            // queued arrival can start before an earlier one did.)
            self.machine.set_low_water(t_ready);
            let client_core = self.clients[ci].core;
            self.workload
                .next_transaction_into(&mut self.rng, client_core, &mut self.spec_buf);
            let out: TxnOutcome =
                self.design
                    .execute(&mut self.machine, &self.spec_buf, client_core, submit_at);
            self.clients[ci].next_free = out.end;
            self.ready.set(ci, out.end);
            self.clock = self.clock.max(out.end.min(end_at));
            let latency = out.end.saturating_sub(arrival);
            counters.latency_sum += u128::from(latency);
            if out.committed {
                counters.committed += 1;
                counters.committed_by_socket
                    [self.machine.topology.socket_of(client_core).index()] += 1;
                counters.latency_histogram.record(latency);
                self.total_committed += 1;
                self.interval_committed += 1;
                if out.end < end_at {
                    let b = ((out.end - seg_start) / bucket_len) as usize;
                    counters.buckets[b.min(n_buckets - 1)] += 1;
                }
            } else {
                counters.aborted += 1;
            }
        }

        // Arrivals up to the segment end are offered even if no client got
        // to them — they queue (or are rejected) and carry into the next
        // segment, so per-segment accounting is exact.
        if let Some(ol) = &mut self.open_loop {
            ol.drain_arrivals(end_at, ghz);
        }
        // Idle clients coast to the end of the segment.
        for c in &mut self.clients {
            if c.active {
                c.next_free = c.next_free.max(end_at);
            }
        }
        self.rebuild_ready();
        self.clock = end_at;
        self.finish_stats(virtual_secs, &frame, &snap, counters)
    }

    /// Segment geometry for a `run_for` of `virtual_secs`.
    fn seg_frame(&self, virtual_secs: f64) -> SegFrame {
        let ghz = self.machine.topology.frequency_ghz();
        let seg_start = self.clock;
        let seg_len = secs_to_cycles(virtual_secs, ghz);
        let bucket_len = secs_to_cycles(self.config.time_series_bucket_secs, ghz).max(1);
        let n_buckets = (seg_len.div_ceil(bucket_len) as usize).max(1);
        SegFrame {
            seg_start,
            seg_len,
            end_at: seg_start + seg_len,
            bucket_len,
            n_buckets,
        }
    }

    /// Re-index every client after a bulk change to `clients`.
    fn rebuild_ready(&mut self) {
        self.ready
            .rebuild(self.clients.iter().map(Client::ready_key));
    }

    /// Cross every monitoring-interval boundary that elapsed before `t`,
    /// handing control to the design at each one.
    fn cross_interval_boundaries(&mut self, t: Cycles, ghz: f64, repartitions: &mut u64) {
        while self.next_interval_at <= t {
            let interval_secs = self.machine.secs(self.interval_len).max(1e-9);
            let tput = self.interval_committed as f64 / interval_secs;
            let boundary = self.next_interval_at;
            let out = self.design.on_interval(&mut self.machine, boundary, tput);
            self.interval_committed = 0;
            if out.pause_cycles > 0 {
                for c in &mut self.clients {
                    c.next_free = c.next_free.max(boundary + out.pause_cycles);
                }
                self.rebuild_ready();
            }
            if out.repartitioned {
                *repartitions += 1;
            }
            let next_secs = out
                .next_interval_secs
                .unwrap_or(self.config.default_interval_secs);
            self.interval_len = secs_to_cycles(next_secs, ghz).max(1);
            self.next_interval_at = boundary + self.interval_len;
        }
    }

    /// Assemble a segment's `RunStats` from its counters, the machine
    /// totals accrued since `snap` (their reading at the segment start) and
    /// (in open loop) the arrival source's per-segment accounting.
    fn finish_stats(
        &self,
        virtual_secs: f64,
        frame: &SegFrame,
        snap: &Tally,
        counters: SegCounters,
    ) -> RunStats {
        let ghz = self.machine.topology.frequency_ghz();
        let SegCounters {
            committed,
            aborted,
            latency_sum,
            repartitions,
            committed_by_socket,
            latency_histogram,
            buckets,
        } = counters;
        let executed = committed + aborted;
        let hw = self.machine.totals().since(snap);
        // The last bucket may be truncated by the segment end
        // (`seg_len % bucket_len != 0`); normalize each bucket's count by
        // the bucket's actual width, not the configured width.
        let time_series = buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let bucket_start = frame.seg_start + i as u64 * frame.bucket_len;
                let bucket_end = (bucket_start + frame.bucket_len).min(frame.end_at);
                let width_secs = self.machine.secs(bucket_end - bucket_start).max(1e-12);
                TimePoint {
                    secs: self.machine.secs(bucket_end),
                    tps: n as f64 / width_secs,
                }
            })
            .collect();
        let quantile_us = |q: f64| frac_cycles_to_micros(latency_histogram.quantile(q) as f64, ghz);
        let open = self.open_loop.as_ref();
        RunStats {
            committed,
            aborted,
            virtual_secs,
            throughput_tps: committed as f64 / virtual_secs,
            avg_latency_us: if executed == 0 {
                0.0
            } else {
                frac_cycles_to_micros(latency_sum as f64 / executed as f64, ghz)
            },
            p50_latency_us: quantile_us(0.50),
            p95_latency_us: quantile_us(0.95),
            p99_latency_us: quantile_us(0.99),
            p999_latency_us: quantile_us(0.999),
            latency_histogram,
            ipc: hw.ipc(),
            breakdown: hw.breakdown,
            qpi_imc_ratio: qpi_imc_ratio(hw.remote_bytes, hw.local_memory_bytes),
            interconnect_gbps: bandwidth_gbps(
                hw.remote_bytes,
                frame.seg_len.max(1),
                &self.machine.topology,
            ),
            time_series,
            repartitions,
            committed_by_socket,
            open_loop: open.is_some(),
            offered: open.map_or(0, |o| o.offered),
            admitted: open.map_or(0, |o| o.admitted),
            rejected: open.map_or(0, |o| o.rejected),
            offered_tps: open.map_or(0.0, |o| o.offered as f64 / virtual_secs),
            queue_depth_start: open.map_or(0, |o| o.depth_start),
            queue_depth_end: open.map_or(0, |o| o.queue.len() as u64),
            queue_depth_max: open.map_or(0, |o| o.depth_max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::atrapos::{AtraposConfig, AtraposDesign};
    use crate::designs::centralized::CentralizedDesign;
    use crate::workload::testing::TinyWorkload;
    use atrapos_numa::{CostModel, Topology};

    fn executor_with(design_kind: &str, sockets: usize, cores: usize) -> VirtualExecutor {
        let machine = Machine::new(Topology::multisocket(sockets, cores), CostModel::westmere());
        let workload = TinyWorkload { rows: 2000 };
        let design: Box<dyn SystemDesign> = match design_kind {
            "centralized" => Box::new(CentralizedDesign::new(&machine, &workload)),
            _ => Box::new(AtraposDesign::new(
                &machine,
                &workload,
                AtraposConfig::default(),
            )),
        };
        VirtualExecutor::new(
            machine,
            design,
            Box::new(workload),
            ExecutorConfig::default(),
        )
    }

    #[test]
    fn closed_loop_produces_throughput_and_time_series() {
        let mut ex = executor_with("atrapos", 2, 2);
        let stats = ex.run_for(0.02);
        assert!(stats.committed > 0);
        assert!(stats.throughput_tps > 0.0);
        assert!(stats.avg_latency_us > 0.0);
        assert!(stats.ipc > 0.0);
        assert_eq!(stats.aborted, 0);
        assert!(!stats.time_series.is_empty());
        assert!((ex.now_secs() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn run_for_is_resumable_and_deterministic() {
        let mut a = executor_with("centralized", 2, 2);
        let mut b = executor_with("centralized", 2, 2);
        let a1 = a.run_for(0.01);
        let a2 = a.run_for(0.01);
        let b_total = b.run_for(0.02);
        // Same seed, same design: the two-segment run commits the same
        // number of transactions as the single longer run.
        assert_eq!(a1.committed + a2.committed, b_total.committed);
        assert!(a.now_secs() > 0.0);
        assert_eq!(a.total_committed(), b.total_committed());
    }

    #[test]
    fn failing_a_socket_stops_its_clients() {
        let mut ex = executor_with("atrapos", 2, 2);
        ex.run_for(0.01);
        let before = ex.machine().topology.num_active_cores();
        ex.fail_socket(SocketId(1)).unwrap();
        assert_eq!(ex.machine().topology.num_active_cores(), before - 2);
        let stats = ex.run_for(0.01);
        // The system keeps running on the remaining socket.
        assert!(stats.committed > 0);
        ex.restore_socket(SocketId(1)).unwrap();
        assert_eq!(ex.machine().topology.num_active_cores(), before);
    }

    const MISSING: UnknownSocket = UnknownSocket {
        socket: SocketId(2),
        sockets: 2,
    };

    #[test]
    fn failing_a_socket_the_machine_lacks_is_a_typed_error() {
        let mut ex = executor_with("atrapos", 2, 2);
        assert_eq!(ex.fail_socket(SocketId(2)), Err(MISSING));
        assert_eq!(ex.machine().topology.num_active_cores(), 4);
        assert!(ex.run_for(0.01).committed > 0);
    }

    #[test]
    fn restoring_a_socket_the_machine_lacks_is_a_typed_error() {
        let mut ex = executor_with("atrapos", 2, 2);
        ex.fail_socket(SocketId(1)).unwrap();
        assert_eq!(ex.restore_socket(SocketId(2)), Err(MISSING));
        assert_eq!(ex.machine().topology.num_active_cores(), 2);
        assert!(ex.run_for(0.01).committed > 0);
    }

    #[test]
    fn partial_last_bucket_is_normalized_by_its_actual_width() {
        // 0.025 s segment with 0.01 s buckets: two full buckets plus a
        // 0.005 s partial one.  The partial bucket's tps must be normalized
        // by 0.005 s, not the configured 0.01 s.
        let machine = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
        let workload = TinyWorkload { rows: 2000 };
        let design: Box<dyn SystemDesign> = Box::new(AtraposDesign::new(
            &machine,
            &workload,
            AtraposConfig::default(),
        ));
        let mut ex = VirtualExecutor::new(
            machine,
            design,
            Box::new(workload),
            ExecutorConfig {
                seed: 42,
                default_interval_secs: 0.01,
                time_series_bucket_secs: 0.01,
            },
        );
        let stats = ex.run_for(0.025);
        let ts = &stats.time_series;
        assert_eq!(ts.len(), 3);
        assert!((ts[0].secs - 0.01).abs() < 1e-9);
        assert!((ts[1].secs - 0.02).abs() < 1e-9);
        // The last point ends at the segment end, not one full bucket later.
        assert!((ts[2].secs - 0.025).abs() < 1e-9, "got {}", ts[2].secs);
        // Per-bucket counts recovered from tps × actual width must be whole
        // numbers that sum to (at most) the committed count.
        let widths = [0.01, 0.01, 0.005];
        let mut bucketed = 0.0;
        for (p, w) in ts.iter().zip(widths) {
            let count = p.tps * w;
            assert!(
                (count - count.round()).abs() < 1e-6,
                "bucket at {} holds a fractional count {count}",
                p.secs
            );
            bucketed += count;
        }
        assert!(bucketed.round() as u64 <= stats.committed);
        // The workload is steady, so the partial bucket's *rate* must be in
        // line with the full buckets — the old code understated it 2×.
        let full_tps = (ts[0].tps + ts[1].tps) / 2.0;
        assert!(
            ts[2].tps > 0.75 * full_tps,
            "partial bucket tps {} far below the steady rate {}",
            ts[2].tps,
            full_tps
        );
    }

    #[test]
    fn interconnect_gbps_is_per_segment_not_cumulative() {
        // Centralized on two sockets generates steady cross-socket traffic.
        // The metric must be computed from the segment's own traffic and
        // time deltas: re-deriving each segment's byte delta from the
        // machine's cumulative counter must reproduce the reported numbers
        // for *every* segment, not only the first.
        let mut ex = executor_with("centralized", 2, 2);
        let ghz = ex.machine().topology.frequency_ghz();
        let mut prev_bytes = ex.machine().totals().remote_bytes;
        for seg in 0..3 {
            let stats = ex.run_for(0.01);
            let now_bytes = ex.machine().totals().remote_bytes;
            let d_bytes = now_bytes - prev_bytes;
            prev_bytes = now_bytes;
            let seg_secs = atrapos_numa::secs_to_cycles(0.01, ghz) as f64 / (ghz * 1e9);
            let expect = d_bytes as f64 * 8.0 / 1e9 / seg_secs;
            assert!(d_bytes > 0, "segment {seg} moved no cross-socket bytes");
            assert!(
                (stats.interconnect_gbps - expect).abs() <= 1e-9 * expect.max(1.0),
                "segment {seg}: reported {} Gbit/s, segment traffic implies {expect}",
                stats.interconnect_gbps
            );
        }
    }

    #[test]
    fn qpi_imc_ratio_is_per_segment_not_cumulative() {
        // Same shape as the interconnect_gbps regression above: re-deriving
        // each segment's QPI and local-memory byte deltas from the machine's
        // cumulative counters must reproduce the reported ratio for *every*
        // segment.  The old code reported the all-time running ratio, so
        // later segments leaked earlier traffic into the metric.
        let mut ex = executor_with("centralized", 2, 2);
        let mut prev_qpi = ex.machine().totals().remote_bytes;
        let mut prev_local = ex.machine().totals().local_memory_bytes;
        for seg in 0..3 {
            let stats = ex.run_for(0.01);
            let now_qpi = ex.machine().totals().remote_bytes;
            let now_local = ex.machine().totals().local_memory_bytes;
            let d_qpi = now_qpi - prev_qpi;
            let d_local = now_local - prev_local;
            prev_qpi = now_qpi;
            prev_local = now_local;
            let expect = d_qpi as f64 / (d_qpi + d_local) as f64;
            assert!(d_qpi + d_local > 0, "segment {seg} moved no memory bytes");
            assert!(
                (stats.qpi_imc_ratio - expect).abs() <= 1e-12,
                "segment {seg}: reported ratio {}, segment deltas imply {expect}",
                stats.qpi_imc_ratio
            );
        }
    }

    #[test]
    fn avg_latency_keeps_sub_cycle_precision() {
        let mut ex = executor_with("centralized", 1, 2);
        let stats = ex.run_for(0.01);
        assert!(stats.committed > 1);
        // The mean latency in cycles is almost surely not an integer; the
        // old u128 division truncated it to one.
        let ghz = ex.machine().topology.frequency_ghz();
        let cycles = stats.avg_latency_us * ghz * 1e3;
        assert!(
            (cycles - cycles.round()).abs() > 1e-6 || cycles == 0.0,
            "avg latency {cycles} cycles looks truncated to a whole cycle"
        );
    }

    #[test]
    fn more_cores_give_more_throughput_for_partitionable_work() {
        let mut small = executor_with("atrapos", 1, 2);
        let mut large = executor_with("atrapos", 4, 2);
        let s = small.run_for(0.02);
        let l = large.run_for(0.02);
        assert!(
            l.throughput_tps > 2.0 * s.throughput_tps,
            "8 cores {} should well exceed 2 cores {}",
            l.throughput_tps,
            s.throughput_tps
        );
    }

    #[test]
    fn closed_loop_reports_latency_quantiles() {
        let mut ex = executor_with("atrapos", 2, 2);
        let stats = ex.run_for(0.02);
        assert!(!stats.open_loop);
        assert_eq!(stats.offered, 0);
        assert_eq!(stats.latency_histogram.count(), stats.committed);
        assert!(stats.p50_latency_us > 0.0);
        assert!(stats.p50_latency_us <= stats.p95_latency_us);
        assert!(stats.p95_latency_us <= stats.p99_latency_us);
        assert!(stats.p99_latency_us <= stats.p999_latency_us);
    }

    #[test]
    fn open_loop_conserves_and_reports_queueing() {
        let mut ex = executor_with("atrapos", 2, 2);
        ex.set_admission_bound(32);
        ex.set_arrival_process(ArrivalProcess::Poisson {
            rate_tps: 100_000.0,
        });
        assert!(ex.is_open_loop());
        let stats = ex.run_for(0.02);
        assert!(stats.open_loop);
        assert!(stats.offered > 0, "no arrivals were generated");
        assert!(stats.committed > 0, "nothing got served");
        assert_eq!(stats.offered, stats.admitted + stats.rejected);
        assert_eq!(
            stats.admitted + stats.queue_depth_start,
            stats.committed + stats.aborted + stats.queue_depth_end,
            "admission-queue accounting must balance"
        );
        assert_eq!(stats.latency_histogram.count(), stats.committed);
        assert!(stats.offered_tps > 0.0);
        assert!(stats.queue_depth_max >= stats.queue_depth_end);
    }

    #[test]
    fn overload_rejects_and_underload_does_not() {
        // 1 000× the servable rate against a bound of 1: almost everything
        // is rejected, but the engine keeps committing (goodput survives).
        let mut hot = executor_with("atrapos", 2, 2);
        hot.set_admission_bound(1);
        hot.set_arrival_process(ArrivalProcess::Poisson {
            rate_tps: 50_000_000.0,
        });
        let h = hot.run_for(0.005);
        assert!(h.rejected > 0, "a full queue must reject");
        assert!(h.committed > 0, "overload must not stop goodput");
        assert!(h.rejected > h.committed);

        // A trickle far below capacity: nothing is ever rejected.
        let mut cold = executor_with("atrapos", 2, 2);
        cold.set_admission_bound(1);
        cold.set_arrival_process(ArrivalProcess::Poisson { rate_tps: 2_000.0 });
        let c = cold.run_for(0.02);
        assert!(c.offered > 0);
        assert_eq!(c.rejected, 0, "an idle system must admit everything");
        assert_eq!(c.committed + c.aborted + c.queue_depth_end, c.admitted);
    }

    #[test]
    fn open_loop_replays_byte_identically() {
        let run = || {
            let mut ex = executor_with("atrapos", 2, 2);
            ex.set_admission_bound(64);
            ex.set_arrival_process(ArrivalProcess::Poisson { rate_tps: 20_000.0 });
            let s1 = ex.run_for(0.01);
            ex.set_arrival_process(ArrivalProcess::Poisson {
                rate_tps: 200_000.0,
            });
            let s2 = ex.run_for(0.01);
            serde::json::to_string(&vec![s1, s2])
        };
        assert_eq!(run(), run(), "same seed must replay byte-identically");
    }

    #[test]
    fn open_loop_queue_carries_across_segments() {
        let mut ex = executor_with("atrapos", 2, 2);
        ex.set_admission_bound(10_000);
        ex.set_arrival_process(ArrivalProcess::Poisson {
            rate_tps: 20_000_000.0,
        });
        let s1 = ex.run_for(0.002);
        assert!(
            s1.queue_depth_end > 0,
            "a 20M tps flood must leave a backlog"
        );
        let s2 = ex.run_for(0.002);
        assert_eq!(
            s2.queue_depth_start, s1.queue_depth_end,
            "the backlog must carry into the next segment"
        );
    }

    #[test]
    fn installing_an_arrival_process_does_not_change_the_workload_stream() {
        // The arrival RNG is separate from the workload RNG: a closed-loop
        // run and an open-loop run at effectively unbounded rate generate
        // the same transaction sequence, so they commit the same count.
        let mut closed = executor_with("centralized", 1, 2);
        let c = closed.run_for(0.01);
        let mut open = executor_with("centralized", 1, 2);
        open.set_admission_bound(1_000_000);
        open.set_arrival_process(ArrivalProcess::Poisson {
            rate_tps: 1_000_000_000.0,
        });
        let o = open.run_for(0.01);
        // At 1G tps the queue never starves, so clients are as busy as in
        // the closed loop and the committed counts match.
        assert_eq!(c.committed, o.committed);
        assert_eq!(c.aborted, o.aborted);
    }

    #[test]
    fn run_stats_round_trip_through_json() {
        let mut ex = executor_with("atrapos", 2, 2);
        ex.set_arrival_process(ArrivalProcess::Poisson { rate_tps: 50_000.0 });
        let stats = ex.run_for(0.01);
        let text = serde::json::to_string(&stats);
        let back: RunStats = serde::json::from_str(&text).unwrap();
        assert_eq!(serde::json::to_string(&back), text);
        assert_eq!(back.latency_histogram, stats.latency_histogram);
        assert_eq!(back.offered, stats.offered);
    }
}
