//! The executor's client pick against the scan it replaced.
//!
//! `VirtualExecutor::run_for` picks the next client from a min-tree over
//! `(next_free, client index)`.  This test keeps a shadow of every
//! client's ready time and active flag, updated from what a recording
//! design sees (each `execute`'s client and end, each interval's pause) and
//! from the calls the test makes (segment ends, socket loss and restore),
//! and checks that every `execute` runs the client the first-minimum scan
//! over the shadow picks — ties included — and that the machine's
//! low-water mark only rises.  Random sequences mix closed-loop segments,
//! failed and restored sockets, interval pauses (an adaptive ATraPos
//! design, plus extra pauses the recorder adds) and open-loop rate steps.

use atrapos_engine::workload::testing::{TinyUpdateWorkload, TinyWorkload};
use atrapos_engine::{
    ArrivalProcess, AtraposConfig, AtraposDesign, CentralizedDesign, DesignStats, ExecutorConfig,
    IntervalOutcome, SystemDesign, TransactionSpec, TxnOutcome, VirtualExecutor, Workload,
};
use atrapos_numa::{secs_to_cycles, CoreId, CostModel, Cycles, Machine, SocketId, Topology};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// What the executor asked of the design, in order.
#[derive(Debug, Clone, Copy)]
enum Seen {
    /// An interval boundary and the pause the executor was handed.
    Interval { boundary: Cycles, pause: Cycles },
    /// One transaction: its client, start and end, and the machine's
    /// low-water mark when it began.
    Execute {
        client: CoreId,
        start: Cycles,
        end: Cycles,
        mark: Cycles,
    },
}

/// Forwards every call to `inner` and logs it.  Every `pause_every`-th
/// interval it lengthens the inner design's pause by `extra` cycles, so
/// pauses occur even when the inner design never repartitions, and it keeps
/// the executor's short default interval, so boundaries come often.
struct Recording {
    inner: Box<dyn SystemDesign>,
    log: Arc<Mutex<Vec<Seen>>>,
    intervals: u64,
    pause_every: u64,
    extra: Cycles,
}

impl SystemDesign for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(
        &mut self,
        machine: &mut Machine,
        spec: &TransactionSpec,
        client: CoreId,
        start: Cycles,
    ) -> TxnOutcome {
        let mark = machine.low_water();
        let out = self.inner.execute(machine, spec, client, start);
        self.log.lock().unwrap().push(Seen::Execute {
            client,
            start,
            end: out.end,
            mark,
        });
        out
    }

    fn on_interval(&mut self, machine: &mut Machine, now: Cycles, tput: f64) -> IntervalOutcome {
        let mut out = self.inner.on_interval(machine, now, tput);
        self.intervals += 1;
        if self.intervals.is_multiple_of(self.pause_every) {
            out.pause_cycles += self.extra;
        }
        out.next_interval_secs = None;
        self.log.lock().unwrap().push(Seen::Interval {
            boundary: now,
            pause: out.pause_cycles,
        });
        out
    }

    fn on_topology_change(&mut self, machine: &Machine) {
        self.inner.on_topology_change(machine);
    }

    fn stats(&self) -> DesignStats {
        self.inner.stats()
    }
}

/// The executor's client state as the old scan saw it.
struct Shadow {
    cores: Vec<CoreId>,
    next_free: Vec<Cycles>,
    active: Vec<bool>,
    /// End of the last segment (the executor's clock between segments).
    clock: Cycles,
    mark: Cycles,
    picks: u64,
    pauses: u64,
}

impl Shadow {
    /// The old pick: the first active client with the least `next_free`.
    fn scan(&self) -> Option<(usize, Cycles)> {
        self.next_free
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.active[i])
            .map(|(i, &t)| (i, t))
            .min_by_key(|&(_, t)| t)
    }

    /// Replay what the design saw during one segment.  A pause is applied
    /// after the pick it precedes: the executor picks a client, then
    /// crosses the interval boundaries before its start, then executes.
    fn replay(&mut self, seen: &[Seen]) -> Result<(), TestCaseError> {
        let mut pending: Vec<(Cycles, Cycles)> = Vec::new();
        for &event in seen {
            match event {
                Seen::Interval { boundary, pause } => pending.push((boundary, pause)),
                Seen::Execute {
                    client,
                    start,
                    end,
                    mark,
                } => {
                    let (want, ready) = self.scan().expect("an execute with no active client");
                    let ci = self.cores.iter().position(|&c| c == client).unwrap();
                    prop_assert_eq!(
                        ci,
                        want,
                        "pick {} ran client {} (ready {}), the scan picks {} (ready {})",
                        self.picks,
                        ci,
                        self.next_free[ci],
                        want,
                        ready
                    );
                    prop_assert!(mark >= self.mark, "mark fell from {} to {mark}", self.mark);
                    prop_assert!(mark >= ready.max(self.clock) && mark <= start);
                    self.mark = mark;
                    self.picks += 1;
                    for (boundary, pause) in pending.drain(..) {
                        if pause > 0 {
                            self.pauses += 1;
                            for t in &mut self.next_free {
                                *t = (*t).max(boundary + pause);
                            }
                        }
                    }
                    self.next_free[ci] = end;
                }
            }
        }
        prop_assert!(pending.is_empty(), "an interval crossed without an execute");
        Ok(())
    }

    /// The segment-end coast: idle active clients move up to `end_at`.
    fn coast(&mut self, end_at: Cycles) {
        for (t, &active) in self.next_free.iter_mut().zip(&self.active) {
            if active {
                *t = (*t).max(end_at);
            }
        }
        self.clock = end_at;
    }

    fn set_socket(&mut self, machine: &Machine, socket: SocketId, active: bool) {
        for (i, &core) in self.cores.iter().enumerate() {
            if machine.topology.socket_of(core) == socket {
                self.active[i] = active;
                if active {
                    self.next_free[i] = self.next_free[i].max(self.clock);
                }
            }
        }
    }
}

/// One step of a random timeline.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Run a segment of this many microseconds of virtual time.
    Run(u64),
    Fail(u16),
    Restore(u16),
    /// Serve open loop at this rate (or change the rate).
    Rate(f64),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (50u64..1_500).prop_map(Step::Run),
        1 => (0u16..4).prop_map(Step::Fail),
        1 => (0u16..4).prop_map(Step::Restore),
        // Below and above what a few clients serve: underload leaves
        // clients idle at a segment's end, overload keeps them all busy.
        1 => (1e4f64..1e6).prop_map(Step::Rate),
        1 => (1e6f64..3e7).prop_map(Step::Rate),
    ]
}

/// Drive a fresh executor through `steps` and check every pick against
/// the shadow; returns the shadow for coverage checks.
fn check_timeline(
    sockets: usize,
    cores: usize,
    adaptive: bool,
    pause_every: u64,
    extra: Cycles,
    steps: &[Step],
) -> Result<Shadow, TestCaseError> {
    let machine = Machine::new(Topology::multisocket(sockets, cores), CostModel::westmere());
    let ghz = machine.topology.frequency_ghz();
    let (workload, inner): (Box<dyn Workload>, Box<dyn SystemDesign>) = if adaptive {
        let w = TinyUpdateWorkload { rows: 400 };
        let d = AtraposDesign::new(&machine, &w, AtraposConfig::default());
        (Box::new(w), Box::new(d))
    } else {
        let w = TinyWorkload { rows: 400 };
        let d = CentralizedDesign::new(&machine, &w);
        (Box::new(w), Box::new(d))
    };
    let log = Arc::new(Mutex::new(Vec::new()));
    let design = Box::new(Recording {
        inner,
        log: Arc::clone(&log),
        intervals: 0,
        pause_every,
        extra,
    });
    let clients = machine.topology.active_cores();
    let mut shadow = Shadow {
        next_free: vec![0; clients.len()],
        active: vec![true; clients.len()],
        cores: clients,
        clock: 0,
        mark: 0,
        picks: 0,
        pauses: 0,
    };
    let config = ExecutorConfig {
        seed: 3,
        default_interval_secs: 0.000_2,
        time_series_bucket_secs: 0.000_5,
    };
    let mut ex = VirtualExecutor::new(machine, design, workload, config);
    for &step in steps {
        match step {
            Step::Run(micros) => {
                let secs = micros as f64 * 1e-6;
                ex.run_for(secs);
                let seen = std::mem::take(&mut *log.lock().unwrap());
                shadow.replay(&seen)?;
                shadow.coast(shadow.clock + secs_to_cycles(secs, ghz));
            }
            Step::Fail(s) if usize::from(s) < sockets => {
                // Keep one socket serving: a design needs somewhere to run.
                let topo = &ex.machine().topology;
                if topo.is_active(SocketId(s)) && topo.active_sockets().len() > 1 {
                    ex.fail_socket(SocketId(s)).unwrap();
                    shadow.set_socket(ex.machine(), SocketId(s), false);
                }
            }
            Step::Restore(s) if usize::from(s) < sockets => {
                ex.restore_socket(SocketId(s)).unwrap();
                shadow.set_socket(ex.machine(), SocketId(s), true);
            }
            Step::Rate(rate_tps) => ex.set_arrival_process(ArrivalProcess::Poisson { rate_tps }),
            Step::Fail(_) | Step::Restore(_) => {}
        }
        prop_assert_eq!(ex.machine().low_water(), shadow.mark);
    }
    Ok(shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn every_pick_is_the_first_minimum_of_the_scan(
        sockets in 1usize..4,
        cores in 1usize..4,
        adaptive in any::<bool>(),
        pause_every in 1u64..4,
        extra in 0u64..40_000,
        steps in prop::collection::vec(step(), 1..10),
    ) {
        check_timeline(sockets, cores, adaptive, pause_every, extra, &steps)?;
    }
}

/// One fixed timeline that reaches every edit the tree sees: closed-loop
/// segments, pauses, a socket lost and restored, open-loop rate steps from
/// underload to overload, and an underloaded segment whose idle clients
/// coast into the next.  (An adaptive ATraPos design's own
/// repartitioning pause can idle the rest of a short timeline, so this one
/// pauses only through the recorder.)
#[test]
fn a_fixed_timeline_covers_every_rebuild() {
    let steps = [
        Step::Run(800),
        Step::Fail(1),
        Step::Run(600),
        Step::Rate(2e5),
        Step::Run(700),
        Step::Run(400),
        Step::Restore(1),
        Step::Rate(3e7),
        Step::Run(900),
        Step::Fail(0),
        Step::Run(500),
    ];
    let shadow = check_timeline(2, 3, false, 2, 30_000, &steps).unwrap();
    assert!(shadow.picks > 1_000, "only {} picks", shadow.picks);
    assert!(shadow.pauses > 5, "only {} pauses", shadow.pauses);
}
