//! The low-water-mark contract between the executor and the lock tables.
//!
//! Before every `execute` the executor raises the machine's low-water mark
//! to the ready time of the client it runs; the lock manager forgets
//! entries only a request below the mark could still wait on.  That is
//! exact only if the mark never decreases and no `execute` starts below
//! it.  A recording design wraps each design and checks both on every
//! call, over a closed loop, an open-loop rate ladder, and a timeline that
//! fails and restores a socket.

use atrapos_engine::workload::testing::{TinyUpdateWorkload, TinyWorkload};
use atrapos_engine::{
    AtraposConfig, AtraposDesign, CentralizedDesign, DesignStats, ExecutorConfig, IntervalOutcome,
    Scenario, ScenarioEvent, SystemDesign, TransactionSpec, TxnOutcome, VirtualExecutor, Workload,
};
use atrapos_numa::{CoreId, CostModel, Cycles, Machine, Topology};
use std::sync::{Arc, Mutex};

/// What the recording design saw.
#[derive(Debug, Default)]
struct MarkLog {
    executes: u64,
    /// Highest mark seen so far.
    mark: Cycles,
    /// Start of the previous `execute`.
    last_start: Cycles,
    /// `execute` calls that started before the previous one.
    backwards_starts: u64,
}

/// Forwards every call to `inner`, checking the machine's mark first.
struct Recording {
    inner: Box<dyn SystemDesign>,
    log: Arc<Mutex<MarkLog>>,
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
        {
            let mut log = self.log.lock().unwrap();
            let mark = machine.low_water();
            assert!(
                mark >= log.mark,
                "mark went back from {} to {mark}",
                log.mark
            );
            assert!(mark <= start, "execute at {start} below the mark {mark}");
            if start < log.last_start {
                log.backwards_starts += 1;
            }
            log.mark = mark;
            log.last_start = start;
            log.executes += 1;
        }
        self.inner.execute(machine, spec, client, start)
    }

    fn on_interval(&mut self, machine: &mut Machine, now: Cycles, tput: f64) -> IntervalOutcome {
        let mark = machine.low_water();
        assert!(mark <= now, "interval boundary {now} below the mark {mark}");
        self.inner.on_interval(machine, now, tput)
    }

    fn on_topology_change(&mut self, machine: &Machine) {
        self.inner.on_topology_change(machine);
    }

    fn stats(&self) -> DesignStats {
        self.inner.stats()
    }
}

/// Run `scenario` on `machine` through the recording wrapper around the
/// design `build` makes, and return what it saw.
fn record(
    machine: Machine,
    workload: impl Workload + 'static,
    build: Build,
    scenario: &Scenario,
) -> MarkLog {
    let log = Arc::new(Mutex::new(MarkLog::default()));
    let design = Box::new(Recording {
        inner: build(&machine, &workload),
        log: Arc::clone(&log),
    });
    let config = ExecutorConfig {
        seed: 7,
        default_interval_secs: 0.002,
        time_series_bucket_secs: 0.002,
    };
    let mut executor = VirtualExecutor::new(machine, design, Box::new(workload), config);
    let outcome = executor.run_scenario(scenario).expect("valid scenario");
    assert!(outcome.total_committed() > 0);
    let log = std::mem::take(&mut *log.lock().unwrap());
    assert_eq!(executor.machine().low_water(), log.mark);
    log
}

fn machine(sockets: usize, cores: usize) -> Machine {
    Machine::new(Topology::multisocket(sockets, cores), CostModel::westmere())
}

/// Builds the design under test for a machine and workload.
type Build = fn(&Machine, &dyn Workload) -> Box<dyn SystemDesign>;

fn centralized(m: &Machine, w: &dyn Workload) -> Box<dyn SystemDesign> {
    Box::new(CentralizedDesign::new(m, w))
}

fn atrapos_static(m: &Machine, w: &dyn Workload) -> Box<dyn SystemDesign> {
    let config = AtraposConfig {
        monitoring: false,
        adaptive: false,
        ..AtraposConfig::default()
    };
    Box::new(AtraposDesign::new(m, w, config))
}

fn atrapos_adaptive(m: &Machine, w: &dyn Workload) -> Box<dyn SystemDesign> {
    Box::new(AtraposDesign::new(m, w, AtraposConfig::default()))
}

#[test]
fn closed_loop_marks_rise_and_stay_below_every_start() {
    let scenario =
        Scenario::new("closed", 0.006)
            .starting_as("a")
            .at(0.003, "b", ScenarioEvent::Measure);
    for build in [centralized as Build, atrapos_adaptive] {
        let log = record(
            machine(2, 4),
            TinyUpdateWorkload { rows: 500 },
            build,
            &scenario,
        );
        assert!(log.executes > 100);
        assert!(log.mark > 0);
    }
}

/// The benchmark's serve-openloop ladder, shortened: Poisson arrivals up
/// a rate ladder into a bounded queue.  Here `start` itself goes
/// backwards — an idle client jumps to the next arrival and admits every
/// arrival of that cycle, and a client ready earlier then starts one of
/// them *before it arrived* — while the mark, the ready time, still only
/// rises.
#[test]
fn open_loop_marks_rise_even_when_starts_go_backwards() {
    let rates = [4e6, 12e6, 26e6];
    let rung = 0.001;
    let mut scenario = Scenario::new("ladder", rung * rates.len() as f64)
        .starting_as("4M")
        .at_unlabelled(0.0, ScenarioEvent::SetAdmissionBound { bound: 128 })
        .at_unlabelled(0.0, ScenarioEvent::SetArrivalRate { rate_tps: rates[0] });
    for (i, &rate) in rates.iter().enumerate().skip(1) {
        scenario = scenario.at(
            rung * i as f64,
            format!("{}M", rate / 1e6),
            ScenarioEvent::SetArrivalRate { rate_tps: rate },
        );
    }
    let mut backwards = 0;
    for build in [centralized as Build, atrapos_static] {
        let log = record(
            machine(4, 10),
            TinyWorkload { rows: 10_000 },
            build,
            &scenario,
        );
        assert!(log.executes > 1_000);
        backwards += log.backwards_starts;
    }
    assert!(backwards > 0, "no start went backwards");
}

#[test]
fn socket_failure_and_restore_keep_the_mark_rising() {
    let scenario = Scenario::new("failover", 0.008)
        .starting_as("all")
        .at(0.002, "lost", ScenarioEvent::FailSocket { socket: 1 })
        .at(0.005, "back", ScenarioEvent::RestoreSocket { socket: 1 });
    for build in [centralized as Build, atrapos_adaptive] {
        let log = record(
            machine(2, 2),
            TinyUpdateWorkload { rows: 500 },
            build,
            &scenario,
        );
        assert!(log.executes > 100);
    }
}
