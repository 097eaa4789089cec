//! The parallel experiment lab.
//!
//! Every experiment in the repo — the Figure 10–13 timelines, the TATP and
//! TPC-C design sweeps, the ablations — decomposes into fully independent
//! (design × workload × scenario) simulations.  Each one is deterministic
//! in isolation (same seed ⇒ same simulated history), so the only thing
//! serial execution buys is wasted cores.
//!
//! A [`SweepJob`] describes one such simulation as data: a machine, a
//! serializable [`DesignSpec`], a boxed [`Workload`] generator, a
//! [`Scenario`] timeline, and the executor configuration.  [`run_sweep`]
//! executes a list of jobs on a pool of scoped OS threads and returns the
//! results *in job order*, so a sweep's output is byte-identical no matter
//! how many threads ran it — `threads = 1` and `threads = N` produce the
//! same report, and the catalogue net pins that at both counts.  Nothing
//! here reads a clock: timing the host is the caller's business.
//!
//! The scheduling is a plain shared-counter work queue: workers grab the
//! next unclaimed job index until none remain.  Job-to-thread assignment
//! therefore varies between runs, but since jobs share no state and each
//! result lands in its own slot, nothing observable depends on it.

use crate::designs::spec::DesignSpec;
use crate::executor::{ExecutorConfig, VirtualExecutor};
use crate::scenario::{Scenario, ScenarioError, ScenarioOutcome};
use crate::workload::Workload;
use atrapos_numa::Machine;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One independent experiment: a design, a workload, and a timeline to run
/// on a given machine.
pub struct SweepJob {
    /// Job name, carried through to the result (e.g. `"tatp/PLP"`).
    pub name: String,
    /// The simulated machine the job runs on.
    pub machine: Machine,
    /// The design under test, as a serializable spec (built on the worker
    /// thread, so population cost parallelizes too).
    pub design: DesignSpec,
    /// The workload generator.
    pub workload: Box<dyn Workload>,
    /// The experiment timeline.  A design-sweep measurement is simply an
    /// eventless scenario of the measurement duration.
    pub scenario: Scenario,
    /// Executor parameters (seed, monitoring interval, bucket width).
    pub config: ExecutorConfig,
}

impl SweepJob {
    /// A single-measurement job: run `workload` against `design` for the
    /// scenario's duration with no mid-run events.
    pub fn measurement(
        name: impl Into<String>,
        machine: Machine,
        design: DesignSpec,
        workload: Box<dyn Workload>,
        secs: f64,
        config: ExecutorConfig,
    ) -> Self {
        let name = name.into();
        Self {
            machine,
            design,
            workload,
            scenario: Scenario::new(name.clone(), secs),
            config,
            name,
        }
    }

    /// Build the job's executor (design instantiation + data population)
    /// and run it to completion on the current thread.
    pub fn run(self) -> Result<ScenarioOutcome, ScenarioError> {
        let design = self.design.build(&self.machine, self.workload.as_ref());
        VirtualExecutor::new(self.machine, design, self.workload, self.config)
            .run_scenario(&self.scenario)
    }
}

/// The result of one [`SweepJob`], in the order the jobs were submitted.
pub struct SweepResult {
    /// The job's name.
    pub name: String,
    /// The simulation outcome.
    pub outcome: Result<ScenarioOutcome, ScenarioError>,
}

/// Run every job on a pool of `threads` scoped OS threads and return the
/// results in job order.
///
/// Each job is an independent deterministic simulation, so the returned
/// stats are identical for every `threads` value; only wall-clock time
/// changes.  `threads` is clamped to at least 1; pass
/// [`default_threads()`] to use every available core.
pub fn run_sweep(jobs: Vec<SweepJob>, threads: usize) -> Vec<SweepResult> {
    parallel_map(jobs, threads, |job| SweepResult {
        name: job.name.clone(),
        outcome: job.run(),
    })
}

/// Apply `f` to every item on a pool of `threads` scoped OS threads,
/// returning the results in item order.
///
/// This is the lab's scheduling primitive: a shared-counter work queue over
/// the item list.  Results are placed by index, so the output order is the
/// input order regardless of which worker ran what.  A panic in `f`
/// propagates to the caller once the scope joins.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("each index is claimed exactly once");
                let r = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("scope joined, every slot filled")
        })
        .collect()
}

/// The lab's default thread count: `ATRAPOS_THREADS` when set, otherwise
/// the host's available parallelism.  Panics on a set-but-invalid value
/// (see [`threads_from_env`]): a pinned count must never silently widen.
pub fn default_threads() -> usize {
    threads_from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// [`default_threads`], with a set-but-invalid `ATRAPOS_THREADS` (`0`,
/// `four`, empty) as an error naming the variable; front ends check it
/// before running anything.
pub fn threads_from_env() -> Result<usize, String> {
    match std::env::var_os("ATRAPOS_THREADS") {
        Some(value) => parse_threads(&value.to_string_lossy()),
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
    }
}

/// An `ATRAPOS_THREADS` value: a positive integer.
fn parse_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "ATRAPOS_THREADS must be a positive integer, got '{value}'"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioEvent;
    use crate::workload::testing::TinyWorkload;
    use atrapos_numa::{CostModel, Topology};

    fn tiny_jobs(n: usize) -> Vec<SweepJob> {
        (0..n)
            .map(|i| {
                SweepJob::measurement(
                    format!("job{i}"),
                    Machine::new(Topology::multisocket(2, 2), CostModel::westmere()),
                    DesignSpec::atrapos(),
                    Box::new(TinyWorkload { rows: 1_000 }),
                    0.004,
                    ExecutorConfig {
                        seed: 7 + i as u64,
                        default_interval_secs: 0.002,
                        time_series_bucket_secs: 0.002,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let out = parallel_map((0..64).collect::<Vec<_>>(), 8, |i| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_results_are_identical_across_thread_counts() {
        let serial = run_sweep(tiny_jobs(6), 1);
        let parallel = run_sweep(tiny_jobs(6), 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.name, p.name);
            let (so, po) = (s.outcome.as_ref().unwrap(), p.outcome.as_ref().unwrap());
            assert!(so.total_committed() > 0);
            assert_eq!(
                serde::json::to_string_pretty(so),
                serde::json::to_string_pretty(po),
                "job '{}' serialized differently under 1 vs 4 threads",
                s.name
            );
        }
    }

    #[test]
    fn sweep_job_with_events_matches_direct_scenario_run() {
        let scenario =
            Scenario::new("spanned", 0.004)
                .starting_as("a")
                .at(0.002, "b", ScenarioEvent::Measure);
        let machine = Machine::new(Topology::multisocket(2, 2), CostModel::westmere());
        let config = ExecutorConfig {
            seed: 3,
            default_interval_secs: 0.002,
            time_series_bucket_secs: 0.002,
        };
        let job = SweepJob {
            name: "spanned".into(),
            machine: machine.clone(),
            design: DesignSpec::atrapos(),
            workload: Box::new(TinyWorkload { rows: 1_000 }),
            scenario: scenario.clone(),
            config: config.clone(),
        };
        let via_sweep = run_sweep(vec![job], 2).remove(0).outcome.unwrap();
        let workload = TinyWorkload { rows: 1_000 };
        let design = DesignSpec::atrapos().build(&machine, &workload);
        let direct = VirtualExecutor::new(machine, design, Box::new(workload), config)
            .run_scenario(&scenario)
            .unwrap();
        assert_eq!(
            serde::json::to_string_pretty(&via_sweep),
            serde::json::to_string_pretty(&direct)
        );
    }

    #[test]
    fn invalid_scenarios_surface_as_per_job_errors() {
        let mut jobs = tiny_jobs(2);
        jobs[1].scenario = Scenario::new("broken", -1.0);
        let results = run_sweep(jobs, 2);
        assert!(results[0].outcome.is_ok());
        assert!(matches!(
            results[1].outcome,
            Err(ScenarioError::BadTimeline { .. })
        ));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn invalid_thread_counts_are_rejected_by_name() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 4 "), Ok(4));
        for bad in ["0", "abc", ""] {
            let err = parse_threads(bad).expect_err(bad);
            assert!(err.contains("ATRAPOS_THREADS"), "{err}");
            assert!(err.contains(&format!("'{bad}'")), "{err}");
        }
    }
}
