//! Running one job and timing it: host clocks, the outcome digest, the
//! correctness checks, and the simulated facts read off an outcome.
//!
//! The timed part of a job is the `run_scenario` call only; set-up
//! (generator construction + `DesignSpec::build`, which populates) is timed
//! separately, and digesting, checking and dropping happen off the clock.

use crate::jobs::{rate_label, JobSpec, ADMISSION_BOUND, SLO_MAX_QUEUE_END, SLO_P99_US};
use crate::stats::fnv1a;
use crate::trace::{SharedTracer, TracedDesign, TracedWorkload, Tracer, BUILD_SPAN, ROOT_SPAN};
use atrapos_core::LatencyHistogram;
use atrapos_engine::{RunStats, ScenarioOutcome, VirtualExecutor, Workload};
use atrapos_numa::frac_cycles_to_micros;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// CPU time this thread has consumed, in ns.
///
/// Read from `/proc/thread-self/schedstat` (nanoseconds on CPU, updated at
/// scheduler ticks) and, where the kernel lacks it, from the utime + stime
/// clock ticks of `/proc/thread-self/stat`; `None` off Linux.  No FFI.
pub fn thread_cpu_ns() -> Option<u64> {
    if let Ok(text) = std::fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(ns) = text.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return Some(ns);
        }
    }
    let text = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from after its closing parenthesis, where utime and stime are the
    // 12th and 13th.
    let after = &text[text.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI.
    Some((utime + stime) * 10_000_000)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result of running one job once.
pub struct JobRun {
    /// Generator construction, ns.
    pub construct_ns: u64,
    /// `DesignSpec::build` (population included), ns.
    pub build_ns: u64,
    /// Wall time of `run_scenario`, ns.
    pub wall_ns: u64,
    /// Thread CPU time of `run_scenario`, ns (wall time where the host
    /// offers no thread clock).
    pub cpu_ns: u64,
    /// The simulated result.
    pub outcome: ScenarioOutcome,
    /// FNV of the serialized outcome.
    pub digest: u64,
    /// Clock frequency of the simulated machine.
    pub ghz: f64,
    /// The job's spans, for a traced run.
    pub trace: Option<Tracer>,
}

/// FNV over the serialized outcome: two runs with equal digests produced
/// the same simulated history, field for field.
pub fn outcome_digest(outcome: &ScenarioOutcome) -> u64 {
    fnv1a(serde::json::to_string(outcome).as_bytes())
}

/// Build `job` fresh and run it once, traced or not.
pub fn run_job(job: &JobSpec, seed: u64, traced: bool) -> Result<JobRun, String> {
    let tracer: Option<SharedTracer> = traced.then(|| Arc::new(Mutex::new(Tracer::new())));

    let t0 = Instant::now();
    let mut workload: Box<dyn Workload> = job.generator.construct()?;
    let t1 = Instant::now();
    if let Some(t) = &tracer {
        workload = Box::new(TracedWorkload::new(workload, t.clone()));
    }
    let machine = job.machine();
    let ghz = machine.topology.frequency_ghz();
    let b0 = Instant::now();
    let mut design = job.design.build(&machine, workload.as_ref());
    let b1 = Instant::now();
    if let Some(t) = &tracer {
        design = Box::new(TracedDesign::new(design, t.clone()));
    }
    let mut executor = VirtualExecutor::new(machine, design, workload, job.executor_config(seed));

    let cpu0 = thread_cpu_ns();
    let r0 = Instant::now();
    let outcome = executor.run_scenario(&job.scenario);
    let r1 = Instant::now();
    let cpu1 = thread_cpu_ns();
    let outcome = outcome.map_err(|e| format!("job {}: {e}", job.name))?;

    let wall_ns = r1.duration_since(r0).as_nanos() as u64;
    let cpu_ns = match (cpu0, cpu1) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => wall_ns,
    };
    // The executor holds the other two references to the tracer.
    drop(executor);
    let trace = tracer.map(|t| {
        let mut t = Arc::try_unwrap(t)
            .expect("executor dropped, so this is the last reference")
            .into_inner()
            .expect("no wrapped call panicked");
        t.record_outer(BUILD_SPAN, "setup", b0, b1);
        t.record_outer(ROOT_SPAN, "", r0, r1);
        t
    });
    Ok(JobRun {
        construct_ns: t1.duration_since(t0).as_nanos() as u64,
        build_ns: b1.duration_since(b0).as_nanos() as u64,
        wall_ns,
        cpu_ns,
        digest: outcome_digest(&outcome),
        outcome,
        ghz,
        trace,
    })
}

/// Transactions a segment submitted: every arrival offered in open loop,
/// every transaction executed in closed loop.
pub fn submitted(stats: &RunStats) -> u64 {
    if stats.open_loop {
        stats.offered
    } else {
        stats.committed + stats.aborted
    }
}

/// The per-segment invariants every outcome must satisfy.  Returns the
/// first violation.
pub fn check_segment(label: &str, s: &RunStats) -> Result<(), String> {
    if s.latency_histogram.count() != s.committed {
        return Err(format!(
            "segment {label}: histogram holds {} samples for {} commits",
            s.latency_histogram.count(),
            s.committed
        ));
    }
    if s.open_loop {
        if s.offered != s.admitted + s.rejected {
            return Err(format!(
                "segment {label}: offered {} != admitted {} + rejected {}",
                s.offered, s.admitted, s.rejected
            ));
        }
        // Everything admitted was either served or is still queued.
        let served = s.committed + s.aborted;
        if s.admitted + s.queue_depth_start != served + s.queue_depth_end {
            return Err(format!(
                "segment {label}: admitted {} + queued at start {} != served {served} + queued at end {}",
                s.admitted, s.queue_depth_start, s.queue_depth_end
            ));
        }
        if s.queue_depth_max > ADMISSION_BOUND {
            return Err(format!(
                "segment {label}: queue depth {} exceeds the bound {ADMISSION_BOUND}",
                s.queue_depth_max
            ));
        }
    }
    Ok(())
}

/// Every check on one outcome.
pub fn check_outcome(job: &JobSpec, outcome: &ScenarioOutcome) -> Result<(), String> {
    if outcome.segments.is_empty() {
        return Err(format!("job {}: no segments", job.name));
    }
    for seg in &outcome.segments {
        check_segment(&seg.label, &seg.stats).map_err(|e| format!("job {}: {e}", job.name))?;
        if seg.stats.open_loop != job.is_open_loop() {
            return Err(format!(
                "job {}: segment {} ran {} loop",
                job.name,
                seg.label,
                if seg.stats.open_loop {
                    "open"
                } else {
                    "closed"
                }
            ));
        }
    }
    Ok(())
}

/// Quantile `q` of a latency histogram in simulated CPU cycles (the
/// histogram's native unit), interpolated linearly inside the bucket that
/// holds the rank — the histogram's own `quantile` returns that bucket's
/// upper bound, a 3.2 % staircase.
pub fn quantile_cycles(h: &LatencyHistogram, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut below = 0u64;
    for (lo, hi, n) in h.nonzero_buckets() {
        if (below + n) as f64 >= target {
            let within = (target - below as f64) / n as f64;
            return lo as f64 + (hi - lo) as f64 * within;
        }
        below += n;
    }
    h.max_bound() as f64
}

/// Simulated facts of one outcome.
pub struct SimFacts {
    /// Transactions submitted.
    pub submitted: u64,
    /// Committed.
    pub committed: u64,
    /// Aborted by the simulated system.
    pub aborted: u64,
    /// Rejected by the admission queue.
    pub rejected: u64,
    /// Virtual seconds covered.
    pub virtual_secs: f64,
    /// All segments' latency samples.
    pub latency: LatencyHistogram,
}

impl SimFacts {
    /// Fold the segments of `outcome`.
    pub fn of(outcome: &ScenarioOutcome) -> Self {
        let mut f = SimFacts {
            submitted: 0,
            committed: 0,
            aborted: 0,
            rejected: 0,
            virtual_secs: 0.0,
            latency: LatencyHistogram::new(),
        };
        for seg in &outcome.segments {
            f.submitted += submitted(&seg.stats);
            f.committed += seg.stats.committed;
            f.aborted += seg.stats.aborted;
            f.rejected += seg.stats.rejected;
            f.virtual_secs += seg.stats.virtual_secs;
            f.latency.merge(&seg.stats.latency_histogram);
        }
        f
    }

    /// Committed transactions per virtual second over the whole outcome.
    pub fn tps(&self) -> f64 {
        self.committed as f64 / self.virtual_secs
    }
}

/// The ladder segment offered at `rate`.
pub fn rung(outcome: &ScenarioOutcome, rate: f64) -> Option<&RunStats> {
    let label = rate_label(rate);
    outcome
        .segments
        .iter()
        .find(|s| s.label == label)
        .map(|s| &s.stats)
}

/// Whether a ladder rung met the SLO: p99 within the limit, nothing
/// rejected, no backlog left growing.
pub fn rung_in_slo(s: &RunStats, ghz: f64) -> bool {
    frac_cycles_to_micros(quantile_cycles(&s.latency_histogram, 0.99), ghz) <= SLO_P99_US
        && s.rejected == 0
        && s.queue_depth_end <= SLO_MAX_QUEUE_END
}

/// The highest rate of `rates` whose rung met the SLO (0 if none did).
pub fn max_rate_in_slo(outcome: &ScenarioOutcome, rates: &[f64], ghz: f64) -> f64 {
    rates
        .iter()
        .copied()
        .filter(|&r| rung(outcome, r).is_some_and(|s| rung_in_slo(s, ghz)))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{jobs, WorkloadId};

    fn smoke_job(w: WorkloadId, i: usize) -> JobSpec {
        jobs(w, true).swap_remove(i)
    }

    #[test]
    fn clocks_and_rss_read_on_this_host() {
        let a = thread_cpu_ns().expect("linux /proc");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = thread_cpu_ns().expect("linux /proc");
        assert!(b >= a);
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }

    #[test]
    fn traced_and_untraced_runs_digest_identically() {
        // The wrappers must be transparent: same seed, same simulated
        // history, closed loop, open loop and adaptive alike.
        for (w, i) in [
            (WorkloadId::TatpMix, 3),
            (WorkloadId::TatpMix, 1),
            (WorkloadId::AdaptiveShift, 0),
            (WorkloadId::ServeOpenloop, 0),
        ] {
            let job = smoke_job(w, i);
            let plain = run_job(&job, 11, false).unwrap();
            let traced = run_job(&job, 11, true).unwrap();
            assert_eq!(plain.digest, traced.digest, "{}", job.name);
            assert!(plain.trace.is_none());
            let t = traced.trace.unwrap();
            assert_eq!(
                t.transactions(),
                t.agg(crate::trace::SpanKind::Execute).count,
                "{}",
                job.name
            );
            check_outcome(&job, &plain.outcome).unwrap();
        }
    }

    #[test]
    fn digest_depends_on_the_seed() {
        let job = smoke_job(WorkloadId::TatpMix, 3);
        let a = run_job(&job, 1, false).unwrap();
        let b = run_job(&job, 2, false).unwrap();
        assert_ne!(a.digest, b.digest);
        assert_eq!(a.digest, run_job(&job, 1, false).unwrap().digest);
    }

    #[test]
    fn open_loop_balance_check_catches_cooked_books() {
        let job = smoke_job(WorkloadId::ServeOpenloop, 0);
        let run = run_job(&job, 3, false).unwrap();
        let good = run.outcome.segments[0].stats.clone();
        assert!(good.open_loop && good.offered > 0);
        check_segment("ok", &good).unwrap();

        let mut lost = good.clone();
        lost.rejected += 1;
        assert!(check_segment("x", &lost).unwrap_err().contains("offered"));

        let mut leaked = good.clone();
        leaked.queue_depth_end += 1;
        assert!(check_segment("x", &leaked)
            .unwrap_err()
            .contains("admitted"));

        let mut unrecorded = good.clone();
        unrecorded.committed += 1;
        assert!(check_segment("x", &unrecorded)
            .unwrap_err()
            .contains("histogram"));
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_histogram_bucket() {
        let mut h = LatencyHistogram::new();
        for v in 1_000..2_000u64 {
            h.record(v);
        }
        let exact = h.quantile(0.99) as f64;
        let interp = quantile_cycles(&h, 0.99);
        assert!(
            interp <= exact && interp > exact * 0.96,
            "{interp} vs {exact}"
        );
        assert_eq!(quantile_cycles(&LatencyHistogram::new(), 0.99), 0.0);
    }
}
