//! Wrapper tracing: spans recorded from the benchmark's own files, around
//! the calls the real `VirtualExecutor` makes into a workload and a design.
//!
//! `TracedWorkload` and `TracedDesign` are transparent delegating impls of
//! the two public traits; handing them to the executor changes nothing it
//! can observe (a test pins that the outcome digest is unchanged).  The
//! root span is the `run_scenario` call, recorded by the caller; every
//! wrapper span is its direct child, so the executor's self time is the
//! root minus all children — and includes the wrappers' own bookkeeping,
//! which `trace.overhead_pct` bounds.

use atrapos_core::LatencyHistogram;
use atrapos_engine::{
    DesignStats, IntervalOutcome, ReconfigureError, SystemDesign, TableSpec, TransactionSpec,
    TxnOutcome, Workload, WorkloadChange,
};
use atrapos_numa::{CoreId, Cycles, Machine};
use atrapos_storage::{Database, Key, TableId};
use rand::rngs::SmallRng;
use serde::Serialize;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The span names, which double as the layer names of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `Workload::next_transaction_into`.
    Generate,
    /// `SystemDesign::execute`.
    Execute,
    /// `SystemDesign::on_interval`.
    OnInterval,
    /// `Workload::reconfigure`.
    Reconfigure,
    /// `SystemDesign::on_topology_change`.
    TopologyChange,
    /// `Workload::populate` (during set-up, under `engine.designs.build`).
    Populate,
}

impl SpanKind {
    /// Every kind, in `index` order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Generate,
        SpanKind::Execute,
        SpanKind::OnInterval,
        SpanKind::Reconfigure,
        SpanKind::TopologyChange,
        SpanKind::Populate,
    ];

    /// The kinds that run inside the root span.
    pub const IN_RUN: [SpanKind; 5] = [
        SpanKind::Generate,
        SpanKind::Execute,
        SpanKind::OnInterval,
        SpanKind::Reconfigure,
        SpanKind::TopologyChange,
    ];

    /// Position in [`SpanKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Generate => "workloads.generate",
            SpanKind::Execute => "engine.designs.execute",
            SpanKind::OnInterval => "engine.designs.on_interval",
            SpanKind::Reconfigure => "workloads.reconfigure",
            SpanKind::TopologyChange => "engine.designs.on_topology_change",
            SpanKind::Populate => "workloads.populate",
        }
    }

    /// Name of the parent span.
    pub fn parent(self) -> &'static str {
        match self {
            SpanKind::Populate => BUILD_SPAN,
            _ => ROOT_SPAN,
        }
    }

    /// Per-transaction kinds keep one raw span in `SAMPLE_EVERY`; the rare
    /// ones keep all.
    fn per_txn(self) -> bool {
        matches!(self, SpanKind::Generate | SpanKind::Execute)
    }
}

/// Name of the root span (the `run_scenario` call).
pub const ROOT_SPAN: &str = "engine.executor.run";
/// Name of the set-up span around `DesignSpec::build`.
pub const BUILD_SPAN: &str = "engine.designs.build";
/// Raw spans are kept for one transaction in this many.
pub const SAMPLE_EVERY: u64 = 1024;

/// In-memory aggregate of one span name.
#[derive(Debug, Clone, Default)]
pub struct SpanAgg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Longest one, ns.
    pub max_ns: u64,
    /// Log-bucketed distribution of durations (ns), for percentiles.
    pub histogram: LatencyHistogram,
}

impl SpanAgg {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.histogram.record(ns);
    }

    /// Fold another aggregate into this one.
    pub fn merge(&mut self, other: &SpanAgg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.histogram.merge(&other.histogram);
    }

    /// 99th-percentile duration, ns (0 when empty).
    pub fn p99_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.histogram.quantile(0.99)
        }
    }
}

/// One raw span, as written to `trace-<workload>.json`.
#[derive(Debug, Clone, Serialize)]
pub struct RawSpan {
    /// Span name.
    pub name: &'static str,
    /// Name of the span that caused it.
    pub parent: &'static str,
    /// Start, ns since the job's tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Request id: ordinal of the transaction being processed (0 before
    /// the first one).
    pub txn: u64,
}

/// `execute` time of one transaction class (the pg_meter per-class row).
#[derive(Debug, Clone, Serialize)]
pub struct ClassAgg {
    /// `TransactionSpec::class`.
    pub class: &'static str,
    /// Transactions of the class executed.
    pub count: u64,
    /// Their total `execute` time, ns.
    pub total_ns: u64,
}

/// Collects the spans of one job.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    txn: u64,
    aggs: [SpanAgg; 6],
    /// `execute` time by transaction class.
    pub classes: Vec<ClassAgg>,
    /// Actions in the specs handed to `execute`.
    pub actions: u64,
    /// Those of them that write.
    pub write_actions: u64,
    /// Sampled raw spans.
    pub raw: Vec<RawSpan>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            txn: 0,
            aggs: Default::default(),
            classes: Vec::new(),
            actions: 0,
            write_actions: 0,
            raw: Vec::new(),
        }
    }

    /// The aggregate of one span kind.
    pub fn agg(&self, kind: SpanKind) -> &SpanAgg {
        &self.aggs[kind.index()]
    }

    /// Transactions generated so far.
    pub fn transactions(&self) -> u64 {
        self.txn
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn record(&mut self, kind: SpanKind, start: Instant, end: Instant) -> u64 {
        let ns = end.duration_since(start).as_nanos() as u64;
        self.aggs[kind.index()].record(ns);
        if !kind.per_txn() || self.txn.is_multiple_of(SAMPLE_EVERY) {
            self.raw.push(RawSpan {
                name: kind.name(),
                parent: kind.parent(),
                start_ns: self.offset_ns(start),
                end_ns: self.offset_ns(end),
                txn: self.txn,
            });
        }
        ns
    }

    /// Record a span measured by the caller (the root and build spans).
    pub fn record_outer(
        &mut self,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.raw.push(RawSpan {
            name,
            parent,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            txn: self.txn,
        });
    }

    fn record_execute(&mut self, spec: &TransactionSpec, start: Instant, end: Instant) {
        let ns = self.record(SpanKind::Execute, start, end);
        for phase in &spec.phases {
            self.actions += phase.actions.len() as u64;
            self.write_actions += phase.actions.iter().filter(|a| a.op.is_write()).count() as u64;
        }
        // Class labels are a handful of `&'static str`s, so a pointer
        // comparison nearly always decides; the string compare keeps two
        // equal labels at different addresses in one row.
        let class = spec.class;
        let slot = match self
            .classes
            .iter()
            .position(|c| std::ptr::eq(c.class, class) || c.class == class)
        {
            Some(i) => i,
            None => {
                self.classes.push(ClassAgg {
                    class,
                    count: 0,
                    total_ns: 0,
                });
                self.classes.len() - 1
            }
        };
        self.classes[slot].count += 1;
        self.classes[slot].total_ns += ns;
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// A tracer shared by the two wrappers of one job.  The executor is
/// single-threaded; the mutex only satisfies the traits' `Send` bound.
pub type SharedTracer = Arc<Mutex<Tracer>>;

fn lock(tracer: &SharedTracer) -> std::sync::MutexGuard<'_, Tracer> {
    tracer.lock().expect(
        "tracer mutex is only poisoned if a wrapped call panicked, which already failed the run",
    )
}

/// Delegating `Workload` that records a span around each call.
pub struct TracedWorkload {
    inner: Box<dyn Workload>,
    tracer: SharedTracer,
}

impl TracedWorkload {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Workload>, tracer: SharedTracer) -> Self {
        Self { inner, tracer }
    }
}

impl Workload for TracedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<TableSpec> {
        self.inner.tables()
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        let start = Instant::now();
        self.inner.populate(db, filter);
        let end = Instant::now();
        lock(&self.tracer).record(SpanKind::Populate, start, end);
    }

    fn next_transaction(&mut self, rng: &mut SmallRng, client: CoreId) -> TransactionSpec {
        let start = Instant::now();
        let spec = self.inner.next_transaction(rng, client);
        let end = Instant::now();
        let mut t = lock(&self.tracer);
        t.txn += 1;
        t.record(SpanKind::Generate, start, end);
        spec
    }

    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        client: CoreId,
        spec: &mut TransactionSpec,
    ) {
        let start = Instant::now();
        self.inner.next_transaction_into(rng, client, spec);
        let end = Instant::now();
        let mut t = lock(&self.tracer);
        t.txn += 1;
        t.record(SpanKind::Generate, start, end);
    }

    fn table_domains(&self) -> Vec<(TableId, atrapos_core::KeyDomain)> {
        self.inner.table_domains()
    }

    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        let start = Instant::now();
        let result = self.inner.reconfigure(change);
        let end = Instant::now();
        lock(&self.tracer).record(SpanKind::Reconfigure, start, end);
        result
    }
}

/// Delegating `SystemDesign` that records a span around each call.
pub struct TracedDesign {
    inner: Box<dyn SystemDesign>,
    tracer: SharedTracer,
}

impl TracedDesign {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn SystemDesign>, tracer: SharedTracer) -> Self {
        Self { inner, tracer }
    }
}

impl SystemDesign for TracedDesign {
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
        let t0 = Instant::now();
        let out = self.inner.execute(machine, spec, client, start);
        let t1 = Instant::now();
        lock(&self.tracer).record_execute(spec, t0, t1);
        out
    }

    fn on_interval(
        &mut self,
        machine: &mut Machine,
        now: Cycles,
        interval_throughput: f64,
    ) -> IntervalOutcome {
        let t0 = Instant::now();
        let out = self.inner.on_interval(machine, now, interval_throughput);
        let t1 = Instant::now();
        lock(&self.tracer).record(SpanKind::OnInterval, t0, t1);
        out
    }

    fn on_topology_change(&mut self, machine: &Machine) {
        let t0 = Instant::now();
        self.inner.on_topology_change(machine);
        let t1 = Instant::now();
        lock(&self.tracer).record(SpanKind::TopologyChange, t0, t1);
    }

    fn stats(&self) -> DesignStats {
        self.inner.stats()
    }
}

/// Self time of a span: its duration minus the part its children cover.
/// Children of the root never overlap (the executor is one thread), so
/// their total is what they cover; saturates at zero.
pub fn self_time_ns(root_ns: u64, children_ns: impl IntoIterator<Item = u64>) -> u64 {
    root_ns.saturating_sub(children_ns.into_iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_root_minus_children_and_saturates() {
        assert_eq!(self_time_ns(1_000, [200, 300, 0]), 500);
        assert_eq!(self_time_ns(1_000, []), 1_000);
        assert_eq!(self_time_ns(100, [80, 80]), 0);
    }

    #[test]
    fn aggregates_count_total_max_and_merge() {
        let mut a = SpanAgg::default();
        a.record(10);
        a.record(30);
        let mut b = SpanAgg::default();
        b.record(100);
        a.merge(&b);
        assert_eq!((a.count, a.total_ns, a.max_ns), (3, 140, 100));
        assert!(a.p99_ns() >= 97 && a.p99_ns() <= 104);
        assert_eq!(SpanAgg::default().p99_ns(), 0);
    }

    #[test]
    fn per_transaction_spans_are_sampled_and_rare_ones_kept() {
        let mut t = Tracer::new();
        let now = Instant::now();
        for txn in 1..=2 * SAMPLE_EVERY {
            t.txn = txn;
            t.record(SpanKind::Generate, now, now);
        }
        t.record(SpanKind::OnInterval, now, now);
        assert_eq!(t.agg(SpanKind::Generate).count, 2 * SAMPLE_EVERY);
        let kept = |name| t.raw.iter().filter(|s| s.name == name).count();
        assert_eq!(kept(SpanKind::Generate.name()), 2);
        assert_eq!(kept(SpanKind::OnInterval.name()), 1);
        assert_eq!(t.raw[0].parent, ROOT_SPAN);
        assert_eq!(SpanKind::Populate.parent(), BUILD_SPAN);
    }
}
