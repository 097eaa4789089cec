//! The span and count per-layer metrics: one table holding each metric's
//! name, unit, direction *and* formula, so the catalogue `BENCHMARK.json`
//! repeats and the values a traced run reports cannot drift apart.  (The
//! op costs, the third per-layer family, name themselves in `ops.rs`.)

use crate::jobs::{DesignKey, JobSpec};
use crate::measure::{JobRun, SimFacts};
use crate::metrics::{Better, Layer};
use crate::trace::{self_time_ns, ClassAgg, RawSpan, SpanAgg, SpanKind, Tracer};
use atrapos_engine::RunStats;
use atrapos_numa::{Breakdown, Component};

/// The TPC-C transaction classes with their own `execute` row.
const TPCC_CLASSES: [&str; 5] = [
    "NewOrder",
    "Payment",
    "OrderStatus",
    "Delivery",
    "StockLevel",
];

/// Metric-name component of a breakdown component.
fn component_key(c: Component) -> &'static str {
    match c {
        Component::XctManagement => "xct_management",
        Component::XctExecution => "xct_execution",
        Component::Communication => "communication",
        Component::Locking => "locking",
        Component::Latching => "latching",
        Component::Logging => "logging",
        Component::Monitoring => "monitoring",
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The spans of all traced repetitions of one job.
pub struct JobTrace {
    /// The job's design family.
    pub design: DesignKey,
    /// The job's name.
    pub name: String,
    /// Total root-span (`run_scenario`) time, ns.
    pub root_ns: u64,
    /// Transactions generated.
    pub txns: u64,
    aggs: [SpanAgg; SpanKind::ALL.len()],
    /// `execute` time by transaction class.
    pub classes: Vec<ClassAgg>,
    actions: u64,
    write_actions: u64,
    /// The first traced repetition's sampled raw spans.
    pub raw: Vec<RawSpan>,
}

impl JobTrace {
    /// An empty trace for `job`.
    pub fn new(job: &JobSpec) -> Self {
        Self {
            design: job.design_key,
            name: job.name.clone(),
            root_ns: 0,
            txns: 0,
            aggs: Default::default(),
            classes: Vec::new(),
            actions: 0,
            write_actions: 0,
            raw: Vec::new(),
        }
    }

    /// Fold in one traced repetition; `keep_raw` keeps its raw spans.
    pub fn absorb(&mut self, run: &JobRun, tracer: Tracer, keep_raw: bool) {
        self.root_ns += run.wall_ns;
        self.txns += tracer.transactions();
        for (agg, kind) in self.aggs.iter_mut().zip(SpanKind::ALL) {
            agg.merge(tracer.agg(kind));
        }
        for c in &tracer.classes {
            match self.classes.iter_mut().find(|x| x.class == c.class) {
                Some(x) => {
                    x.count += c.count;
                    x.total_ns += c.total_ns;
                }
                None => self.classes.push(c.clone()),
            }
        }
        self.actions += tracer.actions;
        self.write_actions += tracer.write_actions;
        if keep_raw {
            self.raw = tracer.raw;
        }
    }

    /// The aggregate of one span kind.
    pub fn agg(&self, kind: SpanKind) -> &SpanAgg {
        &self.aggs[kind.index()]
    }

    /// Root time not covered by any child span, ns.
    pub fn self_ns(&self) -> u64 {
        self_time_ns(
            self.root_ns,
            SpanKind::IN_RUN.into_iter().map(|k| self.agg(k).total_ns),
        )
    }
}

/// What a traced run measured, as the formulas below need it.
pub struct LayerInputs<'a> {
    /// The timed jobs.
    pub timed: &'a [JobSpec],
    /// Their first untraced repetition.
    pub first: &'a [JobRun],
    /// Simulated facts of those runs.
    pub facts: &'a [SimFacts],
    /// Index of the ATraPos job.
    pub primary: usize,
    /// Their traces.
    pub traces: &'a [JobTrace],
    /// Traced repetitions folded into `traces`.
    pub traced_reps: usize,
    /// Median traced root ns per transaction submitted.
    pub traced_host_ns: f64,
    /// Median untraced `host_ns_per_txn`.
    pub untraced_host_ns: f64,
    /// Median generator-construction time per repetition, ms.
    pub construct_ms: f64,
    /// Median design-build time per repetition, ms.
    pub build_ms: f64,
    /// `sim_max_rate_in_slo_tps` (0 off the serving workload).
    pub max_rate: f64,
}

impl LayerInputs<'_> {
    fn total(&self, f: impl Fn(&JobTrace) -> u64) -> f64 {
        self.traces.iter().map(f).sum::<u64>() as f64
    }

    /// Transactions generated under trace.  In open loop that is the number
    /// served, which is what the executor paid for.
    fn txns(&self) -> f64 {
        self.total(|t| t.txns)
    }

    fn span_ns(&self, kind: SpanKind) -> f64 {
        self.total(|t| t.agg(kind).total_ns)
    }

    fn span_ns_per_txn(&self, kind: SpanKind) -> f64 {
        ratio(self.span_ns(kind), self.txns())
    }

    /// A rare span kind's total per traced repetition, ms.
    fn span_ms_per_rep(&self, kind: SpanKind) -> f64 {
        self.span_ns(kind) / 1e6 / self.traced_reps as f64
    }

    fn merged(&self, kind: SpanKind) -> SpanAgg {
        let mut m = SpanAgg::default();
        for t in self.traces {
            m.merge(t.agg(kind));
        }
        m
    }

    /// The job of `design`, if the workload has one.
    fn job_of(&self, design: DesignKey) -> Option<usize> {
        self.timed.iter().position(|j| j.design_key == design)
    }

    fn segments(&self) -> impl Iterator<Item = &RunStats> {
        self.first
            .iter()
            .flat_map(|r| &r.outcome.segments)
            .map(|s| &s.stats)
    }

    fn sum(&self, f: impl Fn(&RunStats) -> u64) -> f64 {
        self.segments().map(f).sum::<u64>() as f64
    }

    fn primary_segments(&self) -> impl Iterator<Item = &RunStats> {
        self.first[self.primary]
            .outcome
            .segments
            .iter()
            .map(|s| &s.stats)
    }

    /// Mean of a per-segment figure of the ATraPos job, weighted by the
    /// segments' virtual length.
    fn primary_mean(&self, f: impl Fn(&RunStats) -> f64) -> f64 {
        ratio(
            self.primary_segments().map(|s| f(s) * s.virtual_secs).sum(),
            self.primary_segments().map(|s| s.virtual_secs).sum(),
        )
    }

    fn primary_breakdown(&self) -> Breakdown {
        let mut b = Breakdown::new();
        for s in self.primary_segments() {
            b.merge(&s.breakdown);
        }
        b
    }

    /// `execute` ns per transaction of one TPC-C class (0 when the
    /// workload generated none).
    fn class_ns_per_txn(&self, class: &str) -> f64 {
        let (n, ns) = self
            .traces
            .iter()
            .flat_map(|t| &t.classes)
            .filter(|c| c.class == class)
            .fold((0u64, 0u64), |(n, ns), c| (n + c.count, ns + c.total_ns));
        ratio(ns as f64, n as f64)
    }
}

/// The span and count metrics in reporting order, each with its value from
/// `inputs` (0 when there are none: the catalogue alone).
pub fn span_and_count_layers(inputs: Option<&LayerInputs<'_>>) -> Vec<(Layer, f64)> {
    use Better::{Higher, Lower};
    type Formula<'f> = &'f dyn Fn(&LayerInputs<'_>) -> f64;
    let mut out: Vec<(Layer, f64)> = Vec::new();
    let mut add = |name: String, unit, better, formula: Formula<'_>| {
        out.push((Layer { name, unit, better }, inputs.map_or(0.0, formula)));
    };

    // Spans of the traced repetitions.
    add("engine.executor.run.ns_per_txn".into(), "ns", Lower, &|i| {
        ratio(i.total(|t| t.root_ns), i.txns())
    });
    add(
        "engine.executor.self.ns_per_txn".into(),
        "ns",
        Lower,
        &|i| ratio(i.total(JobTrace::self_ns), i.txns()),
    );
    add("workloads.generate.ns_per_txn".into(), "ns", Lower, &|i| {
        i.span_ns_per_txn(SpanKind::Generate)
    });
    add("workloads.generate.p99_ns".into(), "ns", Lower, &|i| {
        i.merged(SpanKind::Generate).p99_ns() as f64
    });
    add(
        "engine.designs.execute.ns_per_txn".into(),
        "ns",
        Lower,
        &|i| i.span_ns_per_txn(SpanKind::Execute),
    );
    add("engine.designs.execute.p99_ns".into(), "ns", Lower, &|i| {
        i.merged(SpanKind::Execute).p99_ns() as f64
    });
    for d in DesignKey::ALL {
        add(
            format!("engine.designs.execute.{}.ns_per_txn", d.key()),
            "ns",
            Lower,
            &|i| {
                i.job_of(d).map_or(0.0, |j| {
                    let t = &i.traces[j];
                    ratio(t.agg(SpanKind::Execute).total_ns as f64, t.txns as f64)
                })
            },
        );
    }
    for class in TPCC_CLASSES {
        add(
            format!("engine.designs.execute.class.{class}.ns_per_txn"),
            "ns",
            Lower,
            &|i| i.class_ns_per_txn(class),
        );
    }
    add(
        "engine.designs.on_interval.calls".into(),
        "count",
        Lower,
        &|i| i.merged(SpanKind::OnInterval).count as f64 / i.traced_reps as f64,
    );
    add(
        "engine.designs.on_interval.ms_total".into(),
        "ms",
        Lower,
        &|i| i.span_ms_per_rep(SpanKind::OnInterval),
    );
    add(
        "engine.designs.on_interval.max_ms".into(),
        "ms",
        Lower,
        &|i| i.merged(SpanKind::OnInterval).max_ns as f64 / 1e6,
    );
    add("workloads.reconfigure.ms_total".into(), "ms", Lower, &|i| {
        i.span_ms_per_rep(SpanKind::Reconfigure)
    });
    add(
        "engine.designs.on_topology_change.ms_total".into(),
        "ms",
        Lower,
        &|i| i.span_ms_per_rep(SpanKind::TopologyChange),
    );
    add("workloads.construct.ms".into(), "ms", Lower, &|i| {
        i.construct_ms
    });
    add("engine.designs.build.ms".into(), "ms", Lower, &|i| {
        i.build_ms
    });
    add("workloads.populate.ms".into(), "ms", Lower, &|i| {
        i.span_ms_per_rep(SpanKind::Populate)
    });
    add("trace.overhead_pct".into(), "%", Lower, &|i| {
        100.0 * ratio(i.traced_host_ns - i.untraced_host_ns, i.untraced_host_ns)
    });

    // Counts, exact for a seed.
    add("workloads.actions_per_txn".into(), "count", Lower, &|i| {
        ratio(i.total(|t| t.actions), i.txns())
    });
    add(
        "workloads.write_action_share".into(),
        "ratio",
        Lower,
        &|i| ratio(i.total(|t| t.write_actions), i.total(|t| t.actions)),
    );
    add("engine.abort_share".into(), "ratio", Lower, &|i| {
        ratio(i.sum(|s| s.aborted), i.sum(|s| s.committed + s.aborted))
    });
    add(
        "engine.designs.distributed_txn_share".into(),
        "ratio",
        Lower,
        &|i| {
            // Of the shared-nothing job, the only design that has them.
            i.first
                .iter()
                .zip(i.facts)
                .filter_map(|(r, f)| {
                    let d = r.outcome.design_stats.distributed_txns?;
                    Some(ratio(d as f64, f.submitted as f64))
                })
                .fold(0.0, f64::max)
        },
    );
    add("engine.designs.partitions".into(), "count", Higher, &|i| {
        let stats = &i.first[i.primary].outcome.design_stats;
        stats.partitions.map_or(0.0, |p| p as f64)
    });
    for d in DesignKey::ALL {
        add(
            format!("engine.committed.{}", d.key()),
            "count",
            Higher,
            &|i| i.job_of(d).map_or(0.0, |j| i.facts[j].committed as f64),
        );
    }
    for c in Component::ALL {
        add(
            format!("numa.breakdown.{}.share", component_key(c)),
            "ratio",
            Lower,
            &|i| i.primary_breakdown().fraction(c),
        );
    }
    add("numa.ipc".into(), "ratio", Higher, &|i| {
        i.primary_mean(|s| s.ipc)
    });
    add("numa.interconnect.bytes_per_txn".into(), "B", Lower, &|i| {
        let bytes: f64 = i
            .primary_segments()
            .map(|s| s.interconnect_gbps * 1e9 / 8.0 * s.virtual_secs)
            .sum();
        ratio(bytes, i.facts[i.primary].committed as f64)
    });
    add("numa.qpi_imc_ratio".into(), "ratio", Lower, &|i| {
        i.primary_mean(|s| s.qpi_imc_ratio)
    });
    add(
        "core.controller.repartitions".into(),
        "count",
        Lower,
        &|i| i.first[i.primary].outcome.total_repartitions() as f64,
    );
    add("core.controller.intervals".into(), "count", Lower, &|i| {
        i.traces[i.primary].agg(SpanKind::OnInterval).count as f64 / i.traced_reps as f64
    });
    add("engine.arrival.offered".into(), "count", Higher, &|i| {
        i.sum(|s| s.offered)
    });
    add(
        "engine.arrival.rejected_share".into(),
        "ratio",
        Lower,
        &|i| ratio(i.sum(|s| s.rejected), i.sum(|s| s.offered)),
    );
    add(
        "engine.executor.queue_depth_max".into(),
        "count",
        Lower,
        &|i| i.segments().map(|s| s.queue_depth_max).max().unwrap_or(0) as f64,
    );
    add("sim_max_rate_in_slo_tps".into(), "1/s", Higher, &|i| {
        i.max_rate
    });
    out
}
