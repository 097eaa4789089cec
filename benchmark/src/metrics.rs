//! The metric catalogue: every name the benchmark reports, with its unit
//! and direction, and for end-to-end metrics the regression bound.
//! `BENCHMARK.json` repeats this table for the driver; a test holds the two
//! equal.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base` (negative
    /// when it is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in reporting order.  *host* metrics are the
/// simulator's cost; *sim* metrics describe the modelled system and repeat
/// exactly for a seed.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "host_ns_per_txn",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_cpu_ns_per_txn",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_tps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.12,
    },
    EndToEnd {
        name: "sim_p99_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_gain_vs_best_other",
        unit: "x",
        better: Better::Higher,
        bound: 0.16,
    },
];

/// A per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Metric name; the leading components name the crate and module.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::WORKLOADS;
    use crate::layers::span_and_count_layers;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks '{key}'"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    /// (name, unit, better) of every entry of a metric list.
    fn entries(list: &Value) -> Vec<(String, String, String)> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                    text(field(m, "better")).to_string(),
                )
            })
            .collect()
    }

    /// (name, unit, better, bound) of one metric.
    type Entry = (String, String, String, Option<f64>);

    /// What `BENCHMARK.json` must say, derived from the code.
    fn expected_manifest() -> Vec<(&'static str, Vec<Entry>)> {
        let e2e = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.word().to_string(),
                    Some(d.bound),
                )
            })
            .collect();
        let mut layers: Vec<_> = span_and_count_layers(None)
            .into_iter()
            .map(|(l, _)| {
                (
                    l.name,
                    l.unit.to_string(),
                    l.better.word().to_string(),
                    None,
                )
            })
            .collect();
        let ops = crate::ops::measure(1, std::time::Duration::from_micros(100));
        layers.extend(ops.iter().map(|c| {
            (
                c.name.to_string(),
                c.unit.to_string(),
                "lower".to_string(),
                None,
            )
        }));
        vec![("end_to_end", e2e), ("per_layer", layers)]
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = serde::json::parse(&std::fs::read_to_string(path).expect(path))
            .expect("BENCHMARK.json parses");

        let workloads: Vec<&str> = field(&manifest, "workloads")
            .as_array()
            .expect("a list")
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        for (key, expected) in expected_manifest() {
            let list = field(&manifest, key);
            let names: Vec<_> = expected
                .iter()
                .map(|(n, u, b, _)| (n.clone(), u.clone(), b.clone()))
                .collect();
            assert_eq!(entries(list), names, "{key}");
            for (m, (name, _, _, bound)) in list.as_array().expect("a list").iter().zip(&expected) {
                match (bound, m.get("bound")) {
                    (Some(b), Some(Value::Float(f))) => assert_eq!(f, b, "bound of {name}"),
                    (None, None) => {}
                    (b, f) => panic!("bound of {name}: expected {b:?}, file has {f:?}"),
                }
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
        for d in &END_TO_END {
            assert!(ok_name(d.name) && ok_unit(d.unit), "{}", d.name);
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        for (l, _) in span_and_count_layers(None) {
            assert!(ok_name(&l.name) && ok_unit(l.unit), "{}", l.name);
            names.push(l.name);
        }
        names.extend(WORKLOADS.iter().map(|w| w.name().to_string()));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(Better::Higher.worsening(0.0, 5.0), 0.0);
    }
}
