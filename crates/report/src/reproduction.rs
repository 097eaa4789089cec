//! The `REPRODUCTION.md` generator.
//!
//! Consumes the accumulated figure results ([`FiguresFile`], i.e.
//! `reports/BENCH_figures.json`) and deterministically renders the
//! reproduction evidence: one section per experiment with a markdown
//! results table, a standalone SVG chart, and a pass/warn verdict against
//! the paper's reference trend.  The generator is pure — same input JSON,
//! byte-identical markdown and SVG — so CI can regenerate the committed
//! report and fail on drift.

use crate::catalogue;
use crate::model::{FigureResult, FiguresFile};
use crate::svg::{self, Series};
use crate::verdict::{assess, CheckKind, Verdict};
use std::fmt::Write as _;

/// A fully rendered reproduction report: the markdown document plus the
/// chart files it references.
#[derive(Debug, Clone)]
pub struct Reproduction {
    /// The `REPRODUCTION.md` document.
    pub markdown: String,
    /// `(file name, SVG document)` pairs, one per charted experiment.
    pub svgs: Vec<(String, String)>,
}

/// The columns of `fig` whose every cell parses as a number.
fn numeric_columns(fig: &FigureResult) -> Vec<usize> {
    (1..fig.header.len())
        .filter(|&c| !fig.rows.is_empty() && (0..fig.rows.len()).all(|r| fig.num(r, c).is_some()))
        .collect()
}

/// Chart `fig` as an SVG document: a line chart when the first column is a
/// numeric axis (the time-series figures), a grouped bar chart otherwise.
/// Returns `None` for results with no plottable data.
pub fn chart(fig: &FigureResult) -> Option<String> {
    if fig.rows.is_empty() {
        return None;
    }
    // Ad-hoc results outside the catalogue plot every numeric column.
    let (chart_cols, y_label) =
        catalogue::entry(&fig.id).map_or((None, "value"), |e| (e.chart_cols, e.y_label));
    let cols: Vec<usize> = match chart_cols {
        Some(cols) => cols.to_vec(),
        None => numeric_columns(fig),
    };
    let cols: Vec<usize> = cols
        .into_iter()
        .filter(|&c| (0..fig.rows.len()).all(|r| fig.num(r, c).is_some()))
        .collect();
    if cols.is_empty() {
        return None;
    }
    let x_axis_numeric = (0..fig.rows.len()).all(|r| fig.num(r, 0).is_some());
    if x_axis_numeric {
        let series: Vec<Series> = cols
            .iter()
            .map(|&c| Series {
                label: fig.header[c].clone(),
                points: (0..fig.rows.len())
                    .map(|r| (fig.num(r, 0).unwrap(), fig.num(r, c).unwrap()))
                    .collect(),
            })
            .collect();
        Some(svg::line_chart(
            &fig.title,
            &fig.header[0],
            y_label,
            &series,
        ))
    } else {
        let categories: Vec<String> = fig.rows.iter().map(|r| r[0].clone()).collect();
        let labels: Vec<String> = cols.iter().map(|&c| fig.header[c].clone()).collect();
        let values: Vec<Vec<f64>> = (0..fig.rows.len())
            .map(|r| cols.iter().map(|&c| fig.num(r, c).unwrap()).collect())
            .collect();
        Some(svg::bar_chart(
            &fig.title,
            y_label,
            &categories,
            &labels,
            &values,
        ))
    }
}

/// Escape a table cell for markdown.
fn cell(text: &str) -> String {
    text.replace('|', "\\|")
}

/// Render `fig`'s rows as a markdown table.
fn markdown_table(fig: &FigureResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {} |",
        fig.header
            .iter()
            .map(|h| cell(h))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let _ = writeln!(
        out,
        "|{}|",
        fig.header
            .iter()
            .map(|_| "---")
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in &fig.rows {
        let _ = writeln!(
            out,
            "| {} |",
            row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(" | ")
        );
    }
    out
}

/// Generate the full report from `figures`.
///
/// `svg_dir` is the directory prefix used in the markdown image links
/// (e.g. `reports/figures`), relative to wherever `REPRODUCTION.md` is
/// written.
pub fn generate(figures: &FiguresFile, svg_dir: &str) -> Reproduction {
    let mut md = String::new();
    let mut svgs = Vec::new();

    md.push_str("# ATraPos reproduction report\n\n");
    md.push_str(
        "<!-- GENERATED FILE — do not edit by hand.\n     \
         Regenerate with: cargo run --release -p atrapos-bench --bin atrapos -- report -->\n\n",
    );
    md.push_str(
        "How faithfully this repository reproduces the evaluation of *ATraPos: \
         Adaptive Transaction Processing on Hardware Islands* (Porobic, Liarou, \
         Tözün, Ailamaki — ICDE 2014), regenerated from the recorded experiment \
         results in `reports/BENCH_figures.json`.  Every number comes from the \
         deterministic virtual-time simulator (same seed ⇒ same result, on any \
         host); each section states the paper's reference trend and whether the \
         recorded data shows it.  Absolute throughput is *not* compared against \
         the paper — the simulator is calibrated to public latency figures, not \
         to the 2013 test machine — the verdicts check the trends the paper's \
         conclusions rest on.\n\n",
    );
    md.push_str(
        "Regenerate the underlying data with `atrapos figures`, then rebuild \
         this report with `atrapos report` (see `ARCHITECTURE.md` for the data \
         flow).\n\n",
    );

    // Summary table.
    md.push_str("## Summary\n\n");
    md.push_str("| experiment | result | verdict |\n|---|---|---|\n");
    let mut passes = 0usize;
    let mut checks = 0usize;
    let mut slo_passes = 0usize;
    let mut slo_checks = 0usize;
    for fig in &figures.figures {
        let verdict_cell = match assess(fig) {
            Some(a) => {
                match a.kind {
                    CheckKind::ReferenceTrend => {
                        checks += 1;
                        passes += usize::from(a.verdict == Verdict::Pass);
                    }
                    CheckKind::Slo => {
                        slo_checks += 1;
                        slo_passes += usize::from(a.verdict == Verdict::Pass);
                    }
                }
                a.verdict.badge().to_string()
            }
            None => "—".to_string(),
        };
        let _ = writeln!(
            md,
            "| [{id}](#{id}) | {title} | {verdict_cell} |",
            id = fig.id,
            title = cell(&fig.title),
        );
    }
    md.push('\n');
    let _ = write!(md, "**{passes} of {checks} reference trends reproduced.**");
    if slo_checks > 0 {
        let _ = write!(md, " **{slo_passes} of {slo_checks} open-loop SLOs met.**");
    }
    md.push_str("\n\n");

    // One section per experiment.
    for fig in &figures.figures {
        let _ = writeln!(
            md,
            "## <a id=\"{id}\"></a>{id} — {title}\n",
            id = fig.id,
            title = fig.title
        );
        if let Some(meta) = &fig.meta {
            let _ = writeln!(md, "*Simulated on {}.*\n", meta.summary());
        }
        md.push_str(&markdown_table(fig));
        md.push('\n');
        if let Some(svg) = chart(fig) {
            let name = format!("{}.svg", fig.id);
            let _ = writeln!(md, "![{id}]({svg_dir}/{name})\n", id = fig.id);
            svgs.push((name, svg));
        }
        for note in &fig.notes {
            let _ = writeln!(md, "> {note}\n");
        }
        match assess(fig) {
            Some(a) => {
                let source = match a.kind {
                    CheckKind::ReferenceTrend => "paper",
                    CheckKind::Slo => "target",
                };
                let _ = writeln!(
                    md,
                    "**{}: {}** — {source}: {}. This run: {}.\n",
                    a.kind.label(),
                    a.verdict.badge(),
                    a.expected,
                    a.observed
                );
            }
            None => {
                md.push_str(
                    "*No reference check — qualitative experiment; see the notes above.*\n\n",
                );
            }
        }
    }

    Reproduction { markdown: md, svgs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figures() -> FiguresFile {
        let mut file = FiguresFile::new();
        let mut f08 = FigureResult::new(
            "fig08",
            "Standard benchmarks",
            vec!["workload", "PLP (KTPS)", "ATraPos (KTPS)", "ATraPos / PLP"],
        );
        f08.push_row(vec![
            "TATP-Mix".into(),
            "10.0".into(),
            "44.0".into(),
            "4.4".into(),
        ]);
        f08.note("paper reports 4.4x");
        file.upsert(f08);
        let mut f10 = FigureResult::new(
            "fig10",
            "Adapting to workload changes",
            vec!["time (s)", "Static", "ATraPos"],
        );
        for (t, s, a) in [(0.05, 10.0, 10.0), (0.10, 6.0, 9.0), (0.15, 6.0, 12.0)] {
            f10.push_row(vec![format!("{t:.2}"), format!("{s}"), format!("{a}")]);
        }
        file.upsert(f10);
        file
    }

    #[test]
    fn generate_is_deterministic() {
        let figures = sample_figures();
        let a = generate(&figures, "reports/figures");
        let b = generate(&figures, "reports/figures");
        assert_eq!(a.markdown, b.markdown);
        assert_eq!(a.svgs, b.svgs);
    }

    #[test]
    fn report_contains_sections_tables_charts_and_verdicts() {
        let r = generate(&sample_figures(), "reports/figures");
        assert!(r.markdown.contains("## Summary"));
        assert!(r.markdown.contains("fig08 — Standard benchmarks"));
        assert!(r.markdown.contains("| TATP-Mix | 10.0 | 44.0 | 4.4 |"));
        assert!(r.markdown.contains("![fig08](reports/figures/fig08.svg)"));
        assert!(r.markdown.contains("**Verdict: ✅ pass**"));
        assert!(r.markdown.contains("2 of 2 reference trends reproduced"));
        let names: Vec<&str> = r.svgs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["fig08.svg", "fig10.svg"]);
        // fig08 has a text first column → bars; fig10 has a numeric time
        // axis → lines.
        assert!(r.svgs[0].1.contains("<rect"));
        assert!(r.svgs[1].1.contains("<polyline"));
    }

    #[test]
    fn slo_experiments_render_their_own_verdict_kind_and_summary_count() {
        let mut file = sample_figures();
        let mut ov = FigureResult::new(
            "overload02",
            "Burst recovery under open-loop load",
            vec![
                "time (s)",
                "Centralized",
                "Shared-nothing",
                "PLP",
                "ATraPos",
            ],
        );
        for (t, v) in [(0.1, 35.0), (0.2, 12.0), (0.3, 34.0)] {
            ov.push_row(vec![
                format!("{t:.1}"),
                format!("{}", v * 0.2),
                format!("{}", v * 0.6),
                format!("{}", v * 0.8),
                format!("{v}"),
            ]);
        }
        file.upsert(ov);
        let r = generate(&file, "reports/figures");
        assert!(r.markdown.contains("**SLO verdict: ✅ pass** — target:"));
        assert!(r
            .markdown
            .contains("**2 of 2 reference trends reproduced.** **1 of 1 open-loop SLOs met.**"));
    }

    #[test]
    fn experiments_without_checks_render_without_a_verdict() {
        let mut file = FiguresFile::new();
        let mut f = FigureResult::new("fig07", "NewOrder flow graph", vec!["node", "socket"]);
        f.push_row(vec!["root".into(), "0".into()]);
        file.upsert(f);
        let r = generate(&file, "x");
        assert!(r.markdown.contains("No reference check"));
        assert!(!r.markdown.contains("**Verdict"));
    }
}
