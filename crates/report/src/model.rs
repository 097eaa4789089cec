//! The serializable experiment-result model.
//!
//! A [`FigureResult`] is the outcome of regenerating one table or figure of
//! the paper's evaluation: an id, a caption, a header, data rows, free-form
//! notes, and the [`RunMeta`] describing the simulation that produced it.
//! Everything is plain data — the harness emits it, `reports/BENCH_figures.json`
//! stores it, and the report generator consumes it without re-running
//! anything.

use crate::catalogue::{self, CATALOGUE};
use atrapos_engine::RunMeta;
use serde::{Deserialize, Serialize};

/// The outcome of regenerating one table or figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureResult {
    /// Experiment identifier ("fig02", "tab01", "abl03", ...).
    pub id: String,
    /// Title matching the paper's caption.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (scaling factors, expected shape).
    pub notes: Vec<String>,
    /// Provenance of the run that produced the rows, when recorded.
    pub meta: Option<RunMeta>,
}

impl FigureResult {
    /// Create a result with the given id/title/header.
    pub fn new(id: impl Into<String>, title: impl Into<String>, header: Vec<&str>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            header: header.into_iter().map(String::from).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            meta: None,
        }
    }

    /// Append a data row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }

    /// Append a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Record the provenance of the run.
    pub fn set_meta(&mut self, meta: RunMeta) {
        self.meta = Some(meta);
    }

    /// The numeric value of cell (`row`, `col`), if it parses as a float.
    pub fn num(&self, row: usize, col: usize) -> Option<f64> {
        self.rows.get(row)?.get(col)?.trim().parse::<f64>().ok()
    }

    /// Every value of `col` that parses as a float, in row order.
    pub fn column(&self, col: usize) -> Vec<f64> {
        (0..self.rows.len())
            .filter_map(|r| self.num(r, col))
            .collect()
    }

    /// Render as an aligned plain-text table (the CLI's terminal output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Sort key of an experiment id: its catalogue position; unknown ids sort
/// after every catalogued one, alphabetically among themselves.
fn catalogue_rank(id: &str) -> (usize, &str) {
    match catalogue::position(id) {
        Some(i) => (i, ""),
        None => (CATALOGUE.len(), id),
    }
}

/// The schema tag of `BENCH_figures.json`.
pub const FIGURES_SCHEMA: &str = "atrapos-figures-v1";

/// The accumulated figure-result store (`reports/BENCH_figures.json`).
///
/// `atrapos figures` upserts the results of whatever experiments it ran;
/// entries keep the catalogue order, so partial regeneration never
/// reshuffles the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiguresFile {
    /// Schema tag ([`FIGURES_SCHEMA`]).
    pub schema: String,
    /// One entry per experiment, in catalogue order.
    pub figures: Vec<FigureResult>,
}

impl FiguresFile {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            schema: FIGURES_SCHEMA.to_string(),
            figures: Vec::new(),
        }
    }

    /// Parse a store from JSON text, rejecting unknown schema tags.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let file: Self = serde::json::from_str(text).map_err(|e| e.to_string())?;
        if file.schema != FIGURES_SCHEMA {
            return Err(format!(
                "unsupported figures schema '{}' (expected '{FIGURES_SCHEMA}')",
                file.schema
            ));
        }
        Ok(file)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Insert or replace the entry with `result`'s id, keeping catalogue
    /// order.
    pub fn upsert(&mut self, result: FigureResult) {
        self.figures.retain(|f| f.id != result.id);
        self.figures.push(result);
        self.figures
            .sort_by(|a, b| catalogue_rank(&a.id).cmp(&catalogue_rank(&b.id)));
    }

    /// The entry with the given id, if present.
    pub fn get(&self, id: &str) -> Option<&FigureResult> {
        self.figures.iter().find(|f| f.id == id)
    }
}

impl Default for FiguresFile {
    fn default() -> Self {
        Self::new()
    }
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns_and_includes_notes() {
        let mut f = FigureResult::new("figXX", "test figure", vec!["a", "bbbb"]);
        f.push_row(vec!["1".into(), "2".into()]);
        f.push_row(vec!["100".into(), "2000".into()]);
        f.note("scaled");
        let s = f.render();
        assert!(s.contains("figXX"));
        assert!(s.contains("note: scaled"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn fmt_uses_sensible_precision() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(1.2345), "1.234");
    }

    #[test]
    fn numeric_cell_access_parses_floats_only() {
        let mut f = FigureResult::new("figXX", "t", vec!["label", "v"]);
        f.push_row(vec!["uniform".into(), "1.25".into()]);
        f.push_row(vec!["skewed".into(), "3".into()]);
        assert_eq!(f.num(0, 1), Some(1.25));
        assert_eq!(f.num(0, 0), None);
        assert_eq!(f.column(1), vec![1.25, 3.0]);
    }

    #[test]
    fn upsert_replaces_in_canonical_order() {
        let mut file = FiguresFile::new();
        // `spec01` is catalogued (last), so ad-hoc ids sort after it.
        for id in ["sweep-micro-1s", "spec01", "abl01", "fig08", "tab02"] {
            file.upsert(FigureResult::new(id, "t", vec!["x"]));
        }
        let ids: Vec<&str> = file.figures.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(
            ids,
            vec!["fig08", "tab02", "abl01", "spec01", "sweep-micro-1s"]
        );
        let mut replacement = FigureResult::new("fig08", "updated", vec!["x"]);
        replacement.push_row(vec!["1".into()]);
        file.upsert(replacement);
        assert_eq!(file.figures.len(), 5);
        assert_eq!(file.get("fig08").unwrap().title, "updated");
    }

    #[test]
    fn figures_file_round_trips_and_rejects_bad_schema() {
        let mut file = FiguresFile::new();
        let mut f = FigureResult::new("fig10", "adapting", vec!["t", "s"]);
        f.push_row(vec!["0.05".into(), "12.3".into()]);
        f.note("n");
        file.upsert(f);
        let json = file.to_json();
        assert_eq!(FiguresFile::from_json(&json).unwrap(), file);
        let bad = json.replace(FIGURES_SCHEMA, "other-schema");
        assert!(FiguresFile::from_json(&bad).is_err());
    }
}
