//! The experiment catalogue: every experiment the repository can run, in
//! the order `BENCH_figures.json` and `REPRODUCTION.md` list them.
//!
//! One row per experiment carries everything the report needs to know
//! about an id — where it sorts, how it is charted, and which check judges
//! its recorded rows.  The harness keeps the matching id → runner table
//! (`atrapos_bench::figures::RUNNERS`); a test there holds the two equal.

use crate::model::FigureResult;
use crate::verdict::{self as v, Assessment};

/// One experiment of the catalogue.
pub struct Experiment {
    /// Experiment identifier ("fig02", "tab01", "abl03", ...).
    pub id: &'static str,
    /// Columns plotted as chart series; `None` plots every numeric column.
    pub chart_cols: Option<&'static [usize]>,
    /// Y-axis label of the chart.
    pub y_label: &'static str,
    /// The reference-trend or SLO check over the recorded rows; `None`
    /// for the qualitative experiments.
    pub assess: Option<fn(&FigureResult) -> Assessment>,
}

const fn exp(
    id: &'static str,
    chart_cols: Option<&'static [usize]>,
    y_label: &'static str,
    assess: Option<fn(&FigureResult) -> Assessment>,
) -> Experiment {
    Experiment {
        id,
        chart_cols,
        y_label,
        assess,
    }
}

/// Every experiment: the paper's figures and tables in paper order, then
/// the ablations, the YCSB pair, the open-loop overload pair, and the
/// declarative-spec experiment.
#[rustfmt::skip] // one row per experiment
pub const CATALOGUE: &[Experiment] = &[
    exp("fig01", None, "IPC", Some(v::fig01)),
    exp("fig02", None, "MTPS", Some(v::fig02)),
    exp("fig03", None, "KTPS", Some(v::fig03)),
    // The components; their sum is the table's last column.
    exp("fig04", Some(&[1, 2, 3, 4, 5]), "µs per transaction", Some(v::fig04)),
    // The per-instance columns; the total lives in the table.
    exp("tab01", Some(&[1, 2, 3, 4, 5, 6, 7, 8]), "TPS per instance", Some(v::tab01)),
    exp("fig05", None, "MTPS", Some(v::fig05)),
    exp("fig06", None, "KTPS", Some(v::fig06)),
    exp("fig07", None, "value", None),
    exp("fig08", Some(&[3]), "ATraPos / PLP throughput", Some(v::fig08)),
    exp("tab02", Some(&[1, 2]), "TPS", Some(v::tab02)),
    exp("fig09", None, "records moved", None),
    exp("fig10", None, "KTPS", Some(v::fig10)),
    exp("fig11", None, "KTPS", Some(v::fig11_12)),
    exp("fig12", None, "KTPS", Some(v::fig11_12)),
    exp("fig13", None, "KTPS", Some(v::fig13)),
    exp("abl01", Some(&[3]), "ATraPos / PLP speedup", Some(v::abl01)),
    exp("abl02", Some(&[1, 2]), "KTPS", Some(v::abl02)),
    exp("abl03", Some(&[1, 2]), "KTPS", Some(v::abl03)),
    exp("abl04", Some(&[3]), "KTPS", Some(v::abl04)),
    exp("ycsb01", None, "KTPS", Some(v::ycsb01)),
    exp("ycsb02", None, "KTPS", Some(v::ycsb02)),
    // The load sweep's chart plots the goodput group; the p99 and
    // rejection columns live in the table.
    exp("overload01", Some(&[1, 2, 3, 4]), "goodput (KTPS)", Some(v::overload01)),
    exp("overload02", None, "KTPS", Some(v::overload02)),
    exp("spec01", None, "KTPS", Some(v::spec01)),
];

/// Position of `id` in the catalogue.
pub fn position(id: &str) -> Option<usize> {
    CATALOGUE.iter().position(|e| e.id == id)
}

/// The catalogue entry of `id` (`None` for ad-hoc results such as the
/// `atrapos sweep` tables, which chart every numeric column, carry no
/// check, and sort after the catalogue).
pub fn entry(id: &str) -> Option<&'static Experiment> {
    position(id).map(|i| &CATALOGUE[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_cover_the_24_experiments() {
        let mut ids: Vec<&str> = CATALOGUE.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 24);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 24, "duplicate catalogue id");
    }

    #[test]
    fn only_the_two_qualitative_figures_lack_a_check() {
        let unchecked: Vec<&str> = CATALOGUE
            .iter()
            .filter(|e| e.assess.is_none())
            .map(|e| e.id)
            .collect();
        assert_eq!(unchecked, ["fig07", "fig09"]);
    }
}
