//! Golden-snapshot tests for the report generator.
//!
//! A fixed `BENCH_figures.json`-shaped input (`tests/fixtures/`) is
//! rendered and the resulting markdown and SVG documents must match the
//! committed snapshots under `tests/goldens/` **byte for byte** — the
//! generator promises that the report is a pure, deterministic function of
//! the recorded data, so any diff here is an intentional format change.
//!
//! To regenerate the snapshots after such a change (consistent with the
//! experiment catalogue's `tests/goldens/catalogue.txt`):
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p atrapos-report --test golden_report
//! ```
//!
//! then commit the updated files together with the change that explains
//! them.

use atrapos_report::{generate, FiguresFile};
use std::path::PathBuf;

fn fixture() -> FiguresFile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/figures_small.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    FiguresFile::from_json(&text).unwrap_or_else(|e| panic!("bad fixture: {e}"))
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn update_goldens() -> bool {
    std::env::var("UPDATE_GOLDENS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn check_golden(name: &str, got: &str) {
    let path = goldens_dir().join(name);
    if update_goldens() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             run `UPDATE_GOLDENS=1 cargo test -p atrapos-report --test golden_report` to create it",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "\n{name}: generated report diverged from the committed golden snapshot.\n\
         If this format change is intentional, regenerate with\n\
         UPDATE_GOLDENS=1 cargo test -p atrapos-report --test golden_report\n"
    );
}

#[test]
fn markdown_matches_golden() {
    let rendered = generate(&fixture(), "reports/figures");
    check_golden("REPRODUCTION.md", &rendered.markdown);
}

#[test]
fn svgs_match_goldens() {
    let rendered = generate(&fixture(), "reports/figures");
    let names: Vec<&str> = rendered.svgs.iter().map(|(n, _)| n.as_str()).collect();
    // fig07 is all-text, so it gets no chart; the other three do.
    assert_eq!(names, vec!["fig08.svg", "fig11.svg", "abl01.svg"]);
    for (name, svg) in &rendered.svgs {
        check_golden(name, svg);
    }
}

#[test]
fn generation_is_deterministic_across_calls() {
    let a = generate(&fixture(), "reports/figures");
    let b = generate(&fixture(), "reports/figures");
    assert_eq!(a.markdown, b.markdown);
    assert_eq!(a.svgs, b.svgs);
}

#[test]
fn fixture_exercises_pass_warn_and_unchecked_verdicts() {
    let rendered = generate(&fixture(), "reports/figures");
    assert!(rendered.markdown.contains("✅ pass"));
    assert!(rendered.markdown.contains("⚠️ warn"));
    assert!(rendered.markdown.contains("No reference check"));
    assert!(rendered
        .markdown
        .contains("2 of 3 reference trends reproduced"));
}
