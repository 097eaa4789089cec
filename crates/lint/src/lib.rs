//! Hot-path hygiene and line counting for the atrapos workspace.
//!
//! A dependency-free, comment- and string-literal-aware scanner (a small
//! hand-rolled lexer, no `syn`) walks every `.rs` file in the workspace.
//! It enforces the rule set in [`rules`] — no allocation and no libm
//! rounding call inside a `// lint: hot-path` block, and well-formed
//! `// lint:` directives — and
//! counts each package's lines outside `#[cfg(test)]` items.  Run it as
//! `atrapos lint`; findings print as `file:line: rule — message` and any
//! finding makes the exit nonzero.
//!
//! Determinism is not checked here: `clippy.toml` disallows the std hash
//! collections and the wall clock, compiler-backed, and CI runs clippy
//! with `-D warnings`.
//!
//! See [`rules`] for the rule list and [`scan`] for directive/waiver
//! syntax.

#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod scan;

pub use rules::{rule_by_name, Rule, RULES};
pub use scan::{non_test_lines, scan_source, Finding};

use std::path::{Path, PathBuf};

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// What one walk over the workspace found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Rule violations, sorted by file, line and rule.
    pub findings: Vec<Finding>,
    /// Lines outside `#[cfg(test)]` items per package (`crates/numa`,
    /// `shims/serde`, `benchmark`, …), counted over the files under each
    /// package's `src/` and sorted by package path.
    pub non_test_lines: Vec<(String, usize)>,
}

/// Lint every `.rs` file under `root` (the workspace root).  `only`
/// restricts reporting to the named rules (empty slice = all rules).
///
/// Files are visited in sorted path order so output is deterministic —
/// the lint holds itself to the standard it enforces.
pub fn lint_workspace(root: &Path, only: &[String]) -> Result<LintReport, String> {
    for o in only {
        if rule_by_name(o).is_none() {
            return Err(format!(
                "unknown rule `{o}` for --only; see `atrapos lint --list-rules`"
            ));
        }
    }
    let mut files = Vec::new();
    collect_rust_files(root, &mut files)?;
    files.sort();

    let mut findings = Vec::new();
    let mut per_package: Vec<(String, usize)> = Vec::new();
    for path in &files {
        let rel = rel_path(root, path);
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        findings.extend(scan_source(&rel, &src));
        if let Some((package, _)) = rel.split_once("/src/") {
            let lines = non_test_lines(&src);
            match per_package.last_mut() {
                // Sorted walk: a package's files are adjacent.
                Some((last, total)) if last == package => *total += lines,
                _ => per_package.push((package.to_string(), lines)),
            }
        }
    }
    if !only.is_empty() {
        findings.retain(|f| only.iter().any(|o| o == f.rule));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(LintReport {
        findings,
        non_test_lines: per_package,
    })
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively gather `.rs` files, skipping build output, VCS metadata,
/// and hidden directories.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("failed to read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("failed to read entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let ty = entry
            .file_type()
            .map_err(|e| format!("failed to stat {}: {e}", path.display()))?;
        if ty.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if ty.is_file() && name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
