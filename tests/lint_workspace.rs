//! Self-test of the `atrapos lint` gate: the committed workspace must be
//! lint-clean, and a workspace with injected violations must fail with
//! findings at the exact `file:line`.

use atrapos_lint::{lint_workspace, scan_source};
use std::path::{Path, PathBuf};

/// The workspace root, resolved from the bench crate's manifest dir so the
/// test works regardless of the invocation directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn committed_workspace_is_lint_clean() {
    let findings = lint_workspace(&workspace_root(), &[])
        .expect("walk succeeds")
        .findings;
    assert!(
        findings.is_empty(),
        "committed workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn only_filter_rejects_unknown_rules() {
    let err = lint_workspace(&workspace_root(), &["no-such-rule".to_string()])
        .expect_err("unknown rule must be rejected");
    assert!(err.contains("no-such-rule"));
}

/// An allocation injected into a hot-path region of a synthetic workspace
/// is caught at the exact file and line, and every package's non-test
/// lines are summed.
#[test]
fn injected_violations_are_caught_at_exact_lines() {
    let dir = std::env::temp_dir().join(format!(
        "atrapos-lint-inject-{}-{}",
        std::process::id(),
        line!()
    ));
    let src_dir = dir.join("crates/engine/src");
    std::fs::create_dir_all(&src_dir).expect("create synthetic workspace");
    let bench_dir = dir.join("crates/bench/src");
    std::fs::create_dir_all(&bench_dir).expect("create bench dir");

    let bad = "// lint: hot-path\n\
               fn f() -> usize {\n\
               \x20   let v: Vec<u32> = Vec::new();\n\
               \x20   v.len()\n\
               }\n\
               fn cold() -> String {\n\
               \x20   format!(\"outside the region\")\n\
               }\n";
    std::fs::write(src_dir.join("scratch.rs"), bad).expect("write scratch");
    std::fs::write(bench_dir.join("scratch.rs"), bad).expect("write bench scratch");

    let report = lint_workspace(&dir, &[]).expect("walk succeeds");
    std::fs::remove_dir_all(&dir).ok();
    // Both scratch files are eight non-test lines, summed per package.
    assert_eq!(
        report.non_test_lines,
        vec![
            ("crates/bench".to_string(), 8),
            ("crates/engine".to_string(), 8)
        ]
    );
    let lines: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    for package in ["bench", "engine"] {
        let want = format!("crates/{package}/src/scratch.rs:3: hot-path-alloc");
        assert!(
            lines.iter().any(|l| l.starts_with(&want)),
            "missing {want}: {lines:?}"
        );
    }
}

/// The executor's hot-path markers genuinely cover the serving loops: a
/// simulated allocation added inside one is flagged.
#[test]
fn executor_hot_path_regions_are_live() {
    let path = workspace_root().join("crates/engine/src/executor.rs");
    let src = std::fs::read_to_string(path).expect("executor.rs readable");
    // Sanity: the committed file scans clean.
    assert!(scan_source("crates/engine/src/executor.rs", &src).is_empty());
    // Sabotage: append an allocation to the first line after the closed
    // loop's `counters.aborted += 1;` — inside the marked region.
    let sabotaged = src.replacen(
        "counters.aborted += 1;",
        "counters.aborted += 1; let _ = Vec::<u8>::new();",
        1,
    );
    assert_ne!(src, sabotaged, "sabotage anchor present");
    let findings = scan_source("crates/engine/src/executor.rs", &sabotaged);
    assert!(
        findings.iter().any(|f| f.rule == "hot-path-alloc"),
        "sabotaged executor loop must flag hot-path-alloc: {findings:?}"
    );
}

/// The point-probe path, the lock manager's `acquire` and `release_all`,
/// and `Timeline::book` are marked too: an allocation planted behind a
/// statement of each marked function is flagged.
#[test]
fn point_probe_hot_path_regions_are_live() {
    let regions = [
        // (file, a statement inside the marked function — its first occurrence)
        (
            "crates/storage/src/table.rs",
            "ctx.work(Component::XctExecution, TUPLE_WORK_INSTRUCTIONS);",
        ),
        (
            "crates/storage/src/btree.rs",
            "return leaf.keys.search(key).ok().map(|i| leaf.row(i));",
        ),
        (
            "crates/storage/src/btree.rs",
            "let mut node = &mut self.root;",
        ),
        (
            "crates/storage/src/btree.rs",
            "let head = probe.head_int();",
        ),
        (
            "crates/storage/src/btree.rs",
            "let (mut slot, mut base, mut size) = (0, 0, n);",
        ),
        (
            "crates/storage/src/mrbtree.rs",
            "let head = key.head_int();",
        ),
        (
            "crates/storage/src/lock_manager.rs",
            "let (latch, slot) = match id {",
        ),
        (
            "crates/storage/src/lock_manager.rs",
            "txn.held_locks.clear();",
        ),
        (
            "crates/numa/src/contention.rs",
            "let duration = duration.max(1);",
        ),
    ];
    for (file, anchor) in regions {
        let src = std::fs::read_to_string(workspace_root().join(file)).expect("source readable");
        assert!(scan_source(file, &src).is_empty(), "{file} scans clean");
        let sabotaged = src.replacen(anchor, &format!("{anchor} let _ = Vec::<u8>::new();"), 1);
        assert_ne!(src, sabotaged, "{file}: anchor `{anchor}` present");
        assert!(
            scan_source(file, &sabotaged)
                .iter()
                .any(|f| f.rule == "hot-path-alloc"),
            "{file}: an allocation after `{anchor}` must flag hot-path-alloc"
        );
    }
}
