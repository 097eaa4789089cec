//! Fixture tests: known-bad snippets must flag the right rule at the
//! right line, waivers must suppress (with a mandatory reason), and the
//! scanner must see through comments and strings.

use atrapos_lint::{non_test_lines, scan_source};

const ENGINE: &str = "crates/engine/src/fixture.rs";
const HARNESS: &str = "crates/bench/src/fixture.rs";

/// `(line, rule)` pairs of every finding.
fn hits(path: &str, src: &str) -> Vec<(usize, String)> {
    scan_source(path, src)
        .into_iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect()
}

#[test]
fn determinism_is_left_to_clippy() {
    // clippy.toml disallows these in the simulation crates; the lint
    // neither flags them nor accepts a waiver naming a rule for them.
    let src = "fn f() {\n\
               \x20   let m = std::collections::HashMap::<u8, u8>::new();\n\
               \x20   let t = std::time::Instant::now();\n\
               \x20   let r = rand::thread_rng();\n\
               }\n";
    assert_eq!(hits(ENGINE, src), vec![]);
    for rule in ["std-hash", "wall-clock", "unseeded-rng"] {
        let waiver = format!("fn f() {{}} // lint: allow({rule}) — a reason\n");
        assert_eq!(hits(ENGINE, &waiver), vec![(1, "lint-directive".into())]);
    }
}

#[test]
fn cfg_test_blocks_are_skipped() {
    // ... by the line count: the test module's four lines are not shipped
    // code.
    let src = "fn prod() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   fn helper() { let m = HashMap::new(); }\n\
               }\n\
               fn after() { let t = Instant::now(); }\n";
    assert_eq!(non_test_lines(src), 2);
}

#[test]
fn comments_and_strings_never_flag() {
    let src = "// lint: hot-path\n\
               fn f() {\n\
               \x20   // Vec::new() format!(\"x\") v.clone()\n\
               \x20   let s = \"Vec::new() Box::new(1)\";\n\
               \x20   /* String::from(\"y\") */\n\
               \x20   let _ = s;\n\
               }\n";
    assert_eq!(hits(ENGINE, src), vec![]);
}

#[test]
fn trailing_waiver_suppresses_its_line_only() {
    let src = "// lint: hot-path\n\
               fn f() {\n\
               \x20   let a = Vec::new(); // lint: allow(hot-path-alloc) — empty, never grows\n\
               \x20   let b = Vec::new();\n\
               }\n";
    let got = hits(ENGINE, src);
    assert_eq!(got, vec![(4, "hot-path-alloc".into())], "{got:?}");
}

#[test]
fn standalone_waiver_covers_the_next_line() {
    let src = "// lint: hot-path\n\
               fn f() {\n\
               \x20   // lint: allow(hot-path-alloc) — slow path, taken once per run\n\
               \x20   let a = Vec::new();\n\
               \x20   let b = Vec::new();\n\
               }\n";
    let got = hits(ENGINE, src);
    assert_eq!(got, vec![(5, "hot-path-alloc".into())], "{got:?}");
}

#[test]
fn waiver_reason_is_mandatory() {
    for waiver in [
        "// lint: allow(hot-path-alloc)",
        "// lint: allow(hot-path-alloc) —",
        "// lint: allow(hot-path-alloc) -   ",
    ] {
        let bad = format!("// lint: hot-path\nfn f() {{ let a = Vec::new(); }} {waiver}\n");
        let got = hits(ENGINE, &bad);
        assert!(
            got.contains(&(2, "lint-directive".into())),
            "missing-reason waiver must flag: {bad:?} -> {got:?}"
        );
        // And the underlying finding is NOT suppressed.
        assert!(
            got.contains(&(2, "hot-path-alloc".into())),
            "reasonless waiver must not suppress: {bad:?} -> {got:?}"
        );
    }
}

#[test]
fn waiver_for_unknown_rule_is_rejected() {
    let src = "fn f() {} // lint: allow(no-such-rule) — because\n";
    let got = hits(ENGINE, src);
    assert_eq!(got, vec![(1, "lint-directive".into())], "{got:?}");
}

#[test]
fn unknown_directives_are_rejected_but_doc_comment_prose_is_not() {
    let got = hits(ENGINE, "fn f() {} // lint: frobnicate\n");
    assert_eq!(got, vec![(1, "lint-directive".into())], "{got:?}");
    // Doc comments are prose, not configuration.
    assert_eq!(hits(ENGINE, "/// lint: frobnicate\nfn f() {}\n"), vec![]);
    assert_eq!(hits(ENGINE, "//! lint: hot-path\nfn f() {}\n"), vec![]);
}

#[test]
fn hot_path_regions_flag_allocation_shapes() {
    let src = "// lint: hot-path\n\
               fn serve(x: &[u8]) -> usize {\n\
               \x20   let v = Vec::new();\n\
               \x20   let w = x.to_vec();\n\
               \x20   let s = format!(\"x\");\n\
               \x20   let b = Box::new(1);\n\
               \x20   let t = String::from(\"y\");\n\
               \x20   let c = w.clone();\n\
               \x20   v.len() + s.len() + t.len() + c.len() + *b\n\
               }\n\
               fn outside() { let v2 = vec![1]; let _ = v2; }\n";
    let got = hits(HARNESS, src);
    let flagged: Vec<usize> = got
        .iter()
        .filter(|(_, r)| r == "hot-path-alloc")
        .map(|&(l, _)| l)
        .collect();
    assert_eq!(flagged, vec![3, 4, 5, 6, 7, 8], "{got:?}");
}

#[test]
fn turbofish_constructors_flag_in_hot_paths() {
    let src = "// lint: hot-path\n\
               fn f() {\n\
               \x20   let v = Vec::<u8>::new();\n\
               \x20   let s = String::with_capacity(8);\n\
               \x20   v.len() + s.len();\n\
               }\n";
    let got = hits(HARNESS, src);
    assert!(got.contains(&(3, "hot-path-alloc".into())), "{got:?}");
    assert!(got.contains(&(4, "hot-path-alloc".into())), "{got:?}");
}

#[test]
fn hot_path_region_ends_at_the_matching_brace() {
    let src = "// lint: hot-path\n\
               fn hot() { let inner = |x: u32| x + 1; inner(2); }\n\
               fn cold() { let v = vec![1, 2]; let _ = v; }\n";
    assert_eq!(hits(HARNESS, src), vec![]);
}

#[test]
fn hot_path_marker_without_a_block_is_a_directive_error() {
    let src = "fn f() {}\n// lint: hot-path\n";
    let got = hits(HARNESS, src);
    assert_eq!(got, vec![(2, "lint-directive".into())], "{got:?}");
}

#[test]
fn hot_path_waiver_works_inside_a_region() {
    let src = "// lint: hot-path\n\
               fn serve(r: &R) {\n\
               \x20   // lint: allow(hot-path-alloc) — the table must own the record\n\
               \x20   insert(r.clone());\n\
               }\n";
    assert_eq!(hits(HARNESS, src), vec![]);
}

#[test]
fn method_call_shape_is_required_for_alloc_flags() {
    // `clone` as an identifier (trait bound, fn name) is not a call;
    // `.collect::<Vec<_>>()` with a turbofish still is.
    let src = "// lint: hot-path\n\
               fn generic<T: Clone>(it: I) -> Vec<u32> {\n\
               \x20   fn to_vec() {}\n\
               \x20   to_vec();\n\
               \x20   it.collect::<Vec<u32>>()\n\
               }\n";
    let got = hits(HARNESS, src);
    assert_eq!(got, vec![(5, "hot-path-alloc".into())], "{got:?}");
}

#[test]
fn findings_render_as_file_line_rule() {
    let f = &scan_source(ENGINE, "// lint: hot-path\nfn f() { let v = vec![1]; }\n")[0];
    let s = f.to_string();
    assert!(
        s.starts_with("crates/engine/src/fixture.rs:2: hot-path-alloc — "),
        "{s}"
    );
}

#[test]
fn hot_path_regions_flag_libm_rounding_calls() {
    let src = "// lint: hot-path\n\
               fn cycles(x: f64, y: f64) -> u64 {\n\
               \x20   let a = x.ceil() as u64;\n\
               \x20   let b = (x * y).round() as u64;\n\
               \x20   let c = y.floor() + y . trunc ();\n\
               \x20   let round = 2; // a name, not a call\n\
               \x20   let d = round_u64(x) + ceil_u64(y) + round;\n\
               \x20   a + b + c as u64 + d\n\
               }\n\
               fn cold(x: f64) -> f64 { x.round() }\n";
    let got = hits(ENGINE, src);
    assert_eq!(
        got,
        vec![
            (3, "hot-path-libm".into()),
            (4, "hot-path-libm".into()),
            (5, "hot-path-libm".into()),
            (5, "hot-path-libm".into()),
        ],
        "{got:?}"
    );
}

#[test]
fn hot_path_libm_waiver_needs_its_own_rule_name() {
    let src = "// lint: hot-path\n\
               fn f(x: f64) -> u64 {\n\
               \x20   // lint: allow(hot-path-libm) — once per run, not per transaction\n\
               \x20   let a = x.ceil() as u64;\n\
               \x20   let b = x.round() as u64; // lint: allow(hot-path-alloc) — wrong rule\n\
               \x20   a + b\n\
               }\n";
    let got = hits(ENGINE, src);
    assert_eq!(got, vec![(5, "hot-path-libm".into())], "{got:?}");
}
