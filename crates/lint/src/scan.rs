//! The per-file scanner: directives, regions, token rules, waivers.
//!
//! Scanning is pure (`&str` in, findings out), so fixture tests can feed
//! synthetic files under any workspace-relative path and assert exact
//! `file:line: rule` output without touching the filesystem.

use crate::lexer::{is_ident_byte, lex, Lexed};
use crate::rules::{rule_by_name, HOT_PATH_ALLOC, HOT_PATH_LIBM, LINT_DIRECTIVE};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (see [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} — {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed, well-formed waiver.
struct Waiver {
    rule: &'static str,
    line: usize,
    /// Standalone waivers (comment-only line) cover the *next* line;
    /// trailing waivers cover their own line.
    standalone: bool,
}

impl Waiver {
    fn covers(&self, line: usize) -> bool {
        line == self.line || (self.standalone && line == self.line + 1)
    }
}

/// Scan one source file; `rel_path` names it in the findings.
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let mut findings = Vec::new();
    let mut waivers = Vec::new();
    let mut hot_regions: Vec<(usize, usize)> = Vec::new();

    parse_directives(
        rel_path,
        &lexed,
        &mut findings,
        &mut waivers,
        &mut hot_regions,
    );
    let in_hot = |pos: usize| hot_regions.iter().any(|&(lo, hi)| pos > lo && pos < hi);

    let code = lexed.code.as_bytes();
    let mut i = 0usize;
    while i < code.len() {
        if !is_ident_byte(code[i]) || (i > 0 && is_ident_byte(code[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        while i < code.len() && is_ident_byte(code[i]) {
            i += 1;
        }
        if !in_hot(start) {
            continue;
        }
        let ident = &lexed.code[start..i];
        if let Some(what) = hot_alloc_finding(&lexed.code, start, i, ident) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lexed.line_of(start),
                rule: HOT_PATH_ALLOC,
                message: format!("`{what}` allocates inside a `// lint: hot-path` region"),
            });
        }
        if matches!(ident, "ceil" | "round" | "floor" | "trunc")
            && prev_nonspace(&lexed.code, start) == Some(b'.')
            && matches!(next_nonspace(&lexed.code, i), Some((_, b'(')))
        {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lexed.line_of(start),
                rule: HOT_PATH_LIBM,
                message: format!(
                    "`.{ident}()` calls libm inside a `// lint: hot-path` region; \
                     use `atrapos_numa::{{ceil_u64, round_u64}}`"
                ),
            });
        }
    }

    findings.retain(|f| !waivers.iter().any(|w| w.rule == f.rule && w.covers(f.line)));
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Parse every `// lint:` directive: register waivers and hot-path
/// regions, and report malformed directives.
fn parse_directives(
    rel_path: &str,
    lexed: &Lexed,
    findings: &mut Vec<Finding>,
    waivers: &mut Vec<Waiver>,
    hot_regions: &mut Vec<(usize, usize)>,
) {
    for c in &lexed.comments {
        // Doc comments (`///`, `//!`) are prose — a directive spelled
        // there is documentation, not configuration.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(directive) = c.text.trim().strip_prefix("lint:") else {
            continue;
        };
        let directive = directive.trim();
        let mut bad = |message: String| {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: c.line,
                rule: LINT_DIRECTIVE,
                message,
            });
        };
        if directive == "hot-path" {
            match brace_block_after(&lexed.code, c.start) {
                Some(region) => hot_regions.push(region),
                None => bad(
                    "`lint: hot-path` marker with no following `{ .. }` block to cover".to_string(),
                ),
            }
            continue;
        }
        if let Some(rest) = directive.strip_prefix("allow(") {
            let Some(close) = rest.find(')') else {
                bad("unclosed `lint: allow(` directive".to_string());
                continue;
            };
            let rule_name = rest[..close].trim();
            let Some(rule) = rule_by_name(rule_name) else {
                bad(format!(
                    "waiver names unknown rule `{rule_name}` (see `atrapos lint --list-rules`)"
                ));
                continue;
            };
            // The reason is mandatory: strip separator punctuation and
            // demand something is left.
            let reason = rest[close + 1..]
                .trim_start_matches(|ch: char| {
                    ch.is_whitespace() || matches!(ch, '—' | '–' | '-' | ':')
                })
                .trim();
            if reason.is_empty() {
                bad(format!(
                    "waiver for `{rule_name}` has no reason; write \
                     `// lint: allow({rule_name}) — <why this is sound>`"
                ));
                continue;
            }
            waivers.push(Waiver {
                rule: rule.name,
                line: c.line,
                standalone: lexed.code_line(c.line).trim().is_empty(),
            });
            continue;
        }
        bad(format!(
            "unknown lint directive `{directive}`; known: `hot-path`, `allow(<rule>) — <reason>`"
        ));
    }
}

/// The `{ .. }` block following byte `from` in blanked code, as
/// `(open, close)` offsets, or `None` if no balanced block follows.
fn brace_block_after(code: &str, from: usize) -> Option<(usize, usize)> {
    let b = code.as_bytes();
    let open = (from..b.len()).find(|&k| b[k] == b'{')?;
    let mut depth = 0usize;
    for (k, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, k));
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte ranges covered by `#[cfg(test)]` items (the attribute plus the
/// following braced block, or up to the `;` for brace-less items).
fn cfg_test_ranges(code: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut from = 0usize;
    while let Some(at) = code[from..].find("#[cfg(test)]") {
        let attr_start = from + at;
        let after = attr_start + "#[cfg(test)]".len();
        let b = code.as_bytes();
        let stop = (after..b.len()).find(|&k| b[k] == b'{' || b[k] == b';');
        match stop {
            Some(k) if b[k] == b'{' => match brace_block_after(code, k) {
                Some((_, close)) => ranges.push((attr_start, close + 1)),
                None => ranges.push((attr_start, code.len())),
            },
            Some(k) => ranges.push((attr_start, k + 1)),
            None => ranges.push((attr_start, code.len())),
        }
        from = after;
    }
    ranges
}

/// Lines of `src` that no `#[cfg(test)]` item touches — the file's
/// shipped code, comments and blank lines included.
pub fn non_test_lines(src: &str) -> usize {
    let lexed = lex(src);
    let test_lines: Vec<(usize, usize)> = cfg_test_ranges(&lexed.code)
        .into_iter()
        .map(|(lo, hi)| (lexed.line_of(lo), lexed.line_of(hi - 1)))
        .collect();
    (1..=src.lines().count())
        .filter(|line| {
            !test_lines
                .iter()
                .any(|&(first, last)| (first..=last).contains(line))
        })
        .count()
}

/// The next non-whitespace byte at or after `i`.
fn next_nonspace(code: &str, i: usize) -> Option<(usize, u8)> {
    code.as_bytes()[i..]
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .map(|off| (i + off, code.as_bytes()[i + off]))
}

/// The previous non-whitespace byte before `i`.
fn prev_nonspace(code: &str, i: usize) -> Option<u8> {
    code.as_bytes()[..i]
        .iter()
        .rev()
        .find(|b| !b.is_ascii_whitespace())
        .copied()
}

/// The identifier starting at the next non-whitespace position after a
/// `::`, if the bytes at `i` are `::` followed by an identifier.
fn path_segment_after(code: &str, i: usize) -> Option<&str> {
    let (p1, b1) = next_nonspace(code, i)?;
    if b1 != b':' || code.as_bytes().get(p1 + 1) != Some(&b':') {
        return None;
    }
    let (start, b2) = next_nonspace(code, p1 + 2)?;
    if !is_ident_byte(b2) {
        return None;
    }
    let bytes = code.as_bytes();
    let mut end = start;
    while end < bytes.len() && is_ident_byte(bytes[end]) {
        end += 1;
    }
    Some(&code[start..end])
}

/// Like [`path_segment_after`], but skips one interposed turbofish:
/// `::seg` and `::<T, U>::seg` both yield `seg`.
fn ctor_segment_after(code: &str, i: usize) -> Option<&str> {
    let (p1, b1) = next_nonspace(code, i)?;
    if b1 != b':' || code.as_bytes().get(p1 + 1) != Some(&b':') {
        return None;
    }
    let (p2, b2) = next_nonspace(code, p1 + 2)?;
    if b2 != b'<' {
        return path_segment_after(code, i);
    }
    let after_generics = generic_list_end(code, p2)?;
    path_segment_after(code, after_generics)
}

/// Position just past the `>` closing the `<..>` list opening at `lt`.
fn generic_list_end(code: &str, lt: usize) -> Option<usize> {
    let b = code.as_bytes();
    let mut depth = 1usize;
    for (k, &c) in b.iter().enumerate().skip(lt + 1) {
        match c {
            b'<' => depth += 1,
            b'>' if b[k - 1] == b'-' || b[k - 1] == b'=' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Is the identifier `ident` spanning `start..end` an allocation-shaped
/// call?  Returns the display form to report.
fn hot_alloc_finding(code: &str, start: usize, end: usize, ident: &str) -> Option<String> {
    match ident {
        // Method calls: require a receiver dot and a call (or turbofish).
        "clone" | "to_vec" | "to_string" | "to_owned" | "collect" => {
            let dotted = prev_nonspace(code, start) == Some(b'.');
            let called = matches!(next_nonspace(code, end), Some((_, b'(')))
                || path_segment_after(code, end).is_some()
                || matches!(next_nonspace(code, end), Some((p, b':')) if code.as_bytes().get(p + 1) == Some(&b':'));
            (dotted && called).then(|| format!(".{ident}()"))
        }
        // Constructor paths, with or without a turbofish
        // (`Vec::new`, `Vec::<u8>::new`).
        "Vec" | "Box" | "String" => match ctor_segment_after(code, end) {
            Some(seg) if seg == "new" || seg == "from" || seg == "with_capacity" => {
                Some(format!("{ident}::{seg}"))
            }
            _ => None,
        },
        // Allocating macros.
        "vec" | "format" => {
            matches!(next_nonspace(code, end), Some((_, b'!'))).then(|| format!("{ident}!"))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brace_blocks_and_test_ranges() {
        let code = "fn a() { { } }\n#[cfg(test)]\nmod tests { fn x() {} }\nfn b() {}";
        let (open, close) = brace_block_after(code, 0).unwrap();
        assert_eq!(&code[open..=close], "{ { } }");
        let ranges = cfg_test_ranges(code);
        assert_eq!(ranges.len(), 1);
        assert!(code[ranges[0].0..ranges[0].1].contains("mod tests"));
        assert!(!code[ranges[0].0..ranges[0].1].contains("fn b"));
    }

    #[test]
    fn non_test_lines_skip_every_cfg_test_item() {
        // A test-only static in the middle and a test module at the end:
        // the old "lines above the first #[cfg(test)]" rule would stop at
        // line 1.
        let src = "fn a() {}\n\
                   #[cfg(test)]\n\
                   static PROBE: u8 = 0;\n\
                   // \"#[cfg(test)]\" in a comment or string is not an item\n\
                   fn b() {\n\
                   }\n\
                   \n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn x() {}\n\
                   }\n";
        assert_eq!(src.lines().count(), 11);
        assert_eq!(non_test_lines(src), 5);
        assert_eq!(non_test_lines(""), 0);
        assert_eq!(non_test_lines("fn only() {}"), 1);
    }
}
