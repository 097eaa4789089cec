//! The rule set: names, summaries, and scopes.
//!
//! The rules guard explicitly annotated regions: `hot-path-alloc` and
//! `hot-path-libm` fire only inside `// lint: hot-path` blocks, pinning the
//! per-transaction paths allocation-free and free of out-of-line float
//! rounding calls so they cannot regress.  Determinism (no std hash
//! collections, no wall clock in the simulation crates) is clippy's job:
//! `clippy.toml`'s `disallowed-types` and `disallowed-methods`, which CI
//! runs with `-D warnings`.
//!
//! Every rule can be waived per line with
//! `// lint: allow(<rule>) — <reason>`; the reason is mandatory and a
//! malformed waiver is itself a finding (rule [`LINT_DIRECTIVE`]).

/// Allocation-shaped call inside a `// lint: hot-path` region.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Float rounding method (`.ceil()`, `.round()`, `.floor()`, `.trunc()`)
/// inside a `// lint: hot-path` region: on baseline x86-64 each is an
/// out-of-line libm call.
pub const HOT_PATH_LIBM: &str = "hot-path-libm";
/// Malformed `// lint:` directive (unknown rule, missing waiver reason,
/// marker with no block).
pub const LINT_DIRECTIVE: &str = "lint-directive";

/// One lint rule, as shown by `atrapos lint --list-rules`.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The rule's name (the `--only` / `allow(..)` key).
    pub name: &'static str,
    /// One-line description of what the rule flags.
    pub summary: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
}

/// All rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: HOT_PATH_ALLOC,
        summary: "allocation-shaped call (Vec::new, vec!, Box::new, String::from, format!, \
                  .clone(), .to_vec(), .to_string(), .to_owned(), with_capacity, .collect()) \
                  inside a `// lint: hot-path` region",
        scope: "blocks annotated `// lint: hot-path`, any crate",
    },
    Rule {
        name: HOT_PATH_LIBM,
        summary: "float rounding call (.ceil(), .round(), .floor(), .trunc()) inside a \
                  `// lint: hot-path` region: an out-of-line libm call on baseline x86-64; \
                  use `atrapos_numa::{ceil_u64, round_u64}`",
        scope: "blocks annotated `// lint: hot-path`, any crate",
    },
    Rule {
        name: LINT_DIRECTIVE,
        summary: "malformed `// lint:` directive: unknown directive or rule name, waiver \
                  without a reason, or a hot-path marker with no following block",
        scope: "everywhere",
    },
];

/// Look a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_resolves_by_name() {
        for r in RULES {
            assert_eq!(rule_by_name(r.name).unwrap().name, r.name);
        }
        assert!(rule_by_name("no-such-rule").is_none());
    }
}
