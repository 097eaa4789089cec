//! The rule set: names, summaries, and scopes.
//!
//! Rules come in two families.  **Determinism rules** guard the
//! sim-visible crates — the crates whose code runs between a seed and a
//! committed count, where any nondeterminism (hash-order iteration, wall
//! clock, ambient entropy) silently breaks the bit-identical-replay
//! contract.  **Hygiene rules** guard explicitly annotated regions:
//! `hot-path-alloc` fires only inside `// lint: hot-path` blocks, pinning
//! the allocation-free per-transaction paths so they cannot regress.
//!
//! Every rule can be waived per line with
//! `// lint: allow(<rule>) — <reason>`; the reason is mandatory and a
//! malformed waiver is itself a finding (rule [`LINT_DIRECTIVE`]).

/// Std `HashMap`/`HashSet` with the default (randomly seeded) hasher in a
/// sim-visible crate.
pub const STD_HASH: &str = "std-hash";
/// `Instant::now`/`SystemTime::now` in a sim-visible crate.
pub const WALL_CLOCK: &str = "wall-clock";
/// Entropy-seeded randomness (`thread_rng`, `from_entropy`, `OsRng`) in a
/// sim-visible crate.
pub const UNSEEDED_RNG: &str = "unseeded-rng";
/// Allocation-shaped call inside a `// lint: hot-path` region.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
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

/// The crate directories whose `src/` trees are sim-visible: code here
/// executes between the seed and the committed counts, so hash-order,
/// wall-clock, and entropy nondeterminism all corrupt reproducibility.
pub const SIM_CRATES: &[&str] = &["core", "engine", "storage", "numa", "workloads"];

/// All rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: STD_HASH,
        summary: "std HashMap/HashSet built with the default randomly seeded hasher \
                  (HashMap::new, with_capacity, or a type without a hasher parameter); \
                  use BTreeMap/BTreeSet or a deterministic-hasher build like FxBuild",
        scope: "sim-visible crate src/ trees (crates/{core,engine,storage,numa,workloads}/src)",
    },
    Rule {
        name: WALL_CLOCK,
        summary: "Instant::now or SystemTime::now — wall clock reads inside the simulation; \
                  time must come from the virtual clock, or the call belongs in the bench \
                  harness",
        scope: "sim-visible crate src/ trees",
    },
    Rule {
        name: UNSEEDED_RNG,
        summary: "thread_rng/from_entropy/OsRng — ambient-entropy randomness; all simulated \
                  randomness must flow from the seeded executor RNG",
        scope: "sim-visible crate src/ trees",
    },
    Rule {
        name: HOT_PATH_ALLOC,
        summary: "allocation-shaped call (Vec::new, vec!, Box::new, String::from, format!, \
                  .clone(), .to_vec(), .to_string(), .to_owned(), with_capacity, .collect()) \
                  inside a `// lint: hot-path` region",
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

/// Is `rel_path` (workspace-relative, `/`-separated) inside a sim-visible
/// crate's `src/` tree?  Test and bench trees of those crates are harness
/// side and deliberately out of scope.
pub fn sim_visible(rel_path: &str) -> bool {
    SIM_CRATES.iter().any(|c| {
        rel_path
            .strip_prefix("crates/")
            .and_then(|p| p.strip_prefix(c))
            .map(|p| p.starts_with("/src/"))
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_visibility_is_src_only() {
        assert!(sim_visible("crates/engine/src/executor.rs"));
        assert!(sim_visible("crates/workloads/src/tpcc.rs"));
        assert!(!sim_visible("crates/engine/tests/proptests.rs"));
        assert!(!sim_visible("crates/bench/src/harness.rs"));
        assert!(!sim_visible("crates/lint/src/scan.rs"));
        assert!(!sim_visible("shims/rand/src/lib.rs"));
        // A crate whose name merely starts with a sim crate's name.
        assert!(!sim_visible("crates/engine2/src/lib.rs"));
    }

    #[test]
    fn every_rule_resolves_by_name() {
        for r in RULES {
            assert_eq!(rule_by_name(r.name).unwrap().name, r.name);
        }
        assert!(rule_by_name("no-such-rule").is_none());
    }
}
