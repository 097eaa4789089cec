//! The unified `atrapos` command line: one entry point that runs the
//! paper's experiments, benchmarks the simulator, replays experiment
//! files, and renders the reproduction report.
//!
//! ```text
//! atrapos figures              # run the whole catalogue, update BENCH_figures.json
//! atrapos figures fig10 abl04  # run specific experiments
//! atrapos sweep --workload tatp --sockets 1,8
//! atrapos replay experiment.json
//! atrapos report               # BENCH_figures.json -> REPRODUCTION.md + SVG charts
//! atrapos report --check      # fail (exit 1) if the committed report drifted
//! ```
//!
//! (Run via `cargo run --release -p atrapos-bench --bin atrapos -- <cmd>`.)
//!
//! `ATRAPOS_PAPER=1` switches `figures`/`sweep` to the paper-sized
//! datasets; `ATRAPOS_REPORT_DIR` moves the JSON/SVG output directory;
//! `ATRAPOS_THREADS` pins the experiment lab's thread pool; a value that is
//! not a positive integer is an error before any command runs.

use atrapos_bench::cli::{self, FlagSpec};
use atrapos_bench::figures::{run_by_id, RUNNERS};
use atrapos_bench::report::{
    figures_path, load_figures, report_dir, save_figures, workspace_root, write_scenario_json,
};
use atrapos_bench::{replay, shootout, workload_cmd, Scale};
use atrapos_engine::threads_from_env;
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "\
atrapos — the ATraPos reproduction toolbox

USAGE: atrapos <command> [options]

COMMANDS:
  figures [ids..]           Run experiments, print their tables, and record
                            the results in reports/BENCH_figures.json.
                            Without ids: the whole catalogue (fig01-fig13,
                            tab01-tab02, abl01-abl04, ycsb01-ycsb02,
                            overload01-overload02, spec01).  Host seconds
                            per experiment and in total go to stderr.
  workload check <spec.json>...
                            Validate declarative WorkloadSpec files: parse,
                            run the typed structural checks, and print a
                            summary per spec; exit 1 if any is rejected.
  sweep [--workload micro|tatp|tpcc|ycsb|spec:<file.json>] [--sockets 1,8]
        [--arrival TPS] [--bound N]
                            Compare the five system designs on a workload
                            (spec:<file.json> compiles a declarative
                            WorkloadSpec file).  --arrival switches to
                            open-loop serving at the given Poisson rate
                            (goodput/p99/rejection table); --bound sets
                            the admission-queue depth
                            (default 128).
  replay [file.json] [--emit-sample]
                            Run a complete experiment description from JSON
                            (default: examples/scenarios/adaptive_tatp.json).
  report [--check]          Render REPRODUCTION.md and reports/figures/*.svg
                            from reports/BENCH_figures.json; --check verifies
                            the committed copies instead of writing.
  lint [root] [--only rule] [--list-rules]
                            Static analysis: scan every .rs file for
                            allocations inside `// lint: hot-path` blocks
                            and malformed `// lint:` directives, and count
                            each package's non-test lines (determinism is
                            clippy.toml's job).
                            Findings print as `file:line: rule — message`
                            and exit nonzero. Default root: the workspace
                            this binary was built from. --only <rule>
                            restricts to one rule (repeatable);
                            --list-rules prints the rule table.
  help                      Show this message.

ENVIRONMENT:
  ATRAPOS_PAPER=1       paper-sized datasets (slow)
  ATRAPOS_REPORT_DIR    output directory for JSON/SVG reports (default: reports/)
  ATRAPOS_THREADS       experiment-lab thread-pool size (a positive integer)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = threads_from_env() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let result = match command {
        "figures" => cmd_figures(rest),
        "workload" => workload_cmd::cmd(rest),
        "sweep" => cmd_sweep(rest),
        "replay" => cmd_replay(rest),
        "report" => cmd_report(rest),
        "lint" => cmd_lint(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// `atrapos figures [ids..]`
fn cmd_figures(args: &[String]) -> Result<(), String> {
    let scale = Scale::from_env();
    let parsed = cli::parse(args, &[], usize::MAX, "atrapos figures [ids..]")?;
    let catalogue = || RUNNERS.iter().map(|(id, _)| *id);
    // Validate every id up front: experiments are expensive, and a typo at
    // the end of the list must not discard completed runs.
    if let Some(bad) = parsed
        .positionals()
        .iter()
        .find(|id| !catalogue().any(|known| known == id.as_str()))
    {
        return Err(format!(
            "unknown experiment id '{bad}'; known ids: {}",
            catalogue().collect::<Vec<_>>().join(", ")
        ));
    }
    let ids: Vec<&str> = match parsed.positionals() {
        [] => catalogue().collect(),
        chosen => chosen.iter().map(String::as_str).collect(),
    };

    let mut store = load_figures()?;
    // Host seconds go to stderr only: the recorded results stay a pure
    // function of the simulation.
    let all = Instant::now();
    for id in &ids {
        let one = Instant::now();
        let (fig, outcomes) = run_by_id(id, &scale)
            .unwrap_or_else(|| unreachable!("id '{id}' was validated against the runner table"));
        eprintln!("{id}: {:.2} s host", one.elapsed().as_secs_f64());
        fig.print();
        if !outcomes.is_empty() {
            let meta = fig
                .meta
                .clone()
                .expect("timeline experiments record their provenance");
            write_scenario_json(id, meta, outcomes);
        }
        store.upsert(fig);
    }
    eprintln!("total: {:.2} s host", all.elapsed().as_secs_f64());
    let path = save_figures(&store)?;
    eprintln!(
        "recorded {} experiment(s) in {} ({} total)",
        ids.len(),
        path.display(),
        store.figures.len()
    );
    Ok(())
}

/// `atrapos sweep [--workload W] [--sockets 1,8] [--arrival TPS] [--bound N]`
fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let scale = Scale::from_env();
    let parsed = cli::parse(
        args,
        &[
            FlagSpec::value("--workload"),
            FlagSpec::value("--sockets"),
            FlagSpec::value("--arrival"),
            FlagSpec::value("--bound"),
        ],
        0,
        "atrapos sweep [--workload micro|tatp|tpcc|ycsb|spec:<file.json>] [--sockets 1,8] \
         [--arrival TPS] [--bound N]",
    )?;
    let workload = parsed.value("--workload").unwrap_or("micro");
    let sockets: Vec<usize> = match parsed.value("--sockets") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad socket count '{s}'"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![1, scale.max_sockets],
    };
    let arrival: Option<f64> = match parsed.value("--arrival") {
        Some(a) => Some(
            a.parse::<f64>()
                .ok()
                .filter(|r| r.is_finite() && *r > 0.0)
                .ok_or("--arrival needs a positive rate in TPS (e.g. --arrival 50000)")?,
        ),
        None => None,
    };
    let bound: u64 = match parsed.value("--bound") {
        Some(b) => b
            .parse::<u64>()
            .ok()
            .filter(|&b| b >= 1)
            .ok_or("--bound needs an admission-queue depth of at least 1")?,
        None => 128,
    };
    if arrival.is_none() && parsed.has("--bound") {
        return Err("--bound only applies to open-loop sweeps (add --arrival TPS)".into());
    }
    let open_loop = arrival.map(|rate| (rate, bound));
    for fig in shootout::design_sweep(workload, &scale, &sockets, open_loop)? {
        fig.print();
    }
    Ok(())
}

/// `atrapos replay [file.json] [--emit-sample]`
fn cmd_replay(args: &[String]) -> Result<(), String> {
    let parsed = cli::parse(
        args,
        &[FlagSpec::switch("--emit-sample")],
        1,
        "atrapos replay [file.json] [--emit-sample]",
    )?;
    if parsed.has("--emit-sample") {
        println!("{}", serde::json::to_string_pretty(&replay::sample()));
        return Ok(());
    }
    let path = parsed
        .positionals()
        .first()
        .cloned()
        .unwrap_or_else(|| replay::DEFAULT_REPLAY_PATH.to_string());
    let replay_file = replay::ReplayFile::load(&path)?;
    let outcome = replay_file.run()?;
    replay::print_outcome(&replay_file, &outcome);
    Ok(())
}

/// `atrapos report [--check]`
fn cmd_report(args: &[String]) -> Result<(), String> {
    let parsed = cli::parse(
        args,
        &[FlagSpec::switch("--check")],
        0,
        "atrapos report [--check]",
    )?;
    let check = parsed.has("--check");
    let figures = {
        let path = figures_path();
        if !path.exists() {
            return Err(format!(
                "{} not found — run `atrapos figures` first",
                path.display()
            ));
        }
        load_figures()?
    };
    let svg_dir = report_dir().join("figures");
    // Markdown image links are relative to REPRODUCTION.md at the repo
    // root.
    let root = workspace_root();
    let svg_prefix = svg_dir
        .strip_prefix(root)
        .unwrap_or(&svg_dir)
        .to_string_lossy()
        .replace('\\', "/");
    let rendered = atrapos_report::generate(&figures, &svg_prefix);

    let md_path = &root.join("REPRODUCTION.md");
    // SVGs on disk that no current experiment produces (removed or renamed
    // entries) are stale evidence: `--check` flags them, a write removes
    // them.
    let expected: Vec<&str> = rendered.svgs.iter().map(|(n, _)| n.as_str()).collect();
    let orphans: Vec<std::path::PathBuf> = std::fs::read_dir(&svg_dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.extension().is_some_and(|ext| ext == "svg")
                        && p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| !expected.contains(&n))
                })
                .collect()
        })
        .unwrap_or_default();
    if check {
        let mut drifted = Vec::new();
        if std::fs::read_to_string(md_path).ok().as_deref() != Some(rendered.markdown.as_str()) {
            drifted.push(md_path.display().to_string());
        }
        for (name, svg) in &rendered.svgs {
            let path = svg_dir.join(name);
            if std::fs::read_to_string(&path).ok().as_deref() != Some(svg.as_str()) {
                drifted.push(path.display().to_string());
            }
        }
        for orphan in &orphans {
            drifted.push(format!("{} (orphaned)", orphan.display()));
        }
        if drifted.is_empty() {
            eprintln!("report is up to date ({} charts)", rendered.svgs.len());
            Ok(())
        } else {
            Err(format!(
                "reproduction report drifted from {}: regenerate with `atrapos report` \
                 and commit the result\n  stale: {}",
                figures_path().display(),
                drifted.join(", ")
            ))
        }
    } else {
        std::fs::create_dir_all(&svg_dir)
            .map_err(|e| format!("cannot create {}: {e}", svg_dir.display()))?;
        std::fs::write(md_path, &rendered.markdown)
            .map_err(|e| format!("cannot write {}: {e}", md_path.display()))?;
        for (name, svg) in &rendered.svgs {
            let path = svg_dir.join(name);
            std::fs::write(&path, svg)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        for orphan in &orphans {
            std::fs::remove_file(orphan)
                .map_err(|e| format!("cannot remove orphaned {}: {e}", orphan.display()))?;
            eprintln!("removed orphaned chart {}", orphan.display());
        }
        eprintln!(
            "wrote {} and {} chart(s) under {}",
            md_path.display(),
            rendered.svgs.len(),
            svg_dir.display()
        );
        Ok(())
    }
}

/// `atrapos lint [root] [--only rule] [--list-rules]`
fn cmd_lint(args: &[String]) -> Result<(), String> {
    let parsed = cli::parse(
        args,
        &[
            FlagSpec::switch("--list-rules"),
            FlagSpec::repeated("--only"),
        ],
        1,
        "atrapos lint [root] [--only rule] [--list-rules]",
    )?;
    if parsed.has("--list-rules") {
        for rule in atrapos_lint::RULES {
            println!("{:16} {}", rule.name, rule.summary);
            println!("{:16}   scope: {}", "", rule.scope);
        }
        return Ok(());
    }
    let root = match parsed.positionals().first() {
        Some(p) => Path::new(p).to_path_buf(),
        None => workspace_root().to_path_buf(),
    };
    let only: Vec<String> = parsed
        .values("--only")
        .iter()
        .map(|s| s.to_string())
        .collect();
    let report = atrapos_lint::lint_workspace(&root, &only)?;
    let findings = &report.findings;
    for f in findings {
        println!("{f}");
    }
    eprintln!("non-test lines (outside #[cfg(test)] items, files under src/):");
    for (package, lines) in &report.non_test_lines {
        eprintln!("  {package:<20} {lines:>6}");
    }
    let total: usize = report.non_test_lines.iter().map(|(_, n)| n).sum();
    eprintln!("  {:<20} {total:>6}", "total");
    if findings.is_empty() {
        eprintln!("lint clean ({})", root.display());
        Ok(())
    } else {
        Err(format!(
            "{} lint finding(s); waive intentional ones with \
             `// lint: allow(<rule>) — <reason>`",
            findings.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Positional ids are the only selection: the old `--all` / `--only`
    /// spellings and ids outside the catalogue fail before anything runs.
    #[test]
    fn figures_rejects_removed_flags_and_unknown_ids() {
        for gone in ["all", "only"] {
            let flag = format!("--{gone}");
            let err = cmd_figures(&argv(&[&flag, "fig10"])).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
        let err = cmd_figures(&argv(&["fig10", "fig99"])).unwrap_err();
        assert!(err.contains("unknown experiment id 'fig99'"), "{err}");
        assert!(err.contains("fig01") && err.contains("spec01"), "{err}");
    }
}
