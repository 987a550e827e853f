//! grandma-lint CLI: scan the workspace, match against the baseline, and
//! gate. Exit codes: 0 clean, 1 findings (or stale baseline), 2 usage/IO
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use grandma_lint::baseline;
use grandma_lint::findings::{render_human, render_json, Finding, Severity, RULES};
use grandma_lint::{graph_dot, scan_workspace, workspace_files, Config};

const USAGE: &str = "\
grandma-lint: dependency-free static-analysis gate for the grandma workspace

USAGE:
    grandma-lint [OPTIONS]

OPTIONS:
    --format <human|json>   Output format (default: human)
    --baseline <path>       Baseline file (default: <root>/lint-baseline.txt)
    --fix-baseline          Rewrite the baseline from a fresh scan (sorted,
                            deterministic; justifications are preserved)
    --deny-warnings         Exit non-zero on warning-severity findings too
    --root <path>           Workspace root (default: discovered from cwd)
    --graph-dump <dot>      Print the workspace call graph (DOT) and exit
    --list-rules            Print the rule catalogue and exit
    --help                  Show this help
";

struct Options {
    format: String,
    baseline: Option<PathBuf>,
    fix_baseline: bool,
    deny_warnings: bool,
    root: Option<PathBuf>,
    graph_dump: Option<String>,
    list_rules: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        format: "human".to_string(),
        baseline: None,
        fix_baseline: false,
        deny_warnings: false,
        root: None,
        graph_dump: None,
        list_rules: false,
    };
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--format" => {
                let v = take_value(&mut i)?;
                if v != "human" && v != "json" {
                    return Err(format!("--format must be human or json, got `{v}`"));
                }
                opts.format = v;
            }
            "--baseline" => opts.baseline = Some(PathBuf::from(take_value(&mut i)?)),
            "--fix-baseline" => opts.fix_baseline = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--root" => opts.root = Some(PathBuf::from(take_value(&mut i)?)),
            "--graph-dump" => {
                let v = take_value(&mut i)?;
                if v != "dot" {
                    return Err(format!("--graph-dump supports only `dot`, got `{v}`"));
                }
                opts.graph_dump = Some(v);
            }
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Walk up from cwd until a directory containing `crates/lint/Cargo.toml`
/// (this workspace's root) is found.
fn discover_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    loop {
        if dir.join("crates/lint/Cargo.toml").is_file() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(
                "could not find workspace root (no crates/lint/Cargo.toml above cwd); \
                        pass --root"
                    .to_string(),
            );
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    if opts.list_rules {
        for rule in RULES {
            println!(
                "{:<20} {:<8} {}",
                rule.id,
                rule.severity.as_str(),
                rule.summary
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = match opts.root {
        Some(root) => root,
        None => discover_root()?,
    };

    if opts.graph_dump.is_some() {
        print!("{}", graph_dot(&workspace_files(&root)?));
        return Ok(ExitCode::SUCCESS);
    }

    let config = Config::repo_default();
    let findings = scan_workspace(&root, &config)?;

    let baseline_path = opts
        .baseline
        .unwrap_or_else(|| root.join("lint-baseline.txt"));
    let old_baseline = if baseline_path.is_file() {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
        baseline::parse(&text)?
    } else {
        baseline::Baseline::default()
    };

    if opts.fix_baseline {
        let rendered = baseline::render(&findings, &old_baseline);
        std::fs::write(&baseline_path, &rendered)
            .map_err(|e| format!("write {}: {e}", baseline_path.display()))?;
        eprintln!(
            "grandma-lint: wrote {} entries to {}",
            findings.len(),
            baseline_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let matched = baseline::match_findings(&findings, &old_baseline);

    // Merge for display, keeping global sorted order.
    let mut rows: Vec<(Finding, &str)> = matched
        .baselined
        .iter()
        .map(|f| (f.clone(), "baselined"))
        .chain(matched.new.iter().map(|f| (f.clone(), "new")))
        .collect();
    rows.sort_by(|a, b| a.0.sort_key().cmp(&b.0.sort_key()));

    match opts.format.as_str() {
        "json" => print!("{}", render_json(&rows)),
        _ => print!("{}", render_human(&rows)),
    }

    for entry in &matched.stale {
        eprintln!(
            "error: stale baseline entry ({} at {} occurrence {}): the finding was fixed; \
             run `cargo run -p grandma-lint -- --fix-baseline` to drop it",
            entry.rule, entry.path, entry.occurrence
        );
    }

    let errors = matched
        .new
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = matched.new.len() - errors;
    eprintln!(
        "grandma-lint: {} new error(s), {} new warning(s), {} baselined, {} stale baseline entr{}",
        errors,
        warnings,
        matched.baselined.len(),
        matched.stale.len(),
        if matched.stale.len() == 1 { "y" } else { "ies" },
    );

    let gate = errors > 0 || !matched.stale.is_empty() || (opts.deny_warnings && warnings > 0);
    Ok(if gate {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("grandma-lint: {message}");
            ExitCode::from(2)
        }
    }
}
