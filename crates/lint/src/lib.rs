#![forbid(unsafe_code)]
//! grandma-lint: a dependency-free static-analysis gate for this workspace.
//!
//! The crate lexes Rust source with a minimal hand-rolled scanner (no `syn`)
//! and runs a fixed rule catalogue encoding the repo's real invariants:
//! panic-freedom in library code, zero-allocation hot paths, wire-protocol
//! encoder/decoder lockstep, lock/channel discipline, float hygiene, and
//! decode-path cast safety. See [`findings::RULES`] for the catalogue.
//!
//! Deliberate violations are either suppressed inline with
//! `// lint:allow(<rule>): reason` (covers the comment's lines plus the next
//! line) or grandfathered in the checked-in `lint-baseline.txt` with a
//! justification. `scripts/check.sh` runs the binary with `--deny-warnings`
//! as a hard, always-on gate.

pub mod analysis;
pub mod baseline;
pub mod callgraph;
pub mod concurrency;
pub mod findings;
pub mod lexer;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use findings::Finding;

/// Workspace-wide lint configuration. `repo_default` encodes this repo's
/// policy; golden tests construct custom configs for fixtures.
pub struct Config {
    /// Crate directory names whose lib code must be panic-free.
    pub panic_free_crates: Vec<&'static str>,
    /// Workspace-relative path of the wire-protocol module (R2/R5 target).
    pub wire_file: &'static str,
    /// Workspace-relative path of the session module holding the durable
    /// `SessionSnapshot` codec (snapshot-version-lockstep target).
    pub session_file: &'static str,
    /// Files allowed to contain `unsafe` (the audited inventory).
    pub unsafe_files: Vec<&'static str>,
    /// Files where `.partial_cmp()` is allowed (the sanitizer layer).
    pub partial_cmp_files: Vec<&'static str>,
}

impl Config {
    pub fn repo_default() -> Self {
        Config {
            panic_free_crates: vec![
                "core", "linalg", "events", "toolkit", "serve", "cluster", "lint",
            ],
            wire_file: "crates/serve/src/wire.rs",
            session_file: "crates/serve/src/session.rs",
            unsafe_files: vec![
                // The reactor's audited syscall boundary: hand-declared
                // poll(2)/self-pipe (`sys/mod.rs`), epoll(7)
                // (`sys/epoll.rs`), and setrlimit(2) (`sys/rlimit.rs`)
                // bindings behind safe APIs, with per-block SAFETY
                // notes (DESIGN.md §13). The serve crate root
                // downgrades forbid→deny so exactly this module tree
                // can opt back in. `sys/poller.rs` — the safe backend
                // abstraction — is deliberately absent: it must stay
                // free of `unsafe`.
                "crates/serve/src/sys/mod.rs",
                "crates/serve/src/sys/epoll.rs",
                "crates/serve/src/sys/rlimit.rs",
            ],
            partial_cmp_files: vec![
                "crates/events/src/sanitize.rs",
                "crates/events/src/queue.rs",
            ],
        }
    }
}

/// What kind of file a workspace-relative path is; drives rule scoping.
pub struct FileMeta {
    pub rel_path: String,
    /// Crate directory name under `crates/`, or `"grandma"` for the root
    /// facade crate's `src/`.
    pub crate_name: Option<String>,
    /// Under a `src/bin/` directory or a `main.rs` binary root.
    pub is_bin: bool,
    /// Under a `tests/`, `examples/`, or `benches/` directory.
    pub is_test_file: bool,
    /// A crate's `src/lib.rs`.
    pub is_lib_root: bool,
}

/// Classify a workspace-relative path (`crates/serve/src/wire.rs`).
pub fn file_meta(rel_path: &str) -> FileMeta {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = match parts.as_slice() {
        ["crates", name, rest @ ..] if !rest.is_empty() => Some((*name).to_string()),
        ["src", rest @ ..] if !rest.is_empty() => Some("grandma".to_string()),
        _ => None,
    };
    let is_test_file = parts
        .iter()
        .any(|p| matches!(*p, "tests" | "examples" | "benches"));
    let is_bin = parts.contains(&"bin") || parts.last().is_some_and(|p| *p == "main.rs");
    let is_lib_root =
        rel_path == "src/lib.rs" || matches!(parts.as_slice(), ["crates", _, "src", "lib.rs"]);
    FileMeta {
        rel_path: rel_path.to_string(),
        crate_name,
        is_bin,
        is_test_file,
        is_lib_root,
    }
}

/// Summarize every non-test file for the interprocedural pass.
fn summarize_all(files: &[(String, String)]) -> Vec<callgraph::FileSummary> {
    let mut summaries = Vec::new();
    for (rel, src) in files {
        let meta = file_meta(rel);
        if meta.is_test_file {
            continue;
        }
        let lexed = lexer::lex(src);
        let analysis = analysis::analyze(&lexed);
        summaries.push(callgraph::summarize(&meta, &lexed, &analysis, src));
    }
    summaries
}

/// Lint a set of files as one workspace: pass 1 runs the per-file rules,
/// pass 2 builds the call graph over every non-test file and runs the
/// interprocedural concurrency rules. `rel_path`s must be
/// workspace-relative with `/` separators. Findings are sorted.
pub fn lint_files(files: &[(String, String)], config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for (rel, src) in files {
        let meta = file_meta(rel);
        let lexed = lexer::lex(src);
        let analysis = analysis::analyze(&lexed);
        rules::check_file(&meta, &lexed, &analysis, config, &mut out);
    }
    let summaries = summarize_all(files);
    concurrency::check_workspace(&summaries, &mut out);
    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out
}

/// Lint one source file (both passes, over a one-file workspace).
/// Fixtures and unit tests use this; interprocedural rules then see only
/// same-file calls, which is exactly what self-contained fixtures want.
pub fn lint_source(rel_path: &str, src: &str, config: &Config) -> Vec<Finding> {
    lint_files(&[(rel_path.to_string(), src.to_string())], config)
}

/// Render the whole-workspace call graph as deterministic DOT
/// (`--graph-dump dot`). Byte-stable across runs over the same tree.
pub fn graph_dot(files: &[(String, String)]) -> String {
    let summaries = summarize_all(files);
    callgraph::CallGraph::build(&summaries).to_dot()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Read every workspace source file under `root` as `(rel_path, source)`
/// pairs, in fully deterministic order. Lint-test fixtures are excluded:
/// they contain violations on purpose.
pub fn workspace_files(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.starts_with("crates/lint/tests/fixtures/") {
            continue;
        }
        let src = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        out.push((rel, src));
    }
    Ok(out)
}

/// Scan the whole workspace under `root`, both passes. File order (and
/// therefore finding order) is fully deterministic.
pub fn scan_workspace(root: &Path, config: &Config) -> Result<Vec<Finding>, String> {
    Ok(lint_files(&workspace_files(root)?, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_meta_classification() {
        let lib = file_meta("crates/serve/src/wire.rs");
        assert_eq!(lib.crate_name.as_deref(), Some("serve"));
        assert!(!lib.is_bin && !lib.is_test_file && !lib.is_lib_root);

        let root = file_meta("crates/core/src/lib.rs");
        assert!(root.is_lib_root);

        let bin = file_meta("crates/bench/src/bin/experiments.rs");
        assert!(bin.is_bin && !bin.is_test_file);

        let test = file_meta("crates/serve/tests/loopback.rs");
        assert!(test.is_test_file);

        let facade = file_meta("src/lib.rs");
        assert_eq!(facade.crate_name.as_deref(), Some("grandma"));
        assert!(facade.is_lib_root);
    }

    #[test]
    fn lint_source_end_to_end_no_panic() {
        let config = Config::repo_default();
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let findings = lint_source("crates/core/src/demo.rs", src, &config);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-panic");
        // Same source in a non-panic-free crate is clean.
        assert!(lint_source("crates/synth/src/demo.rs", src, &config).is_empty());
        // And in test code it is clean too.
        assert!(lint_source("crates/core/tests/demo.rs", src, &config).is_empty());
    }
}
