//! Finding type, the rule registry, and the human / JSON renderers.
//! JSON is emitted by hand (no serde) with fully deterministic field and
//! finding ordering so consecutive runs over the same tree are byte-identical.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One lint finding at a specific line of a workspace-relative file.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    pub path: String,
    pub line: u32,
    pub message: String,
    /// Trimmed source line, used for display and baseline fingerprinting.
    pub snippet: String,
    /// For interprocedural rules: the call chain from the entry point to
    /// the offending leaf, one `name (file:line)` entry per hop. Empty
    /// for per-file rules. Deliberately NOT part of the baseline
    /// fingerprint: refactoring an intermediate frame must not churn the
    /// baseline.
    pub call_chain: Vec<String>,
}

impl Finding {
    /// Stable sort key: path, then line, then rule, then snippet, then chain.
    pub fn sort_key(&self) -> (&str, u32, &str, &str, &[String]) {
        (
            &self.path,
            self.line,
            self.rule,
            &self.snippet,
            &self.call_chain,
        )
    }
}

/// Static description of one rule.
pub struct RuleInfo {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

/// The full rule catalogue. IDs are stable: they appear in suppressions and
/// in the baseline file, so renaming one is a breaking change.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-panic",
        severity: Severity::Error,
        summary: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in panic-free library code",
    },
    RuleInfo {
        id: "hot-path-index",
        severity: Severity::Error,
        summary: "slice/array indexing inside a lint:hot-path region (can panic; use get())",
    },
    RuleInfo {
        id: "hot-path-alloc",
        severity: Severity::Error,
        summary: "allocation (clone/to_vec/format!/vec!/Vec::new/Box::new/...) inside a lint:hot-path region",
    },
    RuleInfo {
        id: "guard-held-channel",
        severity: Severity::Error,
        summary: "channel send()/recv() while a Mutex guard from lock() may still be live",
    },
    RuleInfo {
        id: "channel-unwrap",
        severity: Severity::Error,
        summary: "unwrap()/expect() directly on a lock()/send()/recv() result in non-test code",
    },
    RuleInfo {
        id: "float-eq",
        severity: Severity::Warning,
        summary: "==/!= comparison against a float literal (prefer tolerance or total_cmp)",
    },
    RuleInfo {
        id: "partial-cmp",
        severity: Severity::Error,
        summary: ".partial_cmp() outside the event sanitizer (prefer total_cmp; NaN returns None)",
    },
    RuleInfo {
        id: "decode-as-cast",
        severity: Severity::Error,
        summary: "`as` integer cast inside a wire decode path (use try_from with a typed WireError)",
    },
    RuleInfo {
        id: "wire-tag-encode",
        severity: Severity::Error,
        summary: "wire TAG_ constant never referenced by any encode fn in wire.rs",
    },
    RuleInfo {
        id: "wire-tag-decode",
        severity: Severity::Error,
        summary: "wire TAG_ constant never referenced by any decode fn in wire.rs",
    },
    RuleInfo {
        id: "wire-tag-dup",
        severity: Severity::Error,
        summary: "two wire TAG_ constants share the same frame-tag value",
    },
    RuleInfo {
        id: "wire-version",
        severity: Severity::Error,
        summary: "WIRE_VERSION/MIN_WIRE_VERSION missing, inverted, or absent from wire.rs module docs",
    },
    RuleInfo {
        id: "snapshot-version-lockstep",
        severity: Severity::Error,
        summary: "SessionSnapshot VERSION missing, not stamped by encode, or not checked (typed) by decode in session.rs",
    },
    RuleInfo {
        id: "reactor-blocking-call",
        severity: Severity::Error,
        summary: "code reachable from a lint:reactor-loop region hits a blocking leaf (lock/recv/wait/sleep/blocking I/O/fsync)",
    },
    RuleInfo {
        id: "lock-order-cycle",
        severity: Severity::Error,
        summary: "static-keyed Mutex/RwLock guards acquired in a cyclic order across functions (deadlock shape)",
    },
    RuleInfo {
        id: "guard-across-call",
        severity: Severity::Error,
        summary: "lock guard held across a call into a function that itself blocks or sends on a channel",
    },
    RuleInfo {
        id: "unsafe-code",
        severity: Severity::Error,
        summary: "`unsafe` outside the audited inventory (the serve syscall module)",
    },
    RuleInfo {
        id: "forbid-unsafe",
        severity: Severity::Error,
        summary: "lib crate root missing #![forbid(unsafe_code)]",
    },
];

pub fn rule_severity(id: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.id == id)
        .map_or(Severity::Error, |r| r.severity)
}

pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render findings as JSON. `status` pairs each finding with `"new"` or
/// `"baselined"`. The schema string is versioned; bump it on any shape change.
/// Schema `grandma-lint/2` added the `call_chain` array (empty for
/// per-file rules).
pub fn render_json(findings: &[(Finding, &str)]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"grandma-lint/2\",\n  \"findings\": [");
    for (i, (f, status)) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut chain = String::new();
        for (j, hop) in f.call_chain.iter().enumerate() {
            if j > 0 {
                chain.push_str(", ");
            }
            let _ = write!(chain, "\"{}\"", json_escape(hop));
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\", \"call_chain\": [{}], \"status\": \"{}\"}}",
            json_escape(f.rule),
            f.severity.as_str(),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
            json_escape(&f.snippet),
            chain,
            json_escape(status),
        );
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    let new = findings.iter().filter(|(_, s)| *s == "new").count();
    let baselined = findings.len() - new;
    let errors = findings
        .iter()
        .filter(|(f, s)| *s == "new" && f.severity == Severity::Error)
        .count();
    let warnings = new - errors;
    let _ = write!(
        out,
        "],\n  \"summary\": {{\"new\": {new}, \"baselined\": {baselined}, \"errors\": {errors}, \"warnings\": {warnings}}}\n}}\n",
    );
    out
}

/// Render findings for humans, one line each plus the offending source line.
pub fn render_human(findings: &[(Finding, &str)]) -> String {
    let mut out = String::new();
    for (f, status) in findings {
        let tag = if *status == "baselined" {
            " [baselined]"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{}: [{}] {}:{}: {}{}",
            f.severity.as_str(),
            f.rule,
            f.path,
            f.line,
            f.message,
            tag,
        );
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "    | {}", f.snippet);
        }
        if !f.call_chain.is_empty() {
            let _ = writeln!(out, "    | chain: {}", f.call_chain.join(" -> "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: "no-panic",
            severity: Severity::Error,
            path: "crates/x/src/lib.rs".to_string(),
            line: 7,
            message: "`.unwrap()` in panic-free library code".to_string(),
            snippet: "let v = x.unwrap();".to_string(),
            call_chain: Vec::new(),
        }
    }

    #[test]
    fn json_carries_call_chain() {
        let mut f = sample();
        f.call_chain = vec![
            "io_loop (crates/x/src/lib.rs:3)".to_string(),
            "helper (crates/x/src/lib.rs:9)".to_string(),
        ];
        let json = render_json(&[(f.clone(), "new")]);
        assert!(json.contains("\"schema\": \"grandma-lint/2\""));
        assert!(json.contains(
            "\"call_chain\": [\"io_loop (crates/x/src/lib.rs:3)\", \"helper (crates/x/src/lib.rs:9)\"]"
        ));
        let human = render_human(&[(f, "new")]);
        assert!(human.contains("chain: io_loop (crates/x/src/lib.rs:3) -> helper"));
    }

    #[test]
    fn json_is_deterministic() {
        let findings = vec![(sample(), "new"), (sample(), "baselined")];
        assert_eq!(render_json(&findings), render_json(&findings));
    }

    #[test]
    fn json_escapes_quotes() {
        let mut f = sample();
        f.snippet = "say \"hi\"\tend".to_string();
        let json = render_json(&[(f, "new")]);
        assert!(json.contains("say \\\"hi\\\"\\tend"));
    }

    #[test]
    fn registry_ids_unique() {
        for (i, a) in RULES.iter().enumerate() {
            for b in RULES.iter().skip(i + 1) {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn empty_findings_json_shape() {
        let json = render_json(&[]);
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"new\": 0"));
    }
}
