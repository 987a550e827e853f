//! Baseline file support: grandfathered findings live in a checked-in,
//! deterministically sorted, tab-separated file with a justification per
//! entry. Matching is line-number-agnostic (rule + path + snippet +
//! occurrence) so unrelated edits above a grandfathered site don't churn
//! the baseline.

use std::collections::BTreeMap;

use crate::findings::{is_known_rule, Finding};

/// One parsed baseline line.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    pub rule: String,
    pub path: String,
    pub occurrence: u32,
    pub snippet: String,
    pub justification: String,
}

/// The parsed baseline file.
#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: Vec<BaselineEntry>,
}

/// Result of matching a scan against the baseline.
pub struct MatchResult {
    /// Findings not covered by the baseline: these gate the build.
    pub new: Vec<Finding>,
    /// Findings covered by a baseline entry.
    pub baselined: Vec<Finding>,
    /// Baseline entries with no matching finding: the underlying issue was
    /// fixed and the entry must be removed (run `--fix-baseline`).
    pub stale: Vec<BaselineEntry>,
}

/// Parse the baseline file. `#` lines and blank lines are comments.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 5 {
            return Err(format!(
                "baseline line {line_no}: expected 5 tab-separated fields \
                 (rule, path, occurrence, snippet, justification), got {}",
                fields.len()
            ));
        }
        let rule = fields[0].trim();
        if !is_known_rule(rule) {
            return Err(format!("baseline line {line_no}: unknown rule `{rule}`"));
        }
        let occurrence: u32 = fields[2]
            .trim()
            .parse()
            .map_err(|_| format!("baseline line {line_no}: bad occurrence `{}`", fields[2]))?;
        let justification = fields[4].trim();
        if justification.is_empty() {
            return Err(format!(
                "baseline line {line_no}: empty justification — every grandfathered \
                 finding must say why it is acceptable"
            ));
        }
        entries.push(BaselineEntry {
            rule: rule.to_string(),
            path: fields[1].trim().to_string(),
            occurrence,
            snippet: fields[3].to_string(),
            justification: justification.to_string(),
        });
    }
    Ok(Baseline { entries })
}

fn finding_key(f: &Finding) -> (String, String, String) {
    (f.rule.to_string(), f.path.clone(), f.snippet.clone())
}

fn entry_key(e: &BaselineEntry) -> (String, String, String) {
    (e.rule.clone(), e.path.clone(), e.snippet.clone())
}

/// Match findings against the baseline. Per (rule, path, snippet) group, the
/// first `n_baseline` findings (in stable sort order) are considered
/// grandfathered; extras are new; surplus baseline entries are stale.
pub fn match_findings(findings: &[Finding], baseline: &Baseline) -> MatchResult {
    let mut budget: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for entry in &baseline.entries {
        *budget.entry(entry_key(entry)).or_insert(0) += 1;
    }

    let mut sorted: Vec<Finding> = findings.to_vec();
    sorted.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));

    let mut new = Vec::new();
    let mut baselined = Vec::new();
    for finding in sorted {
        match budget.get_mut(&finding_key(&finding)) {
            Some(count) if *count > 0 => {
                *count -= 1;
                baselined.push(finding);
            }
            _ => new.push(finding),
        }
    }

    // Entries whose budget was never fully consumed are stale. Report them in
    // file order, skipping the consumed prefix of each group.
    let mut stale = Vec::new();
    let mut seen: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for entry in &baseline.entries {
        let key = entry_key(entry);
        let position = seen.entry(key.clone()).or_insert(0);
        let matched = {
            let total = budget.get(&key).copied().unwrap_or(0);
            let group_size = baseline
                .entries
                .iter()
                .filter(|e| entry_key(e) == key)
                .count();
            // `total` entries of this group went unmatched; the first
            // `group_size - total` are the matched ones.
            *position < group_size - total
        };
        *position += 1;
        if !matched {
            stale.push(entry.clone());
        }
    }

    MatchResult {
        new,
        baselined,
        stale,
    }
}

/// Render a fresh baseline covering `findings`, carrying forward the
/// justification of any old entry with the same (rule, path, snippet,
/// occurrence) — or, failing that, the same (rule, path, snippet). Output is
/// sorted and stable so diffs stay reviewable.
pub fn render(findings: &[Finding], old: &Baseline) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));

    let mut out = String::from(
        "# grandma-lint baseline: grandfathered findings with justifications.\n\
         # Format: rule<TAB>path<TAB>occurrence<TAB>snippet<TAB>justification\n\
         # Regenerate with `cargo run -p grandma-lint -- --fix-baseline`;\n\
         # justifications of retained entries are preserved.\n",
    );
    let mut occurrence: BTreeMap<(String, String, String), u32> = BTreeMap::new();
    for finding in sorted {
        let key = finding_key(finding);
        let n = occurrence.entry(key.clone()).or_insert(0);
        *n += 1;
        let n = *n;
        let justification = old
            .entries
            .iter()
            .find(|e| entry_key(e) == key && e.occurrence == n)
            .or_else(|| old.entries.iter().find(|e| entry_key(e) == key))
            .map(|e| e.justification.clone())
            .unwrap_or_else(|| "TODO: justify or fix".to_string());
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            finding.rule, finding.path, n, finding.snippet, justification
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::Severity;

    fn finding(rule: &'static str, path: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule,
            severity: Severity::Error,
            path: path.to_string(),
            line,
            message: "m".to_string(),
            snippet: snippet.to_string(),
            call_chain: Vec::new(),
        }
    }

    #[test]
    fn round_trip_is_stable_and_all_baselined() {
        let findings = vec![
            finding(
                "channel-unwrap",
                "crates/a/src/x.rs",
                9,
                "a.lock().expect(\"l\");",
            ),
            finding(
                "channel-unwrap",
                "crates/a/src/x.rs",
                4,
                "a.lock().expect(\"l\");",
            ),
            finding("no-panic", "crates/b/src/y.rs", 2, "z.unwrap();"),
        ];
        let rendered = render(&findings, &Baseline::default());
        let parsed = match parse(&rendered) {
            Ok(b) => b,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(parsed.entries.len(), 3);
        let matched = match_findings(&findings, &parsed);
        assert!(matched.new.is_empty());
        assert!(matched.stale.is_empty());
        assert_eq!(matched.baselined.len(), 3);
        // Re-render from the same findings must be byte-identical.
        assert_eq!(render(&findings, &parsed), rendered);
    }

    #[test]
    fn line_moves_do_not_invalidate_entries() {
        let original = vec![finding("no-panic", "crates/b/src/y.rs", 10, "z.unwrap();")];
        let baseline = match parse(&render(&original, &Baseline::default())) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        };
        let moved = vec![finding("no-panic", "crates/b/src/y.rs", 99, "z.unwrap();")];
        let matched = match_findings(&moved, &baseline);
        assert!(matched.new.is_empty());
        assert!(matched.stale.is_empty());
    }

    #[test]
    fn fixed_finding_leaves_stale_entry() {
        let original = vec![
            finding("no-panic", "crates/b/src/y.rs", 10, "z.unwrap();"),
            finding("no-panic", "crates/b/src/y.rs", 20, "z.unwrap();"),
        ];
        let baseline = match parse(&render(&original, &Baseline::default())) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        };
        let after_fix = vec![finding("no-panic", "crates/b/src/y.rs", 10, "z.unwrap();")];
        let matched = match_findings(&after_fix, &baseline);
        assert!(matched.new.is_empty());
        assert_eq!(matched.baselined.len(), 1);
        assert_eq!(matched.stale.len(), 1);
    }

    #[test]
    fn justifications_survive_fix_baseline() {
        let findings = vec![finding("no-panic", "crates/b/src/y.rs", 10, "z.unwrap();")];
        let mut first = render(&findings, &Baseline::default());
        first = first.replace("TODO: justify or fix", "load generator fails fast");
        let old = match parse(&first) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        };
        let second = render(&findings, &old);
        assert!(second.contains("load generator fails fast"));
        assert!(!second.contains("TODO"));
    }

    #[test]
    fn rejects_unknown_rule_and_empty_justification() {
        assert!(parse("nope\tp\t1\ts\tj\n").is_err());
        assert!(parse("no-panic\tp\t1\ts\t \n").is_err());
        assert!(parse("# comment only\n\n").is_ok());
    }
}
