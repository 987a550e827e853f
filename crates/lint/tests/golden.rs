//! Golden-file suite: every fixture under `tests/fixtures/` is linted with
//! the virtual path named in its `.expected` sidecar, and the (rule, line)
//! list must match exactly. The suite also proves coverage: every shipped
//! rule has at least one firing fixture and one suppressed fixture, JSON
//! output is byte-stable, and baselines round-trip.

use std::fs;
use std::path::{Path, PathBuf};

use grandma_lint::baseline::{self, Baseline};
use grandma_lint::findings::{render_json, Finding, RULES};
use grandma_lint::{lint_source, Config};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

struct Fixture {
    stem: String,
    /// Virtual repo-relative path from the sidecar's `path` line.
    rel: String,
    src: String,
    /// Expected `(rule, line)` pairs, in emission order.
    want: Vec<(String, u32)>,
}

fn load_fixtures() -> Vec<Fixture> {
    let mut stems: Vec<PathBuf> = fs::read_dir(fixture_dir())
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    stems.sort();
    let mut out = Vec::new();
    for rs_path in stems {
        let expected_path = rs_path.with_extension("expected");
        let expected_text = fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("missing sidecar {}: {e}", expected_path.display()));
        let mut lines = expected_text.lines();
        let rel = lines
            .next()
            .and_then(|l| l.strip_prefix("path "))
            .unwrap_or_else(|| {
                panic!(
                    "{}: first line must be `path <rel>`",
                    expected_path.display()
                )
            })
            .trim()
            .to_string();
        let mut want = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (rule, line_no) = line
                .split_once(' ')
                .unwrap_or_else(|| panic!("bad expected line `{line}`"));
            want.push((
                rule.to_string(),
                line_no.parse::<u32>().expect("line number"),
            ));
        }
        let src = fs::read_to_string(&rs_path).expect("fixture source");
        let stem = rs_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        out.push(Fixture {
            stem,
            rel,
            src,
            want,
        });
    }
    out
}

fn findings_for(rel: &str, src: &str) -> Vec<Finding> {
    lint_source(rel, src, &Config::repo_default())
}

#[test]
fn golden_fixtures_match() {
    let fixtures = load_fixtures();
    assert!(
        fixtures.len() >= 20,
        "expected >= 20 fixtures, got {}",
        fixtures.len()
    );
    for fx in &fixtures {
        let got: Vec<(String, u32)> = findings_for(&fx.rel, &fx.src)
            .iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect();
        assert_eq!(got, fx.want, "fixture `{}` (as {})", fx.stem, fx.rel);
    }
}

#[test]
fn every_rule_has_firing_and_suppressed_coverage() {
    let fixtures = load_fixtures();
    for rule in RULES {
        let fires = fixtures
            .iter()
            .any(|fx| fx.want.iter().any(|(r, _)| r == rule.id));
        assert!(fires, "no firing fixture covers rule `{}`", rule.id);
        let suppressed = fixtures.iter().any(|fx| {
            fx.stem.ends_with("_suppressed")
                && (fx.src.contains(&format!("lint:allow({}", rule.id))
                    || fx.src.contains(&format!(", {})", rule.id)))
        });
        assert!(
            suppressed,
            "no suppressed fixture covers rule `{}`",
            rule.id
        );
    }
    // Suppressed fixtures must actually produce zero findings.
    for fx in &fixtures {
        if fx.stem.ends_with("_suppressed") {
            assert!(
                fx.want.is_empty(),
                "suppressed fixture `{}` expects findings",
                fx.stem
            );
            assert!(
                findings_for(&fx.rel, &fx.src).is_empty(),
                "suppressed fixture `{}` still fires",
                fx.stem
            );
        }
    }
}

#[test]
fn json_output_is_schema_stable_across_runs() {
    let fixtures = load_fixtures();
    let rows = |f: &[Fixture]| -> String {
        let mut findings: Vec<(Finding, &str)> = Vec::new();
        for fx in f {
            findings.extend(
                findings_for(&fx.rel, &fx.src)
                    .into_iter()
                    .map(|x| (x, "new")),
            );
        }
        findings.sort_by(|a, b| a.0.sort_key().cmp(&b.0.sort_key()));
        render_json(&findings)
    };
    let first = rows(&fixtures);
    let second = rows(&fixtures);
    assert_eq!(first, second, "two consecutive runs must be byte-identical");
    assert!(first.contains("\"schema\": \"grandma-lint/2\""));
    assert!(first.contains("\"summary\""));
}

#[test]
fn baseline_round_trip_over_fixture_findings() {
    let fixtures = load_fixtures();
    let mut findings = Vec::new();
    for fx in &fixtures {
        findings.extend(findings_for(&fx.rel, &fx.src));
    }
    assert!(!findings.is_empty());
    let rendered = baseline::render(&findings, &Baseline::default());
    let parsed = baseline::parse(&rendered).expect("rendered baseline parses");
    let matched = baseline::match_findings(&findings, &parsed);
    assert!(matched.new.is_empty(), "round-trip left new findings");
    assert!(matched.stale.is_empty(), "round-trip left stale entries");
    assert_eq!(matched.baselined.len(), findings.len());
    // A second render against the parsed baseline is byte-identical.
    assert_eq!(baseline::render(&findings, &parsed), rendered);
}
