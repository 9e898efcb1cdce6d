//! Fixture-driven rule tests.
//!
//! Each file under `tests/fixtures/` declares its logical workspace path on
//! line 1 (`//@ path: crates/...`) — rule scoping runs against that path,
//! not the fixture's real location — and annotates every expected
//! diagnostic inline: `//~ DXXX` expects that rule on the same line,
//! `//~v DXXX` on the line below (for diagnostics attached to a comment,
//! where a trailing marker would change the comment's meaning). The
//! harness lints each fixture and requires the diagnostic set to match the
//! annotations exactly — no missing findings, no extras. Cross-file rules
//! (D009) are exercised by linting a fixture *pair* in one batch.

use arbitree_lint::{lint_files, lint_workspace, LintReport};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Parses the `//~` / `//~v` markers out of a fixture source.
fn expected_diagnostics(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let tail = &line[pos + 3..];
        let (bump, tail) = match tail.strip_prefix('v') {
            Some(rest) => (1, rest),
            None => (0, tail),
        };
        let id: String = tail
            .trim_start()
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect();
        assert!(
            id.len() == 4 && id.starts_with('D'),
            "malformed marker on line {}: {line}",
            idx + 1
        );
        out.push((idx + 1 + bump, id));
    }
    out.sort();
    out
}

/// Lints a batch of fixtures in one [`lint_files`] call and checks the
/// combined diagnostics against the markers of every file in the batch.
/// Single-file rules behave exactly as before; cross-file rules (D009)
/// see both sides of their relation when the batch carries them.
fn check_files(names: &[&str]) -> LintReport {
    let mut files = Vec::new();
    let mut expected: Vec<(String, usize, String)> = Vec::new();
    for name in names {
        let source = std::fs::read_to_string(fixture_dir().join(name)).expect("fixture readable");
        let logical = source
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@ path:"))
            .expect("fixture declares `//@ path:` on line 1")
            .trim()
            .to_string();
        for (line, rule) in expected_diagnostics(&source) {
            expected.push((logical.clone(), line, rule));
        }
        files.push((logical, source));
    }
    expected.sort();
    let report = lint_files(&files);
    let mut got: Vec<(String, usize, String)> = report
        .diagnostics
        .iter()
        .map(|d| (d.path.clone(), d.line, d.rule.to_string()))
        .collect();
    got.sort();
    assert_eq!(got, expected, "fixtures {names:?}");
    report
}

/// Lints one fixture and checks its diagnostics against the markers.
fn check(name: &str) -> LintReport {
    check_files(&[name])
}

#[test]
fn d001_positive() {
    check("d001_positive.rs");
}

#[test]
fn d001_negative() {
    check("d001_negative.rs");
}

#[test]
fn d002_positive() {
    check("d002_positive.rs");
}

#[test]
fn d002_negative() {
    check("d002_negative.rs");
}

#[test]
fn d003_positive() {
    check("d003_positive.rs");
}

#[test]
fn d003_negative() {
    check("d003_negative.rs");
}

#[test]
fn d004_positive() {
    check("d004_positive.rs");
}

#[test]
fn d004_negative() {
    check("d004_negative.rs");
}

#[test]
fn d005_positive() {
    check("d005_positive.rs");
}

#[test]
fn d005_negative() {
    check("d005_negative.rs");
}

#[test]
fn d006_positive() {
    check("d006_positive.rs");
}

#[test]
fn d006_negative() {
    check("d006_negative.rs");
}

#[test]
fn d007_positive() {
    check("d007_positive.rs");
}

#[test]
fn d007_negative() {
    check("d007_negative.rs");
}

#[test]
fn d008_positive() {
    check("d008_positive.rs");
}

#[test]
fn d008_negative() {
    check("d008_negative.rs");
}

/// Batch nesting: the envelope variant hidden behind a wildcard `object()`
/// arm is flagged at its declaration line even when every leaf variant is
/// covered.
#[test]
fn d008_batch_nesting() {
    check("d008_batch_nested.rs");
}

/// Cross-file D009: the `Batch` variant declared in the message fixture is
/// missing from the class mapping in the explore fixture, flagged at the
/// mapping function.
#[test]
fn d009_positive() {
    check_files(&["d009_message.rs", "d009_explore_positive.rs"]);
}

/// An exhaustive class mapping is clean — and either side alone cannot be
/// judged, so single-file lints of the pair stay silent too.
#[test]
fn d009_negative() {
    check_files(&["d009_message.rs", "d009_explore_negative.rs"]);
    check("d009_message.rs");
    check("d009_explore_negative.rs");
}

#[test]
fn d010_positive() {
    check("d010_positive.rs");
}

#[test]
fn d010_negative() {
    check("d010_negative.rs");
}

#[test]
fn d011_positive() {
    check("d011_positive.rs");
}

/// `RefCell`, atomics, and test-module usage are clean; one raw bootstrap
/// `Mutex` survives behind a reasoned suppression.
#[test]
fn d011_negative() {
    let report = check("d011_negative.rs");
    assert_eq!(report.suppressed, 1);
}

#[test]
fn d012_positive() {
    check("d012_positive.rs");
}

/// Containers keyed by non-time types, time without a container, and
/// test-module usage are clean; one deliberate rendering-order view
/// survives behind a reasoned suppression.
#[test]
fn d012_negative() {
    let report = check("d012_negative.rs");
    assert_eq!(report.suppressed, 1);
}

/// Scanner regressions: tokens in comments/strings never fire, and
/// `#[cfg(any(test, ...))]` exempts its region while `#[cfg(not(test))]`
/// does not.
#[test]
fn cfg_gated_regions() {
    check("cfg_gated.rs");
}

/// A well-formed directive (with a reason) silences the finding.
#[test]
fn suppression_with_reason() {
    let report = check("suppression_ok.rs");
    assert_eq!(report.suppressed, 1);
}

/// A bare `allow(DXXX)` is rejected: the original finding survives and the
/// directive itself is reported as D000.
#[test]
fn suppression_without_reason() {
    let report = check("suppression_bare.rs");
    assert_eq!(report.suppressed, 0);
}

/// Every fixture on disk is exercised by a test above; adding a fixture
/// without wiring it up is an error.
#[test]
fn all_fixtures_are_covered() {
    const COVERED: &[&str] = &[
        "d001_positive.rs",
        "d001_negative.rs",
        "d002_positive.rs",
        "d002_negative.rs",
        "d003_positive.rs",
        "d003_negative.rs",
        "d004_positive.rs",
        "d004_negative.rs",
        "d005_positive.rs",
        "d005_negative.rs",
        "d006_positive.rs",
        "d006_negative.rs",
        "d007_positive.rs",
        "d007_negative.rs",
        "d008_positive.rs",
        "d008_negative.rs",
        "d008_batch_nested.rs",
        "d009_message.rs",
        "d009_explore_positive.rs",
        "d009_explore_negative.rs",
        "d010_positive.rs",
        "d010_negative.rs",
        "d011_positive.rs",
        "d011_negative.rs",
        "d012_positive.rs",
        "d012_negative.rs",
        "cfg_gated.rs",
        "suppression_ok.rs",
        "suppression_bare.rs",
    ];
    let mut on_disk: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut covered: Vec<String> = COVERED.iter().map(|s| s.to_string()).collect();
    covered.sort();
    assert_eq!(on_disk, covered);
}

/// The workspace itself must lint clean: every finding is either fixed or
/// carries a reasoned suppression. This is the same invariant CI enforces
/// via the binary's exit status.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = lint_workspace(root).expect("workspace walk");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has unsuppressed findings:\n{}",
        arbitree_lint::render_text(&report)
    );
    assert!(report.suppressed > 0, "suppressions should be counted");
}
