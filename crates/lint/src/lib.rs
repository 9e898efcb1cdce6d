//! # arbitree-lint
//!
//! A self-contained static-analysis pass for the workspace's determinism
//! and quorum-math invariants. The simulator's headline guarantee — a run
//! is a pure function of its seed, replaying byte-for-byte — is easy to
//! break silently: one raw `HashMap` iteration in a send loop, one
//! `Instant::now()`, one `thread_rng()`, and replays diverge while every
//! functional test still passes. This crate turns those conventions into
//! checked rules (see [`rules::RULES`]):
//!
//! | rule | catches |
//! |------|---------|
//! | D001 | `HashMap`/`HashSet` in replay-critical crates |
//! | D002 | wall-clock time outside `crates/sim/src/time.rs` |
//! | D003 | unseeded RNG (`thread_rng`, `from_entropy`) |
//! | D004 | `as usize`/`as u32`/`as u64` casts in quorum arithmetic |
//! | D005 | `unwrap()`/`expect()` in simulator hot paths |
//! | D006 | exact float `==`/`!=` in availability/load math |
//! | D007 | direct event scheduling that bypasses the coordinator/Scheduler seam |
//! | D008 | `Payload` variants missing an explicit `Payload::object()` arm (file-level) |
//! | D009 | `Payload` variants missing from the checker's `payload_class` mapping (cross-file) |
//! | D010 | `LockManager::acquire` with no prior stripe-order sort (file-level) |
//! | D011 | raw `thread::spawn`/`Mutex`/`RwLock`/`mpsc`/crossbeam outside `crates/sim/src/harness.rs` |
//!
//! Findings a human has judged safe are suppressed inline — the directive
//! **requires a reason**, so every exception is self-documenting:
//!
//! ```text
//! // arbitree-lint: allow(D005) — index < len by construction two lines up
//! ```
//!
//! A bare `allow(DXXX)` without a reason does not suppress and is itself
//! reported (rule D000). The binary exits nonzero on any unsuppressed
//! diagnostic; `--format json` emits machine-readable output for CI.
//!
//! Built on a hand-rolled scanner ([`scanner`]) rather than `syn`: the
//! build environment has no registry access (see `vendor/`), and
//! token-level matching over comment/string-stripped lines is all these
//! rules need.

pub mod rules;
pub mod scanner;

use rules::{MALFORMED_SUPPRESSION, RULES};
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (`D001`…, or `D000` for malformed suppressions).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    hint: {}",
            self.path, self.line, self.rule, self.message, self.hint
        )
    }
}

/// Result of linting: surviving diagnostics plus suppression bookkeeping.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings, in (path, line, rule) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a well-formed `allow(...)` directive.
    pub suppressed: usize,
}

/// A parsed `arbitree-lint:` directive.
#[derive(Debug)]
struct Directive {
    rule_ids: Vec<String>,
    has_reason: bool,
    /// 0-based line the directive appears on.
    line: usize,
}

/// Extracts the `arbitree-lint:` directive from one line's comment text.
///
/// The marker must *start* the comment (after `//`, doc-comment `/`/`!` and
/// whitespace) — prose that merely mentions `arbitree-lint:` mid-sentence
/// is not a directive.
fn parse_directive(comment: &str, line: usize) -> Option<Directive> {
    let trimmed =
        comment.trim_start_matches(|c: char| c.is_whitespace() || c == '/' || c == '!' || c == '*');
    let rest = trimmed.strip_prefix("arbitree-lint:")?.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return Some(Directive {
            rule_ids: Vec::new(),
            has_reason: false,
            line,
        });
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(Directive {
            rule_ids: Vec::new(),
            has_reason: false,
            line,
        });
    };
    let Some(close) = rest.find(')') else {
        return Some(Directive {
            rule_ids: Vec::new(),
            has_reason: false,
            line,
        });
    };
    let rule_ids: Vec<String> = rest[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    // Everything after `)` past separator punctuation must be a real reason.
    let reason = rest[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | '.'))
        .trim();
    Some(Directive {
        rule_ids,
        has_reason: !reason.is_empty(),
        line,
    })
}

/// One file prepared for linting: its logical path plus the scanner's
/// channel view and the parsed suppression directives. Per-file passes
/// take one of these; cross-file passes take the whole batch.
struct FileCtx {
    path: String,
    scanned: scanner::ScannedFile,
    directives: Vec<Option<Directive>>,
}

impl FileCtx {
    fn new(path: &str, source: &str) -> Self {
        let scanned = scanner::scan(source);
        let mut directives: Vec<Option<Directive>> = Vec::with_capacity(scanned.comments.len());
        for (idx, comment) in scanned.comments.iter().enumerate() {
            directives.push(parse_directive(comment, idx));
        }
        FileCtx {
            path: path.to_string(),
            scanned,
            directives,
        }
    }

    /// Whether a directive covers `rule` on the (0-based) `line` — a
    /// directive suppresses findings on its own line and on the line below
    /// (the idiomatic "comment above the offending statement" placement).
    /// `Some(has_reason)` if covered; reason-less directives don't
    /// suppress (and are reported as D000).
    fn allows(&self, line: usize, rule: &str) -> Option<bool> {
        for candidate in [Some(line), line.checked_sub(1)] {
            let d = candidate
                .and_then(|l| self.directives.get(l))
                .and_then(|d| d.as_ref());
            if let Some(d) = d {
                if d.rule_ids.iter().any(|id| id == rule) {
                    return Some(d.has_reason);
                }
            }
        }
        None
    }

    /// Routes one finding through the suppression layer.
    fn emit(&self, report: &mut LintReport, rule: &rules::Rule, idx: usize, message: String) {
        match self.allows(idx, rule.id) {
            Some(true) => report.suppressed += 1,
            // A reason-less allow neither suppresses nor goes unnoticed;
            // D000 is reported once per directive separately.
            Some(false) | None => report.diagnostics.push(Diagnostic {
                rule: rule.id,
                path: self.path.clone(),
                line: idx + 1,
                message,
                hint: rule.hint,
            }),
        }
    }
}

/// All single-file passes: per-line rules, the D008 coverage pass, the
/// D010 lock-order pass, and malformed-directive reporting.
fn lint_file(ctx: &FileCtx, report: &mut LintReport) {
    for (idx, code) in ctx.scanned.code.iter().enumerate() {
        if ctx.scanned.is_test[idx] {
            continue;
        }
        for rule in RULES {
            if !rule.in_scope(&ctx.path) || !rule.matches(code) {
                continue;
            }
            ctx.emit(
                report,
                rule,
                idx,
                format!("{} ({})", rule.summary, snippet(code)),
            );
        }
    }

    // D008 is a file-level rule: it relates the `Payload` enum to the
    // `object()` accessor across lines, so it cannot run in the per-line
    // loop above.
    if let Some(d008) = rules::rule_by_id("D008") {
        if d008.in_scope(&ctx.path) {
            for (idx, variant) in payload_variants_missing_from_object(&ctx.scanned) {
                ctx.emit(report, d008, idx, format!("{} ({variant})", d008.summary));
            }
        }
    }

    // D010 is a file-level ordering rule: a non-test `.acquire(` call is
    // only safe after the lock plan was put into canonical stripe order,
    // so the pass tracks whether a sort has appeared on an earlier
    // non-test line. Token-level approximation: the sort and the acquire
    // are related by position, not dataflow — the workspace convention
    // (one lock plan, sorted where it is built) makes that sufficient,
    // and a false positive is one reasoned suppression away.
    if let Some(d010) = rules::rule_by_id("D010") {
        if d010.in_scope(&ctx.path) {
            let mut sorted_above = false;
            for (idx, code) in ctx.scanned.code.iter().enumerate() {
                if ctx.scanned.is_test[idx] {
                    continue;
                }
                if rules::has_sort_method_call(code) {
                    sorted_above = true;
                }
                if rules::has_acquire_call(code) && !sorted_above {
                    ctx.emit(
                        report,
                        d010,
                        idx,
                        format!("{} ({})", d010.summary, snippet(code)),
                    );
                }
            }
        }
    }

    // Malformed directives are findings in their own right.
    for d in ctx.directives.iter().flatten() {
        let malformed = d.rule_ids.is_empty() || !d.has_reason;
        if malformed {
            report.diagnostics.push(Diagnostic {
                rule: MALFORMED_SUPPRESSION.id,
                path: ctx.path.clone(),
                line: d.line + 1,
                message: if d.rule_ids.is_empty() {
                    "directive is not of the form `allow(DXXX)`".to_string()
                } else {
                    format!(
                        "suppression of {} has no reason — say why the finding is safe",
                        d.rule_ids.join(", ")
                    )
                },
                hint: MALFORMED_SUPPRESSION.hint,
            });
        }
    }
}

/// The D009 cross-file pass: every variant of the sim crate's `Payload`
/// enum must be named inside the checker's `fn payload_class` body —
/// that mapping decides which event pairs DPOR may commute, so a variant
/// swallowed by a wildcard silently inherits the fallback's independence
/// class. Runs only when the batch contains both sides (the enum in
/// `crates/sim/src/message.rs`, the mapping in
/// `crates/check/src/explore.rs`); diagnostics anchor at the mapping.
fn cross_file_payload_class(ctxs: &[FileCtx], report: &mut LintReport) {
    let Some(d009) = rules::rule_by_id("D009") else {
        return;
    };
    let Some(mapping) = ctxs.iter().find(|c| d009.in_scope(&c.path)) else {
        return;
    };
    let Some(message) = ctxs
        .iter()
        .find(|c| c.path.starts_with("crates/sim/src/") && c.path.ends_with("/message.rs"))
    else {
        return;
    };
    let variants = enum_body_variants(&message.scanned.code, "enum Payload");
    if variants.is_empty() {
        return;
    }
    let Some(anchor) = mapping
        .scanned
        .code
        .iter()
        .position(|line| line.contains("fn payload_class"))
    else {
        // The enum exists but the mapping function is gone entirely —
        // renamed or deleted. Report once, at the top of the file, so the
        // lint stays wired to the function it audits.
        mapping.emit(
            report,
            d009,
            0,
            format!("{} (no `fn payload_class` found)", d009.summary),
        );
        return;
    };
    let named = names_in_fn_body(&mapping.scanned.code, "fn payload_class");
    for (_, variant) in variants {
        if !named.contains(&variant) {
            mapping.emit(
                report,
                d009,
                anchor,
                format!("{} ({variant})", d009.summary),
            );
        }
    }
}

/// Lints a batch of files given as `(logical path, source)` pairs —
/// logical paths are workspace-relative with forward slashes, e.g.
/// `crates/sim/src/engine.rs`. All single-file passes run per file, then
/// the cross-file passes (D009 relates the sim crate's `Payload` enum to
/// the checker's class mapping) run over the whole batch.
pub fn lint_files(files: &[(String, String)]) -> LintReport {
    let ctxs: Vec<FileCtx> = files.iter().map(|(p, s)| FileCtx::new(p, s)).collect();
    let mut report = LintReport::default();
    for ctx in &ctxs {
        lint_file(ctx, &mut report);
    }
    cross_file_payload_class(&ctxs, &mut report);
    report
        .diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    report
}

/// Lints a single file's source under its logical workspace path (forward
/// slashes, e.g. `crates/sim/src/engine.rs`). Path scoping, `#[cfg(test)]`
/// exclusion and suppression directives all apply. Cross-file rules
/// (D009) need both sides of the relation in one batch, so they can only
/// fire through [`lint_files`] / [`lint_workspace`].
pub fn lint_source(path: &str, source: &str) -> LintReport {
    lint_files(&[(path.to_string(), source.to_string())])
}

/// `Payload` enum variants never named inside `fn object`'s body, as
/// `(0-based line of the variant, variant name)`.
///
/// Runs on the sanitized code channel, so names in comments or strings
/// don't count and brace counting can't be confused by braces in strings.
/// The parse is shape-based, matching the workspace style: one variant
/// declared per line at enum-body depth, arms naming variants as
/// `Payload::Name` or `Self::Name`. A variant hidden behind a wildcard
/// arm (or simply missing while a `_ => ...` keeps the match compiling)
/// is exactly what gets reported.
fn payload_variants_missing_from_object(scanned: &scanner::ScannedFile) -> Vec<(usize, String)> {
    let variants = enum_body_variants(&scanned.code, "enum Payload");
    if variants.is_empty() {
        return Vec::new();
    }
    let named = names_in_fn_body(&scanned.code, "fn object");
    variants
        .into_iter()
        .filter(|(_, v)| !named.contains(v))
        .collect()
}

/// Leading identifier of `s`, if it starts with an ASCII-alphabetic char.
fn leading_ident(s: &str) -> Option<&str> {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    (end > 0 && s.as_bytes()[0].is_ascii_alphabetic()).then(|| &s[..end])
}

/// Variant names (with 0-based lines) declared at depth 1 of the first
/// `{`-delimited body following a line that contains `opener`.
fn enum_body_variants(code: &[String], opener: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut depth: Option<i32> = None;
    let mut entered = false;
    for (idx, line) in code.iter().enumerate() {
        if depth.is_none() {
            if line.contains(opener) {
                depth = Some(0);
            } else {
                continue;
            }
        }
        let at_body_top = depth == Some(1);
        let trimmed = line.trim_start();
        if at_body_top && !trimmed.starts_with('}') {
            if let Some(name) = leading_ident(trimmed) {
                out.push((idx, name.to_string()));
            }
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth = depth.map(|d| d + 1);
                    entered = true;
                }
                '}' => depth = depth.map(|d| d - 1),
                _ => {}
            }
        }
        if entered && depth == Some(0) {
            break;
        }
    }
    out
}

/// Identifiers following `Payload::` or `Self::` inside the first
/// `{`-delimited body after a line containing `opener`.
fn names_in_fn_body(code: &[String], opener: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth: Option<i32> = None;
    let mut entered = false;
    for line in code {
        if depth.is_none() {
            if line.contains(opener) {
                depth = Some(0);
            } else {
                continue;
            }
        }
        for qualifier in ["Payload::", "Self::"] {
            let mut rest = line.as_str();
            while let Some(pos) = rest.find(qualifier) {
                rest = &rest[pos + qualifier.len()..];
                if let Some(name) = leading_ident(rest) {
                    out.push(name.to_string());
                }
            }
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth = depth.map(|d| d + 1);
                    entered = true;
                }
                '}' => depth = depth.map(|d| d - 1),
                _ => {}
            }
        }
        if entered && depth == Some(0) {
            break;
        }
    }
    out
}

/// A short excerpt of the offending line for the diagnostic message.
fn snippet(code: &str) -> String {
    let trimmed = code.trim();
    let mut out: String = trimmed.chars().take(60).collect();
    if trimmed.chars().count() > 60 {
        out.push('…');
    }
    out
}

/// Directories never walked: build output, vendored stand-ins, test-only
/// trees (integration tests, benches, and the lint's own fixtures).
const SKIP_DIRS: &[&str] = &["target", "vendor", "tests", "benches", "fixtures", ".git"];

/// Collects every in-scope `.rs` file under `root`, sorted for stable
/// output: crate sources (`crates/*/src`), the facade crate (`src/`), and
/// `examples/`.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root` — all files in one batch,
/// so the cross-file rules see both sides of their relations.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    for file in workspace_files(root)? {
        let source = std::fs::read_to_string(&file)?;
        let logical = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((logical, source));
    }
    Ok(lint_files(&files))
}

/// Renders diagnostics as human-readable text.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out.push_str(&format!(
        "{} diagnostic(s), {} suppressed\n",
        report.diagnostics.len(),
        report.suppressed
    ));
    out
}

/// Renders diagnostics as a JSON document for CI.
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \"hint\": \"{}\"}}",
            json_escape(d.rule),
            json_escape(&d.path),
            d.line,
            json_escape(&d.message),
            json_escape(d.hint)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"count\": {},\n  \"suppressed\": {}\n}}\n",
        report.diagnostics.len(),
        report.suppressed
    ));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM_PATH: &str = "crates/sim/src/fixture.rs";

    #[test]
    fn finding_reported_with_location() {
        let report = lint_source(SIM_PATH, "use std::collections::HashMap;\n");
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!((d.rule, d.line), ("D001", 1));
        assert!(d.message.contains("HashMap"));
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "// arbitree-lint: allow(D001) — bench-only scratch map, never iterated\n\
                   use std::collections::HashMap;\n";
        let report = lint_source(SIM_PATH, src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn same_line_suppression() {
        let src = "use std::collections::HashMap; // arbitree-lint: allow(D001) — scratch\n";
        let report = lint_source(SIM_PATH, src);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn bare_allow_is_rejected_and_reported() {
        let src = "// arbitree-lint: allow(D001)\nuse std::collections::HashMap;\n";
        let report = lint_source(SIM_PATH, src);
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        // The original finding survives AND the directive itself is flagged.
        assert!(rules.contains(&"D001"), "{rules:?}");
        assert!(rules.contains(&"D000"), "{rules:?}");
        assert_eq!(report.suppressed, 0);
    }

    #[test]
    fn suppression_of_other_rule_does_not_apply() {
        let src = "// arbitree-lint: allow(D002) — wrong rule\nuse std::collections::HashMap;\n";
        let report = lint_source(SIM_PATH, src);
        assert!(report.diagnostics.iter().any(|d| d.rule == "D001"));
    }

    #[test]
    fn multi_rule_directive() {
        let src = "// arbitree-lint: allow(D001, D005) — scratch map + checked index\n\
                   let x: HashMap<u32, u32> = scratch().unwrap();\n";
        let report = lint_source(SIM_PATH, src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed, 2);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { x.unwrap(); }\n}\n";
        let report = lint_source(SIM_PATH, src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn out_of_scope_path_is_clean() {
        let report = lint_source(
            "crates/analysis/src/stats.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// a HashMap in prose\nlet s = \"Instant::now\";\n";
        let report = lint_source(SIM_PATH, src);
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn json_output_shape() {
        let report = lint_source(SIM_PATH, "use std::collections::HashMap;\n");
        let json = render_json(&report);
        assert!(json.contains("\"rule\": \"D001\""));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"line\": 1"));
        let empty = render_json(&LintReport::default());
        assert!(empty.contains("\"count\": 0"));
        assert!(empty.contains("\"diagnostics\": []"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    const MESSAGE_SRC: &str = "pub enum Payload {\n\
        \x20   ReadReq { obj: u32 },\n\
        \x20   Batch(Vec<Payload>),\n\
        }\n\
        impl Payload {\n\
        \x20   pub fn object(&self) -> Option<u32> {\n\
        \x20       match self {\n\
        \x20           Payload::ReadReq { obj } => Some(*obj),\n\
        \x20           Payload::Batch(_) => None,\n\
        \x20       }\n\
        \x20   }\n\
        }\n";

    fn pair(message_src: &str, explore_src: &str) -> Vec<(String, String)> {
        vec![
            (
                "crates/sim/src/message.rs".to_string(),
                message_src.to_string(),
            ),
            (
                "crates/check/src/explore.rs".to_string(),
                explore_src.to_string(),
            ),
        ]
    }

    #[test]
    fn d009_cross_file_flags_variant_missing_from_class_mapping() {
        // `Batch` is swallowed by the wildcard: the checker would give it
        // whatever class the fallback picks.
        let explore = "fn payload_class(site: u32, p: &Payload) -> Class {\n\
            \x20   match p {\n\
            \x20       Payload::ReadReq { .. } => Class::Site(site, None),\n\
            \x20       _ => Class::Site(site, None),\n\
            \x20   }\n\
            }\n";
        let report = lint_files(&pair(MESSAGE_SRC, explore));
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        let d = &report.diagnostics[0];
        assert_eq!(d.rule, "D009");
        assert_eq!(d.path, "crates/check/src/explore.rs");
        assert_eq!(d.line, 1, "anchored at the mapping function");
        assert!(d.message.contains("Batch"));
    }

    #[test]
    fn d009_silent_when_mapping_is_exhaustive_or_enum_absent() {
        let explore = "fn payload_class(site: u32, p: &Payload) -> Class {\n\
            \x20   match p {\n\
            \x20       Payload::ReadReq { .. } => Class::Site(site, None),\n\
            \x20       Payload::Batch(_) => Class::Site(site, None),\n\
            \x20   }\n\
            }\n";
        assert!(lint_files(&pair(MESSAGE_SRC, explore))
            .diagnostics
            .is_empty());
        // Either side alone cannot be judged.
        assert!(lint_source("crates/check/src/explore.rs", explore)
            .diagnostics
            .is_empty());
        assert!(lint_source("crates/sim/src/message.rs", MESSAGE_SRC)
            .diagnostics
            .is_empty());
    }

    #[test]
    fn d009_reports_a_missing_mapping_function() {
        let report = lint_files(&pair(MESSAGE_SRC, "fn other_mapping() {}\n"));
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].rule, "D009");
        assert!(report.diagnostics[0]
            .message
            .contains("no `fn payload_class`"));
    }

    #[test]
    fn d009_suppressible_at_the_mapping() {
        let explore =
            "// arbitree-lint: allow(D009) — Batch handled by the engine before classify\n\
            fn payload_class(site: u32, p: &Payload) -> Class {\n\
            \x20   match p {\n\
            \x20       Payload::ReadReq { .. } => Class::Site(site, None),\n\
            \x20       _ => Class::Site(site, None),\n\
            \x20   }\n\
            }\n";
        let report = lint_files(&pair(MESSAGE_SRC, explore));
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn d010_flags_acquire_without_prior_sort() {
        let src = "fn lock_all(&mut self) {\n\
            \x20   self.locks.acquire(op, obj, mode);\n\
            }\n";
        let report = lint_source("crates/sim/src/coordinator.rs", src);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(
            (report.diagnostics[0].rule, report.diagnostics[0].line),
            ("D010", 2)
        );
    }

    #[test]
    fn d010_accepts_sorted_plan_and_exempts_tests() {
        let src = "fn lock_all(&mut self) {\n\
            \x20   plan.sort_by_key(|&(o, _)| o);\n\
            \x20   self.locks.acquire(op, obj, mode);\n\
            }\n\
            #[cfg(test)]\n\
            mod tests {\n\
            \x20   fn unordered_is_fine_here(lm: &mut LockManager) {\n\
            \x20       lm.acquire(op, obj, mode);\n\
            \x20   }\n\
            }\n";
        let report = lint_source("crates/sim/src/coordinator.rs", src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        // Out of scope entirely outside the simulator.
        let report = lint_source("crates/quorum/src/traits.rs", "x.acquire(a);\n");
        assert!(report.diagnostics.is_empty());
    }
}
