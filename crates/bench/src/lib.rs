//! # arbitree-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation. `paper_report` prints the paper's artifacts, one subcommand
//! each, and with no subcommand checks every claim:
//!
//! | command | regenerates |
//! |---|---|
//! | `paper_report` | PASS/FAIL certificate over every evaluation claim |
//! | `paper_report table1` | Table 1 — node bookkeeping of the Figure 1 tree |
//! | `paper_report example` | §3.4 — the running example's metrics |
//! | `paper_report fig2` | Figure 2 — communication costs of the six configurations |
//! | `paper_report fig3` | Figure 3 — (expected) read loads |
//! | `paper_report fig4` | Figure 4 — (expected) write loads + the §3.3 lower-bound table |
//! | `paper_report availability` | §3.3 — asymptotic availability limits |
//! | `sim_validate` | simulator-measured availability/load/cost vs closed forms |
//!
//! Run any of them with `cargo run -p arbitree-bench --release --bin <name>
//! [-- <subcommand> <flags>]`.
//!
//! Criterion microbenchmarks live in `benches/`: quorum enumeration and
//! picking, LP-solver scaling, simulator throughput, and the ablations
//! DESIGN.md calls out.

/// Shared command-line helper: the value after `key` (as in `--n 200`),
/// parsed as `T`. `Ok(None)` when `key` is absent; an error when `key` is
/// the last argument or its value does not parse as `T`, so `--n abc` or
/// an unsigned `--trials -1` is rejected instead of falling back to a
/// default.
pub fn arg_value<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{key} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{key}: invalid value {value:?}"))
}

/// [`arg_value`] with a default, for a bench binary's `main`: a missing or
/// malformed value prints the error and exits with status 2.
pub fn arg_or<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    match arg_value(args, key) {
        Ok(value) => value.unwrap_or(default),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2)
        }
    }
}

/// The shared machine-readable report format every `BENCH_*.json`
/// artifact uses.
///
/// Envelope (`arbitree-bench-report/v1`):
///
/// ```json
/// {
///   "schema": "arbitree-bench-report/v1",
///   "bench": "<name>",
///   "git_rev": "<hex or \"unknown\">",
///   "config": { ...bench parameters... },
///   "rows": [ {"name": "...", "ops_per_sec": 1234.5, ...}, ... ],
///   ...bench-specific summary keys...
/// }
/// ```
///
/// Every row carries a `name`; rows that measure a rate also carry
/// `ops_per_sec` as the headline figure, so cross-bench tooling can plot
/// any artifact's trajectory without knowing its cell layout. All other
/// fields are bench-specific and pass through as raw JSON values.
///
/// The workspace vendors no serde, so values are raw pre-formatted JSON
/// fragments (use [`json_str`] for string values) and the builder emits
/// the document by hand with stable key order.
pub mod report {
    /// Quotes and escapes a string as a JSON string literal.
    pub fn json_str(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
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
        out.push('"');
        out
    }

    /// The commit under measurement: `git rev-parse HEAD`, or `"unknown"`
    /// when git is unavailable (tarball builds, stripped CI runners).
    pub fn git_rev() -> String {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// One report row: a label, an optional headline rate, and bench-
    /// specific extra fields (raw JSON values, emitted in insertion order).
    pub struct BenchRow {
        name: String,
        ops_per_sec: Option<f64>,
        fields: Vec<(String, String)>,
    }

    impl BenchRow {
        /// A row with a headline ops/sec figure.
        pub fn rate(name: impl Into<String>, ops_per_sec: f64) -> Self {
            BenchRow {
                name: name.into(),
                ops_per_sec: Some(ops_per_sec),
                fields: Vec::new(),
            }
        }

        /// A row without a rate (cost sweeps, pass/fail matrices).
        pub fn plain(name: impl Into<String>) -> Self {
            BenchRow {
                name: name.into(),
                ops_per_sec: None,
                fields: Vec::new(),
            }
        }

        /// Appends a bench-specific field; `value` is a raw JSON fragment.
        pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.fields.push((key.to_string(), value.to_string()));
            self
        }
    }

    /// Builder for one report document.
    pub struct BenchReport {
        name: String,
        git_rev: String,
        config: Vec<(String, String)>,
        rows: Vec<BenchRow>,
        summary: Vec<(String, String)>,
    }

    impl BenchReport {
        /// Starts a report for the named bench, capturing the git revision.
        pub fn new(name: &str) -> Self {
            BenchReport {
                name: name.to_string(),
                git_rev: git_rev(),
                config: Vec::new(),
                rows: Vec::new(),
                summary: Vec::new(),
            }
        }

        /// Adds a config entry; `value` is a raw JSON fragment.
        pub fn config(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.config.push((key.to_string(), value.to_string()));
            self
        }

        /// Adds a row.
        pub fn row(mut self, row: BenchRow) -> Self {
            self.rows.push(row);
            self
        }

        /// Adds a bench-specific top-level summary key; `value` is a raw
        /// JSON fragment (scalars, or whole arrays/objects for payloads
        /// like a kill matrix).
        pub fn summary(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.summary.push((key.to_string(), value.to_string()));
            self
        }

        /// Renders the document. Stable key order: envelope, config, rows,
        /// then summary keys in insertion order.
        pub fn to_json(&self) -> String {
            let mut s = String::new();
            s.push_str("{\n");
            s.push_str("  \"schema\": \"arbitree-bench-report/v1\",\n");
            s.push_str(&format!("  \"bench\": {},\n", json_str(&self.name)));
            s.push_str(&format!("  \"git_rev\": {},\n", json_str(&self.git_rev)));
            s.push_str("  \"config\": {");
            for (i, (k, v)) in self.config.iter().enumerate() {
                s.push_str(&format!(
                    "{}{}: {}",
                    if i == 0 { "" } else { ", " },
                    json_str(k),
                    v
                ));
            }
            s.push_str("},\n");
            s.push_str("  \"rows\": [\n");
            for (i, row) in self.rows.iter().enumerate() {
                s.push_str(&format!("    {{\"name\": {}", json_str(&row.name)));
                if let Some(rate) = row.ops_per_sec {
                    s.push_str(&format!(", \"ops_per_sec\": {rate:.1}"));
                }
                for (k, v) in &row.fields {
                    s.push_str(&format!(", {}: {}", json_str(k), v));
                }
                s.push_str(&format!(
                    "}}{}\n",
                    if i + 1 < self.rows.len() { "," } else { "" }
                ));
            }
            s.push_str("  ]");
            for (k, v) in &self.summary {
                s.push_str(&format!(",\n  {}: {}", json_str(k), v));
            }
            s.push_str("\n}\n");
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["prog", "--n", "200", "--p", "0.8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--n"), Ok(Some(200usize)));
        assert_eq!(arg_value(&args, "--p"), Ok(Some(0.8)));
        assert_eq!(arg_value::<f64>(&args, "--x"), Ok(None));
        // A missing or malformed value is an error, not a silent default.
        let bad = |argv: &[&str]| -> Vec<String> { argv.iter().map(|s| s.to_string()).collect() };
        assert_eq!(
            arg_value::<usize>(&bad(&["prog", "--n"]), "--n"),
            Err("--n needs a value".to_string())
        );
        assert_eq!(
            arg_value::<usize>(&bad(&["prog", "--n", "abc"]), "--n"),
            Err("--n: invalid value \"abc\"".to_string())
        );
        assert!(arg_value::<u32>(&bad(&["prog", "--trials", "-1"]), "--trials").is_err());
        assert!(arg_value::<usize>(&bad(&["prog", "--n", "--csv"]), "--n").is_err());
    }

    #[test]
    fn bench_report_envelope_and_rows() {
        let json = report::BenchReport::new("demo")
            .config("keys", 1024)
            .config("mode", report::json_str("smoke"))
            .row(report::BenchRow::rate("cell-a", 1234.56).field("msgs", 42))
            .row(report::BenchRow::plain("cell-b").field("ok", true))
            .summary("gate_passed", true)
            .to_json();
        assert!(json.starts_with("{\n  \"schema\": \"arbitree-bench-report/v1\",\n"));
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\"git_rev\": \""));
        assert!(json.contains("\"config\": {\"keys\": 1024, \"mode\": \"smoke\"}"));
        assert!(json.contains("{\"name\": \"cell-a\", \"ops_per_sec\": 1234.6, \"msgs\": 42},"));
        assert!(json.contains("{\"name\": \"cell-b\", \"ok\": true}"));
        assert!(json.ends_with("  ],\n  \"gate_passed\": true\n}\n"));
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(report::json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(report::json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn git_rev_is_hex_or_unknown() {
        let rev = report::git_rev();
        assert!(
            rev == "unknown" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "unexpected git_rev: {rev}"
        );
    }
}
