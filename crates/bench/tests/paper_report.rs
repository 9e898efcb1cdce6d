//! End-to-end checks of the `paper_report` binary: the certificate passes,
//! the artifact subcommands print the paper's figures, and a malformed
//! flag value is rejected instead of falling back to a default.

use std::process::{Command, Output};

fn paper_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_report"))
        .args(args)
        .output()
        .expect("run paper_report")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn certificate_passes_every_claim() {
    let out = paper_report(&[]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.contains("18 claims passed, 0 failed"), "{text}");
}

#[test]
fn table1_prints_the_read_quorum_count() {
    let out = paper_report(&["table1"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("m(R)     = 15"), "{text}");
    assert!(text.contains("m(W)     = 2"), "{text}");
}

#[test]
fn example_prints_the_section_3_4_rows() {
    let out = paper_report(&["example"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    // metric, measured, paper
    for row in [
        ["RD_cost", "2.0000", "2.0000"],
        ["RD_availability(0.7)", "0.9706", "0.9700"],
        ["L_RD", "0.3333", "0.3333"],
        ["WR_cost", "4.0000", "4.0000"],
        ["WR_availability(0.7)", "0.4534", "0.4500"],
        ["L_WR", "0.5000", "0.5000"],
        ["E[L_RD]", "0.3529", "0.3500"],
        ["E[L_WR]", "0.7733", "0.7750"],
    ] {
        assert!(
            text.lines()
                .any(|l| l.split_whitespace().eq(row.iter().copied())),
            "missing row {row:?}:\n{text}"
        );
    }
}

#[test]
fn malformed_flag_value_exits_2() {
    let out = paper_report(&["fig2", "--n", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--n"), "{err}");
}
