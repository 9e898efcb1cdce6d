//! The paper's evaluation in one binary: one subcommand per table or
//! figure, and with no subcommand a one-shot reproduction certificate that
//! programmatically checks every claim the paper makes in its evaluation
//! and prints a PASS/FAIL checklist.
//!
//! Usage:
//! - `paper_report [--trials <k>]`: the certificate (default 20000 trials;
//!   raise for tighter empirical tolerances).
//! - `paper_report table1`: Table 1, the node bookkeeping of the Figure 1
//!   tree.
//! - `paper_report example`: the §3.4 running example, measured vs paper.
//! - `paper_report fig2 [--n <max_n>] [--csv] [--svg <dir>]`: Figure 2,
//!   communication costs (default n up to 520).
//! - `paper_report fig3|fig4 [--n <max_n>] [--p <availability>] [--csv]
//!   [--svg <dir>]`: Figures 3 and 4, read and write loads (defaults 520,
//!   0.7); `fig4` adds the §3.3 lower-bound table.
//! - `paper_report availability [--n <finite_n>]`: the §3.3 availability
//!   limits next to a finite Algorithm-1 tree (default n = 400).
//!
//! `--csv` prints the figure's series as CSV instead of tables and charts;
//! `--svg <dir>` also writes the figure's chart as an SVG file into `dir`.
//! An unknown subcommand or a missing or malformed flag value exits with
//! status 2.

use arbitree_analysis::figures::{
    self, availability_limits, emit_figure_charts, lower_bound_comparison, SeriesPoint,
};
use arbitree_analysis::report::{fmt_f, render_csv, render_series, render_table};
use arbitree_analysis::stats::summarize;
use arbitree_analysis::{crossover, metrics, Configuration};
use arbitree_bench::arg_or;
use arbitree_core::builder::{balanced, complete_binary, mostly_write};
use arbitree_core::{
    algorithm1_read_availability_limit, algorithm1_write_availability_limit, ArbitraryProtocol,
    ArbitraryTree, LevelSpec, TreeMetrics, TreeSpec,
};
use arbitree_sim::{
    empirical_availability, empirical_load, run_simulation, FailureSchedule, SimConfig, SimDuration,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args
        .get(1)
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
    {
        None => certificate(&args),
        Some("table1") => table1(),
        Some("example") => example(),
        Some("fig2") => figure(&FIG2, &args),
        Some("fig3") => figure(&FIG3, &args),
        Some("fig4") => figure(&FIG4, &args),
        Some("availability") => availability(&args),
        Some(other) => {
            eprintln!(
                "error: unknown subcommand {other:?} \
                 (expected table1, example, fig2, fig3, fig4 or availability)"
            );
            std::process::exit(2)
        }
    }
}

/// Table 1: the total, physical and logical node counts of every level of
/// the Figure 1 tree (spec `1-3-5` with four logical filler nodes on
/// level 2).
fn table1() {
    let spec = TreeSpec::new(vec![
        LevelSpec::logical(1),
        LevelSpec::physical(3),
        LevelSpec {
            physical: 5,
            logical: 4,
        },
    ]);
    let tree = ArbitraryTree::from_spec(&spec).expect("Figure 1 tree is valid");

    println!(
        "Table 1 — node bookkeeping of the Figure 1 tree ({})\n",
        tree.spec()
    );
    let rows: Vec<Vec<String>> = (0..=tree.height())
        .map(|k| {
            vec![
                format!("m_{k} = {}", tree.level_total(k)),
                format!("m_phy{k} = {}", tree.level_physical(k)),
                format!("m_log{k} = {}", tree.level_logical(k)),
            ]
        })
        .collect();
    print!("{}", render_table(&["m_k", "m_phy_k", "m_log_k"], &rows));

    println!();
    println!("n        = {}", tree.replica_count());
    println!(
        "K_phy    = {:?}  (|K_phy| = {})",
        tree.physical_levels(),
        tree.physical_level_count()
    );
    println!(
        "K_log    = {:?}  (|K_log| = {})",
        tree.logical_levels(),
        tree.logical_levels().len()
    );
    println!(
        "m(R)     = {}",
        arbitree_core::read_quorum_count(&tree).expect("small tree")
    );
    println!("m(W)     = {}", arbitree_core::write_quorum_count(&tree));
}

/// The §3.4 running example: every metric the paper derives for the
/// 8-replica `1-3-5` tree at p = 0.7, side by side with the paper's values.
fn example() {
    let tree = ArbitraryTree::parse("1-3-5").expect("paper example tree");
    let m = TreeMetrics::new(&tree);
    let p = 0.7;

    println!(
        "§3.4 example — spec {}, n = {}, p = {p}\n",
        tree.spec(),
        tree.replica_count()
    );
    let row = |name: &str, measured: f64, paper: f64| {
        vec![name.to_string(), fmt_f(measured), fmt_f(paper)]
    };
    let rows = vec![
        row("RD_cost", m.read_cost().avg, 2.0),
        row("RD_availability(0.7)", m.read_availability(p), 0.97),
        row("L_RD", m.read_load(), 1.0 / 3.0),
        row("WR_cost", m.write_cost().avg, 4.0),
        row("WR_availability(0.7)", m.write_availability(p), 0.45),
        row("L_WR", m.write_load(), 0.5),
        row("E[L_RD]", m.expected_read_load(p), 0.35),
        row("E[L_WR]", m.expected_write_load(p), 0.775),
    ];
    print!("{}", render_table(&["metric", "measured", "paper"], &rows));
}

/// A series column after `n`: table header, CSV header, value.
type Column = (&'static str, &'static str, fn(&SeriesPoint) -> f64);

/// One of Figures 2–4: which series columns it reports and which one it
/// charts.
struct Figure {
    number: u8,
    caption: &'static str,
    /// Whether the figure depends on `--p`; Figure 2's costs do not.
    takes_p: bool,
    columns: &'static [Column],
    chart: fn(&SeriesPoint) -> f64,
    svg_title: &'static str,
    svg_file: &'static str,
    chart_label: &'static str,
    shape_checks: &'static [&'static str],
}

const FIG2: Figure = Figure {
    number: 2,
    caption: "communication costs of read and write operations",
    takes_p: false,
    columns: &[
        ("read_cost", "read_cost", |p| p.read_cost),
        ("write_cost", "write_cost", |p| p.write_cost),
    ],
    chart: |p| p.write_cost,
    svg_title: "Figure 2: write communication cost vs n",
    svg_file: "fig2_write_cost.svg",
    chart_label: "write cost vs n",
    shape_checks: &[
        "MOSTLY-READ: read cost 1, write cost n (ROWA extremes)",
        "MOSTLY-WRITE: write cost ~2, read cost ~n/2",
        "ARBITRARY: both costs ~sqrt(n); lowest write cost of the first four",
        "BINARY: highest costs of the first four; UNMODIFIED: lowest read cost log2(n+1)",
    ],
};

const FIG3: Figure = Figure {
    number: 3,
    caption: "(expected) system loads of read operations",
    takes_p: true,
    columns: &[
        ("read_load", "read_load", |p| p.read_load),
        ("E[read_load]", "expected_read_load", |p| {
            p.expected_read_load
        }),
        ("read_avail", "read_availability", |p| p.read_availability),
    ],
    chart: |p| p.expected_read_load,
    svg_title: "Figure 3: expected read load vs n (p as given)",
    svg_file: "fig3_read_load.svg",
    chart_label: "E[read load] vs n",
    shape_checks: &[
        "MOSTLY-READ: lowest (1/n, stable); MOSTLY-WRITE: 1/2, unstable",
        "UNMODIFIED: highest, 1 (root in every read quorum)",
        "HQC: least of the first four (n^-0.37); ARBITRARY: 1/4 for n > 32",
        "BINARY: 2/(log2(n+1)+1)",
    ],
};

const FIG4: Figure = Figure {
    number: 4,
    caption: "(expected) system loads of write operations",
    takes_p: true,
    columns: &[
        ("write_load", "write_load", |p| p.write_load),
        ("E[write_load]", "expected_write_load", |p| {
            p.expected_write_load
        }),
        ("write_avail", "write_availability", |p| {
            p.write_availability
        }),
    ],
    chart: |p| p.expected_write_load,
    svg_title: "Figure 4: expected write load vs n (p as given)",
    svg_file: "fig4_write_load.svg",
    chart_label: "E[write load] vs n",
    shape_checks: &[
        "MOSTLY-READ: highest (1); MOSTLY-WRITE: least, 2/(n-1) for odd n",
        "BINARY: highest of the first four; ARBITRARY: least (1/sqrt(n))",
        "UNMODIFIED: second lowest, 1/log2(n+1); HQC: best expected load for large n",
    ],
};

/// Prints `fig` over the six §4 configurations for sizes up to `--n`: as
/// CSV with `--csv`, else as per-configuration tables, a terminal chart
/// (and an SVG with `--svg`) and the paper's shape claims.
fn figure(fig: &Figure, args: &[String]) {
    let max_n: usize = arg_or(args, "--n", 520);
    let (p, p_note) = if fig.takes_p {
        let p: f64 = arg_or(args, "--p", 0.7);
        (p, format!(", p = {p}"))
    } else {
        (0.7, String::new())
    };
    println!(
        "Figure {} — {} (n up to {max_n}{p_note})\n",
        fig.number, fig.caption
    );
    let data = figures::series(max_n, p);
    let values = |pt: &SeriesPoint| -> Vec<String> {
        fig.columns.iter().map(|c| fmt_f((c.2)(pt))).collect()
    };
    if args.iter().any(|a| a == "--csv") {
        let headers: Vec<&str> = fig.columns.iter().map(|c| c.1).collect();
        print!("{}", render_csv(&data, &headers, values));
        return;
    }
    let headers: Vec<&str> = std::iter::once("n")
        .chain(fig.columns.iter().map(|c| c.0))
        .collect();
    print!(
        "{}",
        render_series(&data, &headers, |pt| {
            std::iter::once(pt.n.to_string())
                .chain(values(pt))
                .collect()
        })
    );
    emit_figure_charts(
        &data,
        fig.chart,
        args,
        fig.svg_title,
        fig.svg_file,
        fig.chart_label,
    );
    if fig.number == 4 {
        println!("§3.3 new lower bound for the binary structure of [2]:");
        println!("(UNMODIFIED write load 1/log2(n+1) vs Naor–Wool 2/(log2(n+1)+1))\n");
        let rows: Vec<Vec<String>> = lower_bound_comparison(max_n)
            .into_iter()
            .map(|(n, ours, nw)| vec![n.to_string(), fmt_f(ours), fmt_f(nw)])
            .collect();
        print!(
            "{}",
            render_table(&["n", "1/log2(n+1)", "2/(log2(n+1)+1)"], &rows)
        );
        println!();
    }
    println!("Paper shape checks:");
    for check in fig.shape_checks {
        println!("  {check}");
    }
}

/// §3.3 asymptotic availability: the limits `lim RDavail = (1−(1−p)⁴)⁷`
/// and `lim WRavail = 1−(1−p⁴)⁷` of Algorithm-1 trees, next to the values
/// of a finite tree of `--n` replicas showing convergence.
fn availability(args: &[String]) {
    let finite_n: usize = arg_or(args, "--n", 400);
    let spec = balanced(finite_n).expect("n > 64");
    let tree = ArbitraryTree::from_spec(&spec).expect("valid");
    let m = TreeMetrics::new(&tree);

    println!("§3.3 — availability of Algorithm-1 trees: finite n = {finite_n} vs the n→∞ limits\n");
    let ps = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95];
    let rows: Vec<Vec<String>> = availability_limits(&ps)
        .into_iter()
        .map(|(p, lim_read, lim_write)| {
            vec![
                fmt_f(p),
                fmt_f(m.read_availability(p)),
                fmt_f(lim_read),
                fmt_f(m.write_availability(p)),
                fmt_f(lim_write),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "p",
                "RDavail(n)",
                "lim RDavail",
                "WRavail(n)",
                "lim WRavail"
            ],
            &rows
        )
    );
    println!();
    println!("Paper claim: for p > 0.8 both operations have availability ~1.");
}

struct Checklist {
    passed: u32,
    failed: u32,
}

impl Checklist {
    fn check(&mut self, claim: &str, ok: bool) {
        if ok {
            self.passed += 1;
            println!("  PASS  {claim}");
        } else {
            self.failed += 1;
            println!("  FAIL  {claim}");
        }
    }
}

/// The reproduction certificate: checks every claim and exits 1 if any
/// fails.
fn certificate(args: &[String]) {
    let trials: u32 = arg_or(args, "--trials", 20_000);
    let mut c = Checklist {
        passed: 0,
        failed: 0,
    };

    println!("== Table 1 / §3.4 running example (tree 1-3-5, p = 0.7) ==");
    let tree = ArbitraryTree::parse("1-3-5").expect("valid");
    let m = TreeMetrics::new(&tree);
    c.check("m(R) = 15, m(W) = 2", {
        arbitree_core::read_quorum_count(&tree) == Some(15)
            && arbitree_core::write_quorum_count(&tree) == 2
    });
    c.check("RD_cost = 2, WR_cost = 4 (min 3, max 5)", {
        m.read_cost().avg == 2.0
            && m.write_cost().avg == 4.0
            && m.write_cost().min == 3.0
            && m.write_cost().max == 5.0
    });
    c.check(
        "RDavail(0.7) ~ 0.97, WRavail(0.7) ~ 0.45",
        (m.read_availability(0.7) - 0.97).abs() < 5e-3
            && (m.write_availability(0.7) - 0.45).abs() < 5e-3,
    );
    c.check(
        "L_RD = 1/3, L_WR = 1/2; E[L_RD] ~ 0.35, E[L_WR] ~ 0.775",
        (m.read_load() - 1.0 / 3.0).abs() < 1e-12
            && (m.write_load() - 0.5).abs() < 1e-12
            && (m.expected_read_load(0.7) - 0.35).abs() < 5e-3
            && (m.expected_write_load(0.7) - 0.775).abs() < 5e-3,
    );

    println!("== Algorithm 1 (§3.3) ==");
    let ok = (65..=400).step_by(7).all(|n| {
        let t = ArbitraryTree::from_spec(&balanced(n).expect("valid")).expect("valid");
        let mm = TreeMetrics::new(&t);
        let k = (n as f64).sqrt().round();
        (mm.write_load() - 1.0 / k).abs() < 1e-9 && mm.read_load() == 0.25
    });
    c.check("write load 1/sqrt(n) and read load 1/4 for all n > 64", ok);
    c.check(
        "availability limits ~1 for p > 0.8",
        algorithm1_read_availability_limit(0.85) > 0.98
            && algorithm1_write_availability_limit(0.85) > 0.97,
    );

    println!("== §3.3 lower bound for the binary structure of [2] ==");
    let ok = (2..=10).all(|h| {
        let t = ArbitraryTree::from_spec(&complete_binary(h).expect("valid")).expect("valid");
        let n = t.replica_count() as f64;
        let mm = TreeMetrics::new(&t);
        mm.write_load() < 2.0 / ((n + 1.0).log2() + 1.0)
    });
    c.check("1/log2(n+1) < 2/(log2(n+1)+1) for every height", ok);

    println!("== Figure 2 shapes (communication costs) ==");
    let f2 = figures::series(300, 0.7);
    c.check(
        "MOSTLY-READ costs 1/n; MOSTLY-WRITE write cost <= 2.5",
        f2.iter()
            .filter(|p| p.config == "MOSTLY-READ")
            .all(|p| p.read_cost == 1.0 && p.write_cost == p.n as f64)
            && f2
                .iter()
                .filter(|p| p.config == "MOSTLY-WRITE")
                .all(|p| p.write_cost <= 2.5),
    );
    c.check(
        "BINARY has the highest costs of the first four at n = 127",
        {
            let b = figures::point(Configuration::Binary, 127, 0.7);
            b.read_cost > figures::point(Configuration::Unmodified, 127, 0.7).read_cost
                && b.read_cost > figures::point(Configuration::Arbitrary, 127, 0.7).read_cost
                && b.read_cost > figures::point(Configuration::Hqc, 127, 0.7).read_cost
        },
    );
    c.check(
        "UNMODIFIED write cost crosses HQC's in the low hundreds",
        matches!(
            crossover(Configuration::Unmodified, Configuration::Hqc, metrics::write_cost, 3..600, 0.7),
            Some(n) if n < 600
        ),
    );

    println!("== Figure 3 shapes (read loads) ==");
    let f3 = figures::series(300, 0.7);
    c.check(
        "UNMODIFIED read load 1; ARBITRARY 1/4 beyond n = 32; MOSTLY-WRITE 1/2",
        f3.iter()
            .filter(|p| p.config == "UNMODIFIED")
            .all(|p| p.read_load == 1.0)
            && f3
                .iter()
                .filter(|p| p.config == "ARBITRARY" && p.n > 32)
                .all(|p| p.read_load == 0.25)
            && f3
                .iter()
                .filter(|p| p.config == "MOSTLY-WRITE")
                .all(|p| p.read_load == 0.5),
    );
    c.check(
        "HQC read load n^-0.37 is least of the first four at n = 243",
        {
            let hqc = figures::point(Configuration::Hqc, 243, 0.7);
            hqc.read_load < figures::point(Configuration::Binary, 243, 0.7).read_load
                && hqc.read_load < figures::point(Configuration::Arbitrary, 243, 0.7).read_load
                && hqc.read_load < figures::point(Configuration::Unmodified, 243, 0.7).read_load
        },
    );

    println!("== Figure 4 shapes (write loads) ==");
    c.check(
        "ARBITRARY has the least write load of the first four at n = 127",
        {
            let a = figures::point(Configuration::Arbitrary, 127, 0.7);
            a.write_load < figures::point(Configuration::Binary, 127, 0.7).write_load
                && a.write_load < figures::point(Configuration::Unmodified, 127, 0.7).write_load
                && a.write_load < figures::point(Configuration::Hqc, 127, 0.7).write_load
        },
    );
    c.check(
        "MOSTLY-WRITE write load = 2/(n-1) for odd n",
        [9usize, 45, 101].iter().all(|&n| {
            let t = ArbitraryTree::from_spec(&mostly_write(n).expect("valid")).expect("valid");
            (TreeMetrics::new(&t).write_load() - 2.0 / (n as f64 - 1.0)).abs() < 1e-12
        }),
    );

    println!("== Empirical cross-validation ({trials} trials) ==");
    let proto = ArbitraryProtocol::parse("1-3-5").expect("valid");
    let (er, ew) = empirical_availability(&proto, 0.7, trials, 1);
    c.check(
        "sampled availability matches closed forms within 0.01",
        (er - m.read_availability(0.7)).abs() < 0.01
            && (ew - m.write_availability(0.7)).abs() < 0.01,
    );
    let (lr, lw) = empirical_load(&proto, trials, 2);
    c.check(
        "sampled loads match closed forms within 0.01",
        (lr - 1.0 / 3.0).abs() < 0.01 && (lw - 0.5).abs() < 0.01,
    );

    println!("== Dynamic simulation (5 seeds, churn) ==");
    let mut read_costs = Vec::new();
    let mut consistent = true;
    for seed in 0..5 {
        let config = SimConfig {
            seed,
            duration: SimDuration::from_millis(200),
            ..SimConfig::default()
        };
        let schedule = FailureSchedule::random(
            8,
            config.duration,
            SimDuration::from_millis(60),
            SimDuration::from_millis(15),
            seed + 40,
        );
        let proto = ArbitraryProtocol::parse("1-3-5").expect("valid");
        let report = run_simulation(config, proto, &schedule);
        consistent &= report.consistent;
        if let Some(rc) = report.metrics.empirical_read_cost() {
            read_costs.push(rc);
        }
    }
    c.check("one-copy consistency holds in every seeded run", consistent);
    let rc = summarize(&read_costs);
    c.check(
        &format!("measured read cost {rc} equals RD_cost = 2"),
        (rc.mean - 2.0).abs() < 1e-9,
    );

    println!();
    println!("{} claims passed, {} failed", c.passed, c.failed);
    if c.failed > 0 {
        std::process::exit(1);
    }
}
