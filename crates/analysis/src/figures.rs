//! Data series regenerating the paper's evaluation figures.
//!
//! The paper's figures are plots; these functions emit the numeric series
//! behind them — one [`SeriesPoint`] per (configuration, n) — which the
//! `arbitree-bench` binaries print as tables for comparison against the
//! paper's shapes.

use crate::chart::{render_chart, ChartSeries};
use crate::config::Configuration;

/// One point of a figure series, carrying every metric the paper plots.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Configuration name (paper spelling).
    pub config: &'static str,
    /// Actual replica count of the built protocol.
    pub n: usize,
    /// Read communication cost (strategy average).
    pub read_cost: f64,
    /// Write communication cost (strategy average).
    pub write_cost: f64,
    /// Optimal read load.
    pub read_load: f64,
    /// Optimal write load.
    pub write_load: f64,
    /// Read availability at the sweep's `p`.
    pub read_availability: f64,
    /// Write availability at the sweep's `p`.
    pub write_availability: f64,
    /// Expected read load at `p` (equation 3.2).
    pub expected_read_load: f64,
    /// Expected write load at `p` (equation 3.2).
    pub expected_write_load: f64,
}

impl SeriesPoint {
    /// §3.2.3 stability gap for reads: `E[L_RD] − L_RD`. A *stable* system
    /// (the paper's term) keeps this near zero because its read
    /// availability is high.
    pub fn read_stability_gap(&self) -> f64 {
        self.expected_read_load - self.read_load
    }

    /// §3.2.3 stability gap for writes: `E[L_WR] − L_WR`.
    pub fn write_stability_gap(&self) -> f64 {
        self.expected_write_load - self.write_load
    }
}

/// Computes the full metric set of `config` at (the nearest feasible size
/// to) `n`, with per-replica availability `p`.
pub fn point(config: Configuration, n: usize, p: f64) -> SeriesPoint {
    let proto = config.build(n);
    SeriesPoint {
        config: config.name(),
        n: proto.universe().len(),
        read_cost: proto.read_cost().avg,
        write_cost: proto.write_cost().avg,
        read_load: proto.read_load(),
        write_load: proto.write_load(),
        read_availability: proto.read_availability(p),
        write_availability: proto.write_availability(p),
        expected_read_load: proto.expected_read_load(p),
        expected_write_load: proto.expected_write_load(p),
    }
}

/// The default replica-count sweep used by the figure binaries: every
/// configuration contributes its feasible sizes up to `max_n`, deduplicated
/// per configuration.
pub fn sweep(config: Configuration, max_n: usize) -> Vec<usize> {
    match config {
        // Dense-feasible configurations sample a spread; structured ones use
        // their exact feasible sizes.
        Configuration::Arbitrary | Configuration::MostlyRead | Configuration::MostlyWrite => {
            let candidates = [5, 9, 15, 27, 45, 65, 81, 101, 129, 201, 243, 301, 401, 511];
            candidates
                .into_iter()
                .filter(|&n| n >= config.min_size() && n <= max_n)
                .collect()
        }
        _ => config.feasible_sizes(max_n),
    }
}

/// The series behind Figures 2–4: every §4 configuration at each of its
/// feasible sizes up to `max_n`. `p` is the per-replica availability for
/// the availabilities and expected loads (Figures 3 and 4); Figure 2's
/// communication costs do not depend on it.
pub fn series(max_n: usize, p: f64) -> Vec<SeriesPoint> {
    let mut out = Vec::new();
    for config in Configuration::ALL {
        for n in sweep(config, max_n) {
            out.push(point(config, n, p));
        }
    }
    out
}

/// §3.3's asymptotic availability series for Algorithm-1 trees: rows of
/// `(p, lim read availability, lim write availability)`.
pub fn availability_limits(ps: &[f64]) -> Vec<(f64, f64, f64)> {
    ps.iter()
        .map(|&p| {
            (
                p,
                arbitree_core::algorithm1_read_availability_limit(p),
                arbitree_core::algorithm1_write_availability_limit(p),
            )
        })
        .collect()
}

/// Groups figure `data` into one chart series per configuration (in first
/// appearance order), plotting `metric` against the replica count.
pub fn config_series(
    data: &[SeriesPoint],
    metric: impl Fn(&SeriesPoint) -> f64,
) -> Vec<ChartSeries> {
    let mut configs: Vec<&'static str> = data.iter().map(|p| p.config).collect();
    configs.dedup();
    configs
        .into_iter()
        .map(|config| ChartSeries {
            label: config.to_string(),
            points: data
                .iter()
                .filter(|p| p.config == config)
                .map(|p| (p.n as f64, metric(p)))
                .collect(),
        })
        .collect()
}

/// The shared chart tail of `paper_report fig2|fig3|fig4`: if `args`
/// carries `--svg [dir]`, writes the figure as `svg_file` into `dir`
/// (default `.`); then prints the terminal chart under `chart_label`.
pub fn emit_figure_charts(
    data: &[SeriesPoint],
    metric: impl Fn(&SeriesPoint) -> f64,
    args: &[String],
    svg_title: &str,
    svg_file: &str,
    chart_label: &str,
) {
    let series = config_series(data, metric);
    if let Some(i) = args.iter().position(|a| a == "--svg") {
        let dir = args.get(i + 1).cloned().unwrap_or_else(|| ".".into());
        let svg = crate::svg::render_svg(&series, svg_title, 860, 480);
        let path = std::path::Path::new(&dir).join(svg_file);
        std::fs::write(&path, svg).expect("write svg");
        println!("wrote {}", path.display());
    }
    println!("{chart_label}:");
    println!("{}", render_chart(&series, 72, 18));
}

/// The §3.3 lower-bound comparison printed alongside Figure 4: for each
/// binary-tree size, the `UNMODIFIED` write load `1/log₂(n+1)` versus the
/// Naor–Wool bound `2/(log₂(n+1)+1)` for the structure of \[2\].
pub fn lower_bound_comparison(max_n: usize) -> Vec<(usize, f64, f64)> {
    Configuration::Unmodified
        .feasible_sizes(max_n)
        .into_iter()
        .map(|n| {
            let log = ((n + 1) as f64).log2();
            (n, 1.0 / log, 2.0 / (log + 1.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shapes_match_paper_claims() {
        let data = series(300, 0.7);
        // MOSTLY-READ: read cost 1, write cost n.
        for p in data.iter().filter(|p| p.config == "MOSTLY-READ") {
            assert_eq!(p.read_cost, 1.0);
            assert_eq!(p.write_cost, p.n as f64);
        }
        // MOSTLY-WRITE: write cost ≈ 2.
        for p in data.iter().filter(|p| p.config == "MOSTLY-WRITE") {
            assert!(p.write_cost <= 2.5, "n={}: {}", p.n, p.write_cost);
        }
        // ARBITRARY (n > 64): read and write cost √n.
        for p in data.iter().filter(|p| p.config == "ARBITRARY" && p.n > 64) {
            let sqrt = (p.n as f64).sqrt();
            assert!((p.read_cost - sqrt.round()).abs() < 1.0, "n={}", p.n);
            assert!((p.write_cost - sqrt).abs() < sqrt * 0.15, "n={}", p.n);
        }
        // BINARY has the highest cost of the first four configurations at
        // comparable sizes (paper: "BINARY has the highest costs").
        let binary_127 = data
            .iter()
            .find(|p| p.config == "BINARY" && p.n == 127)
            .unwrap();
        let unmod_127 = data
            .iter()
            .find(|p| p.config == "UNMODIFIED" && p.n == 127)
            .unwrap();
        assert!(binary_127.read_cost > unmod_127.read_cost);
    }

    #[test]
    fn figure3_read_load_claims() {
        let data = series(300, 0.8);
        // UNMODIFIED read load is 1 for every n.
        for p in data.iter().filter(|p| p.config == "UNMODIFIED") {
            assert_eq!(p.read_load, 1.0);
        }
        // MOSTLY-READ: 1/n. MOSTLY-WRITE: 1/2.
        for p in data.iter().filter(|p| p.config == "MOSTLY-READ") {
            assert!((p.read_load - 1.0 / p.n as f64).abs() < 1e-12);
        }
        for p in data.iter().filter(|p| p.config == "MOSTLY-WRITE") {
            assert_eq!(p.read_load, 0.5);
        }
        // ARBITRARY read load 1/4 for n > 32.
        for p in data.iter().filter(|p| p.config == "ARBITRARY" && p.n > 32) {
            assert_eq!(p.read_load, 0.25, "n={}", p.n);
        }
        // HQC has the least read load among the first four for larger n.
        let hqc = data
            .iter()
            .find(|p| p.config == "HQC" && p.n == 243)
            .unwrap();
        for other in ["BINARY", "UNMODIFIED", "ARBITRARY"] {
            let o = data
                .iter()
                .filter(|p| p.config == other && p.n >= 127)
                .min_by(|a, b| a.read_load.total_cmp(&b.read_load))
                .unwrap();
            assert!(hqc.read_load < o.read_load + 1e-9, "{other}");
        }
    }

    #[test]
    fn figure4_write_load_claims() {
        let data = series(300, 0.8);
        // MOSTLY-READ write load 1; MOSTLY-WRITE least at 2/(n−1) (odd n).
        for p in data.iter().filter(|p| p.config == "MOSTLY-READ") {
            assert_eq!(p.write_load, 1.0);
        }
        // BINARY has the highest write load among the first four.
        for n in [63usize, 127] {
            let binary = point(Configuration::Binary, n, 0.8);
            for other in [Configuration::Unmodified, Configuration::Arbitrary] {
                let o = point(other, n, 0.8);
                assert!(binary.write_load > o.write_load, "{other:?} at n={n}");
            }
        }
        // ARBITRARY write load = 1/√n.
        for p in data.iter().filter(|p| p.config == "ARBITRARY" && p.n > 64) {
            assert!(
                (p.write_load - 1.0 / (p.n as f64).sqrt()).abs() < 0.01,
                "n={}",
                p.n
            );
        }
    }

    #[test]
    fn config_series_groups_in_order() {
        let data = series(100, 0.7);
        let series = config_series(&data, |p| p.write_cost);
        assert_eq!(series.len(), Configuration::ALL.len());
        // First appearance order matches the sweep's configuration order.
        assert_eq!(series[0].label, Configuration::ALL[0].name());
        // Every point lands in exactly one series.
        let total: usize = series.iter().map(|s| s.points.len()).sum();
        assert_eq!(total, data.len());
        // Metric values survive the grouping.
        let first = &series[0].points[0];
        let src = data.iter().find(|p| p.config == series[0].label).unwrap();
        assert_eq!(first.0, src.n as f64);
        assert_eq!(first.1, src.write_cost);
    }

    #[test]
    fn availability_limits_table() {
        let rows = availability_limits(&[0.6, 0.8, 0.9]);
        assert_eq!(rows.len(), 3);
        // p > 0.8 → both ≈ 1 (§3.3).
        let (_, r, w) = rows[2];
        assert!(r > 0.99 && w > 0.99);
        // Monotone in p.
        assert!(rows[0].1 < rows[1].1);
        assert!(rows[0].2 < rows[1].2);
    }

    #[test]
    fn lower_bound_strictly_improves() {
        for (n, ours, naor_wool) in lower_bound_comparison(1000) {
            assert!(ours < naor_wool, "n={n}: {ours} !< {naor_wool}");
        }
    }

    #[test]
    fn stability_classification_matches_paper() {
        // §4.2.1: MOSTLY-READ's read load is stable; MOSTLY-WRITE's is
        // unstable ("reaches easily to 1"); BINARY, HQC and ARBITRARY have
        // "quite stable" read loads.
        let p = 0.7;
        let n = 101;
        let mostly_read = point(Configuration::MostlyRead, n, p);
        assert!(mostly_read.read_stability_gap() < 0.01);
        let mostly_write = point(Configuration::MostlyWrite, n, p);
        assert!(
            mostly_write.read_stability_gap() > 0.3,
            "gap {}",
            mostly_write.read_stability_gap()
        );
        for cfg in [
            Configuration::Binary,
            Configuration::Hqc,
            Configuration::Arbitrary,
        ] {
            let pt = point(cfg, n, p);
            assert!(
                pt.read_stability_gap() < 0.1,
                "{cfg:?}: {}",
                pt.read_stability_gap()
            );
        }
        // §4.2.2: MOSTLY-WRITE's *write* load is stable, MOSTLY-READ's is not.
        assert!(mostly_write.write_stability_gap() < 0.01);
    }

    #[test]
    fn expected_loads_converge_to_loads_at_high_p() {
        // §4.2.2: expected loads ≈ computed loads once p > 0.8.
        let pt = point(Configuration::Arbitrary, 100, 0.95);
        assert!((pt.expected_write_load - pt.write_load).abs() < 0.02);
        assert!((pt.expected_read_load - pt.read_load).abs() < 0.02);
    }
}
