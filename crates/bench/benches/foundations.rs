//! Criterion benches for the analytic foundations: LP-solver scaling with
//! system size, exact availability enumeration, and closed-form metric
//! evaluation (the machinery behind Figures 2–4).

use arbitree_analysis::{figures, Configuration};
use arbitree_baselines::Majority;
use arbitree_core::{ArbitraryTree, TreeMetrics};
use arbitree_quorum::{exact_availability, optimal_load, ReplicaControl, SetSystem};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Fast-but-meaningful defaults so the full suite finishes in minutes.
fn fast() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(2))
        .sample_size(20)
        .configure_from_args()
}

fn bench_lp_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_optimal_load");
    for n in [5usize, 7, 9] {
        let m = Majority::new(n);
        let sys = SetSystem::new(m.universe(), m.read_quorums().collect()).expect("valid");
        group.bench_with_input(
            BenchmarkId::new("majority", format!("n{n}_m{}", sys.len())),
            &sys,
            |b, sys| {
                b.iter(|| black_box(optimal_load(sys)));
            },
        );
    }
    group.finish();
}

fn bench_exact_availability(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_availability");
    group.sample_size(10);
    for n in [9usize, 12, 15] {
        let m = Majority::new(n);
        let sys = SetSystem::new(m.universe(), m.read_quorums().collect()).expect("valid");
        group.bench_with_input(BenchmarkId::from_parameter(n), &sys, |b, sys| {
            b.iter(|| black_box(exact_availability(sys, 0.8)));
        });
    }
    group.finish();
}

fn bench_closed_form_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("closed_form_metrics");
    let tree = ArbitraryTree::from_spec(&arbitree_core::builder::balanced(400).expect("valid"))
        .expect("valid");
    group.bench_function("arbitrary_n400_full_metrics", |b| {
        b.iter(|| {
            let m = TreeMetrics::new(&tree);
            black_box((
                m.read_cost(),
                m.write_cost(),
                m.read_availability(0.8),
                m.write_availability(0.8),
                m.expected_read_load(0.8),
                m.expected_write_load(0.8),
            ))
        });
    });
    group.bench_function("figure4_series_n260", |b| {
        b.iter(|| black_box(figures::series(260, 0.7)));
    });
    group.finish();
}

fn bench_tree_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_construction");
    for n in [100usize, 400, 1600] {
        group.bench_with_input(BenchmarkId::new("algorithm1", n), &n, |b, &n| {
            b.iter(|| {
                let spec = arbitree_core::builder::balanced(n).expect("valid");
                black_box(ArbitraryTree::from_spec(&spec).expect("valid"))
            });
        });
    }
    for cfg in [Configuration::Binary, Configuration::Hqc] {
        group.bench_with_input(BenchmarkId::new(cfg.name(), 243), &cfg, |b, cfg| {
            b.iter(|| black_box(cfg.build(243).universe().len()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast();
    targets =
      bench_lp_load,
      bench_exact_availability,
      bench_closed_form_metrics,
      bench_tree_construction
}
criterion_main!(benches);
