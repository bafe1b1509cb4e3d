//! Criterion microbenches of the likelihood kernels — the computation the
//! paper's workers spend their time in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fdml_core::config::SearchConfig;
use fdml_datagen::{evolve, yule_tree, EvolutionConfig};
use fdml_likelihood::categories::RateCategories;
use fdml_likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fdml_likelihood::f84::F84Model;
use fdml_likelihood::kernels::{self, KernelMode, KernelScratch};
use fdml_likelihood::reference;
use fdml_phylo::alignment::Alignment;
use fdml_phylo::tree::Tree;
use std::hint::black_box;

fn dataset(taxa: usize, sites: usize) -> (Alignment, Tree) {
    let tree = yule_tree(taxa, 0.08, 42);
    let alignment = evolve(&tree, sites, &EvolutionConfig::default(), 7, "t");
    (alignment, tree)
}

fn bench_transition_matrix(c: &mut Criterion) {
    let model = F84Model::new([0.26, 0.22, 0.31, 0.21], 2.0);
    c.bench_function("f84_transition_matrix", |b| {
        b.iter(|| black_box(model.transition_matrix(black_box(0.137), 1.0)))
    });
    c.bench_function("f84_coefficients_d2", |b| {
        b.iter(|| black_box(model.coefficients_d2(black_box(0.137), 1.0)))
    });
}

fn bench_full_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_evaluate");
    for taxa in [16usize, 50, 101] {
        let (alignment, tree) = dataset(taxa, 500);
        let engine = SearchConfig::default().build_engine(&alignment);
        group.bench_with_input(BenchmarkId::new("evaluate", taxa), &taxa, |b, _| {
            b.iter(|| black_box(engine.evaluate(&tree).ln_likelihood))
        });
        group.bench_with_input(BenchmarkId::new("optimize", taxa), &taxa, |b, _| {
            b.iter(|| {
                let mut t = tree.clone();
                black_box(
                    engine
                        .optimize(&mut t, &OptimizeOptions::default())
                        .ln_likelihood,
                )
            })
        });
    }
    group.finish();
}

fn bench_patterns_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate_by_sites");
    for sites in [200usize, 800, 1858] {
        let (alignment, tree) = dataset(32, sites);
        let engine = LikelihoodEngine::new(&alignment);
        group.bench_with_input(BenchmarkId::from_parameter(sites), &sites, |b, _| {
            b.iter(|| black_box(engine.evaluate(&tree).ln_likelihood))
        });
    }
    group.finish();
}

/// The raw CLV-combine kernel, optimized vs reference, isolated from the
/// engine (no tree traversal, no Newton).
fn bench_combine_kernels(c: &mut Criterion) {
    let np = 1024usize;
    let cats = RateCategories::single(np);
    let model = F84Model::new([0.26, 0.22, 0.31, 0.21], 2.0);
    let mut scratch = KernelScratch::new(&cats);
    let clv1: Vec<f64> = (0..np * 4).map(|i| 0.05 + (i % 17) as f64 / 18.0).collect();
    let clv2: Vec<f64> = (0..np * 4).map(|i| 0.05 + (i % 13) as f64 / 14.0).collect();
    let scale = vec![0i32; np];
    let mut out = vec![0.0; np * 4];
    let mut sc_out = vec![0i32; np];
    let mut group = c.benchmark_group("combine_clv_1024");
    for mode in [KernelMode::Optimized, KernelMode::Reference] {
        let label = match mode {
            KernelMode::Optimized => "optimized",
            KernelMode::Reference => "reference",
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(kernels::combine_edges(
                    mode,
                    &model,
                    &cats,
                    &mut scratch,
                    0.13,
                    black_box(&clv1),
                    &scale,
                    0.29,
                    black_box(&clv2),
                    &scale,
                    &mut out,
                    &mut sc_out,
                ))
            })
        });
    }
    group.finish();

    let mut w_opt = vec![fdml_likelihood::clv::WTerms::ZERO; np];
    let mut group = c.benchmark_group("w_terms_1024");
    group.bench_function("optimized", |b| {
        b.iter(|| {
            black_box(kernels::compute_w_terms(
                KernelMode::Optimized,
                &model,
                black_box(&clv1),
                black_box(&clv2),
                &mut w_opt,
            ))
        })
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            black_box(reference::edge_w_terms(
                &model,
                black_box(&clv1),
                black_box(&clv2),
                &mut w_opt,
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_transition_matrix, bench_full_evaluation, bench_patterns_scaling,
        bench_combine_kernels
}
criterion_main!(benches);
