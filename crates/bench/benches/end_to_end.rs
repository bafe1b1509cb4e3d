//! End-to-end search benches: the in-process program in both scoring modes
//! and the threaded parallel program on a small dataset.

use criterion::{criterion_group, criterion_main, Criterion};
use fdml_core::config::SearchConfig;
use fdml_core::job::ResolvedJob;
use fdml_core::runner::{run_in_process, run_threaded, RunOptions};
use fdml_datagen::{evolve, yule_tree, EvolutionConfig};
use fdml_phylo::alignment::Alignment;
use std::hint::black_box;

fn dataset() -> Alignment {
    let tree = yule_tree(12, 0.08, 21);
    evolve(&tree, 300, &EvolutionConfig::default(), 5, "t")
}

fn bench_search_modes(c: &mut Criterion) {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 1,
        rearrange_radius: 1,
        final_radius: 1,
        ..Default::default()
    };
    let job = ResolvedJob::single(alignment.clone(), config.clone());
    let edit_scored = ResolvedJob::single(
        alignment,
        SearchConfig {
            incremental: true,
            ..config
        },
    );
    let in_process = |job: &ResolvedJob| {
        run_in_process(job, RunOptions::default()).unwrap().runs[0].ln_likelihood
    };
    let mut group = c.benchmark_group("search_12taxa");
    group.sample_size(10);
    group.bench_function("serial_full_eval", |b| {
        b.iter(|| black_box(in_process(&job)))
    });
    group.bench_function("serial_incremental", |b| {
        b.iter(|| black_box(in_process(&edit_scored)))
    });
    group.bench_function("parallel_6ranks", |b| {
        b.iter(|| {
            black_box(run_threaded(&job, 6, RunOptions::default()).unwrap().runs[0].ln_likelihood)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_search_modes
}
criterion_main!(benches);
