//! Times the gated likelihood workloads under both kernel modes and writes
//! `BENCH_kernels.json` (see `fdml_bench::kernel_report`).
//!
//! Usage:
//!   kernel_report [--quick] [--samples N] [--out PATH] [--intra-threads N]
//!
//! `--quick` shrinks the datasets and sample counts to a CI smoke test;
//! the checked-in report must come from a full (default) run.
//! `--intra-threads N` sets the thread count of the intra-rank scaling
//! rows (default 4, the gated configuration).

use fdml_bench::kernel_report::{
    compare, measure, IntraScalingReport, KernelReport, WalOverheadReport, WorkloadReport,
};
use fdml_bench::Args;
use fdml_core::config::SearchConfig;
use fdml_core::job::ResolvedJob;
use fdml_core::loopback::Loopback;
use fdml_core::runner::{search_on, SearchSession};
use fdml_core::worker::ranks;
use fdml_datagen::{evolve, yule_tree, EvolutionConfig};
use fdml_likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fdml_likelihood::incremental::ClvCache;
use fdml_likelihood::KernelMode;
use fdml_obs::{Event, MemorySink, Obs};
use fdml_phylo::alignment::Alignment;
use fdml_phylo::ops::{apply_move, enumerate_insertion_moves, enumerate_spr_moves, TreeMove};
use fdml_phylo::tree::Tree;
use std::hint::black_box;

fn dataset(taxa: usize, sites: usize) -> (Alignment, Tree) {
    let tree = yule_tree(taxa, 0.08, 42);
    let alignment = evolve(&tree, sites, &EvolutionConfig::default(), 7, "t");
    (alignment, tree)
}

/// Runs one workload under both modes. `work_of` performs one pass and
/// returns its pattern-update count (identical in both modes).
fn run_workload(
    name: &str,
    samples: usize,
    engine: &mut LikelihoodEngine,
    mut pass: impl FnMut(&LikelihoodEngine) -> u64,
) -> WorkloadReport {
    engine.set_kernel_mode(KernelMode::Optimized);
    let updates = pass(engine);
    let optimized = measure(samples, updates, || {
        black_box(pass(engine));
    });
    engine.set_kernel_mode(KernelMode::Reference);
    let reference = measure(samples, updates, || {
        black_box(pass(engine));
    });
    engine.set_kernel_mode(KernelMode::Optimized);
    let row = compare(name, optimized, reference);
    println!(
        "{:<32} opt {:>9.3} ms  ref {:>9.3} ms  {:>7.0} kpat/s  speedup {:.2}x",
        row.name,
        row.optimized.mean_seconds * 1e3,
        row.reference.mean_seconds * 1e3,
        row.optimized.patterns_per_sec / 1e3,
        row.speedup
    );
    row
}

/// Times one candidate batch both ways: incrementally through a fresh
/// per-pass [`ClvCache`] (the build's two full sweeps are included, as in a
/// real round) and from scratch, the way a worker treats a whole-tree task
/// (clone the base, apply the move, optimize the full tree). The
/// `optimized` column holds the incremental timing, so `speedup` is
/// incremental-over-from-scratch.
fn run_incremental_workload(
    name: &str,
    samples: usize,
    engine: &LikelihoodEngine,
    base: &Tree,
    moves: &[TreeMove],
) -> WorkloadReport {
    let opts = OptimizeOptions::default();
    let incremental_pass = || {
        let mut cache = ClvCache::build(engine, base.clone());
        let mut updates = cache.build_work().total_pattern_updates();
        for mv in moves {
            let s = cache.score_edit(engine, mv, &opts).expect("edit scores");
            updates += s.work.total_pattern_updates();
            black_box(s.ln_likelihood);
        }
        updates
    };
    let scratch_pass = || {
        let mut updates = 0u64;
        for mv in moves {
            let mut t = base.clone();
            apply_move(&mut t, mv).expect("move applies to base");
            let r = engine.optimize(&mut t, &opts);
            updates += r.work.total_pattern_updates();
            black_box(r.ln_likelihood);
        }
        updates
    };
    let incremental = measure(samples, incremental_pass(), || {
        black_box(incremental_pass());
    });
    let from_scratch = measure(samples, scratch_pass(), || {
        black_box(scratch_pass());
    });
    let row = compare(name, incremental, from_scratch);
    println!(
        "{:<32} inc {:>9.3} ms  full {:>8.3} ms  {} moves          speedup {:.2}x",
        row.name,
        row.optimized.mean_seconds * 1e3,
        row.reference.mean_seconds * 1e3,
        moves.len(),
        row.speedup
    );
    row
}

/// Times one evaluate pass serially and at `threads` pattern-block
/// threads on the same optimized engine, checking the two log-likelihoods
/// are bit-identical (the determinism contract) along the way. The gated
/// number is the modeled critical-path speedup of the block schedule; the
/// wall ratio rides along and is only meaningful when the host has at
/// least `threads` cores.
fn run_intra_scaling(
    name: &str,
    samples: usize,
    engine: &mut LikelihoodEngine,
    tree: &Tree,
    threads: usize,
) -> IntraScalingReport {
    engine.set_kernel_mode(KernelMode::Optimized);
    engine.set_intra_threads(1);
    let serial_eval = engine.evaluate(tree);
    let updates = serial_eval.work.total_pattern_updates();
    let serial = measure(samples, updates, || {
        black_box(engine.evaluate(tree).ln_likelihood);
    });
    engine.set_intra_threads(threads);
    let threaded_eval = engine.evaluate(tree);
    assert_eq!(
        serial_eval.ln_likelihood.to_bits(),
        threaded_eval.ln_likelihood.to_bits(),
        "intra-rank threading changed the log-likelihood bits"
    );
    let threaded = measure(samples, updates, || {
        black_box(engine.evaluate(tree).ln_likelihood);
    });
    engine.set_intra_threads(1);
    let patterns = engine.patterns().num_patterns();
    let row = IntraScalingReport {
        name: name.to_string(),
        threads,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        patterns,
        modeled_speedup: fdml_likelihood::par::modeled_speedup(patterns, threads),
        wall_speedup: serial.mean_seconds / threaded.mean_seconds,
        serial,
        threaded,
    };
    println!(
        "{:<32} 1t {:>10.3} ms  {}t {:>8.3} ms  modeled {:.2}x  wall {:.2}x",
        row.name,
        row.serial.mean_seconds * 1e3,
        row.threads,
        row.threaded.mean_seconds * 1e3,
        row.modeled_speedup,
        row.wall_speedup
    );
    row
}

/// Times the golden search bare and with a write-ahead round log attached
/// — session open, one durable append per committed round, retirement on
/// success — and gates the min-of-N overhead at 3% in full runs. Also
/// asserts the logged search reproduces the bare search's log-likelihood
/// bit for bit: the hook must observe the search, never steer it.
///
/// Full runs use the wide golden-generator dataset (the
/// `evaluate_by_sites` dimensions): the WAL's cost is one `fdatasync` per
/// committed round, a fixed fee that only means anything relative to how
/// much scoring a round buys. On a toy alignment the fee is the round; at
/// realistic pattern counts a round costs hundreds of times more than the
/// sync, which is the regime the 3% gate protects.
fn run_wal_overhead(samples: usize, quick: bool) -> WalOverheadReport {
    let (taxa, sites) = if quick { (12, 200) } else { (32, 1858) };
    let (alignment, _) = dataset(taxa, sites);
    let config = SearchConfig {
        jumble_seed: 7,
        incremental: true,
        ..SearchConfig::default()
    };
    let job = ResolvedJob::single(alignment, config);
    // The in-process program, bare or with its round log in `wal_dir`.
    let search = |wal_dir: Option<&std::path::Path>, obs: &Obs| {
        let session = SearchSession {
            wal_dir: wal_dir.map(std::path::Path::to_path_buf),
            ..SearchSession::default()
        };
        search_on(Loopback::new(), ranks::FIRST_WORKER, &job, session, obs)
            .1
            .expect("golden search")
    };
    let baseline_result = search(None, &Obs::disabled());

    // One untimed observed run to learn the log's shape.
    let dir = std::env::temp_dir().join(format!("fdml-wal-bench-{}", std::process::id()));
    let mem = MemorySink::new();
    let logged_result = search(Some(&dir), &Obs::multi(vec![Box::new(mem.clone())]));
    assert_eq!(
        baseline_result.ln_likelihood.to_bits(),
        logged_result.ln_likelihood.to_bits(),
        "attaching the wal changed the search result"
    );
    let (mut rounds, mut wal_bytes) = (0u64, 0u64);
    for record in mem.take() {
        if let Event::WalAppend { bytes, .. } = record.event {
            rounds += 1;
            wal_bytes += bytes;
        }
    }

    let obs = Obs::disabled();
    let baseline = measure(samples, rounds.max(1), || {
        black_box(search(None, &obs).ln_likelihood);
    });
    let wal_arm = measure(samples, rounds.max(1), || {
        black_box(search(Some(&dir), &obs).ln_likelihood);
    });
    let overhead = wal_arm.min_seconds / baseline.min_seconds - 1.0;
    let row = WalOverheadReport {
        name: format!("wal_overhead/golden_search/{taxa}"),
        samples,
        rounds,
        wal_bytes,
        baseline_mean_seconds: baseline.mean_seconds,
        baseline_min_seconds: baseline.min_seconds,
        wal_mean_seconds: wal_arm.mean_seconds,
        wal_min_seconds: wal_arm.min_seconds,
        overhead,
    };
    println!(
        "{:<32} bare {:>8.3} ms  wal {:>9.3} ms  {} rounds, {} B    overhead {:+.2}%",
        row.name,
        row.baseline_min_seconds * 1e3,
        row.wal_min_seconds * 1e3,
        row.rounds,
        row.wal_bytes,
        row.overhead * 1e2
    );
    // The min-of-N ratio squeezes out scheduler noise; --quick runs (3
    // samples on a loaded CI box) still jitter past any honest bound, so
    // the gate holds for full runs only.
    if !quick {
        assert!(
            row.overhead <= 0.03,
            "wal overhead on the golden search exceeded the 3% gate: {:+.2}%",
            row.overhead * 1e2
        );
    }
    row
}

fn main() {
    let args = Args::from_env();
    let quick = args.has_flag("quick");
    let samples = args.get("samples", if quick { 3 } else { 15 });
    let out = args.get_str("out", "BENCH_kernels.json");
    let intra_threads: usize = args.get("intra-threads", 4usize).max(2);

    let (eval_taxa, eval_sites) = if quick { (24, 200) } else { (101, 500) };
    let by_sites = if quick { (16, 300) } else { (32, 1858) };

    let mut workloads = Vec::new();
    let mut intra_scaling = Vec::new();

    {
        let (alignment, tree) = dataset(eval_taxa, eval_sites);
        let mut engine = SearchConfig::default().build_engine(&alignment);
        workloads.push(run_workload(
            &format!("tree_evaluate/evaluate/{eval_taxa}"),
            samples,
            &mut engine,
            |e| e.evaluate(&tree).work.total_pattern_updates(),
        ));
        workloads.push(run_workload(
            &format!("tree_evaluate/optimize/{eval_taxa}"),
            samples,
            &mut engine,
            |e| {
                let mut t = tree.clone();
                e.optimize(&mut t, &OptimizeOptions::default())
                    .work
                    .total_pattern_updates()
            },
        ));
    }

    {
        let (alignment, tree) = dataset(by_sites.0, by_sites.1);
        let mut engine = LikelihoodEngine::new(&alignment);
        workloads.push(run_workload(
            &format!("evaluate_by_sites/{}", by_sites.1),
            samples,
            &mut engine,
            |e| e.evaluate(&tree).work.total_pattern_updates(),
        ));
        // Intra-rank thread scaling on the widest alignment: one row at 2
        // threads and one at the gated configuration.
        for threads in [2usize, intra_threads] {
            if intra_scaling
                .iter()
                .any(|r: &IntraScalingReport| r.threads == threads)
            {
                continue;
            }
            intra_scaling.push(run_intra_scaling(
                &format!("intra_scaling/evaluate_by_sites/{threads}"),
                samples,
                &mut engine,
                &tree,
                threads,
            ));
        }
    }

    // The intra-rank gate. The block schedule itself is deterministic, so
    // the gated number is the modeled critical-path speedup at 4 threads on
    // the full-size pattern load — it regresses only if the block size or
    // the round-robin assignment gets less balanced, independent of how
    // many cores this host happens to have. Wall time is gated only on
    // hosts that can actually run 4 threads in parallel, and only in full
    // (non-quick) runs.
    {
        const GATE_PATTERNS: usize = 1500;
        const GATE_THREADS: usize = 4;
        let modeled = fdml_likelihood::par::modeled_speedup(GATE_PATTERNS, GATE_THREADS);
        assert!(
            modeled >= 2.5,
            "modeled intra-rank speedup at {GATE_THREADS} threads regressed below the \
             2.5x gate: {modeled:.2}x over {GATE_PATTERNS} patterns"
        );
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if !quick && cores >= GATE_THREADS {
            if let Some(row) = intra_scaling.iter().find(|r| r.threads == GATE_THREADS) {
                assert!(
                    row.wall_speedup >= 1.3,
                    "wall intra-rank speedup at {GATE_THREADS} threads on a {cores}-core \
                     host fell below 1.3x: {:.2}x",
                    row.wall_speedup
                );
            }
        }
    }

    {
        // The shared-CLV incremental path versus whole-tree scoring, on the
        // two candidate batches the search actually dispatches: a taxon-
        // addition round (one insertion per base edge, paper step 3) and a
        // radius-1 rearrangement round (paper step 4).
        let (alignment, _) = dataset(eval_taxa, eval_sites);
        let engine = SearchConfig::default().build_engine(&alignment);
        // Grow the round's base by stepwise insertion (deterministic edge
        // choice), leaving the last taxon out — exactly the state a taxon-
        // addition round starts from.
        let grown = |taxa: u32| {
            let mut t = Tree::triplet(0, 1, 2);
            for taxon in 3..taxa {
                let n = t.edge_ids().count();
                let e = t.edge_ids().nth(taxon as usize * 7 % n).expect("edge");
                t.insert_taxon(taxon, e).expect("taxon inserts");
            }
            t
        };
        let last = (eval_taxa - 1) as u32;
        let base = grown(last);
        let full = grown(eval_taxa as u32);
        let inserts = enumerate_insertion_moves(&base, last);
        let round = run_incremental_workload(
            &format!("candidate_round/{eval_taxa}"),
            samples,
            &engine,
            &base,
            &inserts,
        );
        assert!(
            round.speedup >= 3.0,
            "incremental candidate-round speedup regressed below the 3x gate: {:.2}x",
            round.speedup
        );
        workloads.push(round);
        let sprs = enumerate_spr_moves(&full, 1);
        workloads.push(run_incremental_workload(
            &format!("rearrange_k1/{eval_taxa}"),
            samples,
            &engine,
            &full,
            &sprs,
        ));
    }

    let wal_overhead = vec![run_wal_overhead(samples, quick)];

    let report = KernelReport {
        generated_by: "fdml-bench kernel_report".into(),
        quick,
        workloads,
        intra_scaling,
        wal_overhead,
    };
    std::fs::write(&out, report.to_json() + "\n").expect("write report");
    println!("wrote {out}");
}
