//! Times the gated likelihood workloads under both kernel modes and writes
//! `BENCH_kernels.json` (see `fdml_bench::kernel_report`).
//!
//! Usage:
//!   kernel_report [--quick] [--samples N] [--out PATH]
//!
//! `--quick` shrinks the datasets and sample counts to a CI smoke test;
//! the checked-in report must come from a full (default) run.

use fdml_bench::kernel_report::{
    compare, measure, KernelReport, ObjectiveReport, SmoothCandidateReport, WalOverheadReport,
    WorkloadReport,
};
use fdml_bench::Args;
use fdml_core::config::SearchConfig;
use fdml_core::job::ResolvedJob;
use fdml_core::runner::{run_in_process, RunOptions};
use fdml_datagen::{evolve, yule_tree, EvolutionConfig};
use fdml_likelihood::categories::RateCategories;
use fdml_likelihood::clv::WTerms;
use fdml_likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fdml_likelihood::f84::F84Model;
use fdml_likelihood::incremental::ClvCache;
use fdml_likelihood::kernels::{
    self, CategoryRun, EdgeDerivCoefficients, LnProd, PatternWeights, WPlanes,
};
use fdml_likelihood::{KernelMode, PAR_BLOCK};
use fdml_obs::{Event, MemorySink};
use fdml_phylo::alignment::Alignment;
use fdml_phylo::ops::{apply_move, enumerate_insertion_moves, enumerate_spr_moves, TreeMove};
use fdml_phylo::tree::Tree;
use std::hint::black_box;
use std::path::PathBuf;

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
    // The in-process program, bare or with its round log in `wal_dir`,
    // both arms observed alike: its wall time, its log-likelihood, and the
    // rounds it appended with their bytes.
    let search = |wal_dir: Option<PathBuf>| {
        let mem = MemorySink::new();
        let options = RunOptions {
            wal_dir,
            ..RunOptions::observed(vec![Box::new(mem.clone())])
        };
        let start = std::time::Instant::now();
        let outcome = run_in_process(&job, options).expect("golden search");
        let seconds = start.elapsed().as_secs_f64();
        let (mut rounds, mut bytes) = (0u64, 0u64);
        for record in mem.take() {
            if let Event::WalAppend { bytes: b, .. } = record.event {
                rounds += 1;
                bytes += b;
            }
        }
        (seconds, outcome.runs[0].ln_likelihood, rounds, bytes)
    };
    // A finished run's directory answers a re-run from its manifest, so
    // every logged run gets a directory of its own.
    let root = std::env::temp_dir().join(format!("fdml-wal-bench-{}", std::process::id()));
    let fresh = |n: usize| Some(root.join(format!("run-{n}")));
    let (_, baseline_lnl, _, _) = search(None);

    // One untimed run to learn the log's shape.
    let (_, logged_lnl, rounds, wal_bytes) = search(fresh(0));
    assert_eq!(
        baseline_lnl.to_bits(),
        logged_lnl.to_bits(),
        "attaching the wal changed the search result"
    );
    assert!(rounds > 0, "the logged search appended no round");

    // The arms alternate run by run, so a slow phase of the host hits
    // both (one arm after the other read −25 % … +16 % on a shared host).
    let (mut bare, mut logged) = (Vec::new(), Vec::new());
    for n in 1..=samples {
        bare.push(black_box(search(None)).0);
        let (seconds, _, appended, _) = search(fresh(n));
        assert_eq!(
            appended, rounds,
            "logged run {n} appended {appended} rounds"
        );
        logged.push(seconds);
    }
    let _ = std::fs::remove_dir_all(&root);
    let mean = |runs: &[f64]| runs.iter().sum::<f64>() / runs.len() as f64;
    let min = |runs: &[f64]| runs.iter().copied().fold(f64::INFINITY, f64::min);
    let row = WalOverheadReport {
        name: format!("wal_overhead/golden_search/{taxa}"),
        samples,
        rounds,
        wal_bytes,
        baseline_mean_seconds: mean(&bare),
        baseline_min_seconds: min(&bare),
        wal_mean_seconds: mean(&logged),
        wal_min_seconds: min(&logged),
        overhead: min(&logged) / min(&bare) - 1.0,
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

/// The scalar Newton objective the two-phase kernel replaced (copied here
/// from PR 16's `kernels::lnl_d012_block`/`lnl_d012_folded`): one pattern
/// at a time, `LnProd::mul_pow` in the loop, one partial per `PAR_BLOCK`.
fn scalar_lnl_d012(
    deriv: &EdgeDerivCoefficients,
    runs: &[CategoryRun],
    w: &[WTerms],
    weights: &[u32],
) -> (f64, f64, f64) {
    let mut total = LnProd::new();
    let (mut d1, mut d2) = (0.0, 0.0);
    for lo in (0..w.len()).step_by(PAR_BLOCK) {
        let hi = w.len().min(lo + PAR_BLOCK);
        let mut prod = LnProd::new();
        let (mut b1, mut b2) = (0.0, 0.0);
        for run in runs.iter().filter(|run| run.start < hi && run.end > lo) {
            let co = &deriv.per_cat()[run.category];
            let (v, g, h) = (&co.value, &co.d1, &co.d2);
            for p in run.start.max(lo)..run.end.min(hi) {
                let terms = &w[p];
                let f =
                    v.c1.mul_add(terms.w1, v.c2.mul_add(terms.w2, v.c3 * terms.w3))
                        .max(f64::MIN_POSITIVE);
                let fp =
                    g.c1.mul_add(terms.w1, g.c2.mul_add(terms.w2, g.c3 * terms.w3));
                let fpp =
                    h.c1.mul_add(terms.w1, h.c2.mul_add(terms.w2, h.c3 * terms.w3));
                let wgt = weights[p] as f64;
                let inv = 1.0 / f;
                let r = fp * inv;
                prod.mul_pow(f, weights[p]);
                b1 += wgt * r;
                b2 += wgt * r.mul_add(-r, fpp * inv);
            }
        }
        total.merge(&prod);
        d1 += b1;
        d2 += b2;
    }
    (total.value(), d1, d2)
}

/// The scalar W-term assembly the vector lanes replaced (PR 16's
/// `kernels::w_terms_block`, its two reciprocals divided per call).
fn scalar_w_terms(model: &F84Model, u: &[f64], d: &[f64], out: &mut [WTerms]) {
    let [fa, fc, fg, ft] = model.freqs;
    let inv_r = 1.0 / model.freq_r();
    let inv_y = 1.0 / model.freq_y();
    for ((w, uu), dd) in out.iter_mut().zip(u.chunks_exact(4)).zip(d.chunks_exact(4)) {
        let w1 = (fa * uu[0]).mul_add(
            dd[0],
            (fc * uu[1]).mul_add(dd[1], (fg * uu[2]).mul_add(dd[2], ft * uu[3] * dd[3])),
        );
        let ur = fa.mul_add(uu[0], fg * uu[2]);
        let uy = fc.mul_add(uu[1], ft * uu[3]);
        let dr = fa.mul_add(dd[0], fg * dd[2]);
        let dy = fc.mul_add(dd[1], ft * dd[3]);
        *w = WTerms {
            w1,
            w2: (ur * dr).mul_add(inv_r, uy * dy * inv_y),
            w3: (ur + uy) * (dr + dy),
        };
    }
}

/// Which alignment shape an objective row is measured on.
struct ObjectiveShape {
    /// Row-name suffix (`newton_objective<suffix>/N`).
    suffix: &'static str,
    /// One weight in this many is not 1 (at random positions, so the
    /// kernels' weight branches are as predictable as on real columns).
    non_unit_one_in: usize,
    /// Rate categories; with more than one, the runs are 13 patterns long
    /// and end mid-stage.
    categories: usize,
}

/// The Newton-objective microkernel rows at one pattern count, shipped
/// kernel against scalar original on the same inputs — bit for bit the
/// same answer, checked here too. First the benchmark's shape (one weight
/// in 36 is not 1, as 4 of 142 are on its 50-taxon alignment; one rate
/// category): the full objective and the W-term assembly. Then the full
/// objective on the shapes that shape flatters: half and all of the weights
/// repeated columns, and four rate categories in short runs.
fn run_objective_rows(np: usize, samples: usize) -> Vec<ObjectiveReport> {
    let mut state = rand::GOLDEN_GAMMA ^ np as u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let model = F84Model::new([0.26, 0.22, 0.31, 0.21], 2.0);
    let u: Vec<f64> = (0..np * 4).map(|_| 0.01 + next()).collect();
    let d: Vec<f64> = (0..np * 4).map(|_| 0.01 + next()).collect();
    let mut w = vec![WTerms::ZERO; np];
    scalar_w_terms(&model, &u, &d, &mut w);
    let planes = WPlanes::new(&w);

    let mut out = vec![WTerms::ZERO; np];
    kernels::w_terms_folded(&model, &u, &d, &mut out);
    assert_eq!(
        out, w,
        "the vectorized W-terms left the scalar original's bits"
    );
    let mut out_scalar = vec![WTerms::ZERO; np];

    // One batch is ~0.1 ms of back-to-back evaluations.
    let iters = (50_000 / np).max(1);
    let batch = |eval: &mut dyn FnMut() -> f64| {
        let start = std::time::Instant::now();
        let mut acc = 0.0;
        for _ in 0..iters {
            acc += eval();
        }
        black_box(acc);
        start.elapsed().as_secs_f64() * 1e9 / (iters * np) as f64
    };
    let row = |name: &str, kernel: &mut dyn FnMut() -> f64, scalar: &mut dyn FnMut() -> f64| {
        let (mut best_kernel, mut best_scalar) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..samples {
            best_kernel = best_kernel.min(batch(kernel));
            best_scalar = best_scalar.min(batch(scalar));
        }
        let row = ObjectiveReport {
            name: format!("{name}/{np}"),
            patterns: np,
            isa: fdml_likelihood::isa::active().name().to_string(),
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            samples,
            kernel_ns_per_pattern: best_kernel,
            scalar_ns_per_pattern: best_scalar,
            speedup: best_scalar / best_kernel,
        };
        println!(
            "{:<40} new {:>6.2} ns  scalar {:>6.2} ns per pattern-iteration ({})  speedup {:.2}x",
            row.name, row.kernel_ns_per_pattern, row.scalar_ns_per_pattern, row.isa, row.speedup
        );
        row
    };

    let shapes = [
        ObjectiveShape {
            suffix: "",
            non_unit_one_in: 36,
            categories: 1,
        },
        ObjectiveShape {
            suffix: "_half_weighted",
            non_unit_one_in: 2,
            categories: 1,
        },
        ObjectiveShape {
            suffix: "_all_weighted",
            non_unit_one_in: 1,
            categories: 1,
        },
        ObjectiveShape {
            suffix: "_4cat",
            non_unit_one_in: 36,
            categories: 4,
        },
    ];
    let mut rows = Vec::new();
    for shape in shapes {
        let share = 1.0 / shape.non_unit_one_in as f64;
        let weights: Vec<u32> = (0..np)
            .map(|p| {
                if next() < share {
                    2 + (p % 13) as u32
                } else {
                    1
                }
            })
            .collect();
        let bound = PatternWeights::new(&weights);
        let cats = RateCategories::new(
            (0..shape.categories)
                .map(|c| 0.4 + 0.7 * c as f64)
                .collect(),
            (0..np)
                .map(|p| (p / 13 % shape.categories) as u32)
                .collect(),
        );
        let runs = kernels::category_runs(&cats);
        let mut deriv = EdgeDerivCoefficients::default();
        deriv.fill(&model, &cats, 0.37);

        let want = scalar_lnl_d012(&deriv, &runs, &w, &weights);
        let got = kernels::lnl_d012_folded(&deriv, &runs, &planes, &bound);
        assert_eq!(
            (got.0.to_bits(), got.1.to_bits(), got.2.to_bits()),
            (want.0.to_bits(), want.1.to_bits(), want.2.to_bits()),
            "the two-phase objective left the scalar original's bits"
        );

        let (deriv, runs, w, weights) = (&deriv, &runs[..], &w, &weights);
        rows.push(row(
            &format!("newton_objective{}", shape.suffix),
            &mut || kernels::lnl_d012_folded(black_box(deriv), runs, black_box(&planes), &bound).0,
            &mut || scalar_lnl_d012(black_box(deriv), runs, black_box(w), weights).0,
        ));
        if !shape.suffix.is_empty() {
            continue;
        }
        rows.push(row(
            "w_terms",
            &mut || {
                kernels::w_terms_folded(&model, black_box(&u), black_box(&d), &mut out);
                out[np / 2].w1
            },
            &mut || {
                scalar_w_terms(&model, black_box(&u), black_box(&d), &mut out_scalar);
                out_scalar[np / 2].w1
            },
        ));
    }
    rows
}

/// The call the search makes per whole-tree candidate and per verified
/// edit: `optimize` of a fully smoothed base plus one insertion at default
/// lengths — every insertion of the last taxon, as in an addition round.
/// Everything but the time is read off the `WorkCounter`: a branch visit
/// is one W-term assembly, an objective evaluation one Newton
/// pattern-sweep, and a pass combines `2n − 4` `up` CLVs and at most
/// `n − 2` `down` ones on top of `compute_all_down`'s `n − 2`.
fn run_smooth_candidate(taxa: usize, sites: usize, samples: usize) -> SmoothCandidateReport {
    let (alignment, mut base) = dataset(taxa, sites);
    let engine = SearchConfig::default().build_engine(&alignment);
    let opts = OptimizeOptions::default();
    let np = engine.patterns().num_patterns() as u64;
    let (edges, internal) = (2 * taxa as u64 - 3, taxa as u64 - 2);
    let passes_of =
        |work: &fdml_likelihood::WorkCounter| (work.loglik_pattern_evals / np - 1) / edges;
    // The base is a good tree — the generating one, less the last taxon —
    // as the search's bases are; smoothed until a call stops short of the
    // pass cap.
    let last = taxa as u32 - 1;
    base.remove_taxon(last).expect("the last taxon is a tip");
    let settled = (0..32)
        .any(|_| passes_of(&engine.optimize(&mut base, &opts).work) < opts.max_passes as u64);
    assert!(
        settled,
        "{taxa}-taxon base still at the pass cap after 32 calls"
    );
    let candidates: Vec<Tree> = enumerate_insertion_moves(&base, last)
        .iter()
        .map(|mv| {
            let mut t = base.clone();
            apply_move(&mut t, mv).expect("move applies to base");
            t
        })
        .collect();
    let (mut passes, mut capped, mut evals, mut downs, mut updates) = (0, 0, 0, 0, 0);
    for candidate in &candidates {
        let work = engine.optimize(&mut candidate.clone(), &opts).work;
        let p = passes_of(&work);
        passes += p;
        capped += u64::from(p == opts.max_passes as u64);
        evals += work.newton_pattern_iters / np;
        downs += work.clv_pattern_updates / np - internal - p * (edges - 1);
        updates += work.total_pattern_updates();
    }
    let timing = measure(samples, updates, || {
        for candidate in &candidates {
            black_box(engine.optimize(&mut candidate.clone(), &opts).ln_likelihood);
        }
    });
    let calls = candidates.len();
    let row = SmoothCandidateReport {
        name: format!("smooth_candidate/{taxa}"),
        patterns: np as usize,
        isa: fdml_likelihood::isa::active().name().to_string(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        samples,
        calls,
        ms_per_call: timing.mean_seconds * 1e3 / calls as f64,
        mean_passes: passes as f64 / calls as f64,
        capped_share: capped as f64 / calls as f64,
        evals_per_visit: evals as f64 / (passes * edges) as f64,
        down_combines_skipped: 1.0 - downs as f64 / (passes * internal) as f64,
    };
    println!(
        "{:<32} {:>7.3} ms a call  {:.2} passes ({:.0}% at the cap)  {:.2} evaluations a visit  \
         {:.0}% of down-combines skipped",
        row.name,
        row.ms_per_call,
        row.mean_passes,
        row.capped_share * 1e2,
        row.evals_per_visit,
        row.down_combines_skipped * 1e2
    );
    row
}

fn main() {
    let args = Args::from_env();
    let quick = args.has_flag("quick");
    let samples = args.get("samples", if quick { 3 } else { 15 });
    let out = args.get_str("out", "BENCH_kernels.json");

    let (eval_taxa, eval_sites) = if quick { (24, 200) } else { (101, 500) };
    // Evaluation cost against alignment length at a fixed tree: linear in
    // patterns is what lets the experiments scale alignments (`--scale`).
    let (by_sites_taxa, by_sites): (usize, &[usize]) = if quick {
        (16, &[300])
    } else {
        (32, &[200, 800, 1858])
    };

    let mut workloads = Vec::new();

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

    for &sites in by_sites {
        let (alignment, tree) = dataset(by_sites_taxa, sites);
        let mut engine = LikelihoodEngine::new(&alignment);
        workloads.push(run_workload(
            &format!("evaluate_by_sites/{sites}"),
            samples,
            &mut engine,
            |e| e.evaluate(&tree).work.total_pattern_updates(),
        ));
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

    // The Newton objective on its own, at the benchmark's pattern count
    // (142: one block) and a multi-block one. Report-only but for one gate
    // in full mode: the two-phase objective must beat the scalar loop it
    // replaced by 1.3x at 142 patterns on the benchmark's shape. (The gain
    // is the fold's structure, not a vector lane: phase 1 is portable.)
    let objective_samples = if quick { 20 } else { 400 };
    let mut objective = run_objective_rows(142, objective_samples);
    objective.extend(run_objective_rows(1209, objective_samples));
    let gated = &objective[0];
    if !quick {
        assert!(
            gated.speedup >= 1.3,
            "{} fell below the 1.3x gate over the scalar original: {:.2}x",
            gated.name,
            gated.speedup
        );
    }

    // The shape the search runs `optimize` on (a warm start), at the
    // benchmark's two sizes; `tree_evaluate/optimize` above is the cold
    // start. Report-only.
    let smooth_candidate = if quick {
        [(12, 100), (16, 100)]
    } else {
        [(50, 174), (101, 174)]
    }
    .map(|(taxa, sites)| run_smooth_candidate(taxa, sites, samples))
    .to_vec();

    let report = KernelReport {
        generated_by: "fdml-bench kernel_report".into(),
        quick,
        workloads,
        wal_overhead,
        objective,
        smooth_candidate,
    };
    std::fs::write(&out, report.to_json() + "\n").expect("write report");
    println!("wrote {out}");
}
