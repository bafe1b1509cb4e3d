//! Chaos soak: seeded fault schedules over the threaded runtime.
//!
//! The property under test is the strong one from the paper's
//! fault-tolerance design: as long as at least one worker survives, the
//! final tree and its log-likelihood are **byte-identical** to the
//! fault-free run — drops are requeued, delays are deduplicated, corrupt
//! frames degrade to loss, and a killed worker's work is redistributed.
//! When no worker survives, the run ends in a clean typed error and the
//! farm's manifest and round logs on disk remain valid and resumable.

use fastdnaml::chaos::storage::{self, StoragePlan};
use fastdnaml::chaos::ChaosPlan;
use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::farm::FarmManifest;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_threaded, RunOptions, ThreadOptions};
use fastdnaml::core::wal;
use fastdnaml::obs::{MemorySink, Sink};
use fastdnaml::phylo::alignment::Alignment;
use std::time::Duration;

fn alignment() -> Alignment {
    Alignment::from_strings(&[
        ("t0", "ACGTACGTACGTACGTACGTACGTACGTACGT"),
        ("t1", "ACGTACGTACTTACGTACGTACGAACGTACGT"),
        ("t2", "ACGAACGTACGTACGGACGTACGTACCTAGGT"),
        ("t3", "ACGAACGTACGTACGGACGTACTTACCTAGTT"),
        ("t4", "TCGAACGGACGTACGGAAGTACGTACCTAGGA"),
        ("t5", "TCGAACGGACGTACGGAAGTACGTTCCTAGGA"),
    ])
    .unwrap()
}

fn one_shot(a: &Alignment, cfg: &SearchConfig) -> ResolvedJob {
    ResolvedJob::from_parts(a.clone(), cfg.clone(), 1).unwrap()
}

/// A farm job over an explicit seed list (the chaos tests pin seeds).
fn farm_job(a: &Alignment, cfg: &SearchConfig, seeds: &[u64]) -> ResolvedJob {
    ResolvedJob {
        alignment: a.clone(),
        config: cfg.clone(),
        seeds: seeds.to_vec(),
    }
}

/// The six-rank threaded universe, its workers under `plan`.
fn under(plan: &ChaosPlan) -> ThreadOptions {
    ThreadOptions {
        chaos: Some(plan.clone()),
        ..6.into()
    }
}

fn config() -> SearchConfig {
    SearchConfig {
        jumble_seed: 5,
        // Short timeout so dropped results requeue quickly under chaos.
        worker_timeout: Duration::from_millis(200),
        ..Default::default()
    }
}

/// The soak matrix: eight seeded fault mixes (every other one also kills
/// a worker mid-search), plus a pure partition plan. Each must reproduce
/// the fault-free tree and likelihood to the last bit.
#[test]
fn seeded_chaos_matrix_is_byte_identical_to_fault_free() {
    let a = alignment();
    let cfg = config();
    let job = one_shot(&a, &cfg);
    let clean = run_threaded(&job, 6, RunOptions::default()).unwrap();
    let clean_tree = clean.runs[0].newick.clone();

    let mut plans: Vec<ChaosPlan> = (1..=8)
        .map(|seed| {
            let plan = ChaosPlan::seeded(seed);
            if seed % 2 == 0 {
                // Half the matrix also loses worker 3 for good after two
                // results — two of three workers must carry the rest.
                plan.with_kill(3, 2)
            } else {
                plan
            }
        })
        .collect();
    // A partition: every worker loses results 1..4, then heals.
    plans.push((3..6).fold(ChaosPlan::quiet(99), |plan, worker| {
        plan.with_drop(worker, 1, 3)
    }));

    for plan in &plans {
        let chaotic = run_threaded(&job, under(plan), RunOptions::default())
            .unwrap_or_else(|e| panic!("plan seed {}: {e}", plan.seed));
        let chaos_tree = chaotic.runs[0].newick.clone();
        assert_eq!(
            chaos_tree, clean_tree,
            "plan seed {} changed the tree",
            plan.seed
        );
        assert_eq!(
            chaotic.runs[0].ln_likelihood.to_bits(),
            clean.runs[0].ln_likelihood.to_bits(),
            "plan seed {} changed the likelihood",
            plan.seed
        );
    }
}

/// A worker killed mid-round with incremental dispatch on: its in-flight
/// tree edit is requeued *self-contained* (the foreman embeds the round's
/// base topology, since the replacement worker may have missed the
/// broadcast), survivors keep their CLV caches, and the search converges
/// to the clean incremental run's tree and likelihood.
#[test]
fn incremental_dispatch_survives_kill_mid_round() {
    let a = alignment();
    let cfg = SearchConfig {
        incremental: true,
        ..config()
    };
    let job = one_shot(&a, &cfg);
    let clean = run_threaded(&job, 6, RunOptions::default()).unwrap();
    let clean_tree = clean.runs[0].newick.clone();
    for seed in [2u64, 6, 10] {
        let plan = ChaosPlan::seeded(seed).with_kill(3, 2);
        let chaotic = run_threaded(&job, under(&plan), RunOptions::default())
            .unwrap_or_else(|e| panic!("incremental plan seed {seed}: {e}"));
        assert_eq!(
            chaotic.runs[0].newick.clone(),
            clean_tree,
            "incremental plan seed {seed} changed the tree"
        );
        assert_eq!(
            chaotic.runs[0].ln_likelihood.to_bits(),
            clean.runs[0].ln_likelihood.to_bits(),
            "incremental plan seed {seed} changed the likelihood"
        );
    }
}

/// Corruption is detected-and-dropped, surfaced in the run report, and
/// still converges to the fault-free answer.
#[test]
fn corrupt_heavy_plan_is_counted_and_survived() {
    let a = alignment();
    let cfg = config();
    let job = one_shot(&a, &cfg);
    let clean = run_threaded(&job, 6, RunOptions::default()).unwrap();
    let plan = ChaosPlan {
        corrupt_per_mille: 300,
        ..ChaosPlan::quiet(7)
    };
    let sinks: Vec<Box<dyn Sink>> = vec![Box::new(MemorySink::new())];
    let chaotic = run_threaded(&job, under(&plan), RunOptions::observed(sinks)).unwrap();
    assert_eq!(
        chaotic.runs[0].ln_likelihood.to_bits(),
        clean.runs[0].ln_likelihood.to_bits()
    );
    let report = chaotic.report.expect("observed run has a report");
    assert!(
        report.corrupt_frames > 0,
        "a 30% corruption rate must hit at least one frame"
    );
}

/// The same plan twice injects the same fault sequence, so both runs
/// converge to the same tree and likelihood.
#[test]
fn chaos_runs_are_reproducible() {
    let a = alignment();
    let cfg = config();
    let plan = ChaosPlan::seeded(4).with_kill(3, 1);
    let job = one_shot(&a, &cfg);
    let one = run_threaded(&job, under(&plan), RunOptions::default()).unwrap();
    let two = run_threaded(&job, under(&plan), RunOptions::default()).unwrap();
    assert_eq!(
        one.runs[0].ln_likelihood.to_bits(),
        two.runs[0].ln_likelihood.to_bits()
    );
    assert_eq!(one.runs[0].newick.clone(), two.runs[0].newick.clone());
}

/// The jumble farm under chaos: same trees, same manifest, regardless of
/// drops, duplicates, and a mid-farm worker kill.
#[test]
fn farm_under_chaos_matches_fault_free() {
    let a = alignment();
    let cfg = SearchConfig {
        rearrange_radius: 1,
        final_radius: 1,
        ..config()
    };
    let seeds = [1, 3, 5, 7];
    let job = farm_job(&a, &cfg, &seeds);
    let clean = run_threaded(&job, 6, RunOptions::default()).unwrap();
    for seed in [2u64, 11] {
        let plan = ChaosPlan::seeded(seed).with_kill(4, 1);
        let chaotic = run_threaded(&job, under(&plan), RunOptions::default())
            .unwrap_or_else(|e| panic!("farm plan seed {seed}: {e}"));
        assert_eq!(chaotic.runs.len(), clean.runs.len());
        for (c, f) in chaotic.runs.iter().zip(clean.runs.iter()) {
            assert_eq!(c.seed, f.seed);
            assert_eq!(
                c.newick, f.newick,
                "farm plan seed {seed}, jumble {}",
                c.seed
            );
            assert_eq!(c.ln_likelihood.to_bits(), f.ln_likelihood.to_bits());
        }
    }
}

/// Control-plane chaos joins the soak: the coordinator's WAL storage is
/// killed mid-search *while* the data plane runs a seeded fault mix that
/// also kills a worker. Relaunching the same command — data plane still
/// chaotic — replays the round log and lands on the fault-free tree,
/// byte for byte. The strong property now covers both planes at once.
#[test]
fn coordinator_storage_kill_under_worker_chaos_resumes_byte_identical() {
    let a = alignment();
    let cfg = config();
    let job = one_shot(&a, &cfg);
    let clean = run_threaded(&job, 6, RunOptions::default()).unwrap();
    let clean_tree = clean.runs[0].newick.clone();

    let dir = std::env::temp_dir().join(format!("fdml_chaos_coord_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Each run keeps its log in a directory of its own: a finished run's
    // manifest would answer the next one unsearched.
    let wal_opts = |tag: &str| RunOptions {
        wal_dir: Some(dir.join(tag)),
        ..RunOptions::default()
    };

    // A quiet instrumented pass learns the storage-op budget.
    storage::install(StoragePlan::quiet(0));
    let probe = run_threaded(&job, 6, wal_opts("probe")).unwrap();
    let total_ops = storage::clear().ops;
    assert_eq!(
        probe.runs[0].newick.clone(),
        clean_tree,
        "the WAL hook itself must not perturb the search"
    );
    assert!(total_ops >= 4, "too few storage ops: {total_ops}");

    let net_plan = ChaosPlan::seeded(6).with_kill(3, 2);
    for op in [1, total_ops / 2, total_ops - 1] {
        storage::install(StoragePlan::quiet(0).crash_at(op));
        let tag = format!("op{op}");
        let killed = run_threaded(&job, under(&net_plan), wal_opts(&tag));
        storage::clear();
        assert!(killed.is_err(), "op {op}: coordinator kill did not surface");

        let resumed = run_threaded(&job, under(&net_plan), wal_opts(&tag))
            .unwrap_or_else(|e| panic!("op {op}: resume failed: {e}"));
        assert_eq!(
            resumed.runs[0].newick.clone(),
            clean_tree,
            "op {op}: resumed tree diverged"
        );
        assert_eq!(
            resumed.runs[0].ln_likelihood.to_bits(),
            clean.runs[0].ln_likelihood.to_bits(),
            "op {op}: resumed likelihood diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// When the plan kills every worker, the run must end in a clean typed
/// error (the foreman's all-dead abort), and the manifest written before
/// the collapse must remain valid and resumable.
#[test]
fn all_workers_dead_is_a_typed_error_with_a_resumable_manifest() {
    let a = alignment();
    let cfg = SearchConfig {
        rearrange_radius: 1,
        final_radius: 1,
        ..config()
    };
    let seeds = [1, 3, 5, 7, 9, 11];
    let dir = std::env::temp_dir().join(format!("fdml_chaos_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Every worker dies after completing one jumble: three land, three
    // never can.
    let plan = ChaosPlan::quiet(0)
        .with_kill(3, 1)
        .with_kill(4, 1)
        .with_kill(5, 1);
    let job = farm_job(&a, &cfg, &seeds);
    let in_dir = RunOptions {
        wal_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let err = run_threaded(&job, under(&plan), in_dir).expect_err("an all-dead farm must fail");
    let text = err.to_string();
    assert!(text.contains("aborted"), "got: {text}");

    // The manifest survived the collapse and resumes to completion on a
    // healthy universe.
    let path = wal::manifest_path(&dir, 0);
    let manifest = FarmManifest::load(&path).unwrap().expect("manifest saved");
    let (done, _) = manifest.completed();
    assert!(
        done >= 1,
        "at least one jumble completed before the collapse"
    );
    assert!(
        !manifest.unfinished().is_empty(),
        "the collapse must leave work behind for the resume to prove anything"
    );
    let in_dir = RunOptions {
        wal_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let resumed = run_threaded(&job, 6, in_dir).unwrap();
    let fresh = run_threaded(&job, 6, RunOptions::default()).unwrap();
    for (r, f) in resumed.runs.iter().zip(fresh.runs.iter()) {
        assert_eq!(r.seed, f.seed);
        assert_eq!(r.newick, f.newick, "resumed jumble {} diverged", r.seed);
    }
    std::fs::remove_dir_all(dir).ok();
}
