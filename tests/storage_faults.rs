//! Control-plane storage chaos: every coordinator-side persistence path
//! under injected filesystem faults.
//!
//! The crash-consistent storage layer (`fdml_core::durable`) promises
//! old-or-new semantics for atomic snapshots (farm manifests) and prefix
//! recovery for logs (the WAL). This suite drives
//! the *real* coordinator paths — not the primitives — through every
//! storage crash-point and through seeded transient-fault storms, and
//! asserts a relaunched coordinator always converges to the byte-
//! identical answer.

use fastdnaml::chaos::storage::{self, StoragePlan};
use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::farm::{plan_seeds, serial_farm, FarmManifest, FarmOptions};
use fastdnaml::core::wal;
use fastdnaml::obs::Obs;
use fastdnaml::phylo::alignment::Alignment;
use fastdnaml::phylo::phylip;
use std::path::{Path, PathBuf};

const PHYLIP: &str = "\
6 40
t0        ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT
t1        ACGTACGTACTTACGTACGTACGAACGTACGTACGTACGT
t2        ACGAACGTACGTACGGACGTACGTACCTACGTAGGTACGT
t3        ACGAACGTACGTACGGACGTACTTACCTACGTAGGTACTT
t4        TCGAACGGACGTACGGAAGTACGTACCTACGGAGGTACGA
t5        TCGAACGGACGTACGGAAGTACGTTCCTACGGAGGAACGA
";

fn dataset() -> Alignment {
    phylip::parse(PHYLIP).expect("fixture parses")
}

/// The manifest a farm pass over `dir` saved, if it saved one.
fn manifest(dir: &Path) -> Result<Option<FarmManifest>, String> {
    let path = wal::manifest_path(&dir.join("wal"), 0);
    FarmManifest::load(&path).map_err(|e| e.to_string())
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdml_stfault_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One full farm pass with manifest + WAL in `dir/wal`, resuming from
/// whatever a previous (possibly killed) pass left there — exactly what
/// re-running the CLI command does.
fn run_farm_pass(
    alignment: &Alignment,
    config: &SearchConfig,
    seeds: &[u64],
    dir: &Path,
) -> Result<Vec<String>, String> {
    let options = FarmOptions {
        wal_dir: Some(dir.join("wal")),
        ..FarmOptions::default()
    };
    let parts = serial_farm(alignment, config, seeds, &options, &Obs::disabled())
        .map_err(|e| e.to_string())?;
    Ok(parts.runs.into_iter().map(|r| r.newick).collect())
}

/// The full coordinator crash matrix: a farm persists through two
/// interleaved durable paths (the per-jumble WAL and the atomic manifest
/// snapshot after each jumble). Kill the coordinator at *every* storage
/// operation of the whole farm, relaunch, and require the byte-identical
/// per-jumble trees, a complete manifest, and no round log left.
#[test]
fn farm_crash_at_every_storage_op_recovers_byte_identical() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };
    let seeds = plan_seeds(7, 3).expect("seeds");

    let clean_dir = workdir("clean");
    storage::install(StoragePlan::quiet(0));
    let expected = run_farm_pass(&alignment, &config, &seeds, &clean_dir).expect("clean farm");
    let total_ops = storage::clear().ops;
    assert!(
        total_ops >= 12,
        "fixture too small: {total_ops} storage ops"
    );

    let dir = workdir("matrix");
    for op in 0..total_ops {
        let pass_dir = dir.join(format!("op{op}"));
        std::fs::create_dir_all(&pass_dir).unwrap();
        storage::install(StoragePlan::quiet(0).crash_at(op));
        let killed = run_farm_pass(&alignment, &config, &seeds, &pass_dir);
        storage::clear();
        assert!(killed.is_err(), "op {op}: injected crash did not surface");

        // Relaunch: manifest replays finished jumbles, WALs resume the
        // in-flight one, the rest run fresh.
        let recovered =
            run_farm_pass(&alignment, &config, &seeds, &pass_dir).expect("recovery pass");
        assert_eq!(recovered, expected, "op {op}: trees diverged");

        let manifest = manifest(&pass_dir).expect("manifest parses");
        let manifest = manifest.expect("manifest written");
        assert!(
            manifest.unfinished().is_empty(),
            "op {op}: manifest incomplete"
        );
        let leftover = std::fs::read_dir(pass_dir.join("wal")).unwrap().flatten();
        let logs = leftover.filter(|e| e.path().extension().is_some_and(|x| x == "wal"));
        assert_eq!(logs.count(), 0, "op {op}: unretired wal files");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// A crash mid-manifest-write must never leave a hybrid: the relaunched
/// coordinator sees either the old snapshot (and redoes one jumble) or
/// the new one — the manifest always parses.
#[test]
fn manifest_is_old_or_new_never_torn() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 11,
        ..SearchConfig::default()
    };
    let seeds = plan_seeds(11, 3).expect("seeds");
    let dir = workdir("manifest");

    // Ops 0..4 of an atomic write are temp-write / sync / rename /
    // sync-dir. Sweep a window that lands inside the *second* manifest
    // save (after the first jumble completes) by probing every op and
    // checking the invariant wherever a manifest file exists.
    storage::install(StoragePlan::quiet(0));
    let _ = run_farm_pass(&alignment, &config, &seeds, &dir.join("probe"));
    let total_ops = storage::clear().ops;
    for op in 0..total_ops {
        let pass_dir = dir.join(format!("op{op}"));
        std::fs::create_dir_all(&pass_dir).unwrap();
        storage::install(StoragePlan::quiet(0).crash_at(op));
        let _ = run_farm_pass(&alignment, &config, &seeds, &pass_dir);
        storage::clear();
        let saved = manifest(&pass_dir);
        let saved = saved.unwrap_or_else(|e| panic!("op {op}: torn manifest on disk: {e}"));
        if let Some(manifest) = saved {
            assert_eq!(manifest.seeds(), seeds, "op {op}: manifest seed drift");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Transient fault storms (EIO / ENOSPC / short writes, no kills): runs
/// may fail, but relaunching with the same directory always converges to
/// the clean answer — transient errors never poison the durable state.
#[test]
fn transient_fault_storms_converge() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };
    let seeds = plan_seeds(7, 3).expect("seeds");
    let clean_dir = workdir("storm_clean");
    let expected = run_farm_pass(&alignment, &config, &seeds, &clean_dir).expect("clean farm");

    for chaos_seed in [1u64, 2, 3, 4, 5] {
        let pass_dir = workdir(&format!("storm{chaos_seed}"));
        // Under the storm the pass may or may not survive; either way the
        // state on disk must stay usable.
        storage::install(StoragePlan::seeded(chaos_seed));
        let stormy = run_farm_pass(&alignment, &config, &seeds, &pass_dir);
        let stats = storage::clear();
        if let Ok(trees) = &stormy {
            assert_eq!(
                trees, &expected,
                "storm {chaos_seed}: survived but diverged"
            );
        }
        // Calm weather: one relaunch finishes the job.
        let recovered =
            run_farm_pass(&alignment, &config, &seeds, &pass_dir).expect("calm relaunch");
        assert_eq!(
            recovered, expected,
            "storm {chaos_seed} (errors={}, short={}): diverged after relaunch",
            stats.errors, stats.short
        );
        std::fs::remove_dir_all(&pass_dir).ok();
    }
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// A serve-style WAL directory shared by several jobs: killing one job's
/// log never perturbs another's, because logs are namespaced per
/// (job, seed) file.
#[test]
fn job_namespaced_logs_are_isolated() {
    let alignment = dataset();
    let dir = workdir("jobs");
    let wal_dir = dir.join("wal");

    // Job 1 writes a log and is "killed" (log left behind).
    let taxa = alignment.num_taxa();
    let mut w1 = fastdnaml::core::wal::WalWriter::create(&wal_dir, 1, 7, taxa, "job-1").unwrap();
    // Job 2's log is corrupted on disk.
    let w2 = fastdnaml::core::wal::WalWriter::create(&wal_dir, 2, 7, taxa, "job-2").unwrap();
    drop(w2);
    std::fs::write(fastdnaml::core::wal::wal_path(&wal_dir, 2, 7), b"garbage").unwrap();

    // Job 1 keeps appending happily.
    let round = fastdnaml::core::wal::WalRound {
        index: 0,
        phase: fastdnaml::core::wal::WalPhase::Addition,
        tried: Vec::new(),
        accepted: true,
        lnl_bits: (-1.0f64).to_bits(),
    };
    w1.append(&round).expect("job 1 unaffected");
    drop(w1);

    let state1 = fastdnaml::core::wal::load(&wal_dir, 1, 7)
        .expect("job 1 loads")
        .expect("job 1 present");
    assert_eq!(state1.rounds.len(), 1);
    // Job 2's corrupt log reads as a fresh start, not an error.
    let state2 = fastdnaml::core::wal::load(&wal_dir, 2, 7).expect("job 2 tolerated");
    assert!(state2.is_none() || state2.unwrap().rounds.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
