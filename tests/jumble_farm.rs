//! The jumble-farm determinism and fault suite.
//!
//! The contract under test: a farm of N jumbles produces the *same* N
//! trees and the same consensus — byte for byte — whether the jumbles run
//! serially, sharded over worker threads, or sharded over worker
//! processes on the TCP transport; at any farm width; through dropped,
//! delayed, and severed results; through a worker process dying mid-farm;
//! and through a kill/resume cycle driven by the farm manifest.

use fastdnaml::chaos::ChaosPlan;
use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::farm::{plan_seeds, FarmManifest, JumbleStatus};
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{
    run_in_process, run_threaded, RunOptions, RunOutcome, ThreadOptions,
};
use fastdnaml::phylo::phylip;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const PHYLIP: &str = "\
6 40
t0        ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT
t1        ACGTACGTACTTACGTACGTACGAACGTACGTACGTACGT
t2        ACGAACGTACGTACGGACGTACGTACCTACGTAGGTACGT
t3        ACGAACGTACGTACGGACGTACTTACCTACGTAGGTACTT
t4        TCGAACGGACGTACGGAAGTACGTACCTACGGAGGTACGA
t5        TCGAACGGACGTACGGAAGTACGTTCCTACGGAGGAACGA
";

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdml_farm_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(dir.join("data.phy"), PHYLIP).expect("write alignment");
    dir
}

/// Run the binary as a farm, assert success, and return the per-jumble
/// trees file, the consensus, and stderr.
fn run_farm(dir: &Path, tag: &str, extra: &[&str]) -> (String, String, String) {
    let trees = dir.join(format!("trees_{tag}.txt"));
    let cons = dir.join(format!("cons_{tag}.txt"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fastdnaml"));
    cmd.arg("--input")
        .arg(dir.join("data.phy"))
        .args(["--jumble", "7", "--jumbles", "5"])
        .arg("--jumble-trees")
        .arg(&trees)
        .arg("--output")
        .arg(&cons);
    for a in extra {
        cmd.arg(a);
    }
    let out = cmd.output().expect("run fastdnaml");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        std::fs::read_to_string(&trees).expect("jumble trees written"),
        std::fs::read_to_string(&cons).expect("consensus written"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Tentpole invariant: serial baseline, threaded farm at widths 1/2/4,
/// and the multi-process TCP farm all emit byte-identical per-jumble
/// trees and consensus.
#[test]
fn farm_output_is_identical_across_widths_and_transports() {
    let dir = workdir("determinism");
    let (base_trees, base_cons, _) = run_farm(&dir, "serial", &["--quiet"]);
    assert_eq!(base_trees.lines().count(), 5, "one tree per jumble");
    for width in ["1", "2", "4"] {
        let tag = format!("thr_w{width}");
        let (trees, cons, _) = run_farm(
            &dir,
            &tag,
            &["--parallel", "5", "--farm-width", width, "--quiet"],
        );
        assert_eq!(trees, base_trees, "threads width {width}: per-jumble trees");
        assert_eq!(cons, base_cons, "threads width {width}: consensus");
    }
    let (net_trees, net_cons, _) = run_farm(
        &dir,
        "net",
        &["--net", "spawn", "5", "--farm-width", "2", "--quiet"],
    );
    assert_eq!(net_trees, base_trees, "TCP farm: per-jumble trees");
    assert_eq!(net_cons, base_cons, "TCP farm: consensus");
    std::fs::remove_dir_all(dir).ok();
}

/// The in-process fault matrix: dropped, delayed, and severed jumble
/// results must all be routed around without changing a byte of output.
#[test]
fn farm_survives_the_fault_matrix_with_identical_output() {
    let alignment = phylip::parse(PHYLIP).unwrap();
    // A jumble here is a few milliseconds: the timeout leaves a healthy
    // worker two orders of magnitude of scheduling slack, so on a loaded
    // host only the planted fault trips it.
    let config = SearchConfig {
        jumble_seed: 7,
        worker_timeout: Duration::from_millis(500),
        ..Default::default()
    };
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 8).unwrap();
    let clean = run_threaded(&job, 6, RunOptions::default()).unwrap();
    assert_eq!(clean.runs.len(), 8);
    // (name, worker 3's plan, tasks worker 3 must be handed for the plan
    // to fire, whether it comes back)
    let quiet = ChaosPlan::quiet(0);
    let cases: Vec<(&str, ChaosPlan, u64, bool)> = vec![
        // Worker 3 silently drops its first jumble result: requeued by
        // timeout.
        ("drop", quiet.clone().with_drop(3, 0, 1), 1, true),
        // Worker 3 delays each result past the timeout: the foreman times
        // it out, requeues, then re-admits the stragglers.
        (
            "delay",
            quiet
                .clone()
                .with_delay(3, 0, 2, Duration::from_millis(800)),
            1,
            true,
        ),
        // Worker 3's link is severed after one result: its second jumble
        // is stranded in flight and must be requeued on a survivor.
        ("disconnect", quiet.with_kill(3, 1), 2, false),
    ];
    for (name, plan, needs, recovers) in cases {
        // Workers announce themselves in whatever order the host schedules
        // them, and one that comes up late can find its siblings have
        // drained the queue before it was handed the tasks its fault needs.
        // Such a farm never met the fault: its output is still checked,
        // and the case runs again.
        let faulty = (0..FAULT_ATTEMPTS)
            .find_map(|_| {
                let threads = ThreadOptions {
                    chaos: Some(plan.clone()),
                    ..6.into()
                };
                let faulty = run_threaded(&job, threads, RunOptions::default()).unwrap();
                assert_same_farm(name, &clean, &faulty);
                let handed = faulty
                    .monitor
                    .per_worker
                    .get(&3)
                    .map_or(0, |w| w.dispatched);
                (handed >= needs).then_some(faulty)
            })
            .unwrap_or_else(|| {
                panic!("{name}: worker 3 was never handed {needs} tasks in {FAULT_ATTEMPTS} farms")
            });
        assert!(
            faulty.foreman.timeouts >= 1,
            "{name}: foreman must detect the fault"
        );
        if !recovers {
            assert_eq!(faulty.foreman.recoveries, 0, "{name}: dead stays dead");
        }
    }
}

/// How many farms a fault-matrix case may run before worker 3 is handed
/// the tasks its fault needs.
const FAULT_ATTEMPTS: usize = 5;

/// A faulty farm's output is the clean farm's, byte for byte.
fn assert_same_farm(name: &str, clean: &RunOutcome, faulty: &RunOutcome) {
    assert_eq!(faulty.runs.len(), clean.runs.len(), "{name}: every jumble");
    for (c, f) in clean.runs.iter().zip(&faulty.runs) {
        assert_eq!(c.seed, f.seed, "{name}: seed order");
        assert_eq!(c.newick, f.newick, "{name}: tree for seed {}", c.seed);
        assert_eq!(
            c.ln_likelihood.to_bits(),
            f.ln_likelihood.to_bits(),
            "{name}: lnL for seed {}",
            c.seed
        );
    }
    assert_eq!(
        faulty.consensus.splits, clean.consensus.splits,
        "{name}: consensus splits"
    );
}

/// A worker process killed mid-farm (`--die-rank`): the farm completes on
/// the surviving workers with identical output. Rank 4 dies on its *first*
/// result: a jumble here is ~1 ms, so the rank that connects first can
/// drain the farm before a later one is handed a second task.
#[test]
fn killed_worker_process_does_not_change_the_farm_output() {
    let dir = workdir("chaos");
    let (clean_trees, clean_cons, _) = run_farm(
        &dir,
        "clean",
        &["--net", "spawn", "5", "--farm-width", "2", "--quiet"],
    );
    let (chaos_trees, chaos_cons, stderr) = run_farm(
        &dir,
        "chaos",
        &[
            "--net",
            "spawn",
            "5",
            "--farm-width",
            "2",
            "--die-rank",
            "4",
            "--die-after-tasks",
            "0",
            "--worker-timeout-ms",
            "300",
        ],
    );
    assert_eq!(chaos_trees, clean_trees);
    assert_eq!(chaos_cons, clean_cons);
    assert!(
        stderr.contains("peer rank 4 exited with Some(3)"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Resume from a partial manifest (as left behind by a killed farm): only
/// the unfinished jumbles are recomputed, and the final output is
/// byte-identical to an uninterrupted run.
#[test]
fn resume_from_a_partial_manifest_reproduces_the_run() {
    let dir = workdir("resume");
    let (full_dir, partial_dir) = (dir.join("full"), dir.join("partial"));
    let (full_path, partial_path) = (
        full_dir.join("manifest.json"),
        partial_dir.join("manifest.json"),
    );
    let (full_trees, full_cons, _) = run_farm(
        &dir,
        "full",
        &["--quiet", "--wal-dir", full_dir.to_str().unwrap()],
    );
    let full = FarmManifest::load(&full_path).unwrap().unwrap();
    assert!(full.unfinished().is_empty());
    // Reconstruct the manifest a farm killed after two completions would
    // have left behind: the last three entries back to Pending.
    let mut partial = full.clone();
    for entry in partial.entries.iter_mut().skip(2) {
        entry.status = JumbleStatus::Pending;
        entry.newick = None;
        entry.ln_likelihood = None;
    }
    std::fs::create_dir_all(&partial_dir).unwrap();
    partial.save(&partial_path).unwrap();
    let (resumed_trees, resumed_cons, stderr) = run_farm(
        &dir,
        "resumed",
        &[
            "--parallel",
            "4",
            "--wal-dir",
            partial_dir.to_str().unwrap(),
        ],
    );
    assert_eq!(resumed_trees, full_trees);
    assert_eq!(resumed_cons, full_cons);
    // The two finished jumbles were replayed, not recomputed.
    assert_eq!(stderr.matches("(resumed)").count(), 2, "stderr: {stderr}");
    let after = FarmManifest::load(&partial_path).unwrap().unwrap();
    assert_eq!(after, full, "resumed manifest converges to the full one");
    std::fs::remove_dir_all(dir).ok();
}

/// A manifest of a different seed set is refused rather than silently
/// recombined.
#[test]
fn mismatched_manifest_is_rejected() {
    let alignment = phylip::parse(PHYLIP).unwrap();
    let config = SearchConfig::default();
    let dir = workdir("mismatch");
    FarmManifest::new(&[99, 101])
        .save(&dir.join("manifest.json"))
        .unwrap();
    let job = ResolvedJob::from_parts(alignment, config, 2).unwrap();
    assert_eq!(job.seeds, [1, 3]);
    let options = RunOptions {
        wal_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let err = run_in_process(&job, options);
    assert!(err.is_err());
    std::fs::remove_dir_all(dir).ok();
}

/// Golden regression: a fixed 10-seed farm on the committed 6-taxon
/// alignment. The consensus Newick is pinned exactly; per-jumble
/// likelihoods are pinned to 1e-6 (they are deterministic on a given
/// machine; the tolerance absorbs libm differences across platforms).
#[test]
#[allow(clippy::excessive_precision)] // golden values recorded at full f64 precision
fn golden_ten_seed_farm() {
    const GOLDEN_CONSENSUS: &str = "(t0,t1,(t2,t3,(t4,t5)100)100);";
    const GOLDEN_LNL: [(u64, f64); 10] = [
        (7, -133.77892732966168),
        (9, -133.77892732075890),
        (11, -133.77892732075890),
        (13, -133.77892732966168),
        (15, -133.77892732075890),
        (17, -133.77892732075890),
        (19, -133.77892732966168),
        (21, -133.77892732966168),
        (23, -133.77892732075890),
        (25, -133.77892732966168),
    ];
    let alignment = phylip::parse(PHYLIP).unwrap();
    let config = SearchConfig {
        jumble_seed: 7,
        ..Default::default()
    };
    let seeds = plan_seeds(7, 10).unwrap();
    assert_eq!(seeds, GOLDEN_LNL.map(|(s, _)| s).to_vec());
    let job = ResolvedJob::from_parts(alignment, config, 10).unwrap();
    let parts = run_in_process(&job, RunOptions::default()).unwrap();
    assert_eq!(parts.runs.len(), 10);
    for (run, (seed, lnl)) in parts.runs.iter().zip(GOLDEN_LNL) {
        assert_eq!(run.seed, seed);
        assert!(
            (run.ln_likelihood - lnl).abs() < 1e-6,
            "seed {seed}: lnL {} vs golden {lnl}",
            run.ln_likelihood
        );
    }
    let got = fastdnaml::phylo::newick::write(&parts.consensus.tree);
    assert_eq!(got, GOLDEN_CONSENSUS);
}
