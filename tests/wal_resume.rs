//! Resume-equivalence matrix for the write-ahead round log.
//!
//! The contract under test: a coordinator killed at any point and
//! relaunched with the same command line produces the byte-identical
//! final tree — and, because every deployment runs the one executor and so
//! commits the same rounds, relaunched on *any* deployment of the same
//! seed and scoring mode. The matrix *manufactures* real interrupted logs
//! instead of synthesizing them: a storage-fault plan on the coordinator
//! thread kills the log at every write boundary (`fdml_chaos::storage`
//! faults are thread-local, and the master runs inline on the calling
//! thread), leaving exactly the file a `kill -9` at that instant would
//! have left. Each leftover log is then resumed through the real
//! deployment paths: the threaded runtime, the in-process program, the
//! multi-process TCP runtime via the CLI, the jumble farm (whose workers
//! resume mid-jumble through the `JumbleResume` task), and both scoring
//! modes.

use fastdnaml::chaos::storage::{self, StoragePlan};
use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::durable::LogWriter;
use fastdnaml::core::farm::{log_key, plan_seeds};
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, run_threaded, RunOptions};
use fastdnaml::core::wal::{self, WalRecord, WalRound, WalStart, WalWriter, NUMERICS_EPOCH};
use fastdnaml::core::worker::Evaluator;
use fastdnaml::obs::{Event, MemorySink};
use fastdnaml::phylo::alignment::Alignment;
use fastdnaml::phylo::bipartition::robinson_foulds;
use fastdnaml::phylo::phylip;
use fastdnaml::phylo::tree::Tree;
use std::path::{Path, PathBuf};
use std::process::Command;

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

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdml_walres_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run the threaded search with a WAL in `wal_dir`, optionally observed.
fn run_threads(
    alignment: &Alignment,
    config: &SearchConfig,
    wal_dir: &Path,
    mem: Option<&MemorySink>,
) -> Result<(String, u64), String> {
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 1).unwrap();
    let mut options = match mem {
        Some(m) => RunOptions::observed(vec![Box::new(m.clone())]),
        None => RunOptions::default(),
    };
    options.wal_dir = Some(wal_dir.to_path_buf());
    let outcome = run_threaded(&job, 4, options).map_err(|e| e.to_string())?;
    Ok((
        outcome.runs[0].newick.clone(),
        outcome.runs[0].ln_likelihood.to_bits(),
    ))
}

/// Run the in-process search with a WAL in `wal_dir`.
fn run_serial(
    alignment: &Alignment,
    config: &SearchConfig,
    wal_dir: &Path,
) -> Result<(String, u64), String> {
    let job = ResolvedJob::single(alignment.clone(), config.clone());
    let options = RunOptions {
        wal_dir: Some(wal_dir.to_path_buf()),
        ..RunOptions::default()
    };
    let outcome = run_in_process(&job, options).map_err(|e| e.to_string())?;
    Ok((
        outcome.runs[0].newick.clone(),
        outcome.runs[0].ln_likelihood.to_bits(),
    ))
}

/// The round logs left in `dir` (a farm's manifest stays beside them).
fn logs_left(dir: &Path) -> Vec<std::ffi::OsString> {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    let logs = entries.filter(|e| e.path().extension().is_some_and(|x| x == "wal"));
    logs.map(|e| e.file_name()).collect()
}

/// Count WAL events a memory sink observed: rounds appended, rounds
/// replayed, and jumbles answered from a manifest.
fn wal_event_counts(mem: &MemorySink) -> (u64, u64, u64) {
    let (mut appends, mut replayed, mut reused) = (0, 0, 0);
    for record in mem.snapshot() {
        match record.event {
            Event::WalAppend { .. } => appends += 1,
            Event::WalReplay { rounds, .. } => replayed += rounds,
            Event::JumbleCompleted { reused: true, .. } => reused += 1,
            _ => {}
        }
    }
    (appends, replayed, reused)
}

/// The tentpole matrix: kill the coordinator's log at every storage
/// operation a full threaded run performs — the log-file creation, every
/// record append, every `fdatasync`, the manifest's save — then relaunch
/// the identical run. Every resume must reproduce the uninterrupted tree
/// byte for byte and retire the log on success; a kill after the
/// manifest's rename leaves a finished run, answered from the manifest.
#[test]
fn threads_resume_every_crash_point_byte_identical() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };

    // Fault-free run: the expected answer, and the op budget to sweep.
    let dir = workdir("threads");
    storage::install(StoragePlan::quiet(0));
    let (expected_newick, expected_bits) =
        run_threads(&alignment, &config, &dir.join("clean"), None).expect("clean run");
    let total_ops = storage::clear().ops;
    assert!(total_ops >= 8, "fixture too small: {total_ops} storage ops");

    for op in 0..total_ops {
        let wal_dir = dir.join(format!("op{op}"));
        // The "kill": every storage operation from `op` onward fails, so
        // the run either dies opening the log or finishes its search and
        // surfaces the deferred append error at the end — in both cases
        // the on-disk log is exactly what a SIGKILL at that boundary
        // leaves: a committed prefix, possibly with a torn tail.
        storage::install(StoragePlan::quiet(0).crash_at(op));
        let crashed = run_threads(&alignment, &config, &wal_dir, None);
        storage::clear();
        assert!(
            crashed.is_err(),
            "op {op}: injected crash did not surface as an error"
        );

        // Relaunch the same command: replay the prefix, finish, retire.
        let mem = MemorySink::new();
        let (resumed_newick, resumed_bits) =
            run_threads(&alignment, &config, &wal_dir, Some(&mem)).expect("resume");
        assert_eq!(resumed_newick, expected_newick, "op {op}: tree diverged");
        assert_eq!(resumed_bits, expected_bits, "op {op}: lnl bits diverged");
        let (appends, replayed, reused) = wal_event_counts(&mem);
        assert!(
            appends + replayed + reused > 0,
            "op {op}: resume neither replayed, logged nor read the manifest"
        );
        assert!(
            !wal::wal_path(&wal_dir, 0, config.jumble_seed).exists(),
            "op {op}: wal not retired after successful resume"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn append — the log hit by a kill mid-`write` — truncates to the
/// last committed round on resume and still finishes byte-identically.
#[test]
fn torn_tail_resumes_byte_identical() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 9,
        ..SearchConfig::default()
    };
    let dir = workdir("torn");
    let (expected_newick, expected_bits) =
        run_threads(&alignment, &config, &dir.join("clean"), None).expect("clean run");

    // Interrupt a run late (a mid-run storage kill), then tear the
    // surviving log's tail by hand, as a crash inside `write(2)` would.
    let wal_dir = dir.join("victim");
    storage::install(StoragePlan::quiet(0).crash_at(9));
    run_threads(&alignment, &config, &wal_dir, None).expect_err("injected crash");
    storage::clear();
    let path = wal::wal_path(&wal_dir, 0, config.jumble_seed);
    let mut raw = std::fs::read(&path).expect("interrupted log exists");
    let torn_at = raw.len() - 3;
    raw.truncate(torn_at);
    raw.extend_from_slice(&[0xDE, 0xAD]);
    std::fs::write(&path, &raw).expect("tear tail");

    let mem = MemorySink::new();
    let (resumed_newick, resumed_bits) =
        run_threads(&alignment, &config, &wal_dir, Some(&mem)).expect("resume over torn tail");
    assert_eq!(resumed_newick, expected_newick, "torn tail: tree diverged");
    assert_eq!(resumed_bits, expected_bits, "torn tail: lnl bits diverged");
    assert!(!path.exists(), "torn tail: wal not retired");
    std::fs::remove_dir_all(&dir).ok();
}

/// One canonical call stream: a log interrupted under the threaded
/// runtime resumes in process, and a log interrupted in process resumes
/// under the threaded runtime — at every write boundary in whole-tree mode,
/// spot-checked across the op range in edit-scored mode — to the bytes of
/// the uninterrupted run, which are the same bytes on both.
#[test]
fn logs_replay_across_deployments() {
    type Run = fn(&Alignment, &SearchConfig, &Path) -> Result<(String, u64), String>;
    let threads: Run = |a, c, dir| run_threads(a, c, dir, None);
    let in_process: Run = run_serial;
    let alignment = dataset();
    let dir = workdir("cross");
    for incremental in [false, true] {
        let config = SearchConfig {
            jumble_seed: 7,
            incremental,
            ..SearchConfig::default()
        };
        // A finished run's manifest answers a re-run, and names its mode:
        // every run here logs into a directory of its own.
        let clean = dir.join(format!("clean-{incremental}"));
        let expected = in_process(&alignment, &config, &clean).expect("clean run");
        for (tag, writer, resumer) in [
            ("threads-to-process", threads, in_process),
            ("process-to-threads", in_process, threads),
        ] {
            storage::install(StoragePlan::quiet(0));
            let probe = dir.join(format!("probe-{tag}-{incremental}"));
            let clean = writer(&alignment, &config, &probe).expect("probe run");
            let total_ops = storage::clear().ops;
            assert_eq!(clean, expected, "{tag}: deployments disagree uninterrupted");
            let ops: Vec<u64> = if incremental {
                vec![0, 1, total_ops / 2, total_ops - 1]
            } else {
                (0..total_ops).collect()
            };
            for op in ops {
                let wal_dir = dir.join(format!("{tag}-{incremental}-op{op}"));
                storage::install(StoragePlan::quiet(0).crash_at(op));
                let crashed = writer(&alignment, &config, &wal_dir);
                storage::clear();
                assert!(crashed.is_err(), "{tag} op {op}: crash did not surface");
                let resumed = resumer(&alignment, &config, &wal_dir).expect("resume");
                assert_eq!(resumed, expected, "{tag} op {op} incremental {incremental}");
                assert!(
                    !wal::wal_path(&wal_dir, 0, config.jumble_seed).exists(),
                    "{tag} op {op}: wal not retired after the cross-deployment resume"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The incremental (base + edit) scoring mode resumes its own interrupted
/// logs just like whole-tree mode: same sweep, spot-checked across the op
/// range.
#[test]
fn incremental_mode_resumes_its_own_log() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 5,
        incremental: true,
        ..SearchConfig::default()
    };
    let dir = workdir("incmode");
    storage::install(StoragePlan::quiet(0));
    let (expected_newick, expected_bits) =
        run_threads(&alignment, &config, &dir.join("clean"), None).expect("clean run");
    let total_ops = storage::clear().ops;

    for op in [0, 1, total_ops / 2, total_ops - 1] {
        let wal_dir = dir.join(format!("op{op}"));
        storage::install(StoragePlan::quiet(0).crash_at(op));
        run_threads(&alignment, &config, &wal_dir, None).expect_err("injected crash");
        storage::clear();
        let (resumed_newick, resumed_bits) =
            run_threads(&alignment, &config, &wal_dir, None).expect("resume");
        assert_eq!(
            resumed_newick, expected_newick,
            "incremental op {op}: tree diverged"
        );
        assert_eq!(
            resumed_bits, expected_bits,
            "incremental op {op}: lnl bits diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The multi-process TCP deployment, driven through the real CLI: logs
/// interrupted at assorted boundaries (manufactured under the threaded
/// runtime — every deployment runs the identical master search, so their
/// logs are interchangeable) must resume under `--net spawn --wal-dir` to
/// output files byte-identical to the clean run's.
#[test]
fn net_resume_interrupted_logs_via_cli() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };
    let dir = workdir("netcli");
    std::fs::write(dir.join("data.phy"), PHYLIP).expect("write alignment");
    let run_cli = |tag: &str, wal_dir: Option<&Path>| -> String {
        let out = dir.join(format!("{tag}.nwk"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fastdnaml"));
        cmd.arg("--input")
            .arg(dir.join("data.phy"))
            .args(["--jumble", "7", "--net", "spawn", "4", "--quiet"])
            .arg("--output")
            .arg(&out);
        if let Some(w) = wal_dir {
            cmd.arg("--wal-dir").arg(w);
        }
        let status = cmd.output().expect("run fastdnaml");
        assert!(
            status.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&status.stderr)
        );
        std::fs::read_to_string(&out).expect("tree written")
    };
    let clean = run_cli("clean", None);

    // Learn the op budget, then interrupt at a spread of boundaries.
    // Process spawns are expensive: the exhaustive sweep lives in the
    // threaded matrix above.
    storage::install(StoragePlan::quiet(0));
    run_threads(&alignment, &config, &dir.join("probe"), None).expect("probe run");
    let total_ops = storage::clear().ops;
    for op in [0, 3, total_ops / 2, total_ops - 1] {
        let wal_dir = dir.join(format!("op{op}"));
        storage::install(StoragePlan::quiet(0).crash_at(op));
        run_threads(&alignment, &config, &wal_dir, None).expect_err("injected crash");
        storage::clear();
        let resumed = run_cli(&format!("resume{op}"), Some(&wal_dir));
        assert_eq!(resumed, clean, "net op {op}: output diverged");
        assert!(
            !wal::wal_path(&wal_dir, 0, config.jumble_seed).exists(),
            "net op {op}: wal not retired"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The farm path: a killed farm coordinator leaves one WAL per in-flight
/// jumble. Workers resume those jumbles mid-search through the
/// `JumbleResume` task (replaying the prefix, streaming only new rounds
/// back), the farm's trees stay byte-identical to the un-killed serial
/// farm, and every log is retired as its jumble completes — so no log is
/// left at the end no matter how many jumbles ran. A farm
/// jumble is `Evaluator::jumble` in every deployment, so a per-jumble log
/// recorded from it here is the real artifact.
#[test]
fn farm_resumes_inflight_jumbles_and_bounds_wal_dir() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };
    let seeds = plan_seeds(7, 4).expect("seeds");

    // Clean serial baseline, no WAL.
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), seeds.len()).unwrap();
    let baseline = run_in_process(&job, RunOptions::default()).expect("serial farm");
    let expected: Vec<&str> = baseline.runs.iter().map(|r| r.newick.as_str()).collect();

    // Record each jumble's full log, from the code every worker runs.
    let evaluator =
        Evaluator::for_problem(&phylip::write(&alignment), &config.engine_config_json())
            .expect("problem installs");
    let logs: Vec<Vec<WalRound>> = seeds
        .iter()
        .map(|&seed| {
            let mut log: Vec<WalRound> = Vec::new();
            evaluator
                .jumble(seed, NUMERICS_EPOCH, Vec::new(), |round| {
                    log.push(round.clone())
                })
                .expect("jumble baseline");
            log
        })
        .collect();

    // Kill profile: jumble 0 was finished-but-unretired (full log),
    // jumble 1 mid-flight (half log), jumble 2 barely started (1 round),
    // jumble 3 untouched. Resume over the threaded farm so in-flight
    // jumbles travel to workers as JumbleResume tasks.
    let dir = workdir("farm");
    let wal_dir = dir.join("wal");
    let plant_ks = [logs[0].len(), logs[1].len() / 2, 1, 0];
    // Farm jumbles are edit-scored, and their logs say so.
    let key = log_key(
        &alignment,
        &SearchConfig {
            incremental: true,
            ..config.clone()
        },
    );
    for (i, (&seed, log)) in seeds.iter().zip(&logs).enumerate() {
        if plant_ks[i] == 0 {
            continue;
        }
        let mut writer =
            WalWriter::create(&wal_dir, 0, seed, alignment.num_taxa(), &key).expect("plant wal");
        for round in &log[..plant_ks[i]] {
            writer.append(round).expect("plant append");
        }
    }

    let mem = MemorySink::new();
    let options = RunOptions {
        wal_dir: Some(wal_dir.clone()),
        ..RunOptions::observed(vec![Box::new(mem.clone())])
    };
    let outcome = run_threaded(&job, 5, options).expect("farm resume");
    let got: Vec<&str> = outcome.runs.iter().map(|r| r.newick.as_str()).collect();
    assert_eq!(got, expected, "farm trees diverged after resume");

    let (_, replayed, _) = wal_event_counts(&mem);
    let planted: usize = plant_ks.iter().sum();
    assert_eq!(replayed, planted as u64, "farm replay count");

    // Every jumble retired its log: the logs are bounded by the in-flight
    // set during the run and gone after it.
    let leftover = logs_left(&wal_dir);
    assert!(leftover.is_empty(), "unretired wal files: {leftover:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The serial farm under a real kill: a coordinator that is SIGKILLed —
/// nothing unwinds, nothing is flushed — with a jumble's rounds on disk
/// is relaunched with the same command line, replays exactly those rounds
/// instead of starting the jumble again, prints the clean run's trees and
/// leaves no log behind. (That the rounds get there *while* the jumble
/// runs, not in a burst after it, is a matter of the clock and is pinned
/// where the clock is one thread's: `core::farm`'s unit tests.)
#[test]
fn serial_farm_killed_mid_jumble_has_its_rounds_on_disk() {
    use std::time::{Duration, Instant};
    let dir = workdir("sigkill");
    // Big enough that a jumble outlasts many polls of its log.
    let tree = fastdnaml::datagen::randtree::yule_tree(14, 0.1, 42);
    let evolution = fastdnaml::datagen::EvolutionConfig::default();
    let alignment = fastdnaml::datagen::evolve(&tree, 300, &evolution, 7, "t");
    std::fs::write(dir.join("data.phy"), phylip::write(&alignment)).expect("write alignment");
    let farm = |tag: &str, wal: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fastdnaml"));
        cmd.arg("--input")
            .arg(dir.join("data.phy"))
            .args(["--jumble", "7", "--jumbles", "2", "--quiet"])
            .arg("--output")
            .arg(dir.join(format!("{tag}.nwk")))
            .arg("--jumble-trees")
            .arg(dir.join(format!("{tag}.trees")));
        if wal {
            cmd.arg("--wal-dir").arg(dir.join("wal"));
            cmd.arg("--obs-out").arg(dir.join(format!("{tag}.jsonl")));
        }
        cmd
    };
    let trees = |tag: &str| std::fs::read_to_string(dir.join(format!("{tag}.trees"))).unwrap();
    assert!(farm("clean", false).status().expect("clean run").success());

    const ROUNDS: usize = 3;
    let logged = || match wal::load(&dir.join("wal"), 0, 7) {
        Ok(Some(state)) => state.rounds.len(),
        _ => 0,
    };
    let mut child = farm("killed", true).spawn().expect("spawn farm");
    let deadline = Instant::now() + Duration::from_secs(300);
    while logged() < ROUNDS {
        let over = child.try_wait().expect("poll farm").is_some();
        assert!(
            !over && Instant::now() < deadline,
            "the farm never had {ROUNDS} rounds of a running jumble on disk"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("kill farm");
    child.wait().expect("reap farm");
    let survived = logged();
    assert!(survived >= ROUNDS, "{survived} rounds survived the kill");
    assert!(!dir.join("killed.trees").exists(), "the farm had finished");

    // Relaunched with the same command line: the prefix is replayed, the
    // trees are the clean run's, and no log is left.
    assert!(farm("resumed", true)
        .status()
        .expect("resumed run")
        .success());
    assert_eq!(trees("resumed"), trees("clean"));
    let events = std::fs::read_to_string(dir.join("resumed.jsonl")).unwrap();
    let replay = format!("\"WalReplay\":{{\"job\":0,\"seed\":7,\"rounds\":{survived}}}");
    assert!(events.contains(&replay), "no {replay} in the event log");
    assert!(logs_left(&dir.join("wal")).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// A crashed run's committed prefix as a build of another numerics epoch
/// would have written it: the header stamped `numerics`, every recorded
/// likelihood a few ULP away from what this build computes.
fn perturbed_log(wal_dir: &Path, seed: u64, rounds: &[WalRound], numerics: u32) {
    let config = SearchConfig {
        jumble_seed: seed,
        ..SearchConfig::default()
    };
    plant_perturbed(
        wal_dir,
        0,
        &log_key(&dataset(), &config),
        seed,
        rounds,
        numerics,
    );
}

/// [`perturbed_log`] as `job`'s log of `seed`, its header naming `key`.
fn plant_perturbed(
    wal_dir: &Path,
    job: u64,
    key: &str,
    seed: u64,
    rounds: &[WalRound],
    numerics: u32,
) {
    let header = WalRecord::Start(WalStart {
        jumble_seed: seed,
        num_taxa: 6,
        numerics,
        problem: Some(key.to_string()),
    });
    let records = std::iter::once(header).chain(rounds.iter().map(|round| {
        WalRecord::Round(WalRound {
            lnl_bits: round.lnl_bits + 3,
            ..round.clone()
        })
    }));
    std::fs::create_dir_all(wal_dir).unwrap();
    let mut log = LogWriter::create(&wal::wal_path(wal_dir, job, seed)).expect("log");
    for record in records {
        let text = serde_json::to_string(&record).unwrap();
        log.append(text.as_bytes()).expect("append");
    }
}

/// The clean run of seed 7 and a log of the same search, killed halfway
/// through its storage operations.
fn clean_run_and_a_killed_prefix(dir: &Path) -> (Found, Vec<WalRound>) {
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };
    let clean = run_session(&config, None).expect("clean run");
    storage::install(StoragePlan::quiet(0));
    run_session(&config, Some(dir.join("probe"))).expect("probe run");
    let total_ops = storage::clear().ops;
    storage::install(StoragePlan::quiet(0).crash_at(total_ops / 2));
    run_session(&config, Some(dir.join("victim"))).expect_err("injected crash");
    storage::clear();
    let prefix = wal::load(&dir.join("victim"), 0, 7)
        .unwrap()
        .unwrap()
        .rounds;
    assert!(prefix.len() >= 2, "{} rounds logged", prefix.len());
    (clean, prefix)
}

/// What a single search found, and how much of it came from a log.
#[derive(Debug)]
struct Found {
    tree: Tree,
    ln_likelihood: f64,
    candidates_evaluated: u64,
    work_units: u64,
    wal_replayed_rounds: usize,
}

/// The in-process search of `config` over the fixture, logging in `wal_dir`.
fn run_session(config: &SearchConfig, wal_dir: Option<PathBuf>) -> Result<Found, String> {
    let job = ResolvedJob::single(dataset(), config.clone());
    let mem = MemorySink::new();
    let options = RunOptions {
        wal_dir,
        ..RunOptions::observed(vec![Box::new(mem.clone())])
    };
    let outcome = run_in_process(&job, options).map_err(|e| e.to_string())?;
    let run = &outcome.runs[0];
    let (_, replayed, _) = wal_event_counts(&mem);
    Ok(Found {
        tree: run.tree(dataset().names()).map_err(|e| e.to_string())?,
        ln_likelihood: run.ln_likelihood,
        candidates_evaluated: run.candidates,
        work_units: run.work_units,
        wal_replayed_rounds: replayed as usize,
    })
}

/// A numerics-epoch bump no longer throws a single search's log away. A
/// log of another epoch whose likelihoods differ in the last bits resumes
/// along the same trajectory: the same topology, a likelihood within the
/// replay tolerance, and only the rounds after the log computed.
#[test]
fn a_log_of_another_epoch_resumes_to_the_same_tree() {
    let dir = workdir("epoch");
    let (clean, prefix) = clean_run_and_a_killed_prefix(&dir);
    let foreign = dir.join("foreign");
    perturbed_log(&foreign, 7, &prefix, NUMERICS_EPOCH - 1);
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };
    let resumed = run_session(&config, Some(foreign.clone())).expect("a foreign epoch resumes");
    let rf = robinson_foulds(&resumed.tree, &clean.tree, 6);
    assert_eq!(rf, 0, "topology diverged");
    let drift = (resumed.ln_likelihood - clean.ln_likelihood).abs();
    assert!(
        drift <= 1e-6 * clean.ln_likelihood.abs(),
        "lnL drifted {drift}"
    );
    assert_eq!(resumed.wal_replayed_rounds, prefix.len());
    assert!(resumed.candidates_evaluated < clean.candidates_evaluated);
    assert!(resumed.work_units < clean.work_units);
    assert!(!wal::wal_path(&foreign, 0, 7).exists(), "log retired");
    std::fs::remove_dir_all(&dir).ok();
}

/// The same perturbed log claiming this build's epoch is refused: within
/// an epoch a replay that misses a bit is a different run.
#[test]
fn a_perturbed_log_of_this_epoch_is_refused() {
    let dir = workdir("same_epoch");
    let (_, prefix) = clean_run_and_a_killed_prefix(&dir);
    let same = dir.join("same");
    perturbed_log(&same, 7, &prefix, NUMERICS_EPOCH);
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };
    let err = run_session(&config, Some(same)).expect_err("a perturbed log of this epoch");
    assert!(err.contains("divergence"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A killed single search's log as a build before the one run shape left
/// it — named, and its header stamped, by the unadjusted seed
/// (`--jumble 4` as `jumble-4.wal`), with no manifest beside it — is
/// adopted under the adjusted seed's name and resumed: the uninterrupted
/// run's tree and likelihood, the prefix replayed, no log left.
#[test]
fn a_log_named_by_the_unadjusted_seed_resumes() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 4,
        ..SearchConfig::default()
    };
    let dir = workdir("unadjusted");
    let clean = run_serial(&alignment, &config, &dir.join("clean")).expect("clean run");
    storage::install(StoragePlan::quiet(0));
    run_serial(&alignment, &config, &dir.join("probe")).expect("probe run");
    let total_ops = storage::clear().ops;
    let old = dir.join("old");
    storage::install(StoragePlan::quiet(0).crash_at(total_ops / 2));
    run_serial(&alignment, &config, &old).expect_err("injected crash");
    storage::clear();

    let state = wal::load(&old, 0, 5)
        .unwrap()
        .expect("the killed run's log");
    assert!(!state.rounds.is_empty(), "no round logged");
    std::fs::remove_file(wal::wal_path(&old, 0, 5)).unwrap();
    let _ = std::fs::remove_file(wal::manifest_path(&old, 0));
    let header = WalRecord::Start(WalStart {
        jumble_seed: 4,
        ..state.start.clone()
    });
    let rounds = state.rounds.iter().cloned().map(WalRecord::Round);
    let mut log = LogWriter::create(&wal::wal_path(&old, 0, 4)).unwrap();
    for record in std::iter::once(header).chain(rounds) {
        log.append(serde_json::to_string(&record).unwrap().as_bytes())
            .unwrap();
    }
    drop(log);

    let mem = MemorySink::new();
    let options = RunOptions {
        wal_dir: Some(old.clone()),
        ..RunOptions::observed(vec![Box::new(mem.clone())])
    };
    let job = ResolvedJob::single(alignment.clone(), config.clone());
    let resumed = run_in_process(&job, options).expect("the old log resumes");
    let run = &resumed.runs[0];
    assert_eq!((run.newick.clone(), run.ln_likelihood.to_bits()), clean);
    let (_, replayed, _) = wal_event_counts(&mem);
    assert_eq!(
        replayed,
        state.rounds.len() as u64,
        "the prefix was replayed"
    );
    assert!(logs_left(&old).is_empty(), "{:?} left", logs_left(&old));
    assert!(wal::manifest_path(&old, 0).exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// The PR 17 fixture (`--jumble 7`, crashed after two rounds, numerics
/// epoch 0) planted as `job`'s log of seed 7 in `wal_dir`, its header
/// naming problem `key` and nothing else changed. Returns its rounds.
fn plant_pr17_log(wal_dir: &Path, job: u64, key: &str) -> usize {
    let old = include_bytes!("../crates/core/testdata/pr17-jumble-7.wal");
    let records = fastdnaml::core::durable::validate_log_bytes(old).records;
    let mut header: WalRecord =
        serde_json::from_str(std::str::from_utf8(&records[0]).unwrap()).unwrap();
    let WalRecord::Start(start) = &mut header else {
        panic!("the fixture opens with its header");
    };
    assert_eq!((start.jumble_seed, start.numerics), (7, 0));
    start.problem = Some(key.to_string());
    std::fs::create_dir_all(wal_dir).unwrap();
    let mut log = LogWriter::create(&wal::wal_path(wal_dir, job, 7)).unwrap();
    log.append(serde_json::to_string(&header).unwrap().as_bytes())
        .unwrap();
    for round in &records[1..] {
        log.append(round).unwrap();
    }
    records.len() - 1
}

/// The first half of the rounds an edit-scored jumble of seed 7 commits
/// — a farm's or a daemon's jumble, as its worker runs it — ready to plant
/// as a log of another numerics epoch ([`plant_perturbed`]).
fn an_edit_scored_prefix() -> Vec<WalRound> {
    let config = SearchConfig::default();
    let evaluator = Evaluator::for_problem(PHYLIP, &config.engine_config_json()).unwrap();
    let mut rounds = Vec::new();
    evaluator
        .jumble(7, NUMERICS_EPOCH, Vec::new(), |round| {
            rounds.push(round.clone())
        })
        .expect("the jumble runs");
    rounds.truncate(rounds.len() / 2);
    assert!(rounds.len() >= 2, "{} rounds in the prefix", rounds.len());
    rounds
}

/// `is` resumed what `was` ran fresh: the same topology and a likelihood
/// within the replay tolerance.
fn same_search(is: &str, was: &str, is_lnl: f64, was_lnl: f64) {
    let parse = |text| fastdnaml::phylo::newick::parse_tree(text, &dataset()).unwrap();
    assert_eq!(
        robinson_foulds(&parse(is), &parse(was), 6),
        0,
        "topology diverged"
    );
    let drift = (is_lnl - was_lnl).abs();
    assert!(drift <= 1e-6 * was_lnl.abs(), "lnL drifted {drift}");
}

/// The one replay rule, for a farm jumble over threads: a log of another
/// numerics epoch resumes rather than restarts — the same topology, a
/// likelihood within the replay tolerance, and fewer candidates and work
/// units than the fresh jumble, the prefix replayed, not recomputed. The
/// epoch-0 fixture of [`plant_pr17_log`], a whole-tree search's prefix no
/// farm writes, is replayed round for round too.
#[test]
fn a_farm_jumble_resumes_a_log_of_another_epoch_over_threads() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 2).unwrap();
    let fresh = run_threaded(&job, 5, RunOptions::default()).expect("fresh farm");
    let edit = SearchConfig {
        incremental: true,
        ..config
    };
    let key = log_key(&alignment, &edit);
    // The farm over `wal_dir`: its seed-7 run and the rounds it replayed.
    let resume = |wal_dir: &Path| {
        let mem = MemorySink::new();
        let options = RunOptions {
            wal_dir: Some(wal_dir.to_path_buf()),
            ..RunOptions::observed(vec![Box::new(mem.clone())])
        };
        let resumed = run_threaded(&job, 5, options).expect("resumed farm");
        assert!(logs_left(wal_dir).is_empty(), "the log is retired");
        (resumed.runs[0].clone(), wal_event_counts(&mem).1)
    };

    let dir = workdir("farm_epoch");
    let prefix = an_edit_scored_prefix();
    plant_perturbed(&dir.join("edit"), 0, &key, 7, &prefix, 0);
    let (is, replayed) = resume(&dir.join("edit"));
    assert_eq!(replayed, prefix.len() as u64, "the prefix was replayed");
    let was = &fresh.runs[0];
    assert_eq!((was.seed, is.seed), (7, 7));
    same_search(&is.newick, &was.newick, is.ln_likelihood, was.ln_likelihood);
    assert!(
        is.candidates < was.candidates,
        "{} vs {}",
        is.candidates,
        was.candidates
    );
    assert!(
        is.work_units < was.work_units,
        "{} vs {}",
        is.work_units,
        was.work_units
    );

    let planted = plant_pr17_log(&dir.join("pr17"), 0, &key);
    let (_, replayed) = resume(&dir.join("pr17"));
    assert_eq!(replayed, planted as u64, "the fixture was replayed");
    std::fs::remove_dir_all(&dir).ok();
}

/// The same rule for a daemon job: its jumble travels to a worker as a
/// resumed task carrying the prefix's epoch, and the worker replays it.
/// The reply carries no candidate count, so "fewer" is read off the work
/// units the worker reports and the rounds it computed live.
#[test]
fn a_daemon_job_resumes_a_log_of_another_epoch() {
    use fastdnaml::comm::job::JobSpec;
    use fastdnaml::comm::recording::Recording;
    use fastdnaml::core::worker::run_worker;
    use fastdnaml::net::TcpTransport;
    use fastdnaml::obs::Obs;
    use fastdnaml::serve::{client, Daemon, ServeOptions};
    use std::time::Duration;

    let spec = JobSpec {
        phylip: PHYLIP.into(),
        config_json: SearchConfig::default().engine_config_json(),
        jumbles: 1,
        base_seed: 7,
        max_ranks: 0,
        max_wall_ms: 0,
        label: String::new(),
    };
    // One daemon job of seed 7 over one worker: its tree, its likelihood,
    // the work units the worker spent and the rounds it streamed.
    let job_run = |state: &Path| {
        let daemon = Daemon::start(ServeOptions::new("127.0.0.1:0", 4, state)).unwrap();
        let addr = daemon.local_addr();
        let mem = MemorySink::new();
        let obs = Obs::new(Box::new(mem.clone()));
        let worker = std::thread::spawn(move || {
            let transport = TcpTransport::connect(addr).expect("worker joins");
            let _ = run_worker(Recording::new(transport, obs.clone()), obs);
        });
        let id = client::submit(addr, &spec).unwrap();
        assert_eq!(id, 1, "the planted log is job 1's");
        let result = client::attach(addr, id, Duration::from_secs(120), &mut |_| {}).unwrap();
        daemon.stop();
        worker.join().unwrap();
        let (mut work_units, mut streamed) = (0, 0);
        for record in mem.take() {
            match record.event {
                Event::WorkerTaskDone { work_units: w, .. } => work_units += w,
                Event::MessageSent { kind, .. } if kind == "WalRound" => streamed += 1,
                _ => {}
            }
        }
        (result.trees[0].clone(), work_units, streamed)
    };
    let dir = workdir("daemon_epoch");
    let (was, was_work, was_rounds) = job_run(&dir.join("fresh"));
    let resolved = ResolvedJob::from_spec(&spec).unwrap();
    let key = log_key(&resolved.alignment, &resolved.config);

    let state = dir.join("edit");
    let prefix = an_edit_scored_prefix();
    plant_perturbed(&state.join("wal"), 1, &key, 7, &prefix, 0);
    let (is, is_work, is_rounds) = job_run(&state);
    same_search(&is.newick, &was.newick, is.ln_likelihood, was.ln_likelihood);
    assert!(is_work < was_work, "{is_work} vs {was_work} work units");
    assert_eq!(is_rounds + prefix.len(), was_rounds, "rounds computed live");
    assert!(
        logs_left(&state.join("wal")).is_empty(),
        "the log is retired"
    );

    let state = dir.join("pr17");
    let planted = plant_pr17_log(&state.join("wal"), 1, &key);
    let (_, _, is_rounds) = job_run(&state);
    assert_eq!(is_rounds + planted, was_rounds, "the fixture was replayed");
    assert!(
        logs_left(&state.join("wal")).is_empty(),
        "the log is retired"
    );
    std::fs::remove_dir_all(&dir).ok();
}
