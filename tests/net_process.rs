//! Multi-process end-to-end tests: the real `fastdnaml` binary running the
//! TCP transport — the coordinator hosting ranks 0–2, one OS process per
//! worker — over loopback.

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

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdml_net_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(dir.join("data.phy"), PHYLIP).expect("write alignment");
    dir
}

/// Replace the work directory's 6-taxon toy (a search of a few
/// milliseconds — over before the second worker process has announced
/// itself, and well inside the supervisor's respawn backoff) with a
/// synthesized problem big enough that the run comfortably outlasts a
/// late joiner's first tasks, its death, and its re-fork.
fn write_outlasting_problem(dir: &Path) {
    let tree = fastdnaml::datagen::randtree::yule_tree(12, 0.1, 42);
    let aln = fastdnaml::datagen::evolve(
        &tree,
        300,
        &fastdnaml::datagen::EvolutionConfig::default(),
        7,
        "t",
    );
    std::fs::write(dir.join("data.phy"), fastdnaml::phylo::phylip::write(&aln))
        .expect("write synthesized alignment");
}

fn fastdnaml() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastdnaml"))
}

/// Run the binary, assert success, return (stdout, stderr).
fn run(dir: &Path, extra: &[&str]) -> (String, String) {
    let mut cmd = fastdnaml();
    cmd.args(["--input"])
        .arg(dir.join("data.phy"))
        .args(["--jumble", "7"]);
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
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The events of an obs log, in order.
fn events(log: &Path) -> Vec<fastdnaml::obs::Event> {
    let text = std::fs::read_to_string(log).expect("event log written");
    let records = fastdnaml::obs::JsonlSink::parse(&text).expect("valid JSONL");
    records.into_iter().map(|r| r.event).collect()
}

/// The `RunFinished` likelihood from an obs event log.
fn final_lnl(log: &Path) -> f64 {
    events(log)
        .iter()
        .find_map(|e| match e {
            fastdnaml::obs::Event::RunFinished { ln_likelihood } => Some(*ln_likelihood),
            _ => None,
        })
        .expect("RunFinished event present")
}

/// The ranks whose processes dialed the hub, in rank order.
fn connected_ranks(log: &Path) -> Vec<usize> {
    let mut ranks: Vec<usize> = events(log)
        .iter()
        .filter_map(|e| match e {
            fastdnaml::obs::Event::NetPeerConnected { rank } => Some(*rank),
            _ => None,
        })
        .collect();
    ranks.sort_unstable();
    ranks
}

#[test]
fn spawned_processes_match_threaded_parallel_exactly() {
    let dir = workdir("spawn");
    let net_log = dir.join("net.jsonl");
    let thr_log = dir.join("thr.jsonl");
    // One command, two OS processes: the coordinator (master, foreman and
    // monitor) and one worker, talking over loopback TCP.
    let (net_tree, _) = run(
        &dir,
        &[
            "--net",
            "spawn",
            "4",
            "--quiet",
            "--obs-out",
            net_log.to_str().unwrap(),
        ],
    );
    let (thr_tree, _) = run(
        &dir,
        &[
            "--parallel",
            "4",
            "--quiet",
            "--obs-out",
            thr_log.to_str().unwrap(),
        ],
    );
    // Same search decisions in both deployments: the emitted Newick is
    // byte-for-byte identical, and the final likelihood matches to well
    // under 1e-9 (the events carry it at full f64 precision).
    assert_eq!(net_tree, thr_tree);
    let (net_lnl, thr_lnl) = (final_lnl(&net_log), final_lnl(&thr_log));
    assert!(
        (net_lnl - thr_lnl).abs() < 1e-9,
        "net {net_lnl} vs threads {thr_lnl}"
    );
    // Only the worker is a process that dials in: ranks 1 and 2 are hosted
    // by the coordinator.
    assert_eq!(connected_ranks(&net_log), [3]);
    // ... so the coordinator's own log now holds the foreman's scheduling
    // events, the same ones the threaded run records.
    use fastdnaml::obs::Event;
    let count =
        |log: &Path, kind: fn(&Event) -> bool| events(log).iter().filter(|e| kind(e)).count();
    let dispatched = |e: &Event| matches!(e, Event::TaskDispatched { .. });
    assert!(count(&net_log, dispatched) > 0);
    assert_eq!(count(&net_log, dispatched), count(&thr_log, dispatched));
    assert_eq!(
        count(&net_log, |e| matches!(e, Event::TaskCompleted { .. })),
        count(&net_log, dispatched)
    );
    assert!(count(&net_log, |e| matches!(e, Event::QueueDepth { .. })) > 0);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn killed_worker_process_is_requeued_and_the_result_stands() {
    let dir = workdir("chaos");
    let log = dir.join("events.jsonl");
    // Rank 4 must be handed a third task to die on.
    write_outlasting_problem(&dir);
    let (clean_tree, _) = run(&dir, &["--net", "spawn", "5", "--quiet"]);
    // Worker rank 4 calls process::exit after two results: a genuine
    // process death the foreman must detect (timeout, then the eager
    // disconnect path) and route around.
    let (chaos_tree, stderr) = run(
        &dir,
        &[
            "--net",
            "spawn",
            "5",
            "--die-rank",
            "4",
            "--die-after-tasks",
            "2",
            "--worker-timeout-ms",
            "300",
            "--obs-out",
            log.to_str().unwrap(),
        ],
    );
    assert_eq!(chaos_tree, clean_tree);
    assert!(
        stderr.contains("peer rank 4 exited with Some(3)"),
        "stderr: {stderr}"
    );
    let text = std::fs::read_to_string(&log).unwrap();
    let records = fastdnaml::obs::JsonlSink::parse(&text).unwrap();
    assert!(
        records.iter().any(|r| matches!(
            r.event,
            fastdnaml::obs::Event::NetPeerDisconnected {
                rank: 4,
                graceful: false
            }
        )),
        "hub must record the ungraceful death of rank 4"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn supervised_worker_is_respawned_and_readmitted() {
    let dir = workdir("respawn");
    let log = dir.join("events.jsonl");
    // Outlast death, re-fork and re-admission, not just the death.
    write_outlasting_problem(&dir);
    let (clean_tree, _) = run(&dir, &["--net", "spawn", "5", "--quiet"]);
    // Worker rank 4 dies after two results, but this time a supervisor is
    // watching: the dead process is re-forked (without the die flags), it
    // dials back in, is re-bound to its old rank, receives the problem
    // data again, and serves the rest of the run.
    let (chaos_tree, _) = run(
        &dir,
        &[
            "--net",
            "spawn",
            "5",
            "--supervise",
            "--die-rank",
            "4",
            "--die-after-tasks",
            "2",
            "--worker-timeout-ms",
            "300",
            "--obs-out",
            log.to_str().unwrap(),
        ],
    );
    assert_eq!(chaos_tree, clean_tree);
    let text = std::fs::read_to_string(&log).unwrap();
    let records = fastdnaml::obs::JsonlSink::parse(&text).unwrap();
    assert!(
        records.iter().any(|r| matches!(
            r.event,
            fastdnaml::obs::Event::WorkerRespawned {
                worker: 4,
                restarts
            } if restarts >= 1
        )),
        "supervisor must record the respawn of rank 4"
    );
    assert!(
        records.iter().any(|r| matches!(
            r.event,
            fastdnaml::obs::Event::NetPeerReconnected { rank: 4, .. }
        )),
        "hub must re-bind the respawned process to rank 4"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn json_wire_matches_binary_wire_exactly() {
    let dir = workdir("wirefmt");
    // Same universe, opposite hub codecs. The peers default to binary, so
    // the JSON run is a genuinely mixed fleet (JSON hub ↔ binary workers)
    // relying on per-connection negotiation.
    let (binary_tree, _) = run(
        &dir,
        &["--net", "spawn", "4", "--quiet", "--wire", "binary"],
    );
    let (json_tree, _) = run(&dir, &["--net", "spawn", "4", "--quiet", "--wire", "json"]);
    assert_eq!(json_tree, binary_tree);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn incremental_search_is_identical_at_every_fleet_size_and_topology() {
    // The verify wave is as wide as the fleet: one worker verifies the
    // leading candidates one at a time, three verify three at once.
    // Threads and processes, at three different widths, must all emit the
    // same bytes.
    let dir = workdir("inc_widths");
    let (one_worker, _) = run(&dir, &["--parallel", "4", "--incremental", "--quiet"]);
    for flags in [&["--parallel", "6"][..], &["--net", "spawn", "5"]] {
        let mut args = flags.to_vec();
        args.extend(["--incremental", "--quiet"]);
        let (tree, _) = run(&dir, &args);
        assert_eq!(tree, one_worker, "{flags:?}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_flat_universe_relays_nothing() {
    use fastdnaml::core::config::SearchConfig;
    use fastdnaml::core::job::ResolvedJob;
    use fastdnaml::core::netrun::{run_net, NetOptions, NetSpawn};
    use fastdnaml::core::runner::RunOptions;

    let alignment = fastdnaml::phylo::phylip::parse(PHYLIP).unwrap();
    let config = SearchConfig {
        jumble_seed: 7,
        incremental: true,
        ..SearchConfig::default()
    };
    let job = ResolvedJob::single(alignment, config);
    let spawn = NetSpawn {
        quiet: true,
        ..NetSpawn::new(env!("CARGO_BIN_EXE_fastdnaml").into())
    };
    let options = NetOptions::new("127.0.0.1:0", 5).spawning(spawn);
    // The workers speak only to the foreman, and the foreman lives in the
    // coordinator — nothing goes from one socket to another, and the
    // coordinator hands back the foreman's and the monitor's counts.
    let flat = run_net(&job, options, RunOptions::default()).expect("net search");
    assert_eq!(flat.relayed, 0);
    let foreman = flat.foreman;
    assert!(foreman.dispatched > 0);
    assert_eq!(foreman.results_forwarded, foreman.dispatched);
    assert!(flat.monitor.events > 0);
}

#[test]
fn a_timeout_shorter_than_every_task_costs_no_task_twice_on_one_worker_process() {
    // The `--net spawn 5` twin of the threaded runtime's test: every task
    // outlasts the timeout, so every worker process is timed out on every
    // task and computes it anyway. Handed more work before it has
    // answered, it would time out behind its own backlog.
    use fastdnaml::core::config::SearchConfig;
    use fastdnaml::core::job::ResolvedJob;
    use fastdnaml::core::netrun::{run_net, NetOptions, NetSpawn};
    use fastdnaml::core::runner::{run_in_process, RunOptions};
    use fastdnaml::datagen::{evolve, randtree::yule_tree, EvolutionConfig};
    use fastdnaml::obs::MemorySink;
    use std::time::Duration;

    let alignment = evolve(
        &yule_tree(9, 0.1, 51),
        400,
        &EvolutionConfig::default(),
        6,
        "taxon",
    );
    let search = |config: &SearchConfig, observed: bool| {
        let job = ResolvedJob::single(alignment.clone(), config.clone());
        let spawn = NetSpawn {
            quiet: true,
            ..NetSpawn::new(env!("CARGO_BIN_EXE_fastdnaml").into())
        };
        let options = NetOptions::new("127.0.0.1:0", 5).spawning(spawn);
        let sinks: Vec<Box<dyn fastdnaml::obs::Sink>> = match observed {
            true => vec![Box::new(MemorySink::new())],
            false => Vec::new(),
        };
        run_net(&job, options, RunOptions::observed(sinks)).expect("net search")
    };
    let fault_free = SearchConfig {
        jumble_seed: 11,
        ..SearchConfig::default()
    };
    let measured = search(&fault_free, true);
    let quickest = measured.report.expect("report").service_us.min;
    // The master's task stream does not depend on the timeout.
    let tasks = measured.foreman.dispatched;
    let config = SearchConfig {
        worker_timeout: Duration::from_micros(quickest / 2).max(Duration::from_micros(1)),
        ..fault_free
    };
    let outcome = search(&config, false);
    let stats = outcome.foreman;
    assert!(stats.timeouts >= 1, "{stats:?}");
    // Ranks 3 and 4 are the worker processes.
    assert!(
        stats.dispatched <= 2 * tasks,
        "{tasks} tasks, timeout {:?}: {stats:?}",
        config.worker_timeout
    );
    let job = ResolvedJob::single(alignment.clone(), config.clone());
    let serial = run_in_process(&job, RunOptions::default()).expect("serial");
    let (serial, result) = (serial.search.unwrap(), outcome.search.unwrap());
    assert_eq!(serial.tree, result.tree);
    assert_eq!(
        serial.ln_likelihood.to_bits(),
        result.ln_likelihood.to_bits()
    );
}

/// Every way of deploying a search, one worker to three, with and without
/// a runtime.
const DEPLOYMENTS: [&[&str]; 4] = [
    &[],
    &["--parallel", "4"],
    &["--parallel", "6"],
    &["--net", "spawn", "5"],
];

#[test]
fn every_deployment_emits_the_same_tree_and_the_same_wal_records() {
    use fastdnaml::chaos::storage::{self, StoragePlan};
    use fastdnaml::core::config::SearchConfig;
    use fastdnaml::core::job::ResolvedJob;
    use fastdnaml::core::runner::{run_in_process, RunOptions};
    use fastdnaml::core::wal;

    let dir = workdir("identity");
    let alignment = fastdnaml::phylo::phylip::parse(PHYLIP).unwrap();
    let search = |seed: &str, mode: &str, deployment: &[&str], extra: &[&str]| {
        let mut cmd = fastdnaml();
        cmd.args(["--input"])
            .arg(dir.join("data.phy"))
            .args(["--jumble", seed, mode, "--quiet"])
            .args(deployment)
            .args(extra);
        cmd.output().expect("run fastdnaml")
    };
    for seed in [1u64, 5, 7, 11] {
        for incremental in [false, true] {
            let mode = if incremental {
                "--incremental"
            } else {
                "--no-incremental"
            };
            let seed_arg = seed.to_string();
            // The in-process run with no runtime at all is the reference.
            let mut trees = DEPLOYMENTS.iter().map(|deployment| {
                let out = search(&seed_arg, mode, deployment, &[]);
                assert!(out.status.success(), "{deployment:?} failed");
                String::from_utf8(out.stdout).unwrap()
            });
            let reference = trees.next().unwrap();
            for (tree, deployment) in trees.zip(&DEPLOYMENTS[1..]) {
                assert_eq!(tree, reference, "seed {seed} {mode} {deployment:?}");
            }

            // The round log, compared as the bytes a crash at the log's
            // last storage operation leaves behind: count the operations
            // of the search in process, then stop every deployment there.
            let config = SearchConfig {
                jumble_seed: seed,
                incremental,
                ..SearchConfig::default()
            };
            // A finished run's manifest answers a re-run: each probe gets
            // a directory of its own.
            let probe = RunOptions {
                wal_dir: Some(dir.join(format!("probe-{seed}-{incremental}"))),
                ..RunOptions::default()
            };
            storage::install(StoragePlan::quiet(0));
            run_in_process(&ResolvedJob::single(alignment.clone(), config), probe).unwrap();
            let last_op = (storage::clear().ops - 1).to_string();
            let mut logs = DEPLOYMENTS.iter().enumerate().map(|(i, deployment)| {
                let wal_dir = dir.join(format!("wal-{seed}-{incremental}-{i}"));
                let out = search(
                    &seed_arg,
                    mode,
                    deployment,
                    &[
                        "--wal-dir",
                        wal_dir.to_str().unwrap(),
                        "--chaos-storage-crash",
                        &last_op,
                    ],
                );
                assert!(
                    !out.status.success(),
                    "{deployment:?}: crash did not surface"
                );
                let rounds = wal::load(&wal_dir, 0, seed).unwrap().unwrap().rounds;
                assert!(rounds.len() > 4, "{deployment:?}: {} rounds", rounds.len());
                std::fs::read(wal::wal_path(&wal_dir, 0, seed)).unwrap()
            });
            let reference = logs.next().unwrap();
            for (log, deployment) in logs.zip(&DEPLOYMENTS[1..]) {
                assert_eq!(log, reference, "seed {seed} {mode} {deployment:?}: wal");
            }
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_farm_jumble_is_the_single_edit_scored_search_of_its_seed() {
    let dir = workdir("farm_lines");
    let trees = dir.join("trees.txt");
    run(
        &dir,
        &[
            "--jumbles",
            "3",
            "--quiet",
            "--jumble-trees",
            trees.to_str().unwrap(),
        ],
    );
    let lines = std::fs::read_to_string(&trees).expect("jumble trees written");
    // `run` searches from seed 7, so the farm planned seeds 7, 9, 11.
    for (line, seed) in lines.lines().zip(["7", "9", "11"]) {
        let out = fastdnaml()
            .args(["--input"])
            .arg(dir.join("data.phy"))
            .args(["--jumble", seed, "--incremental", "--quiet"])
            .output()
            .expect("run fastdnaml");
        assert!(out.status.success());
        assert_eq!(
            String::from_utf8(out.stdout).unwrap().trim(),
            line,
            "seed {seed}"
        );
    }
    assert_eq!(lines.lines().count(), 3);
    std::fs::remove_dir_all(dir).ok();
}
