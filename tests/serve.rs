//! End-to-end tests of the `fdml-serve` daemon: multi-tenant scheduling
//! over one shared fleet, byte-identical results vs serial runs, a worker
//! lost mid-jumble, durable restart-resume, and typed admission control.

use fastdnaml::comm::job::{JobSpec, JobState, RejectReason};
use fastdnaml::comm::message::Message;
use fastdnaml::comm::transport::{ranks, Transport};
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, RunOptions};
use fastdnaml::core::worker::run_worker;
use fastdnaml::net::TcpTransport;
use fastdnaml::obs::{Event, JsonlSink, Obs};
use fastdnaml::phylo::patterns::PatternAlignment;
use fastdnaml::phylo::phylip;
use fastdnaml::prelude::SearchConfig;
use fastdnaml::serve::{client, Daemon, ServeOptions};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

fn spec(phylip: &str, jumbles: usize, base_seed: u64, label: &str) -> JobSpec {
    JobSpec {
        phylip: phylip.into(),
        config_json: SearchConfig::default().engine_config_json(),
        jumbles,
        base_seed,
        max_ranks: 0,
        max_wall_ms: 0,
        label: label.into(),
    }
}

const PHYLIP_A: &str = " 5 16\nta0 ACGTACGTACGTACGT\nta1 ACGTACGAACGTACGA\nta2 ACTTACGAACGAACGA\nta3 TCTTACGAACGATCGA\nta4 TCTTACGTACGATCGT\n";
const PHYLIP_B: &str = " 4 16\ntb0 AAGTACGTAGGTACGT\ntb1 ACGTACTAACGTACTA\ntb2 ACTTACGAACGAACGA\ntb3 TCTTAGGAACGATCGA\n";

/// The ground truth the daemon must reproduce byte-for-byte: every
/// planned seed as the single edit-scored search under that seed
/// (`--jumble seed --incremental`), serially and in process.
fn serial_reference(spec: &JobSpec) -> Vec<(u64, String, f64)> {
    let resolved = ResolvedJob::from_spec(spec).unwrap();
    resolved
        .seeds
        .iter()
        .map(|&seed| {
            let config = SearchConfig {
                jumble_seed: seed,
                incremental: true,
                ..resolved.config.clone()
            };
            let single = ResolvedJob::single(resolved.alignment.clone(), config);
            let run = run_in_process(&single, RunOptions::default()).unwrap();
            (seed, run.runs[0].newick.clone(), run.runs[0].ln_likelihood)
        })
        .collect()
}

/// Join `n` in-process workers to the daemon's shared fleet.
fn fleet(addr: SocketAddr, n: usize) -> Vec<JoinHandle<()>> {
    (0..n)
        .map(|_| {
            thread::spawn(move || {
                if let Ok(transport) = TcpTransport::connect(addr) {
                    let _ = run_worker(transport, Obs::disabled());
                }
            })
        })
        .collect()
}

/// A worker that answers the daemon's probes like a real one and hangs up
/// on the first jumble it is handed; whether it was handed one.
fn deserter(addr: SocketAddr) -> JoinHandle<bool> {
    let jumble =
        |msg: &Message| matches!(msg, Message::JobTask { .. } | Message::JumbleResume { .. });
    thread::spawn(move || {
        let transport = TcpTransport::connect(addr).unwrap();
        while let Ok((_, msg)) = transport.recv() {
            match msg {
                Message::Ping => {
                    let _ = transport.send(ranks::FOREMAN, &Message::WorkerReady);
                }
                msg if jumble(&msg) => return true,
                Message::Shutdown => return false,
                _ => {}
            }
        }
        false
    })
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdml-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_jobs_over_one_fleet_match_serial_runs() {
    let dir = state_dir("concurrent");
    let daemon = Daemon::start(ServeOptions::new("127.0.0.1:0", 5, &dir)).unwrap();
    let addr = daemon.local_addr();
    let workers = fleet(addr, 2);

    let spec_a = spec(PHYLIP_A, 3, 7, "farm-a");
    let spec_b = spec(PHYLIP_B, 2, 11, "farm-b");
    let want_a = serial_reference(&spec_a);
    let want_b = serial_reference(&spec_b);

    let job_a = client::submit(addr, &spec_a).unwrap();
    let job_b = client::submit(addr, &spec_b).unwrap();
    assert_ne!(job_a, job_b);

    // Attach to both from separate threads so the two farms run, and
    // finish, interleaved over the same two workers.
    let attach = |job| {
        thread::spawn(move || {
            let mut events = Vec::new();
            let result = client::attach(addr, job, Duration::from_secs(120), &mut |e| {
                events.push(e.to_string())
            })
            .unwrap();
            (result, events)
        })
    };
    let (result_a, events_a) = attach(job_a).join().unwrap();
    let (result_b, _) = attach(job_b).join().unwrap();

    for (want, result) in [(&want_a, &result_a), (&want_b, &result_b)] {
        assert_eq!(result.trees.len(), want.len());
        for (tree, (seed, newick_text, lnl)) in result.trees.iter().zip(want.iter()) {
            assert_eq!(tree.seed, *seed);
            assert_eq!(&tree.newick, newick_text, "tree for seed {seed} diverged");
            assert!((tree.ln_likelihood - lnl).abs() < 1e-9);
        }
    }
    // Multi-jumble jobs carry a consensus and a per-job report.
    assert!(result_a.consensus_newick.is_some());
    assert!(result_a.report.is_some());
    assert!(!events_a.is_empty());
    // Best tree = strictly-best (first on ties) of the serial reference.
    let best_a = want_a
        .iter()
        .fold(&want_a[0], |b, t| if t.2 > b.2 { t } else { b });
    assert_eq!(result_a.best_newick, best_a.1);

    let status = client::status(addr, job_a).unwrap();
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.done, status.total);
    assert_eq!(status.label, "farm-a");

    daemon.stop();
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_lost_mid_jumble_costs_the_job_nothing() {
    let dir = state_dir("deserter");
    let daemon = Daemon::start(ServeOptions::new("127.0.0.1:0", 5, &dir)).unwrap();
    let addr = daemon.local_addr();
    // The deserter is in the fleet first, so it is handed one of the
    // first jumbles; the real worker must pick up what it drops.
    let deserter = deserter(addr);
    thread::sleep(Duration::from_millis(300));
    let workers = fleet(addr, 1);
    let spec_a = spec(PHYLIP_A, 4, 41, "deserted");
    let want = serial_reference(&spec_a);
    let job = client::submit(addr, &spec_a).unwrap();
    let result = client::attach(addr, job, Duration::from_secs(120), &mut |_| {}).unwrap();
    assert!(
        deserter.join().unwrap(),
        "the deserter was handed no jumble"
    );
    let seeds: Vec<u64> = result.trees.iter().map(|t| t.seed).collect();
    let want_seeds: Vec<u64> = want.iter().map(|w| w.0).collect();
    assert_eq!(seeds, want_seeds);
    for (tree, (seed, newick_text, _)) in result.trees.iter().zip(want.iter()) {
        assert_eq!(&tree.newick, newick_text, "seed {seed} diverged");
    }
    daemon.stop();
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_restart_resumes_both_jobs_from_durable_state() {
    let dir = state_dir("restart");
    let spec_a = spec(PHYLIP_A, 4, 17, "restart-a");
    let spec_b = spec(PHYLIP_B, 3, 23, "restart-b");
    let want_a = serial_reference(&spec_a);
    let want_b = serial_reference(&spec_b);

    // First daemon: submit both jobs, let at least one jumble land, then
    // die without ceremony.
    let (job_a, job_b) = {
        let daemon = Daemon::start(ServeOptions::new("127.0.0.1:0", 4, &dir)).unwrap();
        let addr = daemon.local_addr();
        let workers = fleet(addr, 1);
        let job_a = client::submit(addr, &spec_a).unwrap();
        let job_b = client::submit(addr, &spec_b).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let done_a = client::status(addr, job_a).unwrap().done;
            let done_b = client::status(addr, job_b).unwrap().done;
            if done_a + done_b >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "no jumble finished in time");
            thread::sleep(Duration::from_millis(20));
        }
        daemon.kill();
        for w in workers {
            let _ = w.join();
        }
        (job_a, job_b)
    };

    // Second daemon, same state directory, fresh port and fleet: both
    // jobs resume and finish with the full serial-identical tree sets.
    let daemon = Daemon::start(ServeOptions::new("127.0.0.1:0", 5, &dir)).unwrap();
    let addr = daemon.local_addr();
    let workers = fleet(addr, 2);
    for (job, want) in [(job_a, &want_a), (job_b, &want_b)] {
        let result = client::attach(addr, job, Duration::from_secs(120), &mut |_| {}).unwrap();
        // No lost jumbles, no duplicates: exactly the planned seeds, in
        // plan order, each with the serial run's bytes.
        let seeds: Vec<u64> = result.trees.iter().map(|t| t.seed).collect();
        let want_seeds: Vec<u64> = want.iter().map(|w| w.0).collect();
        assert_eq!(seeds, want_seeds);
        for (tree, (seed, newick_text, _)) in result.trees.iter().zip(want.iter()) {
            assert_eq!(&tree.newick, newick_text, "resumed seed {seed} diverged");
        }
    }
    daemon.stop();
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quota_exceeded_submission_is_rejected_with_typed_error() {
    let dir = state_dir("quota");
    let mut options = ServeOptions::new("127.0.0.1:0", 4, &dir);
    options.max_job_ranks = 2;
    options.max_wall_ms = 60_000;
    options.max_jobs = 1;
    let daemon = Daemon::start(options).unwrap();
    let addr = daemon.local_addr();

    // Asks for more workers than the daemon's per-job ceiling.
    let mut greedy = spec(PHYLIP_A, 2, 5, "greedy");
    greedy.max_ranks = 8;
    match client::submit(addr, &greedy) {
        Err(client::ClientError::Rejected(RejectReason::QuotaExceeded {
            quota,
            requested,
            limit,
        })) => {
            assert_eq!(quota, "max_ranks");
            assert_eq!((requested, limit), (8, 2));
        }
        other => panic!("expected a max_ranks quota rejection, got {other:?}"),
    }

    // Asks for more wall time than the ceiling.
    let mut patient = spec(PHYLIP_A, 2, 5, "patient");
    patient.max_wall_ms = 3_600_000;
    match client::submit(addr, &patient) {
        Err(client::ClientError::Rejected(RejectReason::QuotaExceeded { quota, .. })) => {
            assert_eq!(quota, "max_wall_ms");
        }
        other => panic!("expected a max_wall_ms quota rejection, got {other:?}"),
    }

    // Unparsable alignment: typed Malformed.
    let mut garbled = spec(PHYLIP_A, 1, 5, "garbled");
    garbled.phylip = "not phylip at all".into();
    assert!(matches!(
        client::submit(addr, &garbled),
        Err(client::ClientError::Rejected(
            RejectReason::Malformed { .. }
        ))
    ));

    // Fill the one-job queue (no workers attached, so it stays active),
    // then the next submission bounces with QueueFull.
    let ok = spec(PHYLIP_B, 1, 5, "fits");
    client::submit(addr, &ok).unwrap();
    match client::submit(addr, &ok) {
        Err(client::ClientError::Rejected(RejectReason::QueueFull { limit })) => {
            assert_eq!(limit, 1)
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }

    // Unknown job ids answer typed, not silently.
    assert!(matches!(
        client::status(addr, 999),
        Err(client::ClientError::Rejected(RejectReason::UnknownJob {
            job: 999
        }))
    ));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Specs no worker could run. Each used to be accepted — the CLI refuses
/// the flags that would write them, a `Submit` frame did not — and the one
/// with a zero category rate panicked the daemon's master, after which the
/// daemon answered no one. Admission refuses each as `Malformed`, and the
/// daemon goes on serving a good job.
#[test]
fn a_spec_no_worker_could_run_is_refused_and_the_daemon_serves_on() {
    let dir = state_dir("hostile");
    let daemon = Daemon::start(ServeOptions::new("127.0.0.1:0", 4, &dir)).unwrap();
    let addr = daemon.local_addr();
    let good = spec(PHYLIP_A, 2, 7, "good");
    let config = |from: &str, to: &str| JobSpec {
        config_json: good.config_json.replace(from, to),
        ..good.clone()
    };
    let patterns = PatternAlignment::compress(&phylip::parse(PHYLIP_A).unwrap()).num_patterns();
    let model = |rates: &str, assignment: Vec<u32>| {
        let assigned = format!(r#""category_rates":{rates},"category_assignment":{assignment:?}"#);
        config(
            r#""category_rates":[1.0],"category_assignment":null"#,
            &assigned,
        )
    };
    let mut out_of_range = vec![0; patterns];
    out_of_range[0] = 1;
    let hostile = [
        (
            "tt_ratio -1",
            config(r#""tt_ratio":2.0"#, r#""tt_ratio":-1.0"#),
        ),
        ("a zero rate", model("[0.0]", vec![0; patterns])),
        ("no rates", model("[]", vec![])),
        ("a missing category", model("[1.0]", out_of_range)),
        (
            "one pattern too many",
            model("[1.0]", vec![0; patterns + 1]),
        ),
        (
            "seed 0",
            JobSpec {
                base_seed: 0,
                ..good.clone()
            },
        ),
        (
            "no jumbles",
            JobSpec {
                jumbles: 0,
                ..good.clone()
            },
        ),
    ];
    for (what, spec) in hostile {
        assert_ne!(spec, good, "{what}: the spec was not changed");
        match client::submit(addr, &spec) {
            Err(client::ClientError::Rejected(RejectReason::Malformed { .. })) => {}
            other => panic!("{what}: expected a Malformed rejection, got {other:?}"),
        }
    }
    let workers = fleet(addr, 1);
    let job = client::submit(addr, &good).unwrap();
    let result = client::attach(addr, job, Duration::from_secs(120), &mut |_| {}).unwrap();
    assert_eq!(result.trees.len(), 2);
    daemon.stop();
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon stops only by being killed, so its event log cannot wait for a
/// drop to be written out: once `attach` returns, the log already holds
/// the job's `JobCompleted`, with the daemon still running.
#[test]
fn a_finished_jobs_events_are_in_the_event_log_before_attach_returns() {
    let dir = state_dir("obs_tail");
    let log = dir.with_extension("jsonl");
    let mut options = ServeOptions::new("127.0.0.1:0", 4, &dir);
    options.sinks = vec![Box::new(JsonlSink::create(&log).unwrap())];
    let daemon = Daemon::start(options).unwrap();
    let addr = daemon.local_addr();
    let workers = fleet(addr, 1);
    let job = client::submit(addr, &spec(PHYLIP_A, 2, 7, "logged")).unwrap();
    client::attach(addr, job, Duration::from_secs(120), &mut |_| {}).unwrap();
    let records = JsonlSink::parse(&std::fs::read_to_string(&log).unwrap()).unwrap();
    let completed =
        |event: &Event| matches!(event, Event::JobCompleted { job: j, .. } if *j == job);
    assert!(records.iter().any(|r| completed(&r.event)), "{records:?}");
    daemon.stop();
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&log);
}

#[test]
fn wall_time_quota_fails_the_job_with_a_typed_attach_error() {
    let dir = state_dir("wall");
    let daemon = Daemon::start(ServeOptions::new("127.0.0.1:0", 4, &dir)).unwrap();
    let addr = daemon.local_addr();

    // One sacrificial worker; the job's wall budget is 1 ms, so the
    // scheduler declares it failed on the first quota sweep after its
    // first dispatch.
    let workers = fleet(addr, 1);
    let mut hurried = spec(PHYLIP_A, 50, 31, "hurried");
    hurried.max_wall_ms = 1;
    let job = client::submit(addr, &hurried).unwrap();
    match client::attach(addr, job, Duration::from_secs(60), &mut |_| {}) {
        Err(client::ClientError::Rejected(RejectReason::JobFailed {
            job: failed,
            reason,
        })) => {
            assert_eq!(failed, job);
            assert!(reason.contains("wall-time"), "unexpected reason: {reason}");
        }
        Ok(_) => {
            // The whole farm beat the sweep — possible only if every
            // jumble finished inside one scheduler tick; with 50 jumbles
            // on one worker that would be a bug elsewhere.
            panic!("50-jumble farm finished inside a 1 ms wall budget");
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
    let status = client::status(addr, job).unwrap();
    assert_eq!(status.state, JobState::Failed);
    assert!(status.failure.is_some());

    daemon.stop();
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
