//! Integration tests of the observability layer (`fdml-obs`) against the
//! threaded parallel runtime: the event stream and the end-of-run report
//! must agree with the foreman's own bookkeeping.

use fastdnaml::chaos::ChaosPlan;
use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_threaded, RunOptions, ThreadOptions};
use fastdnaml::datagen::{evolve, yule_tree, EvolutionConfig};
use fastdnaml::obs::{Event, JsonlSink, MemorySink, Record, RunReport, Sink};
use fastdnaml::phylo::alignment::Alignment;
use std::time::Duration;

fn dataset() -> Alignment {
    let tree = yule_tree(9, 0.1, 51);
    evolve(&tree, 400, &EvolutionConfig::default(), 6, "taxon")
}

fn count(records: &[Record], pred: impl Fn(&Event) -> bool) -> u64 {
    records.iter().filter(|r| pred(&r.event)).count() as u64
}

#[test]
fn event_stream_and_report_match_foreman_stats() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 2,
        ..SearchConfig::default()
    };
    let mem = MemorySink::new();
    let sinks: Vec<Box<dyn Sink>> = vec![Box::new(mem.clone())];
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 1).unwrap();
    let outcome = run_threaded(&job, 5, RunOptions::observed(sinks)).expect("run");
    let records = mem.snapshot();

    // The stream opens with the run header and ends with the final answer.
    assert!(matches!(
        records.first(),
        Some(Record {
            event: Event::RunStarted {
                ranks: 5,
                workers: 2
            },
            ..
        })
    ));
    assert!(matches!(
        records.last(),
        Some(Record {
            event: Event::RunFinished { .. },
            ..
        })
    ));

    // Raw event counts agree with the foreman's own counters.
    let stats = &outcome.foreman;
    assert_eq!(
        count(&records, |e| matches!(e, Event::TaskDispatched { .. })),
        stats.dispatched
    );
    assert_eq!(
        count(&records, |e| matches!(e, Event::TaskCompleted { .. })),
        stats.results_forwarded + stats.duplicates_ignored
    );
    assert_eq!(
        count(&records, |e| matches!(e, Event::TaskTimedOut { .. })),
        stats.timeouts
    );
    assert_eq!(
        count(&records, |e| matches!(e, Event::WorkerRecovered { .. })),
        stats.recoveries
    );
    // Every accepted result was computed by some worker.
    assert_eq!(
        count(&records, |e| matches!(e, Event::WorkerTaskDone { .. })),
        stats.results_forwarded + stats.duplicates_ignored
    );

    // The aggregated report says the same thing.
    let report = outcome
        .report
        .as_ref()
        .expect("report when a live sink is given");
    assert_eq!(report.ranks, Some(5));
    assert_eq!(report.dispatched, stats.dispatched);
    assert_eq!(
        report.completed,
        stats.results_forwarded + stats.duplicates_ignored
    );
    assert_eq!(report.timeouts, stats.timeouts);
    assert_eq!(report.recoveries, stats.recoveries);
    assert_eq!(report.service_us.count, report.completed);

    // Both workers appear, did all the accepted work, and were busy for a
    // plausible share of the observed span.
    assert_eq!(report.workers.len(), 2);
    assert_eq!(
        report.workers.iter().map(|w| w.tasks).sum::<u64>(),
        report.completed
    );
    for w in &report.workers {
        assert!(w.busy_us > 0, "worker {} never worked", w.worker);
        assert!(
            w.utilization > 0.0 && w.utilization <= 1.05,
            "utilization {}",
            w.utilization
        );
    }

    // Queue depth was sampled and the work queue was non-trivial at least
    // once (each round floods the foreman with a batch of candidates).
    assert!(!report.queue_depth.is_empty());
    assert!(report.max_work_depth > 0);

    // Message traffic was recorded per kind on both ends of the transport.
    for kind in ["TreeTask", "TreeResult"] {
        let t = report
            .traffic
            .get(kind)
            .unwrap_or_else(|| panic!("no {kind} traffic"));
        assert!(t.sent_msgs > 0 && t.sent_bytes > 0, "{kind}: {t:?}");
        assert!(t.recv_msgs > 0, "{kind}: {t:?}");
    }

    // The rounds and the final answer line up with the search result.
    assert!(!report.rounds.is_empty());
    assert_eq!(report.lnl_trajectory().len(), report.rounds.len());
    assert_eq!(
        report.final_ln_likelihood,
        Some(outcome.runs[0].ln_likelihood)
    );

    // The same stream survives a JSONL round trip (the `--obs-out` format).
    let jsonl: String = records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect();
    let back = JsonlSink::parse(&jsonl).expect("parse JSONL");
    assert_eq!(back, records);
    assert_eq!(
        RunReport::from_events(&back),
        RunReport::from_events(&records)
    );
}

/// The delayed-worker scenario sized from this build's task times. A
/// fault-free run of `job` measures its slowest task; the worker timeout
/// is three times that (never below 40 ms) and the first-answer delay
/// three timeouts, so the timeout fires on the delayed answer alone and the
/// late answer lands well before the run ends. Fixed figures fit one build
/// only: these whole-tree tasks take milliseconds optimized but ~100 ms
/// unoptimized, and a timeout shorter than a task times out every task.
fn sized_timeout_and_delay(job: &ResolvedJob) -> (Duration, Duration) {
    let sinks: Vec<Box<dyn Sink>> = vec![Box::new(MemorySink::new())];
    let outcome = run_threaded(job, 5, RunOptions::observed(sinks)).expect("fault-free run");
    let slowest = Duration::from_micros(outcome.report.expect("report").service_us.max);
    let timeout = (slowest * 3).max(Duration::from_millis(40));
    (timeout, timeout * 3)
}

#[test]
fn timeout_and_recovery_show_up_in_the_event_stream() {
    // Same fault scenario as the runtime test: worker 3 sits on its first
    // answer past the timeout, gets declared delinquent, then re-admitted.
    let tree = yule_tree(16, 0.1, 52);
    let alignment = evolve(&tree, 700, &EvolutionConfig::default(), 6, "taxon");
    let fault_free = SearchConfig {
        jumble_seed: 11,
        ..SearchConfig::default()
    };
    let (timeout, delay) = sized_timeout_and_delay(
        &ResolvedJob::from_parts(alignment.clone(), fault_free.clone(), 1).unwrap(),
    );
    let config = SearchConfig {
        worker_timeout: timeout,
        ..fault_free
    };
    let mem = MemorySink::new();
    let sinks: Vec<Box<dyn Sink>> = vec![Box::new(mem.clone())];
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 1).unwrap();
    let threads = ThreadOptions {
        chaos: Some(ChaosPlan::quiet(0).with_delay(3, 0, 1, delay)),
        ..5.into()
    };
    let outcome = run_threaded(&job, threads, RunOptions::observed(sinks)).expect("run");
    let records = mem.snapshot();

    let stats = &outcome.foreman;
    assert!(
        stats.timeouts >= 1 && stats.recoveries >= 1,
        "fault did not fire (timeout {timeout:?}, delay {delay:?}): {stats:?}"
    );
    assert_eq!(
        count(&records, |e| matches!(e, Event::TaskTimedOut { .. })),
        stats.timeouts
    );
    assert_eq!(
        count(&records, |e| matches!(e, Event::WorkerRecovered { .. })),
        stats.recoveries
    );
    // The delinquent worker is named in the events.
    assert!(records
        .iter()
        .any(|r| matches!(r.event, Event::TaskTimedOut { worker: 3, .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r.event, Event::WorkerRecovered { worker: 3 })));

    let report = outcome.report.expect("report");
    assert_eq!(report.timeouts, stats.timeouts);
    assert_eq!(report.recoveries, stats.recoveries);
    // Re-dispatches make dispatched exceed unique completions.
    assert!(report.dispatched >= report.completed);
}

#[test]
fn disabled_observation_yields_no_report() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 1).unwrap();
    let outcome = run_threaded(&job, 4, RunOptions::default()).expect("run");
    assert!(outcome.report.is_none());
    assert!(outcome.runs[0].ln_likelihood.is_finite());
}
