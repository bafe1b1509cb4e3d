//! Integration tests of the parallel runtime against the serial program:
//! determinism across worker counts and robustness to injected faults
//! (paper §2.2).

use fastdnaml::chaos::ChaosPlan;
use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{
    run_in_process, run_threaded, RunOptions, RunOutcome, ThreadOptions,
};
use fastdnaml::core::search::SearchResult;
use fastdnaml::datagen::{evolve, yule_tree, EvolutionConfig};
use fastdnaml::obs::{MemorySink, Sink};
use fastdnaml::phylo::alignment::Alignment;
use fastdnaml::phylo::bipartition::SplitSet;
use std::time::Duration;

/// The serial program: the same search over the in-process transport.
fn serial_search(
    alignment: &Alignment,
    config: &SearchConfig,
) -> Result<SearchResult, fastdnaml::phylo::error::PhyloError> {
    let job = ResolvedJob::single(alignment.clone(), config.clone());
    Ok(found(run_in_process(&job, RunOptions::default())?))
}

/// What a run's single search found, its tree exact.
fn found(outcome: RunOutcome) -> SearchResult {
    outcome.search.expect("a run without a manifest searches")
}

fn dataset() -> Alignment {
    let tree = yule_tree(9, 0.1, 51);
    evolve(&tree, 400, &EvolutionConfig::default(), 6, "taxon")
}

#[test]
fn worker_count_does_not_change_the_answer() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 11,
        ..SearchConfig::default()
    };
    let serial = serial_search(&alignment, &config).expect("serial");
    for ranks in [4usize, 5, 7] {
        let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 1).unwrap();
        let outcome = run_threaded(&job, ranks, RunOptions::default()).expect("parallel");
        let result = found(outcome);
        assert_eq!(
            SplitSet::of_tree(&serial.tree, 9),
            SplitSet::of_tree(&result.tree, 9),
            "ranks = {ranks}"
        );
        assert!(
            (serial.ln_likelihood - result.ln_likelihood).abs() < 1e-5,
            "ranks = {ranks}: serial {} vs parallel {}",
            serial.ln_likelihood,
            result.ln_likelihood
        );
        // One call stream: not merely the same topology, the same tree.
        assert_eq!(serial.tree, result.tree, "ranks = {ranks}");
        assert_eq!(
            serial.ln_likelihood.to_bits(),
            result.ln_likelihood.to_bits(),
            "ranks = {ranks}"
        );
    }
}

#[test]
fn monitor_sees_every_dispatch() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 2,
        ..SearchConfig::default()
    };
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 1).unwrap();
    let outcome = run_threaded(&job, 5, RunOptions::default()).expect("parallel");
    let dispatched: u64 = outcome
        .monitor
        .per_worker
        .values()
        .map(|w| w.dispatched)
        .sum();
    let completed: u64 = outcome
        .monitor
        .per_worker
        .values()
        .map(|w| w.completed)
        .sum();
    assert_eq!(dispatched, outcome.foreman.dispatched);
    assert_eq!(
        completed,
        outcome.foreman.results_forwarded + outcome.foreman.duplicates_ignored
    );
    assert!(!outcome.monitor.round_history.is_empty());
    assert!(!outcome.monitor.best_trees.is_empty());
    // The viewer stream parses back as trees.
    for text in &outcome.monitor.best_trees {
        fastdnaml::phylo::newick::parse(text).expect("best-tree stream is valid Newick");
    }
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
fn delayed_worker_triggers_timeout_then_recovery() {
    // A longer search (16 taxa) so the run is still going when the
    // delinquent worker's late answer lands.
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
    // Worker 3 delays its first result well past the timeout: the foreman
    // must declare it delinquent, reassign, then re-admit it when the late
    // answer arrives. The delay is far shorter than the total run so the
    // late answer always lands while the foreman is still alive.
    let threads = ThreadOptions {
        chaos: Some(ChaosPlan::quiet(0).with_delay(3, 0, 1, delay)),
        ..5.into()
    };
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 1).unwrap();
    let outcome = run_threaded(&job, threads, RunOptions::default()).expect("run");
    assert!(
        outcome.foreman.timeouts >= 1,
        "timeout must fire (timeout {timeout:?}, delay {delay:?})"
    );
    assert!(
        outcome.foreman.recoveries >= 1,
        "late worker must be re-admitted (timeout {timeout:?}, delay {delay:?}, stats: {:?})",
        outcome.foreman
    );
    let serial = serial_search(&alignment, &config).expect("serial");
    assert_eq!(
        SplitSet::of_tree(&serial.tree, 16),
        SplitSet::of_tree(&found(outcome).tree, 16)
    );
}

#[test]
fn a_timeout_shorter_than_every_task_costs_no_task_twice_on_one_worker() {
    // Every task outlasts the timeout, so every holder is timed out on
    // every task and computes it anyway. Handed more work before it has
    // answered, a worker would time out behind its own backlog, and the
    // backlog would grow until the run no longer finished.
    let alignment = dataset();
    let fault_free = SearchConfig {
        jumble_seed: 11,
        ..SearchConfig::default()
    };
    let job = ResolvedJob::from_parts(alignment.clone(), fault_free.clone(), 1).unwrap();
    let sinks: Vec<Box<dyn Sink>> = vec![Box::new(MemorySink::new())];
    let measured = run_threaded(&job, 5, RunOptions::observed(sinks)).expect("fault-free run");
    let quickest = measured.report.expect("report").service_us.min;
    // The master's task stream does not depend on the timeout.
    let tasks = measured.foreman.dispatched;
    let config = SearchConfig {
        worker_timeout: Duration::from_micros(quickest / 2).max(Duration::from_micros(1)),
        ..fault_free
    };
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 1).unwrap();
    let outcome = run_threaded(&job, 5, RunOptions::default()).expect("run");
    let stats = outcome.foreman;
    assert!(stats.timeouts >= 1, "{stats:?}");
    // Ranks 3 and 4 are the workers.
    assert!(
        stats.dispatched <= 2 * tasks,
        "{tasks} tasks, timeout {:?}: {stats:?}",
        config.worker_timeout
    );
    let serial = serial_search(&alignment, &config).expect("serial");
    let result = found(outcome);
    assert_eq!(serial.tree, result.tree);
    assert_eq!(
        serial.ln_likelihood.to_bits(),
        result.ln_likelihood.to_bits()
    );
}

#[test]
fn dead_worker_does_not_stall_the_run() {
    let alignment = dataset();
    let config = SearchConfig {
        jumble_seed: 4,
        worker_timeout: Duration::from_millis(150),
        ..SearchConfig::default()
    };
    // Worker 4 never delivers any result at all.
    let threads = ThreadOptions {
        chaos: Some(ChaosPlan::quiet(0).with_drop(4, 0, u64::MAX)),
        ..5.into()
    };
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 1).unwrap();
    let outcome = run_threaded(&job, threads, RunOptions::default()).expect("run");
    assert!(outcome.runs[0].ln_likelihood.is_finite());
    assert!(outcome.foreman.timeouts >= 1);
    let serial = serial_search(&alignment, &config).expect("serial");
    assert!((serial.ln_likelihood - outcome.runs[0].ln_likelihood).abs() < 1e-5);
}
