//! Entry points: the one way a single search runs ([`search_on`]), the
//! in-process and threaded programs built on it, and the threaded jumble
//! farm.

use crate::config::SearchConfig;
use crate::farm::{log_key, run_farm_master, FarmOptions, JumbleRun};
use crate::foreman::{run_scheduler, ForemanError, ForemanStats};
use crate::job::ResolvedJob;
use crate::loopback::Loopback;
use crate::master::ClusterExecutor;
use crate::monitor::{run_monitor, MonitorReport};
use crate::sched::{tick_of, Sched};
use crate::search::{SearchResult, StepwiseSearch};
use crate::wal::WalSession;
use crate::worker::{ranks, run_worker, WorkerStats};
use fdml_chaos::{ChaosPlan, ChaosTransport};
use fdml_comm::fault::{FaultPlan, FaultyTransport};
use fdml_comm::message::Message;
use fdml_comm::recording::Recording;
use fdml_comm::threads::{ThreadTransport, ThreadUniverse};
use fdml_comm::transport::{CommError, Transport};
use fdml_obs::{Event, MemorySink, Obs, RunReport, Sink};
use fdml_phylo::alignment::Alignment;
use fdml_phylo::consensus::{consensus, Consensus};
use fdml_phylo::error::PhyloError;
use fdml_phylo::patterns::PatternAlignment;
use fdml_phylo::phylip;
use fdml_phylo::tree::Tree;
use std::collections::HashMap;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

/// What a single search carries besides its job: where it persists and
/// resumes from, and whether it traces. [`SearchSession::default`] is the
/// plain run.
#[derive(Debug, Default)]
pub struct SearchSession {
    /// Write-ahead round log directory ([`crate::wal`]): an existing log
    /// is replayed (bit-identical resume from the last committed round; the
    /// same trajectory for a log of another numerics epoch), every newly
    /// committed round is appended durably, and the log is retired when
    /// the search completes.
    pub wal_dir: Option<PathBuf>,
    /// Record a [`crate::trace::SearchTrace`] under this dataset label
    /// (returned in [`SearchResult::trace`]).
    pub trace: Option<String>,
}

/// Run `job`'s search as the master of the universe behind `master_end`
/// (workers at ranks [`ranks::FIRST_WORKER`]`..`) and shut that universe
/// down. This is the one way a search runs — in process over a
/// [`Loopback`], over threads, over TCP — so every deployment of a seed
/// and scoring mode dispatches the same tasks, commits the same rounds and
/// writes the same log. Returns the endpoint so the caller can tear its universe down.
///
/// A WAL append failure does not stop the search; it surfaces here once
/// the tree is computed, before success is reported.
pub fn search_on<T: Transport>(
    master_end: T,
    job: &ResolvedJob,
    session: SearchSession,
    obs: &Obs,
) -> (T, Result<SearchResult, PhyloError>) {
    let (alignment, config) = (&job.alignment, &job.config);
    let wal_io = |e: std::io::Error| PhyloError::Format(format!("wal: {e}"));
    // Open the log before the first task is dispatched: a bad --wal-dir
    // fails the run while nothing has been computed.
    let open = |dir| {
        let key = log_key(alignment, config);
        WalSession::open(dir, 0, config.jumble_seed, alignment.num_taxa(), &key, obs)
    };
    let mut wal = match session.wal_dir.as_deref().map(open).transpose() {
        Ok(wal) => wal,
        Err(e) => {
            let _ = master_end.send(ranks::FOREMAN, &Message::Shutdown);
            return (master_end, Err(wal_io(e)));
        }
    };
    let executor = ClusterExecutor::new(
        master_end,
        alignment.names().to_vec(),
        phylip::write(alignment),
        config.engine_config_json(),
        true,
    )
    .with_incremental(config.incremental);
    let mut search = StepwiseSearch::new(config, executor, alignment.num_taxa())
        .with_names(alignment.names().to_vec());
    if let Some(dataset) = session.trace {
        let patterns = PatternAlignment::compress(alignment).num_patterns();
        search = search.with_trace(
            &dataset,
            alignment.num_sites(),
            patterns,
            !config.incremental,
        );
    }
    if let Some(wal) = &mut wal {
        search = wal.attach(search);
    }
    let result = search.run();
    // Shut the universe down whatever the outcome.
    let master_end = search.into_executor().shutdown();
    let result = result.and_then(|found| {
        if let Some(wal) = wal {
            // The tree is computed; the log has nothing left to protect.
            wal.finish_and_retire().map_err(wal_io)?;
        }
        Ok(found)
    });
    (master_end, result)
}

/// The serial program: [`search_on`] over a [`Loopback`], the worker
/// evaluation running as an in-process subroutine exactly as in
/// fastDNAml's serial build. `job.config.incremental` picks the scoring
/// mode as it does on a cluster, and the tree is the cluster's, byte for
/// byte.
pub fn search_in_process(
    job: &ResolvedJob,
    session: SearchSession,
) -> Result<SearchResult, PhyloError> {
    search_on(Loopback::new(), job, session, &Obs::disabled()).1
}

/// Optional machinery threaded through a parallel or farm run: fault
/// injection, a chaos plan, and observer sinks. [`RunOptions::default`] is
/// the plain unobserved run, so the common call reads
/// `parallel_search(&job, n, RunOptions::default())`.
#[derive(Default)]
pub struct RunOptions {
    /// Injected fault plans, keyed by worker rank: they exercise the
    /// foreman's timeout machinery.
    pub faults: HashMap<usize, FaultPlan>,
    /// A seeded chaos plan: every worker transport is wrapped in
    /// [`ChaosTransport`], injecting the plan's exact per-rank drop /
    /// delay / duplicate / corrupt / kill schedule.
    pub chaos: Option<ChaosPlan>,
    /// Observer sinks. Empty (or all-null) disables observation entirely —
    /// the instrumented code paths then cost one branch per emit point and
    /// no allocation, and the outcome's `report` is `None`.
    pub sinks: Vec<Box<dyn Sink>>,
    /// What the master's search persists and resumes from (single
    /// searches; a farm's rides in [`FarmOptions`]).
    pub session: SearchSession,
}

impl RunOptions {
    /// Observation only: events stream into `sinks` and the outcome
    /// carries a [`RunReport`].
    pub fn observed(sinks: Vec<Box<dyn Sink>>) -> RunOptions {
        RunOptions {
            sinks,
            ..RunOptions::default()
        }
    }

    /// Fault injection only (keyed by rank).
    pub fn with_faults(faults: HashMap<usize, FaultPlan>) -> RunOptions {
        RunOptions {
            faults,
            ..RunOptions::default()
        }
    }

    /// Chaos plan only. The soak property: as long as at least one worker
    /// survives, the result is byte-identical to the fault-free run; when
    /// the plan kills every worker, the run returns a typed error instead
    /// of hanging.
    pub fn chaotic(plan: &ChaosPlan) -> RunOptions {
        RunOptions {
            chaos: Some(plan.clone()),
            ..RunOptions::default()
        }
    }
}

/// An observed run's event stream: the caller's sinks, teed into a memory
/// sink when any of them is live so the end-of-run report can be
/// aggregated no matter where else the events go.
pub struct RunObserver {
    /// The handle every rank of the run emits through.
    pub obs: Obs,
    mem: Option<MemorySink>,
}

impl RunObserver {
    /// Start observing a run of `ranks` ranks, `workers` of them workers.
    pub fn start(mut sinks: Vec<Box<dyn Sink>>, ranks: usize, workers: usize) -> RunObserver {
        let mem = sinks.iter().any(|s| !s.is_null()).then(MemorySink::new);
        if let Some(mem) = &mem {
            sinks.push(Box::new(mem.clone()));
        }
        let obs = Obs::multi(sinks);
        obs.emit(|| Event::RunStarted { ranks, workers });
        obs.emit(|| Event::KernelDispatch {
            isa: fdml_likelihood::isa::active().name().to_string(),
        });
        RunObserver { obs, mem }
    }

    /// Close the stream of a run that ended at `ln_likelihood`; the
    /// report is `None` when the run was unobserved.
    pub fn finish(self, ln_likelihood: f64) -> Option<RunReport> {
        self.obs.emit(|| Event::RunFinished { ln_likelihood });
        self.obs.flush();
        self.mem.map(|m| RunReport::from_events(&m.take()))
    }
}

/// What a universe's service ranks report when they are joined.
#[derive(Debug)]
pub struct ServiceStats {
    /// The foreman's counters.
    pub foreman: ForemanStats,
    /// The monitor's aggregated instrumentation.
    pub monitor: MonitorReport,
}

/// The service ranks of a universe — rank 1 the foreman, rank 2 the
/// monitor — running as threads of the master's process. Every launcher
/// hosts them this way: over channel endpoints in a threaded universe,
/// over the hub's hosted endpoints in a TCP one.
pub(crate) struct ServiceRanks {
    foreman: thread::JoinHandle<Result<ForemanStats, ForemanError>>,
    monitor: thread::JoinHandle<Result<MonitorReport, CommError>>,
}

impl ServiceRanks {
    /// Start the foreman on `foreman_end` and the monitor on
    /// `monitor_end`.
    pub(crate) fn start<T: Transport + Send + 'static>(
        foreman_end: T,
        monitor_end: T,
        timeout: Duration,
        obs: &Obs,
    ) -> ServiceRanks {
        let num_ranks = foreman_end.size();
        let foreman_end = Recording::new(foreman_end, obs.clone());
        let monitor_end = Recording::new(monitor_end, obs.clone());
        let foreman_obs = obs.clone();
        let foreman = thread::spawn(move || {
            let machine = Sched::flat(num_ranks, timeout, true);
            run_scheduler(foreman_end, machine, tick_of(timeout), foreman_obs)
        });
        let monitor_obs = obs.clone();
        let monitor = thread::spawn(move || run_monitor(monitor_end, monitor_obs));
        ServiceRanks { foreman, monitor }
    }

    /// Join both ranks; the master must already have shut the universe
    /// down.
    pub(crate) fn join(self) -> ServiceStats {
        let foreman = self
            .foreman
            .join()
            .expect("foreman thread must not panic")
            .expect("foreman must exit cleanly");
        let monitor = self
            .monitor
            .join()
            .expect("monitor thread must not panic")
            .expect("monitor must exit cleanly");
        ServiceStats { foreman, monitor }
    }
}

/// What the ranks of a threaded universe report when they are joined.
struct FleetStats {
    service: ServiceStats,
    workers: HashMap<usize, WorkerStats>,
}

/// Run `master` as rank 0 of a universe of `num_ranks` thread-ranks: rank
/// 1 the foreman, rank 2 the monitor, the rest workers behind their chaos /
/// fault wrappers. `master` returns its value and the final log-likelihood,
/// and must leave the universe shut down (`Shutdown` sent to the foreman)
/// whatever its outcome; every rank is joined before that outcome is
/// looked at.
fn run_on_threads<R>(
    config: &SearchConfig,
    num_ranks: usize,
    options: RunOptions,
    master: impl FnOnce(Recording<ThreadTransport>, &Obs) -> Result<(R, f64), PhyloError>,
) -> Result<(R, FleetStats, Option<RunReport>), PhyloError> {
    let RunOptions {
        mut faults,
        chaos,
        sinks,
        session: _,
    } = options;
    assert!(
        num_ranks >= 4,
        "the fully instrumented parallel version requires at least four ranks"
    );
    let observer = RunObserver::start(sinks, num_ranks, num_ranks - ranks::FIRST_WORKER);
    let obs = &observer.obs;

    let mut endpoints = ThreadUniverse::create(num_ranks);
    // Take endpoints from the back so indices stay valid.
    let mut worker_handles = Vec::new();
    for rank in (ranks::FIRST_WORKER..num_ranks).rev() {
        let end = endpoints.remove(rank);
        let fault = faults.remove(&rank);
        let chaos = chaos.clone();
        let worker_obs = obs.clone();
        let handle = thread::spawn(move || match (chaos, fault) {
            (Some(plan), _) => run_worker(
                Recording::new(
                    ChaosTransport::new(end, plan, worker_obs.clone()),
                    worker_obs.clone(),
                ),
                worker_obs,
            ),
            (None, Some(plan)) => run_worker(
                Recording::new(FaultyTransport::new(end, plan), worker_obs.clone()),
                worker_obs,
            ),
            (None, None) => run_worker(Recording::new(end, worker_obs.clone()), worker_obs),
        });
        worker_handles.push((rank, handle));
    }
    let monitor_end = endpoints.remove(ranks::MONITOR);
    let foreman_end = endpoints.remove(ranks::FOREMAN);
    let master_end = Recording::new(endpoints.remove(ranks::MASTER), obs.clone());
    let service = ServiceRanks::start(foreman_end, monitor_end, config.worker_timeout, obs);

    let outcome = master(master_end, obs);
    let service = service.join();
    let workers = worker_handles
        .into_iter()
        .map(|(rank, handle)| {
            let stats = handle.join().expect("worker thread must not panic");
            (rank, stats.unwrap_or_default())
        })
        .collect();
    let (value, ln_likelihood) = outcome?;
    let stats = FleetStats { service, workers };
    Ok((value, stats, observer.finish(ln_likelihood)))
}

/// Everything a parallel run returns.
#[derive(Debug)]
pub struct ParallelOutcome {
    /// The search result (the same tree, byte for byte, as every other
    /// deployment of the same configuration).
    pub result: SearchResult,
    /// The monitor's aggregated instrumentation.
    pub monitor: MonitorReport,
    /// Foreman statistics.
    pub foreman: ForemanStats,
    /// Per-worker statistics, indexed by rank.
    pub workers: HashMap<usize, WorkerStats>,
    /// The end-of-run observability report — `Some` when the run was
    /// observed (sinks in [`RunOptions`]), `None` otherwise.
    pub report: Option<RunReport>,
}

/// Parallel search over `num_ranks` thread-ranks: rank 0 master, rank 1
/// foreman, rank 2 monitor, ranks 3.. workers. As in the paper, "the fully
/// instrumented parallel version of fastDNAml requires a minimum of four
/// processors".
///
/// The job (alignment + config) arrives as a [`ResolvedJob`]; faults,
/// chaos, and observer sinks ride in [`RunOptions`]
/// ([`RunOptions::default`] for a plain run).
pub fn parallel_search(
    job: &ResolvedJob,
    num_ranks: usize,
    mut options: RunOptions,
) -> Result<ParallelOutcome, PhyloError> {
    let session = std::mem::take(&mut options.session);
    let (result, stats, report) =
        run_on_threads(&job.config, num_ranks, options, |master_end, obs| {
            let result = search_on(master_end, job, session, obs).1?;
            let ln_likelihood = result.ln_likelihood;
            Ok((result, ln_likelihood))
        })?;
    let FleetStats {
        service: ServiceStats { foreman, monitor },
        workers,
    } = stats;
    Ok(ParallelOutcome {
        result,
        monitor,
        foreman,
        workers,
        report,
    })
}

/// Everything a threaded farm run returns.
#[derive(Debug)]
pub struct FarmOutcome {
    /// Per-jumble results in seed order — byte-identical to the serial
    /// farm's regardless of farm width.
    pub runs: Vec<JumbleRun>,
    /// The majority-rule consensus over all jumbles.
    pub consensus: Consensus,
    /// The monitor's aggregated instrumentation.
    pub monitor: MonitorReport,
    /// Foreman statistics.
    pub foreman: ForemanStats,
    /// Per-worker statistics, indexed by rank.
    pub workers: HashMap<usize, WorkerStats>,
    /// The end-of-run observability report — `Some` when the run was
    /// observed, `None` otherwise.
    pub report: Option<RunReport>,
}

/// The threaded jumble farm: whole jumbles (the [`ResolvedJob`]'s planned
/// seed list) sharded across `num_ranks - 3` worker threads through the
/// foreman (paper §6's many-jumbles workload). Faults, chaos, and observer
/// sinks ride in [`RunOptions`]; when observing, the report aggregates
/// `JumbleStarted` / `JumbleCompleted` / `FarmProgress` events.
pub fn farm_search(
    job: &ResolvedJob,
    num_ranks: usize,
    options: FarmOptions,
    run: RunOptions,
) -> Result<FarmOutcome, PhyloError> {
    // The farm's WAL rides in `FarmOptions::wal_dir` (one log per jumble).
    let (parts, stats, report) = run_on_threads(&job.config, num_ranks, run, |master_end, obs| {
        let parts = run_farm_master(
            &master_end,
            &job.alignment,
            &job.config,
            &job.seeds,
            &options,
            obs,
        );
        // Shut everything down regardless of the farm outcome.
        let _ = master_end.send(ranks::FOREMAN, &Message::Shutdown);
        let parts = parts?;
        let best = parts.best_ln_likelihood();
        Ok((parts, best))
    })?;
    Ok(FarmOutcome {
        runs: parts.runs,
        consensus: parts.consensus,
        monitor: stats.service.monitor,
        foreman: stats.service.foreman,
        workers: stats.workers,
        report,
    })
}

/// One evaluated user tree.
#[derive(Debug, Clone)]
pub struct EvaluatedTree {
    /// The tree with re-optimized branch lengths.
    pub tree: Tree,
    /// Its log-likelihood.
    pub ln_likelihood: f64,
    /// The optimized tree as Newick.
    pub newick: String,
}

/// fastDNAml's *user tree* mode: instead of searching, parse the supplied
/// Newick trees, optimize their branch lengths, and report likelihoods —
/// the mode biologists use to compare specific hypotheses.
pub fn evaluate_user_trees(
    alignment: &Alignment,
    config: &SearchConfig,
    newicks: &[String],
) -> Result<Vec<EvaluatedTree>, PhyloError> {
    let engine = config.build_engine(alignment);
    newicks
        .iter()
        .map(|text| {
            let mut tree = fdml_phylo::newick::parse_tree(text, alignment)?;
            if tree.num_tips() != alignment.num_taxa() {
                return Err(PhyloError::InvalidTreeOp(format!(
                    "user tree has {} of {} taxa",
                    tree.num_tips(),
                    alignment.num_taxa()
                )));
            }
            let r = engine.optimize(&mut tree, &config.optimize);
            Ok(EvaluatedTree {
                newick: fdml_phylo::newick::write_tree(&tree, alignment.names()),
                tree,
                ln_likelihood: r.ln_likelihood,
            })
        })
        .collect()
}

/// Bootstrap analysis: infer one tree per column-resampled replicate and
/// return the replicate trees plus their majority-rule consensus, whose
/// internal labels are the bootstrap support percentages.
pub fn bootstrap_analysis(
    alignment: &Alignment,
    base_config: &SearchConfig,
    replicates: usize,
    seed: u64,
) -> Result<(Vec<SearchResult>, Consensus), PhyloError> {
    assert!(replicates >= 1);
    let samples = fdml_phylo::bootstrap::bootstrap_replicates(alignment, replicates, seed);
    let mut results = Vec::with_capacity(replicates);
    for (i, sample) in samples.into_iter().enumerate() {
        let config = SearchConfig {
            jumble_seed: base_config.jumble_seed.wrapping_add(2 * i as u64),
            // Each replicate has its own site patterns, so per-pattern
            // categories from the original alignment do not transfer.
            categories: None,
            incremental: true,
            ..base_config.clone()
        };
        let job = ResolvedJob::single(sample, config);
        results.push(search_in_process(&job, SearchSession::default())?);
    }
    let trees: Vec<Tree> = results.iter().map(|r| r.tree.clone()).collect();
    let cons = consensus(&trees, alignment.num_taxa(), 0.5, alignment.names())?;
    Ok((results, cons))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_phylo::bipartition::SplitSet;
    use std::time::Duration;

    fn job(a: &Alignment, config: &SearchConfig) -> ResolvedJob {
        ResolvedJob::from_parts(a.clone(), config.clone(), 1).unwrap()
    }

    fn serial_search(a: &Alignment, config: &SearchConfig) -> Result<SearchResult, PhyloError> {
        search_in_process(&job(a, config), SearchSession::default())
    }

    fn run_jumbles(
        a: &Alignment,
        config: &SearchConfig,
        seeds: &[u64],
    ) -> Result<crate::farm::FarmParts, PhyloError> {
        crate::farm::serial_farm(a, config, seeds, &FarmOptions::default(), &Obs::disabled())
    }

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

    #[test]
    fn serial_search_completes() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 5,
            ..Default::default()
        };
        let r = serial_search(&a, &config).unwrap();
        assert_eq!(r.tree.num_tips(), 6);
        assert!(r.ln_likelihood.is_finite() && r.ln_likelihood < 0.0);
        assert!(r.candidates_evaluated > 0);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 5,
            ..Default::default()
        };
        let serial = serial_search(&a, &config).unwrap();
        let parallel = parallel_search(&job(&a, &config), 6, RunOptions::default()).unwrap();
        // One call stream: the same tree, bit for bit.
        assert_eq!(serial.tree, parallel.result.tree);
        assert_eq!(
            SplitSet::of_tree(&serial.tree, 6),
            SplitSet::of_tree(&parallel.result.tree, 6)
        );
        assert_eq!(
            serial.ln_likelihood.to_bits(),
            parallel.result.ln_likelihood.to_bits(),
            "serial {} vs parallel {}",
            serial.ln_likelihood,
            parallel.result.ln_likelihood
        );
        // All workers participated and the monitor saw the run.
        assert!(parallel.foreman.dispatched > 0);
        assert!(parallel.monitor.events > 0);
        assert_eq!(parallel.workers.len(), 3);
        let total: u64 = parallel.workers.values().map(|w| w.trees_evaluated).sum();
        assert_eq!(
            total,
            parallel.foreman.results_forwarded + parallel.foreman.duplicates_ignored
        );
    }

    #[test]
    fn incremental_dispatch_is_byte_identical_to_whole_tree_dispatch() {
        use fdml_phylo::newick;
        let a = alignment();
        for seed in [1u64, 5, 11] {
            let config = SearchConfig {
                jumble_seed: seed,
                ..Default::default()
            };
            let full = parallel_search(&job(&a, &config), 6, RunOptions::default()).unwrap();
            let inc_config = SearchConfig {
                incremental: true,
                ..config.clone()
            };
            let mem = MemorySink::new();
            let inc = parallel_search(
                &job(&a, &inc_config),
                6,
                RunOptions::observed(vec![Box::new(mem.clone())]),
            )
            .unwrap();
            // The golden property: turning incremental dispatch on changes
            // HOW candidates are scored, never WHAT the search returns —
            // final tree bytes and likelihood bits are identical.
            assert_eq!(
                newick::write_tree(&full.result.tree, a.names()),
                newick::write_tree(&inc.result.tree, a.names()),
                "seed {seed}"
            );
            assert_eq!(
                full.result.ln_likelihood.to_bits(),
                inc.result.ln_likelihood.to_bits(),
                "seed {seed}: full {} vs incremental {}",
                full.result.ln_likelihood,
                inc.result.ln_likelihood
            );
            // And the run really went through the cache: the report's
            // per-worker incremental counters are live.
            let report = inc.report.expect("observed run carries a report");
            let hits: u64 = report.workers.iter().map(|w| w.clv_cache_hits).sum();
            let fallbacks: u64 = report.workers.iter().map(|w| w.incremental_fallbacks).sum();
            assert!(hits > 0, "seed {seed}: no CLV cache hits recorded");
            assert_eq!(fallbacks, 0, "seed {seed}: healthy run must not fall back");
        }
    }

    #[test]
    fn fault_tolerance_preserves_the_result() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 5,
            worker_timeout: Duration::from_millis(200),
            ..Default::default()
        };
        let clean = parallel_search(&job(&a, &config), 6, RunOptions::default()).unwrap();
        // Worker 3 silently drops its first four results: the foreman must
        // time it out, re-dispatch, and the final tree must be unchanged.
        let mut faults = HashMap::new();
        faults.insert(3usize, FaultPlan::drop_first(4));
        let faulty =
            parallel_search(&job(&a, &config), 6, RunOptions::with_faults(faults)).unwrap();
        assert_eq!(
            SplitSet::of_tree(&clean.result.tree, 6),
            SplitSet::of_tree(&faulty.result.tree, 6)
        );
        assert!(
            (clean.result.ln_likelihood - faulty.result.ln_likelihood).abs() < 1e-6,
            "clean {} vs faulty {}",
            clean.result.ln_likelihood,
            faulty.result.ln_likelihood
        );
        assert!(
            faulty.foreman.timeouts >= 1,
            "foreman must detect the stalled worker"
        );
    }

    #[test]
    fn severed_worker_mid_search_still_converges() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 5,
            worker_timeout: Duration::from_millis(200),
            ..Default::default()
        };
        let clean = parallel_search(&job(&a, &config), 6, RunOptions::default()).unwrap();
        // Worker 3 returns one result, then its link is severed for good —
        // the in-process analogue of a worker process dying mid-search. The
        // foreman must requeue its outstanding task (timeout first, then the
        // eager path on every later dispatch attempt) and the two surviving
        // workers must finish the search with an identical result.
        let mut faults = HashMap::new();
        faults.insert(3usize, FaultPlan::disconnect_after(1));
        let faulty =
            parallel_search(&job(&a, &config), 6, RunOptions::with_faults(faults)).unwrap();
        assert_eq!(
            SplitSet::of_tree(&clean.result.tree, 6),
            SplitSet::of_tree(&faulty.result.tree, 6)
        );
        assert!(
            (clean.result.ln_likelihood - faulty.result.ln_likelihood).abs() < 1e-6,
            "clean {} vs severed {}",
            clean.result.ln_likelihood,
            faulty.result.ln_likelihood
        );
        assert!(
            faulty.foreman.timeouts >= 1,
            "foreman must declare the severed worker delinquent"
        );
        // The dead worker never recovers.
        assert_eq!(faulty.foreman.recoveries, 0);
    }

    #[test]
    fn jumbles_and_consensus() {
        let a = alignment();
        let config = SearchConfig {
            rearrange_radius: 2,
            final_radius: 2,
            ..Default::default()
        };
        let parts = run_jumbles(&a, &config, &[1, 3, 5]).unwrap();
        assert_eq!(parts.runs.len(), 3);
        assert_eq!(parts.consensus.num_trees, 3);
        let mut leaves = parts.consensus.tree.leaf_names();
        leaves.sort_unstable();
        assert_eq!(leaves.len(), 6);
    }

    #[test]
    fn run_jumbles_rejects_empty_and_dedups_colliding_seeds() {
        let a = alignment();
        let config = SearchConfig {
            rearrange_radius: 1,
            final_radius: 1,
            ..Default::default()
        };
        assert!(run_jumbles(&a, &config, &[]).is_err());
        // 4 adjusts to 5: one jumble, not the same jumble twice.
        let parts = run_jumbles(&a, &config, &[4, 5]).unwrap();
        assert_eq!(parts.runs.len(), 1);
        assert_eq!(parts.consensus.num_trees, 1);
    }

    #[test]
    fn traced_search_produces_consistent_trace() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 9,
            ..Default::default()
        };
        let traced = |full_evaluation: bool| {
            let config = SearchConfig {
                incremental: !full_evaluation,
                ..config.clone()
            };
            let session = SearchSession {
                trace: Some("toy".into()),
                ..SearchSession::default()
            };
            let result = search_in_process(&job(&a, &config), session).unwrap();
            let trace = result.trace.clone().expect("trace requested");
            (result, trace)
        };
        let (result, trace) = traced(false);
        assert_eq!(trace.num_taxa, 6);
        assert_eq!(trace.final_ln_likelihood, result.ln_likelihood);
        assert!(trace.total_candidates() > 0);
        assert!(!trace.full_evaluation);
        let (_, trace_full) = traced(true);
        assert!(trace_full.full_evaluation);
        // Full evaluation does more work per candidate.
        assert!(trace_full.total_worker_work() > trace.total_worker_work());
    }

    #[test]
    #[should_panic(expected = "four ranks")]
    fn too_few_ranks_panics() {
        let a = alignment();
        let config = SearchConfig::default();
        let _ = parallel_search(&job(&a, &config), 3, RunOptions::default());
    }
}

#[cfg(test)]
mod mode_tests {
    use super::*;
    use fdml_datagen::{evolve, yule_tree, EvolutionConfig};
    use fdml_phylo::newick;

    fn dataset(taxa: usize, sites: usize, tt: f64) -> (Alignment, Tree) {
        let tree = yule_tree(taxa, 0.1, 41);
        let cfg = EvolutionConfig {
            tt_ratio: tt,
            missing_fraction: 0.0,
            ..Default::default()
        };
        (evolve(&tree, sites, &cfg, 8, "taxon"), tree)
    }

    #[test]
    fn user_trees_are_ranked_by_likelihood() {
        let (a, truth) = dataset(8, 600, 2.0);
        let config = SearchConfig::default();
        let names = a.names();
        // The generating tree versus a random alternative: the generating
        // tree should win.
        let alt = yule_tree(8, 0.1, 999);
        let newicks = vec![
            newick::write_tree(&truth, names),
            newick::write_tree(&alt, names),
        ];
        let evaluated = evaluate_user_trees(&a, &config, &newicks).unwrap();
        assert_eq!(evaluated.len(), 2);
        assert!(
            evaluated[0].ln_likelihood > evaluated[1].ln_likelihood,
            "true tree {} vs alternative {}",
            evaluated[0].ln_likelihood,
            evaluated[1].ln_likelihood
        );
        for e in &evaluated {
            assert!(e.newick.contains("taxon000"));
        }
    }

    #[test]
    fn user_tree_with_missing_taxa_rejected() {
        let (a, _) = dataset(6, 100, 2.0);
        let config = SearchConfig::default();
        let partial = "(taxon000:0.1,taxon001:0.1,taxon002:0.1);".to_string();
        assert!(evaluate_user_trees(&a, &config, &[partial]).is_err());
    }

    #[test]
    fn bootstrap_supports_strong_clades() {
        let (a, truth) = dataset(8, 900, 2.0);
        let config = SearchConfig {
            rearrange_radius: 2,
            final_radius: 2,
            ..Default::default()
        };
        let (results, cons) = bootstrap_analysis(&a, &config, 5, 17).unwrap();
        assert_eq!(results.len(), 5);
        assert_eq!(cons.num_trees, 5);
        // With this much signal, most consensus splits are true splits.
        let truth_splits = fdml_phylo::bipartition::SplitSet::of_tree(&truth, 8);
        let hits = cons
            .splits
            .iter()
            .filter(|s| truth_splits.splits().contains(&s.split))
            .count();
        assert!(
            hits * 2 >= cons.splits.len(),
            "{hits}/{}",
            cons.splits.len()
        );
    }
}
