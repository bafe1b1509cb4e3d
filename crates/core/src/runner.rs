//! Entry points: one launcher per transport family — in process
//! ([`run_in_process`]), threads ([`run_threaded`]), TCP
//! ([`crate::netrun::run_net`]) — each running its [`ResolvedJob`] as one
//! [`crate::farm::Ledger`] job under one master, and returning one
//! [`RunOutcome`]. A job of one seed is the single search, which runs
//! through [`search_on`], the one round loop.

use crate::config::SearchConfig;
use crate::farm::{run_here, run_job, to_foreman, FarmParts, JumbleRun};
use crate::foreman::{run_scheduler, ForemanError, ForemanStats};
use crate::job::ResolvedJob;
use crate::loopback::Loopback;
use crate::master::ClusterExecutor;
use crate::monitor::{run_monitor, MonitorReport};
use crate::sched::{tick_of, Sched};
use crate::search::{SearchResult, StepwiseSearch};
use crate::worker::{ranks, run_worker, Evaluator, WorkerStats};
use fdml_chaos::{ChaosPlan, ChaosTransport};
use fdml_comm::recording::Recording;
use fdml_comm::threads::ThreadUniverse;
use fdml_comm::transport::{CommError, Rank, Transport};
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

/// Run one search under `config` as the master of the universe behind
/// `master_end`, whose workers (ranks [`ranks::FIRST_WORKER`]`..`) already
/// hold the problem data, and hand the universe back as it is. This is the
/// one round loop every deployment runs — in process over a [`Loopback`],
/// over threads, over TCP — so every deployment of a seed and scoring mode
/// dispatches the same tasks, commits the same rounds and writes the same
/// log. `setup` attaches what the search resumes from and reports to (a
/// round-log prefix, a round hook, a trace).
pub fn search_on<'c, T: Transport>(
    master_end: T,
    alignment: &Alignment,
    config: &'c SearchConfig,
    setup: impl FnOnce(StepwiseSearch<'c, ClusterExecutor<T>>) -> StepwiseSearch<'c, ClusterExecutor<T>>,
) -> (T, Result<SearchResult, PhyloError>) {
    let names = alignment.names().to_vec();
    let executor = ClusterExecutor::new(
        master_end,
        names.clone(),
        phylip::write(alignment),
        config.engine_config_json(),
        true,
    )
    .with_incremental(config.incremental);
    let search = StepwiseSearch::new(config, executor, alignment.num_taxa()).with_names(names);
    let mut search = setup(search);
    let result = search.run();
    (search.into_executor().into_transport(), result)
}

/// How a run is steered besides its job and where it runs: where it
/// persists, how wide a farm runs, what observes it. Every launcher reads
/// every field; [`RunOptions::default`] is the plain unobserved run.
#[derive(Default)]
pub struct RunOptions {
    /// Where the run keeps its manifest and each in-flight jumble's round
    /// log ([`crate::wal`]). A run killed and re-run over the same
    /// directory resumes each unfinished jumble from its last committed
    /// round, and a finished one is answered from the manifest. `None`
    /// persists nothing.
    pub wal_dir: Option<PathBuf>,
    /// Maximum jumbles in flight at once; `0` means "as many as there are
    /// pending jumbles" (the foreman then shards the workers across all of
    /// them). A small width bounds the blast radius of a restart.
    pub width: usize,
    /// Observer sinks. Empty (or all-null) disables observation entirely —
    /// the instrumented code paths then cost one branch per emit point and
    /// no allocation, and the outcome's `report` is `None`.
    pub sinks: Vec<Box<dyn Sink>>,
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
}

/// Where a threaded run runs ([`run_threaded`]): its universe size and the
/// faults injected into its workers; a bare rank count is the fault-free
/// universe of that size.
#[derive(Debug, Clone, Default)]
pub struct ThreadOptions {
    /// Total thread-ranks, master, foreman and monitor included (minimum 4).
    pub num_ranks: usize,
    /// The faults injected into the workers: a chaos plan (seeded fault
    /// mixes and faults scripted on named ranks), wrapping every worker
    /// transport in [`ChaosTransport`]. While one worker survives, the
    /// result is byte-identical to the fault-free run; when none does, the
    /// run returns a typed error instead of hanging.
    pub chaos: Option<ChaosPlan>,
}

impl From<usize> for ThreadOptions {
    fn from(num_ranks: usize) -> ThreadOptions {
        ThreadOptions {
            num_ranks,
            ..ThreadOptions::default()
        }
    }
}

/// Everything a run returns, whatever its deployment and however many
/// jumbles its job has.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-jumble results in seed order — byte-identical on every
    /// deployment; the single search is `runs[0]`.
    pub runs: Vec<JumbleRun>,
    /// The majority-rule consensus over all jumbles.
    pub consensus: Consensus,
    /// The single search's result, its tree exact, when this run computed
    /// it; `None` for a farm and for an answer from the manifest.
    pub search: Option<SearchResult>,
    /// The end-of-run observability report — `Some` when the run was
    /// observed (sinks in [`RunOptions`]), `None` otherwise.
    pub report: Option<RunReport>,
    /// The foreman's statistics (zero in process: no foreman).
    pub foreman: ForemanStats,
    /// The monitor's aggregated instrumentation (empty in process).
    pub monitor: MonitorReport,
    /// Per-worker statistics by rank (threads: worker processes keep
    /// their own).
    pub workers: HashMap<usize, WorkerStats>,
    /// `Data` frames the hub relayed from one peer's socket to another's
    /// (TCP): zero in a flat universe, where workers speak only to the
    /// hosted foreman.
    pub relayed: u64,
    /// Exit statuses of spawned peers by rank (TCP spawn mode).
    pub peer_exits: Vec<(Rank, Option<i32>)>,
}

impl RunOutcome {
    /// A run's outcome with no universe statistics.
    pub(crate) fn new(parts: FarmParts, report: Option<RunReport>) -> RunOutcome {
        RunOutcome {
            runs: parts.runs,
            consensus: parts.consensus,
            search: parts.search,
            report,
            foreman: ForemanStats::default(),
            monitor: MonitorReport::default(),
            workers: HashMap::new(),
            relayed: 0,
            peer_exits: Vec::new(),
        }
    }
}

/// The serial program: the job's master over a [`Loopback`], every task
/// evaluated as an in-process subroutine exactly as in fastDNAml's serial
/// build, and every jumble of a farm run on the master's rank one after
/// another, each round logged as it commits. The trees are the cluster's,
/// byte for byte.
pub fn run_in_process(job: &ResolvedJob, options: RunOptions) -> Result<RunOutcome, PhyloError> {
    let observer = RunObserver::start(options.sinks, 1, 1);
    let (_, parts) = run_job(
        Loopback::new(),
        job,
        options.width,
        options.wal_dir,
        &observer.obs,
        run_here,
    );
    let parts = parts?;
    let best = parts.best_ln_likelihood();
    Ok(RunOutcome::new(parts, observer.finish(best)))
}

/// The in-process single search of `config` over `alignment`, without a
/// ledger, recording the dispatch-round trace of dataset `label` that the
/// simulator replays ([`SearchResult::trace`]).
pub fn traced_in_process(
    alignment: &Alignment,
    config: &SearchConfig,
    label: &str,
) -> Result<SearchResult, PhyloError> {
    let config_json = config.engine_config_json();
    let evaluator = Evaluator::for_problem(&phylip::write(alignment), &config_json)
        .map_err(|e| PhyloError::Format(e.to_string()))?;
    let patterns = PatternAlignment::compress(alignment).num_patterns();
    let (sites, full) = (alignment.num_sites(), !config.incremental);
    search_on(Loopback::around(evaluator), alignment, config, |search| {
        search.with_trace(label, sites, patterns, full)
    })
    .1
}

/// An observed run's event stream: the caller's sinks, teed into a memory
/// sink when any of them is live so the end-of-run report can be
/// aggregated no matter where else the events go.
pub(crate) struct RunObserver {
    /// The handle every rank of the run emits through.
    pub(crate) obs: Obs,
    mem: Option<MemorySink>,
}

impl RunObserver {
    /// Start observing a run of `ranks` ranks, `workers` of them workers.
    pub(crate) fn start(
        mut sinks: Vec<Box<dyn Sink>>,
        ranks: usize,
        workers: usize,
    ) -> RunObserver {
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
    pub(crate) fn finish(self, ln_likelihood: f64) -> Option<RunReport> {
        self.obs.emit(|| Event::RunFinished { ln_likelihood });
        self.obs.flush();
        self.mem.map(|m| RunReport::from_events(&m.take()))
    }
}

/// The service ranks of a universe — rank 1 the foreman, rank 2 the
/// monitor — running as threads of the master's process. Every launcher
/// hosts them this way: over channel endpoints in a threaded universe,
/// over the hub's hosted endpoints in a TCP one, and the job daemon over
/// its two loopback connections to its own hub.
pub struct ServiceRanks {
    foreman: thread::JoinHandle<Result<ForemanStats, ForemanError>>,
    monitor: thread::JoinHandle<Result<MonitorReport, CommError>>,
}

impl ServiceRanks {
    /// Start the foreman on `foreman_end` and the monitor on
    /// `monitor_end`. A worker holding a task longer than `timeout` loses
    /// it to another; `Duration::MAX` never takes one back but for a
    /// dropped link.
    pub fn start<T: Transport + Send + 'static>(
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

    /// Join both ranks, for the foreman's counters and the monitor's
    /// instrumentation; the master must already have shut the universe down.
    pub fn join(self) -> (ForemanStats, MonitorReport) {
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
        (foreman, monitor)
    }
}

/// The threaded program over `num_ranks` thread-ranks: rank 0 the master,
/// rank 1 the foreman, rank 2 the monitor, ranks 3.. workers, each behind a
/// [`ChaosTransport`] when a plan is given. As in the paper, "the fully instrumented
/// parallel version of fastDNAml requires a minimum of four processors".
/// Every rank is joined before the outcome is looked at.
pub fn run_threaded(
    job: &ResolvedJob,
    threads: impl Into<ThreadOptions>,
    options: RunOptions,
) -> Result<RunOutcome, PhyloError> {
    let ThreadOptions { num_ranks, chaos } = threads.into();
    let RunOptions {
        wal_dir,
        width,
        sinks,
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
        let chaos = chaos.clone();
        let worker_obs = obs.clone();
        let handle = thread::spawn(move || match chaos {
            Some(plan) => run_worker(
                Recording::new(
                    ChaosTransport::new(end, plan, worker_obs.clone()),
                    worker_obs.clone(),
                ),
                worker_obs,
            ),
            None => run_worker(Recording::new(end, worker_obs.clone()), worker_obs),
        });
        worker_handles.push((rank, handle));
    }
    let monitor_end = endpoints.remove(ranks::MONITOR);
    let foreman_end = endpoints.remove(ranks::FOREMAN);
    let master_end = Recording::new(endpoints.remove(ranks::MASTER), obs.clone());
    let service = ServiceRanks::start(foreman_end, monitor_end, job.config.worker_timeout, obs);

    let (_, parts) = run_job(master_end, job, width, wal_dir, obs, to_foreman);
    let (foreman, monitor) = service.join();
    let workers = worker_handles
        .into_iter()
        .map(|(rank, handle)| {
            let stats = handle.join().expect("worker thread must not panic");
            (rank, stats.unwrap_or_default())
        })
        .collect();
    let parts = parts?;
    let best = parts.best_ln_likelihood();
    Ok(RunOutcome {
        foreman,
        monitor,
        workers,
        ..RunOutcome::new(parts, observer.finish(best))
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

/// Bootstrap analysis: infer one tree per column-resampled replicate, in
/// process, and return the replicate runs plus their majority-rule
/// consensus, whose internal labels are the bootstrap support percentages.
pub fn bootstrap_analysis(
    alignment: &Alignment,
    base_config: &SearchConfig,
    replicates: usize,
    seed: u64,
) -> Result<(Vec<JumbleRun>, Consensus), PhyloError> {
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
        results.extend(run_in_process(&job, RunOptions::default())?.runs);
    }
    let trees = results.iter().map(|r| r.tree(alignment.names()));
    let trees = trees.collect::<Result<Vec<Tree>, _>>()?;
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

    fn serial_search(a: &Alignment, config: &SearchConfig) -> Result<JumbleRun, PhyloError> {
        let outcome = run_in_process(&job(a, config), RunOptions::default())?;
        Ok(outcome.runs[0].clone())
    }

    fn parallel_search(
        a: &Alignment,
        config: &SearchConfig,
        threads: ThreadOptions,
        options: RunOptions,
    ) -> RunOutcome {
        run_threaded(&job(a, config), threads, options).unwrap()
    }

    /// The splits of a run's tree.
    fn splits(a: &Alignment, run: &JumbleRun) -> SplitSet {
        SplitSet::of_tree(&run.tree(a.names()).unwrap(), a.num_taxa())
    }

    fn run_jumbles(
        a: &Alignment,
        config: &SearchConfig,
        seeds: &[u64],
    ) -> Result<RunOutcome, PhyloError> {
        let job = ResolvedJob {
            alignment: a.clone(),
            config: config.clone(),
            seeds: seeds.to_vec(),
        };
        run_in_process(&job, RunOptions::default())
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
        assert_eq!(splits(&a, &r).splits().len(), 3);
        assert!(r.ln_likelihood.is_finite() && r.ln_likelihood < 0.0);
        assert!(r.candidates > 0);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 5,
            ..Default::default()
        };
        let serial = run_in_process(&job(&a, &config), RunOptions::default()).unwrap();
        let parallel = parallel_search(&a, &config, 6.into(), RunOptions::default());
        // One call stream: the same tree, bit for bit.
        let (serial, found) = (serial.search.unwrap(), parallel.search.as_ref().unwrap());
        assert_eq!(serial.tree, found.tree);
        assert_eq!(
            serial.ln_likelihood.to_bits(),
            found.ln_likelihood.to_bits(),
            "serial {} vs parallel {}",
            serial.ln_likelihood,
            found.ln_likelihood
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
        let a = alignment();
        for seed in [1u64, 5, 11] {
            let config = SearchConfig {
                jumble_seed: seed,
                ..Default::default()
            };
            let full = parallel_search(&a, &config, 6.into(), RunOptions::default());
            let inc_config = SearchConfig {
                incremental: true,
                ..config.clone()
            };
            let mem = MemorySink::new();
            let inc = parallel_search(
                &a,
                &inc_config,
                6.into(),
                RunOptions::observed(vec![Box::new(mem.clone())]),
            );
            // The golden property: turning incremental dispatch on changes
            // HOW candidates are scored, never WHAT the search returns —
            // final tree bytes and likelihood bits are identical.
            assert_eq!(full.runs[0].newick, inc.runs[0].newick, "seed {seed}");
            assert_eq!(
                full.runs[0].ln_likelihood.to_bits(),
                inc.runs[0].ln_likelihood.to_bits(),
                "seed {seed}: full {} vs incremental {}",
                full.runs[0].ln_likelihood,
                inc.runs[0].ln_likelihood
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
        let clean = parallel_search(&a, &config, 6.into(), RunOptions::default());
        // Worker 3 silently drops its first four results: the foreman must
        // time it out, re-dispatch, and the final tree must be unchanged.
        let threads = ThreadOptions {
            chaos: Some(ChaosPlan::quiet(0).with_drop(3, 0, 4)),
            ..6.into()
        };
        let faulty = parallel_search(&a, &config, threads, RunOptions::default());
        let (clean_run, faulty_run) = (&clean.runs[0], &faulty.runs[0]);
        assert_eq!(splits(&a, clean_run), splits(&a, faulty_run));
        assert!(
            (clean_run.ln_likelihood - faulty_run.ln_likelihood).abs() < 1e-6,
            "clean {} vs faulty {}",
            clean_run.ln_likelihood,
            faulty_run.ln_likelihood
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
        let clean = parallel_search(&a, &config, 6.into(), RunOptions::default());
        // Worker 3 returns one result, then its link is severed for good —
        // the in-process analogue of a worker process dying mid-search. The
        // foreman must requeue its outstanding task (timeout first, then the
        // eager path on every later dispatch attempt) and the two surviving
        // workers must finish the search with an identical result.
        let threads = ThreadOptions {
            chaos: Some(ChaosPlan::quiet(0).with_kill(3, 1)),
            ..6.into()
        };
        let faulty = parallel_search(&a, &config, threads, RunOptions::default());
        let (clean_run, faulty_run) = (&clean.runs[0], &faulty.runs[0]);
        assert_eq!(splits(&a, clean_run), splits(&a, faulty_run));
        assert!(
            (clean_run.ln_likelihood - faulty_run.ln_likelihood).abs() < 1e-6,
            "clean {} vs severed {}",
            clean_run.ln_likelihood,
            faulty_run.ln_likelihood
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
            let result = traced_in_process(&a, &config, "toy").unwrap();
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
        let _ = run_threaded(&job(&a, &config), 3, RunOptions::default());
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
