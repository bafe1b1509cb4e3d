//! The worker process (paper §2.2): "calculate branch lengths for a tree
//! topology and the likelihood value for the tree. The worker processes
//! communicate only with the foreman process."
//!
//! What a worker computes lives in [`Evaluator`], the one place a task is
//! evaluated: the worker loop below calls it for every task it is sent,
//! the master calls it for tasks the foreman quarantined, and the
//! in-process [`crate::loopback::Loopback`] transport calls it from `send`.
//!
//! In service mode ([`crate::netrun`] peers attached to an `fdml-serve`
//! daemon) a worker serves several jobs at once: each
//! [`Message::JobData`] broadcast installs one evaluator per job id, and
//! job-tagged jumbles ([`Message::JobTask`]) from concurrent jobs
//! interleave freely on the same rank.

use crate::config::SearchConfig;
use crate::edits::edit_to_move;
use crate::loopback::Loopback;
use crate::master::ClusterExecutor;
use crate::search::{SearchResult, StepwiseSearch};
use crate::wal::{WalRound, NUMERICS_EPOCH};
use fdml_comm::job::JobId;
use fdml_comm::message::{EditScore, Message, TreeEdit};
use fdml_comm::transport::{CommError, Transport};
use fdml_likelihood::engine::LikelihoodEngine;
use fdml_likelihood::incremental::ClvCache;
use fdml_likelihood::work::WorkCounter;
use fdml_obs::{Event, Obs};
use fdml_phylo::alignment::Alignment;
use fdml_phylo::{newick, phylip};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

// The rank convention now lives with the transport layer; re-exported here
// because the runtime modules historically imported it from `worker`.
pub use fdml_comm::transport::ranks;

/// Summary statistics a worker returns when it shuts down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Trees this worker evaluated.
    pub trees_evaluated: u64,
    /// Total work units expended.
    pub work_units: u64,
}

/// Errors terminating a worker abnormally.
#[derive(Debug)]
pub enum WorkerError {
    /// Transport failure.
    Comm(CommError),
    /// Malformed problem data or tree.
    Protocol(String),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Comm(e) => write!(f, "{e}"),
            WorkerError::Protocol(what) => write!(f, "{what}"),
        }
    }
}

impl From<CommError> for WorkerError {
    fn from(e: CommError) -> WorkerError {
        WorkerError::Comm(e)
    }
}

fn protocol(what: impl fmt::Display) -> WorkerError {
    WorkerError::Protocol(what.to_string())
}

/// One job's problem: the texts it arrived as, and the alignment, engine
/// and search controls built from them.
struct Problem {
    phylip: String,
    config_json: String,
    alignment: Alignment,
    engine: LikelihoodEngine,
    config: SearchConfig,
}

/// One evaluated whole-tree task.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The optimized tree.
    pub newick: String,
    /// Its log-likelihood.
    pub ln_likelihood: f64,
    /// Work the evaluation cost.
    pub work: WorkCounter,
    /// Time spent computing, in microseconds.
    pub busy_us: u64,
}

impl Evaluated {
    /// The result message answering `task`.
    pub fn reply(self, task: u64) -> Message {
        Message::TreeResult {
            task,
            newick: self.newick,
            ln_likelihood: self.ln_likelihood,
            work_units: self.work.work_units(),
        }
    }
}

/// One scored chunk of edits. Edits are answered by their scores alone (the
/// master rebuilds the one tree it wants itself); everything else is the
/// chunk's total.
#[derive(Debug, Clone)]
pub struct ScoredChunk {
    /// One score per edit, in the chunk's order.
    pub scores: Vec<EditScore>,
    /// Raw per-pattern kernel operations the chunk cost.
    pub pattern_updates: u64,
    /// Time spent computing, in microseconds.
    pub busy_us: u64,
    /// Directional CLVs served from the cache.
    pub cache_hits: u64,
    /// CLVs recomputed along the edits' dirty paths.
    pub edges_recomputed: u64,
    /// 1 when the base had to be installed from the task's embedded text.
    pub fallbacks: u64,
}

impl ScoredChunk {
    /// Work units the chunk cost: the sum over its edits.
    pub fn work_units(&self) -> u64 {
        self.scores.iter().map(|s| s.work_units).sum()
    }

    /// The result message answering `task`.
    pub fn reply(self, task: u64) -> Message {
        Message::EditScores {
            task,
            scores: self.scores,
        }
    }
}

/// Everything that evaluates a task: one problem, the round's base as it
/// was broadcast, and the CLV cache indexed from that base on the first
/// edit that needs it (so a rank that never scores an edit pays nothing).
#[derive(Default)]
pub struct Evaluator {
    problem: Option<Arc<Problem>>,
    base: Option<(u64, String)>,
    cache: Option<(u64, ClvCache)>,
}

impl Evaluator {
    /// An evaluator of the problem these texts describe.
    pub fn for_problem(phylip_text: &str, config_json: &str) -> Result<Evaluator, WorkerError> {
        let mut evaluator = Evaluator::default();
        evaluator.set_problem(phylip_text, config_json)?;
        Ok(evaluator)
    }

    /// Install the problem every later task refers to, dropping any base of
    /// the previous one. The same texts again keep the engine already built.
    pub fn set_problem(&mut self, phylip_text: &str, config_json: &str) -> Result<(), WorkerError> {
        self.base = None;
        self.cache = None;
        if self
            .problem
            .as_ref()
            .is_some_and(|p| p.phylip == phylip_text && p.config_json == config_json)
        {
            return Ok(());
        }
        let alignment =
            phylip::parse(phylip_text).map_err(|e| protocol(format!("bad alignment: {e}")))?;
        let config = SearchConfig::from_engine_config_json(config_json)
            .map_err(|e| protocol(format!("bad config: {e}")))?;
        let engine = config.build_engine(&alignment);
        self.problem = Some(Arc::new(Problem {
            phylip: phylip_text.to_string(),
            config_json: config_json.to_string(),
            alignment,
            engine,
            config,
        }));
        Ok(())
    }

    fn problem(&self, what: &str) -> Result<&Arc<Problem>, WorkerError> {
        self.problem
            .as_ref()
            .ok_or_else(|| protocol(format!("{what} before problem data")))
    }

    /// Install the round's base tree. Parsing and CLV indexing wait for
    /// the first edit task.
    pub fn set_base(&mut self, base_id: u64, newick: String) {
        self.base = Some((base_id, newick));
        self.cache = None;
    }

    /// The whole-tree task: parse, optimize every branch length, write.
    pub fn tree_task(&self, text: &str) -> Result<Evaluated, WorkerError> {
        let p = self.problem("task")?;
        let mut tree = newick::parse_tree(text, &p.alignment)
            .map_err(|e| protocol(format!("bad tree: {e}")))?;
        let started = Instant::now();
        let result = p.engine.optimize(&mut tree, &p.config.optimize);
        Ok(Evaluated {
            busy_us: started.elapsed().as_micros() as u64,
            newick: newick::write_tree(&tree, p.alignment.names()),
            ln_likelihood: result.ln_likelihood,
            work: result.work,
        })
    }

    /// The edit task: score `base + edit` for every edit of a chunk, in
    /// order, through the CLV cache of base `base_id`. A self-contained
    /// dispatch carries the base text and installs it when the broadcast
    /// was missed (a fresh respawn); a chunk for an unknown base without
    /// embedded text is an error — the supervisor respawns the worker and
    /// the foreman requeues the task self-contained. An empty chunk is an
    /// error too: the master never packs one, and it would have no best
    /// score to report.
    pub fn edit_task(
        &mut self,
        base_id: u64,
        edits: &[TreeEdit],
        base_newick: Option<String>,
    ) -> Result<ScoredChunk, WorkerError> {
        let p = Arc::clone(self.problem("edit task")?);
        if edits.is_empty() {
            return Err(protocol(format!("empty edit chunk for base {base_id}")));
        }
        let mut fallbacks = 0;
        if self.base.as_ref().map(|(id, _)| *id) != Some(base_id) {
            let text =
                base_newick.ok_or_else(|| protocol(format!("edit for unknown base {base_id}")))?;
            self.set_base(base_id, text);
            fallbacks = 1;
        }
        let started = Instant::now();
        if self.cache.as_ref().map(|(id, _)| *id) != Some(base_id) {
            let (_, text) = self.base.as_ref().expect("just ensured");
            let base = newick::parse_tree(text, &p.alignment)
                .map_err(|e| protocol(format!("bad base tree: {e}")))?;
            self.cache = Some((base_id, ClvCache::build(&p.engine, base)));
        }
        let (_, cache) = self.cache.as_mut().expect("just built");
        let mut done = ScoredChunk {
            scores: Vec::with_capacity(edits.len()),
            pattern_updates: 0,
            busy_us: 0,
            cache_hits: 0,
            edges_recomputed: 0,
            fallbacks,
        };
        for edit in edits {
            let score = cache
                .score_edit(&p.engine, &edit_to_move(edit), &p.config.optimize)
                .map_err(protocol)?;
            done.scores.push(EditScore {
                ln_likelihood: score.ln_likelihood,
                work_units: score.work.work_units(),
            });
            done.pattern_updates += score.work.total_pattern_updates();
            done.cache_hits += score.cache_hits;
            done.edges_recomputed += score.edges_recomputed;
        }
        done.busy_us = started.elapsed().as_micros() as u64;
        Ok(done)
    }

    /// The jumble task: one whole stepwise-addition search under `seed`,
    /// replaying the committed rounds in `wal` — computed under numerics
    /// epoch `numerics`, replayed as a single search replays them — and
    /// handing every round committed after them to `on_round`. It is the search every
    /// deployment runs — the cluster executor — over a [`Loopback`] around
    /// the engine already held here, and it is always edit-scored.
    pub fn jumble(
        &self,
        seed: u64,
        numerics: u32,
        wal: Vec<WalRound>,
        on_round: impl FnMut(&WalRound),
    ) -> Result<SearchResult, WorkerError> {
        let p = self.problem("jumble")?;
        let config = SearchConfig {
            jumble_seed: seed,
            incremental: true,
            ..p.config.clone()
        };
        let names = p.alignment.names().to_vec();
        let inner = Loopback::around(Evaluator {
            problem: Some(Arc::clone(p)),
            ..Evaluator::default()
        });
        let executor = ClusterExecutor::new(
            inner,
            names.clone(),
            p.phylip.clone(),
            p.config_json.clone(),
            false,
        )
        .with_incremental(true);
        let result = StepwiseSearch::new(&config, executor, names.len())
            .with_names(names)
            .resume_from_wal(wal)
            .replay_epoch(numerics)
            .on_wal(on_round)
            .run();
        result.map_err(|e| protocol(format!("jumble {seed}: {e}")))
    }

    /// Serve a whole-jumble task in either of its wire forms and build its
    /// `JumbleResult`, plus the work units spent. Only a
    /// `JumbleResume` is WAL-aware: it replays the committed prefix the
    /// coordinator carried inline, then hands each newly committed round to
    /// `up` as a `WalRound` so the coordinator's log stays one round behind
    /// at most.
    pub(crate) fn serve_jumble(
        &self,
        msg: &Message,
        mut up: impl FnMut(Message),
    ) -> Result<(Message, u64), WorkerError> {
        let (job, task, seed, prefix) = jumble_request(msg);
        let (numerics, wal) = prefix.unwrap_or((NUMERICS_EPOCH, &[]));
        let replay = wal
            .iter()
            .map(|entry| WalRound::from_json(entry))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| protocol(format!("jumble {seed}: bad wal entry: {e}")))?;
        let result = self.jumble(seed, numerics, replay, |round| {
            if prefix.is_some() {
                up(Message::WalRound {
                    job,
                    seed,
                    index: round.index,
                    entry: round.to_json(),
                });
            }
        })?;
        let newick = newick::write_tree(&result.tree, self.problem("jumble")?.alignment.names());
        let reply = Message::JumbleResult {
            job,
            task,
            seed,
            newick,
            ln_likelihood: result.ln_likelihood,
            rounds: result.rounds as u64,
            candidates: result.candidates_evaluated as u64,
            work_units: result.work_units,
        };
        Ok((reply, result.work_units))
    }
}

/// A resumed jumble's committed prefix as it travels: the numerics epoch
/// of its rounds, and the rounds as JSON.
type WirePrefix<'a> = (u32, &'a [String]);

/// `(job, task, seed, committed prefix)` of a whole-jumble task.
pub(crate) fn jumble_request(msg: &Message) -> (JobId, u64, u64, Option<WirePrefix<'_>>) {
    match msg {
        Message::JobTask { job, task, seed } => (*job, *task, *seed, None),
        Message::JumbleResume {
            job,
            task,
            seed,
            numerics,
            wal,
        } => (*job, *task, *seed, Some((*numerics, wal))),
        other => unreachable!("{} is not a jumble task", other.kind()),
    }
}

/// Send a message to the foreman, tolerating a dead link: an undelivered
/// result is the foreman's to take back and re-dispatch, and the loop ends
/// on `Shutdown` or a failed receive, not on a failed send.
fn send_up<T: Transport>(transport: &T, msg: &Message) -> Result<(), WorkerError> {
    match transport.send(ranks::FOREMAN, msg) {
        Err(CommError::Disconnected(_)) => Ok(()),
        other => other.map_err(WorkerError::from),
    }
}

/// Run the worker event loop until `Shutdown`. Pass [`Obs::disabled`] to
/// run unobserved; otherwise each evaluated tree emits an
/// [`Event::WorkerTaskDone`] carrying the time spent inside likelihood
/// optimization (compute only — queueing and transport excluded).
///
/// The worker reports to rank [`ranks::FOREMAN`], as in the paper.
pub fn run_worker<T: Transport>(transport: T, obs: Obs) -> Result<WorkerStats, WorkerError> {
    let mut main = Evaluator::default();
    let mut jobs: HashMap<JobId, Evaluator> = HashMap::new();
    let mut stats = WorkerStats::default();
    // Every finished task, whatever its kind, is counted and reported once.
    let mut task_done = |task: u64, busy_us: u64, work_units: u64, pattern_updates: u64| {
        stats.trees_evaluated += 1;
        stats.work_units += work_units;
        obs.emit(|| Event::WorkerTaskDone {
            worker: transport.rank(),
            task,
            busy_us,
            work_units,
            pattern_updates,
        });
    };
    loop {
        match transport.recv()?.1 {
            Message::ProblemData {
                phylip,
                config_json,
            } => {
                main.set_problem(&phylip, &config_json)?;
                send_up(&transport, &Message::WorkerReady)?;
            }
            Message::JobData {
                job,
                phylip,
                config_json,
            } => {
                // Per-job data in a multi-tenant fleet. No WorkerReady
                // reply: the daemon follows its data with a `Ping`, whose
                // answer makes this rank ready, and readiness is tracked
                // per rank, not per job.
                jobs.entry(job)
                    .or_default()
                    .set_problem(&phylip, &config_json)?;
            }
            Message::TreeTask { task, newick } => {
                let done = main.tree_task(&newick)?;
                task_done(
                    task,
                    done.busy_us,
                    done.work.work_units(),
                    done.work.total_pattern_updates(),
                );
                send_up(&transport, &done.reply(task))?;
            }
            Message::BaseTopology { base_id, newick } => main.set_base(base_id, newick),
            Message::EditChunk {
                task,
                base_id,
                edits,
                base_newick,
            } => {
                let done = main
                    .edit_task(base_id, &edits, base_newick)
                    .map_err(|e| protocol(format!("edit task {task}: {e}")))?;
                // One chunk is one task: reported once, with its totals.
                task_done(task, done.busy_us, done.work_units(), done.pattern_updates);
                obs.emit(|| Event::IncrementalEdit {
                    worker: transport.rank(),
                    cache_hits: done.cache_hits,
                    edges_recomputed: done.edges_recomputed,
                    fallbacks: done.fallbacks,
                });
                send_up(&transport, &done.reply(task))?;
            }
            msg @ (Message::JobTask { .. } | Message::JumbleResume { .. }) => {
                // `job` selects the problem: 0 is the run's own, anything
                // else a daemon job's.
                let (job, task, _, _) = jumble_request(&msg);
                let evaluator = if job == 0 {
                    &main
                } else {
                    jobs.get(&job)
                        .ok_or_else(|| protocol(format!("job {job} task before its JobData")))?
                };
                let started = Instant::now();
                // Best-effort streaming: a lost round merely re-runs live
                // on the coordinator's next resume.
                let (reply, work_units) = evaluator.serve_jumble(&msg, |round| {
                    let _ = send_up(&transport, &round);
                })?;
                task_done(task, started.elapsed().as_micros() as u64, work_units, 0);
                send_up(&transport, &reply)?;
            }
            Message::JobRetire { job } => {
                // The daemon finished or failed the job; drop its engine
                // so a long-lived shared-fleet worker does not accumulate
                // one alignment + likelihood state per job ever served.
                jobs.remove(&job);
            }
            Message::Ping => {
                // Foreman liveness probe: answering re-admits a worker
                // whose result was lost in flight and who would otherwise
                // idle forever as delinquent.
                send_up(&transport, &Message::WorkerReady)?;
            }
            Message::Shutdown => return Ok(stats),
            other => return Err(protocol(format!("unexpected message {}", other.kind()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_comm::message::TreeEdit;
    use fdml_comm::threads::ThreadUniverse;
    use std::thread;

    fn problem() -> (String, String) {
        let a = Alignment::from_strings(&[
            ("t0", "ACGTACGTACGT"),
            ("t1", "ACGTACGAACGT"),
            ("t2", "ACTTACGAACGA"),
        ])
        .unwrap();
        let config = SearchConfig::default();
        (phylip::write(&a), config.engine_config_json())
    }

    #[test]
    fn worker_evaluates_and_replies() {
        // Universe: 0 = this test acting as master+foreman, 3 = worker.
        let mut ends = ThreadUniverse::create(4);
        let worker_end = ends.remove(3);
        let foreman_end = ends.remove(1);
        let handle = thread::spawn(move || run_worker(worker_end, Obs::disabled()).unwrap());
        let (phylip_text, config_json) = problem();
        foreman_end
            .send(
                3,
                &Message::ProblemData {
                    phylip: phylip_text,
                    config_json,
                },
            )
            .unwrap();
        let (from, msg) = foreman_end.recv().unwrap();
        assert_eq!(from, 3);
        assert_eq!(msg, Message::WorkerReady);
        foreman_end
            .send(
                3,
                &Message::TreeTask {
                    task: 42,
                    newick: "(t0:0.1,t1:0.1,t2:0.1);".into(),
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        match msg {
            Message::TreeResult {
                task,
                ln_likelihood,
                work_units,
                newick,
            } => {
                assert_eq!(task, 42);
                assert!(ln_likelihood.is_finite() && ln_likelihood < 0.0);
                assert!(work_units > 0);
                assert!(newick.contains("t0"));
            }
            other => panic!("unexpected {other:?}"),
        }
        foreman_end.send(3, &Message::Shutdown).unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.trees_evaluated, 1);
    }

    #[test]
    fn worker_scores_tree_edits_through_the_clv_cache() {
        use crate::edits::move_to_edit;
        use fdml_phylo::ops::enumerate_insertion_moves;
        let a = Alignment::from_strings(&[
            ("t0", "ACGTACGTACGT"),
            ("t1", "ACGTACGAACGT"),
            ("t2", "ACTTACGAACGA"),
            ("t3", "ACTTACGAACGT"),
        ])
        .unwrap();
        let phylip_text = phylip::write(&a);
        let config_json = SearchConfig::default().engine_config_json();
        let mut ends = ThreadUniverse::create(4);
        let worker_end = ends.remove(3);
        let foreman_end = ends.remove(1);
        let handle = thread::spawn(move || run_worker(worker_end, Obs::disabled()).unwrap());
        foreman_end
            .send(
                3,
                &Message::ProblemData {
                    phylip: phylip_text,
                    config_json,
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        assert_eq!(msg, Message::WorkerReady);

        // The edit's node ids come from parsing the exact broadcast text —
        // the same deterministic arena the worker will build.
        let base_text = "(t0:0.1,t1:0.1,t2:0.1);".to_string();
        let base = newick::parse_tree(&base_text, &a).unwrap();
        let edit = move_to_edit(&enumerate_insertion_moves(&base, 3)[0]);

        // Broadcast path: the base arrives ahead of the compact chunk —
        // here the same edit twice, so order and repeatability show.
        foreman_end
            .send(
                3,
                &Message::BaseTopology {
                    base_id: 1,
                    newick: base_text.clone(),
                },
            )
            .unwrap();
        foreman_end
            .send(
                3,
                &Message::EditChunk {
                    task: 1,
                    base_id: 1,
                    edits: vec![edit, edit],
                    base_newick: None,
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        let broadcast = match msg {
            // Score-only: one lnL and work figure per edit, no trees.
            Message::EditScores { task: 1, scores } => {
                assert_eq!(scores.len(), 2);
                assert_eq!(scores[0], scores[1]);
                assert!(scores[0].ln_likelihood.is_finite() && scores[0].ln_likelihood < 0.0);
                assert!(scores[0].work_units > 0);
                scores[0]
            }
            other => panic!("unexpected {other:?}"),
        };

        // Self-contained path: a requeued chunk for a base this worker
        // never saw broadcast carries its own text, and rescoring through
        // the rebuilt cache is bit-identical.
        foreman_end
            .send(
                3,
                &Message::EditChunk {
                    task: 2,
                    base_id: 2,
                    edits: vec![edit],
                    base_newick: Some(base_text),
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        match msg {
            Message::EditScores { task: 2, scores } => {
                assert_eq!(scores.len(), 1);
                assert_eq!(
                    scores[0].ln_likelihood.to_bits(),
                    broadcast.ln_likelihood.to_bits(),
                    "self-contained rescore must be bit-identical"
                );
                assert_eq!(scores[0].work_units, broadcast.work_units);
            }
            other => panic!("unexpected {other:?}"),
        }
        foreman_end.send(3, &Message::Shutdown).unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.trees_evaluated, 2);
    }

    #[test]
    fn edit_for_unknown_base_without_text_is_a_protocol_error() {
        let mut ends = ThreadUniverse::create(4);
        let worker_end = ends.remove(3);
        let foreman_end = ends.remove(1);
        let handle = thread::spawn(move || run_worker(worker_end, Obs::disabled()));
        let (phylip_text, config_json) = problem();
        foreman_end
            .send(
                3,
                &Message::ProblemData {
                    phylip: phylip_text,
                    config_json,
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        assert_eq!(msg, Message::WorkerReady);
        foreman_end
            .send(
                3,
                &Message::EditChunk {
                    task: 5,
                    base_id: 9,
                    edits: vec![TreeEdit::Insert {
                        taxon: 0,
                        a: 0,
                        b: 1,
                    }],
                    base_newick: None,
                },
            )
            .unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert!(format!("{err:?}").contains("unknown base"), "got: {err:?}");
    }

    #[test]
    fn an_empty_chunk_is_a_protocol_error() {
        // No edits, no best score: refused before any base is touched.
        let (phylip_text, config_json) = problem();
        let mut evaluator = Evaluator::for_problem(&phylip_text, &config_json).unwrap();
        let err = evaluator
            .edit_task(1, &[], Some("(t0:1,t1:1,t2:1);".into()))
            .unwrap_err();
        assert!(format!("{err}").contains("empty edit chunk"), "got: {err}");
    }

    #[test]
    fn worker_runs_a_whole_jumble() {
        let mut ends = ThreadUniverse::create(4);
        let worker_end = ends.remove(3);
        let foreman_end = ends.remove(1);
        let handle = thread::spawn(move || run_worker(worker_end, Obs::disabled()).unwrap());
        let (phylip_text, config_json) = problem();
        foreman_end
            .send(
                3,
                &Message::ProblemData {
                    phylip: phylip_text,
                    config_json,
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        assert_eq!(msg, Message::WorkerReady);
        foreman_end
            .send(
                3,
                &Message::JobTask {
                    job: 0,
                    task: 7,
                    seed: 9,
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        match msg {
            Message::JumbleResult {
                job: 0,
                task,
                seed,
                newick,
                ln_likelihood,
                candidates,
                ..
            } => {
                assert_eq!(task, 7);
                assert_eq!(seed, 9);
                assert!(ln_likelihood.is_finite() && ln_likelihood < 0.0);
                // Three taxa admit a single topology, so no candidate
                // rearrangements are evaluated.
                assert_eq!(candidates, 0);
                assert!(newick.contains("t0"));
            }
            other => panic!("unexpected {other:?}"),
        }
        foreman_end.send(3, &Message::Shutdown).unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.trees_evaluated, 1);
        assert!(stats.work_units > 0);
    }

    #[test]
    fn problem_data_can_be_rebroadcast() {
        // A new analysis re-broadcasts ProblemData; the worker rebuilds its
        // engine and keeps serving.
        let mut ends = ThreadUniverse::create(4);
        let worker_end = ends.remove(3);
        let foreman_end = ends.remove(1);
        let handle = thread::spawn(move || run_worker(worker_end, Obs::disabled()).unwrap());
        let (phylip_text, config_json) = problem();
        for _ in 0..2 {
            foreman_end
                .send(
                    3,
                    &Message::ProblemData {
                        phylip: phylip_text.clone(),
                        config_json: config_json.clone(),
                    },
                )
                .unwrap();
            let (_, msg) = foreman_end.recv().unwrap();
            assert_eq!(msg, Message::WorkerReady);
        }
        foreman_end
            .send(
                3,
                &Message::TreeTask {
                    task: 1,
                    newick: "(t0:0.1,t1:0.1,t2:0.1);".into(),
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        assert!(matches!(msg, Message::TreeResult { task: 1, .. }));
        foreman_end.send(3, &Message::Shutdown).unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.trees_evaluated, 1);
    }

    #[test]
    fn task_before_data_is_protocol_error() {
        let mut ends = ThreadUniverse::create(4);
        let worker_end = ends.remove(3);
        let foreman_end = ends.remove(1);
        foreman_end
            .send(
                3,
                &Message::TreeTask {
                    task: 1,
                    newick: "(a,b,c);".into(),
                },
            )
            .unwrap();
        let err = run_worker(worker_end, Obs::disabled()).unwrap_err();
        assert!(matches!(err, WorkerError::Protocol(_)));
    }

    #[test]
    fn malformed_tree_is_protocol_error() {
        let mut ends = ThreadUniverse::create(4);
        let worker_end = ends.remove(3);
        let foreman_end = ends.remove(1);
        let (phylip_text, config_json) = problem();
        foreman_end
            .send(
                3,
                &Message::ProblemData {
                    phylip: phylip_text,
                    config_json,
                },
            )
            .unwrap();
        foreman_end
            .send(
                3,
                &Message::TreeTask {
                    task: 1,
                    newick: "not a tree".into(),
                },
            )
            .unwrap();
        let err = run_worker(worker_end, Obs::disabled()).unwrap_err();
        assert!(matches!(err, WorkerError::Protocol(_)));
    }

    #[test]
    fn concurrent_jobs_interleave_on_one_worker() {
        // Two jobs with different alignments; their tasks interleave and
        // each answer is tagged with its job id.
        let mut ends = ThreadUniverse::create(4);
        let worker_end = ends.remove(3);
        let foreman_end = ends.remove(1);
        let handle = thread::spawn(move || run_worker(worker_end, Obs::disabled()).unwrap());
        let (phylip_a, config_a) = problem();
        let b = Alignment::from_strings(&[
            ("x0", "AAGTACGTAGGT"),
            ("x1", "ACGTACTAACGT"),
            ("x2", "ACTTACGAACGA"),
            ("x3", "TCTTACGAACGA"),
        ])
        .unwrap();
        let config_b = SearchConfig::default();
        foreman_end
            .send(
                3,
                &Message::JobData {
                    job: 1,
                    phylip: phylip_a,
                    config_json: config_a,
                },
            )
            .unwrap();
        foreman_end
            .send(
                3,
                &Message::JobData {
                    job: 2,
                    phylip: phylip::write(&b),
                    config_json: config_b.engine_config_json(),
                },
            )
            .unwrap();
        for (job, task, seed) in [(1u64, 10u64, 9u64), (2, 11, 7), (1, 12, 11)] {
            foreman_end
                .send(3, &Message::JobTask { job, task, seed })
                .unwrap();
            let (_, msg) = foreman_end.recv().unwrap();
            match msg {
                Message::JumbleResult {
                    job: j,
                    task: t,
                    seed: s,
                    newick,
                    ln_likelihood,
                    ..
                } => {
                    assert_eq!((j, t, s), (job, task, seed));
                    assert!(ln_likelihood.is_finite() && ln_likelihood < 0.0);
                    let tip = if job == 1 { "t0" } else { "x0" };
                    assert!(newick.contains(tip));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        foreman_end.send(3, &Message::Shutdown).unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.trees_evaluated, 3);
    }

    #[test]
    fn retired_job_engine_is_evicted() {
        let mut ends = ThreadUniverse::create(4);
        let worker_end = ends.remove(3);
        let foreman_end = ends.remove(1);
        let handle = thread::spawn(move || run_worker(worker_end, Obs::disabled()));
        let (phylip_text, config_json) = problem();
        foreman_end
            .send(
                3,
                &Message::JobData {
                    job: 1,
                    phylip: phylip_text,
                    config_json,
                },
            )
            .unwrap();
        foreman_end
            .send(
                3,
                &Message::JobTask {
                    job: 1,
                    task: 1,
                    seed: 9,
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        assert!(matches!(msg, Message::JumbleResult { job: 1, .. }));
        // Retire the job; a further task for it must now be a protocol
        // error, proving the cached engine is gone rather than leaked.
        foreman_end.send(3, &Message::JobRetire { job: 1 }).unwrap();
        foreman_end
            .send(
                3,
                &Message::JobTask {
                    job: 1,
                    task: 2,
                    seed: 11,
                },
            )
            .unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert!(matches!(err, WorkerError::Protocol(_)));
    }

    #[test]
    fn job_task_before_its_data_is_protocol_error() {
        let mut ends = ThreadUniverse::create(4);
        let worker_end = ends.remove(3);
        let foreman_end = ends.remove(1);
        foreman_end
            .send(
                3,
                &Message::JobTask {
                    job: 5,
                    task: 1,
                    seed: 3,
                },
            )
            .unwrap();
        let err = run_worker(worker_end, Obs::disabled()).unwrap_err();
        assert!(matches!(err, WorkerError::Protocol(_)));
    }
}
