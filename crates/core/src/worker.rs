//! The worker process (paper §2.2): "calculate branch lengths for a tree
//! topology and the likelihood value for the tree. The worker processes
//! communicate only with the foreman process."
//!
//! In service mode ([`crate::netrun`] peers attached to an `fdml-serve`
//! daemon) a worker serves several jobs at once: each
//! [`Message::JobData`] broadcast installs one engine per job id, and
//! job-tagged jumbles ([`Message::JobTask`]) from concurrent jobs
//! interleave freely on the same rank.

use crate::config::SearchConfig;
use crate::edits::edit_to_move;
use crate::wal::WalRound;
use fdml_comm::job::JobId;
use fdml_comm::message::Message;
use fdml_comm::transport::{CommError, Transport};
use fdml_likelihood::engine::LikelihoodEngine;
use fdml_likelihood::incremental::ClvCache;
use fdml_obs::{Event, Obs};
use fdml_phylo::alignment::Alignment;
use fdml_phylo::{newick, phylip};
use std::collections::{HashMap, VecDeque};
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

impl From<CommError> for WorkerError {
    fn from(e: CommError) -> WorkerError {
        WorkerError::Comm(e)
    }
}

/// One job's cached problem: the parsed alignment, the engine built from
/// it, and the search controls.
struct Problem {
    alignment: Alignment,
    engine: LikelihoodEngine,
    config: SearchConfig,
}

impl Problem {
    fn build(phylip_text: &str, config_json: &str) -> Result<Problem, WorkerError> {
        let alignment = phylip::parse(phylip_text)
            .map_err(|e| WorkerError::Protocol(format!("bad alignment: {e}")))?;
        let config = SearchConfig::from_engine_config_json(config_json)
            .map_err(|e| WorkerError::Protocol(format!("bad config: {e}")))?;
        let engine = config.build_engine(&alignment);
        Ok(Problem {
            alignment,
            engine,
            config,
        })
    }
}

/// Send a message up to the worker's current foreman, tolerating a dead
/// link. In the hierarchical topology a worker's regional foreman can die
/// while the worker computes; the root reclaims the lost lease (so an
/// undelivered result's task is re-dispatched elsewhere) and re-homes the
/// worker with a [`Message::Rehome`] — exiting here would turn a healable
/// failure into a lost worker.
fn send_up<T: Transport>(transport: &T, foreman: usize, msg: &Message) -> Result<(), WorkerError> {
    match transport.send(foreman, msg) {
        Err(CommError::Disconnected(_)) => Ok(()),
        other => other.map_err(WorkerError::from),
    }
}

/// Run the worker event loop until `Shutdown`. Pass [`Obs::disabled`] to
/// run unobserved; otherwise each evaluated tree emits an
/// [`Event::WorkerTaskDone`] carrying the time spent inside likelihood
/// optimization (compute only — queueing and transport excluded).
///
/// The worker reports to rank [`ranks::FOREMAN`] — the flat topology of
/// the paper. Hierarchical fleets home workers onto regional foremen via
/// [`run_worker_homed`].
pub fn run_worker<T: Transport>(transport: T, obs: Obs) -> Result<WorkerStats, WorkerError> {
    run_worker_homed(transport, ranks::FOREMAN, obs)
}

/// [`run_worker`] with an explicit home foreman rank: the worker announces
/// to `home` and sends every result there, until a [`Message::Rehome`]
/// moves it to a different foreman (the self-healing path when a regional
/// foreman dies).
pub fn run_worker_homed<T: Transport>(
    transport: T,
    home: usize,
    obs: Obs,
) -> Result<WorkerStats, WorkerError> {
    let mut foreman = home;
    let mut state: Option<Problem> = None;
    let mut jobs: HashMap<JobId, Problem> = HashMap::new();
    // Incremental evaluation state: the raw text of the round's base
    // broadcast, and the CLV cache lazily indexed from it on the first
    // edit task of the round.
    let mut base_text: Option<(u64, String)> = None;
    let mut cache: Option<(u64, ClvCache)> = None;
    let mut stats = WorkerStats::default();
    // Messages unpacked from a `Batch` frame, served before the transport
    // is polled again so batched tasks keep their dispatch order.
    let mut pending: VecDeque<Message> = VecDeque::new();
    loop {
        let msg = match pending.pop_front() {
            Some(msg) => msg,
            None => transport.recv()?.1,
        };
        match msg {
            Message::Batch { msgs } => {
                // One frame, many messages (e.g. a job's data + its task):
                // unpack in order and serve them as if sent individually.
                pending.extend(msgs);
            }
            Message::Rehome { foreman: new_home } => {
                // The root moved us to a sibling region after our foreman
                // died. Announce to the new foreman; it replies with the
                // current base broadcast if one is live.
                foreman = new_home;
                send_up(&transport, foreman, &Message::WorkerReady)?;
            }
            Message::ProblemData {
                phylip,
                config_json,
            } => {
                state = Some(Problem::build(&phylip, &config_json)?);
                // A new problem invalidates any base of the old one.
                base_text = None;
                cache = None;
                send_up(&transport, foreman, &Message::WorkerReady)?;
            }
            Message::JobData {
                job,
                phylip,
                config_json,
            } => {
                // Per-job data in a multi-tenant fleet. No WorkerReady
                // reply: the scheduler pairs this with the JobTask that
                // needs it, and readiness is tracked per rank, not per
                // job.
                jobs.insert(job, Problem::build(&phylip, &config_json)?);
            }
            Message::TreeTask { task, newick: text } => {
                let p = state
                    .as_ref()
                    .ok_or_else(|| WorkerError::Protocol("task before problem data".into()))?;
                let mut tree = newick::parse_tree(&text, &p.alignment)
                    .map_err(|e| WorkerError::Protocol(format!("bad tree: {e}")))?;
                let started = Instant::now();
                let result = p.engine.optimize(&mut tree, &p.config.optimize);
                let busy_us = started.elapsed().as_micros() as u64;
                stats.trees_evaluated += 1;
                stats.work_units += result.work.work_units();
                obs.emit(|| Event::WorkerTaskDone {
                    worker: transport.rank(),
                    task,
                    busy_us,
                    work_units: result.work.work_units(),
                    pattern_updates: result.work.total_pattern_updates(),
                });
                send_up(
                    &transport,
                    foreman,
                    &Message::TreeResult {
                        task,
                        newick: newick::write_tree(&tree, p.alignment.names()),
                        ln_likelihood: result.ln_likelihood,
                        work_units: result.work.work_units(),
                    },
                )?;
            }
            Message::BaseTopology { base_id, newick } => {
                // The round's base tree. Parsing and CLV indexing are
                // deferred to the first edit task, so a worker that never
                // receives an edit pays nothing.
                base_text = Some((base_id, newick));
                cache = None;
            }
            Message::TreeEditTask {
                task,
                base_id,
                edit,
                base_newick,
            } => {
                let p = state
                    .as_ref()
                    .ok_or_else(|| WorkerError::Protocol("edit task before problem data".into()))?;
                // Fallback ladder, bottom rung local to the worker: a
                // self-contained dispatch carries the base text; install
                // it when the broadcast was missed (fresh respawn). An
                // edit for an unknown base with no embedded text is a
                // protocol error — the supervisor respawns the worker and
                // the foreman requeues the task self-contained.
                let mut fallbacks = 0u64;
                if base_text.as_ref().map(|(id, _)| *id) != Some(base_id) {
                    let text = base_newick.ok_or_else(|| {
                        WorkerError::Protocol(format!(
                            "edit task {task} for unknown base {base_id}"
                        ))
                    })?;
                    base_text = Some((base_id, text));
                    cache = None;
                    fallbacks = 1;
                }
                let started = Instant::now();
                if cache.as_ref().map(|(id, _)| *id) != Some(base_id) {
                    let (_, text) = base_text.as_ref().expect("just ensured");
                    let base = newick::parse_tree(text, &p.alignment)
                        .map_err(|e| WorkerError::Protocol(format!("bad base tree: {e}")))?;
                    cache = Some((base_id, ClvCache::build(&p.engine, base)));
                }
                let (_, c) = cache.as_mut().expect("just built");
                let score = c
                    .score_edit(&p.engine, &edit_to_move(&edit), &p.config.optimize)
                    .map_err(|e| WorkerError::Protocol(format!("edit task {task}: {e}")))?;
                let busy_us = started.elapsed().as_micros() as u64;
                let work_units = score.work.work_units();
                stats.trees_evaluated += 1;
                stats.work_units += work_units;
                obs.emit(|| Event::WorkerTaskDone {
                    worker: transport.rank(),
                    task,
                    busy_us,
                    work_units,
                    pattern_updates: score.work.total_pattern_updates(),
                });
                obs.emit(|| Event::IncrementalEdit {
                    worker: transport.rank(),
                    cache_hits: score.cache_hits,
                    edges_recomputed: score.edges_recomputed,
                    fallbacks,
                });
                // Score-only reply: the master ranks candidates by lnL and
                // rebuilds the one tree it wants itself, so no candidate
                // is materialized or serialized here.
                send_up(
                    &transport,
                    foreman,
                    &Message::TreeResult {
                        task,
                        newick: String::new(),
                        ln_likelihood: score.ln_likelihood,
                        work_units,
                    },
                )?;
            }
            Message::JumbleTask { task, seed } => {
                let p = state
                    .as_ref()
                    .ok_or_else(|| WorkerError::Protocol("jumble before problem data".into()))?;
                let started = Instant::now();
                let result = crate::farm::run_one_jumble(&p.engine, &p.alignment, &p.config, seed)
                    .map_err(|e| WorkerError::Protocol(format!("jumble {seed}: {e}")))?;
                let busy_us = started.elapsed().as_micros() as u64;
                stats.trees_evaluated += 1;
                stats.work_units += result.work_units;
                obs.emit(|| Event::WorkerTaskDone {
                    worker: transport.rank(),
                    task,
                    busy_us,
                    work_units: result.work_units,
                    pattern_updates: 0,
                });
                send_up(
                    &transport,
                    foreman,
                    &Message::JumbleResult {
                        task,
                        seed,
                        newick: newick::write_tree(&result.tree, p.alignment.names()),
                        ln_likelihood: result.ln_likelihood,
                        rounds: result.rounds as u64,
                        candidates: result.candidates_evaluated as u64,
                        work_units: result.work_units,
                    },
                )?;
            }
            Message::JumbleResume {
                job,
                task,
                seed,
                wal,
            } => {
                // A WAL-aware jumble: replay the committed prefix the
                // coordinator carried inline, then run live, streaming each
                // newly committed round back so the coordinator's log stays
                // one round behind the search at most. `job` doubles as the
                // reply selector: 0 is the anonymous farm (JumbleResult),
                // anything else a daemon job (JobTaskResult).
                let p = if job == 0 {
                    state.as_ref().ok_or_else(|| {
                        WorkerError::Protocol("jumble resume before problem data".into())
                    })?
                } else {
                    jobs.get(&job).ok_or_else(|| {
                        WorkerError::Protocol(format!("job {job} resume before its JobData"))
                    })?
                };
                let mut rounds = Vec::with_capacity(wal.len());
                for entry in &wal {
                    rounds.push(WalRound::from_json(entry).map_err(|e| {
                        WorkerError::Protocol(format!("jumble {seed}: bad wal entry: {e}"))
                    })?);
                }
                let started = Instant::now();
                let result = crate::farm::run_one_jumble_wal(
                    &p.engine,
                    &p.alignment,
                    &p.config,
                    seed,
                    rounds,
                    |round| {
                        // Best-effort: a lost round merely re-runs live on
                        // the coordinator's next resume.
                        let _ = send_up(
                            &transport,
                            foreman,
                            &Message::WalRound {
                                job,
                                seed,
                                index: round.index,
                                entry: round.to_json(),
                            },
                        );
                    },
                )
                .map_err(|e| WorkerError::Protocol(format!("jumble {seed}: {e}")))?;
                let busy_us = started.elapsed().as_micros() as u64;
                stats.trees_evaluated += 1;
                stats.work_units += result.work_units;
                obs.emit(|| Event::WorkerTaskDone {
                    worker: transport.rank(),
                    task,
                    busy_us,
                    work_units: result.work_units,
                    pattern_updates: 0,
                });
                let newick = newick::write_tree(&result.tree, p.alignment.names());
                let reply = if job == 0 {
                    Message::JumbleResult {
                        task,
                        seed,
                        newick,
                        ln_likelihood: result.ln_likelihood,
                        rounds: result.rounds as u64,
                        candidates: result.candidates_evaluated as u64,
                        work_units: result.work_units,
                    }
                } else {
                    Message::JobTaskResult {
                        job,
                        task,
                        seed,
                        newick,
                        ln_likelihood: result.ln_likelihood,
                        work_units: result.work_units,
                    }
                };
                send_up(&transport, foreman, &reply)?;
            }
            Message::JobTask { job, task, seed } => {
                let p = jobs.get(&job).ok_or_else(|| {
                    WorkerError::Protocol(format!("job {job} task before its JobData"))
                })?;
                let started = Instant::now();
                let result = crate::farm::run_one_jumble(&p.engine, &p.alignment, &p.config, seed)
                    .map_err(|e| WorkerError::Protocol(format!("job {job} jumble {seed}: {e}")))?;
                let busy_us = started.elapsed().as_micros() as u64;
                stats.trees_evaluated += 1;
                stats.work_units += result.work_units;
                obs.emit(|| Event::WorkerTaskDone {
                    worker: transport.rank(),
                    task,
                    busy_us,
                    work_units: result.work_units,
                    pattern_updates: 0,
                });
                send_up(
                    &transport,
                    foreman,
                    &Message::JobTaskResult {
                        job,
                        task,
                        seed,
                        newick: newick::write_tree(&result.tree, p.alignment.names()),
                        ln_likelihood: result.ln_likelihood,
                        work_units: result.work_units,
                    },
                )?;
            }
            Message::JobRetire { job } => {
                // The scheduler finished or failed the job; drop its engine
                // so a long-lived shared-fleet worker does not accumulate
                // one alignment + likelihood state per job ever served.
                jobs.remove(&job);
            }
            Message::Ping => {
                // Foreman liveness probe: answering re-admits a worker
                // whose result was lost in flight and who would otherwise
                // idle forever as delinquent.
                send_up(&transport, foreman, &Message::WorkerReady)?;
            }
            Message::Shutdown => return Ok(stats),
            other => {
                return Err(WorkerError::Protocol(format!(
                    "unexpected message {}",
                    other.kind()
                )))
            }
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

        // Broadcast path: the base arrives ahead of the compact edit.
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
                &Message::TreeEditTask {
                    task: 1,
                    base_id: 1,
                    edit,
                    base_newick: None,
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        let broadcast_lnl = match msg {
            Message::TreeResult {
                task,
                ln_likelihood,
                newick: cand,
                work_units,
            } => {
                assert_eq!(task, 1);
                assert!(ln_likelihood.is_finite() && ln_likelihood < 0.0);
                // Score-only: lnL and work, no candidate tree.
                assert!(cand.is_empty(), "an edit reply carries no tree: {cand}");
                assert!(work_units > 0);
                ln_likelihood
            }
            other => panic!("unexpected {other:?}"),
        };

        // Self-contained path: a requeued edit for a base this worker never
        // saw broadcast carries its own text, and rescoring through the
        // rebuilt cache is bit-identical.
        foreman_end
            .send(
                3,
                &Message::TreeEditTask {
                    task: 2,
                    base_id: 2,
                    edit,
                    base_newick: Some(base_text),
                },
            )
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        match msg {
            Message::TreeResult {
                task,
                ln_likelihood,
                ..
            } => {
                assert_eq!(task, 2);
                assert_eq!(
                    ln_likelihood.to_bits(),
                    broadcast_lnl.to_bits(),
                    "self-contained rescore must be bit-identical"
                );
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
                &Message::TreeEditTask {
                    task: 5,
                    base_id: 9,
                    edit: TreeEdit::Insert {
                        taxon: 0,
                        a: 0,
                        b: 1,
                    },
                    base_newick: None,
                },
            )
            .unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert!(format!("{err:?}").contains("unknown base"), "got: {err:?}");
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
            .send(3, &Message::JumbleTask { task: 7, seed: 9 })
            .unwrap();
        let (_, msg) = foreman_end.recv().unwrap();
        match msg {
            Message::JumbleResult {
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
                Message::JobTaskResult {
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
        assert!(matches!(msg, Message::JobTaskResult { job: 1, .. }));
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
