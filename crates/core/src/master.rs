//! The master process (paper §2.2): "generates and compares trees. It
//! generates new tree topologies and sends these trees to the foreman."
//!
//! [`ClusterExecutor`] is the master's side of the protocol, implementing
//! [`RoundExecutor`] so the identical search driver runs serially or over
//! a transport (the paper's point about the algorithm being independent of
//! the message-passing layer).

use crate::edits::move_to_edit;
use crate::executor::{BaseOutcome, CandidateScore, ExecutorError, RoundExecutor, Verified};
use crate::worker::{ranks, Evaluator};
use fdml_comm::message::{EditScore, Message, MonitorEvent, TaskPayload};
use fdml_comm::transport::Transport;
use fdml_phylo::error::PhyloError;
use fdml_phylo::newick;
use fdml_phylo::ops::{apply_move, TreeMove};
use fdml_phylo::tree::Tree;
use std::collections::HashMap;

/// How many chunks a worker's share of an edit round is cut into. One
/// chunk per worker would pay for the frames once but end every round on
/// its slowest chunk (the paper's loose barrier, §3.2); a chunk per move is
/// the paper's protocol and pays ~100 µs of turnaround for ~40 µs of
/// scoring. Seconds-to-tree on the 101-taxon benchmark input is flat from
/// 4 to 16 chunks per worker; 4 keeps the frame count lowest.
const CHUNKS_PER_WORKER: usize = 4;

/// How many edits go into one `EditChunk` task when `moves` candidates are
/// scored by `workers` workers. With as many workers as moves (the paper's
/// wide fleets) this is the paper's one tree per message.
pub fn edit_chunk_len(moves: usize, workers: usize) -> usize {
    moves.div_ceil(CHUNKS_PER_WORKER * workers.max(1)).max(1)
}

/// How many whole-tree tasks a verification keeps sent beyond its decided
/// prefix when the universe has `workers` workers: one per worker and one
/// spare at the foreman, so a worker that answers is handed the next rank
/// without waiting for the master. A single worker gets no spare: the
/// in-process [`crate::loopback::Loopback`] evaluates a task inside `send`,
/// so a spare would be computed and thrown away.
pub(crate) fn verify_window(workers: usize) -> usize {
    if workers >= 2 {
        workers + 1
    } else {
        1
    }
}

/// One task's answer as it arrived.
enum Reply {
    /// A whole-tree task: the optimized tree as text (parsed only where a
    /// tree is needed), its log-likelihood and work units.
    Tree(Verified),
    /// An edit chunk: one score per edit.
    Scores(Vec<EditScore>),
}

impl Reply {
    /// The answer of a whole-tree task.
    fn into_tree(self) -> Result<Verified, PhyloError> {
        match self {
            Reply::Tree(tree) => Ok(tree),
            Reply::Scores(_) => Err(PhyloError::Format(
                "a whole-tree task was answered with edit scores".into(),
            )),
        }
    }
}

fn transport_error(e: impl std::fmt::Display) -> PhyloError {
    PhyloError::Format(format!("transport: {e}"))
}

/// Send `problem` (a [`Message::ProblemData`]) to every worker rank of
/// `transport`'s universe: once per run, before its first task. A worker
/// that died before the broadcast is the foreman's problem (eager requeue /
/// all-dead abort), not the caller's.
pub fn broadcast_problem<T: Transport>(transport: &T, problem: &Message) {
    for rank in ranks::FIRST_WORKER..transport.size() {
        let _ = transport.send(rank, problem);
    }
}

/// Master-side executor: each candidate becomes a `TreeTask` dispatched via
/// the foreman; workers do the full per-tree optimization. With
/// [`ClusterExecutor::with_incremental`] enabled, candidates instead travel
/// as compact edits against the adopted base's `BaseTopology` broadcast,
/// [`edit_chunk_len`] of them per `EditChunk` task, and workers score them
/// through their CLV caches, answering with the scores alone.
///
/// Verification ([`RoundExecutor::verify`]) streams ordinary `TreeTask`s,
/// one per move, through a window of `workers + 1` tasks beyond the
/// decided prefix (one with a single worker); adoption installs a verified
/// tree with no further task. In whole-tree mode a round's `TreeResult`s
/// already are the verified outcomes — scoring fully optimizes the same
/// `base + move` text — so they are kept, and a verification of a scored
/// move dispatches nothing. Result Newick is parsed only where a tree is
/// needed — `set_base` and `adopt` — never per candidate.
pub struct ClusterExecutor<T: Transport> {
    transport: T,
    names: Vec<String>,
    phylip: String,
    config_json: String,
    /// The master's own evaluator, built on the first quarantined task: it
    /// is what the workers run, so a task evaluated here is byte-identical
    /// to what a healthy worker would have returned.
    local: Option<Evaluator>,
    base: Option<Tree>,
    next_task: u64,
    round: u64,
    has_monitor: bool,
    incremental: bool,
    /// Generation id of the current base broadcast (incremental mode).
    base_id: u64,
    /// Newick text of the current broadcast base (incremental mode): the
    /// single source of truth every rank parses, so node ids agree.
    base_text: Option<String>,
    /// The last whole-tree round's outcomes, by move: a verification of one
    /// of them would repeat its optimization bit for bit. Emptied whenever
    /// the base changes.
    scored: Vec<(TreeMove, Verified)>,
    /// Verification tasks kept sent beyond the decided prefix
    /// ([`verify_window`] of the universe's workers).
    window: usize,
}

impl<T: Transport> ClusterExecutor<T> {
    /// Create the executor over a universe whose workers, ranks
    /// [`ranks::FIRST_WORKER`]`..`, already hold the problem data
    /// ([`broadcast_problem`]): a (re)joining worker is sent it again.
    pub fn new(
        transport: T,
        names: Vec<String>,
        phylip: String,
        config_json: String,
        has_monitor: bool,
    ) -> ClusterExecutor<T> {
        let mut executor = ClusterExecutor {
            transport,
            names,
            phylip,
            config_json,
            local: None,
            base: None,
            next_task: 0,
            round: 0,
            has_monitor,
            incremental: false,
            base_id: 0,
            base_text: None,
            scored: Vec::new(),
            window: 1,
        };
        executor.window = verify_window(executor.workers());
        executor
    }

    /// Toggle incremental candidate evaluation: when on, `set_base`
    /// broadcasts the round's base topology and `score_round` dispatches
    /// chunks of compact edits instead of whole candidate trees.
    pub fn with_incremental(mut self, on: bool) -> ClusterExecutor<T> {
        self.incremental = on;
        self
    }

    /// Hand the universe back as it is, for its next search or its
    /// shutdown (`Shutdown` to the foreman, which cascades to workers and
    /// the monitor).
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// Evaluate a task the foreman gave up on, as a worker would have.
    fn evaluate_locally(&mut self, payload: TaskPayload) -> Result<Option<Reply>, PhyloError> {
        if self.local.is_none() {
            let local = Evaluator::for_problem(&self.phylip, &self.config_json)
                .map_err(|e| PhyloError::Format(e.to_string()))?;
            self.local = Some(local);
        }
        let local = self.local.as_mut().expect("just built");
        let reply = match payload {
            TaskPayload::Tree { newick } => local.tree_task(&newick).map(|done| {
                Reply::Tree(Verified {
                    newick: done.newick,
                    ln_likelihood: done.ln_likelihood,
                    work_units: done.work.work_units(),
                })
            }),
            TaskPayload::TreeEdit { base_id, .. } if base_id != self.base_id => {
                return Err(PhyloError::Format(format!(
                    "quarantined edit for stale base {base_id} (current {})",
                    self.base_id
                )))
            }
            TaskPayload::TreeEdit { base_id, edits } => local
                .edit_task(base_id, &edits, self.base_text.clone())
                .map(|done| Reply::Scores(done.scores)),
            TaskPayload::Jumble { .. } => return Ok(None),
        };
        let reply = reply.map_err(|e| PhyloError::Format(format!("quarantined task: {e}")))?;
        Ok(Some(reply))
    }

    /// Dispatch `n` tasks — `message(i, task_id)` builds the `i`-th — and
    /// block until all results return, in submission order.
    fn dispatch(
        &mut self,
        n: usize,
        mut message: impl FnMut(usize, u64) -> Message,
    ) -> Result<Vec<Reply>, PhyloError> {
        let mut index_of: HashMap<u64, usize> = HashMap::with_capacity(n);
        for i in 0..n {
            let task = self.next_task;
            self.next_task += 1;
            index_of.insert(task, i);
            self.transport
                .send(ranks::FOREMAN, &message(i, task))
                .map_err(transport_error)?;
        }
        self.collect_results(index_of, n)
    }

    /// Dispatch whole trees as Newick text.
    fn dispatch_trees(&mut self, newicks: Vec<String>) -> Result<Vec<Verified>, PhyloError> {
        let mut newicks = newicks.into_iter();
        let replies = self.dispatch(newicks.len(), |_, task| Message::TreeTask {
            task,
            newick: newicks.next().expect("one text per task"),
        })?;
        replies.into_iter().map(Reply::into_tree).collect()
    }

    /// Dispatch a round of compact edits against the current broadcast
    /// base, a chunk per task, and return one score per move, in move
    /// order.
    fn dispatch_edits(&mut self, moves: &[TreeMove]) -> Result<Vec<CandidateScore>, PhyloError> {
        let base_id = self.base_id;
        let chunks: Vec<&[TreeMove]> = moves
            .chunks(edit_chunk_len(moves.len(), self.workers()))
            .collect();
        let replies = self.dispatch(chunks.len(), |i, task| Message::EditChunk {
            task,
            base_id,
            edits: chunks[i].iter().map(move_to_edit).collect(),
            base_newick: None,
        })?;
        let mut scores = Vec::with_capacity(moves.len());
        for (chunk, reply) in chunks.iter().zip(replies) {
            match reply {
                Reply::Scores(answered) if answered.len() == chunk.len() => {
                    scores.extend(answered.iter().map(|s| CandidateScore {
                        ln_likelihood: s.ln_likelihood,
                        work_units: s.work_units,
                    }));
                }
                Reply::Scores(answered) => {
                    return Err(PhyloError::Format(format!(
                        "a chunk of {} edits was answered with {} scores",
                        chunk.len(),
                        answered.len()
                    )))
                }
                Reply::Tree(_) => {
                    return Err(PhyloError::Format(
                        "an edit chunk was answered with a whole tree".into(),
                    ))
                }
            }
        }
        Ok(scores)
    }

    /// The result loop behind [`Self::dispatch`].
    fn collect_results(
        &mut self,
        index_of: HashMap<u64, usize>,
        n: usize,
    ) -> Result<Vec<Reply>, PhyloError> {
        let mut results: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
        let mut received = 0usize;
        while received < n {
            let wanted = |task| index_of.get(&task).is_some_and(|&i| results[i].is_none());
            let Some((task, reply)) = self.receive(wanted)? else {
                continue;
            };
            let Some(&i) = index_of.get(&task) else {
                continue;
            };
            if results[i].is_none() {
                results[i] = Some(reply);
                received += 1;
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all received"))
            .collect())
    }

    /// Wait for the next message and return the task answer it carries,
    /// if any: a result, or a quarantined task — one the foreman gave up on
    /// — evaluated here if `wanted` says its answer is still awaited. An
    /// answer to a task nobody awaits (a late one, or one sent past a
    /// verification's improver) comes back too; the caller drops it by
    /// task id.
    fn receive(
        &mut self,
        wanted: impl Fn(u64) -> bool,
    ) -> Result<Option<(u64, Reply)>, PhyloError> {
        let (_, msg) = self.transport.recv().map_err(transport_error)?;
        Ok(match msg {
            Message::TreeResult {
                task,
                newick,
                ln_likelihood,
                work_units,
            } => Some((
                task,
                Reply::Tree(Verified {
                    newick,
                    ln_likelihood,
                    work_units,
                }),
            )),
            Message::EditScores { task, scores } => Some((task, Reply::Scores(scores))),
            // The foreman exhausted a task's failure budget across distinct
            // workers; the master evaluates it itself.
            Message::Quarantined { task, payload, .. } if wanted(task) => {
                self.evaluate_locally(payload)?.map(|reply| (task, reply))
            }
            Message::Quarantined { .. } => None,
            Message::Abort { reason } => {
                return Err(PhyloError::Format(format!("search aborted: {reason}")));
            }
            // Transport-synthesized liveness. A departed worker is the
            // foreman's problem; a (re)joined worker needs the problem data
            // before it can serve tasks.
            Message::PeerDown { .. } => None,
            Message::PeerUp { rank } => {
                let _ = self.transport.send(
                    rank,
                    &Message::ProblemData {
                        phylip: self.phylip.clone(),
                        config_json: self.config_json.clone(),
                    },
                );
                None
            }
            other => {
                debug_assert!(false, "master got unexpected {}", other.kind());
                None
            }
        })
    }

    /// Worker ranks in the universe (at least 1: the in-process loopback
    /// and worker-less test universes still evaluate).
    fn workers(&self) -> usize {
        self.transport
            .size()
            .saturating_sub(ranks::FIRST_WORKER)
            .max(1)
    }

    fn base(&self) -> Result<&Tree, ExecutorError> {
        self.base.as_ref().ok_or(ExecutorError::NoBase)
    }

    /// `base + mv` as the Newick text a whole-tree task carries.
    fn candidate_text(&self, mv: &TreeMove) -> Result<String, ExecutorError> {
        let mut cand = self.base()?.clone();
        apply_move(&mut cand, mv)?;
        Ok(newick::write_tree(&cand, &self.names))
    }

    /// The last whole-tree round's outcome for `mv`, if it scored it.
    fn kept(&self, mv: &TreeMove) -> Option<&Verified> {
        let (_, kept) = self.scored.iter().find(|(scored, _)| scored == mv)?;
        Some(kept)
    }

    /// Make an optimized tree, as the text its evaluator wrote, the base:
    /// the one place a result is parsed. In incremental mode the same text
    /// is broadcast, so the returned arena is identical (by the determinism
    /// of Newick parsing) to the one every worker builds, and the node ids
    /// inside the edits the driver enumerates on this tree are meaningful
    /// on every rank.
    fn install_base(&mut self, text: String) -> Result<Tree, PhyloError> {
        let tree = newick::parse_tree_with_names(&text, &self.names)?;
        // Writing is the inverse of parsing on text `write_tree` produced,
        // so the reply is broadcast as it came rather than re-written.
        debug_assert_eq!(newick::write_tree(&tree, &self.names), text);
        self.scored.clear();
        if self.incremental {
            self.base_id += 1;
            self.transport
                .send(
                    ranks::FOREMAN,
                    &Message::BaseTopology {
                        base_id: self.base_id,
                        newick: text.clone(),
                    },
                )
                .map_err(transport_error)?;
            self.base_text = Some(text);
        }
        self.base = Some(tree.clone());
        Ok(tree)
    }

    /// Tell the monitor a round finished. Candidates come back as scores,
    /// so the round's best tree is rebuilt here, once, as `base + best
    /// move` (the base's branch lengths, the move's default junction).
    fn announce_round(
        &mut self,
        moves: &[TreeMove],
        scores: &[CandidateScore],
    ) -> Result<(), ExecutorError> {
        self.round += 1;
        if !self.has_monitor {
            return Ok(());
        }
        let Some((best, score)) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.ln_likelihood.total_cmp(&b.1.ln_likelihood))
        else {
            return Ok(());
        };
        let event = MonitorEvent::RoundComplete {
            round: self.round,
            candidates: moves.len(),
            best_ln_likelihood: score.ln_likelihood,
            best_newick: self.candidate_text(&moves[best])?,
        };
        let _ = self
            .transport
            .send(ranks::MONITOR, &Message::Monitor(event));
        Ok(())
    }
}

impl<T: Transport> RoundExecutor for ClusterExecutor<T> {
    fn set_base(&mut self, tree: Tree) -> Result<BaseOutcome, ExecutorError> {
        let text = newick::write_tree(&tree, &self.names);
        let optimized = self.dispatch_trees(vec![text])?.pop().expect("one result");
        let work_units = optimized.work_units;
        let mut out = self.adopt(optimized)?;
        out.work_units = work_units;
        Ok(out)
    }

    fn score_round(&mut self, moves: &[TreeMove]) -> Result<Vec<CandidateScore>, ExecutorError> {
        self.base()?;
        let scores = if self.incremental {
            self.dispatch_edits(moves)?
        } else {
            let newicks = moves
                .iter()
                .map(|mv| self.candidate_text(mv))
                .collect::<Result<_, _>>()?;
            let verified = self.dispatch_trees(newicks)?;
            let scores = verified
                .iter()
                .map(|tree| CandidateScore {
                    ln_likelihood: tree.ln_likelihood,
                    work_units: tree.work_units,
                })
                .collect();
            self.scored = moves.iter().copied().zip(verified).collect();
            scores
        };
        self.announce_round(moves, &scores)?;
        Ok(scores)
    }

    /// Ranks are decided strictly in order. A move the last whole-tree
    /// round scored is answered from that round, at no work and with no
    /// task; the others stream through the window: at most `window` tasks
    /// sent beyond the decided prefix, each rank decided as not improving
    /// releasing one more. So a call whose first improver is rank `j` (of
    /// `n` moves, none kept) sends `min(n, j + window)` tasks whatever
    /// order the answers arrive in; answers behind the improver are
    /// dropped by task id when they arrive, and never charged.
    fn verify(&mut self, moves: &[TreeMove], bar: f64) -> Result<Vec<Verified>, ExecutorError> {
        let mut outcomes: Vec<Option<Verified>> = moves
            .iter()
            .map(|mv| {
                self.kept(mv).map(|kept| Verified {
                    work_units: 0,
                    ..kept.clone()
                })
            })
            .collect();
        let fresh: Vec<bool> = outcomes.iter().map(Option::is_none).collect();
        let mut index_of: HashMap<u64, usize> = HashMap::new();
        // Ranks below `decided` are decided; tasks are sent up to `next`,
        // `ahead` of them beyond the decided prefix.
        let (mut decided, mut next, mut ahead) = (0, 0, 0);
        while decided < moves.len() {
            // The released tasks are written first and sent as one burst,
            // which the foreman leases in one batch.
            let mut release = Vec::new();
            while ahead < self.window && next < moves.len() {
                if fresh[next] {
                    let task = self.next_task;
                    self.next_task += 1;
                    index_of.insert(task, next);
                    let newick = self.candidate_text(&moves[next])?;
                    release.push(Message::TreeTask { task, newick });
                    ahead += 1;
                }
                next += 1;
            }
            for task in &release {
                self.transport
                    .send(ranks::FOREMAN, task)
                    .map_err(transport_error)?;
            }
            if let Some(outcome) = &outcomes[decided] {
                let improves = outcome.ln_likelihood > bar;
                ahead -= usize::from(fresh[decided]);
                decided += 1;
                if improves {
                    break;
                }
                continue;
            }
            let wanted = |task| index_of.get(&task).is_some_and(|&i| outcomes[i].is_none());
            let Some((task, reply)) = self.receive(wanted)? else {
                continue;
            };
            if let Some(&i) = index_of.get(&task) {
                if outcomes[i].is_none() {
                    outcomes[i] = Some(reply.into_tree()?);
                }
            }
        }
        Ok(outcomes
            .into_iter()
            .take(decided)
            .map(|outcome| outcome.expect("a decided rank has its outcome"))
            .collect())
    }

    fn adopt(&mut self, verified: Verified) -> Result<BaseOutcome, ExecutorError> {
        Ok(BaseOutcome {
            tree: self.install_base(verified.newick)?,
            ln_likelihood: verified.ln_likelihood,
            work_units: 0,
        })
    }
}

#[cfg(test)]
impl ClusterExecutor<crate::loopback::Loopback> {
    /// The in-process executor of `config`'s search over `alignment`.
    pub(crate) fn in_process(
        alignment: &fdml_phylo::alignment::Alignment,
        config: &crate::config::SearchConfig,
    ) -> Self {
        ClusterExecutor::over(crate::loopback::Loopback::new(), alignment, config)
    }
}

#[cfg(test)]
impl<T: Transport> ClusterExecutor<T> {
    /// `config`'s search over `alignment`, its workers behind `transport`.
    pub(crate) fn over(
        transport: T,
        alignment: &fdml_phylo::alignment::Alignment,
        config: &crate::config::SearchConfig,
    ) -> Self {
        let (phylip, config_json) = (
            fdml_phylo::phylip::write(alignment),
            config.engine_config_json(),
        );
        let problem = Message::ProblemData {
            phylip: phylip.clone(),
            config_json: config_json.clone(),
        };
        broadcast_problem(&transport, &problem);
        let names = alignment.names().to_vec();
        ClusterExecutor::new(transport, names, phylip, config_json, false)
            .with_incremental(config.incremental)
    }

    /// The same executor with a verification window other than its
    /// universe's: what returns must not change.
    pub(crate) fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::search::argmax;
    use fdml_comm::threads::ThreadUniverse;
    use fdml_phylo::alignment::Alignment;
    use fdml_phylo::tree::Tree;
    use std::sync::Mutex;
    use std::thread;

    /// Tell the executor's foreman to shut its universe down.
    fn shut_down<T: Transport>(ex: ClusterExecutor<T>) {
        let _ = ex.into_transport().send(ranks::FOREMAN, &Message::Shutdown);
    }

    /// A scripted foreman: answers every TreeTask, but holds results back
    /// and replies in REVERSE arrival order with recognizable likelihoods.
    fn reverse_order_foreman(
        end: fdml_comm::threads::ThreadTransport,
        expect_tasks: usize,
    ) -> thread::JoinHandle<()> {
        thread::spawn(move || {
            let mut pending: Vec<(u64, String)> = Vec::new();
            let mut served = 0usize;
            while served < expect_tasks {
                let (_, msg) = end.recv().unwrap();
                match msg {
                    Message::TreeTask { task, newick } => {
                        pending.push((task, newick));
                        // Batch boundary heuristic for the test: reply once
                        // per message when a single task is outstanding
                        // (set_base), otherwise wait for the full round.
                        let batch = if served == 0 { 1 } else { expect_tasks - 1 };
                        if pending.len() == batch {
                            for (task, newick) in pending.drain(..).rev() {
                                end.send(
                                    ranks::MASTER,
                                    &Message::TreeResult {
                                        task,
                                        newick,
                                        // Encode the task id in the lnL so the
                                        // test can verify the mapping.
                                        ln_likelihood: -(task as f64) - 1.0,
                                        work_units: task + 1,
                                    },
                                )
                                .unwrap();
                                served += 1;
                            }
                        }
                    }
                    Message::Shutdown => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
        })
    }

    #[test]
    fn out_of_order_results_are_reordered_to_move_order() {
        let names: Vec<String> = (0..4).map(|i| format!("t{i}")).collect();
        let mut ends = ThreadUniverse::create(2);
        let foreman_end = ends.remove(1);
        let master_end = ends.remove(0);
        // 1 set_base task + 3 insertion candidates.
        let foreman = reverse_order_foreman(foreman_end, 4);
        let mut ex = ClusterExecutor::new(
            master_end,
            names,
            String::new(), // no workers to broadcast to in this 2-rank world
            String::new(),
            false,
        );
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        assert_eq!(base.ln_likelihood, -1.0); // task 0
        let moves = fdml_phylo::ops::enumerate_insertion_moves(&base.tree, 3);
        assert_eq!(moves.len(), 3);
        let scores = ex.score_round(&moves).unwrap();
        // Tasks 1, 2, 3 were answered in reverse order (3, 2, 1), but the
        // scores must land in submission order: lnL = -(task+1).
        let got: Vec<f64> = scores.iter().map(|s| s.ln_likelihood).collect();
        assert_eq!(got, vec![-2.0, -3.0, -4.0]);
        let works: Vec<u64> = scores.iter().map(|s| s.work_units).collect();
        assert_eq!(works, vec![2, 3, 4]);
        // Deterministic selection: argmax picks the first (task 1).
        assert_eq!(argmax(&scores), 0);
        shut_down(ex);
        foreman.join().unwrap();
    }

    #[test]
    fn chunk_replies_in_reverse_order_land_in_move_order() {
        use fdml_comm::message::TreeEdit;
        // Two workers: 15 moves travel as 8 chunks of at most two edits.
        let names: Vec<String> = (0..10).map(|i| format!("t{i}")).collect();
        let mut ends = ThreadUniverse::create(5);
        let foreman_end = ends.remove(1);
        // A foreman that holds the whole round back, then answers the
        // chunks last to first. An edit's score names the edit — its
        // target edge — not the task that happened to carry it.
        let foreman = thread::spawn(move || {
            let mut chunks: Vec<(u64, Vec<TreeEdit>)> = Vec::new();
            let mut frames = Vec::new();
            loop {
                let (_, msg) = foreman_end.recv().unwrap();
                match msg {
                    Message::TreeTask { task, newick } => foreman_end
                        .send(
                            ranks::MASTER,
                            &Message::TreeResult {
                                task,
                                newick,
                                ln_likelihood: -1.0,
                                work_units: 1,
                            },
                        )
                        .unwrap(),
                    Message::BaseTopology { .. } => {}
                    Message::EditChunk {
                        task,
                        base_id: 1,
                        edits,
                        base_newick: None,
                    } => {
                        frames.push(edits.len());
                        chunks.push((task, edits));
                        if frames.iter().sum::<usize>() < 15 {
                            continue;
                        }
                        for (task, edits) in chunks.drain(..).rev() {
                            let scores = edits
                                .iter()
                                .map(|edit| match *edit {
                                    TreeEdit::Insert { a, b, .. } => EditScore {
                                        ln_likelihood: -f64::from(100 * a + b),
                                        work_units: u64::from(a + b),
                                    },
                                    other => panic!("unexpected {other:?}"),
                                })
                                .collect();
                            foreman_end
                                .send(ranks::MASTER, &Message::EditScores { task, scores })
                                .unwrap();
                        }
                    }
                    Message::Shutdown => return frames,
                    other => panic!("unexpected {other:?}"),
                }
            }
        });
        let mut ex = ClusterExecutor::new(
            ends.remove(0),
            names.clone(),
            String::new(),
            String::new(),
            false,
        )
        .with_incremental(true);
        assert_eq!(ex.window, 3, "two workers and a spare");
        let text = "(t0:1,t1:1,(t2:1,(t3:1,(t4:1,(t5:1,(t6:1,(t7:1,t8:1):1):1):1):1):1):1);";
        let base = ex
            .set_base(newick::parse_tree_with_names(text, &names).unwrap())
            .unwrap();
        let moves = fdml_phylo::ops::enumerate_insertion_moves(&base.tree, 9);
        assert_eq!(moves.len(), 15);
        let scores = ex.score_round(&moves).unwrap();
        for (mv, score) in moves.iter().zip(&scores) {
            let TreeMove::Insertion { at, .. } = *mv else {
                panic!("unexpected {mv:?}")
            };
            assert_eq!(score.ln_likelihood, -f64::from(100 * at.0 .0 + at.1 .0));
            assert_eq!(score.work_units, u64::from(at.0 .0 + at.1 .0));
        }
        shut_down(ex);
        assert_eq!(foreman.join().unwrap(), [2, 2, 2, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn edit_chunk_len_cuts_a_round_into_four_chunks_per_worker() {
        // One move, and fewer moves than workers: a chunk is never empty.
        assert_eq!(edit_chunk_len(1, 2), 1);
        assert_eq!(edit_chunk_len(3, 8), 1);
        assert_eq!(edit_chunk_len(0, 2), 1);
        // Exact multiples of 4 x workers, and one past them.
        assert_eq!(edit_chunk_len(8, 2), 1);
        assert_eq!(edit_chunk_len(9, 2), 2);
        assert_eq!(edit_chunk_len(16, 2), 2);
        assert_eq!(edit_chunk_len(17, 2), 3);
        // The benchmark's 101-taxon round on two workers: 8 task frames.
        assert_eq!(edit_chunk_len(195, 2), 25);
        assert_eq!(195usize.div_ceil(edit_chunk_len(195, 2)), 8);
        // In process (one worker) a round is four chunks.
        assert_eq!(edit_chunk_len(195, 1), 49);
        // The paper's wide fleets: one edit per task again.
        assert_eq!(edit_chunk_len(195, 64), 1);
        assert_eq!(edit_chunk_len(256, 64), 1);
        assert_eq!(edit_chunk_len(257, 64), 2);
        // A universe with no worker rank still chunks.
        assert_eq!(edit_chunk_len(5, 0), 2);
    }

    fn problem() -> (Alignment, String, String) {
        let a = Alignment::from_strings(&[
            ("t0", "ACGTACGTACGTACGTACGT"),
            ("t1", "ACGTACGTACTTACGTACGA"),
            ("t2", "ACGAACGTACGTACGGAGGT"),
            ("t3", "TCGAACGGACGTACGGAGGA"),
        ])
        .unwrap();
        let config = SearchConfig::default();
        (
            a.clone(),
            fdml_phylo::phylip::write(&a),
            config.engine_config_json(),
        )
    }

    #[test]
    fn quarantined_task_is_evaluated_locally_and_matches_a_worker() {
        let (alignment, phylip_text, config_json) = problem();
        let names: Vec<String> = alignment.names().to_vec();
        let mut ends = ThreadUniverse::create(2);
        let foreman_end = ends.remove(1);
        let master_end = ends.remove(0);
        // A foreman that gives up on every task: each TreeTask bounces
        // straight back as Quarantined, forcing the local-eval path.
        let foreman = thread::spawn(move || loop {
            let (_, msg) = foreman_end.recv().unwrap();
            match msg {
                Message::TreeTask { task, newick } => {
                    foreman_end
                        .send(
                            ranks::MASTER,
                            &Message::Quarantined {
                                task,
                                failures: 3,
                                payload: TaskPayload::Tree { newick },
                            },
                        )
                        .unwrap();
                }
                Message::Shutdown => break,
                other => panic!("unexpected {other:?}"),
            }
        });
        let mut ex = ClusterExecutor::new(
            master_end,
            names,
            phylip_text.clone(),
            config_json.clone(),
            false,
        );
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        assert!(base.ln_likelihood.is_finite() && base.ln_likelihood < 0.0);
        shut_down(ex);
        foreman.join().unwrap();

        // Byte-identical to what a healthy worker (same engine, same
        // optimizer) computes for the same tree.
        let config = SearchConfig::from_engine_config_json(&config_json).unwrap();
        let engine = config.build_engine(&alignment);
        let mut tree = Tree::triplet(0, 1, 2);
        let r = engine.optimize(&mut tree, &config.optimize);
        assert_eq!(base.ln_likelihood.to_bits(), r.ln_likelihood.to_bits());
        assert_eq!(base.work_units, r.work.work_units());
    }

    #[test]
    fn quarantined_chunk_is_scored_locally_and_matches_a_worker() {
        use fdml_phylo::ops::enumerate_insertion_moves;
        let (alignment, phylip_text, config_json) = problem();
        let names: Vec<String> = alignment.names().to_vec();
        let mut ends = ThreadUniverse::create(2);
        let foreman_end = ends.remove(1);
        let master_end = ends.remove(0);
        // A foreman with one healthy worker behind it — an `Evaluator`, as
        // in every worker — that serves whole trees but gives up on every
        // edit, after noting what the worker would have answered.
        let mut healthy = Evaluator::for_problem(&phylip_text, &config_json).unwrap();
        let foreman = thread::spawn(move || {
            let mut expected: Vec<(u64, u64)> = Vec::new();
            let mut chunk_lens: Vec<usize> = Vec::new();
            loop {
                let (_, msg) = foreman_end.recv().unwrap();
                let reply = match msg {
                    Message::TreeTask { task, newick } => {
                        healthy.tree_task(&newick).unwrap().reply(task)
                    }
                    Message::BaseTopology { base_id, newick } => {
                        healthy.set_base(base_id, newick);
                        continue;
                    }
                    Message::EditChunk {
                        task,
                        base_id,
                        edits,
                        ..
                    } => {
                        let done = healthy.edit_task(base_id, &edits, None).unwrap();
                        expected.extend(
                            done.scores
                                .iter()
                                .map(|s| (s.ln_likelihood.to_bits(), s.work_units)),
                        );
                        chunk_lens.push(edits.len());
                        Message::Quarantined {
                            task,
                            failures: 3,
                            payload: TaskPayload::TreeEdit { base_id, edits },
                        }
                    }
                    Message::Shutdown => return (expected, chunk_lens),
                    other => panic!("unexpected {other:?}"),
                };
                foreman_end.send(ranks::MASTER, &reply).unwrap();
            }
        });
        let mut ex = ClusterExecutor::new(master_end, names, phylip_text, config_json, false)
            .with_incremental(true);
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        // Three moves, then (the same edges again) six: in this 2-rank
        // world of one notional worker the second round's chunks hold two
        // edits each, so a quarantined chunk of several edits is scored
        // here too.
        let mut moves = enumerate_insertion_moves(&base.tree, 3);
        let mut got: Vec<(u64, u64)> = Vec::new();
        for _ in 0..2 {
            let scores = ex.score_round(&moves).unwrap();
            got.extend(
                scores
                    .iter()
                    .map(|s| (s.ln_likelihood.to_bits(), s.work_units)),
            );
            moves.extend(moves.clone());
        }
        shut_down(ex);
        assert_eq!(got.len(), 9);
        let (expected, chunk_lens) = foreman.join().unwrap();
        assert_eq!(got, expected, "local scores == the worker's, bit for bit");
        assert_eq!(chunk_lens, [1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn foreman_abort_surfaces_as_typed_error() {
        let names: Vec<String> = (0..3).map(|i| format!("t{i}")).collect();
        let mut ends = ThreadUniverse::create(2);
        let foreman_end = ends.remove(1);
        let master_end = ends.remove(0);
        let foreman = thread::spawn(move || {
            let (_, msg) = foreman_end.recv().unwrap();
            assert!(matches!(msg, Message::TreeTask { .. }));
            foreman_end
                .send(
                    ranks::MASTER,
                    &Message::Abort {
                        reason: "all 3 workers dead".into(),
                    },
                )
                .unwrap();
            // Absorb the shutdown that follows the error.
            let (_, msg) = foreman_end.recv().unwrap();
            assert_eq!(msg, Message::Shutdown);
        });
        let mut ex = ClusterExecutor::new(master_end, names, String::new(), String::new(), false);
        let err = ex.set_base(Tree::triplet(0, 1, 2)).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("aborted"), "got: {text}");
        assert!(text.contains("workers dead"), "got: {text}");
        shut_down(ex);
        foreman.join().unwrap();
    }

    #[test]
    fn verify_streams_through_the_window_and_adopt_is_one_broadcast() {
        use fdml_phylo::ops::enumerate_insertion_moves;
        let (alignment, phylip_text, config_json) = problem();
        let names: Vec<String> = alignment.names().to_vec();
        let config = SearchConfig::from_engine_config_json(&config_json).unwrap();
        let engine = config.build_engine(&alignment);
        let mut ends = ThreadUniverse::create(2);
        let foreman_end = ends.remove(1);
        let master_end = ends.remove(0);

        // A scripted foreman with a real engine behind it. It answers a
        // lone task at once; the three verification tasks — a window of
        // three has them all in flight — it holds until complete, then
        // answers in reverse order, bouncing the middle task back as
        // quarantined. Everything it is sent goes into the returned log.
        let (worker_alignment, worker_config) = (alignment.clone(), config.clone());
        let foreman = thread::spawn(move || {
            let config = worker_config;
            let names = worker_alignment.names().to_vec();
            let engine = config.build_engine(&worker_alignment);
            let answer = |task: u64, text: &str| {
                let mut tree = newick::parse_tree(text, &worker_alignment).unwrap();
                let r = engine.optimize(&mut tree, &config.optimize);
                Message::TreeResult {
                    task,
                    newick: newick::write_tree(&tree, &names),
                    ln_likelihood: r.ln_likelihood,
                    work_units: r.work.work_units(),
                }
            };
            let mut log: Vec<Message> = Vec::new();
            let mut wave: Vec<(u64, String)> = Vec::new();
            loop {
                let (_, msg) = foreman_end.recv().unwrap();
                log.push(msg.clone());
                match msg {
                    Message::TreeTask { task: 0, newick } => {
                        foreman_end
                            .send(ranks::MASTER, &answer(0, &newick))
                            .unwrap();
                    }
                    Message::TreeTask { task, newick } => {
                        wave.push((task, newick));
                        if wave.len() == 3 {
                            for (i, (task, text)) in wave.drain(..).enumerate().rev() {
                                let reply = if i == 1 {
                                    Message::Quarantined {
                                        task,
                                        failures: 3,
                                        payload: TaskPayload::Tree { newick: text },
                                    }
                                } else {
                                    answer(task, &text)
                                };
                                foreman_end.send(ranks::MASTER, &reply).unwrap();
                            }
                        }
                    }
                    Message::BaseTopology { .. } => {}
                    Message::Shutdown => return log,
                    other => panic!("unexpected {other:?}"),
                }
            }
        });

        let ex = ClusterExecutor::new(master_end, names.clone(), phylip_text, config_json, false)
            .with_incremental(true);
        assert_eq!(
            ex.window, 1,
            "a universe with no worker rank still verifies"
        );
        let mut ex = ex.with_window(3);
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        let moves = enumerate_insertion_moves(&base.tree, 3);
        let verified = ex.verify(&moves, f64::INFINITY).unwrap();

        // Outcomes arrive in move order whatever the reply order, and each
        // is what a worker — or, for the quarantined one, the master's own
        // engine — computes from `base + move`: bit for bit.
        assert_eq!(verified.len(), 3);
        for (mv, got) in moves.iter().zip(&verified) {
            let mut cand = base.tree.clone();
            apply_move(&mut cand, mv).unwrap();
            let text = newick::write_tree(&cand, &names);
            let mut expect = newick::parse_tree(&text, &alignment).unwrap();
            let r = engine.optimize(&mut expect, &config.optimize);
            assert_eq!(got.ln_likelihood.to_bits(), r.ln_likelihood.to_bits());
            assert_eq!(got.work_units, r.work.work_units());
            assert_eq!(got.newick, newick::write_tree(&expect, &names));
        }

        let best = verified
            .into_iter()
            .max_by(|a, b| a.ln_likelihood.total_cmp(&b.ln_likelihood))
            .unwrap();
        let best_text = best.newick.clone();
        let adopted = ex.adopt(best).unwrap();
        assert_eq!(adopted.work_units, 0);
        assert_eq!(newick::write_tree(&adopted.tree, &names), best_text);
        shut_down(ex);

        // On the wire: set_base is a task plus a broadcast, verification is
        // three tasks and nothing else (the base is untouched), adoption is
        // one broadcast of the verified tree and no task at all.
        use fdml_comm::message::MessageKind::{BaseTopology, Shutdown, TreeTask};
        let kinds: Vec<_> = foreman.join().unwrap().iter().map(Message::kind).collect();
        assert_eq!(
            kinds,
            [
                TreeTask,
                BaseTopology,
                TreeTask,
                TreeTask,
                TreeTask,
                BaseTopology,
                Shutdown
            ]
        );
    }

    /// A worker endpoint that dies — every later call fails, as when the
    /// process is killed — on the first whole-tree task it receives once
    /// `armed` is set, and counts its `WorkerReady` in `announced`.
    struct DiesOnTreeTask {
        inner: fdml_comm::threads::ThreadTransport,
        armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
        dead: std::sync::atomic::AtomicBool,
        announced: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Transport for DiesOnTreeTask {
        fn rank(&self) -> usize {
            self.inner.rank()
        }

        fn size(&self) -> usize {
            self.inner.size()
        }

        fn send(&self, to: usize, msg: &Message) -> Result<(), fdml_comm::transport::CommError> {
            use std::sync::atomic::Ordering;
            if self.dead.load(Ordering::SeqCst) {
                return Err(fdml_comm::transport::CommError::Disconnected(self.rank()));
            }
            self.inner.send(to, msg)?;
            if matches!(msg, Message::WorkerReady) {
                self.announced.fetch_add(1, Ordering::SeqCst);
            }
            Ok(())
        }

        fn recv_timeout(
            &self,
            timeout: std::time::Duration,
        ) -> Result<Option<(usize, Message)>, fdml_comm::transport::CommError> {
            use std::sync::atomic::Ordering;
            let got = self.inner.recv_timeout(timeout)?;
            if matches!(got, Some((_, Message::TreeTask { .. })))
                && self.armed.load(Ordering::SeqCst)
            {
                self.dead.store(true, Ordering::SeqCst);
            }
            if self.dead.load(Ordering::SeqCst) {
                return Err(fdml_comm::transport::CommError::Disconnected(self.rank()));
            }
            Ok(got)
        }
    }

    #[test]
    fn worker_killed_mid_verification_changes_no_outcome() {
        use crate::foreman::run_scheduler;
        use crate::sched::{tick_of, Sched};
        use crate::worker::run_worker;
        use fdml_obs::Obs;
        use fdml_phylo::ops::enumerate_insertion_moves;
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::time::Duration;

        let (alignment, phylip_text, config_json) = problem();
        let names: Vec<String> = alignment.names().to_vec();
        // Ranks: master, foreman, (no monitor), three workers — rank 3 is
        // the one that dies.
        let mut ends = ThreadUniverse::create(6);
        let armed = Arc::new(AtomicBool::new(false));
        let announced = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::new();
        for rank in (3..6).rev() {
            let end = DiesOnTreeTask {
                inner: ends.remove(rank),
                armed: match rank {
                    3 => Arc::clone(&armed),
                    _ => Arc::default(),
                },
                dead: AtomicBool::new(false),
                announced: Arc::clone(&announced),
            };
            workers.push(thread::spawn(move || {
                run_worker(end, Obs::disabled()).is_err()
            }));
        }
        let foreman_end = ends.remove(1);
        let foreman = thread::spawn(move || {
            let timeout = Duration::from_millis(100);
            let machine = Sched::flat(foreman_end.size(), timeout, false);
            run_scheduler(foreman_end, machine, tick_of(timeout), Obs::disabled()).unwrap()
        });
        let master_end = ends.remove(0);
        let problem = Message::ProblemData {
            phylip: phylip_text.clone(),
            config_json: config_json.clone(),
        };
        broadcast_problem(&master_end, &problem);
        let mut ex =
            ClusterExecutor::new(master_end, names.clone(), phylip_text, config_json, false)
                .with_incremental(true);
        assert_eq!(ex.window, 4, "three workers and a spare");
        // Every worker, having its problem data, is in the foreman's inbox
        // ahead of the first task, however late its thread started.
        while announced.load(Ordering::SeqCst) < 3 {
            thread::yield_now();
        }
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        let moves = enumerate_insertion_moves(&base.tree, 3);
        // A scoring round first, so every worker has answered and waits in
        // the foreman's ready queue: the window of four then sends all three
        // tasks at once, and they reach all three workers, the doomed one
        // included.
        let scores = ex.score_round(&moves).unwrap();
        assert_eq!(scores.len(), 3);
        let healthy = ex.verify(&moves, f64::INFINITY).unwrap();
        armed.store(true, Ordering::SeqCst);
        let wounded = ex.verify(&moves, f64::INFINITY).unwrap();
        for (h, w) in healthy.iter().zip(&wounded) {
            assert_eq!(h.ln_likelihood.to_bits(), w.ln_likelihood.to_bits());
            assert_eq!(h.work_units, w.work_units);
            assert_eq!(h.newick, w.newick);
        }
        shut_down(ex);
        let stats = foreman.join().unwrap();
        assert!(
            stats.timeouts >= 1,
            "the dead worker's task must be requeued"
        );
        let died: Vec<bool> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(died, [false, false, true], "exactly the doomed worker died");
    }

    /// A foreman and two workers, scripted in process. Whole-tree tasks
    /// wait until the master blocks in `recv`; `script` then picks which
    /// waiting task is answered next (the oldest once it runs out), so a
    /// test can walk every answer order. A task is answered with its own
    /// text, lnL 0 if that text is candidate `improver`, `-(10 + rank)` for
    /// any other candidate and -100 for anything else (the base), one work
    /// unit. The tasks listed in `quarantine` come back quarantined.
    #[derive(Default)]
    struct Scripted {
        candidates: Vec<String>,
        improver: Option<usize>,
        waiting: Mutex<Vec<(u64, String)>>,
        sent: Mutex<usize>,
        script: Mutex<std::collections::VecDeque<usize>>,
        /// Per answer: the pick made and how many tasks it chose among.
        picks: Mutex<Vec<(usize, usize)>>,
        quarantine: Mutex<Vec<u64>>,
    }

    /// The value behind a test's lock.
    fn at<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        lock.lock().unwrap()
    }

    impl Transport for Scripted {
        fn rank(&self) -> usize {
            ranks::MASTER
        }

        fn size(&self) -> usize {
            ranks::FIRST_WORKER + 2
        }

        fn send(&self, _to: usize, msg: &Message) -> Result<(), fdml_comm::transport::CommError> {
            if let Message::TreeTask { task, newick } = msg {
                *at(&self.sent) += 1;
                at(&self.waiting).push((*task, newick.clone()));
            }
            Ok(())
        }

        fn recv_timeout(
            &self,
            _timeout: std::time::Duration,
        ) -> Result<Option<(usize, Message)>, fdml_comm::transport::CommError> {
            let mut waiting = at(&self.waiting);
            if waiting.is_empty() {
                return Ok(None);
            }
            let pick = at(&self.script).pop_front().unwrap_or(0);
            at(&self.picks).push((pick, waiting.len()));
            let (task, newick) = waiting.remove(pick);
            if at(&self.quarantine).contains(&task) {
                let payload = TaskPayload::Tree { newick };
                let failures = 3;
                let msg = Message::Quarantined {
                    task,
                    failures,
                    payload,
                };
                return Ok(Some((ranks::FOREMAN, msg)));
            }
            let rank = self.candidates.iter().position(|c| *c == newick);
            let ln_likelihood = match rank {
                Some(r) if Some(r) == self.improver => 0.0,
                Some(r) => -(10.0 + r as f64),
                None => -100.0,
            };
            let reply = Message::TreeResult {
                task,
                newick,
                ln_likelihood,
                work_units: 1,
            };
            Ok(Some((ranks::FOREMAN, reply)))
        }

        fn recv(&self) -> Result<(usize, Message), fdml_comm::transport::CommError> {
            self.try_recv()?
                .ok_or(fdml_comm::transport::CommError::Disconnected(
                    ranks::FOREMAN,
                ))
        }
    }

    const BASE: &str = "(t0:1,t1:1,(t2:1,(t3:1,t4:1):1):1);";

    /// The executor over a [`Scripted`] fleet, its base installed, and the
    /// seven insertions of `t5` into it. With no problem data, a task the
    /// master had to evaluate itself would fail the call.
    fn scripted(
        improver: Option<usize>,
        script: &[usize],
    ) -> (ClusterExecutor<Scripted>, Vec<TreeMove>) {
        let names: Vec<String> = (0..6).map(|i| format!("t{i}")).collect();
        let base = newick::parse_tree_with_names(BASE, &names).unwrap();
        let moves = fdml_phylo::ops::enumerate_insertion_moves(&base, 5);
        let candidates = moves
            .iter()
            .map(|mv| {
                let mut cand = base.clone();
                apply_move(&mut cand, mv).unwrap();
                newick::write_tree(&cand, &names)
            })
            .collect();
        let transport = Scripted {
            candidates,
            improver,
            ..Scripted::default()
        };
        let mut ex = ClusterExecutor::new(transport, names, String::new(), String::new(), false);
        assert_eq!(ex.window, 3, "two workers and a spare");
        ex.set_base(base).unwrap();
        *at(&ex.transport.sent) = 0;
        at(&ex.transport.picks).clear();
        at(&ex.transport.script).extend(script);
        (ex, moves)
    }

    /// Check one verification's outcomes against the scripted answers:
    /// ranks `0..=j` (all of them without an improver), in rank order.
    fn assert_prefix(got: &[Verified], ex: &ClusterExecutor<Scripted>, n: usize) {
        let last = ex.transport.improver.unwrap_or(n - 1);
        assert_eq!(got.len(), last + 1);
        for (rank, outcome) in got.iter().enumerate() {
            assert_eq!(outcome.newick, ex.transport.candidates[rank]);
            let lnl = if Some(rank) == ex.transport.improver {
                0.0
            } else {
                -(10.0 + rank as f64)
            };
            assert_eq!(outcome.ln_likelihood, lnl);
            assert_eq!(outcome.work_units, 1);
        }
    }

    #[test]
    fn the_window_sends_the_same_tasks_in_every_answer_order() {
        const BAR: f64 = -1.0;
        for improver in [Some(0), Some(1), Some(3), Some(5), Some(6), None] {
            let (_, moves) = scripted(improver, &[]);
            let n = moves.len();
            assert_eq!(n, 7);
            let expect = improver.map_or(n, |j| n.min(j + 3));
            // Walk every sequence of picks: each run follows a script, then
            // the oldest; every choice it met unscripted is a new script.
            let mut scripts: Vec<Vec<usize>> = vec![Vec::new()];
            let mut orders = 0;
            while let Some(script) = scripts.pop() {
                let (mut ex, _) = scripted(improver, &script);
                let got = ex.verify(&moves, BAR).unwrap();
                assert_prefix(&got, &ex, n);
                assert_eq!(
                    *at(&ex.transport.sent),
                    expect,
                    "improver {improver:?} picks {:?}",
                    at(&ex.transport.picks)
                );
                let picks = at(&ex.transport.picks);
                for (step, &(_, choices)) in picks.iter().enumerate().skip(script.len()) {
                    for other in 1..choices {
                        let mut next: Vec<usize> = picks[..step].iter().map(|p| p.0).collect();
                        next.push(other);
                        scripts.push(next);
                    }
                }
                orders += 1;
            }
            // The window holds three tasks, so orders branch.
            assert!(orders > 1, "improver {improver:?}: one answer order");
        }
    }

    #[test]
    fn answers_behind_the_improver_are_dropped_by_the_next_call() {
        let (mut ex, moves) = scripted(Some(1), &[]);
        let got = ex.verify(&moves, -1.0).unwrap();
        assert_prefix(&got, &ex, moves.len());
        // Ranks 2 and 3 were sent past the improver and are still out.
        assert_eq!(*at(&ex.transport.sent), 4);
        assert_eq!(at(&ex.transport.waiting).len(), 2);

        // They arrive first, during the next dispatch: a result and a
        // quarantined task. Neither is taken for one of its answers, and the
        // quarantined one is not evaluated here (it would fail the call: the
        // master holds no problem data).
        let stale: Vec<u64> = at(&ex.transport.waiting).iter().map(|w| w.0).collect();
        at(&ex.transport.quarantine).push(stale[1]);
        at(&ex.transport.picks).clear();
        let scores = ex.score_round(&moves[4..]).unwrap();
        assert_eq!(at(&ex.transport.picks).len(), 5, "2 stale answers, 3 fresh");
        let lnls: Vec<f64> = scores.iter().map(|s| s.ln_likelihood).collect();
        assert_eq!(lnls, [-14.0, -15.0, -16.0]);
        assert!(scores.iter().all(|s| s.work_units == 1));
        assert!(at(&ex.transport.waiting).is_empty());
    }
}
