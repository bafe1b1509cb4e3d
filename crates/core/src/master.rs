//! The master process (paper §2.2): "generates and compares trees. It
//! generates new tree topologies and sends these trees to the foreman."
//!
//! [`ClusterExecutor`] is the master's side of the protocol, implementing
//! [`RoundExecutor`] so the identical search driver runs serially or over
//! a transport (the paper's point about the algorithm being independent of
//! the message-passing layer).

use crate::edits::move_to_edit;
use crate::executor::{BaseOutcome, CandidateScore, ExecutorError, RoundExecutor};
use crate::worker::{ranks, Evaluator};
use fdml_comm::message::{Message, MonitorEvent, TaskPayload};
use fdml_comm::transport::Transport;
use fdml_phylo::error::PhyloError;
use fdml_phylo::newick;
use fdml_phylo::ops::{apply_move, TreeMove};
use fdml_phylo::tree::Tree;
use std::collections::HashMap;

/// One task's answer as it arrived: result Newick (empty for a score-only
/// edit result), log-likelihood, work units.
type Reply = (String, f64, u64);

/// Master-side executor: each candidate becomes a `TreeTask` dispatched via
/// the foreman; workers do the full per-tree optimization. With
/// [`ClusterExecutor::with_incremental`] enabled, candidates instead travel
/// as compact `TreeEditTask`s against the adopted base's `BaseTopology`
/// broadcast and workers score them through their CLV caches, answering
/// with the score alone.
///
/// Verification ([`RoundExecutor::verify`]) is a wave of ordinary parallel
/// `TreeTask`s, one per move, as wide as the fleet; adoption installs a
/// verified tree with no further task. Result Newick is parsed only where
/// a tree is needed — `set_base` and `verify` — never per candidate.
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
    /// First worker rank: [`ranks::FIRST_WORKER`] in the flat topology,
    /// higher when regional foremen sit between rank 2 and the fleet.
    first_worker: usize,
}

impl<T: Transport> ClusterExecutor<T> {
    /// Create the executor and broadcast the problem data to the workers,
    /// ranks `first_worker..`: [`ranks::FIRST_WORKER`] in the flat
    /// topology, higher when regional foremen (which must not receive
    /// worker problem data) sit between rank 2 and the fleet.
    pub fn new(
        transport: T,
        names: Vec<String>,
        phylip: String,
        config_json: String,
        has_monitor: bool,
        first_worker: usize,
    ) -> ClusterExecutor<T> {
        for rank in first_worker..transport.size() {
            // A worker that died before the broadcast is the foreman's
            // problem (eager requeue / all-dead abort), not a panic here.
            let _ = transport.send(
                rank,
                &Message::ProblemData {
                    phylip: phylip.clone(),
                    config_json: config_json.clone(),
                },
            );
        }
        ClusterExecutor {
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
            first_worker,
        }
    }

    /// Toggle incremental candidate evaluation: when on, `set_base`
    /// broadcasts the round's base topology and `score_round` dispatches
    /// compact edits instead of whole candidate trees.
    pub fn with_incremental(mut self, on: bool) -> ClusterExecutor<T> {
        self.incremental = on;
        self
    }

    /// Orderly shutdown: tell the foreman, which cascades to workers and
    /// the monitor.
    pub fn shutdown(self) -> T {
        let _ = self.transport.send(ranks::FOREMAN, &Message::Shutdown);
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
        let done = match payload {
            TaskPayload::Tree { newick } => local.tree_task(&newick),
            TaskPayload::TreeEdit { base_id, .. } if base_id != self.base_id => {
                return Err(PhyloError::Format(format!(
                    "quarantined edit for stale base {base_id} (current {})",
                    self.base_id
                )))
            }
            TaskPayload::TreeEdit { base_id, edit } => {
                local.edit_task(base_id, &edit, self.base_text.clone())
            }
            TaskPayload::Jumble { .. } => return Ok(None),
        };
        let done = done.map_err(|e| PhyloError::Format(format!("quarantined task: {e}")))?;
        Ok(Some((
            done.newick,
            done.ln_likelihood,
            done.work.work_units(),
        )))
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
                .map_err(|e| PhyloError::Format(format!("transport: {e}")))?;
        }
        self.collect_results(index_of, n)
    }

    /// Dispatch whole trees as Newick text.
    fn dispatch_batch(&mut self, newicks: Vec<String>) -> Result<Vec<Reply>, PhyloError> {
        let mut newicks = newicks.into_iter();
        self.dispatch(newicks.len(), |_, task| Message::TreeTask {
            task,
            newick: newicks.next().expect("one text per task"),
        })
    }

    /// Dispatch a round of compact edits against the current broadcast
    /// base.
    fn dispatch_edits(&mut self, moves: &[TreeMove]) -> Result<Vec<Reply>, PhyloError> {
        let base_id = self.base_id;
        self.dispatch(moves.len(), |i, task| Message::TreeEditTask {
            task,
            base_id,
            edit: move_to_edit(&moves[i]),
            base_newick: None,
        })
    }

    /// The result loop behind [`Self::dispatch`]. Result text is kept as
    /// received: only the callers that need a tree parse it.
    fn collect_results(
        &mut self,
        index_of: HashMap<u64, usize>,
        n: usize,
    ) -> Result<Vec<Reply>, PhyloError> {
        let mut results: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
        let mut received = 0usize;
        while received < n {
            let (_, msg) = self
                .transport
                .recv()
                .map_err(|e| PhyloError::Format(format!("transport: {e}")))?;
            match msg {
                Message::TreeResult {
                    task,
                    newick: text,
                    ln_likelihood,
                    work_units,
                } => {
                    let Some(&i) = index_of.get(&task) else {
                        continue;
                    };
                    if results[i].is_none() {
                        results[i] = Some((text, ln_likelihood, work_units));
                        received += 1;
                    }
                }
                Message::Quarantined { task, payload, .. } => {
                    // The foreman exhausted a task's failure budget across
                    // distinct workers; the master evaluates it itself.
                    let Some(&i) = index_of.get(&task) else {
                        continue;
                    };
                    if results[i].is_some() {
                        continue;
                    }
                    let Some(reply) = self.evaluate_locally(payload)? else {
                        continue;
                    };
                    results[i] = Some(reply);
                    received += 1;
                }
                Message::Abort { reason } => {
                    return Err(PhyloError::Format(format!("search aborted: {reason}")));
                }
                // Transport-synthesized liveness. A departed worker is the
                // foreman's problem; a (re)joined worker needs the problem
                // data before it can serve tasks.
                Message::PeerDown { .. } => {}
                Message::PeerUp { rank } => {
                    // Only workers hold problem data; a rejoining regional
                    // foreman must not be mistaken for one.
                    if rank >= self.first_worker {
                        let _ = self.transport.send(
                            rank,
                            &Message::ProblemData {
                                phylip: self.phylip.clone(),
                                config_json: self.config_json.clone(),
                            },
                        );
                    }
                }
                other => {
                    debug_assert!(false, "master got unexpected {}", other.kind());
                }
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all received"))
            .collect())
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

    /// A whole-tree result as a tree in the master's taxon numbering.
    fn outcome(&self, (text, lnl, work): Reply) -> Result<BaseOutcome, PhyloError> {
        Ok(BaseOutcome {
            tree: newick::parse_tree_with_names(&text, &self.names)?,
            ln_likelihood: lnl,
            work_units: work,
        })
    }

    /// Make an optimized tree the base. In incremental mode, broadcast it
    /// and re-parse the broadcast text ourselves: the returned arena is
    /// then identical (by the determinism of Newick parsing) to the one
    /// every worker builds, so the node ids inside the edits the driver
    /// enumerates on this tree are meaningful on every rank.
    fn install_base(&mut self, mut tree: Tree) -> Result<Tree, PhyloError> {
        if self.incremental {
            let text = newick::write_tree(&tree, &self.names);
            self.base_id += 1;
            self.transport
                .send(
                    ranks::FOREMAN,
                    &Message::BaseTopology {
                        base_id: self.base_id,
                        newick: text.clone(),
                    },
                )
                .map_err(|e| PhyloError::Format(format!("transport: {e}")))?;
            tree = newick::parse_tree_with_names(&text, &self.names)?;
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
        replies: &[Reply],
    ) -> Result<(), ExecutorError> {
        self.round += 1;
        if !self.has_monitor {
            return Ok(());
        }
        let Some((best, (_, lnl, _))) = replies
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        else {
            return Ok(());
        };
        let event = MonitorEvent::RoundComplete {
            round: self.round,
            candidates: moves.len(),
            best_ln_likelihood: *lnl,
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
        let reply = self.dispatch_batch(vec![text])?.pop().expect("one result");
        let mut out = self.outcome(reply)?;
        out.tree = self.install_base(out.tree)?;
        Ok(out)
    }

    fn score_round(&mut self, moves: &[TreeMove]) -> Result<Vec<CandidateScore>, ExecutorError> {
        self.base()?;
        let replies = if self.incremental {
            self.dispatch_edits(moves)?
        } else {
            let newicks = moves
                .iter()
                .map(|mv| self.candidate_text(mv))
                .collect::<Result<_, _>>()?;
            self.dispatch_batch(newicks)?
        };
        self.announce_round(moves, &replies)?;
        Ok(replies
            .into_iter()
            .map(|(_, lnl, work)| CandidateScore {
                ln_likelihood: lnl,
                work_units: work,
            })
            .collect())
    }

    fn verify(&mut self, moves: &[TreeMove]) -> Result<Vec<BaseOutcome>, ExecutorError> {
        let newicks = moves
            .iter()
            .map(|mv| self.candidate_text(mv))
            .collect::<Result<_, _>>()?;
        let replies = self.dispatch_batch(newicks)?;
        replies
            .into_iter()
            .map(|reply| Ok(self.outcome(reply)?))
            .collect()
    }

    fn verify_width(&self) -> usize {
        self.transport
            .size()
            .saturating_sub(self.first_worker)
            .max(1)
    }

    fn adopt(&mut self, verified: BaseOutcome) -> Result<BaseOutcome, ExecutorError> {
        let tree = self.install_base(verified.tree)?;
        Ok(BaseOutcome {
            tree,
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
        ClusterExecutor::new(
            crate::loopback::Loopback::new(),
            alignment.names().to_vec(),
            fdml_phylo::phylip::write(alignment),
            config.engine_config_json(),
            false,
            ranks::FIRST_WORKER,
        )
        .with_incremental(config.incremental)
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
    use std::thread;

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
            ranks::FIRST_WORKER,
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
        ex.shutdown();
        foreman.join().unwrap();
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
            ranks::FIRST_WORKER,
        );
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        assert!(base.ln_likelihood.is_finite() && base.ln_likelihood < 0.0);
        ex.shutdown();
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
    fn quarantined_edit_is_scored_locally_and_matches_a_worker() {
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
                    Message::TreeEditTask {
                        task,
                        base_id,
                        edit,
                        ..
                    } => {
                        let done = healthy.edit_task(base_id, &edit, None).unwrap();
                        expected.push((done.ln_likelihood.to_bits(), done.work.work_units()));
                        Message::Quarantined {
                            task,
                            failures: 3,
                            payload: TaskPayload::TreeEdit { base_id, edit },
                        }
                    }
                    Message::Shutdown => return expected,
                    other => panic!("unexpected {other:?}"),
                };
                foreman_end.send(ranks::MASTER, &reply).unwrap();
            }
        });
        let mut ex = ClusterExecutor::new(
            master_end,
            names,
            phylip_text,
            config_json,
            false,
            ranks::FIRST_WORKER,
        )
        .with_incremental(true);
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        let moves = enumerate_insertion_moves(&base.tree, 3);
        let scores = ex.score_round(&moves).unwrap();
        ex.shutdown();
        let got: Vec<(u64, u64)> = scores
            .iter()
            .map(|s| (s.ln_likelihood.to_bits(), s.work_units))
            .collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got, foreman.join().unwrap(), "local scores == the worker's");
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
        let mut ex =
            ClusterExecutor::new(master_end, names, String::new(), String::new(), false, 3);
        let err = ex.set_base(Tree::triplet(0, 1, 2)).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("aborted"), "got: {text}");
        assert!(text.contains("workers dead"), "got: {text}");
        ex.shutdown();
        foreman.join().unwrap();
    }

    #[test]
    fn verify_is_one_parallel_wave_and_adopt_is_one_broadcast() {
        use fdml_phylo::ops::enumerate_insertion_moves;
        let (alignment, phylip_text, config_json) = problem();
        let names: Vec<String> = alignment.names().to_vec();
        let config = SearchConfig::from_engine_config_json(&config_json).unwrap();
        let engine = config.build_engine(&alignment);
        let mut ends = ThreadUniverse::create(2);
        let foreman_end = ends.remove(1);
        let master_end = ends.remove(0);

        // A scripted foreman with a real engine behind it. It answers a
        // lone task at once; a wave of three it holds until complete, then
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

        let mut ex = ClusterExecutor::new(
            master_end,
            names.clone(),
            phylip_text,
            config_json,
            false,
            3,
        )
        .with_incremental(true);
        assert_eq!(
            ex.verify_width(),
            1,
            "a universe with no worker rank still verifies"
        );
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        let moves = enumerate_insertion_moves(&base.tree, 3);
        let verified = ex.verify(&moves).unwrap();

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
            assert_eq!(
                newick::write_tree(&got.tree, &names),
                newick::write_tree(&expect, &names)
            );
        }

        let best = verified
            .into_iter()
            .max_by(|a, b| a.ln_likelihood.total_cmp(&b.ln_likelihood))
            .unwrap();
        let best_text = newick::write_tree(&best.tree, &names);
        let adopted = ex.adopt(best).unwrap();
        assert_eq!(adopted.work_units, 0);
        assert_eq!(newick::write_tree(&adopted.tree, &names), best_text);
        ex.shutdown();

        // On the wire: set_base is a task plus a broadcast, the wave is
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
    /// `armed` is set.
    struct DiesOnTreeTask {
        inner: fdml_comm::threads::ThreadTransport,
        armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
        dead: std::sync::atomic::AtomicBool,
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
            self.inner.send(to, msg)
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
    fn worker_killed_mid_verify_wave_changes_no_outcome() {
        use crate::foreman::run_scheduler;
        use crate::sched::{tick_of, Sched};
        use crate::worker::run_worker;
        use fdml_obs::Obs;
        use fdml_phylo::ops::enumerate_insertion_moves;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::time::Duration;

        let (alignment, phylip_text, config_json) = problem();
        let names: Vec<String> = alignment.names().to_vec();
        // Ranks: master, foreman, (no monitor), three workers — rank 3 is
        // the one that dies.
        let mut ends = ThreadUniverse::create(6);
        let armed = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for rank in (3..6).rev() {
            let end = ends.remove(rank);
            let armed = Arc::clone(&armed);
            workers.push(thread::spawn(move || {
                if rank == 3 {
                    let doomed = DiesOnTreeTask {
                        inner: end,
                        armed,
                        dead: AtomicBool::new(false),
                    };
                    run_worker(doomed, Obs::disabled()).is_err()
                } else {
                    run_worker(end, Obs::disabled()).is_err()
                }
            }));
        }
        let foreman_end = ends.remove(1);
        let foreman = thread::spawn(move || {
            let timeout = Duration::from_millis(100);
            let machine = Sched::flat(foreman_end.size(), timeout, false);
            run_scheduler(foreman_end, machine, tick_of(timeout), Obs::disabled()).unwrap()
        });
        let mut ex = ClusterExecutor::new(
            ends.remove(0),
            names.clone(),
            phylip_text,
            config_json,
            false,
            ranks::FIRST_WORKER,
        )
        .with_incremental(true);
        assert_eq!(ex.verify_width(), 3);
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        let moves = enumerate_insertion_moves(&base.tree, 3);
        // A scoring round first, so every worker has answered and waits in
        // the foreman's ready queue: the wave of three then reaches all
        // three workers, the doomed one included.
        let scores = ex.score_round(&moves).unwrap();
        assert_eq!(scores.len(), 3);
        let healthy = ex.verify(&moves).unwrap();
        armed.store(true, Ordering::SeqCst);
        let wounded = ex.verify(&moves).unwrap();
        for (h, w) in healthy.iter().zip(&wounded) {
            assert_eq!(h.ln_likelihood.to_bits(), w.ln_likelihood.to_bits());
            assert_eq!(h.work_units, w.work_units);
            assert_eq!(h.tree, w.tree);
        }
        ex.shutdown();
        let stats = foreman.join().unwrap();
        assert!(
            stats.timeouts >= 1,
            "the dead worker's task must be requeued"
        );
        let died: Vec<bool> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(died, [false, false, true], "exactly the doomed worker died");
    }
}
