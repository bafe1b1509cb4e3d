//! The sequential transport: fastDNAml's `comm_seq.c`.
//!
//! The serial program is the parallel program linked against a comm layer
//! with nobody on the other end. [`Loopback`] is the master's endpoint of
//! a universe whose every other rank is this one [`Evaluator`]: sending a
//! task evaluates it on the spot and queues the result for the next
//! `recv`. No threads, no codec, no foreman — and, because the master and
//! the tasks are the ones every deployment runs, the same bytes.

use crate::worker::{ranks, Evaluator, WorkerError};
use fdml_comm::message::Message;
use fdml_comm::transport::{CommError, Rank, Transport};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Duration;

/// Rank 0 of a universe of `FIRST_WORKER + 1` ranks, all but the master
/// played by one in-process [`Evaluator`].
#[derive(Default)]
pub struct Loopback {
    evaluator: RefCell<Evaluator>,
    replies: RefCell<VecDeque<Message>>,
}

impl Loopback {
    /// A loopback that learns its problem from the `ProblemData`
    /// broadcast, as a worker would.
    pub fn new() -> Loopback {
        Loopback::default()
    }

    /// A loopback around an evaluator that already holds its problem.
    pub fn around(evaluator: Evaluator) -> Loopback {
        Loopback {
            evaluator: RefCell::new(evaluator),
            replies: RefCell::default(),
        }
    }

    /// Evaluate `msg` now, handing each reply to `up` the moment it exists:
    /// a whole jumble's rounds as they commit — the jumble still running —
    /// and then its result. What would kill a worker — a task it cannot make
    /// sense of — comes back as the `Abort` a foreman sends once its last
    /// worker is gone, so the master sees the same typed error.
    pub(crate) fn serve(&self, msg: &Message, mut up: impl FnMut(Message)) {
        if let Err(e) = self.evaluate(msg, &mut up) {
            up(Message::Abort {
                reason: e.to_string(),
            });
        }
    }

    fn evaluate(&self, msg: &Message, reply: &mut dyn FnMut(Message)) -> Result<(), WorkerError> {
        let mut evaluator = self.evaluator.borrow_mut();
        match msg {
            Message::ProblemData {
                phylip,
                config_json,
            } => evaluator.set_problem(phylip, config_json)?,
            Message::BaseTopology { base_id, newick } => {
                evaluator.set_base(*base_id, newick.clone())
            }
            Message::TreeTask { task, newick } => reply(evaluator.tree_task(newick)?.reply(*task)),
            Message::EditChunk {
                task,
                base_id,
                edits,
                base_newick,
            } => reply(
                evaluator
                    .edit_task(*base_id, edits, base_newick.clone())?
                    .reply(*task),
            ),
            Message::JumbleTask { .. } | Message::JumbleResume { .. } => {
                let (result, _) = evaluator.serve_jumble(msg, &mut *reply)?;
                reply(result)
            }
            // Monitor traffic and the shutdown cascade have no one to reach.
            _ => {}
        }
        Ok(())
    }
}

impl Transport for Loopback {
    fn rank(&self) -> Rank {
        ranks::MASTER
    }

    fn size(&self) -> usize {
        ranks::FIRST_WORKER + 1
    }

    /// `Loopback::serve` into the queue the next `recv` reads.
    fn send(&self, _to: Rank, msg: &Message) -> Result<(), CommError> {
        self.serve(msg, |reply| self.replies.borrow_mut().push_back(reply));
        Ok(())
    }

    fn recv_timeout(&self, _timeout: Duration) -> Result<Option<(Rank, Message)>, CommError> {
        let reply = self.replies.borrow_mut().pop_front();
        Ok(reply.map(|msg| (ranks::FOREMAN, msg)))
    }

    /// Nothing arrives later that is not queued already: an empty queue is
    /// a hang-up, not a wait.
    fn recv(&self) -> Result<(Rank, Message), CommError> {
        self.try_recv()?
            .ok_or(CommError::Disconnected(ranks::FOREMAN))
    }
}

/// The in-process transport, counting the tasks that reach the evaluator
/// behind it.
#[cfg(test)]
pub(crate) struct Counting {
    inner: Loopback,
    tasks: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

#[cfg(test)]
impl Counting {
    /// A counting loopback, and a reader of how many tasks it has been
    /// sent so far.
    pub(crate) fn new() -> (Counting, impl Fn() -> usize) {
        let tasks = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let reader = std::sync::Arc::clone(&tasks);
        let transport = Counting {
            inner: Loopback::new(),
            tasks,
        };
        (transport, move || {
            reader.load(std::sync::atomic::Ordering::SeqCst)
        })
    }
}

#[cfg(test)]
impl Transport for Counting {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: Rank, msg: &Message) -> Result<(), CommError> {
        if matches!(msg, Message::TreeTask { .. } | Message::EditChunk { .. }) {
            self.tasks.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
        self.inner.send(to, msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Rank, Message)>, CommError> {
        self.inner.recv_timeout(timeout)
    }

    fn recv(&self) -> Result<(Rank, Message), CommError> {
        self.inner.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::edits::move_to_edit;
    use crate::executor::RoundExecutor;
    use crate::master::ClusterExecutor;
    use crate::wal::NUMERICS_EPOCH;
    use fdml_phylo::alignment::Alignment;
    use fdml_phylo::ops::enumerate_insertion_moves;
    use fdml_phylo::tree::Tree;
    use fdml_phylo::{newick, phylip};

    fn problem() -> Message {
        let a = Alignment::from_strings(&[
            ("t0", "ACGTACGTACGT"),
            ("t1", "ACGTACGAACGT"),
            ("t2", "ACTTACGAACGA"),
            ("t3", "ACTTACGAACGT"),
        ])
        .unwrap();
        Message::ProblemData {
            phylip: phylip::write(&a),
            config_json: SearchConfig::default().engine_config_json(),
        }
    }

    fn abort_reason(end: &Loopback) -> String {
        match end.recv().unwrap() {
            (ranks::FOREMAN, Message::Abort { reason }) => reason,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_task_is_answered_by_the_next_recv() {
        let end = Loopback::new();
        assert_eq!((end.rank(), end.size()), (0, 4));
        end.send(ranks::FIRST_WORKER, &problem()).unwrap();
        assert_eq!(end.try_recv().unwrap(), None, "problem data has no reply");
        let task = Message::TreeTask {
            task: 7,
            newick: "(t0:0.1,t1:0.1,(t2:0.1,t3:0.1):0.1);".into(),
        };
        end.send(ranks::FOREMAN, &task).unwrap();
        match end.recv().unwrap() {
            (
                ranks::FOREMAN,
                Message::TreeResult {
                    task: 7, newick, ..
                },
            ) => {
                assert!(newick.contains("t3"))
            }
            other => panic!("unexpected {other:?}"),
        }
        // Drained: a further blocking receive is an error, never a hang.
        assert_eq!(
            end.recv().unwrap_err(),
            CommError::Disconnected(ranks::FOREMAN)
        );
    }

    #[test]
    fn task_before_problem_data_is_a_typed_error() {
        let end = Loopback::new();
        let task = Message::TreeTask {
            task: 1,
            newick: "(t0,t1,t2);".into(),
        };
        end.send(ranks::FOREMAN, &task).unwrap();
        assert!(abort_reason(&end).contains("before problem data"));

        // Through the executor: the search fails, it does not panic.
        let names = (0..3).map(|i| format!("t{i}")).collect();
        let mut ex =
            ClusterExecutor::new(Loopback::new(), names, "junk".into(), "{}".into(), false);
        let err = ex.set_base(Tree::triplet(0, 1, 2)).unwrap_err().to_string();
        assert!(err.contains("aborted"), "got: {err}");
    }

    #[test]
    fn a_resumed_jumble_queues_the_rounds_past_its_prefix_then_its_result() {
        let a = phylip::parse(
            "6 24
t0 ACGTACGTACGTACGTACGTACGT
t1 ACGTACGTACTTACGTACGTACGA
t2 ACGAACGTACGTACGGACGTACGT
t3 ACGAACGTACGTACGGACGTACTT
t4 TCGAACGGACGTACGGAAGTACGT
t5 TCGAACGGACGTACGGAAGTACGA
",
        )
        .unwrap();
        let config_json = SearchConfig::default().engine_config_json();
        let evaluator = Evaluator::for_problem(&phylip::write(&a), &config_json).unwrap();
        let mut log = Vec::new();
        let whole = evaluator
            .jumble(7, NUMERICS_EPOCH, Vec::new(), |round| {
                log.push(round.to_json())
            })
            .unwrap();
        assert!(log.len() > 3, "fixture too small: {} rounds", log.len());

        let end = Loopback::around(evaluator);
        let resume = Message::JumbleResume {
            job: 0,
            task: 4,
            seed: 7,
            numerics: NUMERICS_EPOCH,
            wal: log[..2].to_vec(),
        };
        end.send(ranks::FOREMAN, &resume).unwrap();
        for (index, entry) in log.iter().enumerate().skip(2) {
            let want = Message::WalRound {
                job: 0,
                seed: 7,
                index: index as u64,
                entry: entry.clone(),
            };
            assert_eq!(end.recv().unwrap(), (ranks::FOREMAN, want));
        }
        match end.recv().unwrap() {
            (
                _,
                Message::JumbleResult {
                    task: 4,
                    seed: 7,
                    newick,
                    ..
                },
            ) => {
                assert_eq!(newick, newick::write_tree(&whole.tree, a.names()))
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            end.try_recv().unwrap(),
            None,
            "one result, nothing after it"
        );

        // Served, not sent: the same replies in the same order, each handed
        // over as the jumble produces it, and nothing queues.
        let mut served = Vec::new();
        end.serve(&resume, |reply| served.push(reply));
        let indices = served.iter().map_while(|reply| match reply {
            Message::WalRound { index, .. } => Some(*index as usize),
            _ => None,
        });
        assert_eq!(
            indices.collect::<Vec<_>>(),
            (2..log.len()).collect::<Vec<_>>()
        );
        assert_eq!(served.len(), log.len() - 2 + 1);
        assert!(matches!(served.last(), Some(Message::JumbleResult { .. })));
        assert_eq!(end.try_recv().unwrap(), None);

        // A plain task streams nothing: only its result comes back.
        end.send(ranks::FOREMAN, &Message::JumbleTask { task: 5, seed: 7 })
            .unwrap();
        assert!(matches!(
            end.recv().unwrap(),
            (_, Message::JumbleResult { task: 5, .. })
        ));
        assert_eq!(end.try_recv().unwrap(), None);
    }

    #[test]
    fn jumble_before_problem_data_is_the_abort_the_master_handles() {
        let end = Loopback::new();
        end.send(ranks::FOREMAN, &Message::JumbleTask { task: 1, seed: 7 })
            .unwrap();
        assert!(abort_reason(&end).contains("before problem data"));
        assert_eq!(end.try_recv().unwrap(), None);
    }

    #[test]
    fn edit_for_an_unknown_base_without_text_is_a_typed_error() {
        let end = Loopback::new();
        end.send(ranks::FIRST_WORKER, &problem()).unwrap();
        // Node ids come from parsing the base text, as on every rank.
        let base = "(t0:0.1,t1:0.1,t2:0.1);".to_string();
        let names: Vec<String> = (0..4).map(|i| format!("t{i}")).collect();
        let tree = newick::parse_tree_with_names(&base, &names).unwrap();
        let edit = |base_newick| Message::EditChunk {
            task: 5,
            base_id: 9,
            edits: vec![move_to_edit(&enumerate_insertion_moves(&tree, 3)[0])],
            base_newick,
        };
        end.send(ranks::FOREMAN, &edit(None)).unwrap();
        assert!(abort_reason(&end).contains("unknown base 9"));
        // The same edit carrying its base is scored.
        end.send(ranks::FOREMAN, &edit(Some(base.clone()))).unwrap();
        match end.recv().unwrap() {
            (_, Message::EditScores { task: 5, scores }) => assert_eq!(scores.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
