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

    fn evaluate(&self, msg: &Message) -> Result<Option<Message>, WorkerError> {
        let mut evaluator = self.evaluator.borrow_mut();
        Ok(match msg {
            Message::ProblemData {
                phylip,
                config_json,
            } => {
                evaluator.set_problem(phylip, config_json)?;
                None
            }
            Message::BaseTopology { base_id, newick } => {
                evaluator.set_base(*base_id, newick.clone());
                None
            }
            Message::TreeTask { task, newick } => Some(evaluator.tree_task(newick)?.reply(*task)),
            Message::EditChunk {
                task,
                base_id,
                edits,
                base_newick,
            } => Some(
                evaluator
                    .edit_task(*base_id, edits, base_newick.clone())?
                    .reply(*task),
            ),
            // Monitor traffic and the shutdown cascade have no one to reach.
            _ => None,
        })
    }
}

impl Transport for Loopback {
    fn rank(&self) -> Rank {
        ranks::MASTER
    }

    fn size(&self) -> usize {
        ranks::FIRST_WORKER + 1
    }

    /// Evaluate `msg` now. What would kill a worker — a task it cannot
    /// make sense of — comes back as the `Abort` a foreman sends once its
    /// last worker is gone, so the master sees the same typed error.
    fn send(&self, _to: Rank, msg: &Message) -> Result<(), CommError> {
        let reply = self.evaluate(msg).unwrap_or_else(|e| {
            Some(Message::Abort {
                reason: e.to_string(),
            })
        });
        self.replies.borrow_mut().extend(reply);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::edits::move_to_edit;
    use crate::executor::RoundExecutor;
    use crate::master::ClusterExecutor;
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
            ClusterExecutor::new(Loopback::new(), names, "junk".into(), "{}".into(), false, 3);
        let err = ex.set_base(Tree::triplet(0, 1, 2)).unwrap_err().to_string();
        assert!(err.contains("aborted"), "got: {err}");
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
