//! Threaded transport: MPI ranks as OS threads over `std::sync::mpsc`
//! channels.

use crate::message::Message;
use crate::transport::{CommError, Rank, Transport};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// A set of connected endpoints, one per rank. Created once, then each
/// endpoint is moved into its rank's thread.
pub struct ThreadUniverse;

/// One rank's endpoint in a [`ThreadUniverse`].
pub struct ThreadTransport {
    rank: Rank,
    senders: Vec<Sender<(Rank, Message)>>,
    receiver: Receiver<(Rank, Message)>,
}

impl ThreadUniverse {
    /// Create `n` fully connected endpoints.
    pub fn create(n: usize) -> Vec<ThreadTransport> {
        assert!(n >= 1);
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| ThreadTransport {
                rank,
                senders: senders.clone(),
                receiver,
            })
            .collect()
    }
}

impl Transport for ThreadTransport {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.senders.len()
    }

    fn send(&self, to: Rank, msg: &Message) -> Result<(), CommError> {
        let tx = self.senders.get(to).ok_or(CommError::UnknownRank(to))?;
        tx.send((self.rank, msg.clone()))
            .map_err(|_| CommError::Disconnected(to))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Rank, Message)>, CommError> {
        match self.receiver.recv_timeout(timeout) {
            Ok(pair) => Ok(Some(pair)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected(self.rank)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn ping_pong_between_threads() {
        let mut ends = ThreadUniverse::create(2);
        let b = ends.pop().unwrap();
        let a = ends.pop().unwrap();
        let echo = thread::spawn(move || {
            let (from, msg) = b.recv().unwrap();
            assert_eq!(from, 0);
            b.send(from, &msg).unwrap();
        });
        a.send(1, &Message::WorkerReady).unwrap();
        let (from, msg) = a.recv().unwrap();
        assert_eq!(from, 1);
        assert_eq!(msg, Message::WorkerReady);
        echo.join().unwrap();
    }

    #[test]
    fn ranks_and_size() {
        let ends = ThreadUniverse::create(5);
        assert_eq!(ends.len(), 5);
        for (i, e) in ends.iter().enumerate() {
            assert_eq!(e.rank(), i);
            assert_eq!(e.size(), 5);
        }
    }

    #[test]
    fn self_send_is_allowed() {
        let ends = ThreadUniverse::create(1);
        let a = &ends[0];
        a.send(0, &Message::Shutdown).unwrap();
        let (from, msg) = a.try_recv().unwrap().unwrap();
        assert_eq!(from, 0);
        assert_eq!(msg, Message::Shutdown);
    }

    #[test]
    fn unknown_rank_rejected() {
        let ends = ThreadUniverse::create(2);
        assert_eq!(
            ends[0].send(9, &Message::Shutdown),
            Err(CommError::UnknownRank(9))
        );
    }

    #[test]
    fn timeout_returns_none() {
        let ends = ThreadUniverse::create(2);
        let got = ends[0].recv_timeout(Duration::from_millis(10)).unwrap();
        assert!(got.is_none());
        assert!(ends[0].try_recv().unwrap().is_none());
    }

    #[test]
    fn messages_preserve_fifo_per_sender() {
        let ends = ThreadUniverse::create(2);
        for i in 0..10u64 {
            ends[1]
                .send(
                    0,
                    &Message::TreeTask {
                        task: i,
                        newick: String::new(),
                    },
                )
                .unwrap();
        }
        for i in 0..10u64 {
            let (_, msg) = ends[0].try_recv().unwrap().unwrap();
            match msg {
                Message::TreeTask { task, .. } => assert_eq!(task, i),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone_but_self() {
        let ends = ThreadUniverse::create(4);
        ends[0].broadcast(&Message::Shutdown).unwrap();
        for e in &ends[1..] {
            let (from, msg) = e.try_recv().unwrap().unwrap();
            assert_eq!(from, 0);
            assert_eq!(msg, Message::Shutdown);
        }
        assert!(ends[0].try_recv().unwrap().is_none());
    }
}
