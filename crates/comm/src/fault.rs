//! Fault injection for exercising the foreman's timeout-based fault
//! tolerance (paper §2.2): a worker that "fails to return an evaluated tree
//! within the time specified" is removed from the ready list and its tree
//! re-dispatched; if it answers later it is re-admitted.
//!
//! [`FaultyTransport`] wraps any transport and applies a [`FaultPlan`] to
//! *outgoing* messages, so wrapping a worker's endpoint simulates that
//! worker dying (drop everything), stalling (drop the first `n` replies),
//! or being slow (delay replies).

use crate::message::Message;
use crate::transport::{CommError, Rank, Transport};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// What to do with outgoing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently drop matching messages.
    Drop,
    /// Hold matching messages for this long before sending (the
    /// "delinquent worker recovers late" scenario). The delay is applied
    /// by sleeping on the sending side, which is adequate for tests.
    Delay(Duration),
    /// Sever the rank entirely: once triggered, every send *and* receive
    /// fails with [`CommError::Disconnected`] — the in-process stand-in for
    /// a worker process dying or its link dropping mid-round.
    Disconnect,
}

/// A fault plan: apply `kind` to the first `count` outgoing result
/// messages ([`Message::is_result`]: `TreeResult`, `JumbleResult` or a
/// chunk's `EditScores`), then behave normally. For
/// [`FaultKind::Disconnect`] the `count` is instead how many results are
/// let *through* before the link is severed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The fault to inject.
    pub kind: FaultKind,
    /// How many tree results to affect (`u64::MAX` ≈ forever); for
    /// `Disconnect`, how many to allow before severing.
    pub count: u64,
}

impl FaultPlan {
    /// Drop the first `count` tree results (a worker that computes but
    /// whose replies are lost / a worker that dies mid-round).
    pub fn drop_first(count: u64) -> FaultPlan {
        FaultPlan {
            kind: FaultKind::Drop,
            count,
        }
    }

    /// Delay the first `count` tree results.
    pub fn delay_first(count: u64, by: Duration) -> FaultPlan {
        FaultPlan {
            kind: FaultKind::Delay(by),
            count,
        }
    }

    /// Let `count` tree results through, then sever the link for good.
    pub fn disconnect_after(count: u64) -> FaultPlan {
        FaultPlan {
            kind: FaultKind::Disconnect,
            count,
        }
    }
}

/// A transport wrapper that injects faults into outgoing tree results.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: Mutex<FaultPlan>,
    severed: AtomicBool,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap a transport with a fault plan.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTransport<T> {
        let severed = plan.kind == FaultKind::Disconnect && plan.count == 0;
        FaultyTransport {
            inner,
            plan: Mutex::new(plan),
            severed: AtomicBool::new(severed),
        }
    }

    /// Remaining faults to inject.
    pub fn remaining(&self) -> u64 {
        self.plan.lock().count
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: Rank, msg: &Message) -> Result<(), CommError> {
        if self.severed.load(Ordering::SeqCst) {
            return Err(CommError::Disconnected(self.inner.rank()));
        }
        if msg.is_result() {
            let mut plan = self.plan.lock();
            match plan.kind {
                FaultKind::Disconnect => {
                    if plan.count == 0 {
                        drop(plan);
                        self.severed.store(true, Ordering::SeqCst);
                        return Err(CommError::Disconnected(self.inner.rank()));
                    }
                    plan.count -= 1;
                }
                FaultKind::Drop if plan.count > 0 => {
                    plan.count -= 1;
                    return Ok(());
                }
                FaultKind::Delay(by) if plan.count > 0 => {
                    plan.count -= 1;
                    drop(plan);
                    std::thread::sleep(by);
                }
                _ => {}
            }
        }
        self.inner.send(to, msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Rank, Message)>, CommError> {
        if self.severed.load(Ordering::SeqCst) {
            return Err(CommError::Disconnected(self.inner.rank()));
        }
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threads::ThreadUniverse;

    impl<T: Transport> FaultyTransport<T> {
        /// Whether a [`FaultKind::Disconnect`] plan has triggered.
        fn is_severed(&self) -> bool {
            self.severed.load(Ordering::SeqCst)
        }
    }

    fn result_msg(task: u64) -> Message {
        Message::TreeResult {
            task,
            newick: "(a,b);".into(),
            ln_likelihood: -1.0,
            work_units: 1,
        }
    }

    #[test]
    fn drops_only_the_planned_count() {
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let faulty = FaultyTransport::new(ends.remove(0), FaultPlan::drop_first(2));
        for t in 0..4 {
            faulty.send(0, &result_msg(t)).unwrap();
        }
        // Results 0 and 1 were dropped; 2 and 3 arrive.
        for expected in [2u64, 3] {
            let (_, msg) = receiver.try_recv().unwrap().unwrap();
            match msg {
                Message::TreeResult { task, .. } => assert_eq!(task, expected),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(receiver.try_recv().unwrap().is_none());
        assert_eq!(faulty.remaining(), 0);
    }

    #[test]
    fn chunk_scores_count_as_results() {
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let faulty = FaultyTransport::new(ends.remove(0), FaultPlan::drop_first(1));
        faulty.send(0, &Message::Ping).unwrap();
        let scores = Message::EditScores {
            task: 1,
            scores: Vec::new(),
        };
        faulty.send(0, &scores).unwrap();
        assert_eq!(faulty.remaining(), 0);
        // The ping passed; the scores were the one dropped result.
        assert_eq!(receiver.try_recv().unwrap().unwrap().1, Message::Ping);
        assert!(receiver.try_recv().unwrap().is_none());
    }

    #[test]
    fn non_result_messages_pass_through() {
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let faulty = FaultyTransport::new(ends.remove(0), FaultPlan::drop_first(u64::MAX));
        faulty.send(0, &Message::WorkerReady).unwrap();
        assert!(receiver.try_recv().unwrap().is_some());
    }

    #[test]
    fn delay_eventually_delivers() {
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let faulty = FaultyTransport::new(
            ends.remove(0),
            FaultPlan::delay_first(1, Duration::from_millis(30)),
        );
        let start = std::time::Instant::now();
        faulty.send(0, &result_msg(0)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(receiver.try_recv().unwrap().is_some());
    }

    #[test]
    fn disconnect_severs_after_allowed_results() {
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let faulty = FaultyTransport::new(ends.remove(0), FaultPlan::disconnect_after(2));
        // The first two results pass through.
        faulty.send(0, &result_msg(0)).unwrap();
        faulty.send(0, &result_msg(1)).unwrap();
        assert!(!faulty.is_severed());
        // The third triggers severance...
        assert_eq!(
            faulty.send(0, &result_msg(2)),
            Err(CommError::Disconnected(1))
        );
        assert!(faulty.is_severed());
        // ...after which *everything* fails, both directions.
        assert_eq!(
            faulty.send(0, &Message::WorkerReady),
            Err(CommError::Disconnected(1))
        );
        assert_eq!(
            faulty.recv_timeout(Duration::from_millis(1)),
            Err(CommError::Disconnected(1))
        );
        // The other side saw exactly the two allowed results.
        for expected in [0u64, 1] {
            let (_, msg) = receiver.try_recv().unwrap().unwrap();
            match msg {
                Message::TreeResult { task, .. } => assert_eq!(task, expected),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(receiver.try_recv().unwrap().is_none());
    }

    #[test]
    fn disconnect_after_zero_is_severed_from_the_start() {
        let mut ends = ThreadUniverse::create(2);
        let _receiver = ends.remove(0);
        let faulty = FaultyTransport::new(ends.remove(0), FaultPlan::disconnect_after(0));
        assert!(faulty.is_severed());
        assert_eq!(
            faulty.send(0, &Message::WorkerReady),
            Err(CommError::Disconnected(1))
        );
    }

    #[test]
    fn receive_side_unaffected() {
        let mut ends = ThreadUniverse::create(2);
        let plain = ends.remove(0);
        let faulty = FaultyTransport::new(ends.remove(0), FaultPlan::drop_first(u64::MAX));
        plain.send(1, &Message::Shutdown).unwrap();
        let (from, msg) = faulty.try_recv().unwrap().unwrap();
        assert_eq!(from, 0);
        assert_eq!(msg, Message::Shutdown);
    }
}
