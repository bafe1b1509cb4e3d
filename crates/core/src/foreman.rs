//! The foreman process (paper §2.2): "dispatches trees to worker processes
//! for analysis, receives back trees and their associated likelihood
//! values… The foreman manages this process via a work queue and a ready
//! queue. The work queue includes a record of the tree dispatched to each
//! worker and the time the tree was dispatched (used to implement fault
//! tolerance)."
//!
//! The queues and the fault-tolerance ladder are the pure machine of
//! `crate::sched`; this module is its I/O shell. `run_scheduler` is the
//! only code of the scheduling tier — flat foreman, regional foreman, root
//! foreman — that receives, sends or reads the clock.

use crate::sched::{Action, Event, Machine};
use fdml_comm::message::Message;
use fdml_comm::transport::{CommError, Transport};
use fdml_obs::Obs;
use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

/// How many *distinct* workers may fail a task (timeout or disconnect
/// while holding it) before the foreman stops requeuing it and hands it to
/// the master for local evaluation. Distinct workers, so one flapping
/// worker cannot quarantine a healthy task by failing it repeatedly.
pub const QUARANTINE_BUDGET: u64 = 3;

/// Why the foreman stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForemanError {
    /// The transport failed underneath the scheduler.
    Comm(CommError),
    /// A scheduler invariant was violated — a bug, reported as a typed
    /// error instead of a panic, because a panicking foreman hangs every
    /// remote peer blocked on it.
    Invariant(&'static str),
}

impl fmt::Display for ForemanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForemanError::Comm(e) => write!(f, "foreman transport failure: {e}"),
            ForemanError::Invariant(what) => {
                write!(f, "foreman scheduler invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for ForemanError {}

impl From<CommError> for ForemanError {
    fn from(e: CommError) -> ForemanError {
        ForemanError::Comm(e)
    }
}

/// The single invariant guard: turns an `Option` that must be `Some` into
/// a typed [`ForemanError::Invariant`] naming what was violated.
pub(crate) fn invariant<V>(value: Option<V>, what: &'static str) -> Result<V, ForemanError> {
    value.ok_or(ForemanError::Invariant(what))
}

/// Foreman statistics returned at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForemanStats {
    /// Tree dispatches to workers (including re-dispatches).
    pub dispatched: u64,
    /// Results accepted and forwarded to the master.
    pub results_forwarded: u64,
    /// Worker timeouts declared.
    pub timeouts: u64,
    /// Delinquent workers re-admitted after answering late.
    pub recoveries: u64,
    /// Late/duplicate results ignored.
    pub duplicates_ignored: u64,
    /// Tasks that exhausted their failure budget and were handed to the
    /// master for local evaluation.
    pub quarantined: u64,
}

/// Drive `machine` over `transport` until it is shut down, and return its
/// counters. `tick` bounds how long the shell waits for a message before
/// it gives the machine its next [`Event::Tick`].
///
/// Pass [`Obs::disabled`] to run unobserved; otherwise the machine's
/// events are recorded as it emits them, and every multi-message frame
/// that leaves is recorded as a `BatchSent`.
pub(crate) fn run_scheduler<T: Transport, M: Machine>(
    transport: T,
    mut machine: M,
    tick: Duration,
    obs: Obs,
) -> Result<M::Stats, ForemanError> {
    // Both buffers live as long as the loop: a step allocates nothing for
    // its actions.
    let mut inbox: VecDeque<Event> = VecDeque::new();
    let mut out: Vec<Action> = Vec::new();
    // One step: the machine absorbs `ev`, then its actions are carried out.
    // A send that finds its link dead goes back in the inbox as
    // `Undeliverable`.
    let mut drive = |machine: &mut M, ev: Event, inbox: &mut VecDeque<Event>| {
        let flow = machine.step(Instant::now(), ev, &mut out)?;
        for action in out.drain(..) {
            match action {
                Action::Emit(event) => obs.emit(|| event),
                Action::Send(to, msg) => match transport.send(to, &msg) {
                    Ok(()) => {
                        if let Message::Batch { msgs } = &msg {
                            obs.emit(|| fdml_obs::Event::BatchSent {
                                from: transport.rank(),
                                msgs: msgs.len(),
                                bytes: msg.wire_bytes() as u64,
                            });
                        }
                    }
                    Err(CommError::Disconnected(_)) => {
                        inbox.push_back(Event::Undeliverable(to));
                    }
                    Err(e) => return Err(ForemanError::from(e)),
                },
            }
        }
        Ok(flow)
    };
    loop {
        // Absorb everything already queued before acting on any of it, so
        // a burst of master tasks coalesces into one batched lease and a
        // burst of results into one upward frame.
        while let Some(ev) = inbox.pop_front() {
            if drive(&mut machine, ev, &mut inbox)?.is_break() {
                return Ok(machine.stats());
            }
        }
        if drive(&mut machine, Event::Tick, &mut inbox)?.is_break() {
            return Ok(machine.stats());
        }
        if !inbox.is_empty() {
            // A send bounced: let the machine requeue what the dead rank
            // held and act again before waiting.
            continue;
        }
        let mut next = transport.recv_timeout(tick)?;
        while let Some((from, msg)) = next {
            inbox.push_back(Event::Msg(from, msg));
            next = transport.recv_timeout(Duration::ZERO)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{tick_of, Sched};
    use crate::worker::ranks;
    use fdml_comm::message::MonitorEvent;
    use fdml_comm::threads::{ThreadTransport, ThreadUniverse};
    use std::thread;

    /// Stand up a foreman with scripted master and worker behaviour.
    fn universe(n: usize) -> Vec<ThreadTransport> {
        ThreadUniverse::create(n)
    }

    /// The flat machine on the shell, as the runtime runs it.
    fn run_flat(end: ThreadTransport, timeout: Duration, has_monitor: bool) -> ForemanStats {
        let machine = Sched::flat(end.size(), timeout, has_monitor);
        run_scheduler(end, machine, tick_of(timeout), Obs::disabled()).unwrap()
    }

    #[test]
    fn dispatches_to_ready_workers_and_forwards_results() {
        let mut ends = universe(4);
        let worker = ends.remove(3);
        let foreman_end = ends.remove(1);
        let master = ends.remove(0);
        let f = thread::spawn(move || run_flat(foreman_end, Duration::from_secs(5), false));
        // Worker announces readiness, master queues a task.
        worker.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        master
            .send(
                ranks::FOREMAN,
                &Message::TreeTask {
                    task: 1,
                    newick: "(a,b);".into(),
                },
            )
            .unwrap();
        // Worker receives the dispatch.
        let (_, msg) = worker.recv().unwrap();
        let Message::TreeTask { task, .. } = msg else {
            panic!("expected task")
        };
        assert_eq!(task, 1);
        worker
            .send(
                ranks::FOREMAN,
                &Message::TreeResult {
                    task: 1,
                    newick: "(a:1,b:1);".into(),
                    ln_likelihood: -9.0,
                    work_units: 3,
                },
            )
            .unwrap();
        // Master receives the forwarded result.
        let (_, msg) = master.recv().unwrap();
        let Message::TreeResult {
            task,
            ln_likelihood,
            ..
        } = msg
        else {
            panic!()
        };
        assert_eq!(task, 1);
        assert_eq!(ln_likelihood, -9.0);
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        // Worker gets the cascaded shutdown.
        let (_, msg) = worker.recv().unwrap();
        assert_eq!(msg, Message::Shutdown);
        let stats = f.join().unwrap();
        assert_eq!(stats.dispatched, 1);
        assert_eq!(stats.results_forwarded, 1);
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn disconnected_worker_requeues_without_waiting_for_timeout() {
        let mut ends = universe(5);
        let w2 = ends.remove(4);
        let w1 = ends.remove(3);
        let foreman_end = ends.remove(1);
        let master = ends.remove(0);
        // A long timeout: if the eager path didn't fire, the test would hang
        // far past its deadline waiting for the timer.
        let f = thread::spawn(move || run_flat(foreman_end, Duration::from_secs(60), false));
        w1.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        // w1 dies before any task reaches it.
        drop(w1);
        master
            .send(
                ranks::FOREMAN,
                &Message::TreeTask {
                    task: 3,
                    newick: "(a,b);".into(),
                },
            )
            .unwrap();
        // The dispatch to the dead w1 fails; the tree must go to w2 as soon
        // as it announces itself.
        w2.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        let (_, msg) = w2.recv().unwrap();
        assert!(matches!(msg, Message::TreeTask { task: 3, .. }));
        w2.send(
            ranks::FOREMAN,
            &Message::TreeResult {
                task: 3,
                newick: "(a:1,b:1);".into(),
                ln_likelihood: -2.0,
                work_units: 1,
            },
        )
        .unwrap();
        let (_, msg) = master.recv().unwrap();
        assert!(matches!(msg, Message::TreeResult { task: 3, .. }));
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        let stats = f.join().unwrap();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.results_forwarded, 1);
    }

    #[test]
    fn jumble_tasks_use_the_same_scheduling_machinery() {
        let mut ends = universe(4);
        let worker = ends.remove(3);
        let foreman_end = ends.remove(1);
        let master = ends.remove(0);
        let f = thread::spawn(move || run_flat(foreman_end, Duration::from_secs(5), false));
        worker.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        master
            .send(ranks::FOREMAN, &Message::JumbleTask { task: 5, seed: 9 })
            .unwrap();
        let (_, msg) = worker.recv().unwrap();
        assert_eq!(msg, Message::JumbleTask { task: 5, seed: 9 });
        let result = Message::JumbleResult {
            task: 5,
            seed: 9,
            newick: "(a:1,b:1);".into(),
            ln_likelihood: -7.0,
            rounds: 2,
            candidates: 6,
            work_units: 11,
        };
        worker.send(ranks::FOREMAN, &result).unwrap();
        // The whole result (seed, rounds, candidates) reaches the master.
        let (_, msg) = master.recv().unwrap();
        assert_eq!(msg, result);
        // A duplicate is ignored, not forwarded twice.
        worker.send(ranks::FOREMAN, &result).unwrap();
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        let stats = f.join().unwrap();
        assert_eq!(stats.dispatched, 1);
        assert_eq!(stats.results_forwarded, 1);
        assert_eq!(stats.duplicates_ignored, 1);
    }

    #[test]
    fn monitor_receives_events_when_present() {
        let mut ends = universe(4);
        let worker = ends.remove(3);
        let monitor = ends.remove(2);
        let foreman_end = ends.remove(1);
        let master = ends.remove(0);
        let f = thread::spawn(move || run_flat(foreman_end, Duration::from_secs(5), true));
        worker.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        master
            .send(
                ranks::FOREMAN,
                &Message::TreeTask {
                    task: 1,
                    newick: "(a,b);".into(),
                },
            )
            .unwrap();
        let (_, ev) = monitor.recv().unwrap();
        assert!(matches!(
            ev,
            Message::Monitor(MonitorEvent::Dispatched { task: 1, .. })
        ));
        worker.recv().unwrap();
        worker
            .send(
                ranks::FOREMAN,
                &Message::TreeResult {
                    task: 1,
                    newick: "(a,b);".into(),
                    ln_likelihood: -1.0,
                    work_units: 1,
                },
            )
            .unwrap();
        let (_, ev) = monitor.recv().unwrap();
        assert!(matches!(
            ev,
            Message::Monitor(MonitorEvent::Completed { task: 1, .. })
        ));
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        let (_, ev) = monitor.recv().unwrap();
        assert_eq!(ev, Message::Shutdown);
        f.join().unwrap();
    }

    #[test]
    fn peer_down_requeues_eagerly_and_peer_up_readmits() {
        let mut ends = universe(5);
        let w2 = ends.remove(4);
        let w1 = ends.remove(3);
        let foreman_end = ends.remove(1);
        let master = ends.remove(0);
        // Long timeout: only the PeerDown path can requeue in time.
        let f = thread::spawn(move || run_flat(foreman_end, Duration::from_secs(60), false));
        w1.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        master
            .send(
                ranks::FOREMAN,
                &Message::TreeTask {
                    task: 4,
                    newick: "(a,b);".into(),
                },
            )
            .unwrap();
        let (_, msg) = w1.recv().unwrap();
        assert!(matches!(msg, Message::TreeTask { task: 4, .. }));
        // The transport reports w1's link lost while it holds task 4.
        master
            .send(ranks::FOREMAN, &Message::PeerDown { rank: 3 })
            .unwrap();
        // The task reaches w2 without waiting out the 60 s timeout.
        w2.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        let (_, msg) = w2.recv().unwrap();
        assert!(matches!(msg, Message::TreeTask { task: 4, .. }));
        w2.send(
            ranks::FOREMAN,
            &Message::TreeResult {
                task: 4,
                newick: "(a:1,b:1);".into(),
                ln_likelihood: -3.0,
                work_units: 1,
            },
        )
        .unwrap();
        let (_, msg) = master.recv().unwrap();
        assert!(matches!(msg, Message::TreeResult { task: 4, .. }));
        // w1 rejoins; after PeerUp + WorkerReady it gets work again.
        master
            .send(ranks::FOREMAN, &Message::PeerUp { rank: 3 })
            .unwrap();
        w1.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        master
            .send(
                ranks::FOREMAN,
                &Message::TreeTask {
                    task: 5,
                    newick: "(a,b);".into(),
                },
            )
            .unwrap();
        // Ready order is [w2, w1]; w2 answers 5, then 6 must reach w1.
        let (_, msg) = w2.recv().unwrap();
        assert!(matches!(msg, Message::TreeTask { task: 5, .. }));
        w2.send(
            ranks::FOREMAN,
            &Message::TreeResult {
                task: 5,
                newick: "(a:1,b:1);".into(),
                ln_likelihood: -3.0,
                work_units: 1,
            },
        )
        .unwrap();
        master
            .send(
                ranks::FOREMAN,
                &Message::TreeTask {
                    task: 6,
                    newick: "(a,b);".into(),
                },
            )
            .unwrap();
        let (_, msg) = w1.recv().unwrap();
        assert!(matches!(msg, Message::TreeTask { task: 6, .. }));
        w1.send(
            ranks::FOREMAN,
            &Message::TreeResult {
                task: 6,
                newick: "(a:1,b:1);".into(),
                ln_likelihood: -3.0,
                work_units: 1,
            },
        )
        .unwrap();
        for _ in 0..2 {
            let (_, msg) = master.recv().unwrap();
            assert!(matches!(msg, Message::TreeResult { .. }));
        }
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        let stats = f.join().unwrap();
        assert_eq!(stats.timeouts, 1, "PeerDown counts as one eager timeout");
        assert_eq!(stats.recoveries, 1, "PeerUp re-admitted w1");
        assert_eq!(stats.results_forwarded, 3);
    }

    #[test]
    fn all_workers_dead_sends_abort_to_master() {
        let mut ends = universe(4);
        let worker = ends.remove(3);
        let foreman_end = ends.remove(1);
        let master = ends.remove(0);
        let f = thread::spawn(move || run_flat(foreman_end, Duration::from_secs(60), false));
        worker.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        // The only worker dies while holding the only task.
        drop(worker);
        master
            .send(
                ranks::FOREMAN,
                &Message::TreeTask {
                    task: 1,
                    newick: "(a,b);".into(),
                },
            )
            .unwrap();
        let (_, msg) = master.recv().unwrap();
        match msg {
            Message::Abort { reason } => {
                assert!(reason.contains("dead"), "reason was: {reason}");
            }
            other => panic!("expected Abort, got {other:?}"),
        }
        // The foreman is still responsive: an orderly shutdown works.
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        f.join().unwrap();
    }
}
