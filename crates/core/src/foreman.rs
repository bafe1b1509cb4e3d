//! The foreman process (paper §2.2): "dispatches trees to worker processes
//! for analysis, receives back trees and their associated likelihood
//! values… The foreman manages this process via a work queue and a ready
//! queue. The work queue includes a record of the tree dispatched to each
//! worker and the time the tree was dispatched (used to implement fault
//! tolerance)."

use crate::worker::ranks;
use fdml_comm::message::{Message, MonitorEvent, TaskPayload, TreeEdit};
use fdml_comm::transport::{CommError, Rank, Transport};
use fdml_obs::{Event, Obs};
use std::collections::{HashMap, HashSet, VecDeque};
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

/// What a queued task asks a worker to do: evaluate one candidate tree, or
/// run a whole jumble. The foreman's scheduling (ready queue, timeouts,
/// eager requeue, duplicate dedup) is identical for both — only the
/// dispatched message differs.
#[derive(Debug, Clone)]
pub(crate) enum TaskBody {
    /// One candidate tree as Newick text.
    Tree(String),
    /// One whole stepwise-addition search, identified by its jumble seed.
    Jumble(u64),
    /// A jumble resumed from (and streaming back to) the coordinator's
    /// write-ahead log. Requeue-safe: a second worker replays the same
    /// prefix and, by determinism, re-streams the identical rounds, which
    /// the coordinator's index-gated appends deduplicate.
    JumbleResume {
        /// The job the jumble belongs to (0 = the anonymous farm).
        job: u64,
        /// The jumble seed.
        seed: u64,
        /// The committed rounds to replay, one JSON `WalRound` each.
        wal: Vec<String>,
    },
    /// One candidate edit against the round's broadcast base topology.
    Edit {
        /// Generation id of the base the edit applies to.
        base_id: u64,
        /// The edit itself.
        edit: TreeEdit,
        /// Force the dispatched message to embed the base text. Set when
        /// the task is requeued after a failure: the next worker to take
        /// it may be a fresh respawn with no cached base, and a
        /// self-contained dispatch is the rung of the fallback ladder that
        /// keeps the self-healing invariants independent of cache state.
        self_contained: bool,
    },
}

impl TaskBody {
    /// Parse a dispatched task message back into its queue form — the
    /// inverse of [`TaskBody::to_message`], used when tasks travel between
    /// scheduling tiers (root grants, steal returns, reclaimed leases).
    /// Returns `None` for non-task messages.
    pub(crate) fn from_message(msg: &Message) -> Option<(u64, TaskBody)> {
        match msg {
            Message::TreeTask { task, newick } => Some((*task, TaskBody::Tree(newick.clone()))),
            Message::JumbleTask { task, seed } => Some((*task, TaskBody::Jumble(*seed))),
            Message::JumbleResume {
                job,
                task,
                seed,
                wal,
            } => Some((
                *task,
                TaskBody::JumbleResume {
                    job: *job,
                    seed: *seed,
                    wal: wal.clone(),
                },
            )),
            Message::TreeEditTask {
                task,
                base_id,
                edit,
                base_newick,
            } => Some((
                *task,
                TaskBody::Edit {
                    base_id: *base_id,
                    edit: *edit,
                    // A task that travels with its base embedded stays
                    // self-contained: whoever dispatches it next cannot
                    // assume the receiving worker saw any broadcast.
                    self_contained: base_newick.is_some(),
                },
            )),
            _ => None,
        }
    }

    /// `base_text` is the base to embed for an [`TaskBody::Edit`]; `None`
    /// dispatches the compact form (the worker is known to hold the base).
    pub(crate) fn to_message(&self, task: u64, base_text: Option<&str>) -> Message {
        match self {
            TaskBody::Tree(newick) => Message::TreeTask {
                task,
                newick: newick.clone(),
            },
            TaskBody::Jumble(seed) => Message::JumbleTask { task, seed: *seed },
            TaskBody::JumbleResume { job, seed, wal } => Message::JumbleResume {
                job: *job,
                task,
                seed: *seed,
                wal: wal.clone(),
            },
            TaskBody::Edit { base_id, edit, .. } => Message::TreeEditTask {
                task,
                base_id: *base_id,
                edit: *edit,
                base_newick: base_text.map(str::to_owned),
            },
        }
    }

    /// Force the self-contained dispatch form (edits embed their base from
    /// here on). Identity for non-edit bodies.
    pub(crate) fn self_contained(self) -> TaskBody {
        match self {
            TaskBody::Edit { base_id, edit, .. } => TaskBody::Edit {
                base_id,
                edit,
                self_contained: true,
            },
            other => other,
        }
    }

    pub(crate) fn into_payload(self) -> TaskPayload {
        match self {
            TaskBody::Tree(newick) => TaskPayload::Tree { newick },
            TaskBody::Jumble(seed) => TaskPayload::Jumble { seed },
            // The master re-runs a quarantined jumble locally against its
            // own WAL copy; the streamed prefix need not travel back.
            TaskBody::JumbleResume { seed, .. } => TaskPayload::Jumble { seed },
            TaskBody::Edit { base_id, edit, .. } => TaskPayload::TreeEdit { base_id, edit },
        }
    }
}

pub(crate) struct InFlight {
    pub(crate) worker: Rank,
    pub(crate) body: TaskBody,
    pub(crate) dispatched_at: Instant,
}

/// The foreman's mutable scheduling state, bundled so the failure /
/// quarantine bookkeeping can live in one place. Shared with the regional
/// foremen of [`crate::hierarchy`], which run the identical worker-facing
/// machinery under a leased task supply.
#[derive(Default)]
pub(crate) struct Sched {
    pub(crate) work_queue: VecDeque<(u64, TaskBody)>,
    pub(crate) ready: VecDeque<Rank>,
    pub(crate) in_flight: HashMap<u64, InFlight>,
    pub(crate) delinquent: HashSet<Rank>,
    /// Workers whose link is known dead (failed send, or a transport
    /// `PeerDown`). Distinct from `delinquent`: a delinquent worker may
    /// still answer; a dead one cannot until the transport says `PeerUp`.
    pub(crate) dead: HashSet<Rank>,
    pub(crate) completed: HashSet<u64>,
    /// Per-task set of distinct workers that failed it, for the
    /// poison-task quarantine budget.
    pub(crate) failures: HashMap<u64, HashSet<Rank>>,
    /// The current base topology broadcast (generation id + Newick text),
    /// kept so edit dispatches can fall back to embedding the base for
    /// workers that missed the broadcast.
    pub(crate) base: Option<(u64, String)>,
    /// Workers known to hold the current base broadcast. A rank leaves the
    /// set when its link dies (a respawn has an empty cache) and rejoins
    /// when the foreman relays the base to it.
    pub(crate) has_base: HashSet<Rank>,
    pub(crate) stats: ForemanStats,
}

impl Sched {
    /// Attribute a failure of `task` (held by `worker`) and decide its
    /// fate: requeued (front or back), or — once [`QUARANTINE_BUDGET`]
    /// distinct workers have failed it — quarantined. Returns the
    /// `Quarantined` message to forward to the master in the latter case.
    pub(crate) fn fail_task(
        &mut self,
        task: u64,
        body: TaskBody,
        worker: Rank,
        front: bool,
        obs: &Obs,
    ) -> Option<Message> {
        let set = self.failures.entry(task).or_default();
        set.insert(worker);
        let failures = set.len() as u64;
        // A requeued edit must be scoreable by any worker, including a
        // fresh respawn that has no cached base: force the self-contained
        // dispatch form from here on.
        let body = body.self_contained();
        if failures >= QUARANTINE_BUDGET {
            // The task has now serially killed (or stalled) several
            // different workers: stop feeding it to the fleet. Marking it
            // completed makes any late answers plain duplicates.
            self.failures.remove(&task);
            self.completed.insert(task);
            self.stats.quarantined += 1;
            obs.emit(|| Event::TaskQuarantined { task, failures });
            Some(Message::Quarantined {
                task,
                failures,
                payload: body.into_payload(),
            })
        } else {
            if front {
                self.work_queue.push_front((task, body));
            } else {
                self.work_queue.push_back((task, body));
            }
            None
        }
    }

    /// The timeout sweep: take every task held longer than `timeout` out of
    /// flight and mark its worker delinquent. The caller reports each one
    /// and hands it to [`Sched::fail_task`]. It scans every in-flight
    /// entry, so the scheduler loops run it once per tick, not per message.
    pub(crate) fn sweep_timeouts(
        &mut self,
        now: Instant,
        timeout: Duration,
    ) -> Vec<(u64, InFlight)> {
        let overdue: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, f)| now.duration_since(f.dispatched_at) > timeout)
            .map(|(&task, _)| task)
            .collect();
        let mut out = Vec::with_capacity(overdue.len());
        for task in overdue {
            if let Some(f) = self.in_flight.remove(&task) {
                self.delinquent.insert(f.worker);
                self.ready.retain(|&w| w != f.worker);
                self.stats.timeouts += 1;
                out.push((task, f));
            }
        }
        out
    }

    /// Book a worker's answer for `task`. `Some(service_us)` when it is the
    /// first answer (dispatch-to-result latency; 0 when the task was not in
    /// flight), `None` for a late duplicate. A task is in flight or queued,
    /// never both, so the queue is searched only for the rare answer to a
    /// task that was requeued while its first worker was still computing.
    pub(crate) fn accept_result(&mut self, task: u64) -> Option<u64> {
        if self.completed.contains(&task) {
            return None;
        }
        let service_us = match self.in_flight.remove(&task) {
            Some(f) => f.dispatched_at.elapsed().as_micros() as u64,
            None => {
                let queued = self.work_queue.iter().position(|(t, _)| *t == task)?;
                self.work_queue.remove(queued);
                0
            }
        };
        self.completed.insert(task);
        self.failures.remove(&task);
        Some(service_us)
    }

    /// Declare `worker`'s link dead: eagerly requeue everything it holds
    /// (instead of waiting out the timeout) and bar it from dispatch.
    /// Returns any `Quarantined` messages the requeues produced.
    pub(crate) fn peer_down(&mut self, worker: Rank, obs: &Obs) -> Vec<(u64, Option<Message>)> {
        self.dead.insert(worker);
        self.delinquent.insert(worker);
        self.has_base.remove(&worker);
        self.ready.retain(|&w| w != worker);
        let held: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, f)| f.worker == worker)
            .map(|(&t, _)| t)
            .collect();
        let mut out = Vec::new();
        for task in held {
            if let Some(f) = self.in_flight.remove(&task) {
                self.stats.timeouts += 1;
                let quarantined = self.fail_task(task, f.body, worker, true, obs);
                out.push((task, quarantined));
            }
        }
        out
    }
}

/// Run the foreman loop until the master sends `Shutdown`.
///
/// `worker_timeout` is the fault-tolerance parameter: a worker holding a
/// tree longer than this is marked delinquent, removed from the ready
/// queue, and the tree goes to a different worker; if the delinquent worker
/// answers later it is re-admitted (paper §2.2).
///
/// Pass [`Obs::disabled`] to run unobserved; otherwise every scheduling
/// action emits an [`Event::QueueDepth`] sample, and each accepted result
/// carries its dispatch-to-result latency (`service_us`) to the monitor.
pub fn run_foreman<T: Transport>(
    transport: T,
    worker_timeout: Duration,
    has_monitor: bool,
    obs: Obs,
) -> Result<ForemanStats, ForemanError> {
    let mut s = Sched::default();
    let tick = (worker_timeout / 4)
        .max(Duration::from_millis(1))
        .min(Duration::from_millis(50));

    let monitor = |t: &T, ev: MonitorEvent| {
        if has_monitor {
            let _ = t.send(ranks::MONITOR, &Message::Monitor(ev));
        }
    };

    let mut last_depth: Option<(usize, usize, usize)> = None;
    let mut aborted = false;
    let mut next_ping: HashMap<Rank, Instant> = HashMap::new();
    let mut next_sweep = Instant::now();

    loop {
        // Dispatch while both queues are non-empty.
        while !s.work_queue.is_empty() && !s.ready.is_empty() {
            let worker = invariant(s.ready.pop_front(), "ready queue emptied mid-dispatch")?;
            if s.delinquent.contains(&worker) {
                continue;
            }
            let (task, body) =
                invariant(s.work_queue.pop_front(), "work queue emptied mid-dispatch")?;
            // Fallback ladder for edits: embed the base text when the task
            // was requeued (self-contained) or this worker missed the
            // broadcast; dispatch the compact form otherwise.
            let embed_base = match &body {
                TaskBody::Edit {
                    base_id,
                    self_contained,
                    ..
                } => s
                    .base
                    .as_ref()
                    .filter(|(id, _)| id == base_id)
                    .filter(|_| *self_contained || !s.has_base.contains(&worker))
                    .map(|(_, text)| text.clone()),
                _ => None,
            };
            match transport.send(worker, &body.to_message(task, embed_base.as_deref())) {
                Ok(()) => {}
                // A dead link is the network analogue of a delinquent
                // worker: re-queue the task immediately instead of waiting
                // for the timeout to notice (paper §2.2's recovery path,
                // triggered eagerly).
                Err(CommError::Disconnected(_)) => {
                    s.delinquent.insert(worker);
                    s.dead.insert(worker);
                    s.has_base.remove(&worker);
                    s.stats.timeouts += 1;
                    monitor(&transport, MonitorEvent::WorkerTimedOut { worker, task });
                    if let Some(q) = s.fail_task(task, body, worker, true, &obs) {
                        transport.send(ranks::MASTER, &q)?;
                    }
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
            if embed_base.is_some() {
                // The embedded base is installed by the worker on receipt,
                // so its later tasks in this round can go compact again.
                s.has_base.insert(worker);
            }
            s.in_flight.insert(
                task,
                InFlight {
                    worker,
                    body,
                    dispatched_at: Instant::now(),
                },
            );
            s.stats.dispatched += 1;
            monitor(&transport, MonitorEvent::Dispatched { task, worker });
        }

        // Fault tolerance: re-queue trees held past the timeout, checked
        // once per tick.
        let now = Instant::now();
        if now >= next_sweep {
            next_sweep = now + tick;
            for (task, f) in s.sweep_timeouts(now, worker_timeout) {
                monitor(
                    &transport,
                    MonitorEvent::WorkerTimedOut {
                        worker: f.worker,
                        task,
                    },
                );
                if let Some(q) = s.fail_task(task, f.body, f.worker, false, &obs) {
                    transport.send(ranks::MASTER, &q)?;
                }
            }
        }

        // Liveness probe: a delinquent worker receives no new work, so a
        // silently dead one would never be rediscovered — and without it
        // the all-dead check below could never trip on the threaded
        // transport. While work is outstanding, ping each delinquent,
        // not-known-dead worker once per timeout period. An idle live
        // worker answers `WorkerReady` and is re-admitted; a dropped
        // thread endpoint fails the send, which is that transport's
        // death certificate (TCP peers get `PeerDown` from the hub).
        if !s.work_queue.is_empty() || !s.in_flight.is_empty() {
            let due: Vec<Rank> = s
                .delinquent
                .iter()
                .copied()
                .filter(|w| !s.dead.contains(w))
                .filter(|w| next_ping.get(w).is_none_or(|&t| now >= t))
                .collect();
            for worker in due {
                next_ping.insert(worker, now + worker_timeout);
                if let Err(CommError::Disconnected(_)) = transport.send(worker, &Message::Ping) {
                    for (task, quarantined) in s.peer_down(worker, &obs) {
                        monitor(&transport, MonitorEvent::WorkerTimedOut { worker, task });
                        if let Some(q) = quarantined {
                            transport.send(ranks::MASTER, &q)?;
                        }
                    }
                }
            }
        }

        // The run cannot heal if every worker's link is dead while work is
        // outstanding: tell the master (which surfaces a typed error and
        // leaves its last checkpoint valid) rather than spinning forever.
        let size = transport.size();
        if !aborted
            && size > ranks::FIRST_WORKER
            && (ranks::FIRST_WORKER..size).all(|r| s.dead.contains(&r))
            && (!s.work_queue.is_empty() || !s.in_flight.is_empty())
        {
            aborted = true;
            let reason = format!(
                "all {} workers are dead with {} tasks outstanding",
                size - ranks::FIRST_WORKER,
                s.work_queue.len() + s.in_flight.len()
            );
            transport.send(ranks::MASTER, &Message::Abort { reason })?;
        }

        // One queue-depth sample per state change (paper §3: "queue-length
        // data from the foreman").
        let depth = (s.work_queue.len(), s.ready.len(), s.in_flight.len());
        if last_depth != Some(depth) {
            last_depth = Some(depth);
            obs.emit(|| Event::QueueDepth {
                work: depth.0,
                ready: depth.1,
                in_flight: depth.2,
            });
        }

        match transport.recv_timeout(tick)? {
            None => continue,
            Some((from, msg)) => match msg {
                Message::TreeTask { task, newick } => {
                    debug_assert_eq!(from, ranks::MASTER);
                    s.work_queue.push_back((task, TaskBody::Tree(newick)));
                }
                Message::JumbleTask { task, seed } => {
                    debug_assert_eq!(from, ranks::MASTER);
                    s.work_queue.push_back((task, TaskBody::Jumble(seed)));
                }
                msg @ Message::JumbleResume { .. } => {
                    debug_assert_eq!(from, ranks::MASTER);
                    if let Some((task, body)) = TaskBody::from_message(&msg) {
                        s.work_queue.push_back((task, body));
                    }
                }
                msg @ Message::WalRound { .. } => {
                    // A worker streaming one committed round of its jumble:
                    // relay to the master, which owns the on-disk log. No
                    // dedup here — the coordinator's append is index-gated.
                    transport.send(ranks::MASTER, &msg)?;
                }
                Message::BaseTopology { base_id, newick } => {
                    // A new round base from the master: remember it for
                    // embedded fallbacks and relay it to every live worker.
                    // Per-link FIFO guarantees the base precedes any edit
                    // of the round on each worker's queue.
                    debug_assert_eq!(from, ranks::MASTER);
                    s.has_base.clear();
                    for rank in ranks::FIRST_WORKER..transport.size() {
                        if s.dead.contains(&rank) {
                            continue;
                        }
                        let relay = Message::BaseTopology {
                            base_id,
                            newick: newick.clone(),
                        };
                        if transport.send(rank, &relay).is_ok() {
                            s.has_base.insert(rank);
                        }
                    }
                    s.base = Some((base_id, newick));
                }
                Message::TreeEditTask {
                    task,
                    base_id,
                    edit,
                    ..
                } => {
                    debug_assert_eq!(from, ranks::MASTER);
                    s.work_queue.push_back((
                        task,
                        TaskBody::Edit {
                            base_id,
                            edit,
                            self_contained: false,
                        },
                    ));
                }
                msg @ (Message::TreeResult { .. } | Message::JumbleResult { .. }) => {
                    let (task, ln_likelihood, work_units) = match &msg {
                        Message::TreeResult {
                            task,
                            ln_likelihood,
                            work_units,
                            ..
                        }
                        | Message::JumbleResult {
                            task,
                            ln_likelihood,
                            work_units,
                            ..
                        } => (*task, *ln_likelihood, *work_units),
                        _ => unreachable!("outer pattern admits only results"),
                    };
                    // A worker that answers is demonstrably alive.
                    s.dead.remove(&from);
                    if s.delinquent.remove(&from) {
                        s.stats.recoveries += 1;
                        monitor(&transport, MonitorEvent::WorkerRecovered { worker: from });
                    }
                    if let Some(service_us) = s.accept_result(task) {
                        transport.send(ranks::MASTER, &msg)?;
                        s.stats.results_forwarded += 1;
                        monitor(
                            &transport,
                            MonitorEvent::Completed {
                                task,
                                worker: from,
                                ln_likelihood,
                                work_units,
                                service_us,
                            },
                        );
                    } else {
                        s.stats.duplicates_ignored += 1;
                    }
                    s.ready.push_back(from);
                }
                Message::WorkerReady => {
                    s.dead.remove(&from);
                    if s.delinquent.remove(&from) {
                        s.stats.recoveries += 1;
                        monitor(&transport, MonitorEvent::WorkerRecovered { worker: from });
                    }
                    // A worker announcing readiness without the current
                    // base is either fresh or a respawn: send the base now
                    // so its edit dispatches can go compact.
                    if !s.has_base.contains(&from) {
                        if let Some((base_id, newick)) = &s.base {
                            let relay = Message::BaseTopology {
                                base_id: *base_id,
                                newick: newick.clone(),
                            };
                            if transport.send(from, &relay).is_ok() {
                                s.has_base.insert(from);
                            }
                        }
                    }
                    // A respawned worker may re-announce while already
                    // queued; one slot per worker keeps dispatch fair.
                    if !s.ready.contains(&from) {
                        s.ready.push_back(from);
                    }
                }
                Message::PeerDown { rank } => {
                    // Synthesized by the transport (the TCP hub); on the
                    // threaded transport the failed-send path plays this
                    // role. Eagerly requeue whatever the lost rank held.
                    let requeued = s.peer_down(rank, &obs);
                    for (task, quarantined) in requeued {
                        monitor(
                            &transport,
                            MonitorEvent::WorkerTimedOut { worker: rank, task },
                        );
                        if let Some(q) = quarantined {
                            transport.send(ranks::MASTER, &q)?;
                        }
                    }
                }
                Message::PeerUp { rank } => {
                    // The rank rejoined (reconnect or supervisor respawn).
                    // It will announce `WorkerReady` once it has rebuilt
                    // its engine; until then just stop treating it as dead.
                    s.dead.remove(&rank);
                    if s.delinquent.remove(&rank) {
                        s.stats.recoveries += 1;
                        monitor(&transport, MonitorEvent::WorkerRecovered { worker: rank });
                    }
                }
                Message::Shutdown => {
                    debug_assert_eq!(from, ranks::MASTER);
                    for rank in ranks::FIRST_WORKER..transport.size() {
                        let _ = transport.send(rank, &Message::Shutdown);
                    }
                    if has_monitor {
                        let _ = transport.send(ranks::MONITOR, &Message::Shutdown);
                    }
                    return Ok(s.stats);
                }
                other => {
                    debug_assert!(false, "foreman got unexpected {}", other.kind());
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_comm::threads::ThreadUniverse;
    use std::thread;

    /// Stand up a foreman with scripted master and worker behaviour.
    fn universe(n: usize) -> Vec<fdml_comm::threads::ThreadTransport> {
        ThreadUniverse::create(n)
    }

    /// Receive, skipping liveness probes: a scripted worker that stalls
    /// past the timeout accumulates `Ping`s in its queue.
    fn recv_skipping_pings(t: &fdml_comm::threads::ThreadTransport) -> Message {
        loop {
            let (_, msg) = t.recv().unwrap();
            if msg != Message::Ping {
                return msg;
            }
        }
    }

    #[test]
    fn dispatches_to_ready_workers_and_forwards_results() {
        let mut ends = universe(4);
        let worker = ends.remove(3);
        let foreman_end = ends.remove(1);
        let master = ends.remove(0);
        let f = thread::spawn(move || {
            run_foreman(foreman_end, Duration::from_secs(5), false, Obs::disabled()).unwrap()
        });
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
    fn timeout_requeues_to_other_worker_and_recovers_delinquent() {
        let mut ends = universe(5);
        let w2 = ends.remove(4);
        let w1 = ends.remove(3);
        let foreman_end = ends.remove(1);
        let master = ends.remove(0);
        let f = thread::spawn(move || {
            run_foreman(
                foreman_end,
                Duration::from_millis(60),
                false,
                Obs::disabled(),
            )
            .unwrap()
        });
        w1.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        master
            .send(
                ranks::FOREMAN,
                &Message::TreeTask {
                    task: 7,
                    newick: "(a,b);".into(),
                },
            )
            .unwrap();
        // w1 receives the task but stalls past the timeout.
        let (_, msg) = w1.recv().unwrap();
        assert!(matches!(msg, Message::TreeTask { task: 7, .. }));
        thread::sleep(Duration::from_millis(120));
        // Second worker comes online; the re-queued task goes to it.
        w2.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        let (_, msg) = w2.recv().unwrap();
        assert!(
            matches!(msg, Message::TreeTask { task: 7, .. }),
            "requeued task must reach w2"
        );
        w2.send(
            ranks::FOREMAN,
            &Message::TreeResult {
                task: 7,
                newick: "(a:1,b:1);".into(),
                ln_likelihood: -5.0,
                work_units: 2,
            },
        )
        .unwrap();
        let (_, msg) = master.recv().unwrap();
        assert!(matches!(msg, Message::TreeResult { task: 7, .. }));
        // The delinquent worker answers late: ignored as duplicate, but the
        // worker is recovered and re-admitted to the ready queue.
        w1.send(
            ranks::FOREMAN,
            &Message::TreeResult {
                task: 7,
                newick: "(a:2,b:2);".into(),
                ln_likelihood: -6.0,
                work_units: 2,
            },
        )
        .unwrap();
        // Two more tasks: the ready queue now holds [w2, w1], so task 8
        // goes to w2 and task 9 to the recovered w1. Both reply promptly so
        // no further timeout can fire.
        for t in [8u64, 9] {
            master
                .send(
                    ranks::FOREMAN,
                    &Message::TreeTask {
                        task: t,
                        newick: "(a,b);".into(),
                    },
                )
                .unwrap();
        }
        for w in [&w2, &w1] {
            let msg = recv_skipping_pings(w);
            let Message::TreeTask { task, .. } = msg else {
                panic!("expected task")
            };
            assert!(task == 8 || task == 9);
            w.send(
                ranks::FOREMAN,
                &Message::TreeResult {
                    task,
                    newick: "(a:1,b:1);".into(),
                    ln_likelihood: -4.0,
                    work_units: 1,
                },
            )
            .unwrap();
        }
        // Master sees results for tasks 8 and 9.
        for _ in 0..2 {
            let (_, msg) = master.recv().unwrap();
            assert!(matches!(msg, Message::TreeResult { .. }));
        }
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        let stats = f.join().unwrap();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.duplicates_ignored, 1);
        assert_eq!(stats.results_forwarded, 3);
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
        let f = thread::spawn(move || {
            run_foreman(foreman_end, Duration::from_secs(60), false, Obs::disabled()).unwrap()
        });
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
        let f = thread::spawn(move || {
            run_foreman(foreman_end, Duration::from_secs(5), false, Obs::disabled()).unwrap()
        });
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
        let f = thread::spawn(move || {
            run_foreman(foreman_end, Duration::from_secs(5), true, Obs::disabled()).unwrap()
        });
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
    fn poison_task_is_quarantined_after_distinct_worker_failures() {
        use fdml_comm::message::TaskPayload;
        // Three workers; a short timeout so each "failure" is quick.
        let mut ends = universe(6);
        let w3 = ends.remove(5);
        let w2 = ends.remove(4);
        let w1 = ends.remove(3);
        let foreman_end = ends.remove(1);
        let master = ends.remove(0);
        let f = thread::spawn(move || {
            run_foreman(
                foreman_end,
                Duration::from_millis(40),
                false,
                Obs::disabled(),
            )
            .unwrap()
        });
        master
            .send(
                ranks::FOREMAN,
                &Message::TreeTask {
                    task: 13,
                    newick: "(poison);".into(),
                },
            )
            .unwrap();
        // Each worker in turn announces ready, receives the poison task,
        // and goes silent past the timeout — the serial-fleet-killer
        // scenario the quarantine budget exists for.
        for w in [&w1, &w2, &w3] {
            w.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
            let (_, msg) = w.recv().unwrap();
            assert!(matches!(msg, Message::TreeTask { task: 13, .. }));
            // Not answering; the foreman's timeout attributes a failure.
        }
        // After the third distinct failure the master gets the task back.
        let (_, msg) = master.recv().unwrap();
        match msg {
            Message::Quarantined {
                task,
                failures,
                payload,
            } => {
                assert_eq!(task, 13);
                assert_eq!(failures, QUARANTINE_BUDGET);
                assert_eq!(
                    payload,
                    TaskPayload::Tree {
                        newick: "(poison);".into()
                    }
                );
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
        // A late answer from a failed worker is a plain duplicate.
        w1.send(
            ranks::FOREMAN,
            &Message::TreeResult {
                task: 13,
                newick: "(poison:1);".into(),
                ln_likelihood: -1.0,
                work_units: 1,
            },
        )
        .unwrap();
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        let stats = f.join().unwrap();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.timeouts, QUARANTINE_BUDGET);
        assert_eq!(stats.duplicates_ignored, 1);
        assert_eq!(stats.results_forwarded, 0);
    }

    #[test]
    fn peer_down_requeues_eagerly_and_peer_up_readmits() {
        let mut ends = universe(5);
        let w2 = ends.remove(4);
        let w1 = ends.remove(3);
        let foreman_end = ends.remove(1);
        let master = ends.remove(0);
        // Long timeout: only the PeerDown path can requeue in time.
        let f = thread::spawn(move || {
            run_foreman(foreman_end, Duration::from_secs(60), false, Obs::disabled()).unwrap()
        });
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
        let f = thread::spawn(move || {
            run_foreman(foreman_end, Duration::from_secs(60), false, Obs::disabled()).unwrap()
        });
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

    #[test]
    fn sched_books_each_task_once_and_sweeps_only_the_overdue() {
        let tree = || TaskBody::Tree("(a,b);".into());
        let mut s = Sched::default();
        let start = Instant::now();
        for (task, worker) in [(1u64, 3usize), (2, 4)] {
            s.in_flight.insert(
                task,
                InFlight {
                    worker,
                    body: tree(),
                    dispatched_at: start,
                },
            );
        }
        s.work_queue.push_back((3, tree()));
        s.work_queue.push_back((4, tree()));
        s.ready.push_back(4);

        // First answers: in flight, and queued (requeued while its first
        // worker was still computing). Both leave their container.
        assert!(s.accept_result(1).is_some());
        assert_eq!(s.accept_result(3), Some(0));
        assert!(!s.in_flight.contains_key(&1));
        assert_eq!(s.work_queue.len(), 1);
        assert_eq!(s.work_queue[0].0, 4);
        // Late duplicates and answers to tasks never seen are refused.
        assert_eq!(s.accept_result(1), None);
        assert_eq!(s.accept_result(3), None);
        assert_eq!(s.accept_result(99), None);

        // Nothing is overdue inside the timeout; past it, task 2's holder
        // turns delinquent and leaves the ready queue.
        let timeout = Duration::from_secs(5);
        assert!(s.sweep_timeouts(start + timeout, timeout).is_empty());
        let swept = s.sweep_timeouts(start + timeout + Duration::from_millis(1), timeout);
        assert_eq!(swept.len(), 1);
        assert_eq!((swept[0].0, swept[0].1.worker), (2, 4));
        assert!(s.in_flight.is_empty());
        assert!(s.delinquent.contains(&4));
        assert!(s.ready.is_empty());
        assert_eq!(s.stats.timeouts, 1);
    }
}
