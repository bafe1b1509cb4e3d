//! The scheduler core (paper §2.2): the foreman's ready queue, work queue,
//! timeout → re-dispatch and late-answer re-admission as one pure state
//! machine.
//!
//! [`Sched`] is told the time and one [`Event`] and appends the [`Action`]s
//! they call for. It never receives, sends, sleeps or reads a clock —
//! [`crate::foreman::run_scheduler`] is the only code that does — so every
//! rung of the self-healing ladder runs under a virtual clock in the tests
//! below, and a fix to it is made once.
//!
//! [`Sched::flat`] is the paper's foreman: the master pushes tasks, every
//! result goes back to it in a frame of its own, the workers are every rank
//! from [`ranks::FIRST_WORKER`] up, and the master's `Shutdown` cascades to
//! them. Every deployment runs it, the job daemon too: its jumbles of many
//! jobs (`JobTask`) queue, requeue and dedup like a farm's, under a timeout
//! that never fires (`Duration::MAX`), so only a dropped link takes one back.
//!
//! A worker holds at most [`PIPELINE_DEPTH`] tasks: the one it computes
//! and, while the queue is long, the next one, so that it starts that task
//! the moment it answers instead of after a round trip through the foreman.

use crate::foreman::{invariant, ForemanError, ForemanStats, QUARANTINE_BUDGET};
use crate::worker::{jumble_request, ranks};
use fdml_comm::message::{Message, MonitorEvent, TaskPayload, TreeEdit};
use fdml_comm::transport::{CommError, Rank};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// What a scheduling machine is told.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A message arrived from a rank.
    Msg(Rank, Message),
    /// Everything that had arrived has been absorbed: act on it. The shell
    /// sends one after each drain of its queue and at least once per tick
    /// period, so periodic work (sweep, probes) rides on it too.
    Tick,
    /// A [`Action::Send`] to this rank found the link dead — the threaded
    /// runtime's death certificate (the TCP hub says `PeerDown` instead).
    Undeliverable(Rank),
}

/// What a scheduling machine asks its shell to do.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    /// Send a message to a rank. Sends are optimistic: the machine books
    /// the message as delivered and hears [`Event::Undeliverable`] if not.
    Send(Rank, Message),
    /// Record an observability event.
    Emit(fdml_obs::Event),
}

/// How many tasks a worker may hold at once. A worker is given a second
/// task only when every live, non-delinquent worker already holds one, at
/// least as many tasks as there are such workers stay queued after it, and
/// the task is round-scoped (a candidate tree or a chunk of edits — never a
/// whole jumble, whose hand-off is nothing next to its search and which
/// would stall a farm's tail behind a long sibling). The second task's
/// timeout runs from the moment the task ahead of it is answered, and a
/// worker that turns delinquent or dead gives back everything it holds. A
/// delinquent worker is handed nothing new while it still computes what it
/// gave back.
const PIPELINE_DEPTH: usize = 2;

/// The period of the timeout sweep, and the longest the shell waits for a
/// message before the next `Tick`.
pub(crate) fn tick_of(worker_timeout: Duration) -> Duration {
    (worker_timeout / 4)
        .max(Duration::from_millis(1))
        .min(Duration::from_millis(50))
}

/// What a queued task asks a worker to do: evaluate one candidate tree,
/// score a chunk of edits, or run a whole jumble. The scheduling (ready
/// queue, timeouts, eager requeue, duplicate dedup) is identical for all —
/// only the dispatched message differs.
#[derive(Debug, Clone)]
pub(crate) enum TaskBody {
    /// One candidate tree as Newick text.
    Tree(String),
    /// One whole stepwise-addition search, kept as the master sent it: a
    /// `JobTask`, or one resumed from (and streaming back to) a
    /// write-ahead log as a `JumbleResume`.
    /// Requeue-safe: a second worker replays the same prefix and, by
    /// determinism, re-streams the identical rounds, which the master's
    /// index-gated appends deduplicate.
    Jumble(Message),
    /// A chunk of candidate edits against the round's broadcast base
    /// topology: scheduled, timed out, requeued and quarantined as one
    /// task.
    Edit {
        /// Generation id of the base the edits apply to.
        base_id: u64,
        /// The edits themselves.
        edits: Vec<TreeEdit>,
        /// Force the dispatched message to embed the base text. Set when
        /// the task is requeued after a failure: the next worker to take
        /// it may be a fresh respawn with no cached base, and a
        /// self-contained dispatch is the rung of the fallback ladder that
        /// keeps the self-healing invariants independent of cache state.
        self_contained: bool,
    },
}

impl TaskBody {
    /// Turn a task message from the master into its queue form — the
    /// inverse of [`TaskBody::to_message`]. `None` for non-task messages.
    pub(crate) fn from_message(msg: Message) -> Option<(u64, TaskBody)> {
        match msg {
            Message::TreeTask { task, newick } => Some((task, TaskBody::Tree(newick))),
            msg @ (Message::JobTask { .. } | Message::JumbleResume { .. }) => {
                Some((jumble_request(&msg).1, TaskBody::Jumble(msg)))
            }
            Message::EditChunk {
                task,
                base_id,
                edits,
                base_newick,
            } => Some((
                task,
                TaskBody::Edit {
                    base_id,
                    edits,
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
            // Its task id is the one it was queued under.
            TaskBody::Jumble(msg) => msg.clone(),
            TaskBody::Edit { base_id, edits, .. } => Message::EditChunk {
                task,
                base_id: *base_id,
                edits: edits.clone(),
                base_newick: base_text.map(str::to_owned),
            },
        }
    }

    /// Force the self-contained dispatch form (edits embed their base from
    /// here on). Identity for non-edit bodies.
    pub(crate) fn self_contained(self) -> TaskBody {
        match self {
            TaskBody::Edit { base_id, edits, .. } => TaskBody::Edit {
                base_id,
                edits,
                self_contained: true,
            },
            other => other,
        }
    }

    /// Part of a round: worth queueing behind a worker's current task.
    fn round_scoped(&self) -> bool {
        matches!(self, TaskBody::Tree(_) | TaskBody::Edit { .. })
    }

    fn into_payload(self) -> TaskPayload {
        match self {
            TaskBody::Tree(newick) => TaskPayload::Tree { newick },
            // The master re-runs a quarantined jumble locally against its
            // own WAL copy; the streamed prefix need not travel back.
            TaskBody::Jumble(msg) => TaskPayload::Jumble {
                seed: jumble_request(&msg).2,
            },
            TaskBody::Edit { base_id, edits, .. } => TaskPayload::TreeEdit { base_id, edits },
        }
    }
}

/// The task a worker's answer is for, with the likelihood and work it
/// reports — for a chunk of edits its best score and its summed work (a
/// worker refuses an empty chunk, so there is always a best); `None` for
/// anything but a result.
pub(crate) fn result_of(msg: &Message) -> Option<(u64, f64, u64)> {
    match msg {
        Message::EditScores { task, scores } => Some((
            *task,
            scores
                .iter()
                .map(|s| s.ln_likelihood)
                .fold(f64::NEG_INFINITY, f64::max),
            scores.iter().map(|s| s.work_units).sum(),
        )),
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
        } => Some((*task, *ln_likelihood, *work_units)),
        _ => None,
    }
}

/// The tasks a worker owes. They are settled by its answers, by its link
/// dying, or by its answer to a probe sent after they were taken back: a
/// worker answers a probe only after everything sent to it before.
#[derive(Default)]
struct Owed {
    tasks: HashSet<u64>,
    /// Probes sent to the worker when its tasks were last taken back.
    probes_sent: u64,
}

/// Probes sent to a worker and `WorkerReady`s heard back. Answers come in
/// the order the probes went, so the `n`th answer is to the `n`th probe or
/// — when one was lost — a later one. A `WorkerReady` beyond the probes
/// sent is an unprompted announcement and counts as no answer.
#[derive(Default)]
struct Probes {
    sent: u64,
    answered: u64,
}

struct InFlight {
    worker: Rank,
    body: TaskBody,
    /// When the worker began on it: its dispatch, or — for a task queued
    /// behind another on the same worker — the answer to that task. `None`
    /// while it waits, so its timeout clock has not started.
    started: Option<Instant>,
}

/// The scheduling machine: configuration, ledger and timers.
#[derive(Default)]
pub(crate) struct Sched {
    /// A worker holding a task longer than this is marked delinquent and
    /// the task goes to a different worker; if the delinquent worker
    /// answers later it is re-admitted (paper §2.2).
    worker_timeout: Duration,
    /// Whether a monitor sits at rank 2 to hear `Dispatched` / `Completed`.
    has_monitor: bool,
    /// The ranks scheduled onto: every worker rank of the universe.
    members: BTreeSet<Rank>,
    work_queue: VecDeque<(u64, TaskBody)>,
    ready: VecDeque<Rank>,
    in_flight: HashMap<u64, InFlight>,
    delinquent: BTreeSet<Rank>,
    /// Workers whose link is known dead (a bounced send, or a `PeerDown`).
    /// Distinct from `delinquent`: a delinquent worker may still answer; a
    /// dead one cannot until it is heard from again.
    dead: HashSet<Rank>,
    completed: HashSet<u64>,
    /// Per-task set of distinct workers that failed it, for the
    /// poison-task quarantine budget.
    failures: HashMap<u64, HashSet<Rank>>,
    /// Per worker, the tasks taken back from it that it still has: it
    /// computes them anyway, in order, ahead of anything sent to it later.
    /// A worker owing any stays delinquent, so one slower than the timeout
    /// is not handed new work to time out on behind its own backlog.
    owed: HashMap<Rank, Owed>,
    /// Per worker, the probes sent to it and answered, while its link
    /// lives.
    probes: HashMap<Rank, Probes>,
    /// The current base topology broadcast (generation id + Newick text),
    /// kept so edit dispatches can fall back to embedding the base for
    /// workers that missed the broadcast.
    base: Option<(u64, String)>,
    /// Workers known to hold the current base broadcast. A rank leaves the
    /// set when its link dies (a respawn has an empty cache) and rejoins
    /// when the base is relayed to it.
    has_base: HashSet<Rank>,
    next_sweep: Option<Instant>,
    /// When each delinquent worker is probed next; `None`: never again (a
    /// timeout that never fires has no period to probe by).
    next_ping: HashMap<Rank, Option<Instant>>,
    last_depth: Option<(usize, usize, usize)>,
    aborted: bool,
    stats: ForemanStats,
}

impl Sched {
    /// The paper's foreman over a universe of `size` ranks.
    pub(crate) fn flat(size: usize, worker_timeout: Duration, has_monitor: bool) -> Sched {
        Sched {
            members: (ranks::FIRST_WORKER..size).collect(),
            worker_timeout,
            has_monitor,
            ..Sched::default()
        }
    }

    /// Whether `worker` holds a task in flight or owes one taken back.
    fn busy(&self, worker: Rank) -> bool {
        self.owed.contains_key(&worker) || self.in_flight.values().any(|held| held.worker == worker)
    }

    /// Tasks held, queued or in flight.
    fn outstanding(&self) -> usize {
        self.work_queue.len() + self.in_flight.len()
    }

    /// The text of base `base_id`, if that is the base currently held.
    fn base_text(&self, base_id: u64) -> Option<&str> {
        self.base
            .as_ref()
            .filter(|(id, _)| *id == base_id)
            .map(|(_, text)| text.as_str())
    }

    fn monitor(&self, ev: MonitorEvent, out: &mut Vec<Action>) {
        if self.has_monitor {
            out.push(Action::Send(ranks::MONITOR, Message::Monitor(ev)));
        }
    }

    /// One message in. Never acts on the queues — that waits for the
    /// `Tick` — but answers what must be answered at once.
    fn absorb(&mut self, now: Instant, from: Rank, msg: Message, out: &mut Vec<Action>) {
        if let Some((task, ln_likelihood, work_units)) = result_of(&msg) {
            // A worker that answers is demonstrably alive, and back in the
            // rotation once it owes nothing.
            if let Some(owed) = self.owed.get_mut(&from) {
                owed.tasks.remove(&task);
                if owed.tasks.is_empty() {
                    self.owed.remove(&from);
                }
            }
            if !self.owed.contains_key(&from) {
                self.readmit(from, out);
            }
            if let Some(service_us) = self.accept_result(task, now) {
                self.stats.results_forwarded += 1;
                out.push(Action::Send(ranks::MASTER, msg));
                let worker = from;
                self.monitor(
                    MonitorEvent::Completed {
                        task,
                        worker,
                        ln_likelihood,
                        work_units,
                        service_us,
                    },
                    out,
                );
            } else {
                self.stats.duplicates_ignored += 1;
            }
            // A worker still holding or owing a task is busy, not ready.
            if !self.busy(from) {
                self.ready.push_back(from);
            }
            return;
        }
        match msg {
            Message::TreeTask { .. }
            | Message::JobTask { .. }
            | Message::JumbleResume { .. }
            | Message::EditChunk { .. } => {
                debug_assert_eq!(from, ranks::MASTER);
                // A chunk that embeds its base doubles as a base install:
                // its dispatch, and later compact tasks of the round, rely
                // on it.
                if let Message::EditChunk {
                    base_id,
                    base_newick: Some(text),
                    ..
                } = &msg
                {
                    if self.base_text(*base_id).is_none() {
                        self.has_base.clear();
                        self.base = Some((*base_id, text.clone()));
                    }
                }
                if let Some(queued) = TaskBody::from_message(msg) {
                    self.work_queue.push_back(queued);
                }
            }
            // A worker streaming one committed round of its jumble: relay
            // to the master, which owns the on-disk log. No dedup here (the
            // coordinator's append is index-gated), and per-link FIFO keeps
            // it ahead of the jumble's result.
            msg @ Message::WalRound { .. } => out.push(Action::Send(ranks::MASTER, msg)),
            Message::BaseTopology { base_id, newick } => {
                // A new round base: remember it for embedded fallbacks and
                // relay it to every live member. Per-link FIFO guarantees
                // the base precedes any edit of the round on each worker's
                // queue.
                self.has_base.clear();
                for &rank in &self.members {
                    if !self.dead.contains(&rank) {
                        let newick = newick.clone();
                        out.push(Action::Send(
                            rank,
                            Message::BaseTopology { base_id, newick },
                        ));
                        self.has_base.insert(rank);
                    }
                }
                self.base = Some((base_id, newick));
            }
            Message::WorkerReady => {
                let probes = self.probes.entry(from).or_default();
                probes.answered = (probes.answered + 1).min(probes.sent);
                let answered = probes.answered;
                if self
                    .owed
                    .get(&from)
                    .is_some_and(|owed| answered > owed.probes_sent)
                {
                    self.owed.remove(&from);
                }
                if !self.owed.contains_key(&from) {
                    self.readmit(from, out);
                }
                // A worker announcing readiness without the current base
                // is either fresh or a respawn: send the base now so its
                // edit dispatches can go compact.
                if !self.has_base.contains(&from) {
                    if let Some((base_id, newick)) = self.base.clone() {
                        out.push(Action::Send(
                            from,
                            Message::BaseTopology { base_id, newick },
                        ));
                        self.has_base.insert(from);
                    }
                }
                // A respawned worker may re-announce while already queued;
                // one slot per worker keeps dispatch fair. A probe answered
                // while the worker holds a task does not make it ready: its
                // answer to that task will.
                if !self.ready.contains(&from) && !self.busy(from) {
                    self.ready.push_back(from);
                }
            }
            // Synthesized by the TCP hub; on the threaded runtime
            // `Undeliverable` plays this role.
            Message::PeerDown { rank } => self.peer_down(rank, out),
            // The rank rejoined (reconnect or supervisor respawn). It will
            // announce `WorkerReady` once it has rebuilt its engine; until
            // then just stop treating it as dead.
            Message::PeerUp { rank } => self.readmit(rank, out),
            other => debug_assert!(false, "scheduler got unexpected {}", other.kind()),
        }
    }

    /// The `Tick`: act on everything absorbed so far.
    fn act(&mut self, now: Instant, out: &mut Vec<Action>) -> Result<(), ForemanError> {
        // Fault tolerance: re-queue trees held past the timeout. The sweep
        // scans every in-flight entry, so it runs once per tick period,
        // not per `Tick`.
        if self.next_sweep.is_none_or(|due| now >= due) {
            self.next_sweep = Some(now + tick_of(self.worker_timeout));
            let timeout = self.worker_timeout;
            let overdue = |held: &InFlight| {
                held.started
                    .is_some_and(|started| now.duration_since(started) > timeout)
            };
            self.take_back(overdue, false, out);
        }

        // Liveness probe: a delinquent worker receives no new work, so a
        // silently dead one would never be rediscovered — and without it
        // the all-dead check below could never trip on the threaded
        // runtime. While work is outstanding, ping each delinquent,
        // not-known-dead worker once per timeout period. An idle live
        // worker answers `WorkerReady` and is re-admitted; a dropped
        // thread endpoint bounces the send (TCP peers get `PeerDown` from
        // the hub).
        if self.outstanding() > 0 {
            for &worker in &self.delinquent {
                let next = self.next_ping.get(&worker);
                let due = next.is_none_or(|next| next.is_some_and(|due| now >= due));
                if due && !self.dead.contains(&worker) {
                    let next = now.checked_add(self.worker_timeout);
                    self.next_ping.insert(worker, next);
                    self.probes.entry(worker).or_default().sent += 1;
                    out.push(Action::Send(worker, Message::Ping));
                }
            }
        }

        // Dispatch while both queues are non-empty.
        while !self.work_queue.is_empty() && !self.ready.is_empty() {
            let worker = invariant(self.ready.pop_front(), "ready queue emptied mid-dispatch")?;
            if self.delinquent.contains(&worker) {
                continue;
            }
            let (task, body) = invariant(
                self.work_queue.pop_front(),
                "work queue emptied mid-dispatch",
            )?;
            self.dispatch(worker, task, body, Some(now), out);
        }
        self.pipeline(out)?;

        // The run cannot heal if every member's link is dead while work is
        // outstanding: say so to the master rather than spinning forever.
        // The master surfaces a typed error and leaves its round log valid.
        // The machine keeps running — a worker may come back — and says so
        // again if it strands again.
        let stranded = !self.members.is_empty()
            && self.members.iter().all(|w| self.dead.contains(w))
            && self.outstanding() > 0;
        if stranded && !self.aborted {
            let reason = format!(
                "all {} workers are dead with {} tasks outstanding",
                self.members.len(),
                self.outstanding()
            );
            out.push(Action::Send(ranks::MASTER, Message::Abort { reason }));
        }
        self.aborted = stranded;

        // One queue-depth sample per state change (paper §3: "queue-length
        // data from the foreman").
        let (work, ready, in_flight) = (
            self.work_queue.len(),
            self.ready.len(),
            self.in_flight.len(),
        );
        if self.last_depth != Some((work, ready, in_flight)) {
            self.last_depth = Some((work, ready, in_flight));
            out.push(Action::Emit(fdml_obs::Event::QueueDepth {
                work,
                ready,
                in_flight,
            }));
        }
        Ok(())
    }

    /// Send `task` to `worker` and book it in flight. `started` is `None`
    /// when it queues behind the worker's current task.
    fn dispatch(
        &mut self,
        worker: Rank,
        task: u64,
        body: TaskBody,
        started: Option<Instant>,
        out: &mut Vec<Action>,
    ) {
        // Fallback ladder for edits: embed the base text when the task was
        // requeued (self-contained) or this worker missed the broadcast;
        // dispatch the compact form otherwise.
        let embed = match &body {
            TaskBody::Edit {
                base_id,
                self_contained,
                ..
            } if *self_contained || !self.has_base.contains(&worker) => self.base_text(*base_id),
            _ => None,
        };
        let embedded = embed.is_some();
        out.push(Action::Send(worker, body.to_message(task, embed)));
        if embedded {
            // The embedded base is installed by the worker on receipt, so
            // its later tasks in this round can go compact again.
            self.has_base.insert(worker);
        }
        self.in_flight.insert(
            task,
            InFlight {
                worker,
                body,
                started,
            },
        );
        self.stats.dispatched += 1;
        self.monitor(MonitorEvent::Dispatched { task, worker }, out);
    }

    /// Give busy workers their next task ahead of time, under the rule of
    /// [`PIPELINE_DEPTH`]; the workers whose current task began earliest
    /// are served first.
    fn pipeline(&mut self, out: &mut Vec<Action>) -> Result<(), ForemanError> {
        let live: Vec<Rank> = self
            .members
            .iter()
            .filter(|w| !self.dead.contains(w) && !self.delinquent.contains(w))
            .copied()
            .collect();
        if self.work_queue.len() <= live.len() {
            return Ok(());
        }
        let mut held: HashMap<Rank, (usize, Option<Instant>)> = HashMap::new();
        for f in self.in_flight.values() {
            let (count, started) = held.entry(f.worker).or_default();
            *count += 1;
            *started = (*started).max(f.started);
        }
        if live.iter().any(|w| !held.contains_key(w)) {
            return Ok(());
        }
        let mut next: Vec<(Option<Instant>, Rank)> = live
            .iter()
            .map(|w| (held[w], *w))
            .filter(|&((count, _), _)| count < PIPELINE_DEPTH)
            .map(|((_, started), w)| (started, w))
            .collect();
        next.sort_unstable();
        for (_, worker) in next {
            let round_scoped = self
                .work_queue
                .front()
                .is_some_and(|(_, body)| body.round_scoped());
            if self.work_queue.len() <= live.len() || !round_scoped {
                break;
            }
            let (task, body) = invariant(
                self.work_queue.pop_front(),
                "work queue emptied mid-pipeline",
            )?;
            self.dispatch(worker, task, body, None, out);
        }
        Ok(())
    }

    /// Take the tasks `lost` picks out of flight, with everything else
    /// their holders hold, in task order. Each holder turns delinquent and
    /// leaves the ready queue. A task its holder had begun counts as that
    /// worker's failure; one still waiting behind it does not. The task is
    /// requeued (`front`: at once, ahead of the rest) or — once
    /// [`QUARANTINE_BUDGET`] distinct workers have failed it — quarantined
    /// and handed to the master.
    fn take_back(&mut self, lost: impl Fn(&InFlight) -> bool, front: bool, out: &mut Vec<Action>) {
        let holders: BTreeSet<Rank> = self
            .in_flight
            .values()
            .filter(|held| lost(held))
            .map(|held| held.worker)
            .collect();
        let mut tasks: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, held)| holders.contains(&held.worker))
            .map(|(&task, _)| task)
            .collect();
        tasks.sort_unstable();
        if front {
            tasks.reverse();
        }
        for task in tasks {
            let Some(InFlight {
                worker,
                body,
                started,
            }) = self.in_flight.remove(&task)
            else {
                continue;
            };
            self.delinquent.insert(worker);
            self.ready.retain(|&w| w != worker);
            let owed = self.owed.entry(worker).or_default();
            owed.tasks.insert(task);
            owed.probes_sent = self.probes.get(&worker).map_or(0, |p| p.sent);
            // A requeued edit must be scoreable by any worker, including a
            // fresh respawn that has no cached base: force the
            // self-contained dispatch form from here on.
            let body = body.self_contained();
            if started.is_none() {
                self.requeue(task, body, front);
                continue;
            }
            self.stats.timeouts += 1;
            self.monitor(MonitorEvent::WorkerTimedOut { worker, task }, out);
            let failed = self.failures.entry(task).or_default();
            failed.insert(worker);
            let failures = failed.len() as u64;
            if failures >= QUARANTINE_BUDGET {
                // The task has now serially killed (or stalled) several
                // different workers: stop feeding it to the fleet. Marking
                // it completed makes any late answers plain duplicates.
                self.failures.remove(&task);
                self.completed.insert(task);
                self.stats.quarantined += 1;
                out.push(Action::Emit(fdml_obs::Event::TaskQuarantined {
                    task,
                    failures,
                }));
                let payload = body.into_payload();
                out.push(Action::Send(
                    ranks::MASTER,
                    Message::Quarantined {
                        task,
                        failures,
                        payload,
                    },
                ));
            } else {
                self.requeue(task, body, front);
            }
        }
    }

    fn requeue(&mut self, task: u64, body: TaskBody, front: bool) {
        if front {
            self.work_queue.push_front((task, body));
        } else {
            self.work_queue.push_back((task, body));
        }
    }

    /// Book a worker's answer for `task`. `Some(service_us)` when it is the
    /// first answer (latency from when its worker began on it; 0 when the
    /// task was not in flight), `None` for a late duplicate. A task is in flight or queued,
    /// never both, so the queue is searched only for the rare answer to a
    /// task that was requeued while its first worker was still computing.
    fn accept_result(&mut self, task: u64, now: Instant) -> Option<u64> {
        if self.completed.contains(&task) {
            return None;
        }
        let service_us = match self.in_flight.remove(&task) {
            Some(f) => {
                // Whatever waited behind it on that worker starts now.
                if let Some(next) = self.in_flight.values_mut().find(|n| n.worker == f.worker) {
                    next.started.get_or_insert(now);
                }
                f.started
                    .map_or(0, |started| now.duration_since(started).as_micros() as u64)
            }
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

    /// `worker` was heard from (or the hub saw it rejoin): it is neither
    /// dead nor delinquent any more.
    fn readmit(&mut self, worker: Rank, out: &mut Vec<Action>) {
        self.dead.remove(&worker);
        if self.delinquent.remove(&worker) {
            self.stats.recoveries += 1;
            self.monitor(MonitorEvent::WorkerRecovered { worker }, out);
        }
    }

    /// Declare `worker`'s link dead — the network analogue of a delinquent
    /// worker: bar it from dispatch and requeue everything it holds at
    /// once, instead of waiting out the timeout (paper §2.2's recovery
    /// path, triggered eagerly).
    fn peer_down(&mut self, worker: Rank, out: &mut Vec<Action>) {
        self.dead.insert(worker);
        self.delinquent.insert(worker);
        self.has_base.remove(&worker);
        self.ready.retain(|&w| w != worker);
        self.take_back(|held| held.worker == worker, true, out);
        // Whatever it had, probes too, went with the link.
        self.owed.remove(&worker);
        self.probes.remove(&worker);
    }

    /// Absorb `ev` at time `now`, appending what it calls for to `out`.
    /// `Break` means the machine was shut down.
    pub(crate) fn step(
        &mut self,
        now: Instant,
        ev: Event,
        out: &mut Vec<Action>,
    ) -> Result<ControlFlow<()>, ForemanError> {
        match ev {
            Event::Tick => self.act(now, out)?,
            // Without the master the machine has nobody to work for.
            Event::Undeliverable(ranks::MASTER) => {
                return Err(CommError::Disconnected(ranks::MASTER).into());
            }
            // A monitor that went away costs instrumentation only.
            Event::Undeliverable(ranks::MONITOR) => {}
            Event::Undeliverable(rank) => self.peer_down(rank, out),
            Event::Msg(from, Message::Shutdown) => {
                debug_assert_eq!(from, ranks::MASTER);
                for &rank in &self.members {
                    out.push(Action::Send(rank, Message::Shutdown));
                }
                if self.has_monitor {
                    out.push(Action::Send(ranks::MONITOR, Message::Shutdown));
                }
                return Ok(ControlFlow::Break(()));
            }
            Event::Msg(from, msg) => self.absorb(now, from, msg, out),
        }
        Ok(ControlFlow::Continue(()))
    }

    /// The counters so far.
    pub(crate) fn stats(&self) -> ForemanStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_comm::message::EditScore;

    const TIMEOUT: Duration = Duration::from_secs(10);
    const MASTER: Rank = ranks::MASTER;

    fn tree_task(task: u64) -> Message {
        Message::TreeTask {
            task,
            newick: format!("(t{task});"),
        }
    }

    fn tree_result(task: u64) -> Message {
        Message::TreeResult {
            task,
            newick: String::new(),
            ln_likelihood: -(task as f64),
            work_units: 1,
        }
    }

    /// A chunk of two edits.
    fn edit_task(task: u64, base_id: u64, base_newick: Option<&str>) -> Message {
        let edit = |b| TreeEdit::Insert {
            taxon: task as u32,
            a: 0,
            b,
        };
        Message::EditChunk {
            task,
            base_id,
            edits: vec![edit(1), edit(2)],
            base_newick: base_newick.map(str::to_owned),
        }
    }

    /// A worker's answer to [`edit_task`].
    fn edit_scores(task: u64) -> Message {
        let score = |ln_likelihood| EditScore {
            ln_likelihood,
            work_units: 3,
        };
        Message::EditScores {
            task,
            scores: vec![score(-20.0 - task as f64), score(-10.0 - task as f64)],
        }
    }

    fn base(base_id: u64, text: &str) -> Message {
        Message::BaseTopology {
            base_id,
            newick: text.to_owned(),
        }
    }

    /// Sends, in the order a machine asked for them.
    type Sends = Vec<(Rank, Message)>;

    /// One step of a machine that is not being shut down: the sends it
    /// asked for.
    fn feed(m: &mut Sched, now: Instant, ev: Event) -> Sends {
        let mut out = Vec::new();
        assert!(m.step(now, ev, &mut out).unwrap().is_continue());
        out.into_iter()
            .filter_map(|action| match action {
                Action::Send(to, msg) => Some((to, msg)),
                Action::Emit(_) => None,
            })
            .collect()
    }

    /// [`feed`], with the liveness probes left out.
    fn feed_sans_pings(m: &mut Sched, now: Instant, ev: Event) -> Sends {
        let mut sends = feed(m, now, ev);
        sends.retain(|(_, msg)| *msg != Message::Ping);
        sends
    }

    #[test]
    fn timeout_requeues_elsewhere_a_late_answer_readmits_and_distinct_failures_quarantine() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Ranks 3, 4 and 5 are the workers.
        let mut m = Sched::flat(6, TIMEOUT, false);
        feed(&mut m, at(0), Event::Msg(3, Message::WorkerReady));
        feed(&mut m, at(0), Event::Msg(MASTER, tree_task(7)));
        assert_eq!(feed(&mut m, at(0), Event::Tick), [(3, tree_task(7))]);

        // At the timeout exactly nothing is overdue; past it the task is
        // taken back, its holder probed, and — nobody else being ready —
        // left on the queue.
        assert_eq!(feed(&mut m, at(10_000), Event::Tick), []);
        assert_eq!(feed(&mut m, at(10_100), Event::Tick), [(3, Message::Ping)]);
        assert_eq!(m.stats().timeouts, 1);
        // It goes to a different worker as soon as one turns up, and the
        // probe is not repeated inside the timeout period.
        feed(&mut m, at(10_200), Event::Msg(4, Message::WorkerReady));
        assert_eq!(feed(&mut m, at(10_200), Event::Tick), [(4, tree_task(7))]);
        assert_eq!(
            feed(&mut m, at(10_300), Event::Msg(4, tree_result(7))),
            [(MASTER, tree_result(7))]
        );
        // The delinquent worker answers late: a duplicate, not forwarded,
        // but the worker is back in the rotation behind the other one.
        assert_eq!(feed(&mut m, at(10_400), Event::Msg(3, tree_result(7))), []);
        assert_eq!(m.stats().duplicates_ignored, 1);
        assert_eq!(m.stats().recoveries, 1);
        for task in [8, 9] {
            feed(&mut m, at(10_500), Event::Msg(MASTER, tree_task(task)));
        }
        assert_eq!(
            feed(&mut m, at(10_500), Event::Tick),
            [(4, tree_task(8)), (3, tree_task(9))]
        );
        for (worker, task) in [(4, 8), (3, 9)] {
            feed(&mut m, at(10_600), Event::Msg(worker, tree_result(task)));
        }

        // A poison task stalls each worker in turn — the serial fleet
        // killer the quarantine budget exists for. Every sweep hands it to
        // the next worker in line; the third distinct failure hands it to
        // the master instead.
        feed(&mut m, at(10_600), Event::Msg(5, Message::WorkerReady));
        feed(&mut m, at(10_600), Event::Msg(MASTER, tree_task(13)));
        assert_eq!(feed(&mut m, at(10_600), Event::Tick), [(4, tree_task(13))]);
        assert_eq!(
            feed_sans_pings(&mut m, at(20_700), Event::Tick),
            [(3, tree_task(13))]
        );
        assert_eq!(
            feed_sans_pings(&mut m, at(30_800), Event::Tick),
            [(5, tree_task(13))]
        );
        let quarantined = Message::Quarantined {
            task: 13,
            failures: QUARANTINE_BUDGET,
            payload: TaskPayload::Tree {
                newick: "(t13);".into(),
            },
        };
        assert_eq!(
            feed_sans_pings(&mut m, at(40_900), Event::Tick),
            [(MASTER, quarantined)]
        );
        // A late answer from a failed worker is a plain duplicate.
        assert_eq!(feed(&mut m, at(41_000), Event::Msg(4, tree_result(13))), []);
        let stats = m.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.timeouts, 1 + QUARANTINE_BUDGET);
        assert_eq!(stats.duplicates_ignored, 2);
        assert_eq!(stats.results_forwarded, 3);
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn an_answer_is_booked_once_wherever_its_task_sits() {
        let t0 = Instant::now();
        let mut m = Sched::flat(5, TIMEOUT, false);
        feed(&mut m, t0, Event::Msg(3, Message::WorkerReady));
        feed(&mut m, t0, Event::Msg(MASTER, tree_task(1)));
        feed(&mut m, t0, Event::Tick);
        // Timed out and requeued with nobody to take it: the first
        // worker's answer finds the task on the queue, not in flight, and
        // is as good as any.
        let late = t0 + TIMEOUT + Duration::from_secs(1);
        feed(&mut m, late, Event::Tick);
        assert_eq!(m.work_queue.len(), 1);
        assert_eq!(
            feed(&mut m, late, Event::Msg(3, tree_result(1))),
            [(MASTER, tree_result(1))]
        );
        assert_eq!(m.outstanding(), 0);
        // A second answer, and an answer to a task never seen, are refused.
        assert_eq!(feed(&mut m, late, Event::Msg(3, tree_result(1))), []);
        assert_eq!(feed(&mut m, late, Event::Msg(3, tree_result(99))), []);
        assert_eq!(m.stats().results_forwarded, 1);
        assert_eq!(m.stats().duplicates_ignored, 2);
    }

    #[test]
    fn a_timed_out_chunk_is_requeued_self_contained_and_its_late_answer_is_a_duplicate() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut m = Sched::flat(5, TIMEOUT, true);
        let sends = |m: &mut Sched, now, ev| -> Sends {
            let mut all = feed(m, now, ev);
            all.retain(|(to, _)| *to != ranks::MONITOR);
            all
        };
        feed(&mut m, at(0), Event::Msg(3, Message::WorkerReady));
        feed(&mut m, at(0), Event::Msg(MASTER, base(1, "(base1);")));
        feed(&mut m, at(0), Event::Msg(MASTER, edit_task(7, 1, None)));
        // One chunk is one dispatch: one frame down, one `Dispatched`.
        assert_eq!(
            feed(&mut m, at(0), Event::Tick),
            [
                (3, edit_task(7, 1, None)),
                (
                    ranks::MONITOR,
                    Message::Monitor(MonitorEvent::Dispatched { task: 7, worker: 3 })
                )
            ]
        );
        assert_eq!(m.stats().dispatched, 1);
        // Worker 3 sits on it past the timeout; worker 4 turns up. The
        // whole chunk goes to worker 4 with the base embedded, although the
        // broadcast was relayed to it: whoever takes a requeued task need
        // not have seen any broadcast.
        assert_eq!(sends(&mut m, at(10_100), Event::Tick), [(3, Message::Ping)]);
        assert_eq!(
            sends(&mut m, at(10_200), Event::Msg(4, Message::WorkerReady)),
            []
        );
        assert_eq!(
            sends(&mut m, at(10_200), Event::Tick),
            [(4, edit_task(7, 1, Some("(base1);")))]
        );
        // Worker 4's answer goes up whole and is reported once, by the
        // chunk's best score and its summed work.
        assert_eq!(
            feed(&mut m, at(10_300), Event::Msg(4, edit_scores(7))),
            [
                (MASTER, edit_scores(7)),
                (
                    ranks::MONITOR,
                    Message::Monitor(MonitorEvent::Completed {
                        task: 7,
                        worker: 4,
                        ln_likelihood: -17.0,
                        work_units: 6,
                        service_us: 100_000,
                    })
                )
            ]
        );
        // The delinquent worker's late answer is a counted duplicate: not
        // forwarded, but the worker is back in the rotation.
        assert_eq!(sends(&mut m, at(10_400), Event::Msg(3, edit_scores(7))), []);
        let stats = m.stats();
        assert_eq!(stats.duplicates_ignored, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.dispatched, 2);
        assert_eq!(stats.results_forwarded, 1);
        assert_eq!(m.outstanding(), 0);

        // A chunk that fails QUARANTINE_BUDGET distinct workers goes to the
        // master with all of its edits.
        let mut m = Sched::flat(6, TIMEOUT, false);
        for worker in 3..6 {
            feed(&mut m, at(0), Event::Msg(worker, Message::WorkerReady));
        }
        feed(&mut m, at(0), Event::Msg(MASTER, base(1, "(base1);")));
        feed(&mut m, at(0), Event::Msg(MASTER, edit_task(8, 1, None)));
        feed(&mut m, at(0), Event::Tick);
        for round in 1..QUARANTINE_BUDGET {
            feed(&mut m, at(round * 10_100), Event::Tick);
        }
        let Message::EditChunk { edits, .. } = edit_task(8, 1, None) else {
            unreachable!()
        };
        assert_eq!(
            feed_sans_pings(&mut m, at(QUARANTINE_BUDGET * 10_100), Event::Tick),
            [(
                MASTER,
                Message::Quarantined {
                    task: 8,
                    failures: QUARANTINE_BUDGET,
                    payload: TaskPayload::TreeEdit { base_id: 1, edits },
                }
            )]
        );
    }

    #[test]
    fn an_edit_that_arrives_with_its_base_is_dispatched_with_it() {
        let t0 = Instant::now();
        let mut m = Sched::flat(4, TIMEOUT, false);
        feed(&mut m, t0, Event::Msg(3, Message::WorkerReady));
        // No broadcast ever reached this foreman: the embedded text is the
        // only copy of the base there is.
        let task = edit_task(1, 9, Some("(base9);"));
        feed(&mut m, t0, Event::Msg(MASTER, task.clone()));
        assert_eq!(feed(&mut m, t0, Event::Tick), [(3, task)]);
    }

    #[test]
    fn a_scripted_run_heals_every_fault_and_returns_each_result_in_its_own_frame() {
        // A fixed script of arrivals, answers, silences and link failures.
        let mut m = Sched::flat(5, TIMEOUT, false);
        let t0 = Instant::now();
        let script = [
            (0, Event::Msg(3, Message::WorkerReady)),
            (0, Event::Msg(4, Message::WorkerReady)),
            (0, Event::Msg(MASTER, base(1, "(base1);"))),
            (0, Event::Msg(MASTER, edit_task(1, 1, None))),
            (0, Event::Msg(MASTER, edit_task(2, 1, None))),
            (0, Event::Msg(MASTER, edit_task(3, 1, Some("(base1);")))),
            (0, Event::Msg(MASTER, tree_task(4))),
            (0, Event::Tick),
            // Two answers between ticks.
            (10, Event::Msg(3, tree_result(1))),
            (10, Event::Msg(4, tree_result(2))),
            (10, Event::Tick),
            // Worker 4's link drops while it holds a task; worker 3
            // finishes its own and inherits it.
            (20, Event::Msg(MASTER, Message::PeerDown { rank: 4 })),
            (20, Event::Tick),
            (30, Event::Msg(3, tree_result(3))),
            (30, Event::Tick),
            // Worker 4 is back, without the base.
            (40, Event::Msg(MASTER, Message::PeerUp { rank: 4 })),
            (40, Event::Msg(4, Message::WorkerReady)),
            (40, Event::Msg(MASTER, edit_task(5, 1, None))),
            (40, Event::Tick),
            // Worker 3 goes silent past the timeout; then a send to it
            // bounces.
            (20_000, Event::Tick),
            (20_000, Event::Undeliverable(3)),
            (20_000, Event::Tick),
            (20_010, Event::Msg(4, tree_result(5))),
            (20_010, Event::Tick),
            (20_020, Event::Msg(4, tree_result(4))),
            (20_020, Event::Tick),
            // A new round: only the live member hears the broadcast.
            (20_030, Event::Msg(MASTER, base(2, "(base2);"))),
            (20_030, Event::Msg(MASTER, edit_task(6, 2, None))),
            (20_030, Event::Tick),
            (20_040, Event::Msg(4, tree_result(6))),
            (20_040, Event::Tick),
        ];
        let (mut down, mut upward) = (Vec::new(), Vec::new());
        for (ms, ev) in script {
            for (to, msg) in feed(&mut m, t0 + Duration::from_millis(ms), ev) {
                if to >= ranks::FIRST_WORKER {
                    down.push((to, msg));
                } else {
                    upward.push((to, msg));
                }
            }
        }
        assert_eq!(m.outstanding(), 0, "the script leaves no work behind");
        assert!(down.len() >= 12, "the script exercises the ladder");
        // Every result goes back to the master in a frame of its own.
        assert!(upward
            .iter()
            .all(|(to, msg)| *to == MASTER && msg.is_result()));
        assert_eq!(upward.len(), 6);
    }

    /// Every ordering of `items`.
    fn permutations<V: Clone>(items: &[V]) -> Vec<Vec<V>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut all = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first.clone());
                all.push(tail);
            }
        }
        all
    }

    #[test]
    fn every_interleaving_sends_each_task_upstream_once_and_ends_idle() {
        // Two workers, three tasks, one bounced send, one stray duplicate
        // answer — in every order. Worker 4 answers at once. Worker 3 is
        // slow: its answer lands one stimulus later, and is lost if its
        // link is declared dead first.
        let stimuli = [
            Event::Msg(MASTER, tree_task(1)),
            Event::Msg(MASTER, tree_task(2)),
            Event::Msg(MASTER, tree_task(3)),
            Event::Msg(3, Message::WorkerReady),
            Event::Msg(4, Message::WorkerReady),
            Event::Undeliverable(3),
            Event::Msg(4, tree_result(1)),
        ];
        let t0 = Instant::now();
        let orders = permutations(&stimuli);
        assert_eq!(orders.len(), 5040);
        for order in orders {
            let mut m = Sched::flat(5, TIMEOUT, false);
            let mut now = t0;
            let mut upstream: Vec<u64> = Vec::new();
            let mut slow: Vec<u64> = Vec::new();
            let mut check = |m: &Sched, sends: Sends| -> Vec<(Rank, u64)> {
                for (task, _) in &m.work_queue {
                    assert!(
                        !m.in_flight.contains_key(task),
                        "task {task} both queued and in flight in {order:?}"
                    );
                }
                let mut dispatched = Vec::new();
                for (to, msg) in sends {
                    match msg {
                        Message::TreeResult { task, .. } if to == MASTER => upstream.push(task),
                        Message::TreeTask { task, .. } => dispatched.push((to, task)),
                        Message::Ping => {}
                        other => panic!("unexpected {other:?} to {to} in {order:?}"),
                    }
                }
                dispatched
            };
            // Deliver a stimulus, tick, and let worker 4 answer whatever
            // reaches it until the machine settles.
            let mut settle = |m: &mut Sched, now: Instant, ev: Event, slow: &mut Vec<u64>| {
                let mut pending = vec![ev, Event::Tick];
                while !pending.is_empty() {
                    for ev in std::mem::take(&mut pending) {
                        let sends = feed(m, now, ev);
                        for (worker, task) in check(m, sends) {
                            if worker == 4 {
                                pending.push(Event::Msg(4, tree_result(task)));
                                pending.push(Event::Tick);
                            } else {
                                slow.push(task);
                            }
                        }
                    }
                }
            };
            for ev in order.iter().cloned() {
                let late: Vec<u64> = match ev {
                    Event::Undeliverable(3) => {
                        slow.clear();
                        Vec::new()
                    }
                    _ => std::mem::take(&mut slow),
                };
                now += Duration::from_millis(1);
                settle(&mut m, now, ev, &mut slow);
                for task in late {
                    settle(&mut m, now, Event::Msg(3, tree_result(task)), &mut slow);
                }
            }
            // Let the ladder run out: whatever worker 3 still holds either
            // gets answered or times out onto worker 4.
            for _ in 0..4 {
                for task in std::mem::take(&mut slow) {
                    settle(&mut m, now, Event::Msg(3, tree_result(task)), &mut slow);
                }
                now += TIMEOUT + Duration::from_secs(1);
                settle(&mut m, now, Event::Tick, &mut slow);
            }
            upstream.sort_unstable();
            assert_eq!(upstream, [1, 2, 3], "in {order:?}");
            assert_eq!(m.outstanding(), 0, "not idle after {order:?}");
            assert_eq!(m.stats().quarantined, 0);
        }
    }

    /// A flat machine over workers 3 and 4, both announced at `t0`, with
    /// `tasks` queued by the master.
    fn two_workers(t0: Instant, tasks: impl IntoIterator<Item = Message>) -> Sched {
        let mut m = Sched::flat(5, TIMEOUT, false);
        for worker in [3, 4] {
            feed(&mut m, t0, Event::Msg(worker, Message::WorkerReady));
        }
        for task in tasks {
            feed(&mut m, t0, Event::Msg(MASTER, task));
        }
        m
    }

    #[test]
    fn a_wave_as_wide_as_the_fleet_goes_one_task_per_worker() {
        let t0 = Instant::now();
        let mut m = two_workers(t0, (1..=2).map(tree_task));
        assert_eq!(
            feed(&mut m, t0, Event::Tick),
            [(3, tree_task(1)), (4, tree_task(2))]
        );
        // Five tasks: one each, then a second for the worker that began
        // first — two stay queued, as many as there are workers — and no
        // more.
        let mut m = two_workers(t0, (1..=5).map(tree_task));
        assert_eq!(
            feed(&mut m, t0, Event::Tick),
            [(3, tree_task(1)), (4, tree_task(2)), (3, tree_task(3))]
        );
        assert_eq!(m.work_queue.len(), 2);
        // Worker 3 answers its first task: it is still busy with the one
        // it holds, so it gets a new second task only while the queue stays
        // long enough — here it does not.
        assert_eq!(
            feed(&mut m, t0, Event::Msg(3, tree_result(1))),
            [(MASTER, tree_result(1))]
        );
        assert_eq!(feed(&mut m, t0, Event::Tick), []);
        assert!(m.ready.is_empty());
    }

    #[test]
    fn no_second_task_while_a_live_worker_holds_none() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Worker 4 has not announced itself: it is live and holds nothing,
        // so worker 3 gets one task however long the queue.
        let mut m = Sched::flat(5, TIMEOUT, false);
        feed(&mut m, at(0), Event::Msg(3, Message::WorkerReady));
        for task in 1..=10 {
            feed(
                &mut m,
                at(0),
                Event::Msg(MASTER, edit_task(task, 1, Some("(b);"))),
            );
        }
        let tasks = |sends: Sends| -> Vec<(Rank, u64)> {
            sends
                .into_iter()
                .map(|(to, msg)| match msg {
                    Message::EditChunk { task, .. } => (to, task),
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        assert_eq!(tasks(feed(&mut m, at(0), Event::Tick)), [(3, 1)]);
        // Once it is busy too, both queue one more, the worker that began
        // first first.
        feed(&mut m, at(1), Event::Msg(4, Message::WorkerReady));
        assert_eq!(
            tasks(feed(&mut m, at(1), Event::Tick)),
            [(4, 2), (3, 3), (4, 4)]
        );
        // Answering the first of two tasks makes a worker busy, not ready:
        // its next task is already there, and it queues another.
        assert_eq!(m.ready.len(), 0);
        feed(&mut m, at(2), Event::Msg(3, edit_scores(1)));
        assert_eq!(tasks(feed(&mut m, at(2), Event::Tick)), [(3, 5)]);
        assert_eq!(m.stats().dispatched, 5);
    }

    #[test]
    fn whole_jumbles_are_never_queued_behind_each_other() {
        let t0 = Instant::now();
        let jumble = |task| Message::JobTask {
            job: 0,
            task,
            seed: task,
        };
        let resume = |task| Message::JumbleResume {
            job: 1,
            task,
            seed: task,
            numerics: 1,
            wal: Vec::new(),
        };
        for tasks in [
            (1..=10).map(jumble).collect::<Vec<_>>(),
            (1..=10).map(resume).collect(),
        ] {
            let mut m = two_workers(t0, tasks.clone());
            assert_eq!(
                feed(&mut m, t0, Event::Tick),
                [(3, tasks[0].clone()), (4, tasks[1].clone())]
            );
            assert_eq!(m.work_queue.len(), 8);
        }
        // A jumble at the head of the queue ends the pipelining there.
        let mut m = two_workers(
            t0,
            [
                tree_task(1),
                tree_task(2),
                jumble(3),
                tree_task(4),
                tree_task(5),
            ],
        );
        assert_eq!(
            feed(&mut m, t0, Event::Tick),
            [(3, tree_task(1)), (4, tree_task(2))]
        );
    }

    /// Jumble `task` of daemon job 2, and a worker's answer to it.
    fn job_task(task: u64) -> Message {
        Message::JobTask {
            job: 2,
            task,
            seed: 100 + task,
        }
    }

    fn job_result(task: u64) -> Message {
        Message::JumbleResult {
            job: 2,
            task,
            seed: 100 + task,
            newick: format!("(j{task});"),
            ln_likelihood: -(task as f64),
            rounds: 1,
            candidates: 1,
            work_units: 1,
        }
    }

    #[test]
    fn a_daemon_jumble_lost_with_its_link_is_redone_and_answered_once() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // The daemon's foreman: a timeout that never fires.
        let mut m = Sched::flat(5, Duration::MAX, false);
        feed(&mut m, at(0), Event::Msg(3, Message::WorkerReady));
        for task in [1, 2] {
            feed(&mut m, at(0), Event::Msg(MASTER, job_task(task)));
        }
        assert_eq!(feed(&mut m, at(0), Event::Tick), [(3, job_task(1))]);
        // Worker 3's link drops while it runs task 1: the task goes back to
        // the front of the queue, ahead of task 2, and on to worker 4.
        let down = Message::PeerDown { rank: 3 };
        assert_eq!(feed(&mut m, at(1), Event::Msg(MASTER, down)), []);
        let queued: Vec<u64> = m.work_queue.iter().map(|(task, _)| *task).collect();
        assert_eq!(queued, [1, 2]);
        feed(&mut m, at(2), Event::Msg(4, Message::WorkerReady));
        assert_eq!(feed(&mut m, at(2), Event::Tick), [(4, job_task(1))]);
        // Worker 3 rejoins and its original answer lands first: booked and
        // forwarded. The recomputation's answer is a duplicate.
        feed(
            &mut m,
            at(3),
            Event::Msg(MASTER, Message::PeerUp { rank: 3 }),
        );
        assert_eq!(
            feed(&mut m, at(3), Event::Msg(3, job_result(1))),
            [(MASTER, job_result(1))]
        );
        assert_eq!(feed(&mut m, at(4), Event::Msg(4, job_result(1))), []);
        assert_eq!(feed(&mut m, at(5), Event::Tick), [(3, job_task(2))]);
        assert_eq!(
            feed(&mut m, at(6), Event::Msg(3, job_result(2))),
            [(MASTER, job_result(2))]
        );
        let stats = m.stats();
        assert_eq!(stats.dispatched, 3);
        assert_eq!(stats.results_forwarded, 2);
        assert_eq!(stats.duplicates_ignored, 1);
        assert_eq!((stats.timeouts, stats.recoveries), (1, 1));
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn a_timeout_that_never_fires_holds_a_jumble_for_a_year_until_its_link_drops() {
        let t0 = Instant::now();
        let year = Duration::from_secs(365 * 24 * 3600);
        let mut m = Sched::flat(5, Duration::MAX, true);
        let sends = |m: &mut Sched, now, ev| -> Sends {
            let mut all = feed(m, now, ev);
            all.retain(|(to, _)| *to != ranks::MONITOR);
            all
        };
        feed(&mut m, t0, Event::Msg(3, Message::WorkerReady));
        feed(&mut m, t0, Event::Msg(MASTER, job_task(1)));
        assert_eq!(sends(&mut m, t0, Event::Tick), [(3, job_task(1))]);
        // A year on, with a second worker idle, the jumble is still worker
        // 3's: no timeout, no probe, no re-dispatch.
        feed(&mut m, t0 + year, Event::Msg(4, Message::WorkerReady));
        for _ in 0..3 {
            assert_eq!(sends(&mut m, t0 + year, Event::Tick), []);
        }
        assert_eq!(m.stats().timeouts, 0);
        assert_eq!(m.in_flight[&1].worker, 3);
        // Its link drops: it goes to worker 4 at once.
        let down = Message::PeerDown { rank: 3 };
        feed(&mut m, t0 + year, Event::Msg(MASTER, down));
        assert_eq!(sends(&mut m, t0 + year, Event::Tick), [(4, job_task(1))]);
        assert_eq!(m.stats().timeouts, 1);
    }

    #[test]
    fn a_worker_slower_than_the_timeout_gets_no_work_while_it_owes_some() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Rank 3 is the only worker.
        let mut m = Sched::flat(4, TIMEOUT, false);
        feed(&mut m, at(0), Event::Msg(3, Message::WorkerReady));
        for task in 1..=4 {
            feed(&mut m, at(0), Event::Msg(MASTER, tree_task(task)));
        }
        assert_eq!(
            feed(&mut m, at(0), Event::Tick),
            [(3, tree_task(1)), (3, tree_task(2))]
        );
        // Task 1 outlasts the timeout: both tasks are taken back, and the
        // worker is probed (probe 1).
        assert_eq!(feed(&mut m, at(10_100), Event::Tick), [(3, Message::Ping)]);
        // The worker still computes both. Its answer to task 1 is the
        // first there is, but task 2 is still ahead of anything it would
        // be sent now: it stays out of the rotation.
        assert_eq!(
            feed(&mut m, at(10_200), Event::Msg(3, tree_result(1))),
            [(MASTER, tree_result(1))]
        );
        assert_eq!(feed_sans_pings(&mut m, at(10_200), Event::Tick), []);
        assert_eq!(m.stats().recoveries, 0);
        // Its answer to task 2 settles what it owes.
        assert_eq!(
            feed(&mut m, at(10_300), Event::Msg(3, tree_result(2))),
            [(MASTER, tree_result(2))]
        );
        assert_eq!(m.stats().recoveries, 1);
        assert_eq!(feed(&mut m, at(10_300), Event::Tick), [(3, tree_task(3))]);

        // Task 3 is taken back too (probe 2), and the worker's answer to it
        // is lost. Its answer to probe 1, sent before task 3 was taken
        // back, says nothing about task 3...
        assert_eq!(feed(&mut m, at(20_400), Event::Tick), [(3, Message::Ping)]);
        feed(&mut m, at(20_500), Event::Msg(3, Message::WorkerReady));
        assert_eq!(feed_sans_pings(&mut m, at(20_500), Event::Tick), []);
        // ...its answer to probe 2 shows it is past it.
        feed(&mut m, at(20_600), Event::Msg(3, Message::WorkerReady));
        assert_eq!(m.stats().recoveries, 2);
        assert_eq!(feed(&mut m, at(20_600), Event::Tick), [(3, tree_task(4))]);
        // An announcement while it holds a task does not make it ready:
        // its answer to the task does.
        feed(&mut m, at(20_700), Event::Msg(3, Message::WorkerReady));
        assert_eq!(feed(&mut m, at(20_700), Event::Tick), []);
        feed(&mut m, at(20_800), Event::Msg(3, tree_result(4)));
        assert_eq!(feed(&mut m, at(20_800), Event::Tick), [(3, tree_task(3))]);
        feed(&mut m, at(20_900), Event::Msg(3, tree_result(3)));
        let stats = m.stats();
        assert_eq!(stats.dispatched, 5);
        assert_eq!(stats.timeouts, 2);
        assert_eq!(stats.results_forwarded, 4);
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn a_second_tasks_timeout_runs_from_the_answer_ahead_of_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut m = two_workers(at(0), (1..=5).map(tree_task));
        feed(&mut m, at(0), Event::Tick);
        // Worker 4 works off everything but what worker 3 holds.
        for (ms, task) in [(1, 2), (2, 4), (3, 5)] {
            feed(&mut m, at(ms), Event::Msg(4, tree_result(task)));
            feed(&mut m, at(ms), Event::Tick);
        }
        assert_eq!(m.outstanding(), 2);
        // Worker 3 answers task 1 after 9 s; task 3 has waited behind it
        // since 0 but its clock starts only now.
        feed(&mut m, at(9_000), Event::Msg(3, tree_result(1)));
        assert_eq!(feed(&mut m, at(10_100), Event::Tick), []);
        assert_eq!(feed(&mut m, at(19_000), Event::Tick), []);
        assert_eq!(
            feed(&mut m, at(19_100), Event::Tick),
            [(3, Message::Ping), (4, tree_task(3))]
        );
        assert_eq!(m.stats().timeouts, 1);
    }

    #[test]
    fn a_failed_worker_gives_back_both_tasks_it_holds() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Its link goes down: both tasks are requeued at once, in order,
        // ahead of the rest; only the one it had begun counts against it.
        let mut m = two_workers(at(0), (1..=5).map(tree_task));
        feed(&mut m, at(0), Event::Tick);
        feed(
            &mut m,
            at(1),
            Event::Msg(MASTER, Message::PeerDown { rank: 3 }),
        );
        let queued: Vec<u64> = m.work_queue.iter().map(|(task, _)| *task).collect();
        assert_eq!(queued, [1, 3, 4, 5]);
        assert_eq!(m.stats().timeouts, 1);
        assert!(!m.failures.contains_key(&3));
        // The survivor, busy with task 2, queues the first of them.
        assert_eq!(feed(&mut m, at(1), Event::Tick), [(4, tree_task(1))]);

        // It goes silent past the timeout: the sweep takes back both.
        let mut m = two_workers(at(0), (1..=5).map(tree_task));
        feed(&mut m, at(0), Event::Tick);
        for (ms, task) in [(1, 2), (2, 4), (3, 5)] {
            feed(&mut m, at(ms), Event::Msg(4, tree_result(task)));
            feed(&mut m, at(ms), Event::Tick);
        }
        assert_eq!(
            feed(&mut m, at(10_100), Event::Tick),
            [(3, Message::Ping), (4, tree_task(1))]
        );
        let queued: Vec<u64> = m.work_queue.iter().map(|(task, _)| *task).collect();
        assert_eq!(queued, [3]);
        assert_eq!(m.stats().timeouts, 1);
        assert_eq!(
            feed(&mut m, at(10_200), Event::Msg(4, tree_result(1))),
            [(MASTER, tree_result(1))]
        );
        assert_eq!(feed(&mut m, at(10_200), Event::Tick), [(4, tree_task(3))]);
        // The silent worker's late answer is a duplicate.
        assert_eq!(feed(&mut m, at(10_300), Event::Msg(3, tree_result(1))), []);
        feed(&mut m, at(10_300), Event::Msg(4, tree_result(3)));
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.stats().results_forwarded, 5);
    }
}
