//! Two-level foreman tree: the scale-out scheduler that pushes past the
//! paper's 64-processor ceiling (§4: "the performance … begins to fall off
//! beyond 32–64 processors as the foreman becomes a bottleneck").
//!
//! Topology: the master (rank 0) talks to one **root foreman** (rank 1),
//! which leases task batches to `R` **regional foremen** (ranks
//! `3..3+R`); each regional foreman runs the flat scheduler of
//! [`crate::foreman`] over its own worker shard (ranks `3+R..` assigned
//! round-robin). Results stream upward in batches, so the root pays one
//! frame per batch instead of one per task, and the per-message cost that
//! capped the flat design is amortised across the tree.
//!
//! Fault tolerance holds at both levels. Workers get the flat ladder
//! (timeout → requeue → quarantine) from their regional foreman. Regions
//! get a second ladder at the root: a region is declared dead only on a
//! failed send or a transport `PeerDown` (never on silence alone — a
//! silent region with leased work is `Ping`ed, and answers with a
//! `LeaseRequest` heartbeat). A dead region's lease is reclaimed and
//! requeued self-contained, and its orphaned workers are re-homed to the
//! surviving regions with [`Message::Rehome`]. Because the master dedups
//! results by task id, every recovery path converges on byte-identical
//! output.

use crate::foreman::{invariant, ForemanError, ForemanStats, Sched, TaskBody};
use crate::worker::ranks;
use fdml_comm::message::{Message, MonitorEvent};
use fdml_comm::transport::{CommError, Rank, Transport};
use fdml_obs::{Event, Obs};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Most tasks a single lease grant may carry. Bounds the damage of losing
/// a region mid-lease and keeps the root's grants round-robin fair.
pub const GRANT_CAP: usize = 64;

/// Rank of the regional foreman for region index `region`.
pub fn regional_rank(region: usize) -> Rank {
    ranks::FIRST_WORKER + region
}

/// First worker rank when `regions` regional foremen sit between the
/// control ranks and the fleet. `regions == 0` (flat) degenerates to
/// [`ranks::FIRST_WORKER`].
pub fn first_worker_rank(regions: usize) -> Rank {
    ranks::FIRST_WORKER + regions
}

/// Home region index of `worker` under round-robin sharding.
pub fn home_region(worker: Rank, regions: usize) -> usize {
    (worker - first_worker_rank(regions)) % regions
}

/// Rank of the regional foreman `worker` initially reports to.
pub fn home_rank(worker: Rank, regions: usize) -> Rank {
    regional_rank(home_region(worker, regions))
}

/// Root-foreman statistics returned at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RootStats {
    /// The shared scheduler counters (dispatched = tasks granted,
    /// timeouts = tasks reclaimed from lost regions, …).
    pub stats: ForemanStats,
    /// Lease batches granted to regions.
    pub leases_granted: u64,
    /// Tasks moved between regions by steal arbitration.
    pub tasks_stolen: u64,
    /// Regions declared dead.
    pub regions_lost: u64,
    /// Workers re-homed to a surviving region.
    pub workers_rehomed: u64,
}

/// Per-region ledger at the root.
struct Region {
    rank: Rank,
    /// Outstanding demand from the region's last `LeaseRequest`.
    wants: u32,
    dead: bool,
    /// The region reported all its workers dead (`Abort` upward). Cleared
    /// when it asks for work again.
    exhausted: bool,
    has_base: bool,
    last_heard: Instant,
    next_ping: Instant,
}

/// Mutable state of the root foreman.
struct Root {
    regions: Vec<Region>,
    /// Tasks not yet leased to any region.
    queue: VecDeque<(u64, TaskBody)>,
    /// Tasks leased out: task id → (region index, body) for reclaim.
    leased: HashMap<u64, (usize, TaskBody)>,
    completed: HashSet<u64>,
    /// Worker rank → current home region index (for re-homing and for
    /// relaying worker `PeerDown`/`PeerUp` to the right region).
    home: HashMap<Rank, usize>,
    base: Option<(u64, String)>,
    /// Steal arbitration ledger: victim region → thieves awaiting its
    /// `StealReturn`.
    pending_steals: HashMap<usize, VecDeque<usize>>,
    stats: RootStats,
}

impl Root {
    fn new(regions: usize, size: usize, now: Instant) -> Root {
        let first_worker = first_worker_rank(regions);
        Root {
            regions: (0..regions)
                .map(|r| Region {
                    rank: regional_rank(r),
                    wants: 0,
                    dead: false,
                    exhausted: false,
                    has_base: false,
                    last_heard: now,
                    next_ping: now,
                })
                .collect(),
            queue: VecDeque::new(),
            leased: HashMap::new(),
            completed: HashSet::new(),
            home: (first_worker..size)
                .map(|w| (w, home_region(w, regions)))
                .collect(),
            base: None,
            pending_steals: HashMap::new(),
            stats: RootStats::default(),
        }
    }

    /// Region index of a regional-foreman rank, if it is one.
    fn region_of(&self, rank: Rank) -> Option<usize> {
        let n = self.regions.len();
        (ranks::FIRST_WORKER..ranks::FIRST_WORKER + n)
            .contains(&rank)
            .then(|| rank - ranks::FIRST_WORKER)
    }

    /// Build the dispatch message for one leased task, embedding the base
    /// for edits whenever the region is not known to hold it (or the task
    /// is marked self-contained). `has_base` is threaded through so only
    /// the first edit of a batch pays the embedded copy.
    fn grant_message(&self, body: &TaskBody, task: u64, has_base: &mut bool) -> Message {
        let embed = match body {
            TaskBody::Edit {
                base_id,
                self_contained,
                ..
            } => self
                .base
                .as_ref()
                .filter(|(id, _)| id == base_id)
                .filter(|_| *self_contained || !*has_base)
                .map(|(_, text)| text.clone()),
            _ => None,
        };
        if embed.is_some() {
            *has_base = true;
        }
        body.to_message(task, embed.as_deref())
    }

    /// Declare region `r` dead: reclaim its lease (requeued up front,
    /// self-contained), drop it from steal arbitration, and re-home its
    /// workers round-robin across the survivors.
    fn declare_region_dead<T: Transport>(&mut self, r: usize, transport: &T) {
        if self.regions[r].dead {
            return;
        }
        self.regions[r].dead = true;
        self.regions[r].wants = 0;
        self.regions[r].has_base = false;
        self.stats.regions_lost += 1;
        // Reclaim the lease. Self-contained, because the next region to
        // run these tasks may never have seen the base broadcast. Sorted
        // so the requeue order does not depend on hash-map iteration.
        let mut reclaimed: Vec<u64> = self
            .leased
            .iter()
            .filter(|(_, (reg, _))| *reg == r)
            .map(|(&t, _)| t)
            .collect();
        reclaimed.sort_unstable();
        for task in reclaimed.into_iter().rev() {
            if let Some((_, body)) = self.leased.remove(&task) {
                self.stats.stats.timeouts += 1;
                self.queue.push_front((task, body.self_contained()));
            }
        }
        // Forget its steal ledger entries, both as victim and as thief.
        self.pending_steals.remove(&r);
        for thieves in self.pending_steals.values_mut() {
            thieves.retain(|&t| t != r);
        }
        // Re-home the orphaned workers across surviving regions.
        let survivors: Vec<usize> = (0..self.regions.len())
            .filter(|&i| !self.regions[i].dead)
            .collect();
        if survivors.is_empty() {
            return;
        }
        let mut orphans: Vec<Rank> = self
            .home
            .iter()
            .filter(|(_, &reg)| reg == r)
            .map(|(&w, _)| w)
            .collect();
        orphans.sort_unstable();
        for (i, worker) in orphans.into_iter().enumerate() {
            let target = survivors[i % survivors.len()];
            self.home.insert(worker, target);
            self.stats.workers_rehomed += 1;
            // A dead worker just fails the send; it re-announces on
            // respawn and the transport's PeerUp relays it onward.
            let _ = transport.send(
                worker,
                &Message::Rehome {
                    foreman: regional_rank(target),
                },
            );
        }
    }
}

/// Run the root foreman of a two-level tree until the master sends
/// `Shutdown`. `regions` is the number of regional foremen (ranks
/// `3..3+regions`); workers occupy the ranks above them.
pub fn run_root_foreman<T: Transport>(
    transport: T,
    regions: usize,
    worker_timeout: Duration,
    has_monitor: bool,
    obs: Obs,
) -> Result<RootStats, ForemanError> {
    let mut s = Root::new(regions, transport.size(), Instant::now());
    let tick = (worker_timeout / 4)
        .max(Duration::from_millis(1))
        .min(Duration::from_millis(50));
    let mut last_depth: Option<(usize, usize, usize)> = None;
    let mut aborted = false;
    let mut next_region = 0usize;

    loop {
        // Grant loop: round-robin over hungry regions, a batch per grant.
        while !s.queue.is_empty() {
            let Some(r) = (0..s.regions.len())
                .map(|i| (next_region + i) % s.regions.len())
                .find(|&i| !s.regions[i].dead && s.regions[i].wants > 0)
            else {
                break;
            };
            next_region = (r + 1) % s.regions.len();
            let n = (s.regions[r].wants as usize)
                .min(GRANT_CAP)
                .min(s.queue.len());
            let mut has_base = s.regions[r].has_base;
            let mut granted = Vec::with_capacity(n);
            let mut msgs = Vec::with_capacity(n);
            for _ in 0..n {
                let (task, body) = invariant(s.queue.pop_front(), "grant outran the queue")?;
                msgs.push(s.grant_message(&body, task, &mut has_base));
                granted.push((task, body));
            }
            s.regions[r].has_base = has_base;
            s.regions[r].wants -= n as u32;
            for (task, body) in granted {
                s.leased.insert(task, (r, body));
            }
            let msg = if msgs.len() == 1 {
                invariant(msgs.pop(), "single-grant batch was empty")?
            } else {
                Message::Batch { msgs }
            };
            let bytes = serde_json::to_string(&msg).map(|j| j.len() as u64).ok();
            match transport.send(s.regions[r].rank, &msg) {
                Ok(()) => {
                    s.stats.stats.dispatched += n as u64;
                    s.stats.leases_granted += 1;
                    obs.emit(|| Event::LeaseGranted {
                        region: r,
                        tasks: n,
                    });
                    if n > 1 {
                        obs.emit(|| Event::BatchSent {
                            from: ranks::FOREMAN,
                            msgs: n,
                            bytes: bytes.unwrap_or(0),
                        });
                    }
                }
                Err(CommError::Disconnected(_)) => s.declare_region_dead(r, &transport),
                Err(e) => return Err(e.into()),
            }
        }

        // Steal arbitration: the queue is dry but a region is hungry, so
        // ask the most-loaded sibling to give some of its lease back. One
        // new steal per tick, and one outstanding request per thief.
        if s.queue.is_empty() {
            let thief = (0..s.regions.len()).find(|&i| {
                let reg = &s.regions[i];
                !reg.dead
                    && !reg.exhausted
                    && reg.wants > 0
                    && !s.pending_steals.values().any(|q| q.contains(&i))
            });
            if let Some(thief) = thief {
                let victim = (0..s.regions.len())
                    .filter(|&i| i != thief && !s.regions[i].dead)
                    .map(|i| {
                        let held = s.leased.values().filter(|(reg, _)| *reg == i).count();
                        (i, held)
                    })
                    .filter(|&(_, held)| held >= 2)
                    .max_by_key(|&(_, held)| held);
                if let Some((victim, _)) = victim {
                    let want = s.regions[thief].wants;
                    match transport.send(s.regions[victim].rank, &Message::StealRequest { want }) {
                        Ok(()) => {
                            s.pending_steals.entry(victim).or_default().push_back(thief);
                        }
                        Err(CommError::Disconnected(_)) => {
                            s.declare_region_dead(victim, &transport)
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            }
        }

        // Liveness probe: a region holding a lease in silence gets pinged
        // once per timeout period. Silence alone never kills a region —
        // only a failed send (threads) or PeerDown (TCP hub) does, so a
        // busy region deep in a long jumble is safe.
        let now = Instant::now();
        for r in 0..s.regions.len() {
            let holds_lease = s.leased.values().any(|(reg, _)| *reg == r);
            let reg = &s.regions[r];
            if reg.dead
                || !holds_lease
                || now.duration_since(reg.last_heard) <= worker_timeout
                || now < reg.next_ping
            {
                continue;
            }
            s.regions[r].next_ping = now + worker_timeout;
            if let Err(CommError::Disconnected(_)) =
                transport.send(s.regions[r].rank, &Message::Ping)
            {
                s.declare_region_dead(r, &transport);
            }
        }

        // The run cannot heal if every region is dead or exhausted while
        // work is outstanding.
        if !aborted
            && !s.regions.is_empty()
            && s.regions.iter().all(|r| r.dead || r.exhausted)
            && (!s.queue.is_empty() || !s.leased.is_empty())
        {
            aborted = true;
            let reason = format!(
                "all {} regions are dead or exhausted with {} tasks outstanding",
                s.regions.len(),
                s.queue.len() + s.leased.len()
            );
            transport.send(ranks::MASTER, &Message::Abort { reason })?;
        }

        // One global queue-depth sample per state change; "ready" is the
        // fleet's aggregate demand.
        let depth = (
            s.queue.len(),
            s.regions.iter().map(|r| r.wants as usize).sum(),
            s.leased.len(),
        );
        if last_depth != Some(depth) {
            last_depth = Some(depth);
            obs.emit(|| Event::QueueDepth {
                work: depth.0,
                ready: depth.1,
                in_flight: depth.2,
            });
        }

        // Drain everything already queued before granting again, so a
        // burst of master tasks coalesces into one batched lease instead
        // of a grant per message.
        let mut next = transport.recv_timeout(tick)?;
        while let Some((from, msg)) = next {
            if let Some(stats) = root_handle(
                &mut s,
                &transport,
                has_monitor,
                from,
                msg,
                &obs,
                &mut aborted,
            )? {
                return Ok(stats);
            }
            next = transport.recv_timeout(Duration::ZERO)?;
        }
    }
}

/// Handle one message at the root. Returns `Some(stats)` on `Shutdown`.
#[allow(clippy::too_many_arguments)]
fn root_handle<T: Transport>(
    s: &mut Root,
    transport: &T,
    has_monitor: bool,
    from: Rank,
    msg: Message,
    obs: &Obs,
    aborted: &mut bool,
) -> Result<Option<RootStats>, ForemanError> {
    if let Some(r) = s.region_of(from) {
        s.regions[r].last_heard = Instant::now();
    }
    match msg {
        Message::Batch { msgs } => {
            for inner in msgs {
                if let Some(stats) =
                    root_handle(s, transport, has_monitor, from, inner, obs, aborted)?
                {
                    return Ok(Some(stats));
                }
            }
        }
        // Work from the master goes on the root queue; the grant loop
        // shards it.
        Message::TreeTask { .. }
        | Message::JumbleTask { .. }
        | Message::JumbleResume { .. }
        | Message::TreeEditTask { .. } => {
            debug_assert_eq!(from, ranks::MASTER);
            if let Some((task, body)) = TaskBody::from_message(&msg) {
                s.queue.push_back((task, body));
            }
        }
        msg @ Message::WalRound { .. } => {
            // A committed round streamed up from a region's worker: relay
            // to the master, which owns the on-disk write-ahead log.
            transport.send(ranks::MASTER, &msg)?;
        }
        Message::BaseTopology { base_id, newick } => {
            debug_assert_eq!(from, ranks::MASTER);
            for r in 0..s.regions.len() {
                s.regions[r].has_base = false;
                if s.regions[r].dead {
                    continue;
                }
                let relay = Message::BaseTopology {
                    base_id,
                    newick: newick.clone(),
                };
                if transport.send(s.regions[r].rank, &relay).is_ok() {
                    s.regions[r].has_base = true;
                }
            }
            s.base = Some((base_id, newick));
        }
        Message::LeaseRequest { want } => {
            let Some(r) = s.region_of(from) else {
                return Ok(None);
            };
            if s.regions[r].dead {
                // The region came back (supervisor respawn): revive it and
                // re-send the base so its edit grants can go compact.
                s.regions[r].dead = false;
                if let Some((base_id, newick)) = &s.base {
                    let relay = Message::BaseTopology {
                        base_id: *base_id,
                        newick: newick.clone(),
                    };
                    s.regions[r].has_base = transport.send(from, &relay).is_ok();
                }
            }
            if want > 0 {
                s.regions[r].exhausted = false;
            }
            s.regions[r].wants = want;
        }
        Message::StealReturn { tasks } => {
            let Some(victim) = s.region_of(from) else {
                return Ok(None);
            };
            let thief = s
                .pending_steals
                .get_mut(&victim)
                .and_then(|q| q.pop_front())
                .filter(|&t| !s.regions[t].dead);
            let mut moved = Vec::new();
            for m in &tasks {
                let Some((task, body)) = TaskBody::from_message(m) else {
                    continue;
                };
                if s.completed.contains(&task) || s.queue.iter().any(|(t, _)| *t == task) {
                    continue;
                }
                s.leased.remove(&task);
                moved.push((task, body));
            }
            match thief {
                Some(thief) if !moved.is_empty() => {
                    let n = moved.len();
                    let mut has_base = s.regions[thief].has_base;
                    let mut msgs = Vec::with_capacity(n);
                    for (task, body) in &moved {
                        msgs.push(s.grant_message(body, *task, &mut has_base));
                    }
                    s.regions[thief].has_base = has_base;
                    let out = if msgs.len() == 1 {
                        invariant(msgs.pop(), "single-steal batch was empty")?
                    } else {
                        Message::Batch { msgs }
                    };
                    match transport.send(s.regions[thief].rank, &out) {
                        Ok(()) => {
                            for (task, body) in moved {
                                s.leased.insert(task, (thief, body));
                            }
                            s.regions[thief].wants =
                                s.regions[thief].wants.saturating_sub(n as u32);
                            s.stats.tasks_stolen += n as u64;
                            obs.emit(|| Event::TaskStolen {
                                from_region: victim,
                                to_region: thief,
                                tasks: n,
                            });
                        }
                        Err(CommError::Disconnected(_)) => {
                            s.declare_region_dead(thief, transport);
                            for (task, body) in moved {
                                s.queue.push_front((task, body.self_contained()));
                            }
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                _ => {
                    // No live thief left waiting: the surrendered tasks go
                    // back on the root queue for the next hungry region.
                    for (task, body) in moved {
                        s.queue.push_front((task, body.self_contained()));
                    }
                }
            }
        }
        msg @ (Message::TreeResult { .. } | Message::JumbleResult { .. }) => {
            let task = match &msg {
                Message::TreeResult { task, .. } | Message::JumbleResult { task, .. } => *task,
                _ => unreachable!("outer pattern admits only results"),
            };
            let is_new = !s.completed.contains(&task)
                && (s.leased.contains_key(&task) || s.queue.iter().any(|(t, _)| *t == task));
            if is_new {
                s.completed.insert(task);
                s.leased.remove(&task);
                s.queue.retain(|(t, _)| *t != task);
                transport.send(ranks::MASTER, &msg)?;
                s.stats.stats.results_forwarded += 1;
            } else {
                s.stats.stats.duplicates_ignored += 1;
            }
        }
        msg @ Message::Quarantined { .. } => {
            let Message::Quarantined { task, .. } = &msg else {
                unreachable!("outer pattern admits only Quarantined");
            };
            let task = *task;
            if !s.completed.contains(&task) {
                s.completed.insert(task);
                s.leased.remove(&task);
                s.queue.retain(|(t, _)| *t != task);
                s.stats.stats.quarantined += 1;
                transport.send(ranks::MASTER, &msg)?;
            }
        }
        Message::Abort { .. } => {
            // A region reporting all its workers dead. Reclaim its lease
            // so a sibling can run the work; the region keeps running and
            // clears `exhausted` if a re-homed worker reaches it.
            if let Some(r) = s.region_of(from) {
                s.regions[r].exhausted = true;
                s.regions[r].wants = 0;
                let mut reclaimed: Vec<u64> = s
                    .leased
                    .iter()
                    .filter(|(_, (reg, _))| *reg == r)
                    .map(|(&t, _)| t)
                    .collect();
                reclaimed.sort_unstable();
                for task in reclaimed.into_iter().rev() {
                    if let Some((_, body)) = s.leased.remove(&task) {
                        s.stats.stats.timeouts += 1;
                        s.queue.push_front((task, body.self_contained()));
                    }
                }
            }
        }
        Message::PeerDown { rank } => {
            if let Some(r) = s.region_of(rank) {
                s.declare_region_dead(r, transport);
            } else if let Some(&r) = s.home.get(&rank) {
                // A worker's link dropped: its regional foreman owns the
                // eager-requeue, so relay the notice there.
                if !s.regions[r].dead {
                    let _ = transport.send(s.regions[r].rank, &Message::PeerDown { rank });
                }
            }
        }
        Message::PeerUp { rank } => {
            if let Some(r) = s.region_of(rank) {
                // A respawned region announces demand via LeaseRequest;
                // until then just stop treating it as dead.
                s.regions[r].dead = false;
            } else if let Some(&r) = s.home.get(&rank) {
                if !s.regions[r].dead {
                    let _ = transport.send(s.regions[r].rank, &Message::PeerUp { rank });
                }
            }
        }
        Message::Shutdown => {
            debug_assert_eq!(from, ranks::MASTER);
            // The root broadcasts to the whole tree; regional foremen do
            // not cascade, so nobody is shut down twice.
            if has_monitor {
                let _ = transport.send(ranks::MONITOR, &Message::Shutdown);
            }
            for rank in ranks::FIRST_WORKER..transport.size() {
                let _ = transport.send(rank, &Message::Shutdown);
            }
            return Ok(Some(s.stats));
        }
        other => {
            debug_assert!(false, "root foreman got unexpected {}", other.kind());
        }
    }
    let _ = aborted;
    Ok(None)
}

/// Options for a regional foreman.
#[derive(Debug, Clone, Copy)]
pub struct RegionalOptions {
    /// Per-worker fault-tolerance timeout (same meaning as the flat
    /// foreman's).
    pub worker_timeout: Duration,
    /// Whether a monitor sits at rank 2 (regions send `Dispatched` /
    /// `Completed`, the root sends nothing).
    pub has_monitor: bool,
    /// Test hook: crash (return immediately, dropping any unflushed
    /// upward results) after forwarding this many results. Simulates the
    /// loss of a regional foreman mid-round.
    pub die_after_results: Option<u64>,
}

impl RegionalOptions {
    /// A live region with the given worker timeout.
    pub fn new(worker_timeout: Duration, has_monitor: bool) -> RegionalOptions {
        RegionalOptions {
            worker_timeout,
            has_monitor,
            die_after_results: None,
        }
    }
}

/// Run a regional foreman: the flat worker-facing scheduler of
/// [`crate::foreman`], fed by leases from the root (rank 1) instead of the
/// master, streaming results upward in batches.
pub fn run_regional_foreman<T: Transport>(
    transport: T,
    opts: RegionalOptions,
    obs: Obs,
) -> Result<ForemanStats, ForemanError> {
    let mut s = Sched::default();
    let region = transport.rank() - ranks::FIRST_WORKER;
    let tick = (opts.worker_timeout / 4)
        .max(Duration::from_millis(1))
        .min(Duration::from_millis(50));
    let monitor = |t: &T, ev: MonitorEvent| {
        if opts.has_monitor {
            let _ = t.send(ranks::MONITOR, &Message::Monitor(ev));
        }
    };

    // Workers that have ever contacted this region. The shard is dynamic:
    // re-homed refugees from a dead sibling join by announcing
    // `WorkerReady`, so membership cannot be derived from rank arithmetic.
    let mut known: HashSet<Rank> = HashSet::new();
    // Results and quarantines awaiting the per-iteration upward flush.
    let mut upward: Vec<Message> = Vec::new();
    let mut last_depth: Option<(usize, usize, usize)> = None;
    let mut aborted = false;
    let mut next_ping: HashMap<Rank, Instant> = HashMap::new();
    let mut next_lease = Instant::now();
    let mut next_sweep = Instant::now();

    loop {
        // Dispatch to the shard — the flat ladder, verbatim.
        while !s.work_queue.is_empty() && !s.ready.is_empty() {
            let worker = invariant(s.ready.pop_front(), "ready queue emptied mid-dispatch")?;
            if s.delinquent.contains(&worker) {
                continue;
            }
            let (task, body) =
                invariant(s.work_queue.pop_front(), "work queue emptied mid-dispatch")?;
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
                Err(CommError::Disconnected(_)) => {
                    s.delinquent.insert(worker);
                    s.dead.insert(worker);
                    s.has_base.remove(&worker);
                    s.stats.timeouts += 1;
                    monitor(&transport, MonitorEvent::WorkerTimedOut { worker, task });
                    if let Some(q) = s.fail_task(task, body, worker, true, &obs) {
                        upward.push(q);
                    }
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
            if embed_base.is_some() {
                s.has_base.insert(worker);
            }
            s.in_flight.insert(
                task,
                crate::foreman::InFlight {
                    worker,
                    body,
                    dispatched_at: Instant::now(),
                },
            );
            s.stats.dispatched += 1;
            monitor(&transport, MonitorEvent::Dispatched { task, worker });
        }

        // Worker timeouts, checked once per tick.
        let now = Instant::now();
        if now >= next_sweep {
            next_sweep = now + tick;
            for (task, f) in s.sweep_timeouts(now, opts.worker_timeout) {
                monitor(
                    &transport,
                    MonitorEvent::WorkerTimedOut {
                        worker: f.worker,
                        task,
                    },
                );
                if let Some(q) = s.fail_task(task, f.body, f.worker, false, &obs) {
                    upward.push(q);
                }
            }
        }

        // Liveness probes of delinquent shard members.
        if !s.work_queue.is_empty() || !s.in_flight.is_empty() {
            let due: Vec<Rank> = s
                .delinquent
                .iter()
                .copied()
                .filter(|w| !s.dead.contains(w))
                .filter(|w| next_ping.get(w).is_none_or(|&t| now >= t))
                .collect();
            for worker in due {
                next_ping.insert(worker, now + opts.worker_timeout);
                if let Err(CommError::Disconnected(_)) = transport.send(worker, &Message::Ping) {
                    for (task, quarantined) in s.peer_down(worker, &obs) {
                        monitor(&transport, MonitorEvent::WorkerTimedOut { worker, task });
                        if let Some(q) = quarantined {
                            upward.push(q);
                        }
                    }
                }
            }
        }

        // Lease more work when the shard can absorb it: keep the backlog
        // at about two tasks per live worker. The request doubles as the
        // region's heartbeat.
        let live_workers = known.iter().filter(|w| !s.dead.contains(w)).count();
        let backlog = s.work_queue.len() + s.in_flight.len();
        if live_workers > 0 && backlog < 2 * live_workers && now >= next_lease {
            next_lease = now + tick;
            let want = (2 * live_workers - backlog) as u32;
            match transport.send(ranks::FOREMAN, &Message::LeaseRequest { want }) {
                Ok(()) | Err(CommError::Disconnected(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }

        // All shard members dead with work outstanding: tell the root (it
        // reclaims the lease for a sibling) but keep running — re-homed
        // refugees may arrive and repopulate the shard.
        if !known.is_empty()
            && known.iter().all(|w| s.dead.contains(w))
            && (!s.work_queue.is_empty() || !s.in_flight.is_empty())
        {
            if !aborted {
                aborted = true;
                let reason = format!(
                    "region {region}: all {} workers are dead with {} tasks outstanding",
                    known.len(),
                    s.work_queue.len() + s.in_flight.len()
                );
                match transport.send(ranks::FOREMAN, &Message::Abort { reason }) {
                    Ok(()) | Err(CommError::Disconnected(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        } else {
            aborted = false;
        }

        // Per-region queue-depth sample on change.
        let depth = (s.work_queue.len(), s.ready.len(), s.in_flight.len());
        if last_depth != Some(depth) {
            last_depth = Some(depth);
            obs.emit(|| Event::RegionQueueDepth {
                region,
                work: depth.0,
                ready: depth.1,
                in_flight: depth.2,
            });
        }

        // Flush the upward buffer: one frame per iteration, however many
        // results it carries.
        if !upward.is_empty() {
            let n = upward.len();
            let msg = if n == 1 {
                invariant(upward.pop(), "upward flush of an empty buffer")?
            } else {
                Message::Batch {
                    msgs: std::mem::take(&mut upward),
                }
            };
            upward.clear();
            let bytes = serde_json::to_string(&msg)
                .map(|j| j.len() as u64)
                .unwrap_or(0);
            transport.send(ranks::FOREMAN, &msg)?;
            if n > 1 {
                obs.emit(|| Event::BatchSent {
                    from: transport.rank(),
                    msgs: n,
                    bytes,
                });
            }
        }

        let Some((from, msg)) = transport.recv_timeout(tick)? else {
            continue;
        };
        // Unpack lease batches in order; everything else is one message.
        let msgs = match msg {
            Message::Batch { msgs } => msgs,
            other => vec![other],
        };
        for msg in msgs {
            match msg {
                // Leased work from the root.
                Message::TreeTask { .. }
                | Message::JumbleTask { .. }
                | Message::JumbleResume { .. } => {
                    if let Some((task, body)) = TaskBody::from_message(&msg) {
                        s.work_queue.push_back((task, body));
                    }
                }
                msg @ Message::WalRound { .. } => {
                    // A worker's committed round: join the upward stream.
                    // Per-link FIFO keeps it ahead of the jumble's result.
                    upward.push(msg);
                }
                Message::TreeEditTask {
                    task,
                    base_id,
                    edit,
                    ref base_newick,
                } => {
                    // A grant embedding the base doubles as the region's
                    // base install: later compact grants of the round rely
                    // on it.
                    if let Some(text) = base_newick {
                        if s.base.as_ref().map(|(id, _)| *id) != Some(base_id) {
                            s.has_base.clear();
                        }
                        s.base = Some((base_id, text.clone()));
                    }
                    s.work_queue.push_back((
                        task,
                        TaskBody::Edit {
                            base_id,
                            edit,
                            self_contained: base_newick.is_some(),
                        },
                    ));
                }
                Message::BaseTopology { base_id, newick } => {
                    // Relay to the live shard, exactly as the flat foreman
                    // relays a master broadcast.
                    s.has_base.clear();
                    for &rank in &known {
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
                Message::StealRequest { want } => {
                    // Surrender the coldest queued tasks (back of the
                    // queue), base embedded so the thief can always score
                    // them. Always answer, even empty-handed: the root's
                    // steal ledger needs the resolution.
                    let n = (want as usize).min(s.work_queue.len());
                    let mut tasks = Vec::with_capacity(n);
                    for _ in 0..n {
                        let (task, body) =
                            invariant(s.work_queue.pop_back(), "steal outran the queue")?;
                        let base_text = match &body {
                            TaskBody::Edit { base_id, .. } => s
                                .base
                                .as_ref()
                                .filter(|(id, _)| id == base_id)
                                .map(|(_, text)| text.clone()),
                            _ => None,
                        };
                        tasks.push(body.to_message(task, base_text.as_deref()));
                    }
                    tasks.reverse();
                    match transport.send(ranks::FOREMAN, &Message::StealReturn { tasks }) {
                        Ok(()) | Err(CommError::Disconnected(_)) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                Message::Ping => {
                    // Root liveness probe: answer with current demand.
                    let live = known.iter().filter(|w| !s.dead.contains(w)).count();
                    let backlog = s.work_queue.len() + s.in_flight.len();
                    let want = (2 * live).saturating_sub(backlog) as u32;
                    match transport.send(ranks::FOREMAN, &Message::LeaseRequest { want }) {
                        Ok(()) | Err(CommError::Disconnected(_)) => {}
                        Err(e) => return Err(e.into()),
                    }
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
                    s.dead.remove(&from);
                    if s.delinquent.remove(&from) {
                        s.stats.recoveries += 1;
                        monitor(&transport, MonitorEvent::WorkerRecovered { worker: from });
                    }
                    if let Some(service_us) = s.accept_result(task) {
                        upward.push(msg);
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
                        if opts
                            .die_after_results
                            .is_some_and(|n| s.stats.results_forwarded >= n)
                        {
                            // Crash hook: die with the upward buffer
                            // unflushed, losing this result in flight —
                            // the root's lease reclaim must cover it.
                            return Ok(s.stats);
                        }
                    } else {
                        s.stats.duplicates_ignored += 1;
                    }
                    s.ready.push_back(from);
                }
                Message::WorkerReady => {
                    known.insert(from);
                    s.dead.remove(&from);
                    if s.delinquent.remove(&from) {
                        s.stats.recoveries += 1;
                        monitor(&transport, MonitorEvent::WorkerRecovered { worker: from });
                    }
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
                    if !s.ready.contains(&from) {
                        s.ready.push_back(from);
                    }
                }
                Message::PeerDown { rank } => {
                    for (task, quarantined) in s.peer_down(rank, &obs) {
                        monitor(
                            &transport,
                            MonitorEvent::WorkerTimedOut { worker: rank, task },
                        );
                        if let Some(q) = quarantined {
                            upward.push(q);
                        }
                    }
                }
                Message::PeerUp { rank } => {
                    s.dead.remove(&rank);
                    if s.delinquent.remove(&rank) {
                        s.stats.recoveries += 1;
                        monitor(&transport, MonitorEvent::WorkerRecovered { worker: rank });
                    }
                }
                Message::Shutdown => {
                    // The root broadcast reaches the workers directly; no
                    // cascade from here, so nobody shuts down twice.
                    return Ok(s.stats);
                }
                other => {
                    debug_assert!(false, "regional foreman got unexpected {}", other.kind());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_comm::threads::ThreadUniverse;
    use std::thread;

    fn universe(n: usize) -> Vec<fdml_comm::threads::ThreadTransport> {
        ThreadUniverse::create(n)
    }

    fn tree_task(task: u64) -> Message {
        Message::TreeTask {
            task,
            newick: format!("(t{task});"),
        }
    }

    fn tree_result(task: u64) -> Message {
        Message::TreeResult {
            task,
            newick: format!("(t{task}:1);"),
            ln_likelihood: -(task as f64),
            work_units: 1,
        }
    }

    /// Receive, skipping liveness probes.
    fn recv_skipping_pings(t: &fdml_comm::threads::ThreadTransport) -> Message {
        loop {
            let (_, msg) = t.recv().unwrap();
            if msg != Message::Ping {
                return msg;
            }
        }
    }

    #[test]
    fn rank_helpers_shard_round_robin() {
        // Two regions at ranks 3 and 4; workers from rank 5 up alternate.
        assert_eq!(regional_rank(0), 3);
        assert_eq!(regional_rank(1), 4);
        assert_eq!(first_worker_rank(2), 5);
        assert_eq!(home_region(5, 2), 0);
        assert_eq!(home_region(6, 2), 1);
        assert_eq!(home_region(7, 2), 0);
        assert_eq!(home_rank(6, 2), 4);
    }

    #[test]
    fn root_grants_leases_in_batches_and_forwards_results() {
        // Ranks: 0 master, 1 root, 2 monitor (absent), 3 region, 4 worker.
        let mut ends = universe(5);
        let worker = ends.remove(4);
        let region = ends.remove(3);
        let root_end = ends.remove(1);
        let master = ends.remove(0);
        let f = thread::spawn(move || {
            run_root_foreman(root_end, 1, Duration::from_secs(5), false, Obs::disabled()).unwrap()
        });
        // Work first, demand second: per-link FIFO means the root sees
        // both tasks before the lease request, so the grant is one batch.
        for t in [1u64, 2] {
            master.send(ranks::FOREMAN, &tree_task(t)).unwrap();
        }
        region
            .send(ranks::FOREMAN, &Message::LeaseRequest { want: 2 })
            .unwrap();
        // Both tasks arrive in one Batch grant.
        let msg = recv_skipping_pings(&region);
        let Message::Batch { msgs } = msg else {
            panic!("expected a batched grant, got {msg:?}");
        };
        assert_eq!(msgs.len(), 2);
        assert!(matches!(msgs[0], Message::TreeTask { task: 1, .. }));
        assert!(matches!(msgs[1], Message::TreeTask { task: 2, .. }));
        // The region streams both results back in one Batch.
        region
            .send(
                ranks::FOREMAN,
                &Message::Batch {
                    msgs: vec![tree_result(1), tree_result(2)],
                },
            )
            .unwrap();
        for expect in [1u64, 2] {
            let (_, msg) = master.recv().unwrap();
            assert!(
                matches!(msg, Message::TreeResult { task, .. } if task == expect),
                "got {msg:?}"
            );
        }
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        // The root broadcasts shutdown to the region AND the worker.
        assert_eq!(recv_skipping_pings(&region), Message::Shutdown);
        let (_, msg) = worker.recv().unwrap();
        assert_eq!(msg, Message::Shutdown);
        let stats = f.join().unwrap();
        assert_eq!(stats.leases_granted, 1);
        assert_eq!(stats.stats.dispatched, 2);
        assert_eq!(stats.stats.results_forwarded, 2);
        assert_eq!(stats.regions_lost, 0);
    }

    #[test]
    fn steal_moves_queued_tasks_from_loaded_to_drained_region() {
        // Ranks: 0 master, 1 root, 2 monitor, 3 region A, 4 region B,
        // 5..7 workers.
        let mut ends = universe(7);
        ends.truncate(5);
        let region_b = ends.remove(4);
        let region_a = ends.remove(3);
        let root_end = ends.remove(1);
        let master = ends.remove(0);
        let f = thread::spawn(move || {
            run_root_foreman(root_end, 2, Duration::from_secs(5), false, Obs::disabled()).unwrap()
        });
        // A leases all four tasks (work queued before the demand so the
        // grant coalesces into one batch).
        for t in 1u64..=4 {
            master.send(ranks::FOREMAN, &tree_task(t)).unwrap();
        }
        region_a
            .send(ranks::FOREMAN, &Message::LeaseRequest { want: 4 })
            .unwrap();
        let Message::Batch { msgs } = recv_skipping_pings(&region_a) else {
            panic!("expected batched grant to A");
        };
        assert_eq!(msgs.len(), 4);
        // B turns up hungry with the root queue dry: the root asks A to
        // give some back.
        region_b
            .send(ranks::FOREMAN, &Message::LeaseRequest { want: 2 })
            .unwrap();
        let msg = recv_skipping_pings(&region_a);
        let Message::StealRequest { want } = msg else {
            panic!("expected StealRequest at the victim, got {msg:?}");
        };
        assert_eq!(want, 2);
        // A surrenders its two coldest tasks (3 and 4).
        region_a
            .send(
                ranks::FOREMAN,
                &Message::StealReturn {
                    tasks: vec![tree_task(3), tree_task(4)],
                },
            )
            .unwrap();
        let Message::Batch { msgs } = recv_skipping_pings(&region_b) else {
            panic!("expected stolen batch at the thief");
        };
        assert_eq!(msgs.len(), 2);
        assert!(matches!(msgs[0], Message::TreeTask { task: 3, .. }));
        // Everyone answers; the master sees all four exactly once.
        region_a
            .send(
                ranks::FOREMAN,
                &Message::Batch {
                    msgs: vec![tree_result(1), tree_result(2)],
                },
            )
            .unwrap();
        region_b
            .send(
                ranks::FOREMAN,
                &Message::Batch {
                    msgs: vec![tree_result(3), tree_result(4)],
                },
            )
            .unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let (_, msg) = master.recv().unwrap();
            let Message::TreeResult { task, .. } = msg else {
                panic!("expected result, got {msg:?}");
            };
            assert!(seen.insert(task), "duplicate result for task {task}");
        }
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        let stats = f.join().unwrap();
        assert_eq!(stats.tasks_stolen, 2);
        assert_eq!(stats.stats.results_forwarded, 4);
        assert_eq!(stats.stats.duplicates_ignored, 0);
    }

    #[test]
    fn dead_region_lease_is_reclaimed_and_workers_rehomed() {
        // Ranks: 0 master, 1 root, 2 monitor, 3 region A, 4 region B,
        // 5 worker (home A), 6 worker (home B).
        let mut ends = universe(7);
        let worker_b = ends.remove(6);
        let worker_a = ends.remove(5);
        let region_b = ends.remove(4);
        let region_a = ends.remove(3);
        let root_end = ends.remove(1);
        let master = ends.remove(0);
        // Short timeout so the silence probe fires fast.
        let f = thread::spawn(move || {
            run_root_foreman(
                root_end,
                2,
                Duration::from_millis(50),
                false,
                Obs::disabled(),
            )
            .unwrap()
        });
        for t in [1u64, 2] {
            master.send(ranks::FOREMAN, &tree_task(t)).unwrap();
        }
        region_a
            .send(ranks::FOREMAN, &Message::LeaseRequest { want: 2 })
            .unwrap();
        let Message::Batch { msgs } = region_a.recv().unwrap().1 else {
            panic!("expected batched grant to A");
        };
        assert_eq!(msgs.len(), 2);
        // A dies holding the lease: the root's silence probe hits the
        // dropped endpoint and fails the send.
        drop(region_a);
        // B asks for work; once A is declared dead the reclaimed tasks go
        // to B, and A's worker is re-homed to B.
        loop {
            region_b
                .send(ranks::FOREMAN, &Message::LeaseRequest { want: 2 })
                .unwrap();
            match recv_skipping_pings(&region_b) {
                Message::Batch { msgs } => {
                    assert_eq!(msgs.len(), 2);
                    assert!(matches!(msgs[0], Message::TreeTask { task: 1, .. }));
                    break;
                }
                // Steal arbitration may fire first while A still looks
                // alive; B never answers it (it is not the victim).
                Message::StealRequest { .. } => continue,
                other => panic!("unexpected message at B: {other:?}"),
            }
        }
        let (_, msg) = worker_a.recv().unwrap();
        assert_eq!(msg, Message::Rehome { foreman: 4 });
        drop(worker_b);
        region_b
            .send(
                ranks::FOREMAN,
                &Message::Batch {
                    msgs: vec![tree_result(1), tree_result(2)],
                },
            )
            .unwrap();
        for _ in 0..2 {
            let (_, msg) = master.recv().unwrap();
            assert!(matches!(msg, Message::TreeResult { .. }));
        }
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        let stats = f.join().unwrap();
        assert_eq!(stats.regions_lost, 1);
        assert_eq!(stats.workers_rehomed, 1);
        assert_eq!(stats.stats.timeouts, 2, "both leased tasks reclaimed");
        assert_eq!(stats.stats.results_forwarded, 2);
    }

    #[test]
    fn regional_foreman_leases_dispatches_and_streams_upward() {
        // Ranks: 0 master, 1 root (scripted), 2 monitor, 3 region (under
        // test), 4 worker (scripted).
        let mut ends = universe(5);
        let worker = ends.remove(4);
        let region_end = ends.remove(3);
        let root = ends.remove(1);
        let f = thread::spawn(move || {
            run_regional_foreman(
                region_end,
                RegionalOptions::new(Duration::from_secs(5), false),
                Obs::disabled(),
            )
            .unwrap()
        });
        worker
            .send(regional_rank(0), &Message::WorkerReady)
            .unwrap();
        // The region asks the root for work (want = 2×1 live worker).
        let (_, msg) = root.recv().unwrap();
        assert_eq!(msg, Message::LeaseRequest { want: 2 });
        // Grant a batch of two.
        root.send(
            regional_rank(0),
            &Message::Batch {
                msgs: vec![tree_task(1), tree_task(2)],
            },
        )
        .unwrap();
        // Both reach the worker, one dispatch at a time.
        for t in [1u64, 2] {
            let msg = recv_skipping_pings(&worker);
            assert!(
                matches!(msg, Message::TreeTask { task, .. } if task == t),
                "got {msg:?}"
            );
            worker.send(regional_rank(0), &tree_result(t)).unwrap();
        }
        // Results stream up (possibly batched, depending on timing).
        let mut got = Vec::new();
        while got.len() < 2 {
            match recv_skipping_pings(&root) {
                Message::Batch { msgs } => got.extend(msgs),
                Message::LeaseRequest { .. } => continue,
                msg => got.push(msg),
            }
        }
        assert!(matches!(got[0], Message::TreeResult { task: 1, .. }));
        assert!(matches!(got[1], Message::TreeResult { task: 2, .. }));
        // Shutdown from the root ends the region without a cascade: the
        // worker's queue stays empty.
        root.send(regional_rank(0), &Message::Shutdown).unwrap();
        let stats = f.join().unwrap();
        assert_eq!(stats.dispatched, 2);
        assert_eq!(stats.results_forwarded, 2);
        assert_eq!(
            worker.recv_timeout(Duration::from_millis(50)).unwrap(),
            None,
            "regional foremen must not cascade Shutdown"
        );
    }

    #[test]
    fn die_after_results_drops_the_unflushed_result() {
        let mut ends = universe(5);
        let worker = ends.remove(4);
        let region_end = ends.remove(3);
        let root = ends.remove(1);
        let f = thread::spawn(move || {
            run_regional_foreman(
                region_end,
                RegionalOptions {
                    worker_timeout: Duration::from_secs(5),
                    has_monitor: false,
                    die_after_results: Some(1),
                },
                Obs::disabled(),
            )
            .unwrap()
        });
        worker
            .send(regional_rank(0), &Message::WorkerReady)
            .unwrap();
        let (_, msg) = root.recv().unwrap();
        assert!(matches!(msg, Message::LeaseRequest { .. }));
        root.send(regional_rank(0), &tree_task(1)).unwrap();
        let msg = recv_skipping_pings(&worker);
        assert!(matches!(msg, Message::TreeTask { task: 1, .. }));
        worker.send(regional_rank(0), &tree_result(1)).unwrap();
        let stats = f.join().unwrap();
        assert_eq!(stats.results_forwarded, 1);
        // The result died with the region: the root never sees it (only,
        // at most, further lease-request heartbeats).
        loop {
            match root.recv_timeout(Duration::from_millis(80)).unwrap() {
                None => break,
                Some((_, Message::LeaseRequest { .. })) => continue,
                Some((_, other)) => panic!("crash hook leaked {other:?} upward"),
            }
        }
    }
}
