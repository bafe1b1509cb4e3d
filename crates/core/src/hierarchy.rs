//! Two-level foreman tree: the scale-out scheduler that pushes past the
//! paper's 64-processor ceiling (§4: "the performance … begins to fall off
//! beyond 32–64 processors as the foreman becomes a bottleneck").
//!
//! Topology: the master (rank 0) talks to one **root foreman** (rank 1),
//! which leases task batches to `R` **regional foremen** (ranks
//! `3..3+R`); each regional foreman is the flat machine of `crate::sched`
//! under a leased supply (`Sched::regional`) over its own worker shard
//! (ranks `3+R..` assigned round-robin). Results stream upward in batches,
//! so the root pays one frame per batch instead of one per task, and the
//! per-message cost that capped the flat design is amortised across the
//! tree.
//!
//! This module is the root: `Root`, a second pure machine in the
//! vocabulary of `crate::sched` on the same shell
//! (`crate::foreman::run_scheduler`). It shares the task form, the frame
//! rule and the event/action contract with the worker-facing machine, but
//! not its ledger: the root's consumers are regions, which hold many tasks
//! at once, are leased to rather than timed out, are stolen from and have
//! their workers re-homed — folding that into `crate::sched::Sched` would
//! make every shared line branch on its caller.
//!
//! Fault tolerance holds at both levels. Workers get the flat ladder
//! (timeout → requeue → quarantine) from their regional foreman. Regions
//! get a second ladder at the root: a region is declared dead only on a
//! bounced send or a transport `PeerDown` (never on silence alone — a
//! silent region with leased work is `Ping`ed, and answers with a
//! `LeaseRequest` heartbeat). A dead region's lease is reclaimed and
//! requeued self-contained, and its orphaned workers are re-homed to the
//! surviving regions with [`Message::Rehome`]. Because the master dedups
//! results by task id, every recovery path converges on byte-identical
//! output.

use crate::foreman::{ForemanError, ForemanStats};
use crate::sched::{frame, result_of, Action, Event, Machine, TaskBody};
use crate::worker::ranks;
use fdml_comm::message::Message;
use fdml_comm::transport::{CommError, Rank};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::ControlFlow;
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

/// Per-region ledger at the root; region `r` is rank [`regional_rank`]`(r)`.
#[derive(Default)]
struct Region {
    /// Outstanding demand from the region's last `LeaseRequest`.
    wants: u32,
    dead: bool,
    /// The region reported all its workers dead (`Abort` upward). Cleared
    /// when it asks for work again.
    exhausted: bool,
    has_base: bool,
    /// When the region last sent anything. A region asks before it is
    /// granted, so one that holds a lease has been heard from.
    last_heard: Option<Instant>,
    next_ping: Option<Instant>,
}

/// The root foreman's machine.
#[derive(Default)]
pub(crate) struct Root {
    regions: Vec<Region>,
    /// Ranks in the universe, for the `Shutdown` broadcast.
    size: usize,
    /// How long a region holding a lease may stay silent before it is
    /// probed.
    worker_timeout: Duration,
    has_monitor: bool,
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
    /// Where the round-robin grant loop resumes.
    next_region: usize,
    last_depth: Option<(usize, usize, usize)>,
    aborted: bool,
    stats: RootStats,
}

impl Root {
    /// The root of a universe of `size` ranks with `regions` regional
    /// foremen (ranks `3..3+regions`); workers occupy the ranks above.
    pub(crate) fn new(
        regions: usize,
        size: usize,
        worker_timeout: Duration,
        has_monitor: bool,
    ) -> Root {
        Root {
            regions: (0..regions).map(|_| Region::default()).collect(),
            size,
            worker_timeout,
            has_monitor,
            home: (first_worker_rank(regions)..size)
                .map(|w| (w, home_region(w, regions)))
                .collect(),
            ..Root::default()
        }
    }

    /// Region index of a regional-foreman rank, if it is one.
    fn region_of(&self, rank: Rank) -> Option<usize> {
        let region = rank.checked_sub(ranks::FIRST_WORKER)?;
        (region < self.regions.len()).then_some(region)
    }

    /// Tasks region `r` holds on lease.
    fn held_by(&self, r: usize) -> usize {
        self.leased.values().filter(|(reg, _)| *reg == r).count()
    }

    /// Lease `tasks` (at least one) to region `r` in one frame. An edit
    /// embeds its base when it is marked self-contained or the region is
    /// not known to hold the base — so only the first edit of a frame pays
    /// the embedded copy.
    fn lease_to(&mut self, r: usize, tasks: Vec<(u64, TaskBody)>, out: &mut Vec<Action>) {
        let mut has_base = self.regions[r].has_base;
        let mut msgs = Vec::with_capacity(tasks.len());
        for (task, body) in tasks {
            let embed = match &body {
                TaskBody::Edit {
                    base_id,
                    self_contained,
                    ..
                } if *self_contained || !has_base => self
                    .base
                    .as_ref()
                    .filter(|(id, _)| id == base_id)
                    .map(|(_, text)| text.as_str()),
                _ => None,
            };
            has_base |= embed.is_some();
            msgs.push(body.to_message(task, embed));
            self.leased.insert(task, (r, body));
        }
        let region = &mut self.regions[r];
        region.has_base = has_base;
        region.wants = region.wants.saturating_sub(msgs.len() as u32);
        out.push(Action::Send(regional_rank(r), frame(msgs)));
    }

    /// Take back everything leased to region `r`: requeued up front, in
    /// task order so the order does not depend on hash-map iteration, and
    /// self-contained because the next region to run these tasks may never
    /// have seen the base broadcast.
    fn reclaim(&mut self, r: usize) {
        let mut tasks: Vec<u64> = self
            .leased
            .iter()
            .filter(|(_, (reg, _))| *reg == r)
            .map(|(&task, _)| task)
            .collect();
        tasks.sort_unstable();
        for task in tasks.into_iter().rev() {
            if let Some((_, body)) = self.leased.remove(&task) {
                self.stats.stats.timeouts += 1;
                self.queue.push_front((task, body.self_contained()));
            }
        }
    }

    /// Book `task` as finished; `false` if it already was.
    fn finish(&mut self, task: u64) -> bool {
        if !self.completed.insert(task) {
            return false;
        }
        // A task is leased or queued, never both.
        if self.leased.remove(&task).is_none() {
            if let Some(queued) = self.queue.iter().position(|(t, _)| *t == task) {
                self.queue.remove(queued);
            }
        }
        true
    }

    /// Pass a notice about `worker`'s link on to the live region it
    /// reports to.
    fn relay_home(&self, worker: Rank, notice: Message, out: &mut Vec<Action>) {
        if let Some(&r) = self.home.get(&worker) {
            if !self.regions[r].dead {
                out.push(Action::Send(regional_rank(r), notice));
            }
        }
    }

    /// Declare region `r` dead: reclaim its lease, drop it from steal
    /// arbitration, and re-home its workers round-robin across the
    /// survivors.
    fn declare_region_dead(&mut self, r: usize, out: &mut Vec<Action>) {
        if self.regions[r].dead {
            return;
        }
        self.regions[r] = Region {
            dead: true,
            ..Region::default()
        };
        self.stats.regions_lost += 1;
        self.reclaim(r);
        // Forget its steal ledger entries, both as victim and as thief.
        self.pending_steals.remove(&r);
        for thieves in self.pending_steals.values_mut() {
            thieves.retain(|&t| t != r);
        }
        let survivors: Vec<usize> = (0..self.regions.len())
            .filter(|&i| !self.regions[i].dead)
            .collect();
        let mut orphans: Vec<Rank> = self
            .home
            .iter()
            .filter(|(_, &reg)| reg == r)
            .map(|(&w, _)| w)
            .collect();
        orphans.sort_unstable();
        // Round-robin over the survivors; with none left nobody moves.
        for (worker, &target) in orphans.into_iter().zip(survivors.iter().cycle()) {
            self.home.insert(worker, target);
            self.stats.workers_rehomed += 1;
            // A dead worker just bounces the send; it re-announces on
            // respawn and the transport's PeerUp relays it onward.
            let foreman = regional_rank(target);
            out.push(Action::Send(worker, Message::Rehome { foreman }));
        }
    }

    /// One message in. Never grants — that waits for the `Tick`, so a
    /// burst of master tasks becomes one batched lease.
    fn absorb(&mut self, from: Rank, msg: Message, out: &mut Vec<Action>) {
        if let Some((task, ..)) = result_of(&msg) {
            let known =
                self.leased.contains_key(&task) || self.queue.iter().any(|(t, _)| *t == task);
            if known && self.finish(task) {
                self.stats.stats.results_forwarded += 1;
                out.push(Action::Send(ranks::MASTER, msg));
            } else {
                self.stats.stats.duplicates_ignored += 1;
            }
            return;
        }
        match msg {
            Message::Batch { msgs } => {
                for inner in msgs {
                    self.absorb(from, inner, out);
                }
            }
            // Work from the master goes on the root queue; the grant loop
            // shards it.
            Message::TreeTask { .. }
            | Message::JumbleTask { .. }
            | Message::JumbleResume { .. }
            | Message::EditChunk { .. } => {
                debug_assert_eq!(from, ranks::MASTER);
                if let Some(queued) = TaskBody::from_message(msg) {
                    self.queue.push_back(queued);
                }
            }
            // A committed round streamed up from a region's worker: relay
            // to the master, which owns the on-disk write-ahead log.
            msg @ Message::WalRound { .. } => out.push(Action::Send(ranks::MASTER, msg)),
            Message::BaseTopology { base_id, newick } => {
                debug_assert_eq!(from, ranks::MASTER);
                for (r, region) in self.regions.iter_mut().enumerate() {
                    region.has_base = !region.dead;
                    if !region.dead {
                        let newick = newick.clone();
                        out.push(Action::Send(
                            regional_rank(r),
                            Message::BaseTopology { base_id, newick },
                        ));
                    }
                }
                self.base = Some((base_id, newick));
            }
            Message::LeaseRequest { want } => {
                let Some(r) = self.region_of(from) else {
                    return;
                };
                let region = &mut self.regions[r];
                if region.dead {
                    // The region came back (supervisor respawn): revive it
                    // and re-send the base so its edit grants can go
                    // compact.
                    region.dead = false;
                    if let Some((base_id, newick)) = self.base.clone() {
                        out.push(Action::Send(
                            from,
                            Message::BaseTopology { base_id, newick },
                        ));
                        region.has_base = true;
                    }
                }
                if want > 0 {
                    region.exhausted = false;
                }
                region.wants = want;
            }
            Message::StealReturn { tasks } => {
                let Some(victim) = self.region_of(from) else {
                    return;
                };
                let thief = self
                    .pending_steals
                    .get_mut(&victim)
                    .and_then(|q| q.pop_front())
                    .filter(|&t| !self.regions[t].dead);
                let mut moved = Vec::new();
                for (task, body) in tasks.into_iter().filter_map(TaskBody::from_message) {
                    let settled = self.completed.contains(&task)
                        || self.queue.iter().any(|(t, _)| *t == task);
                    if !settled {
                        self.leased.remove(&task);
                        moved.push((task, body));
                    }
                }
                match thief {
                    Some(thief) if !moved.is_empty() => {
                        let tasks = moved.len();
                        self.stats.tasks_stolen += tasks as u64;
                        out.push(Action::Emit(fdml_obs::Event::TaskStolen {
                            from_region: victim,
                            to_region: thief,
                            tasks,
                        }));
                        self.lease_to(thief, moved, out);
                    }
                    // No live thief left waiting: the surrendered tasks go
                    // back on the root queue for the next hungry region.
                    _ => {
                        for (task, body) in moved.into_iter().rev() {
                            self.queue.push_front((task, body.self_contained()));
                        }
                    }
                }
            }
            Message::Quarantined { task, .. } => {
                if self.finish(task) {
                    self.stats.stats.quarantined += 1;
                    out.push(Action::Send(ranks::MASTER, msg));
                }
            }
            Message::Abort { .. } => {
                // A region reporting all its workers dead. Reclaim its
                // lease so a sibling can run the work; the region keeps
                // running and clears `exhausted` if a re-homed worker
                // reaches it.
                if let Some(r) = self.region_of(from) {
                    self.regions[r].exhausted = true;
                    self.regions[r].wants = 0;
                    self.reclaim(r);
                }
            }
            Message::PeerDown { rank } => match self.region_of(rank) {
                Some(r) => self.declare_region_dead(r, out),
                // A worker's link dropped: its regional foreman owns the
                // eager requeue, so relay the notice there.
                None => self.relay_home(rank, msg, out),
            },
            Message::PeerUp { rank } => match self.region_of(rank) {
                // A respawned region announces demand via LeaseRequest;
                // until then just stop treating it as dead.
                Some(r) => self.regions[r].dead = false,
                None => self.relay_home(rank, msg, out),
            },
            other => debug_assert!(false, "root foreman got unexpected {}", other.kind()),
        }
    }

    /// The `Tick`: grant, arbitrate steals, probe silent regions.
    fn act(&mut self, now: Instant, out: &mut Vec<Action>) {
        let n = self.regions.len();
        // Grant loop: round-robin over hungry regions, a batch per grant.
        while !self.queue.is_empty() {
            let hungry = (0..n)
                .map(|i| (self.next_region + i) % n)
                .find(|&i| !self.regions[i].dead && self.regions[i].wants > 0);
            let Some(r) = hungry else {
                break;
            };
            self.next_region = (r + 1) % n;
            let tasks = (self.regions[r].wants as usize)
                .min(GRANT_CAP)
                .min(self.queue.len());
            let granted = self.queue.drain(..tasks).collect();
            self.stats.stats.dispatched += tasks as u64;
            self.stats.leases_granted += 1;
            out.push(Action::Emit(fdml_obs::Event::LeaseGranted {
                region: r,
                tasks,
            }));
            self.lease_to(r, granted, out);
        }

        // Steal arbitration: the queue is dry but a region is hungry, so
        // ask the most-loaded sibling to give some of its lease back. One
        // new steal per `Tick`, and one outstanding request per thief.
        if self.queue.is_empty() {
            let thief = (0..n).find(|&i| {
                let reg = &self.regions[i];
                !reg.dead
                    && !reg.exhausted
                    && reg.wants > 0
                    && !self.pending_steals.values().any(|q| q.contains(&i))
            });
            let victim = thief.and_then(|thief| {
                (0..n)
                    .filter(|&i| i != thief && !self.regions[i].dead)
                    .map(|i| (i, self.held_by(i)))
                    .filter(|&(_, held)| held >= 2)
                    .max_by_key(|&(_, held)| held)
            });
            if let (Some(thief), Some((victim, _))) = (thief, victim) {
                let want = self.regions[thief].wants;
                out.push(Action::Send(
                    regional_rank(victim),
                    Message::StealRequest { want },
                ));
                self.pending_steals
                    .entry(victim)
                    .or_default()
                    .push_back(thief);
            }
        }

        // Liveness probe: a region holding a lease in silence gets pinged
        // once per timeout period. Silence alone never kills a region —
        // only a bounced send (threads) or PeerDown (TCP hub) does, so a
        // busy region deep in a long jumble is safe.
        for r in 0..n {
            let reg = &self.regions[r];
            let silent = reg
                .last_heard
                .is_some_and(|heard| now.duration_since(heard) > self.worker_timeout);
            let due = reg.next_ping.is_none_or(|due| now >= due);
            if !reg.dead && silent && due && self.held_by(r) > 0 {
                self.regions[r].next_ping = Some(now + self.worker_timeout);
                out.push(Action::Send(regional_rank(r), Message::Ping));
            }
        }

        // The run cannot heal if every region is dead or exhausted while
        // work is outstanding.
        let outstanding = self.queue.len() + self.leased.len();
        if !self.aborted
            && n > 0
            && self.regions.iter().all(|r| r.dead || r.exhausted)
            && outstanding > 0
        {
            self.aborted = true;
            let reason = format!(
                "all {n} regions are dead or exhausted with {outstanding} tasks outstanding"
            );
            out.push(Action::Send(ranks::MASTER, Message::Abort { reason }));
        }

        // One global queue-depth sample per state change; "ready" is the
        // fleet's aggregate demand.
        let (work, ready, in_flight) = (
            self.queue.len(),
            self.regions.iter().map(|r| r.wants as usize).sum(),
            self.leased.len(),
        );
        if self.last_depth != Some((work, ready, in_flight)) {
            self.last_depth = Some((work, ready, in_flight));
            out.push(Action::Emit(fdml_obs::Event::QueueDepth {
                work,
                ready,
                in_flight,
            }));
        }
    }
}

impl Machine for Root {
    type Stats = RootStats;

    fn step(
        &mut self,
        now: Instant,
        ev: Event,
        out: &mut Vec<Action>,
    ) -> Result<ControlFlow<()>, ForemanError> {
        match ev {
            Event::Tick => self.act(now, out),
            // Without the master the root has nobody to work for.
            Event::Undeliverable(ranks::MASTER) => {
                return Err(CommError::Disconnected(ranks::MASTER).into());
            }
            // A bounced send is a region's death certificate; a worker's
            // (a `Rehome`, the `Shutdown` broadcast) is its region's
            // business, and the monitor's costs instrumentation only.
            Event::Undeliverable(rank) => {
                if let Some(r) = self.region_of(rank) {
                    self.declare_region_dead(r, out);
                }
            }
            Event::Msg(from, Message::Shutdown) => {
                debug_assert_eq!(from, ranks::MASTER);
                // The root broadcasts to the whole tree; regional foremen
                // do not cascade, so nobody is shut down twice.
                if self.has_monitor {
                    out.push(Action::Send(ranks::MONITOR, Message::Shutdown));
                }
                for rank in ranks::FIRST_WORKER..self.size {
                    out.push(Action::Send(rank, Message::Shutdown));
                }
                return Ok(ControlFlow::Break(()));
            }
            Event::Msg(from, msg) => {
                if let Some(r) = self.region_of(from) {
                    self.regions[r].last_heard = Some(now);
                }
                self.absorb(from, msg, out);
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    fn stats(&self) -> RootStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foreman::run_scheduler;
    use crate::sched::{tick_of, Sched};
    use fdml_comm::fault::{FaultPlan, FaultyTransport};
    use fdml_comm::threads::{ThreadTransport, ThreadUniverse};
    use fdml_comm::transport::Transport;
    use fdml_obs::Obs;
    use std::thread;

    fn universe(n: usize) -> Vec<ThreadTransport> {
        ThreadUniverse::create(n)
    }

    /// The root machine on the shell, as the runtime runs it.
    fn run_root(end: ThreadTransport, regions: usize, timeout: Duration) -> RootStats {
        let machine = Root::new(regions, end.size(), timeout, false);
        run_scheduler(end, machine, tick_of(timeout), Obs::disabled()).unwrap()
    }

    /// Region 0's machine on the shell, as the runtime runs it.
    fn run_region<T: Transport>(end: T, timeout: Duration) -> Result<ForemanStats, ForemanError> {
        let machine = Sched::regional(0, timeout, false);
        run_scheduler(end, machine, tick_of(timeout), Obs::disabled())
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
    fn recv_skipping_pings(t: &ThreadTransport) -> Message {
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
        let f = thread::spawn(move || run_root(root_end, 1, Duration::from_secs(5)));
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
        let f = thread::spawn(move || run_root(root_end, 2, Duration::from_secs(5)));
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
        let f = thread::spawn(move || run_root(root_end, 2, Duration::from_millis(50)));
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
        let f = thread::spawn(move || run_region(region_end, Duration::from_secs(5)).unwrap());
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
    fn a_region_severed_mid_lease_loses_its_unsent_result_and_the_root_reclaims_it() {
        // Ranks: 0 master, 1 root, 2 monitor (absent), 3 region, 4 worker
        // (scripted). The region's link is severed after it has passed one
        // result upward: the frame carrying the second is lost with it.
        let mut ends = universe(5);
        let worker = ends.remove(4);
        let region_end = FaultyTransport::new(ends.remove(3), FaultPlan::disconnect_after(1));
        let root_end = ends.remove(1);
        let master = ends.remove(0);
        let timeout = Duration::from_millis(50);
        let root = thread::spawn(move || run_root(root_end, 1, timeout));
        let region = thread::spawn(move || run_region(region_end, timeout));
        worker
            .send(regional_rank(0), &Message::WorkerReady)
            .unwrap();
        for t in [1u64, 2] {
            master.send(ranks::FOREMAN, &tree_task(t)).unwrap();
        }
        for t in [1u64, 2] {
            let msg = recv_skipping_pings(&worker);
            assert!(
                matches!(msg, Message::TreeTask { task, .. } if task == t),
                "got {msg:?}"
            );
            worker.send(regional_rank(0), &tree_result(t)).unwrap();
        }
        // The first result got through; the second died with the region,
        // whose shell stops on the severed link.
        let (_, msg) = master.recv().unwrap();
        assert!(matches!(msg, Message::TreeResult { task: 1, .. }));
        assert!(matches!(
            region.join().unwrap(),
            Err(ForemanError::Comm(CommError::Disconnected(_)))
        ));
        // The root's probe of the silent lease holder bounces; with no
        // sibling to take the reclaimed task the run cannot heal, and the
        // master hears that instead of a second result.
        let (_, msg) = master.recv().unwrap();
        assert!(matches!(msg, Message::Abort { .. }), "got {msg:?}");
        master.send(ranks::FOREMAN, &Message::Shutdown).unwrap();
        let stats = root.join().unwrap();
        assert_eq!(stats.regions_lost, 1);
        assert_eq!(stats.stats.timeouts, 1, "the lost result's task reclaimed");
        assert_eq!(stats.stats.results_forwarded, 1);
        assert_eq!(
            stats.workers_rehomed, 0,
            "no surviving region to re-home to"
        );
    }
}
