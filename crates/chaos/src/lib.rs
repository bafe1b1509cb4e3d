//! Deterministic chaos harness for the parallel runtime.
//!
//! The paper's fault-tolerance claim (§2.2) is that the foreman's
//! timeout-based work queue survives worker loss without stopping the
//! search. This crate turns that claim into a testable property: a
//! [`ChaosPlan`] is a *seeded, reproducible* schedule of per-message
//! drop / delay / duplicate / corrupt faults plus faults scripted on
//! named ranks, applied through the [`ChaosTransport`] wrapper — the one
//! way a worker fault is injected in process. Running the same plan twice
//! injects exactly the same fault sequence, so a soak test can assert the
//! strong property: the final tree must be byte-identical to the
//! fault-free run whenever at least one worker survives.
//!
//! Faults are *scheduled in message count, not wall clock*: the nth
//! outgoing result of a rank always draws the same fate, independent of
//! thread timing.
//!
//! Fault semantics mirror what the wire layer does:
//!
//! * **drop** — the result vanishes; the foreman's timeout requeues it.
//! * **delay** — the result arrives late; the foreman may have requeued
//!   it already, in which case it is deduplicated.
//! * **duplicate** — the result arrives twice; the foreman ignores the
//!   second copy.
//! * **corrupt** — the payload is damaged in flight. In-process messages
//!   are typed and cannot carry garbage, so corruption models what the
//!   CRC32-checked TCP framing does on a bad checksum: the frame is
//!   *detected and discarded* (an [`Event::FrameCorrupt`] is emitted) —
//!   corruption degrades to loss, never to a parse panic.
//!
//! A [`Scripted`] fault pins a drop or delay to a window of one rank's
//! result indices (a window of drops is a partition that heals), or
//! severs the rank after a number of results: every send and receive then
//! fails with [`CommError::Disconnected`], the in-process stand-in for a
//! worker process dying.

#![warn(missing_docs)]

pub mod storage;

use fdml_comm::lock;
use fdml_comm::message::Message;
use fdml_comm::transport::{CommError, Rank, Transport};
use fdml_obs::{Event, Obs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A deterministic pseudo-random stream ([`rand::splitmix64`]). Not
/// cryptographic; chosen because it is tiny, dependency-free, and identical
/// on every platform — the properties a reproducible fault schedule needs.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        rand::splitmix64(&mut self.state)
    }

    /// A draw uniform in `0..bound` (`bound` of 0 returns 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// A fault scripted on one rank, placed by that rank's outgoing-result
/// index. Counting results rather than milliseconds keeps the script
/// reproducible across machines and load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scripted {
    /// Results `from .. from + count` are silently dropped.
    Drop {
        /// First result index affected.
        from: u64,
        /// How many consecutive results (`u64::MAX`: all from `from` on).
        count: u64,
    },
    /// Results `from .. from + count` are held for `by`, then delivered.
    Delay {
        /// First result index affected.
        from: u64,
        /// How many consecutive results.
        count: u64,
        /// How long each is held.
        by: Duration,
    },
    /// `after` results get through, then the link is severed for good.
    Sever {
        /// How many results are let through first (0: dead from the start).
        after: u64,
    },
}

impl Scripted {
    /// Whether this fault covers result `idx`.
    fn covers(&self, idx: u64) -> bool {
        match *self {
            Scripted::Drop { from, count } | Scripted::Delay { from, count, .. } => {
                idx >= from && idx - from < count
            }
            Scripted::Sever { after } => idx >= after,
        }
    }
}

/// A seeded, reproducible schedule of faults. Per-message fault
/// probabilities are in permille (0..=1000) and are drawn from a stream
/// derived from `seed` and the endpoint's rank, so every rank sees an
/// independent but fully deterministic fault sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Master seed; all per-rank streams derive from it.
    pub seed: u64,
    /// Permille of outgoing results silently dropped.
    pub drop_per_mille: u64,
    /// Permille of outgoing results delayed by [`ChaosPlan::delay`].
    pub delay_per_mille: u64,
    /// Permille of outgoing results sent twice.
    pub duplicate_per_mille: u64,
    /// Permille of outgoing results corrupted in flight (detected by the
    /// integrity check and discarded, like a CRC failure on the wire).
    pub corrupt_per_mille: u64,
    /// How long a delayed result is held.
    pub delay: Duration,
    /// Faults scripted on named ranks. A scripted fault overrides the
    /// result's drawn fate; the first entry that covers a result applies,
    /// and a sever always wins. In-process only: a `--net` worker process
    /// is killed by `--die-rank` / `--die-after-tasks` instead.
    pub script: Vec<(Rank, Scripted)>,
}

impl ChaosPlan {
    /// A plan with no faults at all (the control arm of a soak matrix).
    pub fn quiet(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            drop_per_mille: 0,
            delay_per_mille: 0,
            duplicate_per_mille: 0,
            corrupt_per_mille: 0,
            delay: Duration::ZERO,
            script: Vec::new(),
        }
    }

    /// A mixed-fault plan derived entirely from `seed`: each fault class
    /// gets a rate in 0..150‰ and the delay lands in 1..=20 ms, so a soak
    /// matrix over eight seeds exercises eight different fault mixes
    /// without hand-tuning.
    pub fn seeded(seed: u64) -> ChaosPlan {
        let mut rng = ChaosRng::new(seed);
        ChaosPlan {
            seed,
            drop_per_mille: rng.below(150),
            delay_per_mille: rng.below(150),
            duplicate_per_mille: rng.below(150),
            corrupt_per_mille: rng.below(150),
            delay: Duration::from_millis(1 + rng.below(20)),
            script: Vec::new(),
        }
    }

    fn with_fault(mut self, rank: Rank, fault: Scripted) -> ChaosPlan {
        self.script.push((rank, fault));
        self
    }

    /// Drops `rank`'s results `from .. from + count`.
    pub fn with_drop(self, rank: Rank, from: u64, count: u64) -> ChaosPlan {
        self.with_fault(rank, Scripted::Drop { from, count })
    }

    /// Holds `rank`'s results `from .. from + count` for `by` each.
    pub fn with_delay(self, rank: Rank, from: u64, count: u64, by: Duration) -> ChaosPlan {
        self.with_fault(rank, Scripted::Delay { from, count, by })
    }

    /// Kills a worker: severs `rank` after it has sent `after` results.
    pub fn with_kill(self, rank: Rank, after: u64) -> ChaosPlan {
        self.with_fault(rank, Scripted::Sever { after })
    }

    /// The fault stream for one endpoint: independent per rank, identical
    /// across runs.
    pub fn rng_for(&self, rank: Rank) -> ChaosRng {
        // Golden-ratio rank mixing keeps per-rank streams uncorrelated
        // even for adjacent ranks and seed 0.
        ChaosRng::new(
            self.seed ^ (rank as u64).wrapping_mul(rand::GOLDEN_GAMMA) ^ 0x5EED_CAFE_F00D_D00D,
        )
    }
}

/// What the plan decided for one outgoing result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Deliver,
    Drop,
    Delay(Duration),
    Duplicate,
    Corrupt,
}

/// Counts of injected faults, for assertions that a chaos run actually
/// exercised something.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Results silently dropped (scripted drops included).
    pub dropped: u64,
    /// Results delayed (scripted delays included).
    pub delayed: u64,
    /// Results sent twice.
    pub duplicated: u64,
    /// Results corrupted-and-discarded.
    pub corrupted: u64,
}

struct ChaosState {
    rng: ChaosRng,
    results_sent: u64,
    stats: ChaosStats,
}

/// A [`Transport`] wrapper applying a [`ChaosPlan`] to outgoing result
/// messages ([`Message::is_result`]: `TreeResult`, `JumbleResult`,
/// `EditScores`). Control traffic (problem data, readiness, shutdown)
/// passes through untouched — chaos attacks the data plane, which is
/// where the fault-tolerance machinery lives.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    plan: ChaosPlan,
    /// This rank's scripted faults, in plan order.
    script: Vec<Scripted>,
    state: Mutex<ChaosState>,
    severed: AtomicBool,
    obs: Obs,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` under `plan`, reporting corruption events to `obs`.
    pub fn new(inner: T, plan: ChaosPlan, obs: Obs) -> ChaosTransport<T> {
        let rank = inner.rank();
        let script: Vec<Scripted> = plan
            .script
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, fault)| *fault)
            .collect();
        let severed = script.contains(&Scripted::Sever { after: 0 });
        ChaosTransport {
            state: Mutex::new(ChaosState {
                rng: plan.rng_for(rank),
                results_sent: 0,
                stats: ChaosStats::default(),
            }),
            inner,
            plan,
            script,
            severed: AtomicBool::new(severed),
            obs,
        }
    }

    /// Whether a scripted sever has triggered.
    pub fn is_severed(&self) -> bool {
        self.severed.load(Ordering::SeqCst)
    }

    /// Fault counts so far.
    pub fn stats(&self) -> ChaosStats {
        lock(&self.state).stats
    }

    fn draw_fate(&self, state: &mut ChaosState) -> Fate {
        let roll = state.rng.below(1000);
        let p = &self.plan;
        let mut edge = p.drop_per_mille;
        if roll < edge {
            return Fate::Drop;
        }
        edge += p.delay_per_mille;
        if roll < edge {
            return Fate::Delay(p.delay);
        }
        edge += p.duplicate_per_mille;
        if roll < edge {
            return Fate::Duplicate;
        }
        edge += p.corrupt_per_mille;
        if roll < edge {
            return Fate::Corrupt;
        }
        Fate::Deliver
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
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
        if !msg.is_result() {
            return self.inner.send(to, msg);
        }

        let mut state = lock(&self.state);
        let idx = state.results_sent;
        state.results_sent += 1;

        let severs = |s: &Scripted| matches!(s, Scripted::Sever { .. }) && s.covers(idx);
        if self.script.iter().any(severs) {
            drop(state);
            self.severed.store(true, Ordering::SeqCst);
            return Err(CommError::Disconnected(self.inner.rank()));
        }
        // The fate is drawn even for results a scripted fault overrides,
        // so each rank's fault stream stays aligned with its result index.
        let drawn = self.draw_fate(&mut state);
        let fate = match self.script.iter().find(|s| s.covers(idx)) {
            Some(Scripted::Drop { .. }) => Fate::Drop,
            Some(Scripted::Delay { by, .. }) => Fate::Delay(*by),
            _ => drawn,
        };
        match fate {
            Fate::Deliver => {
                drop(state);
                self.inner.send(to, msg)
            }
            Fate::Drop => {
                state.stats.dropped += 1;
                Ok(())
            }
            Fate::Delay(by) => {
                state.stats.delayed += 1;
                drop(state);
                std::thread::sleep(by);
                self.inner.send(to, msg)
            }
            Fate::Duplicate => {
                state.stats.duplicated += 1;
                drop(state);
                self.inner.send(to, msg)?;
                self.inner.send(to, msg)
            }
            Fate::Corrupt => {
                state.stats.corrupted += 1;
                drop(state);
                // Corruption is *detected* (as the CRC32 wire check would)
                // and the damaged payload discarded: loss, not garbage.
                let rank = self.inner.rank();
                self.obs.emit(|| Event::FrameCorrupt { rank });
                Ok(())
            }
        }
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
    use fdml_comm::threads::ThreadUniverse;
    use fdml_obs::MemorySink;

    /// Fault schedules are replayed from their seed: the stream's first
    /// draws, pinned as literals.
    #[test]
    fn chaos_rng_stream_is_pinned() {
        let draws = |seed| {
            let mut rng = ChaosRng::new(seed);
            [rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(
            draws(0),
            [
                16294208416658607535,
                7960286522194355700,
                487617019471545679
            ]
        );
        assert_eq!(
            draws(42),
            [
                13679457532755275413,
                2949826092126892291,
                5139283748462763858
            ]
        );
    }

    fn result_msg(task: u64) -> Message {
        Message::TreeResult {
            task,
            newick: "(a,b);".into(),
            ln_likelihood: -1.0,
            work_units: 1,
        }
    }

    fn delivered_tasks(plan: &ChaosPlan, sends: u64) -> (Vec<u64>, ChaosStats) {
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let chaotic = ChaosTransport::new(ends.remove(0), plan.clone(), Obs::disabled());
        for t in 0..sends {
            // A killed link errors; the caller would stop sending.
            if chaotic.send(0, &result_msg(t)).is_err() {
                break;
            }
        }
        let mut got = Vec::new();
        while let Ok(Some((_, msg))) = receiver.try_recv() {
            match msg {
                Message::TreeResult { task, .. } => got.push(task),
                other => panic!("unexpected {other:?}"),
            }
        }
        (got, chaotic.stats())
    }

    #[test]
    fn same_seed_injects_the_same_fault_sequence() {
        let plan = ChaosPlan::seeded(42);
        let (a, sa) = delivered_tasks(&plan, 200);
        let (b, sb) = delivered_tasks(&plan, 200);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = delivered_tasks(&ChaosPlan::seeded(1), 200);
        let (b, _) = delivered_tasks(&ChaosPlan::seeded(2), 200);
        assert_ne!(
            a, b,
            "two seeds producing identical 200-message fates is ~impossible"
        );
    }

    #[test]
    fn seeded_plans_mix_fault_classes() {
        // Over a handful of seeds, every fault class shows up somewhere.
        let mut total = ChaosStats::default();
        for seed in 0..8 {
            let (_, s) = delivered_tasks(&ChaosPlan::seeded(seed), 300);
            total.dropped += s.dropped;
            total.delayed += s.delayed;
            total.duplicated += s.duplicated;
            total.corrupted += s.corrupted;
        }
        assert!(total.dropped > 0);
        assert!(total.duplicated > 0);
        assert!(total.corrupted > 0);
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let (got, stats) = delivered_tasks(&ChaosPlan::quiet(7), 50);
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert_eq!(stats, ChaosStats::default());
    }

    #[test]
    fn duplicate_sends_twice_and_drop_sends_nothing() {
        let plan = ChaosPlan {
            duplicate_per_mille: 1000,
            ..ChaosPlan::quiet(0)
        };
        let (got, stats) = delivered_tasks(&plan, 3);
        assert_eq!(got, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(stats.duplicated, 3);

        let plan = ChaosPlan {
            drop_per_mille: 1000,
            ..ChaosPlan::quiet(0)
        };
        let (got, stats) = delivered_tasks(&plan, 3);
        assert!(got.is_empty());
        assert_eq!(stats.dropped, 3);
    }

    #[test]
    fn kill_severs_at_the_scheduled_count() {
        let plan = ChaosPlan::quiet(0).with_kill(1, 2);
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let chaotic = ChaosTransport::new(ends.remove(0), plan, Obs::disabled());
        chaotic.send(0, &result_msg(0)).unwrap();
        chaotic.send(0, &result_msg(1)).unwrap();
        assert_eq!(
            chaotic.send(0, &result_msg(2)),
            Err(CommError::Disconnected(1))
        );
        assert!(chaotic.is_severed());
        assert_eq!(
            chaotic.recv_timeout(Duration::from_millis(1)),
            Err(CommError::Disconnected(1))
        );
        // Control traffic also fails once severed: the process is "dead".
        assert_eq!(
            chaotic.send(0, &Message::WorkerReady),
            Err(CommError::Disconnected(1))
        );
        let mut got = 0;
        while let Ok(Some(_)) = receiver.try_recv() {
            got += 1;
        }
        assert_eq!(got, 2);
    }

    #[test]
    fn kill_after_zero_is_dead_on_arrival() {
        let plan = ChaosPlan::quiet(0).with_kill(1, 0);
        let mut ends = ThreadUniverse::create(2);
        let _receiver = ends.remove(0);
        let chaotic = ChaosTransport::new(ends.remove(0), plan, Obs::disabled());
        assert!(chaotic.is_severed());
        assert_eq!(
            chaotic.send(0, &Message::WorkerReady),
            Err(CommError::Disconnected(1))
        );
    }

    #[test]
    fn corrupt_is_detected_dropped_and_reported() {
        let plan = ChaosPlan {
            corrupt_per_mille: 1000,
            ..ChaosPlan::quiet(0)
        };
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let mem = MemorySink::new();
        let chaotic = ChaosTransport::new(ends.remove(0), plan, Obs::new(Box::new(mem.clone())));
        chaotic.send(0, &result_msg(0)).unwrap();
        assert!(
            receiver.try_recv().unwrap().is_none(),
            "corrupt frame must not deliver"
        );
        assert_eq!(chaotic.stats().corrupted, 1);
        let records = mem.snapshot();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].event, Event::FrameCorrupt { rank: 1 });
        // Control traffic is untouched.
        chaotic.send(0, &Message::WorkerReady).unwrap();
        assert!(receiver.try_recv().unwrap().is_some());
    }

    #[test]
    fn chunk_scores_are_attacked_like_tree_results() {
        // An edit chunk's answer is a result: it draws a fate and counts
        // toward the kill index exactly as a `TreeResult` does.
        let plan = ChaosPlan {
            drop_per_mille: 1000,
            ..ChaosPlan::quiet(0)
        }
        .with_kill(1, 2);
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let chaotic = ChaosTransport::new(ends.remove(0), plan, Obs::disabled());
        let scores = Message::EditScores {
            task: 7,
            scores: Vec::new(),
        };
        chaotic.send(0, &scores).unwrap();
        chaotic.send(0, &result_msg(8)).unwrap();
        assert!(receiver.try_recv().unwrap().is_none(), "both dropped");
        assert_eq!(chaotic.stats().dropped, 2);
        assert!(chaotic.send(0, &scores).is_err(), "third result: killed");
    }

    #[test]
    fn a_scripted_drop_takes_only_its_window() {
        let plan = ChaosPlan::quiet(0).with_drop(1, 0, 2);
        let (got, stats) = delivered_tasks(&plan, 4);
        assert_eq!(got, vec![2, 3]);
        assert_eq!(stats.dropped, 2);
        // A window in the middle is a partition that heals.
        let plan = ChaosPlan::quiet(0).with_drop(1, 1, 2);
        let (got, stats) = delivered_tasks(&plan, 5);
        assert_eq!(got, vec![0, 3, 4]);
        assert_eq!(stats.dropped, 2);
    }

    #[test]
    fn a_scripted_fault_keeps_the_seeded_stream_aligned() {
        // Outside its window, a scripted drop changes no result's fate.
        let seeded = ChaosPlan::seeded(42);
        let (plain, _) = delivered_tasks(&seeded, 200);
        let (scripted, _) = delivered_tasks(&seeded.clone().with_drop(1, 50, 20), 200);
        let outside = |tasks: Vec<u64>| -> Vec<u64> {
            tasks
                .into_iter()
                .filter(|t| !(50..70).contains(t))
                .collect()
        };
        assert_eq!(outside(plain), outside(scripted.clone()));
        assert!(scripted.iter().all(|t| !(50..70).contains(t)));
    }

    #[test]
    fn chunk_scores_take_a_scripted_result_slot_and_control_passes() {
        let plan = ChaosPlan::quiet(0).with_drop(1, 0, 1);
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let chaotic = ChaosTransport::new(ends.remove(0), plan, Obs::disabled());
        chaotic.send(0, &Message::Ping).unwrap();
        let scores = Message::EditScores {
            task: 1,
            scores: Vec::new(),
        };
        chaotic.send(0, &scores).unwrap();
        chaotic.send(0, &result_msg(2)).unwrap();
        // The ping passed, the scores were result 0 and dropped, result 1
        // was delivered.
        assert_eq!(receiver.try_recv().unwrap().unwrap().1, Message::Ping);
        match receiver.try_recv().unwrap().unwrap().1 {
            Message::TreeResult { task, .. } => assert_eq!(task, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(receiver.try_recv().unwrap().is_none());
        assert_eq!(chaotic.stats().dropped, 1);
    }

    #[test]
    fn control_traffic_passes_a_rank_that_drops_every_result() {
        let plan = ChaosPlan::quiet(0).with_drop(1, 0, u64::MAX);
        let mut ends = ThreadUniverse::create(2);
        let plain = ends.remove(0);
        let chaotic = ChaosTransport::new(ends.remove(0), plan, Obs::disabled());
        chaotic.send(0, &Message::WorkerReady).unwrap();
        assert_eq!(plain.try_recv().unwrap().unwrap().1, Message::WorkerReady);
        // Nor is anything the rank receives touched.
        plain.send(1, &Message::Shutdown).unwrap();
        assert_eq!(chaotic.try_recv().unwrap().unwrap(), (0, Message::Shutdown));
    }

    #[test]
    fn a_scripted_delay_still_delivers() {
        let plan = ChaosPlan::quiet(0).with_delay(1, 0, 1, Duration::from_millis(30));
        let mut ends = ThreadUniverse::create(2);
        let receiver = ends.remove(0);
        let chaotic = ChaosTransport::new(ends.remove(0), plan, Obs::disabled());
        let start = std::time::Instant::now();
        chaotic.send(0, &result_msg(0)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(receiver.try_recv().unwrap().is_some());
        // Only the scripted result waits.
        chaotic.send(0, &result_msg(1)).unwrap();
        assert!(receiver.try_recv().unwrap().is_some());
        assert_eq!(chaotic.stats().delayed, 1);
    }

    #[test]
    fn a_fault_scripted_on_one_rank_leaves_another_untouched() {
        let plan = ChaosPlan::quiet(0)
            .with_drop(1, 0, u64::MAX)
            .with_delay(1, 0, 1, Duration::from_secs(60))
            .with_kill(1, 0);
        let mut ends = ThreadUniverse::create(3);
        let receiver = ends.remove(0);
        let victim = ChaosTransport::new(ends.remove(0), plan.clone(), Obs::disabled());
        let bystander = ChaosTransport::new(ends.remove(0), plan, Obs::disabled());
        assert!(victim.is_severed());
        assert!(!bystander.is_severed());
        for t in 0..5 {
            bystander.send(0, &result_msg(t)).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(Some((from, Message::TreeResult { task, .. }))) = receiver.try_recv() {
            assert_eq!(from, 2);
            got.push(task);
        }
        assert_eq!(got, (0..5).collect::<Vec<_>>());
        assert_eq!(bystander.stats(), ChaosStats::default());
    }
}
