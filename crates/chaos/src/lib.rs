//! Deterministic chaos harness for the parallel runtime.
//!
//! The paper's fault-tolerance claim (§2.2) is that the foreman's
//! timeout-based work queue survives worker loss without stopping the
//! search. This crate turns that claim into a testable property: a
//! [`ChaosPlan`] is a *seeded, reproducible* schedule of per-message
//! drop / delay / duplicate / corrupt faults plus worker kills and
//! partition windows, applied through the [`ChaosTransport`] wrapper.
//! Running the same plan twice injects exactly the same fault sequence,
//! so a soak test can assert the strong property: the final tree must be
//! byte-identical to the fault-free run whenever at least one worker
//! survives.
//!
//! This generalizes `fdml_comm::fault::FaultPlan`, which only targets the
//! first N result messages with a single fault kind. Faults here are
//! *scheduled in message count, not wall clock*: the nth outgoing result
//! of a rank always draws the same fate, independent of thread timing.
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
//! * **kill** — after a scheduled number of results, the rank's link is
//!   severed for good: every send and receive fails with
//!   [`CommError::Disconnected`], the in-process stand-in for a worker
//!   process dying (`--net` runs kill the actual process instead).
//! * **partition** — a window in result-count space during which the
//!   rank's results are dropped, then connectivity returns.

#![warn(missing_docs)]

pub mod storage;

use fdml_comm::message::Message;
use fdml_comm::transport::{CommError, Rank, Transport};
use fdml_obs::{Event, Obs};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A deterministic pseudo-random stream (splitmix64). Not cryptographic;
/// chosen because it is tiny, dependency-free, and identical on every
/// platform — the properties a reproducible fault schedule needs.
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
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
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

/// A partition window in result-count space: outgoing results with index
/// in `start .. start + length` are dropped, then connectivity returns.
/// Counting messages rather than milliseconds keeps the schedule
/// reproducible across machines and load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First outgoing-result index affected.
    pub start: u64,
    /// How many consecutive results are dropped.
    pub length: u64,
}

impl PartitionWindow {
    fn contains(&self, idx: u64) -> bool {
        idx >= self.start && idx < self.start.saturating_add(self.length)
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
    /// Worker kills: `(rank, after)` severs `rank`'s link for good once it
    /// has sent `after` results. For `--net` runs the launcher maps this to
    /// killing the actual worker process.
    pub kills: Vec<(Rank, u64)>,
    /// Optional partition window applied to every wrapped rank.
    pub partition: Option<PartitionWindow>,
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
            kills: Vec::new(),
            partition: None,
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
            kills: Vec::new(),
            partition: None,
        }
    }

    /// Adds a worker kill: sever `rank` after it has sent `after` results.
    pub fn with_kill(mut self, rank: Rank, after: u64) -> ChaosPlan {
        self.kills.push((rank, after));
        self
    }

    /// Adds a partition window.
    pub fn with_partition(mut self, start: u64, length: u64) -> ChaosPlan {
        self.partition = Some(PartitionWindow { start, length });
        self
    }

    /// When this plan kills `rank`, the result count it is allowed first.
    pub fn kill_for(&self, rank: Rank) -> Option<u64> {
        self.kills
            .iter()
            .find(|(r, _)| *r == rank)
            .map(|(_, after)| *after)
    }

    /// The fault stream for one endpoint: independent per rank, identical
    /// across runs.
    pub fn rng_for(&self, rank: Rank) -> ChaosRng {
        // Golden-ratio rank mixing keeps per-rank streams uncorrelated
        // even for adjacent ranks and seed 0.
        ChaosRng::new(
            self.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_CAFE_F00D_D00D,
        )
    }
}

/// What the plan decided for one outgoing result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Deliver,
    Drop,
    Delay,
    Duplicate,
    Corrupt,
}

/// Counts of injected faults, for assertions that a chaos run actually
/// exercised something.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Results silently dropped (including partition-window drops).
    pub dropped: u64,
    /// Results delayed.
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
    state: Mutex<ChaosState>,
    severed: AtomicBool,
    kill_after: Option<u64>,
    corrupt_events: AtomicU64,
    obs: Obs,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` under `plan`, reporting corruption events to `obs`.
    pub fn new(inner: T, plan: ChaosPlan, obs: Obs) -> ChaosTransport<T> {
        let rank = inner.rank();
        let kill_after = plan.kill_for(rank);
        let severed = kill_after == Some(0);
        ChaosTransport {
            state: Mutex::new(ChaosState {
                rng: plan.rng_for(rank),
                results_sent: 0,
                stats: ChaosStats::default(),
            }),
            inner,
            plan,
            severed: AtomicBool::new(severed),
            kill_after,
            corrupt_events: AtomicU64::new(0),
            obs,
        }
    }

    /// Whether a scheduled kill has triggered.
    pub fn is_severed(&self) -> bool {
        self.severed.load(Ordering::SeqCst)
    }

    /// Fault counts so far.
    pub fn stats(&self) -> ChaosStats {
        self.state.lock().stats
    }

    /// How many corruption events were emitted.
    pub fn corrupt_count(&self) -> u64 {
        self.corrupt_events.load(Ordering::SeqCst)
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
            return Fate::Delay;
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

        let mut state = self.state.lock();
        let idx = state.results_sent;
        state.results_sent += 1;

        if let Some(after) = self.kill_after {
            if idx >= after {
                drop(state);
                self.severed.store(true, Ordering::SeqCst);
                return Err(CommError::Disconnected(self.inner.rank()));
            }
        }
        // The fate is drawn even for messages the partition eats, so each
        // rank's fault stream stays aligned with its result index.
        let fate = self.draw_fate(&mut state);
        if let Some(window) = self.plan.partition {
            if window.contains(idx) {
                state.stats.dropped += 1;
                return Ok(());
            }
        }
        match fate {
            Fate::Deliver => {
                drop(state);
                self.inner.send(to, msg)
            }
            Fate::Drop => {
                state.stats.dropped += 1;
                Ok(())
            }
            Fate::Delay => {
                state.stats.delayed += 1;
                drop(state);
                std::thread::sleep(self.plan.delay);
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
                self.corrupt_events.fetch_add(1, Ordering::SeqCst);
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
        assert_eq!(chaotic.corrupt_count(), 1);
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
    fn partition_window_drops_then_heals() {
        let plan = ChaosPlan::quiet(0).with_partition(1, 2);
        let (got, stats) = delivered_tasks(&plan, 5);
        assert_eq!(got, vec![0, 3, 4]);
        assert_eq!(stats.dropped, 2);
    }
}
