//! The jumble farm: many random addition orders at once.
//!
//! The paper's time-to-solution argument (§6) is about *many* jumbles —
//! 200 random addition orders take years serially but a month on 64 CPUs.
//! This module is that layer: a two-level orchestrator in which the farm
//! scheduler (level 1) shards whole jumbles across the worker pool while
//! each jumble (level 2) is a complete stepwise-addition search. A jumble
//! travels as a single [`Message::JumbleTask`]; the worker runs it through
//! [`crate::worker::Evaluator::jumble`] — the search every deployment runs,
//! over an in-process loopback, always edit-scored. The serial farm is the
//! same farm master over a [`Loopback`], so farm output is byte-identical
//! regardless of farm width or transport, and line *k* of it is the single
//! search `--jumble seed_k --incremental`.
//!
//! The foreman's existing machinery — ready queue, timeout requeue, eager
//! disconnect requeue, duplicate dedup — schedules jumbles exactly as it
//! schedules candidate trees, which is what keeps the pool saturated
//! through each jumble's stepwise-addition tail: the moment a worker
//! finishes, the next pending jumble is dispatched to it.
//!
//! What a farm has to remember is one [`Ledger`]: results stream into an
//! incremental majority-rule consensus ([`ConsensusAccumulator`]) and into
//! a [`FarmManifest`] checkpoint (write-then-rename after every
//! completion), so `--resume` recomputes only unfinished jumbles and the
//! consensus is available the moment the last jumble lands. The job
//! daemon's scheduler keeps each job in the same ledger.

use crate::checkpoint::{FarmManifest, JumbleStatus, ManifestEntry};
use crate::config::SearchConfig;
use crate::jumble::adjust_seed;
use crate::loopback::Loopback;
use crate::wal::{self, WalRound, WalWriter};
use crate::worker::ranks;
use fdml_comm::message::Message;
use fdml_comm::transport::Transport;
use fdml_obs::{Event, Obs};
use fdml_phylo::alignment::Alignment;
use fdml_phylo::consensus::{Consensus, ConsensusAccumulator};
use fdml_phylo::error::PhyloError;
use fdml_phylo::{newick, phylip};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;

/// How a farm run is steered.
#[derive(Debug, Clone, Default)]
pub struct FarmOptions {
    /// Maximum jumbles in flight at once; `0` means "as many as there are
    /// pending jumbles" (the foreman then shards the workers across all of
    /// them). A small width bounds the blast radius of a restart.
    pub width: usize,
    /// Where to write the manifest after every completed jumble (atomic
    /// write-then-rename). `None` disables checkpointing.
    pub manifest_path: Option<PathBuf>,
    /// A previously written manifest to resume from: `Done` entries are
    /// replayed into the consensus without recomputation, `Pending` entries
    /// are run.
    pub resume: Option<FarmManifest>,
    /// Where each in-flight jumble keeps its write-ahead round log
    /// ([`crate::wal`]). `None` disables the WAL; with a directory, a
    /// killed coordinator resumes every unfinished jumble from its last
    /// committed round instead of its last taxon-addition boundary.
    pub wal_dir: Option<PathBuf>,
}

/// One jumble's outcome in a farm run.
#[derive(Debug, Clone, Default)]
pub struct JumbleRun {
    /// The adjusted jumble seed.
    pub seed: u64,
    /// The best tree, as Newick text.
    pub newick: String,
    /// Its log-likelihood.
    pub ln_likelihood: f64,
    /// Dispatch rounds the search ran (0 when replayed from a manifest).
    pub rounds: u64,
    /// Candidate trees evaluated (0 when replayed from a manifest).
    pub candidates: u64,
    /// Work units expended (0 when replayed from a manifest).
    pub work_units: u64,
    /// True when the result came from a resumed manifest.
    pub reused: bool,
}

/// What every farm deployment (serial, threads, TCP) produces.
#[derive(Debug, Clone)]
pub struct FarmParts {
    /// Per-jumble results, in seed order (not completion order).
    pub runs: Vec<JumbleRun>,
    /// The majority-rule consensus of all jumble trees.
    pub consensus: Consensus,
    /// The final manifest (every entry `Done`).
    pub manifest: FarmManifest,
}

impl FarmParts {
    /// The best log-likelihood over all jumbles.
    pub fn best_ln_likelihood(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.ln_likelihood)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The CLI's seed schedule: `jumbles` seeds starting at `base_seed` with
/// stride 2 (fastDNAml's convention keeps user seeds odd), adjusted and
/// deduplicated.
pub fn plan_seeds(base_seed: u64, jumbles: usize) -> Result<Vec<u64>, PhyloError> {
    let raw: Vec<u64> = (0..jumbles as u64)
        .map(|i| base_seed.wrapping_add(2 * i))
        .collect();
    dedup_adjusted(&raw)
}

/// Canonicalize a user seed list: adjust each seed ([`adjust_seed`]) and
/// drop duplicates, keeping first-occurrence order. Seeds 4 and 5 name the
/// same jumble (both adjust to 5); running both would silently do the same
/// work twice and double-weight that topology in the consensus.
pub fn dedup_adjusted(seeds: &[u64]) -> Result<Vec<u64>, PhyloError> {
    let mut seen = std::collections::HashSet::new();
    let out: Vec<u64> = seeds
        .iter()
        .map(|&s| adjust_seed(s))
        .filter(|&s| seen.insert(s))
        .collect();
    if out.is_empty() {
        return Err(PhyloError::InvalidTreeOp(
            "at least one jumble seed is required".into(),
        ));
    }
    Ok(out)
}

/// One job's jumble bookkeeping, as a plain value with no transport and
/// no clock: the manifest, the seeds still to dispatch, the dispatches in
/// flight (by task id), one round log per in-flight jumble, the per-seed
/// runs and the running consensus. The farm master (over threads, TCP or
/// the serial [`Loopback`]) and the daemon's scheduler both drive one. What
/// an error means is its holder's policy — the farm master aborts on any,
/// the daemon fails the job on a bad result and shrugs off a sick log — so
/// a log's trouble (`io::Result`) travels beside an outcome, never as it.
pub struct Ledger {
    names: Vec<String>,
    manifest: FarmManifest,
    manifest_path: Option<PathBuf>,
    /// The problem its tasks and round-log files name; 0: the anonymous farm.
    job: u64,
    wal_dir: Option<PathBuf>,
    runs: HashMap<u64, JumbleRun>,
    acc: ConsensusAccumulator,
    /// Seeds not yet dispatched, in plan order; requeues go to the front.
    pending: VecDeque<u64>,
    /// Task id → seed of every dispatch not yet answered or requeued.
    flights: HashMap<u64, u64>,
    /// Append handle of each in-flight jumble whose log is healthy.
    writers: HashMap<u64, WalWriter>,
    obs: Obs,
}

impl Ledger {
    /// Start (or resume) a job: validate the seed list against the resume
    /// manifest or build a fresh one, fold every `Done` entry into the
    /// consensus, and retire those entries' round logs — a crash can land
    /// between the manifest rename and the retire, and the stale log would
    /// otherwise survive every future resume. The second value is a log
    /// that would not go; the ledger is good either way.
    pub fn open(
        alignment: &Alignment,
        seeds: &[u64],
        resume: Option<FarmManifest>,
        manifest_path: Option<PathBuf>,
        job: u64,
        wal_dir: Option<PathBuf>,
        obs: &Obs,
    ) -> Result<(Ledger, io::Result<()>), PhyloError> {
        let seeds = dedup_adjusted(seeds)?;
        let manifest = match resume {
            Some(m) if m.seeds() != seeds => {
                return Err(PhyloError::InvalidTreeOp(format!(
                    "manifest seeds {:?} do not match the requested farm {:?}",
                    m.seeds(),
                    seeds
                )));
            }
            Some(m) => m,
            None => FarmManifest::new(&seeds),
        };
        let names = alignment.names().to_vec();
        let mut acc = ConsensusAccumulator::new(names.len(), 0.5, names.clone())?;
        let mut runs = HashMap::new();
        for entry in &manifest.entries {
            if entry.status != JumbleStatus::Done {
                continue;
            }
            let missing = |what| PhyloError::InvalidTreeOp(format!("Done entry without a {what}"));
            let newick = entry.newick.clone().ok_or_else(|| missing("tree"))?;
            let ln_likelihood = entry.ln_likelihood.ok_or_else(|| missing("likelihood"))?;
            acc.add_tree(&newick::parse_tree_with_names(&newick, &names)?)?;
            obs.emit(|| Event::JumbleCompleted {
                seed: entry.seed,
                ln_likelihood,
                reused: true,
            });
            let run = JumbleRun {
                seed: entry.seed,
                newick,
                ln_likelihood,
                reused: true,
                ..JumbleRun::default()
            };
            runs.insert(entry.seed, run);
        }
        let ledger = Ledger {
            names,
            pending: manifest.unfinished().into(),
            manifest,
            manifest_path,
            job,
            wal_dir,
            acc,
            flights: HashMap::new(),
            writers: HashMap::new(),
            obs: obs.clone(),
            runs,
        };
        let stale = ledger.retire(ledger.runs.keys());
        Ok((ledger, stale))
    }

    /// Delete the round logs of `seeds`: all are tried, the first failure kept.
    fn retire<'a>(&self, seeds: impl IntoIterator<Item = &'a u64>) -> io::Result<()> {
        let dir = self.wal_dir.as_deref();
        let gone = |&seed| dir.map_or(Ok(()), |dir| wal::retire(dir, self.job, seed));
        seeds.into_iter().map(gone).fold(Ok(()), Result::and)
    }

    /// Dispatch the next pending seed as `task`: with a log directory, a
    /// `JumbleResume` carrying the log's committed prefix (the worker
    /// replays it, then streams rounds back from exactly the writer's next
    /// index). A log that cannot be opened is the second value, beside the
    /// plain WAL-less task — this jumble's crash window back at manifest
    /// granularity; sending that is the caller's call. `None`: none pending.
    pub fn next(&mut self, task: u64) -> Option<(Message, io::Result<()>)> {
        let seed = self.pending.pop_front()?;
        self.flights.insert(task, seed);
        self.writers.remove(&seed);
        let job = self.job;
        let plain = match job {
            0 => Message::JumbleTask { task, seed },
            job => Message::JobTask { job, task, seed },
        };
        let Some(dir) = &self.wal_dir else {
            return Some((plain, Ok(())));
        };
        Some(match wal::open(dir, job, seed, self.names.len()) {
            Ok((prefix, writer)) => {
                if !prefix.is_empty() {
                    let rounds = prefix.len() as u64;
                    self.obs.emit(|| Event::WalReplay { job, seed, rounds });
                }
                self.writers.insert(seed, writer);
                let wal = prefix.iter().map(WalRound::to_json).collect();
                let resume = Message::JumbleResume {
                    job,
                    task,
                    seed,
                    wal,
                };
                (resume, Ok(()))
            }
            Err(e) => (plain, Err(e)),
        })
    }

    /// `task` is on its way: emit its `JumbleStarted`. Not [`Ledger::next`]'s
    /// job, so that a failed send (then [`Ledger::requeue`]) starts nothing.
    pub fn started(&self, task: u64) {
        if let Some(&seed) = self.flights.get(&task) {
            self.obs.emit(|| Event::JumbleStarted { seed });
        }
    }

    /// A worker committed a round of `seed`. No writer means the jumble
    /// already finished (a requeued duplicate's late stream) or runs
    /// WAL-less: dropped. A below-next index is a re-streamed prefix from a
    /// restarted worker: deduplicated. An unparseable entry, an index gap
    /// or an append failure is an error, and the last two abandon the log.
    pub fn wal_round(&mut self, seed: u64, entry: &str) -> Result<(), PhyloError> {
        let Some(writer) = self.writers.get_mut(&seed) else {
            return Ok(());
        };
        let round = WalRound::from_json(entry).map_err(failed("bad wal round"))?;
        match writer.append(&round) {
            Ok(Some(bytes)) => self.obs.emit(|| Event::WalAppend {
                job: self.job,
                seed,
                index: round.index,
                bytes,
            }),
            Ok(None) => {}
            Err(e) => {
                self.writers.remove(&seed);
                return Err(failed("wal")(e));
            }
        }
        Ok(())
    }

    /// The answer to `task` arrived. A result for a seed that is not
    /// `Pending` (a reassigned seed answering twice, or no seed of this
    /// job) only closes the flight and is not fresh. A fresh one goes, in
    /// this order and once: consensus, manifest entry, manifest save, log
    /// retire (the result is durable: the log has served its purpose),
    /// `JumbleCompleted`, `FarmProgress`. A seed requeued while this result
    /// was in transit is pulled back out of the pending queue. The second
    /// value is the retire's: the jumble is `Done` whatever became of its log.
    pub fn done(
        &mut self,
        task: u64,
        run: JumbleRun,
    ) -> Result<(bool, io::Result<()>), PhyloError> {
        self.flights.remove(&task);
        let seed = run.seed;
        if !self.is_pending(seed) {
            return Ok((false, Ok(())));
        }
        self.acc
            .add_tree(&newick::parse_tree_with_names(&run.newick, &self.names)?)?;
        self.pending.retain(|&s| s != seed);
        self.manifest
            .mark_done(seed, run.newick.clone(), run.ln_likelihood);
        if let Some(path) = &self.manifest_path {
            self.manifest.save(path).map_err(failed("write manifest"))?;
        }
        self.writers.remove(&seed);
        let retired = self.retire([&seed]);
        self.obs.emit(|| Event::JumbleCompleted {
            seed,
            ln_likelihood: run.ln_likelihood,
            reused: false,
        });
        self.runs.insert(seed, run);
        self.progress();
        Ok((true, retired))
    }

    /// `task` will not be answered (its worker is gone, the foreman
    /// quarantined it, or it never left): close the flight and, if its seed
    /// is still `Pending`, put it at the front of the queue — `true` then:
    /// the next [`Ledger::next`] re-dispatches it over a re-recovered log.
    pub fn requeue(&mut self, task: u64) -> bool {
        let flight = self.flights.remove(&task);
        let pending = flight.filter(|&seed| self.is_pending(seed));
        if let Some(seed) = pending {
            self.pending.push_front(seed);
        }
        pending.is_some()
    }

    fn is_pending(&self, seed: u64) -> bool {
        let pending = |e: &ManifestEntry| e.seed == seed && e.status == JumbleStatus::Pending;
        self.manifest.entries.iter().any(pending)
    }

    /// Seeds waiting for a dispatch, next first.
    pub fn pending(&self) -> &VecDeque<u64> {
        &self.pending
    }

    /// Dispatches neither answered nor requeued.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// `(done, total)` jumbles.
    pub fn completed(&self) -> (usize, usize) {
        let total = self.manifest.entries.len();
        (total - self.manifest.unfinished().len(), total)
    }

    /// Every jumble is `Done` and no dispatch is outstanding.
    pub fn is_complete(&self) -> bool {
        self.flights.is_empty() && self.manifest.is_complete()
    }

    /// Emit the job's `FarmProgress`.
    pub fn progress(&self) {
        let (completed, total) = self.completed();
        self.obs.emit(|| Event::FarmProgress {
            completed,
            in_flight: self.flights.len(),
            pending: self.pending.len(),
            total,
        });
    }

    /// Delete the round log of every unfinished seed — for a job that is
    /// being abandoned, including logs a previous incarnation left for
    /// seeds this one never dispatched.
    pub fn retire_logs(&mut self) -> io::Result<()> {
        self.writers.clear();
        self.retire(&self.manifest.unfinished())
    }

    /// The finished job: runs in plan order (not arrival order), their
    /// majority-rule consensus, the manifest.
    pub fn finish(mut self) -> Result<FarmParts, PhyloError> {
        let runs = self
            .manifest
            .seeds()
            .iter()
            .map(|s| self.runs.remove(s))
            .collect::<Option<Vec<JumbleRun>>>()
            .ok_or_else(|| PhyloError::InvalidTreeOp("finished with jumbles missing".into()))?;
        Ok(FarmParts {
            runs,
            consensus: self.acc.consensus()?,
            manifest: self.manifest,
        })
    }
}

fn failed<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> PhyloError + '_ {
    move |e| PhyloError::Format(format!("{what}: {e}"))
}

/// The serial farm: the farm master over a [`Loopback`], every jumble run on
/// the master's own rank, one after another whatever the width — each round
/// logged as it commits, the manifest saved and the log retired after each
/// jumble. The baseline the determinism suite compares every deployment to.
pub fn serial_farm(
    alignment: &Alignment,
    config: &SearchConfig,
    seeds: &[u64],
    options: &FarmOptions,
    obs: &Obs,
) -> Result<FarmParts, PhyloError> {
    let end = Loopback::new();
    let here = |ledger: &mut Ledger, task: &Message| run_here(&end, ledger, task);
    master(&end, alignment, config, seeds, options, obs, here)
}

/// The farm scheduler, run by rank 0 against any [`Transport`] (threads or
/// TCP): broadcast the problem, keep up to `width` jumbles dispatched
/// through the foreman, fold each [`Message::JumbleResult`] and
/// [`Message::WalRound`] into a [`Ledger`], and refill the pool until
/// every seed is `Done`. The caller owns transport setup and the final
/// `Shutdown`.
pub fn run_farm_master<T: Transport>(
    transport: &T,
    alignment: &Alignment,
    config: &SearchConfig,
    seeds: &[u64],
    options: &FarmOptions,
    obs: &Obs,
) -> Result<FarmParts, PhyloError> {
    let out = |_: &mut Ledger, task: &Message| {
        transport
            .send(ranks::FOREMAN, task)
            .map_err(failed("transport"))
    };
    master(transport, alignment, config, seeds, options, obs, out)
}

/// Run a jumble task on this rank, folding each reply into the ledger the
/// moment `on` produces it: a round is in its log while the jumble is still
/// running, where a kill will find it — not queued behind the compute it
/// protects. After the first error nothing more goes in, the result included.
fn run_here(on: &Loopback, ledger: &mut Ledger, task: &Message) -> Result<(), PhyloError> {
    let mut outcome = Ok(());
    on.serve(task, |reply| {
        if outcome.is_ok() {
            outcome = absorb(ledger, reply).map(drop);
        }
    });
    outcome
}

/// Send the ledger's next jumble through `out`; `false` when none is pending.
fn dispatch(
    ledger: &mut Ledger,
    next_task: &mut u64,
    out: impl FnOnce(&mut Ledger, &Message) -> Result<(), PhyloError>,
) -> Result<bool, PhyloError> {
    let Some((task, log)) = ledger.next(*next_task) else {
        return Ok(false);
    };
    log.map_err(failed("wal"))?;
    ledger.started(*next_task);
    ledger.progress();
    *next_task += 1;
    out(ledger, &task).map(|()| true)
}

/// Fold one reply into the ledger; `true` when it finished a jumble.
fn absorb(ledger: &mut Ledger, msg: Message) -> Result<bool, PhyloError> {
    match msg {
        Message::JumbleResult {
            task,
            seed,
            newick,
            ln_likelihood,
            rounds,
            candidates,
            work_units,
        } => {
            let run = JumbleRun {
                seed,
                newick,
                ln_likelihood,
                rounds,
                candidates,
                work_units,
                reused: false,
            };
            let (fresh, retired) = ledger.done(task, run)?;
            retired.map_err(failed("wal")).map(|()| fresh)
        }
        Message::WalRound { seed, entry, .. } => ledger.wal_round(seed, &entry).map(|()| false),
        Message::Abort { reason } => Err(PhyloError::Format(format!("farm aborted: {reason}"))),
        other => {
            debug_assert!(false, "farm master got unexpected {}", other.kind());
            Ok(false)
        }
    }
}

/// The master over `transport`, its jumble tasks leaving through `out`. A
/// log error of any kind — open, append, retire — aborts the farm, as an
/// `Abort` does: the manifest on disk is resumable, a shrunk crash window is not.
fn master<T: Transport>(
    transport: &T,
    alignment: &Alignment,
    config: &SearchConfig,
    seeds: &[u64],
    options: &FarmOptions,
    obs: &Obs,
    mut out: impl FnMut(&mut Ledger, &Message) -> Result<(), PhyloError>,
) -> Result<FarmParts, PhyloError> {
    let problem = Message::ProblemData {
        phylip: phylip::write(alignment),
        config_json: config.engine_config_json(),
    };
    for rank in ranks::FIRST_WORKER..transport.size() {
        // Best-effort: a worker that died before the broadcast is the
        // foreman's problem (eager requeue / all-dead abort), not ours.
        let _ = transport.send(rank, &problem);
    }
    let (resume, manifest_path) = (options.resume.clone(), options.manifest_path.clone());
    let wal_dir = options.wal_dir.clone();
    let (mut ledger, stale) =
        Ledger::open(alignment, seeds, resume, manifest_path, 0, wal_dir, obs)?;
    stale.map_err(failed("wal"))?;
    let mut next_task: u64 = 0;
    // Built only if the foreman quarantines a jumble.
    let mut local: Option<Loopback> = None;
    let mut refill = true;
    loop {
        // Re-read after every dispatch: a jumble run on this rank is back.
        while refill && (options.width == 0 || ledger.in_flight() < options.width) {
            refill = dispatch(&mut ledger, &mut next_task, &mut out)?;
        }
        if ledger.in_flight() == 0 {
            return ledger.finish();
        }
        let (_, msg) = transport.recv().map_err(failed("transport"))?;
        refill = match msg {
            Message::Quarantined { task, .. } => {
                // The foreman exhausted this jumble's failure budget across
                // distinct workers; run it here, through a loopback, over the
                // log re-recovered with whatever they streamed before dying.
                if ledger.requeue(task) {
                    let local = local.get_or_insert_with(|| {
                        let local = Loopback::new();
                        let _ = local.send(ranks::FIRST_WORKER, &problem);
                        local
                    });
                    let here = |ledger: &mut Ledger, task: &Message| run_here(local, ledger, task);
                    dispatch(&mut ledger, &mut next_task, here)?;
                }
                true
            }
            // Transport-synthesized liveness: a departed worker is the
            // foreman's problem; a (re)joined worker needs the problem data
            // before it can serve jumbles.
            Message::PeerDown { .. } => false,
            Message::PeerUp { rank } => {
                let _ = transport.send(rank, &problem);
                false
            }
            other => absorb(&mut ledger, other)?,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_seeds_strides_and_dedups() {
        assert_eq!(plan_seeds(1, 3).unwrap(), vec![1, 3, 5]);
        // Even base: every seed adjusts up by one; no collisions.
        assert_eq!(plan_seeds(4, 3).unwrap(), vec![5, 7, 9]);
        assert!(plan_seeds(1, 0).is_err());
    }

    #[test]
    fn dedup_folds_colliding_seeds() {
        // 4 and 5 both adjust to 5: one jumble, not two.
        assert_eq!(dedup_adjusted(&[4, 5, 7]).unwrap(), vec![5, 7]);
        assert_eq!(dedup_adjusted(&[9, 9, 1]).unwrap(), vec![9, 1]);
        assert!(dedup_adjusted(&[]).is_err());
    }

    // ----- the ledger, with no transport and no clock ---------------------

    use crate::wal::{wal_path, WalMove, WalPhase};
    use fdml_chaos::storage::{self, StoragePlan};
    use std::path::Path;

    const PHYLIP: &str = "\
6 40
t0        ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT
t1        ACGTACGTACTTACGTACGTACGAACGTACGTACGTACGT
t2        ACGAACGTACGTACGGACGTACGTACCTACGTAGGTACGT
t3        ACGAACGTACGTACGGACGTACTTACCTACGTAGGTACTT
t4        TCGAACGGACGTACGGAAGTACGTACCTACGGAGGTACGA
t5        TCGAACGGACGTACGGAAGTACGTTCCTACGGAGGAACGA
";
    const SEEDS: [u64; 3] = [7, 9, 11];

    fn workdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fdml-ledger-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The three jumbles' real results, from a plain serial farm.
    fn baseline(alignment: &Alignment) -> Vec<JumbleRun> {
        let options = FarmOptions::default();
        let config = SearchConfig::default();
        serial_farm(alignment, &config, &SEEDS, &options, &Obs::disabled())
            .unwrap()
            .runs
    }

    fn open(alignment: &Alignment, dir: &Path, resume: Option<FarmManifest>) -> Ledger {
        let (manifest, wal) = (dir.join("manifest.json"), dir.join("wal"));
        let quiet = Obs::disabled();
        let (ledger, stale) = Ledger::open(
            alignment,
            &SEEDS,
            resume,
            Some(manifest),
            0,
            Some(wal),
            &quiet,
        )
        .unwrap();
        stale.expect("stale logs retire");
        ledger
    }

    /// `Ledger::done`, the log retired: was the result fresh?
    fn done(ledger: &mut Ledger, task: u64, run: &JumbleRun) -> bool {
        let (fresh, retired) = ledger.done(task, run.clone()).unwrap();
        retired.expect("log retires");
        fresh
    }

    /// Dispatch the next seed; its log must have opened.
    fn next_ok(ledger: &mut Ledger, task: u64) -> Message {
        let (msg, wal) = ledger.next(task).expect("a seed is pending");
        wal.expect("log opens");
        msg
    }

    fn round(index: u64) -> String {
        let round = WalRound {
            index,
            phase: WalPhase::Addition,
            tried: vec![WalMove::Ins {
                taxon: 3,
                a: 0,
                b: 4,
            }],
            accepted: true,
            lnl_bits: (-100.0f64).to_bits(),
        };
        round.to_json()
    }

    fn log_len(dir: &Path, seed: u64) -> Option<usize> {
        let state = wal::load(&dir.join("wal"), 0, seed).unwrap();
        state.map(|s| s.rounds.len())
    }

    #[test]
    fn duplicate_result_is_not_fresh_and_touches_nothing() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let runs = baseline(&alignment);
        let dir = workdir("dup");
        let mut ledger = open(&alignment, &dir, None);
        let msg = next_ok(&mut ledger, 0);
        assert!(
            matches!(msg, Message::JumbleResume { task: 0, seed: 7, ref wal, .. } if wal.is_empty())
        );
        assert!(wal_path(&dir.join("wal"), 0, 7).exists());
        assert!(done(&mut ledger, 0, &runs[0]));
        assert!(!wal_path(&dir.join("wal"), 0, 7).exists(), "log retired");
        let on_disk = std::fs::read(dir.join("manifest.json")).unwrap();
        assert_eq!(ledger.completed(), (1, 3));

        // The same seed answers again under another task id, with another
        // tree: not fresh, and neither the manifest nor the consensus moves.
        let mut other = runs[1].clone();
        other.seed = 7;
        assert!(!done(&mut ledger, 5, &other));
        // A seed that is no part of this farm is no more welcome.
        let mut foreign = runs[1].clone();
        foreign.seed = 99;
        assert!(!done(&mut ledger, 6, &foreign));
        assert_eq!(std::fs::read(dir.join("manifest.json")).unwrap(), on_disk);
        assert_eq!(ledger.completed(), (1, 3));
        assert_eq!(ledger.acc.num_trees(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn late_original_after_requeue_leaves_the_pending_queue() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let runs = baseline(&alignment);
        let dir = workdir("late");
        let mut ledger = open(&alignment, &dir, None);
        next_ok(&mut ledger, 0);
        next_ok(&mut ledger, 1);
        assert_eq!((ledger.in_flight(), ledger.pending().len()), (2, 1));
        // Task 0's worker is declared lost: seed 7 goes to the front.
        assert!(ledger.requeue(0));
        assert!(!ledger.requeue(0), "the flight is closed once");
        assert_eq!(
            ledger.pending().iter().copied().collect::<Vec<_>>(),
            [7, 11]
        );
        assert_eq!(ledger.in_flight(), 1);
        // Its result arrives after all: fresh, and not dispatched again.
        assert!(done(&mut ledger, 0, &runs[0]));
        assert_eq!(ledger.pending().iter().copied().collect::<Vec<_>>(), [11]);
        assert_eq!(ledger.in_flight(), 1, "task 1 is still out");
        // A requeued seed that was re-dispatched before the late original
        // landed: the recomputation's flight stays open until it answers.
        ledger.requeue(1);
        next_ok(&mut ledger, 2);
        assert!(done(&mut ledger, 1, &runs[1]));
        assert_eq!(ledger.in_flight(), 1);
        assert!(!done(&mut ledger, 2, &runs[1]));
        assert_eq!(ledger.in_flight(), 0);
        assert!(!ledger.is_complete());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_rounds_are_gated_deduplicated_and_dropped_when_finished() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let runs = baseline(&alignment);
        let dir = workdir("rounds");
        let mut ledger = open(&alignment, &dir, None);
        next_ok(&mut ledger, 0);
        ledger.wal_round(7, &round(0)).unwrap();
        ledger.wal_round(7, &round(1)).unwrap();
        // A restarted worker re-streams its prefix: deduplicated.
        ledger.wal_round(7, &round(0)).unwrap();
        assert_eq!(log_len(&dir, 7), Some(2));
        // A seed that was never dispatched has no log to append to.
        ledger.wal_round(9, &round(0)).unwrap();
        assert_eq!(log_len(&dir, 9), None);
        assert!(ledger.wal_round(7, "not a round").is_err());
        // A gap is the caller's error, and the log is abandoned as it is.
        let gap = ledger.wal_round(7, &round(5)).unwrap_err().to_string();
        assert!(gap.contains("wal gap"), "got: {gap}");
        ledger.wal_round(7, &round(2)).unwrap();
        assert_eq!(log_len(&dir, 7), Some(2));
        // A re-dispatch re-recovers it and carries the prefix.
        ledger.requeue(0);
        let msg = next_ok(&mut ledger, 1);
        assert!(matches!(msg, Message::JumbleResume { seed: 7, ref wal, .. } if wal.len() == 2));
        // A finished jumble's late stream is dropped.
        done(&mut ledger, 1, &runs[0]);
        ledger.wal_round(7, &round(2)).unwrap();
        assert_eq!(log_len(&dir, 7), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unopenable_log_yields_the_plain_task_and_its_error() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let dir = workdir("sick");
        // The log directory is a file: nothing can be created under it.
        std::fs::write(dir.join("wal"), b"in the way").unwrap();
        let quiet = Obs::disabled();
        // The job id picks the wire form whether or not there are logs.
        for (job, task, wal) in [(0, 4, true), (3, 5, true), (3, 6, false)] {
            let wal = wal.then(|| dir.join("wal"));
            let sick = wal.is_some();
            let (mut ledger, _) =
                Ledger::open(&alignment, &SEEDS, None, None, job, wal, &quiet).unwrap();
            let (msg, opened) = ledger.next(task).unwrap();
            assert_eq!(opened.is_err(), sick);
            let plain = match job {
                0 => Message::JumbleTask { task, seed: 7 },
                job => Message::JobTask { job, task, seed: 7 },
            };
            assert_eq!(msg, plain);
            // The dispatch is on the books all the same, and WAL-less.
            assert_eq!(ledger.in_flight(), 1);
            ledger.wal_round(7, &round(0)).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_that_will_not_go_is_reported_beside_a_finished_jumble() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let runs = baseline(&alignment);
        let dir = workdir("stuck");
        let mem = fdml_obs::MemorySink::new();
        let obs = Obs::new(Box::new(mem.clone()));
        let open = |resume| {
            let (manifest, wal) = (dir.join("manifest.json"), dir.join("wal"));
            Ledger::open(
                &alignment,
                &SEEDS,
                resume,
                Some(manifest),
                0,
                Some(wal),
                &obs,
            )
            .unwrap()
        };
        let (mut ledger, stale) = open(None);
        stale.unwrap();
        next_ok(&mut ledger, 0);
        // Nothing removes a directory with `remove_file`, root included.
        let log = wal_path(&dir.join("wal"), 0, 7);
        std::fs::remove_file(&log).unwrap();
        std::fs::create_dir(&log).unwrap();
        let (fresh, retired) = ledger.done(0, runs[0].clone()).unwrap();
        assert!(fresh && retired.is_err());
        // The jumble is Done everywhere it has to be.
        assert_eq!(ledger.completed(), (1, 3));
        let text = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let manifest = FarmManifest::from_json(&text).unwrap();
        assert_eq!(manifest.unfinished(), [9, 11]);
        let completed = |e: &Event| matches!(e, Event::JumbleCompleted { seed: 7, .. });
        assert_eq!(
            mem.snapshot()
                .iter()
                .filter(|r| completed(&r.event))
                .count(),
            1
        );

        // Reopened, the stale log is still in the way and still only that.
        let (mut ledger, stale) = open(Some(manifest));
        assert!(stale.is_err());
        assert_eq!(ledger.completed(), (1, 3));
        for (task, run) in [(1, &runs[1]), (2, &runs[2])] {
            next_ok(&mut ledger, task);
            assert!(done(&mut ledger, task, run));
        }
        assert_eq!(ledger.finish().unwrap().runs.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_jumble_starts_when_its_caller_says_it_left() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let mem = fdml_obs::MemorySink::new();
        let obs = Obs::new(Box::new(mem.clone()));
        let (mut ledger, _) = Ledger::open(&alignment, &SEEDS, None, None, 0, None, &obs).unwrap();
        let started = || {
            let started = |e: &Event| matches!(e, Event::JumbleStarted { seed: 7 });
            mem.snapshot().iter().filter(|r| started(&r.event)).count()
        };
        // A send that failed: dispatched, requeued, and nothing started.
        next_ok(&mut ledger, 0);
        assert!(ledger.requeue(0));
        next_ok(&mut ledger, 1);
        assert_eq!(started(), 0);
        ledger.started(1);
        assert_eq!(started(), 1);
        // A task the ledger never dispatched starts nothing.
        ledger.started(0);
        assert_eq!(started(), 1);
    }

    #[test]
    fn a_manifest_of_other_seeds_is_refused() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let foreign = Some(FarmManifest::new(&[1, 3, 5]));
        let err = Ledger::open(&alignment, &SEEDS, foreign, None, 0, None, &Obs::disabled())
            .err()
            .expect("foreign manifest")
            .to_string();
        assert!(
            err.contains("manifest seeds") && err.contains("do not match"),
            "got: {err}"
        );
    }

    #[test]
    fn finish_orders_runs_by_plan_and_resumes_done_entries() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let runs = baseline(&alignment);
        let dir = workdir("order");
        let mut ledger = open(&alignment, &dir, None);
        for task in 0..3 {
            next_ok(&mut ledger, task);
        }
        assert!(ledger.next(3).is_none());
        for task in [2, 0] {
            assert!(done(&mut ledger, task, &runs[task as usize]));
        }
        assert!(ledger.finish().is_err(), "a jumble is still missing");

        // Reopened from the manifest on disk, with a stale log planted for
        // a Done seed: the two are replayed, the log goes, one seed is left.
        let text = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        drop(WalWriter::create(&dir.join("wal"), 0, 11, 6).unwrap());
        let mut ledger = open(
            &alignment,
            &dir,
            Some(FarmManifest::from_json(&text).unwrap()),
        );
        assert!(!wal_path(&dir.join("wal"), 0, 11).exists());
        assert_eq!(ledger.pending().iter().copied().collect::<Vec<_>>(), [9]);
        next_ok(&mut ledger, 0);
        assert!(done(&mut ledger, 0, &runs[1]));
        assert!(ledger.is_complete());
        let parts = ledger.finish().unwrap();
        let got: Vec<(u64, &str, bool)> = parts
            .runs
            .iter()
            .map(|r| (r.seed, r.newick.as_str(), r.reused))
            .collect();
        let want: Vec<(u64, &str, bool)> = runs
            .iter()
            .map(|r| (r.seed, r.newick.as_str(), r.seed != 9))
            .collect();
        assert_eq!(got, want);
        assert_eq!(parts.consensus.num_trees, 3);
        assert!(parts.manifest.is_complete());
        assert_eq!(std::fs::read_dir(dir.join("wal")).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serial_farm_logs_a_round_while_its_jumble_runs() {
        // A log appended after the compute it protects performs the same
        // storage operations in the same order as one appended during it:
        // only the clock tells them apart. A jumble's rounds reach its log
        // all along its run — some in its first half, where a kill has to
        // find them — not in a burst once it is over.
        let alignment = phylip::parse(PHYLIP).unwrap();
        let dir = workdir("live");
        let mem = fdml_obs::MemorySink::new();
        let options = FarmOptions {
            wal_dir: Some(dir.join("wal")),
            ..FarmOptions::default()
        };
        let obs = Obs::new(Box::new(mem.clone()));
        serial_farm(
            &alignment,
            &SearchConfig::default(),
            &SEEDS[..1],
            &options,
            &obs,
        )
        .unwrap();
        let records = mem.snapshot();
        let at = |wanted: fn(&Event) -> bool| {
            let times = records.iter().filter(|r| wanted(&r.event)).map(|r| r.t_us);
            times.collect::<Vec<u64>>()
        };
        let started = at(|e| matches!(e, Event::JumbleStarted { .. }))[0];
        let completed = at(|e| matches!(e, Event::JumbleCompleted { .. }))[0];
        let logged = at(|e| matches!(e, Event::WalAppend { .. }));
        assert!(logged.len() > 3, "fixture too small: {logged:?}");
        let early = logged
            .iter()
            .filter(|&&t| t - started < (completed - started) / 2);
        assert!(
            early.count() > 0,
            "a jumble from {started} to {completed} us logged its rounds at {logged:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serial_farm_commits_each_jumble_before_the_next() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let config = SearchConfig::default();
        let farm = |dir: &Path, seeds: &[u64]| {
            let options = FarmOptions {
                manifest_path: Some(dir.join("manifest.json")),
                wal_dir: Some(dir.join("wal")),
                ..FarmOptions::default()
            };
            serial_farm(&alignment, &config, seeds, &options, &Obs::disabled())
        };
        // How many storage operations the first jumble costs, log and
        // manifest save included.
        let probe = workdir("probe");
        storage::install(StoragePlan::quiet(0));
        farm(&probe, &SEEDS[..1]).unwrap();
        let first_jumble_ops = storage::clear().ops;

        // Kill the farm at the very next one: between two jumbles.
        let dir = workdir("between");
        storage::install(StoragePlan::quiet(0).crash_at(first_jumble_ops));
        let killed = farm(&dir, &SEEDS);
        storage::clear();
        assert!(killed.is_err());
        let text = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let manifest = FarmManifest::from_json(&text).unwrap();
        assert_eq!(manifest.unfinished(), [9, 11], "jumble 7 was saved");
        assert!(
            !wal_path(&dir.join("wal"), 0, 7).exists(),
            "and its log retired"
        );
        std::fs::remove_dir_all(&probe).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
