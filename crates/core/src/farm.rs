//! The run shape: every run is a job of one or more jumbles (random
//! addition orders), kept in one [`Ledger`] and driven by one master.
//!
//! The paper's protocol (§2, step 6) runs the whole search once per jumble
//! and compares the results, and its time-to-solution argument (§6) is
//! about *many* jumbles — 200 random addition orders take years serially
//! but a month on 64 CPUs. A single search is the one-jumble job: the
//! master runs it itself over its universe, through the cluster executor
//! ([`crate::runner::search_on`]), in the job's own scoring mode. A job of
//! several jumbles is a two-level orchestrator: the master shards whole
//! jumbles across the worker pool (level one) while each jumble is a
//! complete stepwise-addition search (level two). A jumble travels as a
//! single [`Message::JumbleTask`]; the worker runs it through
//! [`crate::worker::Evaluator::jumble`] — the search every deployment runs,
//! over an in-process loopback, always edit-scored. In process the master
//! runs over a [`Loopback`], so output is byte-identical regardless of
//! farm width or transport, and line *k* of a farm is the single search
//! `--jumble seed_k --incremental`.
//!
//! The foreman's existing machinery — ready queue, timeout requeue, eager
//! disconnect requeue, duplicate dedup — schedules jumbles exactly as it
//! schedules candidate trees, which is what keeps the pool saturated
//! through each jumble's stepwise-addition tail: the moment a worker
//! finishes, the next pending jumble is dispatched to it.
//!
//! What a run has to remember is one [`Ledger`]: results stream into an
//! incremental majority-rule consensus ([`ConsensusAccumulator`]) and into
//! a [`FarmManifest`] (write-then-rename after every completion), and each
//! in-flight jumble keeps its round log ([`crate::wal`]), all in one
//! directory. Re-running the same job over that directory recomputes only
//! unfinished jumbles, each from its last committed round, and answers a
//! finished one from the manifest. The job daemon is a master too: it
//! keeps each job in the same ledger and sends its jumbles through the
//! same foreman.

use crate::config::SearchConfig;
use crate::job::ResolvedJob;
use crate::jumble::adjust_seed;
use crate::loopback::Loopback;
use crate::master::broadcast_problem;
use crate::runner::search_on;
use crate::search::SearchResult;
use crate::wal::{self, WalRound, WalWriter, NUMERICS_EPOCH};
use crate::worker::ranks;
use fdml_comm::message::Message;
use fdml_comm::transport::Transport;
use fdml_obs::{Event, Obs};
use fdml_phylo::alignment::Alignment;
use fdml_phylo::consensus::{Consensus, ConsensusAccumulator};
use fdml_phylo::error::PhyloError;
use fdml_phylo::tree::Tree;
use fdml_phylo::{newick, phylip};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};

/// The lifecycle of one jumble inside a farm manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JumbleStatus {
    /// Not finished yet (queued or in flight when the farm stopped).
    Pending,
    /// Finished; `newick` and `ln_likelihood` are recorded.
    Done,
}

/// One jumble's entry in a [`FarmManifest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// The adjusted, deduplicated jumble seed.
    pub seed: u64,
    /// Where this jumble stands.
    pub status: JumbleStatus,
    /// The jumble's best tree (present when `Done`).
    pub newick: Option<String>,
    /// Its log-likelihood (present when `Done`).
    pub ln_likelihood: Option<f64>,
}

/// What a farm has finished: one entry per jumble, saved after every
/// completion, so a killed farm resumes by recomputing only the `Pending`
/// entries. Deliberately timestamp-free: two farms over the same problem
/// and seeds produce byte-identical manifests regardless of completion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FarmManifest {
    /// The [`log_key`] of the alignment, configuration and scoring mode
    /// the entries were computed for. A bare [`problem_key`], written by
    /// builds that kept no mode, reads as edit-scored: only farms and
    /// daemon jobs, whose jumbles are edit-scored, kept a manifest then.
    /// `None` in manifests written before any key was kept.
    #[serde(default)]
    pub problem: Option<String>,
    /// Entries in seed order (the order results are reported in).
    pub entries: Vec<ManifestEntry>,
}

impl FarmManifest {
    /// A fresh manifest with every seed `Pending`, for no problem in particular.
    pub fn new(seeds: &[u64]) -> FarmManifest {
        let pending = |&seed| ManifestEntry {
            seed,
            status: JumbleStatus::Pending,
            newick: None,
            ln_likelihood: None,
        };
        FarmManifest {
            problem: None,
            entries: seeds.iter().map(pending).collect(),
        }
    }

    /// The manifest saved at `path`: `None` when there is no file (a fresh
    /// farm), an error naming the file when it cannot be read or does not
    /// parse — a farm that forgot its finished jumbles would silently run
    /// them all again.
    pub fn load(path: &Path) -> Result<Option<FarmManifest>, PhyloError> {
        let named = |e: String| PhyloError::Format(format!("{}: {e}", path.display()));
        let text = match std::fs::read_to_string(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            read => read.map_err(|e| named(e.to_string()))?,
        };
        let manifest =
            serde_json::from_str(&text).map_err(|e| format!("not a valid farm manifest: {e}"));
        manifest.map(Some).map_err(named)
    }

    /// The seeds, in manifest order.
    pub fn seeds(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.seed).collect()
    }

    /// Seeds still `Pending`, in manifest order.
    pub fn unfinished(&self) -> Vec<u64> {
        let pending = self
            .entries
            .iter()
            .filter(|e| e.status == JumbleStatus::Pending);
        pending.map(|e| e.seed).collect()
    }

    /// `(done, total)` jumbles.
    pub fn completed(&self) -> (usize, usize) {
        let total = self.entries.len();
        (total - self.unfinished().len(), total)
    }

    /// Record a finished jumble.
    fn mark_done(&mut self, seed: u64, newick: String, ln_likelihood: f64) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.seed == seed) {
            entry.status = JumbleStatus::Done;
            entry.newick = Some(newick);
            entry.ln_likelihood = Some(ln_likelihood);
        }
    }

    /// Write durably through the crash-consistent storage layer
    /// ([`crate::durable::atomic_write`]): a kill at any step leaves either
    /// the previous manifest or the new one — never a torn file — and a
    /// completed save survives power loss (the farm acks jumbles only after
    /// this returns).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("manifest serializes");
        crate::durable::atomic_write(path, json.as_bytes())
    }
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

impl JumbleRun {
    /// The best tree, parsed over the alignment's taxon `names`.
    pub fn tree(&self, names: &[String]) -> Result<Tree, PhyloError> {
        newick::parse_tree_with_names(&self.newick, names)
    }
}

/// What every run (in process, threads, TCP, a daemon job) produces.
#[derive(Debug, Clone)]
pub struct FarmParts {
    /// Per-jumble results, in seed order (not completion order).
    pub runs: Vec<JumbleRun>,
    /// The majority-rule consensus of all jumble trees.
    pub consensus: Consensus,
    /// The single search's own result, its tree exact, when the run's
    /// master computed it; `None` otherwise.
    pub search: Option<SearchResult>,
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

/// What a farm's jumbles are computed for: a stable FNV-1a hash of the
/// alignment and of the engine configuration its workers receive, in hex.
/// A manifest keeps it, so a directory reused for another alignment or
/// other settings is refused instead of answered with the old trees.
pub fn problem_key(alignment: &Alignment, config: &SearchConfig) -> String {
    let text = phylip::write(alignment) + &config.engine_config_json();
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    format!("{:016x}", text.bytes().fold(0xcbf2_9ce4_8422_2325, fnv))
}

/// What a round log's header ([`wal::WalStart::problem`]) and a manifest
/// name: the [`problem_key`] and the scoring mode, which the engine
/// configuration leaves out. A whole-tree and an edit-scored search of one
/// seed commit different rounds under one log name, so the mode must be
/// in the key.
pub fn log_key(alignment: &Alignment, config: &SearchConfig) -> String {
    let mode = if config.incremental { "edit" } else { "whole" };
    format!("{}-{mode}", problem_key(alignment, config))
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
/// runs and the running consensus. The manifest and the logs live in one
/// directory, named by [`wal::manifest_path`] and [`wal::wal_path`]. The
/// run master (over threads, TCP or the in-process [`Loopback`]) and the
/// daemon's master both drive one. What an error means is its holder's
/// policy — the run master aborts on any, the daemon fails the job on a
/// bad result and shrugs off a sick log — so a log's trouble
/// (`io::Result`) travels beside an outcome, never as it.
pub struct Ledger {
    names: Vec<String>,
    /// What the manifest and the jumbles' round logs name ([`log_key`]).
    log_key: String,
    manifest: FarmManifest,
    /// The problem its tasks and files name; 0: the anonymous farm.
    job: u64,
    /// Where the manifest and the round logs live; `None`: nowhere.
    dir: Option<PathBuf>,
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
    /// Start (or resume) a job whose jumbles are scored as `config` says:
    /// load the manifest `dir` holds and check its problem, scoring mode
    /// and seeds against this job's (none there: a fresh one; one that does
    /// not parse or does not match: an error naming the file), fold every
    /// `Done` entry into the consensus, and retire those
    /// entries' round logs — a crash can land between the manifest rename
    /// and the retire, and the stale log would otherwise survive every
    /// future resume. The second value is a log that would not go; the
    /// ledger is good either way.
    pub fn open(
        alignment: &Alignment,
        config: &SearchConfig,
        seeds: &[u64],
        job: u64,
        dir: Option<PathBuf>,
        obs: &Obs,
    ) -> Result<(Ledger, io::Result<()>), PhyloError> {
        let seeds = dedup_adjusted(seeds)?;
        let key = log_key(alignment, config);
        let path = dir.as_deref().map(|dir| wal::manifest_path(dir, job));
        let loaded = path.as_deref().map(FarmManifest::load).transpose()?;
        let mut manifest = loaded
            .flatten()
            .unwrap_or_else(|| FarmManifest::new(&seeds));
        let theirs = manifest.problem.as_ref().map(|p| match p.contains('-') {
            true => p.clone(),
            false => format!("{p}-edit"),
        });
        let why = if theirs.is_some_and(|p| p != key) {
            "manifest is for another alignment or other settings, or another scoring mode"
                .to_string()
        } else if manifest.seeds() != seeds {
            let theirs = manifest.seeds();
            format!("manifest seeds {theirs:?} do not match the requested farm {seeds:?}")
        } else {
            String::new()
        };
        if !why.is_empty() {
            let path = path.unwrap_or_default();
            return Err(PhyloError::InvalidTreeOp(format!(
                "{}: {why}",
                path.display()
            )));
        }
        manifest.problem = Some(key.clone());
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
            log_key: key,
            pending: manifest.unfinished().into(),
            manifest,
            job,
            dir,
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
        let dir = self.dir.as_deref();
        let gone = |&seed| dir.map_or(Ok(()), |dir| wal::retire(dir, self.job, seed));
        seeds.into_iter().map(gone).fold(Ok(()), Result::and)
    }

    /// Claim the next pending seed for `task` and recover its round log:
    /// with a log directory, the numerics epoch and the committed rounds
    /// to replay (of any epoch: the one replay rule), the writer kept for
    /// the rounds that follow. `Ok(None)`: no log directory. `None`: no
    /// seed pending.
    pub fn claim(&mut self, task: u64) -> Option<(u64, io::Result<Option<Prefix>>)> {
        let seed = self.pending.pop_front()?;
        self.flights.insert(task, seed);
        self.writers.remove(&seed);
        let Some(dir) = &self.dir else {
            return Some((seed, Ok(None)));
        };
        let job = self.job;
        let opened = wal::open(dir, job, seed, self.names.len(), &self.log_key);
        Some((
            seed,
            opened.map(|(numerics, prefix, writer)| {
                if !prefix.is_empty() {
                    let rounds = prefix.len() as u64;
                    self.obs.emit(|| Event::WalReplay { job, seed, rounds });
                }
                self.writers.insert(seed, writer);
                Some((numerics, prefix))
            }),
        ))
    }

    /// Dispatch the next pending seed as `task` ([`Ledger::claim`]): with a
    /// log directory, a `JumbleResume` carrying the log's committed prefix
    /// and its epoch (the worker replays it, then streams rounds back from
    /// exactly the writer's next index). A log that cannot be opened is the
    /// second value, beside the plain WAL-less task — this jumble's crash
    /// window back at manifest granularity; sending that is the caller's
    /// call. `None`: none pending.
    pub fn next(&mut self, task: u64) -> Option<(Message, io::Result<()>)> {
        let (seed, log) = self.claim(task)?;
        let job = self.job;
        Some(match log {
            Ok(Some((numerics, prefix))) => {
                let wal = prefix.iter().map(WalRound::to_json).collect();
                let resume = Message::JumbleResume {
                    job,
                    task,
                    seed,
                    numerics,
                    wal,
                };
                (resume, Ok(()))
            }
            log => {
                let plain = match job {
                    0 => Message::JumbleTask { task, seed },
                    job => Message::JobTask { job, task, seed },
                };
                (plain, log.map(drop))
            }
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
        if !self.writers.contains_key(&seed) {
            return Ok(());
        }
        let round = WalRound::from_json(entry).map_err(failed("bad wal round"))?;
        self.append(seed, &round)
    }

    /// Append a round of `seed` to its log, as [`Ledger::wal_round`] does.
    fn append(&mut self, seed: u64, round: &WalRound) -> Result<(), PhyloError> {
        let Some(writer) = self.writers.get_mut(&seed) else {
            return Ok(());
        };
        match writer.append(round) {
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
        if let Some(dir) = &self.dir {
            let path = wal::manifest_path(dir, self.job);
            self.manifest
                .save(&path)
                .map_err(failed("write manifest"))?;
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
        self.manifest.unfinished().contains(&seed)
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
        self.manifest.completed()
    }

    /// Every jumble is `Done` and no dispatch is outstanding.
    pub fn is_complete(&self) -> bool {
        self.flights.is_empty() && self.manifest.unfinished().is_empty()
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

    /// The finished job: runs in plan order (not arrival order) and their
    /// majority-rule consensus.
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
            search: None,
        })
    }
}

/// Run `job` as the master of the universe behind `transport` — workers at
/// ranks [`ranks::FIRST_WORKER`]`..` — and shut that universe down; the
/// endpoint comes back so the caller can tear its universe down. The one
/// master of every run: the problem data is broadcast once, the job's
/// [`Ledger`] is opened over `wal_dir` (manifest and round logs), and
///
/// * one jumble is the single search, run here over the universe through
///   [`search_on`] in the job's own scoring mode, each committed round
///   appended to its log as it commits;
/// * several jumbles are dispatched jumble by jumble, up to `width` in
///   flight (`0`: all pending), each leaving through `out`, edit-scored.
///
/// A log error of any kind — open, append, retire — aborts the run, as an
/// `Abort` does: the manifest on disk is resumable, a shrunk crash window
/// is not. An append error surfaces once the jumble is computed.
pub(crate) fn run_job<T: Transport>(
    transport: T,
    job: &ResolvedJob,
    width: usize,
    wal_dir: Option<PathBuf>,
    obs: &Obs,
    out: impl FnMut(&T, &mut Ledger, &Message) -> Result<(), PhyloError>,
) -> (T, Result<FarmParts, PhyloError>) {
    let alignment = &job.alignment;
    let problem = Message::ProblemData {
        phylip: phylip::write(alignment),
        config_json: job.config.engine_config_json(),
    };
    broadcast_problem(&transport, &problem);
    // A worker runs a shipped jumble edit-scored.
    let config = SearchConfig {
        incremental: job.config.incremental || job.seeds.len() > 1,
        ..job.config.clone()
    };
    let opened = adopt_unadjusted_log(wal_dir.as_deref(), job)
        .and_then(|()| Ledger::open(alignment, &config, &job.seeds, 0, wal_dir, obs));
    let (transport, parts) = match opened {
        Err(e) => (transport, Err(e)),
        Ok((_, Err(e))) => (transport, Err(failed("wal")(e))),
        Ok((mut ledger, Ok(()))) => {
            let (transport, ran) = match job.seeds.len() {
                1 => search_here(transport, &mut ledger, alignment, &config),
                _ => {
                    let ran = farm(&transport, &mut ledger, &problem, width, out);
                    (transport, ran.map(|()| None))
                }
            };
            let parts = ran.and_then(|search| {
                Ok(FarmParts {
                    search,
                    ..ledger.finish()?
                })
            });
            (transport, parts)
        }
    };
    let _ = transport.send(ranks::FOREMAN, &Message::Shutdown);
    (transport, parts)
}

/// A round log's committed prefix: the numerics epoch its rounds were
/// computed under, and the rounds.
pub type Prefix = (u32, Vec<WalRound>);

/// Builds before the one run shape named a single search's round log by
/// its unadjusted seed (`--jumble 4` logged as `jumble-4.wal`, its search
/// that of seed 5): move such a log of `job`'s single search in `dir` to
/// the name the ledger opens, unless a log already holds that name. Its
/// header names the same problem and mode, so it resumes as it would have
/// on the build that wrote it.
fn adopt_unadjusted_log(dir: Option<&Path>, job: &ResolvedJob) -> Result<(), PhyloError> {
    let (Some(dir), &[seed], raw) = (dir, &job.seeds[..], job.config.jumble_seed) else {
        return Ok(());
    };
    let (legacy, path) = (wal::wal_path(dir, 0, raw), wal::wal_path(dir, 0, seed));
    if raw != seed && adjust_seed(raw) == seed && legacy.exists() && !path.exists() {
        std::fs::rename(legacy, path).map_err(failed("wal"))?;
    }
    Ok(())
}

/// The single search of `ledger`'s one seed, unless the manifest answered
/// it, run on this rank over `transport`'s universe: what it found.
fn search_here<T: Transport>(
    transport: T,
    ledger: &mut Ledger,
    alignment: &Alignment,
    config: &SearchConfig,
) -> (T, Result<Option<SearchResult>, PhyloError>) {
    let Some((seed, log)) = ledger.claim(0) else {
        return (transport, Ok(None));
    };
    let (numerics, prefix) = match log {
        Ok(prefix) => prefix.unwrap_or((NUMERICS_EPOCH, Vec::new())),
        Err(e) => return (transport, Err(failed("wal")(e))),
    };
    ledger.started(0);
    ledger.progress();
    let config = SearchConfig {
        jumble_seed: seed,
        ..config.clone()
    };
    let mut logged = Ok(());
    let (transport, found) = search_on(transport, alignment, &config, |search| {
        let search = search.resume_from_wal(prefix).replay_epoch(numerics);
        search.on_wal(|round| {
            if logged.is_ok() {
                logged = ledger.append(seed, round);
            }
        })
    });
    let ran = found.and_then(|found| {
        logged?;
        let run = JumbleRun {
            seed,
            newick: newick::write_tree(&found.tree, alignment.names()),
            ln_likelihood: found.ln_likelihood,
            rounds: found.rounds as u64,
            candidates: found.candidates_evaluated as u64,
            work_units: found.work_units,
            reused: false,
        };
        let (_, retired) = ledger.done(0, run)?;
        retired.map_err(failed("wal"))?;
        Ok(Some(found))
    });
    (transport, ran)
}

/// Send a jumble task through the foreman, as a cluster's master does.
pub(crate) fn to_foreman<T: Transport>(
    end: &T,
    _: &mut Ledger,
    task: &Message,
) -> Result<(), PhyloError> {
    end.send(ranks::FOREMAN, task).map_err(failed("transport"))
}

/// Run a jumble task on this rank, folding each reply into the ledger the
/// moment `on` produces it: a round is in its log while the jumble is still
/// running, where a kill will find it — not queued behind the compute it
/// protects. After the first error nothing more goes in, the result included.
pub(crate) fn run_here(
    on: &Loopback,
    ledger: &mut Ledger,
    task: &Message,
) -> Result<(), PhyloError> {
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

/// The farm: keep up to `width` jumbles dispatched through `out`, fold
/// each [`Message::JumbleResult`] and [`Message::WalRound`] into the
/// ledger, and refill the pool until every seed is `Done`.
fn farm<T: Transport>(
    transport: &T,
    ledger: &mut Ledger,
    problem: &Message,
    width: usize,
    mut out: impl FnMut(&T, &mut Ledger, &Message) -> Result<(), PhyloError>,
) -> Result<(), PhyloError> {
    let mut next_task: u64 = 0;
    // Built only if the foreman quarantines a jumble.
    let mut local: Option<Loopback> = None;
    let mut refill = true;
    loop {
        // Re-read after every dispatch: a jumble run on this rank is back.
        while refill && (width == 0 || ledger.in_flight() < width) {
            let send = |ledger: &mut Ledger, task: &Message| out(transport, ledger, task);
            refill = dispatch(ledger, &mut next_task, send)?;
        }
        if ledger.in_flight() == 0 {
            return Ok(());
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
                        let _ = local.send(ranks::FIRST_WORKER, problem);
                        local
                    });
                    let here = |ledger: &mut Ledger, task: &Message| run_here(local, ledger, task);
                    dispatch(ledger, &mut next_task, here)?;
                }
                true
            }
            // Transport-synthesized liveness: a departed worker is the
            // foreman's problem; a (re)joined worker needs the problem data
            // before it can serve jumbles.
            Message::PeerDown { .. } => false,
            Message::PeerUp { rank } => {
                let _ = transport.send(rank, problem);
                false
            }
            other => absorb(ledger, other)?,
        };
    }
}

fn failed<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> PhyloError + '_ {
    move |e| PhyloError::Format(format!("{what}: {e}"))
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

    #[test]
    fn manifest_tracks_completion() {
        let mut m = FarmManifest::new(&[1, 3, 5]);
        assert_eq!(m.seeds(), vec![1, 3, 5]);
        assert_eq!(m.unfinished(), vec![1, 3, 5]);
        assert_eq!(m.completed(), (0, 3));
        m.mark_done(3, "(a:1,b:1);".into(), -10.0);
        assert_eq!(m.unfinished(), vec![1, 5]);
        assert_eq!(m.completed(), (1, 3));
        m.mark_done(1, "(a:1,b:1);".into(), -11.0);
        m.mark_done(5, "(a:1,b:1);".into(), -12.0);
        assert_eq!(m.completed(), (3, 3));
        let json = serde_json::to_string_pretty(&m).unwrap();
        let back: FarmManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.entries[1].ln_likelihood, Some(-10.0));
    }

    #[test]
    fn manifest_save_is_atomic_and_order_independent() {
        let dir = workdir("manifest");
        let path = dir.join("farm.json");
        assert_eq!(FarmManifest::load(&path).unwrap(), None, "none yet");
        let mut a = FarmManifest::new(&[1, 3]);
        a.mark_done(1, "(x);".into(), -1.0);
        a.mark_done(3, "(y);".into(), -2.0);
        let mut b = FarmManifest::new(&[1, 3]);
        b.mark_done(3, "(y);".into(), -2.0);
        b.mark_done(1, "(x);".into(), -1.0);
        // Completion order does not leak into the serialized form.
        a.save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        b.save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), saved);
        assert_eq!(FarmManifest::load(&path).unwrap(), Some(a));
        assert!(!path.with_extension("tmp").exists(), "tmp must be renamed");
        std::fs::remove_dir_all(&dir).ok();
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

    /// The in-process program: the job of `seeds` under `config`, its
    /// manifest and logs in `wal_dir`.
    fn serial_farm(
        alignment: &Alignment,
        config: &SearchConfig,
        seeds: &[u64],
        wal_dir: Option<PathBuf>,
        obs: &Obs,
    ) -> Result<FarmParts, PhyloError> {
        let job = ResolvedJob {
            alignment: alignment.clone(),
            config: config.clone(),
            seeds: seeds.to_vec(),
        };
        run_job(Loopback::new(), &job, 0, wal_dir, obs, run_here).1
    }

    /// The three jumbles' real results, from a plain serial farm.
    fn baseline(alignment: &Alignment) -> Vec<JumbleRun> {
        let config = SearchConfig::default();
        serial_farm(alignment, &config, &SEEDS, None, &Obs::disabled())
            .unwrap()
            .runs
    }

    fn open(alignment: &Alignment, dir: &Path) -> Ledger {
        let quiet = Obs::disabled();
        let (ledger, stale) = Ledger::open(
            alignment,
            &SearchConfig::default(),
            &SEEDS,
            0,
            Some(dir.join("wal")),
            &quiet,
        )
        .unwrap();
        stale.expect("stale logs retire");
        ledger
    }

    /// The manifest the ledger over `dir` saved.
    fn saved(dir: &Path) -> FarmManifest {
        let path = wal::manifest_path(&dir.join("wal"), 0);
        FarmManifest::load(&path)
            .unwrap()
            .expect("a manifest was saved")
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
        let mut ledger = open(&alignment, &dir);
        let msg = next_ok(&mut ledger, 0);
        assert!(
            matches!(msg, Message::JumbleResume { task: 0, seed: 7, ref wal, .. } if wal.is_empty())
        );
        assert!(wal_path(&dir.join("wal"), 0, 7).exists());
        assert!(done(&mut ledger, 0, &runs[0]));
        assert!(!wal_path(&dir.join("wal"), 0, 7).exists(), "log retired");
        let on_disk = saved(&dir);
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
        assert_eq!(saved(&dir), on_disk);
        assert_eq!(ledger.completed(), (1, 3));
        assert_eq!(ledger.acc.num_trees(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn late_original_after_requeue_leaves_the_pending_queue() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let runs = baseline(&alignment);
        let dir = workdir("late");
        let mut ledger = open(&alignment, &dir);
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
        let mut ledger = open(&alignment, &dir);
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
        // A directory stands where seed 7's log goes: no log opens there.
        for job in [0, 3] {
            std::fs::create_dir_all(wal_path(&dir.join("wal"), job, 7)).unwrap();
        }
        let quiet = Obs::disabled();
        // The job id picks the wire form whether or not there are logs.
        for (job, task, wal) in [(0, 4, true), (3, 5, true), (3, 6, false)] {
            let wal = wal.then(|| dir.join("wal"));
            let sick = wal.is_some();
            let (mut ledger, _) = Ledger::open(
                &alignment,
                &SearchConfig::default(),
                &SEEDS,
                job,
                wal,
                &quiet,
            )
            .unwrap();
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
        let open = || {
            Ledger::open(
                &alignment,
                &SearchConfig::default(),
                &SEEDS,
                0,
                Some(dir.join("wal")),
                &obs,
            )
            .unwrap()
        };
        let (mut ledger, stale) = open();
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
        assert_eq!(saved(&dir).unfinished(), [9, 11]);
        let completed = |e: &Event| matches!(e, Event::JumbleCompleted { seed: 7, .. });
        assert_eq!(
            mem.snapshot()
                .iter()
                .filter(|r| completed(&r.event))
                .count(),
            1
        );

        // Reopened, the stale log is still in the way and still only that.
        let (mut ledger, stale) = open();
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
        let (mut ledger, _) =
            Ledger::open(&alignment, &SearchConfig::default(), &SEEDS, 0, None, &obs).unwrap();
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
        let dir = workdir("foreign");
        let path = wal::manifest_path(&dir, 0);
        FarmManifest::new(&[1, 3, 5]).save(&path).unwrap();
        let err = Ledger::open(
            &alignment,
            &SearchConfig::default(),
            &SEEDS,
            0,
            Some(dir.clone()),
            &Obs::disabled(),
        )
        .err()
        .expect("foreign manifest")
        .to_string();
        assert!(
            err.contains("manifest seeds") && err.contains("do not match"),
            "got: {err}"
        );
        assert!(err.contains(&path.display().to_string()), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_manifest_of_another_problem_is_refused() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let dir = workdir("other-problem");
        let quiet = Obs::disabled();
        let open = |config: &SearchConfig| {
            Ledger::open(&alignment, config, &SEEDS, 0, Some(dir.clone()), &quiet)
        };
        let mut ledger = open(&SearchConfig::default()).unwrap().0;
        next_ok(&mut ledger, 0);
        assert!(done(&mut ledger, 0, &baseline(&alignment)[0]));
        let path = wal::manifest_path(&dir, 0);
        // Another radius: the finished jumble is not this farm's.
        let wider = SearchConfig {
            rearrange_radius: 3,
            ..SearchConfig::default()
        };
        let err = open(&wider).err().expect("another problem").to_string();
        assert!(
            err.contains(&path.display().to_string()) && err.contains("another alignment"),
            "got: {err}"
        );
        // The same problem resumes; a manifest from before the key was
        // kept is taken as it stands and gains the key on its next save.
        assert_eq!(
            open(&SearchConfig::default()).unwrap().0.completed(),
            (1, 3)
        );
        let mut legacy = FarmManifest::load(&path).unwrap().unwrap();
        legacy.problem = None;
        legacy.save(&path).unwrap();
        assert_eq!(open(&wider).unwrap().0.completed(), (1, 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_manifest_names_its_scoring_mode_and_a_bare_key_reads_as_edit_scored() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let dir = workdir("mode");
        let quiet = Obs::disabled();
        let (whole, edit) = (
            SearchConfig::default(),
            SearchConfig {
                incremental: true,
                ..SearchConfig::default()
            },
        );
        let open = |config: &SearchConfig| {
            Ledger::open(&alignment, config, &SEEDS, 0, Some(dir.clone()), &quiet)
        };
        let mut ledger = open(&whole).unwrap().0;
        next_ok(&mut ledger, 0);
        assert!(done(&mut ledger, 0, &baseline(&alignment)[0]));
        let path = wal::manifest_path(&dir, 0);
        let saved = FarmManifest::load(&path).unwrap().unwrap();
        assert_eq!(saved.problem, Some(log_key(&alignment, &whole)));
        // The other mode's job of the same seeds is another job.
        let err = open(&edit).err().expect("another mode").to_string();
        assert!(
            err.contains(&path.display().to_string()) && err.contains("another scoring mode"),
            "got: {err}"
        );
        // A key without a mode, as builds that kept none wrote it, is an
        // edit-scored farm's.
        let bare = FarmManifest {
            problem: Some(problem_key(&alignment, &edit)),
            ..saved
        };
        bare.save(&path).unwrap();
        assert_eq!(open(&edit).unwrap().0.completed(), (1, 3));
        assert!(open(&whole).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_manifest_that_does_not_parse_is_an_error_naming_it() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let dir = workdir("garbled");
        let quiet = Obs::disabled();
        let open = || {
            Ledger::open(
                &alignment,
                &SearchConfig::default(),
                &SEEDS,
                4,
                Some(dir.clone()),
                &quiet,
            )
        };
        // None there: a fresh job.
        assert_eq!(open().unwrap().0.completed(), (0, 3));
        // Torn mid-JSON (a copied or tampered file): not a silent restart.
        let path = wal::manifest_path(&dir, 4);
        FarmManifest::new(&SEEDS).save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let err = open().err().expect("a garbled manifest").to_string();
        assert!(
            err.contains(&path.display().to_string()) && err.contains("not a valid farm manifest"),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_orders_runs_by_plan_and_resumes_done_entries() {
        let alignment = phylip::parse(PHYLIP).unwrap();
        let runs = baseline(&alignment);
        let dir = workdir("order");
        let mut ledger = open(&alignment, &dir);
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
        drop(WalWriter::create(&dir.join("wal"), 0, 11, 6, "stale").unwrap());
        let mut ledger = open(&alignment, &dir);
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
        assert!(saved(&dir).unfinished().is_empty());
        // Only the manifest stays: it is what the farm finished.
        let left: Vec<_> = std::fs::read_dir(dir.join("wal")).unwrap().collect();
        assert_eq!(left.len(), 1);
        assert!(wal::manifest_path(&dir.join("wal"), 0).exists());
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
        let obs = Obs::new(Box::new(mem.clone()));
        // Two jumbles: a farm, whose jumbles run on this rank one by one.
        let config = SearchConfig::default();
        serial_farm(
            &alignment,
            &config,
            &SEEDS[..2],
            Some(dir.join("wal")),
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
        // A farm's jumbles are edit-scored, and a job of one seed is that
        // jumble's single search in the job's mode.
        let config = SearchConfig {
            incremental: true,
            ..SearchConfig::default()
        };
        let farm = |dir: &Path, seeds: &[u64]| {
            let wal = Some(dir.join("wal"));
            serial_farm(&alignment, &config, seeds, wal, &Obs::disabled())
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
        assert_eq!(saved(&dir).unfinished(), [9, 11], "jumble 7 was saved");
        assert!(
            !wal_path(&dir.join("wal"), 0, 7).exists(),
            "and its log retired"
        );
        std::fs::remove_dir_all(&probe).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
