//! The jumble farm: many random addition orders at once.
//!
//! The paper's time-to-solution argument (§6) is about *many* jumbles —
//! 200 random addition orders take years serially but a month on 64 CPUs.
//! This module is that layer: a two-level orchestrator in which the farm
//! scheduler (level 1) shards whole jumbles across the worker pool while
//! each jumble (level 2) is a complete stepwise-addition search. A jumble
//! travels as a single [`Message::JumbleTask`]; the worker runs it through
//! [`Evaluator::jumble`] — the search every deployment runs, over an
//! in-process loopback, always edit-scored — which is also what the serial
//! farm calls, so farm output is byte-identical regardless of farm width
//! or transport, and line *k* of it is the single search
//! `--jumble seed_k --incremental`.
//!
//! The foreman's existing machinery — ready queue, timeout requeue, eager
//! disconnect requeue, duplicate dedup — schedules jumbles exactly as it
//! schedules candidate trees, which is what keeps the pool saturated
//! through each jumble's stepwise-addition tail: the moment a worker
//! finishes, the next pending jumble is dispatched to it.
//!
//! Results stream into an incremental majority-rule consensus
//! ([`ConsensusAccumulator`]) and into a [`FarmManifest`] checkpoint
//! (write-then-rename after every completion), so `--resume` recomputes
//! only unfinished jumbles and the consensus is available the moment the
//! last jumble lands.

use crate::checkpoint::{FarmManifest, JumbleStatus};
use crate::config::SearchConfig;
use crate::jumble::adjust_seed;
use crate::wal::{self, WalRound, WalSession, WalWriter};
use crate::worker::{ranks, Evaluator, WorkerError};
use fdml_comm::message::Message;
use fdml_comm::transport::Transport;
use fdml_obs::{Event, Obs};
use fdml_phylo::alignment::Alignment;
use fdml_phylo::consensus::{Consensus, ConsensusAccumulator};
use fdml_phylo::error::PhyloError;
use fdml_phylo::{newick, phylip};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};

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
#[derive(Debug, Clone)]
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

/// The evaluator a coordinator runs jumbles on itself: the serial farm's
/// only one, and the fallback for jumbles the foreman quarantined.
fn local_evaluator(alignment: &Alignment, config: &SearchConfig) -> Result<Evaluator, PhyloError> {
    Evaluator::for_problem(&phylip::write(alignment), &config.engine_config_json())
        .map_err(|e| PhyloError::Format(e.to_string()))
}

/// Run one jumble on this rank, through its on-disk WAL when a directory
/// is configured: recover the log (or start one), replay, run live
/// appending every committed round, and surface any append failure as a
/// hard error — an unreported round would silently shrink the
/// crash-tolerance window.
fn jumble_here(
    evaluator: &Evaluator,
    alignment: &Alignment,
    seed: u64,
    wal_dir: Option<&Path>,
    obs: &Obs,
) -> Result<JumbleRun, PhyloError> {
    let failed = |e: WorkerError| PhyloError::Format(e.to_string());
    let result = match wal_dir {
        Some(dir) => {
            let io = |e: std::io::Error| PhyloError::Format(format!("wal jumble {seed}: {e}"));
            let mut session =
                WalSession::open(dir, 0, seed, alignment.num_taxa(), obs).map_err(io)?;
            let result = evaluator
                .jumble(seed, session.take_rounds(), session.hook())
                .map_err(failed)?;
            session.finish().map_err(io)?;
            result
        }
        None => evaluator.jumble(seed, Vec::new(), |_| {}).map_err(failed)?,
    };
    Ok(JumbleRun {
        seed,
        newick: newick::write_tree(&result.tree, alignment.names()),
        ln_likelihood: result.ln_likelihood,
        rounds: result.rounds as u64,
        candidates: result.candidates_evaluated as u64,
        work_units: result.work_units,
        reused: false,
    })
}

/// The state a farm starts from: the manifest, the per-seed runs so far,
/// the consensus accumulator, and the seeds still to compute.
type PreparedFarm = (
    FarmManifest,
    HashMap<u64, JumbleRun>,
    ConsensusAccumulator,
    Vec<u64>,
);

/// Validate the seed list against the resume manifest (or build a fresh
/// one) and seed the consensus accumulator with already-`Done` entries.
fn prepare(
    alignment: &Alignment,
    seeds: &[u64],
    options: &FarmOptions,
    obs: &Obs,
) -> Result<PreparedFarm, PhyloError> {
    let seeds = dedup_adjusted(seeds)?;
    let manifest = match &options.resume {
        Some(m) => {
            if m.seeds() != seeds {
                return Err(PhyloError::InvalidTreeOp(format!(
                    "manifest seeds {:?} do not match the requested farm {:?}",
                    m.seeds(),
                    seeds
                )));
            }
            m.clone()
        }
        None => FarmManifest::new(&seeds),
    };
    let mut acc = ConsensusAccumulator::new(alignment.num_taxa(), 0.5, alignment.names().to_vec())?;
    let mut runs = HashMap::new();
    for entry in &manifest.entries {
        if entry.status != JumbleStatus::Done {
            continue;
        }
        let text = entry
            .newick
            .clone()
            .ok_or_else(|| PhyloError::InvalidTreeOp("Done entry without a tree".into()))?;
        let ln_likelihood = entry
            .ln_likelihood
            .ok_or_else(|| PhyloError::InvalidTreeOp("Done entry without a likelihood".into()))?;
        let tree = newick::parse_tree(&text, alignment)?;
        acc.add_tree(&tree)?;
        runs.insert(
            entry.seed,
            JumbleRun {
                seed: entry.seed,
                newick: text,
                ln_likelihood,
                rounds: 0,
                candidates: 0,
                work_units: 0,
                reused: true,
            },
        );
        if let Some(dir) = &options.wal_dir {
            // A crash can land between the manifest rename (entry Done)
            // and the WAL retire; the replayed entry's stale log would
            // otherwise survive every future resume.
            wal::retire(dir, 0, entry.seed)
                .map_err(|e| PhyloError::Format(format!("retire wal {}: {e}", entry.seed)))?;
        }
        obs.emit(|| Event::JumbleCompleted {
            seed: entry.seed,
            ln_likelihood,
            reused: true,
        });
    }
    let todo = manifest.unfinished();
    Ok((manifest, runs, acc, todo))
}

/// Record one freshly finished jumble everywhere it needs to go: the
/// consensus accumulator, the manifest (saved atomically when a path is
/// configured), the per-seed run map, and the event stream.
#[allow(clippy::too_many_arguments)]
fn absorb(
    alignment: &Alignment,
    options: &FarmOptions,
    manifest: &mut FarmManifest,
    runs: &mut HashMap<u64, JumbleRun>,
    acc: &mut ConsensusAccumulator,
    obs: &Obs,
    run: JumbleRun,
) -> Result<(), PhyloError> {
    let tree = newick::parse_tree(&run.newick, alignment)?;
    acc.add_tree(&tree)?;
    manifest.mark_done(run.seed, run.newick.clone(), run.ln_likelihood);
    if let Some(path) = &options.manifest_path {
        manifest
            .save(path)
            .map_err(|e| PhyloError::Format(format!("write manifest: {e}")))?;
    }
    if let Some(dir) = &options.wal_dir {
        // The result is durably in the manifest (or, manifest-less, will
        // be recomputed from scratch on restart anyway): the round log
        // has served its purpose and the directory stays bounded.
        wal::retire(dir, 0, run.seed)
            .map_err(|e| PhyloError::Format(format!("retire wal {}: {e}", run.seed)))?;
    }
    obs.emit(|| Event::JumbleCompleted {
        seed: run.seed,
        ln_likelihood: run.ln_likelihood,
        reused: false,
    });
    runs.insert(run.seed, run);
    Ok(())
}

fn finish(
    manifest: FarmManifest,
    mut runs: HashMap<u64, JumbleRun>,
    acc: &ConsensusAccumulator,
) -> Result<FarmParts, PhyloError> {
    let runs: Vec<JumbleRun> = manifest
        .seeds()
        .iter()
        .map(|s| runs.remove(s).expect("every seed has a run"))
        .collect();
    Ok(FarmParts {
        runs,
        consensus: acc.consensus()?,
        manifest,
    })
}

/// The serial farm: jumbles run one after another in-process, with the
/// same manifest / resume / consensus semantics as the parallel farm —
/// the baseline the determinism suite compares every deployment against.
pub fn serial_farm(
    alignment: &Alignment,
    config: &SearchConfig,
    seeds: &[u64],
    options: &FarmOptions,
    obs: &Obs,
) -> Result<FarmParts, PhyloError> {
    let (mut manifest, mut runs, mut acc, todo) = prepare(alignment, seeds, options, obs)?;
    let total = manifest.entries.len();
    let evaluator = local_evaluator(alignment, config)?;
    for (i, &seed) in todo.iter().enumerate() {
        obs.emit(|| Event::JumbleStarted { seed });
        obs.emit(|| Event::FarmProgress {
            completed: total - (todo.len() - i),
            in_flight: 1,
            pending: todo.len() - i - 1,
            total,
        });
        let run = jumble_here(&evaluator, alignment, seed, options.wal_dir.as_deref(), obs)?;
        absorb(
            alignment,
            options,
            &mut manifest,
            &mut runs,
            &mut acc,
            obs,
            run,
        )?;
    }
    obs.emit(|| Event::FarmProgress {
        completed: total,
        in_flight: 0,
        pending: 0,
        total,
    });
    finish(manifest, runs, &acc)
}

/// The farm scheduler, run by rank 0 against any [`Transport`] (threads or
/// TCP): broadcast the problem, keep up to `width` jumbles dispatched
/// through the foreman, fold each [`Message::JumbleResult`] into the
/// consensus and the manifest, and refill the pool until every seed is
/// `Done`. The caller owns transport setup and the final `Shutdown`.
pub fn run_farm_master<T: Transport>(
    transport: &T,
    alignment: &Alignment,
    config: &SearchConfig,
    seeds: &[u64],
    options: &FarmOptions,
    obs: &Obs,
) -> Result<FarmParts, PhyloError> {
    for rank in ranks::FIRST_WORKER..transport.size() {
        // Best-effort: a worker that died before the broadcast is the
        // foreman's problem (eager requeue / all-dead abort), not ours.
        let _ = transport.send(
            rank,
            &Message::ProblemData {
                phylip: phylip::write(alignment),
                config_json: config.engine_config_json(),
            },
        );
    }
    let (mut manifest, mut runs, mut acc, todo) = prepare(alignment, seeds, options, obs)?;
    let total = manifest.entries.len();
    let width = if options.width == 0 {
        usize::MAX
    } else {
        options.width
    };
    let mut pending: VecDeque<u64> = todo.into();
    let mut in_flight: usize = 0;
    let mut next_task: u64 = 0;
    // Built only if the foreman quarantines a jumble.
    let mut local: Option<Evaluator> = None;
    // One append handle per in-flight jumble when a WAL directory is
    // configured; entries leave the map when the jumble is absorbed.
    let mut writers: HashMap<u64, WalWriter> = HashMap::new();
    let wal_io = |e: std::io::Error| PhyloError::Format(format!("wal: {e}"));
    macro_rules! dispatch_up_to_width {
        () => {
            while in_flight < width {
                let Some(seed) = pending.pop_front() else {
                    break;
                };
                let msg = match &options.wal_dir {
                    Some(dir) => {
                        // Carry the committed prefix inline so the worker
                        // replays it, then streams rounds back starting at
                        // exactly this writer's next index.
                        let (entries, writer) = match wal::load(dir, 0, seed).map_err(wal_io)? {
                            Some(state) => {
                                let w = WalWriter::resume(dir, 0, seed, &state).map_err(wal_io)?;
                                let replayed = state.rounds.len() as u64;
                                if replayed > 0 {
                                    obs.emit(|| Event::WalReplay {
                                        job: 0,
                                        seed,
                                        rounds: replayed,
                                    });
                                }
                                let entries = state.rounds.iter().map(|r| r.to_json()).collect();
                                (entries, w)
                            }
                            None => {
                                let w = WalWriter::create(dir, 0, seed, alignment.num_taxa())
                                    .map_err(wal_io)?;
                                (Vec::new(), w)
                            }
                        };
                        writers.insert(seed, writer);
                        Message::JumbleResume {
                            job: 0,
                            task: next_task,
                            seed,
                            wal: entries,
                        }
                    }
                    None => Message::JumbleTask {
                        task: next_task,
                        seed,
                    },
                };
                transport
                    .send(ranks::FOREMAN, &msg)
                    .map_err(|e| PhyloError::Format(format!("transport: {e}")))?;
                next_task += 1;
                in_flight += 1;
                obs.emit(|| Event::JumbleStarted { seed });
            }
            let completed = total - in_flight - pending.len();
            obs.emit(|| Event::FarmProgress {
                completed,
                in_flight,
                pending: pending.len(),
                total,
            });
        };
    }
    dispatch_up_to_width!();
    while in_flight > 0 {
        let (_, msg) = transport
            .recv()
            .map_err(|e| PhyloError::Format(format!("transport: {e}")))?;
        match msg {
            Message::JumbleResult {
                task: _,
                seed,
                newick: text,
                ln_likelihood,
                rounds,
                candidates,
                work_units,
            } => {
                if runs.contains_key(&seed) {
                    // The foreman dedups by task id; a reassigned seed can
                    // still answer twice under a different task id.
                    continue;
                }
                in_flight -= 1;
                writers.remove(&seed);
                absorb(
                    alignment,
                    options,
                    &mut manifest,
                    &mut runs,
                    &mut acc,
                    obs,
                    JumbleRun {
                        seed,
                        newick: text,
                        ln_likelihood,
                        rounds,
                        candidates,
                        work_units,
                        reused: false,
                    },
                )?;
                dispatch_up_to_width!();
            }
            Message::Quarantined { payload, .. } => {
                // The foreman exhausted this jumble's failure budget across
                // distinct workers; run it here. Same `Evaluator::jumble`
                // the workers call, so the tree is byte-identical.
                let fdml_comm::message::TaskPayload::Jumble { seed } = payload else {
                    continue;
                };
                if runs.contains_key(&seed) {
                    continue;
                }
                if local.is_none() {
                    local = Some(local_evaluator(alignment, config)?);
                }
                // Drop our stale WAL handle first: the local rerun
                // re-recovers the log, which may hold rounds the failed
                // workers streamed before dying.
                writers.remove(&seed);
                let run = jumble_here(
                    local.as_ref().expect("just built"),
                    alignment,
                    seed,
                    options.wal_dir.as_deref(),
                    obs,
                )?;
                in_flight -= 1;
                absorb(
                    alignment,
                    options,
                    &mut manifest,
                    &mut runs,
                    &mut acc,
                    obs,
                    run,
                )?;
                dispatch_up_to_width!();
            }
            Message::Abort { reason } => {
                // The manifest on disk is still valid (write-then-rename
                // after every completion), so the run is resumable.
                return Err(PhyloError::Format(format!("farm aborted: {reason}")));
            }
            Message::WalRound {
                job: _,
                seed,
                index,
                entry,
            } => {
                // A worker committed a round. No writer means the jumble
                // already finished (a requeued duplicate's late stream):
                // drop it. A below-next index is a re-streamed prefix from
                // a restarted worker: `append` dedups it. A gap is a
                // protocol violation and aborts the farm.
                if let Some(writer) = writers.get_mut(&seed) {
                    let round = WalRound::from_json(&entry)
                        .map_err(|e| PhyloError::Format(format!("bad wal round: {e}")))?;
                    if let Some(bytes) = writer.append(&round).map_err(wal_io)? {
                        obs.emit(|| Event::WalAppend {
                            job: 0,
                            seed,
                            index,
                            bytes,
                        });
                    }
                }
            }
            // Transport-synthesized liveness: a departed worker is the
            // foreman's problem; a (re)joined worker needs the problem data
            // before it can serve jumbles.
            Message::PeerDown { .. } => {}
            Message::PeerUp { rank } => {
                let _ = transport.send(
                    rank,
                    &Message::ProblemData {
                        phylip: phylip::write(alignment),
                        config_json: config.engine_config_json(),
                    },
                );
            }
            other => {
                debug_assert!(false, "farm master got unexpected {}", other.kind());
            }
        }
    }
    finish(manifest, runs, &acc)
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
}
