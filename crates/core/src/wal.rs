//! The write-ahead round log: how a run resumes.
//!
//! After every *completed* round the search appends one [`WalRound`] — the
//! candidates it verified in rank order up to and including the one it
//! adopted, whether the last one was adopted, and the round-end
//! log-likelihood — to a CRC32-framed log (see [`crate::durable`]). The log
//! is the search's checkpoint: the addition order is `jumble_order(seed)`,
//! the tree is the logged moves replayed, and the taxa placed are the count
//! of `Addition` records. Resume replays the records under one rule: an
//! accepted record is the `commit` of its last tried move, a rejected
//! record is nothing (a round that adopts nothing never touches the base).
//! Candidate *scoring* and the failed verifications, which is where
//! virtually all the compute lives, are skipped entirely. Because the
//! executors are deterministic and a verification depends only on the base
//! and its move, a log of this build's [`NUMERICS_EPOCH`] resumes to the
//! uninterrupted run's state bit for bit — down to optimized branch lengths
//! — and so to its final Newick. A single search also resumes a log of
//! another epoch: it commits the same moves and continues live, its guard
//! comparing likelihoods within a relative tolerance instead of by bits.
//!
//! Records are appended *after* the round commits: a crash between commit
//! and append merely re-runs that round live on resume, deterministically
//! reproducing it. The log is therefore always a prefix of the round
//! sequence, and any torn tail is dropped by the durable layer's
//! truncate-to-valid recovery.
//!
//! One directory holds a run's state: one log per (job, jumble seed) and,
//! for a farm, its manifest ([`manifest_path`]). On jumble completion the
//! farm retires the log (the result is in the manifest by then), keeping
//! the directory bounded.

use crate::durable::{self, LogWriter};
use crate::executor::RoundExecutor;
use crate::search::StepwiseSearch;
use fdml_obs::{Event, Obs};
use fdml_phylo::ops::TreeMove;
use fdml_phylo::tree::NodeId;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Which phase of the search a WAL round belongs to. Mirrors
/// [`crate::trace::RoundKind`] but is its own type so the on-disk format
/// is decoupled from the trace format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalPhase {
    /// A taxon-addition round (paper step 3).
    Addition,
    /// A local rearrangement round after an addition (step 4).
    Rearrange,
    /// A final-phase rearrangement round (step 5).
    Final,
}

/// A [`TreeMove`] in WAL form: raw ids, serializable, re-appliable to any
/// structurally identical clone of its base tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalMove {
    /// Insert `taxon` into the edge `a`–`b`.
    Ins {
        /// Taxon id being inserted.
        taxon: u32,
        /// First endpoint of the target edge.
        a: u32,
        /// Second endpoint of the target edge.
        b: u32,
    },
    /// Prune at `root`–`attachment`, regraft into `ta`–`tb`.
    Spr {
        /// Root node of the pruned subtree.
        root: u32,
        /// The internal node dissolved by the prune.
        attachment: u32,
        /// First endpoint of the regraft edge.
        ta: u32,
        /// Second endpoint of the regraft edge.
        tb: u32,
    },
}

impl WalMove {
    /// Capture a search move.
    pub fn from_move(mv: &TreeMove) -> WalMove {
        match *mv {
            TreeMove::Insertion { taxon, at } => WalMove::Ins {
                taxon,
                a: at.0 .0,
                b: at.1 .0,
            },
            TreeMove::Spr {
                root,
                attachment,
                target,
            } => WalMove::Spr {
                root: root.0,
                attachment: attachment.0,
                ta: target.0 .0,
                tb: target.1 .0,
            },
        }
    }

    /// Reconstruct the search move.
    pub fn to_move(self) -> TreeMove {
        match self {
            WalMove::Ins { taxon, a, b } => TreeMove::Insertion {
                taxon,
                at: (NodeId(a), NodeId(b)),
            },
            WalMove::Spr {
                root,
                attachment,
                ta,
                tb,
            } => TreeMove::Spr {
                root: NodeId(root),
                attachment: NodeId(attachment),
                target: (NodeId(ta), NodeId(tb)),
            },
        }
    }
}

/// One completed round: everything needed to replay its effect on the base.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRound {
    /// 0-based position in the round sequence (dedup key when records
    /// stream over the wire from possibly-duplicated workers).
    pub index: u64,
    /// Which search phase the round ran in.
    pub phase: WalPhase,
    /// The moves verified (fully optimized against the untouched base),
    /// in rank order, ending at the adopted one if there is one. For an
    /// addition round this is the single chosen insertion. May be empty
    /// for a fruitless rearrangement round whose best candidate fell
    /// below the verify threshold. Independent of the verify width.
    pub tried: Vec<WalMove>,
    /// Whether the *last* entry of `tried` was adopted as the new base
    /// (`false`: none improved, the base is unchanged).
    pub accepted: bool,
    /// Bit pattern of the round-end log-likelihood — the replay
    /// divergence guard: a replayed round must land on exactly these bits
    /// (within a relative tolerance for a log of another
    /// [`NUMERICS_EPOCH`]) or resume aborts rather than silently drift.
    pub lnl_bits: u64,
}

impl WalRound {
    /// Serialize for a log record or a wire message.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("wal round serializes")
    }

    /// Parse a log record or wire payload.
    pub fn from_json(text: &str) -> Result<WalRound, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Which build's arithmetic a log's `lnl_bits` were computed with; bump
/// it whenever a change moves optimized branch lengths by a bit (1:
/// converged Newton exits stopped measuring their last step). Logs from
/// before the field existed read as 0. Replay compares likelihood bits
/// only within an epoch. A single search resumes a log of another epoch
/// by committing its moves under [`REPLAY_TOLERANCE`]; a farm jumble of
/// another epoch restarts, its finished siblings kept by the manifest.
pub const NUMERICS_EPOCH: u32 = 1;

/// The relative likelihood difference a replayed round may show against
/// a log of another [`NUMERICS_EPOCH`]: arithmetic drift, not a different
/// run or a move that no longer applies.
pub const REPLAY_TOLERANCE: f64 = 1e-6;

/// The first record of every WAL file: identifies the search so resume
/// can refuse a mismatched log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalStart {
    /// The jumble seed of the search this log belongs to.
    pub jumble_seed: u64,
    /// Taxon count of the search.
    pub num_taxa: usize,
    /// The [`NUMERICS_EPOCH`] of the build that wrote the log.
    #[serde(default)]
    pub numerics: u32,
}

/// A record in the log: the opening [`WalStart`] or a committed round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// First record of the file.
    Start(WalStart),
    /// One committed round.
    Round(WalRound),
}

/// Everything recovered from an existing WAL file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalState {
    /// The identifying header.
    pub start: WalStart,
    /// The committed rounds, in order, re-indexed contiguously.
    pub rounds: Vec<WalRound>,
    /// Bytes dropped from a torn/corrupt tail (0 on a clean log).
    pub dropped_bytes: u64,
}

/// The one naming rule of a state directory: `name` for the CLI's runs
/// (`job == 0`), `job-<job>-name` for a daemon job (registry job ids start
/// at 1), so any number of jobs share the directory.
fn job_file(dir: &Path, job: u64, name: &str) -> PathBuf {
    match job {
        0 => dir.join(name),
        job => dir.join(format!("job-{job}-{name}")),
    }
}

/// Path of the WAL for `seed` under `dir`.
pub fn wal_path(dir: &Path, job: u64, seed: u64) -> PathBuf {
    job_file(dir, job, &format!("jumble-{seed}.wal"))
}

/// Path of `job`'s farm manifest under `dir`, beside its jumbles' logs.
pub fn manifest_path(dir: &Path, job: u64) -> PathBuf {
    job_file(dir, job, "manifest.json")
}

/// Load the WAL for `(job, seed)` under `dir`. `Ok(None)` when no log
/// exists or the log holds no parseable header (a fresh run); the header
/// may name another [`NUMERICS_EPOCH`] — what that means is the caller's.
/// Records after a valid header are re-indexed from 0 — gaps cannot
/// occur because appends are index-gated, but a recovered prefix is
/// renumbered defensively.
pub fn load(dir: &Path, job: u64, seed: u64) -> io::Result<Option<WalState>> {
    let path = wal_path(dir, job, seed);
    let recovered = match durable::read_log(&path)? {
        Some(r) => r,
        None => return Ok(None),
    };
    let parse = |raw: &[u8]| -> Option<WalRecord> {
        let text = std::str::from_utf8(raw).ok()?;
        serde_json::from_str::<WalRecord>(text).ok()
    };
    let mut records = recovered.records.iter();
    let start = match records.next() {
        Some(first) => match parse(first) {
            Some(WalRecord::Start(s)) => s,
            _ => return Ok(None),
        },
        None => return Ok(None),
    };
    let mut rounds = Vec::new();
    for raw in records {
        match parse(raw) {
            Some(WalRecord::Round(r)) => rounds.push(r),
            // A record that framed correctly but does not parse is
            // treated like a torn tail: stop at the last good one.
            _ => break,
        }
    }
    for (i, r) in rounds.iter_mut().enumerate() {
        r.index = i as u64;
    }
    Ok(Some(WalState {
        start,
        rounds,
        dropped_bytes: recovered.dropped_bytes,
    }))
}

/// Delete the WAL for `(job, seed)` — called when the jumble's result has
/// been durably recorded in the manifest.
/// Missing file is fine (the jumble may have run WAL-less or pre-crash).
pub fn retire(dir: &Path, job: u64, seed: u64) -> io::Result<()> {
    remove(&wal_path(dir, job, seed))
}

fn remove(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Recover the WAL for `(job, seed)` under `dir`, or start one: the
/// [`NUMERICS_EPOCH`] of its rounds, the rounds (none on a fresh log) and
/// the append handle continuing at the next index. A log of another [`NUMERICS_EPOCH`] is recovered only
/// `across_epochs` (a single search); otherwise it is replaced by a fresh
/// one (a farm jumble restarts). The one place a log is opened — an
/// in-process search ([`WalSession::open`]) and a coordinator's
/// `farm::Ledger` both come here.
pub fn open(
    dir: &Path,
    job: u64,
    seed: u64,
    num_taxa: usize,
    across_epochs: bool,
) -> io::Result<(u32, Vec<WalRound>, WalWriter)> {
    match load(dir, job, seed)? {
        Some(state) if across_epochs || state.start.numerics == NUMERICS_EPOCH => {
            let writer = WalWriter::resume(dir, job, seed, &state)?;
            Ok((state.start.numerics, state.rounds, writer))
        }
        _ => {
            let writer = WalWriter::create(dir, job, seed, num_taxa)?;
            Ok((NUMERICS_EPOCH, Vec::new(), writer))
        }
    }
}

/// Append-side handle for one jumble's WAL: index-gated, duplicate-safe.
#[derive(Debug)]
pub struct WalWriter {
    log: LogWriter,
    next_index: u64,
}

impl WalWriter {
    /// Create a fresh WAL (truncating any unusable previous file) and
    /// durably write the [`WalStart`] header.
    pub fn create(dir: &Path, job: u64, seed: u64, num_taxa: usize) -> io::Result<WalWriter> {
        std::fs::create_dir_all(dir)?;
        let path = wal_path(dir, job, seed);
        let mut log = LogWriter::create(&path)?;
        let start = WalRecord::Start(WalStart {
            jumble_seed: seed,
            num_taxa,
            numerics: NUMERICS_EPOCH,
        });
        log.append(
            serde_json::to_string(&start)
                .expect("wal start serializes")
                .as_bytes(),
        )?;
        Ok(WalWriter { log, next_index: 0 })
    }

    /// Open for appending after [`load`] recovered `state` from the same
    /// path: truncates any torn tail and continues at the next index.
    pub fn resume(dir: &Path, job: u64, seed: u64, state: &WalState) -> io::Result<WalWriter> {
        let path = wal_path(dir, job, seed);
        let (log, recovered) = LogWriter::resume(&path)?;
        // `load` may have stopped early on an unparseable framed record;
        // only the rounds it accepted count toward the index.
        debug_assert!(recovered.records.len() > state.rounds.len());
        Ok(WalWriter {
            log,
            next_index: state.rounds.len() as u64,
        })
    }

    /// Append one committed round if `round.index` is the exact next
    /// index. Returns `Ok(Some(bytes))` when appended, `Ok(None)` when
    /// the record is a duplicate (index below next — e.g. a restarted
    /// worker re-streaming a prefix the coordinator already has). An
    /// index *above* next is a protocol violation: records would be
    /// missing in between.
    pub fn append(&mut self, round: &WalRound) -> io::Result<Option<u64>> {
        if round.index < self.next_index {
            return Ok(None);
        }
        if round.index > self.next_index {
            return Err(io::Error::other(format!(
                "wal gap: got round index {} but next is {}",
                round.index, self.next_index
            )));
        }
        let rec = WalRecord::Round(round.clone());
        let bytes = self.log.append(
            serde_json::to_string(&rec)
                .expect("wal round serializes")
                .as_bytes(),
        )?;
        self.next_index += 1;
        Ok(Some(bytes))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

/// One coordinator-side WAL attachment for an in-process search: recover
/// the log of any epoch (or start one), [`attach`](WalSession::attach) it
/// to the search, and surface any deferred append error when the run is
/// over. The hook's I/O error cannot abort the search from
/// inside the callback (it returns unit by design), so the session
/// captures the first failure and [`WalSession::finish_and_retire`]
/// re-raises it — a silently unreported round would shrink the
/// crash-tolerance window without anyone noticing.
pub struct WalSession {
    shared: Rc<RefCell<SessionShared>>,
    rounds: Vec<WalRound>,
    numerics: u32,
}

struct SessionShared {
    writer: WalWriter,
    error: Option<io::Error>,
    obs: Obs,
    job: u64,
    seed: u64,
}

impl WalSession {
    /// Recover (or start) the WAL for `(job, seed)` under `dir`, emitting
    /// [`Event::WalReplay`] when a committed prefix was found.
    pub fn open(
        dir: &Path,
        job: u64,
        seed: u64,
        num_taxa: usize,
        obs: &Obs,
    ) -> io::Result<WalSession> {
        let (numerics, rounds, writer) = open(dir, job, seed, num_taxa, true)?;
        if !rounds.is_empty() {
            let replayed = rounds.len() as u64;
            obs.emit(|| Event::WalReplay {
                job,
                seed,
                rounds: replayed,
            });
        }
        Ok(WalSession {
            shared: Rc::new(RefCell::new(SessionShared {
                writer,
                error: None,
                obs: obs.clone(),
                job,
                seed,
            })),
            rounds,
            numerics,
        })
    }

    /// Attach to `search`: it replays the recovered prefix (once; under
    /// the prefix's epoch) and hands every round it commits to the append
    /// hook — index-gated, one [`Event::WalAppend`] per durable record.
    /// After the first I/O error the hook goes quiet (the search finishes,
    /// the error surfaces in [`WalSession::finish_and_retire`]).
    pub fn attach<'c, E: RoundExecutor>(
        &mut self,
        search: StepwiseSearch<'c, E>,
    ) -> StepwiseSearch<'c, E> {
        let rounds = std::mem::take(&mut self.rounds);
        let search = search.resume_from_wal(rounds).replay_epoch(self.numerics);
        let shared = Rc::clone(&self.shared);
        search.on_wal(move |round| {
            let mut s = shared.borrow_mut();
            if s.error.is_some() {
                return;
            }
            match s.writer.append(round) {
                Ok(Some(bytes)) => {
                    let (job, seed, index) = (s.job, s.seed, round.index);
                    s.obs.emit(|| Event::WalAppend {
                        job,
                        seed,
                        index,
                        bytes,
                    });
                }
                Ok(None) => {}
                Err(e) => s.error = Some(e),
            }
        })
    }

    /// Re-raise the first append error captured during the run, if any;
    /// otherwise delete the log — the search completed and delivered its
    /// result, so the WAL has nothing left to protect, and retiring it
    /// keeps `--wal-dir` bounded.
    pub fn finish_and_retire(self) -> io::Result<()> {
        let mut shared = self.shared.borrow_mut();
        match shared.error.take() {
            Some(e) => Err(e),
            None => remove(shared.writer.path()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fdml-wal-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn round(index: u64, accepted: bool) -> WalRound {
        WalRound {
            index,
            phase: WalPhase::Rearrange,
            tried: vec![
                WalMove::Spr {
                    root: 4,
                    attachment: 9,
                    ta: 1,
                    tb: 2,
                },
                WalMove::Ins {
                    taxon: 3,
                    a: 0,
                    b: 7,
                },
            ],
            accepted,
            lnl_bits: (-1234.5f64).to_bits() ^ index,
        }
    }

    #[test]
    fn moves_roundtrip_through_wal_form() {
        let ins = TreeMove::Insertion {
            taxon: 5,
            at: (NodeId(2), NodeId(9)),
        };
        let spr = TreeMove::Spr {
            root: NodeId(1),
            attachment: NodeId(3),
            target: (NodeId(4), NodeId(8)),
        };
        assert_eq!(WalMove::from_move(&ins).to_move(), ins);
        assert_eq!(WalMove::from_move(&spr).to_move(), spr);
    }

    #[test]
    fn create_append_load_roundtrip() {
        let dir = scratch_dir();
        let mut w = WalWriter::create(&dir, 0, 7, 6).unwrap();
        for i in 0..4 {
            assert!(w.append(&round(i, i != 3)).unwrap().is_some());
        }
        drop(w);
        let state = load(&dir, 0, 7).unwrap().unwrap();
        assert_eq!(state.start.jumble_seed, 7);
        assert_eq!(state.start.num_taxa, 6);
        assert_eq!(state.rounds.len(), 4);
        assert_eq!(state.rounds[3], round(3, false));
        assert_eq!(state.dropped_bytes, 0);
        // Unrelated (job, seed) pairs see nothing.
        assert!(load(&dir, 0, 8).unwrap().is_none());
        assert!(load(&dir, 3, 7).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_namespacing_separates_files() {
        let dir = scratch_dir();
        let mut a = WalWriter::create(&dir, 1, 7, 6).unwrap();
        let mut b = WalWriter::create(&dir, 2, 7, 6).unwrap();
        a.append(&round(0, true)).unwrap();
        b.append(&round(0, true)).unwrap();
        b.append(&round(1, true)).unwrap();
        assert_eq!(load(&dir, 1, 7).unwrap().unwrap().rounds.len(), 1);
        assert_eq!(load(&dir, 2, 7).unwrap().unwrap().rounds.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_indices_are_ignored_and_gaps_rejected() {
        let dir = scratch_dir();
        let mut w = WalWriter::create(&dir, 0, 3, 6).unwrap();
        assert!(w.append(&round(0, true)).unwrap().is_some());
        assert!(w.append(&round(1, true)).unwrap().is_some());
        // A restarted worker re-streams from 0: silently deduplicated.
        assert!(w.append(&round(0, true)).unwrap().is_none());
        assert!(w.append(&round(1, true)).unwrap().is_none());
        assert_eq!(w.next_index, 2);
        // Skipping ahead means lost records: hard error.
        assert!(w.append(&round(5, true)).is_err());
        drop(w);
        assert_eq!(load(&dir, 0, 3).unwrap().unwrap().rounds.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_continues_after_torn_tail() {
        let dir = scratch_dir();
        let mut w = WalWriter::create(&dir, 0, 9, 6).unwrap();
        w.append(&round(0, true)).unwrap();
        w.append(&round(1, true)).unwrap();
        drop(w);
        // Tear the file mid-record.
        let path = wal_path(&dir, 0, 9);
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 3]).unwrap();
        let state = load(&dir, 0, 9).unwrap().unwrap();
        assert_eq!(state.rounds.len(), 1);
        assert!(state.dropped_bytes > 0);
        let mut w = WalWriter::resume(&dir, 0, 9, &state).unwrap();
        assert_eq!(w.next_index, 1);
        w.append(&round(1, false)).unwrap();
        drop(w);
        let state = load(&dir, 0, 9).unwrap().unwrap();
        assert_eq!(state.rounds.len(), 2);
        assert!(!state.rounds[1].accepted);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_of_another_numerics_epoch_is_recomputed() {
        // Written by the PR 17 build (`--jumble 7 --wal-dir`, crashed after
        // two rounds): a header without `numerics`, then rounds whose
        // `lnl_bits` this build's optimizer no longer lands on.
        let old: &[u8] = include_bytes!("../testdata/pr17-jumble-7.wal");
        let dir = scratch_dir();
        let path = wal_path(&dir, 0, 7);
        fs::write(&path, old).unwrap();
        let recovered = durable::read_log(&path).unwrap().unwrap();
        assert_eq!(recovered.records.len(), 3);
        assert_eq!(recovered.dropped_bytes, 0);
        let header: WalRecord =
            serde_json::from_str(std::str::from_utf8(&recovered.records[0]).unwrap()).unwrap();
        assert_eq!(
            header,
            WalRecord::Start(WalStart {
                jumble_seed: 7,
                num_taxa: 6,
                numerics: 0,
            })
        );
        // A single search recovers it, epoch and all, to replay within
        // tolerance; recovering leaves the file as it was.
        let (numerics, rounds, w) = open(&dir, 0, 7, 6, true).unwrap();
        assert_eq!((numerics, rounds.len()), (0, 2));
        drop(w);
        assert_eq!(fs::read(&path).unwrap(), old);
        // A farm jumble: not an error, not a replay — a fresh run, whose
        // log replaces it.
        let (numerics, rounds, mut w) = open(&dir, 0, 7, 6, false).unwrap();
        assert!(rounds.is_empty() && numerics == NUMERICS_EPOCH);
        assert!(fs::metadata(&path).unwrap().len() < old.len() as u64);
        w.append(&round(0, true)).unwrap();
        drop(w);
        let state = load(&dir, 0, 7).unwrap().unwrap();
        assert_eq!(state.start.numerics, NUMERICS_EPOCH);
        assert_eq!(state.rounds, [round(0, true)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retire_deletes_and_tolerates_missing() {
        let dir = scratch_dir();
        let w = WalWriter::create(&dir, 0, 5, 6).unwrap();
        drop(w);
        assert!(wal_path(&dir, 0, 5).exists());
        retire(&dir, 0, 5).unwrap();
        assert!(!wal_path(&dir, 0, 5).exists());
        retire(&dir, 0, 5).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
