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
//! — and so to its final Newick. A log of another epoch resumes too, on
//! every deployment and in every run shape: it commits the same moves and
//! continues live, its guard comparing likelihoods within a relative
//! tolerance instead of by bits. That is the one replay rule.
//!
//! Records are appended *after* the round commits: a crash between commit
//! and append merely re-runs that round live on resume, deterministically
//! reproducing it. The log is therefore always a prefix of the round
//! sequence, and any torn tail is dropped by the durable layer's
//! truncate-to-valid recovery.
//!
//! One directory holds a run's state: one log per (job, jumble seed) and
//! the run's manifest ([`manifest_path`]), both kept by the run's
//! [`crate::farm::Ledger`] — a single search is a one-jumble job. When a
//! jumble completes its log is retired (the result is in the manifest by
//! then), keeping the directory bounded; the manifest stays and answers a
//! re-run of the finished job.

use crate::durable::{self, LogWriter};
use fdml_phylo::ops::TreeMove;
use fdml_phylo::tree::NodeId;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

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
/// only within an epoch; a log of another epoch is replayed by committing
/// its moves under [`REPLAY_TOLERANCE`], wherever its jumble runs.
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
    /// The problem the rounds were committed for: alignment, settings and
    /// scoring mode ([`crate::farm::log_key`]). `None` in logs written
    /// before it was kept, which are refused: a whole-tree and an
    /// edit-scored jumble of one seed share a log name, and such a log
    /// cannot say which of them it belongs to.
    #[serde(default)]
    pub problem: Option<String>,
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
    match std::fs::remove_file(wal_path(dir, job, seed)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Recover the WAL for `(job, seed)` under `dir`, or start one: the
/// [`NUMERICS_EPOCH`] of its rounds (of any epoch), the rounds (none on a
/// fresh log) and the append handle continuing at the next index. A log
/// whose header names another problem than `key` ([`WalStart::problem`]),
/// or none, is refused with an error naming the file, and left as it is.
/// The one place a log is opened: every run's `farm::Ledger` comes here.
pub fn open(
    dir: &Path,
    job: u64,
    seed: u64,
    num_taxa: usize,
    key: &str,
) -> io::Result<(u32, Vec<WalRound>, WalWriter)> {
    match load(dir, job, seed)? {
        Some(state) if state.start.problem.as_deref() != Some(key) => {
            let why = match state.start.problem {
                Some(_) => {
                    "round log is for another alignment, other settings or another scoring mode"
                }
                None => "round log names no problem (an older build wrote it)",
            };
            let path = wal_path(dir, job, seed);
            Err(io::Error::other(format!("{}: {why}", path.display())))
        }
        Some(state) => {
            let writer = WalWriter::resume(dir, job, seed, &state)?;
            Ok((state.start.numerics, state.rounds, writer))
        }
        None => {
            let writer = WalWriter::create(dir, job, seed, num_taxa, key)?;
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
    /// durably write the [`WalStart`] header, naming problem `key`.
    pub fn create(
        dir: &Path,
        job: u64,
        seed: u64,
        num_taxa: usize,
        key: &str,
    ) -> io::Result<WalWriter> {
        std::fs::create_dir_all(dir)?;
        let path = wal_path(dir, job, seed);
        let mut log = LogWriter::create(&path)?;
        let start = WalRecord::Start(WalStart {
            jumble_seed: seed,
            num_taxa,
            numerics: NUMERICS_EPOCH,
            problem: Some(key.to_owned()),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// The problem the logs of these tests are for.
    const KEY: &str = "test-problem";

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
        let mut w = WalWriter::create(&dir, 0, 7, 6, KEY).unwrap();
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
        let mut a = WalWriter::create(&dir, 1, 7, 6, KEY).unwrap();
        let mut b = WalWriter::create(&dir, 2, 7, 6, KEY).unwrap();
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
        let mut w = WalWriter::create(&dir, 0, 3, 6, KEY).unwrap();
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
        let mut w = WalWriter::create(&dir, 0, 9, 6, KEY).unwrap();
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
    fn log_of_another_numerics_epoch_is_recovered_with_its_epoch() {
        // Written by the PR 17 build (`--jumble 7 --wal-dir`, crashed after
        // two rounds): a header without `numerics`, then rounds whose
        // `lnl_bits` this build's optimizer no longer lands on. Its header
        // has since been given a problem key (`pr17-seed7`), re-framed, so
        // that only the epoch differs.
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
                problem: Some("pr17-seed7".into()),
            })
        );
        // Recovered, epoch and all, to replay within tolerance, whatever
        // runs the jumble; recovering leaves the file as it was.
        let (numerics, rounds, mut w) = open(&dir, 0, 7, 6, "pr17-seed7").unwrap();
        assert_eq!((numerics, rounds.len()), (0, 2));
        assert_eq!(fs::read(&path).unwrap(), old);
        // The rounds computed after the prefix continue the same log.
        w.append(&round(2, true)).unwrap();
        drop(w);
        let state = load(&dir, 0, 7).unwrap().unwrap();
        assert_eq!((state.start.numerics, state.rounds.len()), (0, 3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_of_another_problem_or_of_none_is_refused_and_kept() {
        let dir = scratch_dir();
        let mut w = WalWriter::create(&dir, 0, 7, 6, KEY).unwrap();
        w.append(&round(0, true)).unwrap();
        drop(w);
        let path = wal_path(&dir, 0, 7);
        let before = fs::read(&path).unwrap();
        let err = open(&dir, 0, 7, 6, "another-problem").unwrap_err();
        let err = err.to_string();
        assert!(err.starts_with(&path.display().to_string()), "{err}");
        assert!(err.contains("another"), "{err}");
        assert_eq!(err.lines().count(), 1);
        assert_eq!(
            fs::read(&path).unwrap(),
            before,
            "the log is left as it was"
        );
        // A header without a key: an older build's log, whichever run
        // wrote it.
        let mut log = LogWriter::create(&path).unwrap();
        let keyless = r#"{"Start":{"jumble_seed":7,"num_taxa":6,"numerics":1}}"#;
        log.append(keyless.as_bytes()).unwrap();
        drop(log);
        let err = open(&dir, 0, 7, 6, KEY).unwrap_err().to_string();
        assert!(err.contains("names no problem"), "{err}");
        // The same key opens it.
        WalWriter::create(&dir, 0, 7, 6, KEY).unwrap();
        assert!(open(&dir, 0, 7, 6, KEY).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retire_deletes_and_tolerates_missing() {
        let dir = scratch_dir();
        let w = WalWriter::create(&dir, 0, 5, 6, KEY).unwrap();
        drop(w);
        assert!(wal_path(&dir, 0, 5).exists());
        retire(&dir, 0, 5).unwrap();
        assert!(!wal_path(&dir, 0, 5).exists());
        retire(&dir, 0, 5).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
