//! The daemon's durable job registry.
//!
//! Everything the scheduler must survive a restart with lives in one
//! state directory:
//!
//! * `jobs.json` — the registry proper: the next id to assign and, per
//!   job, its full [`JobSpec`], lifecycle [`JobState`], and failure
//!   reason. Stored as a [`fdml_core::durable`] framed snapshot log: each
//!   save appends one CRC32-framed snapshot record, fsynced before the
//!   daemon acknowledges the transition. A torn or corrupt tail recovers
//!   to the last valid snapshot (with a [`Event::DurableRecovered`]
//!   warning naming the file and byte offset) instead of aborting
//!   startup, and the log compacts back to a single record once it grows.
//!   Files from daemons predating the framed format (plain JSON) are read
//!   and migrated on the first save.
//! * `wal/` — each job's farm state, kept by its `fdml_core::farm::Ledger`
//!   exactly as a CLI farm keeps its `--wal-dir`: the job's manifest
//!   (each `Done` seed's tree and likelihood, saved after every completed
//!   jumble) and one round log per in-flight jumble, both named by job id.
//!
//!   Opening the registry moves a manifest older daemons kept beside
//!   `jobs.json` (`job-<id>.manifest.json`) into `wal/`.
//!
//! A restarted daemon reloads both, requeues every `Pending` seed, and
//! resumes — no jumble is lost, and none runs twice, because a seed is
//! only marked `Done` when its result is already on disk.

use fdml_comm::job::{JobId, JobSpec, JobState, JobStatus};
use fdml_core::durable::{self, LogWriter};
use fdml_core::wal;
use fdml_obs::{Event, Obs};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

/// Compact the snapshot log back to one record when it accumulates this
/// many; keeps `jobs.json` bounded regardless of how many transitions a
/// long-lived daemon performs.
const COMPACT_AT: u64 = 64;

/// One job's durable record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobEntry {
    /// The id assigned at admission.
    pub id: JobId,
    /// The complete submitted spec.
    pub spec: JobSpec,
    /// Lifecycle state at the last save.
    pub state: JobState,
    /// Failure reason, when `state` is [`JobState::Failed`].
    pub failure: Option<String>,
}

/// The `jobs.json` wire form (ids are also inside the entries; a list
/// keeps the JSON portable — object keys must be strings).
#[derive(Debug, Serialize, Deserialize)]
struct PersistedRegistry {
    next_id: JobId,
    jobs: Vec<JobEntry>,
}

/// The durable registry: admission, state transitions, and per-job
/// manifests, all backed by one state directory.
pub struct Registry {
    dir: PathBuf,
    next_id: JobId,
    jobs: BTreeMap<JobId, JobEntry>,
    log: LogWriter,
    snapshots_in_log: u64,
}

impl Registry {
    /// Open (or create) the registry in `dir`, reloading `jobs.json` if a
    /// previous daemon left one behind. Unobserved; the daemon proper
    /// uses [`Registry::open_observed`] so recovery warnings reach the
    /// event stream.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Registry> {
        Registry::open_observed(dir, &Obs::disabled())
    }

    /// Open the registry, emitting an [`Event::DurableRecovered`] warning
    /// (file and byte offset) if `jobs.json` had a torn or corrupt tail
    /// that was rolled back to the last valid snapshot.
    pub fn open_observed(dir: impl Into<PathBuf>, obs: &Obs) -> io::Result<Registry> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("wal"))?;
        let path = dir.join("jobs.json");
        let raw = match std::fs::read(&path) {
            Ok(raw) => Some(raw),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let (persisted, snapshots_in_log, migrate) = match raw {
            None => (None, 0, false),
            // A daemon predating the framed format left plain JSON:
            // read it as one snapshot and migrate on the first save.
            Some(raw) if raw.first() == Some(&b'{') => {
                match std::str::from_utf8(&raw)
                    .ok()
                    .and_then(|text| serde_json::from_str::<PersistedRegistry>(text).ok())
                {
                    Some(p) => (Some(p), 0, true),
                    None => {
                        // Corrupt legacy file: nothing salvageable (plain
                        // JSON has no record boundaries). Warn and start
                        // empty rather than refuse to boot.
                        obs.emit(|| Event::DurableRecovered {
                            path: path.display().to_string(),
                            valid_bytes: 0,
                            dropped_bytes: raw.len() as u64,
                        });
                        (None, 0, true)
                    }
                }
            }
            Some(raw) => {
                let recovered = durable::validate_log_bytes(&raw);
                // Walk back from the newest record to the last snapshot
                // that parses: framing guards against torn writes, the
                // parse guards against semantic corruption.
                let mut last = None;
                let mut valid = recovered.records.len();
                for rec in recovered.records.iter().rev() {
                    if let Some(p) = std::str::from_utf8(rec)
                        .ok()
                        .and_then(|text| serde_json::from_str::<PersistedRegistry>(text).ok())
                    {
                        last = Some(p);
                        break;
                    }
                    valid -= 1;
                }
                if recovered.dropped_bytes > 0 || valid < recovered.records.len() {
                    obs.emit(|| Event::DurableRecovered {
                        path: path.display().to_string(),
                        valid_bytes: recovered.valid_bytes,
                        dropped_bytes: recovered.dropped_bytes,
                    });
                }
                (last, valid as u64, false)
            }
        };
        let (next_id, jobs) = match persisted {
            Some(p) => {
                let jobs: BTreeMap<JobId, JobEntry> =
                    p.jobs.into_iter().map(|j| (j.id, j)).collect();
                (p.next_id, jobs)
            }
            None => (1, BTreeMap::new()),
        };
        // Daemons before the ledger kept its own files left each job's
        // manifest beside `jobs.json`: move it to where the ledger reads it.
        for &id in jobs.keys() {
            let legacy = dir.join(format!("job-{id}.manifest.json"));
            let path = wal::manifest_path(&dir.join("wal"), id);
            if legacy.exists() && !path.exists() {
                std::fs::rename(&legacy, &path)?;
            }
        }
        // `resume` truncates any torn tail so appends continue cleanly;
        // for a fresh or legacy path it starts a new framed log.
        let log = if migrate {
            let mut reg = Registry {
                dir,
                next_id,
                jobs,
                log: LogWriter::create(&path)?,
                snapshots_in_log: 0,
            };
            reg.save()?;
            return Ok(reg);
        } else {
            let (log, _) = LogWriter::resume(&path)?;
            log
        };
        Ok(Registry {
            dir,
            next_id,
            jobs,
            log,
            snapshots_in_log,
        })
    }

    /// Admit a spec: assign the next id, record the job as
    /// [`JobState::Queued`], and persist.
    pub fn admit(&mut self, spec: JobSpec) -> io::Result<JobId> {
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            JobEntry {
                id,
                spec,
                state: JobState::Queued,
                failure: None,
            },
        );
        self.save()?;
        Ok(id)
    }

    /// Move `id` to `state` (clearing any failure) and persist.
    pub fn set_state(&mut self, id: JobId, state: JobState) -> io::Result<()> {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = state;
            job.failure = None;
            self.save()?;
        }
        Ok(())
    }

    /// Mark `id` failed with `reason` and persist.
    pub fn set_failed(&mut self, id: JobId, reason: String) -> io::Result<()> {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = JobState::Failed;
            job.failure = Some(reason);
            self.save()?;
        }
        Ok(())
    }

    /// The job's durable record, if admitted.
    pub fn get(&self, id: JobId) -> Option<&JobEntry> {
        self.jobs.get(&id)
    }

    /// Every admitted job, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobEntry> {
        self.jobs.values()
    }

    /// Jobs counted against the admission queue (everything not yet
    /// finished).
    pub fn active_jobs(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| matches!(j.state, JobState::Queued | JobState::Running))
            .count()
    }

    /// Where every job's manifest and write-ahead round logs live (one
    /// manifest per job, one log per in-flight jumble, named by job id; see
    /// `fdml_core::wal::manifest_path` and `wal_path`).
    pub fn wal_dir(&self) -> PathBuf {
        self.dir.join("wal")
    }

    /// Assemble the `--status` answer for `id` given its manifest
    /// progress.
    pub fn status(&self, id: JobId, done: usize, total: usize) -> Option<JobStatus> {
        self.jobs.get(&id).map(|j| JobStatus {
            job: id,
            state: j.state,
            done,
            total,
            label: j.spec.label.clone(),
            failure: j.failure.clone(),
        })
    }

    /// Persist the registry durably: append one fsynced snapshot record
    /// to the framed `jobs.json` log. When this returns, the transition
    /// survives a crash — the daemon acks only after it. The log compacts
    /// back to a single snapshot once [`COMPACT_AT`] records accumulate.
    pub fn save(&mut self) -> io::Result<()> {
        let persisted = PersistedRegistry {
            next_id: self.next_id,
            jobs: self.jobs.values().cloned().collect(),
        };
        let text = serde_json::to_string_pretty(&persisted)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
        let path = self.dir.join("jobs.json");
        if self.snapshots_in_log >= COMPACT_AT {
            durable::write_log_atomic(&path, &[text.as_bytes()])?;
            let (log, _) = LogWriter::resume(&path)?;
            self.log = log;
            self.snapshots_in_log = 1;
        } else {
            self.log.append(text.as_bytes())?;
            self.snapshots_in_log += 1;
        }
        Ok(())
    }

    /// Bytes currently in the `jobs.json` snapshot log (compaction keeps
    /// this bounded).
    pub fn log_bytes(&self) -> u64 {
        self.log.len_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_comm::job::JobSpec;

    fn spec(label: &str) -> JobSpec {
        JobSpec {
            phylip: " 4 4\na ACGT\nb ACGA\nc AGGT\nd ACTT\n".into(),
            config_json: "{}".into(),
            jumbles: 2,
            base_seed: 1,
            max_ranks: 0,
            max_wall_ms: 0,
            label: label.into(),
        }
    }

    #[test]
    fn ids_are_stable_across_reopen() {
        let dir = std::env::temp_dir().join(format!("fdml-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut reg = Registry::open(&dir).unwrap();
            assert_eq!(reg.admit(spec("a")).unwrap(), 1);
            assert_eq!(reg.admit(spec("b")).unwrap(), 2);
            reg.set_state(2, JobState::Running).unwrap();
        }
        {
            let mut reg = Registry::open(&dir).unwrap();
            assert_eq!(reg.jobs().count(), 2);
            assert_eq!(reg.get(2).unwrap().state, JobState::Running);
            assert_eq!(reg.get(1).unwrap().spec.label, "a");
            // The next id continues where the dead daemon stopped.
            assert_eq!(reg.admit(spec("c")).unwrap(), 3);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_jobs_json_recovers_to_last_valid_snapshot() {
        let dir = std::env::temp_dir().join(format!("fdml-reg-t-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut reg = Registry::open(&dir).unwrap();
            reg.admit(spec("a")).unwrap();
            reg.admit(spec("b")).unwrap();
            reg.set_state(2, JobState::Running).unwrap();
        }
        // Tear the snapshot log mid-record, as a crash during save would.
        let path = dir.join("jobs.json");
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 10]).unwrap();
        // Startup succeeds on the previous snapshot and warns, naming the
        // file and byte offset.
        let mem = fdml_obs::MemorySink::new();
        let obs = fdml_obs::Obs::new(Box::new(mem.clone()));
        let reg = Registry::open_observed(&dir, &obs).unwrap();
        assert_eq!(reg.jobs().count(), 2);
        // The torn record was the Running transition: rolled back.
        assert_eq!(reg.get(2).unwrap().state, JobState::Queued);
        let records = mem.take();
        let warn = records
            .iter()
            .find_map(|r| match &r.event {
                fdml_obs::Event::DurableRecovered {
                    path: p,
                    valid_bytes,
                    dropped_bytes,
                } => Some((p.clone(), *valid_bytes, *dropped_bytes)),
                _ => None,
            })
            .expect("expected a DurableRecovered warning");
        assert!(warn.0.ends_with("jobs.json"));
        assert!(warn.1 > 0 && warn.2 > 0);
        // The next save appends cleanly past the truncation point.
        let mut reg = Registry::open(&dir).unwrap();
        reg.set_state(2, JobState::Running).unwrap();
        let reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.get(2).unwrap().state, JobState::Running);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_plain_json_registry_is_migrated() {
        let dir = std::env::temp_dir().join(format!("fdml-reg-l-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A pre-framed-format daemon wrote plain JSON.
        let legacy = serde_json::to_string_pretty(&PersistedRegistry {
            next_id: 5,
            jobs: vec![JobEntry {
                id: 4,
                spec: spec("old"),
                state: JobState::Done,
                failure: None,
            }],
        })
        .unwrap();
        std::fs::write(dir.join("jobs.json"), &legacy).unwrap();
        let mut reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.get(4).unwrap().spec.label, "old");
        assert_eq!(reg.admit(spec("new")).unwrap(), 5);
        // The file is now a framed log and keeps round-tripping.
        let raw = std::fs::read(dir.join("jobs.json")).unwrap();
        assert!(raw.starts_with(fdml_core::durable::LOG_MAGIC));
        let reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.jobs().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_queued_job_from_a_build_with_intra_threads_is_revived() {
        // Builds that had intra-rank threads stored `"intra_threads"` in
        // every spec; a daemon restarted on this build reads the rest.
        let dir = std::env::temp_dir().join(format!("fdml-reg-i-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old = r#"{"next_id": 3, "jobs": [{"id": 2, "spec": {
            "phylip": " 4 4\na ACGT\nb ACGA\nc AGGT\nd ACTT\n", "config_json": "{}",
            "jumbles": 2, "base_seed": 1, "max_ranks": 0, "max_wall_ms": 0,
            "intra_threads": 4, "label": "queued"}, "state": "Queued", "failure": null}]}"#;
        durable::write_log_atomic(&dir.join("jobs.json"), &[old.as_bytes()]).unwrap();
        let mut reg = Registry::open(&dir).unwrap();
        let entry = reg.get(2).expect("the queued job survives the upgrade");
        assert_eq!(entry.state, JobState::Queued);
        assert_eq!(entry.spec, spec("queued"));
        assert_eq!(reg.admit(spec("next")).unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsalvageable_registry_warns_and_starts_empty() {
        let dir = std::env::temp_dir().join(format!("fdml-reg-u-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("jobs.json"), "{\"next_id\": 3, \"jo").unwrap();
        let mem = fdml_obs::MemorySink::new();
        let obs = fdml_obs::Obs::new(Box::new(mem.clone()));
        let reg = Registry::open_observed(&dir, &obs).unwrap();
        assert_eq!(reg.jobs().count(), 0);
        assert!(mem
            .take()
            .iter()
            .any(|r| matches!(&r.event, fdml_obs::Event::DurableRecovered { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_log_compacts_and_stays_bounded() {
        let dir = std::env::temp_dir().join(format!("fdml-reg-c-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut reg = Registry::open(&dir).unwrap();
        let id = reg.admit(spec("churn")).unwrap();
        // Enough transitions to force several compactions.
        let mut max_bytes = 0u64;
        for i in 0..(3 * COMPACT_AT) {
            let state = if i % 2 == 0 {
                JobState::Running
            } else {
                JobState::Queued
            };
            reg.set_state(id, state).unwrap();
            max_bytes = max_bytes.max(reg.log_bytes());
        }
        // The log never exceeds COMPACT_AT-and-change snapshots' worth.
        let one_snapshot = {
            let raw = std::fs::read(dir.join("jobs.json")).unwrap();
            fdml_core::durable::validate_log_bytes(&raw);
            reg.log_bytes() / reg.snapshots_in_log.max(1)
        };
        assert!(
            max_bytes < one_snapshot * (COMPACT_AT + 4),
            "log grew unbounded: {max_bytes} bytes"
        );
        // And the latest state survives compaction.
        let reg2 = Registry::open(&dir).unwrap();
        assert_eq!(reg2.get(id).unwrap().state, reg.get(id).unwrap().state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_reason_is_persisted() {
        let dir = std::env::temp_dir().join(format!("fdml-reg-f-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut reg = Registry::open(&dir).unwrap();
            let id = reg.admit(spec("f")).unwrap();
            reg.set_failed(id, "wall-time quota exhausted".into())
                .unwrap();
        }
        let reg = Registry::open(&dir).unwrap();
        let status = reg.status(1, 0, 1).unwrap();
        assert_eq!(status.state, JobState::Failed);
        assert_eq!(status.failure.as_deref(), Some("wall-time quota exhausted"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
