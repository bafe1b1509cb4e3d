//! The crash-consistent storage layer shared by every coordinator-side
//! persistence path: farm manifests, the serve registry, and the
//! write-ahead round log. Two primitives, and no other write-then-rename
//! snippet anywhere, so every acknowledged state is fsynced and every
//! half-written file reads back as its last valid version:
//!
//! * [`atomic_write`] — the full durable-replace sequence: write a
//!   temporary sibling, `fsync` it, rename it over the target, `fsync`
//!   the containing directory. After it returns, the new contents survive
//!   power loss; if the process dies at any interior step, the target
//!   still holds the complete previous version.
//! * [`LogWriter`] / [`read_log`] — an append-only log of CRC32-framed,
//!   length-prefixed records behind an 8-byte magic header, `fdatasync`ed
//!   per append. The reader validates record by record and truncates to
//!   the last valid one (the ZooKeeper recovery policy): a torn tail is
//!   dropped, never parsed.
//!
//! Every filesystem step consults `fdml_chaos::storage`, so the chaos
//! suite can tear writes, inject `EIO`/`ENOSPC`, and kill the "process"
//! between any two steps, then assert that recovery sees either the old
//! or the new state — never a hybrid.

use fdml_chaos::storage::{self, StorageFault, StorageOp};
use fdml_wire::checksum::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic header opening every framed log file.
pub const LOG_MAGIC: &[u8; 8] = b"FDMLLOG1";

/// Per-record framing overhead: `[len: u32 LE][crc32: u32 LE]`.
pub const RECORD_HEADER_BYTES: u64 = 8;

/// Largest record the reader will accept. Records are rounds or job
/// snapshots — a few KiB; anything larger is corruption.
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

fn fault_error(fault: StorageFault, op: StorageOp, path: &Path) -> io::Error {
    io::Error::other(format!(
        "chaos: injected {:?} at {} of {}",
        fault,
        op.name(),
        path.display()
    ))
}

/// Write `bytes` honouring the installed storage-fault plan. A `Short`
/// fault splits the write (exercising the caller-side retry the kernel
/// contract requires); a `Torn` fault writes a prefix and dies.
fn faulted_write(file: &mut File, bytes: &[u8], op: StorageOp, path: &Path) -> io::Result<()> {
    match storage::decide(op) {
        StorageFault::None => file.write_all(bytes),
        StorageFault::Short => {
            let mid = bytes.len() / 2;
            file.write_all(&bytes[..mid])?;
            file.write_all(&bytes[mid..])
        }
        StorageFault::Torn => {
            let torn = bytes.len() / 2;
            file.write_all(&bytes[..torn])?;
            file.flush()?;
            Err(fault_error(StorageFault::Torn, op, path))
        }
        fault @ (StorageFault::Eio | StorageFault::Enospc | StorageFault::Crash) => {
            Err(fault_error(fault, op, path))
        }
    }
}

/// Run one non-write step (sync, rename) under the fault plan.
fn faulted_step<T>(
    op: StorageOp,
    path: &Path,
    step: impl FnOnce() -> io::Result<T>,
) -> io::Result<T> {
    match storage::decide(op) {
        StorageFault::None | StorageFault::Short => step(),
        fault => Err(fault_error(fault, op, path)),
    }
}

/// `fsync` the directory containing `path`, making a rename into it
/// durable. Directory fds are a POSIX-ism; on platforms where opening a
/// directory fails, the rename is already the best available guarantee.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    match File::open(parent) {
        Ok(dir) => dir.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Atomically replace the contents of `path` with `bytes` and make the
/// replacement durable: temp sibling → `fsync` file → rename → `fsync`
/// directory. Readers concurrently opening `path` see either the old or
/// the new complete contents, and once this returns the new contents
/// survive a crash.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_sibling(path);
    let result = atomic_write_inner(path, &tmp, bytes);
    if result.is_err() {
        // Best-effort cleanup; a leftover temp is harmless but untidy.
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn atomic_write_inner(path: &Path, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(tmp)?;
    faulted_write(&mut file, bytes, StorageOp::TempWrite, path)?;
    faulted_step(StorageOp::SyncFile, path, || file.sync_all())?;
    drop(file);
    faulted_step(StorageOp::Rename, path, || fs::rename(tmp, path))?;
    faulted_step(StorageOp::SyncDir, path, || sync_parent_dir(path))
}

/// What [`read_log`] salvaged from a log file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredLog {
    /// The validated record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// File offset just past the last valid record (where appends resume).
    pub valid_bytes: u64,
    /// Bytes past `valid_bytes` that failed validation and were dropped —
    /// nonzero exactly when the tail was torn or corrupt.
    pub dropped_bytes: u64,
}

/// Read and validate a framed log. Returns `Ok(None)` when the file does
/// not exist. A file too short for the magic, or with the wrong magic, is
/// treated as entirely invalid (`valid_bytes == 0`); a bad record header
/// or CRC stops validation there, dropping the tail.
pub fn read_log(path: &Path) -> io::Result<Option<RecoveredLog>> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    Ok(Some(validate_log_bytes(&raw)))
}

/// The validation core, shared by the reader and the tests: walk the
/// record frames, stop at the first invalid one.
pub fn validate_log_bytes(raw: &[u8]) -> RecoveredLog {
    if raw.len() < LOG_MAGIC.len() || &raw[..LOG_MAGIC.len()] != LOG_MAGIC {
        return RecoveredLog {
            records: Vec::new(),
            valid_bytes: 0,
            dropped_bytes: raw.len() as u64,
        };
    }
    let mut records = Vec::new();
    let mut offset = LOG_MAGIC.len();
    loop {
        let remaining = raw.len() - offset;
        if remaining < RECORD_HEADER_BYTES as usize {
            break;
        }
        let len = u32::from_le_bytes(raw[offset..offset + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(raw[offset + 4..offset + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            break;
        }
        let body_start = offset + RECORD_HEADER_BYTES as usize;
        let body_end = body_start + len as usize;
        if body_end > raw.len() {
            break;
        }
        let body = &raw[body_start..body_end];
        if crc32(body) != crc {
            break;
        }
        records.push(body.to_vec());
        offset = body_end;
    }
    RecoveredLog {
        records,
        valid_bytes: offset as u64,
        dropped_bytes: (raw.len() - offset) as u64,
    }
}

/// Serialize `records` into the framed log format (magic + one frame per
/// record) without touching disk.
pub fn encode_log(records: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        LOG_MAGIC.len()
            + records
                .iter()
                .map(|r| r.len() + RECORD_HEADER_BYTES as usize)
                .sum::<usize>(),
    );
    out.extend_from_slice(LOG_MAGIC);
    for payload in records {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Atomically replace a framed log with exactly `records` — the
/// compaction primitive: readers concurrently opening the path see either
/// the old log or the compacted one, never a partial rewrite.
pub fn write_log_atomic(path: &Path, records: &[&[u8]]) -> io::Result<()> {
    atomic_write(path, &encode_log(records))
}

/// Appender for a framed log: one durable CRC32-framed record per
/// [`append`](LogWriter::append) call.
#[derive(Debug)]
pub struct LogWriter {
    file: File,
    path: PathBuf,
}

impl LogWriter {
    /// Create a fresh log at `path` (truncating any previous file) and
    /// durably write the magic header.
    pub fn create(path: &Path) -> io::Result<LogWriter> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut file = File::create(path)?;
        faulted_write(&mut file, LOG_MAGIC, StorageOp::Append, path)?;
        faulted_step(StorageOp::SyncAppend, path, || file.sync_data())?;
        faulted_step(StorageOp::SyncDir, path, || sync_parent_dir(path))?;
        Ok(LogWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Open `path` for appending, first validating the existing contents
    /// and truncating any torn tail. Creates the log if missing. Returns
    /// the writer plus what was recovered.
    pub fn resume(path: &Path) -> io::Result<(LogWriter, RecoveredLog)> {
        let recovered = match read_log(path)? {
            Some(r) => r,
            None => {
                let writer = LogWriter::create(path)?;
                return Ok((writer, RecoveredLog::default()));
            }
        };
        if recovered.valid_bytes == 0 {
            // Magic missing or corrupt: the file is unreadable as a log;
            // start over (the recovered struct reports the dropped bytes).
            let writer = LogWriter::create(path)?;
            return Ok((writer, recovered));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if recovered.dropped_bytes > 0 {
            file.set_len(recovered.valid_bytes)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            LogWriter {
                file,
                path: path.to_path_buf(),
            },
            recovered,
        ))
    }

    /// Append one record and `fdatasync` it. Returns the total framed
    /// bytes written (header + payload). On error the on-disk tail may be
    /// torn — exactly what [`read_log`] recovery handles.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let mut frame = Vec::with_capacity(payload.len() + RECORD_HEADER_BYTES as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        faulted_write(&mut self.file, &frame, StorageOp::Append, &self.path)?;
        faulted_step(StorageOp::SyncAppend, &self.path, || self.file.sync_data())?;
        Ok(frame.len() as u64)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_chaos::storage::StoragePlan;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fdml-durable-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_and_survives_reread() {
        let dir = scratch_dir("aw");
        let path = dir.join("state.json");
        atomic_write(&path, b"v1").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v1");
        atomic_write(&path, b"version-two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"version-two");
        // No temp litter after success.
        assert!(!temp_sibling(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_rename_preserves_old_contents() {
        let dir = scratch_dir("aw-crash");
        let path = dir.join("state.json");
        atomic_write(&path, b"old").unwrap();
        // Ops: TempWrite(0), SyncFile(1), Rename(2) — die just before rename.
        storage::install(StoragePlan::quiet(7).crash_at(2));
        assert!(atomic_write(&path, b"new").is_err());
        storage::clear();
        assert_eq!(fs::read(&path).unwrap(), b"old");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_temp_write_never_corrupts_target() {
        let dir = scratch_dir("aw-torn");
        let path = dir.join("state.json");
        atomic_write(&path, b"intact").unwrap();
        storage::install(StoragePlan::quiet(5).torn(1000));
        assert!(atomic_write(&path, b"replacement-payload").is_err());
        storage::clear();
        assert_eq!(fs::read(&path).unwrap(), b"intact");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_roundtrips_records() {
        let dir = scratch_dir("log");
        let path = dir.join("rounds.wal");
        let mut w = LogWriter::create(&path).unwrap();
        w.append(b"alpha").unwrap();
        w.append(b"").unwrap();
        w.append(b"gamma-rays").unwrap();
        drop(w);
        let got = read_log(&path).unwrap().unwrap();
        assert_eq!(
            got.records,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma-rays".to_vec()]
        );
        assert_eq!(got.dropped_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_resume_and_append_continues() {
        let dir = scratch_dir("log-torn");
        let path = dir.join("rounds.wal");
        let mut w = LogWriter::create(&path).unwrap();
        w.append(b"one").unwrap();
        w.append(b"two").unwrap();
        drop(w);
        // Tear the file mid-record, as a crash during append would.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 2]).unwrap();
        let (mut w, recovered) = LogWriter::resume(&path).unwrap();
        assert_eq!(recovered.records, vec![b"one".to_vec()]);
        assert!(recovered.dropped_bytes > 0);
        w.append(b"three").unwrap();
        drop(w);
        let got = read_log(&path).unwrap().unwrap();
        assert_eq!(got.records, vec![b"one".to_vec(), b"three".to_vec()]);
        assert_eq!(got.dropped_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_drops_that_record_and_the_rest() {
        let dir = scratch_dir("log-crc");
        let path = dir.join("rounds.wal");
        let mut w = LogWriter::create(&path).unwrap();
        w.append(b"good").unwrap();
        let second_at = fs::metadata(&path).unwrap().len();
        w.append(b"badly-stored").unwrap();
        w.append(b"unreachable").unwrap();
        drop(w);
        let mut raw = fs::read(&path).unwrap();
        // Flip one payload byte of the second record.
        raw[second_at as usize + RECORD_HEADER_BYTES as usize] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        let got = read_log(&path).unwrap().unwrap();
        assert_eq!(got.records, vec![b"good".to_vec()]);
        assert!(got.dropped_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_reads_as_fully_invalid() {
        let dir = scratch_dir("log-magic");
        let path = dir.join("rounds.wal");
        fs::write(&path, b"NOTALOG!rest").unwrap();
        let got = read_log(&path).unwrap().unwrap();
        assert!(got.records.is_empty());
        assert_eq!(got.valid_bytes, 0);
        assert_eq!(got.dropped_bytes, 12);
        // Resume starts the log over.
        let (mut w, _) = LogWriter::resume(&path).unwrap();
        w.append(b"fresh").unwrap();
        drop(w);
        let got = read_log(&path).unwrap().unwrap();
        assert_eq!(got.records, vec![b"fresh".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_log_reads_as_none() {
        let dir = scratch_dir("log-none");
        assert!(read_log(&dir.join("absent.wal")).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_append_crash_point_recovers_a_prefix() {
        // Drive appends through every chaos crash-point; after each
        // simulated death the log must recover to an exact record prefix.
        let payloads: Vec<Vec<u8>> = (0..6u8)
            .map(|i| format!("record-{i}-{}", "x".repeat(i as usize * 7)).into_bytes())
            .collect();
        // A fault-free run to learn the op count.
        let dir = scratch_dir("log-matrix");
        storage::install(StoragePlan::quiet(0));
        let path = dir.join("clean.wal");
        let mut w = LogWriter::create(&path).unwrap();
        for p in &payloads {
            w.append(p).unwrap();
        }
        drop(w);
        let total_ops = storage::clear().ops;
        for crash_op in 0..total_ops {
            let path = dir.join(format!("crash-{crash_op}.wal"));
            storage::install(StoragePlan::quiet(0).crash_at(crash_op));
            let mut wrote = 0usize;
            if let Ok(mut w) = LogWriter::create(&path) {
                for p in &payloads {
                    if w.append(p).is_err() {
                        break;
                    }
                    wrote += 1;
                }
            }
            storage::clear();
            let (mut w, recovered) = LogWriter::resume(&path).unwrap();
            assert!(
                recovered.records.len() >= wrote,
                "crash at op {crash_op}: synced records lost ({} < {wrote})",
                recovered.records.len()
            );
            assert_eq!(
                recovered.records,
                payloads[..recovered.records.len()].to_vec(),
                "crash at op {crash_op}: recovered records are not a prefix"
            );
            // The recovered log accepts further appends.
            w.append(b"post-recovery").unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_errors_leave_log_appendable() {
        let dir = scratch_dir("log-transient");
        let path = dir.join("rounds.wal");
        let mut w = LogWriter::create(&path).unwrap();
        storage::install(StoragePlan {
            eio_per_mille: 300,
            enospc_per_mille: 300,
            short_per_mille: 200,
            ..StoragePlan::quiet(42)
        });
        let mut ok = 0;
        for i in 0..40u32 {
            if w.append(format!("r{i}").as_bytes()).is_ok() {
                ok += 1;
            }
        }
        let stats = storage::clear();
        assert!(stats.errors > 0, "plan injected no errors");
        assert!(ok > 0, "every append failed");
        drop(w);
        // Everything that reported success — and possibly a torn tail from
        // the failures — must validate to at least `ok` records... the log
        // may hold MORE than `ok` if an append wrote fully but failed at
        // sync. All validated records must be well-formed.
        let got = read_log(&path).unwrap().unwrap();
        assert!(got.records.len() >= ok);
        for r in &got.records {
            assert!(r.starts_with(b"r"));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
