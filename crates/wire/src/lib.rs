//! `fdml-wire` — the compact binary codec for the runtime's messages.
//!
//! The seed wire format is one JSON document per message: self-describing
//! and easy to debug, but a ~50 B [`TreeEdit`](fdml_comm::TreeEdit) task
//! costs well over 100 bytes of field names and quoting, and at thousands
//! of ranks the master's NIC serializes on that overhead (the paper's §3.2
//! dispatch wall, moved from the CPU to the wire). This crate defines the
//! binary alternative:
//!
//! * body = `0xFD` magic, format version byte, variant tag byte, fields;
//! * integers are LEB128 varints, floats are exact IEEE-754 bit patterns,
//!   strings are length-prefixed UTF-8 ([`varint`]);
//! * the first body byte distinguishes codecs (`0xFD` vs JSON's `{`), so
//!   readers sniff per body and binary/JSON peers interoperate during a
//!   rollout with no flag-day.
//!
//! Framing — length prefix and CRC32 — is unchanged and stays in
//! `fdml-net`; this crate only defines what goes inside a frame, and
//! holds the [`checksum`] that framing and the on-disk log share.
//!
//! The layout is pinned by a golden-bytes fixture test: changing any tag
//! or field order must bump [`BINARY_VERSION`] and fail that test first.

#![warn(missing_docs)]

pub mod checksum;
pub mod varint;

use fdml_comm::codec::{CodecError, JsonCodec, MessageCodec};
use fdml_comm::message::{EditScore, Message, MonitorEvent, TaskPayload, TreeEdit};
use varint::Reader;

/// First byte of every binary body. Deliberately not valid leading UTF-8
/// for a JSON document, so codec sniffing is unambiguous.
pub const MAGIC: u8 = 0xFD;

/// Version of the binary layout (tags, field order, primitive encodings).
/// Bump on any incompatible change; decoders reject other versions.
pub const BINARY_VERSION: u8 = 1;

/// A malformed binary body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before a field did.
    Truncated,
    /// The first byte was neither the binary magic nor expected.
    BadMagic(u8),
    /// The version byte names a layout this build does not speak.
    BadVersion(u8),
    /// An enum tag (named by the first field) had no meaning.
    BadTag(&'static str, u64),
    /// A varint did not fit its destination integer.
    VarintOverflow,
    /// A string field was not UTF-8.
    BadUtf8,
    /// Decoding finished with bytes left over.
    Trailing(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "body truncated mid-field"),
            WireError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02X}"),
            WireError::BadVersion(v) => write!(f, "unsupported binary version {v}"),
            WireError::BadTag(what, tag) => write!(f, "unknown {what} tag {tag}"),
            WireError::VarintOverflow => write!(f, "varint overflows its field"),
            WireError::BadUtf8 => write!(f, "string field is not utf-8"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::Decode(e.to_string())
    }
}

// Variant tags. Append-only: new variants take the next free tag; existing
// tags are frozen by the golden-bytes test.
mod tag {
    pub const PROBLEM_DATA: u8 = 0;
    pub const WORKER_READY: u8 = 1;
    pub const TREE_TASK: u8 = 2;
    pub const TREE_RESULT: u8 = 3;
    pub const JUMBLE_TASK: u8 = 4;
    pub const JUMBLE_RESULT: u8 = 5;
    pub const MONITOR: u8 = 6;
    pub const PEER_DOWN: u8 = 7;
    pub const PEER_UP: u8 = 8;
    pub const QUARANTINED: u8 = 9;
    pub const ABORT: u8 = 10;
    pub const JOB_DATA: u8 = 11;
    pub const JOB_TASK: u8 = 12;
    pub const JOB_TASK_RESULT: u8 = 13;
    pub const JOB_RETIRE: u8 = 14;
    pub const BASE_TOPOLOGY: u8 = 15;
    pub const TREE_EDIT_TASK: u8 = 16;
    pub const PING: u8 = 17;
    pub const SHUTDOWN: u8 = 18;
    // 19-23 are retired, never to be reused: the batch frame, lease
    // request, steal request, steal return and re-home messages of the
    // hierarchical foreman tree. A body carrying one decodes to `BadTag`.
    pub const WAL_ROUND: u8 = 24;
    // 25 is retired too: a resumed jumble without its prefix's numerics
    // epoch. Tag 28 carries the epoch.
    pub const EDIT_CHUNK: u8 = 26;
    pub const EDIT_SCORES: u8 = 27;
    pub const JUMBLE_RESUME: u8 = 28;

    pub const MON_DISPATCHED: u8 = 0;
    pub const MON_COMPLETED: u8 = 1;
    pub const MON_TIMED_OUT: u8 = 2;
    pub const MON_RECOVERED: u8 = 3;
    pub const MON_ROUND_COMPLETE: u8 = 4;

    pub const PAYLOAD_TREE: u8 = 0;
    pub const PAYLOAD_JUMBLE: u8 = 1;
    /// Decode-only: one uncounted edit. Chunks are written under tag 3.
    pub const PAYLOAD_TREE_EDIT: u8 = 2;
    pub const PAYLOAD_EDIT_CHUNK: u8 = 3;

    pub const EDIT_INSERT: u8 = 0;
    pub const EDIT_REGRAFT: u8 = 1;
}

fn put_edit(buf: &mut Vec<u8>, edit: &TreeEdit) {
    match *edit {
        TreeEdit::Insert { taxon, a, b } => {
            buf.push(tag::EDIT_INSERT);
            varint::put_u32(buf, taxon);
            varint::put_u32(buf, a);
            varint::put_u32(buf, b);
        }
        TreeEdit::Regraft {
            root,
            attachment,
            a,
            b,
        } => {
            buf.push(tag::EDIT_REGRAFT);
            varint::put_u32(buf, root);
            varint::put_u32(buf, attachment);
            varint::put_u32(buf, a);
            varint::put_u32(buf, b);
        }
    }
}

fn get_edit(r: &mut Reader<'_>) -> Result<TreeEdit, WireError> {
    match r.u8()? {
        tag::EDIT_INSERT => Ok(TreeEdit::Insert {
            taxon: r.u32()?,
            a: r.u32()?,
            b: r.u32()?,
        }),
        tag::EDIT_REGRAFT => Ok(TreeEdit::Regraft {
            root: r.u32()?,
            attachment: r.u32()?,
            a: r.u32()?,
            b: r.u32()?,
        }),
        t => Err(WireError::BadTag("tree-edit", u64::from(t))),
    }
}

fn put_edits(buf: &mut Vec<u8>, edits: &[TreeEdit]) {
    varint::put_usize(buf, edits.len());
    for edit in edits {
        put_edit(buf, edit);
    }
}

fn get_edits(r: &mut Reader<'_>) -> Result<Vec<TreeEdit>, WireError> {
    let n = r.usize()?;
    // Every edit is at least a tag byte and three ids; reject counts the
    // remaining bytes cannot possibly satisfy before allocating.
    if n > r.remaining() / 4 {
        return Err(WireError::Truncated);
    }
    let mut edits = Vec::with_capacity(n);
    for _ in 0..n {
        edits.push(get_edit(r)?);
    }
    Ok(edits)
}

fn put_payload(buf: &mut Vec<u8>, payload: &TaskPayload) {
    match payload {
        TaskPayload::Tree { newick } => {
            buf.push(tag::PAYLOAD_TREE);
            varint::put_str(buf, newick);
        }
        TaskPayload::Jumble { seed } => {
            buf.push(tag::PAYLOAD_JUMBLE);
            varint::put_u64(buf, *seed);
        }
        TaskPayload::TreeEdit { base_id, edits } => {
            buf.push(tag::PAYLOAD_EDIT_CHUNK);
            varint::put_u64(buf, *base_id);
            put_edits(buf, edits);
        }
    }
}

fn get_payload(r: &mut Reader<'_>) -> Result<TaskPayload, WireError> {
    match r.u8()? {
        tag::PAYLOAD_TREE => Ok(TaskPayload::Tree { newick: r.str()? }),
        tag::PAYLOAD_JUMBLE => Ok(TaskPayload::Jumble { seed: r.u64()? }),
        // Decode-only: the uncounted one-edit layout older builds wrote.
        // Nothing encodes it; it goes with `TreeEditTask` (ROADMAP 1g).
        tag::PAYLOAD_TREE_EDIT => Ok(TaskPayload::TreeEdit {
            base_id: r.u64()?,
            edits: vec![get_edit(r)?],
        }),
        tag::PAYLOAD_EDIT_CHUNK => Ok(TaskPayload::TreeEdit {
            base_id: r.u64()?,
            edits: get_edits(r)?,
        }),
        t => Err(WireError::BadTag("task-payload", u64::from(t))),
    }
}

fn put_monitor(buf: &mut Vec<u8>, ev: &MonitorEvent) {
    match ev {
        MonitorEvent::Dispatched { task, worker } => {
            buf.push(tag::MON_DISPATCHED);
            varint::put_u64(buf, *task);
            varint::put_usize(buf, *worker);
        }
        MonitorEvent::Completed {
            task,
            worker,
            ln_likelihood,
            work_units,
            service_us,
        } => {
            buf.push(tag::MON_COMPLETED);
            varint::put_u64(buf, *task);
            varint::put_usize(buf, *worker);
            varint::put_f64(buf, *ln_likelihood);
            varint::put_u64(buf, *work_units);
            varint::put_u64(buf, *service_us);
        }
        MonitorEvent::WorkerTimedOut { worker, task } => {
            buf.push(tag::MON_TIMED_OUT);
            varint::put_usize(buf, *worker);
            varint::put_u64(buf, *task);
        }
        MonitorEvent::WorkerRecovered { worker } => {
            buf.push(tag::MON_RECOVERED);
            varint::put_usize(buf, *worker);
        }
        MonitorEvent::RoundComplete {
            round,
            candidates,
            best_ln_likelihood,
            best_newick,
        } => {
            buf.push(tag::MON_ROUND_COMPLETE);
            varint::put_u64(buf, *round);
            varint::put_usize(buf, *candidates);
            varint::put_f64(buf, *best_ln_likelihood);
            varint::put_str(buf, best_newick);
        }
    }
}

fn get_monitor(r: &mut Reader<'_>) -> Result<MonitorEvent, WireError> {
    match r.u8()? {
        tag::MON_DISPATCHED => Ok(MonitorEvent::Dispatched {
            task: r.u64()?,
            worker: r.usize()?,
        }),
        tag::MON_COMPLETED => Ok(MonitorEvent::Completed {
            task: r.u64()?,
            worker: r.usize()?,
            ln_likelihood: r.f64()?,
            work_units: r.u64()?,
            service_us: r.u64()?,
        }),
        tag::MON_TIMED_OUT => Ok(MonitorEvent::WorkerTimedOut {
            worker: r.usize()?,
            task: r.u64()?,
        }),
        tag::MON_RECOVERED => Ok(MonitorEvent::WorkerRecovered { worker: r.usize()? }),
        tag::MON_ROUND_COMPLETE => Ok(MonitorEvent::RoundComplete {
            round: r.u64()?,
            candidates: r.usize()?,
            best_ln_likelihood: r.f64()?,
            best_newick: r.str()?,
        }),
        t => Err(WireError::BadTag("monitor-event", u64::from(t))),
    }
}

/// Append one message body — variant tag, then fields — without the
/// magic/version header.
pub fn encode_body(msg: &Message, buf: &mut Vec<u8>) {
    match msg {
        Message::ProblemData {
            phylip,
            config_json,
        } => {
            buf.push(tag::PROBLEM_DATA);
            varint::put_str(buf, phylip);
            varint::put_str(buf, config_json);
        }
        Message::WorkerReady => buf.push(tag::WORKER_READY),
        Message::TreeTask { task, newick } => {
            buf.push(tag::TREE_TASK);
            varint::put_u64(buf, *task);
            varint::put_str(buf, newick);
        }
        Message::TreeResult {
            task,
            newick,
            ln_likelihood,
            work_units,
        } => {
            buf.push(tag::TREE_RESULT);
            varint::put_u64(buf, *task);
            varint::put_str(buf, newick);
            varint::put_f64(buf, *ln_likelihood);
            varint::put_u64(buf, *work_units);
        }
        Message::JumbleTask { task, seed } => {
            buf.push(tag::JUMBLE_TASK);
            varint::put_u64(buf, *task);
            varint::put_u64(buf, *seed);
        }
        Message::JumbleResult {
            task,
            seed,
            newick,
            ln_likelihood,
            rounds,
            candidates,
            work_units,
        } => {
            buf.push(tag::JUMBLE_RESULT);
            varint::put_u64(buf, *task);
            varint::put_u64(buf, *seed);
            varint::put_str(buf, newick);
            varint::put_f64(buf, *ln_likelihood);
            varint::put_u64(buf, *rounds);
            varint::put_u64(buf, *candidates);
            varint::put_u64(buf, *work_units);
        }
        Message::Monitor(ev) => {
            buf.push(tag::MONITOR);
            put_monitor(buf, ev);
        }
        Message::PeerDown { rank } => {
            buf.push(tag::PEER_DOWN);
            varint::put_usize(buf, *rank);
        }
        Message::PeerUp { rank } => {
            buf.push(tag::PEER_UP);
            varint::put_usize(buf, *rank);
        }
        Message::Quarantined {
            task,
            failures,
            payload,
        } => {
            buf.push(tag::QUARANTINED);
            varint::put_u64(buf, *task);
            varint::put_u64(buf, *failures);
            put_payload(buf, payload);
        }
        Message::Abort { reason } => {
            buf.push(tag::ABORT);
            varint::put_str(buf, reason);
        }
        Message::JobData {
            job,
            phylip,
            config_json,
        } => {
            buf.push(tag::JOB_DATA);
            varint::put_u64(buf, *job);
            varint::put_str(buf, phylip);
            varint::put_str(buf, config_json);
        }
        Message::JobTask { job, task, seed } => {
            buf.push(tag::JOB_TASK);
            varint::put_u64(buf, *job);
            varint::put_u64(buf, *task);
            varint::put_u64(buf, *seed);
        }
        Message::JobTaskResult {
            job,
            task,
            seed,
            newick,
            ln_likelihood,
            work_units,
        } => {
            buf.push(tag::JOB_TASK_RESULT);
            varint::put_u64(buf, *job);
            varint::put_u64(buf, *task);
            varint::put_u64(buf, *seed);
            varint::put_str(buf, newick);
            varint::put_f64(buf, *ln_likelihood);
            varint::put_u64(buf, *work_units);
        }
        Message::JobRetire { job } => {
            buf.push(tag::JOB_RETIRE);
            varint::put_u64(buf, *job);
        }
        Message::BaseTopology { base_id, newick } => {
            buf.push(tag::BASE_TOPOLOGY);
            varint::put_u64(buf, *base_id);
            varint::put_str(buf, newick);
        }
        // Retired: nothing in the runtime sends it. The arm (and its decode
        // twin) stays for `benchmark/src/probes.rs:249`, which round-trips
        // this variant — see `Message::TreeEditTask`.
        Message::TreeEditTask {
            task,
            base_id,
            edit,
            base_newick,
        } => {
            buf.push(tag::TREE_EDIT_TASK);
            varint::put_u64(buf, *task);
            varint::put_u64(buf, *base_id);
            put_edit(buf, edit);
            varint::put_opt_str(buf, base_newick.as_deref());
        }
        Message::EditChunk {
            task,
            base_id,
            edits,
            base_newick,
        } => {
            buf.push(tag::EDIT_CHUNK);
            varint::put_u64(buf, *task);
            varint::put_u64(buf, *base_id);
            put_edits(buf, edits);
            varint::put_opt_str(buf, base_newick.as_deref());
        }
        Message::EditScores { task, scores } => {
            buf.push(tag::EDIT_SCORES);
            varint::put_u64(buf, *task);
            varint::put_usize(buf, scores.len());
            for score in scores {
                varint::put_f64(buf, score.ln_likelihood);
                varint::put_u64(buf, score.work_units);
            }
        }
        Message::Ping => buf.push(tag::PING),
        Message::Shutdown => buf.push(tag::SHUTDOWN),
        Message::WalRound {
            job,
            seed,
            index,
            entry,
        } => {
            buf.push(tag::WAL_ROUND);
            varint::put_u64(buf, *job);
            varint::put_u64(buf, *seed);
            varint::put_u64(buf, *index);
            varint::put_str(buf, entry);
        }
        Message::JumbleResume {
            job,
            task,
            seed,
            numerics,
            wal,
        } => {
            buf.push(tag::JUMBLE_RESUME);
            varint::put_u64(buf, *job);
            varint::put_u64(buf, *task);
            varint::put_u64(buf, *seed);
            varint::put_u32(buf, *numerics);
            varint::put_usize(buf, wal.len());
            for entry in wal {
                varint::put_str(buf, entry);
            }
        }
    }
}

/// Decode one message body (no magic/version header) from a reader.
pub fn decode_body(r: &mut Reader<'_>) -> Result<Message, WireError> {
    match r.u8()? {
        tag::PROBLEM_DATA => Ok(Message::ProblemData {
            phylip: r.str()?,
            config_json: r.str()?,
        }),
        tag::WORKER_READY => Ok(Message::WorkerReady),
        tag::TREE_TASK => Ok(Message::TreeTask {
            task: r.u64()?,
            newick: r.str()?,
        }),
        tag::TREE_RESULT => Ok(Message::TreeResult {
            task: r.u64()?,
            newick: r.str()?,
            ln_likelihood: r.f64()?,
            work_units: r.u64()?,
        }),
        tag::JUMBLE_TASK => Ok(Message::JumbleTask {
            task: r.u64()?,
            seed: r.u64()?,
        }),
        tag::JUMBLE_RESULT => Ok(Message::JumbleResult {
            task: r.u64()?,
            seed: r.u64()?,
            newick: r.str()?,
            ln_likelihood: r.f64()?,
            rounds: r.u64()?,
            candidates: r.u64()?,
            work_units: r.u64()?,
        }),
        tag::MONITOR => Ok(Message::Monitor(get_monitor(r)?)),
        tag::PEER_DOWN => Ok(Message::PeerDown { rank: r.usize()? }),
        tag::PEER_UP => Ok(Message::PeerUp { rank: r.usize()? }),
        tag::QUARANTINED => Ok(Message::Quarantined {
            task: r.u64()?,
            failures: r.u64()?,
            payload: get_payload(r)?,
        }),
        tag::ABORT => Ok(Message::Abort { reason: r.str()? }),
        tag::JOB_DATA => Ok(Message::JobData {
            job: r.u64()?,
            phylip: r.str()?,
            config_json: r.str()?,
        }),
        tag::JOB_TASK => Ok(Message::JobTask {
            job: r.u64()?,
            task: r.u64()?,
            seed: r.u64()?,
        }),
        tag::JOB_TASK_RESULT => Ok(Message::JobTaskResult {
            job: r.u64()?,
            task: r.u64()?,
            seed: r.u64()?,
            newick: r.str()?,
            ln_likelihood: r.f64()?,
            work_units: r.u64()?,
        }),
        tag::JOB_RETIRE => Ok(Message::JobRetire { job: r.u64()? }),
        tag::BASE_TOPOLOGY => Ok(Message::BaseTopology {
            base_id: r.u64()?,
            newick: r.str()?,
        }),
        tag::TREE_EDIT_TASK => Ok(Message::TreeEditTask {
            task: r.u64()?,
            base_id: r.u64()?,
            edit: get_edit(r)?,
            base_newick: r.opt_str()?,
        }),
        tag::EDIT_CHUNK => Ok(Message::EditChunk {
            task: r.u64()?,
            base_id: r.u64()?,
            edits: get_edits(r)?,
            base_newick: r.opt_str()?,
        }),
        tag::EDIT_SCORES => {
            let task = r.u64()?;
            let n = r.usize()?;
            // Each score is eight float bytes and a varint; reject counts
            // the remaining bytes cannot possibly satisfy before
            // allocating.
            if n > r.remaining() / 9 {
                return Err(WireError::Truncated);
            }
            let mut scores = Vec::with_capacity(n);
            for _ in 0..n {
                scores.push(EditScore {
                    ln_likelihood: r.f64()?,
                    work_units: r.u64()?,
                });
            }
            Ok(Message::EditScores { task, scores })
        }
        tag::PING => Ok(Message::Ping),
        tag::SHUTDOWN => Ok(Message::Shutdown),
        tag::WAL_ROUND => Ok(Message::WalRound {
            job: r.u64()?,
            seed: r.u64()?,
            index: r.u64()?,
            entry: r.str()?,
        }),
        tag::JUMBLE_RESUME => {
            let job = r.u64()?;
            let task = r.u64()?;
            let seed = r.u64()?;
            let numerics = r.u32()?;
            let n = r.usize()?;
            // Each entry is at least a length byte; reject counts the
            // remaining bytes cannot possibly satisfy before allocating.
            if n > r.remaining() {
                return Err(WireError::Truncated);
            }
            let mut wal = Vec::with_capacity(n);
            for _ in 0..n {
                wal.push(r.str()?);
            }
            Ok(Message::JumbleResume {
                job,
                task,
                seed,
                numerics,
                wal,
            })
        }
        t => Err(WireError::BadTag("message", u64::from(t))),
    }
}

/// Encode a complete binary body: magic, version, then the message.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(msg.wire_bytes() / 2 + 8);
    buf.push(MAGIC);
    buf.push(BINARY_VERSION);
    encode_body(msg, &mut buf);
    buf
}

/// Decode a complete binary body produced by [`encode_message`]. Rejects
/// bad magic, unknown versions, and trailing bytes.
pub fn decode_message(bytes: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(bytes);
    let magic = r.u8()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != BINARY_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let msg = decode_body(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::Trailing(r.remaining()));
    }
    Ok(msg)
}

/// The binary codec as a [`MessageCodec`] — the negotiated alternative to
/// [`JsonCodec`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

impl MessageCodec for BinaryCodec {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn encode(&self, msg: &Message) -> Result<Vec<u8>, CodecError> {
        Ok(encode_message(msg))
    }

    fn decode(&self, bytes: &[u8]) -> Result<Message, CodecError> {
        Ok(decode_message(bytes)?)
    }
}

/// The wire format a peer writes with. Readers never need it — every body
/// is sniffed by its first byte — so two peers with different formats
/// still understand each other; the value only tells a writer what to
/// emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// One serde-JSON document per message (the seed format).
    Json,
    /// The compact tagged-varint layout of this crate (the default).
    #[default]
    Binary,
}

impl WireFormat {
    /// Parse a `--wire` flag or handshake field value.
    pub fn parse(s: &str) -> Option<WireFormat> {
        match s {
            "json" => Some(WireFormat::Json),
            "binary" => Some(WireFormat::Binary),
            _ => None,
        }
    }

    /// The stable name used in flags and handshakes.
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Json => "json",
            WireFormat::Binary => "binary",
        }
    }

    /// The codec implementing this format.
    pub fn codec(self) -> &'static dyn MessageCodec {
        match self {
            WireFormat::Json => &JsonCodec,
            WireFormat::Binary => &BinaryCodec,
        }
    }

    /// Encode with this format's codec.
    pub fn encode(self, msg: &Message) -> Result<Vec<u8>, CodecError> {
        self.codec().encode(msg)
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Decode a body in whichever codec produced it, sniffed from the first
/// byte: [`MAGIC`] means binary, anything else is handed to the JSON
/// codec. This is what makes mixed-codec fleets work — a reader does not
/// care what the sender negotiated.
pub fn decode_auto(bytes: &[u8]) -> Result<Message, CodecError> {
    match bytes.first() {
        Some(&MAGIC) => Ok(decode_message(bytes)?),
        _ => JsonCodec.decode(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_edit_task() -> Message {
        Message::TreeEditTask {
            task: 4242,
            base_id: 17,
            edit: TreeEdit::Regraft {
                root: 40,
                attachment: 41,
                a: 7,
                b: 8,
            },
            base_newick: None,
        }
    }

    #[test]
    fn binary_is_much_smaller_than_json_for_edit_tasks() {
        let msg = sample_edit_task();
        let bin = encode_message(&msg);
        let json = JsonCodec.encode(&msg).unwrap();
        assert!(
            bin.len() * 5 <= json.len(),
            "binary {} vs json {}",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn auto_detect_sniffs_both_codecs() {
        let msg = Message::JumbleTask { task: 32, seed: 7 };
        let bin = encode_message(&msg);
        let json = JsonCodec.encode(&msg).unwrap();
        assert_eq!(decode_auto(&bin).unwrap(), msg);
        assert_eq!(decode_auto(&json).unwrap(), msg);
    }

    #[test]
    fn bad_version_and_trailing_bytes_are_rejected() {
        let mut bytes = encode_message(&Message::Ping);
        bytes[1] = 99;
        assert_eq!(decode_message(&bytes), Err(WireError::BadVersion(99)));

        let mut bytes = encode_message(&Message::Ping);
        bytes.push(0);
        assert_eq!(decode_message(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn hostile_chunk_counts_are_truncated_before_any_allocation() {
        // Bodies claiming 2^60 edits / scores: the count is
        // checked against the bytes actually left, so decoding fails as
        // `Truncated` without reserving room for them (a `Vec` of 2^60
        // edits would abort the process, not fail the test).
        let chunk = |tag: u8, fields: &[u64]| {
            let mut bytes = vec![MAGIC, BINARY_VERSION, tag];
            for &f in fields {
                varint::put_u64(&mut bytes, f);
            }
            bytes
        };
        // task, base id, count: a 12-byte message body.
        let edits = chunk(26, &[1, 1, 1 << 60]);
        assert_eq!(edits[2..].len(), 12);
        assert_eq!(
            decode_body(&mut Reader::new(&edits[2..])),
            Err(WireError::Truncated)
        );
        assert_eq!(decode_message(&edits), Err(WireError::Truncated));
        // task, count.
        let scores = chunk(27, &[1, 1 << 60]);
        assert_eq!(decode_message(&scores), Err(WireError::Truncated));
        // A quarantined chunk: task, failures, payload tag 3, base id, count.
        let mut payload = chunk(9, &[1, 3]);
        payload.push(3);
        varint::put_u64(&mut payload, 1);
        varint::put_u64(&mut payload, 1 << 60);
        assert_eq!(decode_message(&payload), Err(WireError::Truncated));
        // A count the remaining bytes could almost satisfy still fails.
        let mut short = chunk(26, &[1, 1, 3]);
        short.extend([0, 1, 2, 3, 0, 1, 2, 3, 0]);
        assert_eq!(decode_message(&short), Err(WireError::Truncated));
        // A resume claiming u64::MAX log entries: job, task, seed,
        // numerics, count.
        let resume = chunk(28, &[1, 1, 1, 1, u64::MAX]);
        assert_eq!(decode_message(&resume), Err(WireError::Truncated));
    }
}
