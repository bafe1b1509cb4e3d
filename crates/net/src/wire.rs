//! The framed wire format.
//!
//! Every frame is a 4-byte big-endian length prefix, a 4-byte big-endian
//! CRC32 of the body, then that many bytes of body. The framing (v2,
//! unchanged) makes alignment trivial, lets a reader reject garbage before
//! allocating, and turns in-flight corruption into a detected, typed
//! failure instead of a parse panic or — worse — a silently wrong
//! likelihood.
//!
//! The body is one of two encodings, told apart by its first byte:
//!
//! * Binary (first byte [`fdml_wire::MAGIC`]) — the data plane (`Data`,
//!   `Heartbeat`, `Goodbye`): a tag byte and varint fields
//!   ([`fdml_wire`]). Every writer uses it; there is no other data-plane
//!   encoding.
//! * JSON (first byte `{`) — the bootstrap and service planes
//!   (`Hello`/`Welcome`/`Reject`, `Submit` … `Done`), which are rare,
//!   human-inspected, and must parse before a peer's version is known.

use fdml_comm::job::{JobId, JobResult, JobSpec, JobStatus, RejectReason};
use fdml_comm::message::Message;
use fdml_comm::transport::Rank;
use fdml_wire::checksum::crc32;
use fdml_wire::varint;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Protocol version spoken by this build. A hub rejects any `Hello` whose
/// version differs — mixing builds across a cluster corrupts likelihoods
/// far more subtly than a refused connection does.
/// Version 2 added the per-frame CRC32. Version 3 added job multiplexing:
/// the service-plane frames
/// (`Submit` … `Done`) the `fdml-serve` daemon speaks. Version 4 made the
/// chunk the unit of edit work (`EditChunk` / `EditScores`, binary tags
/// 26 / 27): a version-3 worker would die on the first chunk it was sent,
/// so it is turned away at the handshake instead. Version 5 retired the
/// hierarchical foreman tree: `Welcome` no longer announces regional
/// foremen, and the tree's messages (binary tags 20–23) are gone, so a
/// version-4 peer that would take a rank for a regional foreman is turned
/// away too. Version 6 carries a resumed jumble's numerics epoch (binary
/// tag 28; tag 25 is retired), so a worker replays another epoch's log
/// under the tolerance a single search uses. Version 7 retired the
/// foreman tree's batch frame (binary tag 19), so a version-6 peer that
/// would send one is turned away at the handshake, not mid-run. Version 8
/// made binary the only data-plane encoding (`Hello`/`Welcome` no longer
/// name one) and gave every jumble one request form and one answer: the
/// job-less jumble task and result (binary tags 4 and 5) are retired, and
/// a `JumbleResult` carries its job (tag 29).
pub const PROTOCOL_VERSION: u32 = 8;

/// Upper bound on a frame body. Real frames are a few KiB (`ProblemData`
/// is the largest); anything bigger is a corrupt stream or a hostile peer.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// How long a frame, once its first byte has arrived, may take to finish.
/// Distinct from the idle timeout: mid-frame silence is a broken peer, not
/// an idle one, but transient TCP stalls should not kill the link.
pub const FRAME_COMPLETION_TIMEOUT: Duration = Duration::from_secs(10);

/// One unit on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Client → hub, first frame of a compute-plane connection.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// `None` for a fresh join; `Some(rank)` when reconnecting after a
        /// dropped link, asking for the old rank back.
        rejoin: Option<Rank>,
    },
    /// Hub → client, accepting a `Hello`.
    Welcome {
        /// The rank this connection now speaks for.
        rank: Rank,
        /// Total ranks in the universe.
        size: usize,
        /// Liveness: heartbeat cadence every peer must keep.
        heartbeat_ms: u64,
        /// Liveness: consecutive silent intervals before a peer is dead.
        miss_limit: u32,
    },
    /// Hub → client, refusing a `Hello` (version skew, full universe).
    Reject {
        /// Human-readable refusal.
        reason: String,
    },
    /// A routed runtime message. Clients address any rank; the hub relays.
    Data {
        /// Originating rank.
        from: Rank,
        /// Destination rank.
        to: Rank,
        /// The payload.
        msg: Message,
    },
    /// Keep-alive, sent when a writer has been idle for one heartbeat
    /// interval. Receiving *anything* resets the peer's miss counter.
    Heartbeat {
        /// The sender's rank.
        from: Rank,
    },
    /// Orderly departure; suppresses reconnect bookkeeping for this peer.
    Goodbye {
        /// The departing rank.
        from: Rank,
    },

    // ---- Service plane (v3): frames a daemon client opens with instead
    // of `Hello`. They never carry a rank — the connection belongs to the
    // job API, not to the compute universe.
    /// Client → daemon: admit this job.
    Submit {
        /// The complete job description.
        spec: JobSpec,
    },
    /// Daemon → client: the job was admitted and queued.
    Accepted {
        /// The registry id assigned to it.
        job: JobId,
    },
    /// Daemon → client: the submission (or query) was refused.
    Rejected {
        /// The typed admission-control verdict.
        reason: RejectReason,
    },
    /// Client → daemon: report this job's state.
    Query {
        /// The job to report on.
        job: JobId,
    },
    /// Daemon → client: answer to a `Query`.
    Status {
        /// The job's current state and progress.
        status: JobStatus,
    },
    /// Client → daemon: stream this job's progress events and, when it
    /// completes, its result. The connection stays open until `Done`.
    Attach {
        /// The job to follow.
        job: JobId,
    },
    /// Daemon → attached client: one observable progress line.
    JobEvent {
        /// The job it belongs to.
        job: JobId,
        /// Rendered event text (JSONL record of the obs event).
        text: String,
    },
    /// Daemon → attached client: the job finished; final frame.
    Done {
        /// The job that finished.
        job: JobId,
        /// Its trees, consensus, and report (`failure` rides in the
        /// status surface — a failed job answers `Query`, not `Attach`).
        result: JobResult,
    },
}

/// Version byte of the binary *frame* envelope (distinct from the message
/// codec's own version, which rides inside the `Data` payload encoding).
const FRAME_BINARY_VERSION: u8 = 1;

// Binary frame tags. Only the data plane has them; control-plane frames
// are JSON by design.
const FTAG_DATA: u8 = 0;
const FTAG_HEARTBEAT: u8 = 1;
const FTAG_GOODBYE: u8 = 2;

/// Append a data-plane frame's binary body; `false` (nothing appended)
/// when the frame is control-plane — those are JSON.
fn encode_frame_body_binary(frame: &Frame, buf: &mut Vec<u8>) -> bool {
    let tag = match frame {
        Frame::Data { .. } => FTAG_DATA,
        Frame::Heartbeat { .. } => FTAG_HEARTBEAT,
        Frame::Goodbye { .. } => FTAG_GOODBYE,
        _ => return false,
    };
    buf.extend_from_slice(&[fdml_wire::MAGIC, FRAME_BINARY_VERSION, tag]);
    match frame {
        Frame::Data { from, to, msg } => {
            varint::put_usize(buf, *from);
            varint::put_usize(buf, *to);
            fdml_wire::encode_body(msg, buf);
        }
        Frame::Heartbeat { from } | Frame::Goodbye { from } => varint::put_usize(buf, *from),
        _ => unreachable!("control-plane frames returned above"),
    }
    true
}

fn decode_frame_body_binary(body: &[u8]) -> io::Result<Frame> {
    let bad = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    let mut r = varint::Reader::new(body);
    let magic = r.u8().map_err(|e| bad(e.to_string()))?;
    debug_assert_eq!(magic, fdml_wire::MAGIC, "caller sniffed the magic");
    let version = r.u8().map_err(|e| bad(e.to_string()))?;
    if version != FRAME_BINARY_VERSION {
        return Err(bad(format!("unsupported binary frame version {version}")));
    }
    let tag = r.u8().map_err(|e| bad(e.to_string()))?;
    let frame = match tag {
        FTAG_DATA => Frame::Data {
            from: r.usize().map_err(|e| bad(e.to_string()))?,
            to: r.usize().map_err(|e| bad(e.to_string()))?,
            msg: fdml_wire::decode_body(&mut r).map_err(|e| bad(e.to_string()))?,
        },
        FTAG_HEARTBEAT => Frame::Heartbeat {
            from: r.usize().map_err(|e| bad(e.to_string()))?,
        },
        FTAG_GOODBYE => Frame::Goodbye {
            from: r.usize().map_err(|e| bad(e.to_string()))?,
        },
        t => return Err(bad(format!("unknown binary frame tag {t}"))),
    };
    if r.remaining() != 0 {
        return Err(bad(format!(
            "{} trailing bytes after binary frame",
            r.remaining()
        )));
    }
    Ok(frame)
}

/// Bytes of framing ahead of every body: length, then CRC32.
const HEADER_BYTES: usize = 8;

/// Append one complete frame — header and body — to `buf`. The body is
/// encoded in place behind eight reserved bytes, which are patched once its
/// length and checksum are known, so a frame costs no allocation of its own
/// and any number of them can share one buffer and one `write`. Data-plane
/// frames are binary, the rest JSON. On error `buf` is left as it was.
pub fn encode_frame_into(buf: &mut Vec<u8>, frame: &Frame) -> io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; HEADER_BYTES]);
    if !encode_frame_body_binary(frame, buf) {
        match serde_json::to_string(frame) {
            Ok(json) => buf.extend_from_slice(json.as_bytes()),
            Err(e) => {
                buf.truncate(start);
                return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
        }
    }
    let body_len = buf.len() - start - HEADER_BYTES;
    if body_len > MAX_FRAME_BYTES {
        buf.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    let crc = crc32(&buf[start + HEADER_BYTES..]);
    buf[start..start + 4].copy_from_slice(&(body_len as u32).to_be_bytes());
    buf[start + 4..start + HEADER_BYTES].copy_from_slice(&crc.to_be_bytes());
    Ok(())
}

/// How many bytes a writer thread packs into one `write` before it stops
/// draining its queue: enough for a whole round's burst of edit tasks or
/// results, small enough that the first frame of a burst is not held back
/// noticeably by encoding the rest.
const COALESCE_BYTES: usize = 64 * 1024;

/// Encode `first` and every frame `more` yields — what is *already* queued
/// behind it, never waiting — into `buf` (cleared first), stopping at
/// [`COALESCE_BYTES`]. The caller issues one `write_all` for the lot: a
/// burst costs one syscall instead of one per frame. The bytes on the wire
/// are exactly those of the frames written one by one.
pub(crate) fn coalesce_frames(
    buf: &mut Vec<u8>,
    first: Frame,
    mut more: impl FnMut() -> Option<Frame>,
) -> io::Result<()> {
    buf.clear();
    encode_frame_into(buf, &first)?;
    while buf.len() < COALESCE_BYTES {
        match more() {
            Some(frame) => encode_frame_into(buf, &frame)?,
            None => break,
        }
    }
    Ok(())
}

/// Serialize and write one frame ([`encode_frame_into`]). Blocking;
/// respects the stream's write timeout if one is set.
pub fn write_frame(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::new();
    encode_frame_into(&mut buf, frame)?;
    stream.write_all(&buf)
}

/// The most a reader asks the kernel for at once, and the step by which
/// its buffer grows toward a large frame: memory follows the bytes a peer
/// has actually sent, never the length it merely claims.
const READ_CHUNK: usize = 64 * 1024;

/// A connection's inbound half: a buffer that takes whatever the kernel
/// has and hands out every complete frame in it before reading again, so a
/// burst of frames costs one `read`, and the socket's timeout is armed once
/// — by [`FrameReader::new`] — instead of once per frame.
pub struct FrameReader {
    /// Unparsed bytes are `buf[head..tail]`; `buf.len()` is the space
    /// reads may fill.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    idle: Duration,
    /// Read past the frame being assembled. Off for [`read_frame`], whose
    /// caller keeps using the bare socket afterwards.
    greedy: bool,
}

impl FrameReader {
    /// A reader for `stream` whose [`FrameReader::next_frame`] waits at
    /// most `idle` for a frame to begin. Arms the socket's read timeout,
    /// once: often enough to notice both deadlines without busy-waiting.
    pub fn new(stream: &TcpStream, idle: Duration) -> io::Result<FrameReader> {
        let poll = idle
            .max(Duration::from_millis(1))
            .min(Duration::from_millis(50));
        stream.set_read_timeout(Some(poll))?;
        Ok(FrameReader {
            buf: Vec::new(),
            head: 0,
            tail: 0,
            idle,
            greedy: true,
        })
    }

    /// The next frame, from the buffer when one is already complete there,
    /// else from `stream` (the one this reader was made for).
    ///
    /// Returns `Ok(None)` on a *clean* idle timeout — no byte of the next
    /// frame had arrived, the stream is still aligned. Once a first byte is
    /// in, the frame must complete within [`FRAME_COMPLETION_TIMEOUT`] or
    /// the call fails: a partial frame cannot be abandoned without
    /// desynchronizing everything after it.
    pub fn next_frame(&mut self, stream: &mut impl Read) -> io::Result<Option<Frame>> {
        // Taken when the first read is about to be issued: a frame that is
        // already buffered costs no clock read.
        let mut started: Option<Instant> = None;
        loop {
            let have = self.tail - self.head;
            let need = if have < HEADER_BYTES {
                HEADER_BYTES
            } else {
                let len = u32::from_be_bytes(
                    self.buf[self.head..self.head + 4]
                        .try_into()
                        .expect("4-byte slice"),
                ) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds limit"),
                    ));
                }
                HEADER_BYTES + len
            };
            if have >= need {
                let frame = decode_frame(&self.buf[self.head..self.head + need]);
                self.head += need;
                if self.head == self.tail {
                    self.head = 0;
                    self.tail = 0;
                }
                return frame.map(Some);
            }
            let end = self.make_room(need - have);
            let start = *started.get_or_insert_with(Instant::now);
            match stream.read(&mut self.buf[self.tail..end]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    ))
                }
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if have == 0 {
                        if start.elapsed() >= self.idle {
                            return Ok(None);
                        }
                    } else if start.elapsed() >= FRAME_COMPLETION_TIMEOUT {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "frame stalled mid-read",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Make space behind `tail` for the next read, given that the frame
    /// being assembled still lacks `missing` bytes, and return where that
    /// read may end. Leftover bytes are moved to the front first; only a
    /// buffer with no space left at all grows, by at most [`READ_CHUNK`].
    fn make_room(&mut self, missing: usize) -> usize {
        let want = missing.min(READ_CHUNK);
        if self.buf.len() - self.tail < want && self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() == self.tail {
            let step = if self.greedy { READ_CHUNK } else { want };
            self.buf.resize(self.tail + step, 0);
        }
        let most = if self.greedy { READ_CHUNK } else { want };
        self.buf.len().min(self.tail + most)
    }
}

/// Check and decode one complete frame: header, then exactly the body the
/// header announces.
fn decode_frame(bytes: &[u8]) -> io::Result<Frame> {
    let expected_crc = u32::from_be_bytes(bytes[4..HEADER_BYTES].try_into().expect("4-byte slice"));
    let body = &bytes[HEADER_BYTES..];
    let actual_crc = crc32(body);
    if actual_crc != expected_crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame CRC mismatch: header says {expected_crc:#010x}, body hashes to {actual_crc:#010x}"),
        ));
    }
    // Binary data-plane bodies lead with the wire magic (never valid
    // leading UTF-8 for JSON); everything else is a JSON control frame.
    if body.first() == Some(&fdml_wire::MAGIC) {
        return decode_frame_body_binary(body);
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Read one frame off a bare socket, waiting at most `idle` for its first
/// byte — [`FrameReader::next_frame`]'s contract, for the places that
/// exchange a frame or two and keep no reader: handshakes and the service
/// plane. It takes exactly the frame's bytes off the socket (whoever reads
/// next finds it aligned) and arms the socket's timeout on every call;
/// session loops hold a [`FrameReader`] instead.
pub fn read_frame(stream: &mut TcpStream, idle: Duration) -> io::Result<Option<Frame>> {
    let mut reader = FrameReader::new(stream, idle)?;
    reader.greedy = false;
    reader.next_frame(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// Write a frame whose body has one byte XOR-flipped *after* the CRC
    /// was computed: the frame is well-formed at the framing layer (correct
    /// length) but its checksum cannot match, so a conforming reader must
    /// reject it as corrupt rather than attempt to parse it. `byte` indexes
    /// into the body, modulo its length.
    fn write_frame_corrupted(stream: &mut TcpStream, frame: &Frame, byte: usize) -> io::Result<()> {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, frame)?;
        let body_len = buf.len() - HEADER_BYTES;
        buf[HEADER_BYTES + byte % body_len] ^= 0xA5;
        stream.write_all(&buf)
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn frames_round_trip() {
        let (mut a, mut b) = pair();
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                rejoin: None,
            },
            Frame::Hello {
                version: PROTOCOL_VERSION,
                rejoin: Some(3),
            },
            Frame::Welcome {
                rank: 4,
                size: 6,
                heartbeat_ms: 500,
                miss_limit: 4,
            },
            Frame::Reject {
                reason: "full".into(),
            },
            Frame::Data {
                from: 3,
                to: 1,
                msg: Message::TreeResult {
                    task: 9,
                    newick: "(a:1,b:2);".into(),
                    ln_likelihood: -123.5,
                    work_units: 7,
                },
            },
            Frame::Heartbeat { from: 2 },
            Frame::Goodbye { from: 5 },
            Frame::Submit {
                spec: JobSpec {
                    phylip: " 2 4\na ACGT\nb ACGA\n".into(),
                    config_json: "{}".into(),
                    jumbles: 3,
                    base_seed: 11,
                    max_ranks: 4,
                    max_wall_ms: 0,
                    label: "demo".into(),
                },
            },
            Frame::Accepted { job: 1 },
            Frame::Rejected {
                reason: RejectReason::QuotaExceeded {
                    quota: "max_ranks".into(),
                    requested: 64,
                    limit: 8,
                },
            },
            Frame::Query { job: 1 },
            Frame::Status {
                status: JobStatus {
                    job: 1,
                    state: fdml_comm::job::JobState::Running,
                    done: 1,
                    total: 3,
                    label: "demo".into(),
                    failure: None,
                },
            },
            Frame::Attach { job: 1 },
            Frame::JobEvent {
                job: 1,
                text: "{\"event\":\"JumbleCompleted\"}".into(),
            },
            Frame::Done {
                job: 1,
                result: JobResult {
                    job: 1,
                    trees: vec![],
                    consensus_newick: None,
                    best_newick: "(a,b);".into(),
                    best_ln_likelihood: -10.5,
                    report: None,
                },
            },
        ];
        for f in &frames {
            write_frame(&mut a, f).unwrap();
        }
        for f in &frames {
            let got = read_frame(&mut b, Duration::from_secs(2)).unwrap().unwrap();
            assert_eq!(&got, f);
        }
    }

    #[test]
    fn an_older_hello_naming_a_job_still_parses() {
        // Builds of protocol 3-8 could bind a rank slot to a job. The field
        // is gone, but such a Hello must still parse, its binding ignored.
        let json = r#"{"Hello":{"version":8,"rejoin":3,"job":7}}"#;
        let f: Frame = serde_json::from_str(json).unwrap();
        assert_eq!(
            f,
            Frame::Hello {
                version: 8,
                rejoin: Some(3),
            }
        );
    }

    #[test]
    fn an_older_hello_naming_its_wire_still_parses() {
        // A version-7 peer names the encoding it writes. The field is gone,
        // but the Hello must still parse so the hub can refuse its version
        // in words.
        let json = r#"{"Hello":{"version":7,"rejoin":null,"job":null,"wire":"binary"}}"#;
        let f: Frame = serde_json::from_str(json).unwrap();
        assert_eq!(
            f,
            Frame::Hello {
                version: 7,
                rejoin: None,
            }
        );
    }

    #[test]
    fn binary_data_plane_round_trips() {
        let (mut a, mut b) = pair();
        let frames = vec![
            Frame::Data {
                from: 3,
                to: 1,
                msg: Message::TreeResult {
                    task: 9,
                    newick: "(a:1,b:2);".into(),
                    ln_likelihood: -123.5,
                    work_units: 7,
                },
            },
            Frame::Data {
                from: 1,
                to: 4,
                msg: Message::JobTask {
                    job: 0,
                    task: 8,
                    seed: 3,
                },
            },
            Frame::Heartbeat { from: 2 },
            Frame::Goodbye { from: 5 },
        ];
        let mut raw = Vec::new();
        for f in &frames {
            encode_frame_into(&mut raw, f).unwrap();
            assert_eq!(raw[HEADER_BYTES], fdml_wire::MAGIC, "{f:?} is binary");
            a.write_all(&raw).unwrap();
            raw.clear();
        }
        for f in &frames {
            let got = read_frame(&mut b, Duration::from_secs(2)).unwrap().unwrap();
            assert_eq!(&got, f);
        }
    }

    #[test]
    fn binary_heartbeat_is_a_few_bytes() {
        // The liveness-probe satellite: a binary heartbeat body is magic,
        // version, tag, rank — four bytes, versus ~25 of JSON.
        let mut body = Vec::new();
        assert!(encode_frame_body_binary(
            &Frame::Heartbeat { from: 63 },
            &mut body
        ));
        assert_eq!(body.len(), 4);
        let json = serde_json::to_string(&Frame::Heartbeat { from: 63 }).unwrap();
        assert!(json.len() > 4 * body.len());
    }

    #[test]
    fn control_plane_frames_stay_json() {
        let (mut a, mut b) = pair();
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            rejoin: None,
        };
        write_frame(&mut a, &hello).unwrap();
        // Peek at the raw bytes: the body must start with '{'.
        let mut raw = [0u8; 9];
        b.read_exact(&mut raw).unwrap();
        assert_eq!(raw[8], b'{');
    }

    #[test]
    fn idle_timeout_is_clean() {
        let (_a, mut b) = pair();
        let got = read_frame(&mut b, Duration::from_millis(40)).unwrap();
        assert!(got.is_none());
        // The stream is still usable afterwards.
        let got = read_frame(&mut b, Duration::from_millis(40)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn partial_frame_survives_idle_timeouts() {
        let (mut a, mut b) = pair();
        let frame = Frame::Heartbeat { from: 1 };
        let body = serde_json::to_string(&frame).unwrap();
        let body = body.as_bytes();
        // Dribble the frame in two halves with a pause in between, longer
        // than the reader's idle timeout.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
        wire.extend_from_slice(&crc32(body).to_be_bytes());
        wire.extend_from_slice(body);
        let (head, tail) = wire.split_at(3);
        let head = head.to_vec();
        let tail = tail.to_vec();
        let writer = thread::spawn(move || {
            a.write_all(&head).unwrap();
            thread::sleep(Duration::from_millis(80));
            a.write_all(&tail).unwrap();
            a
        });
        let got = read_frame(&mut b, Duration::from_millis(20))
            .unwrap()
            .unwrap();
        assert_eq!(got, frame);
        drop(writer.join().unwrap());
    }

    #[test]
    fn oversized_length_rejected() {
        let (mut a, mut b) = pair();
        a.write_all(&u32::MAX.to_be_bytes()).unwrap();
        a.write_all(&0u32.to_be_bytes()).unwrap(); // CRC field
        let err = read_frame(&mut b, Duration::from_secs(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_hostile_length_allocates_only_for_the_bytes_that_arrive() {
        // The largest length the protocol admits, from a peer that then
        // sends ten bytes and hangs up: the reader must follow the bytes,
        // not the claim, whether it reads ahead or takes one exact frame.
        for greedy in [true, false] {
            let (mut a, mut b) = pair();
            a.write_all(&(MAX_FRAME_BYTES as u32).to_be_bytes())
                .unwrap();
            a.write_all(&0u32.to_be_bytes()).unwrap(); // CRC field
            a.write_all(&[0x7B; 10]).unwrap();
            drop(a);
            let mut reader = FrameReader::new(&b, Duration::from_secs(1)).unwrap();
            reader.greedy = greedy;
            let err = reader.next_frame(&mut b).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            assert!(
                reader.buf.capacity() <= 128 * 1024,
                "{} bytes allocated for 18 received",
                reader.buf.capacity()
            );
        }
    }

    /// A stream that hands out at most `cap` bytes per `read` and counts
    /// the reads.
    struct Dribble<'a> {
        stream: &'a TcpStream,
        cap: usize,
        reads: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let cap = buf.len().min(self.cap);
            self.stream.read(&mut buf[..cap])
        }
    }

    fn numbered(t: u64) -> Frame {
        Frame::Data {
            from: 1,
            to: 3 + (t % 5) as usize,
            msg: Message::TreeResult {
                task: t,
                // Varying sizes, so frames straddle every kind of boundary.
                newick: "(a:1,b:2);".repeat((t % 7) as usize),
                ln_likelihood: -(t as f64),
                work_units: t,
            },
        }
    }

    #[test]
    fn a_burst_of_small_frames_arrives_whole_and_in_order() {
        const FRAMES: u64 = 10_000;
        let (mut a, b) = pair();
        let writer = thread::spawn(move || {
            // The writer threads' own loop: pack what is queued, write once.
            let mut queue = (0..FRAMES).map(numbered);
            let mut buf = Vec::new();
            let mut writes = 0;
            while let Some(first) = queue.next() {
                coalesce_frames(&mut buf, first, || queue.next()).unwrap();
                a.write_all(&buf).unwrap();
                writes += 1;
            }
            (a, writes)
        });
        let mut reader = FrameReader::new(&b, Duration::from_secs(5)).unwrap();
        // Reads capped at an odd size: nearly every one ends mid-frame, and
        // the leftover has to carry over into the next.
        let mut stream = Dribble {
            stream: &b,
            cap: 4099,
            reads: 0,
        };
        for t in 0..FRAMES {
            let got = reader.next_frame(&mut stream).unwrap().unwrap();
            assert_eq!(got, numbered(t));
        }
        let (a, writes) = writer.join().unwrap();
        // Both directions batched: far fewer syscalls than frames.
        assert!(writes < FRAMES / 100, "{writes} writes");
        assert!(
            stream.reads < FRAMES as usize / 10,
            "{} reads",
            stream.reads
        );
        // Nothing is left over, and the stream is still aligned.
        assert_eq!(reader.head, reader.tail);
        drop(a);
        let err = reader.next_frame(&mut stream).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn one_write_can_mix_planes() {
        let (mut a, mut b) = pair();
        let frames = [
            Frame::Heartbeat { from: 3 },
            numbered(5),
            // Control-plane: JSON between binary frames.
            Frame::Reject {
                reason: "full".into(),
            },
            numbered(6),
            Frame::Goodbye { from: 3 },
        ];
        let mut buf = Vec::new();
        for frame in &frames {
            encode_frame_into(&mut buf, frame).unwrap();
        }
        // The coalesced bytes are the frames' own bytes, back to back.
        let mut one_by_one = Vec::new();
        for frame in &frames {
            let mut single = Vec::new();
            encode_frame_into(&mut single, frame).unwrap();
            one_by_one.extend(single);
        }
        assert_eq!(buf, one_by_one);
        a.write_all(&buf).unwrap();
        let mut reader = FrameReader::new(&b, Duration::from_secs(2)).unwrap();
        for frame in &frames {
            assert_eq!(&reader.next_frame(&mut b).unwrap().unwrap(), frame);
        }
        assert!(FrameReader::new(&b, Duration::from_millis(20))
            .unwrap()
            .next_frame(&mut b)
            .unwrap()
            .is_none());
    }

    #[test]
    fn an_oversized_frame_is_refused_and_leaves_the_buffer_alone() {
        let mut buf = vec![1, 2, 3];
        let huge = Frame::Reject {
            reason: "x".repeat(MAX_FRAME_BYTES),
        };
        let err = encode_frame_into(&mut buf, &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn corrupted_frame_is_rejected_not_parsed() {
        let (mut a, mut b) = pair();
        let frame = Frame::Data {
            from: 3,
            to: 1,
            msg: Message::TreeResult {
                task: 9,
                newick: "(a:1,b:2);".into(),
                ln_likelihood: -123.5,
                work_units: 7,
            },
        };
        // Flip a byte at several offsets; every position must be caught.
        for byte in [0usize, 7, 23] {
            write_frame_corrupted(&mut a, &frame, byte).unwrap();
            let err = read_frame(&mut b, Duration::from_secs(2)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("CRC"),
                "error should name the CRC, got: {err}"
            );
        }
        // An intact frame on a fresh pair still parses (the reader stays
        // aligned because the corrupt body had the correct length).
        let (mut a, mut b) = pair();
        write_frame(&mut a, &frame).unwrap();
        assert_eq!(
            read_frame(&mut b, Duration::from_secs(2)).unwrap().unwrap(),
            frame
        );
    }

    #[test]
    fn closed_peer_is_an_error() {
        let (a, mut b) = pair();
        drop(a);
        let err = read_frame(&mut b, Duration::from_secs(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
