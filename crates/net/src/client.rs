//! The peer-side transport: a reconnecting TCP client.
//!
//! [`TcpTransport::connect`] dials the hub, handshakes, learns its rank,
//! and then keeps a reader thread (frames in, through one buffered
//! [`FrameReader`] per connection), a writer thread (bounded queue out,
//! everything queued in one `write`, heartbeats when idle), and a manager
//! thread that owns the
//! socket lifecycle. When the link drops — socket error or `miss_limit`
//! silent heartbeat intervals — the manager reconnects with exponential
//! backoff, presenting `Hello { rejoin: Some(rank) }` to reclaim its slot.
//! Only after the backoff schedule is exhausted does the endpoint turn
//! dead, surfacing [`CommError::Disconnected`] to the rank's run loop so
//! it exits and the coordinator's fault tolerance takes over.

use crate::wire::{coalesce_frames, read_frame, write_frame, Frame, FrameReader, PROTOCOL_VERSION};
use fdml_comm::message::Message;
use fdml_comm::transport::{CommError, Rank, Transport};
use fdml_obs::{Event, Obs};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Client-side tunables. Liveness parameters (heartbeat cadence, miss
/// limit) are *not* here: the hub dictates those in its `Welcome`.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Reconnect attempts after a dropped link before giving up.
    pub reconnect_attempts: u32,
    /// Backoff before the first reconnect attempt; doubles per attempt.
    pub reconnect_backoff: Duration,
    /// Depth of the bounded outgoing queue (frames).
    pub queue_depth: usize,
    /// Claim this specific rank on the initial dial by presenting
    /// `Hello { rejoin: Some(rank) }` — the only way to take a slot the
    /// hub reserved at bind time (see `TcpHub::bind_reserved`, which also
    /// says why the daemon still needs this). `None` — the default —
    /// accepts whatever rank the hub assigns.
    pub claim: Option<Rank>,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            reconnect_attempts: 5,
            reconnect_backoff: Duration::from_millis(100),
            queue_depth: 256,
            claim: None,
        }
    }
}

/// Liveness parameters learned from the hub's `Welcome`.
#[derive(Debug, Clone, Copy)]
struct Liveness {
    heartbeat: Duration,
    miss_limit: u32,
}

struct ClientShared {
    rank: Rank,
    addr: String,
    cfg: ClientConfig,
    obs: Obs,
    liveness: Liveness,
    /// Set when reconnection is exhausted: the endpoint is permanently
    /// broken and every operation fails `Disconnected`.
    dead: AtomicBool,
    /// Set by `Drop` for an orderly exit (Goodbye, no reconnection).
    shutdown: AtomicBool,
}

/// A remote rank's endpoint in a TCP universe.
pub struct TcpTransport {
    shared: Arc<ClientShared>,
    size: usize,
    in_rx: Mutex<Receiver<(Rank, Message)>>,
    /// Loopback for self-sends (never crosses the wire).
    self_tx: Sender<(Rank, Message)>,
    /// `Some` until `Drop` takes it to close the queue and flush.
    out_tx: Option<SyncSender<Frame>>,
    manager: Option<thread::JoinHandle<()>>,
}

impl TcpTransport {
    /// Dial the hub at `addr` and join the universe. Blocks for the
    /// handshake; returns the endpoint once a rank is assigned.
    pub fn connect<A: ToSocketAddrs + ToString>(addr: A) -> io::Result<TcpTransport> {
        TcpTransport::connect_observed(addr, ClientConfig::default(), Obs::disabled())
    }

    /// [`TcpTransport::connect`] with explicit configuration and an obs
    /// handle for this process's connection events.
    pub fn connect_observed<A: ToSocketAddrs + ToString>(
        addr: A,
        cfg: ClientConfig,
        obs: Obs,
    ) -> io::Result<TcpTransport> {
        let addr_s = addr.to_string();
        let mut stream = TcpStream::connect(&addr)?;
        stream.set_nodelay(true).ok();
        let welcome = handshake(&mut stream, cfg.claim)?;
        let Frame::Welcome {
            rank,
            size,
            heartbeat_ms,
            miss_limit,
            ..
        } = welcome
        else {
            unreachable!("handshake returns Welcome only");
        };
        obs.emit(|| Event::NetPeerConnected { rank });
        let (in_tx, in_rx) = mpsc::channel();
        let (out_tx, out_rx) = mpsc::sync_channel(cfg.queue_depth);
        let shared = Arc::new(ClientShared {
            rank,
            addr: addr_s,
            cfg,
            obs,
            liveness: Liveness {
                heartbeat: Duration::from_millis(heartbeat_ms.max(1)),
                miss_limit: miss_limit.max(1),
            },
            dead: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let self_tx = in_tx.clone();
        let mgr_shared = Arc::clone(&shared);
        let out_rx = Arc::new(Mutex::new(out_rx));
        let manager = thread::Builder::new()
            .name(format!("fdml-net-c{rank}"))
            .spawn(move || manager(stream, mgr_shared, out_rx, in_tx))
            .expect("spawn client manager");

        Ok(TcpTransport {
            shared,
            size,
            in_rx: Mutex::new(in_rx),
            self_tx,
            out_tx: Some(out_tx),
            manager: Some(manager),
        })
    }

    /// Whether reconnection has been exhausted and the endpoint is dead.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::SeqCst)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Orderly exit: flag the shutdown, close the outgoing queue so the
        // writer drains whatever is still buffered and says Goodbye, then
        // wait for the manager. Joining matters in a peer *process*: main
        // returning would otherwise kill the writer thread with frames
        // (e.g. the foreman's cascaded Shutdowns) still unsent.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(self.out_tx.take());
        if let Some(handle) = self.manager.take() {
            let _ = handle.join();
        }
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> Rank {
        self.shared.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: Rank, msg: &Message) -> Result<(), CommError> {
        if to >= self.size {
            return Err(CommError::UnknownRank(to));
        }
        if self.shared.dead.load(Ordering::SeqCst) {
            return Err(CommError::Disconnected(self.shared.rank));
        }
        if to == self.shared.rank {
            // Loopback; never crosses the wire (matches the threads
            // transport, where self-send is an ordinary channel push).
            return self
                .self_tx
                .send((to, msg.clone()))
                .map_err(|_| CommError::Disconnected(to));
        }
        let mut frame = Some(Frame::Data {
            from: self.shared.rank,
            to,
            msg: msg.clone(),
        });
        let out_tx = self.out_tx.as_ref().expect("open until drop");
        // Bounded, but never wedged: while the link is down the writer is
        // not draining, so a plain blocking send could hang forever on a
        // full queue. Spin on try_send and fail once the endpoint dies.
        loop {
            match out_tx.try_send(frame.take().expect("frame present")) {
                Ok(()) => return Ok(()),
                Err(mpsc::TrySendError::Full(f)) => {
                    if self.shared.dead.load(Ordering::SeqCst) {
                        return Err(CommError::Disconnected(self.shared.rank));
                    }
                    frame = Some(f);
                    thread::sleep(Duration::from_millis(1));
                }
                Err(mpsc::TrySendError::Disconnected(_)) => {
                    return Err(CommError::Disconnected(self.shared.rank))
                }
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Rank, Message)>, CommError> {
        if self.shared.dead.load(Ordering::SeqCst) {
            // Drain what already arrived before failing: results computed
            // just before the link died are still worth delivering.
            if let Ok(pair) = self.in_rx.lock().try_recv() {
                return Ok(Some(pair));
            }
            return Err(CommError::Disconnected(self.shared.rank));
        }
        match self.in_rx.lock().recv_timeout(timeout) {
            Ok(pair) => Ok(Some(pair)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(CommError::Disconnected(self.shared.rank))
            }
        }
    }
}

/// Present a `Hello`, expect a `Welcome`.
fn handshake(stream: &mut TcpStream, rejoin: Option<Rank>) -> io::Result<Frame> {
    write_frame(
        stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            rejoin,
        },
    )?;
    match read_frame(stream, Duration::from_secs(5))? {
        Some(f @ Frame::Welcome { .. }) => Ok(f),
        Some(Frame::Reject { reason }) => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("hub rejected us: {reason}"),
        )),
        Some(Frame::Rejected { reason }) => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("hub rejected us: {reason}"),
        )),
        Some(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected frame during handshake",
        )),
        None => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "handshake timed out",
        )),
    }
}

/// Owns the socket lifecycle: runs read/write generations, reconnects with
/// backoff between them, and declares the endpoint dead when the schedule
/// is exhausted.
fn manager(
    mut stream: TcpStream,
    shared: Arc<ClientShared>,
    out_rx: Arc<Mutex<Receiver<Frame>>>,
    in_tx: Sender<(Rank, Message)>,
) {
    let mut reconnects: u64 = 0;
    loop {
        run_generation(&mut stream, &shared, &out_rx, &in_tx);
        let _ = stream.shutdown(Shutdown::Both);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reconnect(&shared) {
            Some(next) => {
                reconnects += 1;
                let n = reconnects;
                let rank = shared.rank;
                shared.obs.emit(|| Event::NetPeerReconnected {
                    rank,
                    reconnects: n,
                });
                stream = next;
            }
            None => {
                shared.dead.store(true, Ordering::SeqCst);
                if !shared.shutdown.load(Ordering::SeqCst) {
                    let rank = shared.rank;
                    shared.obs.emit(|| Event::NetPeerDisconnected {
                        rank,
                        graceful: false,
                    });
                }
                return;
            }
        }
    }
}

/// One connection's lifetime: a writer thread plus an inline read loop.
/// Returns when the connection is unusable (or shutdown was requested).
fn run_generation(
    stream: &mut TcpStream,
    shared: &Arc<ClientShared>,
    out_rx: &Arc<Mutex<Receiver<Frame>>>,
    in_tx: &Sender<(Rank, Message)>,
) {
    let Ok(mut reader) = FrameReader::new(stream, shared.liveness.heartbeat) else {
        return;
    };
    let gen_stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let shared = Arc::clone(shared);
        let out_rx = Arc::clone(out_rx);
        let gen_stop = Arc::clone(&gen_stop);
        thread::Builder::new()
            .name(format!("fdml-net-c{}-w", shared.rank))
            .spawn(move || client_writer(stream, shared, out_rx, gen_stop))
            .ok()
    };

    let mut misses: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.next_frame(stream) {
            Ok(Some(frame)) => {
                misses = 0;
                match frame {
                    Frame::Data { from, msg, .. } => {
                        let _ = in_tx.send((from, msg));
                    }
                    Frame::Heartbeat { .. } => {}
                    // Anything else mid-session means a confused hub.
                    _ => break,
                }
            }
            Ok(None) => {
                misses += 1;
                let m = misses;
                // From this endpoint's viewpoint the silent peer is the
                // hub, rank 0.
                shared
                    .obs
                    .emit(|| Event::NetHeartbeatMiss { rank: 0, misses: m });
                if misses >= shared.liveness.miss_limit as u64 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // Tear the generation down. On a failed link, stop the writer hard and
    // force it off any blocking socket write. On an orderly shutdown the
    // queue's sender is being dropped — let the writer finish draining the
    // buffered frames and send its Goodbye before joining it.
    if !shared.shutdown.load(Ordering::SeqCst) {
        gen_stop.store(true, Ordering::SeqCst);
        let _ = stream.shutdown(Shutdown::Both);
    }
    if let Some(handle) = writer {
        let _ = handle.join();
    }
}

/// Drain the outgoing queue onto the socket — everything queued in one
/// write; heartbeat when idle; say `Goodbye` when the endpoint is dropped.
fn client_writer(
    mut stream: TcpStream,
    shared: Arc<ClientShared>,
    out_rx: Arc<Mutex<Receiver<Frame>>>,
    gen_stop: Arc<AtomicBool>,
) {
    let mut buf = Vec::new();
    let from = shared.rank;
    loop {
        if gen_stop.load(Ordering::SeqCst) {
            return;
        }
        let encoded = {
            let out_rx = out_rx.lock();
            let first = match out_rx.recv_timeout(shared.liveness.heartbeat) {
                Ok(frame) => frame,
                Err(mpsc::RecvTimeoutError::Timeout) => Frame::Heartbeat { from },
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // The endpoint was dropped: orderly exit.
                    shared.shutdown.store(true, Ordering::SeqCst);
                    let _ = write_frame(&mut stream, &Frame::Goodbye { from });
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            };
            coalesce_frames(&mut buf, first, || out_rx.try_recv().ok())
        };
        if encoded.and_then(|()| stream.write_all(&buf)).is_err() {
            // Wake the reader immediately rather than letting it ride out
            // its heartbeat misses.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// The sleep before reconnect attempt `attempt`: exponential growth from
/// the configured base, scaled by a jitter factor in roughly 0.5..1.5
/// derived from `(rank, attempt)`. Without jitter, a hub restart makes
/// every client of a mass-disconnect redial on the *same* schedule — a
/// synchronized stampede against a listener that is just coming back.
/// Deriving the factor from stable inputs (splitmix64, no global RNG)
/// keeps runs reproducible while desynchronizing the fleet.
fn backoff_with_jitter(base: Duration, rank: Rank, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let mut z = (rank as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(attempt as u64)
        .wrapping_add(0x5EED_1E55_B10F_F5ED);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 512..1536 out of 1024 ≈ a 0.5x..1.5x scale.
    let scale_millis = 512 + (z % 1024) as u32;
    exp.saturating_mul(scale_millis) / 1024
}

/// Exponential-backoff redial (with per-rank jitter), asking for our old
/// rank back. `None` when the schedule is exhausted (or shutdown was
/// requested).
fn reconnect(shared: &Arc<ClientShared>) -> Option<TcpStream> {
    for attempt in 0..shared.cfg.reconnect_attempts {
        thread::sleep(backoff_with_jitter(
            shared.cfg.reconnect_backoff,
            shared.rank,
            attempt,
        ));
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let Ok(mut stream) = TcpStream::connect(&shared.addr) else {
            continue;
        };
        stream.set_nodelay(true).ok();
        match handshake(&mut stream, Some(shared.rank)) {
            Ok(Frame::Welcome { rank, .. }) if rank == shared.rank => return Some(stream),
            // The hub gave our slot away (or refused us): no way back.
            Ok(_) | Err(_) => continue,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_desynchronizes_ranks_but_stays_bounded() {
        let base = Duration::from_millis(100);
        // Same inputs, same sleep: the schedule is reproducible.
        assert_eq!(
            backoff_with_jitter(base, 3, 2),
            backoff_with_jitter(base, 3, 2)
        );
        // Different ranks at the same attempt must not all sleep the same
        // amount — that is the stampede jitter exists to break.
        let sleeps: Vec<Duration> = (3..8).map(|r| backoff_with_jitter(base, r, 0)).collect();
        let distinct: std::collections::HashSet<_> = sleeps.iter().collect();
        assert!(distinct.len() > 1, "all ranks slept {sleeps:?}");
        // Every sleep stays within the 0.5x..1.5x band of its exponential
        // step, so backoff still grows and never collapses to zero.
        for (attempt, factor) in [(0u32, 1u32), (1, 2), (2, 4), (3, 8)] {
            let step = base * factor;
            for rank in 3..8 {
                let s = backoff_with_jitter(base, rank, attempt);
                assert!(s >= step / 2 && s <= step * 3 / 2, "{s:?} out of band");
            }
        }
    }
}
