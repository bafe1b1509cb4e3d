//! The coordinator-side hub: listener, handshake, and message routing.
//!
//! The hub is the process topology's star point. It owns the listening
//! socket, assigns the remote ranks to connecting peers in arrival order,
//! and routes every [`Frame::Data`], so peer processes need a route to the
//! coordinator only — exactly the property that let the paper's PVM
//! version span clusters where workers could not reach each other
//! directly.
//!
//! The hub's own process *hosts* the low ranks. Rank 0 (the master) always:
//! the [`TcpHub`] value is that rank's [`Transport`] endpoint. A
//! coordinator also hosts its control ranks — 1 foreman, 2 monitor — as
//! [`HostedRank`] endpoints ([`TcpHub::bind_hosting`]): in-process inboxes
//! behind the same router, never handed to a dialer. One `deliver` serves
//! every sender, local or remote: a hosted destination is a channel push,
//! a remote one that connection's writer queue. Workers speak only to the
//! foreman, so in a flat universe nothing is relayed peer to peer at all
//! ([`TcpHub::relayed`] counts what is): a task crosses a socket twice,
//! out and back.
//!
//! Liveness: every peer connection has a reader thread (frames in, misses
//! counted) and a writer thread (bounded queue out, heartbeats when idle;
//! whatever is queued goes out in one `write`, see `wire::coalesce_frames`).
//! A peer silent for `miss_limit` heartbeat intervals — or whose socket
//! errors — is declared dead: its slot is cleared, an obs event is emitted,
//! and local sends to it fail with [`CommError::Disconnected`] so the
//! foreman's requeue machinery takes over. A dead peer that dials back in
//! with `Hello { rejoin: Some(rank) }` is re-bound to its old slot, and
//! the per-connection generation check keeps the old connection's threads
//! from touching the new one. Every worker serves every job of a daemon's
//! shared fleet, so a slot is bound to no job.
//!
//! Slots can also be *reserved* at bind time ([`TcpHub::bind_reserved`]):
//! a reserved rank is never handed to an anonymous fresh join and must be
//! claimed explicitly with `Hello { rejoin: Some(rank) }` — how the serve
//! daemon pins its own scheduler and monitor loopback connections to
//! ranks 1 and 2 before any external peer can race for them.
//!
//! The hub also fronts the *service plane*: a connection whose first frame
//! is `Submit` / `Query` / `Attach` (rather than `Hello`) is not a rank at
//! all — it is handed off wholesale through [`TcpHub::accept_service`] to
//! whoever is running the job API, socket and opening frame together.

use crate::wire::{coalesce_frames, read_frame, write_frame, Frame, FrameReader, PROTOCOL_VERSION};
use fdml_comm::job::RejectReason;
use fdml_comm::message::Message;
use fdml_comm::transport::{ranks, CommError, Rank, Transport};
use fdml_obs::{Event, Obs};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Tunables for a TCP universe. The hub owns the canonical copy; clients
/// learn the liveness parameters from their `Welcome`.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Heartbeat cadence: a writer idle this long emits a keep-alive.
    pub heartbeat_interval: Duration,
    /// Consecutive silent intervals before a peer is declared dead.
    pub miss_limit: u32,
    /// Depth of each peer's bounded outgoing queue (frames).
    pub queue_depth: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            heartbeat_interval: Duration::from_millis(500),
            miss_limit: 4,
            queue_depth: 256,
        }
    }
}

/// One remote rank's connection state.
#[derive(Default)]
struct Slot {
    /// Sender into the peer's writer thread; `None` while disconnected.
    out: Option<SyncSender<Frame>>,
    /// Bumped on every (re)bind so stale reader/writer threads from a
    /// previous connection cannot clobber a newer one's state.
    generation: u64,
    /// Whether this slot ever completed a handshake.
    ever_connected: bool,
    /// Completed rebinds after a drop.
    reconnects: u64,
    /// A reserved slot is never assigned to a fresh anonymous join; it
    /// must be claimed with `Hello { rejoin: Some(rank) }`.
    reserved: bool,
}

/// A service-plane connection handed out of the handshake: its first
/// frame was `Submit` / `Query` / `Attach` rather than `Hello`, so it
/// belongs to the job API, not the compute universe.
pub struct ServiceRequest {
    /// The socket, positioned just past the opening frame.
    pub stream: TcpStream,
    /// The frame that opened the connection.
    pub first: Frame,
}

struct HubShared {
    size: usize,
    cfg: NetConfig,
    obs: Obs,
    shutdown: AtomicBool,
    /// Inboxes of the ranks this process hosts, `0..hosted.len()`. Their
    /// entries in `slots` stay empty: no dialer is ever bound to them.
    hosted: Vec<Sender<(Rank, Message)>>,
    slots: std::sync::Mutex<Vec<Slot>>,
    /// Signalled whenever a slot connects or disconnects.
    changed: Condvar,
    /// `Data` frames that came in on one socket and left on another.
    relayed: AtomicU64,
    /// Service-plane connections flow here for [`TcpHub::accept_service`].
    service_tx: Sender<ServiceRequest>,
}

impl HubShared {
    /// The slot table. A panicked holder does not wedge the hub: every
    /// update leaves the table valid at every step.
    fn slots(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Route `msg` to rank `to` on behalf of `from`: the one path every
    /// sender takes, hosted endpoint and socket reader alike. A hosted
    /// destination is a channel push; a remote one is that connection's
    /// bounded writer queue, with backpressure on the sender rather than
    /// buffering without limit.
    fn deliver(&self, from: Rank, to: Rank, msg: Message) -> Result<(), CommError> {
        if to >= self.size {
            return Err(CommError::UnknownRank(to));
        }
        if let Some(inbox) = self.hosted.get(to) {
            return inbox
                .send((from, msg))
                .map_err(|_| CommError::Disconnected(to));
        }
        let mut frame = Frame::Data { from, to, msg };
        loop {
            // Looked up afresh each lap: a full queue to a dead-ish peer
            // resolves when its liveness check clears the slot.
            let Some(out) = self.slots()[to].out.clone() else {
                return Err(CommError::Disconnected(to));
            };
            match out.try_send(frame) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(f)) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return Err(CommError::Disconnected(to));
                    }
                    frame = f;
                    thread::sleep(Duration::from_millis(1));
                }
                Err(TrySendError::Disconnected(_)) => return Err(CommError::Disconnected(to)),
            }
        }
    }

    /// Block until `enough(connected remote ranks)` holds, at most
    /// `timeout`; whether it came to hold.
    fn wait_for_peers(&self, timeout: Duration, enough: impl Fn(usize) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut slots = self.slots();
        loop {
            if enough(slots.iter().filter(|s| s.out.is_some()).count()) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            slots = self
                .changed
                .wait_timeout(slots, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Declare `rank`'s connection (of `generation`) dead. Idempotent and
    /// generation-checked: a reader noticing EOF and a writer noticing a
    /// send error race here harmlessly, and a thread from a replaced
    /// connection cannot kill its successor.
    fn mark_dead(&self, rank: Rank, generation: u64, graceful: bool) {
        let mut slots = self.slots();
        let slot = &mut slots[rank];
        if slot.generation == generation && slot.out.is_some() {
            slot.out = None;
            drop(slots);
            self.changed.notify_all();
            self.obs
                .emit(|| Event::NetPeerDisconnected { rank, graceful });
            if rank >= ranks::FIRST_WORKER {
                self.notify_liveness(Message::PeerDown { rank });
            }
        }
    }

    /// Tell the schedulers a worker's liveness changed. Sends to a dead
    /// peer fail, but a foreman waiting on a result sends nothing, so
    /// without this it would only notice a lost worker when its task timed
    /// out; the synthesized message triggers the eager-requeue path
    /// instead. The master always hears it, and so does the foreman: in
    /// its inbox when hosted, over its connection (if up) when remote.
    fn notify_liveness(&self, msg: Message) {
        let _ = self.hosted[ranks::MASTER].send((ranks::MASTER, msg.clone()));
        if let Some(inbox) = self.hosted.get(ranks::FOREMAN) {
            let _ = inbox.send((ranks::MASTER, msg));
        } else if let Some(out) = self.slots()[ranks::FOREMAN].out.clone() {
            let _ = out.try_send(Frame::Data {
                from: ranks::MASTER,
                to: ranks::FOREMAN,
                msg,
            });
        }
    }
}

/// The endpoint of a rank the hub's own process hosts: an in-process inbox
/// in, the hub's router out. Rank 0's lives inside the [`TcpHub`]; a
/// coordinator's control ranks come from [`TcpHub::bind_hosting`].
pub struct HostedRank {
    rank: Rank,
    shared: Arc<HubShared>,
    inbox: Mutex<Receiver<(Rank, Message)>>,
}

impl Transport for HostedRank {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn send(&self, to: Rank, msg: &Message) -> Result<(), CommError> {
        self.shared.deliver(self.rank, to, msg.clone())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Rank, Message)>, CommError> {
        match self.inbox.lock().recv_timeout(timeout) {
            Ok(pair) => Ok(Some(pair)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(CommError::Disconnected(self.rank)),
        }
    }
}

/// The coordinator's endpoint: rank 0 of a TCP universe, and the handle
/// that owns the hub — dropping it stops the listener and every
/// connection.
pub struct TcpHub {
    master: HostedRank,
    service_rx: Mutex<Receiver<ServiceRequest>>,
    local_addr: SocketAddr,
}

impl TcpHub {
    /// Bind `addr` and start accepting peers for a universe of `size`
    /// ranks (rank 0 is this process; ranks 1..size are remote). Returns
    /// as soon as the listener is up; use [`TcpHub::wait_ready`] to block
    /// until the universe is complete.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        size: usize,
        cfg: NetConfig,
        obs: Obs,
    ) -> io::Result<TcpHub> {
        TcpHub::bind_reserved(addr, size, &[], cfg, obs)
    }

    /// [`TcpHub::bind`] for a coordinator that runs its control ranks
    /// itself: ranks `0..hosted` live in this process — rank 0 is the
    /// returned hub, ranks `1..hosted` the returned endpoints, in rank
    /// order — and only ranks `hosted..size` are remote. A hosted rank is
    /// never assigned to a dialer, not even one asking for it by number.
    pub fn bind_hosting<A: ToSocketAddrs>(
        addr: A,
        size: usize,
        hosted: usize,
        cfg: NetConfig,
        obs: Obs,
    ) -> io::Result<(TcpHub, Vec<HostedRank>)> {
        TcpHub::bind_inner(addr, size, hosted, &[], cfg, obs)
    }

    /// [`TcpHub::bind`] with `reserved` ranks that fresh anonymous joins
    /// can never take: they stay free until a dialer claims them with
    /// `Hello { rejoin: Some(rank) }` (see `ClientConfig::claim`). The
    /// reservations are in place before the accept loop starts, so not
    /// even a peer dialing during startup can race for them.
    // Only the serve daemon needs this (and `claim`, and `Slot::reserved`):
    // it would host its scheduler and monitor ranks like a coordinator does,
    // but benchmark/src/launch.rs:211 starts `serve_farm10`'s clock when it
    // sees `ranks - 1` established connections to the daemon's port.
    pub fn bind_reserved<A: ToSocketAddrs>(
        addr: A,
        size: usize,
        reserved: &[Rank],
        cfg: NetConfig,
        obs: Obs,
    ) -> io::Result<TcpHub> {
        TcpHub::bind_inner(addr, size, 1, reserved, cfg, obs).map(|(hub, _)| hub)
    }

    fn bind_inner<A: ToSocketAddrs>(
        addr: A,
        size: usize,
        hosted: usize,
        reserved: &[Rank],
        cfg: NetConfig,
        obs: Obs,
    ) -> io::Result<(TcpHub, Vec<HostedRank>)> {
        assert!(hosted >= 1, "the hub's process always hosts rank 0");
        assert!(
            size > hosted,
            "a TCP universe needs at least one remote rank"
        );
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..hosted).map(|_| mpsc::channel()).unzip();
        let (service_tx, service_rx) = mpsc::channel();
        let slots = (0..size)
            .map(|rank| Slot {
                reserved: reserved.contains(&rank),
                ..Slot::default()
            })
            .collect();
        let shared = Arc::new(HubShared {
            size,
            cfg,
            obs,
            shutdown: AtomicBool::new(false),
            hosted: inboxes,
            slots: std::sync::Mutex::new(slots),
            changed: Condvar::new(),
            relayed: AtomicU64::new(0),
            service_tx,
        });
        let accept_shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("fdml-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        let mut ends = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| HostedRank {
                rank,
                shared: Arc::clone(&shared),
                inbox: Mutex::new(inbox),
            });
        let hub = TcpHub {
            master: ends.next().expect("rank 0 is hosted"),
            service_rx: Mutex::new(service_rx),
            local_addr,
        };
        Ok((hub, ends.collect()))
    }

    /// Take the next service-plane connection (a `Submit` / `Query` /
    /// `Attach` opener), waiting at most `timeout`. The daemon's API loop
    /// polls this; plain coordinator runs simply never call it, and any
    /// service frame that arrives anyway is answered with a typed
    /// rejection by the handshake when this queue's receiver is gone.
    pub fn accept_service(&self, timeout: Duration) -> Option<ServiceRequest> {
        self.service_rx.lock().recv_timeout(timeout).ok()
    }

    /// The address the hub actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Block until every remote rank has completed its handshake, or fail
    /// after `timeout`.
    pub fn wait_ready(&self, timeout: Duration) -> io::Result<()> {
        let shared = &self.master.shared;
        let remote = shared.size - shared.hosted.len();
        if shared.wait_for_peers(timeout, |connected| connected == remote) {
            return Ok(());
        }
        let connected = self.peer_ranks();
        let missing: Vec<Rank> = (shared.hosted.len()..shared.size)
            .filter(|r| !connected.contains(r))
            .collect();
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("ranks {missing:?} never connected"),
        ))
    }

    /// Block until `enough(`[`TcpHub::connected_peers`]`)` holds, woken by
    /// every handshake and disconnect; `false` if `timeout` passes first.
    pub fn wait_for_peers(&self, timeout: Duration, enough: impl Fn(usize) -> bool) -> bool {
        self.master.shared.wait_for_peers(timeout, enough)
    }

    /// The remote ranks currently connected, in rank order. The daemon's
    /// scheduler polls this to discover workers as they join the shared
    /// fleet (fresh joins are not announced over the foreman's transport
    /// the way reconnects are).
    pub fn peer_ranks(&self) -> Vec<Rank> {
        self.master
            .shared
            .slots()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.out.is_some())
            .map(|(rank, _)| rank)
            .collect()
    }

    /// How many remote ranks are currently connected.
    pub fn connected_peers(&self) -> usize {
        self.peer_ranks().len()
    }

    /// `Data` frames the hub has relayed from one peer's socket to
    /// another's. Zero for a whole flat run whose control ranks are
    /// hosted: workers speak only to the foreman.
    pub fn relayed(&self) -> u64 {
        self.master.shared.relayed.load(Ordering::Relaxed)
    }

    /// Chaos hook: declare `rank`'s connection dead right now, as if its
    /// heartbeats had lapsed. The peer's writer thread drains away, the
    /// peer notices the silent hub and redials, and the rejoin path
    /// re-binds it — used by tests to exercise reconnection without
    /// waiting for real network failures.
    pub fn sever_peer(&self, rank: Rank) {
        let shared = &self.master.shared;
        if rank >= shared.hosted.len() && rank < shared.size {
            let generation = shared.slots()[rank].generation;
            shared.mark_dead(rank, generation, false);
        }
    }
}

impl Drop for TcpHub {
    fn drop(&mut self) {
        self.master.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; one dial wakes it to see the
        // flag and close the listener.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }
}

impl Transport for TcpHub {
    fn rank(&self) -> Rank {
        self.master.rank()
    }

    fn size(&self) -> usize {
        self.master.size()
    }

    fn send(&self, to: Rank, msg: &Message) -> Result<(), CommError> {
        self.master.send(to, msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Rank, Message)>, CommError> {
        self.master.recv_timeout(timeout)
    }
}

/// Accept dialers until the hub is dropped (its `Drop` dials in once to
/// wake this loop out of the blocking `accept`).
fn accept_loop(listener: TcpListener, shared: Arc<HubShared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                let hs = Arc::clone(&shared);
                // Handshake on its own thread: one slow dialer must not
                // stall other peers' accepts.
                let _ = thread::Builder::new()
                    .name("fdml-net-handshake".into())
                    .spawn(move || handshake(stream, hs));
            }
            // Out of descriptors or the like: let it clear.
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handshake(mut stream: TcpStream, shared: Arc<HubShared>) {
    if shared.shutdown.load(Ordering::SeqCst) {
        return;
    }
    let _ = stream.set_nodelay(true);
    let hello = match read_frame(&mut stream, Duration::from_secs(5)) {
        Ok(Some(f)) => f,
        _ => return,
    };
    let rejoin = match hello {
        Frame::Hello {
            version, rejoin, ..
        } if version == PROTOCOL_VERSION => rejoin,
        Frame::Hello { version, .. } => {
            let _ = write_frame(
                &mut stream,
                &Frame::Reject {
                    reason: format!("protocol version {version} != {PROTOCOL_VERSION}"),
                },
            );
            return;
        }
        // Service plane: the connection belongs to the job API. Hand the
        // socket and its opening frame to whoever drains the service
        // queue; if nobody ever will (a plain coordinator run), answer
        // with a typed refusal instead of going silent.
        first @ (Frame::Submit { .. } | Frame::Query { .. } | Frame::Attach { .. }) => {
            if let Err(send_err) = shared.service_tx.send(ServiceRequest { stream, first }) {
                let mut stream = send_err.0.stream;
                let _ = write_frame(
                    &mut stream,
                    &Frame::Rejected {
                        reason: RejectReason::Malformed {
                            reason: "this coordinator does not serve the job API".into(),
                        },
                    },
                );
            }
            return;
        }
        _ => return,
    };

    // Pick (or re-bind) a slot under the lock; do the socket I/O after.
    let (rank, generation, out_rx, reconnected) = {
        let mut slots = shared.slots();
        let (rank, reconnected) = match assign_slot(&slots, shared.hosted.len(), rejoin) {
            Ok(pair) => pair,
            Err(reject) => {
                drop(slots);
                let _ = write_frame(&mut stream, &reject);
                return;
            }
        };
        let slot = &mut slots[rank];
        slot.generation += 1;
        slot.ever_connected = true;
        if reconnected {
            slot.reconnects += 1;
        }
        let (out_tx, out_rx) = mpsc::sync_channel(shared.cfg.queue_depth);
        slot.out = Some(out_tx);
        (rank, slot.generation, out_rx, reconnected)
    };
    shared.changed.notify_all();

    let welcome = Frame::Welcome {
        rank,
        size: shared.size,
        heartbeat_ms: shared.cfg.heartbeat_interval.as_millis() as u64,
        miss_limit: shared.cfg.miss_limit,
    };
    if write_frame(&mut stream, &welcome).is_err() {
        shared.mark_dead(rank, generation, false);
        return;
    }

    if reconnected {
        let reconnects = shared.slots()[rank].reconnects;
        shared
            .obs
            .emit(|| Event::NetPeerReconnected { rank, reconnects });
        if rank >= ranks::FIRST_WORKER {
            shared.notify_liveness(Message::PeerUp { rank });
        }
    } else {
        shared.obs.emit(|| Event::NetPeerConnected { rank });
    }

    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            shared.mark_dead(rank, generation, false);
            return;
        }
    };
    let ws = Arc::clone(&shared);
    let _ = thread::Builder::new()
        .name(format!("fdml-net-w{rank}"))
        .spawn(move || peer_writer(writer_stream, out_rx, rank, generation, ws));
    let rs = Arc::clone(&shared);
    let _ = thread::Builder::new()
        .name(format!("fdml-net-r{rank}"))
        .spawn(move || peer_reader(stream, rank, generation, rs));
}

/// Choose a slot for a connecting peer: `Ok((rank, is_reconnect))`, or
/// the `Reject` frame to answer with. Called with the slot
/// table locked; ranks below `hosted` live in this process and are never
/// given out.
fn assign_slot(slots: &[Slot], hosted: usize, rejoin: Option<Rank>) -> Result<(Rank, bool), Frame> {
    // A rejoin gets its old rank back iff that slot is currently dead.
    if let Some(r) = rejoin {
        if r < hosted {
            return Err(Frame::Reject {
                reason: format!("rank {r} is hosted by the coordinator"),
            });
        }
        if r < slots.len() && slots[r].out.is_none() {
            return Ok((r, slots[r].ever_connected));
        }
    }
    // Fresh joins take the lowest slot never yet used, then the lowest
    // dead slot (a replacement process for a dead peer counts as that
    // rank reconnecting). Reserved slots are excluded from both: they can
    // only ever be taken via the explicit-claim rejoin path above.
    let free = |fresh_only: bool| {
        slots
            .iter()
            .enumerate()
            .skip(hosted)
            .find(|(_, s)| !s.reserved && s.out.is_none() && !(fresh_only && s.ever_connected))
            .map(|(r, s)| (r, s.ever_connected))
    };
    free(true).or_else(|| free(false)).ok_or(Frame::Reject {
        reason: "universe is full".into(),
    })
}

/// Drain a peer's outgoing queue onto its socket — everything queued in
/// one write — and heartbeat when idle.
fn peer_writer(
    mut stream: TcpStream,
    out_rx: Receiver<Frame>,
    rank: Rank,
    generation: u64,
    shared: Arc<HubShared>,
) {
    let mut buf = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let first = match out_rx.recv_timeout(shared.cfg.heartbeat_interval) {
            Ok(frame) => frame,
            Err(mpsc::RecvTimeoutError::Timeout) => Frame::Heartbeat { from: 0 },
            // The slot was cleared (peer declared dead or replaced).
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let written = coalesce_frames(&mut buf, first, || out_rx.try_recv().ok())
            .and_then(|()| stream.write_all(&buf));
        if written.is_err() {
            shared.mark_dead(rank, generation, false);
            return;
        }
    }
}

/// Read a peer's frames, route them, and watch its liveness.
fn peer_reader(mut stream: TcpStream, rank: Rank, generation: u64, shared: Arc<HubShared>) {
    let Ok(mut reader) = FrameReader::new(&stream, shared.cfg.heartbeat_interval) else {
        shared.mark_dead(rank, generation, false);
        return;
    };
    let mut misses: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.next_frame(&mut stream) {
            Ok(Some(frame)) => {
                misses = 0;
                match frame {
                    // Peers can only speak for themselves: whatever `from`
                    // the frame claims, it is attributed to the rank whose
                    // connection it came in on.
                    Frame::Data { to, msg, .. } => {
                        // A dead destination is not this peer's problem:
                        // the foreman's timeout machinery requeues whatever
                        // the message carried.
                        let relay = to >= shared.hosted.len();
                        if shared.deliver(rank, to, msg).is_ok() && relay {
                            shared.relayed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Frame::Heartbeat { .. } => {}
                    Frame::Goodbye { .. } => {
                        shared.mark_dead(rank, generation, true);
                        return;
                    }
                    // Handshake or service frames mid-session: protocol
                    // violation.
                    _ => {
                        shared.mark_dead(rank, generation, false);
                        return;
                    }
                }
            }
            Ok(None) => {
                misses += 1;
                let m = misses;
                shared
                    .obs
                    .emit(|| Event::NetHeartbeatMiss { rank, misses: m });
                if misses >= shared.cfg.miss_limit as u64 {
                    shared.mark_dead(rank, generation, false);
                    return;
                }
            }
            Err(e) => {
                // A CRC failure (or other malformed frame) is *detected*
                // corruption: report it, then treat the peer as lost so
                // the requeue machinery takes over. Never parse garbage.
                if e.kind() == io::ErrorKind::InvalidData {
                    shared.obs.emit(|| Event::FrameCorrupt { rank });
                }
                shared.mark_dead(rank, generation, false);
                return;
            }
        }
    }
}
