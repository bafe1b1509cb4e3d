//! Transport conformance: one behavioural contract, two implementations.
//!
//! Every check here runs against the threaded transport (ranks as OS
//! threads over channels) and the TCP transport (ranks as processes behind
//! a hub, here exercised in-process over loopback) — the latter both with
//! every rank but 0 remote and the way a coordinator lays it out, ranks
//! 0–2 hosted by the hub and only the workers remote. The run loops in
//! `fdml-core` are written against the `Transport` trait alone, so any
//! semantic daylight between the two implementations — ordering, timeout
//! behaviour, failure surfaced — would show up as a parallel run behaving
//! differently across processes than across threads.

use fdml_comm::message::Message;
use fdml_comm::threads::ThreadUniverse;
use fdml_comm::transport::{CommError, Transport};
use fdml_net::wire::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use fdml_net::{ClientConfig, HostedRank, NetConfig, TcpHub, TcpTransport};
use fdml_obs::{Event, MemorySink, Obs};
use fdml_wire::checksum::crc32;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

type Universe = Vec<Box<dyn Transport>>;

fn thread_universe(n: usize) -> Universe {
    ThreadUniverse::create(n)
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .collect()
}

/// Liveness tuned fast enough for tests without being racy.
fn fast_net_config() -> NetConfig {
    NetConfig {
        heartbeat_interval: Duration::from_millis(40),
        miss_limit: 4,
        ..NetConfig::default()
    }
}

fn tcp_universe(n: usize) -> Universe {
    let hub = TcpHub::bind("127.0.0.1:0", n, fast_net_config(), Obs::disabled()).unwrap();
    let addr = hub.local_addr();
    let mut ends: Universe = vec![Box::new(hub)];
    // Sequential connects: each handshake completes before the next dial,
    // so rank assignment is deterministic (arrival order).
    for expect in 1..n {
        let t = TcpTransport::connect(addr).unwrap();
        assert_eq!(t.rank(), expect);
        ends.push(Box::new(t));
    }
    ends
}

/// A coordinator's layout: the hub hosts ranks 0–2 (fewer in a universe
/// too small to leave a remote rank), the rest dial in.
fn hosted_universe(n: usize) -> Universe {
    let hosted = n.min(4) - 1;
    let (hub, ends) =
        TcpHub::bind_hosting("127.0.0.1:0", n, hosted, fast_net_config(), Obs::disabled()).unwrap();
    let addr = hub.local_addr();
    let mut universe: Universe = vec![Box::new(hub)];
    universe.extend(ends.into_iter().map(|e| Box::new(e) as Box<dyn Transport>));
    for expect in hosted..n {
        let t = TcpTransport::connect(addr).unwrap();
        assert_eq!(t.rank(), expect);
        universe.push(Box::new(t));
    }
    universe
}

/// Run one check against every transport.
fn for_both(n: usize, check: fn(Universe)) {
    check(thread_universe(n));
    check(tcp_universe(n));
    check(hosted_universe(n));
}

fn task(t: u64) -> Message {
    Message::TreeTask {
        task: t,
        newick: "(a,b);".into(),
    }
}

/// Wait for a condition that becomes true asynchronously (TCP delivery is
/// not instantaneous the way a channel push is).
fn eventually(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for: {what}");
}

#[test]
fn ranks_and_size_are_consistent() {
    for_both(4, |ends| {
        for (i, e) in ends.iter().enumerate() {
            assert_eq!(e.rank(), i);
            assert_eq!(e.size(), 4);
        }
    });
}

#[test]
fn fifo_order_is_preserved_per_sender() {
    for_both(4, |ends| {
        for t in 0..20u64 {
            ends[1].send(0, &task(t)).unwrap();
        }
        for t in 0..20u64 {
            let (from, msg) = ends[0].recv().unwrap();
            assert_eq!(from, 1);
            match msg {
                Message::TreeTask { task, .. } => assert_eq!(task, t),
                other => panic!("unexpected {other:?}"),
            }
        }
    });
}

#[test]
fn peer_to_peer_routing_works_both_directions() {
    for_both(5, |ends| {
        // Worker (rank 3) to foreman (rank 1) and back: over TCP neither
        // is the hub, so this exercises the relay path.
        ends[3].send(1, &Message::WorkerReady).unwrap();
        let (from, msg) = ends[1].recv().unwrap();
        assert_eq!(from, 3);
        assert_eq!(msg, Message::WorkerReady);
        ends[1].send(3, &task(7)).unwrap();
        let (from, msg) = ends[3].recv().unwrap();
        assert_eq!(from, 1);
        assert!(matches!(msg, Message::TreeTask { task: 7, .. }));
    });
}

#[test]
fn recv_timeout_returns_none_cleanly() {
    for_both(4, |ends| {
        for e in &ends {
            let got = e.recv_timeout(Duration::from_millis(30)).unwrap();
            assert!(got.is_none());
            let got = e.try_recv().unwrap();
            assert!(got.is_none());
        }
        // The endpoint is still fully usable after timeouts.
        ends[2].send(0, &Message::WorkerReady).unwrap();
        let (from, _) = ends[0].recv().unwrap();
        assert_eq!(from, 2);
    });
}

#[test]
fn self_send_is_delivered() {
    for_both(4, |ends| {
        for e in &ends {
            e.send(e.rank(), &Message::Shutdown).unwrap();
            let (from, msg) = e.recv().unwrap();
            assert_eq!(from, e.rank());
            assert_eq!(msg, Message::Shutdown);
        }
    });
}

#[test]
fn unknown_rank_is_rejected() {
    for_both(4, |ends| {
        assert_eq!(
            ends[0].send(99, &Message::Shutdown),
            Err(CommError::UnknownRank(99))
        );
        assert_eq!(
            ends[3].send(99, &Message::Shutdown),
            Err(CommError::UnknownRank(99))
        );
    });
}

#[test]
fn broadcast_reaches_everyone_but_self() {
    for_both(5, |ends| {
        ends[0].broadcast(&Message::Shutdown).unwrap();
        for e in &ends[1..] {
            let (from, msg) = e.recv().unwrap();
            assert_eq!(from, 0);
            assert_eq!(msg, Message::Shutdown);
        }
        assert!(ends[0].try_recv().unwrap().is_none());
        // And from a non-hub rank.
        ends[2].broadcast(&Message::WorkerReady).unwrap();
        for e in &ends {
            if e.rank() == 2 {
                continue;
            }
            let (from, msg) = e.recv().unwrap();
            assert_eq!(from, 2);
            assert_eq!(msg, Message::WorkerReady);
        }
    });
}

#[test]
fn dropping_an_endpoint_fails_sends_to_it() {
    for_both(4, |mut ends| {
        let dropped = ends.remove(3);
        drop(dropped);
        // Threads: immediate. TCP: the Goodbye must reach the hub first.
        eventually(
            || ends[0].send(3, &Message::Shutdown) == Err(CommError::Disconnected(3)),
            "send to the departed rank to fail Disconnected",
        );
    });
}

// ---- TCP-specific protocol behaviour -----------------------------------

#[test]
fn version_skew_is_rejected() {
    let hub = TcpHub::bind("127.0.0.1:0", 2, fast_net_config(), Obs::disabled()).unwrap();
    let mut stream = TcpStream::connect(hub.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION + 999,
            rejoin: None,
            job: None,
        },
    )
    .unwrap();
    match read_frame(&mut stream, Duration::from_secs(5)).unwrap() {
        Some(Frame::Reject { reason }) => assert!(reason.contains("version")),
        other => panic!("expected Reject, got {other:?}"),
    }
    // And the high-level client maps it to an error.
    assert_eq!(hub.connected_peers(), 0);
}

#[test]
fn a_worker_from_an_older_build_is_rejected_at_the_handshake() {
    // Protocol 3 scored one edit per `TreeEditTask`; this build sends
    // `EditChunk`s (binary tag 26), which a version-3 decoder cannot read.
    // Protocol 4 announced regional foremen in its `Welcome` and spoke the
    // foreman tree's messages (binary tags 20-23), which this build no
    // longer decodes. Protocol 5 sent a resumed jumble without the
    // numerics epoch of its prefix (binary tag 25), which this build
    // refuses. Protocol 6 still knew the batch frame (binary tag 19).
    // Protocol 7 sent a farm's jumbles as `JumbleTask`s and answered them
    // with job-less `JumbleResult`s (binary tags 4 and 5). Such a worker
    // must learn that from a typed `Reject` when it joins, not from a
    // `BadTag` in the middle of a run.
    assert_eq!(PROTOCOL_VERSION, 8);
    let hub = TcpHub::bind("127.0.0.1:0", 2, fast_net_config(), Obs::disabled()).unwrap();
    for old in [3, 4, 5, 6, 7] {
        let mut stream = TcpStream::connect(hub.local_addr()).unwrap();
        // The `Hello` as those builds wrote it, naming the wire format its
        // writer used — a field this build no longer has.
        let hello =
            format!(r#"{{"Hello":{{"version":{old},"rejoin":null,"job":null,"wire":"binary"}}}}"#);
        let mut raw = (hello.len() as u32).to_be_bytes().to_vec();
        raw.extend(crc32(hello.as_bytes()).to_be_bytes());
        raw.extend(hello.as_bytes());
        stream.write_all(&raw).unwrap();
        match read_frame(&mut stream, Duration::from_secs(5)).unwrap() {
            Some(Frame::Reject { reason }) => {
                let expected = format!("protocol version {old} != 8");
                assert!(reason.contains(&expected), "got: {reason}")
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        assert_eq!(hub.connected_peers(), 0);
    }
    // The slot it asked for is still free for a current-build worker.
    let _current = TcpTransport::connect(hub.local_addr()).unwrap();
    assert_eq!(hub.connected_peers(), 1);
}

#[test]
fn full_universe_is_rejected() {
    let hub = TcpHub::bind("127.0.0.1:0", 2, fast_net_config(), Obs::disabled()).unwrap();
    let addr = hub.local_addr();
    let _first = TcpTransport::connect(addr).unwrap();
    let err = TcpTransport::connect(addr).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
}

#[test]
fn cross_job_rejoin_is_rejected_with_typed_reason() {
    use fdml_comm::job::RejectReason;
    let hub = TcpHub::bind("127.0.0.1:0", 2, fast_net_config(), Obs::disabled()).unwrap();
    let addr = hub.local_addr();

    // A worker dedicated to job 1 claims rank 1, then dies.
    let mut a = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut a,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            rejoin: None,
            job: Some(1),
        },
    )
    .unwrap();
    let welcome = read_frame(&mut a, Duration::from_secs(5)).unwrap();
    assert!(matches!(welcome, Some(Frame::Welcome { rank: 1, .. })));
    hub.sever_peer(1);

    // The generation check alone would admit this: the slot is dead and
    // the rank matches. The cross-job guard must still refuse it, because
    // the slot belongs to job 1 and this client claims job 2.
    let mut b = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut b,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            rejoin: Some(1),
            job: Some(2),
        },
    )
    .unwrap();
    match read_frame(&mut b, Duration::from_secs(5)).unwrap() {
        Some(Frame::Rejected { reason }) => assert_eq!(
            reason,
            RejectReason::WrongJob {
                rank: 1,
                bound: Some(1),
                presented: Some(2),
            }
        ),
        other => panic!("expected a typed WrongJob rejection, got {other:?}"),
    }
    assert_eq!(hub.connected_peers(), 0);

    // The rightful owner (same job binding) still gets its slot back.
    let mut c = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut c,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            rejoin: Some(1),
            job: Some(1),
        },
    )
    .unwrap();
    let welcome = read_frame(&mut c, Duration::from_secs(5)).unwrap();
    assert!(matches!(welcome, Some(Frame::Welcome { rank: 1, .. })));
}

#[test]
fn reserved_slots_are_skipped_by_fresh_joins_and_taken_by_claims() {
    // The daemon's startup contract: ranks 1 and 2 are reserved before
    // the accept loop runs, so an eager external worker cannot steal the
    // scheduler's slot, while explicit claims still land exactly there.
    let hub = TcpHub::bind_reserved(
        "127.0.0.1:0",
        4,
        &[1, 2],
        fast_net_config(),
        Obs::disabled(),
    )
    .unwrap();
    let addr = hub.local_addr();

    // An anonymous fresh join is pushed past both reservations.
    let eager = TcpTransport::connect(addr).unwrap();
    assert_eq!(eager.rank(), 3);

    // Explicit claims take the reserved slots.
    let claim = |rank| {
        TcpTransport::connect_observed(
            addr,
            ClientConfig {
                claim: Some(rank),
                ..ClientConfig::default()
            },
            Obs::disabled(),
        )
        .unwrap()
    };
    let foreman = claim(1);
    assert_eq!(foreman.rank(), 1);
    let monitor = claim(2);
    assert_eq!(monitor.rank(), 2);

    // With the universe now full, another anonymous dial is refused —
    // reserved slots never fall back to the fresh-join pool.
    let err = TcpTransport::connect(addr).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
}

/// A coordinator's hub — ranks 0–2 hosted — for a universe of `n`.
fn coordinator_hub(n: usize, obs: Obs) -> (TcpHub, HostedRank, HostedRank) {
    let (hub, mut ends) =
        TcpHub::bind_hosting("127.0.0.1:0", n, 3, fast_net_config(), obs).unwrap();
    let monitor = ends.pop().unwrap();
    let foreman = ends.pop().unwrap();
    (hub, foreman, monitor)
}

#[test]
fn hosted_ranks_talk_with_no_peer_connected() {
    // Master, foreman and monitor are channel pushes apart: no socket is
    // involved, so the traffic flows before any worker has dialed.
    let (hub, foreman, monitor) = coordinator_hub(5, Obs::disabled());
    assert_eq!(hub.connected_peers(), 0);
    assert_eq!((foreman.rank(), monitor.rank()), (1, 2));
    assert_eq!((foreman.size(), monitor.size()), (5, 5));
    for t in 0..20 {
        hub.send(1, &task(t)).unwrap();
        foreman.send(2, &task(t)).unwrap();
    }
    for t in 0..20 {
        assert_eq!(foreman.recv().unwrap(), (0, task(t)));
        assert_eq!(monitor.recv().unwrap(), (1, task(t)));
    }
    monitor.send(0, &Message::Shutdown).unwrap();
    assert_eq!(hub.recv().unwrap(), (2, Message::Shutdown));
    // A worker that has not joined yet is simply not there.
    assert_eq!(
        foreman.send(3, &Message::Shutdown),
        Err(CommError::Disconnected(3))
    );
    assert_eq!(hub.relayed(), 0);
}

#[test]
fn hosted_and_remote_ranks_exchange_in_order_and_only_peers_are_relayed() {
    let (hub, foreman, _monitor) = coordinator_hub(5, Obs::disabled());
    let a = TcpTransport::connect(hub.local_addr()).unwrap();
    let b = TcpTransport::connect(hub.local_addr()).unwrap();
    assert_eq!((a.rank(), b.rank()), (3, 4));
    // Foreman → worker and back, a burst each way: once each, FIFO.
    for t in 0..200 {
        foreman.send(3, &task(t)).unwrap();
        a.send(1, &task(1000 + t)).unwrap();
    }
    for t in 0..200 {
        assert_eq!(a.recv().unwrap(), (1, task(t)));
        assert_eq!(foreman.recv().unwrap(), (3, task(1000 + t)));
    }
    assert!(a.try_recv().unwrap().is_none());
    assert!(foreman.try_recv().unwrap().is_none());
    // None of that went from one socket to another...
    assert_eq!(hub.relayed(), 0);
    // ... which only worker-to-worker traffic does.
    a.send(4, &Message::WorkerReady).unwrap();
    assert_eq!(b.recv().unwrap(), (3, Message::WorkerReady));
    assert_eq!(hub.relayed(), 1);
}

#[test]
fn hosted_ranks_are_never_given_to_a_dialer() {
    let (hub, _foreman, _monitor) = coordinator_hub(4, Obs::disabled());
    let addr = hub.local_addr();
    // Asking for a hosted rank by number is refused outright — not quietly
    // turned into a fresh join.
    for hosted in 0..3 {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut stream,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                rejoin: Some(hosted),
                job: None,
            },
        )
        .unwrap();
        match read_frame(&mut stream, Duration::from_secs(5)).unwrap() {
            Some(Frame::Reject { reason }) => assert!(reason.contains("hosted"), "{reason}"),
            other => panic!("expected Reject, got {other:?}"),
        }
    }
    assert_eq!(hub.connected_peers(), 0);
    // A fresh join gets the first remote rank; the next finds the universe
    // full rather than spilling into ranks 1 or 2.
    let worker = TcpTransport::connect(addr).unwrap();
    assert_eq!(worker.rank(), 3);
    hub.wait_ready(Duration::from_secs(5)).unwrap();
    let err = TcpTransport::connect(addr).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
}

#[test]
fn a_lost_worker_is_announced_to_the_master_and_the_hosted_foreman() {
    let (hub, foreman, monitor) = coordinator_hub(4, Obs::disabled());
    let mut stream = TcpStream::connect(hub.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            rejoin: None,
            job: None,
        },
    )
    .unwrap();
    let welcome = read_frame(&mut stream, Duration::from_secs(5)).unwrap();
    assert!(matches!(welcome, Some(Frame::Welcome { rank: 3, .. })));
    // The worker's process dies: no Goodbye, just a closed socket.
    drop(stream);
    let down = Message::PeerDown { rank: 3 };
    assert_eq!(hub.recv().unwrap(), (0, down.clone()));
    assert_eq!(foreman.recv().unwrap(), (0, down));
    assert!(monitor.try_recv().unwrap().is_none());
    assert!(hub.wait_for_peers(Duration::from_secs(5), |connected| connected == 0));
}

#[test]
fn an_idle_connection_still_carries_heartbeats() {
    // Writers pack what is queued into one write; with nothing queued they
    // must still speak once per interval, or the other side's miss counter
    // would declare a healthy, idle peer dead.
    let hub = TcpHub::bind("127.0.0.1:0", 2, fast_net_config(), Obs::disabled()).unwrap();
    let mut stream = TcpStream::connect(hub.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            rejoin: None,
            job: None,
        },
    )
    .unwrap();
    let welcome = read_frame(&mut stream, Duration::from_secs(5)).unwrap();
    assert!(matches!(welcome, Some(Frame::Welcome { rank: 1, .. })));
    for _ in 0..2 {
        let beat = read_frame(&mut stream, Duration::from_secs(5)).unwrap();
        assert_eq!(beat, Some(Frame::Heartbeat { from: 0 }));
    }
    // And the client's side of the same contract: an idle endpoint stays
    // connected well past the miss limit.
    drop(stream);
    let hub = TcpHub::bind("127.0.0.1:0", 2, fast_net_config(), Obs::disabled()).unwrap();
    let client = TcpTransport::connect(hub.local_addr()).unwrap();
    std::thread::sleep(fast_net_config().heartbeat_interval * 8);
    assert_eq!(hub.connected_peers(), 1);
    assert!(!client.is_dead());
}

#[test]
fn service_opener_is_handed_off_with_its_frame() {
    use fdml_comm::job::RejectReason;
    let hub = TcpHub::bind("127.0.0.1:0", 2, fast_net_config(), Obs::disabled()).unwrap();
    let mut client = TcpStream::connect(hub.local_addr()).unwrap();
    write_frame(&mut client, &Frame::Query { job: 9 }).unwrap();

    // The hub does not treat the opener as a rank: it hands socket and
    // frame to the service queue, and the compute universe is untouched.
    let mut req = hub
        .accept_service(Duration::from_secs(5))
        .expect("service opener handed off");
    assert!(matches!(req.first, Frame::Query { job: 9 }));
    assert_eq!(hub.connected_peers(), 0);

    // The handed-off socket is live: a reply written on it reaches the
    // original client.
    write_frame(
        &mut req.stream,
        &Frame::Rejected {
            reason: RejectReason::UnknownJob { job: 9 },
        },
    )
    .unwrap();
    match read_frame(&mut client, Duration::from_secs(5)).unwrap() {
        Some(Frame::Rejected { reason }) => {
            assert_eq!(reason, RejectReason::UnknownJob { job: 9 })
        }
        other => panic!("expected the relayed rejection, got {other:?}"),
    }
}

#[test]
fn silent_peer_is_declared_dead_by_heartbeat_misses() {
    let mem = MemorySink::new();
    let cfg = NetConfig {
        heartbeat_interval: Duration::from_millis(25),
        miss_limit: 3,
        ..NetConfig::default()
    };
    let hub = TcpHub::bind("127.0.0.1:0", 2, cfg, Obs::new(Box::new(mem.clone()))).unwrap();
    // A raw socket that handshakes and then goes silent forever — the
    // stand-in for a wedged worker process. (A real client would be
    // heartbeating.)
    let mut stream = TcpStream::connect(hub.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            rejoin: None,
            job: None,
        },
    )
    .unwrap();
    let welcome = read_frame(&mut stream, Duration::from_secs(5)).unwrap();
    assert!(matches!(welcome, Some(Frame::Welcome { rank: 1, .. })));
    eventually(
        || hub.connected_peers() == 0,
        "hub to declare the peer dead",
    );
    let events: Vec<Event> = mem.snapshot().into_iter().map(|r| r.event).collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::NetHeartbeatMiss { rank: 1, .. })),
        "expected heartbeat misses, got {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::NetPeerDisconnected {
                rank: 1,
                graceful: false
            }
        )),
        "expected an ungraceful disconnect, got {events:?}"
    );
    // Sends to the dead rank now fail, which is what lets the foreman's
    // requeue machinery take over.
    assert_eq!(
        hub.send(1, &Message::Shutdown),
        Err(CommError::Disconnected(1))
    );
}

#[test]
fn severed_client_reconnects_and_traffic_resumes() {
    let mem = MemorySink::new();
    let cfg = NetConfig {
        heartbeat_interval: Duration::from_millis(25),
        miss_limit: 3,
        ..NetConfig::default()
    };
    let hub = TcpHub::bind("127.0.0.1:0", 2, cfg, Obs::new(Box::new(mem.clone()))).unwrap();
    let addr = hub.local_addr();
    let client = TcpTransport::connect_observed(
        addr,
        ClientConfig {
            reconnect_attempts: 10,
            reconnect_backoff: Duration::from_millis(20),
            ..ClientConfig::default()
        },
        Obs::disabled(),
    )
    .unwrap();
    assert_eq!(client.rank(), 1);

    // Chaos: the hub declares the link dead. The client notices the silent
    // hub via its own heartbeat misses and redials with rejoin.
    hub.sever_peer(1);
    eventually(|| hub.connected_peers() == 1, "client to rejoin its slot");
    assert!(!client.is_dead());

    // Traffic flows again in both directions over the new connection.
    hub.send(1, &Message::WorkerReady).unwrap();
    let (from, msg) = client.recv().unwrap();
    assert_eq!((from, msg), (0, Message::WorkerReady));
    client.send(0, &Message::Shutdown).unwrap();
    let (from, msg) = hub.recv().unwrap();
    assert_eq!((from, msg), (1, Message::Shutdown));

    let events: Vec<Event> = mem.snapshot().into_iter().map(|r| r.event).collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::NetPeerReconnected { rank: 1, .. })),
        "expected a reconnect event, got {events:?}"
    );
}

#[test]
fn dead_hub_exhausts_reconnects_and_surfaces_disconnected() {
    let cfg = NetConfig {
        heartbeat_interval: Duration::from_millis(25),
        miss_limit: 2,
        ..NetConfig::default()
    };
    let hub = TcpHub::bind("127.0.0.1:0", 2, cfg, Obs::disabled()).unwrap();
    let addr = hub.local_addr();
    let client = TcpTransport::connect_observed(
        addr,
        ClientConfig {
            reconnect_attempts: 2,
            reconnect_backoff: Duration::from_millis(10),
            ..ClientConfig::default()
        },
        Obs::disabled(),
    )
    .unwrap();
    // The whole coordinator goes away: listener and per-peer threads wind
    // down, so every redial is refused.
    drop(hub);
    eventually(
        || client.is_dead(),
        "client to exhaust its backoff schedule",
    );
    assert_eq!(
        client.recv_timeout(Duration::from_millis(10)),
        Err(CommError::Disconnected(1))
    );
    assert_eq!(
        client.send(0, &Message::WorkerReady),
        Err(CommError::Disconnected(1))
    );
}
