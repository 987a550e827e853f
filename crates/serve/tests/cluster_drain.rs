//! Process-level drill for a graceful cluster drain: the real `serve`
//! binary, a discovery file that turns unreadable before shutdown, and a
//! `--recover` restart that must still resume the session the drain
//! could not hand off.

mod support;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use grandma_cluster::{read_cluster, remove_node};
use grandma_events::{EventKind, InputEvent};
use grandma_serve::{
    encode_client, hand_off, ClientFrame, ClusterClient, FrameBuffer, FsyncPolicy, RetryPolicy,
    ServeConfig, ServerFrame, SessionRouter, WalConfig, WIRE_VERSION,
};
use support::{
    assert_session_invariants, baseline, is_subsequence, pace_for_kill, path_str, session_stream,
    tmp_dir, train, wire, Server,
};

/// A wire client that sends frames and waits for the first reply about
/// one session.
struct Wire {
    stream: TcpStream,
    frames: FrameBuffer,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut wire = Self {
            stream,
            frames: FrameBuffer::new(),
        };
        wire.send(&[ClientFrame::Hello {
            version: WIRE_VERSION,
        }]);
        wire
    }

    fn send(&mut self, frames: &[ClientFrame]) {
        let mut bytes = Vec::new();
        for frame in frames {
            encode_client(frame, &mut bytes);
        }
        self.stream.write_all(&bytes).expect("write");
    }

    fn resume(&mut self, session: u64) -> ServerFrame {
        self.send(&[ClientFrame::Resume {
            session,
            last_seq: 0,
        }]);
        let mut chunk = [0u8; 4096];
        loop {
            match self.frames.next_server().expect("server bytes") {
                Some(frame @ (ServerFrame::Resumed { .. } | ServerFrame::Fault { .. })) => {
                    return frame;
                }
                Some(_) => {}
                None => {
                    let n = self.stream.read(&mut chunk).expect("read");
                    assert!(n > 0, "server closed the connection");
                    self.frames.extend(&chunk[..n]);
                }
            }
        }
    }
}

#[test]
fn unreadable_cluster_file_at_shutdown_keeps_sessions_for_recovery() {
    let dir = tmp_dir("cluster-drain");
    let (model, _) = train(&dir);
    let wal = dir.join("wal");
    let cluster = dir.join("cluster.json");

    let node = Server::start(&[
        "--model",
        path_str(&model),
        "--wal",
        "sync",
        "--wal-dir",
        path_str(&wal),
        "--cluster-file",
        path_str(&cluster),
        "--node-id",
        "a",
    ]);
    // A live session with processed events; the connection's own Resume
    // is the fence that proves the shard has applied them.
    let session = 7u64;
    let mut client = Wire::connect(node.addr);
    let events: Vec<ClientFrame> = (1..=5u32)
        .map(|seq| ClientFrame::Event {
            session,
            seq,
            event: InputEvent::new(EventKind::MouseMove, f64::from(seq), 0.0, f64::from(seq)),
        })
        .collect();
    client.send(&[ClientFrame::Open { session }]);
    client.send(&events);
    assert_eq!(
        client.resume(session),
        ServerFrame::Resumed {
            session,
            last_seq: 5,
        }
    );

    // The discovery file turns unreadable, then the node shuts down
    // gracefully: its drain cannot read the ring.
    std::fs::write(&cluster, b"torn registry").expect("corrupt cluster file");
    node.stop();
    drop(client);

    let node = Server::start(&["--model", path_str(&model), "--recover", path_str(&wal)]);
    let mut client = Wire::connect(node.addr);
    assert_eq!(
        client.resume(session),
        ServerFrame::Resumed {
            session,
            last_seq: 5,
        },
        "the session the drain could not hand off must survive for --recover"
    );
    drop(client);
    node.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sessions driven through the member kill, and again as the control
/// wave.
const SESSIONS: u64 = 12;
/// The SIGKILL lands this long into the load.
const KILL_AFTER_MS: u64 = 500;

/// Routing and resume chatter the single-node baseline never emits;
/// stripped before the byte-level comparisons.
fn substantive_wire(frames: Vec<ServerFrame>) -> Vec<Vec<u8>> {
    let frames: Vec<ServerFrame> = frames
        .into_iter()
        .filter(|f| {
            !matches!(
                f,
                ServerFrame::Resumed { .. }
                    | ServerFrame::HandoffAck { .. }
                    | ServerFrame::NotOwner { .. }
            )
        })
        .collect();
    wire(&frames)
}

/// Drives one session through a [`ClusterClient`], sleeping `pace`
/// after each event so a concurrent kill lands mid-stream. A failed send
/// leaves the event in the resume window, so recovery is route repair
/// (pump until a live owner resumes the session), never a re-send.
/// Returns the session's frames and how often it was redirected.
fn drive_cluster(
    cluster_file: &std::path::Path,
    session: u64,
    events: &[InputEvent],
    pace: Duration,
) -> (Vec<ServerFrame>, u64) {
    let policy = RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(160),
        request_timeout: Duration::from_secs(5),
        jitter_seed: 0xC1_0573 ^ session,
    };
    let mut client =
        ClusterClient::connect(cluster_file, session, policy).expect("cluster connect");
    for &event in events {
        if client.send_event(event).is_err() {
            let deadline = Instant::now() + Duration::from_secs(30);
            while client.pump(Duration::from_millis(5)).is_err() {
                assert!(
                    Instant::now() < deadline,
                    "session {session}: no route to a live owner"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.close() {
            Ok(frames) => return (frames, client.redirects()),
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "session {session}: close never routed: {e}"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

#[test]
fn sigkilled_member_hands_its_sessions_to_the_ring_successor() {
    let dir = tmp_dir("cluster-kill");
    let (model, rec) = train(&dir);
    let cluster = dir.join("cluster.json");
    let mut members: Vec<(String, std::path::PathBuf, Server)> = (0..2)
        .map(|i| {
            let id = format!("node-{i}");
            let wal = dir.join(format!("wal-{i}"));
            let server = Server::start(&[
                "--model",
                path_str(&model),
                "--wal",
                "sync",
                "--wal-dir",
                path_str(&wal),
                "--cluster-file",
                path_str(&cluster),
                "--node-id",
                &id,
            ]);
            (id, wal, server)
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    let view = loop {
        if let Ok(view) = read_cluster(&cluster) {
            if view.nodes.len() == members.len() {
                break view;
            }
        }
        assert!(Instant::now() < deadline, "registry never converged");
        std::thread::sleep(Duration::from_millis(10));
    };

    // The victim: the member owning the most sessions.
    let owned_by = |addr: SocketAddr| {
        (1..=SESSIONS)
            .filter(|&s| view.owner_addr(s) == Some(addr))
            .count()
    };
    let victim = (0..members.len())
        .max_by_key(|&i| owned_by(members[i].2.addr))
        .expect("members");
    let (victim_id, victim_wal, victim_server) = members.remove(victim);
    let victim_addr = victim_server.addr;
    assert!(owned_by(victim_addr) >= 1, "victim owns no sessions");
    let pace = pace_for_kill(1..=SESSIONS, KILL_AFTER_MS);

    std::thread::scope(|scope| {
        let agent = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(KILL_AFTER_MS));
            victim_server.kill();
            // Recovery agent, in order: replay the victim's WAL into a
            // fresh router, drain it, hand every snapshot to the ring
            // minus the victim, and only then deregister the victim.
            // Until then clients keep retrying the dead address, so no
            // Resume can race ahead of its session's handoff.
            let router = SessionRouter::new(
                rec.clone(),
                ServeConfig {
                    shards: 4,
                    queue_capacity: 1 << 15,
                    ..ServeConfig::default()
                },
            );
            router
                .recover(&WalConfig::new(&victim_wal, FsyncPolicy::Async))
                .expect("replay victim wal");
            let snapshots = router.drain_sessions();
            router.shutdown();
            let mut successors = read_cluster(&cluster).expect("read registry");
            successors.nodes.retain(|n| n.id != victim_id);
            let refused = hand_off(&successors, snapshots);
            assert!(
                refused.is_empty(),
                "{} handoffs were not acked",
                refused.len()
            );
            remove_node(&cluster, &victim_id).expect("deregister victim");
        });
        for session in 1..=SESSIONS {
            let (rec, cluster) = (&rec, &cluster);
            let moved = view.owner_addr(session) == Some(victim_addr);
            scope.spawn(move || {
                let events = session_stream(session);
                let (frames, redirects) = drive_cluster(cluster, session, &events, pace);
                assert_session_invariants(session, &frames);
                let got = substantive_wire(frames);
                let want = baseline(rec, session, &events);
                if moved {
                    assert!(redirects >= 1, "moved session {session} never redirected");
                    assert!(
                        is_subsequence(&got, &want),
                        "moved session {session}: frames are not a subsequence of the baseline"
                    );
                } else {
                    assert_eq!(
                        got, want,
                        "unmoved session {session}: frames must be byte-identical"
                    );
                }
            });
        }
        agent.join().expect("recovery agent");
    });

    // Control wave: fresh sessions against the surviving membership are
    // byte-identical to the baseline; the handoffs contaminated nothing.
    std::thread::scope(|scope| {
        for session in 1001..=(1000 + SESSIONS) {
            let (rec, cluster) = (&rec, &cluster);
            scope.spawn(move || {
                let events = session_stream(session);
                let (frames, _) = drive_cluster(cluster, session, &events, Duration::ZERO);
                assert_session_invariants(session, &frames);
                assert_eq!(
                    substantive_wire(frames),
                    baseline(rec, session, &events),
                    "control session {session}: frames must be byte-identical"
                );
            });
        }
    });

    // Survivors stop gracefully and exit 0.
    for (_, _, server) in members {
        server.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
