//! Process-level crash drill: the real `serve` binary under `--wal sync`
//! is SIGKILLed mid-load, its WAL directory is frozen as a crash image,
//! and a restart with `--recover` must let every client resume and
//! finish through the crash.
//!
//! - Each crashed session's frames are a subsequence of the never-crashed
//!   in-process baseline (frames in flight at the kill are lost, never
//!   altered), with no foreign frames, no duplicate outcome and exactly
//!   one `Closed`, last.
//! - Fresh control sessions against the recovered server are
//!   byte-identical to the baseline.
//! - The frozen crash image replays through `SessionRouter::recover`.
//!
//! `tests/recovery.rs` pins the same guarantees hermetically, with a
//! point-in-time copy of the WAL in place of the SIGKILL.

mod support;

use std::path::Path;
use std::time::Duration;

use grandma_serve::{FsyncPolicy, ServeConfig, SessionRouter, WalConfig};
use support::{
    assert_session_invariants, baseline, drive, is_subsequence, pace_for_kill, path_str,
    session_stream, tmp_dir, train, wire, Server,
};

/// Sessions driven through the crash, and again as the control group.
const SESSIONS: u64 = 12;
/// The SIGKILL lands this long into the load.
const KILL_AFTER_MS: u64 = 400;

/// `serve run` on `addr` with a sync WAL in `wal`, recovering from it
/// first when `recover`.
fn start(model: &Path, addr: &str, wal: &Path, recover: bool) -> Server {
    let mut args = vec![
        "--model",
        path_str(model),
        "--addr",
        addr,
        "--wal",
        "sync",
        "--wal-dir",
        path_str(wal),
    ];
    if recover {
        args.extend(["--recover", path_str(wal)]);
    }
    Server::start(&args)
}

fn copy_wal_image(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir image");
    for entry in std::fs::read_dir(from).expect("read wal dir").flatten() {
        if entry.file_name().to_string_lossy().starts_with("shard-") {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy wal file");
        }
    }
}

#[test]
fn sigkill_mid_load_then_recover_resumes_every_session() {
    let dir = tmp_dir("kill-recover");
    let (model, rec) = train(&dir);

    // A fixed port, so clients can redial the restarted server.
    let addr_str = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        probe.local_addr().expect("probe addr").to_string()
    };
    let wal = dir.join("wal");
    let image = dir.join("wal-kill-image");
    let first = start(&model, &addr_str, &wal, false);
    let addr = first.addr;

    // Pace sends so every session still has events in flight when the
    // SIGKILL lands, and finishes only after recovery.
    let pace = pace_for_kill(1..=SESSIONS, KILL_AFTER_MS);

    let (recovered, reconnects) = std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(KILL_AFTER_MS));
            first.kill();
            // Freeze the crash image before the recovering server
            // compacts the log.
            copy_wal_image(&wal, &image);
            start(&model, &addr_str, &wal, true)
        });
        let clients: Vec<_> = (1..=SESSIONS)
            .map(|session| {
                let rec = rec.clone();
                scope.spawn(move || {
                    let events = session_stream(session);
                    let (frames, reconnects) = drive(addr, session, &events, pace, None);
                    assert_session_invariants(session, &frames);
                    assert!(
                        is_subsequence(&wire(&frames), &baseline(&rec, session, &events)),
                        "crashed session {session}: frames are not a subsequence of the baseline"
                    );
                    reconnects
                })
            })
            .collect();
        let reconnects: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
        (killer.join().expect("killer"), reconnects)
    });
    assert!(
        reconnects >= 1,
        "the kill landed after every client finished"
    );

    // Control group: fresh sessions against the recovered server.
    std::thread::scope(|scope| {
        for session in 1001..=(1000 + SESSIONS) {
            let rec = rec.clone();
            scope.spawn(move || {
                let events = session_stream(session);
                let (frames, _) = drive(addr, session, &events, Duration::ZERO, None);
                assert_session_invariants(session, &frames);
                assert_eq!(
                    wire(&frames),
                    baseline(&rec, session, &events),
                    "post-recovery session {session}: frames must be byte-identical"
                );
            });
        }
    });
    recovered.stop();

    // The frozen crash image replays.
    let router = SessionRouter::new(
        rec,
        ServeConfig {
            shards: 4,
            queue_capacity: 1 << 15,
            ..ServeConfig::default()
        },
    );
    let report = router
        .recover(&WalConfig::new(&image, FsyncPolicy::Async))
        .expect("replay crash image");
    router.shutdown();
    assert!(report.sessions > 0 && report.frames > 0, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
