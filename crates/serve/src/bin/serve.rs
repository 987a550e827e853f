//! The `serve` binary: train-and-persist a recognizer, then serve it
//! over TCP.
//!
//! ```text
//! serve train --out model.txt [--seed N] [--per-class N]
//! serve run --model model.txt [--addr 127.0.0.1:0] [--shards N]
//!           [--queue-capacity N] [--flush-bytes N] [--io-threads N]
//!           [--max-connections N] [--idle-timeout-ms N]
//!           [--poll-backend auto|poll|epoll]
//!           [--wal off|async|sync] [--wal-dir DIR] [--recover DIR]
//!           [--cluster-file PATH] [--node-id ID]
//! ```
//!
//! `--queue-capacity` bounds each shard's inbound queue (full queues
//! reject with `Busy`); `--flush-bytes` sets the per-connection encode
//! buffer's initial size — the retained-capacity ceiling is 16× that.
//! `--io-threads` sizes the reactor's poll-loop pool (0 = `min(4,
//! cores)`); `--max-connections` sheds connections beyond the cap at
//! accept time; `--idle-timeout-ms` reaps connections that send nothing
//! for the window (0 = never). `--poll-backend` picks the reactor's
//! readiness backend: `epoll` is O(ready) per wakeup, `poll` rebuilds
//! and scans the whole descriptor set (O(open)); `auto` (the default)
//! uses epoll on Linux and poll elsewhere. At startup the process
//! raises its soft `RLIMIT_NOFILE` to the hard limit (logged on
//! stderr) so high `--max-connections` settings don't hit EMFILE at
//! the distro-default 1024.
//!
//! `--wal` enables the per-shard write-ahead log (DESIGN.md §14):
//! `async` appends without fsync (survives process crashes), `sync`
//! survives power loss: one fsync per group of up to 64 queued frames,
//! each reply held until its group's fsync lands; `off` (the default) logs
//! nothing. `--wal-dir` picks the log directory (default `grandma-wal`);
//! starting with a WAL but *without* `--recover` clears any stale log
//! there first. `--recover DIR` replays DIR's snapshots + log tail into
//! the fresh router before accepting connections — run it after a crash
//! to resume every session that was live, then keep logging to the same
//! directory.
//!
//! `--cluster-file` joins a multi-node cluster (DESIGN.md §15): the
//! process registers `--node-id` (default `node-<pid>`) and its bound
//! address in the shared discovery file, installs the ownership fence
//! (foreign `Open`/`Resume` answered with `NotOwner { owner }`), and on
//! graceful shutdown deregisters, drains its live sessions, and hands
//! each one to its ring successor over wire-v4 `Handoff` frames. A WAL
//! directory is additionally guarded by a pid-stamped `wal.lock`: two
//! servers appending to the same shard logs would corrupt both.
//!
//! `run` loads a *persisted* recognizer (`grandma_core::persist`) rather
//! than retraining — a server restart serves the exact same classifier,
//! bit for bit. It prints `listening on <addr>` on stdout, serves until
//! stdin reaches EOF (or a line is entered) or `SIGINT`/`SIGTERM`
//! arrives, then shuts down gracefully — stops accepting, drains the
//! shards, seals live sessions into the WAL snapshot when one is
//! configured — and prints the service metrics snapshot as JSON.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use grandma_cluster::{read_cluster, register_node, remove_node};
use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_serve::sys::{poll_fds, raise_nofile_limit, PollFd, SignalPipe, POLLIN, SIGINT, SIGTERM};
use grandma_serve::{
    encode_client, ClientFrame, FrameBuffer, FsyncPolicy, PollBackend, ServeConfig, ServerFrame,
    SessionRouter, TcpOptions, TcpService, WalConfig, WalDirLock, WIRE_VERSION,
};
use grandma_synth::datasets;

fn fail(msg: &str) -> ExitCode {
    let _ = writeln!(std::io::stderr(), "serve: {msg}");
    ExitCode::FAILURE
}

fn usage() -> ExitCode {
    fail(
        "usage:\n  serve train --out PATH [--seed N] [--per-class N]\n  \
         serve run --model PATH [--addr ADDR] [--shards N] \
         [--queue-capacity N] [--flush-bytes N] [--io-threads N] \
         [--max-connections N] [--idle-timeout-ms N] \
         [--poll-backend auto|poll|epoll] \
         [--wal off|async|sync] [--wal-dir DIR] [--recover DIR] \
         [--cluster-file PATH] [--node-id ID]",
    )
}

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Option<Self> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--")?;
            let value = it.next()?;
            flags.push((name.to_string(), value.clone()));
        }
        Some(Self { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn cmd_train(args: &Args) -> ExitCode {
    let Some(out_path) = args.get("out") else {
        return fail("train requires --out PATH");
    };
    let seed = match args.get("seed").map(str::parse::<u64>) {
        None => 0x5EED,
        Some(Ok(s)) => s,
        Some(Err(_)) => return fail("--seed must be an integer"),
    };
    let per_class = match args.get("per-class").map(str::parse::<usize>) {
        None => 15,
        Some(Ok(n)) => n,
        Some(Err(_)) => return fail("--per-class must be an integer"),
    };
    let data = datasets::eight_way(seed, per_class, 0);
    let trained = EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default());
    let (rec, report) = match trained {
        Ok(pair) => pair,
        Err(e) => return fail(&format!("training failed: {e:?}")),
    };
    if let Err(e) = std::fs::write(out_path, rec.to_text()) {
        return fail(&format!("writing {out_path}: {e}"));
    }
    println!(
        "trained {} classes ({} examples/class, seed {seed:#x}); {} subgesture records; wrote {out_path}",
        data.class_names.len(),
        per_class,
        report.records.len()
    );
    ExitCode::SUCCESS
}

fn cmd_run(args: &Args) -> ExitCode {
    let Some(model_path) = args.get("model") else {
        return fail("run requires --model PATH");
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let shards = match args.get("shards").map(str::parse::<usize>) {
        None => ServeConfig::default().shards,
        Some(Ok(n)) if n > 0 => n,
        _ => return fail("--shards must be a positive integer"),
    };
    let queue_capacity = match args.get("queue-capacity").map(str::parse::<usize>) {
        None => ServeConfig::default().queue_capacity,
        Some(Ok(n)) if n > 0 => n,
        _ => return fail("--queue-capacity must be a positive integer"),
    };
    let mut options = match args.get("flush-bytes").map(str::parse::<usize>) {
        None => TcpOptions::default(),
        Some(Ok(n)) if n > 0 => TcpOptions {
            flush_start: n,
            flush_max: n.saturating_mul(16),
            ..TcpOptions::default()
        },
        _ => return fail("--flush-bytes must be a positive integer"),
    };
    match args.get("io-threads").map(str::parse::<usize>) {
        None => {}
        Some(Ok(n)) => options.io_threads = n,
        Some(Err(_)) => return fail("--io-threads must be an integer (0 = auto)"),
    }
    match args.get("max-connections").map(str::parse::<usize>) {
        None => {}
        Some(Ok(n)) if n > 0 => options.max_connections = n,
        _ => return fail("--max-connections must be a positive integer"),
    }
    match args.get("idle-timeout-ms").map(str::parse::<u64>) {
        None => {}
        Some(Ok(n)) => options.idle_timeout_ms = n,
        Some(Err(_)) => return fail("--idle-timeout-ms must be an integer (0 = off)"),
    }
    match args.get("poll-backend").map(PollBackend::parse) {
        None => {}
        Some(Some(backend)) => options.poll_backend = backend,
        Some(None) => return fail("--poll-backend must be auto|poll|epoll"),
    }
    // Raise the open-file limit before binding: the reactor is sized
    // for tens of thousands of connections, far past the distro-default
    // soft limit of 1024. Soft→hard needs no privilege; a refusal
    // degrades to accept-time shedding.
    match raise_nofile_limit() {
        Ok((before, after)) if before != after => {
            eprintln!("serve: raised RLIMIT_NOFILE {before} -> {after}")
        }
        Ok((_, after)) => eprintln!("serve: RLIMIT_NOFILE already at {after}"),
        Err(e) => eprintln!("serve: could not read RLIMIT_NOFILE ({e}); keeping default"),
    }
    let text = match std::fs::read_to_string(model_path) {
        Ok(text) => text,
        Err(e) => return fail(&format!("reading {model_path}: {e}")),
    };
    let rec = match EagerRecognizer::from_text(&text) {
        Ok(rec) => rec,
        Err(e) => return fail(&format!("loading {model_path}: {e:?}")),
    };
    let fsync = match args.get("wal") {
        None | Some("off") => None,
        Some("async") => Some(FsyncPolicy::Async),
        Some("sync") => Some(FsyncPolicy::Sync),
        Some(_) => return fail("--wal wants off|async|sync"),
    };
    let recover_dir = args.get("recover").map(std::path::PathBuf::from);
    // Recovery keeps logging to the same place unless told otherwise,
    // and implies a WAL (async) even when --wal wasn't given.
    let wal_dir = args
        .get("wal-dir")
        .map(std::path::PathBuf::from)
        .or_else(|| recover_dir.clone())
        .unwrap_or_else(|| std::path::PathBuf::from("grandma-wal"));
    let fsync = match (fsync, &recover_dir) {
        (None, Some(_)) => Some(FsyncPolicy::Async),
        (f, _) => f,
    };
    let wal = fsync.map(|policy| WalConfig::new(wal_dir.clone(), policy));
    // Exclusivity first: refuse to touch (let alone clear) a WAL
    // directory another live server is appending to.
    let _wal_lock = if wal.is_some() {
        match WalDirLock::acquire(&wal_dir) {
            Ok(lock) => Some(lock),
            Err(e) => return fail(&format!("locking wal dir {}: {e}", wal_dir.display())),
        }
    } else {
        None
    };
    // A WAL without recovery starts a fresh log: stale shard files from
    // an earlier run must not replay into this one later.
    if wal.is_some() && recover_dir.is_none() {
        if let Ok(entries) = std::fs::read_dir(&wal_dir) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with("shard-") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
    let config = ServeConfig {
        shards,
        queue_capacity,
        wal,
        ..ServeConfig::default()
    };
    // Install before serving so an early signal still shuts down
    // cleanly; without handlers (exotic platforms) fall back to the
    // stdin-only wait.
    let signals = match SignalPipe::install() {
        Ok(pipe) => Some(pipe),
        Err(e) => {
            eprintln!("serve: signal handling unavailable ({e}); use stdin EOF to stop");
            None
        }
    };
    let cluster_file = args.get("cluster-file").map(std::path::PathBuf::from);
    let node_id = match args.get("node-id") {
        Some(id) => id.to_string(),
        None => format!("node-{}", std::process::id()),
    };
    let router = SessionRouter::new(Arc::new(rec), config);
    if let Some(dir) = recover_dir {
        let source = WalConfig::new(dir, fsync.unwrap_or(FsyncPolicy::Async));
        match router.recover(&source) {
            Ok(report) => eprintln!(
                "serve: recovered {} sessions ({} frames, {} bytes) in {:.1} ms{}",
                report.sessions,
                report.frames,
                report.bytes,
                report.replay_ms,
                if report.torn {
                    " — torn tail dropped"
                } else {
                    ""
                }
            ),
            Err(e) => return fail(&format!("recovering WAL: {e}")),
        }
    }
    let mut service = match TcpService::start_with(router.clone(), addr, options) {
        Ok(service) => service,
        Err(e) => return fail(&format!("binding {addr}: {e}")),
    };
    let me = service.local_addr();
    if let Some(path) = &cluster_file {
        // Register only once the real bound address is known, then
        // fence: a session the ring maps elsewhere is answered with
        // NotOwner instead of being opened here. The fence re-reads the
        // registry per check and fails open — a torn or missing file
        // must degrade to single-node behavior, not refuse sessions.
        match register_node(path, &node_id, me) {
            Ok(view) => eprintln!(
                "serve: joined cluster as {node_id} at {me} ({} nodes, generation {})",
                view.nodes.len(),
                view.generation
            ),
            Err(e) => return fail(&format!("registering in {}: {e}", path.display())),
        }
        let fence_path = path.clone();
        router.set_fence(Arc::new(move |session| {
            let view = read_cluster(&fence_path).ok()?;
            match view.owner_addr(session) {
                Some(owner) if owner != me => Some(owner),
                _ => None,
            }
        }));
    }
    // Ignore stdout write failures throughout: a parent that closed the
    // pipe early must not turn a clean shutdown into a SIGPIPE panic.
    let _ = writeln!(std::io::stdout(), "listening on {}", service.local_addr());
    let _ = std::io::stdout().flush();
    wait_for_exit(signals.as_ref());
    if let Some(path) = &cluster_file {
        // Leave the ring first — peers' fences and refreshing clients
        // start routing to the successors — then move the live sessions
        // there over wire-v4 Handoff frames.
        let _ = remove_node(path, &node_id);
        match drain_and_handoff(&router, path) {
            (moved, 0) => eprintln!("serve: handed off {moved} sessions"),
            (moved, failed) => eprintln!(
                "serve: handed off {moved} sessions, {failed} left for WAL recovery"
            ),
        }
    }
    // Graceful: stop accepting, drain the shards; with a WAL this also
    // seals live sessions into the snapshot for a later --recover.
    service.shutdown();
    let _ = writeln!(
        std::io::stdout(),
        "{}",
        service.metrics().snapshot().to_json()
    );
    ExitCode::SUCCESS
}

/// One outbound handoff connection to a peer node: a plain wire-v4
/// client that only ever sends `Handoff` frames.
struct HandoffPeer {
    stream: std::net::TcpStream,
    frames: FrameBuffer,
    scratch: Vec<u8>,
    chunk: Vec<u8>,
}

impl HandoffPeer {
    fn dial(addr: SocketAddr) -> Option<Self> {
        let stream = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        let mut peer = Self {
            stream,
            frames: FrameBuffer::new(),
            scratch: Vec::new(),
            chunk: vec![0u8; 16 * 1024],
        };
        peer.write(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .ok()?;
        Some(peer)
    }

    fn write(&mut self, frame: &ClientFrame) -> std::io::Result<()> {
        self.scratch.clear();
        encode_client(frame, &mut self.scratch);
        self.stream.write_all(&self.scratch)
    }

    /// Sends one snapshot and waits for its `HandoffAck`; a fault, an
    /// undecodable reply, or any I/O failure counts as a refusal.
    fn handoff(&mut self, snapshot: &grandma_serve::SessionSnapshot) -> bool {
        let mut payload = Vec::new();
        snapshot.encode(&mut payload);
        if self
            .write(&ClientFrame::Handoff { snapshot: payload })
            .is_err()
        {
            return false;
        }
        loop {
            match self.frames.next_server() {
                Ok(Some(ServerFrame::HandoffAck { session, .. }))
                    if session == snapshot.session =>
                {
                    return true;
                }
                Ok(Some(ServerFrame::Fault { session, .. }))
                    if session == snapshot.session || session == 0 =>
                {
                    return false;
                }
                Ok(Some(_)) => {}
                Ok(None) => match self.stream.read(&mut self.chunk) {
                    Ok(0) | Err(_) => return false,
                    Ok(n) => self.frames.extend(self.chunk.get(..n).unwrap_or(&[])),
                },
                Err(_) => return false,
            }
        }
    }
}

/// Drains every live session off this node and hands each to the node
/// the (post-deregistration) ring maps it to, one cached connection per
/// peer. Returns `(moved, failed)`. A session whose handoff fails is
/// reinstalled into the local router so the final shutdown seals it
/// into the WAL snapshot instead of dropping it. The ring is read
/// before the drain, which seals each shard's WAL empty: an unreadable
/// discovery file then fails every handoff, and no drained session is
/// lost to it.
fn drain_and_handoff(router: &SessionRouter, cluster_file: &std::path::Path) -> (usize, usize) {
    let view = match read_cluster(cluster_file) {
        Ok(view) => Some(view),
        Err(e) => {
            eprintln!("serve: cluster view unreadable ({e}); keeping sessions for WAL recovery");
            None
        }
    };
    let snapshots = router.drain_sessions();
    let mut peers: Vec<(SocketAddr, Option<HandoffPeer>)> = Vec::new();
    let mut moved = 0usize;
    let mut failed = 0usize;
    for snapshot in snapshots {
        let owner = view.as_ref().and_then(|v| v.owner_addr(snapshot.session));
        let sent = match owner {
            Some(addr) => {
                if !peers.iter().any(|(a, _)| *a == addr) {
                    peers.push((addr, HandoffPeer::dial(addr)));
                }
                peers
                    .iter_mut()
                    .find(|(a, _)| *a == addr)
                    .and_then(|(_, p)| p.as_mut())
                    .is_some_and(|p| p.handoff(&snapshot))
            }
            None => false,
        };
        if sent {
            moved += 1;
        } else {
            router.reinstall(snapshot);
            failed += 1;
        }
    }
    (moved, failed)
}

/// Blocks until stdin closes (or delivers a line) or a termination
/// signal arrives — whichever lets the parent or the operator stop the
/// server first.
fn wait_for_exit(signals: Option<&SignalPipe>) {
    let Some(pipe) = signals else {
        let mut line = String::new();
        let _ = std::io::BufRead::read_line(&mut std::io::stdin().lock(), &mut line);
        return;
    };
    loop {
        let mut fds = [PollFd::new(0, POLLIN), PollFd::new(pipe.fd(), POLLIN)];
        if poll_fds(&mut fds, -1).is_err() {
            return;
        }
        if let Some(signo) = pipe.triggered() {
            let name = match signo {
                SIGINT => "SIGINT",
                SIGTERM => "SIGTERM",
                _ => "signal",
            };
            eprintln!("serve: caught {name}, shutting down");
            return;
        }
        if fds[0].readable() {
            // Data or EOF on stdin: either way the parent is done with
            // us.
            return;
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let Some(args) = Args::parse(rest) else {
        return usage();
    };
    match cmd.as_str() {
        "train" => cmd_train(&args),
        "run" => cmd_run(&args),
        _ => usage(),
    }
}
