//! Process-level drill for a graceful cluster drain: the real `serve`
//! binary, a discovery file that turns unreadable before shutdown, and a
//! `--recover` restart that must still resume the session the drain
//! could not hand off.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use grandma_events::{EventKind, InputEvent};
use grandma_serve::{encode_client, ClientFrame, FrameBuffer, ServerFrame, WIRE_VERSION};

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

/// A running `serve run`, killed on drop if a failed assertion leaves it
/// behind.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl Server {
    fn start(args: &[&str]) -> Self {
        let mut child = Command::new(SERVE)
            .arg("run")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let stdin = child.stdin.take();
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout"))
            .read_line(&mut line)
            .expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"));
        Self { child, stdin, addr }
    }

    /// Closes stdin — the graceful-shutdown signal — and waits for exit.
    fn stop(mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                assert!(status.success(), "serve exited with {status}");
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("serve did not shut down within 30 s");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

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

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grandma-cluster-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn unreadable_cluster_file_at_shutdown_keeps_sessions_for_recovery() {
    let dir = tmp_dir();
    let model = dir.join("model.txt");
    let wal = dir.join("wal");
    let cluster = dir.join("cluster.json");
    let status = Command::new(SERVE)
        .args(["train", "--out", path_str(&model), "--per-class", "5"])
        .stdout(Stdio::null())
        .status()
        .expect("run serve train");
    assert!(status.success());

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
