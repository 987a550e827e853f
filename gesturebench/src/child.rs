//! The `serve` child: building or locating the binary, spawning `serve
//! run`, reaping it on every exit path, and reading its `/proc` figures.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use grandma_serve::{
    encode_client, ClientFrame, FrameBuffer, OutcomeKind, ServerFrame, WIRE_VERSION,
};

/// Builds the repository's `serve` binary (release) and returns its path.
///
/// The repository's own `cargo build --release` does not build it, so the
/// benchmark asks Cargo for it explicitly; an up-to-date build is a
/// no-op. Honors `CARGO_TARGET_DIR` (relative paths are taken from
/// `root`).
pub fn build_serve(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "grandma-serve",
            "--bin",
            "serve",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of serve failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("serve binary missing at {}", bin.display()))
    }
}

/// A scratch directory removed when dropped (including during a panic).
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates (fresh) `path`.
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A running `serve run` child. Dropping it SIGKILLs and reaps the
/// process, so no exit path — a failed assert unwinding included — leaves
/// a listening server or a zombie behind.
pub struct Serve {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    /// The address the child is listening on.
    pub addr: SocketAddr,
    /// The child's pid.
    pub pid: u32,
}

impl Serve {
    /// Spawns `serve run --model MODEL --addr 127.0.0.1:0 FLAGS` (plus
    /// `--wal-dir` when given) and waits for its `listening on` line.
    pub fn spawn(
        bin: &Path,
        model: &Path,
        flags: &[&str],
        wal_dir: Option<&Path>,
    ) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("run")
            .arg("--model")
            .arg(model)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags);
        if let Some(dir) = wal_dir {
            cmd.arg("--wal-dir").arg(dir);
        }
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().map_err(|e| format!("spawning serve: {e}"))?;
        let pid = child.id();
        let stdout = child.stdout.take().ok_or("serve stdout not piped")?;
        let mut serve = Self {
            child: Some(child),
            stdout: Some(BufReader::new(stdout)),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
        };
        let mut line = String::new();
        let reader = serve.stdout.as_mut().ok_or("serve stdout gone")?;
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("serve exited before listening".into()),
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        serve.addr = addr
                            .parse()
                            .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                        return Ok(serve);
                    }
                }
            }
        }
    }

    /// Graceful stop: closes the child's stdin (its exit signal), waits up
    /// to `grace` for it to exit, and returns the metrics JSON it prints
    /// at shutdown. Kills it if it overstays.
    pub fn stop(mut self, grace: Duration) -> Result<String, String> {
        let mut child = self.child.take().ok_or("serve already stopped")?;
        drop(child.stdin.take());
        let deadline = Instant::now() + grace;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve did not shut down in time".into());
                }
            }
        };
        let mut json = String::new();
        if let Some(mut out) = self.stdout.take() {
            let _ = out.read_to_string(&mut json);
        }
        if !status.success() {
            return Err(format!("serve exited with {status}"));
        }
        Ok(json)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One Hello/Open/Close round trip on a fresh connection: the last step
/// of set-up, proving the child serves.
pub fn round_trip(addr: SocketAddr, session: u64) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut bytes = Vec::new();
    encode_client(
        &ClientFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut bytes,
    );
    encode_client(&ClientFrame::Open { session }, &mut bytes);
    encode_client(&ClientFrame::Close { session, seq: 0 }, &mut bytes);
    stream
        .write_all(&bytes)
        .map_err(|e| format!("write: {e}"))?;
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(frame) = frames.next_server().map_err(|e| e.to_string())? {
            if let ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            } = frame
            {
                return Ok(());
            }
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("serve closed the set-up connection".into());
        }
        frames.extend(&chunk[..n]);
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux configuration the benchmark targets).
const CLOCK_TICKS_PER_S: u64 = 100;

/// User plus system CPU time of process `pid` (or of this process for
/// `None`), in ns, from `/proc/<pid>/stat` fields 14 and 15.
pub fn cpu_ns(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesized command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / CLOCK_TICKS_PER_S))
}

/// CPU time of process `pid` in ns, precise to the nanosecond: the sum
/// of every live thread's `se.sum_exec_runtime` (ms with six decimals) in
/// `/proc/<pid>/task/*/sched`. Falls back to the clock-tick figure of
/// [`cpu_ns`] where the scheduler files are missing. Threads that exited
/// drop out of the sum, so only differences over a span in which the
/// process keeps its threads are meaningful.
pub fn precise_cpu_ns(pid: u32) -> Option<u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total = 0.0f64;
    for task in tasks.flatten() {
        let Ok(sched) = std::fs::read_to_string(task.path().join("sched")) else {
            return cpu_ns(Some(pid));
        };
        let ms: f64 = sched
            .lines()
            .find(|l| l.starts_with("se.sum_exec_runtime"))
            .and_then(|l| l.rsplit(':').next())
            .and_then(|v| v.trim().parse().ok())?;
        total += ms;
    }
    Some((total * 1e6) as u64)
}

/// CPU time the hypervisor took from this VM (steal), summed over its
/// CPUs, in ns: the 8th value of the `cpu` line of `/proc/stat`.
pub fn vm_steal_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks * (1_000_000_000 / CLOCK_TICKS_PER_S))
}

/// Resident set size of process `pid` in bytes, from `VmRSS` in
/// `/proc/<pid>/status`.
pub fn rss_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A `"key": <number>` field of the child's metrics JSON (the first
/// occurrence, which for per-shard keys is shard 0).
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let digits: String = json[at..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
        .collect();
    digits.parse().ok()
}
