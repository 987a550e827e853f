//! The `cluster.json` discovery file.
//!
//! One shared file is the cluster's membership registry. Every `serve`
//! process publishes a [`NodeRecord`] (`id`, `addr`, `epoch`) into it;
//! clients and peers read the file and build the [`crate::HashRing`]
//! from the live node ids. Writes go through the same tmp + fsync +
//! rename trick as the WAL snapshot, so a reader can never observe a
//! torn file — it sees the old complete view or the new complete view.
//!
//! The view carries a `generation` counter bumped by every rewrite:
//! cheap change detection for pollers (the serve ownership fence and
//! the `ClusterClient` both re-read only when they must), and an
//! ordering witness when two histories of the file are compared. Each
//! node's `epoch` counts that node's own registrations, so a node that
//! crashed and re-registered is distinguishable from the incarnation
//! that wrote the WAL it recovered.
//!
//! Read-modify-write cycles ([`register_node`] / [`remove_node`]) are
//! serialized by a short-lived `<file>.lock` sibling created with
//! `O_EXCL`; a leftover lock from a crashed writer is stolen after a
//! bounded wait, so registration can never deadlock.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::ring::{HashRing, DEFAULT_RING_SEED, DEFAULT_VNODES};

/// One node's registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRecord {
    /// Stable node id (ring position derives from this, not the addr).
    pub id: String,
    /// Where the node's serve transport listens.
    pub addr: SocketAddr,
    /// This node's registration count: bumped each time the node
    /// (re-)registers, so peers can tell a restarted incarnation from
    /// the one they last talked to.
    pub epoch: u64,
}

/// A complete parsed discovery file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterView {
    /// Rewrite counter for the whole file; any membership change bumps
    /// it.
    pub generation: u64,
    /// Ring seed every member must agree on.
    pub seed: u64,
    /// Virtual nodes per member on the ring.
    pub vnodes: usize,
    /// The registered nodes, in file order.
    pub nodes: Vec<NodeRecord>,
}

impl Default for ClusterView {
    fn default() -> Self {
        Self {
            generation: 0,
            seed: DEFAULT_RING_SEED,
            vnodes: DEFAULT_VNODES,
            nodes: Vec::new(),
        }
    }
}

impl ClusterView {
    /// Builds the consistent-hash ring over the registered node ids.
    pub fn ring(&self) -> HashRing {
        HashRing::new(
            self.seed,
            self.vnodes,
            self.nodes.iter().map(|n| n.id.clone()),
        )
    }

    /// The record for `id`, if registered.
    pub fn node(&self, id: &str) -> Option<&NodeRecord> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// The address of the node owning `session` per the ring.
    pub fn owner_addr(&self, session: u64) -> Option<SocketAddr> {
        let ring = self.ring();
        let owner = ring.owner_of(session)?;
        self.node(owner).map(|n| n.addr)
    }
}

/// Why a discovery file failed to load.
#[derive(Debug)]
pub enum DiscoveryError {
    /// Reading the file failed (anything but not-found).
    Io(std::io::Error),
    /// The file's bytes are not a discovery document.
    Parse {
        /// What the parser was after when it gave up.
        what: &'static str,
    },
}

impl std::fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscoveryError::Io(e) => write!(f, "discovery file i/o: {e}"),
            DiscoveryError::Parse { what } => write!(f, "discovery file malformed: {what}"),
        }
    }
}

impl std::error::Error for DiscoveryError {}

impl From<std::io::Error> for DiscoveryError {
    fn from(e: std::io::Error) -> Self {
        DiscoveryError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Serialization — hand-rolled JSON (the workspace is dependency-free)
// ---------------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn render(view: &ClusterView) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\n");
    out.push_str(&format!("  \"generation\": {},\n", view.generation));
    out.push_str(&format!("  \"seed\": {},\n", view.seed));
    out.push_str(&format!("  \"vnodes\": {},\n", view.vnodes));
    out.push_str("  \"nodes\": [");
    for (i, node) in view.nodes.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"id\": \"");
        escape_into(&mut out, &node.id);
        out.push_str("\", \"addr\": \"");
        escape_into(&mut out, &node.addr.to_string());
        out.push_str(&format!("\", \"epoch\": {}}}", node.epoch));
    }
    if !view.nodes.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Minimal JSON value for the parser below. Only what a discovery file
/// can contain: objects, arrays, strings, unsigned integers.
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(u64),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &'static str) -> Result<(), DiscoveryError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DiscoveryError::Parse { what })
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, DiscoveryError> {
        if depth > 8 {
            return Err(DiscoveryError::Parse { what: "nesting" });
        }
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':', "object colon")?;
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(DiscoveryError::Parse { what: "object end" }),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(DiscoveryError::Parse { what: "array end" }),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'0'..=b'9') => {
                let mut n: u64 = 0;
                let mut any = false;
                while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(b - b'0')))
                        .ok_or(DiscoveryError::Parse {
                            what: "number range",
                        })?;
                    self.pos += 1;
                    any = true;
                }
                if any {
                    Ok(Json::Num(n))
                } else {
                    Err(DiscoveryError::Parse { what: "number" })
                }
            }
            _ => Err(DiscoveryError::Parse { what: "value" }),
        }
    }

    fn string(&mut self) -> Result<String, DiscoveryError> {
        self.eat(b'"', "string quote")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(DiscoveryError::Parse { what: "string end" }),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        _ => return Err(DiscoveryError::Parse { what: "escape" }),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: take the full code point.
                    let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| DiscoveryError::Parse { what: "utf-8" })?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or(DiscoveryError::Parse { what: "string end" })?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

fn parse(bytes: &[u8]) -> Result<ClusterView, DiscoveryError> {
    let mut parser = Parser::new(bytes);
    let root = parser.value(0)?;
    let mut view = ClusterView {
        generation: root
            .get("generation")
            .and_then(Json::num)
            .ok_or(DiscoveryError::Parse { what: "generation" })?,
        seed: root
            .get("seed")
            .and_then(Json::num)
            .unwrap_or(DEFAULT_RING_SEED),
        vnodes: root
            .get("vnodes")
            .and_then(Json::num)
            .and_then(|v| usize::try_from(v).ok())
            .unwrap_or(DEFAULT_VNODES),
        nodes: Vec::new(),
    };
    let Some(Json::Arr(nodes)) = root.get("nodes") else {
        return Err(DiscoveryError::Parse { what: "nodes" });
    };
    for node in nodes {
        let id = node
            .get("id")
            .and_then(Json::str)
            .ok_or(DiscoveryError::Parse { what: "node id" })?;
        let addr: SocketAddr = node
            .get("addr")
            .and_then(Json::str)
            .and_then(|s| s.parse().ok())
            .ok_or(DiscoveryError::Parse { what: "node addr" })?;
        let epoch = node.get("epoch").and_then(Json::num).unwrap_or(0);
        view.nodes.push(NodeRecord {
            id: id.to_string(),
            addr,
            epoch,
        });
    }
    Ok(view)
}

// ---------------------------------------------------------------------------
// File operations
// ---------------------------------------------------------------------------

/// Reads and parses the discovery file. A missing file is an empty
/// default view (generation 0, no nodes), not an error — a cluster
/// bootstraps by the first registration creating the file.
pub fn read_cluster(path: &Path) -> Result<ClusterView, DiscoveryError> {
    match std::fs::read(path) {
        Ok(bytes) => parse(&bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(ClusterView::default()),
        Err(e) => Err(DiscoveryError::Io(e)),
    }
}

/// Atomically replaces the discovery file with `view`: write a `.tmp`
/// sibling, fsync it, rename over the target. Readers see the old or
/// the new complete document, never a prefix.
pub fn write_cluster(path: &Path, view: &ClusterView) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_sibling(path);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(render(view).as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// A short-lived advisory lock serializing read-modify-write cycles on
/// the discovery file. Created `O_EXCL`; a leftover lock from a crashed
/// writer is stolen after `LOCK_STEAL_AFTER`.
struct RegistryLock {
    path: PathBuf,
}

const LOCK_STEAL_AFTER: Duration = Duration::from_secs(2);

impl RegistryLock {
    fn acquire(file: &Path) -> std::io::Result<Self> {
        let mut name = file
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".lock");
        let path = file.with_file_name(name);
        let start = Instant::now();
        let mut stole = false;
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if start.elapsed() >= LOCK_STEAL_AFTER {
                        if stole {
                            return Err(e);
                        }
                        // Registration cycles last microseconds; a lock
                        // this old belongs to a crashed writer.
                        let _ = std::fs::remove_file(&path);
                        stole = true;
                        continue;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for RegistryLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Registers (or re-registers) a node: read-modify-write under the
/// registry lock, bumping the file `generation` and the node's own
/// `epoch`. Returns the view as written.
pub fn register_node(
    path: &Path,
    id: &str,
    addr: SocketAddr,
) -> Result<ClusterView, DiscoveryError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(DiscoveryError::Io)?;
        }
    }
    let _lock = RegistryLock::acquire(path).map_err(DiscoveryError::Io)?;
    let mut view = read_cluster(path)?;
    view.generation = view.generation.saturating_add(1);
    match view.nodes.iter_mut().find(|n| n.id == id) {
        Some(node) => {
            node.addr = addr;
            node.epoch = node.epoch.saturating_add(1);
        }
        None => view.nodes.push(NodeRecord {
            id: id.to_string(),
            addr,
            epoch: 1,
        }),
    }
    write_cluster(path, &view).map_err(DiscoveryError::Io)?;
    Ok(view)
}

/// Removes a node from the registry (e.g. the harness declaring a
/// killed process dead). Bumps the generation even when the id was
/// absent, so watchers always observe the write. Returns the view as
/// written.
pub fn remove_node(path: &Path, id: &str) -> Result<ClusterView, DiscoveryError> {
    let _lock = RegistryLock::acquire(path).map_err(DiscoveryError::Io)?;
    let mut view = read_cluster(path)?;
    view.generation = view.generation.saturating_add(1);
    view.nodes.retain(|n| n.id != id);
    write_cluster(path, &view).map_err(DiscoveryError::Io)?;
    Ok(view)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("grandma-cluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("cluster.json")
    }

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().expect("addr")
    }

    #[test]
    fn missing_file_reads_as_empty_default() {
        let view = read_cluster(Path::new("/nonexistent/grandma/cluster.json"))
            .expect("missing is not an error");
        assert_eq!(view, ClusterView::default());
        assert!(view.ring().is_empty());
    }

    #[test]
    fn register_read_round_trip() {
        let path = tmp_file("roundtrip");
        register_node(&path, "node-0", addr(4301)).expect("register");
        register_node(&path, "node-1", addr(4302)).expect("register");
        let view = read_cluster(&path).expect("read");
        assert_eq!(view.generation, 2);
        assert_eq!(view.nodes.len(), 2);
        assert_eq!(view.node("node-0").map(|n| n.addr), Some(addr(4301)));
        assert_eq!(view.node("node-1").map(|n| n.epoch), Some(1));
        // Every session routes to a registered address.
        for session in 0..50u64 {
            let owner = view.owner_addr(session).expect("owner");
            assert!(owner == addr(4301) || owner == addr(4302));
        }
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn reregistration_bumps_epoch_and_replaces_addr() {
        let path = tmp_file("reregister");
        register_node(&path, "node-0", addr(4301)).expect("register");
        let view = register_node(&path, "node-0", addr(5000)).expect("re-register");
        assert_eq!(view.generation, 2);
        assert_eq!(view.nodes.len(), 1);
        let node = view.node("node-0").expect("present");
        assert_eq!(node.addr, addr(5000));
        assert_eq!(node.epoch, 2);
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn remove_node_drops_membership_and_bumps_generation() {
        let path = tmp_file("remove");
        register_node(&path, "node-0", addr(4301)).expect("register");
        register_node(&path, "node-1", addr(4302)).expect("register");
        let view = remove_node(&path, "node-0").expect("remove");
        assert_eq!(view.generation, 3);
        assert_eq!(view.nodes.len(), 1);
        assert!(view.node("node-0").is_none());
        // All sessions now route to the survivor.
        for session in 0..20u64 {
            assert_eq!(view.owner_addr(session), Some(addr(4302)));
        }
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn malformed_files_are_typed_errors() {
        let path = tmp_file("malformed");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        for bad in [
            &b"not json"[..],
            b"{\"generation\": }",
            b"{\"nodes\": []}",
            b"{\"generation\": 1, \"nodes\": [{\"id\": \"a\"}]}",
            b"{\"generation\": 99999999999999999999999, \"nodes\": []}",
        ] {
            std::fs::write(&path, bad).expect("write");
            assert!(
                matches!(read_cluster(&path), Err(DiscoveryError::Parse { .. })),
                "accepted: {}",
                String::from_utf8_lossy(bad)
            );
        }
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn ipv6_and_escaped_ids_survive_the_codec() {
        let path = tmp_file("edge");
        let v6: SocketAddr = "[::1]:9000".parse().expect("v6");
        let mut view = ClusterView {
            generation: 7,
            ..ClusterView::default()
        };
        view.nodes.push(NodeRecord {
            id: "we\"ird\\id\n".to_string(),
            addr: v6,
            epoch: 3,
        });
        write_cluster(&path, &view).expect("write");
        let back = read_cluster(&path).expect("read");
        assert_eq!(back, view);
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn stale_registry_lock_is_stolen() {
        let path = tmp_file("stale-lock");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        let lock_path = path.with_file_name("cluster.json.lock");
        std::fs::write(&lock_path, "999999").expect("plant stale lock");
        // Registration must steal the stale lock (after the bounded
        // wait) rather than hang.
        let view = register_node(&path, "node-0", addr(4303)).expect("register");
        assert_eq!(view.nodes.len(), 1);
        assert!(!lock_path.exists(), "lock released after registration");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }
}
