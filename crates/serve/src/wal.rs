//! Write-ahead wire log: per-shard durability for accepted client frames.
//!
//! Each shard worker owns one [`WalShard`]: an append-only log file
//! (`shard-<i>.wal`) of every *accepted* `Open`/`Event`/`EventBatch`/
//! `Close` frame, in processing order, plus a compaction snapshot file
//! (`shard-<i>.snap`) of [`SessionSnapshot`]s. Because the worker is the
//! exclusive owner of its sessions, the log needs no locking and is
//! trivially consistent with the pipelines it protects: a frame is
//! appended *before* it is fed (write-ahead), so a crash at any
//! instant loses at most frames that were never acknowledged.
//!
//! On-disk record format, identical for both files:
//!
//! ```text
//! ┌────────────┬───────────────────┬────────────────────┐
//! │ u32 LE len │ u32 LE crc32(payload) │ payload (len bytes) │
//! └────────────┴───────────────────┴────────────────────┘
//! ```
//!
//! A WAL payload is one wire-encoded client frame (the same bytes the
//! transport received, re-encoded by [`crate::wire::encode_client`]); a
//! snapshot payload is one [`SessionSnapshot::encode`]. Reading stops at
//! the first truncated or CRC-mismatched record — a torn tail from a
//! mid-write crash is silently dropped, never a panic, and everything
//! before it is intact by checksum.
//!
//! Compaction: once [`WalConfig::compact_bytes`] of log have accumulated,
//! the worker snapshots every live session into `shard-<i>.snap.tmp`,
//! fsyncs, renames over `shard-<i>.snap`, and truncates the log. The
//! rename is atomic; a crash between rename and truncate merely leaves
//! pre-snapshot frames in the log, which replay skips via the snapshot's
//! `last_seq` watermark.
//!
//! I/O comes in two halves. `WalShard::write_record` frames a record
//! straight into the shard's group buffer, with the header patched in
//! once the payload's length and CRC are known. `WalShard::sync` writes
//! the whole buffer with one `write_all`, then issues one `sync_data`
//! that covers it. [`WalShard::append_frame`] is both at once.
//!
//! Fsync policy ([`FsyncPolicy`]): `Sync` makes every record durable to
//! the platter before anything that depends on it is acknowledged. The
//! shard worker commits in groups: it journals the records of up to 64
//! already-queued messages into the buffer, then pays one write and one
//! sync for the group, and only then releases the replies the group
//! produced (ack-after-durable). `Async` holds no replies, so each
//! record is written at once, one write per record, and never synced
//! (durable to the page cache — survives process crashes, not power
//! loss). "Off" is represented by not configuring a WAL at all
//! (`ServeConfig::wal: None`).

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::session::SessionSnapshot;
use crate::wire::{decode_client, ClientFrame};

/// Upper bound on one record's payload length. Wire frames are capped
/// far below this; snapshots grow with in-flight gesture size but a
/// megabyte of points is already pathological. A larger prefix is
/// treated as a torn/corrupt tail, never an allocation request.
pub const MAX_RECORD_LEN: usize = 1 << 20;

// A handed-off session is journaled as one WAL record holding the whole
// wire frame (4-byte length prefix + tag + snapshot); the wire cap must
// leave room for the prefix or a legal handoff would be unjournalable.
const _: () = assert!(crate::wire::MAX_HANDOFF_FRAME_LEN + 4 <= MAX_RECORD_LEN);

/// Bytes of a record header (`len` + `crc`).
const RECORD_HEADER_LEN: usize = 8;

/// Group-buffer capacity kept across commits. A steady `--wal sync`
/// group (a few dozen sub-kilobyte records) fits in it; a journaled
/// handoff of up to `MAX_HANDOFF_FRAME_LEN` grows the buffer for one
/// group only.
const GROUP_RETAIN: usize = 64 * 1024;

/// When to force appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Write without fsync: records survive a process crash (the page
    /// cache persists) but not a host crash.
    Async,
    /// Sync before acknowledging: records survive power loss. The shard
    /// worker issues one write and one `sync_data` per drained group of
    /// up to 64 messages and holds the group's replies until they land.
    Sync,
}

/// Write-ahead log configuration carried by `ServeConfig::wal`.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the per-shard log and snapshot files; created
    /// on first use.
    pub dir: PathBuf,
    /// Durability of each append.
    pub fsync: FsyncPolicy,
    /// Log bytes accumulated since the last snapshot that trigger
    /// compaction.
    pub compact_bytes: u64,
}

impl WalConfig {
    /// A config rooted at `dir` with the given fsync policy and the
    /// default 4 MiB compaction threshold.
    pub fn new(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> Self {
        Self {
            dir: dir.into(),
            fsync,
            compact_bytes: 4 << 20,
        }
    }

    /// The log path for `shard`.
    pub fn wal_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.wal"))
    }

    /// The snapshot path for `shard`.
    pub fn snap_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.snap"))
    }
}

/// Slicing-by-8 tables for [`crc32`]: `CRC_TABLES[0][b]` is the CRC
/// step of byte `b`, and `CRC_TABLES[k][b]` carries that step through
/// `k` further zero bytes, so eight table lookups fold in eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — hand-rolled
/// because the workspace is dependency-free. Slicing-by-8: eight bytes
/// per step through eight 256-entry tables, the tail a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Frames one record onto `out`: the payload `encode` appends, behind a
/// header patched in once the payload's length and CRC are known.
/// Returns the record's length, header included.
fn frame_record(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    encode(out);
    let (header, payload) = out[start..].split_at_mut(RECORD_HEADER_LEN);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    out.len() - start
}

/// Splits `bytes` into verified record payloads. Stops (without error)
/// at the first truncated, oversized, or CRC-mismatched record; returns
/// the payload slices and whether a torn tail was dropped.
fn split_records(bytes: &[u8]) -> (Vec<&[u8]>, bool) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + RECORD_HEADER_LEN) else {
            return (out, true);
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let Ok(len) = usize::try_from(len) else {
            return (out, true);
        };
        if len > MAX_RECORD_LEN {
            return (out, true);
        }
        let start = pos + RECORD_HEADER_LEN;
        let Some(payload) = bytes.get(start..start + len) else {
            return (out, true);
        };
        if crc32(payload) != crc {
            return (out, true);
        }
        out.push(payload);
        pos = start + len;
    }
    (out, false)
}

/// The log file's I/O seam, in a module of its own so that its methods
/// do not shadow `std::io::Write` on the other files this module writes.
pub(crate) mod seam {
    use std::fs::File;
    use std::io::Write;
    use std::sync::Arc;

    /// The log file's I/O, through which tests stall or fail a shard's
    /// writes and syncs. `File` is the production implementation.
    pub(crate) trait LogFile: Send {
        /// Appends `bytes` (the file is opened `O_APPEND`).
        fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()>;
        /// Flushes the written data to stable storage.
        fn sync_data(&mut self) -> std::io::Result<()>;
        /// Truncates (or extends) the file to `len` bytes.
        fn set_len(&mut self, len: u64) -> std::io::Result<()>;
    }

    impl LogFile for File {
        fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            Write::write_all(self, bytes)
        }

        fn sync_data(&mut self) -> std::io::Result<()> {
            File::sync_data(self)
        }

        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            File::set_len(self, len)
        }
    }

    /// Wraps a shard's freshly opened log file in another [`LogFile`].
    pub(crate) type LogWrap = Arc<dyn Fn(File) -> Box<dyn LogFile> + Send + Sync>;
}

use seam::LogWrap;

/// One shard's write-ahead log, owned exclusively by its shard worker.
pub struct WalShard {
    config: WalConfig,
    shard: usize,
    file: Box<dyn seam::LogFile>,
    /// Log bytes appended since the last compaction (or open).
    bytes_since_snapshot: u64,
    /// Framed records not yet written. Under [`FsyncPolicy::Sync`] this
    /// is the open group, written and synced by [`WalShard::sync`];
    /// under [`FsyncPolicy::Async`] it is empty between appends.
    group: Vec<u8>,
}

impl WalShard {
    /// Opens (creating if needed) the log for `shard` under
    /// `config.dir`, appending to whatever tail already exists.
    pub fn open(config: WalConfig, shard: usize) -> std::io::Result<Self> {
        Self::open_with(config, shard, None)
    }

    /// [`WalShard::open`], with the log file passed through `wrap` when
    /// given.
    pub(crate) fn open_with(
        config: WalConfig,
        shard: usize,
        wrap: Option<&LogWrap>,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        let path = config.wal_path(shard);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let existing = file.metadata().map(|m| m.len()).unwrap_or(0);
        let file: Box<dyn seam::LogFile> = match wrap {
            Some(wrap) => wrap(file),
            None => Box::new(file),
        };
        Ok(Self {
            config,
            shard,
            file,
            bytes_since_snapshot: existing,
            group: Vec::new(),
        })
    }

    /// Appends one wire-encoded client frame and syncs it under
    /// [`FsyncPolicy::Sync`] (write-ahead: call before feeding the frame
    /// to the pipeline). Returns the record bytes written.
    pub fn append_frame(&mut self, frame_bytes: &[u8]) -> std::io::Result<u64> {
        let written = self.write_record(|buf| buf.extend_from_slice(frame_bytes))?;
        self.sync()?;
        Ok(written)
    }

    /// The write half of [`WalShard::append_frame`]: frames the payload
    /// `encode` appends as one record, without syncing it. Under
    /// [`FsyncPolicy::Sync`] the record joins the group buffer and is
    /// neither written nor durable until the next [`WalShard::sync`], so
    /// nothing that depends on it may be acknowledged before then; under
    /// [`FsyncPolicy::Async`] it is written at once. Returns the record's
    /// length.
    pub(crate) fn write_record(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> std::io::Result<u64> {
        // lint:reactor-loop start(wal-append) — runs inline on the shard
        // worker for every accepted frame.
        let written = frame_record(&mut self.group, encode) as u64;
        self.bytes_since_snapshot = self.bytes_since_snapshot.saturating_add(written);
        if self.config.fsync == FsyncPolicy::Async {
            self.write_group()?;
        }
        Ok(written)
        // lint:reactor-loop end
    }

    /// The sync half: one `write_all` of the group buffer, then one
    /// `sync_data` covering every record written since the last sync.
    /// Returns whether it wrote and synced — `false` when nothing is
    /// pending, which is always the case under [`FsyncPolicy::Async`].
    pub(crate) fn sync(&mut self) -> std::io::Result<bool> {
        if self.group.is_empty() {
            return Ok(false);
        }
        self.write_group()?;
        self.file.sync_data()?;
        Ok(true)
    }

    /// Writes the group buffer with one `write_all` and empties it,
    /// keeping at most [`GROUP_RETAIN`] of its capacity.
    fn write_group(&mut self) -> std::io::Result<()> {
        // lint:allow(reactor-blocking-call): the write-ahead durability
        // contract — one O_APPEND write per group commit under `--wal
        // sync`, one per record under `--wal async` (whose replies are not
        // held); `--wal` is an explicit durability opt-in.
        let written = self.file.write_all(&self.group);
        self.group.clear();
        self.group.shrink_to(GROUP_RETAIN);
        written
    }

    /// `true` while framed records await [`WalShard::sync`].
    pub(crate) fn unsynced(&self) -> bool {
        !self.group.is_empty()
    }

    /// The fsync policy this log was opened with.
    pub(crate) fn fsync(&self) -> FsyncPolicy {
        self.config.fsync
    }

    /// `true` once enough log has accumulated that the owner should
    /// [`WalShard::compact`].
    pub fn should_compact(&self) -> bool {
        self.bytes_since_snapshot >= self.config.compact_bytes
    }

    /// Replaces the snapshot file with `snapshots` (atomic tmp + rename)
    /// and truncates the log. A crash between rename and truncate leaves
    /// stale pre-snapshot frames in the log; replay skips them via each
    /// snapshot's `last_seq` watermark.
    pub fn compact(&mut self, snapshots: &[SessionSnapshot]) -> std::io::Result<()> {
        let snap_path = self.config.snap_path(self.shard);
        let tmp_path = self
            .config
            .dir
            .join(format!("shard-{}.snap.tmp", self.shard));
        let mut bytes = Vec::new();
        for snapshot in snapshots {
            frame_record(&mut bytes, |buf| snapshot.encode(buf));
        }
        {
            let mut tmp = File::create(&tmp_path)?;
            // lint:allow(reactor-blocking-call): compaction runs inline on
            // the shard worker by design (DESIGN.md §10) — one snapshot
            // write per compact interval, amortized across thousands of
            // appends; moving it off-thread would race the O_APPEND tail.
            tmp.write_all(&bytes)?;
            // lint:allow(reactor-blocking-call): the snapshot must be
            // durable before the rename publishes it; same amortization
            // argument as the write above.
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, &snap_path)?;
        // Records still buffered are already in the snapshots; written
        // after the truncation they would replay twice.
        self.group.clear();
        // Truncate the log in place: with O_APPEND the next write lands
        // at the (new) end regardless of the handle's cursor.
        self.file.set_len(0)?;
        if self.config.fsync == FsyncPolicy::Sync {
            // lint:allow(reactor-blocking-call): only under `--wal sync`,
            // the caller's explicit durability-over-latency choice.
            self.file.sync_data()?;
        }
        self.bytes_since_snapshot = 0;
        Ok(())
    }
}

/// Pid-stamped exclusivity lock on a WAL directory.
///
/// Two serve processes appending to the same shard logs would interleave
/// records and corrupt both histories, so `serve run --wal` takes this
/// lock before touching the directory. The lock is a `wal.lock` file
/// created with `O_EXCL` holding the owner's pid: a second process finds
/// it, checks whether that pid is still alive (via `/proc`, this being a
/// dependency-free Linux-first build), and either refuses
/// ([`std::io::ErrorKind::WouldBlock`]) or reclaims the stale file a
/// dead owner left behind. Dropping the guard removes the file. Where
/// liveness cannot be probed (`/proc` absent) the holder is presumed
/// alive — never reclaim on doubt.
#[derive(Debug)]
pub struct WalDirLock {
    path: PathBuf,
}

/// Lock-file name inside the WAL directory.
pub const WAL_LOCK_FILE: &str = "wal.lock";

fn pid_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    if !proc_root.is_dir() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

impl WalDirLock {
    /// Takes the exclusive lock on `dir` (creating the directory if
    /// needed). Fails with [`std::io::ErrorKind::WouldBlock`] when a
    /// live process holds it; a stale lock from a dead pid (or with
    /// unreadable contents) is reclaimed.
    pub fn acquire(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_LOCK_FILE);
        let mut reclaimed = false;
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    write!(file, "{}", std::process::id())?;
                    file.sync_data()?;
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid_alive(pid) => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::WouldBlock,
                                format!("wal dir {} is locked by live pid {pid}", dir.display()),
                            ));
                        }
                        _ => {
                            // Dead owner or garbage: reclaim once, then
                            // retry the exclusive create. A second
                            // AlreadyExists means we lost a race to
                            // another reclaimer — give up to it.
                            if reclaimed {
                                return Err(e);
                            }
                            let _ = std::fs::remove_file(&path);
                            reclaimed = true;
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The lock file's path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WalDirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What one shard's files replayed to.
#[derive(Debug, Default)]
pub struct ShardRecovery {
    /// The compaction snapshots, in file order.
    pub snapshots: Vec<SessionSnapshot>,
    /// The log tail's frames, in append (= processing) order.
    pub frames: Vec<ClientFrame>,
    /// Total verified payload bytes read from both files.
    pub bytes: u64,
    /// `true` when either file ended in a torn record that was dropped.
    pub torn: bool,
}

/// Reads and verifies `shard`'s snapshot + log tail from `dir`. Missing
/// files are empty recoveries, torn tails are dropped, CRC-verified
/// prefixes are kept — the only `Err` is a real I/O failure on an
/// existing file. Records that fail to decode as snapshots/frames end
/// the respective replay (treated like a torn tail).
pub fn read_shard(config: &WalConfig, shard: usize) -> std::io::Result<ShardRecovery> {
    let mut recovery = ShardRecovery::default();
    if let Some(bytes) = read_optional(&config.snap_path(shard))? {
        let (records, torn) = split_records(&bytes);
        recovery.torn |= torn;
        for payload in records {
            match SessionSnapshot::decode(payload) {
                Ok((snapshot, _)) => {
                    recovery.bytes += payload.len() as u64;
                    recovery.snapshots.push(snapshot);
                }
                Err(_) => {
                    recovery.torn = true;
                    break;
                }
            }
        }
    }
    if let Some(bytes) = read_optional(&config.wal_path(shard))? {
        let (records, torn) = split_records(&bytes);
        recovery.torn |= torn;
        'records: for payload in records {
            // One record holds one append, but one append may carry
            // several wire frames (a large batch splits into chunks) —
            // decode until the payload is exhausted.
            let mut pos = 0usize;
            while let Some(rest) = payload.get(pos..) {
                if rest.is_empty() {
                    break;
                }
                match decode_client(rest) {
                    Ok(Some((frame, consumed))) if consumed > 0 => {
                        pos += consumed;
                        recovery.frames.push(frame);
                    }
                    _ => {
                        recovery.torn = true;
                        break 'records;
                    }
                }
            }
            recovery.bytes += payload.len() as u64;
        }
    }
    Ok(recovery)
}

fn read_optional(path: &Path) -> std::io::Result<Option<Vec<u8>>> {
    match File::open(path) {
        Ok(mut file) => {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            Ok(Some(bytes))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{PipelineConfig, SessionPipeline};
    use crate::wire::encode_client;
    use grandma_events::{EventKind, InputEvent};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("grandma-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn event_frame(seq: u32) -> ClientFrame {
        ClientFrame::Event {
            session: 7,
            seq,
            event: InputEvent::new(EventKind::MouseMove, seq as f64, 0.0, seq as f64),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bit-at-a-time CRC-32 that [`crc32`] must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc32_matches_the_bitwise_reference_at_every_length() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let bytes: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for len in 0..=1024 {
            // Vary the start too, so every length is seen at several
            // offsets from an eight-byte boundary.
            let slice = &bytes[len % 8..len % 8 + len];
            assert_eq!(crc32(slice), crc32_bitwise(slice), "length {len}");
        }
    }

    /// One record in the on-disk format, built without the writer.
    fn hand_record(payload: &[u8]) -> Vec<u8> {
        let mut record = (payload.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&crc32_bitwise(payload).to_le_bytes());
        record.extend_from_slice(payload);
        record
    }

    #[test]
    fn a_hand_built_image_replays_and_the_writer_reproduces_it() {
        // `Open { session: 7 }` and `Close { session: 7, seq: 42 }` as
        // log records, byte for byte.
        const OPEN: [u8; 21] = [
            0x0d, 0x00, 0x00, 0x00, 0xf5, 0x6d, 0xd2, 0xac, 0x09, 0x00, 0x00, 0x00, 0x02, 0x07,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        const CLOSE: [u8; 25] = [
            0x11, 0x00, 0x00, 0x00, 0xec, 0x9e, 0xff, 0xa0, 0x0d, 0x00, 0x00, 0x00, 0x04, 0x07,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00,
        ];
        let batch = ClientFrame::EventBatch {
            session: 7,
            events: (1..=5)
                .map(|seq| {
                    let t = f64::from(seq);
                    (seq, InputEvent::new(EventKind::MouseMove, t, -t, t))
                })
                .collect(),
        };
        let frames = [
            ClientFrame::Open { session: 7 },
            batch,
            ClientFrame::Close {
                session: 7,
                seq: 42,
            },
        ];
        let mut batch_bytes = Vec::new();
        encode_client(&frames[1], &mut batch_bytes);
        let log = [&OPEN[..], &hand_record(&batch_bytes), &CLOSE[..]].concat();
        let mut pipeline = SessionPipeline::new(3, PipelineConfig::default());
        pipeline.feed(
            &recognizer(),
            1,
            InputEvent::new(
                EventKind::MouseDown {
                    button: grandma_events::Button::Left,
                },
                1.0,
                2.0,
                0.0,
            ),
            &mut Vec::new(),
        );
        let snapshots = vec![
            pipeline.snapshot(),
            SessionSnapshot {
                session: 9,
                ..pipeline.snapshot()
            },
        ];
        let mut snap = Vec::new();
        for snapshot in &snapshots {
            let mut payload = Vec::new();
            snapshot.encode(&mut payload);
            snap.extend_from_slice(&hand_record(&payload));
        }

        let config = WalConfig::new(tmp_dir("pinned"), FsyncPolicy::Sync);
        std::fs::create_dir_all(&config.dir).expect("mkdir");
        std::fs::write(config.wal_path(0), &log).expect("write log");
        std::fs::write(config.snap_path(0), &snap).expect("write snap");
        let recovery = read_shard(&config, 0).expect("read");
        assert_eq!(recovery.frames, frames);
        assert_eq!(recovery.snapshots, snapshots);
        assert!(!recovery.torn);

        // The writer produces the same bytes, grouped or not.
        let mut wal = WalShard::open(config.clone(), 1).expect("open");
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.clear();
            encode_client(frame, &mut bytes);
            wal.write_record(|buf| buf.extend_from_slice(&bytes))
                .expect("write");
        }
        assert!(wal.sync().expect("sync"));
        assert_eq!(std::fs::read(config.wal_path(1)).expect("read log"), log);
        wal.compact(&snapshots).expect("compact");
        assert_eq!(std::fs::read(config.snap_path(1)).expect("read snap"), snap);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn append_and_replay_round_trip() {
        let config = WalConfig::new(tmp_dir("roundtrip"), FsyncPolicy::Sync);
        let mut wal = WalShard::open(config.clone(), 0).expect("open");
        let frames: Vec<ClientFrame> = (1..=5).map(event_frame).collect();
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.clear();
            encode_client(frame, &mut bytes);
            wal.append_frame(&bytes).expect("append");
        }
        let recovery = read_shard(&config, 0).expect("read");
        assert_eq!(recovery.frames, frames);
        assert!(recovery.snapshots.is_empty());
        assert!(!recovery.torn);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn one_sync_covers_every_record_written_before_it() {
        let config = WalConfig::new(tmp_dir("halves"), FsyncPolicy::Sync);
        let mut wal = WalShard::open(config.clone(), 0).expect("open");
        assert!(
            !wal.sync().expect("sync"),
            "nothing written, nothing to sync"
        );
        let frames: Vec<ClientFrame> = (1..=3).map(event_frame).collect();
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.clear();
            encode_client(frame, &mut bytes);
            wal.write_record(|buf| buf.extend_from_slice(&bytes))
                .expect("write");
            assert!(wal.unsynced());
        }
        assert!(wal.sync().expect("sync"), "one sync for the three records");
        assert!(!wal.unsynced());
        assert!(!wal.sync().expect("sync"), "and none after it");
        assert_eq!(read_shard(&config, 0).expect("read").frames, frames);
        let _ = std::fs::remove_dir_all(&config.dir);

        // Async never has anything to sync.
        let config = WalConfig::new(tmp_dir("halves-async"), FsyncPolicy::Async);
        let mut wal = WalShard::open(config.clone(), 0).expect("open");
        wal.write_record(|buf| buf.extend_from_slice(&bytes))
            .expect("write");
        assert!(!wal.unsynced());
        assert!(!wal.sync().expect("sync"));
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn a_large_record_does_not_pin_the_group_buffer() {
        for fsync in [FsyncPolicy::Sync, FsyncPolicy::Async] {
            let config = WalConfig::new(tmp_dir("retain"), fsync);
            let mut wal = WalShard::open(config.clone(), 0).expect("open");
            let big = vec![0xA5; 4 * GROUP_RETAIN];
            wal.write_record(|buf| buf.extend_from_slice(&big))
                .expect("write");
            wal.sync().expect("sync");
            assert!(wal.group.capacity() <= GROUP_RETAIN, "{fsync:?}");
            let recovered = split_records(&std::fs::read(config.wal_path(0)).expect("read"))
                .0
                .concat();
            assert_eq!(recovered, big, "{fsync:?}");
            let _ = std::fs::remove_dir_all(&config.dir);
        }
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let config = WalConfig::new(tmp_dir("torn"), FsyncPolicy::Async);
        let mut wal = WalShard::open(config.clone(), 0).expect("open");
        let mut bytes = Vec::new();
        for seq in 1..=3 {
            bytes.clear();
            encode_client(&event_frame(seq), &mut bytes);
            wal.append_frame(&bytes).expect("append");
        }
        drop(wal);
        // Simulate a crash mid-append: chop bytes off the tail record.
        let path = config.wal_path(0);
        let full = std::fs::read(&path).expect("read back");
        for cut in 1..12 {
            std::fs::write(&path, &full[..full.len() - cut]).expect("truncate");
            let recovery = read_shard(&config, 0).expect("read");
            assert_eq!(recovery.frames.len(), 2, "cut {cut}: tail dropped");
            assert!(recovery.torn, "cut {cut}: torn tail reported");
        }
        // A corrupted byte mid-record fails its CRC and ends the replay.
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        std::fs::write(&path, &flipped).expect("write corrupt");
        let recovery = read_shard(&config, 0).expect("read");
        assert!(recovery.frames.len() < 3);
        assert!(recovery.torn);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn compaction_snapshots_and_truncates() {
        let mut config = WalConfig::new(tmp_dir("compact"), FsyncPolicy::Async);
        config.compact_bytes = 64;
        let mut wal = WalShard::open(config.clone(), 2).expect("open");
        let mut bytes = Vec::new();
        for seq in 1..=4 {
            bytes.clear();
            encode_client(&event_frame(seq), &mut bytes);
            wal.append_frame(&bytes).expect("append");
        }
        assert!(wal.should_compact());
        let mut pipeline = SessionPipeline::new(7, PipelineConfig::default());
        pipeline.feed(
            &recognizer(),
            4,
            InputEvent::new(
                EventKind::MouseDown {
                    button: grandma_events::Button::Left,
                },
                0.0,
                0.0,
                0.0,
            ),
            &mut Vec::new(),
        );
        let snapshots = vec![pipeline.snapshot()];
        wal.compact(&snapshots).expect("compact");
        assert!(!wal.should_compact());
        let recovery = read_shard(&config, 2).expect("read");
        assert_eq!(recovery.snapshots, snapshots);
        assert!(recovery.frames.is_empty(), "log truncated after compact");
        // New appends land in the truncated log.
        bytes.clear();
        encode_client(&event_frame(9), &mut bytes);
        wal.append_frame(&bytes).expect("append");
        let recovery = read_shard(&config, 2).expect("read");
        assert_eq!(recovery.frames, vec![event_frame(9)]);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    fn recognizer() -> grandma_core::EagerRecognizer {
        let data = grandma_synth::datasets::eight_way(0x2b2b, 6, 0);
        let (rec, _) = grandma_core::EagerRecognizer::train(
            &data.training,
            &grandma_core::FeatureMask::all(),
            &grandma_core::EagerConfig::default(),
        )
        .expect("training succeeds");
        rec
    }

    #[test]
    fn wal_dir_lock_is_exclusive_while_held() {
        let dir = tmp_dir("lock-exclusive");
        let lock = WalDirLock::acquire(&dir).expect("first acquire");
        let again = WalDirLock::acquire(&dir);
        let err = again.expect_err("second acquire must fail while held");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        drop(lock);
        // Released on drop: a fresh acquire succeeds and the file is
        // re-stamped with our pid.
        let relock = WalDirLock::acquire(&dir).expect("acquire after drop");
        let stamped = std::fs::read_to_string(relock.path()).expect("read lock");
        assert_eq!(stamped.trim(), std::process::id().to_string());
        drop(relock);
        assert!(!dir.join(WAL_LOCK_FILE).exists(), "drop removes the file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_wal_dir_lock_from_dead_pid_is_reclaimed() {
        let dir = tmp_dir("lock-stale");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // No live process has pid u32::MAX (kernel pid_max is far
        // lower), so this lock is stale by construction; garbage
        // contents must be treated the same way.
        for stale in ["4294967295", "not-a-pid"] {
            std::fs::write(dir.join(WAL_LOCK_FILE), stale).expect("plant stale lock");
            let lock = WalDirLock::acquire(&dir).expect("reclaims stale lock");
            let stamped = std::fs::read_to_string(lock.path()).expect("read lock");
            assert_eq!(stamped.trim(), std::process::id().to_string());
            drop(lock);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_files_recover_empty() {
        let config = WalConfig::new(tmp_dir("missing"), FsyncPolicy::Async);
        let recovery = read_shard(&config, 0).expect("read");
        assert!(recovery.snapshots.is_empty());
        assert!(recovery.frames.is_empty());
        assert!(!recovery.torn);
    }
}
