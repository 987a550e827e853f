//! Write-ahead wire log: per-shard durability for accepted client frames.
//!
//! Each shard worker owns one [`WalShard`]: a log file (`shard-<i>.wal`)
//! of every *accepted* `Open`/`Event`/`EventBatch`/`Close` frame, in
//! processing order, plus a compaction snapshot file (`shard-<i>.snap`)
//! of [`SessionSnapshot`]s. Because the worker is the exclusive owner of
//! its sessions, the log needs no locking and is trivially consistent
//! with the pipelines it protects: a frame is journaled *before* it is
//! fed (write-ahead), so a crash at any instant loses at most frames
//! that were never acknowledged.
//!
//! On-disk record format, identical for both files:
//!
//! ```text
//! ┌────────────┬────────────┬─────────────────────┐
//! │ u32 LE len │ u32 LE crc │ payload (len bytes) │
//! └────────────┴────────────┴─────────────────────┘
//! ```
//!
//! A WAL payload is one wire-encoded client frame (the same bytes the
//! transport received, re-encoded by [`crate::wire::encode_client`]); a
//! snapshot payload is one [`SessionSnapshot::encode`].
//!
//! Generations: the log is recycled, never truncated. Each compaction
//! bumps the shard's *generation*, a `u64`, and the next lap of the log
//! overwrites the file in place from offset 0. The snapshot file names
//! its generation in its first record, a 10-byte payload: `u16` 0 (a
//! version no [`SessionSnapshot`] has, so it never decodes as one), then
//! the generation, LE. A log record's crc is the CRC-32 of the
//! generation's 8 LE bytes followed by the payload, so a stale record
//! of an earlier lap fails the check. Generation 0 is the plain
//! `crc32(payload)`, and a snapshot file without a generation record is
//! generation 0: a log written before generations, and the first lap of
//! a fresh log, read and are written byte for byte as before. Snapshot
//! records always carry the plain CRC.
//!
//! Reading a log stops at the first record that is truncated, oversized
//! or fails its crc in the snapshot's generation. EOF and a *zero
//! header* (eight zero bytes: no writer frames an empty payload) are
//! clean ends; any other stop is a torn tail, dropped silently and
//! reported, never a panic, and everything before it is intact by
//! checksum. A writer keeps the offset where its lap's records end. A
//! write that ends short of the file's length (overwriting an earlier
//! lap) is followed by a zero header, which the next write overwrites;
//! a write that reaches EOF needs none.
//!
//! Compaction: once [`WalConfig::compact_bytes`] of log have accumulated,
//! the worker snapshots every live session, behind the next generation's
//! record, into `shard-<i>.snap.tmp`, fsyncs, and renames it over
//! `shard-<i>.snap`. A rename is durable only once its directory is
//! synced, so under [`FsyncPolicy::Sync`] the directory is synced after
//! the rename. The new generation then starts at offset 0, where the
//! compaction writes a zero header. That header needs no sync: a stale
//! record fails the generation check either way, and the header only
//! keeps the torn flag exact. The file stays at the size of its largest
//! lap, so after the first lap every group commit overwrites blocks that
//! already exist, and its `sync_data` need not commit a new file size.
//! Opening a log syncs the directory too, so a freshly created log
//! survives power loss.
//!
//! I/O comes in two halves. `WalShard::write_record` frames a record
//! straight into the shard's group buffer, with the header patched in
//! once the payload's length and CRC are known. `WalShard::sync` writes
//! the whole buffer with one positional write at the lap's offset, then
//! issues one `sync_data` that covers it. [`WalShard::append_frame`] is
//! both at once.
//!
//! Fsync policy ([`FsyncPolicy`]): `Sync` makes every record durable to
//! the platter before anything that depends on it is acknowledged. The
//! shard worker commits in groups: it journals the records of up to 64
//! already-queued messages into the buffer, then pays one write and one
//! sync for the group, and only then delivers the replies the group
//! produced (ack-after-durable). `Async` keeps no group open, so each
//! record is written at once, one write per record, and never synced
//! (durable to the page cache — survives process crashes, not power
//! loss). "Off" is represented by not configuring a WAL at all
//! (`ServeConfig::wal: None`).

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

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

/// The header that ends a lap's records short of the file's end.
const ZERO_HEADER: [u8; RECORD_HEADER_LEN] = [0; RECORD_HEADER_LEN];

/// The first two bytes of a generation record's payload: snapshot
/// version 0, which [`SessionSnapshot::decode`] rejects.
const GENERATION_TAG: [u8; 2] = [0, 0];

// The tag must never be a snapshot version, or a snapshot could be read
// as a generation record.
const _: () = assert!(SessionSnapshot::VERSION != 0);

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
    !crc32_fold(!0, bytes)
}

/// Folds `bytes` into the CRC-32 register `crc` (pre- and
/// post-inversion are the caller's).
fn crc32_fold(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// A record's checksum in `generation`: the CRC-32 of the generation's
/// 8 LE bytes followed by the payload, or the plain [`crc32`] of the
/// payload in generation 0.
fn record_crc(generation: u64, payload: &[u8]) -> u32 {
    if generation == 0 {
        return crc32(payload);
    }
    !crc32_fold(crc32_fold(!0, &generation.to_le_bytes()), payload)
}

/// Frames one record of `generation` onto `out`: the payload `encode`
/// appends, behind a header patched in once the payload's length and
/// CRC are known. Returns the record's length, header included.
fn frame_record(out: &mut Vec<u8>, generation: u64, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&ZERO_HEADER);
    encode(out);
    let (header, payload) = out[start..].split_at_mut(RECORD_HEADER_LEN);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&record_crc(generation, payload).to_le_bytes());
    out.len() - start
}

/// The verified records at the start of a file.
struct Records<'a> {
    payloads: Vec<&'a [u8]>,
    /// The offset just past the last verified record.
    end: usize,
    /// `false` when the records end at EOF or at a zero header.
    torn: bool,
}

/// Splits `bytes` into the payloads of verified records of
/// `generation`. Stops (without error) at EOF, at a zero header, or at
/// the first truncated, oversized or CRC-mismatched record, which is a
/// torn tail.
fn split_records(bytes: &[u8], generation: u64) -> Records<'_> {
    let mut records = Records {
        payloads: Vec::new(),
        end: 0,
        torn: true,
    };
    loop {
        let pos = records.end;
        let rest = bytes.get(pos..).unwrap_or_default();
        if rest.is_empty() || rest.starts_with(&ZERO_HEADER) {
            records.torn = false;
            return records;
        }
        let Some(header) = rest.get(..RECORD_HEADER_LEN) else {
            return records;
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let Ok(len) = usize::try_from(len) else {
            return records;
        };
        if len > MAX_RECORD_LEN {
            return records;
        }
        let Some(payload) = rest.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len) else {
            return records;
        };
        if record_crc(generation, payload) != crc {
            return records;
        }
        records.payloads.push(payload);
        records.end = pos + RECORD_HEADER_LEN + len;
    }
}

/// The generation a snapshot file's payloads name, and the snapshot
/// payloads behind its generation record (all of them when it has
/// none: generation 0).
fn split_generation<'a, 'b>(payloads: &'b [&'a [u8]]) -> (u64, &'b [&'a [u8]]) {
    if let Some((first, snapshots)) = payloads.split_first() {
        if let Some(generation) = first
            .strip_prefix(&GENERATION_TAG)
            .and_then(|g| <[u8; 8]>::try_from(g).ok())
        {
            return (u64::from_le_bytes(generation), snapshots);
        }
    }
    (0, payloads)
}

/// The log file's I/O seam, in a module of its own so that its methods,
/// and the `FileExt` import behind them, stay apart from the
/// `std::io::Write` calls on the other files this module writes.
pub(crate) mod seam {
    use std::fs::File;
    use std::os::unix::fs::FileExt;
    use std::sync::Arc;

    /// The log file's I/O, through which tests stall or fail a shard's
    /// writes and syncs. `File` is the production implementation.
    pub(crate) trait LogFile: Send {
        /// Writes `bytes` at `offset`, overwriting what is there and
        /// extending the file past its end.
        fn write_all_at(&mut self, bytes: &[u8], offset: u64) -> std::io::Result<()>;
        /// Flushes the written data to stable storage.
        fn sync_data(&mut self) -> std::io::Result<()>;
    }

    impl LogFile for File {
        fn write_all_at(&mut self, bytes: &[u8], offset: u64) -> std::io::Result<()> {
            FileExt::write_all_at(self, bytes, offset)
        }

        fn sync_data(&mut self) -> std::io::Result<()> {
            File::sync_data(self)
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
    /// The current lap's generation, named by the snapshot file; it
    /// seeds every log record's CRC.
    generation: u64,
    /// Where the next write lands: the end of the lap's written
    /// records, so the log bytes written since the last compaction.
    offset: u64,
    /// The log file's length. A write that ends short of it is followed
    /// by a zero header.
    len: u64,
    /// Framed records not yet written. Under [`FsyncPolicy::Sync`] this
    /// is the open group, written and synced by [`WalShard::sync`];
    /// under [`FsyncPolicy::Async`] it is empty between appends.
    group: Vec<u8>,
    /// Nanoseconds the last [`WalShard::sync`] spent in `sync_data`.
    last_sync_ns: u64,
}

impl WalShard {
    /// Opens (creating if needed) the log for `shard` under
    /// `config.dir`, in the generation the snapshot file names, with the
    /// writer placed at the end of that generation's verified records.
    ///
    /// A log left by a crash must not be appended to in the same
    /// generation: records of a torn group may lie past the verified
    /// prefix, and an append that ends on one of their boundaries would
    /// let them replay. Nothing in this crate does: `serve` run with a
    /// WAL but without `--recover` clears the directory first, and
    /// [`crate::SessionRouter::recover`] ends with
    /// [`crate::SessionRouter::checkpoint_all`], whose compaction starts
    /// a new generation before any record is appended.
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
        let snap = read_optional(&config.snap_path(shard))?.unwrap_or_default();
        let (generation, _) = split_generation(&split_records(&snap, 0).payloads);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(config.wal_path(shard))?;
        let mut log = Vec::new();
        file.read_to_end(&mut log)?;
        let offset = split_records(&log, generation).end as u64;
        if config.fsync == FsyncPolicy::Sync {
            File::open(&config.dir)?.sync_all()?;
        }
        let file: Box<dyn seam::LogFile> = match wrap {
            Some(wrap) => wrap(file),
            None => Box::new(file),
        };
        Ok(Self {
            config,
            shard,
            file,
            generation,
            offset,
            len: log.len() as u64,
            group: Vec::new(),
            last_sync_ns: 0,
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
        let written = frame_record(&mut self.group, self.generation, encode) as u64;
        if self.config.fsync == FsyncPolicy::Async {
            self.write_group()?;
        }
        Ok(written)
        // lint:reactor-loop end
    }

    /// The sync half: one write of the group buffer, then one
    /// `sync_data` covering every record written since the last sync.
    /// Returns whether it wrote and synced — `false` when nothing is
    /// pending, which is always the case under [`FsyncPolicy::Async`].
    pub(crate) fn sync(&mut self) -> std::io::Result<bool> {
        if self.group.is_empty() {
            return Ok(false);
        }
        self.write_group()?;
        let start = Instant::now();
        self.file.sync_data()?;
        self.last_sync_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(true)
    }

    /// Nanoseconds the last [`WalShard::sync`] that wrote spent in
    /// `sync_data`.
    pub(crate) fn last_sync_ns(&self) -> u64 {
        self.last_sync_ns
    }

    /// Writes the group buffer at the lap's offset with one positional
    /// write, behind a zero header when it ends short of the file, and
    /// empties it, keeping at most [`GROUP_RETAIN`] of its capacity.
    fn write_group(&mut self) -> std::io::Result<()> {
        let end = self.offset + self.group.len() as u64;
        if end < self.len {
            self.group.extend_from_slice(&ZERO_HEADER);
        }
        // lint:allow(reactor-blocking-call): the write-ahead durability
        // contract — one positional write per group commit under `--wal
        // sync`, one per record under `--wal async` (whose replies are not
        // held), and a lone zero header per compaction; `--wal` is an
        // explicit durability opt-in.
        let written = self.file.write_all_at(&self.group, self.offset);
        if written.is_ok() {
            self.len = self.len.max(self.offset + self.group.len() as u64);
            self.offset = end;
        }
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
        self.offset + self.group.len() as u64 >= self.config.compact_bytes
    }

    /// Replaces the snapshot file with the next generation's record and
    /// `snapshots` (atomic tmp + rename), then starts that generation's
    /// lap at offset 0 with a zero header. Under [`FsyncPolicy::Sync`]
    /// the directory is synced after the rename, so no record of the new
    /// generation is written ahead of a durable rename. Nothing is
    /// truncated or synced in the log: the old lap's records fail the
    /// new generation's check.
    pub fn compact(&mut self, snapshots: &[SessionSnapshot]) -> std::io::Result<()> {
        let generation = self.generation + 1;
        let snap_path = self.config.snap_path(self.shard);
        let tmp_path = self
            .config
            .dir
            .join(format!("shard-{}.snap.tmp", self.shard));
        let mut bytes = Vec::new();
        frame_record(&mut bytes, 0, |buf| {
            buf.extend_from_slice(&GENERATION_TAG);
            buf.extend_from_slice(&generation.to_le_bytes());
        });
        for snapshot in snapshots {
            frame_record(&mut bytes, 0, |buf| snapshot.encode(buf));
        }
        {
            let mut tmp = File::create(&tmp_path)?;
            // lint:allow(reactor-blocking-call): compaction runs inline on
            // the shard worker by design (DESIGN.md §10) — one snapshot
            // write per compact interval, amortized across thousands of
            // appends; moving it off-thread would race the log's writer.
            tmp.write_all(&bytes)?;
            // lint:allow(reactor-blocking-call): the snapshot must be
            // durable before the rename publishes it; same amortization
            // argument as the write above.
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, &snap_path)?;
        if self.config.fsync == FsyncPolicy::Sync {
            // lint:allow(reactor-blocking-call): only under `--wal sync`;
            // the rename is durable only once its directory is synced.
            File::open(&self.config.dir)?.sync_all()?;
        }
        self.generation = generation;
        // Records still buffered are already in the snapshots; written
        // in the new generation they would replay twice.
        self.group.clear();
        self.offset = 0;
        if self.len > 0 {
            // The empty group of the new lap: its zero header alone.
            self.write_group()?;
        }
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
    /// Total verified snapshot and frame payload bytes read from both
    /// files (the generation record aside).
    pub bytes: u64,
    /// `true` when either file ended in a torn record that was dropped.
    pub torn: bool,
}

/// Reads and verifies `shard`'s snapshot file and the log records of
/// the generation it names from `config.dir`. Missing files are empty
/// recoveries, torn tails are dropped, CRC-verified
/// prefixes are kept — the only `Err` is a real I/O failure on an
/// existing file. Records that fail to decode as snapshots/frames end
/// the respective replay (treated like a torn tail).
pub fn read_shard(config: &WalConfig, shard: usize) -> std::io::Result<ShardRecovery> {
    let snap = read_optional(&config.snap_path(shard))?.unwrap_or_default();
    let log = read_optional(&config.wal_path(shard))?.unwrap_or_default();
    Ok(replay(&snap, &log))
}

/// [`read_shard`] over the two files' bytes (a missing file is empty):
/// the snapshot file's records, then the log's records in the
/// generation the snapshot file names.
fn replay(snap: &[u8], log: &[u8]) -> ShardRecovery {
    let mut recovery = ShardRecovery::default();
    let snap = split_records(snap, 0);
    recovery.torn |= snap.torn;
    let (generation, snapshots) = split_generation(&snap.payloads);
    for payload in snapshots {
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
    let log = split_records(log, generation);
    recovery.torn |= log.torn;
    'records: for payload in log.payloads {
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
    recovery
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
    use std::sync::{Arc, Mutex};

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
        // The compaction starts generation 1, which the snapshot file
        // names in a record of its own ahead of the snapshots.
        const GENERATION_1: [u8; 18] = [
            0x0a, 0x00, 0x00, 0x00, 0xe8, 0x68, 0x20, 0x2f, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00,
        ];
        assert_eq!(
            std::fs::read(config.snap_path(1)).expect("read snap"),
            [&GENERATION_1[..], &snap].concat()
        );
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    /// A generation record's payload, built without the writer.
    fn hand_generation(generation: u64) -> Vec<u8> {
        [&[0u8, 0][..], &generation.to_le_bytes()].concat()
    }

    /// One log record of `generation`, built without the writer.
    fn hand_log_record(generation: u64, payload: &[u8]) -> Vec<u8> {
        let seeded = [&generation.to_le_bytes()[..], payload].concat();
        let mut record = (payload.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&crc32_bitwise(&seeded).to_le_bytes());
        record.extend_from_slice(payload);
        record
    }

    #[test]
    fn a_hand_built_lapped_image_stops_at_the_zero_header_and_the_writer_reproduces_it() {
        let encoded = |frame: &ClientFrame| {
            let mut bytes = Vec::new();
            encode_client(frame, &mut bytes);
            bytes
        };
        // Generation 1 wrote two Closes and a third record; generation 2
        // overwrote the Closes with two Opens and a zero header, which
        // leaves generation 1's last record, a Close of session 7, intact
        // behind it.
        let lap_1 = [
            ClientFrame::Close { session: 5, seq: 1 },
            ClientFrame::Close { session: 6, seq: 1 },
            ClientFrame::Close {
                session: 7,
                seq: 42,
            },
        ];
        let lap_2 = [
            ClientFrame::Open { session: 7 },
            ClientFrame::Open { session: 8 },
        ];
        let stale = hand_log_record(1, &encoded(&lap_1[2]));
        let log = [
            hand_log_record(2, &encoded(&lap_2[0])),
            hand_log_record(2, &encoded(&lap_2[1])),
            vec![0; 8],
            stale.clone(),
        ]
        .concat();
        let mut pipeline = SessionPipeline::new(7, PipelineConfig::default());
        pipeline.feed(
            &recognizer(),
            1,
            InputEvent::new(
                EventKind::MouseDown {
                    button: grandma_events::Button::Left,
                },
                3.0,
                4.0,
                0.0,
            ),
            &mut Vec::new(),
        );
        let snapshots = vec![pipeline.snapshot()];
        let mut snap = hand_record(&hand_generation(2));
        let mut payload = Vec::new();
        snapshots[0].encode(&mut payload);
        snap.extend_from_slice(&hand_record(&payload));

        let config = WalConfig::new(tmp_dir("pinned-lapped"), FsyncPolicy::Sync);
        std::fs::create_dir_all(&config.dir).expect("mkdir");
        std::fs::write(config.wal_path(0), &log).expect("write log");
        std::fs::write(config.snap_path(0), &snap).expect("write snap");
        let recovery = read_shard(&config, 0).expect("read");
        assert_eq!(recovery.frames, lap_2, "replay stops at the zero header");
        assert_eq!(recovery.snapshots, snapshots);
        assert!(!recovery.torn);
        // Only the generation keeps the stale record out: it verifies in
        // its own.
        assert_eq!(split_records(&stale, 1).payloads.len(), 1);
        assert!(split_records(&stale, 2).torn);

        // The writer's second lap lands on the same bytes.
        let mut wal = WalShard::open(config.clone(), 1).expect("open");
        wal.compact(&[]).expect("start generation 1");
        commit_group(&mut wal, &lap_1);
        wal.compact(&snapshots).expect("start generation 2");
        commit_group(&mut wal, &lap_2);
        assert_eq!(std::fs::read(config.wal_path(1)).expect("read log"), log);
        assert_eq!(std::fs::read(config.snap_path(1)).expect("read snap"), snap);
        // Reopened, the writer resumes at the zero header.
        let wal = WalShard::open(config.clone(), 1).expect("reopen");
        assert_eq!(
            (wal.generation, wal.offset, wal.len),
            (2, 42, log.len() as u64)
        );
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    /// Journals `frames` as one group and commits it.
    fn commit_group(wal: &mut WalShard, frames: &[ClientFrame]) {
        for frame in frames {
            wal.write_record(|buf| encode_client(frame, buf))
                .expect("write");
        }
        assert!(wal.sync().expect("sync"));
    }

    /// A log file's I/O as seen by the disk: positional writes, each
    /// volatile until a later sync.
    #[derive(Debug)]
    enum DiskOp {
        Write(u64, Vec<u8>),
        Sync,
    }

    /// A [`seam::LogFile`] that records its I/O instead of doing it, so
    /// a test can build the image every crash would leave.
    #[derive(Clone, Default)]
    struct RecordedLog(Arc<Mutex<Vec<DiskOp>>>);

    impl seam::LogFile for RecordedLog {
        fn write_all_at(&mut self, bytes: &[u8], offset: u64) -> std::io::Result<()> {
            let op = DiskOp::Write(offset, bytes.to_vec());
            self.0.lock().expect("ops").push(op);
            Ok(())
        }

        fn sync_data(&mut self) -> std::io::Result<()> {
            self.0.lock().expect("ops").push(DiskOp::Sync);
            Ok(())
        }
    }

    impl RecordedLog {
        fn wrap(&self) -> LogWrap {
            let log = self.clone();
            Arc::new(move |_file| Box::new(log.clone()))
        }

        /// The writes recorded since the last take, split after each
        /// sync: every group but the last ends in a sync.
        fn take_groups(&self) -> Vec<Vec<(u64, Vec<u8>)>> {
            let mut groups = vec![Vec::new()];
            for op in std::mem::take(&mut *self.0.lock().expect("ops")) {
                match op {
                    DiskOp::Write(offset, bytes) => {
                        groups.last_mut().expect("a group").push((offset, bytes));
                    }
                    DiskOp::Sync => groups.push(Vec::new()),
                }
            }
            groups
        }

        /// The writes the one sync recorded since the last take covers.
        fn take_synced_writes(&self) -> Vec<(u64, Vec<u8>)> {
            let mut groups = self.take_groups();
            assert_eq!(groups.len(), 2, "one sync");
            assert!(groups[1].is_empty(), "no write after the sync");
            groups.swap_remove(0)
        }
    }

    /// Bytes of a sector, the unit a torn write persists or loses.
    const SECTOR: u64 = 512;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Writes `bytes` at `offset` of `image`, zero-filling any gap.
    fn put(image: &mut Vec<u8>, offset: u64, bytes: &[u8]) {
        let at = offset as usize;
        if image.len() < at + bytes.len() {
            image.resize(at + bytes.len(), 0);
        }
        image[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Log bytes `frames` take as records, one record per frame.
    fn record_bytes(frames: &[ClientFrame]) -> usize {
        let mut bytes = Vec::new();
        frames
            .iter()
            .map(|frame| {
                bytes.clear();
                encode_client(frame, &mut bytes);
                RECORD_HEADER_LEN + bytes.len()
            })
            .sum()
    }

    /// Replays one crash image of the log against `snap` and checks it:
    /// every frame of `synced` is recovered, the recovered frames are a
    /// prefix of `written`, none of them is in `foreign`, and the log
    /// reads as torn exactly when its records end neither at EOF nor at
    /// a zero header.
    fn check_image(
        snap: &[u8],
        image: &[u8],
        synced: &[ClientFrame],
        written: &[ClientFrame],
        foreign: &[ClientFrame],
    ) -> ShardRecovery {
        let recovery = replay(snap, image);
        let frames = &recovery.frames;
        assert!(
            frames.len() >= synced.len() && written.starts_with(frames),
            "recovered {} frames, {} synced, {} written",
            frames.len(),
            synced.len(),
            written.len()
        );
        assert!(frames.iter().all(|f| !foreign.contains(f)), "{frames:?}");
        let end = record_bytes(frames);
        let clean = image.len() == end || image[end..].starts_with(&ZERO_HEADER);
        assert_eq!(
            recovery.torn,
            !clean,
            "records end at {end} of {}",
            image.len()
        );
        recovery
    }

    /// Checks the crash images of one group commit: the log before it,
    /// `durable`, with the group's `writes` landed through every byte
    /// cut, and torn at random subsets of their sectors. After the
    /// sync, the whole group must replay and the log must not be torn.
    fn check_crash_images(
        snap: &[u8],
        durable: &[u8],
        writes: &[(u64, Vec<u8>)],
        synced: &[ClientFrame],
        written: &[ClientFrame],
        foreign: &[ClientFrame],
        rng: &mut u64,
    ) {
        let mut image = durable.to_vec();
        check_image(snap, &image, synced, written, foreign);
        for (offset, bytes) in writes {
            for (i, &byte) in bytes.iter().enumerate() {
                put(&mut image, offset + i as u64, &[byte]);
                check_image(snap, &image, synced, written, foreign);
            }
        }
        let synced_image = check_image(snap, &image, synced, written, foreign);
        assert_eq!(synced_image.frames, written, "the synced group replays");
        assert!(!synced_image.torn, "a synced log is not torn");

        for _ in 0..8 {
            // Bit `s % 64` of `kept` says whether sector `s` landed.
            let kept = xorshift(rng);
            let mut image = durable.to_vec();
            for (offset, bytes) in writes {
                for (i, &byte) in bytes.iter().enumerate() {
                    let at = offset + i as u64;
                    if kept >> (at / SECTOR % 64) & 1 == 1 {
                        put(&mut image, at, &[byte]);
                    }
                }
            }
            check_image(snap, &image, synced, written, foreign);
        }
    }

    /// One event frame of `seq` for session 7: a v1 `Event`, or an
    /// `EventBatch` of one to three events, so records differ in length.
    fn lap_frame(seq: &mut u32, rng: &mut u64) -> ClientFrame {
        let kind = xorshift(rng) % 4;
        let mut next = || {
            *seq += 1;
            let t = f64::from(*seq);
            (*seq, InputEvent::new(EventKind::MouseMove, t, -t, t))
        };
        if kind == 0 {
            let (seq, event) = next();
            ClientFrame::Event {
                session: 7,
                seq,
                event,
            }
        } else {
            ClientFrame::EventBatch {
                session: 7,
                events: (0..kind).map(|_| next()).collect(),
            }
        }
    }

    /// Drives a recycled log over `laps` compactions, checking the crash
    /// images of every group commit. Returns the log's durable bytes,
    /// the snapshot file's, the recorder and the writer.
    fn drive_laps(
        config: &WalConfig,
        laps: usize,
        rng: &mut u64,
    ) -> (Vec<u8>, Vec<u8>, RecordedLog, WalShard) {
        let disk = RecordedLog::default();
        let mut wal = WalShard::open_with(config.clone(), 0, Some(&disk.wrap())).expect("open");
        let (mut durable, mut snap) = (Vec::new(), Vec::new());
        let mut synced: Vec<ClientFrame> = Vec::new();
        let (mut seq, mut lap) = (0u32, 0);
        while lap < laps {
            if wal.should_compact() {
                wal.compact(&[]).expect("compact");
                snap = std::fs::read(config.snap_path(0)).expect("read snap");
                synced.clear();
                lap += 1;
            }
            let group: Vec<ClientFrame> = (0..1 + xorshift(rng) % 12)
                .map(|_| lap_frame(&mut seq, rng))
                .collect();
            commit_group(&mut wal, &group);
            let written = [&synced[..], &group].concat();
            let writes = disk.take_synced_writes();
            check_crash_images(&snap, &durable, &writes, &synced, &written, &[], rng);
            for (offset, bytes) in &writes {
                put(&mut durable, *offset, bytes);
            }
            synced = written;
        }
        (durable, snap, disk, wal)
    }

    #[test]
    fn every_crash_image_of_a_recycled_log_replays_a_prefix_of_its_generation() {
        let mut config = WalConfig::new(tmp_dir("crash-images"), FsyncPolicy::Sync);
        config.compact_bytes = 1536;
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        let (durable, _, _, wal) = drive_laps(&config, 4, &mut rng);
        assert_eq!(wal.generation, 4);
        assert!(
            durable.len() as u64 <= config.compact_bytes + 1024,
            "the file stays at its largest lap: {}",
            durable.len()
        );
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn recovery_starts_a_generation_in_which_no_torn_record_replays() {
        let mut config = WalConfig::new(tmp_dir("reopen"), FsyncPolicy::Sync);
        config.compact_bytes = 1536;
        let mut rng = 0x2545_F491_4F6C_DD1D;
        let (durable, snap, disk, mut wal) = drive_laps(&config, 2, &mut rng);

        // Tear one more group: every sector lands but its first, so the
        // log still ends cleanly where the group began, and the group's
        // later records lie intact past that end.
        let torn_group: Vec<ClientFrame> = (1..=40)
            .map(|seq| ClientFrame::Event {
                session: 9,
                seq,
                event: InputEvent::new(EventKind::MouseMove, 1.0, 2.0, f64::from(seq)),
            })
            .collect();
        let start = wal.offset;
        for frame in &torn_group {
            wal.write_record(|buf| encode_client(frame, buf))
                .expect("write");
        }
        assert!(wal.sync().expect("sync"));
        let mut image = durable.clone();
        for (offset, bytes) in disk.take_synced_writes() {
            for (i, &byte) in bytes.iter().enumerate() {
                let at = offset + i as u64;
                if at / SECTOR != start / SECTOR {
                    put(&mut image, at, &[byte]);
                }
            }
        }
        let last = start as usize + record_bytes(&torn_group[..39]);
        assert!(last as u64 / SECTOR > start / SECTOR);
        let stale = split_records(&image[last..], wal.generation);
        assert_eq!(stale.payloads.len(), 1, "the group's last record is intact");
        let recovery = replay(&snap, &image);
        assert!(recovery.frames.iter().all(|f| !torn_group.contains(f)));
        drop(wal);

        // Recover the image; the recovery's checkpoint starts the next
        // generation, and appends follow one group each, with no
        // compaction due among them.
        std::fs::write(config.wal_path(0), &image).expect("write image");
        let disk = RecordedLog::default();
        let router = crate::router::SessionRouter::spawn(
            Arc::new(recognizer()),
            crate::router::ServeConfig {
                shards: 1,
                wal: Some(WalConfig::new(&config.dir, FsyncPolicy::Sync)),
                ..crate::router::ServeConfig::default()
            },
            Some(disk.wrap()),
        );
        router.recover(&config).expect("recover");
        let snap = std::fs::read(config.snap_path(0)).expect("read snap");
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        // One frame per group, and enough groups that the new lap runs
        // past the torn group.
        let mut appended = vec![ClientFrame::Open { session: 11 }];
        appended.extend((0..40u32).map(|k| {
            ClientFrame::EventBatch {
                session: 11,
                events: (1..=1 + k % 3)
                    .map(|i| {
                        let seq = 10 * k + i;
                        let t = f64::from(seq);
                        (seq, InputEvent::new(EventKind::MouseMove, t, t, t))
                    })
                    .collect(),
            }
        }));
        for frame in &appended {
            let msg = crate::router::ShardMsg::from_client(conn, frame.clone(), tx.clone().into())
                .expect("translates")
                .expect("a shard message");
            router.submit(msg).expect("submit");
            // A fence: the reply follows the group's commit.
            router
                .submit(crate::router::ShardMsg::Resume {
                    conn,
                    session: 11,
                    reply: tx.clone().into(),
                })
                .expect("submit");
            while !matches!(
                rx.recv_timeout(std::time::Duration::from_secs(10)),
                Ok(crate::wire::ServerFrame::Resumed { .. })
            ) {}
        }

        // Crash at every cut of every append.
        let mut groups = disk.take_groups();
        assert!(groups.pop().expect("a tail").is_empty());
        assert_eq!(groups.len(), appended.len(), "one sync per group");
        assert!(record_bytes(&appended) > last + 64);
        let (mut durable, mut synced) = (image, Vec::new());
        for (writes, frame) in groups.iter().zip(&appended) {
            let written = [&synced[..], std::slice::from_ref(frame)].concat();
            check_crash_images(
                &snap,
                &durable,
                writes,
                &synced,
                &written,
                &torn_group,
                &mut rng,
            );
            for (offset, bytes) in writes {
                put(&mut durable, *offset, bytes);
            }
            synced = written;
        }

        // A graceful shutdown's compaction leaves a log that recovers
        // untorn.
        router.shutdown();
        for (offset, bytes) in disk.take_groups().concat() {
            put(&mut durable, offset, &bytes);
        }
        std::fs::write(config.wal_path(0), &durable).expect("write log");
        let recovered = crate::router::SessionRouter::new(
            Arc::new(recognizer()),
            crate::router::ServeConfig::default(),
        );
        let report = recovered.recover(&config).expect("recover");
        assert!(!report.torn);
        assert_eq!((report.sessions, report.frames), (1, 0));
        recovered.shutdown();
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
            let recovered = split_records(&std::fs::read(config.wal_path(0)).expect("read"), 0)
                .payloads
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
