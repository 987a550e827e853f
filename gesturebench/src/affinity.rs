//! CPU placement: the serve child's shard workers on one core, its
//! reactor and the load generator on another.
//!
//! Left to the scheduler, a run settles into one of several placements
//! (server threads sharing a core or not, the generator beside them or
//! not) and keeps it, so whole runs land in different cost modes — about
//! 1.5x apart in server CPU per point on a 2-vCPU VM. Pinning makes the
//! placement the same every run. The two server threads must not share a
//! core: when that core slows, the scheduler alternates them in
//! millisecond slices and every reply waits behind them. So the shard
//! workers get a core of their own, and everything else — the benchmark,
//! the child's reactor and its idle main and accept threads, which inherit
//! the benchmark's core when spawned — shares the other.

use std::io;

/// 64-bit words of the CPU mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs this thread may run on, ascending.
fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // the kernel writes at most that many bytes. pid 0 is this thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Restricts the calling thread (and whatever it spawns from now on) to
/// `cpu`.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    if cpu >= MASK_WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cpu out of range",
        ));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; the
    // kernel only reads it. pid 0 is this thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Restricts thread `tid` (of any process this user owns) to `cpu`.
fn pin_thread(tid: i32, cpu: usize) -> io::Result<()> {
    if cpu >= MASK_WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cpu out of range",
        ));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; the
    // kernel only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Pins every thread of process `pid` whose name starts with `prefix`
/// to `cpu`; returns how many it pinned.
pub fn pin_named_threads(pid: u32, prefix: &str, cpu: usize) -> io::Result<usize> {
    let mut pinned = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))?.flatten() {
        let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let Ok(tid) = task.file_name().to_string_lossy().parse::<i32>() else {
            continue;
        };
        if name.starts_with(prefix) {
            pin_thread(tid, cpu)?;
            pinned += 1;
        }
    }
    Ok(pinned)
}

/// Where the run places its threads.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// Core of the load generator and of the child's reactor.
    pub main: usize,
    /// Core of the child's shard workers.
    pub shards: usize,
}

impl Placement {
    /// The first two allowed cores. `None` with fewer than two cores.
    pub fn choose() -> Option<Self> {
        let cpus = allowed_cpus().ok()?;
        match cpus.as_slice() {
            [first, second, ..] => Some(Self {
                main: *first,
                shards: *second,
            }),
            _ => None,
        }
    }
}
