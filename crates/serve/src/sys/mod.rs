//! The audited syscall boundary for the reactor transport.
//!
//! This module tree is the **only** place in the workspace that
//! contains `unsafe`: hand-declared
//! bindings for `poll(2)` (here), `epoll(7)` ([`epoll`]),
//! `setrlimit(2)` ([`rlimit`]), and a self-pipe waker, kept
//! dependency-free because the workspace links no external crates.
//! Everything exported is a safe API; grandma-lint inventories exactly
//! these files under the `unsafe-code` rule and the crate root holds
//! `#![deny(unsafe_code)]` so any `unsafe` that leaks outside this
//! module tree is a build error. [`poller`] holds the safe [`Poller`]
//! abstraction over both readiness backends and is deliberately *not*
//! in the inventory — it contains no `unsafe`.
//!
//! Audit notes, one per unsafe block in this file (submodules carry
//! their own):
//!
//! * `poll` — passes a pointer/length pair derived from a live
//!   `&mut [PollFd]`; `PollFd` is `#[repr(C)]` and layout-identical to
//!   `struct pollfd`, so the kernel writes `revents` in place and never
//!   beyond `fds.len()` entries.
//! * `pipe2` — writes exactly two `i32`s into a stack array we own.
//! * `read`/`write` on the pipe — buffer pointers come from live stack
//!   arrays with the matching length; both fds are owned by the `Waker`
//!   until `Drop` closes them.
//! * `close` — called once per fd from `Drop`; the fds are private so
//!   no safe code can observe them after.
//!
//! The waker uses the classic self-pipe pattern with an armed flag so
//! that back-to-back wakes while the poller is busy collapse into one
//! pipe write: [`Waker::wake`] only writes when the poll thread has
//! declared (via [`Waker::arm`]) that it may be about to block.
#![allow(unsafe_code)]

#[cfg(target_os = "linux")]
pub mod epoll;
pub mod poller;
pub mod rlimit;

pub use poller::{Backend, Poller, Ready};
pub use rlimit::{ensure_nofile_limit, raise_nofile_limit};

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// Raw file descriptor. Mirrors `std::os::fd::RawFd` without pulling
/// the unix-only prelude into every signature.
pub type RawFd = i32;

/// Event flag: readable.
pub const POLLIN: i16 = 0x001;
/// Event flag: writable.
pub const POLLOUT: i16 = 0x004;
/// Result flag: error condition.
pub const POLLERR: i16 = 0x008;
/// Result flag: peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Result flag: fd not open (registration bug or racing close).
pub const POLLNVAL: i16 = 0x020;

const O_NONBLOCK: i32 = 0o4000;
const O_CLOEXEC: i32 = 0o2000000;

/// One entry in a poll set. `#[repr(C)]` so a `&mut [PollFd]` can be
/// handed to the kernel as a `struct pollfd` array verbatim.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// A poll entry watching `fd` for `events` (`POLLIN` / `POLLOUT`).
    pub fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// The watched descriptor.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// True when the kernel reported any readiness or error condition.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }

    /// Readable — includes `POLLERR`/`POLLHUP` so a dead socket is
    /// handled through the read path (where it reports EOF/error).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    /// Writable and not simultaneously dead.
    pub fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }
}

// Hand-declared libc entry points: the workspace is dependency-free by
// policy, so these syscall wrappers are written out instead of linking
// the `libc` crate. Signatures match the x86-64 Linux ABI.
extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn pipe2(pipefd: *mut i32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
    fn raise(signum: i32) -> i32;
}

/// Blocks until at least one entry is ready or `timeout_ms` elapses.
///
/// `timeout_ms < 0` blocks indefinitely; `0` polls without blocking.
/// Returns the number of entries with non-zero `revents`. `EINTR` is
/// retried transparently (with the full timeout — callers here treat
/// timeouts as hints, not deadlines).
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs; the kernel reads/writes
        // at most `fds.len()` entries.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            continue;
        }
        return Err(err);
    }
}

/// Cross-thread wakeup for a poll loop: a nonblocking self-pipe whose
/// read end sits in the poll set, plus an armed flag so redundant wakes
/// skip the syscall entirely.
///
/// Protocol: the poll thread calls [`Waker::arm`] *before* its final
/// check of the work queues and blocks in [`poll_fds`]; producers
/// enqueue work and then call [`Waker::wake`]. Either the producer's
/// write lands before the poller blocks (poll returns immediately with
/// the pipe readable) or the poller's post-arm queue check sees the
/// work. Wakes while the poller is not armed are free.
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
    armed: AtomicBool,
}

impl Waker {
    /// Creates the pipe pair (nonblocking, close-on-exec).
    pub fn new() -> io::Result<Self> {
        let mut fds = [0i32; 2];
        // SAFETY: `pipe2` writes exactly two fds into the array we own.
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            read_fd: fds[0],
            write_fd: fds[1],
            armed: AtomicBool::new(false),
        })
    }

    /// The read end, for registering in the poll set with `POLLIN`.
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Declares that the poll thread may be about to block. Must be
    /// followed by a re-check of the work queues before blocking.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Notifies the poll thread. Returns `true` when a pipe write was
    /// actually issued (the poller was armed), `false` when the wake
    /// coalesced with a previous one or the poller was busy anyway.
    pub fn wake(&self) -> bool {
        if !self.armed.swap(false, Ordering::SeqCst) {
            return false;
        }
        let byte = [1u8];
        // SAFETY: the buffer is a live 1-byte stack array; `write_fd`
        // is owned by `self` and open until Drop. A full pipe (EAGAIN)
        // is fine: a wake byte is already pending.
        let _ = unsafe { write(self.write_fd, byte.as_ptr(), 1) };
        true
    }

    /// Drains any pending wake bytes; called by the poll thread after
    /// `poll` returns with the pipe readable.
    pub fn drain(&self) {
        self.armed.store(false, Ordering::SeqCst);
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: buffer is a live stack array of the stated
            // length; `read_fd` is owned by `self` and open until Drop.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                // 0 = impossible for an open pipe write end we hold;
                // <0 = EAGAIN (drained) or a transient signal — either
                // way there is nothing more to read right now.
                break;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: each fd is closed exactly once; both are private to
        // this struct so nothing can use them afterwards.
        unsafe {
            let _ = close(self.read_fd);
            let _ = close(self.write_fd);
        }
    }
}

/// `SIGINT` (ctrl-C).
pub const SIGINT: i32 = 2;
/// `SIGTERM` (polite kill).
pub const SIGTERM: i32 = 15;

/// The write end of the process-wide signal self-pipe, or -1 before
/// [`SignalPipe::install`]. An atomic because the handler reads it from
/// signal context.
static SIGNAL_WRITE_FD: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(-1);
/// The last signal delivered, for polling without the pipe.
static SIGNAL_SEEN: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(0);

/// The actual handler. Restricted to async-signal-safe work: two atomic
/// ops and one `write(2)` on a nonblocking pipe.
extern "C" fn on_signal(signo: i32) {
    SIGNAL_SEEN.store(signo, Ordering::SeqCst);
    let fd = SIGNAL_WRITE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        let byte = [signo as u8];
        // SAFETY: 1-byte live stack buffer; the fd stays open for the
        // process lifetime once installed (SignalPipe never closes it
        // while handlers are registered). EAGAIN on a full pipe is fine
        // — a wake byte is already pending.
        let _ = unsafe { write(fd, byte.as_ptr(), 1) };
    }
}

/// Termination signals (`SIGINT`/`SIGTERM`) turned into a pollable fd —
/// the classic self-pipe trick, so a poll loop (or a blocking wait) can
/// treat "please shut down" as just another readable descriptor.
///
/// [`SignalPipe::install`] is process-global and idempotent-hostile by
/// nature (the second install would steal the first one's handlers), so
/// the serve binary installs exactly one at startup. Dropping the pipe
/// restores the default dispositions and closes the fds.
pub struct SignalPipe {
    read_fd: RawFd,
}

impl SignalPipe {
    /// Creates the pipe and registers `SIGINT`/`SIGTERM` handlers that
    /// write to it.
    pub fn install() -> io::Result<Self> {
        let mut fds = [0i32; 2];
        // SAFETY: `pipe2` writes exactly two fds into the array we own.
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        SIGNAL_WRITE_FD.store(fds[1], Ordering::SeqCst);
        const SIG_ERR: usize = usize::MAX;
        for signo in [SIGINT, SIGTERM] {
            // SAFETY: `on_signal` is an `extern "C" fn(i32)` doing only
            // async-signal-safe work; glibc's `signal` gives BSD
            // semantics (no handler reset, SA_RESTART), which is what
            // the self-pipe pattern wants.
            if unsafe { signal(signo, on_signal as *const () as usize) } == SIG_ERR {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(Self { read_fd: fds[0] })
    }

    /// The read end, for registering in a poll set with `POLLIN`.
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// The signal received so far, if any, without blocking.
    pub fn triggered(&self) -> Option<i32> {
        match SIGNAL_SEEN.load(Ordering::SeqCst) {
            0 => None,
            signo => Some(signo),
        }
    }

    /// Blocks up to `timeout_ms` (`<0` = forever) for a signal; returns
    /// it, or `None` on timeout. Drains the pipe so a later wait blocks
    /// again.
    pub fn wait(&self, timeout_ms: i32) -> io::Result<Option<i32>> {
        if let Some(signo) = self.triggered() {
            self.drain();
            return Ok(Some(signo));
        }
        let mut fds = [PollFd::new(self.read_fd, POLLIN)];
        poll_fds(&mut fds, timeout_ms)?;
        if fds[0].readable() {
            self.drain();
        }
        Ok(self.triggered())
    }

    fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: live stack buffer of the stated length; the read
            // end is owned by `self` and open until Drop.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for SignalPipe {
    fn drop(&mut self) {
        const SIG_DFL: usize = 0;
        // SAFETY: restoring the default disposition detaches the
        // handler before its pipe goes away.
        unsafe {
            let _ = signal(SIGINT, SIG_DFL);
            let _ = signal(SIGTERM, SIG_DFL);
        }
        let write_fd = SIGNAL_WRITE_FD.swap(-1, Ordering::SeqCst);
        // SAFETY: fds closed exactly once; the handler can no longer
        // observe `write_fd` (swapped to -1 first, handlers detached).
        unsafe {
            let _ = close(self.read_fd);
            if write_fd >= 0 {
                let _ = close(write_fd);
            }
        }
    }
}

/// Sends `signo` to the calling process — test hook for the signal
/// path.
pub fn raise_signal(signo: i32) {
    // SAFETY: `raise` has no memory effects visible to us.
    let _ = unsafe { raise(signo) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_times_out_on_quiet_fd() {
        let waker = Waker::new().expect("pipe");
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        let start = Instant::now();
        let n = poll_fds(&mut fds, 50).expect("poll");
        assert_eq!(n, 0, "no readiness expected");
        assert!(!fds[0].ready());
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn wake_makes_pipe_readable_and_drain_clears_it() {
        let waker = Waker::new().expect("pipe");
        waker.arm();
        assert!(waker.wake(), "armed waker must write");
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        let n = poll_fds(&mut fds, 1000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        waker.drain();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        let n = poll_fds(&mut fds, 0).expect("poll");
        assert_eq!(n, 0, "drained pipe must be quiet");
    }

    #[test]
    fn unarmed_wakes_coalesce() {
        let waker = Waker::new().expect("pipe");
        assert!(!waker.wake(), "unarmed wake must skip the syscall");
        waker.arm();
        assert!(waker.wake());
        assert!(!waker.wake(), "second wake coalesces");
    }

    #[test]
    fn signal_pipe_reports_sigterm_via_fd_and_flag() {
        let pipe = SignalPipe::install().expect("install");
        assert_eq!(pipe.triggered(), None, "no signal yet");
        raise_signal(SIGTERM);
        let got = pipe.wait(2_000).expect("wait");
        assert_eq!(got, Some(SIGTERM));
        assert_eq!(pipe.triggered(), Some(SIGTERM), "flag latches");
    }

    #[test]
    fn wake_unblocks_a_sleeping_poller() {
        let waker = Arc::new(Waker::new().expect("pipe"));
        let poller = waker.clone();
        let handle = std::thread::spawn(move || {
            poller.arm();
            let mut fds = [PollFd::new(poller.fd(), POLLIN)];
            let n = poll_fds(&mut fds, 5_000).expect("poll");
            poller.drain();
            n
        });
        std::thread::sleep(Duration::from_millis(30));
        waker.arm();
        waker.wake();
        let n = handle.join().expect("join");
        assert_eq!(n, 1, "poller must be woken by the pipe");
    }
}
