//! Safe readiness-backend abstraction over `poll(2)` and `epoll(7)`.
//!
//! The reactor speaks only this API: register a token + fd + interest
//! mask once, adjust the mask on transitions, and walk the ready set
//! each wakeup. The two backends differ in where the interest set
//! lives:
//!
//! * [`Backend::Poll`] keeps it in userspace and rebuilds a `pollfd`
//!   array for **every** wait — O(open connections) per wakeup, but
//!   portable and zero setup cost. This is the pre-epoll reactor
//!   behavior, preserved byte-for-byte.
//! * [`Backend::Epoll`] keeps it in the kernel via
//!   [`super::epoll::EpollSet`] — registration costs one syscall per
//!   *transition*, and each wakeup costs O(ready).
//!
//! Both backends are level-triggered and both report error conditions
//! (`POLLERR`/`POLLHUP`) regardless of the requested mask, so the
//! reactor's teardown logic is backend-agnostic. This file contains no
//! direct syscall bindings and is deliberately absent from
//! grandma-lint's audit inventory.

use std::collections::HashMap;
use std::io;

use super::{poll_fds, PollFd, RawFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

/// One readiness report: the token the fd was registered under plus the
/// reported `poll(2)`-style result flags.
#[derive(Debug, Clone, Copy)]
pub struct Ready {
    /// Caller-chosen registration token (the reactor uses conn ids,
    /// with token 0 reserved for the waker pipe).
    pub token: u64,
    /// Result flags in `poll(2)` encoding (`POLLIN`/`POLLOUT`/
    /// `POLLERR`/`POLLHUP`/`POLLNVAL`).
    pub flags: i16,
}

impl Ready {
    /// Readable — includes error conditions so a dead socket is handled
    /// through the read path, mirroring [`PollFd::readable`].
    pub fn readable(&self) -> bool {
        self.flags & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    /// Writable.
    pub fn writable(&self) -> bool {
        self.flags & POLLOUT != 0
    }
}

/// Which readiness syscall family backs a [`Poller`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `poll(2)`: rebuild-and-scan, O(open) per wakeup, portable.
    Poll,
    /// `epoll(7)`: kernel interest set, O(ready) per wakeup, Linux.
    Epoll,
}

impl Backend {
    /// Stable lowercase name, used in metrics and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Poll => "poll",
            Backend::Epoll => "epoll",
        }
    }
}

enum Imp {
    Poll {
        /// token → (fd, interest). Rebuilt into `fds`/`tokens` on every
        /// wait — the O(open) cost this abstraction exists to expose.
        interest: HashMap<u64, (RawFd, i16)>,
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    },
    #[cfg(target_os = "linux")]
    Epoll {
        set: super::epoll::EpollSet,
        /// `epoll_ctl` total already handed out via
        /// [`Poller::take_ctl_calls`].
        reported: u64,
    },
}

/// A readiness poller with a uniform register/modify/deregister/wait
/// surface over both backends.
pub struct Poller {
    imp: Imp,
}

impl Poller {
    /// Creates a poller on the requested backend. [`Backend::Epoll`] on
    /// a non-Linux target returns `Unsupported` so callers can fall
    /// back explicitly.
    pub fn new(backend: Backend) -> io::Result<Self> {
        match backend {
            Backend::Poll => Ok(Self {
                imp: Imp::Poll {
                    interest: HashMap::new(),
                    fds: Vec::new(),
                    tokens: Vec::new(),
                },
            }),
            #[cfg(target_os = "linux")]
            Backend::Epoll => Ok(Self {
                imp: Imp::Epoll {
                    set: super::epoll::EpollSet::new()?,
                    reported: 0,
                },
            }),
            #[cfg(not(target_os = "linux"))]
            Backend::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll backend requires Linux",
            )),
        }
    }

    /// The backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match self.imp {
            Imp::Poll { .. } => Backend::Poll,
            #[cfg(target_os = "linux")]
            Imp::Epoll { .. } => Backend::Epoll,
        }
    }

    /// Starts watching `fd` under `token` for `interest`
    /// (`POLLIN`/`POLLOUT` bits; error conditions are always reported).
    /// Each token must be registered at most once at a time.
    pub fn register(&mut self, token: u64, fd: RawFd, interest: i16) -> io::Result<()> {
        match &mut self.imp {
            Imp::Poll { interest: map, .. } => {
                map.insert(token, (fd, interest));
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Imp::Epoll { set, .. } => set.add(fd, interest, token),
        }
    }

    /// Replaces the interest mask for an already-registered token. The
    /// reactor calls this only on actual transitions, so on epoll the
    /// `epoll_ctl(MOD)` count equals the transition count.
    pub fn modify(&mut self, token: u64, fd: RawFd, interest: i16) -> io::Result<()> {
        match &mut self.imp {
            Imp::Poll { interest: map, .. } => {
                map.insert(token, (fd, interest));
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Imp::Epoll { set, .. } => set.modify(fd, interest, token),
        }
    }

    /// Stops watching a token. Must be called *before* the fd is closed
    /// (a closed fd is auto-removed from an epoll set, but deregistering
    /// first keeps both backends on one discipline and avoids stale
    /// entries when an fd number is recycled).
    pub fn deregister(&mut self, token: u64, fd: RawFd) -> io::Result<()> {
        match &mut self.imp {
            Imp::Poll { interest: map, .. } => {
                map.remove(&token);
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Imp::Epoll { set, .. } => set.del(fd),
        }
    }

    /// Blocks until readiness or `timeout_ms` (`<0` = forever, `0` =
    /// non-blocking check). Clears `out` and fills it with one
    /// [`Ready`] per fd that reported; returns the count. `EINTR` is
    /// retried transparently on both backends.
    pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Ready>) -> io::Result<usize> {
        out.clear();
        match &mut self.imp {
            Imp::Poll {
                interest: map,
                fds,
                tokens,
            } => {
                fds.clear();
                tokens.clear();
                for (&token, &(fd, interest)) in map.iter() {
                    fds.push(PollFd::new(fd, interest));
                    tokens.push(token);
                }
                let n = poll_fds(fds, timeout_ms)?;
                if n > 0 {
                    for (i, pfd) in fds.iter().enumerate() {
                        if pfd.ready() {
                            out.push(Ready {
                                token: tokens[i],
                                flags: pfd.revents,
                            });
                        }
                    }
                }
                Ok(out.len())
            }
            #[cfg(target_os = "linux")]
            Imp::Epoll { set, .. } => set.wait(timeout_ms, out),
        }
    }

    /// Drains the interest-churn counter: `epoll_ctl` syscalls issued
    /// since the previous call (always 0 on the poll backend, where
    /// registration is a map write). The reactor flushes this into the
    /// `epoll_ctl_calls` metric once per loop iteration.
    pub fn take_ctl_calls(&mut self) -> u64 {
        match &mut self.imp {
            Imp::Poll { .. } => 0,
            #[cfg(target_os = "linux")]
            Imp::Epoll { set, reported } => {
                let total = set.ctl_calls();
                let delta = total - *reported;
                *reported = total;
                delta
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::Waker;
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn backends() -> Vec<Backend> {
        let mut v = vec![Backend::Poll];
        if cfg!(target_os = "linux") {
            v.push(Backend::Epoll);
        }
        v
    }

    #[test]
    fn wait_times_out_on_a_quiet_fd_on_both_backends() {
        for backend in backends() {
            let waker = Waker::new().expect("pipe");
            let mut poller = Poller::new(backend).expect("poller");
            assert_eq!(poller.backend(), backend);
            poller.register(1, waker.fd(), POLLIN).expect("register");
            let mut out = Vec::new();
            let start = Instant::now();
            let n = poller.wait(50, &mut out).expect("wait");
            assert_eq!(n, 0, "{}: no readiness expected", backend.name());
            assert!(start.elapsed() >= Duration::from_millis(40));
        }
    }

    #[test]
    fn waker_arm_before_drain_protocol_holds_under_both_backends() {
        // The lost-wakeup protocol: wake() after arm() must make the
        // pipe readable to the poller, and drain() must reset it so the
        // next wait blocks again. PR 6 proved this for poll(2); the
        // epoll backend must not regress it.
        for backend in backends() {
            let waker = Waker::new().expect("pipe");
            let mut poller = Poller::new(backend).expect("poller");
            poller.register(0, waker.fd(), POLLIN).expect("register");
            waker.arm();
            assert!(waker.wake(), "{}: armed waker must write", backend.name());
            let mut out = Vec::new();
            let n = poller.wait(1_000, &mut out).expect("wait");
            assert_eq!(n, 1, "{}: wake must be visible", backend.name());
            assert_eq!(out[0].token, 0);
            assert!(out[0].readable());
            waker.drain();
            let n = poller.wait(0, &mut out).expect("wait");
            assert_eq!(n, 0, "{}: drained pipe must be quiet", backend.name());
            // An unarmed wake coalesces (no write), so the poller stays
            // asleep — the post-arm queue re-check is what catches it.
            assert!(!waker.wake(), "{}: unarmed wake coalesces", backend.name());
            let n = poller.wait(0, &mut out).expect("wait");
            assert_eq!(n, 0, "{}: coalesced wake writes nothing", backend.name());
        }
    }

    #[test]
    fn wake_unblocks_a_sleeping_epoll_poller() {
        for backend in backends() {
            let waker = Arc::new(Waker::new().expect("pipe"));
            let mut poller = Poller::new(backend).expect("poller");
            poller.register(0, waker.fd(), POLLIN).expect("register");
            let producer = waker.clone();
            waker.arm();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                producer.wake()
            });
            let mut out = Vec::new();
            let n = poller.wait(5_000, &mut out).expect("wait");
            waker.drain();
            assert!(handle.join().expect("join"), "wake must have written");
            assert_eq!(n, 1, "{}: poller must be woken", backend.name());
        }
    }

    #[test]
    fn error_bits_are_reported_even_with_empty_interest() {
        // A reset connection must surface through the poller even when
        // the reactor is not currently asking for readable/writable —
        // both syscall families report error conditions unconditionally,
        // and the reactor's teardown path depends on that.
        for backend in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let client = TcpStream::connect(addr).expect("connect");
            let (mut server, _) = listener.accept().expect("accept");
            use std::os::fd::AsRawFd;
            let fd = server.as_raw_fd();

            let mut poller = Poller::new(backend).expect("poller");
            poller.register(9, fd, 0).expect("register");

            // Leave unread data in the client's receive buffer, then
            // drop it: the kernel answers with RST, flipping the server
            // side into an error state.
            server.write_all(b"doomed").expect("write");
            drop(client);

            let mut out = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                let n = poller.wait(100, &mut out).expect("wait");
                if n > 0 {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "{}: RST never reported",
                    backend.name()
                );
            }
            assert_eq!(out[0].token, 9);
            assert!(
                out[0].flags & (POLLERR | POLLHUP) != 0,
                "{}: expected error bits, got {:#x}",
                backend.name(),
                out[0].flags
            );
            assert!(
                out[0].readable(),
                "{}: error-bit readiness must route through the read path",
                backend.name()
            );
        }
    }

    #[test]
    fn modify_transitions_interest_and_counts_ctl_calls() {
        for backend in backends() {
            let waker = Waker::new().expect("pipe");
            let mut poller = Poller::new(backend).expect("poller");
            poller.register(3, waker.fd(), POLLIN).expect("register");
            let after_register = poller.take_ctl_calls();

            waker.arm();
            waker.wake();
            let mut out = Vec::new();
            let n = poller.wait(1_000, &mut out).expect("wait");
            assert_eq!(n, 1, "{}: readable under POLLIN", backend.name());

            // Flip interest away from POLLIN: the pending byte must no
            // longer report (write interest on a pipe read end is never
            // satisfied).
            poller.modify(3, waker.fd(), POLLOUT).expect("modify");
            let n = poller.wait(50, &mut out).expect("wait");
            assert_eq!(n, 0, "{}: POLLIN masked off", backend.name());

            // And back: the level-triggered byte reports again.
            poller.modify(3, waker.fd(), POLLIN).expect("modify");
            let n = poller.wait(1_000, &mut out).expect("wait");
            assert_eq!(n, 1, "{}: POLLIN restored", backend.name());

            let after_mods = poller.take_ctl_calls();
            match backend {
                Backend::Poll => {
                    assert_eq!(after_register, 0);
                    assert_eq!(after_mods, 0, "poll backend issues no ctl syscalls");
                }
                Backend::Epoll => {
                    assert_eq!(after_register, 1, "one ADD");
                    assert_eq!(after_mods, 2, "two MODs since last take");
                }
            }
        }
    }

    #[test]
    fn deregister_stops_readiness_reports() {
        for backend in backends() {
            let waker = Waker::new().expect("pipe");
            let mut poller = Poller::new(backend).expect("poller");
            poller.register(5, waker.fd(), POLLIN).expect("register");
            waker.arm();
            waker.wake();
            poller.deregister(5, waker.fd()).expect("deregister");
            let mut out = Vec::new();
            let n = poller.wait(50, &mut out).expect("wait");
            assert_eq!(n, 0, "{}: deregistered fd must not report", backend.name());
        }
    }
}
