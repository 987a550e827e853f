//! Hand-declared `getrlimit(2)`/`setrlimit(2)` bindings, used to raise
//! the open-file limit before the reactor starts accepting.
//!
//! The default soft `RLIMIT_NOFILE` on most distros is 1024 — two
//! orders of magnitude under the 16k-connection tier the reactor is
//! benched at — while the hard limit is typically generous. Raising
//! soft→hard needs no privilege, so the serve binary does it
//! unconditionally at startup and logs the result; the fan-out ladder
//! test asks for what its client side needs.
//!
//! The numeric resource id is OS-specific (7 on Linux, 8 across the
//! BSD family — where 7 is `RLIMIT_NPROC`, so a hardcoded Linux value
//! would silently raise the process-count limit instead). OSes whose
//! id these bindings don't know get a no-op that reports `(0, 0)`;
//! the reactor's EMFILE shedding still protects the accept loop there.
//!
//! Everything exported is safe; each unsafe block carries its own
//! SAFETY note and grandma-lint inventories this file under the
//! `unsafe-code` rule.

#[cfg(any(
    target_os = "linux",
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
))]
mod imp {
    use std::io;

    /// Resource id for the open-file-descriptor limit on this OS.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const RLIMIT_NOFILE: i32 = 8;

    /// Mirrors the kernel's `struct rlimit` on 64-bit Linux and the BSD
    /// family: two `u64`s, soft (current) then hard (max).
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    // Hand-declared libc entry points (the workspace is dependency-free
    // by policy).
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    /// Raises the soft `RLIMIT_NOFILE` to the hard limit.
    ///
    /// Returns `(soft_before, soft_after)`. Already at the hard limit
    /// is a no-op success, and a refused `setrlimit` (e.g. a hardened
    /// container profile) degrades gracefully to `(before, before)` —
    /// callers log the pair and carry on; the reactor's EMFILE shedding
    /// still protects the accept loop if the limit stays low.
    pub fn raise_nofile_limit() -> io::Result<(u64, u64)> {
        let mut lim = RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: `getrlimit` writes one `RLimit` into the struct we
        // own; `#[repr(C)]` matches the kernel layout.
        let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        let before = lim.rlim_cur;
        if lim.rlim_cur >= lim.rlim_max {
            return Ok((before, before));
        }
        let want = RLimit {
            rlim_cur: lim.rlim_max,
            rlim_max: lim.rlim_max,
        };
        // SAFETY: `setrlimit` only reads the struct; raising soft to
        // hard requires no privilege.
        let rc = unsafe { setrlimit(RLIMIT_NOFILE, &want) };
        if rc != 0 {
            // Refused (container policy, races with a limit drop): keep
            // the old limit rather than failing startup.
            return Ok((before, before));
        }
        Ok((before, lim.rlim_max))
    }

    /// Tries to get the soft `RLIMIT_NOFILE` to at least `want`,
    /// raising the *hard* limit too when the process is privileged to
    /// (`CAP_SYS_RESOURCE`, i.e. root in the bench container).
    ///
    /// The fan-out ladder's largest tier holds the client end of 16384
    /// connections in the test process, which can exceed the hard
    /// limit that [`raise_nofile_limit`] stops at. Returns
    /// `(soft_before, soft_after)`; like the plain raise, a refusal
    /// degrades to whatever soft→hard achieved rather than erroring,
    /// and the caller logs the pair so a short tier is explainable.
    pub fn ensure_nofile_limit(want: u64) -> io::Result<(u64, u64)> {
        let (before, after) = raise_nofile_limit()?;
        if after >= want {
            return Ok((before, after));
        }
        let lifted = RLimit {
            rlim_cur: want,
            rlim_max: want,
        };
        // SAFETY: `setrlimit` only reads the struct. Raising the hard
        // limit needs privilege; unprivileged processes get EPERM and
        // keep the soft→hard result from above.
        let rc = unsafe { setrlimit(RLIMIT_NOFILE, &lifted) };
        if rc != 0 {
            return Ok((before, after));
        }
        Ok((before, want))
    }
}

#[cfg(not(any(
    target_os = "linux",
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
)))]
mod imp {
    use std::io;

    /// No-op on OSes whose `RLIMIT_NOFILE` id is unverified: reports
    /// `(0, 0)` so callers log "nothing raised" instead of silently
    /// adjusting whatever resource happens to sit at a guessed id.
    pub fn raise_nofile_limit() -> io::Result<(u64, u64)> {
        Ok((0, 0))
    }

    /// See [`raise_nofile_limit`]: no-op on unverified OSes.
    pub fn ensure_nofile_limit(_want: u64) -> io::Result<(u64, u64)> {
        Ok((0, 0))
    }
}

pub use imp::{ensure_nofile_limit, raise_nofile_limit};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_reaches_the_hard_limit_and_is_idempotent() {
        let (before, after) = raise_nofile_limit().expect("raise");
        assert!(after >= before, "soft limit must never go down");
        // A second call starts at the raised soft limit: nothing left
        // to raise, so it reports the same value twice.
        let (before2, after2) = raise_nofile_limit().expect("raise again");
        assert_eq!(before2, after);
        assert_eq!(after2, after);
    }
}
