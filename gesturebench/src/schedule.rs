//! The open-loop schedule: simulated users replaying session scripts at
//! their scripted timestamps, independent of how fast the service (or the
//! generator) keeps up.
//!
//! Each user runs sessions back to back: `Open` and the first event at the
//! session start, event `i` at `start + due[i]`, `Close` one millisecond
//! after the last event, then a think gap before the next session. Users
//! start staggered over a ramp so load builds smoothly. A stalled
//! generator does not shift the schedule: everything that fell due during
//! the stall comes out at once, and its latency is timed from when it was
//! due ([`late_ns`] reports how late it went out).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::workload::script_for;

/// One scheduled protocol step of a user's current session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `Open` the session.
    Open,
    /// Send event `i` (seq `i`).
    Event(u32),
    /// `Close` the session.
    Close,
}

/// A step that has fallen due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    /// When the step was due, in ns on the run's clock.
    pub due_ns: u64,
    /// The user (session slot).
    pub slot: usize,
    /// The slot's session generation.
    pub generation: u64,
    /// The script the session replays.
    pub script: usize,
    /// What to send.
    pub step: Step,
}

/// How late a step went out: its send time minus its due time.
pub fn late_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

#[derive(Debug, Clone, Copy)]
struct User {
    generation: u64,
    script: usize,
    start_ns: u64,
    /// 0 = Open pending, 1..=n = event `cursor - 1`, n + 1 = Close.
    cursor: usize,
}

/// Think gap between one user's sessions.
pub const THINK_NS: u64 = 100_000_000;
/// Gap between a session's last event and its `Close`.
const CLOSE_AFTER_NS: u64 = 1_000_000;

/// The schedule of every simulated user.
#[derive(Debug)]
pub struct OpenLoop {
    /// Per-script event offsets from the session start, ns.
    dues: Vec<Vec<u64>>,
    seed: u64,
    users: Vec<User>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Sessions due to start at or after this instant are not started.
    stop_at_ns: u64,
}

impl OpenLoop {
    /// `users` users replaying scripts (given by their per-event offsets
    /// in ns) chosen by [`script_for`] from `seed`; user `u` starts at
    /// `start_ns + u * ramp_ns / users`.
    pub fn new(dues: Vec<Vec<u64>>, seed: u64, users: usize, start_ns: u64, ramp_ns: u64) -> Self {
        let mut heap = BinaryHeap::with_capacity(users);
        let users: Vec<User> = (0..users)
            .map(|slot| {
                let start = start_ns + slot as u64 * ramp_ns / users.max(1) as u64;
                heap.push(Reverse((start, slot)));
                User {
                    generation: 0,
                    script: script_for(seed, slot, 0, dues.len()),
                    start_ns: start,
                    cursor: 0,
                }
            })
            .collect();
        Self {
            dues,
            seed,
            users,
            heap,
            stop_at_ns: u64::MAX,
        }
    }

    /// Stops starting new sessions at `at_ns`; sessions already running
    /// finish on schedule.
    pub fn stop_new_sessions(&mut self, at_ns: u64) {
        self.stop_at_ns = at_ns;
    }

    /// When the next step falls due (`None` once every user is done).
    pub fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((due, _))| *due)
    }

    fn due_of(&self, user: &User) -> u64 {
        let offsets = &self.dues[user.script];
        match user.cursor {
            0 => user.start_ns,
            c if c <= offsets.len() => user.start_ns + offsets[c - 1],
            _ => user.start_ns + offsets.last().copied().unwrap_or(0) + CLOSE_AFTER_NS,
        }
    }

    /// Appends every step due at or before `now_ns`, in due order.
    pub fn pop_due(&mut self, now_ns: u64, out: &mut Vec<Due>) {
        while let Some(&Reverse((due, slot))) = self.heap.peek() {
            if due > now_ns {
                break;
            }
            self.heap.pop();
            let user = self.users[slot];
            let n = self.dues[user.script].len();
            let step = match user.cursor {
                0 => Step::Open,
                c if c <= n => Step::Event((c - 1) as u32),
                _ => Step::Close,
            };
            out.push(Due {
                due_ns: due,
                slot,
                generation: user.generation,
                script: user.script,
                step,
            });
            let mut next = user;
            if step == Step::Close {
                next.generation += 1;
                next.script = script_for(self.seed, slot, next.generation, self.dues.len());
                next.start_ns = due + THINK_NS;
                next.cursor = 0;
                if next.start_ns >= self.stop_at_ns {
                    self.users[slot] = next;
                    continue;
                }
            } else {
                next.cursor += 1;
            }
            self.users[slot] = next;
            let next_due = self.due_of(&next);
            self.heap.push(Reverse((next_due, slot)));
        }
    }
}
