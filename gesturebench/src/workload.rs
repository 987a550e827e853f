//! Workload definitions and seeded input generation.
//!
//! The server model and the gestures both come from `datasets::gdp`, the
//! paper's eleven GDP classes: some fire early (rectangle, delete, edit),
//! some never do (dot, line), so sessions exercise both the collection and
//! the manipulation phase. The model is trained from a fixed seed so every
//! run serves the same classifier; the session scripts come from the
//! workload seed. Every fourth script is `FaultInjector`-corrupted.

use std::time::{Duration, Instant};

use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_events::{Button, EventKind, EventScript, InputEvent};
use grandma_geom::Gesture;
use grandma_serve::{encode_server, run_events_inproc, PipelineConfig};
use grandma_synth::{datasets, FaultInjector, SynthRng};

/// Seed of the served model's training set (fixed across runs).
pub const TRAIN_SEED: u64 = 0x5EED;
/// Training examples per GDP class.
pub const TRAIN_PER_CLASS: usize = 15;
/// Distinct session scripts generated per run.
pub const SCRIPT_POOL: usize = 256;
/// Test gestures drawn per GDP class to build scripts from.
const GESTURES_PER_CLASS: usize = 24;
/// Events per `EventBatch` frame in the batched workloads.
pub const BATCH_EVENTS: usize = 32;

/// How a workload drives the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Open loop: simulated users replay sessions at their scripted
    /// timestamps, one v1 `Event` frame per point.
    OpenLoop {
        /// Simulated users, multiplexed over the connections.
        users: usize,
    },
    /// Closed loop: each connection keeps `window` sessions in flight,
    /// sent as `EventBatch` frames, with `Closed` as the ack.
    ClosedLoop {
        /// Sessions in flight per connection.
        window: usize,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload` and listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Traffic shape.
    pub mode: Mode,
    /// GDP gestures per session script.
    pub gestures_per_session: usize,
    /// `serve run` flags pinned for this workload (the WAL directory is
    /// appended at run time when `--wal` is on).
    pub serve_flags: &'static [&'static str],
    /// Whether the child runs a write-ahead log (needs `--wal-dir`).
    pub wal: bool,
}

/// Client connections (and load-generator threads): the box's 2 cores.
pub const CONNECTIONS: usize = 2;

/// The serve flags every workload pins. The shard queue is deep enough
/// that a multi-millisecond stall of the (pinned) server core queues the
/// open loop's traffic instead of refusing it with `Busy`.
const BASE_FLAGS: [&str; 8] = [
    "--io-threads",
    "1",
    "--shards",
    "1",
    "--poll-backend",
    "epoll",
    "--queue-capacity",
    "65536",
];

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "interactive",
        mode: Mode::OpenLoop { users: 1024 },
        gestures_per_session: 3,
        serve_flags: &BASE_FLAGS,
        wal: false,
    },
    Workload {
        name: "durable",
        mode: Mode::ClosedLoop { window: 8 },
        gestures_per_session: 2,
        serve_flags: &[
            "--io-threads",
            "1",
            "--shards",
            "1",
            "--poll-backend",
            "epoll",
            "--queue-capacity",
            "65536",
            "--wal",
            "sync",
        ],
        wal: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Session slots the load generator cycles sessions through.
    pub fn slots(&self) -> usize {
        match self.mode {
            Mode::OpenLoop { users } => users,
            Mode::ClosedLoop { window } => window * CONNECTIONS,
        }
    }

    /// Whether events travel as `EventBatch` frames.
    pub fn batched(&self) -> bool {
        matches!(self.mode, Mode::ClosedLoop { .. })
    }
}

/// One session's input and its reference output.
#[derive(Debug, Clone)]
pub struct Script {
    /// Raw (possibly corrupted) events; event `i` is sent with seq `i`,
    /// and the `Close` with seq `events.len()`.
    pub events: Vec<InputEvent>,
    /// The clean gestures the script was built from.
    pub gestures: Vec<Gesture>,
    /// Scripted send time of each event, in ms after the session start:
    /// the event timestamps, made monotonic (corrupted timestamps keep
    /// their predecessor's slot).
    pub due_ms: Vec<f64>,
    /// Mouse-move events (points) in the script.
    pub points: u64,
    /// Reference reply stream: every server frame `run_events_inproc`
    /// emits for this script, wire-encoded with the session id zeroed.
    pub expected: Vec<u8>,
}

/// Trains the served model (GDP, fixed seed) and reports how long
/// `EagerRecognizer::train` took.
pub fn train_model() -> (EagerRecognizer, Duration) {
    let data = datasets::gdp(TRAIN_SEED, TRAIN_PER_CLASS, 0);
    let started = Instant::now();
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("GDP training set trains");
    (rec, started.elapsed())
}

/// Builds the script pool for `seed`: `count` sessions of
/// `gestures_per_session` GDP gestures, every fourth one corrupted, each
/// with its reference output under `rec`.
pub fn make_scripts(
    rec: &EagerRecognizer,
    seed: u64,
    gestures_per_session: usize,
    count: usize,
) -> Vec<Script> {
    let data = datasets::gdp(seed ^ 0x6E57_0000, 0, GESTURES_PER_CLASS);
    (0..count)
        .map(|k| {
            let mut rng = SynthRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9));
            let mut script = EventScript::new();
            let mut gestures = Vec::with_capacity(gestures_per_session);
            for _ in 0..gestures_per_session {
                let pick = (rng.next_u64() % data.testing.len() as u64) as usize;
                let gesture = &data.testing[pick].gesture;
                script = script.then_gesture(gesture, Button::Left);
                gestures.push(gesture.clone());
            }
            let clean = script.into_events();
            let events = if k % 4 == 0 {
                FaultInjector::new(seed ^ 0xBAD ^ k as u64).corrupt(&clean)
            } else {
                clean
            };
            build_script(rec, events, gestures)
        })
        .collect()
}

fn build_script(rec: &EagerRecognizer, events: Vec<InputEvent>, gestures: Vec<Gesture>) -> Script {
    let t0 = events
        .iter()
        .map(|e| e.t)
        .find(|t| t.is_finite())
        .unwrap_or(0.0);
    let mut due_ms = Vec::with_capacity(events.len());
    let mut last = 0.0f64;
    for e in &events {
        if e.t.is_finite() {
            last = last.max(e.t - t0);
        }
        due_ms.push(last);
    }
    let points = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MouseMove))
        .count() as u64;
    let expected = expected_bytes(rec, &events);
    Script {
        events,
        gestures,
        due_ms,
        points,
        expected,
    }
}

/// The reference reply stream for `events` sent as seqs `0..n` and closed
/// with seq `n`: `run_events_inproc`'s frames, encoded, session zeroed.
pub fn expected_bytes(rec: &EagerRecognizer, events: &[InputEvent]) -> Vec<u8> {
    let seqd: Vec<(u32, InputEvent)> = events
        .iter()
        .enumerate()
        .map(|(i, &e)| (i as u32, e))
        .collect();
    let frames = run_events_inproc(
        rec,
        0,
        &PipelineConfig::default(),
        &seqd,
        events.len() as u32,
    );
    let mut out = Vec::new();
    for frame in &frames {
        encode_server(frame, &mut out);
    }
    out
}

/// The script a slot replays in a given generation: a seeded mix, so the
/// writer and the reader agree without talking to each other.
pub fn script_for(seed: u64, slot: usize, generation: u64, pool: usize) -> usize {
    let mut x = seed
        ^ (slot as u64).wrapping_mul(0xA24B_AED4_963E_E407)
        ^ generation.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x % pool.max(1) as u64) as usize
}

/// Session-id layout: `base + generation * slots + slot + 1`.
#[derive(Debug, Clone, Copy)]
pub struct SessionIds {
    /// Offset keeping passes against one child disjoint.
    pub base: u64,
    /// Slots per generation.
    pub slots: usize,
}

impl SessionIds {
    /// The id of `slot`'s session in `generation`.
    pub fn id(&self, slot: usize, generation: u64) -> u64 {
        self.base + generation * self.slots as u64 + slot as u64 + 1
    }

    /// `(slot, generation)` of a session id issued by [`SessionIds::id`].
    pub fn split(&self, session: u64) -> Option<(usize, u64)> {
        let rel = session.checked_sub(self.base + 1)?;
        let slots = self.slots as u64;
        Some(((rel % slots) as usize, rel / slots))
    }
}
