//! The per-session recognition pipeline: sanitize → interaction machine →
//! wire frames.
//!
//! [`SessionPipeline`] is the serving-layer front end of the
//! [`grandma_core::Interaction`] machine that also drives the toolkit's
//! `GestureHandler`. Where the handler evaluates `recog`/`manip`/`done`
//! expressions on the machine's steps, the pipeline emits
//! [`ServerFrame::Recognized`] / [`ServerFrame::Manipulate`] /
//! [`ServerFrame::Outcome`] for the consuming application to act on at
//! the far end of the transport, plus a [`ServerFrame::Fault`] per stream
//! repair. Unlike the handler it honours any button.
//!
//! The pipeline is pure with respect to its inputs: the same
//! `(recognizer, config, event sequence)` always produces the same frame
//! sequence, which is what lets the loopback integration test demand
//! byte-identical outcomes between the TCP service and
//! [`run_events_inproc`]. It holds no clock, no thread, and no
//! allocation beyond the machine's collection buffers and the
//! sanitizer's scratch, so after the first gesture feeding an event
//! allocates nothing.

use grandma_core::{
    EagerRecognizer, Interaction, InteractionConfig, InteractionOutcome, InteractionPhase,
    PhaseTransition, Step,
};
use grandma_events::{EventKind, EventSanitizer, InputEvent, SanitizerConfig, SanitizerState};
use grandma_geom::Point;

use crate::wire::{
    fault_code_of, put_f64, put_u16, put_u32, put_u64, Cur, OutcomeKind, ServerFrame, WireError,
    NO_CLASS, OUTCOME_KIND_COUNT,
};

/// Per-session pipeline tuning. The interaction knobs are the toolkit's
/// too, so a served session behaves like a local one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineConfig {
    /// The interaction machine's tuning: eager recognition, jitter
    /// filter, rejection floor, and the per-interaction fault budget
    /// (sanitizer repairs count against it).
    pub interaction: InteractionConfig,
    /// Sanitizer tuning for this session's stream.
    pub sanitizer: SanitizerConfig,
}

/// Counts one emitted outcome.
fn count_outcome(counts: &mut [u32; OUTCOME_KIND_COUNT], kind: OutcomeKind) {
    if let Some(counter) = counts.get_mut(usize::from(kind.to_u8())) {
        *counter = counter.saturating_add(1);
    }
}

/// One session's full recognition pipeline. Owned by exactly one shard
/// worker; never shared across threads.
///
/// The machine's collection buffers and the sanitizer's scratch buffer
/// are *cleared*, not dropped, between interactions: after the first
/// gesture has warmed them up, feeding an event performs no heap
/// allocation.
pub struct SessionPipeline {
    session: u64,
    config: PipelineConfig,
    sanitizer: EventSanitizer,
    interaction: Interaction,
    /// Sanitizer output scratch, reused across `feed` calls.
    cleaned: Vec<InputEvent>,
    /// Highest event `seq` fed through the pipeline; the authoritative
    /// resume point a `Resumed` reply carries (0 before any event —
    /// resuming clients number events from 1).
    last_seq: u32,
    /// Interaction outcomes emitted over the session's lifetime, indexed
    /// like [`crate::metrics::ServiceMetrics::outcomes`].
    outcome_counts: [u32; OUTCOME_KIND_COUNT],
}

impl SessionPipeline {
    /// Creates the pipeline for `session`.
    pub fn new(session: u64, config: PipelineConfig) -> Self {
        Self {
            session,
            sanitizer: EventSanitizer::with_config(config.sanitizer.clone()),
            interaction: Interaction::new(config.interaction),
            config,
            cleaned: Vec::new(),
            last_seq: 0,
            outcome_counts: [0; OUTCOME_KIND_COUNT],
        }
    }

    /// The session id frames are stamped with.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Highest event `seq` fed so far (0 before any event).
    pub fn last_seq(&self) -> u32 {
        self.last_seq
    }

    /// Outcomes emitted so far, indexed Recognized, Manipulated,
    /// Cancelled, Rejected, Closed.
    pub fn outcome_counts(&self) -> [u32; OUTCOME_KIND_COUNT] {
        self.outcome_counts
    }

    /// Re-arms a finished pipeline for a new session, keeping every
    /// warmed buffer (machine, sanitizer fault log, sanitizer scratch).
    /// Observationally identical to `SessionPipeline::new(session,
    /// config)` with the same config — shard workers recycle closed
    /// pipelines through this instead of reallocating.
    pub fn recycle(&mut self, session: u64) {
        self.session = session;
        self.sanitizer.reset();
        self.interaction.reset();
        self.cleaned.clear();
        self.last_seq = 0;
        self.outcome_counts = [0; OUTCOME_KIND_COUNT];
    }

    /// `true` while an interaction is in progress (any non-idle phase).
    pub fn interaction_in_progress(&self) -> bool {
        self.interaction.in_progress()
    }

    /// Feeds one raw (possibly corrupted) event through sanitization and
    /// the interaction machine, appending every provoked frame to `out`.
    /// Returns the number of sanitizer repairs this event cost.
    pub fn feed(
        &mut self,
        rec: &EagerRecognizer,
        seq: u32,
        raw: InputEvent,
        out: &mut Vec<ServerFrame>,
    ) -> u32 {
        self.last_seq = self.last_seq.max(seq);
        self.cleaned.clear();
        self.sanitizer.process_into(raw, &mut self.cleaned);
        let repairs = self.note_sanitizer_faults(seq, out);
        self.dispatch_cleaned(rec, seq, out);
        repairs
    }

    /// Ends the session: flushes the sanitizer (closing any dangling
    /// interaction), and emits the terminal [`OutcomeKind::Closed`]
    /// marker. Exactly one `Closed` outcome is emitted per pipeline
    /// lifetime.
    pub fn close(&mut self, rec: &EagerRecognizer, seq: u32, out: &mut Vec<ServerFrame>) {
        self.cleaned.clear();
        self.sanitizer.finish_into(&mut self.cleaned);
        self.note_sanitizer_faults(seq, out);
        // Defense in depth: the sanitizer's finish() guarantees an ending
        // event for any open interaction, but a pipeline must terminate
        // even if that contract is ever violated. A trailing grab break
        // is a no-op when idle.
        self.cleaned
            .push(InputEvent::new(EventKind::GrabBreak, 0.0, 0.0, 0.0));
        self.dispatch_cleaned(rec, seq, out);
        count_outcome(&mut self.outcome_counts, OutcomeKind::Closed);
        out.push(ServerFrame::Outcome {
            session: self.session,
            seq,
            outcome: OutcomeKind::Closed,
            class: None,
            total_points: 0,
            faults: 0,
        });
    }

    /// Drains the sanitizer's fault log: emits one `Fault` frame per
    /// repair and charges them to the interaction in progress, if any.
    fn note_sanitizer_faults(&mut self, seq: u32, out: &mut Vec<ServerFrame>) -> u32 {
        let faults = self.sanitizer.faults();
        for fault in faults {
            out.push(ServerFrame::Fault {
                session: self.session,
                seq,
                code: fault_code_of(fault),
            });
        }
        let n = faults.len() as u32;
        self.sanitizer.clear_faults();
        self.interaction.note_faults(n);
        n
    }

    /// Feeds the sanitizer's output through the machine.
    fn dispatch_cleaned(&mut self, rec: &EagerRecognizer, seq: u32, out: &mut Vec<ServerFrame>) {
        let Self {
            session,
            interaction,
            cleaned,
            outcome_counts,
            ..
        } = self;
        for &event in cleaned.iter() {
            interaction.feed(rec, event, &mut |step| {
                emit(*session, seq, outcome_counts, step, out)
            });
        }
    }

    /// Captures the pipeline's complete recoverable state. The sanitizer
    /// fault log is expected to be empty (it is drained into `Fault`
    /// frames on every `feed`); pending faults are *not* carried by the
    /// snapshot.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            session: self.session,
            config: self.config.clone(),
            sanitizer: self.sanitizer.state(),
            interaction_faults: self.interaction.faults(),
            last_seq: self.last_seq,
            outcome_counts: self.outcome_counts,
            phase: self.interaction.phase(),
            points: self.interaction.points().to_vec(),
        }
    }

    /// Rebuilds a pipeline from a snapshot; its future output is
    /// byte-identical to one that never stopped (see
    /// [`Interaction::restore`]).
    pub fn restore(snapshot: &SessionSnapshot) -> Self {
        let mut p = Self::new(snapshot.session, snapshot.config.clone());
        p.sanitizer.restore_state(snapshot.sanitizer);
        p.interaction = Interaction::restore(
            snapshot.config.interaction,
            snapshot.phase,
            snapshot.interaction_faults,
            &snapshot.points,
        );
        p.last_seq = snapshot.last_seq;
        p.outcome_counts = snapshot.outcome_counts;
        p
    }
}

// lint:hot-path start — per-event steady state: no panics, no allocation
/// Maps one machine step to the frames it provokes.
fn emit(
    session: u64,
    seq: u32,
    outcome_counts: &mut [u32; OUTCOME_KIND_COUNT],
    step: Step<'_>,
    out: &mut Vec<ServerFrame>,
) {
    match step {
        Step::Recognized {
            trigger,
            class: Some(class),
            gesture,
        } if trigger != PhaseTransition::MouseUp => out.push(ServerFrame::Recognized {
            session,
            seq,
            class,
            points: gesture.len() as u32,
        }),
        Step::Manipulate { x, y, .. } => out.push(ServerFrame::Manipulate { session, seq, x, y }),
        Step::Finished {
            outcome,
            class,
            total_points,
            faults,
        } => {
            let outcome = OutcomeKind::from(outcome);
            count_outcome(outcome_counts, outcome);
            out.push(ServerFrame::Outcome {
                session,
                seq,
                outcome,
                class,
                total_points,
                faults,
            });
        }
        Step::Fault(fault) => out.push(ServerFrame::Fault {
            session,
            seq,
            code: fault_code_of(&fault),
        }),
        Step::Began | Step::Recognized { .. } => {}
    }
}
// lint:hot-path end

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written by an incompatible
    /// [`SessionSnapshot::VERSION`].
    UnsupportedVersion {
        /// The version found in the bytes.
        found: u16,
    },
    /// The snapshot bytes are truncated or malformed.
    Wire(WireError),
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Wire(e)
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            SnapshotError::Wire(e) => write!(f, "malformed snapshot: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A versioned, byte-stable capture of one [`SessionPipeline`]'s
/// recoverable state: config, sanitizer state, phase, fault charge,
/// resume cursor, outcome counters, and the in-flight gesture points.
///
/// The binary layout ([`SessionSnapshot::encode`] /
/// [`SessionSnapshot::decode`]) is the on-disk format the WAL's
/// compaction snapshots use (DESIGN.md §14); [`SessionSnapshot::VERSION`]
/// is bumped on any layout change and decoding rejects other versions —
/// recovery across a layout change goes through the WAL tail instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The session id.
    pub session: u64,
    /// The pipeline config the session was opened with.
    pub config: PipelineConfig,
    /// The sanitizer's mid-stream state.
    pub sanitizer: SanitizerState,
    /// Faults charged to the interaction in progress.
    pub interaction_faults: u32,
    /// Highest event `seq` processed (the resume cursor).
    pub last_seq: u32,
    /// Outcomes emitted so far, indexed Recognized, Manipulated,
    /// Cancelled, Rejected, Closed.
    pub outcome_counts: [u32; OUTCOME_KIND_COUNT],
    /// The interaction phase.
    pub phase: InteractionPhase,
    /// The in-flight gesture's collected points (empty when idle).
    pub points: Vec<Point>,
}

// Flag bits of the snapshot header byte.
const SNAP_EAGER: u8 = 1 << 0;
const SNAP_HAS_MIN_PROB: u8 = 1 << 1;
const SNAP_HAS_LAST_T: u8 = 1 << 2;
const SNAP_HAS_LAST_POS: u8 = 1 << 3;
const SNAP_INTERACTION_OPEN: u8 = 1 << 4;

// Phase tags.
const SNAP_PHASE_IDLE: u8 = 0;
const SNAP_PHASE_COLLECTING: u8 = 1;
const SNAP_PHASE_MANIPULATING: u8 = 2;
const SNAP_PHASE_DRAINING: u8 = 3;

impl SessionSnapshot {
    /// Snapshot layout version; encoded first so mismatched readers fail
    /// fast with [`SnapshotError::UnsupportedVersion`]. Bump on ANY
    /// layout change, in lockstep with the encode/decode pair below and
    /// the DESIGN.md §14 format table (grandma-lint's
    /// `snapshot-version-lockstep` rule holds this together).
    pub const VERSION: u16 = 1;

    /// Appends the snapshot's byte-stable encoding to `out`: all
    /// integers little-endian, floats as raw IEEE-754 bits, `Option`s as
    /// header flag bits. Encoding the same snapshot twice yields
    /// identical bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u16(out, Self::VERSION);
        put_u64(out, self.session);
        let mut flags = 0u8;
        if self.config.interaction.eager {
            flags |= SNAP_EAGER;
        }
        if self.config.interaction.min_probability.is_some() {
            flags |= SNAP_HAS_MIN_PROB;
        }
        if self.sanitizer.last_t.is_some() {
            flags |= SNAP_HAS_LAST_T;
        }
        if self.sanitizer.last_pos.is_some() {
            flags |= SNAP_HAS_LAST_POS;
        }
        if self.sanitizer.interaction_open {
            flags |= SNAP_INTERACTION_OPEN;
        }
        out.push(flags);
        put_f64(out, self.config.interaction.min_point_distance);
        if let Some(p) = self.config.interaction.min_probability {
            put_f64(out, p);
        }
        put_u32(out, self.config.interaction.fault_budget);
        put_f64(out, self.config.sanitizer.reorder_window_ms);
        put_f64(out, self.config.sanitizer.grab_timeout_ms);
        if let Some(t) = self.sanitizer.last_t {
            put_f64(out, t);
        }
        if let Some((x, y)) = self.sanitizer.last_pos {
            put_f64(out, x);
            put_f64(out, y);
        }
        put_u32(out, self.interaction_faults);
        put_u32(out, self.last_seq);
        for count in self.outcome_counts {
            put_u32(out, count);
        }
        match self.phase {
            InteractionPhase::Idle => out.push(SNAP_PHASE_IDLE),
            InteractionPhase::Collecting => out.push(SNAP_PHASE_COLLECTING),
            InteractionPhase::Manipulating {
                class,
                total_points,
            } => {
                out.push(SNAP_PHASE_MANIPULATING);
                put_u16(out, class);
                put_u32(out, total_points);
            }
            InteractionPhase::Draining {
                outcome,
                class,
                total_points,
            } => {
                out.push(SNAP_PHASE_DRAINING);
                out.push(OutcomeKind::from(outcome).to_u8());
                put_u16(out, class.unwrap_or(NO_CLASS));
                put_u32(out, total_points);
            }
        }
        put_u32(out, self.points.len() as u32);
        for p in &self.points {
            put_f64(out, p.x);
            put_f64(out, p.y);
            put_f64(out, p.t);
        }
    }

    /// Decodes one snapshot from the front of `buf`, returning it and
    /// the bytes consumed. Never panics on hostile input.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), SnapshotError> {
        let mut cur = Cur::new(buf);
        let version = cur.u16("snapshot version")?;
        if version != Self::VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let session = cur.u64("session")?;
        let flags = cur.u8("snapshot flags")?;
        let min_point_distance = cur.f64("min point distance")?;
        let min_probability = if flags & SNAP_HAS_MIN_PROB != 0 {
            Some(cur.f64("min probability")?)
        } else {
            None
        };
        let fault_budget = cur.u32("fault budget")?;
        let reorder_window_ms = cur.f64("reorder window")?;
        let grab_timeout_ms = cur.f64("grab timeout")?;
        let last_t = if flags & SNAP_HAS_LAST_T != 0 {
            Some(cur.f64("sanitizer last t")?)
        } else {
            None
        };
        let last_pos = if flags & SNAP_HAS_LAST_POS != 0 {
            Some((cur.f64("sanitizer last x")?, cur.f64("sanitizer last y")?))
        } else {
            None
        };
        let interaction_faults = cur.u32("interaction faults")?;
        let last_seq = cur.u32("last seq")?;
        let mut outcome_counts = [0u32; OUTCOME_KIND_COUNT];
        for count in outcome_counts.iter_mut() {
            *count = cur.u32("outcome count")?;
        }
        let phase = match cur.u8("phase tag")? {
            SNAP_PHASE_IDLE => InteractionPhase::Idle,
            SNAP_PHASE_COLLECTING => InteractionPhase::Collecting,
            SNAP_PHASE_MANIPULATING => InteractionPhase::Manipulating {
                class: cur.u16("phase class")?,
                total_points: cur.u32("phase points")?,
            },
            SNAP_PHASE_DRAINING => {
                // Byte values follow `OutcomeKind`; `Closed` (4) ends a
                // session, never an interaction.
                let outcome = match cur.u8("phase outcome")? {
                    0 => InteractionOutcome::Recognized,
                    1 => InteractionOutcome::Manipulated,
                    2 => InteractionOutcome::Cancelled,
                    3 => InteractionOutcome::Rejected,
                    value => {
                        return Err(WireError::BadEnum {
                            what: "phase outcome",
                            value,
                        }
                        .into())
                    }
                };
                let class = match cur.u16("phase class")? {
                    NO_CLASS => None,
                    c => Some(c),
                };
                InteractionPhase::Draining {
                    outcome,
                    class,
                    total_points: cur.u32("phase points")?,
                }
            }
            value => {
                return Err(WireError::BadEnum {
                    what: "phase tag",
                    value,
                }
                .into())
            }
        };
        let count =
            usize::try_from(cur.u32("point count")?).map_err(|_| WireError::IntOutOfRange {
                what: "point count",
            })?;
        // A point is 24 bytes; refuse counts the remaining bytes cannot
        // hold before reserving anything.
        if count.saturating_mul(24) > cur.remaining() {
            return Err(WireError::Malformed {
                what: "point count",
            }
            .into());
        }
        let mut points = Vec::with_capacity(count);
        for _ in 0..count {
            let x = cur.f64("point x")?;
            let y = cur.f64("point y")?;
            let t = cur.f64("point t")?;
            points.push(Point::new(x, y, t));
        }
        let snapshot = Self {
            session,
            config: PipelineConfig {
                interaction: InteractionConfig {
                    eager: flags & SNAP_EAGER != 0,
                    min_point_distance,
                    min_probability,
                    fault_budget,
                },
                sanitizer: SanitizerConfig {
                    reorder_window_ms,
                    grab_timeout_ms,
                },
            },
            sanitizer: SanitizerState {
                last_t,
                last_pos,
                interaction_open: flags & SNAP_INTERACTION_OPEN != 0,
            },
            interaction_faults,
            last_seq,
            outcome_counts,
            phase,
            points,
        };
        Ok((snapshot, cur.consumed()))
    }
}

/// Runs a whole `(seq, event)` stream through a fresh [`SessionPipeline`]
/// without any transport or thread: the deterministic in-process
/// reference the loopback integration test compares the TCP service
/// against, and the reference implementation of "the same scripts run
/// through the in-process pipeline".
pub fn run_events_inproc(
    rec: &EagerRecognizer,
    session: u64,
    config: &PipelineConfig,
    events: &[(u32, InputEvent)],
    close_seq: u32,
) -> Vec<ServerFrame> {
    let mut pipeline = SessionPipeline::new(session, config.clone());
    let mut out = Vec::new();
    for &(seq, raw) in events {
        pipeline.feed(rec, seq, raw, &mut out);
    }
    pipeline.close(rec, close_seq, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grandma_core::{EagerConfig, FeatureMask};
    use grandma_events::{Button, EventScript};
    use grandma_synth::datasets;

    fn recognizer() -> EagerRecognizer {
        let data = datasets::eight_way(0x2b2b, 10, 0);
        let (rec, _) =
            EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
                .expect("training succeeds");
        rec
    }

    fn seq_events(events: Vec<InputEvent>) -> Vec<(u32, InputEvent)> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i as u32, e))
            .collect()
    }

    fn clean_stream(n: usize) -> Vec<(u32, InputEvent)> {
        let data = datasets::eight_way(0x7e57, 0, 4);
        let mut script = EventScript::new();
        for i in 0..n {
            script =
                script.then_gesture(&data.testing[i % data.testing.len()].gesture, Button::Left);
        }
        seq_events(script.into_events())
    }

    #[test]
    fn clean_interactions_recognize_and_close() {
        let rec = recognizer();
        let events = clean_stream(3);
        let close_seq = events.len() as u32;
        let frames = run_events_inproc(&rec, 11, &PipelineConfig::default(), &events, close_seq);
        let outcomes: Vec<OutcomeKind> = frames
            .iter()
            .filter_map(|f| match f {
                ServerFrame::Outcome { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes.len(), 4, "3 interactions + 1 Closed: {outcomes:?}");
        assert!(outcomes[..3]
            .iter()
            .all(|o| matches!(o, OutcomeKind::Recognized | OutcomeKind::Manipulated)));
        assert_eq!(outcomes[3], OutcomeKind::Closed);
        // Eager recognition fired: Recognized frames precede Manipulate
        // streams.
        assert!(frames
            .iter()
            .any(|f| matches!(f, ServerFrame::Recognized { .. })));
        assert!(frames
            .iter()
            .any(|f| matches!(f, ServerFrame::Manipulate { .. })));
    }

    #[test]
    fn pipeline_is_deterministic() {
        let rec = recognizer();
        let events = clean_stream(2);
        let a = run_events_inproc(&rec, 1, &PipelineConfig::default(), &events, 999);
        let b = run_events_inproc(&rec, 1, &PipelineConfig::default(), &events, 999);
        assert_eq!(a, b);
    }

    #[test]
    fn corrupted_stream_reports_faults_and_terminates() {
        use grandma_synth::FaultInjector;
        let rec = recognizer();
        let clean: Vec<InputEvent> = clean_stream(4).into_iter().map(|(_, e)| e).collect();
        let corrupted = seq_events(FaultInjector::new(0xBAD).corrupt(&clean));
        let close_seq = corrupted.len() as u32;
        let frames = run_events_inproc(&rec, 2, &PipelineConfig::default(), &corrupted, close_seq);
        // Terminal marker present, pipeline survived.
        assert!(matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ));
        let rerun = run_events_inproc(&rec, 2, &PipelineConfig::default(), &corrupted, close_seq);
        assert_eq!(frames, rerun, "corruption replays deterministically");
    }

    #[test]
    fn dangling_interaction_is_cancelled_at_close() {
        let rec = recognizer();
        let mut events = clean_stream(1);
        events.pop(); // lose the MouseUp
        let frames = run_events_inproc(&rec, 3, &PipelineConfig::default(), &events, 100);
        let outcomes: Vec<OutcomeKind> = frames
            .iter()
            .filter_map(|f| match f {
                ServerFrame::Outcome { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .collect();
        // The sanitizer's finish() synthesizes the grab break: the
        // interaction cancels, then the session closes.
        assert_eq!(outcomes.last(), Some(&OutcomeKind::Closed));
        assert!(outcomes.contains(&OutcomeKind::Cancelled));
    }

    #[test]
    fn snapshot_restore_matches_never_crashed_at_every_cut() {
        let rec = recognizer();
        let events = clean_stream(2);
        let close_seq = events.len() as u32;
        let reference = run_events_inproc(&rec, 21, &PipelineConfig::default(), &events, close_seq);
        // Cut the stream at every boundary — idle, mid-collection,
        // mid-manipulation — snapshot, restore, and finish on the
        // restored pipeline. The combined output must be byte-identical
        // to the uninterrupted run.
        for cut in 0..=events.len() {
            let mut first = SessionPipeline::new(21, PipelineConfig::default());
            let mut out = Vec::new();
            for &(seq, raw) in &events[..cut] {
                first.feed(&rec, seq, raw, &mut out);
            }
            let snap = first.snapshot();
            // Byte-stable: encode twice, decode, re-encode — all equal.
            let mut bytes = Vec::new();
            snap.encode(&mut bytes);
            let mut again = Vec::new();
            snap.encode(&mut again);
            assert_eq!(bytes, again, "cut {cut}: encode is deterministic");
            let (decoded, consumed) = SessionSnapshot::decode(&bytes).expect("decodes");
            assert_eq!(consumed, bytes.len(), "cut {cut}: whole buffer consumed");
            assert_eq!(decoded, snap, "cut {cut}: decode inverts encode");
            let mut restored = SessionPipeline::restore(&decoded);
            assert_eq!(restored.last_seq(), first.last_seq());
            for &(seq, raw) in &events[cut..] {
                restored.feed(&rec, seq, raw, &mut out);
            }
            restored.close(&rec, close_seq, &mut out);
            let mut encoded = Vec::new();
            let mut ref_encoded = Vec::new();
            for f in &out {
                crate::wire::encode_server(f, &mut encoded);
            }
            for f in &reference {
                crate::wire::encode_server(f, &mut ref_encoded);
            }
            assert_eq!(
                encoded, ref_encoded,
                "cut {cut}: restored output must be byte-identical"
            );
        }
    }

    #[test]
    fn snapshot_restore_preserves_outcome_counts_and_faulted_state() {
        let rec = recognizer();
        let mut config = PipelineConfig::default();
        config.interaction.min_probability = Some(0.25);
        let clean: Vec<InputEvent> = clean_stream(3).into_iter().map(|(_, e)| e).collect();
        let corrupted = seq_events(grandma_synth::FaultInjector::new(0x5EED).corrupt(&clean));
        let close_seq = corrupted.len() as u32;
        let reference = run_events_inproc(&rec, 8, &config, &corrupted, close_seq);
        let cut = corrupted.len() / 2;
        let mut first = SessionPipeline::new(8, config.clone());
        let mut out = Vec::new();
        for &(seq, raw) in &corrupted[..cut] {
            first.feed(&rec, seq, raw, &mut out);
        }
        let snap = first.snapshot();
        let counts = first.outcome_counts();
        let mut restored = SessionPipeline::restore(&snap);
        assert_eq!(restored.outcome_counts(), counts);
        for &(seq, raw) in &corrupted[cut..] {
            restored.feed(&rec, seq, raw, &mut out);
        }
        restored.close(&rec, close_seq, &mut out);
        assert_eq!(out, reference, "faulted stream restores identically");
    }

    #[test]
    fn snapshot_decode_rejects_bad_bytes_without_panicking() {
        let pipeline = SessionPipeline::new(5, PipelineConfig::default());
        let mut bytes = Vec::new();
        pipeline.snapshot().encode(&mut bytes);
        // Wrong version.
        let mut wrong = bytes.clone();
        wrong[0] = 0xFF;
        wrong[1] = 0xFF;
        assert_eq!(
            SessionSnapshot::decode(&wrong),
            Err(SnapshotError::UnsupportedVersion { found: 0xFFFF })
        );
        // Every truncation is a typed error, not a panic.
        for cut in 0..bytes.len() {
            assert!(SessionSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A forged point count must not allocate or loop.
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(SessionSnapshot::decode(&bytes).is_err());
    }

    #[test]
    fn any_button_starts_and_ends_an_interaction() {
        let rec = recognizer();
        let data = datasets::eight_way(0x7e57, 0, 4);
        let right = seq_events(
            EventScript::new()
                .then_gesture(&data.testing[0].gesture, Button::Right)
                .into_events(),
        );
        let mut mixed = clean_stream(1);
        let (_, last) = mixed.last_mut().expect("stream ends with an up");
        last.kind = EventKind::MouseUp {
            button: Button::Middle,
        };
        for events in [right, mixed] {
            let frames = run_events_inproc(&rec, 6, &PipelineConfig::default(), &events, 999);
            let outcomes: Vec<OutcomeKind> = frames
                .iter()
                .filter_map(|f| match f {
                    ServerFrame::Outcome { outcome, .. } => Some(*outcome),
                    _ => None,
                })
                .collect();
            assert_eq!(outcomes.len(), 2, "{outcomes:?}");
            assert!(matches!(
                outcomes[0],
                OutcomeKind::Recognized | OutcomeKind::Manipulated
            ));
        }
    }

    #[test]
    fn fault_budget_cancels_interaction() {
        let rec = recognizer();
        let mut config = PipelineConfig::default();
        config.interaction.fault_budget = 1;
        let mut pipeline = SessionPipeline::new(4, config);
        let mut out = Vec::new();
        let events = clean_stream(1);
        // Open the interaction, then hammer it with NaN moves.
        pipeline.feed(&rec, 0, events[0].1, &mut out);
        for i in 0..4 {
            pipeline.feed(
                &rec,
                i + 1,
                InputEvent::new(EventKind::MouseMove, f64::NAN, 0.0, 5.0 + i as f64),
                &mut out,
            );
        }
        pipeline.close(&rec, 99, &mut out);
        let cancelled = out.iter().any(|f| {
            matches!(
                f,
                ServerFrame::Outcome {
                    outcome: OutcomeKind::Cancelled,
                    ..
                }
            )
        });
        assert!(cancelled, "budget exhaustion must cancel: {out:?}");
    }
}
