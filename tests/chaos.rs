//! Chaos replay: the hardened pipeline against seeded corrupted streams.
//!
//! Each case builds a clean multi-gesture `EventScript`, corrupts it with
//! a seeded `FaultInjector` (NaN coordinates, timestamp jitter and
//! reversal, non-finite timestamps, dropped ups, duplicated downs, point
//! bursts), and replays it end-to-end through the full stack:
//! `EventSanitizer` → `DwellDetector` → `Interface` → `GestureHandler` →
//! eager recognition → semantics.
//!
//! Invariants checked on every replay, for ≥500 seeded interactions:
//!
//! 1. **Zero panics** — the replay completes (the test harness itself is
//!    the detector).
//! 2. **Terminal state every time** — after the stream (plus the
//!    sanitizer's `finish()`), the handler is idle and every interaction
//!    that opened has a trace with a terminal
//!    [`InteractionOutcome`](grandma::toolkit::InteractionOutcome).
//! 3. **Determinism** — replaying the same seed yields byte-identical
//!    outcome sequences.
//! 4. **No NaN classified** — a trace that names a class implies the
//!    interaction's samples survived sanitization finite.
//!
//! The raw-hardened path (no sanitizer, events straight into the
//! dispatcher) is replayed too: the handler's own guards must hold alone.
//!
//! The toolkit's `GestureHandler` and serve's `SessionPipeline` are two
//! front ends over one interaction machine; the agreement test feeds both
//! the same clean, corrupted and dwell-hold streams and requires them to
//! report every interaction identically.

use std::cell::RefCell;
use std::rc::Rc;

use grandma::core::{EagerConfig, EagerRecognizer, FeatureMask, InteractionConfig};
use grandma::events::{
    Button, DwellDetector, EventSanitizer, EventScript, InputEvent, SanitizerConfig,
};
use grandma::serve::{run_events_inproc, OutcomeKind, PipelineConfig, ServerFrame};
use grandma::synth::{datasets, FaultInjector, FaultInjectorConfig, SynthRng};
use grandma::toolkit::{
    GestureClass, GestureHandler, GestureHandlerConfig, HandlerRef, InteractionOutcome,
    InteractionTrace, Interface, PhaseTransition,
};

fn recognizer() -> Rc<EagerRecognizer> {
    let data = datasets::eight_way(0x2b2b, 10, 0);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    Rc::new(rec)
}

fn fresh_interface(recognizer: &Rc<EagerRecognizer>) -> (Interface, Rc<RefCell<GestureHandler>>) {
    fresh_interface_with(recognizer, GestureHandlerConfig::default())
}

fn fresh_interface_with(
    recognizer: &Rc<EagerRecognizer>,
    config: GestureHandlerConfig,
) -> (Interface, Rc<RefCell<GestureHandler>>) {
    let names = ["dr", "dl", "rd", "ld", "ru", "lu", "ur", "ul"];
    let gh = Rc::new(RefCell::new(GestureHandler::new(
        recognizer.clone(),
        names.iter().map(|n| GestureClass::named(n)).collect(),
        config,
    )));
    let mut interface = Interface::new();
    let gh_dyn: HandlerRef = gh.clone();
    interface.attach_root_handler(gh_dyn);
    (interface, gh)
}

/// A clean session of `n` gestures drawn deterministically from the
/// eight-way testing pool.
fn clean_session(seed: u64, n: usize) -> Vec<InputEvent> {
    let data = datasets::eight_way(0x7e57, 0, 8);
    let mut rng = SynthRng::seed_from_u64(seed);
    let mut script = EventScript::new();
    for _ in 0..n {
        let pick = (rng.next_u64() as usize) % data.testing.len();
        script = script.then_gesture(&data.testing[pick].gesture, Button::Left);
    }
    script.into_events()
}

/// One corrupted end-to-end replay through the sanitized pipeline.
/// Returns the per-interaction outcome sequence.
fn replay_sanitized(
    recognizer: &Rc<EagerRecognizer>,
    corrupted: &[InputEvent],
) -> Vec<InteractionOutcome> {
    replay_sanitized_traces(recognizer, GestureHandlerConfig::default(), corrupted)
        .0
        .iter()
        .map(|t| t.outcome)
        .collect()
}

/// The sanitized replay, returning the handler's traces and the stream a
/// served session must be fed to see the same input: the raw events with
/// the dwell detector's timeouts spliced in front of the raw event that
/// revealed them (a served session has no dwell detector of its own).
fn replay_sanitized_traces(
    recognizer: &Rc<EagerRecognizer>,
    config: GestureHandlerConfig,
    corrupted: &[InputEvent],
) -> (Vec<InteractionTrace>, Vec<InputEvent>) {
    let (mut interface, gh) = fresh_interface_with(recognizer, config);
    let mut sanitizer = EventSanitizer::with_config(SanitizerConfig::default());
    let mut dwell = DwellDetector::paper_default();
    let mut served = Vec::with_capacity(corrupted.len());
    for &raw in corrupted {
        let cleaned = sanitizer.process(raw);
        let faults = sanitizer.take_faults();
        gh.borrow_mut().note_faults(&faults);
        for clean in cleaned {
            for timeout in dwell.process(&clean) {
                interface.dispatch(&timeout);
                served.push(timeout);
            }
            interface.dispatch(&clean);
        }
        served.push(raw);
    }
    // Stream over: close any dangling interaction, charging the
    // synthesized grab break's fault to it like every other repair.
    let closing = sanitizer.finish();
    let faults = sanitizer.take_faults();
    gh.borrow_mut().note_faults(&faults);
    for closing in closing {
        interface.dispatch(&closing);
    }
    let gh = gh.borrow();
    assert!(
        !gh.interaction_in_progress(),
        "handler must terminate in the idle state"
    );
    (gh.traces().to_vec(), served)
}

/// The raw-hardened path: no sanitizer, corrupted events straight in.
fn replay_raw(
    recognizer: &Rc<EagerRecognizer>,
    corrupted: &[InputEvent],
) -> Vec<InteractionOutcome> {
    let (mut interface, gh) = fresh_interface(recognizer);
    for e in corrupted {
        interface.dispatch(e);
    }
    let outcomes = gh.borrow().traces().iter().map(|t| t.outcome).collect();
    outcomes
}

/// NaN-aware stream equality: corrupted streams legitimately contain NaN,
/// which `PartialEq` treats as unequal to itself, so compare field bits.
fn streams_identical(a: &[InputEvent], b: &[InputEvent]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.kind == y.kind
                && x.x.to_bits() == y.x.to_bits()
                && x.y.to_bits() == y.y.to_bits()
                && x.t.to_bits() == y.t.to_bits()
        })
}

fn is_terminal(o: InteractionOutcome) -> bool {
    matches!(
        o,
        InteractionOutcome::Recognized
            | InteractionOutcome::Manipulated
            | InteractionOutcome::Cancelled
            | InteractionOutcome::Rejected
    )
}

#[test]
fn five_hundred_seeded_corrupted_interactions_replay_clean() {
    let recognizer = recognizer();
    let gestures_per_session = 5;
    let sessions = 110; // 110 × 5 = 550 interactions ≥ 500
    let mut interactions = 0usize;
    let mut outcome_counts = [0usize; 4];
    for case in 0..sessions {
        let seed = 0xC4A0_5000 + case as u64;
        let clean = clean_session(seed, gestures_per_session);
        let corrupted = FaultInjector::new(seed).corrupt(&clean);
        let outcomes = replay_sanitized(&recognizer, &corrupted);
        assert!(
            outcomes.iter().all(|&o| is_terminal(o)),
            "seed {seed}: non-terminal outcome in {outcomes:?}"
        );
        interactions += outcomes.len();
        for o in outcomes {
            outcome_counts[match o {
                InteractionOutcome::Recognized => 0,
                InteractionOutcome::Manipulated => 1,
                InteractionOutcome::Cancelled => 2,
                InteractionOutcome::Rejected => 3,
            }] += 1;
        }
    }
    assert!(
        interactions >= 500,
        "only {interactions} interactions replayed"
    );
    // The default corruption profile must exercise both the happy path
    // and the cancellation path, or the test proves nothing.
    assert!(
        outcome_counts[0] + outcome_counts[1] > 0,
        "no interaction survived corruption: {outcome_counts:?}"
    );
    assert!(
        outcome_counts[2] > 0,
        "no interaction was cancelled: {outcome_counts:?}"
    );
}

#[test]
fn corrupted_replays_are_deterministic() {
    let recognizer = recognizer();
    for case in 0..20 {
        let seed = 0xD0_0D00 + case as u64;
        let clean = clean_session(seed, 4);
        let corrupted_a = FaultInjector::new(seed).corrupt(&clean);
        let corrupted_b = FaultInjector::new(seed).corrupt(&clean);
        assert!(
            streams_identical(&corrupted_a, &corrupted_b),
            "injector must be deterministic"
        );
        let run_a = replay_sanitized(&recognizer, &corrupted_a);
        let run_b = replay_sanitized(&recognizer, &corrupted_b);
        assert_eq!(run_a, run_b, "seed {seed}: outcome sequences diverge");
    }
}

#[test]
fn raw_hardened_path_survives_without_the_sanitizer() {
    // The handler's own guards (non-finite filtering, fault budget,
    // grab-break teardown, total-order queueing) must keep the raw path
    // panic-free even with no sanitizer in front.
    let recognizer = recognizer();
    for case in 0..40 {
        let seed = 0xBAD_F00D + case as u64;
        let clean = clean_session(seed, 4);
        let corrupted = FaultInjector::new(seed).corrupt(&clean);
        let outcomes = replay_raw(&recognizer, &corrupted);
        assert!(
            outcomes.iter().all(|&o| is_terminal(o)),
            "seed {seed}: non-terminal outcome"
        );
        let rerun = replay_raw(&recognizer, &corrupted);
        assert_eq!(outcomes, rerun, "seed {seed}: raw path nondeterministic");
    }
}

#[test]
fn pathological_profiles_cannot_panic_the_pipeline() {
    let recognizer = recognizer();
    let profiles = [
        // Everything corrupted at once.
        FaultInjectorConfig {
            nan_coordinate_rate: 1.0,
            timestamp_jitter_rate: 1.0,
            timestamp_jitter_ms: 500.0,
            non_finite_timestamp_rate: 0.5,
            drop_up_rate: 1.0,
            duplicate_down_rate: 1.0,
            burst_rate: 0.5,
            burst_len: 10,
        },
        // Pure timestamp chaos.
        FaultInjectorConfig {
            nan_coordinate_rate: 0.0,
            timestamp_jitter_rate: 1.0,
            timestamp_jitter_ms: 10_000.0,
            non_finite_timestamp_rate: 0.3,
            drop_up_rate: 0.0,
            duplicate_down_rate: 0.0,
            burst_rate: 0.0,
            burst_len: 0,
        },
        // Broken grabs only.
        FaultInjectorConfig {
            nan_coordinate_rate: 0.0,
            timestamp_jitter_rate: 0.0,
            timestamp_jitter_ms: 0.0,
            non_finite_timestamp_rate: 0.0,
            drop_up_rate: 1.0,
            duplicate_down_rate: 1.0,
            burst_rate: 0.0,
            burst_len: 0,
        },
    ];
    for (i, profile) in profiles.iter().enumerate() {
        for case in 0..5 {
            let seed = 0xFACADE + (i * 100 + case) as u64;
            let clean = clean_session(seed, 3);
            let corrupted = FaultInjector::with_config(seed, profile.clone()).corrupt(&clean);
            let outcomes = replay_sanitized(&recognizer, &corrupted);
            assert!(outcomes.iter().all(|&o| is_terminal(o)));
            // Raw path too.
            let raw = replay_raw(&recognizer, &corrupted);
            assert!(raw.iter().all(|&o| is_terminal(o)));
        }
    }
}

#[test]
fn uncorrupted_sessions_still_recognize_through_the_sanitized_pipeline() {
    // The defensive layer must cost nothing on clean input: every clean
    // interaction classifies (Recognized or Manipulated), none cancel.
    let recognizer = recognizer();
    let clean = clean_session(0x90_0D, 8);
    let outcomes = replay_sanitized(&recognizer, &clean);
    assert_eq!(outcomes.len(), 8);
    assert!(outcomes.iter().all(|&o| matches!(
        o,
        InteractionOutcome::Recognized | InteractionOutcome::Manipulated
    )));
}

/// One finished interaction as both front ends report it.
#[derive(Debug, PartialEq)]
struct Summary {
    outcome: InteractionOutcome,
    class: Option<usize>,
    total_points: usize,
    faults: usize,
    /// Points collected at an accepted eager or timeout commit.
    committed_at: Option<usize>,
}

fn handler_summary(t: &InteractionTrace) -> Summary {
    let mid_gesture = matches!(
        t.transition,
        PhaseTransition::Eager | PhaseTransition::Timeout
    );
    Summary {
        outcome: t.outcome,
        class: t.class,
        total_points: t.total_points,
        faults: t.faults.len(),
        committed_at: (mid_gesture && t.class.is_some()).then_some(t.points_at_recognition),
    }
}

/// Runs `stream` through a served session and summarizes its frames.
fn served_summaries(
    recognizer: &EagerRecognizer,
    config: &PipelineConfig,
    stream: &[InputEvent],
) -> Vec<Summary> {
    let events: Vec<(u32, InputEvent)> = stream
        .iter()
        .enumerate()
        .map(|(i, &e)| (i as u32, e))
        .collect();
    let frames = run_events_inproc(recognizer, 1, config, &events, events.len() as u32);
    let mut out = Vec::new();
    let mut committed_at = None;
    for frame in frames {
        match frame {
            ServerFrame::Recognized { points, .. } => committed_at = Some(points as usize),
            ServerFrame::Outcome {
                outcome,
                class,
                total_points,
                faults,
                ..
            } => {
                let outcome = match outcome {
                    OutcomeKind::Recognized => InteractionOutcome::Recognized,
                    OutcomeKind::Manipulated => InteractionOutcome::Manipulated,
                    OutcomeKind::Cancelled => InteractionOutcome::Cancelled,
                    OutcomeKind::Rejected => InteractionOutcome::Rejected,
                    OutcomeKind::Closed => continue,
                };
                out.push(Summary {
                    outcome,
                    class: class.map(usize::from),
                    total_points: total_points as usize,
                    faults: faults as usize,
                    committed_at: committed_at.take(),
                });
            }
            _ => {}
        }
    }
    out
}

#[test]
fn handler_and_served_session_agree_on_every_interaction() {
    let recognizer = recognizer();
    let mut streams: Vec<(bool, Vec<InputEvent>)> = Vec::new();
    for case in 0..400u64 {
        let seed = 0xA6EE_0000 + case;
        let clean = clean_session(seed, 5);
        let corrupted = FaultInjector::new(seed).corrupt(&clean);
        streams.push((true, clean));
        streams.push((true, corrupted));
    }
    // Dwell holds past the corner, with eager recognition off so the
    // 200 ms timeout is what commits.
    let data = datasets::eight_way(0x7e57, 0, 8);
    for (i, sample) in data.testing.iter().take(64).enumerate() {
        let at = (sample.gesture.len() / 2 + i % 3).min(sample.gesture.len() - 1);
        let hold = EventScript::new()
            .then_gesture_with_hold(&sample.gesture, Button::Left, at, 300.0)
            .into_events();
        streams.push((false, hold));
    }
    let (mut interactions, mut eager, mut timeout) = (0, 0, 0);
    for (i, (eager_on, stream)) in streams.iter().enumerate() {
        let interaction = InteractionConfig {
            eager: *eager_on,
            ..InteractionConfig::default()
        };
        let handler_config = GestureHandlerConfig {
            interaction,
            ..GestureHandlerConfig::default()
        };
        let pipeline_config = PipelineConfig {
            interaction,
            ..PipelineConfig::default()
        };
        let (traces, served) = replay_sanitized_traces(&recognizer, handler_config, stream);
        let local: Vec<Summary> = traces.iter().map(handler_summary).collect();
        let remote = served_summaries(&recognizer, &pipeline_config, &served);
        assert_eq!(
            local, remote,
            "stream {i}: handler and served session disagree"
        );
        interactions += local.len();
        for t in traces.iter().filter(|t| t.class.is_some()) {
            match t.transition {
                PhaseTransition::Eager => eager += 1,
                PhaseTransition::Timeout => timeout += 1,
                _ => {}
            }
        }
    }
    assert!(
        interactions >= 3_500,
        "only {interactions} interactions compared"
    );
    assert!(
        eager > 0 && timeout > 0,
        "eager {eager}, timeout {timeout} commits"
    );
}
