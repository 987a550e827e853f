//! Wire-protocol contract tests: seeded encode→decode identity for every
//! frame kind, and a decoder fuzz pass proving hostile bytes produce
//! typed errors, never panics.

use grandma_events::{Button, EventKind, InputEvent};
use grandma_serve::wire::{
    decode_client, decode_client_view, decode_server, encode_client, encode_server, ClientFrame,
    FaultCode, FrameBuffer, OutcomeKind, ServerFrame, WireError, MAX_BATCH_EVENTS,
    MAX_BATCH_FRAME_LEN, MAX_FRAME_LEN, WIRE_VERSION,
};
use grandma_synth::SynthRng;

fn rng_f64(rng: &mut SynthRng) -> f64 {
    // Raw bit patterns: exercises NaN, infinities, subnormals — the wire
    // must carry all of them bit-exact.
    f64::from_bits(rng.next_u64())
}

fn rng_kind(rng: &mut SynthRng) -> EventKind {
    let button = match rng.next_u64() % 3 {
        0 => Button::Left,
        1 => Button::Middle,
        _ => Button::Right,
    };
    match rng.next_u64() % 5 {
        0 => EventKind::MouseDown { button },
        1 => EventKind::MouseMove,
        2 => EventKind::MouseUp { button },
        3 => EventKind::Timeout,
        _ => EventKind::GrabBreak,
    }
}

fn rng_event(rng: &mut SynthRng) -> InputEvent {
    InputEvent::new(rng_kind(rng), rng_f64(rng), rng_f64(rng), rng_f64(rng))
}

fn rng_client(rng: &mut SynthRng) -> ClientFrame {
    match rng.next_u64() % 6 {
        0 => ClientFrame::Hello {
            version: rng.next_u64() as u16,
        },
        1 => ClientFrame::Open {
            session: rng.next_u64(),
        },
        2 => ClientFrame::Event {
            session: rng.next_u64(),
            seq: rng.next_u64() as u32,
            event: rng_event(rng),
        },
        3 => {
            // Counts up to the single-frame cap so the identity check
            // below sees exactly one frame per generated value.
            let count = (rng.next_u64() % (MAX_BATCH_EVENTS as u64 + 1)) as usize;
            ClientFrame::EventBatch {
                session: rng.next_u64(),
                events: (0..count)
                    .map(|_| (rng.next_u64() as u32, rng_event(rng)))
                    .collect(),
            }
        }
        4 => ClientFrame::Close {
            session: rng.next_u64(),
            seq: rng.next_u64() as u32,
        },
        _ => ClientFrame::Resume {
            session: rng.next_u64(),
            last_seq: rng.next_u64() as u32,
        },
    }
}

fn rng_server(rng: &mut SynthRng) -> ServerFrame {
    match rng.next_u64() % 5 {
        0 => ServerFrame::Recognized {
            session: rng.next_u64(),
            seq: rng.next_u64() as u32,
            class: rng.next_u64() as u16,
            points: rng.next_u64() as u32,
        },
        1 => ServerFrame::Manipulate {
            session: rng.next_u64(),
            seq: rng.next_u64() as u32,
            x: rng_f64(rng),
            y: rng_f64(rng),
        },
        2 => ServerFrame::Outcome {
            session: rng.next_u64(),
            seq: rng.next_u64() as u32,
            outcome: match rng.next_u64() % 5 {
                0 => OutcomeKind::Recognized,
                1 => OutcomeKind::Manipulated,
                2 => OutcomeKind::Cancelled,
                3 => OutcomeKind::Rejected,
                _ => OutcomeKind::Closed,
            },
            class: match rng.next_u64() % 3 {
                0 => None,
                // u16::MAX is the no-class sentinel; keep generated
                // classes below it.
                _ => Some((rng.next_u64() % u64::from(u16::MAX)) as u16),
            },
            total_points: rng.next_u64() as u32,
            faults: rng.next_u64() as u32,
        },
        3 => ServerFrame::Fault {
            session: rng.next_u64(),
            seq: rng.next_u64() as u32,
            code: match rng.next_u64() % 13 {
                0 => FaultCode::NonFiniteCoordinates,
                1 => FaultCode::NonFiniteTimestamp,
                2 => FaultCode::OutOfOrder,
                3 => FaultCode::DroppedStale,
                4 => FaultCode::DuplicateMouseDown,
                5 => FaultCode::UnmatchedMouseUp,
                6 => FaultCode::MissingMouseUp,
                7 => FaultCode::Busy,
                8 => FaultCode::BadFrame,
                9 => FaultCode::UnknownSession,
                10 => FaultCode::AlreadyOpen,
                11 => FaultCode::SessionLimit,
                _ => FaultCode::VersionMismatch,
            },
        },
        _ => ServerFrame::Resumed {
            session: rng.next_u64(),
            last_seq: rng.next_u64() as u32,
        },
    }
}

/// `true` when two frames are identical *including* float bit patterns
/// (`==` treats NaN as unequal to itself, which would fail exactly the
/// values this suite most needs to check).
fn event_bit_eq(e1: &InputEvent, e2: &InputEvent) -> bool {
    e1.kind == e2.kind
        && e1.x.to_bits() == e2.x.to_bits()
        && e1.y.to_bits() == e2.y.to_bits()
        && e1.t.to_bits() == e2.t.to_bits()
}

fn client_bit_eq(a: &ClientFrame, b: &ClientFrame) -> bool {
    match (a, b) {
        (
            ClientFrame::Event {
                session: s1,
                seq: q1,
                event: e1,
            },
            ClientFrame::Event {
                session: s2,
                seq: q2,
                event: e2,
            },
        ) => s1 == s2 && q1 == q2 && event_bit_eq(e1, e2),
        (
            ClientFrame::EventBatch {
                session: s1,
                events: v1,
            },
            ClientFrame::EventBatch {
                session: s2,
                events: v2,
            },
        ) => {
            s1 == s2
                && v1.len() == v2.len()
                && v1
                    .iter()
                    .zip(v2)
                    .all(|((q1, e1), (q2, e2))| q1 == q2 && event_bit_eq(e1, e2))
        }
        _ => a == b,
    }
}

fn server_bit_eq(a: &ServerFrame, b: &ServerFrame) -> bool {
    match (a, b) {
        (
            ServerFrame::Manipulate {
                session: s1,
                seq: q1,
                x: x1,
                y: y1,
            },
            ServerFrame::Manipulate {
                session: s2,
                seq: q2,
                x: x2,
                y: y2,
            },
        ) => s1 == s2 && q1 == q2 && x1.to_bits() == x2.to_bits() && y1.to_bits() == y2.to_bits(),
        _ => a == b,
    }
}

#[test]
fn seeded_client_frames_round_trip_identically() {
    let mut rng = SynthRng::seed_from_u64(0xC11E);
    for i in 0..2000 {
        let frame = rng_client(&mut rng);
        let mut bytes = Vec::new();
        encode_client(&frame, &mut bytes);
        let cap = if matches!(frame, ClientFrame::EventBatch { .. }) {
            MAX_BATCH_FRAME_LEN
        } else {
            MAX_FRAME_LEN
        };
        assert!(bytes.len() <= 4 + cap, "frame {i} oversized");
        let (decoded, consumed) = decode_client(&bytes)
            .expect("round trip decodes")
            .expect("round trip is complete");
        assert_eq!(consumed, bytes.len(), "frame {i} left bytes behind");
        assert!(
            client_bit_eq(&decoded, &frame),
            "frame {i}: {decoded:?} != {frame:?}"
        );
        // The zero-copy view path must agree with the owned decoder.
        let (view, view_consumed) = decode_client_view(&bytes)
            .expect("view decodes")
            .expect("view is complete");
        assert_eq!(view_consumed, consumed);
        assert!(
            client_bit_eq(&view.into_frame(), &frame),
            "view mismatch at {i}"
        );
    }
}

#[test]
fn seeded_server_frames_round_trip_identically() {
    let mut rng = SynthRng::seed_from_u64(0x5E12);
    for i in 0..2000 {
        let frame = rng_server(&mut rng);
        let mut bytes = Vec::new();
        encode_server(&frame, &mut bytes);
        assert!(bytes.len() <= 4 + MAX_FRAME_LEN, "frame {i} oversized");
        let (decoded, consumed) = decode_server(&bytes)
            .expect("round trip decodes")
            .expect("round trip is complete");
        assert_eq!(consumed, bytes.len(), "frame {i} left bytes behind");
        assert!(
            server_bit_eq(&decoded, &frame),
            "frame {i}: {decoded:?} != {frame:?}"
        );
    }
}

#[test]
fn round_trips_are_seed_stable_across_runs() {
    // Same seed, two independent generator+codec passes, identical bytes:
    // the protocol has no hidden nondeterminism.
    let encode_all = |seed: u64| {
        let mut rng = SynthRng::seed_from_u64(seed);
        let mut bytes = Vec::new();
        for _ in 0..256 {
            encode_client(&rng_client(&mut rng), &mut bytes);
        }
        bytes
    };
    assert_eq!(encode_all(0xAB), encode_all(0xAB));
}

#[test]
fn decoder_fuzz_returns_typed_errors_never_panics() {
    let mut rng = SynthRng::seed_from_u64(0xF022);
    let mut typed_errors = 0usize;
    for _ in 0..5000 {
        let len = (rng.next_u64() % 96) as usize;
        let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Any outcome but a panic is acceptable; errors must be typed.
        match decode_client(&soup) {
            Ok(_) => {}
            Err(
                WireError::Oversized { .. }
                | WireError::EmptyFrame
                | WireError::UnknownTag { .. }
                | WireError::BadEnum { .. }
                | WireError::Malformed { .. }
                | WireError::TrailingBytes { .. }
                | WireError::IntOutOfRange { .. },
            ) => typed_errors += 1,
        }
        // The borrowed decoder sees the identical verdict: same Ok/Err
        // shape on every input, no panics.
        match (decode_client(&soup), decode_client_view(&soup)) {
            (Ok(Some((owned, c1))), Ok(Some((view, c2)))) => {
                assert_eq!(c1, c2);
                assert!(client_bit_eq(&owned, &view.into_frame()));
            }
            (Ok(None), Ok(None)) => {}
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("owned {a:?} disagrees with view {b:?}"),
        }
        match decode_server(&soup) {
            Ok(_) => {}
            Err(e) => {
                let _ = e.to_string(); // Display must not panic either.
                typed_errors += 1;
            }
        }
    }
    assert!(typed_errors > 1000, "byte soup should mostly be rejected");
}

#[test]
fn frame_buffer_fuzz_survives_adversarial_chunking() {
    // Valid frames interleaved with random chunk boundaries: the buffer
    // must reassemble every frame exactly once, in order.
    let mut rng = SynthRng::seed_from_u64(0xC4A7);
    let mut frames = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..300 {
        let frame = rng_server(&mut rng);
        frames.push(frame);
        encode_server(&frame, &mut bytes);
    }
    let mut fb = FrameBuffer::new();
    let mut got = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let chunk = 1 + (rng.next_u64() % 11) as usize;
        let end = (pos + chunk).min(bytes.len());
        fb.extend(&bytes[pos..end]);
        pos = end;
        while let Some(frame) = fb.next_server().expect("valid stream") {
            got.push(frame);
        }
    }
    assert_eq!(got.len(), frames.len());
    for (g, f) in got.iter().zip(&frames) {
        assert!(server_bit_eq(g, f));
    }
    assert_eq!(fb.pending(), 0);
}

#[test]
fn corrupted_valid_frames_never_panic_the_decoder() {
    // Take real frames and flip seeded bytes: decoders must return
    // Ok or a typed error on every mutation.
    let mut rng = SynthRng::seed_from_u64(0xB17F);
    for _ in 0..1500 {
        let mut bytes = Vec::new();
        encode_client(&rng_client(&mut rng), &mut bytes);
        let flips = 1 + (rng.next_u64() % 4) as usize;
        for _ in 0..flips {
            let at = (rng.next_u64() as usize) % bytes.len();
            bytes[at] ^= (rng.next_u64() as u8) | 1;
        }
        let _ = decode_client(&bytes);
        let _ = decode_client_view(&bytes);
        let _ = decode_server(&bytes);
    }
}

#[test]
fn client_view_stream_survives_adversarial_chunking() {
    // Batched and single-event frames mixed, fed through the zero-copy
    // FrameBuffer path at random chunk boundaries: every frame comes out
    // exactly once, in order, bit-identical.
    let mut rng = SynthRng::seed_from_u64(0x0BA7C4);
    let mut frames = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..200 {
        let frame = rng_client(&mut rng);
        encode_client(&frame, &mut bytes);
        frames.push(frame);
    }
    let mut fb = FrameBuffer::new();
    let mut got = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let chunk = 1 + (rng.next_u64() % 37) as usize;
        let end = (pos + chunk).min(bytes.len());
        fb.extend(&bytes[pos..end]);
        pos = end;
        while let Some(view) = fb.next_client_view().expect("valid stream") {
            got.push(view.into_frame());
        }
    }
    assert_eq!(got.len(), frames.len());
    for (i, (g, f)) in got.iter().zip(&frames).enumerate() {
        assert!(client_bit_eq(g, f), "frame {i} diverged");
    }
    assert_eq!(fb.pending(), 0);
}

#[test]
fn resume_frames_survive_one_byte_delivery_and_torn_tails() {
    // The resume handshake happens on freshly reconnected sockets, where
    // tiny reads and mid-frame truncation are the norm, not the edge
    // case. One byte at a time, both directions, then a torn tail.
    let resume = ClientFrame::Resume {
        session: 0xDEAD_BEEF,
        last_seq: 41,
    };
    let resumed = ServerFrame::Resumed {
        session: 0xDEAD_BEEF,
        last_seq: 37,
    };
    let mut client_bytes = Vec::new();
    encode_client(&resume, &mut client_bytes);
    encode_client(
        &ClientFrame::Close {
            session: 0xDEAD_BEEF,
            seq: 42,
        },
        &mut client_bytes,
    );
    let mut fb = FrameBuffer::new();
    let mut got = Vec::new();
    for &b in &client_bytes {
        fb.extend(&[b]);
        while let Some(view) = fb.next_client_view().expect("valid stream") {
            got.push(view.into_frame());
        }
    }
    assert_eq!(got.len(), 2);
    assert_eq!(got[0], resume);
    assert_eq!(fb.pending(), 0);

    let mut server_bytes = Vec::new();
    encode_server(&resumed, &mut server_bytes);
    let mut fb = FrameBuffer::new();
    let mut got = Vec::new();
    for &b in &server_bytes {
        fb.extend(&[b]);
        while let Some(frame) = fb.next_server().expect("valid stream") {
            got.push(frame);
        }
    }
    assert_eq!(got, vec![resumed]);

    // A torn tail — the frame cut anywhere mid-body — must park as
    // incomplete (Ok(None) with bytes pending), never error or yield a
    // partial frame.
    for cut in 1..server_bytes.len() {
        let mut fb = FrameBuffer::new();
        fb.extend(&server_bytes[..cut]);
        assert!(
            fb.next_server()
                .expect("torn frame is not an error")
                .is_none(),
            "cut at {cut} produced a frame from a partial Resumed"
        );
        assert_eq!(fb.pending(), cut, "cut at {cut} dropped buffered bytes");
        // The remainder arriving later completes it.
        fb.extend(&server_bytes[cut..]);
        assert_eq!(fb.next_server().expect("completes"), Some(resumed));
    }
}

#[test]
fn hello_frame_is_versioned() {
    let mut bytes = Vec::new();
    encode_client(
        &ClientFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut bytes,
    );
    let (decoded, _) = decode_client(&bytes).expect("decodes").expect("complete");
    assert_eq!(
        decoded,
        ClientFrame::Hello {
            version: WIRE_VERSION
        }
    );
}
