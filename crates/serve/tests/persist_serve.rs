//! Persistence regression: a recognizer saved with `grandma_core::persist`
//! and loaded back must serve *identically* to the in-memory original —
//! same frames, same outcomes, in process and over TCP.

mod support;

use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_events::{Button, EventScript, InputEvent};
use grandma_serve::{
    run_events_inproc, ClientFrame, PipelineConfig, ServeConfig, SessionRouter, TcpService,
};
use grandma_synth::{datasets, FaultInjector};
use support::WireClient;

fn trained() -> EagerRecognizer {
    let data = datasets::eight_way(0x2b2b, 10, 0);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    rec
}

fn streams() -> Vec<(u64, Vec<(u32, InputEvent)>)> {
    let data = datasets::eight_way(0x7e57, 0, 8);
    (0..8u64)
        .map(|i| {
            let mut events = EventScript::new()
                .then_gesture(&data.testing[i as usize].gesture, Button::Left)
                .then_gesture(&data.testing[(i as usize + 3) % 8].gesture, Button::Left)
                .into_events();
            if i.is_multiple_of(2) {
                events = FaultInjector::new(0xFACE ^ i).corrupt(&events);
            }
            (
                i + 1,
                events
                    .into_iter()
                    .enumerate()
                    .map(|(k, e)| (k as u32, e))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn loaded_recognizer_serves_identically_to_in_memory() {
    let original = trained();
    let text = original.to_text();
    let loaded = EagerRecognizer::from_text(&text).expect("persisted text loads");
    let config = PipelineConfig::default();
    for (session, events) in streams() {
        let close = events.len() as u32;
        let mem = run_events_inproc(&original, session, &config, &events, close);
        let disk = run_events_inproc(&loaded, session, &config, &events, close);
        assert_eq!(
            mem, disk,
            "session {session}: loaded recognizer diverges from in-memory"
        );
    }
}

#[test]
fn persistence_round_trip_is_textually_stable() {
    // save → load → save must be a fixed point: no drift on re-serve.
    let original = trained();
    let text = original.to_text();
    let loaded = EagerRecognizer::from_text(&text).expect("loads");
    assert_eq!(text, loaded.to_text());
}

#[test]
fn routed_service_on_a_loaded_model_matches_the_in_memory_reference() {
    // The exact flow the serve binary uses: persist to disk, read the
    // file back, serve the loaded model — compared against frames from
    // the in-memory recognizer.
    let original = trained();
    let path =
        std::env::temp_dir().join(format!("grandma-serve-persist-{}.txt", std::process::id()));
    std::fs::write(&path, original.to_text()).expect("write model");
    let text = std::fs::read_to_string(&path).expect("read model");
    std::fs::remove_file(&path).ok();
    let loaded = Arc::new(EagerRecognizer::from_text(&text).expect("loads"));

    let mut service = TcpService::start(
        SessionRouter::new(loaded, ServeConfig::default()),
        "127.0.0.1:0",
    )
    .expect("bind");
    for (session, events) in streams() {
        let close = events.len() as u32;
        let expected = run_events_inproc(
            &original,
            session,
            &PipelineConfig::default(),
            &events,
            close,
        );
        let mut client = WireClient::connect(service.local_addr());
        client.send(&ClientFrame::Open { session }).expect("open");
        for &(seq, event) in &events {
            client
                .send(&ClientFrame::Event {
                    session,
                    seq,
                    event,
                })
                .expect("event");
        }
        client
            .send(&ClientFrame::Close {
                session,
                seq: close,
            })
            .expect("close");
        let got = client.recv_session_until_closed(session, Duration::from_secs(10));
        assert_eq!(
            got, expected,
            "session {session}: served frames diverge from in-memory reference"
        );
    }
    service.shutdown();
}

/// Runs `serve run` on a model file holding `text`, plus `extra` flags,
/// with stdin closed so a server that does start exits at once. Returns
/// the exit code and stderr.
fn serve_run(tag: &str, text: &str, extra: &[&str]) -> (Option<i32>, String) {
    let model =
        std::env::temp_dir().join(format!("grandma-serve-{tag}-{}.txt", std::process::id()));
    std::fs::write(&model, text).expect("write model");
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("run")
        .arg("--model")
        .arg(&model)
        .args(extra)
        .stdin(Stdio::null())
        .output()
        .expect("spawn serve");
    std::fs::remove_file(&model).ok();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn a_misspelled_flag_is_refused() {
    let model = trained().to_text();
    let (code, stderr) = serve_run("flag", &model, &["--wal-dri", "/nonexistent"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag `--wal-dri`"), "{stderr}");
}

#[test]
fn a_model_whose_mask_disagrees_with_its_classifiers_fails_the_load() {
    // Drop the timing features from the mask but keep the 13-wide
    // classifiers: the first eager check would index past the features.
    let all = format!("mask {:04x}", FeatureMask::all().bits());
    let narrow = format!("mask {:04x}", FeatureMask::without_timing().bits());
    let model = trained().to_text().replacen(&all, &narrow, 1);
    let (code, stderr) = serve_run("mask", &model, &[]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("does not match the mask"), "{stderr}");
}
