//! The benchmark's own tests: percentile discipline, open-loop due-time
//! accounting under a generator stall, the output check, and the metric
//! names against `BENCHMARK.json`.

use gesturebench::check::{ReplyCheck, Verdict};
use gesturebench::report::{result_json, Metrics, END_TO_END, PER_LAYER};
use gesturebench::schedule::{late_ns, Due, OpenLoop, Step, THINK_NS};
use gesturebench::stats::{calmer_half, p50, p99, percentile, pooled, summarize, supported_tail};
use gesturebench::workload::{make_scripts, train_model, WORKLOADS};
use grandma_serve::{encode_server, run_events_inproc, PipelineConfig, ServerFrame};

const MS: u64 = 1_000_000;

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 50.0), 50);
    assert_eq!(percentile(&v, 99.0), 99);
    assert_eq!(percentile(&v, 100.0), 100);
    assert_eq!(percentile(&v, 0.5), 1);
    assert_eq!(percentile(&[], 50.0), 0);
    assert_eq!(percentile(&[7], 99.0), 7);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(supported_tail(9), None);
    assert_eq!(supported_tail(19), None);
    assert_eq!(supported_tail(20), Some(50.0));
    assert_eq!(supported_tail(100), Some(90.0));
    assert_eq!(supported_tail(999), Some(90.0));
    assert_eq!(supported_tail(1000), Some(99.0));
    assert_eq!(supported_tail(9999), Some(99.0));
    assert_eq!(supported_tail(10_000), Some(99.9));
    assert_eq!(supported_tail(100_000), Some(99.99));
    let mut v: Vec<u64> = (0..1000).rev().collect();
    let s = summarize(&mut v).expect("1000 samples support a tail");
    assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1000, 499, 99.0, 989));
}

#[test]
fn p99_is_refused_below_a_thousand_samples() {
    let few: Vec<u64> = (0..999).collect();
    assert_eq!(p99(&few), None);
    let enough: Vec<u64> = (0..1000).collect();
    assert_eq!(p99(&enough), Some(989));
    assert_eq!(p50(&[]), None);
}

#[test]
fn calmer_half_keeps_the_slices_with_the_lower_reply_tails() {
    let flat = |v: u64| vec![v; 1000];
    // Slice 2 lacks the samples for a p99, so it ranks last.
    let slices = vec![flat(9), flat(1), vec![1; 10], flat(3), flat(5)];
    assert_eq!(calmer_half(&slices), [1, 3, 4]);
    // The cut-off tail is shared by three slices: all stay.
    let slices = vec![flat(4), flat(0), flat(4), flat(4), flat(9)];
    assert_eq!(calmer_half(&slices), [0, 1, 2, 3]);
    assert_eq!(calmer_half(&[]), Vec::<usize>::new());
    // Unsorted samples are ranked by their p99.
    let mut rising: Vec<u64> = (0..1000).rev().collect();
    rising[0] = 5000;
    assert_eq!(calmer_half(&[rising, flat(990)]), [0]);
}

#[test]
fn pooled_merges_the_kept_slices_in_order() {
    let slices = vec![vec![5, 1], vec![100], vec![3, 2]];
    assert_eq!(pooled(&slices, &[0, 2]), [1, 2, 3, 5]);
    assert_eq!(pooled(&slices, &[]), Vec::<u64>::new());
}

/// One user replaying one script whose events are due every 10 ms.
fn ten_ms_user() -> OpenLoop {
    let dues = vec![(0..10).map(|i| i * 10 * MS).collect::<Vec<u64>>()];
    OpenLoop::new(dues, 1, 1, 0, 0)
}

#[test]
fn a_stalled_generator_is_timed_from_the_due_times() {
    let mut sched = ten_ms_user();
    let mut out: Vec<Due> = Vec::new();
    sched.pop_due(0, &mut out);
    let steps: Vec<Step> = out.iter().map(|d| d.step).collect();
    assert_eq!(steps, [Step::Open, Step::Event(0)]);
    out.clear();
    sched.pop_due(10 * MS, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(late_ns(out[0].due_ns, 10 * MS), 0);

    // The generator stalls from 10 ms to 65 ms: everything that fell due
    // meanwhile goes out at once, each timed from its own due time.
    out.clear();
    let resumed = 65 * MS;
    sched.pop_due(resumed, &mut out);
    let steps: Vec<Step> = out.iter().map(|d| d.step).collect();
    assert_eq!(steps, (2..=6).map(Step::Event).collect::<Vec<_>>());
    let late: Vec<u64> = out
        .iter()
        .map(|d| late_ns(d.due_ns, resumed) / MS)
        .collect();
    assert_eq!(late, [45, 35, 25, 15, 5]);
    // A reply 1 ms after the resumed send still carries the whole stall.
    assert_eq!(late_ns(out[0].due_ns, resumed + MS) / MS, 46);

    // The stall did not shift the schedule.
    assert_eq!(sched.next_due(), Some(70 * MS));
    out.clear();
    sched.pop_due(150 * MS, &mut out);
    let steps: Vec<Step> = out.iter().map(|d| d.step).collect();
    assert_eq!(
        steps,
        [Step::Event(7), Step::Event(8), Step::Event(9), Step::Close]
    );
    assert_eq!(out.last().map(|d| d.due_ns), Some(91 * MS));
    // The next session starts a think gap after the Close.
    assert_eq!(sched.next_due(), Some(91 * MS + THINK_NS));
}

#[test]
fn no_session_starts_after_the_stop() {
    let mut sched = ten_ms_user();
    sched.stop_new_sessions(150 * MS);
    let mut out = Vec::new();
    sched.pop_due(u64::MAX / 2, &mut out);
    assert_eq!(out.last().map(|d| d.step), Some(Step::Close));
    assert_eq!(sched.next_due(), None);
}

#[test]
fn the_output_check_catches_one_flipped_byte() {
    let (rec, _) = train_model();
    let scripts = make_scripts(&rec, 7, 2, 4);
    let script = &scripts[1];
    // What a live session with a real session id receives.
    let session = 0xABCD;
    let seqd: Vec<_> = script
        .events
        .iter()
        .enumerate()
        .map(|(i, &e)| (i as u32, e))
        .collect();
    let frames = run_events_inproc(
        &rec,
        session,
        &PipelineConfig::default(),
        &seqd,
        seqd.len() as u32,
    );
    assert!(matches!(frames.last(), Some(ServerFrame::Outcome { .. })));
    let raw: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            let mut b = Vec::new();
            encode_server(f, &mut b);
            b
        })
        .collect();
    let judge = |frames: &[Vec<u8>]| {
        let mut check = ReplyCheck::default();
        for f in frames {
            check.push(f);
        }
        check.finish(&script.expected)
    };
    assert_eq!(judge(&raw), Verdict::Match);

    // Flip one payload byte of a middle frame.
    let mut bad = raw.clone();
    let at = bad.len() / 2;
    let last = bad[at].len() - 1;
    bad[at][last] ^= 0x01;
    let offset: usize = raw[..at].iter().map(Vec::len).sum::<usize>() + last;
    assert_eq!(judge(&bad), Verdict::Mismatch { offset });

    // A missing frame is caught too; a failed session is not compared.
    assert!(matches!(judge(&raw[1..]), Verdict::Mismatch { .. }));
    let mut failed = ReplyCheck::default();
    failed.fail();
    assert_eq!(failed.finish(&script.expected), Verdict::Failed);
}

/// `(name, unit)` pairs of one metric array in `BENCHMARK.json`.
fn benchmark_json_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split('{')
        .skip(1)
        .map(|entry| (string_field(entry, "name"), string_field(entry, "unit")))
        .collect()
}

fn string_field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
    let rest = &entry[at..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = rest[open..].find('"').expect("value closes");
    rest[open..open + close].to_string()
}

/// `(name, unit)` pairs of a printed result line.
fn printed_metrics(set: &[(&'static str, &'static str)]) -> Vec<(String, String)> {
    let mut m = Metrics::default();
    for (name, _) in set {
        m.set(name, 1.5);
    }
    let line = result_json(true, 1, 0, &m, set);
    let metrics = &line[line.find("\"metrics\"").expect("metrics key") + 11..];
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry
                .trim_start_matches('{')
                .split('"')
                .nth(1)
                .expect("name");
            (name.to_string(), string_field(entry, "unit"))
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json_both_ways() {
    for (section, set) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let mut file = benchmark_json_metrics(section);
        let mut printed = printed_metrics(set);
        assert_eq!(
            printed.len(),
            set.len(),
            "{section}: every metric printed once"
        );
        file.sort();
        printed.sort();
        for pair in &printed {
            assert!(
                file.contains(pair),
                "{section}: printed {pair:?} is not in BENCHMARK.json"
            );
        }
        for pair in &file {
            assert!(
                printed.contains(pair),
                "{section}: BENCHMARK.json's {pair:?} is never printed"
            );
        }
        file.dedup_by(|a, b| a.0 == b.0);
        assert_eq!(file.len(), printed.len(), "{section}: names are unique");
    }
}

#[test]
fn workloads_and_their_serve_flags_are_pinned_in_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let section = &text[text.find("\"workloads\"").expect("workloads")..];
    let section = &section[..section.find(']').expect("array end")];
    let entries: Vec<(String, String)> = section
        .split('{')
        .skip(1)
        .map(|e| (string_field(e, "name"), string_field(e, "why")))
        .collect();
    assert_eq!(entries.len(), WORKLOADS.len());
    for w in &WORKLOADS {
        let (_, why) = entries
            .iter()
            .find(|(name, _)| name == w.name)
            .unwrap_or_else(|| panic!("workload {} missing from BENCHMARK.json", w.name));
        let flags = w.serve_flags.join(" ");
        assert!(
            why.contains(&flags),
            "{}: why {why:?} does not pin {flags:?}",
            w.name
        );
    }
}
