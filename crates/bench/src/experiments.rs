//! Every table of EXPERIMENTS.md, rendered as plain text.
//!
//! [`DETERMINISTIC`] holds the tables computed from seeded synthetic data
//! alone; they are identical on every run and build profile, and the
//! `experiments` golden test pins them byte for byte. [`TIMING`] holds the
//! wall-clock tables (E4 and B1's cost columns), which vary run to run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use grandma_core::baseline::{TemplateConfig, TemplateRecognizer};
use grandma_core::eager::{label_subgestures, move_accidentally_complete, Auc};
use grandma_core::{
    AucClassKind, Classifier, EagerConfig, EagerRecognizer, FeatureExtractor, FeatureMask,
    InteractionConfig, SubgestureRecord, FEATURE_NAMES,
};
use grandma_events::{gesture_events, gesture_events_with_hold, Button, DwellDetector};
use grandma_geom::{Gesture, Point};
use grandma_synth::{datasets, Dataset, SynthRng};
use grandma_toolkit::{
    GestureClass, GestureHandler, GestureHandlerConfig, HandlerRef, Interface, PhaseTransition,
};

use crate::report::{kv_block, table};
use crate::{evaluate, per_class_table, EvalSummary};

/// Renders one experiment's tables.
pub type Render = fn() -> String;

/// The seeded tables, keyed by experiment id, in EXPERIMENTS.md order.
pub const DETERMINISTIC: &[(&str, Render)] = &[
    ("E1", e1),
    ("E2", e2),
    ("E3", e3),
    ("E6", e6),
    ("E7", e7),
    ("A1", a1),
    ("A2", a2),
    ("A3", a3),
    ("A4", a4),
    ("S5", s5),
    ("A5", a5),
    ("A6", a6),
    ("B1", b1),
];

/// The wall-clock tables, keyed by experiment id.
pub const TIMING: &[(&str, Render)] = &[("E4", e4_timing), ("B1", b1_timing)];

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

fn ratio(n: usize, total: usize) -> String {
    format!("{n}/{total}")
}

fn eval(data: &Dataset, mask: &FeatureMask, config: &EagerConfig) -> EvalSummary {
    evaluate(data, mask, config).expect("training succeeds")
}

fn eval_default(data: &Dataset) -> EvalSummary {
    eval(data, &FeatureMask::all(), &EagerConfig::default())
}

/// Headline, per-class table, and the figure's per-example annotations:
/// the first five test gestures of each class as `seen/total`, prefixed
/// by the ground-truth minimum when the dataset has one, `E` marking an
/// eager misclassification.
fn figure(data: &Dataset, summary: &EvalSummary) -> String {
    let mut out = format!("{}\n\n{}\n", summary.headline(), per_class_table(summary));
    out.push_str("per-example recognition points (first five per class):\n");
    for (c, name) in data.class_names.iter().enumerate() {
        let cells: Vec<String> = data
            .testing
            .iter()
            .zip(&summary.runs)
            .filter(|(l, _)| l.class == c)
            .take(5)
            .map(|(l, run)| {
                let min = l.min_points.map(|m| format!("{m},")).unwrap_or_default();
                let mark = if run.class != l.class { " E" } else { "" };
                format!(
                    "{min}{}/{}{mark}",
                    run.points_at_recognition, run.total_points
                )
            })
            .collect();
        let _ = writeln!(out, "  {name:14} {}", cells.join("  ").trim_end());
    }
    out
}

fn paper_vs_measured(rows: &[(&str, &str, String)]) -> String {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(q, paper, ours)| vec![q.to_string(), paper.to_string(), ours.clone()])
        .collect();
    table(&["quantity", "paper", "measured"], &rows)
}

/// Figure 9 + §5: the eight-direction two-segment set.
fn e1() -> String {
    let data = datasets::eight_way(0x0f19, 10, 30);
    let s = eval_default(&data);
    let mut out = figure(&data, &s);
    out.push('\n');
    out.push_str(&paper_vs_measured(&[
        ("full accuracy", "99.2%", pct(s.full_accuracy)),
        ("eager accuracy", "97.0%", pct(s.eager_accuracy)),
        ("points examined", "67.9%", pct(s.avg_fraction_seen)),
        (
            "minimum possible",
            "59.4% (hand-measured)",
            format!(
                "{} (generator corner index)",
                pct(s.avg_min_fraction.unwrap_or(0.0))
            ),
        ),
    ]));
    out
}

/// Figure 10 + §5: the GDP set, `group` drawn clockwise.
fn e2() -> String {
    let data = datasets::gdp(0x0f10, 10, 30);
    let s = eval_default(&data);
    let mut out = figure(&data, &s);
    out.push('\n');
    out.push_str(&paper_vs_measured(&[
        ("full accuracy", "99.7%", pct(s.full_accuracy)),
        ("eager accuracy", "93.5%", pct(s.eager_accuracy)),
        ("points examined", "60.5%", pct(s.avg_fraction_seen)),
    ]));
    out
}

/// Figure 8: Buxton's note gestures, each a prefix of the next.
fn e3() -> String {
    let s = eval_default(&datasets::buxton_notes(0x0f08, 10, 30));
    let (prefixes, longest) = s.per_class.split_at(s.per_class.len() - 1);
    let fired: usize = prefixes.iter().map(|c| c.fired_early).sum();
    let total: usize = prefixes.iter().map(|c| c.total).sum();
    let longest = &longest[0];
    format!(
        "{}\n\n{}\n{}",
        s.headline(),
        per_class_table(&s),
        kv_block(&[
            (
                "prefix classes fired early",
                format!("{} (paper: never)", ratio(fired, total)),
            ),
            (
                "longest class fired early",
                format!(
                    "{} ({})",
                    ratio(longest.fired_early, longest.total),
                    longest.name
                ),
            ),
        ])
    )
}

/// §4.2's operating point: C = 11 GDP classes, E = 15 examples per class.
fn e6() -> String {
    let data = datasets::gdp(0x0042, 15, 30);
    let classifier =
        Classifier::train(&data.training, &FeatureMask::all()).expect("training succeeds");
    let c = data.num_classes();
    let mut confusion = vec![vec![0usize; c]; c];
    for labeled in &data.testing {
        confusion[labeled.class][classifier.classify(&labeled.gesture).class] += 1;
    }
    let correct: usize = (0..c).map(|i| confusion[i][i]).sum();
    let mut rows = Vec::new();
    for (truth, row) in confusion.iter().enumerate() {
        for (got, &count) in row.iter().enumerate() {
            if truth != got && count > 0 {
                rows.push(vec![
                    data.class_names[truth].to_string(),
                    data.class_names[got].to_string(),
                    count.to_string(),
                ]);
            }
        }
    }
    format!(
        "full classifier accuracy: {} ({})\n\n{}",
        pct(correct as f64 / data.testing.len() as f64),
        ratio(correct, data.testing.len()),
        table(&["true class", "classified as", "count"], &rows)
    )
}

/// Figures 4–7: the eager-training pipeline on the U/D illustration.
fn e7() -> String {
    let data = datasets::ud(0x0d0d, 8, 0);
    let config = EagerConfig::default();
    let full = Classifier::train(&data.training, &FeatureMask::all()).expect("training succeeds");
    let records = label_subgestures(&full, &data.training, &config);

    // One row per training example; `u`/`d` is the label's class, upper
    // case meaning complete (Figures 5/6) or unambiguous (Figure 7).
    let letter = |kind: AucClassKind| {
        let ch = if kind.gesture_class() == 0 { 'u' } else { 'd' };
        if kind.is_complete() {
            ch.to_ascii_uppercase()
        } else {
            ch
        }
    };
    let rows = |out: &mut String,
                records: &[SubgestureRecord],
                label: &dyn Fn(&SubgestureRecord) -> char| {
        for class in 0..2 {
            for example in 0..4 {
                let mut rs: Vec<&SubgestureRecord> = records
                    .iter()
                    .filter(|r| r.class == class && r.example == example)
                    .collect();
                rs.sort_by_key(|r| r.prefix_len);
                let labels: String = rs.iter().map(|r| label(r)).collect();
                let _ = writeln!(out, "  {}[{example}]: {labels}", data.class_names[class]);
            }
        }
    };

    let mut out = String::from("Figure 5: initial labels (upper case = complete)\n");
    rows(&mut out, &records, &|r| letter(r.assigned));

    let mut moved = records;
    let outcome = move_accidentally_complete(&mut moved, full.linear(), &config);
    let _ = writeln!(
        out,
        "\nFigure 6: after moving {} accidentally complete subgestures \
         (threshold {:.2} = {:.0}% of the minimum full-to-incomplete distance)",
        outcome.moved,
        outcome.threshold.unwrap_or(f64::NAN),
        100.0 * config.threshold_fraction
    );
    rows(&mut out, &moved, &|r| letter(r.assigned));

    let (auc, stats) = Auc::train(&moved, &config).expect("AUC training succeeds");
    let _ = writeln!(
        out,
        "\nFigure 7: AUC verdicts (upper case = unambiguous; bias {}x, {} tweak \
         fix-ups over {} passes, converged = {})",
        config.ambiguity_bias, stats.violations_fixed, stats.passes, stats.converged
    );
    rows(&mut out, &moved, &|r| {
        letter(auc.classify_kind(&r.features))
    });

    let ambiguous: Vec<&SubgestureRecord> = moved.iter().filter(|r| r.is_incomplete()).collect();
    let violations = ambiguous
        .iter()
        .filter(|r| auc.is_unambiguous(&r.features))
        .count();
    let _ = writeln!(
        out,
        "\nconservatism: {} ambiguous training subgestures judged unambiguous",
        ratio(violations, ambiguous.len())
    );
    out
}

/// A1: the ambiguity bias crossed with the tweak pass (§4.6).
fn a1() -> String {
    let mut blocks = Vec::new();
    for data in [
        datasets::eight_way(0xab1a, 10, 30),
        datasets::gdp(0xab1a, 10, 30),
    ] {
        let mut rows = Vec::new();
        for tweaks in [true, false] {
            for bias in [1.0, 2.0, 5.0, 10.0, 20.0] {
                let config = EagerConfig {
                    ambiguity_bias: bias,
                    max_tweak_passes: if tweaks { 64 } else { 0 },
                    ..EagerConfig::default()
                };
                let s = eval(&data, &FeatureMask::all(), &config);
                rows.push(vec![
                    format!("{bias}x"),
                    if tweaks { "on" } else { "off" }.to_string(),
                    pct(s.eager_accuracy),
                    pct(s.avg_fraction_seen),
                    ratio(s.fired_early, s.total),
                ]);
            }
        }
        let headers = [
            "bias",
            "tweaks",
            "eager accuracy",
            "points seen",
            "fired early",
        ];
        blocks.push(format!(
            "dataset: {}\n{}",
            data.name,
            table(&headers, &rows)
        ));
    }
    blocks.join("\n")
}

/// A2: the accidental-completeness move threshold (§4.5).
fn a2() -> String {
    let mut blocks = Vec::new();
    for data in [
        datasets::eight_way(0xab2b, 10, 30),
        datasets::gdp(0xab2b, 10, 30),
    ] {
        let mut rows = Vec::new();
        for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let config = EagerConfig {
                threshold_fraction: fraction,
                ..EagerConfig::default()
            };
            let s = eval(&data, &FeatureMask::all(), &config);
            rows.push(vec![
                format!("{:.0}%", 100.0 * fraction),
                s.train_report.move_outcome.moved.to_string(),
                pct(s.eager_accuracy),
                pct(s.avg_fraction_seen),
            ]);
        }
        let headers = ["threshold", "moved", "eager accuracy", "points seen"];
        blocks.push(format!(
            "dataset: {}\n{}",
            data.name,
            table(&headers, &rows)
        ));
    }
    blocks.join("\n")
}

/// A3: training examples per class.
fn a3() -> String {
    let mut blocks = Vec::new();
    for make in [datasets::eight_way, datasets::gdp] {
        let mut rows = Vec::new();
        let mut name = "";
        for examples in [3usize, 5, 10, 15, 30] {
            let data = make(0xab3c, examples, 30);
            name = data.name;
            let s = eval_default(&data);
            rows.push(vec![
                examples.to_string(),
                pct(s.full_accuracy),
                pct(s.eager_accuracy),
                pct(s.avg_fraction_seen),
            ]);
        }
        let headers = [
            "examples/class",
            "full accuracy",
            "eager accuracy",
            "points seen",
        ];
        blocks.push(format!("dataset: {name}\n{}", table(&headers, &rows)));
    }
    blocks.join("\n")
}

/// A4: §1's three phase-transition modes, replayed through the GRANDMA
/// gesture handler.
fn a4() -> String {
    let data = datasets::eight_way(0xa4a4, 10, 10);
    let (recognizer, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    let recognizer = Rc::new(recognizer);

    let run_mode = |eager: bool, hold: bool| {
        let mut interface = Interface::new();
        let handler = Rc::new(RefCell::new(GestureHandler::new(
            recognizer.clone(),
            data.class_names
                .iter()
                .map(|n| GestureClass::named(n))
                .collect(),
            GestureHandlerConfig {
                interaction: InteractionConfig {
                    eager,
                    ..InteractionConfig::default()
                },
                ..GestureHandlerConfig::default()
            },
        )));
        let dyn_ref: HandlerRef = handler.clone();
        interface.attach_root_handler(dyn_ref);
        for labeled in &data.testing {
            let g = &labeled.gesture;
            let events = if hold {
                // The user pauses just past the corner to hand over to
                // manipulation.
                let at = labeled.min_points.unwrap_or(g.len()).min(g.len() - 1);
                gesture_events_with_hold(g, Button::Left, Some((at, 250.0)))
            } else {
                gesture_events(g, Button::Left)
            };
            let mut dwell = DwellDetector::paper_default();
            for e in dwell.expand(&events) {
                interface.dispatch(&e);
            }
        }
        let handler = handler.borrow();
        let traces = handler.traces();
        let n = traces.len().max(1) as f64;
        let points = traces
            .iter()
            .map(|t| t.points_at_recognition as f64)
            .sum::<f64>()
            / n;
        let fraction = traces
            .iter()
            .map(|t| t.points_at_recognition as f64 / t.total_points.max(1) as f64)
            .sum::<f64>()
            / n;
        let manipulable = traces
            .iter()
            .filter(|t| t.transition != PhaseTransition::MouseUp)
            .count();
        (points, fraction, manipulable)
    };

    let mut rows = Vec::new();
    for (label, eager, hold) in [
        ("1: mouse-up only", false, false),
        ("2: 200 ms dwell (user pauses past the corner)", false, true),
        ("3: eager recognition", true, false),
    ] {
        let (points, fraction, manipulable) = run_mode(eager, hold);
        rows.push(vec![
            label.to_string(),
            format!("{points:.1}"),
            pct(fraction),
            ratio(manipulable, data.testing.len()),
        ]);
    }
    table(
        &[
            "transition mode",
            "points before feedback",
            "fraction of gesture",
            "with manipulation phase",
        ],
        &rows,
    )
}

/// §5's alteration: `group` drawn clockwise vs counterclockwise, and what
/// it does to `copy`'s eagerness.
fn s5() -> String {
    let mut rows = Vec::new();
    for (label, data) in [
        (
            "clockwise group (altered set)",
            datasets::gdp(0x0c0c, 10, 30),
        ),
        (
            "counterclockwise group (original)",
            datasets::gdp_ccw_group(0x0c0c, 10, 30),
        ),
    ] {
        let s = eval_default(&data);
        let copy = s
            .per_class
            .iter()
            .find(|c| c.name == "copy")
            .expect("GDP has a copy class");
        rows.push(vec![
            label.to_string(),
            ratio(copy.fired_early, copy.total),
            pct(copy.avg_fraction_seen),
            pct(s.avg_fraction_seen),
        ]);
    }
    table(
        &[
            "variant",
            "copy fired early",
            "copy points seen",
            "all points seen",
        ],
        &rows,
    )
}

/// A random walk that belongs to no gesture class.
fn random_walk(rng: &mut SynthRng) -> Gesture {
    let (mut x, mut y) = (rng.gen_f64() * 50.0, rng.gen_f64() * 50.0);
    let pts = (0..35)
        .map(|i| {
            x += rng.gen_f64() * 12.0 - 6.0;
            y += rng.gen_f64() * 12.0 - 6.0;
            Point::new(x, y, i as f64 * 10.0)
        })
        .collect();
    Gesture::from_points(pts)
}

/// A5: §4.2's two rejection mechanisms, the probability estimate and the
/// Mahalanobis distance, on GDP plus 100 random-walk strokes.
fn a5() -> String {
    let data = datasets::gdp(0x4e4e, 15, 30);
    let classifier =
        Classifier::train(&data.training, &FeatureMask::all()).expect("training succeeds");
    let mut rng = SynthRng::seed_from_u64(0x6a6a);
    let gibberish: Vec<Gesture> = (0..100).map(|_| random_walk(&mut rng)).collect();

    let mut rows = Vec::new();
    for (min_p, max_d2) in [
        (0.0, f64::INFINITY),
        (0.90, f64::INFINITY),
        (0.95, f64::INFINITY),
        (0.99, f64::INFINITY),
        (0.0, 300.0),
        (0.0, 150.0),
        (0.95, 150.0),
    ] {
        // [kept correct, kept wrong, rejected correct, rejected wrong]
        let mut counts = [0usize; 4];
        for l in &data.testing {
            let c = classifier.classify(&l.gesture);
            let slot =
                2 * usize::from(!c.accepted(min_p, max_d2)) + usize::from(c.class != l.class);
            counts[slot] += 1;
        }
        let gibberish_rejected = gibberish
            .iter()
            .filter(|g| !classifier.classify(g).accepted(min_p, max_d2))
            .count();
        let mut label = format!("P>={min_p:.2}");
        if max_d2.is_finite() {
            let _ = write!(label, ", d2<={max_d2:.0}");
        }
        let mut row = vec![label];
        row.extend(counts.iter().map(usize::to_string));
        row.push(ratio(gibberish_rejected, gibberish.len()));
        rows.push(row);
    }
    table(
        &[
            "thresholds",
            "kept correct",
            "kept wrong",
            "rejected correct",
            "rejected wrong",
            "gibberish rejected",
        ],
        &rows,
    )
}

/// A6: feature subsets and leave-one-out on GDP.
fn a6() -> String {
    let data = datasets::gdp(0xfea7, 10, 30);
    let mut masks = vec![
        ("all 13".to_string(), FeatureMask::all()),
        (
            "paper-twelve (no max speed)".to_string(),
            FeatureMask::paper_twelve(),
        ),
        (
            "spatial 11 (no timing)".to_string(),
            FeatureMask::without_timing(),
        ),
    ];
    for (i, name) in FEATURE_NAMES.iter().enumerate() {
        let mut mask = FeatureMask::all();
        mask.disable(i);
        masks.push((format!("without {name}"), mask));
    }
    let rows: Vec<Vec<String>> = masks
        .into_iter()
        .map(|(label, mask)| {
            let s = eval(&data, &mask, &EagerConfig::default());
            vec![
                label,
                mask.count().to_string(),
                pct(s.full_accuracy),
                pct(s.eager_accuracy),
                pct(s.avg_fraction_seen),
            ]
        })
        .collect();
    table(
        &[
            "feature set",
            "dim",
            "full accuracy",
            "eager accuracy",
            "points seen",
        ],
        &rows,
    )
}

/// The datasets B1 compares the two recognizers on.
fn baseline_sets() -> [Dataset; 3] {
    [
        datasets::eight_way(0xba5e, 10, 30),
        datasets::gdp(0xba5e, 10, 30),
        datasets::buxton_notes(0xba5e, 10, 30),
    ]
}

/// Correct test classifications of the Rubine classifier and the
/// template matcher, with each one's training and per-gesture
/// classification time.
pub struct BaselineRun {
    /// Rubine linear classifier: correct classifications.
    pub rubine_correct: usize,
    /// Template matcher: correct classifications.
    pub template_correct: usize,
    /// Test gestures.
    pub total: usize,
    /// Stored templates.
    pub templates: usize,
    /// Training wall time: Rubine, template.
    pub train: [Duration; 2],
    /// Mean classification wall time per gesture: Rubine, template.
    pub classify: [Duration; 2],
}

/// Trains both recognizers on `data.training` and scores them on
/// `data.testing`.
pub fn baseline_run(data: &Dataset) -> BaselineRun {
    let start = Instant::now();
    let rubine = Classifier::train(&data.training, &FeatureMask::all()).expect("training succeeds");
    let rubine_train = start.elapsed();
    let start = Instant::now();
    let template = TemplateRecognizer::train(&data.training, &TemplateConfig::default())
        .expect("training succeeds");
    let template_train = start.elapsed();

    let n = data.testing.len();
    let start = Instant::now();
    let rubine_correct = data
        .testing
        .iter()
        .filter(|l| rubine.classify(&l.gesture).class == l.class)
        .count();
    let rubine_classify = start.elapsed() / n as u32;
    let start = Instant::now();
    let template_correct = data
        .testing
        .iter()
        .filter(|l| template.classify(&l.gesture).class == l.class)
        .count();
    let template_classify = start.elapsed() / n as u32;
    BaselineRun {
        rubine_correct,
        template_correct,
        total: n,
        templates: template.template_count(),
        train: [rubine_train, template_train],
        classify: [rubine_classify, template_classify],
    }
}

/// B1: the Rubine classifier vs a `$1`-style template matcher (accuracy).
fn b1() -> String {
    let rows: Vec<Vec<String>> = baseline_sets()
        .iter()
        .map(|data| {
            let r = baseline_run(data);
            vec![
                data.name.to_string(),
                data.num_classes().to_string(),
                r.templates.to_string(),
                pct(r.rubine_correct as f64 / r.total as f64),
                pct(r.template_correct as f64 / r.total as f64),
            ]
        })
        .collect();
    table(
        &[
            "dataset",
            "classes",
            "templates",
            "Rubine linear",
            "template matching",
        ],
        &rows,
    )
}

/// B1's cost columns: training and per-gesture classification time.
fn b1_timing() -> String {
    let rows: Vec<Vec<String>> = baseline_sets()
        .iter()
        .map(|data| {
            let r = baseline_run(data);
            vec![
                data.name.to_string(),
                format!("{:.2?}", r.train[0]),
                format!("{:.2?}", r.train[1]),
                format!("{:.2?}", r.classify[0]),
                format!("{:.2?}", r.classify[1]),
            ]
        })
        .collect();
    table(
        &[
            "dataset",
            "train: Rubine",
            "train: template",
            "classify: Rubine",
            "classify: template",
        ],
        &rows,
    )
}

/// E4: §5's per-point costs — the incremental feature update by gesture
/// length, and AUC evaluation by class count.
fn e4_timing() -> String {
    let mut rows = Vec::new();
    for len in [100usize, 1_000, 10_000, 100_000] {
        let points: Vec<Point> = (0..len)
            .map(|i| {
                let s = i as f64;
                Point::new(s.sin() * 50.0 + s * 0.1, s.cos() * 50.0, s * 10.0)
            })
            .collect();
        let start = Instant::now();
        let mut fx = FeatureExtractor::new();
        for &p in &points {
            fx.update(p);
        }
        let total = start.elapsed();
        std::hint::black_box(fx.features());
        rows.push(vec![
            len.to_string(),
            format!("{:.1} ns", total.as_nanos() as f64 / len as f64),
        ]);
    }
    let mut out = format!(
        "feature update per point (paper: 0.5 ms on a MicroVAX II)\n{}\n",
        table(&["gesture points", "cost per point"], &rows)
    );

    let features = FeatureExtractor::extract(
        &datasets::eight_way(0x7132, 1, 0).training[0][0],
        &FeatureMask::all(),
    );
    let mut rows = Vec::new();
    for classes in [2usize, 4, 8] {
        let mut training = datasets::eight_way(0x7131, 10, 0).training;
        training.truncate(classes);
        let (rec, _) =
            EagerRecognizer::train(&training, &FeatureMask::all(), &EagerConfig::default())
                .expect("training succeeds");
        let auc_classes = rec.auc().kinds().len();
        let iterations = 20_000;
        let start = Instant::now();
        for _ in 0..iterations {
            std::hint::black_box(rec.auc().is_unambiguous(std::hint::black_box(&features)));
        }
        let per_eval = start.elapsed().as_nanos() as f64 / iterations as f64;
        rows.push(vec![
            classes.to_string(),
            auc_classes.to_string(),
            format!("{per_eval:.0} ns"),
            format!("{:.1} ns", per_eval / auc_classes as f64),
        ]);
    }
    let _ = write!(
        out,
        "AUC evaluation by class count (paper: 0.27 ms per class, ~6 ms for GDP)\n{}",
        table(
            &[
                "gesture classes",
                "AUC classes",
                "per evaluation",
                "per AUC class"
            ],
            &rows
        )
    );
    out
}
