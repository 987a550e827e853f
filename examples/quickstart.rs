//! Quickstart: train a Rubine classifier and an eager recognizer on the
//! paper's eight-direction gesture set, then run one gesture through the
//! two-phase interaction and watch eager recognition fire mid-gesture.
//!
//! Run: `cargo run --example quickstart`

use grandma::core::{
    Classifier, EagerConfig, EagerRecognizer, FeatureMask, Interaction, InteractionConfig, Step,
};
use grandma::events::{gesture_events, Button};
use grandma::synth::datasets;

fn main() {
    // 1. A dataset: eight two-segment gesture classes ("ru" = right,
    //    then up), 10 training and 5 test examples per class, synthesized
    //    deterministically from the seed.
    let data = datasets::eight_way(42, 10, 5);
    println!("classes: {:?}", data.class_names);

    // 2. The full classifier (§4.2): closed-form training over the
    //    thirteen incremental features.
    let classifier =
        Classifier::train(&data.training, &FeatureMask::all()).expect("training succeeds");
    let correct = data
        .testing
        .iter()
        .filter(|l| classifier.classify(&l.gesture).class == l.class)
        .count();
    println!(
        "full classifier: {correct}/{} test gestures correct",
        data.testing.len()
    );

    // 3. The eager recognizer (§4): the same machinery trained to answer
    //    "has enough of the gesture been seen?" on every mouse point.
    let (eager, report) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    println!(
        "eager training: {} subgestures labeled, {} moved as accidentally complete, \
         {} AUC classes",
        report.records.len(),
        report.move_outcome.moved,
        report.auc_classes.len()
    );

    // 4. The two-phase interaction (§1, §3.2): stream one gesture's
    //    mouse events through the interaction machine. It collects points
    //    until the prefix is unambiguous, classifies there, and reports
    //    the rest of the gesture as manipulation. The training gestures
    //    were not jitter-filtered, so collection keeps every point too.
    let sample = &data.testing[0];
    let mut interaction = Interaction::new(InteractionConfig {
        min_point_distance: 0.0,
        ..InteractionConfig::default()
    });
    let mut moves = 0;
    for event in gesture_events(&sample.gesture, Button::Left) {
        interaction.feed(&eager, event, &mut |step| match step {
            Step::Recognized {
                trigger,
                class,
                gesture,
            } => println!(
                "{trigger:?} recognition: '{}' after {} of {} points ({:.0}% of the gesture)",
                class.map_or("?", |c| data.class_names[usize::from(c)]),
                gesture.len(),
                sample.gesture.len(),
                100.0 * gesture.len() as f64 / sample.gesture.len() as f64,
            ),
            Step::Manipulate { .. } => moves += 1,
            Step::Finished { outcome, .. } => {
                println!("{outcome:?} after {moves} manipulation moves")
            }
            Step::Began | Step::Fault(_) => {}
        });
    }
    println!("(truth: '{}')", data.class_names[sample.class]);
}
