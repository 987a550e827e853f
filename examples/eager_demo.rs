//! Watch eager recognition work point by point on the U/D example of
//! Figures 5-7: both classes share a horizontal prelude and only diverge
//! after the corner. Each gesture's mouse events go through the two-phase
//! interaction machine, which reports when the prefix became unambiguous
//! and hands the rest of the gesture to manipulation.
//!
//! Run: `cargo run --example eager_demo`

use grandma::core::{
    EagerConfig, EagerRecognizer, FeatureMask, Interaction, InteractionConfig, InteractionPhase,
    Step,
};
use grandma::events::{gesture_events, Button};
use grandma::synth::datasets;

fn main() {
    let data = datasets::ud(7, 10, 2);
    let (eager, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    // The training gestures were not jitter-filtered, so collection keeps
    // every point too.
    let mut interaction = Interaction::new(InteractionConfig {
        min_point_distance: 0.0,
        ..InteractionConfig::default()
    });

    for labeled in &data.testing {
        println!(
            "gesture of class '{}', {} points:",
            data.class_names[labeled.class],
            labeled.gesture.len()
        );
        // Per-point marks: '.' while collecting (still ambiguous), the
        // class letter at the phase transition, '-' per manipulation move.
        let (mut marks, mut transition) = (String::new(), String::new());
        for event in gesture_events(&labeled.gesture, Button::Left) {
            interaction.feed(&eager, event, &mut |step| match step {
                Step::Recognized {
                    trigger,
                    class,
                    gesture,
                } => {
                    let name = class.map_or("?", |c| data.class_names[usize::from(c)]);
                    marks.push_str(name);
                    transition = format!("{trigger:?} -> '{name}' after {} points", gesture.len());
                }
                Step::Manipulate { .. } => marks.push('-'),
                _ => {}
            });
            if interaction.phase() == InteractionPhase::Collecting {
                marks.push('.');
            }
        }
        println!(
            "  {marks}\n  {transition}; ground-truth corner at point {}\n",
            labeled.min_points.unwrap_or(0)
        );
    }
    println!(
        "legend: '.' = still ambiguous (collection phase), class letter = the\n\
         phase transition (Eager mid-gesture, or MouseUp when the gesture\n\
         stayed ambiguous), '-' = manipulation phase."
    );
}
