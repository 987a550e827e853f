//! The gesture handler: the two-phase interaction technique.
//!
//! §3.2: "the gesture handler implements the two-phase interaction
//! technique. Each instance of a gesture handler recognizes its own set of
//! gestures, and can have its own semantics associated with each gesture.
//! The handler is responsible for collecting and inking the gesture,
//! determining when the phase transition occurs, classifying the gesture,
//! and executing the gesture's semantics."
//!
//! Collection, the phase transition (mouse-up, 200 ms dwell, or eager
//! recognition) and classification are the [`grandma_core::Interaction`]
//! machine's job; this handler feeds it events and supplies the
//! semantics. On the transition the class's `recog` expression is
//! evaluated (its value bound to the variable `recog`); every further
//! mouse point evaluates `manip`; releasing the button evaluates `done`.
//! The handler also binds the technique to one button and keeps a trace
//! of every interaction.

use std::collections::HashMap;
use std::rc::Rc;

use grandma_core::{EagerRecognizer, Interaction, InteractionPhase, Step};
pub use grandma_core::{InteractionConfig, InteractionOutcome, PhaseTransition};
use grandma_events::{Button, EventKind, InputEvent, StreamFault};
use grandma_geom::Gesture;
use grandma_sem::{eval, GestureSemantics, SemError, Value};

use crate::handler::{Ctx, EventHandler, HandlerResult};
use crate::view::{ViewId, ViewStore};

/// One gesture class the handler recognizes: its name plus its
/// `recog`/`manip`/`done` semantics.
#[derive(Debug, Clone)]
pub struct GestureClass {
    /// Class name (diagnostics and traces).
    pub name: String,
    /// The class's interaction semantics.
    pub semantics: GestureSemantics,
}

impl GestureClass {
    /// A class with no-op semantics.
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_string(),
            semantics: GestureSemantics::noop(),
        }
    }

    /// A class with the given semantics.
    pub fn with_semantics(name: &str, semantics: GestureSemantics) -> Self {
        Self {
            name: name.to_string(),
            semantics,
        }
    }
}

/// Gesture-handler configuration.
#[derive(Debug, Clone)]
pub struct GestureHandlerConfig {
    /// Which button starts a gesture.
    pub button: Button,
    /// Whether a mouse-down over the background (no view) starts a
    /// gesture. GDP gestures at the top window, so `true` there.
    pub over_background: bool,
    /// The interaction machine's tuning. Eager recognition (transition 3)
    /// is off in Figure 3's walkthrough and on in §5's evaluations. The
    /// fault budget counts non-finite samples seen by the handler plus
    /// any faults reported via [`GestureHandler::note_faults`]; exceeding
    /// it cancels the interaction, since a corrupted-beyond-repair stream
    /// must not be classified.
    pub interaction: InteractionConfig,
}

impl Default for GestureHandlerConfig {
    fn default() -> Self {
        Self {
            button: Button::Left,
            over_background: true,
            interaction: InteractionConfig::default(),
        }
    }
}

/// A record of one completed gesture interaction, for tests and traces.
#[derive(Debug, Clone)]
pub struct InteractionTrace {
    /// The recognized class, or `None` when rejected.
    pub class: Option<usize>,
    /// The class name ("?" when rejected).
    pub class_name: String,
    /// Which trigger caused the phase transition.
    pub transition: PhaseTransition,
    /// Points collected when classification fired.
    pub points_at_recognition: usize,
    /// Points in the whole interaction.
    pub total_points: usize,
    /// Number of `manip` evaluations that ran.
    pub manip_evaluations: usize,
    /// Semantic errors encountered (kept, not raised — an interaction
    /// must not wedge the interface).
    pub errors: Vec<SemError>,
    /// The terminal state the interaction reached.
    pub outcome: InteractionOutcome,
    /// Stream faults observed during this interaction: non-finite samples
    /// the handler skipped itself, plus anything the pipeline reported
    /// through [`GestureHandler::note_faults`].
    pub faults: Vec<StreamFault>,
}

/// The gesture handler. Attach to a view, a view class, or the root
/// (§3.1's "mouse press over the background window is interpreted as
/// gesture" pattern).
pub struct GestureHandler {
    recognizer: Rc<EagerRecognizer>,
    config: GestureHandlerConfig,
    interaction: Interaction,
    semantics: Semantics,
}

/// Everything the handler keeps beside the machine: the classes' semantics,
/// the traces, and the interaction in progress as the semantics see it.
struct Semantics {
    classes: Vec<GestureClass>,
    traces: Vec<InteractionTrace>,
    /// The view the interaction in progress started on.
    target: Option<ViewId>,
    /// Fault log of the interaction in progress; attached to its trace
    /// when the interaction finishes.
    faults: Vec<StreamFault>,
    /// The trace of the interaction in progress, from its phase
    /// transition on.
    trace: Option<InteractionTrace>,
    /// The committed class's semantics and gestural attributes, from an
    /// accepted phase transition until the interaction finishes.
    active: Option<(GestureSemantics, HashMap<String, Value>)>,
}

impl GestureHandler {
    /// Creates a gesture handler.
    ///
    /// `classes[c]` must line up with the recognizer's class indices.
    ///
    /// # Panics
    ///
    /// Panics if the class list length differs from the recognizer's
    /// class count.
    pub fn new(
        recognizer: Rc<EagerRecognizer>,
        classes: Vec<GestureClass>,
        config: GestureHandlerConfig,
    ) -> Self {
        assert_eq!(
            classes.len(),
            recognizer.full_classifier().num_classes(),
            "one GestureClass per recognizer class"
        );
        let interaction = Interaction::new(config.interaction);
        Self {
            recognizer,
            config,
            interaction,
            semantics: Semantics {
                classes,
                traces: Vec::new(),
                target: None,
                faults: Vec::new(),
                trace: None,
                active: None,
            },
        }
    }

    /// Completed interaction traces, oldest first.
    pub fn traces(&self) -> &[InteractionTrace] {
        &self.semantics.traces
    }

    /// Clears accumulated traces.
    pub fn clear_traces(&mut self) {
        self.semantics.traces.clear();
    }

    /// `true` while an interaction is in progress (any non-idle state,
    /// including the cancelled-but-still-grabbed drain).
    pub fn interaction_in_progress(&self) -> bool {
        self.interaction.in_progress()
    }

    /// Reports stream faults (typically from an upstream
    /// [`grandma_events::EventSanitizer`]) against the interaction in
    /// progress. They are attached to the interaction's trace and count
    /// toward the interaction's fault budget; exhausting the
    /// budget cancels the interaction. Faults reported while idle are
    /// dropped — there is no interaction to charge them to.
    pub fn note_faults(&mut self, faults: &[StreamFault]) {
        if faults.is_empty() || !self.interaction.in_progress() {
            return;
        }
        self.semantics.faults.extend_from_slice(faults);
        self.interaction
            .note_faults(u32::try_from(faults.len()).unwrap_or(u32::MAX));
    }
}

impl Semantics {
    /// Runs the semantics of one machine step.
    fn on_step(&mut self, step: Step<'_>, ctx: &mut Ctx<'_>) {
        match step {
            Step::Began => self.target = ctx.target,
            Step::Fault(fault) => self.faults.push(fault),
            Step::Recognized {
                trigger,
                class,
                gesture,
            } => {
                let class = class.map(usize::from);
                let mut trace = InteractionTrace {
                    class,
                    class_name: class
                        .map_or_else(|| "?".to_string(), |c| self.classes[c].name.clone()),
                    transition: trigger,
                    points_at_recognition: gesture.len(),
                    total_points: gesture.len(),
                    manip_evaluations: 0,
                    errors: Vec::new(),
                    // Settled when the interaction finishes.
                    outcome: InteractionOutcome::Rejected,
                    faults: Vec::new(),
                };
                if let Some(class) = class {
                    let semantics = self.classes[class].semantics.clone();
                    let attrs = attrs_at_recognition(gesture, ctx.views);
                    // Bind `view` to the target view's model when it has
                    // one; otherwise leave the application's existing
                    // binding (GDP binds `view` to its top-level window
                    // object).
                    if let Some(model) = self
                        .target
                        .and_then(|id| ctx.views.get(id))
                        .and_then(|v| v.model.clone())
                    {
                        ctx.env.bind("view", Value::Obj(model));
                    }
                    install_attrs(&attrs, ctx);
                    match eval(&semantics.recog, ctx.env) {
                        Ok(value) => ctx.env.bind("recog", value),
                        Err(e) => trace.errors.push(e),
                    }
                    self.active = Some((semantics, attrs));
                }
                self.trace = Some(trace);
            }
            Step::Manipulate { x, y, t } => {
                let (Some(trace), Some((semantics, attrs))) = (&mut self.trace, &mut self.active)
                else {
                    return;
                };
                // The previous mouse position, so `manip` semantics can
                // express incremental dragging (`moveFromX:y:toX:y:`).
                let prev_x = attrs.get("currentX").cloned().unwrap_or(Value::Num(x));
                let prev_y = attrs.get("currentY").cloned().unwrap_or(Value::Num(y));
                attrs.insert("prevX".into(), prev_x);
                attrs.insert("prevY".into(), prev_y);
                attrs.insert("currentX".into(), Value::Num(x));
                attrs.insert("currentY".into(), Value::Num(y));
                attrs.insert("currentT".into(), Value::Num(t));
                install_attrs(attrs, ctx);
                match eval(&semantics.manip, ctx.env) {
                    Ok(_) => trace.manip_evaluations += 1,
                    Err(e) => trace.errors.push(e),
                }
            }
            Step::Finished {
                outcome,
                total_points,
                ..
            } => {
                let total_points = total_points as usize;
                // No trace yet: cancelled before any phase transition.
                let mut trace = self.trace.take().unwrap_or_else(|| InteractionTrace {
                    class: None,
                    class_name: "?".to_string(),
                    transition: PhaseTransition::Aborted,
                    points_at_recognition: total_points,
                    total_points,
                    manip_evaluations: 0,
                    errors: Vec::new(),
                    outcome,
                    faults: Vec::new(),
                });
                trace.outcome = outcome;
                trace.total_points = total_points;
                if let Some((semantics, attrs)) = self.active.take() {
                    if matches!(
                        outcome,
                        InteractionOutcome::Recognized | InteractionOutcome::Manipulated
                    ) {
                        install_attrs(&attrs, ctx);
                        if let Err(e) = eval(&semantics.done, ctx.env) {
                            trace.errors.push(e);
                        }
                    }
                }
                trace.faults = std::mem::take(&mut self.faults);
                self.traces.push(trace);
            }
        }
    }
}

/// Builds the gestural attribute map at the moment of recognition.
fn attrs_at_recognition(gesture: &Gesture, views: &ViewStore) -> HashMap<String, Value> {
    let mut attrs = HashMap::new();
    if let (Some(first), Some(last)) = (gesture.first(), gesture.last()) {
        attrs.insert("startX".into(), Value::Num(first.x));
        attrs.insert("startY".into(), Value::Num(first.y));
        attrs.insert("startT".into(), Value::Num(first.t));
        attrs.insert("currentX".into(), Value::Num(last.x));
        attrs.insert("currentY".into(), Value::Num(last.y));
        attrs.insert("endX".into(), Value::Num(last.x));
        attrs.insert("endY".into(), Value::Num(last.y));
        attrs.insert("prevX".into(), Value::Num(last.x));
        attrs.insert("prevY".into(), Value::Num(last.y));
        attrs.insert("duration".into(), Value::Num(gesture.duration()));
        // Bounding-box attributes of the collected stroke: GDP's
        // ellipse centers itself on the gesture's extent.
        let bbox = gesture.bbox();
        let center = bbox.center();
        attrs.insert("centerX".into(), Value::Num(center.x));
        attrs.insert("centerY".into(), Value::Num(center.y));
        attrs.insert("halfWidth".into(), Value::Num(bbox.width() / 2.0));
        attrs.insert("halfHeight".into(), Value::Num(bbox.height() / 2.0));
        attrs.insert("bboxMinX".into(), Value::Num(bbox.min_x));
        attrs.insert("bboxMinY".into(), Value::Num(bbox.min_y));
        attrs.insert("bboxMaxX".into(), Value::Num(bbox.max_x));
        attrs.insert("bboxMaxY".into(), Value::Num(bbox.max_y));
        // Attributes the "modified GDP" maps to application
        // parameters: stroke length (line thickness) and initial angle
        // (rectangle orientation).
        attrs.insert("length".into(), Value::Num(gesture.path_length()));
        let third = gesture.points().get(2).copied().unwrap_or(*last);
        attrs.insert(
            "initialAngle".into(),
            Value::Num((third.y - first.y).atan2(third.x - first.x)),
        );
        // The set of models fully enclosed by the gesture's bounding
        // box (GDP's group operand).
        let enclosed: Vec<Value> = views
            .enclosed_by(&gesture.bbox())
            .into_iter()
            .filter_map(|id| views.get(id).and_then(|v| v.model.clone()))
            .map(Value::Obj)
            .collect();
        attrs.insert("enclosed".into(), Value::List(enclosed));
    }
    attrs
}

fn install_attrs(attrs: &HashMap<String, Value>, ctx: &mut Ctx<'_>) {
    let shared: Rc<HashMap<String, Value>> = Rc::new(attrs.clone());
    ctx.env
        .set_attr_source(Rc::new(move |name| shared.get(name).cloned()));
}

impl EventHandler for GestureHandler {
    fn name(&self) -> &'static str {
        "gesture"
    }

    fn wants(&self, event: &InputEvent, target: Option<ViewId>, _views: &ViewStore) -> bool {
        match event.kind {
            EventKind::MouseDown { button } => {
                button == self.config.button && (self.config.over_background || target.is_some())
            }
            _ => self.interaction.in_progress(),
        }
    }

    fn handle(&mut self, event: &InputEvent, ctx: &mut Ctx<'_>) -> HandlerResult {
        // The technique is bound to one button: another button's down
        // never opens an interaction, and its up is ignored until the
        // interaction drains. A corrupted up still tears the interaction
        // down, whatever its button.
        let foreign = event.button().is_some_and(|b| b != self.config.button);
        match self.interaction.phase() {
            InteractionPhase::Idle if foreign => return HandlerResult::Ignored,
            InteractionPhase::Collecting | InteractionPhase::Manipulating { .. }
                if foreign && event.is_up() && event.is_finite() =>
            {
                return HandlerResult::Consumed;
            }
            _ => {}
        }
        let was_idle = !self.interaction.in_progress();
        self.interaction
            .feed(&self.recognizer, *event, &mut |step| {
                self.semantics.on_step(step, ctx)
            });
        if was_idle && !self.interaction.in_progress() {
            HandlerResult::Ignored
        } else {
            HandlerResult::Consumed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::Interface;
    use grandma_core::{EagerConfig, FeatureMask};
    use grandma_events::{gesture_events, gesture_events_with_hold, DwellDetector};
    use grandma_geom::Point;
    use grandma_sem::{obj_ref, Expr, Recorder};
    use std::cell::RefCell;

    /// Two L-shaped classes: right-then-up (0), right-then-down (1).
    fn training() -> Vec<Vec<Gesture>> {
        let make = |sign: f64, jiggle: f64| {
            let mut pts = Vec::new();
            for i in 0..10 {
                pts.push(Point::new(
                    i as f64 * 8.0 + jiggle * (i % 3) as f64,
                    jiggle * (i % 2) as f64,
                    i as f64 * 10.0,
                ));
            }
            for i in 1..10 {
                pts.push(Point::new(
                    72.0 + jiggle,
                    sign * i as f64 * 8.0,
                    90.0 + i as f64 * 10.0,
                ));
            }
            Gesture::from_points(pts)
        };
        vec![
            (0..10).map(|e| make(1.0, 0.1 + e as f64 * 0.05)).collect(),
            (0..10).map(|e| make(-1.0, 0.1 + e as f64 * 0.05)).collect(),
        ]
    }

    fn recognizer() -> Rc<EagerRecognizer> {
        let (rec, _) =
            EagerRecognizer::train(&training(), &FeatureMask::all(), &EagerConfig::default())
                .unwrap();
        Rc::new(rec)
    }

    /// A root gesture handler on the default button, tuned by
    /// `interaction`.
    fn handler_with(
        recorder_msgs: &GestureSemantics,
        interaction: InteractionConfig,
    ) -> (Interface, Rc<RefCell<GestureHandler>>, grandma_sem::ObjRef) {
        let mut interface = Interface::new();
        let app = obj_ref(Recorder::new());
        interface.env_mut().bind("view", Value::Obj(app.clone()));
        let classes = vec![
            GestureClass::with_semantics("ru", recorder_msgs.clone()),
            GestureClass::named("rd"),
        ];
        let config = GestureHandlerConfig {
            interaction,
            ..GestureHandlerConfig::default()
        };
        let gh = Rc::new(RefCell::new(GestureHandler::new(
            recognizer(),
            classes,
            config,
        )));
        let gh_dyn: HandlerRef = gh.clone();
        interface.attach_root_handler(gh_dyn);
        (interface, gh, app)
    }

    use crate::handler::HandlerRef;

    fn semantics_counting() -> GestureSemantics {
        GestureSemantics {
            recog: Expr::send(Expr::var("view"), "recognized", vec![]),
            manip: Expr::send(
                Expr::var("view"),
                "manip:y:",
                vec![Expr::attr("currentX"), Expr::attr("currentY")],
            ),
            done: Expr::send(Expr::var("view"), "done", vec![]),
        }
    }

    fn run_gesture(interface: &mut Interface, g: &Gesture, hold: Option<(usize, f64)>) {
        let events = match hold {
            None => gesture_events(g, Button::Left),
            Some((at, ms)) => gesture_events_with_hold(g, Button::Left, Some((at, ms))),
        };
        let mut dwell = DwellDetector::paper_default();
        for e in dwell.expand(&events) {
            interface.dispatch(&e);
        }
    }

    #[test]
    fn eager_transition_enters_manipulation_early() {
        let (mut interface, gh, app) =
            handler_with(&semantics_counting(), InteractionConfig::default());
        let g = &training()[0][0];
        run_gesture(&mut interface, g, None);
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.class, Some(0));
        assert_eq!(trace.transition, PhaseTransition::Eager);
        assert!(trace.points_at_recognition < trace.total_points);
        assert!(trace.errors.is_empty(), "errors: {:?}", trace.errors);
        assert!(trace.manip_evaluations > 0);
        let app = app.borrow();
        let _ = app.type_name();
    }

    #[test]
    fn mouse_up_transition_omits_manipulation() {
        let config = InteractionConfig {
            eager: false,
            ..InteractionConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        let g = &training()[0][1];
        run_gesture(&mut interface, g, None);
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.transition, PhaseTransition::MouseUp);
        assert_eq!(trace.manip_evaluations, 0);
        assert_eq!(trace.points_at_recognition, trace.total_points);
    }

    #[test]
    fn dwell_timeout_triggers_transition() {
        let config = InteractionConfig {
            eager: false,
            ..InteractionConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        let g = &training()[0][2];
        // Hold still for 300 ms after point 12 (past the corner).
        run_gesture(&mut interface, g, Some((12, 300.0)));
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.transition, PhaseTransition::Timeout);
        assert_eq!(trace.class, Some(0));
        assert!(trace.points_at_recognition <= 13);
        assert!(trace.manip_evaluations > 0, "manipulation follows the hold");
    }

    #[test]
    fn eager_fires_before_timeout_would() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), InteractionConfig::default());
        let g = &training()[0][3];
        run_gesture(&mut interface, g, Some((15, 400.0)));
        let gh = gh.borrow();
        assert_eq!(gh.traces()[0].transition, PhaseTransition::Eager);
    }

    #[test]
    fn recog_value_is_bound_to_recog_variable() {
        let semantics = GestureSemantics {
            recog: Expr::num(42.0),
            manip: Expr::Nil,
            done: Expr::Nil,
        };
        let (mut interface, _, _) = handler_with(&semantics, InteractionConfig::default());
        run_gesture(&mut interface, &training()[0][0], None);
        assert_eq!(
            interface.env().lookup("recog").unwrap().as_num(),
            Some(42.0)
        );
    }

    #[test]
    fn semantic_errors_are_collected_not_fatal() {
        let semantics = GestureSemantics {
            recog: Expr::var("no_such_variable"),
            manip: Expr::Nil,
            done: Expr::Nil,
        };
        let (mut interface, gh, _) = handler_with(&semantics, InteractionConfig::default());
        run_gesture(&mut interface, &training()[0][0], None);
        let gh = gh.borrow();
        assert_eq!(gh.traces().len(), 1, "interaction completed despite error");
        assert!(!gh.traces()[0].errors.is_empty());
    }

    #[test]
    fn consecutive_interactions_reset_state() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), InteractionConfig::default());
        run_gesture(&mut interface, &training()[0][0], None);
        run_gesture(&mut interface, &training()[1][0], None);
        let gh = gh.borrow();
        assert_eq!(gh.traces().len(), 2);
        assert_eq!(gh.traces()[0].class, Some(0));
        assert_eq!(gh.traces()[1].class, Some(1));
    }

    #[test]
    fn rejection_threshold_suppresses_semantics() {
        let config = InteractionConfig {
            eager: false,
            min_probability: Some(1.1), // impossible: always reject
            ..InteractionConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        run_gesture(&mut interface, &training()[0][0], None);
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.class, None);
        assert_eq!(trace.class_name, "?");
    }

    #[test]
    fn grab_break_cancels_collection_without_semantics() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), InteractionConfig::default());
        let g = &training()[0][0];
        let mut events = gesture_events(g, Button::Left);
        // Replace everything from point 5 on with a grab break.
        events.truncate(5);
        let t = events.last().map_or(0.0, |e| e.t) + 1.0;
        events.push(InputEvent::new(EventKind::GrabBreak, 0.0, 0.0, t));
        for e in &events {
            interface.dispatch(e);
        }
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.outcome, InteractionOutcome::Cancelled);
        assert_eq!(trace.transition, PhaseTransition::Aborted);
        assert_eq!(trace.class, None);
        assert_eq!(trace.manip_evaluations, 0);
        assert!(!gh.interaction_in_progress(), "must return to idle");
    }

    #[test]
    fn grab_break_cancels_manipulation_and_releases_the_grab() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), InteractionConfig::default());
        let g = &training()[0][0];
        let events = gesture_events(g, Button::Left);
        // Feed all but the mouse-up, then break the grab.
        for e in &events[..events.len() - 1] {
            interface.dispatch(e);
        }
        let t = events[events.len() - 2].t + 1.0;
        interface.dispatch(&InputEvent::new(EventKind::GrabBreak, 0.0, 0.0, t));
        {
            let gh = gh.borrow();
            let trace = &gh.traces()[0];
            assert_eq!(trace.outcome, InteractionOutcome::Cancelled);
            assert_eq!(trace.transition, PhaseTransition::Eager);
            assert!(!gh.interaction_in_progress());
        }
        // The interface grab is released: the next gesture works normally.
        run_gesture(&mut interface, &training()[1][0], None);
        let gh = gh.borrow();
        assert_eq!(gh.traces().len(), 2);
        assert_eq!(gh.traces()[1].class, Some(1));
    }

    #[test]
    fn non_finite_samples_are_skipped_and_logged() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), InteractionConfig::default());
        let g = &training()[0][0];
        let events = gesture_events(g, Button::Left);
        for (i, e) in events.iter().enumerate() {
            interface.dispatch(e);
            if i == 3 {
                // Inject a corrupted move mid-collection.
                interface.dispatch(&InputEvent::new(
                    EventKind::MouseMove,
                    f64::NAN,
                    10.0,
                    e.t + 0.5,
                ));
            }
        }
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.class, Some(0), "clean samples still classify");
        assert_eq!(trace.faults.len(), 1);
        assert!(matches!(
            trace.faults[0],
            StreamFault::NonFiniteCoordinates { .. }
        ));
    }

    #[test]
    fn fault_budget_exhaustion_cancels_the_interaction() {
        let config = InteractionConfig {
            fault_budget: 2,
            ..InteractionConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        let g = &training()[0][0];
        let events = gesture_events(g, Button::Left);
        for (i, e) in events.iter().enumerate() {
            interface.dispatch(e);
            if i < 4 {
                // One corrupted sample after each of the first four
                // events: blows a budget of 2 mid-collection.
                interface.dispatch(&InputEvent::new(
                    EventKind::MouseMove,
                    f64::INFINITY,
                    0.0,
                    e.t + 0.5,
                ));
            }
        }
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.outcome, InteractionOutcome::Cancelled);
        assert!(trace.faults.len() > 2);
        assert!(!gh.interaction_in_progress());
    }

    #[test]
    fn note_faults_counts_toward_the_budget() {
        let config = InteractionConfig {
            fault_budget: 1,
            ..InteractionConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        let g = &training()[0][0];
        let events = gesture_events(g, Button::Left);
        interface.dispatch(&events[0]);
        interface.dispatch(&events[1]);
        gh.borrow_mut().note_faults(&[
            StreamFault::NonFiniteTimestamp { repaired: true },
            StreamFault::DuplicateMouseDown { t: 5.0 },
        ]);
        for e in &events[2..] {
            interface.dispatch(e);
        }
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.outcome, InteractionOutcome::Cancelled);
        assert_eq!(trace.faults.len(), 2);
    }

    #[test]
    fn note_faults_while_idle_is_dropped() {
        let (_, gh, _) = handler_with(&semantics_counting(), InteractionConfig::default());
        gh.borrow_mut()
            .note_faults(&[StreamFault::NonFiniteTimestamp { repaired: false }]);
        assert!(!gh.borrow().interaction_in_progress());
        assert!(gh.borrow().traces().is_empty());
    }

    #[test]
    fn outcomes_map_to_transitions() {
        // Mouse-up transition → Recognized; eager transition → Manipulated.
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), InteractionConfig::default());
        run_gesture(&mut interface, &training()[0][0], None);
        let eager_cfg = InteractionConfig {
            eager: false,
            ..InteractionConfig::default()
        };
        let (mut iface2, gh2, _) = handler_with(&semantics_counting(), eager_cfg);
        run_gesture(&mut iface2, &training()[0][1], None);
        assert_eq!(
            gh.borrow().traces()[0].outcome,
            InteractionOutcome::Manipulated
        );
        assert_eq!(
            gh2.borrow().traces()[0].outcome,
            InteractionOutcome::Recognized
        );
    }

    #[test]
    fn rejection_outcome_is_terminal_and_returns_to_idle() {
        let config = InteractionConfig {
            min_probability: Some(1.1),
            ..InteractionConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        run_gesture(&mut interface, &training()[0][0], None);
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.outcome, InteractionOutcome::Rejected);
        assert_eq!(trace.class, None);
        assert!(!gh.interaction_in_progress());
    }

    #[test]
    fn foreign_button_up_is_ignored_until_the_interaction_drains() {
        let right_up = |t: f64| {
            InputEvent::new(
                EventKind::MouseUp {
                    button: Button::Right,
                },
                0.0,
                0.0,
                t,
            )
        };
        let timeout = |t: f64| InputEvent::new(EventKind::Timeout, 72.0, 0.0, t);
        let g = &training()[0][0];
        let events = gesture_events(g, Button::Left);
        let no_eager = InteractionConfig {
            eager: false,
            ..InteractionConfig::default()
        };

        // Collecting: the right-button up is swallowed and collection
        // carries on to the left-button up.
        let (mut interface, gh, _) = handler_with(&semantics_counting(), no_eager);
        for e in &events[..5] {
            interface.dispatch(e);
        }
        interface.dispatch(&right_up(events[4].t));
        assert!(gh.borrow().interaction_in_progress());
        assert!(gh.borrow().traces().is_empty());
        for e in &events[5..] {
            interface.dispatch(e);
        }
        {
            let gh = gh.borrow();
            let trace = &gh.traces()[0];
            assert_eq!(trace.outcome, InteractionOutcome::Recognized);
            assert_eq!(trace.total_points, g.len());
        }

        // Manipulating: the right-button up does not end manipulation.
        let (mut interface, gh, _) = handler_with(&semantics_counting(), no_eager);
        for e in &events[..13] {
            interface.dispatch(e);
        }
        interface.dispatch(&timeout(events[12].t));
        interface.dispatch(&right_up(events[12].t));
        assert!(gh.borrow().interaction_in_progress());
        for e in &events[13..] {
            interface.dispatch(e);
        }
        {
            let gh = gh.borrow();
            let trace = &gh.traces()[0];
            assert_eq!(trace.outcome, InteractionOutcome::Manipulated);
            assert_eq!(trace.manip_evaluations, events.len() - 14);
        }

        // Draining: any up ends a rejected interaction.
        let rejecting = InteractionConfig {
            min_probability: Some(1.1),
            ..no_eager
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), rejecting);
        for e in &events[..13] {
            interface.dispatch(e);
        }
        interface.dispatch(&timeout(events[12].t));
        assert!(gh.borrow().interaction_in_progress());
        interface.dispatch(&right_up(events[12].t));
        let gh = gh.borrow();
        assert!(!gh.interaction_in_progress());
        assert_eq!(gh.traces()[0].outcome, InteractionOutcome::Rejected);
        assert_eq!(gh.traces()[0].transition, PhaseTransition::Timeout);
    }

    #[test]
    fn jitter_filter_drops_close_points() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), InteractionConfig::default());
        // A gesture whose points are all within 1 px: only the first
        // survives the 3 px filter, so classification happens at mouse-up
        // with one point.
        let tiny = Gesture::from_xy(&[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], 10.0);
        run_gesture(&mut interface, &tiny, None);
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.points_at_recognition, 1);
    }
}
