//! Plain-text persistence for trained recognizers.
//!
//! GRANDMA kept trained classifiers with the application so gestures did
//! not need retraining per session; this module provides the same
//! train-once/ship-the-recognizer workflow. The format is a versioned,
//! line-oriented text format (full `f64` round-trip precision via hex
//! bits) with no external dependencies.

use std::fmt;

use grandma_linalg::{Matrix, Vector};

use crate::classifier::{Classifier, LinearClassifier};
use crate::eager::{Auc, AucClassKind, EagerConfig, EagerRecognizer};
use crate::features::{FeatureMask, FEATURE_COUNT};

/// Errors from loading persisted recognizers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// Line number (1-based) where loading failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "load error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PersistError {}

struct Reader<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    current: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines().enumerate(),
            current: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> PersistError {
        PersistError {
            line: self.current + 1,
            message: message.into(),
        }
    }

    fn next_line(&mut self) -> Result<&'a str, PersistError> {
        for (idx, line) in self.lines.by_ref() {
            self.current = idx;
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Ok(trimmed);
            }
        }
        Err(PersistError {
            line: self.current + 1,
            message: "unexpected end of input".into(),
        })
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<Vec<&'a str>, PersistError> {
        let line = self.next_line()?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some(k) if k == keyword => Ok(parts.collect()),
            Some(other) => Err(self.error(format!("expected `{keyword}`, found `{other}`"))),
            None => Err(self.error(format!("expected `{keyword}`"))),
        }
    }

    fn parse_usize(&self, token: Option<&str>, what: &str) -> Result<usize, PersistError> {
        token
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| self.error(format!("bad {what}")))
    }

    fn parse_floats(&mut self, count: usize) -> Result<Vec<f64>, PersistError> {
        let line = self.next_line()?;
        let values: Result<Vec<f64>, _> = line.split_whitespace().map(parse_f64).collect();
        let values = values.map_err(|m| self.error(m))?;
        if values.len() != count {
            return Err(self.error(format!("expected {count} numbers, got {}", values.len())));
        }
        Ok(values)
    }
}

fn write_f64(out: &mut String, v: f64) {
    // Hex bit pattern: exact round trip.
    out.push_str(&format!("{:016x}", v.to_bits()));
}

fn parse_f64(token: &str) -> Result<f64, String> {
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad float token `{token}`"))
}

fn write_floats(out: &mut String, values: impl IntoIterator<Item = f64>) {
    let mut first = true;
    for v in values {
        if !first {
            out.push(' ');
        }
        write_f64(out, v);
        first = false;
    }
    out.push('\n');
}

fn write_linear(out: &mut String, linear: &LinearClassifier) {
    let classes = linear.num_classes();
    let dim = linear.dimension();
    out.push_str(&format!("linear classes {classes} dim {dim}\n"));
    for c in 0..classes {
        write_floats(out, linear.weights(c).iter().copied());
        out.push_str("constant ");
        write_f64(out, linear.constant(c));
        out.push('\n');
        write_floats(out, linear.class_mean(c).iter().copied());
    }
    out.push_str("invcov\n");
    for r in 0..dim {
        write_floats(out, linear.inverse_covariance().row(r).iter().copied());
    }
    out.push_str("ridge ");
    write_f64(out, linear.ridge());
    out.push('\n');
}

/// Reads one linear classifier, whose dimension must be the mask's
/// feature count `mask_dim` (a mismatch would panic in the first dot).
fn read_linear(reader: &mut Reader<'_>, mask_dim: usize) -> Result<LinearClassifier, PersistError> {
    let parts = reader.expect_keyword("linear")?;
    if parts.first() != Some(&"classes") || parts.get(2) != Some(&"dim") {
        return Err(reader.error("malformed `linear` header"));
    }
    let classes = reader.parse_usize(parts.get(1).copied(), "class count")?;
    let dim = reader.parse_usize(parts.get(3).copied(), "dimension")?;
    if classes < 2 {
        return Err(reader.error("need at least two classes"));
    }
    if dim != mask_dim {
        return Err(reader.error(format!(
            "dimension {dim} does not match the mask's {mask_dim} features"
        )));
    }
    let mut weights = Vec::with_capacity(classes);
    let mut constants = Vec::with_capacity(classes);
    let mut means = Vec::with_capacity(classes);
    for _ in 0..classes {
        weights.push(Vector::from_vec(reader.parse_floats(dim)?));
        let c = reader.expect_keyword("constant")?;
        let value = c
            .first()
            .ok_or_else(|| reader.error("missing constant value"))
            .and_then(|t| parse_f64(t).map_err(|m| reader.error(m)))?;
        constants.push(value);
        means.push(Vector::from_vec(reader.parse_floats(dim)?));
    }
    reader.expect_keyword("invcov")?;
    let mut inverse = Matrix::zeros(dim, dim);
    for r in 0..dim {
        let row = reader.parse_floats(dim)?;
        for (c, v) in row.into_iter().enumerate() {
            inverse[(r, c)] = v;
        }
    }
    let ridge_parts = reader.expect_keyword("ridge")?;
    let ridge = ridge_parts
        .first()
        .ok_or_else(|| reader.error("missing ridge value"))
        .and_then(|t| parse_f64(t).map_err(|m| reader.error(m)))?;
    Ok(LinearClassifier::from_parts(
        weights, constants, means, inverse, ridge,
    ))
}

impl Classifier {
    /// Serializes the classifier to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("grandma-classifier v1\n");
        out.push_str(&format!("mask {:04x}\n", self.mask_bits()));
        write_linear(&mut out, self.linear());
        out
    }

    /// Loads a classifier saved by [`Classifier::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, PersistError> {
        let mut reader = Reader::new(text);
        let header = reader.next_line()?;
        if header != "grandma-classifier v1" {
            return Err(reader.error("not a grandma-classifier v1 file"));
        }
        let mask = read_mask(&mut reader)?;
        let linear = read_linear(&mut reader, mask.count())?;
        Ok(Classifier::from_parts(linear, mask))
    }
}

/// Parses the value that follows `key` on a `config` line.
fn config_field<T: std::str::FromStr>(
    reader: &Reader<'_>,
    parts: &[&str],
    key: &str,
) -> Result<T, PersistError> {
    let pos = parts
        .iter()
        .position(|&p| p == key)
        .ok_or_else(|| reader.error(format!("missing config field `{key}`")))?;
    parts
        .get(pos + 1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| reader.error(format!("bad config field `{key}`")))
}

fn read_mask(reader: &mut Reader<'_>) -> Result<FeatureMask, PersistError> {
    let parts = reader.expect_keyword("mask")?;
    let bits = parts
        .first()
        .and_then(|t| u16::from_str_radix(t, 16).ok())
        .ok_or_else(|| reader.error("bad mask"))?;
    let mut mask = FeatureMask::none();
    for i in 0..FEATURE_COUNT {
        if bits & (1 << i) != 0 {
            mask.enable(i);
        }
    }
    Ok(mask)
}

impl EagerRecognizer {
    /// Serializes the eager recognizer (full classifier, AUC, and
    /// configuration) to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("grandma-eager v1\n");
        let config = self.config();
        out.push_str(&format!(
            "config bias {} threshold {} floor {} extra {} eps {} passes {} minpoints {}\n",
            config.ambiguity_bias,
            config.threshold_fraction,
            config.floor_fraction,
            config.tweak_extra_fraction,
            config.tweak_epsilon,
            config.max_tweak_passes,
            config.min_subgesture_points,
        ));
        out.push_str(&format!(
            "mask {:04x}\n",
            self.full_classifier().mask_bits()
        ));
        write_linear(&mut out, self.full_classifier().linear());
        let kinds = self.auc().kinds();
        out.push_str(&format!("auc kinds {}\n", kinds.len()));
        for kind in kinds {
            match kind {
                AucClassKind::Complete(c) => out.push_str(&format!("C {c}\n")),
                AucClassKind::Incomplete(c) => out.push_str(&format!("I {c}\n")),
            }
        }
        write_linear(&mut out, self.auc().linear());
        out
    }

    /// Loads an eager recognizer saved by [`EagerRecognizer::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, PersistError> {
        let mut reader = Reader::new(text);
        let header = reader.next_line()?;
        if header != "grandma-eager v1" {
            return Err(reader.error("not a grandma-eager v1 file"));
        }
        let parts = reader.expect_keyword("config")?;
        let config = EagerConfig {
            ambiguity_bias: config_field(&reader, &parts, "bias")?,
            threshold_fraction: config_field(&reader, &parts, "threshold")?,
            floor_fraction: config_field(&reader, &parts, "floor")?,
            tweak_extra_fraction: config_field(&reader, &parts, "extra")?,
            tweak_epsilon: config_field(&reader, &parts, "eps")?,
            max_tweak_passes: config_field(&reader, &parts, "passes")?,
            min_subgesture_points: config_field(&reader, &parts, "minpoints")?,
        };
        // Two points are the fewest with meaningful features, and the
        // interaction machine never checks the first point on its own.
        if config.min_subgesture_points < 2 {
            return Err(reader.error("config field `minpoints` must be at least 2"));
        }
        let mask = read_mask(&mut reader)?;
        let full_linear = read_linear(&mut reader, mask.count())?;
        let full = Classifier::from_parts(full_linear, mask);
        let parts = reader.expect_keyword("auc")?;
        if parts.first() != Some(&"kinds") {
            return Err(reader.error("malformed `auc` header"));
        }
        let kind_count = reader.parse_usize(parts.get(1).copied(), "kind count")?;
        let mut kinds = Vec::with_capacity(kind_count);
        for _ in 0..kind_count {
            let line = reader.next_line()?;
            let mut split = line.split_whitespace();
            let tag = split.next();
            let class = reader.parse_usize(split.next(), "kind class")?;
            match tag {
                Some("C") => kinds.push(AucClassKind::Complete(class)),
                Some("I") => kinds.push(AucClassKind::Incomplete(class)),
                _ => return Err(reader.error("bad AUC kind tag")),
            }
        }
        let auc_linear = read_linear(&mut reader, mask.count())?;
        if auc_linear.num_classes() != kinds.len() {
            return Err(reader.error(format!(
                "`auc kinds {}` does not match the AUC's {} classes",
                kinds.len(),
                auc_linear.num_classes()
            )));
        }
        let auc = Auc::from_parts(auc_linear, kinds);
        Ok(EagerRecognizer::from_parts(full, auc, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use crate::eager::EagerRecognizer;
    use grandma_geom::{Gesture, Point};

    fn two_segment(sign: f64, jiggle: f64) -> Gesture {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Point::new(
                i as f64 * 5.0 + jiggle * (i % 3) as f64,
                jiggle * (i % 2) as f64,
                i as f64 * 10.0,
            ));
        }
        for i in 1..10 {
            pts.push(Point::new(
                45.0,
                sign * i as f64 * 5.0 + jiggle,
                90.0 + i as f64 * 10.0,
            ));
        }
        Gesture::from_points(pts)
    }

    fn training() -> Vec<Vec<Gesture>> {
        vec![
            (0..10)
                .map(|e| two_segment(1.0, 0.1 + e as f64 * 0.05))
                .collect(),
            (0..10)
                .map(|e| two_segment(-1.0, 0.1 + e as f64 * 0.05))
                .collect(),
        ]
    }

    #[test]
    fn classifier_round_trips_exactly() {
        let c = Classifier::train(&training(), &FeatureMask::all()).unwrap();
        let text = c.to_text();
        let loaded = Classifier::from_text(&text).unwrap();
        for sign in [1.0, -1.0] {
            for j in [0.07, 0.33] {
                let g = two_segment(sign, j);
                let a = c.classify(&g);
                let b = loaded.classify(&g);
                assert_eq!(a.class, b.class);
                assert_eq!(a.evaluations, b.evaluations, "exact bit round trip");
            }
        }
    }

    #[test]
    fn classifier_round_trips_with_masked_features() {
        let c = Classifier::train(&training(), &FeatureMask::without_timing()).unwrap();
        let loaded = Classifier::from_text(&c.to_text()).unwrap();
        assert_eq!(loaded.mask(), c.mask());
        let g = two_segment(1.0, 0.2);
        assert_eq!(loaded.classify(&g).class, c.classify(&g).class);
    }

    #[test]
    fn eager_recognizer_round_trips_exactly() {
        let (rec, _) =
            EagerRecognizer::train(&training(), &FeatureMask::all(), &EagerConfig::default())
                .unwrap();
        let loaded = EagerRecognizer::from_text(&rec.to_text()).unwrap();
        assert_eq!(loaded.config(), rec.config());
        assert_eq!(loaded.auc().kinds(), rec.auc().kinds());
        for sign in [1.0, -1.0] {
            let g = two_segment(sign, 0.21);
            assert_eq!(loaded.run(&g), rec.run(&g), "identical eager behaviour");
        }
    }

    #[test]
    fn wrong_header_is_rejected() {
        let err = Classifier::from_text("nonsense").unwrap_err();
        assert!(err.message.contains("not a grandma-classifier"));
        let err = EagerRecognizer::from_text("grandma-classifier v1").unwrap_err();
        assert!(err.message.contains("not a grandma-eager"));
    }

    #[test]
    fn truncated_input_is_rejected_with_line_numbers() {
        let c = Classifier::train(&training(), &FeatureMask::all()).unwrap();
        let text = c.to_text();
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        let err = Classifier::from_text(&truncated).unwrap_err();
        assert!(err.line >= 4, "error line {}", err.line);
    }

    #[test]
    fn corrupted_floats_are_rejected() {
        let c = Classifier::train(&training(), &FeatureMask::all()).unwrap();
        let text = c.to_text().replace('a', "zz");
        assert!(Classifier::from_text(&text).is_err());
    }

    fn eager(mask: &FeatureMask) -> EagerRecognizer {
        EagerRecognizer::train(&training(), mask, &EagerConfig::default())
            .unwrap()
            .0
    }

    /// The `mask` line of an all-features file, narrowed to drop timing.
    fn narrow_mask(text: &str) -> String {
        let all = format!("mask {:04x}", FeatureMask::all().bits());
        let narrow = format!("mask {:04x}", FeatureMask::without_timing().bits());
        text.replacen(&all, &narrow, 1)
    }

    #[test]
    fn auc_kind_count_disagreeing_with_the_auc_is_rejected() {
        let rec = eager(&FeatureMask::all());
        let text = rec.to_text();
        // One kind fewer, consistently: the kind list itself parses.
        let kinds = rec.auc().kinds().len();
        let head = text.find("auc kinds").unwrap();
        let first_kind = head + text[head..].find('\n').unwrap() + 1;
        let second_kind = first_kind + text[first_kind..].find('\n').unwrap() + 1;
        let cut = format!(
            "{}auc kinds {}\n{}",
            &text[..head],
            kinds - 1,
            &text[second_kind..]
        );
        let err = EagerRecognizer::from_text(&cut).unwrap_err();
        assert!(err.message.contains("auc kinds"), "{err}");
    }

    #[test]
    fn full_dimension_disagreeing_with_the_mask_is_rejected() {
        let c = Classifier::train(&training(), &FeatureMask::all()).unwrap();
        let err = Classifier::from_text(&narrow_mask(&c.to_text())).unwrap_err();
        assert!(err.message.contains("does not match the mask"), "{err}");
        let text = narrow_mask(&eager(&FeatureMask::all()).to_text());
        let err = EagerRecognizer::from_text(&text).unwrap_err();
        assert!(err.message.contains("does not match the mask"), "{err}");
    }

    #[test]
    fn auc_dimension_disagreeing_with_the_mask_is_rejected() {
        // The full classifier and mask of an all-features model, spliced
        // onto the AUC of a model trained without the timing features.
        let wide = eager(&FeatureMask::all()).to_text();
        let narrow = eager(&FeatureMask::without_timing()).to_text();
        let head = &wide[..wide.find("auc kinds").unwrap()];
        let tail = &narrow[narrow.find("auc kinds").unwrap()..];
        let err = EagerRecognizer::from_text(&format!("{head}{tail}")).unwrap_err();
        assert!(err.message.contains("does not match the mask"), "{err}");
    }

    #[test]
    fn minpoints_below_two_or_not_an_integer_is_rejected() {
        let text = eager(&FeatureMask::all()).to_text();
        assert!(text.contains(" minpoints 2\n"));
        for bad in ["-3", "0", "1", "2.5", "x"] {
            let text = text.replacen(" minpoints 2\n", &format!(" minpoints {bad}\n"), 1);
            let err = EagerRecognizer::from_text(&text).unwrap_err();
            assert!(err.message.contains("minpoints"), "{bad}: {err}");
        }
    }
}
