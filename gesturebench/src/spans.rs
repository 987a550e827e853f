//! In-memory span recording for the traced run.
//!
//! Each span has a name, start, end, parent and request id; spans stay in
//! memory (one [`Tracer`] per thread, no locking) and are merged and
//! written out when the run ends. A span's self time is its duration
//! minus the part of it its children cover. Tiny calls are timed in runs:
//! one span covers `calls` consecutive calls.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers.
    pub name: &'static str,
    /// Start, ns on the run's clock.
    pub start_ns: u64,
    /// End, ns on the run's clock.
    pub end_ns: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request (session event) the span serves, 0 when none.
    pub req: u64,
    /// Calls covered (runs of tiny calls); 1 for a single call.
    pub calls: u32,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Request id of event `seq` of `session`.
pub fn request_id(session: u64, seq: u32) -> u64 {
    (session << 20) | u64::from(seq & 0xF_FFFF)
}

/// The deterministic span id of a request's root span, so spans recorded
/// on another thread can name it as their parent.
pub fn request_span_id(req: u64) -> u64 {
    (1 << 63) | req
}

/// A per-thread span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    tag: u64,
    next: u64,
    cap: usize,
    spans: Vec<Span>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer whose generated ids carry `tag` (distinct per thread) and
    /// which holds at most `cap` spans.
    pub fn new(on: bool, tag: u8, cap: usize) -> Self {
        Self {
            on,
            tag: u64::from(tag) << 48,
            next: 0,
            cap,
            spans: if on {
                Vec::with_capacity(cap.min(1 << 16))
            } else {
                Vec::new()
            },
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span under a generated id.
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        req: u64,
        calls: u32,
    ) {
        if !self.on {
            return;
        }
        self.next += 1;
        self.push(Span {
            name,
            start_ns,
            end_ns,
            id: self.tag | self.next,
            parent,
            req,
            calls,
        });
    }

    /// Records a span under a caller-chosen id (request roots).
    pub fn span_with_id(&mut self, span: Span) {
        if self.on {
            self.push(span);
        }
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Makes room for `additional` spans up front, so a measured loop
    /// does not pay for (or count) the buffer growing.
    pub fn reserve(&mut self, additional: usize) {
        if self.on {
            let room = self.cap.saturating_sub(self.spans.len()).min(additional);
            self.spans.reserve(room);
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span (same order as `spans`): its duration minus
/// the union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct NameStat {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub spans: usize,
    /// Calls those spans cover.
    pub calls: u64,
    /// Median duration per call, ns.
    pub p50_ns_per_call: f64,
    /// Median self time per call, ns.
    pub p50_self_ns_per_call: f64,
}

/// Aggregates spans by name (sorted by name).
pub fn by_name(spans: &[Span]) -> Vec<NameStat> {
    let selfs = self_times(spans);
    let mut groups: HashMap<&'static str, (Vec<f64>, Vec<f64>, u64)> = HashMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let calls = f64::from(s.calls.max(1));
        let g = groups.entry(s.name).or_default();
        g.0.push(s.dur_ns() as f64 / calls);
        g.1.push(own as f64 / calls);
        g.2 += u64::from(s.calls.max(1));
    }
    let mut out: Vec<NameStat> = groups
        .into_iter()
        .map(|(name, (durs, selfs, calls))| NameStat {
            name,
            spans: durs.len(),
            calls,
            p50_ns_per_call: crate::stats::median_f64(&durs),
            p50_self_ns_per_call: crate::stats::median_f64(&selfs),
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(b.name));
    out
}

/// Writes spans as tab-separated lines:
/// `name start_ns end_ns id parent req calls`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tid\tparent\treq\tcalls")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.req, s.calls
        )?;
    }
    out.flush()
}
