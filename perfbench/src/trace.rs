//! In-memory span recorder. Spans are taken around the public calls
//! the benchmark makes into each layer, kept in memory while the run
//! measures, and written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A span handle; [`Tracer::ROOT`] parents top-level spans.
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.compile`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (`start_ns` until closed).
    pub end_ns: u64,
    /// Parent span, or [`Tracer::ROOT`].
    pub parent: SpanId,
    /// Request id shared by every span of one unit of work.
    pub req: u64,
    /// Reference work the untraced run does not do (a stage re-run or
    /// an emulator-only call): excluded from self-time accounting.
    pub is_ref: bool,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans from any number of threads. A disabled tracer
/// records nothing and costs one branch per call.
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// Parent of top-level spans.
    pub const ROOT: SpanId = usize::MAX;

    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId, req: u64, is_ref: bool) -> SpanId {
        let Some(spans) = &self.spans else {
            return Tracer::ROOT;
        };
        let now = self.now_ns();
        let mut spans = spans.lock().expect("spans");
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
            is_ref,
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if let Some(spans) = &self.spans {
            let now = self.now_ns();
            spans.lock().expect("spans")[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        is_ref: bool,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.begin(name, parent, req, is_ref);
        let out = f(id);
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("spans").clone())
            .unwrap_or_default()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == Tracer::ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"ref\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.is_ref
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its children cover (children clipped to the parent,
/// overlapping children counted once), so it is never negative and
/// never exceeds the span's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Summed self time per span name (ms), over spans that are not
/// reference work and do not sit below reference work.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !under_ref(spans, i) {
            *out.entry(s.name).or_insert(0.0) += selfs[i] as f64 / 1e6;
        }
    }
    out
}

/// Summed duration per span name (ms), over every span.
pub fn dur_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.dur_ns() as f64 / 1e6;
    }
    out
}

/// Time accounting of one top-level span, ns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootTally {
    /// Its duration minus the `ref` spans directly under it: the work
    /// the untraced run also does.
    pub wall_ns: u64,
    /// Self time of the spans below it that are not reference work.
    pub layer_ns: u64,
}

/// One [`RootTally`] per top-level span named `name`, in start order.
pub fn root_tallies(spans: &[Span], name: &str) -> Vec<RootTally> {
    let selfs = self_times(spans);
    let root_of = |mut i: SpanId| {
        while spans[i].parent != Tracer::ROOT {
            i = spans[i].parent;
        }
        i
    };
    let mut tallies: BTreeMap<SpanId, RootTally> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent == Tracer::ROOT && s.name == name)
        .map(|(i, s)| {
            let tally = RootTally {
                wall_ns: s.dur_ns(),
                layer_ns: 0,
            };
            (i, tally)
        })
        .collect();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == Tracer::ROOT {
            continue;
        }
        let root = root_of(i);
        let Some(tally) = tallies.get_mut(&root) else {
            continue;
        };
        if s.is_ref && s.parent == root {
            tally.wall_ns = tally.wall_ns.saturating_sub(s.dur_ns());
        } else if !under_ref(spans, i) {
            tally.layer_ns += selfs[i];
        }
    }
    tallies.into_values().collect()
}

/// True if span `i` or one of its ancestors is reference work.
pub fn under_ref(spans: &[Span], mut i: SpanId) -> bool {
    while let Some(s) = spans.get(i) {
        if s.is_ref {
            return true;
        }
        i = s.parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Rng;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
            is_ref: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("root", 0, 100, Tracer::ROOT),
            span("a", 10, 30, 0),
            span("b", 40, 90, 0),
            span("c", 50, 60, 2),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "tiled self times add up to the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_never_go_negative() {
        let spans = vec![
            span("root", 0, 100, Tracer::ROOT),
            span("a", 0, 80, 0),
            span("b", 20, 100, 0),
            span("c", 90, 150, 0),
            span("d", 70, 200, 1),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        assert_eq!(self_times(&spans)[1], 70);
    }

    #[test]
    fn random_span_trees_have_bounded_non_negative_self_times() {
        for seed in 0..200 {
            let mut rng = Rng::new(seed, "trace-test");
            let mut spans = vec![span("root", 0, 1000, Tracer::ROOT)];
            for _ in 0..rng.below(40) {
                let parent = rng.below(spans.len());
                let (ps, pe) = (spans[parent].start_ns, spans[parent].end_ns);
                // Children may overlap each other (concurrent clients)
                // and even overhang their parent.
                let start = ps + rng.below((pe - ps + 1) as usize) as u64;
                let end = start + rng.below(400) as u64;
                spans.push(span("x", start, end, parent));
            }
            for (s, self_ns) in spans.iter().zip(self_times(&spans)) {
                assert!(self_ns <= s.dur_ns(), "seed {seed}: {s:?}");
            }
        }
    }

    #[test]
    fn reference_spans_are_excluded_from_self_time() {
        let mut spans = vec![
            span("root", 0, 100, Tracer::ROOT),
            span("work", 0, 40, 0),
            span("probe", 40, 100, 0),
            span("probe.inner", 50, 60, 2),
        ];
        spans[2].is_ref = true;
        let by_name = self_ms_by_name(&spans);
        assert!(!by_name.contains_key("probe"));
        assert!(!by_name.contains_key("probe.inner"));
        assert_eq!(by_name["root"], 0.0);
        assert_eq!(by_name["work"], 40.0 / 1e6);
    }

    #[test]
    fn root_tallies_drop_ref_work_and_count_layer_self_time() {
        let mut spans = vec![
            span("pass", 0, 100, Tracer::ROOT),
            span("work", 0, 30, 0),
            span("work.inner", 10, 20, 1),
            span("probe", 30, 80, 0),
            span("probe.inner", 40, 50, 3),
            span("other", 0, 10, Tracer::ROOT),
            span("pass", 200, 210, Tracer::ROOT),
        ];
        spans[3].is_ref = true;
        let tallies = root_tallies(&spans, "pass");
        assert_eq!(
            tallies,
            vec![
                RootTally {
                    wall_ns: 50,
                    layer_ns: 30
                },
                RootTally {
                    wall_ns: 10,
                    layer_ns: 0
                }
            ]
        );
    }

    #[test]
    fn tracer_records_nested_spans_and_writes_them() {
        let t = Tracer::new(true);
        t.span("outer", Tracer::ROOT, 1, false, |outer| {
            t.span("inner", outer, 1, true, |_| {});
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let off = Tracer::new(false);
        off.span("outer", Tracer::ROOT, 1, false, |_| {});
        assert!(off.spans().is_empty());
    }
}
