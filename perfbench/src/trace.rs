//! Spans around every call the load generator makes into a layer.
//!
//! The benchmark records them from its own files — no crate of the
//! repository is instrumented. A span has a name, a start, an end, the
//! span that caused it, and the id of the job or campaign round it
//! belongs to, so the spans of one job can be pulled out of the file.
//! Spans stay in memory until the run ends. A layer's *self* time is
//! its spans' duration minus the part their child spans cover.
//!
//! The load generator is one thread, so the recorder of the current
//! pass lives in a thread-local: the transport wrapper inside a
//! `Client` and the driver wrapper inside `run_campaign` reach it
//! without the workloads threading a handle through calls they do not
//! own. With tracing off, a span costs a branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// Id of a span that belongs to the pass, not to one job or round.
pub const NO_ID: u64 = u64::MAX;

/// One closed span; times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    parent: u32,
    /// Job sequence number or campaign round, shared by the spans of
    /// one job; [`NO_ID`] for pass-level spans.
    pub id: u64,
}

/// Handle of an open span; must be closed in LIFO order.
#[must_use = "an open span must be closed with Tracer::exit"]
pub struct Open(u32);

/// The span recorder of one pass.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans, so that the
    /// recorder itself does not allocate inside the pass.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            id,
        });
        self.open.push(index);
        // Read the clock last, so the recorder's own work lands in the
        // parent span and not in this one.
        self.spans[index as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        Open(index)
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
        self.spans[open.0 as usize].end_ns = now;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

thread_local! {
    static CURRENT: RefCell<Tracer> = RefCell::new(Tracer::off());
}

/// Makes `tracer` the recorder of this thread and returns the one it
/// replaces: install a recording tracer before a traced pass, and
/// install [`Tracer::off`] after it to get the spans back.
pub fn install(tracer: Tracer) -> Tracer {
    CURRENT.with(|current| current.replace(tracer))
}

/// Runs `call` inside a span of this thread's recorder.
#[inline]
pub fn span<T>(name: &'static str, id: u64, call: impl FnOnce() -> T) -> T {
    let open = CURRENT.with(|current| current.borrow_mut().enter(name, id));
    let value = call();
    CURRENT.with(|current| current.borrow_mut().exit(open));
    value
}

/// What one span name cost over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

/// Per-name totals and self times. Children of one span never overlap
/// (one thread, LIFO), so subtracting their durations is exact.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(child_ns) {
        let layer = layers.entry(span.name).or_default();
        let duration = span.end_ns - span.start_ns;
        layer.count += 1;
        layer.total_ns += duration;
        layer.self_ns += duration - covered;
    }
    layers
}

/// The spans and their per-layer totals as the trace file's JSON.
pub fn to_json(spans: &[Span]) -> Json {
    let layers = layer_times(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let spans = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    match s.parent {
                        NO_PARENT => Json::Null,
                        p => Json::Num(f64::from(p)),
                    },
                ),
                (
                    "id",
                    match s.id {
                        NO_ID => Json::Null,
                        id => Json::Num(id as f64),
                    },
                ),
            ])
        })
        .collect();
    Json::obj([("layers", Json::obj(layers)), ("spans", Json::Arr(spans))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut tracer = Tracer::off();
        let span = tracer.enter("pass", NO_ID);
        tracer.exit(span);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn installed_tracer_records_the_threads_spans() {
        install(Tracer::on(2));
        let value = span("pass", NO_ID, || span("runtime.submit", 3, || 7));
        let spans = install(Tracer::off()).into_spans();
        assert_eq!(value, 7);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[1].name), ("pass", "runtime.submit"));
        assert_eq!((spans[1].parent, spans[1].id), (0, 3));
        // With the recorder off again, a span is just the call.
        assert_eq!(span("pass", NO_ID, || 1), 1);
        assert!(install(Tracer::off()).into_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_share_ids() {
        let mut tracer = Tracer::on(4);
        let pass = tracer.enter("pass", NO_ID);
        let submit = tracer.enter("runtime.submit", 7);
        tracer.exit(submit);
        let take = tracer.enter("runtime.take_result", 7);
        tracer.exit(take);
        tracer.exit(pass);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!((spans[1].id, spans[2].id), (7, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: NO_ID,
        };
        let spans = [
            span("pass", 0, 100, NO_PARENT),
            span("submit", 10, 30, 0),
            span("codec", 12, 20, 1),
            span("submit", 40, 90, 0),
        ];
        let layers = layer_times(&spans);
        assert_eq!(
            layers["pass"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            layers["submit"],
            LayerTime {
                count: 2,
                total_ns: 70,
                self_ns: 62
            }
        );
        assert_eq!(layers["codec"].self_ns, 8);
        let json = to_json(&spans);
        assert_eq!(
            json.get("layers")
                .and_then(|l| l.get("submit"))
                .and_then(|s| s.get("self_ns"))
                .and_then(Json::as_f64),
            Some(62.0)
        );
        assert_eq!(
            json.get("spans").and_then(Json::as_array).map(<[_]>::len),
            Some(4)
        );
    }
}
