//! The benchmark's own spans around its calls into each layer.
//!
//! Spans live in memory and are written once, at exit, as Chrome-trace JSON
//! (`chrome://tracing`, Perfetto). A span's self time is its duration minus
//! the part its children cover. An untraced run records nothing.

use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    /// Shared by every span of this run.
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Ends `span`, which must be the innermost open one.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans end innermost first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Self time per span: duration minus what its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Chrome trace-event JSON: one complete ("X") event per span.
    pub fn chrome_json(&self) -> Json {
        let own = self.self_ns();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name.clone())),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("run", Json::Num(self.run_id as f64)),
                            ("span", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("self_us", Json::Num(own[i] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    /// `(name, total self seconds, count)` per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(String, f64, usize)> {
        let own = self.self_ns();
        let mut rows: Vec<(String, f64, usize)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += ns as f64 / 1e9;
                    r.2 += 1;
                }
                None => rows.push((s.name.clone(), ns as f64 / 1e9, 1)),
            }
        }
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}
