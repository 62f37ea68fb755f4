//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer of the workspace: name, start, end and the id of the enclosing
//! span. Nothing is written while the run measures; the spans are dumped
//! once at the end. A disabled tracer calls the closure directly and reads
//! no clock, so the untraced runs that give the end-to-end numbers pay
//! nothing for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dotted name: `<layer>.<operation>`, e.g. `dsn-sim.routing.compile`.
    pub name: &'static str,
    /// Id of the enclosing span (`None` for a root span).
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; spans nest strictly (the benchmark is single-threaded
/// between layer calls).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`, and otherwise is a
    /// pass-through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Open a span that the caller closes with [`Tracer::exit`]; used where
    /// the traced region itself calls back into the tracer. Returns `None`
    /// when tracing is off.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans must nest");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total wall seconds of the spans called `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// The layer a span belongs to: its name without the last dotted
/// component (`dsn-sim.routing.compile` → `dsn-sim.routing`).
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time per layer, in seconds: each span's duration minus the time
/// its direct children cover, summed by [`layer_of`].
pub fn self_secs_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(child);
        *out.entry(layer_of(s.name).to_string()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The spans as a JSON array (one object per span, id = index).
pub fn spans_json(spans: &[Span]) -> String {
    let mut s = String::from("[");
    for (id, sp) in spans.iter().enumerate() {
        if id > 0 {
            s.push(',');
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "\n  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            sp.name, sp.start_ns, sp.end_ns
        );
    }
    s.push_str("\n]");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a.op",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "b.op",
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "c.op",
                parent: Some(1),
                start_ns: 15,
                end_ns: 25,
            },
        ];
        let by = self_secs_by_layer(&spans);
        assert!((by["a"] - 70e-9).abs() < 1e-15);
        assert!((by["b"] - 20e-9).abs() < 1e-15);
        assert!((by["c"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x.y", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.enter("x.z"), None);
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let mut t = Tracer::new(true);
        t.span("a.outer", || ());
        let outer = t.enter("a.outer2");
        t.span("b.inner", || ());
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[2].parent, Some(1));
        assert!(s[1].end_ns >= s[2].end_ns);
    }
}
