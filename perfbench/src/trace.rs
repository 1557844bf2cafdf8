//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into one of the
//! program's layers. Spans stay in memory and are written out once, when
//! the run ends, so recording costs two clock reads and a `Vec` push.
//! A disabled tracer ([`Tracer::off`]) records nothing, so the same code
//! can run with and without spans and the difference is the tracing
//! overhead.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Spans of one image or request share this id (0 = set-up).
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing: `span` only calls its closure.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`end`](Self::end). A disabled
    /// tracer returns a placeholder id and records nothing.
    pub fn begin(&mut self, name: &str, group: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.ns_at(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            group,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        self.spans[id].end_ns = self.ns_at(Instant::now());
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &str,
        group: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, group, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Records a span whose interval was measured elsewhere (e.g. on a
    /// request's waiter thread).
    pub fn record(
        &mut self,
        name: &str,
        group: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            group,
            parent,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the time its direct children cover.
    /// Children of one span never overlap here (every traced call is
    /// made from one thread, one after another).
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Self times in milliseconds of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i) as f64 / 1e6)
            .collect()
    }

    /// The spans as a JSON array (one object per line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.group,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let root = t.begin("image", 1, None);
        let child = t.begin("layer", 1, Some(root));
        let grandchild = t.begin("inner", 1, Some(child));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(grandchild);
        t.end(child);
        t.end(root);
        let s = t.spans();
        assert_eq!(t.self_ns(child), s[child].dur_ns() - s[grandchild].dur_ns());
        assert_eq!(t.self_ns(root), s[root].dur_ns() - s[child].dur_ns());
        assert_eq!(t.self_ns(grandchild), s[grandchild].dur_ns());
        assert!(t.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let root = t.begin("image", 1, None);
        assert_eq!(t.span("layer", 1, Some(root), || 7), 7);
        t.end(root);
        assert!(t.spans().is_empty());
    }
}
