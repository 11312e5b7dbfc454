//! Spans recorded by the benchmark around its own calls: client-side
//! spans over the socket loop and in-process spans around each layer's
//! public functions. Kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: a named interval of one operation, with its parent.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans one tracer keeps; later ones are dropped, which bounds the
/// memory and the span files of long open-loop runs.
const MAX_SPANS: usize = 1 << 16;

/// Records spans when enabled; a disabled tracer records nothing.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            spans: enabled.then(Vec::new),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end]` and returns its id (0 when disabled or
    /// full).
    pub fn span(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let Some(spans) = self.spans.as_mut().filter(|s| s.len() < MAX_SPANS) else {
            return 0;
        };
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Moves the end of span `id` (a root closed after its children).
    pub fn end(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        let index = (id as usize).checked_sub(1);
        if let Some(span) = self
            .spans
            .as_mut()
            .zip(index)
            .and_then(|(s, i)| s.get_mut(i))
        {
            span.end_ns = end_ns;
        }
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(op, Some(parent), name, start, Instant::now());
        out
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name, summed over all spans and divided by
/// `ops`: each span's duration minus the part its children cover.
pub fn self_us_per_op(spans: &[Span], ops: usize) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own as f64 / 1e3;
    }
    for v in out.values_mut() {
        *v /= ops.max(1) as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tracer = Tracer::new(t0, true);
        for op in 0..2 {
            let root = tracer.span(op, None, "op", at(0), at(100));
            tracer.span(op, Some(root), "a", at(0), at(30));
            tracer.span(op, Some(root), "b", at(30), at(90));
        }
        let own = self_us_per_op(tracer.spans(), 2);
        assert_eq!((own["op"], own["a"], own["b"]), (10.0, 30.0, 60.0));
        assert!(Tracer::new(t0, false).spans().is_empty());
    }
}
