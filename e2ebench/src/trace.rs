//! Spans the benchmark records around its own calls into each layer:
//! name, start, end and parent, kept in memory and written out as JSONL
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within its [`Tracer`].
    pub id: u32,
    /// The span open on the same thread when this one began.
    pub parent: Option<u32>,
    /// Layer-qualified name (`netlist.parse`, `http.submit`, ...).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[allow(clippy::cast_precision_loss)]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// The thread's spans; ids are unique across tracers sharing a `base`.
    pub spans: Vec<Span>,
    open: Vec<(u32, &'static str, u64)>,
    next_id: u32,
}

impl Tracer {
    /// A tracer whose span ids start at `base` (give each thread its own
    /// range so merged spans keep unique ids).
    pub fn new(enabled: bool, epoch: Instant, base: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            next_id: base,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            let start = self.now_ns();
            self.open.push((id, name, start));
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let (id, name, start_ns) = self.open.pop().expect("end() matches a begin()");
        let span = Span {
            id,
            parent: self.open.last().map(|o| o.0),
            name,
            start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// Busy seconds per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += s.seconds();
    }
    out
}

/// Writes spans as JSONL, one object per span.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total() {
        let mut t = Tracer::new(true, Instant::now(), 100);
        t.begin("outer");
        t.time("inner", || ());
        t.time("inner", || ());
        t.end();
        assert_eq!(t.spans.len(), 3);
        let outer = t.spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(outer.parent, None);
        assert!(t
            .spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == Some(outer.id) && s.start_ns >= outer.start_ns));
        let inner: f64 = t
            .spans
            .iter()
            .filter(|s| s.name == "inner")
            .map(Span::seconds)
            .sum();
        assert!((totals(&t.spans)["inner"] - inner).abs() < 1e-12);
        let mut off = Tracer::new(false, Instant::now(), 0);
        off.time("x", || ());
        assert!(off.spans.is_empty());
    }
}
