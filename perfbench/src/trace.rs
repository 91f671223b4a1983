//! In-memory span recording for the traced run.
//!
//! A span is `(name, start, end, parent, request id)`. Spans of one
//! operation share its request id, and `parent` names the enclosing
//! span of the same request. Spans are recorded from the benchmark's
//! own files around calls into the layers, kept in memory, and written
//! out as JSON lines when the run ends. With tracing off every
//! recording call is a no-op.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// One recorded span; times are milliseconds since the trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub req: u64,
    pub start: f64,
    pub end: f64,
}

/// The span store of one run.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ms(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e3
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            parent,
            req,
            start: self.ms(start),
            end: self.ms(end),
        };
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Runs `f` as a root span named `name`.
    pub fn time<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, None, req, t0, Instant::now());
        out
    }

    /// Every span's self time — its duration minus the part its
    /// children cover — grouped by span name, in milliseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans.lock().expect("span store lock");
        let mut children: BTreeMap<(u64, &'static str), Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children
                    .entry((s.req, p))
                    .or_default()
                    .push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in spans.iter() {
            let kids = children
                .get(&(s.req, s.name))
                .map_or(&[][..], Vec::as_slice);
            let own = (s.end - s.start) - stats::covered(s.start, s.end, kids);
            out.entry(s.name).or_default().push(own);
        }
        out
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store lock").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":{parent},\"req\":{},\"start_ms\":{},\"end_ms\":{}}}",
                s.name, s.req, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_of_the_same_request() {
        let t = Trace::new(true);
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        t.record("op", None, 1, at(0), at(10));
        t.record("send", Some("op"), 1, at(0), at(2));
        t.record("wait", Some("op"), 1, at(2), at(9));
        // Another request's child must not count against request 1.
        t.record("wait", Some("op"), 2, at(0), at(10));
        let own = t.self_times();
        assert!((own["op"][0] - 1.0).abs() < 1e-9);
        assert_eq!(own["wait"].len(), 2);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let t = Trace::new(false);
        t.time("op", 0, || ());
        assert!(t.self_times().is_empty());
    }
}
