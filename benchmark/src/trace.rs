//! In-memory spans: recorded by the benchmark's own code around its calls
//! into each layer, written to `trace.json` when the run ends.

use std::io::Write;
use std::time::Instant;

/// Monotonic nanoseconds since the run's epoch, shared by every thread of
/// the load generator.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose epoch is now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds since the epoch (never 0, so 0 can mean "unset").
    pub fn now_ns(&self) -> u64 {
        (self.0.elapsed().as_nanos() as u64).max(1)
    }
}

/// No parent: the span is the root of its trace.
pub const ROOT: u32 = u32::MAX;

/// One timed call. `trace` is the document id (or a counter for spans
/// that belong to no document); `parent` indexes the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, `layer.call`.
    pub name: &'static str,
    /// Start, ns since the run epoch.
    pub start_ns: u64,
    /// End, ns since the run epoch.
    pub end_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Trace id shared by the spans of one request.
    pub trace: u64,
}

/// The span log of one run.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Spans in recording order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log with room for `capacity` spans, so recording never
    /// reallocates inside a measured loop.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        trace: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace,
        });
        (self.spans.len() - 1) as u32
    }

    /// Total and self time (span minus the part its children cover) per
    /// span name, in ns, with the span count: `(name, count, total, self)`.
    pub fn by_name(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(children);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// Writes the log as JSON: a name table and one
    /// `[name, start_ns, end_ns, parent, trace]` row per span
    /// (`parent` −1 for a root).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"trace\"],\n\"names\":[{}],\n\"spans\":[",
            quoted.join(",")
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let n = names.iter().position(|n| *n == s.name).unwrap_or(0);
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n[{n},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.trace
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut log = SpanLog::with_capacity(4);
        let root = log.push("replay.doc", 0, 100, ROOT, 7);
        log.push("core.route", 10, 30, root, 7);
        let m = log.push("index.match", 40, 90, root, 7);
        log.push("index.sort_dedup", 50, 60, m, 7);
        let rows = log.by_name();
        let row = |n: &str| *rows.iter().find(|r| r.0 == n).unwrap();
        assert_eq!(row("replay.doc"), ("replay.doc", 1, 100, 30));
        assert_eq!(row("index.match"), ("index.match", 1, 50, 40));
        assert_eq!(row("core.route"), ("core.route", 1, 20, 20));
    }

    #[test]
    fn json_round_trips_through_the_repo_parser() {
        let mut log = SpanLog::default();
        let root = log.push("a.b", 1, 9, ROOT, 3);
        log.push("c.d", 2, 4, root, 3);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest-trace.json");
        log.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v = serde_json::parse_value(&text).unwrap();
        let Some(serde::Value::Array(spans)) = v.get("spans") else {
            panic!("spans array missing");
        };
        assert_eq!(spans.len(), 2);
        let Some(serde::Value::Array(names)) = v.get("names") else {
            panic!("names array missing");
        };
        assert_eq!(names.len(), 2);
    }
}
