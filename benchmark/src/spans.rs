//! Spans of the replay pass, recorded from outside the program: one per
//! call into a layer's public functions. Kept in memory while measuring
//! and written as JSON lines when the run ends.

use crate::host::HostLog;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is the index of the enclosing span
/// (`u32::MAX` for a root); a layer's self time is its span minus the
/// spans that name it as parent.
pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// In-memory span log, with the host yardstick readings taken while it
/// was being filled.
pub struct Spans {
    origin: Instant,
    log: Vec<Span>,
    host: HostLog,
}

/// Replay steps (exchanges, write groups) between two yardstick readings.
pub const YARDSTICK_EVERY: usize = 64;

/// Marks a root span.
pub const ROOT: u32 = u32::MAX;

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            log: Vec::new(),
            host: HostLog::default(),
        }
    }

    /// Reads the host yardstick now. The replay calls this between
    /// stretches of layer calls, never inside a span.
    pub fn yardstick(&mut self) {
        self.host.read(self.origin.elapsed().as_secs_f64());
    }

    /// The median host slowdown over the readings so far.
    pub fn slowdown(&self) -> f64 {
        self.host.median_slowdown()
    }

    /// Times `f` as a span called `name` under `parent` for request
    /// `request`; returns `f`'s value and the elapsed nanoseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let start_ns = (start - self.origin).as_nanos() as u64;
        let end_ns = (end - self.origin).as_nanos() as u64;
        self.log.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (value, end_ns - start_ns)
    }

    /// Opens a span that encloses later ones; close it with
    /// [`close`](Spans::close). Returns its index, to pass as `parent`.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.log.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        (self.log.len() - 1) as u32
    }

    /// Ends the span `open` returned.
    pub fn close(&mut self, span: u32) {
        self.log[span as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Mean cost of recording one span, from `n` empty spans that are
    /// then discarded.
    pub fn overhead_ns(&mut self, n: usize) -> f64 {
        let keep = self.log.len();
        let start = Instant::now();
        for _ in 0..n {
            self.time("obs.harness.span", ROOT, 0, || std::hint::black_box(()));
        }
        let ns = start.elapsed().as_nanos() as f64 / n as f64;
        self.log.truncate(keep);
        ns
    }

    /// Writes the log as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.log.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_round_trip_through_jsonl() {
        let mut spans = Spans::new();
        let root = spans.open("request", ROOT, 9);
        let (v, ns) = spans.time("child", root, 9, || 41 + 1);
        spans.close(root);
        assert_eq!(v, 42);
        assert_eq!(spans.len(), 2);
        assert!(spans.overhead_ns(100) > 0.0);
        spans.yardstick();
        assert!(spans.slowdown() > 0.0);
        assert_eq!(spans.len(), 2);
        let path = crate::store::out_dir().join("test.spans.jsonl");
        spans.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let root_line = ss_obs::json::parse(lines[0]).unwrap();
        let child_line = ss_obs::json::parse(lines[1]).unwrap();
        assert_eq!(root_line.get("name").unwrap().as_str(), Some("request"));
        assert_eq!(child_line.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(child_line.get("request").unwrap().as_u64(), Some(9));
        let dur = child_line.get("end_ns").unwrap().as_u64().unwrap()
            - child_line.get("start_ns").unwrap().as_u64().unwrap();
        assert_eq!(dur, ns);
        // The parent encloses its child.
        assert!(
            root_line.get("end_ns").unwrap().as_u64() >= child_line.get("end_ns").unwrap().as_u64()
        );
    }
}
