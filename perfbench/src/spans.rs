//! In-memory span records for the traced replay.
//!
//! Each span has a name, start, end, parent and request id. Spans stay in
//! memory while the replay runs and are written out once at exit
//! ([`Recorder::write_jsonl`]), so recording costs one `Instant::now()`
//! and a `Vec` push per boundary.

use std::io::{self, Write};
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer boundary the span wraps, e.g. `AnalysisService::handle`.
    pub name: String,
    /// Route label of the request the span belongs to.
    pub route: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch; equals `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub request: u64,
}

impl SpanRec {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one monotonic epoch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Every span opened so far, in opening order.
    pub spans: Vec<SpanRec>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index.
    pub fn open(
        &mut self,
        name: &str,
        route: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let now = self.now_ns();
        self.spans.push(SpanRec {
            name: name.to_string(),
            route,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let selfs = self_times(&self.spans);
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"route\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name, span.route, span.request, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (lo, hi) = (span.start_ns, span.end_ns);
            let mut covered = 0u64;
            let mut reach = lo;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, hi);
                let end = end.clamp(lo, hi);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: "s".into(),
            route: "ingest",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child a
            span(25, 50, Some(0)),  // child b, overlapping a
            span(12, 20, Some(1)),  // grandchild under a
            span(90, 130, Some(0)), // child spilling past the root's end
        ];
        // Root: 100 − |[10, 50] ∪ [90, 100]| = 100 − 50.
        assert_eq!(self_times(&spans), vec![50, 12, 25, 8, 40]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(5, 9, None)]), vec![4]);
    }

    #[test]
    fn recorder_nests_and_closes() {
        let mut rec = Recorder::new();
        let root = rec.open("request", "ingest", None, 7);
        let child = rec.open("http::read_request", "ingest", Some(root), 7);
        rec.close(child);
        rec.close(root);
        let selfs = self_times(&rec.spans);
        assert_eq!(
            selfs[0] + rec.spans[child].duration_ns(),
            rec.spans[root].duration_ns()
        );
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }
}
