//! Benchmark-side spans: recorded in memory around the calls into each
//! layer, written out when the run ends. Spans inside the server are a later
//! change; the server's own per-stage histograms are joined by trace id.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one request (the frame index on the wire).
    pub trace_id: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread recorder; ids are made unique across threads by `lane`.
pub struct Recorder {
    epoch: Instant,
    lane: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// All recorders of a run share `epoch`, so their spans share a clock.
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Recorder {
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<u64>,
        trace_id: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = (self.lane << 40) | self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            trace_id,
            name: name.to_string(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Opens a span whose children are recorded before it ends; finish it
    /// with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<u64>, trace_id: u64, start: Instant) -> u64 {
        self.record(name, parent, trace_id, start, start)
    }

    pub fn close(&mut self, id: u64, end: Instant) {
        let slot = (id & ((1 << 40) - 1)) as usize;
        self.spans[slot].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals clipped to it (children may overlap each other).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

/// One JSON object per line; names hold no characters that need escaping.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.trace_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace_id: 1,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "frame", 0, 100),
            span(2, Some(1), "encode", 0, 10),
            span(3, Some(1), "rtt", 10, 80),
            // Overlaps rtt by 10 and runs 5 past the parent: it adds 80..100.
            span(4, Some(1), "decode", 70, 105),
            span(5, Some(3), "wire", 20, 30),
        ];
        let t = self_times(&spans);
        // Children cover 0..100 entirely.
        assert_eq!(
            t["frame"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 0
            }
        );
        assert_eq!(
            t["rtt"],
            NameTotals {
                count: 1,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(t["encode"].self_ns, 10);
        assert_eq!(t["decode"].self_ns, 35);
    }

    #[test]
    fn gaps_between_children_are_self_time() {
        let spans = vec![
            span(1, None, "frame", 0, 100),
            span(2, Some(1), "a", 10, 20),
            span(3, Some(1), "a", 50, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t["frame"].self_ns, 80);
        assert_eq!(
            t["a"],
            NameTotals {
                count: 2,
                total_ns: 20,
                self_ns: 20
            }
        );
    }

    #[test]
    fn recorder_ids_are_unique_across_lanes() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 0);
        let mut b = Recorder::new(epoch, 1);
        let now = Instant::now();
        let parent = a.open("x", None, 7, epoch);
        let child = a.record("y", Some(parent), 7, epoch, now);
        a.close(parent, now);
        assert_ne!(parent, child);
        assert_ne!(child, b.record("y", None, 7, epoch, now));
        assert_eq!(a.spans[0].end_ns, a.spans[1].end_ns);
        assert!(a.spans[0].end_ns >= a.spans[0].start_ns);
    }
}
