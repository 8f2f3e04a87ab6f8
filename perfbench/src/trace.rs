//! Spans recorded by the benchmark around each call it makes into a layer.
//!
//! A span has a name, a start and an end, the span that caused it, and the
//! id of the request it served. Spans are held in memory and written out
//! as JSON lines when the run ends; nothing is recorded when tracing is
//! off.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start: u64,
    pub end: u64,
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: u64,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

/// In-memory span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span now; `on` lets one call site trace only some
    /// requests.
    pub fn start(&self, on: bool, name: &'static str, request: u64, parent: Option<u64>) -> Open {
        self.start_at(on, name, request, parent, self.now())
    }

    /// Starts a span at a given time, such as when a request was due.
    pub fn start_at(
        &self,
        on: bool,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: u64,
    ) -> Open {
        let id = if self.on && on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            request,
            start,
        }
    }

    /// Ends a span now.
    pub fn end(&self, open: Open) {
        let end = self.now();
        self.end_at(open, end);
    }

    /// Ends a span at a given time.
    pub fn end_at(&self, open: Open, end: u64) {
        if open.id != 0 {
            self.push(open, end);
        }
    }

    /// Records a span whose bounds were measured by the caller.
    pub fn record(
        &self,
        on: bool,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: u64,
        end: u64,
    ) {
        self.end_at(self.start_at(on, name, request, parent, start), end);
    }

    fn push(&self, open: Open, end: u64) {
        self.spans.lock().expect("span list poisoned").push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            request: open.request,
            start: open.start,
            end,
        });
    }

    /// Every recorded span, by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Writes the spans as JSON lines, each with its self time.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let own = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in spans.iter().zip(own) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.id, s.name, s.request, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children (spans of concurrent
/// work) are merged first, so covered time is never subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Mean self time per span of each name, in nanoseconds: the cost of one
/// call, whatever number of calls a run's time budget fits.
pub fn mean_self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut sums: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = sums.entry(s.name).or_insert((0, 0));
        e.0 += own;
        e.1 += 1;
    }
    sums.into_iter()
        .map(|(name, (total, n))| (name, total as f64 / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two children overlapping on [20, 30]: they cover [10, 40].
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            // A disjoint child covering [60, 70].
            span(4, Some(1), 60, 70),
            // A grandchild does not count against span 1 directly.
            span(5, Some(2), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 10, 6]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(1, None, 10, 20),
            span(2, Some(1), 0, 15),
            span(3, Some(1), 30, 40),
        ];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        let open = t.start(true, "x", 1, None);
        assert_eq!(open.id(), None);
        t.end(open);
        t.record(true, "y", 1, None, 0, 5);
        assert!(t.spans().is_empty());

        let t = Tracer::new(true);
        let skipped = t.start(false, "x", 1, None);
        t.end(skipped);
        let root = t.start(true, "root", 7, None);
        let parent = root.id();
        let s = t.now();
        t.record(true, "child", 7, parent, s, s + 1);
        t.record(true, "child", 7, parent, s + 1, s + 4);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(mean_self_time_by_name(&spans)["child"], 2.0);
    }
}
