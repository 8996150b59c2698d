//! In-memory spans recorded around calls into the system's public API.
//!
//! Every span carries the id of the operation (request) it belongs to and
//! the span that caused it. Spans stay in memory until the run ends; the
//! per-layer split is computed from them as self times: a span's duration
//! minus the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub request: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans for one thread of operations.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// Starts a new operation; spans opened from here on carry its id.
    pub fn begin_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Opens a span under the innermost open span. The clock is read after
    /// the bookkeeping, so growing the span list is charged to the parent.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            parent: self.open.last().copied(),
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now();
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) -> u64 {
        let now = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = now;
        self.spans[idx].duration_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Makes the same call twice, back to back: once timed with a bare clock
/// and once inside a span named `name`, the span first when `i` is odd so
/// that neither side always runs second. Returns both results and both
/// durations in ns: `(untraced, traced, untraced_ns, traced_ns)`. Each
/// result is dropped by the caller, outside either timed window.
pub fn both_ways<T>(
    t: &mut Tracer,
    i: usize,
    name: &'static str,
    mut call: impl FnMut() -> T,
) -> (T, T, u64, u64) {
    let in_span = |t: &mut Tracer, call: &mut dyn FnMut() -> T| {
        let span = t.enter(name);
        let out = call();
        (out, t.exit(span))
    };
    let first = (i % 2 == 1).then(|| in_span(t, &mut call));
    let start = Instant::now();
    let untraced = call();
    let untraced_ns = start.elapsed().as_nanos() as u64;
    let (traced, traced_ns) = first.unwrap_or_else(|| in_span(t, &mut call));
    (untraced, traced, untraced_ns, traced_ns)
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the union of its children's intervals clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (number of spans, summed self time in ns).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 1,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 40, 70),
            span(Some(1), 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10,30] and [20,50] overlap; [90,120] hangs past the end.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),
            span(Some(0), 90, 120),
        ];
        // Covered: [10,50] + [90,100] = 50.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn both_ways_alternates_and_records_one_span() {
        for i in 0..2 {
            let mut t = Tracer::default();
            let mut calls = 0;
            let (a, b, _, traced_ns) = both_ways(&mut t, i, "call", || {
                calls += 1;
                calls
            });
            assert_eq!(t.spans().len(), 1);
            assert_eq!(t.spans()[0].duration_ns(), traced_ns);
            // The results are the call numbers: the span goes first on odd i.
            assert_eq!((a, b), if i % 2 == 1 { (2, 1) } else { (1, 2) });
        }
    }

    #[test]
    fn tracer_links_parents_and_requests() {
        let mut t = Tracer::default();
        let r = t.begin_request();
        t.span("root", || ());
        let root = t.enter("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.request == r));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        let by_name = self_time_by_name(spans);
        assert_eq!(by_name["inner"].0, 1);
        let total: u64 = self_times(spans).iter().sum();
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        assert_eq!(total, roots, "self times partition the root spans");
    }
}
