//! RAII stage timers.
//!
//! A [`Span`] reads the monotonic clock when created and records the
//! elapsed nanoseconds into its histogram when dropped (or once, on
//! [`finish`](Span::finish)).
//!
//! Spans created by the [`span!`](macro@crate::span) macro additionally carry an
//! interned profiler tag: while the [`prof`] sampler is
//! enabled, the tag rides the calling thread's stack for the span's
//! lifetime, so stage timers double as profiling coverage. The push is
//! gated on the profiler's own flag — one relaxed load, no allocation when
//! off.

use std::time::Instant;

use crate::metrics::Histogram;
use crate::prof::{self, StackGuard, TagId};

/// RAII timer: records its own lifetime (nanoseconds) into a histogram on
/// drop. Obtain one via [`span!`](macro@crate::span) or
/// [`MetricsRegistry::span`](crate::MetricsRegistry::span).
#[derive(Debug)]
pub struct Span {
    start: Instant,
    /// Taken by [`finish`](Self::finish), so the drop does not record twice.
    histogram: Option<Histogram>,
    /// Profiler tag-stack guard; pops (restores the saved depth) when the
    /// span drops — declared after `histogram` so the pop happens after the
    /// duration is recorded, keeping pop order identical to record order.
    _prof: Option<StackGuard>,
}

impl Span {
    /// Starts timing into `histogram`.
    pub fn from_handle(histogram: Histogram) -> Self {
        Span { start: Instant::now(), histogram: Some(histogram), _prof: None }
    }

    /// Starts timing and pushes `tag` on the profiler's thread stack while
    /// the sampler is enabled. The [`span!`](macro@crate::span) macro resolves
    /// both handles once per call site and comes through here.
    pub fn from_handle_tagged(histogram: Histogram, tag: TagId) -> Self {
        let prof = prof::push(tag);
        Span { start: Instant::now(), histogram: Some(histogram), _prof: prof }
    }

    /// Nanoseconds elapsed so far.
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Stops the timer, records, and returns the elapsed nanoseconds.
    /// Equivalent to dropping, but hands back the measurement.
    pub fn finish(mut self) -> u64 {
        let nanos = self.elapsed_nanos();
        if let Some(histogram) = self.histogram.take() {
            histogram.record(nanos);
        }
        nanos
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(histogram) = self.histogram.take() {
            histogram.record(self.elapsed_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::MetricsRegistry;

    #[test]
    fn span_records_on_drop() {
        let r = MetricsRegistry::new();
        {
            let _g = r.span("stage.x");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = r.histogram("stage.x").summary();
        assert_eq!(s.count, 1);
        assert!(s.max >= 1_000_000, "recorded {} ns", s.max);
    }

    #[test]
    fn finish_returns_measurement_and_records_once() {
        let r = MetricsRegistry::new();
        let g = r.span("stage.y");
        let nanos = g.finish();
        let s = r.histogram("stage.y").summary();
        assert_eq!(s.count, 1);
        assert!(s.max <= nanos.max(1));
    }
}
