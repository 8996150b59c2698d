//! Open-loop load generation on a fixed schedule.
//!
//! Request `i` is due at `i / rate` seconds. Each request's latency is
//! measured from when it was due, not from when it was sent, so a stalled
//! sender charges its wait to every request queued behind it; the lag
//! (sent − due) reports how late the generator ran.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::{percentile, sorted};

/// Timing of one request, in ns since the schedule started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub index: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl Sample {
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Due time of request `i` at `rate` requests per second.
pub fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// Sends `count` requests at `rate` per second from `conns` sender threads
/// (so at most `conns` requests are in flight). `op(i)` performs request
/// `i` and reports whether it succeeded. Samples come back in index order.
pub fn run(
    rate: f64,
    count: usize,
    conns: usize,
    op: impl Fn(usize) -> bool + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(count));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Relaxed);
                    if index >= count {
                        break;
                    }
                    let due = due_ns(index, rate);
                    let now = start.elapsed().as_nanos() as u64;
                    if now < due {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    let sent_ns = start.elapsed().as_nanos() as u64;
                    let ok = op(index);
                    let done_ns = start.elapsed().as_nanos() as u64;
                    mine.push(Sample {
                        index,
                        due_ns: due,
                        sent_ns,
                        done_ns,
                        ok,
                    });
                }
                samples
                    .lock()
                    .expect("sampler thread panicked")
                    .extend(mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("sampler thread panicked");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Summary of one rung of a rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub lag_p50_us: f64,
    pub lag_max_us: f64,
    /// The generator fell behind its schedule for good: the median lag of
    /// the last quarter of requests exceeds `backlog_limit_us`.
    pub backlog_grew: bool,
}

/// Summarizes samples of one rung. A failed request counts as missing the
/// latency limit, so it is given infinite latency.
pub fn summarize(samples: &[Sample], backlog_limit_us: f64) -> Rung {
    let lat: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.ok {
                s.latency_ns() as f64 / 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let lat = sorted(&lat);
    let lag = sorted(
        &samples
            .iter()
            .map(|s| s.lag_ns() as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let tail = &samples[samples.len() - samples.len() / 4..];
    let tail_lag = sorted(
        &tail
            .iter()
            .map(|s| s.lag_ns() as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    Rung {
        p50_us: percentile(&lat, 50.0),
        p90_us: percentile(&lat, 90.0),
        p99_us: percentile(&lat, 99.0),
        lag_p50_us: percentile(&lag, 50.0),
        lag_max_us: lag.last().copied().unwrap_or(0.0),
        backlog_grew: percentile(&tail_lag, 50.0) > backlog_limit_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_ns(0, 100.0), 0);
        assert_eq!(due_ns(3, 100.0), 30_000_000);
        assert_eq!(due_ns(1, 4.0), 250_000_000);
    }

    #[test]
    fn latency_and_lag_are_measured_from_the_due_time() {
        let s = Sample {
            index: 2,
            due_ns: 1_000,
            sent_ns: 1_500,
            done_ns: 4_000,
            ok: true,
        };
        assert_eq!(s.latency_ns(), 3_000);
        assert_eq!(s.lag_ns(), 500);
        // A request sent early (clock skew between threads) has no lag.
        let early = Sample { sent_ns: 900, ..s };
        assert_eq!(early.lag_ns(), 0);
    }

    #[test]
    fn a_stalled_sender_inflates_later_latency() {
        // 1000 requests/s on one connection; request 0 stalls for 40 ms.
        // Request 10 was due at 10 ms but could only go out after the
        // stall, so its latency includes the ~30 ms it waited in line.
        let samples = run(1000.0, 30, 1, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
            true
        });
        assert_eq!(samples.len(), 30);
        let s10 = samples[10];
        assert!(s10.lag_ns() >= 29_000_000, "lag {} ns", s10.lag_ns());
        assert!(
            s10.latency_ns() >= 29_000_000,
            "latency {} ns",
            s10.latency_ns()
        );
        // Without the stall nothing waits that long.
        let calm = run(1000.0, 30, 1, |_| true);
        assert!(calm[10].latency_ns() < 29_000_000);
        let rung = summarize(&samples, 5_000.0);
        assert!(rung.p90_us >= 20_000.0, "p90 {} us", rung.p90_us);
    }

    #[test]
    fn failures_miss_every_limit_and_backlog_is_detected() {
        let mk = |index: usize, lag: u64, ok: bool| Sample {
            index,
            due_ns: index as u64 * 1_000,
            sent_ns: index as u64 * 1_000 + lag,
            done_ns: index as u64 * 1_000 + lag + 100,
            ok,
        };
        // Two failures in 100 requests push the 99th percentile past any
        // limit.
        let steady: Vec<Sample> = (0..100).map(|i| mk(i, 50, i != 7 && i != 8)).collect();
        let rung = summarize(&steady, 10.0);
        assert_eq!(rung.p99_us, f64::INFINITY);
        assert!(rung.p90_us.is_finite());
        assert!(!rung.backlog_grew);
        let growing: Vec<Sample> = (0..100).map(|i| mk(i, i as u64 * 500, true)).collect();
        assert!(summarize(&growing, 10.0).backlog_grew);
    }
}
