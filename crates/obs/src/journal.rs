//! Structured event journal — the flight recorder next to the metrics.
//!
//! Metrics aggregate; traces cover one question; the journal records the
//! *sequence* of notable decisions across the whole process: pipeline stage
//! boundaries, SPARQL cache evictions, lexical-index fallback-to-scan
//! degradations, answer early-termination decisions, serving lifecycle
//! events. Each [`Event`] carries a monotonic sequence number, a
//! monotonic-clock timestamp (nanoseconds since journal creation), a
//! [`Level`], a dotted stage name, and free-form key-value fields.
//!
//! Two backends, composable:
//!
//! - a **ring buffer** (always on) for in-memory tailing — the live
//!   `GET /events/tail?n=` endpoint reads this; when full, the oldest
//!   events fall off and a dropped counter keeps the loss visible;
//! - an optional **file backend** ([`attach_file`](EventJournal::attach_file))
//!   appending one JSON object per line (JSONL) for crash forensics —
//!   buffered, with [`flush`](EventJournal::flush) called on graceful drain.
//!
//! The journal is always on: every emit takes the mutex once to push into
//! the ring (and write the line when a file is attached). Call sites emit
//! at stage boundaries and notable decisions, never per scanned row.

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (1-based, gap-free per journal).
    pub seq: u64,
    /// Nanoseconds since the journal was created (monotonic clock).
    pub nanos: u64,
    pub level: Level,
    /// Dotted source, e.g. `qa.map`, `sparql.cache`, `serve.drain`.
    pub stage: String,
    /// Free-form key-value payload, insertion order preserved.
    pub fields: Vec<(String, String)>,
}

impl Event {
    pub fn to_json(&self) -> Json {
        let mut fields = Json::obj();
        for (k, v) in &self.fields {
            fields = fields.set(k, v.as_str());
        }
        Json::obj()
            .set("seq", self.seq)
            .set("t_ns", self.nanos)
            .set("level", self.level.as_str())
            .set("stage", self.stage.as_str())
            .set("fields", fields)
    }
}

#[derive(Default)]
struct Inner {
    ring: VecDeque<Event>,
    file: Option<std::io::BufWriter<std::fs::File>>,
}

/// Bounded structured event sink. See the module docs for the contract.
pub struct EventJournal {
    capacity: usize,
    epoch: Instant,
    seq: AtomicU64,
    /// Events pushed out of the ring by capacity (still written to the file
    /// backend if one is attached).
    dropped: AtomicU64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity)
            .field("seq", &self.seq.load(Relaxed))
            .finish()
    }
}

impl EventJournal {
    /// A journal whose ring holds at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EventJournal {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Attaches (or replaces) the JSONL file backend. Subsequent events
    /// append one line each; call [`flush`](Self::flush) before reading the
    /// file or exiting.
    pub fn attach_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        self.inner.lock().expect("journal lock").file = Some(std::io::BufWriter::new(file));
        Ok(())
    }

    /// Flushes the file backend, if attached.
    pub fn flush(&self) {
        if let Some(w) = self.inner.lock().expect("journal lock").file.as_mut() {
            let _ = w.flush();
        }
    }

    /// Records one event. Call sites usually go through the
    /// [`jevent!`](crate::jevent) macro, which targets the global journal.
    pub fn emit(&self, level: Level, stage: &str, fields: Vec<(String, String)>) {
        let nanos = self.epoch.elapsed().as_nanos() as u64;
        let stage = stage.to_string();
        let mut inner = self.inner.lock().expect("journal lock");
        // Seq is assigned under the ring lock: handing it out earlier lets
        // two racing writers insert out of seq order, so the retained tail
        // would no longer be the contiguous end of the sequence space.
        let event = Event { seq: self.seq.fetch_add(1, Relaxed) + 1, nanos, level, stage, fields };
        if let Some(w) = inner.file.as_mut() {
            let _ = writeln!(w, "{}", event.to_json());
        }
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
            self.dropped.fetch_add(1, Relaxed);
        }
        inner.ring.push_back(event);
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let inner = self.inner.lock().expect("journal lock");
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).cloned().collect()
    }

    /// JSON array of the most recent `n` events, oldest first.
    pub fn tail_json(&self, n: usize) -> Json {
        Json::Arr(self.tail(n).iter().map(Event::to_json).collect())
    }

    /// Total events emitted (including any that have fallen off the ring).
    pub fn emitted(&self) -> u64 {
        self.seq.load(Relaxed)
    }

    /// Events pushed out of the ring by capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal lock").ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide journal the [`jevent!`](crate::jevent) macro emits
/// into. Ring capacity 4096, ring-only until a file backend is attached
/// for flight recording.
pub fn global_journal() -> &'static EventJournal {
    static GLOBAL: OnceLock<EventJournal> = OnceLock::new();
    GLOBAL.get_or_init(|| EventJournal::new(4096))
}

/// Emits a structured event into the global journal:
/// `jevent!(Level::Info, "qa.answer", "executed" => 3, "built" => 51)`.
/// Field values go through `Display`.
#[macro_export]
macro_rules! jevent {
    ($level:expr, $stage:expr $(, $k:literal => $v:expr)* $(,)?) => {{
        $crate::journal::global_journal().emit(
            $level,
            $stage,
            vec![$(($k.to_string(), $v.to_string())),*],
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_sequence_time_and_fields() {
        let j = EventJournal::new(16);
        j.emit(Level::Info, "qa.extract", vec![("nanos".into(), "41".into())]);
        j.emit(Level::Warn, "sparql.cache", vec![("evicted".into(), "512".into())]);
        let events = j.tail(10);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert!(events[0].nanos <= events[1].nanos);
        assert_eq!(events[1].level, Level::Warn);
        assert_eq!(events[1].stage, "sparql.cache");
        assert_eq!(events[1].fields[0], ("evicted".to_string(), "512".to_string()));
        assert_eq!(j.emitted(), 2);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts_the_loss() {
        let j = EventJournal::new(3);
        for i in 0..10u64 {
            j.emit(Level::Debug, "s", vec![("i".into(), i.to_string())]);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        let tail = j.tail(100);
        assert_eq!(tail.first().unwrap().seq, 8);
        assert_eq!(tail.last().unwrap().seq, 10);
        // tail(n) returns the newest n, oldest first.
        let last_two = j.tail(2);
        assert_eq!(last_two.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![9, 10]);
    }

    #[test]
    fn json_rendering_round_trips() {
        let j = EventJournal::new(4);
        j.emit(
            Level::Info,
            "qa.answer",
            vec![("q".into(), "Kaç kişi \"quoted\" söyledi?".into()), ("n".into(), "3".into())],
        );
        let json = j.tail_json(4);
        let parsed = Json::parse(&json.to_string()).expect("valid JSON");
        let e = parsed.idx(0).unwrap();
        assert_eq!(e.get("level").and_then(Json::as_str), Some("info"));
        assert_eq!(e.get("stage").and_then(Json::as_str), Some("qa.answer"));
        assert_eq!(
            e.get("fields").and_then(|f| f.get("q")).and_then(Json::as_str),
            Some("Kaç kişi \"quoted\" söyledi?")
        );
    }

    #[test]
    fn file_backend_appends_jsonl_and_survives_ring_eviction() {
        let path = std::env::temp_dir().join(format!("relpat-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let j = EventJournal::new(2);
        j.attach_file(&path).expect("attach");
        for i in 0..5u64 {
            j.emit(Level::Info, "s", vec![("i".into(), i.to_string())]);
        }
        j.flush();
        let text = std::fs::read_to_string(&path).expect("read journal file");
        let lines: Vec<&str> = text.lines().collect();
        // All five events hit the file even though the ring only holds 2.
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            let v = Json::parse(line).expect("each line is one JSON object");
            assert_eq!(v.get("seq").and_then(Json::as_u64), Some(i as u64 + 1));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_emits_keep_gap_free_sequence() {
        let j = std::sync::Arc::new(EventJournal::new(10_000));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let j = &j;
                scope.spawn(move || {
                    for _ in 0..500 {
                        j.emit(Level::Debug, "t", Vec::new());
                    }
                });
            }
        });
        assert_eq!(j.emitted(), 2000);
        let mut seqs: Vec<u64> = j.tail(10_000).iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=2000).collect::<Vec<_>>());
    }

    #[test]
    fn jevent_macro_emits_into_global() {
        let before = global_journal().emitted();
        crate::jevent!(Level::Info, "obs.test.jevent", "k" => 42, "s" => "v");
        assert_eq!(global_journal().emitted(), before + 1);
        let tail = global_journal().tail(64);
        let e = tail.iter().rev().find(|e| e.stage == "obs.test.jevent").unwrap();
        assert_eq!(e.fields[0], ("k".to_string(), "42".to_string()));
    }
}
