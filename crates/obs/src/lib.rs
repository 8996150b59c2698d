//! # relpat-obs — observability substrate
//!
//! The measurement backbone every perf-oriented PR reports against, plus
//! the small runtime utilities the workspace previously pulled from
//! crates.io. The crate has **zero dependencies** (std only) so the whole
//! workspace builds in offline/sandboxed environments.
//!
//! ## Observability
//!
//! - [`MetricsRegistry`] — thread-safe named [`Counter`]s, point-in-time
//!   [`Gauge`]s (store/cache health levels) and log-scale latency
//!   [`Histogram`]s (p50/p90/p99 extraction), built on relaxed atomics.
//!   Registries are always on and append-only.
//! - [`Span`] / [`span!`] — RAII stage timers recording monotonic-clock
//!   durations into a histogram on drop.
//! - [`QuestionTrace`] — the per-question pipeline trace: extracted triple
//!   patterns, candidate counts per slot, query counts, pattern-store
//!   hit/miss counts and per-stage durations, serializable to JSON.
//! - [`TraceStore`] — bounded ring of recent traces with tail sampling:
//!   errored and over-p99 traces always retained, the fast majority
//!   deterministically downsampled, memory accounted and bounded.
//! - [`EventJournal`] / [`jevent!`] — lock-cheap structured event log
//!   (monotonic timestamps, level, stage, key-value fields) with a ring
//!   buffer for live tailing and an optional JSONL file backend for
//!   crash-forensics flight recording.
//! - [`metrics::render_prometheus`] — Prometheus text exposition v0.0.4
//!   over a [`MetricsSnapshot`] (counters, native histograms with
//!   cumulative `le` buckets, min/max gauges), shared by the live
//!   `GET /metrics` endpoint and offline profile dumps.
//! - [`prof`] — cooperative wall-clock sampling profiler: `span!` guards
//!   push interned activity tags on per-thread stacks, a background
//!   sampler (off by default) aggregates them into a bounded profile
//!   store, exported as collapsed-stack text or JSON.
//! - [`slo`] — rolling-window (1m/5m/1h) latency/error objectives with
//!   multi-window burn rates; breaches emit `slo.burn` journal events and
//!   per-objective gauges.
//!
//! ## Support utilities
//!
//! - [`json`] — a minimal JSON value model, writer and parser (replaces
//!   `serde`/`serde_json`).
//! - [`fx`] — an FxHash-style fast hasher and map/set aliases (replaces
//!   `rustc-hash`).
//! - [`rng`] — a small deterministic PRNG (replaces `rand` for synthetic
//!   data generation).
//!
//! ## Overhead
//!
//! Cost per record is 1–3 relaxed `fetch_add`s (plus a `fetch_min`/
//! `fetch_max` pair for histograms); handle lookup is done once per call
//! site (cached in a `OnceLock` by the [`counter!`]/[`span!`] macros).
//! Nothing allocates after handle creation, so instrumentation stays on;
//! the `obs_overhead` bench measures it against an empty loop.

pub mod fx;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod plan;
pub mod prof;
pub mod rng;
pub mod slo;
pub mod span;
pub mod trace;
pub mod trace_store;

pub use journal::{global_journal, Event, EventJournal, Level};
pub use json::Json;
pub use metrics::{
    global, render_prometheus, Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry,
    MetricsSnapshot,
};
pub use plan::{JoinAlgo, PlanStep, PlanTrace, QueryPlan};
pub use prof::{profiler, ProfileSnapshot, Profiler, TagId};
pub use rng::Rng;
pub use slo::{BurnReport, SloConfig, SloMonitor, SloObjective};
pub use span::Span;
pub use trace::{PatternLookupStats, QuestionTrace, StageTiming, TraceAnswer, TraceCandidate, TraceTriple};
pub use trace_store::{
    RecordOutcome, Retention, TraceStore, TraceStoreConfig, TraceStoreStats,
};
