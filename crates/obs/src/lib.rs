//! Unified observability for the GIANT stack (DESIGN.md §13).
//!
//! Four incompatible one-off mechanisms grew up around the system —
//! `giant-net`'s private latency histograms, the pipeline's ad-hoc
//! `GiantOutput.timings`, the WAL's internal fsync counter, the
//! incremental driver's per-ingest seconds. This crate is the one layer
//! they all feed, offline and dependency-free (consistent with the
//! vendored-stand-ins policy):
//!
//! * **[`metrics`]** — a process-wide registry of lock-free counters,
//!   gauges, and log-scale histograms (the histogram generalised out of
//!   `giant-net`'s stats, byte-compatible math). Updates are relaxed
//!   atomics; the registry lock is touched only at registration and
//!   snapshot time.
//! * **[`span()`]** — scoped timers with parent/child nesting per thread
//!   and a bounded ring buffer of recent spans. A [`SpanGuard`] always
//!   measures (subsystems feed their public timing fields from it, so
//!   compat accessors and obs read the same clock); the ring, the
//!   per-span histograms, and the profiler only engage when obs is
//!   **armed**.
//! * **[`profile`]** — an opt-in sampler that folds span stacks into a
//!   flamegraph-compatible folded-stacks file
//!   (`path;to;span self_us` per line).
//! * **[`expose`]** — deterministic text and JSON renderings of a
//!   metrics snapshot (JSON via `giant_ontology::json`).
//!
//! ## Arming
//!
//! The whole layer is disarmed by default: spans still time (two
//! `Instant` reads and a thread-local push/pop), counters still count
//! (one relaxed `fetch_add`), but nothing is allocated and no locks are
//! taken on hot paths. [`arm`]`(true)`, or the `GIANT_OBS=1`
//! environment variable at first use, switches on span recording,
//! per-span histograms, and profiling. The contract, enforced by
//! `tests/obs_determinism.rs` and the `obs_overhead` bench: arming
//! never perturbs any output byte, and costs <2% on the pipeline and
//! serving paths.

#![forbid(unsafe_code)]

pub mod expose;
pub mod metrics;
pub mod profile;
pub mod span;

pub use expose::{render_json, render_text};
pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSummary, MetricRow, MetricValue,
    MetricsSnapshot, Registry,
};
pub use profile::{clear_profile, folded_stacks, profiling, set_profiling};
pub use span::{arm, armed, clear_recent_spans, recent_spans, span, SpanGuard, SpanRecord};
