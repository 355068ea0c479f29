//! Per-request-kind latency accounting, now a thin wrapper over the
//! `giant-obs` primitives (DESIGN.md §13).
//!
//! The server records one latency sample per served request — measured
//! from admission (the read thread enqueuing the job) to the reply frame
//! being handed to the socket, so queueing delay under load is visible,
//! not just compute. The kinds the read thread answers inline
//! (Conceptualize, Recommend) never queue; theirs is measured from the
//! decoded frame to the reply. Samples land in lock-free log-scale histograms
//! ([`giant_obs::Histogram`] — four buckets per octave of microseconds,
//! the design this module originated and `giant-obs` generalised), from
//! which the stats endpoint derives p50/p99 per kind.
//!
//! Counters are **instance-owned**, not global-registry entries: tests
//! and embedders run several servers per process, and each server's
//! [`StatsReport`] must describe that server alone. The wire `Metrics`
//! endpoint merges these rows (namespaced `net.*`, via
//! [`ServerStats::metrics_snapshot`]) with the process-wide registry
//! snapshot.
//!
//! Everything here is atomics: recording a sample on the serving path is
//! a few relaxed `fetch_add`s, and a [`StatsReport`] is a snapshot — it
//! never blocks the workers.

use giant_obs::{Counter, Gauge, Histogram, MetricRow, MetricValue, MetricsSnapshot};

use crate::wire::{KIND_LABELS, N_KINDS};

/// Shared counters the server threads write and the stats endpoint reads.
pub struct ServerStats {
    per_kind: [Histogram; N_KINDS],
    queue_wait: Histogram,
    served: Counter,
    shed: Counter,
    batches: Counter,
    max_batch: Gauge,
    queue_depth: Gauge,
    queue_max_depth: Gauge,
    queue_cap: u32,
}

impl ServerStats {
    /// Fresh zeroed counters for a server with the given admission bound.
    pub fn new(queue_cap: u32) -> Self {
        ServerStats {
            per_kind: std::array::from_fn(|_| Histogram::new()),
            queue_wait: Histogram::new(),
            served: Counter::new(),
            shed: Counter::new(),
            batches: Counter::new(),
            max_batch: Gauge::new(),
            queue_depth: Gauge::new(),
            queue_max_depth: Gauge::new(),
            queue_cap,
        }
    }

    /// Records one served request of kind `kind_idx` ([`crate::wire::kind_index`]).
    pub fn record_served(&self, kind_idx: usize, latency_us: f64) {
        self.served.inc();
        self.per_kind[kind_idx].record(latency_us);
    }

    /// Records one shed (rejected at admission).
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    /// Records one drained batch of `n` requests.
    pub fn record_batch(&self, n: usize) {
        self.batches.inc();
        self.max_batch.record_max(n as i64);
    }

    /// Records one job's admission-queue wait (enqueue to drain).
    pub fn record_queue_wait(&self, us: f64) {
        self.queue_wait.record(us);
    }

    /// Tracks the admission queue's depth high-water mark.
    pub fn record_queue_depth(&self, depth: usize) {
        let d = depth as i64;
        self.queue_depth.set(d);
        self.queue_max_depth.record_max(d);
    }

    /// Total sheds so far (overload tests poll this).
    pub fn shed_count(&self) -> u64 {
        self.shed.get()
    }

    /// Snapshot for the wire. `version` is the serving frame's version at
    /// snapshot time (the caller owns that — stats does not know frames).
    pub fn report(&self, version: u64) -> StatsReport {
        StatsReport {
            version,
            served: self.served.get(),
            shed: self.shed.get(),
            batches: self.batches.get(),
            max_batch: self.max_batch.get() as u32,
            queue_depth: self.queue_depth.get() as u32,
            queue_max_depth: self.queue_max_depth.get() as u32,
            queue_cap: self.queue_cap,
            kinds: (0..N_KINDS)
                .map(|i| KindRow {
                    kind: KIND_LABELS[i].to_string(),
                    count: self.per_kind[i].count(),
                    p50_us: self.per_kind[i].quantile_us(0.50),
                    p99_us: self.per_kind[i].quantile_us(0.99),
                })
                .collect(),
        }
    }

    /// This server's counters as namespaced `net.*` metric rows — what
    /// the wire `Metrics` endpoint merges with the process registry.
    pub fn metrics_snapshot(&self, version: u64) -> MetricsSnapshot {
        let mut rows = vec![
            MetricRow {
                name: "net.frame.version".to_string(),
                value: MetricValue::Gauge(version as i64),
            },
            MetricRow {
                name: "net.served".to_string(),
                value: MetricValue::Counter(self.served.get()),
            },
            MetricRow {
                name: "net.shed".to_string(),
                value: MetricValue::Counter(self.shed.get()),
            },
            MetricRow {
                name: "net.batches".to_string(),
                value: MetricValue::Counter(self.batches.get()),
            },
            MetricRow {
                name: "net.batch.max".to_string(),
                value: MetricValue::Gauge(self.max_batch.get()),
            },
            MetricRow {
                name: "net.queue.depth".to_string(),
                value: MetricValue::Gauge(self.queue_depth.get()),
            },
            MetricRow {
                name: "net.queue.depth.max".to_string(),
                value: MetricValue::Gauge(self.queue_max_depth.get()),
            },
            MetricRow {
                name: "net.queue.cap".to_string(),
                value: MetricValue::Gauge(i64::from(self.queue_cap)),
            },
            MetricRow {
                name: "net.queue.wait_us".to_string(),
                value: MetricValue::Histogram(self.queue_wait.summary()),
            },
        ];
        for (label, hist) in KIND_LABELS.iter().zip(self.per_kind.iter()) {
            rows.push(MetricRow {
                name: format!("net.latency.{label}"),
                value: MetricValue::Histogram(hist.summary()),
            });
        }
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { rows }
    }
}

/// One request kind's latency summary.
#[derive(Debug, Clone, PartialEq)]
pub struct KindRow {
    /// Stable label ("conceptualize", "recommend", ...).
    pub kind: String,
    /// Requests of this kind served.
    pub count: u64,
    /// Median admission-to-reply latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile admission-to-reply latency, microseconds.
    pub p99_us: f64,
}

/// The stats endpoint's answer — a consistent-enough snapshot of the
/// server's counters (individual fields are atomically read; the set is
/// not fenced, which is fine for monitoring).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Serving frame version the server was publishing at snapshot time.
    pub version: u64,
    /// Requests answered from the serving path.
    pub served: u64,
    /// Requests rejected at admission with [`crate::wire::Reply::Shed`].
    pub shed: u64,
    /// Batches drained by workers.
    pub batches: u64,
    /// Largest coalesced batch so far.
    pub max_batch: u32,
    /// Admission queue depth at snapshot time.
    pub queue_depth: u32,
    /// Queue depth high-water mark — overload tests assert this never
    /// exceeds `queue_cap`.
    pub queue_max_depth: u32,
    /// The configured admission bound.
    pub queue_cap: u32,
    /// Per-kind rows in [`crate::wire::kind_index`] order.
    pub kinds: Vec<KindRow>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_reflects_recorded_traffic() {
        let s = ServerStats::new(64);
        s.record_served(0, 5.0);
        s.record_served(0, 7.0);
        s.record_served(3, 900.0);
        s.record_shed();
        s.record_batch(2);
        s.record_batch(1);
        s.record_queue_depth(9);
        s.record_queue_depth(3);
        let r = s.report(42);
        assert_eq!(r.version, 42);
        assert_eq!(r.served, 3);
        assert_eq!(r.shed, 1);
        assert_eq!(r.batches, 2);
        assert_eq!(r.max_batch, 2);
        assert_eq!(r.queue_depth, 3);
        assert_eq!(r.queue_max_depth, 9);
        assert_eq!(r.queue_cap, 64);
        assert_eq!(r.kinds.len(), N_KINDS);
        assert_eq!(r.kinds[0].kind, "conceptualize");
        assert_eq!(r.kinds[0].count, 2);
        assert_eq!(r.kinds[3].count, 1);
        assert_eq!(r.kinds[1].count, 0);
        assert_eq!(r.kinds[1].p50_us, 0.0);
    }

    /// The generalised histogram must report the same percentiles the
    /// private implementation always did — the byte-compat contract.
    #[test]
    fn quantiles_match_the_pre_obs_implementation() {
        let s = ServerStats::new(8);
        for _ in 0..99 {
            s.record_served(1, 10.0);
        }
        s.record_served(1, 10_000.0);
        let r = s.report(0);
        assert!((8.0..=10.0).contains(&r.kinds[1].p50_us), "p50 = {}", r.kinds[1].p50_us);
        assert!((8.0..=10.0).contains(&r.kinds[1].p99_us), "p99 = {}", r.kinds[1].p99_us);
    }

    #[test]
    fn metrics_snapshot_rows_are_namespaced_and_sorted() {
        let s = ServerStats::new(16);
        s.record_served(0, 5.0);
        s.record_queue_wait(2.5);
        s.record_shed();
        let snap = s.metrics_snapshot(7);
        let names: Vec<&str> = snap.rows.iter().map(|r| r.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "rows must come out sorted");
        assert!(names.contains(&"net.queue.wait_us"));
        assert!(names.contains(&"net.latency.conceptualize"));
        assert_eq!(snap.counter("net.served"), Some(1));
        assert_eq!(snap.counter("net.shed"), Some(1));
        assert_eq!(snap.get("net.frame.version"), Some(&MetricValue::Gauge(7)));
        match snap.get("net.queue.wait_us") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.sum_us, 3); // 2.5 µs rounds to 3
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
