//! The four workloads. Each builds its inputs from the seed, measures for
//! the requested time, checks its outputs and returns an [`Outcome`].

pub mod build_cold;
pub mod ingest_under_read;
pub mod serve_heavy_closed;
pub mod serve_light_open;
mod serving;

use crate::fixture::Scratch;
use crate::span::Recorder;
use crate::stats::Summary;
use std::time::{Duration, Instant};

/// A workload: builds its inputs, measures, checks, reports.
pub type Workload = fn(&mut Cx) -> Outcome;

/// The workloads by name, in the order a full run executes them.
pub const WORKLOADS: [(&str, Workload); 4] = [
    ("build_cold", build_cold::run),
    ("serve_light_open", serve_light_open::run),
    ("serve_heavy_closed", serve_heavy_closed::run),
    ("ingest_under_read", ingest_under_read::run),
];

/// What a workload is given.
pub struct Cx {
    /// Seeds the generated world and every request mix.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Tiny world, for a wiring check rather than a measurement.
    pub smoke: bool,
    /// The traced run (per-layer metrics) rather than the plain one
    /// (end-to-end metrics).
    pub trace: bool,
    /// Spans of the calls into each layer (armed in the traced run).
    pub rec: Recorder,
    /// Where checkpoints and logs go.
    pub scratch: Scratch,
}

impl Cx {
    /// The instant measuring must stop, `share` of the run's seconds from now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// One measured value; timings carry their sample summary.
pub struct Measured {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// The reported value.
    pub value: f64,
    /// Quartiles, sample count and top percentile, where sampled.
    pub summary: Option<Summary>,
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that errored or were refused.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    /// End-to-end and per-layer values.
    pub metrics: Vec<Measured>,
}

impl Outcome {
    /// Records a plain value.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push(Measured {
            name: name.into(),
            value,
            summary: None,
        });
    }

    /// Records the median of `samples` with its summary.
    pub fn put_median(&mut self, name: impl Into<String>, samples: &[f64]) {
        self.put_summary(name, Summary::of(samples));
    }

    /// Records a summarised sample under its median.
    pub fn put_summary(&mut self, name: impl Into<String>, summary: Summary) {
        self.metrics.push(Measured {
            name: name.into(),
            value: summary.median,
            summary: Some(summary),
        });
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &'static str, held: bool) {
        self.checks.push((name, held));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }
}

/// Mean duration, seconds, of the spans named `name` (a set-up span occurs
/// once per set-up repeat); 0 when there is none.
pub fn mean_span_s(rec: &Recorder, name: &str) -> f64 {
    let secs: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();
    secs.iter().sum::<f64>() / secs.len().max(1) as f64
}

/// Relative cost of recording spans: traced over untraced median, as a
/// percentage (0 when either side has no samples).
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    (crate::stats::median_of(traced) / crate::stats::median_of(untraced) - 1.0) * 100.0
}
