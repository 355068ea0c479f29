//! Pipeline configuration: every threshold named in the paper in one place.

use giant_graph::cluster::ClusterConfig;

/// End-to-end GIANT configuration.
#[derive(Debug, Clone, Copy)]
pub struct GiantConfig {
    /// Random-walk clustering parameters (`δ_v` inside).
    pub cluster: ClusterConfig,
    /// TF-IDF similarity threshold `δ_m` for phrase normalization (§3.1).
    pub delta_m: f64,
    /// Category-link threshold `δ_g = 0.3` (§3.2).
    pub delta_g: f64,
    /// Minimum subtitle token length `L_l` for event candidates (the paper
    /// uses 6 Chinese characters; we count tokens).
    pub subtitle_min_tokens: usize,
    /// Maximum subtitle token length `L_h` (paper: 20).
    pub subtitle_max_tokens: usize,
    /// Minimum sibling count for Common Suffix Discovery to emit a parent.
    pub csd_min_children: usize,
    /// Minimum group size for Common Pattern Discovery to emit a topic.
    pub cpd_min_events: usize,
    /// Minimum support (click mass) for derived topics ("filter out phrases
    /// that have not been searched by a certain number of users").
    pub topic_min_support: f64,
    /// Percentile of positive-pair distances used as the correlate
    /// distance threshold.
    pub correlate_threshold_percentile: f64,
    /// Seed for all learned components.
    pub seed: u64,
    /// Worker threads for the execute phase of attention mining (`0` and
    /// `1` both run sequentially). Output is byte-identical for every
    /// value: parallelism changes wall-clock, never the ontology.
    pub threads: usize,
}

impl GiantConfig {
    /// This configuration with `threads` set to the measured throughput
    /// sweet spot: the machine's hardware parallelism.
    ///
    /// `BENCH_pipeline.json` (per-stage timings) shows the parallel stages
    /// peak at the hardware thread count and regressed beyond it before
    /// `giant-exec` clamped worker counts — on a 2-vCPU container, 4
    /// requested workers ran at 0.91× the 1-thread baseline while 2 ran at
    /// 1.06×. The clamp makes larger values safe (they degrade to the
    /// hardware count) but never useful, so this is the default cap for
    /// anything long-running (drivers, benches).
    pub fn auto_threads(self) -> Self {
        Self {
            threads: giant_exec::hardware_threads(),
            ..self
        }
    }
}

impl Default for GiantConfig {
    fn default() -> Self {
        Self {
            cluster: ClusterConfig {
                delta_v: 0.03,
                ..ClusterConfig::default()
            },
            delta_m: 0.6,
            delta_g: 0.3,
            subtitle_min_tokens: 3,
            subtitle_max_tokens: 12,
            csd_min_children: 2,
            cpd_min_events: 2,
            topic_min_support: 2.0,
            correlate_threshold_percentile: 0.6,
            seed: 42,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = GiantConfig::default();
        assert_eq!(c.delta_g, 0.3); // §3.2: "we set δ_g = 0.3"
        assert!(c.delta_m > 0.0 && c.delta_m < 1.0);
        assert!(c.subtitle_min_tokens < c.subtitle_max_tokens);
    }
}
