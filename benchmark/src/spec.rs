//! The metric contract: every name, unit and direction the benchmark
//! reports. `BENCHMARK.json` at the repo root lists the same metrics (a
//! self-test compares the two); `README.md` says what each one means per
//! workload and which end-to-end metric a per-layer metric should move.

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Name: letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
        bound,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these (the plain run, `--trace 0`); what the operation is on each
/// workload is in the README.
pub const END_TO_END: &[MetricSpec] = &[
    lower("setup_s", "s", 0.25),
    lower("peak_rss_mib", "MiB", 0.25),
    higher("work_per_s", "1/s", 0.25),
    lower("op_p50_us", "us", 0.25),
];

/// Single layers, measured in the traced run (`--trace 1`) by spans the
/// benchmark puts around its own calls into each layer. No bound. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("data.generate_s", "s", 0.0),
    lower("text.annotate_s", "s", 0.0),
    higher("text.annotated_texts", "count", 0.0),
    lower("graph.plan_s", "s", 0.0),
    higher("graph.clusters", "count", 0.0),
    higher("graph.owned_queries", "count", 0.0),
    lower("graph.walks_evicted", "count", 0.0),
    lower("core.qtig_s", "s", 0.0),
    lower("core.gctsp_infer_s", "s", 0.0),
    lower("core.decode_s", "s", 0.0),
    lower("core.run_pipeline_s", "s", 0.0),
    lower("core.unattributed_s", "s", 0.0),
    lower("core.clusters_mined", "count", 0.0),
    higher("core.clusters_reused", "count", 0.0),
    higher("core.reuse_ratio", "ratio", 0.0),
    higher("exec.speedup_auto_vs_1", "ratio", 0.0),
    lower("ontology.freeze_s", "s", 0.0),
    lower("ontology.delta_diff_s", "s", 0.0),
    lower("ontology.delta_apply_s", "s", 0.0),
    higher("ontology.nodes", "count", 0.0),
    higher("ontology.edges", "count", 0.0),
    lower("ontology.dump_bytes", "bytes", 0.0),
    lower("ontology.ckpt_write_s", "s", 0.0),
    lower("ontology.ckpt_read_s", "s", 0.0),
    lower("ontology.ckpt_bytes", "bytes", 0.0),
    lower("schema.validate_s", "s", 0.0),
    lower("schema.screen_s", "s", 0.0),
    lower("schema.rejections", "count", 0.0),
    lower("incr.wal_append_us_p50", "us", 0.0),
    lower("incr.wal_fsyncs", "count", 0.0),
    lower("incr.wal_bytes", "bytes", 0.0),
    lower("incr.fold_s_p50", "s", 0.0),
    lower("incr.state_ckpt_s", "s", 0.0),
    lower("incr.state_ckpt_bytes", "bytes", 0.0),
    lower("incr.restore_durable_s", "s", 0.0),
    lower("incr.replayed", "count", 0.0),
    lower("apps.serve_us_p50.conceptualize", "us", 0.0),
    lower("apps.serve_us_p50.recommend", "us", 0.0),
    lower("apps.serve_us_p50.tag_document", "us", 0.0),
    lower("apps.serve_us_p50.story_tree", "us", 0.0),
    lower("apps.serve_batch_us_b32", "us", 0.0),
    lower("apps.publish_s", "s", 0.0),
    lower("apps.ingest_ms_p50", "ms", 0.0),
    lower("apps.ingest_ms_p90", "ms", 0.0),
    lower("apps.build_serving_s", "s", 0.0),
    lower("apps.warm_start_ms", "ms", 0.0),
    lower("net.encode_request_us", "us", 0.0),
    lower("net.decode_reply_us", "us", 0.0),
    lower("net.echo_rtt_us_p50", "us", 0.0),
    lower("net.closed_rtt_us_p50.conceptualize", "us", 0.0),
    lower("net.closed_rtt_us_p50.recommend", "us", 0.0),
    lower("net.closed_rtt_us_p50.tag_document", "us", 0.0),
    lower("net.closed_rtt_us_p50.story_tree", "us", 0.0),
    lower("net.overhead_us_p50.conceptualize", "us", 0.0),
    lower("net.overhead_us_p50.recommend", "us", 0.0),
    lower("net.overhead_us_p50.tag_document", "us", 0.0),
    lower("net.overhead_us_p50.story_tree", "us", 0.0),
    lower("net.server_p50_us.conceptualize", "us", 0.0),
    lower("net.server_p50_us.recommend", "us", 0.0),
    lower("net.server_p50_us.tag_document", "us", 0.0),
    lower("net.server_p50_us.story_tree", "us", 0.0),
    lower("net.batches", "count", 0.0),
    higher("net.mean_batch", "count", 0.0),
    higher("net.max_batch", "count", 0.0),
    lower("net.queue_max_depth", "count", 0.0),
    lower("net.shed", "count", 0.0),
    lower("net.p50_us.r1000", "us", 0.0),
    lower("net.p50_us.r4000", "us", 0.0),
    lower("net.p50_us.r16000", "us", 0.0),
    lower("net.p90_us.r4000", "us", 0.0),
    lower("net.p90_us.heavy", "us", 0.0),
    lower("net.p99_us.r1000", "us", 0.0),
    lower("net.p99_us.r4000", "us", 0.0),
    lower("net.p99_us.r16000", "us", 0.0),
    lower("net.p99_us.heavy", "us", 0.0),
    lower("net.p99_us.read_under_ingest", "us", 0.0),
    lower("net.gen_lag_us_p99.r1000", "us", 0.0),
    lower("net.gen_lag_us_p99.r4000", "us", 0.0),
    lower("net.gen_lag_us_p99.r16000", "us", 0.0),
    lower("net.over_50ms", "count", 0.0),
    higher("net.max_rate_in_slo_rps", "1/s", 0.0),
    lower("bench.trace_overhead_pct", "%", 0.0),
];
