//! `build_cold` — the offline full build.
//!
//! A scaled corpus (independent tile worlds concatenated) is mined from
//! scratch by `giant::mining::run_pipeline`, again and again. `graph`,
//! `core`, `text` and `exec` do nearly all the work; `net`, `incr` and the
//! WAL do none, so a mining-kernel change must show here and nowhere else.
//!
//! Reps run at the hardware thread count, except the first, which runs at
//! `threads = 1`: the reference every other rep's ontology dump must
//! equal byte for byte. The traced run makes every fourth rep a
//! single-thread one, for the executor's speed-up.

use super::{mean_span_s, overhead_pct, Cx, Outcome};
use crate::fixture::{dump_fingerprint, mining_config, repeat_setup, CLICKS, WORLD_SEED};
use crate::span::totals_by_name;
use crate::stats::median_of;
use giant::adapter::{GiantSetup, ModelTrainConfig};
use giant::data::{tile_config, WorldConfig};
use giant::graph::plan::plan_clusters;
use giant::incr::union_input;
use giant::mining::pipeline::PipelineInput;
use giant::mining::train::build_cluster_qtig;
use giant::mining::{decode_tokens, run_pipeline, GiantConfig, GiantModels};
use giant::ontology::OntologySnapshot;
use giant::schema::{Schema, Validator};
use std::time::Instant;

/// Tile worlds in the corpus (1416 documents each; 108 in a smoke run).
const TILES: usize = 3;

struct Inputs {
    input: PipelineInput,
    models: GiantModels,
}

fn setup(cx: &mut Cx) -> Inputs {
    let base = if cx.smoke {
        WorldConfig::tiny()
    } else {
        WorldConfig::experiment()
    };
    let base = WorldConfig {
        seed: WORLD_SEED,
        ..base
    };
    let (input, _) = cx.rec.span("data.generate", |_| {
        let stream = GiantSetup::scaled_corpus_stream(base, &CLICKS, TILES);
        let batch = stream.as_one_batch();
        union_input(stream.categories, stream.annotator, &[batch])
    });
    // Models are tile-agnostic (the domain templates repeat): train on
    // tile 0 alone.
    let (models, _) = cx.rec.span("core.train", |_| {
        GiantSetup::generate_with(tile_config(&base, 0), &CLICKS)
            .train_models(&ModelTrainConfig::small())
            .0
    });
    Inputs { input, models }
}

/// Runs the workload.
pub fn run(cx: &mut Cx) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = repeat_setup(|_| setup(cx));
    let Inputs { input, models } = &inputs;
    let docs = input.docs.len() as f64;
    let auto = mining_config();
    let single = GiantConfig { threads: 1, ..auto };

    // Measured phase: reps of identical work until the time is up (at
    // least five at the hardware thread count).
    let traced = cx.trace;
    let deadline = cx.deadline(if traced { 0.5 } else { 1.0 });
    let (mut auto_s, mut single_s) = (Vec::new(), Vec::new());
    let (mut armed_s, mut disarmed_s) = (Vec::new(), Vec::new());
    let mut hashes = Vec::new();
    let mut last = None;
    let mut rep = 0usize;
    while Instant::now() < deadline || auto_s.len() < 5 {
        let is_single = rep == 0 || (traced && rep.is_multiple_of(4));
        let armed = traced && rep % 2 == 1;
        cx.rec.set_armed(armed);
        cx.rec.next_op();
        let cfg = if is_single { &single } else { &auto };
        let (output, secs) = cx
            .rec
            .span("core.run_pipeline", |_| run_pipeline(input, models, cfg));
        cx.rec.set_armed(traced);
        if is_single {
            single_s.push(secs);
        } else {
            auto_s.push(secs);
            if armed {
                armed_s.push(secs);
            } else {
                disarmed_s.push(secs);
            }
        }
        hashes.push(dump_fingerprint(&output.ontology));
        last = Some(output);
        rep += 1;
    }
    let output = last.expect("at least one rep ran");
    let schema = Schema::builtin();

    out.attempted = rep as u64;
    out.check(
        "every rep's ontology dump equals the threads=1 reference",
        hashes.windows(2).all(|w| w[0] == w[1]),
    );
    out.check(
        "the builtin schema validates the built ontology",
        Validator::new(&schema).validate(&output.ontology).is_ok(),
    );

    let us = |v: &[f64]| v.iter().map(|s| s * 1e6).collect::<Vec<f64>>();
    out.put_summary("setup_s", setup_s);
    // Docs per second at the median rep: a stall in one rep (the box is
    // shared) must not move the throughput of the others.
    out.put("work_per_s", docs / median_of(&auto_s));
    out.put_median("op_p50_us", &us(&auto_s));
    if !traced {
        return out;
    }

    // Per-layer attribution, from outside: the benchmark replays the
    // mining kernels through their public entry points, one span each,
    // against a threads=1 build of the same input.
    let stopwords = &input.annotator.stopwords;
    cx.rec.next_op();
    let (reference, pipeline_s) = cx.rec.span("core.reference_build", |_| {
        run_pipeline(input, models, &single)
    });
    let (plan, _) = cx.rec.span("graph.plan", |_| {
        plan_clusters(&input.click_graph, stopwords, &single.cluster)
    });
    cx.rec.span("core.kernels", |rec| {
        for item in &plan.items {
            let queries: Vec<String> = item
                .cluster
                .queries
                .iter()
                .map(|(q, _)| input.click_graph.query_text(*q).to_owned())
                .collect();
            let titles: Vec<String> = item
                .cluster
                .docs
                .iter()
                .filter_map(|(d, _)| input.docs.get(d.index()).map(|doc| doc.title.clone()))
                .collect();
            if titles.is_empty() {
                continue;
            }
            let (qtig, _) = rec.span("core.qtig", |_| {
                build_cluster_qtig(&input.annotator, &queries, &titles)
            });
            let (positives, _) = rec.span("core.gctsp_infer", |_| {
                models.phrase_model.predict_positive_nodes(&qtig)
            });
            rec.span("core.decode", |_| {
                std::hint::black_box(decode_tokens(&qtig, &positives))
            });
        }
    });
    let mut texts = 0usize;
    let (_, annotate_s) = cx.rec.span("text.annotate", |_| {
        for doc in &input.docs {
            std::hint::black_box(input.annotator.annotate(&doc.title));
        }
        for q in 0..input.click_graph.n_queries() {
            let text = input
                .click_graph
                .query_text(giant::graph::QueryId(q as u32));
            std::hint::black_box(input.annotator.annotate(text));
        }
        texts = input.docs.len() + input.click_graph.n_queries();
    });
    let (_, freeze_s) = cx.rec.span("ontology.freeze", |_| {
        std::hint::black_box(OntologySnapshot::freeze(&reference.ontology))
    });
    let (valid, validate_s) = cx.rec.span("schema.validate", |_| {
        Validator::new(&schema)
            .validate(&reference.ontology)
            .is_ok()
    });
    out.check("the builtin schema validates the reference build", valid);

    let by_name = totals_by_name(cx.rec.spans());
    let self_s = |name: &str| by_name.get(name).map_or(0.0, |t| t.self_s);
    let kernels = ["graph.plan", "core.qtig", "core.gctsp_infer", "core.decode"];
    let kernel_s: f64 = kernels.iter().map(|k| self_s(k)).sum();
    let stats = reference.ontology.stats();
    out.put("data.generate_s", mean_span_s(&cx.rec, "data.generate"));
    out.put("text.annotate_s", annotate_s);
    out.put("text.annotated_texts", texts as f64);
    out.put("graph.plan_s", self_s("graph.plan"));
    out.put("graph.clusters", plan.items.len() as f64);
    out.put("graph.owned_queries", plan.owned_queries() as f64);
    out.put("core.qtig_s", self_s("core.qtig"));
    out.put("core.gctsp_infer_s", self_s("core.gctsp_infer"));
    out.put("core.decode_s", self_s("core.decode"));
    out.put("core.run_pipeline_s", pipeline_s);
    out.put("core.unattributed_s", pipeline_s - kernel_s);
    out.put(
        "core.clusters_mined",
        reference.cache_stats.clusters_mined as f64,
    );
    out.put(
        "exec.speedup_auto_vs_1",
        median_of(&single_s) / median_of(&auto_s),
    );
    out.put("ontology.freeze_s", freeze_s);
    out.put("ontology.nodes", stats.total_nodes() as f64);
    out.put("ontology.edges", stats.total_edges() as f64);
    out.put(
        "ontology.dump_bytes",
        giant::ontology::io::dump(&reference.ontology).len() as f64,
    );
    out.put("schema.validate_s", validate_s);
    out.put(
        "bench.trace_overhead_pct",
        overhead_pct(&armed_s, &disarmed_s),
    );
    out
}
