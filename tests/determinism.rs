//! Bit-level reproducibility: the whole stack — world generation, model
//! training, pipeline, ontology construction and its plain-text IO — must
//! produce *byte-identical* output for identical seeds. Statistics-level
//! equality (covered in `pipeline_end_to_end`) can mask nondeterministic
//! orderings that IO serialisation exposes; this suite closes that gap and
//! guards the vendored RNG stream, which is frozen by contract
//! (`vendor/rand`).

use giant::adapter::{GiantSetup, ModelTrainConfig};
use giant::data::WorldConfig;
use giant::mining::{run_pipeline, run_pipeline_cached, GiantConfig, GiantOutput, PipelineCaches};
use giant::ontology::NodeKind;

mod common;

/// One fresh end-to-end run at `threads` mining workers, serialised.
fn pipeline_dump_with_threads(threads: usize) -> String {
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let cfg = GiantConfig {
        threads,
        ..GiantConfig::default()
    };
    let output = setup.run_pipeline(&models, &cfg);
    giant::ontology::io::dump(&output.ontology)
}

/// One fresh end-to-end run, serialised.
fn pipeline_dump() -> String {
    pipeline_dump_with_threads(1)
}

#[test]
fn pipeline_ontology_serialization_is_byte_identical_across_runs() {
    let first = pipeline_dump();
    let second = pipeline_dump();
    assert!(!first.is_empty(), "dump produced no output");
    if first != second {
        let diverged = common::first_divergence(&first, &second, "run 1", "run 2");
        panic!("pipeline output is not byte-identical across runs; first divergence at {diverged}");
    }
}

#[test]
fn pipeline_output_is_thread_count_invariant() {
    // The plan → execute → merge architecture promises that worker count
    // changes wall-clock only, never the ontology. 7 is deliberately not a
    // power of two and not a divisor of the work-item count: uneven shard
    // boundaries must not leak into the merge. World generation and model
    // training are thread-independent, so they are built once and only
    // the pipeline re-runs per thread count.
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let dump_at = |threads: usize| {
        let cfg = GiantConfig {
            threads,
            ..GiantConfig::default()
        };
        giant::ontology::io::dump(&setup.run_pipeline(&models, &cfg).ontology)
    };
    let baseline = dump_at(1);
    assert!(!baseline.is_empty(), "dump produced no output");
    for threads in [2, 4, 7] {
        let dump = dump_at(threads);
        if dump != baseline {
            let diverged = common::first_divergence(
                &baseline,
                &dump,
                "threads=1",
                &format!("threads={threads}"),
            );
            panic!("pipeline output depends on thread count; first divergence at {diverged}");
        }
    }
}

#[test]
fn event_elements_are_thread_count_and_cache_invariant() {
    // Role inference for all events runs ahead of the sequential span
    // matching, on `threads` workers, and on the cached path only for cache
    // misses: neither may show in what the events end up with.
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let input = setup.pipeline_input();
    let elements = |out: &GiantOutput| {
        let rows: Vec<_> = out
            .mined
            .iter()
            .map(|m| (m.node, m.trigger.clone(), m.entities.clone(), m.location.clone()))
            .collect();
        (rows, giant::ontology::io::dump(&out.ontology))
    };
    let cfg_at = |threads: usize| GiantConfig {
        threads,
        ..GiantConfig::default()
    };
    let reference = run_pipeline(&input, &models, &cfg_at(1));
    let events: Vec<_> = reference.mined_of_kind(NodeKind::Event);
    assert!(
        events.iter().any(|m| m.trigger.is_some()) && events.iter().any(|m| !m.entities.is_empty()),
        "the seed world mines events with triggers and entities"
    );
    let reference = elements(&reference);
    for threads in [2, 4] {
        let got = elements(&run_pipeline(&input, &models, &cfg_at(threads)));
        assert!(got == reference, "event elements depend on threads={threads}");
    }
    for threads in [1, 2, 4] {
        // Cold caches (every role inferred), then warm (every role a hit).
        let mut caches = PipelineCaches::new();
        for pass in ["cold", "warm"] {
            let got = elements(&run_pipeline_cached(&input, &models, &cfg_at(threads), &mut caches));
            assert!(
                got == reference,
                "cached event elements differ ({pass} caches, threads={threads})"
            );
        }
    }
}

#[test]
fn serialization_round_trip_is_a_fixed_point() {
    // dump → load → dump must reproduce the exact byte stream: guarantees
    // the IO layer itself introduces no ordering or formatting drift.
    let first = pipeline_dump();
    let reloaded = giant::ontology::io::load(&first).expect("load of fresh dump");
    let second = giant::ontology::io::dump(&reloaded);
    assert_eq!(
        first, second,
        "dump→load→dump is not a fixed point; IO serialisation is lossy or order-unstable"
    );
}
