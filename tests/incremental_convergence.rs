//! The incremental subsystem's headline contract: for **any** split of a
//! corpus into an initial batch plus arbitrary delta batches, the
//! incrementally maintained ontology (dirty-cluster re-mining + delta
//! application) is **byte-identical** — via `giant::ontology::io::dump` —
//! to a full `run_pipeline` over the union of the batches, at every thread
//! count.
//!
//! Two proof layers:
//!
//! * proptests over random cut points of random tiny worlds (different
//!   world seeds change the corpus, the click topology and the models);
//! * a golden on the seed-42 experiment world (the exact world every other
//!   golden in this repo pins), split 95/5 like the throughput bench.

use giant::adapter::{GiantSetup, ModelTrainConfig};
use giant::data::WorldConfig;
use giant::incr::{union_input, Checkpoint, DeltaBatch, IncrementalState};
use giant::mining::GiantConfig;
use giant::ontology::binio::SectionFile;
use proptest::prelude::*;

mod common;

/// Folds `batches` incrementally and returns the live ontology's dump plus
/// the fold reports' cache stats for inspection.
fn incremental_dump(
    setup: &GiantSetup,
    models: &giant::mining::GiantModels,
    cfg: &GiantConfig,
    batches: Vec<DeltaBatch>,
) -> (String, usize, usize) {
    let stream = setup.corpus_stream();
    let mut state = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        models.clone(),
        *cfg,
    );
    // Cache stats of the *last* fold (the delta; the bootstrap fold
    // necessarily mines everything).
    let (mut reused, mut mined) = (0usize, 0usize);
    for batch in batches {
        let report = state.fold(batch).expect("split batches always validate");
        reused = report.cache.clusters_reused;
        mined = report.cache.clusters_mined;
    }
    (
        giant::ontology::io::dump(state.ontology()),
        reused,
        mined,
    )
}

/// The full-rebuild reference over the union of the same batches.
fn full_dump(
    setup: &GiantSetup,
    models: &giant::mining::GiantModels,
    cfg: &GiantConfig,
    batches: &[DeltaBatch],
) -> String {
    let stream = setup.corpus_stream();
    let input = union_input(stream.categories.clone(), stream.annotator.clone(), batches);
    let output = giant_core::run_pipeline(&input, models, cfg);
    giant::ontology::io::dump(&output.ontology)
}

fn check_convergence(world_seed: u64, cuts: &[f64], threads: usize) {
    let setup = GiantSetup::generate(WorldConfig {
        seed: world_seed,
        ..WorldConfig::tiny()
    });
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let cfg = GiantConfig {
        threads,
        ..GiantConfig::default()
    };
    let batches = setup.corpus_stream().split(cuts);
    let full = full_dump(&setup, &models, &cfg, &batches);
    let (incr, _, _) = incremental_dump(&setup, &models, &cfg, batches);
    if full != incr {
        let at = common::first_divergence(&full, &incr, "full rebuild", "incremental");
        panic!(
            "convergence violated (world_seed={world_seed}, cuts={cuts:?}, \
             threads={threads}); first divergence at {at}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random worlds × random 2-way or 3-way splits, sequential mining.
    #[test]
    fn incremental_equals_full_rebuild_on_random_splits(
        world_seed in 0u64..1_000,
        first in 0.05f64..0.9,
        second_frac in 0.0f64..1.0,
    ) {
        // Derive an optional second cut above the first.
        let cuts = if second_frac > 0.5 {
            let second = first + (1.0 - first) * (second_frac - 0.5);
            vec![first, second]
        } else {
            vec![first]
        };
        check_convergence(world_seed, &cuts, 1);
    }

    /// Thread-count invariance of the incremental path itself: warm caches
    /// must be consumed identically at any worker count. Fewer cases than
    /// the split test — each case runs two full convergence checks.
    #[test]
    fn incremental_is_thread_count_invariant(
        world_seed in 0u64..1_000,
        cut in 0.2f64..0.9,
        threads in 2usize..8,
    ) {
        check_convergence(world_seed, &[cut], threads);
    }
}

/// Many tiny batches: the cache survives long fold chains, not just one
/// delta.
#[test]
fn long_fold_chain_converges() {
    check_convergence(7, &[0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 0.95], 1);
}

/// Folds `batches`, checkpointing after batch `restart_after` and pushing
/// the checkpoint through the full binary container (bytes, checksums and
/// all — not just an in-memory clone) before folding the rest on the
/// restored state. Returns the restored state's final dump.
fn restored_dump(
    setup: &GiantSetup,
    models: &giant::mining::GiantModels,
    cfg: &GiantConfig,
    batches: &[DeltaBatch],
    restart_after: usize,
) -> String {
    let stream = setup.corpus_stream();
    let mut state = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        models.clone(),
        *cfg,
    );
    for batch in &batches[..=restart_after] {
        state.fold(batch.clone()).expect("pre-restart batches fold");
    }
    // "Process restart": serialise → bytes → parse → restore.
    let mut file = SectionFile::new();
    Checkpoint::write_state_sections(&state, &mut file);
    drop(state);
    let reread = SectionFile::from_bytes(&file.to_bytes()).expect("container round trip");
    let mut state = Checkpoint::from_sections(&reread)
        .expect("checkpoint sections parse")
        .restore(stream.annotator.clone(), models.clone());
    for batch in &batches[restart_after + 1..] {
        state.fold(batch.clone()).expect("post-restart batches fold");
    }
    giant::ontology::io::dump(state.ontology())
}

/// The restore contract of the checkpoint subsystem: a state restored
/// from a binary checkpoint mid-stream folds the remaining deltas to a
/// byte-identical ontology — against the never-restarted fold chain *and*
/// the full rebuild — at 1, 2 and 4 threads.
#[test]
fn restored_state_converges_byte_identically_at_1_2_4_threads() {
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let cuts = [0.5, 0.75];
    for threads in [1usize, 2, 4] {
        let cfg = GiantConfig {
            threads,
            ..GiantConfig::default()
        };
        let batches = setup.corpus_stream().split(&cuts);
        let full = full_dump(&setup, &models, &cfg, &batches);
        let (never_restarted, _, _) =
            incremental_dump(&setup, &models, &cfg, batches.clone());
        assert_eq!(
            never_restarted, full,
            "baseline convergence violated (threads={threads})"
        );
        for restart_after in 0..batches.len() - 1 {
            let restored = restored_dump(&setup, &models, &cfg, &batches, restart_after);
            assert_eq!(
                restored, never_restarted,
                "restored state diverged (threads={threads}, restart_after={restart_after})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Restore-mid-stream over random worlds and random cut points: the
    /// checkpointed-and-restored fold chain equals the full rebuild.
    #[test]
    fn restored_state_converges_on_random_splits(
        world_seed in 0u64..1_000,
        first in 0.1f64..0.7,
        second_off in 0.05f64..0.25,
    ) {
        let setup = GiantSetup::generate(WorldConfig {
            seed: world_seed,
            ..WorldConfig::tiny()
        });
        let (models, _) = setup.train_models(&ModelTrainConfig::small());
        let cfg = GiantConfig::default();
        let batches = setup.corpus_stream().split(&[first, (first + second_off).min(0.95)]);
        let full = full_dump(&setup, &models, &cfg, &batches);
        let restored = restored_dump(&setup, &models, &cfg, &batches, 0);
        prop_assert_eq!(
            restored, full,
            "restored fold chain diverged (world_seed={}, first={})", world_seed, first
        );
    }
}

/// Folding an explicitly empty batch is a no-op version (identity delta).
#[test]
fn empty_batch_is_an_identity_fold() {
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let stream = setup.corpus_stream();
    let mut state = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        models,
        GiantConfig::default(),
    );
    state.fold(stream.as_one_batch()).unwrap();
    let before = giant::ontology::io::dump(state.ontology());
    let report = state.fold(DeltaBatch::new()).unwrap();
    assert!(report.delta.is_identity(), "empty batch must produce an identity delta");
    assert_eq!(report.cache.clusters_mined, 0, "nothing may be re-mined");
    assert_eq!(report.evicted_walks, 0);
    assert_eq!(giant::ontology::io::dump(state.ontology()), before);
}

/// The golden convergence: seed-42 experiment world (the same world every
/// other golden pins), three delta shapes at 1, 2 and 4 threads:
///
/// * the **positional 95/5 stream split** — a worst-case delta (the
///   generated log appends its uniform noise clicks at the end, so the
///   tail batch touches every component of the click graph). Convergence
///   must hold even though almost nothing is reusable;
/// * the **doc-arrival 95/5 split** — clicks ride with their documents; a
///   tail-of-corpus delta can still legitimately dirty most clusters;
/// * the **new-topics 5% split** — the realistic freshness regime, where
///   the planner must both converge *and* reuse most cached clusters.
///
/// Reuse-rate assertions are deliberately confined to the new-topics
/// shape: on the stream-tail shapes (positional, doc-arrival) evicting
/// most cached walks is *correct* behaviour — the tail touches every
/// component — so asserting reuse there pins an accident of the
/// generator, not a contract (the PR-4 flake note). Stream-tail shapes
/// assert convergence only.
///
/// Ignored in debug builds (the experiment world is a release-scale
/// workload); CI runs it in the release convergence step with
/// `--include-ignored`.
#[test]
#[cfg_attr(debug_assertions, ignore = "experiment-world golden; run in release")]
fn seed42_experiment_world_converges_on_a_5pct_delta() {
    let setup = GiantSetup::generate(WorldConfig::experiment());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let stream = setup.corpus_stream();
    for (shape, batches, want_reuse) in [
        ("positional 95/5", stream.split(&[0.95]), false),
        ("doc-arrival 95/5", stream.split_on_doc_arrival(&[0.95]), false),
        ("new-topics 5%", stream.split_new_topics(0.05), true),
    ] {
        for threads in [1usize, 2, 4] {
            let cfg = GiantConfig {
                threads,
                ..GiantConfig::default()
            };
            let full = full_dump(&setup, &models, &cfg, &batches);
            let (incr, reused, mined) = incremental_dump(&setup, &models, &cfg, batches.clone());
            if full != incr {
                let at = common::first_divergence(&full, &incr, "full rebuild", "incremental");
                panic!(
                    "seed-42 convergence violated ({shape}, threads={threads}); \
                     first divergence at {at}"
                );
            }
            if want_reuse {
                assert!(
                    reused > mined,
                    "a new-topics 5% delta must reuse more clusters than it re-mines \
                     ({shape}: reused={reused}, mined={mined})"
                );
            }
        }
    }
}

/// Fold validation: the state must reject malformed batches untouched.
#[test]
fn fold_validation_rejects_malformed_batches() {
    use giant::incr::{ClickEvent, FoldError};
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let stream = setup.corpus_stream();
    let mut state = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        models,
        GiantConfig::default(),
    );
    state.fold(stream.as_one_batch()).unwrap();
    let folds_before = state.folds();
    let dump_before = giant::ontology::io::dump(state.ontology());

    // Click to a doc that does not exist yet.
    let mut bad = DeltaBatch::new();
    bad.clicks.push(ClickEvent {
        query: "phantom".into(),
        doc: 1_000_000,
        count: 1.0,
    });
    assert!(matches!(
        state.fold(bad),
        Err(FoldError::ClickToMissingDoc { .. })
    ));

    // Doc id that skips ahead.
    let mut bad = DeltaBatch::new();
    bad.docs.push(giant::mining::DocRecord {
        id: state.input().docs.len() + 7,
        title: "orphan".into(),
        sentences: vec![],
        leaf_category: 0,
        day: 0,
    });
    assert!(matches!(state.fold(bad), Err(FoldError::NonContiguousDoc { .. })));

    // Negative click mass.
    let mut bad = DeltaBatch::new();
    bad.clicks.push(ClickEvent {
        query: "antimatter".into(),
        doc: 0,
        count: -1.0,
    });
    assert!(matches!(state.fold(bad), Err(FoldError::NegativeClicks { .. })));

    // State untouched by the failures.
    assert_eq!(state.folds(), folds_before);
    assert_eq!(giant::ontology::io::dump(state.ontology()), dump_before);
}
