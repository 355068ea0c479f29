//! Integration of the applications (§4) on top of a real pipeline output,
//! all consuming the same constructed ontology through the versioned
//! `OntologyService`: story trees, query understanding, tagging and the
//! feed simulator.

use giant::adapter::{build_serving, GiantSetup, ModelTrainConfig, ServingBuild};
use giant::apps::incremental::DurabilityConfig;
use giant::apps::recommend::{simulate_feed, FeedSimConfig, TagStrategy};
use giant::apps::serving::{ServeRequest, ServeResponse};
use giant::apps::storytree::retrieve_related;
use giant::data::WorldConfig;
use giant::mining::GiantConfig;
use giant::ontology::NodeKind;
use std::sync::OnceLock;

struct Fixture {
    setup: GiantSetup,
    output: giant::mining::GiantOutput,
    serving: ServingBuild,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let setup = GiantSetup::generate(WorldConfig::tiny());
        let (models, _) = setup.train_models(&ModelTrainConfig::small());
        let output = setup.run_pipeline(&models, &GiantConfig::default());
        let serving = build_serving(&setup, &output);
        Fixture {
            setup,
            output,
            serving,
        }
    })
}

#[test]
fn story_tree_from_mined_events() {
    let f = fixture();
    let resources = f.serving.service.resources();
    let events = &resources.stories;
    assert!(!events.is_empty(), "pipeline mined no events");
    let seed_idx = (0..events.len())
        .max_by_key(|&i| retrieve_related(&events[i], events).len())
        .unwrap();
    let ServeResponse::StoryTree(tree) = f
        .serving
        .service
        .serve(&ServeRequest::StoryTree { seed: events[seed_idx].node })
        .expect("seed is a mined event")
    else {
        panic!("StoryTree answered with a different kind")
    };
    assert!(tree.n_events() >= 1);
    // Events sorted by day, every event in exactly one branch.
    let days: Vec<u32> = tree.events.iter().map(|e| e.day).collect();
    let mut sorted = days.clone();
    sorted.sort_unstable();
    assert_eq!(days, sorted);
    let mut covered: Vec<usize> = tree.branches.iter().flatten().copied().collect();
    covered.sort_unstable();
    assert_eq!(covered, (0..tree.n_events()).collect::<Vec<_>>());
    // Rendering is non-empty and mentions a day marker.
    assert!(tree.render().contains("[day"));
    // An unknown seed is a typed error, not a panic.
    assert!(f
        .serving
        .service
        .serve(&ServeRequest::StoryTree { seed: giant::ontology::NodeId(u32::MAX) })
        .is_err());
}

#[test]
fn query_understanding_on_constructed_ontology() {
    let f = fixture();
    let snapshot = &f.serving.snapshot;
    let serve_conceptualize = |query: String| {
        let ServeResponse::Conceptualize(u) = f
            .serving
            .service
            .serve(&ServeRequest::Conceptualize { query })
            .expect("Conceptualize cannot fail")
        else {
            panic!("Conceptualize answered with a different kind")
        };
        u
    };
    // A concept query: find a mined concept with entity children.
    let with_children = f
        .output
        .mined_of_kind(NodeKind::Concept)
        .into_iter()
        .find(|m| {
            snapshot
                .children(m.node)
                .iter()
                .any(|&c| snapshot.node(c).kind == NodeKind::Entity)
        });
    if let Some(m) = with_children {
        let u = serve_conceptualize(format!("best {}", m.tokens.join(" ")));
        assert_eq!(u.concept, Some(m.node));
        assert!(!u.rewrites.is_empty(), "expected query rewrites");
        for r in &u.rewrites {
            assert!(r.starts_with("best "));
        }
    }
    // An entity query over a correlate-connected entity, through both the
    // Conceptualize and the dedicated Recommend request kinds.
    let entity_with_correlates = f
        .setup
        .world
        .entities
        .iter()
        .map(|e| e.tokens.join(" "))
        .find(|s| {
            snapshot
                .find(NodeKind::Entity, s)
                .map(|n| !snapshot.ranked_correlates(n).0.is_empty())
                .unwrap_or(false)
        });
    if let Some(surface) = entity_with_correlates {
        let u = serve_conceptualize(format!("{surface} review"));
        assert!(u.entity.is_some());
        assert!(!u.recommendations.is_empty());
        let ServeResponse::Recommend(r) = f
            .serving
            .service
            .serve(&ServeRequest::Recommend { query: format!("{surface} review") })
            .expect("Recommend cannot fail")
        else {
            panic!("Recommend answered with a different kind")
        };
        assert_eq!(r.entity, u.entity);
        assert_eq!(r.items, u.recommendations);
    }
}

#[test]
fn feed_simulation_with_ground_truth_tags() {
    let f = fixture();
    let docs = giant::apps::ground_truth_tags(&f.setup.world, &f.setup.corpus, &|kind, id| {
        giant::ontology::NodeId((kind.index() * 100_000 + id) as u32)
    });
    let cfg = FeedSimConfig {
        n_users: 60,
        ..FeedSimConfig::default()
    };
    let all = simulate_feed(&f.setup.world, &f.setup.corpus, &docs, &cfg, TagStrategy::AllTags);
    let base = simulate_feed(
        &f.setup.world,
        &f.setup.corpus,
        &docs,
        &cfg,
        TagStrategy::CategoryEntity,
    );
    assert!(all.impressions > 0);
    assert!(
        all.avg_ctr > base.avg_ctr,
        "all-tags {:.2} must beat category+entity {:.2}",
        all.avg_ctr,
        base.avg_ctr
    );
}

#[test]
fn derived_nodes_have_valid_structure() {
    let f = fixture();
    let o = &*f.serving.snapshot;
    // Every topic (CPD output) must isA-parent at least one event and
    // involve a concept whose phrase is contained in the topic phrase.
    for t in o.nodes_of_kind(NodeKind::Topic) {
        let children = o.children(t.id);
        assert!(
            children
                .iter()
                .any(|&c| o.node(c).kind == NodeKind::Event),
            "topic {:?} has no event instances",
            t.phrase.surface()
        );
        let involved = o.involved_in(t.id);
        assert!(
            involved
                .iter()
                .any(|&c| o.node(c).kind == NodeKind::Concept),
            "topic {:?} involves no concept",
            t.phrase.surface()
        );
    }
    // CSD parents: child phrase ends with parent phrase.
    for c in o.nodes_of_kind(NodeKind::Concept) {
        for &child in o.children(c.id) {
            let child_node = o.node(child);
            if child_node.kind == NodeKind::Concept {
                assert!(
                    child_node.phrase.has_proper_suffix(&c.phrase),
                    "CSD edge violates suffix rule: {:?} -> {:?}",
                    c.phrase.surface(),
                    child_node.phrase.surface()
                );
            }
        }
    }
}

#[test]
fn service_versioning_over_pipeline_worlds() {
    // Publish a second pipeline build into the same service and check the
    // version counter + snapshot swap semantics on real data.
    let f = fixture();
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let output = setup.run_pipeline(&models, &GiantConfig::default());
    let fresh = build_serving(&setup, &output);
    assert_eq!(fresh.service.version(), 1);
    let v2 = fresh.service.publish(
        (*f.serving.snapshot).clone(),
        (*f.serving.service.resources()).clone(),
    );
    assert_eq!(v2, 2);
    assert_eq!(fresh.service.version(), 2);
    // The republished frame serves the same answers as the original service.
    let q = "best phones".to_owned();
    let a = format!("{:?}", fresh.service.serve(&ServeRequest::Conceptualize { query: q.clone() }));
    let b = format!("{:?}", f.serving.service.serve(&ServeRequest::Conceptualize { query: q }));
    assert_eq!(a, b);
}

/// A fresh, empty durability directory for one test.
fn durable_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// What a process restarted at this instant finds on disk: a copy of the
/// durability directory's checkpoint and log.
fn copy_durable_files(from: &DurabilityConfig, to: &DurabilityConfig) {
    std::fs::create_dir_all(&to.dir).unwrap();
    std::fs::copy(from.checkpoint_path(), to.checkpoint_path()).unwrap();
    std::fs::copy(from.wal_path(), to.wal_path()).unwrap();
}

#[test]
fn incremental_driver_checkpoints_on_publish_and_restores_mid_stream() {
    // Durable loop checkpointing every publish (`checkpoint_every: 1`):
    // a "restarted process" (a driver restored from the files the first
    // one left) folds the remaining batch and must converge
    // byte-identically with the driver that never restarted — and its
    // restored service must answer byte-identically at the checkpointed
    // version, immediately.
    use giant::apps::incremental::IncrementalDriver;
    use giant::incr::IncrementalState;

    let f = fixture();
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let stream = setup.corpus_stream();
    let batches = stream.split(&[0.6, 0.85]);
    let state = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        models.clone(),
        GiantConfig::default(),
    );
    let base = (*f.serving.service.resources()).clone();
    let (mut driver, _) =
        IncrementalDriver::bootstrap(state, base, batches[0].clone(), 2).unwrap();
    let cfg = DurabilityConfig {
        checkpoint_every: 1,
        ..DurabilityConfig::new(durable_dir("giant-driver-ckpt-test"))
    };
    driver.enable_durability(cfg.clone()).unwrap();

    let report = driver.ingest(batches[1].clone()).unwrap();
    assert_eq!(report.version, 2);
    assert!(report.checkpoint_secs.is_some(), "every publish must checkpoint");
    assert!(cfg.checkpoint_path().exists(), "checkpoint file must exist after ingest");

    // "Restart": restore from the files with the same annotator + models.
    let restart = DurabilityConfig {
        dir: durable_dir("giant-driver-ckpt-test-restart"),
        ..cfg.clone()
    };
    copy_durable_files(&cfg, &restart);
    let (mut restored, restore) = IncrementalDriver::restore_durable(
        restart.clone(),
        stream.annotator.clone(),
        models,
        2,
    )
    .unwrap();
    assert_eq!(restore.replayed, 0, "the checkpoint already holds every logged ingest");
    assert_eq!(restored.service().version(), 2, "restore resumes the version sequence");
    assert_eq!(restored.state().folds(), driver.state().folds());
    assert_eq!(
        restored.state().cache_sizes(),
        driver.state().cache_sizes(),
        "warm caches must survive the restart"
    );
    // The restored frame answers byte-identically before any new fold.
    let probe = ServeRequest::Conceptualize { query: "best phones".into() };
    assert_eq!(
        format!("{:?}", driver.service().serve(&probe)),
        format!("{:?}", restored.service().serve(&probe)),
    );

    // Both drivers fold the final batch; live ontologies must agree byte
    // for byte (restored == never-restarted).
    driver.ingest(batches[2].clone()).unwrap();
    let report = restored.ingest(batches[2].clone()).unwrap();
    assert_eq!(report.version, 3);
    // Durability survives the restart it exists for: the restored driver
    // keeps checkpointing every publish.
    assert!(
        report.checkpoint_secs.is_some(),
        "restored driver must keep checkpointing on publish"
    );
    assert_eq!(
        giant::ontology::io::dump(driver.state().ontology()),
        giant::ontology::io::dump(restored.state().ontology()),
        "restored driver diverged from the never-restarted one"
    );
    assert_eq!(
        format!("{:?}", driver.service().serve(&probe)),
        format!("{:?}", restored.service().serve(&probe)),
    );
    std::fs::remove_dir_all(&cfg.dir).ok();
    std::fs::remove_dir_all(&restart.dir).ok();
}

#[test]
fn failed_checkpoint_carries_the_report_and_does_not_lose_the_batch() {
    // Regression: a checkpoint failure fires *after* the fold has
    // published, so the error must carry the successful `IngestReport`
    // (the publish stands) rather than inviting the caller to retry and
    // double-fold the batch. The WAL is not rotated, so the batch stays
    // logged and a restore replays it.
    use giant::apps::incremental::{IncrementalDriver, IngestError};
    use giant::incr::{wal::encode_batch, IncrementalState, SyncMode, Wal};

    let f = fixture();
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let stream = setup.corpus_stream();
    let batches = stream.split(&[0.6, 0.85]);
    let state = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        models.clone(),
        GiantConfig::default(),
    );
    let base = (*f.serving.service.resources()).clone();
    let (mut driver, _) =
        IncrementalDriver::bootstrap(state, base, batches[0].clone(), 2).unwrap();
    let cfg = DurabilityConfig {
        checkpoint_every: 1,
        ..DurabilityConfig::new(durable_dir("giant-driver-failed-ckpt-test"))
    };
    driver.enable_durability(cfg.clone()).unwrap();

    // A directory where the checkpoint's temp file goes: the write fails,
    // the WAL append, fold and publish do not.
    let obstacle = cfg.dir.join("state.ckpt.tmp-ckpt");
    std::fs::create_dir(&obstacle).unwrap();
    let folds_before = driver.state().folds();
    let err = driver.ingest(batches[1].clone()).unwrap_err();
    let IngestError::Checkpoint { report, source: _ } = err else {
        panic!("expected IngestError::Checkpoint, got a different variant")
    };
    // The report describes the ingest that *succeeded*: version 2 is
    // published and being served, the fold counter advanced exactly once.
    assert_eq!(report.version, 2);
    assert!(report.wal_secs.is_some(), "the batch was logged before the fold");
    assert_eq!(driver.service().version(), 2, "the publish stands");
    assert_eq!(driver.state().folds(), folds_before + 1, "folded exactly once");
    // The WAL was not rotated: the entry is still logged.
    let (_, logged) = Wal::open(&cfg.wal_path(), SyncMode::None).unwrap();
    assert_eq!(logged.len(), 1, "rotation follows only a successful checkpoint");
    assert_eq!(logged[0].seq, 1);
    assert_eq!(
        encode_batch(&logged[0].batch).unwrap(),
        encode_batch(&batches[1]).unwrap()
    );
    std::fs::remove_dir(&obstacle).unwrap();

    // A control driver that never failed, over the same stream.
    let state2 = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        setup.train_models(&ModelTrainConfig::small()).0,
        GiantConfig::default(),
    );
    let base2 = (*f.serving.service.resources()).clone();
    let (mut control, _) =
        IncrementalDriver::bootstrap(state2, base2, batches[0].clone(), 2).unwrap();
    control.ingest(batches[1].clone()).unwrap();
    let probe = ServeRequest::Conceptualize { query: "best phones".into() };

    // A process restarted right after the failure: the checkpoint on disk
    // predates the batch, the log holds it, and replay folds it once.
    let restart = DurabilityConfig {
        dir: durable_dir("giant-driver-failed-ckpt-test-restart"),
        ..cfg.clone()
    };
    copy_durable_files(&cfg, &restart);
    let (mut restored, restore) = IncrementalDriver::restore_durable(
        restart.clone(),
        stream.annotator.clone(),
        models,
        2,
    )
    .unwrap();
    assert_eq!(restore.replayed, 1, "the un-checkpointed batch replays from the log");
    assert_eq!(restored.service().version(), 2);
    assert_eq!(
        giant::ontology::io::dump(restored.state().ontology()),
        giant::ontology::io::dump(control.state().ontology()),
        "the replayed state diverged from the never-failing one"
    );

    // The batch is not lost and must not be retried: the *next* batch
    // folds normally once the obstacle is gone, in the failed driver and
    // in the restored one, and both converge with the control.
    control.ingest(batches[2].clone()).unwrap();
    for (what, d) in [("failed", &mut driver), ("restored", &mut restored)] {
        let report = d.ingest(batches[2].clone()).unwrap();
        assert_eq!(report.version, 3, "{what}");
        assert!(report.checkpoint_secs.is_some(), "{what}");
        assert_eq!(d.state().folds(), folds_before + 2, "{what}");
        assert_eq!(
            giant::ontology::io::dump(d.state().ontology()),
            giant::ontology::io::dump(control.state().ontology()),
            "{what}: checkpoint failure perturbed the fold stream"
        );
        assert_eq!(
            format!("{:?}", d.service().serve(&probe)),
            format!("{:?}", control.service().serve(&probe)),
            "{what}"
        );
    }
    std::fs::remove_dir_all(&cfg.dir).ok();
    std::fs::remove_dir_all(&restart.dir).ok();
}

#[test]
fn incremental_driver_streams_batches_into_fresh_versions() {
    // The end-to-end "log stream in, fresh versioned answers out" loop:
    // bootstrap the driver from the first half of a tiny world's corpus
    // stream, then ingest the remaining batches and watch versions and
    // delta stats behave.
    use giant::apps::incremental::IncrementalDriver;
    use giant::incr::IncrementalState;

    let f = fixture();
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let stream = setup.corpus_stream();
    let all_batches = stream.split(&[0.55, 0.8]);
    let mut batches = all_batches.clone().into_iter();
    let state = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        models,
        GiantConfig::default(),
    );
    // Base resources: borrow the fixture's trained serving models — the
    // driver refreshes all mined metadata per publish anyway.
    let base = (*f.serving.service.resources()).clone();
    let (mut driver, boot) =
        IncrementalDriver::bootstrap(state, base, batches.next().unwrap(), 2).unwrap();
    assert_eq!(boot.version, 1);
    assert!(boot.delta.added > 0, "bootstrap adds every node");
    assert_eq!(boot.delta.removed, 0);

    let service = std::sync::Arc::clone(driver.service());
    let before = service.version();
    for batch in batches {
        let report = driver.ingest(batch).unwrap();
        assert_eq!(report.version, service.version());
        let nodes = driver.state().ontology().n_nodes();
        assert!(nodes > 0, "live ontology must never be empty mid-stream");
    }
    assert_eq!(service.version(), before + 2);

    // The final published frame answers from the full-corpus ontology:
    // byte-identical to a batch rebuild over the union of the batches (the
    // split may defer clicks across batches, so the union — not the
    // original stream order — is the reference).
    let union = giant::incr::union_input(
        stream.categories.clone(),
        stream.annotator.clone(),
        &all_batches,
    );
    let (models2, _) = setup.train_models(&ModelTrainConfig::small());
    let full = giant_core::run_pipeline(&union, &models2, &GiantConfig::default());
    assert_eq!(
        giant::ontology::io::dump(&full.ontology),
        giant::ontology::io::dump(driver.state().ontology()),
        "driver's live ontology must converge to the batch rebuild"
    );
    // And the service serves from it.
    let r = service.serve(&ServeRequest::Conceptualize {
        query: "best phones".into(),
    });
    assert!(r.is_ok());
}
