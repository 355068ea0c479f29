//! The schema + interchange contract (DESIGN.md §12), end to end:
//!
//! * the builtin GIANT schema validates what the pipeline, serving and
//!   incremental stacks actually build — with zero rejections on clean
//!   streams;
//! * `dump(import_json(export_json(o))) == dump(o)` **byte-identical**,
//!   in-process, through the committed golden, and through real
//!   `giant-export` / `giant-import` child processes;
//! * the schema-off paths are byte-identical to the pre-schema repo
//!   (seed-42 goldens, 1/2/4 threads);
//! * schema-checked ingestion rejects invalid `DeltaBatch` items with
//!   typed per-item errors while the accepted-path fold stays
//!   byte-identical to the unvalidated run;
//! * malformed / truncated / type-confused JSON yields typed errors,
//!   never a panic (the `wire_fuzz` discipline);
//! * the `ExportSubgraph` wire request is gated off by default and
//!   byte-identical to the in-process export when enabled.
//!
//! Tests marked `#[ignore]` re-run whole pipelines several times; CI's
//! release step runs them via `-- --include-ignored`.

use giant::adapter::{build_serving, GiantSetup, ModelTrainConfig};
use giant::apps::incremental::IncrementalDriver;
use giant::apps::serving::{OntologyService, ServeError, ServeRequest, ServeResponse};
use giant::data::WorldConfig;
use giant::incr::{BatchItem, ClickEvent, IncrementalState, RejectReason};
use giant::mining::pipeline::DocRecord;
use giant::mining::{GiantConfig, GiantOutput};
use giant::net::{NetClient, Server, ServerConfig};
use giant::ontology::{io, NodeId, OntologySnapshot};
use giant::schema::{export_json, import_json, Schema, Validator};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

mod common;

const ONTOLOGY_GOLDEN: &str = include_str!("golden/ontology_seed42.txt");
const SERVING_GOLDEN: &str = include_str!("golden/serving_seed42.txt");
const EXPORT_GOLDEN: &str = include_str!("golden/export_seed42.json");

/// The shared seed-42 tiny world: pipeline output + published serving
/// stack, built once per test binary.
struct Fixture {
    output: GiantOutput,
    service: Arc<OntologyService>,
    snapshot: Arc<OntologySnapshot>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let setup = GiantSetup::generate(WorldConfig::tiny());
        let (models, _) = setup.train_models(&ModelTrainConfig::small());
        let output = setup.run_pipeline(&models, &GiantConfig::default());
        let serving = build_serving(&setup, &output);
        Fixture {
            output,
            service: Arc::new(serving.service),
            snapshot: serving.snapshot,
        }
    })
}

// ---------------------------------------------------------------------------
// The builtin schema describes what the stack actually builds.

#[test]
fn builtin_schema_validates_the_pipeline_ontology() {
    let f = fixture();
    let schema = Schema::builtin();
    if let Err(violations) = Validator::new(&schema).validate(&f.output.ontology) {
        panic!(
            "builtin schema rejected the pipeline's own output: {} violations, first: {}",
            violations.len(),
            violations[0]
        );
    }
}

#[test]
fn frame_export_covers_the_served_snapshot() {
    // The serving-layer export runs every node and edge of the frozen
    // snapshot through the builtin schema — it succeeding at all is the
    // serving half of the validation claim.
    let f = fixture();
    let frame = f.service.frame();
    let ServeResponse::ExportSubgraph(json) = frame
        .serve(&ServeRequest::ExportSubgraph { root: None })
        .expect("full frame export must pass the builtin schema")
    else {
        panic!("ExportSubgraph answered with a different kind")
    };
    // The frame export walks the snapshot's per-kind adjacency, so its
    // edge *order* may differ from `Ontology::edges_iter`; the edge *set*
    // and all nodes must match the direct export exactly.
    let direct = export_json(&f.output.ontology, &Schema::builtin()).expect("export");
    let sorted = |s: &str| {
        let mut lines: Vec<&str> = s.lines().collect();
        lines.sort_unstable();
        lines.join("\n")
    };
    assert_eq!(
        sorted(&json),
        sorted(&direct),
        "frame export and direct export disagree on content"
    );

    // A rooted export is the isA closure: strictly smaller here, every
    // node id it names also present in the full export.
    let root = f
        .output
        .category_nodes
        .values()
        .min_by_key(|n| n.0)
        .copied()
        .expect("tiny world has categories");
    let ServeResponse::ExportSubgraph(sub) = frame
        .serve(&ServeRequest::ExportSubgraph { root: Some(root) })
        .expect("rooted export")
    else {
        panic!("ExportSubgraph answered with a different kind")
    };
    assert!(
        sub.len() < json.len(),
        "a rooted export must be a strict subgraph of the full one"
    );

    // Unknown roots are a typed error, not a panic or an empty document.
    let bogus = NodeId(f.snapshot.n_nodes() as u32);
    assert_eq!(
        frame
            .serve(&ServeRequest::ExportSubgraph { root: Some(bogus) })
            .unwrap_err(),
        ServeError::UnknownExportRoot(bogus)
    );
}

// ---------------------------------------------------------------------------
// Round-trip byte-identity and the pinned golden.

#[test]
fn export_import_round_trip_is_byte_identical() {
    let f = fixture();
    let schema = Schema::builtin();
    let before = io::dump(&f.output.ontology);
    let json = export_json(&f.output.ontology, &schema).expect("export");
    let back = import_json(&json, &schema).expect("own export must import");
    assert_eq!(
        before,
        io::dump(&back),
        "dump(import(export(o))) must equal dump(o) byte for byte"
    );
    // And the export itself is canonical: re-exporting the imported
    // ontology reproduces the same JSON bytes.
    assert_eq!(json, export_json(&back, &schema).expect("re-export"));
}

#[test]
fn export_golden_is_pinned_and_imports_back_to_the_ontology_golden() {
    // Two assertions pin the *format*, not just the round-trip property:
    // the seed-42 export reproduces the committed JSON byte-for-byte
    // (regen: `cargo run --release --example regen_export_golden`), and
    // importing that committed JSON reproduces the committed text dump.
    let f = fixture();
    let json = export_json(&f.output.ontology, &Schema::builtin()).expect("export");
    if json != EXPORT_GOLDEN {
        let diverged = common::first_divergence(EXPORT_GOLDEN, &json, "golden", "fresh");
        panic!("seed-42 export drifted from tests/golden/export_seed42.json; {diverged}");
    }
    let imported = import_json(EXPORT_GOLDEN, &Schema::builtin()).expect("golden must import");
    let dump = io::dump(&imported);
    if dump != ONTOLOGY_GOLDEN {
        let diverged = common::first_divergence(ONTOLOGY_GOLDEN, &dump, "golden", "imported");
        panic!("import(export_seed42.json) drifted from ontology_seed42.txt; {diverged}");
    }
}

/// The full `giant-export` → `giant-import` pipeline as real child
/// processes: the JSON crosses a process boundary and still reproduces
/// the committed seed-42 dump byte-for-byte.
#[test]
fn export_import_bins_round_trip_through_child_processes() {
    let dir = std::env::temp_dir().join("giant-schema-bin-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("export42.json");
    let dump_path = dir.join("import42.txt");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_giant_export"))
        .args(["--world", "tiny", "--seed", "42", "--out"])
        .arg(&json_path)
        .output()
        .expect("spawn giant_export");
    assert!(
        out.status.success(),
        "giant_export failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&json_path).unwrap(),
        EXPORT_GOLDEN,
        "child-process export drifted from the committed golden"
    );

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_giant_import"))
        .arg("--in")
        .arg(&json_path)
        .arg("--dump")
        .arg(&dump_path)
        .output()
        .expect("spawn giant_import");
    assert!(
        out.status.success(),
        "giant_import failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&dump_path).unwrap(),
        ONTOLOGY_GOLDEN,
        "child-process import drifted from the committed dump golden"
    );

    // A document that violates the schema exits 1 with a typed message —
    // no panic, no partial output.
    let bad_path = dir.join("bad.json");
    std::fs::write(&bad_path, EXPORT_GOLDEN.replacen("\"type\": \"category\"", "\"type\": \"starship\"", 1)).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_giant_import"))
        .arg("--in")
        .arg(&bad_path)
        .output()
        .expect("spawn giant_import");
    assert!(!out.status.success(), "schema-violating import must exit nonzero");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("import:"),
        "stderr must carry the typed import error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag given as the last argument is a usage error in every binary —
/// exit 2 and the flag's name on stderr — not an index-out-of-bounds panic.
#[test]
fn trailing_flag_is_a_usage_error_in_every_binary() {
    let cases: [(&str, &[&str]); 6] = [
        (env!("CARGO_BIN_EXE_giant_server"), &["--addr"]),
        (env!("CARGO_BIN_EXE_giant_client"), &["--addr"]),
        (env!("CARGO_BIN_EXE_giant_client"), &["--tag", "a title", "--sentence"]),
        (env!("CARGO_BIN_EXE_giant_export"), &["--world", "tiny", "--out"]),
        (env!("CARGO_BIN_EXE_giant_import"), &["--in"]),
        (env!("CARGO_BIN_EXE_wal_crash_child"), &["--dir"]),
    ];
    for (bin, args) in cases {
        let flag = args[args.len() - 1];
        let out = std::process::Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(&format!("missing value for {flag}")), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{bin} {args:?}: {stderr}");
    }
}

// ---------------------------------------------------------------------------
// The schema-off fast paths are byte-identical to the pre-schema repo.

/// Heavy (three full pipeline runs): CI release runs it via
/// `--include-ignored`.
#[test]
#[ignore]
fn schema_off_pipeline_matches_the_golden_at_every_thread_count() {
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    for threads in [1, 2, 4] {
        let cfg = GiantConfig {
            threads,
            ..GiantConfig::default()
        };
        let dump = io::dump(&setup.run_pipeline(&models, &cfg).ontology);
        if dump != ONTOLOGY_GOLDEN {
            let diverged = common::first_divergence(
                ONTOLOGY_GOLDEN,
                &dump,
                "golden",
                &format!("threads={threads}"),
            );
            panic!("schema-off pipeline drifted from the seed-42 golden; {diverged}");
        }
    }
}

/// Heavy (two full incremental streams): CI release runs it via
/// `--include-ignored`.
#[test]
#[ignore]
fn schema_on_ingestion_is_byte_identical_to_schema_off_on_clean_batches() {
    let f = fixture();
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let stream = setup.corpus_stream();
    let batches = stream.split(&[0.55, 0.8]);
    let base = (*f.service.resources()).clone();

    let drive = |schema: Option<Arc<Schema>>| {
        let (models, _) = setup.train_models(&ModelTrainConfig::small());
        let state = IncrementalState::new(
            stream.categories.clone(),
            stream.annotator.clone(),
            models,
            GiantConfig::default(),
        );
        let (mut driver, _) =
            IncrementalDriver::bootstrap(state, base.clone(), batches[0].clone(), 2).unwrap();
        driver.set_schema(schema);
        for batch in &batches[1..] {
            let report = driver.ingest(batch.clone()).unwrap();
            assert!(
                report.rejections.is_empty(),
                "clean pipeline batches must screen clean, got: {:?}",
                report.rejections
            );
        }
        driver
    };

    let with_schema = drive(Some(Arc::new(Schema::builtin())));
    let without = drive(None);
    assert_eq!(
        io::dump(with_schema.state().ontology()),
        io::dump(without.state().ontology()),
        "an armed schema must not change the accepted-path fold by one byte"
    );
    let probe = ServeRequest::Conceptualize {
        query: "best phones".into(),
    };
    assert_eq!(
        format!("{:?}", with_schema.service().serve(&probe)),
        format!("{:?}", without.service().serve(&probe)),
    );
}

// ---------------------------------------------------------------------------
// Schema-checked ingestion: typed per-item rejection, untouched fold.

#[test]
fn driver_screens_invalid_batch_items_and_folds_the_rest_identically() {
    let f = fixture();
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let stream = setup.corpus_stream();
    let batches = stream.split(&[0.7]);
    let base = (*f.service.resources()).clone();

    let bootstrap = |models| {
        let state = IncrementalState::new(
            stream.categories.clone(),
            stream.annotator.clone(),
            models,
            GiantConfig::default(),
        );
        IncrementalDriver::bootstrap(state, base.clone(), batches[0].clone(), 2)
            .unwrap()
            .0
    };

    // Screened driver: the clean delta plus three invalid riders.
    let mut screened = bootstrap(setup.train_models(&ModelTrainConfig::small()).0);
    screened.set_schema(Some(Arc::new(Schema::builtin())));
    let mut bad = batches[1].clone();
    let n_docs = bad.docs.len();
    let n_clicks = bad.clicks.len();
    let n_sessions = bad.sessions.len();
    bad.docs.push(DocRecord {
        id: screened.state().input().docs.len() + n_docs,
        title: String::new(), // violates the builtin schema: empty phrase
        sentences: vec!["orphaned body".into()],
        leaf_category: 0,
        day: 1,
    });
    bad.clicks.push(ClickEvent {
        query: "negative click".into(),
        doc: 0,
        count: -2.0,
    });
    bad.sessions.push(Vec::new());
    let report = screened.ingest(bad).unwrap();

    // Exactly the three riders rejected, each with its typed reason.
    assert_eq!(report.rejections.len(), 3, "got: {:?}", report.rejections);
    assert_eq!(report.rejections[0].item, BatchItem::Doc(n_docs));
    assert!(matches!(report.rejections[0].reason, RejectReason::EmptyTitle));
    assert_eq!(report.rejections[1].item, BatchItem::Click(n_clicks));
    assert!(matches!(report.rejections[1].reason, RejectReason::NegativeCount));
    assert_eq!(report.rejections[2].item, BatchItem::Session(n_sessions));
    assert!(matches!(report.rejections[2].reason, RejectReason::EmptySession));

    // Control driver folds the clean batch with no schema at all: the
    // screened driver's accepted path must be byte-identical to it.
    let mut control = bootstrap(setup.train_models(&ModelTrainConfig::small()).0);
    let clean_report = control.ingest(batches[1].clone()).unwrap();
    assert!(clean_report.rejections.is_empty());
    assert_eq!(
        io::dump(screened.state().ontology()),
        io::dump(control.state().ontology()),
        "rejected riders must leave the accepted-path fold untouched"
    );
    assert_eq!(screened.service().version(), control.service().version());
}

// ---------------------------------------------------------------------------
// Serving the import: the JSON is a real, servable ontology.

/// Heavy (full `Experiment` + corpus-wide tagging): CI release runs it
/// via `--include-ignored`.
#[test]
#[ignore]
fn imported_ontology_serves_byte_identically_to_the_golden() {
    use giant_bench::{serving_golden_dump, Experiment, ExperimentConfig};
    let mut exp = Experiment::build(ExperimentConfig {
        world: WorldConfig::tiny(),
        train: ModelTrainConfig::small(),
        ..ExperimentConfig::default()
    });
    // Round-trip the ontology through JSON in a fresh process-like swap:
    // everything served afterwards comes from the imported graph.
    let json = export_json(&exp.output.ontology, &Schema::builtin()).expect("export");
    exp.output.ontology = import_json(&json, &Schema::builtin()).expect("import");
    let serving = build_serving(&exp.setup, &exp.output);
    exp.service = serving.service;
    exp.snapshot = serving.snapshot;
    exp.encoder = serving.encoder;
    exp.vocab = serving.vocab;
    exp.tfidf = serving.tfidf;
    let dump = serving_golden_dump(&exp);
    if dump != SERVING_GOLDEN {
        let diverged = common::first_divergence(SERVING_GOLDEN, &dump, "golden", "imported");
        panic!("serving from the imported ontology drifted from the golden; {diverged}");
    }
}

// ---------------------------------------------------------------------------
// The network gate.

#[test]
fn wire_export_is_gated_off_by_default_and_identical_when_enabled() {
    use giant::net::wire::Reply;
    let f = fixture();

    // Default config: the request is refused with a typed error before
    // ever touching the admission queue.
    let server = Server::start(
        Arc::clone(&f.service),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("start server");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let reply = client
        .serve(ServeRequest::ExportSubgraph { root: None })
        .expect("call");
    assert!(
        matches!(reply, Reply::Err(ServeError::ExportDisabled)),
        "expected ExportDisabled, got {reply:?}"
    );
    // The connection survives the refusal: the next request answers.
    let reply = client
        .serve(ServeRequest::Conceptualize {
            query: "best phones".into(),
        })
        .expect("call after refusal");
    assert!(matches!(reply, Reply::Ok(_)), "connection must survive the gate");
    server.shutdown();

    // Opt-in config: the bytes over the wire are the in-process bytes.
    let server = Server::start(
        Arc::clone(&f.service),
        "127.0.0.1:0",
        ServerConfig {
            allow_export: true,
            ..ServerConfig::default()
        },
    )
    .expect("start export-enabled server");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let reply = client
        .serve(ServeRequest::ExportSubgraph { root: None })
        .expect("call");
    let Reply::Ok(ServeResponse::ExportSubgraph(wire_json)) = reply else {
        panic!("expected an export reply, got {reply:?}")
    };
    let ServeResponse::ExportSubgraph(local_json) = f
        .service
        .serve(&ServeRequest::ExportSubgraph { root: None })
        .expect("in-process export")
    else {
        panic!("in-process export answered with a different kind")
    };
    assert_eq!(wire_json, local_json, "wire export must be byte-identical");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Hostile documents: typed errors, never panics (wire_fuzz discipline).

#[test]
fn type_confused_documents_fail_typed() {
    // Each mutation breaks the golden document one way; import must
    // return Err — the *kind* of error is pinned by the interchange unit
    // tests, here we prove the end-to-end path stays typed.
    let schema = Schema::builtin();
    let mutations: Vec<String> = vec![
        EXPORT_GOLDEN.replacen("\"type\": \"category\"", "\"type\": \"starship\"", 1),
        EXPORT_GOLDEN.replacen("\"support\": ", "\"support\": \"lots\", \"x\": ", 1),
        EXPORT_GOLDEN.replacen("\"id\": \"n1\"", "\"id\": \"n0\"", 1),
        EXPORT_GOLDEN.replacen("\"source\": \"n", "\"source\": \"n9999", 1),
        EXPORT_GOLDEN.replacen("\"weight\": ", "\"weight\": null, \"w\": ", 1),
        EXPORT_GOLDEN.replacen("\"nodes\"", "\"knots\"", 1),
        EXPORT_GOLDEN.replacen("\"version\": 1", "\"version\": 2", 1),
    ];
    for (i, doc) in mutations.iter().enumerate() {
        assert_ne!(doc, EXPORT_GOLDEN, "mutation {i} did not apply");
        assert!(
            import_json(doc, &schema).is_err(),
            "mutation {i} must fail typed, not import"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating the golden document anywhere yields a typed error (or,
    /// at the full length, the golden import) — never a panic.
    #[test]
    fn truncated_documents_never_panic(frac in 0.0f64..1.0) {
        let mut cut = (EXPORT_GOLDEN.len() as f64 * frac) as usize;
        while cut > 0 && !EXPORT_GOLDEN.is_char_boundary(cut) {
            cut -= 1;
        }
        let doc = &EXPORT_GOLDEN[..cut];
        prop_assert!(
            import_json(doc, &Schema::builtin()).is_err(),
            "a strict prefix of {} bytes must not import",
            cut
        );
    }

    /// Flipping any byte of the golden document never panics the
    /// importer: it fails typed, or — when the flip lands in a value and
    /// stays valid — imports an ontology that still round-trips.
    #[test]
    fn byte_flipped_documents_never_panic(
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = EXPORT_GOLDEN.as_bytes().to_vec();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let Ok(doc) = String::from_utf8(bytes) else {
            return Ok(()); // not UTF-8 → never reaches the parser
        };
        if let Ok(o) = import_json(&doc, &Schema::builtin()) {
            // A surviving flip produced a valid document; it must still
            // obey the round-trip contract.
            let json = export_json(&o, &Schema::builtin()).expect("valid import must re-export");
            let back = import_json(&json, &Schema::builtin()).expect("re-import");
            prop_assert_eq!(io::dump(&o), io::dump(&back));
        }
    }

    /// Random tiny worlds round-trip byte-identically under the builtin
    /// schema. Heavy (one full pipeline per case): CI release runs it via
    /// `--include-ignored`.
    #[test]
    #[ignore]
    fn random_worlds_round_trip_byte_identically(seed in 0u64..1000) {
        let setup = GiantSetup::generate(WorldConfig {
            seed,
            ..WorldConfig::tiny()
        });
        let (models, _) = setup.train_models(&ModelTrainConfig::small());
        let o = setup.run_pipeline(&models, &GiantConfig::default()).ontology;
        let schema = Schema::builtin();
        let json = export_json(&o, &schema).expect("pipeline output must export");
        let back = import_json(&json, &schema).expect("own export must import");
        prop_assert_eq!(io::dump(&o), io::dump(&back), "round trip drifted at seed {}", seed);
    }
}
