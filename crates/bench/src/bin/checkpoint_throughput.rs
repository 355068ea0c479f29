//! Durable-checkpoint benchmark: how fast does a checkpointed process come
//! back, and is what comes back *exactly* what went down?
//!
//! ## What it measures (scaled bench world, spam-filtered log)
//!
//! * **full rebuild-to-serving** — uncached `run_pipeline` +
//!   `OntologySnapshot::freeze`: what a restart pays without checkpoints;
//! * **checkpoint write** — `OntologyService::checkpoint` (frozen
//!   snapshot + full model resources) and the incremental state's
//!   `Checkpoint::write_state_sections` into a `SectionFile` (corpus +
//!   warm caches + live ontology);
//! * **restore-to-first-response** — read + verify the service checkpoint,
//!   reconstruct the frame (no re-freeze, no retraining) and answer one
//!   request. Asserted **≥10× faster** than the full rebuild.
//!
//! ## What it asserts (both modes)
//!
//! * `dump(restore(checkpoint(o))) == dump(o)` byte-identically for the
//!   binio ontology codec;
//! * the restored `IncrementalState` carries identical caches and an
//!   identical live ontology;
//! * the restored service answers a deterministic probe batch (every
//!   request kind) **byte-identically** — in-process *and* from a fresh
//!   child process (`--restore-probe`), which re-reads the checkpoint from
//!   disk with no shared memory;
//! * `--golden-verify`: checkpoint the seed-42 golden world's service,
//!   restore it in a fresh process, and byte-assert the committed serving
//!   golden (`tests/golden/serving_seed42.txt`) through the restored
//!   frame.
//!
//! Results land in `BENCH_store.json`.
//!
//! ```text
//! cargo run --release -p giant-bench --bin checkpoint_throughput [-- --smoke | --golden-verify]
//! ```

use giant::adapter::{build_serving, GiantSetup, ModelTrainConfig};
use giant::apps::serving::{OntologyService, ServeRequest};
use giant::incr::{Checkpoint, IncrementalState};
use giant::ontology::binio::{read_ontology, write_ontology, Reader, SectionFile, Writer};
use giant::ontology::NodeKind;
use giant_bench::{serving_golden_dump, Experiment, ExperimentConfig};
use giant_core::GiantConfig;
use giant_data::{ClickConfig, WorldConfig};
use std::path::Path;
use std::time::Instant;

const REPS: usize = 3;
const RESTORE_REPS: usize = 5;

/// A deterministic probe batch derivable from a restored service alone
/// (snapshot surfaces + story events), exercising every request kind —
/// parent and child build the identical batch from the identical frame.
fn probe_requests(svc: &OntologyService) -> Vec<ServeRequest> {
    let snap = svc.snapshot();
    let res = svc.resources();
    let mut reqs = Vec::new();
    for n in snap.nodes_of_kind(NodeKind::Concept).take(40) {
        reqs.push(ServeRequest::Conceptualize {
            query: format!("best {}", n.phrase.surface()),
        });
    }
    for n in snap.nodes_of_kind(NodeKind::Entity).take(40) {
        reqs.push(ServeRequest::Recommend {
            query: format!("{} review", n.phrase.surface()),
        });
    }
    for s in res.stories.iter().take(5) {
        reqs.push(ServeRequest::StoryTree { seed: s.node });
    }
    let title: Vec<String> = snap
        .nodes_of_kind(NodeKind::Entity)
        .take(4)
        .map(|n| n.phrase.surface())
        .collect();
    reqs.push(ServeRequest::TagDocument {
        title: title.join(" "),
        sentences: vec![title.join(" and ")],
    });
    reqs
}

/// Debug-renders a probe run: the byte-comparable serving transcript.
fn probe_transcript(svc: &OntologyService) -> String {
    probe_requests(svc)
        .iter()
        .map(|r| format!("{:?}\n", svc.serve(r)))
        .collect()
}

/// Child mode: restore the service from `ckpt` in this fresh process and
/// byte-compare its probe transcript against `expected_path`.
fn restore_probe_child(ckpt: &Path, expected_path: &Path) {
    let t = Instant::now();
    let svc = OntologyService::restore(ckpt).expect("child restore must succeed");
    let transcript = probe_transcript(&svc);
    let expected = std::fs::read_to_string(expected_path).expect("read expected transcript");
    assert_eq!(
        transcript, expected,
        "fresh-process restore diverged from the checkpointing process"
    );
    println!(
        "[child] restored v{} and byte-matched {} probe responses in {:.3}s",
        svc.version(),
        probe_requests(&svc).len(),
        t.elapsed().as_secs_f64()
    );
}

/// Child mode: restore the seed-42 golden world's service from `ckpt` and
/// byte-assert the committed serving golden through the restored frame.
fn restore_golden_child(ckpt: &Path) {
    let restored = OntologyService::restore(ckpt).expect("child restore must succeed");
    // Rebuild the golden world deterministically for the corpus documents
    // and probe queries; everything *served* comes from the restored frame.
    let mut exp = Experiment::build(ExperimentConfig {
        world: WorldConfig::tiny(),
        train: ModelTrainConfig::small(),
        ..ExperimentConfig::default()
    });
    exp.snapshot = restored.snapshot();
    exp.service = restored;
    let dump = serving_golden_dump(&exp);
    let golden = include_str!("../../../../tests/golden/serving_seed42.txt");
    assert_eq!(
        dump, golden,
        "restored service drifted from the committed serving golden"
    );
    println!(
        "[child] restored service reproduced tests/golden/serving_seed42.txt byte-for-byte \
         ({} bytes)",
        dump.len()
    );
}

/// Spawns this binary again in a child mode and asserts it succeeds.
fn run_child(args: &[&str]) {
    let exe = std::env::current_exe().expect("current_exe");
    let status = std::process::Command::new(exe)
        .args(args)
        .status()
        .expect("spawn child process");
    assert!(status.success(), "child verification failed: {args:?}");
}

fn golden_verify() {
    println!("=== Checkpoint → fresh-process restore → serving golden ===");
    let exp = Experiment::build(ExperimentConfig {
        world: WorldConfig::tiny(),
        train: ModelTrainConfig::small(),
        ..ExperimentConfig::default()
    });
    let dir = std::env::temp_dir().join("giant-ckpt-golden");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("golden-service.ckpt");
    exp.service.checkpoint(&ckpt).expect("checkpoint write");
    println!(
        "checkpointed seed-42 service ({} bytes); restoring in a fresh process...",
        std::fs::metadata(&ckpt).expect("stat").len()
    );
    run_child(&["--restore-golden", ckpt.to_str().expect("utf8 path")]);
    std::fs::remove_file(&ckpt).ok();
    println!("golden-verify ok");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--restore-probe") {
        return restore_probe_child(Path::new(&args[i + 1]), Path::new(&args[i + 2]));
    }
    if let Some(i) = args.iter().position(|a| a == "--restore-golden") {
        return restore_golden_child(Path::new(&args[i + 1]));
    }
    if args.iter().any(|a| a == "--golden-verify") {
        return golden_verify();
    }
    let smoke = args.iter().any(|a| a == "--smoke");

    let world = if smoke {
        WorldConfig::tiny()
    } else {
        WorldConfig {
            entities_per_sub: 24,
            concepts_per_sub: 10,
            ..WorldConfig::experiment()
        }
    };
    let clicks = ClickConfig {
        noise_fraction: 0.01,
        ..ClickConfig::default()
    };
    eprintln!("[checkpoint_throughput] building world + models (smoke={smoke})...");
    let setup = GiantSetup::generate_with(world, &clicks);
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let cfg = GiantConfig::default();
    let stream = setup.corpus_stream();

    println!("=== Durable checkpoints + warm start ===");
    println!(
        "world: {} docs, {} clicks, {} entities",
        stream.docs.len(),
        stream.clicks.len(),
        stream.entities.len()
    );

    // --- Baseline: what a restart costs without checkpoints.
    let input = setup.pipeline_input();
    let mut rebuild_secs = f64::INFINITY;
    let mut output = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let out = giant_core::run_pipeline(&input, &models, &cfg);
        let snapshot = giant::ontology::OntologySnapshot::freeze(&out.ontology);
        rebuild_secs = rebuild_secs.min(t.elapsed().as_secs_f64());
        drop(snapshot);
        output = Some(out);
    }
    let output = output.expect("at least one rep ran");

    // --- binio ontology codec: dump(restore(checkpoint(o))) == dump(o).
    let dump_before = giant::ontology::io::dump(&output.ontology);
    let mut w = Writer::new();
    write_ontology(&output.ontology, &mut w);
    let onto_bytes = w.into_bytes();
    let restored_onto = read_ontology(&mut Reader::new(&onto_bytes)).expect("binio read");
    assert_eq!(
        dump_before,
        giant::ontology::io::dump(&restored_onto),
        "binio ontology round trip must be dump-identical"
    );
    println!(
        "binio ontology round trip: byte-identical dump ✓ ({} binary bytes vs {} text)",
        onto_bytes.len(),
        dump_before.len()
    );

    // --- Service checkpoint: write, then restore-to-first-response.
    let serving = build_serving(&setup, &output);
    let dir = std::env::temp_dir().join("giant-ckpt-bench");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let svc_path = dir.join("service.ckpt");
    let mut ckpt_write_secs = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        serving.service.checkpoint(&svc_path).expect("service checkpoint");
        ckpt_write_secs = ckpt_write_secs.min(t.elapsed().as_secs_f64());
    }
    let svc_bytes = std::fs::metadata(&svc_path).expect("stat").len();
    let probe = ServeRequest::Conceptualize {
        query: "best economy cars".into(),
    };
    let mut restore_secs = f64::INFINITY;
    let mut restored_svc = None;
    for _ in 0..RESTORE_REPS {
        let t = Instant::now();
        let svc = OntologyService::restore(&svc_path).expect("service restore");
        let _first = svc.serve(&probe).expect("first response");
        restore_secs = restore_secs.min(t.elapsed().as_secs_f64());
        restored_svc = Some(svc);
    }
    let restored_svc = restored_svc.expect("at least one restore ran");

    // Byte-identical serving after restore, in-process...
    let expected_transcript = probe_transcript(&serving.service);
    assert_eq!(
        expected_transcript,
        probe_transcript(&restored_svc),
        "restored service must answer byte-identically"
    );
    // ...and from a genuinely fresh process reading the file cold.
    let transcript_path = dir.join("probe-expected.txt");
    std::fs::write(&transcript_path, &expected_transcript).expect("write transcript");
    run_child(&[
        "--restore-probe",
        svc_path.to_str().expect("utf8 path"),
        transcript_path.to_str().expect("utf8 path"),
    ]);

    // --- Incremental state checkpoint: save / load / restore, warm caches
    // and live ontology intact.
    let mut state = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        models.clone(),
        cfg,
    );
    state.fold(stream.as_one_batch()).expect("bootstrap fold");
    let state_path = dir.join("state.ckpt");
    let t = Instant::now();
    let mut file = SectionFile::new();
    Checkpoint::write_state_sections(&state, &mut file);
    file.write_file(&state_path).expect("state checkpoint");
    let state_write_secs = t.elapsed().as_secs_f64();
    let state_bytes = std::fs::metadata(&state_path).expect("stat").len();
    let t = Instant::now();
    let file = SectionFile::read_file(&state_path).expect("state read");
    let restored_state = Checkpoint::from_sections(&file)
        .expect("state load")
        .restore(stream.annotator.clone(), models.clone());
    let state_restore_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        giant::ontology::io::dump(state.ontology()),
        giant::ontology::io::dump(restored_state.ontology()),
        "restored live ontology must be dump-identical"
    );
    assert_eq!(
        state.cache_sizes(),
        restored_state.cache_sizes(),
        "warm caches must survive the round trip"
    );

    let speedup = rebuild_secs / restore_secs;
    println!("\nfull rebuild-to-serving: {rebuild_secs:>8.3}s (best of {REPS})");
    println!(
        "service checkpoint:      {ckpt_write_secs:>8.3}s write ({:.2} MiB)",
        svc_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "restore-to-first-response: {restore_secs:>6.3}s (best of {RESTORE_REPS})  →  \
         {speedup:.1}× faster than rebuilding"
    );
    println!(
        "state checkpoint:        {state_write_secs:>8.3}s write / {state_restore_secs:.3}s \
         restore ({:.2} MiB, {} cached walks, {} cached minings)",
        state_bytes as f64 / (1024.0 * 1024.0),
        state.cache_sizes().0,
        state.cache_sizes().1
    );
    if !smoke {
        assert!(
            speedup >= 10.0,
            "restore-to-first-response must be ≥10× faster than a full rebuild \
             (got {speedup:.2}×)"
        );
    }

    // Hand-rolled JSON: the workspace is offline, no serde.
    let json = format!(
        "{{\n  \"bench\": \"checkpoint_throughput\",\n  \"smoke\": {smoke},\n  \
         \"n_docs\": {},\n  \"n_clicks\": {},\n  \
         \"rebuild_to_serving_secs\": {rebuild_secs:.6},\n  \
         \"service_checkpoint_write_secs\": {ckpt_write_secs:.6},\n  \
         \"service_checkpoint_bytes\": {svc_bytes},\n  \
         \"restore_to_first_response_secs\": {restore_secs:.6},\n  \
         \"warm_start_speedup\": {speedup:.3},\n  \
         \"state_checkpoint_write_secs\": {state_write_secs:.6},\n  \
         \"state_checkpoint_bytes\": {state_bytes},\n  \
         \"state_restore_secs\": {state_restore_secs:.6},\n  \
         \"cached_walks\": {},\n  \"cached_minings\": {}\n}}\n",
        stream.docs.len(),
        stream.clicks.len(),
        state.cache_sizes().0,
        state.cache_sizes().1,
    );
    std::fs::write("BENCH_store.json", &json).expect("write BENCH_store.json");
    println!("wrote BENCH_store.json");
    std::fs::remove_file(&svc_path).ok();
    std::fs::remove_file(&state_path).ok();
    std::fs::remove_file(&transcript_path).ok();
}
