//! Fault-injection child for `tests/crash_consistency.rs`.
//!
//! One binary, three modes over the same deterministic world (seeded
//! generation + training, so every invocation folds the same batches):
//!
//! * `--reference` — the never-crashed run: bootstrap + ingest every
//!   batch with **no** durability, write the convergence fingerprint.
//! * *(default)* — the durable run the harness crashes: bootstrap, enable
//!   WAL-backed durability under `--dir`, ingest batch by batch printing
//!   `FOLDED <k>` after each (the parent's timing-kill hook). Armed
//!   crash points (`GIANT_CRASH_POINT=<label>:<n>`) abort the process at
//!   exact instants — mid-WAL-append, mid-checkpoint-rename, between
//!   checkpoint and rotation.
//! * `--resume` — crash recovery: `restore_durable` (checkpoint + WAL
//!   tail replay), ingest whatever batches the crashed run never
//!   acknowledged, write the fingerprint. If the crash predates the first
//!   durable checkpoint, starts the epoch from scratch — nothing was
//!   acknowledged durably yet.
//!
//! The contract under test: the `--resume` fingerprint equals the
//! `--reference` fingerprint byte for byte, for any kill instant and any
//! sync mode.

use giant::adapter::{build_serving, GiantSetup, ModelTrainConfig};
use giant::apps::incremental::{DurabilityConfig, IncrementalDriver};
use giant::apps::serving::{ServeRequest, ServeResources};
use giant::incr::{DeltaBatch, IncrementalState, SyncMode};
use giant::mining::GiantConfig;
use giant_data::WorldConfig;
use std::io::Write as _;
use std::path::PathBuf;

struct Args {
    dir: PathBuf,
    emit: PathBuf,
    sync: SyncMode,
    seed: u64,
    batches: usize,
    checkpoint_every: u64,
    threads: usize,
    resume: bool,
    reference: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| giant::cli::flag_value(&argv, flag);
    Args {
        dir: PathBuf::from(get("--dir").expect("--dir <path> is required")),
        emit: PathBuf::from(get("--emit").expect("--emit <path> is required")),
        sync: SyncMode::parse(&get("--sync").unwrap_or_else(|| "strict".into()))
            .expect("--sync strict|batched:N|none"),
        seed: get("--seed").map_or(42, |s| s.parse().expect("--seed u64")),
        batches: get("--batches").map_or(3, |s| s.parse().expect("--batches usize")),
        checkpoint_every: get("--checkpoint-every")
            .map_or(2, |s| s.parse().expect("--checkpoint-every u64")),
        threads: get("--threads").map_or(1, |s| s.parse().expect("--threads usize")),
        resume: argv.iter().any(|a| a == "--resume"),
        reference: argv.iter().any(|a| a == "--reference"),
    }
}

/// The deterministic trial world: batches to fold, the fresh state, and
/// the base serving resources (identical across parent/child/reference
/// because generation, training and the bootstrap pipeline are seeded).
struct Trial {
    batches: Vec<DeltaBatch>,
    state: IncrementalState,
    base: ServeResources,
    annotator: giant::text::Annotator,
    models: giant::mining::train::GiantModels,
}

fn build_trial(args: &Args) -> Trial {
    let setup = GiantSetup::generate(WorldConfig {
        seed: args.seed,
        ..WorldConfig::tiny()
    });
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let cfg = GiantConfig {
        threads: args.threads,
        ..GiantConfig::default()
    };
    let output = setup.run_pipeline(&models, &cfg);
    let serving = build_serving(&setup, &output);
    let base = (*serving.service.resources()).clone();
    let stream = setup.corpus_stream();
    let cuts: Vec<f64> = (1..args.batches)
        .map(|i| i as f64 / args.batches as f64)
        .collect();
    let batches = stream.split(&cuts);
    let state = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        models.clone(),
        cfg,
    );
    Trial {
        batches,
        state,
        base,
        annotator: stream.annotator.clone(),
        models,
    }
}

/// The byte-comparable end-state: published version, fold count, one
/// serving probe, and the full ontology dump.
fn fingerprint(driver: &IncrementalDriver) -> String {
    let probe = ServeRequest::Conceptualize {
        query: "best phones".into(),
    };
    format!(
        "version {}\nfolds {}\nprobe {:?}\n{}",
        driver.service().version(),
        driver.state().folds(),
        driver.service().serve(&probe),
        giant::ontology::io::dump(driver.state().ontology()),
    )
}

/// Ingests batches `from..` one at a time, announcing each completed fold
/// on stdout so the parent can SIGKILL between (or during) folds.
fn ingest_from(driver: &mut IncrementalDriver, batches: &[DeltaBatch], from: usize) {
    let mut out = std::io::stdout();
    for (i, batch) in batches.iter().enumerate().skip(from) {
        driver.ingest(batch.clone()).expect("ingest");
        writeln!(out, "FOLDED {i}").expect("stdout");
        out.flush().expect("stdout flush");
    }
}

fn main() {
    let args = parse_args();
    let trial = build_trial(&args);
    let durability = DurabilityConfig {
        dir: args.dir.clone(),
        sync: args.sync,
        checkpoint_every: args.checkpoint_every,
    };

    let driver = if args.reference {
        // Never-crashed, never-durable reference run.
        let (mut driver, _) = IncrementalDriver::bootstrap(
            trial.state,
            trial.base,
            trial.batches[0].clone(),
            2,
        )
        .expect("bootstrap");
        ingest_from(&mut driver, &trial.batches, 1);
        driver
    } else if args.resume && durability.checkpoint_path().exists() {
        let (mut driver, report) = IncrementalDriver::restore_durable(
            durability,
            trial.annotator.clone(),
            trial.models.clone(),
            2,
        )
        .expect("restore_durable");
        println!(
            "RESTORED folds={} replayed={} truncated={}",
            driver.state().folds(),
            report.replayed,
            report.truncation.is_some()
        );
        // Fresh process, so absolute counter reads are exact: the obs
        // counters must agree with the restore report — every folded
        // replay was counted, and the WAL decoded at least that many.
        let snap = giant::obs::registry().snapshot();
        assert_eq!(
            snap.counter("ingest.replayed").unwrap_or(0),
            report.replayed as u64,
            "ingest.replayed metric tracks RestoreReport.replayed"
        );
        assert!(
            snap.counter("wal.replayed").unwrap_or(0) >= report.replayed as u64,
            "wal.replayed counts every decoded entry, folded or skipped"
        );
        // folds counts the bootstrap batch too, so it doubles as the
        // index of the next batch to ingest.
        let from = driver.state().folds() as usize;
        ingest_from(&mut driver, &trial.batches, from);
        driver
    } else {
        // Fresh durable run — also the `--resume` path when the crash
        // predates the baseline checkpoint (nothing acknowledged yet).
        let (mut driver, _) = IncrementalDriver::bootstrap(
            trial.state,
            trial.base,
            trial.batches[0].clone(),
            2,
        )
        .expect("bootstrap");
        driver.enable_durability(durability).expect("enable durability");
        println!("DURABLE");
        std::io::stdout().flush().expect("stdout flush");
        ingest_from(&mut driver, &trial.batches, 1);
        driver
    };

    std::fs::write(&args.emit, fingerprint(&driver)).expect("write fingerprint");
    // The WAL counters of this whole process, for the parent harness to
    // compare against its fault-injection ground truth (fresh process →
    // absolute values are exact).
    let snap = giant::obs::registry().snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    println!(
        "WALMETRICS appends={} syncs={} rotations={} replayed={} truncations={}",
        c("wal.appends"),
        c("wal.syncs"),
        c("wal.rotations"),
        c("wal.replayed"),
        c("wal.truncations")
    );
    println!("DONE");
}
