//! Crash consistency of the durable ingestion loop: `kill -9` at any
//! instant, then `IncrementalDriver::restore_durable` (checkpoint + WAL
//! tail replay) converges **byte-identically** with the never-crashed
//! run.
//!
//! The harness drives `src/bin/wal_crash_child.rs` — a real child process
//! folding a deterministic corpus stream under WAL-backed durability —
//! and kills it two ways:
//!
//! * **armed crash points** (`GIANT_CRASH_POINT=<label>:<n>`):
//!   `std::process::abort()` at exact instants inside the durability
//!   machinery — mid-WAL-append (a genuinely torn frame on disk),
//!   mid-checkpoint-rename, between checkpoint and log rotation;
//! * **timing kills**: SIGKILL as soon as the child announces its k-th
//!   fold, landing at arbitrary instants of the following ingest.
//!
//! After each crash, a clean resume run recovers and folds the remaining
//! batches; its fingerprint (published version, fold count, one serving
//! probe, full ontology dump) must equal the reference run's byte for
//! byte — across all three [`giant::incr::SyncMode`]s and 1/2/4 mining
//! threads. WAL-level torn-tail/flipped-byte *unit* semantics (typed
//! errors, resume at last valid entry) live in `crates/incr/src/wal.rs`;
//! here the corruption test exercises the same path end-to-end through
//! `restore_durable`.
//!
//! Everything is release-gated (`--include-ignored` in CI): each child
//! invocation regenerates + retrains the tiny world, which is seconds in
//! release and minutes in debug.

use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Mutex, OnceLock};

const CHILD: &str = env!("CARGO_BIN_EXE_wal_crash_child");
const BATCHES: usize = 4;
const CHECKPOINT_EVERY: u64 = 2;

/// A scratch directory unique to one trial.
fn trial_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("giant-crash-consistency").join(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir trial dir");
    dir
}

struct ChildOutcome {
    success: bool,
    stdout: String,
}

/// Runs the child to completion (or its armed abort), returning status +
/// captured stdout. `crash` arms `GIANT_CRASH_POINT`; the env var is
/// always cleared first so resume runs are clean.
#[allow(clippy::too_many_arguments)]
fn run_child(
    dir: &Path,
    emit: &Path,
    sync: &str,
    batches: usize,
    threads: usize,
    checkpoint_every: u64,
    extra: &[&str],
    crash: Option<&str>,
) -> ChildOutcome {
    let mut cmd = Command::new(CHILD);
    cmd.args([
        "--dir",
        dir.to_str().unwrap(),
        "--emit",
        emit.to_str().unwrap(),
        "--sync",
        sync,
        "--batches",
        &batches.to_string(),
        "--threads",
        &threads.to_string(),
        "--checkpoint-every",
        &checkpoint_every.to_string(),
    ])
    .args(extra)
    .env_remove("GIANT_CRASH_POINT")
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    if let Some(spec) = crash {
        cmd.env("GIANT_CRASH_POINT", spec);
    }
    let out = cmd.output().expect("spawn wal_crash_child");
    ChildOutcome {
        success: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    }
}

/// Runs the child and SIGKILLs it the moment it announces fold
/// `kill_after` — the literal `kill -9` the contract promises to survive.
/// Returns false if the child finished before the signal landed.
fn run_child_timing_kill(
    dir: &Path,
    sync: &str,
    batches: usize,
    threads: usize,
    kill_after: usize,
) -> bool {
    let emit = dir.join("never-written.txt");
    let mut child = Command::new(CHILD)
        .args([
            "--dir",
            dir.to_str().unwrap(),
            "--emit",
            emit.to_str().unwrap(),
            "--sync",
            sync,
            "--batches",
            &batches.to_string(),
            "--threads",
            &threads.to_string(),
            "--checkpoint-every",
            &CHECKPOINT_EVERY.to_string(),
        ])
        .env_remove("GIANT_CRASH_POINT")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wal_crash_child");
    let marker = format!("FOLDED {kill_after}");
    let mut killed = false;
    let reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    for line in reader.lines() {
        let line = line.expect("child stdout");
        if line == marker {
            child.kill().expect("SIGKILL child");
            killed = true;
            break;
        }
    }
    child.wait().expect("reap child");
    killed
}

/// The never-crashed reference fingerprint, computed once per
/// (batches, threads) by the same binary and cached for the whole suite.
fn reference(batches: usize, threads: usize) -> String {
    static CACHE: OnceLock<Mutex<HashMap<(usize, usize), String>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&(batches, threads)) {
        return hit.clone();
    }
    let dir = trial_dir(&format!("reference-{batches}-{threads}"));
    let emit = dir.join("fingerprint.txt");
    let out = run_child(
        &dir,
        &emit,
        "strict",
        batches,
        threads,
        CHECKPOINT_EVERY,
        &["--reference"],
        None,
    );
    assert!(out.success, "reference run failed:\n{}", out.stdout);
    let fp = std::fs::read_to_string(&emit).expect("reference fingerprint");
    assert!(fp.contains("version"), "fingerprint looks empty");
    cache.lock().unwrap().insert((batches, threads), fp.clone());
    fp
}

/// One full trial: crash the durable run (armed spec or timing kill),
/// resume cleanly, byte-compare against the reference. Returns the
/// resume run's stdout for extra assertions.
fn crash_resume_compare(
    tag: &str,
    crash: Option<&str>,
    kill_after: Option<usize>,
    sync: &str,
    batches: usize,
    threads: usize,
) -> String {
    let dir = trial_dir(tag);
    let durable = dir.join("durable");
    let emit = dir.join("crashed.txt");
    let crashed = match kill_after {
        Some(k) => run_child_timing_kill(&durable, sync, batches, threads, k),
        None => {
            let out = run_child(
                &durable,
                &emit,
                sync,
                batches,
                threads,
                CHECKPOINT_EVERY,
                &[],
                crash,
            );
            // A spec whose label/count is never reached completes the
            // run; byte-compare that directly (still a valid trial).
            !out.success
        }
    };
    let emit = dir.join("resumed.txt");
    let resume = run_child(
        &durable,
        &emit,
        sync,
        batches,
        threads,
        CHECKPOINT_EVERY,
        &["--resume"],
        None,
    );
    assert!(
        resume.success,
        "resume after crash ({tag}, crashed={crashed}) failed:\n{}",
        resume.stdout
    );
    let recovered = std::fs::read_to_string(&emit).expect("resumed fingerprint");
    let expected = reference(batches, threads);
    assert_eq!(
        recovered, expected,
        "restore+replay diverged from the never-crashed run \
         (tag={tag}, sync={sync}, threads={threads}, crashed={crashed})"
    );
    std::fs::remove_dir_all(&dir).ok();
    resume.stdout
}

/// Every labeled instant the durability machinery can die at, each under
/// a different sync mode: mid-WAL-append (torn frame), pre/post the
/// checkpoint's atomic rename, between checkpoint and rotation, pre/post
/// the rotation's own rename.
#[test]
#[cfg_attr(debug_assertions, ignore = "child-process fault injection; run in release")]
fn labeled_crash_points_recover_byte_identically() {
    let specs: &[(&str, &str)] = &[
        ("wal.append.mid:1", "strict"),
        ("wal.append.mid:2", "none"),
        ("wal.append.pre-sync:1", "batched:2"),
        ("driver.post-append:1", "strict"),
        ("driver.pre-checkpoint:1", "none"),
        // write_file #1 is the enable-durability baseline checkpoint,
        // #2 the first periodic one.
        ("binio.write_file.pre-rename:1", "strict"),
        ("binio.write_file.pre-rename:2", "strict"),
        ("binio.write_file.post-rename:2", "batched:2"),
        ("driver.pre-rotate:1", "strict"),
        ("wal.rotate.pre-rename:1", "none"),
        ("wal.rotate.post-rename:1", "strict"),
        ("driver.post-rotate:1", "batched:2"),
    ];
    for (spec, sync) in specs {
        let tag = format!("label-{}", spec.replace([':', '.'], "-"));
        crash_resume_compare(&tag, Some(spec), None, sync, BATCHES, 1);
    }
}

/// A corrupt (not torn) WAL suffix: flip a byte inside the final
/// *complete* entry of a crashed log. Recovery must drop exactly the
/// corrupt suffix, report it, resume at the last valid entry — and the
/// re-ingested tail still converges byte-identically.
#[test]
#[cfg_attr(debug_assertions, ignore = "child-process fault injection; run in release")]
fn corrupt_wal_suffix_is_dropped_reported_and_reconverges() {
    let dir = trial_dir("flip");
    let durable = dir.join("durable");
    // checkpoint_every > batches: the WAL keeps every entry, no rotation.
    let out = run_child(
        &durable,
        &dir.join("first.txt"),
        "strict",
        BATCHES,
        1,
        99,
        &[],
        None,
    );
    assert!(out.success, "durable run failed:\n{}", out.stdout);
    let wal_path = durable.join("ingest.wal");
    let mut bytes = std::fs::read(&wal_path).expect("read wal");
    let n = bytes.len();
    assert!(n > 64, "wal unexpectedly small");
    bytes[n - 3] ^= 0x20; // inside the last entry's payload
    std::fs::write(&wal_path, &bytes).expect("write corrupted wal");

    let emit = dir.join("resumed.txt");
    let resume = run_child(&durable, &emit, "strict", BATCHES, 1, 99, &["--resume"], None);
    assert!(resume.success, "resume over corrupt wal failed:\n{}", resume.stdout);
    assert!(
        resume.stdout.contains("truncated=true"),
        "recovery must report the dropped suffix, got:\n{}",
        resume.stdout
    );
    let recovered = std::fs::read_to_string(&emit).expect("resumed fingerprint");
    assert_eq!(
        recovered,
        reference(BATCHES, 1),
        "recovery from a corrupt suffix diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Extracts the child's `WALMETRICS ...` line.
fn wal_metrics_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("WALMETRICS "))
        .unwrap_or_else(|| panic!("child printed no WALMETRICS line:\n{stdout}"))
}

/// The `wal.*` obs counters against the harness's own ground truth, on a
/// clean durable run: 5 batches = bootstrap + 4 ingests, so 4 appends,
/// 4 strict fsyncs, and a rotation every 2 folds; nothing replayed or
/// truncated (`Wal::create`, never reopened).
#[test]
#[cfg_attr(debug_assertions, ignore = "child-process fault injection; run in release")]
fn wal_metrics_match_the_clean_run_ground_truth() {
    let dir = trial_dir("metrics-clean");
    let out = run_child(
        &dir.join("durable"),
        &dir.join("fp.txt"),
        "strict",
        5,
        1,
        2,
        &[],
        None,
    );
    assert!(out.success, "durable run failed:\n{}", out.stdout);
    assert_eq!(
        wal_metrics_line(&out.stdout),
        "WALMETRICS appends=4 syncs=4 rotations=2 replayed=0 truncations=0"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The same counters across a genuine torn-frame crash: the crashed run
/// dies mid-append of its second entry, so the resume's `Wal::recover`
/// decodes 1 entry, truncates the torn tail, replays the entry, rotates
/// (post-replay checkpoint), then ingests the two remaining batches.
#[test]
#[cfg_attr(debug_assertions, ignore = "child-process fault injection; run in release")]
fn wal_metrics_match_the_crash_resume_ground_truth() {
    let dir = trial_dir("metrics-crash");
    let durable = dir.join("durable");
    // checkpoint_every=99: no rotation before the crash, so the resume
    // sees exactly what the appends left behind.
    let out = run_child(
        &durable,
        &dir.join("crashed.txt"),
        "strict",
        4,
        1,
        99,
        &[],
        Some("wal.append.mid:2"),
    );
    assert!(!out.success, "armed crash point must abort the child");
    let resume = run_child(
        &durable,
        &dir.join("resumed.txt"),
        "strict",
        4,
        1,
        99,
        &["--resume"],
        None,
    );
    assert!(resume.success, "resume failed:\n{}", resume.stdout);
    assert_eq!(
        wal_metrics_line(&resume.stdout),
        "WALMETRICS appends=2 syncs=2 rotations=1 replayed=1 truncations=1"
    );
    let recovered = std::fs::read_to_string(dir.join("resumed.txt")).expect("fingerprint");
    assert_eq!(recovered, reference(4, 1), "metrics trial still converges");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Randomized (kill point, sync mode, thread count, batch count):
    /// armed crash points and literal timing SIGKILLs, at 1/2/4 mining
    /// threads, all three sync modes, varying stream splits.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "child-process fault injection; run in release")]
    fn randomized_kill_points_converge(
        kill_choice in 0usize..8,
        sync_choice in 0usize..3,
        threads_choice in 0usize..3,
        batches in 3usize..6,
    ) {
        let sync = ["strict", "batched:2", "none"][sync_choice];
        let threads = [1usize, 2, 4][threads_choice];
        let labels = [
            "wal.append.mid:1",
            "wal.append.mid:2",
            "wal.append.pre-sync:2",
            "driver.post-append:2",
            "binio.write_file.pre-rename:2",
            "driver.pre-rotate:1",
        ];
        let tag = format!(
            "prop-{kill_choice}-{sync_choice}-{threads}-{batches}"
        );
        if kill_choice < labels.len() {
            crash_resume_compare(&tag, Some(labels[kill_choice]), None, sync, batches, threads);
        } else {
            // Timing kill right after fold 1 or 2 completes.
            let k = kill_choice - labels.len() + 1;
            crash_resume_compare(&tag, None, Some(k.min(batches - 1)), sync, batches, threads);
        }
    }
}

/// Known answer for the one checksummed frame the WAL and the wire share:
/// `len u32 | id u64 | FNV-1a(id_le ++ payload) u64 | payload`, pinned as
/// literal bytes. The payload is the WAL encoding of a batch holding one
/// session `["giant"]`, framed with id 1 — the first sequence number a
/// fresh log assigns. A change of any byte in the shared primitive fails
/// here on both sides at once.
#[test]
fn wal_and_wire_frames_match_the_known_answer() {
    use giant::incr::{DeltaBatch, SyncMode, Wal};
    use giant::net::wire::encode_frame;

    #[rustfmt::skip]
    const PAYLOAD: [u8; 29] = [
        0, 0, 0, 0, // docs: 0
        0, 0, 0, 0, // clicks: 0
        1, 0, 0, 0, // sessions: 1
        1, 0, 0, 0, // session 0: 1 query
        5, 0, 0, 0, b'g', b'i', b'a', b'n', b't',
        0, 0, 0, 0, // entities: 0
    ];
    #[rustfmt::skip]
    const HEADER: [u8; 20] = [
        29, 0, 0, 0,                                    // len
        1, 0, 0, 0, 0, 0, 0, 0,                         // id
        0x3a, 0x91, 0xa0, 0xbf, 0xaa, 0x8d, 0xce, 0xdc, // checksum 0xdcce8daabfa0913a
    ];
    let known: Vec<u8> = [&HEADER[..], &PAYLOAD[..]].concat();

    let mut batch = DeltaBatch::new();
    batch.sessions.push(vec!["giant".into()]);
    assert_eq!(giant::incr::wal::encode_batch(&batch).unwrap(), PAYLOAD);

    assert_eq!(encode_frame(1, PAYLOAD.to_vec()).unwrap(), known, "wire frame");

    let dir = trial_dir("known-answer");
    let path = dir.join("ingest.wal");
    let mut wal = Wal::create(&path, SyncMode::Strict, 1).unwrap();
    assert_eq!(wal.append(&batch).unwrap(), 1);
    drop(wal);
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(&on_disk[..8], b"GIANTWAL");
    assert_eq!(&on_disk[12..], &known[..], "WAL entry after the 12-byte header");
    std::fs::remove_dir_all(&dir).ok();
}
