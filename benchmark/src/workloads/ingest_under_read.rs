//! `ingest_under_read` — writes beside reads on the same serving layer.
//!
//! A durable `IncrementalDriver` (builtin schema armed, WAL with group
//! commit of 8, state checkpoint every 4 folds) is bootstrapped on the
//! first 40% of the document stream and then ingests a fixed run of small
//! document-arrival batches from the main thread, while one paced
//! closed-loop reader (one connection, 500 rps, the light mix) hits the
//! same `OntologyService` over the socket. Fold, WAL, checkpoint and
//! publish run against live reads: a publish-path or frame-swap change
//! that helps writers but stalls readers shows up as a split result.
//!
//! Every round starts from a fresh bootstrap (not measured), so rounds do
//! identical work.

use super::{mean_span_s, overhead_pct, Cx, Outcome};
use crate::fixture::{dump_fingerprint, mining_config, repeat_setup, server_config, ServeWorld};
use crate::load::{closed_loop, ClosedSample};
use crate::mix::Pools;
use crate::stats::{median_of, percentile, sorted};
use giant::apps::{
    refresh_resources, DurabilityConfig, IncrementalDriver, OntologyService, ServeRequest,
    ServeResources,
};
use giant::incr::{
    screen_batch, union_input, CorpusStream, DeltaBatch, IncrementalState, SyncMode, Wal,
};
use giant::mining::{run_pipeline, GiantConfig};
use giant::net::Server;
use giant::ontology::{OntologyDelta, OntologySnapshot};
use giant::schema::Schema;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Share of the document stream the bootstrap folds.
const BOOTSTRAP: f64 = 0.4;
/// Batches a round ingests after the bootstrap. Not a multiple of the
/// checkpoint interval, so a restart has a WAL tail to replay.
const ROUND_BATCHES: usize = 14;
/// Share of the document stream in each batch (about 55 documents).
const BATCH_SHARE: f64 = 0.025;
/// The reader's paced rate, requests per second.
const READ_RATE: f64 = 500.0;
/// Frames the service retains.
const KEEP_FRAMES: usize = 2;
/// Folds between state checkpoints.
const CHECKPOINT_EVERY: u64 = 4;
/// Reads per segment: the reader's latency is the median of the segments'
/// medians, so a stall (the box is shared) moves only the segments it hits.
const READ_SEGMENT: usize = 250;
/// Probe requests compared across a restart.
const PROBES: usize = 200;

struct Inputs {
    world: ServeWorld,
    stream: CorpusStream,
    /// `[bootstrap, batch 1, .., batch ROUND_BATCHES]`.
    batches: Vec<DeltaBatch>,
    base: ServeResources,
    reads: Pools,
}

fn setup(cx: &mut Cx) -> Inputs {
    let world = ServeWorld::build(cx.smoke, &mut cx.rec);
    let stream = world.setup.corpus_stream();
    let cuts: Vec<f64> = (0..=ROUND_BATCHES)
        .map(|i| BOOTSTRAP + BATCH_SHARE * i as f64)
        .collect();
    let mut batches = stream.split_on_doc_arrival(&cuts);
    batches.truncate(ROUND_BATCHES + 1); // the unused tail of the stream
    let base = (*world.serving.service.resources()).clone();
    let reads = Pools::new(world.light_pools());
    Inputs {
        world,
        stream,
        batches,
        base,
        reads,
    }
}

fn durability(cx: &Cx) -> DurabilityConfig {
    DurabilityConfig {
        dir: cx.scratch.path().join("durable"),
        sync: SyncMode::Batched(8),
        checkpoint_every: CHECKPOINT_EVERY,
    }
}

/// The fold mines on one thread, leaving the box's other processor to the
/// serving side: with both processors mining, the reader's latency measures
/// how the scheduler starves it, not what a publish does to a read.
fn fold_config() -> GiantConfig {
    GiantConfig {
        threads: 1,
        ..mining_config()
    }
}

fn fresh_state(inputs: &Inputs) -> IncrementalState {
    IncrementalState::new(
        inputs.stream.categories.clone(),
        inputs.stream.annotator.clone(),
        inputs.world.models.clone(),
        fold_config(),
    )
}

/// A fresh durable driver, bootstrapped and ready to ingest.
fn bootstrap(cx: &Cx, inputs: &Inputs) -> IncrementalDriver {
    let (mut driver, _) = IncrementalDriver::bootstrap(
        fresh_state(inputs),
        inputs.base.clone(),
        inputs.batches[0].clone(),
        KEEP_FRAMES,
    )
    .expect("bootstrap");
    driver.set_schema(Some(Arc::new(Schema::builtin())));
    let cfg = durability(cx);
    std::fs::remove_dir_all(&cfg.dir).ok();
    driver.enable_durability(cfg).expect("enable durability");
    driver
}

/// Runs `writes` on this thread while a paced reader hits `service` over
/// the socket; returns what `writes` returned and the reader's samples.
fn beside_reader<R>(
    service: &Arc<OntologyService>,
    reads: &Pools,
    seed: u64,
    writes: impl FnOnce() -> R,
) -> (R, Vec<ClosedSample>) {
    let server =
        Server::start(Arc::clone(service), "127.0.0.1:0", server_config()).expect("start server");
    // More requests than any round can last for; `stop` ends the reader.
    let order = reads.draw(seed, (READ_RATE * 120.0) as usize);
    let stop = AtomicBool::new(false);
    let out = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            closed_loop(
                server.local_addr(),
                &reads.requests,
                &order,
                Some(READ_RATE),
                &stop,
            )
            .expect("reader connection")
        });
        let out = writes();
        stop.store(true, Ordering::Relaxed);
        (out, reader.join().expect("reader thread panicked"))
    });
    server.shutdown();
    out
}

struct Round {
    /// Fingerprint of the final ontology dump.
    dump: u64,
    ingest_s: Vec<f64>,
    ingest_failed: usize,
    reads: Vec<ClosedSample>,
}

/// One round: fresh bootstrap (not timed), then the fixed batches beside
/// the reader. In the traced run every other batch's span is armed, the
/// parity flipping each round so both sides see every batch position.
fn run_round(cx: &mut Cx, inputs: &Inputs, round: usize) -> (Round, IncrementalDriver) {
    let mut driver = bootstrap(cx, inputs);
    let service = Arc::clone(driver.service());
    let trace = cx.trace;
    let rec = &mut cx.rec;
    let ((ingest_s, ingest_failed), reads) =
        beside_reader(&service, &inputs.reads, cx.seed + round as u64, || {
            let mut secs = Vec::with_capacity(ROUND_BATCHES);
            let mut failed = 0;
            for (i, batch) in inputs.batches[1..].iter().enumerate() {
                let batch = batch.clone();
                rec.set_armed(trace && (i + round).is_multiple_of(2));
                rec.next_op();
                let (report, s) = rec.span("apps.ingest", |_| driver.ingest(batch));
                secs.push(s);
                failed += usize::from(report.is_err());
            }
            rec.set_armed(trace);
            (secs, failed)
        });
    let round = Round {
        dump: dump_fingerprint(driver.state().ontology()),
        ingest_s,
        ingest_failed,
        reads,
    };
    (round, driver)
}

fn read_latency_us(samples: &[ClosedSample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
        .collect()
}

fn probe_answers(service: &OntologyService, probes: &[ServeRequest]) -> Vec<String> {
    probes
        .iter()
        .map(|p| format!("{:?}", service.serve(p)))
        .collect()
}

/// Runs the workload.
pub fn run(cx: &mut Cx) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = repeat_setup(|_| setup(cx));
    let docs_per_round: usize = inputs.batches[1..].iter().map(|b| b.docs.len()).sum();

    // Measured phase: rounds of identical work until the time is up.
    let deadline = cx.deadline(if cx.trace { 0.5 } else { 1.0 });
    let mut rounds: Vec<Round> = Vec::new();
    let mut last = None;
    while Instant::now() < deadline || rounds.len() < 2 {
        // One driver alive at a time: peak memory must not grow with the
        // number of rounds, and the durable directory is the last round's.
        drop(last.take());
        let (round, driver) = run_round(cx, &inputs, rounds.len());
        rounds.push(round);
        last = Some(driver);
    }
    let last = last.expect("at least two rounds");

    // Checks: the maintained ontology equals a full rebuild over the same
    // batches, every round; and a restart from the durable directory
    // answers as the never-restarted service did.
    let reference = run_pipeline(
        &union_input(
            inputs.stream.categories.clone(),
            inputs.stream.annotator.clone(),
            &inputs.batches,
        ),
        &inputs.world.models,
        &mining_config(),
    );
    let reference = dump_fingerprint(&reference.ontology);
    out.check(
        "every round's final ontology dump equals run_pipeline over the union of its batches",
        rounds.iter().all(|r| r.dump == reference),
    );
    let ingest_s: Vec<f64> = rounds.iter().flat_map(|r| r.ingest_s.clone()).collect();
    let reads: Vec<ClosedSample> = rounds.iter().flat_map(|r| r.reads.clone()).collect();
    let ingest_failed: usize = rounds.iter().map(|r| r.ingest_failed).sum();
    // Docs per second over a round whose every batch took its median time
    // across the rounds: keeps the checkpoint batches' cost in, and a stall
    // in one round (the box is shared) out.
    let typical_round_s: f64 = (0..ROUND_BATCHES)
        .map(|i| median_of(&rounds.iter().map(|r| r.ingest_s[i]).collect::<Vec<f64>>()))
        .sum();

    let probes: Vec<ServeRequest> = inputs.reads.requests.iter().take(PROBES).cloned().collect();
    let before = probe_answers(last.service(), &probes);
    let version = last.service().version();
    let (state_ckpt_s, state_ckpt_bytes) = if cx.trace {
        let path = cx.scratch.path().join("state.ckpt");
        let secs: Vec<f64> = (0..3)
            .map(|_| {
                cx.rec
                    .span("incr.state_ckpt", |_| {
                        last.checkpoint(&path).expect("checkpoint")
                    })
                    .1
            })
            .collect();
        (
            median_of(&secs),
            std::fs::metadata(&path).map_or(0, |m| m.len()),
        )
    } else {
        (0.0, 0)
    };
    drop(last);
    let durable = durability(cx);
    let ((restored, restore), restore_s) = cx.rec.span("incr.restore_durable", |_| {
        IncrementalDriver::restore_durable(
            durable,
            inputs.stream.annotator.clone(),
            inputs.world.models.clone(),
            KEEP_FRAMES,
        )
        .expect("restore from the durable directory")
    });
    out.check(
        "after restore_durable the probe answers and version equal those before the restart",
        probe_answers(restored.service(), &probes) == before
            && restored.service().version() == version,
    );
    drop(restored);

    let read_us = read_latency_us(&reads);
    let reads_ok = reads.iter().filter(|s| s.ok).count();
    out.attempted = (ingest_s.len() + reads.len()) as u64;
    out.failed = (ingest_failed + reads.len() - reads_ok) as u64;
    out.put_summary("setup_s", setup_s);
    out.put("work_per_s", docs_per_round as f64 / typical_round_s);
    let segment_p50: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.reads.chunks(READ_SEGMENT))
        .map(|segment| median_of(&read_latency_us(segment)))
        .collect();
    out.put_median("op_p50_us", &segment_p50);
    if !cx.trace {
        return out;
    }

    // Per-layer attribution, from outside: the benchmark performs the
    // ingest steps itself through each layer's public functions, one span
    // each, beside the same paced reader.
    let (armed, disarmed): (Vec<_>, Vec<_>) = ingest_s
        .iter()
        .enumerate()
        .partition(|(i, _)| (i % ROUND_BATCHES + i / ROUND_BATCHES).is_multiple_of(2));
    let strip = |v: Vec<(usize, &f64)>| v.into_iter().map(|(_, s)| *s).collect::<Vec<f64>>();
    out.put(
        "bench.trace_overhead_pct",
        overhead_pct(&strip(armed), &strip(disarmed)),
    );
    out.put(
        "net.p99_us.read_under_ingest",
        percentile(&sorted(read_us), 99.0),
    );
    let ingest_ms: Vec<f64> = ingest_s.iter().map(|s| s * 1e3).collect();
    out.put_median("apps.ingest_ms_p50", &ingest_ms);
    out.put("apps.ingest_ms_p90", percentile(&sorted(ingest_ms), 90.0));
    out.put("incr.state_ckpt_s", state_ckpt_s);
    out.put("incr.state_ckpt_bytes", state_ckpt_bytes as f64);
    out.put("incr.restore_durable_s", restore_s);
    out.put("incr.replayed", restore.replayed as f64);

    let schema = Schema::builtin();
    let mut state = fresh_state(&inputs);
    let boot = state
        .fold(inputs.batches[0].clone())
        .expect("bootstrap fold");
    let service = Arc::new(OntologyService::new(
        OntologySnapshot::freeze(state.ontology()),
        refresh_resources(&inputs.base, &boot.output),
    ));
    let wal_path = cx.scratch.path().join("probe.wal");
    let mut wal = Wal::create(&wal_path, SyncMode::Batched(8), 1).expect("scratch wal");
    let mark = cx.rec.spans().len();
    let (mut evicted, mut mined, mut reused, mut rejections) = (0, 0, 0, 0);
    let rec = &mut cx.rec;
    beside_reader(&service, &inputs.reads, cx.seed, || {
        for batch in &inputs.batches[1..] {
            rec.next_op();
            rec.span("apps.ingest_replica", |rec| {
                let (screened, _) = rec.span("schema.screen", |_| {
                    screen_batch(&schema, state.input().docs.len(), batch)
                });
                rejections += screened.rejections.len();
                rec.span("incr.wal_append", |_| {
                    wal.append(&screened.accepted).expect("append")
                });
                let before = state.ontology().clone();
                let (report, _) = rec.span("incr.fold", |_| {
                    state.fold(screened.accepted).expect("fold")
                });
                evicted += report.evicted_walks;
                mined += report.cache.clusters_mined;
                reused += report.cache.clusters_reused;
                let (snapshot, _) = rec.span("ontology.freeze", |_| {
                    OntologySnapshot::freeze(state.ontology())
                });
                rec.span("apps.publish", |_| {
                    let resources = refresh_resources(&service.resources(), &report.output);
                    service.publish(snapshot, resources);
                    service.retain_last(KEEP_FRAMES);
                });
                // Outside the ingest path proper (the fold already did
                // both): the delta arithmetic on its own.
                let (delta, _) = rec.span("ontology.delta_diff", |_| {
                    OntologyDelta::diff(&before, state.ontology())
                });
                rec.span("ontology.delta_apply", |_| {
                    std::hint::black_box(delta.apply(&before).ok())
                });
            });
        }
    });
    let wal_fsyncs = wal.syncs();
    drop(wal);
    let spans = &cx.rec.spans()[mark..];
    let p50 = |name: &str| {
        let secs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        median_of(&secs)
    };
    out.put("schema.screen_s", p50("schema.screen"));
    out.put("schema.rejections", rejections as f64);
    out.put("incr.wal_append_us_p50", p50("incr.wal_append") * 1e6);
    out.put("incr.wal_fsyncs", wal_fsyncs as f64);
    out.put(
        "incr.wal_bytes",
        std::fs::metadata(&wal_path).map_or(0, |m| m.len()) as f64,
    );
    out.put("incr.fold_s_p50", p50("incr.fold"));
    out.put("ontology.freeze_s", p50("ontology.freeze"));
    out.put("apps.publish_s", p50("apps.publish"));
    out.put("ontology.delta_diff_s", p50("ontology.delta_diff"));
    out.put("ontology.delta_apply_s", p50("ontology.delta_apply"));
    out.put("graph.walks_evicted", evicted as f64);
    out.put("core.clusters_mined", mined as f64);
    out.put("core.clusters_reused", reused as f64);
    out.put(
        "core.reuse_ratio",
        reused as f64 / (mined + reused).max(1) as f64,
    );
    out.put("data.generate_s", mean_span_s(&cx.rec, "data.generate"));
    out.put(
        "apps.build_serving_s",
        mean_span_s(&cx.rec, "apps.build_serving"),
    );
    out
}
