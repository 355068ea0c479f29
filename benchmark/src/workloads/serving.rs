//! What the two socket-serving workloads share: the service is built,
//! checkpointed and **restored**, the restored instance is served by an
//! in-process `giant::net::Server` on an ephemeral loopback port, and the
//! same per-layer probes run against it.

use super::{mean_span_s, Cx, Outcome};
use crate::fixture::{reference_answers, repeat_setup, server_config, KindPools, ServeWorld};
use crate::load::{closed_loop, echo_rtts_us, judge, raw_call, ClosedSample, Verdict};
use crate::mix::Pools;
use crate::stats::{median_of, Summary};
use giant::apps::{OntologyService, ServeRequest};
use giant::net::wire::{decode_reply, encode_request_frame, kind_index, Request, KIND_LABELS};
use giant::net::{Server, StatsReport};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// A served world, ready for load.
pub struct Served {
    /// The restored service the server answers from.
    pub service: Arc<OntologyService>,
    /// The server under test.
    pub server: Server,
    /// The workload's distinct requests.
    pub pools: Pools,
    /// The pre-checkpoint service's reply payload for `pools.requests[i]`.
    pub answers: Vec<Vec<u8>>,
    /// The checkpoint the served instance was restored from.
    pub ckpt: PathBuf,
}

/// Builds, checkpoints, restores and serves, [`crate::fixture::SETUP_REPEATS`]
/// times; returns the last with the set-up time summary.
pub fn setup(cx: &mut Cx, pools_of: fn(&ServeWorld) -> KindPools) -> (Served, Summary) {
    repeat_setup(|_| {
        let world = ServeWorld::build(cx.smoke, &mut cx.rec);
        let path = cx.scratch.path().join("serve.ckpt");
        cx.rec.span("ontology.ckpt_write", |_| {
            world.serving.service.checkpoint(&path).expect("checkpoint")
        });
        let (restored, _) = cx.rec.span("ontology.ckpt_read", |_| {
            OntologyService::restore(&path).expect("restore")
        });
        let pools = Pools::new(pools_of(&world));
        // Reference answers come from the service that was checkpointed;
        // the socket serves the restored one, so one comparison checks
        // both "socket == in-process" and "restored == original".
        let answers = reference_answers(&world.serving.service, &pools.requests);
        let service = Arc::new(restored);
        let server = Server::start(Arc::clone(&service), "127.0.0.1:0", server_config())
            .expect("start server");
        Served {
            service,
            server,
            pools,
            answers,
            ckpt: path,
        }
    })
}

impl Served {
    /// Sends every distinct pool request over one raw connection and
    /// compares the reply payload with the reference, byte for byte.
    pub fn check_every_distinct_request(&self) -> bool {
        let Ok(mut stream) = TcpStream::connect(self.server.local_addr()) else {
            return false;
        };
        let every: Vec<u32> = (0..self.pools.requests.len() as u32).collect();
        self.frames_for(&every)
            .iter()
            .zip(&self.answers)
            .all(|(frame, answer)| {
                raw_call(&mut stream, frame).is_ok_and(|p| judge(&p, answer) == Verdict::Match)
            })
    }

    /// Frames for `order` with wire ids `1..=order.len()`.
    pub fn frames_for(&self, order: &[u32]) -> Vec<Vec<u8>> {
        order
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let req = Request::Serve(self.pools.requests[r as usize].clone());
                encode_request_frame(i as u64 + 1, &req).expect("request encodes")
            })
            .collect()
    }

    /// The kind label of pool request `r`.
    pub fn kind_of(&self, r: u32) -> &'static str {
        KIND_LABELS[kind_index(&self.pools.requests[r as usize])]
    }
}

/// Per-kind medians of `(pool request, value)` samples.
fn per_kind(served: &Served, samples: &[(u32, f64)]) -> Vec<(&'static str, f64)> {
    KIND_LABELS
        .iter()
        .filter_map(|&kind| {
            let v: Vec<f64> = samples
                .iter()
                .filter(|s| served.kind_of(s.0) == kind)
                .map(|s| s.1)
                .collect();
            (!v.is_empty()).then(|| (kind, median_of(&v)))
        })
        .collect()
}

/// The probes both serving workloads take in the traced run, over the
/// first `n` requests of `order`: in-process serve cost, wire codec cost,
/// the sandbox's echo floor, one-connection round trips, and what is left
/// of a round trip once serve cost and the floor are taken out.
pub fn layer_probes(cx: &mut Cx, served: &Served, order: &[u32], out: &mut Outcome) {
    let order = &order[..order.len().min(if cx.smoke { 200 } else { 4000 })];
    let pool = &served.pools.requests;
    cx.rec.next_op();

    // apps: in-process serve, per kind.
    let mut serve_us = Vec::with_capacity(order.len());
    cx.rec.span("apps.serve", |_| {
        for &r in order {
            let t = Instant::now();
            std::hint::black_box(served.service.serve(&pool[r as usize]).ok());
            serve_us.push((r, t.elapsed().as_secs_f64() * 1e6));
        }
    });
    let serve = per_kind(served, &serve_us);
    for (kind, p50) in &serve {
        out.put(format!("apps.serve_us_p50.{kind}"), *p50);
    }
    let threads = server_config().exec_threads;
    let mut batch_us = Vec::new();
    cx.rec.span("apps.serve_batch", |_| {
        for chunk in order.chunks_exact(32).take(200) {
            let batch: Vec<ServeRequest> =
                chunk.iter().map(|&r| pool[r as usize].clone()).collect();
            let t = Instant::now();
            std::hint::black_box(served.service.serve_batch(&batch, threads));
            batch_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    if !batch_us.is_empty() {
        out.put_median("apps.serve_batch_us_b32", &batch_us);
    }

    // net: wire codec in memory.
    let (_, encode_s) = cx.rec.span("net.encode_request", |_| {
        for (i, &r) in order.iter().enumerate() {
            let req = Request::Serve(pool[r as usize].clone());
            std::hint::black_box(encode_request_frame(i as u64 + 1, &req).ok());
        }
    });
    let (_, decode_s) = cx.rec.span("net.decode_reply", |_| {
        for &r in order {
            std::hint::black_box(decode_reply(&served.answers[r as usize]).ok());
        }
    });
    out.put("net.encode_request_us", encode_s * 1e6 / order.len() as f64);
    out.put("net.decode_reply_us", decode_s * 1e6 / order.len() as f64);

    // net: the sandbox floor, then real round trips on one connection.
    let frames = served.frames_for(order);
    let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let (echo, _) = cx
        .rec
        .span("net.echo", |_| echo_rtts_us(&refs).expect("echo"));
    let echo_p50 = median_of(&echo);
    out.put_median("net.echo_rtt_us_p50", &echo);
    let never = AtomicBool::new(false);
    let (samples, _) = cx.rec.span("net.closed_rtt", |_| {
        closed_loop(served.server.local_addr(), pool, order, None, &never).expect("closed loop")
    });
    add_request_spans(cx, "net.request", &samples);
    let rtt_us: Vec<(u32, f64)> = samples
        .iter()
        .map(|s| (s.request, (s.end - s.start).as_secs_f64() * 1e6))
        .collect();
    for (kind, rtt) in per_kind(served, &rtt_us) {
        out.put(format!("net.closed_rtt_us_p50.{kind}"), rtt);
        let served_us = serve.iter().find(|s| s.0 == kind).map_or(0.0, |s| s.1);
        out.put(
            format!("net.overhead_us_p50.{kind}"),
            rtt - served_us - echo_p50,
        );
    }
}

/// Adds one span per closed-loop request under the currently open span.
pub fn add_request_spans(cx: &mut Cx, name: &'static str, samples: &[ClosedSample]) {
    for s in samples {
        let op = cx.rec.next_op();
        cx.rec.add(name, s.start, s.end, op);
    }
}

/// Server-side counters over the measured phase, from the
/// `Server::stats_report()` of every server that took part in it: counts
/// are summed, high-water marks are maxima, and a kind's latency is the
/// median of the servers' medians.
pub fn server_stats(reports: &[StatsReport], out: &mut Outcome) {
    for kind in KIND_LABELS {
        let p50s: Vec<f64> = reports
            .iter()
            .flat_map(|r| &r.kinds)
            .filter(|row| row.kind == kind && row.count > 0)
            .map(|row| row.p50_us)
            .collect();
        if !p50s.is_empty() {
            out.put(format!("net.server_p50_us.{kind}"), median_of(&p50s));
        }
    }
    let sum = |f: fn(&StatsReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&StatsReport) -> u32| f64::from(reports.iter().map(f).max().unwrap_or(0));
    out.put("net.batches", sum(|r| r.batches));
    out.put(
        "net.mean_batch",
        sum(|r| r.served) / sum(|r| r.batches).max(1.0),
    );
    out.put("net.max_batch", max(|r| r.max_batch));
    out.put("net.queue_max_depth", max(|r| r.queue_max_depth));
    out.put("net.shed", sum(|r| r.shed));
}

/// Set-up attribution: mean duration of each set-up span over the repeats.
pub fn setup_layers(cx: &Cx, served: &Served, out: &mut Outcome) {
    for (metric, span) in [
        ("data.generate_s", "data.generate"),
        ("apps.build_serving_s", "apps.build_serving"),
        ("ontology.ckpt_write_s", "ontology.ckpt_write"),
        ("ontology.ckpt_read_s", "ontology.ckpt_read"),
    ] {
        out.put(metric, mean_span_s(&cx.rec, span));
    }
    out.put(
        "ontology.ckpt_bytes",
        std::fs::metadata(&served.ckpt).map_or(0, |m| m.len()) as f64,
    );
}
