//! `serve_heavy_closed` — closed-loop socket serving of the heavy kinds.
//!
//! Two connections through `NetClient::serve`, each sending its next
//! request when the previous reply arrives: a zipfian mix of 80%
//! `TagDocument` and 20% `StoryTree`. At a few hundred microseconds a
//! request, `apps` (tagger, Duet, story tree) dominates the round trip —
//! the mirror of `serve_light_open`: a socket-option fix should barely
//! move it, and a tagger fix should.

use super::serving::{self, Served};
use super::{overhead_pct, Cx, Outcome};
use crate::fixture::{server_config, ServeWorld};
use crate::load::{closed_loop, ClosedSample};
use crate::stats::{median_of, percentile, sorted};
use giant::apps::OntologyService;
use giant::net::{Server, StatsReport};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop connections (the box has two processors).
const CONNECTIONS: usize = 2;
/// Requests each connection sends per segment (20 in a smoke run).
const PER_SEGMENT: usize = 500;

struct Segment {
    samples: Vec<ClosedSample>,
    wall_s: f64,
    /// The segment's server's counters.
    stats: StatsReport,
}

/// One segment: every connection sends its fixed share, concurrently, to a
/// server over a freshly restored service instance.
///
/// What a `TagDocument` costs differs from one restored instance to the
/// next (hash-map seeds and heap placement: the in-process median ranged
/// 110–162 µs over eight identical processes). A run that served one
/// instance would report that instance's draw; serving a new one each
/// segment and taking the median reports the typical instance.
fn run_segment(served: &Served, seed: u64, per_conn: usize) -> Segment {
    let service = Arc::new(OntologyService::restore(&served.ckpt).expect("restore"));
    let server = Server::start(service, "127.0.0.1:0", server_config()).expect("start server");
    let addr = server.local_addr();
    let never = AtomicBool::new(false);
    let orders: Vec<Vec<u32>> = (0..CONNECTIONS)
        .map(|c| {
            served
                .pools
                .draw(seed.wrapping_mul(31).wrapping_add(c as u64), per_conn)
        })
        .collect();
    let samples: Vec<ClosedSample> = std::thread::scope(|scope| {
        let handles: Vec<_> = orders
            .iter()
            .map(|order| {
                let never = &never;
                scope.spawn(move || {
                    closed_loop(addr, &served.pools.requests, order, None, never)
                        .expect("closed-loop connection")
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let stats = server.stats_report();
    server.shutdown();
    let start = samples.iter().map(|s| s.start).min().expect("samples");
    let end = samples.iter().map(|s| s.end).max().expect("samples");
    Segment {
        samples,
        wall_s: (end - start).as_secs_f64(),
        stats,
    }
}

fn rtt_us(s: &ClosedSample) -> f64 {
    (s.end - s.start).as_secs_f64() * 1e6
}

/// Runs the workload.
pub fn run(cx: &mut Cx) -> Outcome {
    let mut out = Outcome::default();
    let (served, setup_s) = serving::setup(cx, ServeWorld::heavy_pools);
    out.check(
        "every distinct request's socket reply equals the in-process answer of the pre-checkpoint service",
        served.check_every_distinct_request(),
    );

    let per_conn = if cx.smoke { 20 } else { PER_SEGMENT };
    let deadline = cx.deadline(if cx.trace { 0.5 } else { 1.0 });
    let mut segments: Vec<Segment> = Vec::new();
    let (mut armed_p50, mut disarmed_p50) = (Vec::new(), Vec::new());
    while Instant::now() < deadline || segments.len() < 5 {
        let armed = cx.trace && segments.len().is_multiple_of(2);
        cx.rec.set_armed(armed);
        let seed = cx.seed + segments.len() as u64;
        let (segment, _) = cx.rec.span("net.closed_segment", |_| {
            run_segment(&served, seed, per_conn)
        });
        serving::add_request_spans(cx, "net.request", &segment.samples);
        cx.rec.set_armed(cx.trace);
        let p50 = median_of(&segment.samples.iter().map(rtt_us).collect::<Vec<f64>>());
        if armed {
            armed_p50.push(p50);
        } else {
            disarmed_p50.push(p50);
        }
        segments.push(segment);
    }

    let all: Vec<&ClosedSample> = segments.iter().flat_map(|s| &s.samples).collect();
    let ok = all.iter().filter(|s| s.ok).count();
    out.attempted = (segments.len() * CONNECTIONS * per_conn) as u64;
    out.failed = out.attempted - ok as u64;
    let segment_p50: Vec<f64> = segments
        .iter()
        .map(|seg| median_of(&seg.samples.iter().map(rtt_us).collect::<Vec<f64>>()))
        .collect();
    out.put_summary("setup_s", setup_s);
    // Median segment throughput: a stall (the box is shared) lands in a
    // few segments and must not move the others' number.
    let segment_rps: Vec<f64> = segments
        .iter()
        .map(|seg| seg.samples.iter().filter(|s| s.ok).count() as f64 / seg.wall_s)
        .collect();
    out.put_median("work_per_s", &segment_rps);
    out.put_median("op_p50_us", &segment_p50);
    if !cx.trace {
        return out;
    }

    let rtts = sorted(all.iter().map(|s| rtt_us(s)).collect());
    out.put("net.p90_us.heavy", percentile(&rtts, 90.0));
    out.put("net.p99_us.heavy", percentile(&rtts, 99.0));
    out.put(
        "bench.trace_overhead_pct",
        overhead_pct(&armed_p50, &disarmed_p50),
    );
    let stats: Vec<StatsReport> = segments.iter().map(|s| s.stats.clone()).collect();
    serving::server_stats(&stats, &mut out);
    let order = served.pools.draw(cx.seed, 4000);
    serving::layer_probes(cx, &served, &order, &mut out);
    serving::setup_layers(cx, &served, &mut out);
    out
}
