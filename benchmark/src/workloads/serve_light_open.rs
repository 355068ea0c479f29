//! `serve_light_open` — open-loop socket serving of the cheap kinds.
//!
//! One connection (a sender thread and a receiver thread; `TCP_NODELAY`
//! on the generator's socket only) offers a zipfian mix of 60%
//! `Conceptualize` and 40% `Recommend` on a schedule, at a ladder of
//! rates. In-process these requests cost about a microsecond, so the
//! wire, the reader thread, the admission queue, the wake-ups and the
//! reply writes are the whole latency: an `apps` speed-up must not move
//! this workload, and a `net` fix must.

use super::serving::{self, Served};
use super::{overhead_pct, Cx, Outcome};
use crate::fixture::ServeWorld;
use crate::load::{open_loop, OpenLoopRun};
use crate::stats::{median_of, percentile, sorted};
use giant::apps::OntologyService;
use std::time::{Duration, Instant};

/// Offered rates, requests per second, and each rung's share of the
/// measured time. The middle rung carries the gated latency.
const LADDER: [(f64, f64); 3] = [(1000.0, 0.25), (4000.0, 0.5), (16000.0, 0.25)];
/// Segments of identical request counts each rung is cut into.
const SEGMENTS: usize = 10;
/// Latency limit: a reply later than this missed it.
const LIMIT_US: f64 = 50_000.0;
/// The rung's p90 must stay within this for the rate to count as in-SLO.
const SLO_P90_US: f64 = 2_000.0;

struct Rung {
    rate: f64,
    run: OpenLoopRun,
    /// Latency of every answered request, µs, in send order.
    latency_us: Vec<f64>,
    /// The same, ascending.
    sorted_us: Vec<f64>,
    /// Median latency of each segment, µs.
    segment_p50_us: Vec<f64>,
}

impl Rung {
    fn label(&self) -> String {
        format!("r{}", self.rate as u64)
    }

    /// In SLO: p90 within the limit, nothing failed or late, and no
    /// growing backlog (the last second no slower than twice the first).
    fn in_slo(&self) -> bool {
        let per_s = self.rate as usize;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let first = mean(&self.latency_us[..per_s.min(self.latency_us.len())]);
        let last = mean(&self.latency_us[self.latency_us.len().saturating_sub(per_s)..]);
        percentile(&self.sorted_us, 90.0) <= SLO_P90_US
            && self.run.failed + self.run.wrong == 0
            && self.sorted_us.last().is_none_or(|&l| l <= LIMIT_US)
            && last <= 2.0 * first
    }
}

fn run_rung(served: &Served, seed: u64, rate: f64, secs: f64) -> Rung {
    // Whole segments of identical request counts.
    let per_segment = ((rate * secs) as usize / SEGMENTS).max(20);
    let order = served
        .pools
        .draw(seed ^ rate as u64, per_segment * SEGMENTS);
    let frames = served.frames_for(&order);
    let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let run = open_loop(
        served.server.local_addr(),
        &refs,
        |i| &served.answers[order[i] as usize],
        rate,
    )
    .expect("open-loop run");
    let segment_p50_us = run
        .latency_us
        .chunks(per_segment)
        .map(|seg| {
            let answered: Vec<f64> = seg.iter().copied().filter(|l| l.is_finite()).collect();
            median_of(&answered)
        })
        .collect();
    let latency_us: Vec<f64> = run
        .latency_us
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    Rung {
        rate,
        run,
        sorted_us: sorted(latency_us.clone()),
        latency_us,
        segment_p50_us,
    }
}

/// Runs the workload.
pub fn run(cx: &mut Cx) -> Outcome {
    let mut out = Outcome::default();
    let (served, setup_s) = serving::setup(cx, ServeWorld::light_pools);
    out.check(
        "every distinct request's socket reply equals the in-process answer of the pre-checkpoint service",
        served.check_every_distinct_request(),
    );

    // Measured phase: the ladder. The traced run spends half its time
    // here and half on the layer probes.
    let budget = cx.seconds * if cx.trace { 0.5 } else { 1.0 };
    let mut rungs: Vec<Rung> = Vec::new();
    for (rate, share) in LADDER {
        let (rung, _) = cx.rec.span("net.open_loop", |_| {
            run_rung(&served, cx.seed, rate, budget * share)
        });
        rungs.push(rung);
    }
    let sent: usize = rungs.iter().map(|r| r.run.latency_us.len()).sum();
    let failed: usize = rungs.iter().map(|r| r.run.failed).sum();
    let wrong: usize = rungs.iter().map(|r| r.run.wrong).sum();
    let wall: f64 = rungs.iter().map(|r| r.run.wall_s).sum();
    out.attempted = sent as u64;
    out.failed = (failed + wrong) as u64;
    out.check("no reply differed from the reference answer", wrong == 0);

    out.put_summary("setup_s", setup_s);
    out.put("work_per_s", (sent - failed - wrong) as f64 / wall);
    out.put_median("op_p50_us", &rungs[1].segment_p50_us);
    if !cx.trace {
        return out;
    }

    // One span per request of the gated rung, from its due time to its
    // reply, so the trace file shows the schedule.
    cx.rec.span("net.open_loop.r4000", |rec| {
        let gap = Duration::from_secs_f64(1.0 / rungs[1].rate);
        for (i, l) in rungs[1]
            .run
            .latency_us
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_finite())
        {
            let due = rungs[1].run.epoch + gap.mul_f64(i as f64);
            let op = rec.next_op();
            rec.add(
                "net.request",
                due,
                due + Duration::from_secs_f64(l / 1e6),
                op,
            );
        }
    });
    let mut over_limit = 0;
    for rung in &rungs {
        let label = rung.label();
        let lat = &rung.sorted_us;
        out.put_median(format!("net.p50_us.{label}"), &rung.segment_p50_us);
        out.put(format!("net.p99_us.{label}"), percentile(lat, 99.0));
        out.put(
            format!("net.gen_lag_us_p99.{label}"),
            percentile(&sorted(rung.run.lag_us.clone()), 99.0),
        );
        over_limit += lat.iter().filter(|&&l| l > LIMIT_US).count();
    }
    out.put("net.p90_us.r4000", percentile(&rungs[1].sorted_us, 90.0));
    out.put("net.over_50ms", over_limit as f64);
    out.put(
        "net.max_rate_in_slo_rps",
        rungs
            .iter()
            .filter(|r| r.in_slo())
            .map(|r| r.rate)
            .fold(0.0, f64::max),
    );
    serving::server_stats(&[served.server.stats_report()], &mut out);

    // Warm start: restore from the checkpoint to the first answer.
    let probe = &served.pools.requests[0];
    let mut warm_ms = Vec::new();
    cx.rec.span("apps.warm_start", |_| {
        for _ in 0..15 {
            let t = Instant::now();
            let svc = OntologyService::restore(&served.ckpt).expect("restore");
            std::hint::black_box(svc.serve(probe).ok());
            warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    });
    out.put_median("apps.warm_start_ms", &warm_ms);

    // Tracing overhead: the gated rung twice more, spans armed and not.
    let secs = (cx.seconds * 0.1).max(0.5);
    cx.rec.set_armed(false);
    let plain = run_rung(&served, cx.seed + 1, LADDER[1].0, secs);
    cx.rec.set_armed(true);
    let (armed, _) = cx.rec.span("net.open_loop", |_| {
        run_rung(&served, cx.seed + 1, LADDER[1].0, secs)
    });
    out.put(
        "bench.trace_overhead_pct",
        overhead_pct(&armed.segment_p50_us, &plain.segment_p50_us),
    );

    let order = served.pools.draw(cx.seed, 4000);
    serving::layer_probes(cx, &served, &order, &mut out);
    serving::setup_layers(cx, &served, &mut out);
    out
}
