//! Network serving: latency vs offered load through the `giant-net` front
//! door, plus an overload burst that exercises the admission bound.
//!
//! Builds the experiment world, starts an in-process server on an
//! ephemeral port, then:
//!
//! * **Latency–throughput curve** — for each offered rate, an open-loop
//!   client sends a zipfian mix of requests at scheduled arrival instants
//!   (arrivals do not wait for replies, so queueing delay is *measured*,
//!   not hidden — latency is taken from the scheduled arrival, which also
//!   avoids coordinated omission when the sender falls behind). Per-kind
//!   p50/p99 and achieved throughput are recorded per rate.
//! * **Burst phase** — a second server with a small admission queue and
//!   deliberately slowed workers takes a back-to-back blast; the run
//!   asserts typed sheds (no hangs, no panics) and that the queue's high
//!   water mark never exceeds its bound.
//!
//! Results land in `BENCH_net.json`. `--smoke` runs a reduced
//! configuration for CI and only prints its report: the committed file
//! holds full-mode numbers.
//!
//! ```text
//! cargo run --release -p giant-bench --bin net_throughput [-- --smoke]
//! ```

use giant::adapter::ModelTrainConfig;
use giant::net::wire::{
    decode_reply, encode_request_frame, kind_label, read_frame, Reply, Request, KIND_LABELS,
    N_KINDS,
};
use giant::net::{Server, ServerConfig};
use giant_apps::serving::ServeRequest;
use giant_bench::{Experiment, ExperimentConfig};
use giant_data::WorldConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Draws an index in `0..cum.len()` from the zipf CDF `cum` (cumulative,
/// last element = total mass).
fn zipf_idx(rng: &mut StdRng, cum: &[f64]) -> usize {
    let total = *cum.last().expect("non-empty pool");
    let x: f64 = rng.random::<f64>() * total;
    cum.partition_point(|&c| c < x).min(cum.len() - 1)
}

/// Cumulative zipf(s=1) masses for a pool of `n` ranked items.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|i| {
            acc += 1.0 / (i + 1) as f64;
            acc
        })
        .collect()
}

/// The zipfian request mix: kind chosen by fixed traffic shares
/// (conceptualize-heavy, as front-door traffic is), item within a kind by
/// zipf rank — a few hot queries dominate, with a long tail.
fn build_mix(exp: &Experiment, n: usize, smoke: bool, seed: u64) -> Vec<ServeRequest> {
    let queries = giant_bench::golden_queries(exp);
    let conceptualize: Vec<ServeRequest> = queries
        .iter()
        .map(|q| ServeRequest::Conceptualize { query: q.clone() })
        .collect();
    let recommend: Vec<ServeRequest> = exp
        .setup
        .world
        .entities
        .iter()
        .map(|e| ServeRequest::Recommend {
            query: format!("{} news", e.tokens.join(" ")),
        })
        .collect();
    let tag: Vec<ServeRequest> = exp
        .setup
        .corpus
        .docs
        .iter()
        .take(if smoke { 20 } else { 100 })
        .map(|d| ServeRequest::TagDocument {
            title: d.title.clone(),
            sentences: d.sentences.clone(),
        })
        .collect();
    let stories: Vec<ServeRequest> = exp
        .service
        .resources()
        .stories
        .iter()
        .take(if smoke { 8 } else { 32 })
        .map(|e| ServeRequest::StoryTree { seed: e.node })
        .collect();
    let pools = [conceptualize, recommend, tag, stories];
    let cdfs: Vec<Vec<f64>> = pools.iter().map(|p| zipf_cdf(p.len())).collect();
    // Traffic shares per kind: queries dominate, tagging/stories are the
    // heavy minority (their per-request cost shapes the p99 curve).
    let shares = [0.45, 0.30, 0.15, 0.10];
    let share_cum: Vec<f64> = shares
        .iter()
        .scan(0.0, |acc, s| {
            *acc += s;
            Some(*acc)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x: f64 = rng.random();
            let kind = share_cum.partition_point(|&c| c < x).min(pools.len() - 1);
            pools[kind][zipf_idx(&mut rng, &cdfs[kind])].clone()
        })
        .collect()
}

/// Sleeps until `deadline` — coarse sleep to within a millisecond, then a
/// spin for open-loop arrival precision.
fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_millis(1) {
            std::thread::sleep(remaining - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

struct RateRow {
    offered_rps: f64,
    achieved_rps: f64,
    sent: usize,
    ok: usize,
    shed: usize,
    /// (kind, n, p50_us, p99_us)
    kinds: Vec<(&'static str, usize, f64, f64)>,
}

fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// One open-loop run: `mix` sent at `rate` req/s over a fresh connection,
/// every reply awaited and timed from its scheduled arrival instant.
fn run_rate(addr: std::net::SocketAddr, mix: &[ServeRequest], rate: f64) -> RateRow {
    let stream = TcpStream::connect(addr).expect("connect load generator");
    // The generator must not hold a request back for the previous one's ACK.
    stream.set_nodelay(true).expect("TCP_NODELAY on the generator");
    let mut read_half = stream.try_clone().expect("clone stream");
    let kinds: Vec<usize> = mix
        .iter()
        .map(|r| KIND_LABELS
            .iter()
            .position(|&k| k == kind_label(r))
            .expect("known kind"))
        .collect();
    let n = mix.len();
    let interarrival = Duration::from_secs_f64(1.0 / rate);

    // Sender: frames at scheduled instants, never waiting for replies.
    let frames: Vec<Vec<u8>> = mix
        .iter()
        .enumerate()
        .map(|(i, r)| {
            encode_request_frame(i as u64 + 1, &Request::Serve(r.clone())).expect("encode")
        })
        .collect();
    let epoch = Instant::now();
    let sender = std::thread::spawn(move || {
        use std::io::Write as _;
        let mut stream = stream;
        for (i, frame) in frames.iter().enumerate() {
            sleep_until(epoch + interarrival * i as u32);
            if stream.write_all(frame).is_err() {
                break;
            }
        }
    });

    // Receiver (this thread): every request gets exactly one reply.
    let mut lat_us: Vec<Vec<f64>> = vec![Vec::new(); N_KINDS];
    let mut shed = 0usize;
    let mut last_recv = epoch;
    for _ in 0..n {
        let (id, payload) = read_frame(&mut read_half).expect("read reply");
        let reply = decode_reply(&payload).expect("decode reply");
        last_recv = Instant::now();
        let idx = (id - 1) as usize;
        match reply {
            Reply::Ok(_) | Reply::Err(_) => {
                let scheduled = epoch + interarrival * idx as u32;
                lat_us[kinds[idx]].push((last_recv - scheduled).as_secs_f64() * 1e6);
            }
            Reply::Shed { .. } => shed += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    sender.join().expect("sender thread");

    let ok: usize = lat_us.iter().map(Vec::len).sum();
    let wall = (last_recv - epoch).as_secs_f64().max(1e-9);
    let mut rows = Vec::new();
    for (k, mut v) in lat_us.into_iter().enumerate() {
        v.sort_by(|a, b| a.total_cmp(b));
        rows.push((
            KIND_LABELS[k],
            v.len(),
            percentile_us(&v, 0.50),
            percentile_us(&v, 0.99),
        ));
    }
    RateRow {
        offered_rps: rate,
        achieved_rps: ok as f64 / wall,
        sent: n,
        ok,
        shed,
        kinds: rows,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        ExperimentConfig {
            world: WorldConfig::tiny(),
            train: ModelTrainConfig::small(),
            ..ExperimentConfig::default()
        }
    } else {
        ExperimentConfig::default()
    };
    let rates: &[f64] = if smoke {
        &[200.0, 1000.0]
    } else {
        &[500.0, 2000.0, 8000.0, 20000.0]
    };
    let n_per_rate = if smoke { 150 } else { 2000 };

    eprintln!("[net_throughput] building experiment (smoke={smoke})...");
    let t0 = Instant::now();
    let exp = Experiment::build(config);
    eprintln!("[net_throughput] built in {:.1?}", t0.elapsed());
    let mix = build_mix(&exp, n_per_rate, smoke, 0xB0A7);
    let burst_cap = 32usize;
    let burst_n = 8 * burst_cap;
    let burst_mix = build_mix(&exp, burst_n, smoke, 0x5EED);
    let svc = Arc::new(exp.service);

    // --- Latency vs offered load. A roomy queue: this phase measures the
    // queueing curve, not the shed path.
    let server = Server::start(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            exec_threads: 4,
            batch_max: 32,
            queue_cap: 4096,
            debug_batch_delay_us: 0,
            allow_export: false,
        },
    )
    .expect("start server");
    println!(
        "=== Open-loop latency vs offered load ({} zipfian requests per rate) ===",
        n_per_rate
    );
    let mut rate_rows = Vec::new();
    for &rate in rates {
        let row = run_rate(server.local_addr(), &mix, rate);
        println!(
            "offered {:>8.0} req/s → achieved {:>8.0} req/s, ok {}, shed {}",
            row.offered_rps, row.achieved_rps, row.ok, row.shed
        );
        for (kind, n, p50, p99) in &row.kinds {
            if *n > 0 {
                println!("    {kind:<16} n={n:<6} p50={p50:>10.1}µs p99={p99:>10.1}µs");
            }
        }
        rate_rows.push(row);
    }
    let curve_stats = server.stats_report();
    server.shutdown();

    // --- Burst phase: small queue, slow workers, back-to-back blast.
    let burst_server = Server::start(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            exec_threads: 1,
            batch_max: 8,
            queue_cap: burst_cap,
            debug_batch_delay_us: 3000,
            allow_export: false,
        },
    )
    .expect("start burst server");
    // Rate far beyond the slowed workers' capacity: effectively back-to-back.
    let burst = run_rate(burst_server.local_addr(), &burst_mix, 1e6);
    let burst_stats = burst_server.stats_report();
    println!(
        "\n=== Burst: {} back-to-back requests into queue_cap={} ===\n\
         ok {}, shed {} | queue high water {}/{} | max batch {}",
        burst.sent, burst_cap, burst.ok, burst.shed, burst_stats.queue_max_depth,
        burst_stats.queue_cap, burst_stats.max_batch
    );
    assert_eq!(burst.ok + burst.shed, burst_n, "every request got a typed answer");
    assert!(burst.shed > 0, "burst must overflow the {burst_cap}-deep queue");
    assert!(
        burst_stats.queue_max_depth <= burst_stats.queue_cap,
        "admission bound violated: depth {} > cap {}",
        burst_stats.queue_max_depth,
        burst_stats.queue_cap
    );
    burst_server.shutdown();
    println!("bounded admission + typed sheds ✓");

    // Hand-rolled JSON: the workspace is offline, no serde.
    let mut json = String::from("{\n  \"bench\": \"net_throughput\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"served_total\": {}, \"batches\": {}, \"max_batch\": {},\n",
        curve_stats.served, curve_stats.batches, curve_stats.max_batch
    ));
    json.push_str("  \"curve\": [\n");
    for (i, row) in rate_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"offered_rps\": {:.0}, \"achieved_rps\": {:.1}, \"sent\": {}, \"ok\": {}, \"shed\": {}, \"kinds\": [",
            row.offered_rps, row.achieved_rps, row.sent, row.ok, row.shed
        ));
        let mut first = true;
        for (kind, n, p50, p99) in &row.kinds {
            if *n == 0 {
                continue;
            }
            if !first {
                json.push_str(", ");
            }
            first = false;
            json.push_str(&format!(
                "{{\"kind\": \"{kind}\", \"n\": {n}, \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}}}"
            ));
        }
        json.push_str(&format!(
            "]}}{}\n",
            if i + 1 < rate_rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"burst\": {{\"sent\": {}, \"ok\": {}, \"shed\": {}, \"queue_cap\": {}, \"queue_max_depth\": {}, \"max_batch\": {}}}\n}}\n",
        burst.sent, burst.ok, burst.shed, burst_stats.queue_cap,
        burst_stats.queue_max_depth, burst_stats.max_batch
    ));
    if smoke {
        println!("\n{json}(smoke run: BENCH_net.json left as committed)");
    } else {
        std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
        println!("wrote BENCH_net.json");
    }
}
