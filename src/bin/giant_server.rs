//! `giant-server` — the network serving daemon.
//!
//! Publishes an `OntologyService` behind the `giant-net` wire protocol.
//! On first start it builds the world (generate → train → mine → publish)
//! and, when `--checkpoint` is given, persists the serving state; any
//! later start warm-starts from that checkpoint in milliseconds — which
//! is what makes the kill-and-restart drill in the README honest:
//!
//! ```text
//! cargo run --release --bin giant-server -- --checkpoint /tmp/giant.ckpt
//! cargo run --release --bin giant-client -- --conceptualize "best phones"
//! kill -9 <server pid>
//! cargo run --release --bin giant-server -- --checkpoint /tmp/giant.ckpt   # ms warm start
//! cargo run --release --bin giant-client -- --conceptualize "best phones"  # same bytes
//! ```
//!
//! Flags (all optional):
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:7471`, `:0` for ephemeral)
//! * `--checkpoint PATH` — restore from PATH if it exists, else build and write it
//! * `--world tiny|experiment` — world scale when building fresh (default `tiny`)
//! * `--seed U64` — world seed when building fresh (default 42)
//! * `--workers N` / `--exec-threads N` / `--batch-max N` / `--queue-cap N`
//!   — server tuning (defaults 2/4/32/256)
//! * `--allow-export` — admit `ExportSubgraph` requests (schema-checked
//!   JSON dumps of the served ontology; off by default because a full
//!   export is far heavier than any other request)
//! * `--metrics-file PATH` — on SIGTERM/SIGINT, write the unified
//!   `giant-obs` metrics report (text exposition) to PATH before exiting
//!   (the same rows `giant-client --metrics` fetches live)
//! * `--profile PATH` — enable the `giant-obs` span profiler and write
//!   flamegraph-compatible folded stacks to PATH on SIGTERM/SIGINT
//!
//! The server arms `giant-obs` span recording unconditionally — the
//! <2% overhead budget is asserted by `obs_overhead` — so `--metrics`
//! reports include span histograms without any env setup.

use giant::adapter::{build_serving, GiantSetup, ModelTrainConfig};
use giant::apps::serving::OntologyService;
use giant::data::WorldConfig;
use giant::net::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Args {
    addr: String,
    checkpoint: Option<PathBuf>,
    world: String,
    seed: u64,
    metrics_file: Option<PathBuf>,
    profile: Option<PathBuf>,
    config: ServerConfig,
}

/// Set by the signal handler; polled by the main loop. Signal-safe: the
/// handler only stores a relaxed atomic flag, all real work (file writes)
/// happens back on the main thread.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Installs `on_signal` for SIGTERM (15) and SIGINT (2) via the libc
/// `signal(2)` symbol — declared directly so the binary stays free of
/// extra crates.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_signal as *const () as usize); // SIGTERM
        signal(2, on_signal as *const () as usize); // SIGINT
    }
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| giant::cli::flag_value(&argv, flag);
    let defaults = ServerConfig::default();
    Args {
        addr: get("--addr").unwrap_or_else(|| "127.0.0.1:7471".into()),
        checkpoint: get("--checkpoint").map(PathBuf::from),
        world: get("--world").unwrap_or_else(|| "tiny".into()),
        seed: get("--seed").map_or(42, |s| s.parse().expect("--seed u64")),
        metrics_file: get("--metrics-file").map(PathBuf::from),
        profile: get("--profile").map(PathBuf::from),
        config: ServerConfig {
            workers: get("--workers").map_or(defaults.workers, |s| s.parse().expect("--workers usize")),
            exec_threads: get("--exec-threads")
                .map_or(defaults.exec_threads, |s| s.parse().expect("--exec-threads usize")),
            batch_max: get("--batch-max")
                .map_or(defaults.batch_max, |s| s.parse().expect("--batch-max usize")),
            queue_cap: get("--queue-cap")
                .map_or(defaults.queue_cap, |s| s.parse().expect("--queue-cap usize")),
            debug_batch_delay_us: 0,
            allow_export: argv.iter().any(|a| a == "--allow-export"),
        },
    }
}

/// Builds the serving state: checkpoint restore when available, the full
/// generate → train → mine → publish pipeline otherwise.
fn load_service(args: &Args) -> OntologyService {
    if let Some(path) = &args.checkpoint {
        if path.exists() {
            let t = Instant::now();
            let svc = OntologyService::restore(path)
                .unwrap_or_else(|e| panic!("restore {}: {e}", path.display()));
            eprintln!(
                "[giant-server] warm start from {} in {:.1} ms (version {})",
                path.display(),
                t.elapsed().as_secs_f64() * 1e3,
                svc.version()
            );
            return svc;
        }
    }
    let t = Instant::now();
    eprintln!("[giant-server] cold start: building {} world (seed {})...", args.world, args.seed);
    let world = match args.world.as_str() {
        "tiny" => WorldConfig {
            seed: args.seed,
            ..WorldConfig::tiny()
        },
        "experiment" => WorldConfig {
            seed: args.seed,
            ..WorldConfig::experiment()
        },
        other => panic!("--world must be tiny|experiment, got {other}"),
    };
    let setup = GiantSetup::generate(world);
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let output = setup.run_pipeline(&models, &Default::default());
    let svc = build_serving(&setup, &output).service;
    eprintln!("[giant-server] built in {:.1?} (version {})", t.elapsed(), svc.version());
    if let Some(path) = &args.checkpoint {
        let t = Instant::now();
        svc.checkpoint(path)
            .unwrap_or_else(|e| panic!("checkpoint {}: {e}", path.display()));
        eprintln!(
            "[giant-server] checkpoint written to {} in {:.1} ms",
            path.display(),
            t.elapsed().as_secs_f64() * 1e3
        );
    }
    svc
}

fn main() {
    let args = parse_args();
    // Span recording on from the start: the cold-start pipeline run below
    // then shows up in `span.*` histograms and the profiler output.
    giant::obs::arm(true);
    if args.profile.is_some() {
        giant::obs::set_profiling(true);
    }
    // Register the WAL counters up front so `--metrics` reports always
    // carry the `wal.*` rows (zeroed until durable ingestion runs) —
    // otherwise they'd only appear after the first WAL touch.
    giant::incr::wal_metrics();
    install_signal_handlers();
    let svc = Arc::new(load_service(&args));
    let server = Server::start(Arc::clone(&svc), &args.addr, args.config.clone())
        .unwrap_or_else(|e| panic!("bind {}: {e}", args.addr));
    // Machine-parseable startup lines (the quickstart and tests read these).
    println!("LISTENING {}", server.local_addr());
    println!("VERSION {}", svc.version());
    // Serve until signalled; all work happens on the server's threads.
    while !SHUTDOWN.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    eprintln!("[giant-server] shutting down");
    if let Some(path) = &args.metrics_file {
        let report = giant::obs::render_text(&server.metrics_report());
        std::fs::write(path, report)
            .unwrap_or_else(|e| eprintln!("[giant-server] metrics dump {}: {e}", path.display()));
        eprintln!("[giant-server] metrics written to {}", path.display());
    }
    if let Some(path) = &args.profile {
        std::fs::write(path, giant::obs::folded_stacks())
            .unwrap_or_else(|e| eprintln!("[giant-server] profile dump {}: {e}", path.display()));
        eprintln!("[giant-server] folded stacks written to {}", path.display());
    }
}
