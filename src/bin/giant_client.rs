//! `giant-client` — a command-line client for `giant-server`.
//!
//! One request per invocation, reply printed to stdout. The output is the
//! `Debug` rendering of the typed reply, which is deterministic — two runs
//! against servers holding the same frame print identical bytes (the
//! README's kill-and-restart drill diffs exactly this).
//!
//! ```text
//! giant-client [--addr HOST:PORT] <request>
//!   --conceptualize "QUERY"              query understanding
//!   --recommend "QUERY"                  correlate recommendations
//!   --tag "TITLE" [--sentence S]...      document tagging
//!   --story NODE_ID                      story tree around a seed event
//!   --stats                              server latency/queue/shed stats
//!   --metrics                            unified giant-obs metrics report
//!                                        (net.* + wal.* + ingest.* + span.*)
//! ```

use giant::apps::serving::ServeRequest;
use giant::net::{NetClient, Reply, Request};
use giant::ontology::NodeId;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| giant::cli::flag_value(&argv, flag);
    let addr = get("--addr").unwrap_or_else(|| "127.0.0.1:7471".into());

    let request = if let Some(q) = get("--conceptualize") {
        Request::Serve(ServeRequest::Conceptualize { query: q })
    } else if let Some(q) = get("--recommend") {
        Request::Serve(ServeRequest::Recommend { query: q })
    } else if let Some(title) = get("--tag") {
        let sentences = giant::cli::flag_values(&argv, "--sentence");
        Request::Serve(ServeRequest::TagDocument { title, sentences })
    } else if let Some(seed) = get("--story") {
        Request::Serve(ServeRequest::StoryTree {
            seed: NodeId(seed.parse().expect("--story u32")),
        })
    } else if argv.iter().any(|a| a == "--stats") {
        Request::Stats
    } else if argv.iter().any(|a| a == "--metrics") {
        Request::Metrics
    } else {
        eprintln!(
            "usage: giant-client [--addr HOST:PORT] \
             (--conceptualize Q | --recommend Q | --tag TITLE [--sentence S]... | --story ID | --stats | --metrics)"
        );
        std::process::exit(2);
    };

    let mut client =
        NetClient::connect(&addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    let reply = client.call(&request).unwrap_or_else(|e| panic!("call failed: {e}"));
    match reply {
        Reply::Ok(resp) => println!("{resp:?}"),
        Reply::Err(e) => println!("serve error: {e:?}"),
        Reply::Shed { depth, cap } => {
            println!("shed: queue full ({depth}/{cap}) — retry later");
            std::process::exit(1);
        }
        Reply::Stats(report) => {
            println!(
                "version {} | served {} | shed {} | batches {} (max {}) | queue {}/{} (high water {})",
                report.version,
                report.served,
                report.shed,
                report.batches,
                report.max_batch,
                report.queue_depth,
                report.queue_cap,
                report.queue_max_depth,
            );
            for row in &report.kinds {
                println!(
                    "  {:<16} n={:<8} p50={:.1}µs p99={:.1}µs",
                    row.kind, row.count, row.p50_us, row.p99_us
                );
            }
        }
        Reply::Metrics(snapshot) => {
            print!("{}", giant::obs::render_text(&snapshot));
        }
        Reply::Bad { reason } => {
            println!("protocol error: {reason}");
            std::process::exit(1);
        }
    }
}
