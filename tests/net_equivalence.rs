//! Network-equivalence suite for the `giant-net` front door.
//!
//! The contract under test: putting a socket, worker pool, and batch
//! coalescing between a client and the `OntologyService` changes
//! **nothing** about the answers. For the same request stream:
//!
//! * socket-served reply bytes equal in-process reply bytes at every
//!   server thread count (1/2/4) and coalescing limit (1/3/32), from one
//!   connection or two concurrent ones;
//! * under overload the server sheds with a typed reply — every request
//!   gets exactly one answer, the admission queue never exceeds its
//!   bound, and the stats endpoint keeps answering;
//! * the light kinds (Conceptualize, Recommend) are answered on the
//!   reader thread: under the same overload they are never shed and
//!   still match in-process, while sheds fall only on the queued kinds;
//! * a malformed frame gets a typed protocol rejection and a connection
//!   close — the server survives and keeps serving other clients;
//! * a connection that has closed costs the server nothing: its
//!   descriptors are released when it ends, not at shutdown.

use giant::adapter::{build_serving, GiantSetup, ModelTrainConfig};
use giant::apps::serving::{OntologyService, ServeRequest};
use giant::data::WorldConfig;
use giant::net::wire::{encode_reply_payload, read_frame, Reply, Request};
use giant::net::{NetClient, Server, ServerConfig};
use giant::ontology::NodeId;
use std::sync::{Arc, OnceLock};

/// The shared test world: built once (generate → train → mine → publish),
/// served by every test in the suite. The service is never re-published,
/// so each test sees the same frame.
fn world() -> &'static (Arc<OntologyService>, Vec<ServeRequest>) {
    static WORLD: OnceLock<(Arc<OntologyService>, Vec<ServeRequest>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let setup = GiantSetup::generate(WorldConfig::tiny());
        let (models, _) = setup.train_models(&ModelTrainConfig::small());
        let output = setup.run_pipeline(&models, &Default::default());
        let service = build_serving(&setup, &output).service;

        let mut requests = Vec::new();
        for e in &setup.world.entities {
            requests.push(ServeRequest::Conceptualize {
                query: format!("best {}", e.tokens.join(" ")),
            });
            requests.push(ServeRequest::Recommend {
                query: format!("{} news", e.tokens.join(" ")),
            });
        }
        for d in setup.corpus.docs.iter().take(12) {
            requests.push(ServeRequest::TagDocument {
                title: d.title.clone(),
                sentences: d.sentences.clone(),
            });
        }
        for s in service.resources().stories.iter().take(8) {
            requests.push(ServeRequest::StoryTree { seed: s.node });
        }
        // The error path must round-trip too.
        requests.push(ServeRequest::StoryTree {
            seed: NodeId(u32::MAX),
        });
        assert!(requests.len() >= 30, "request stream too small to exercise batching");
        (Arc::new(service), requests)
    })
}

/// The in-process ground truth: each request served against the live
/// frame, rendered to canonical reply bytes.
fn expected_reply_bytes(svc: &OntologyService, requests: &[ServeRequest]) -> Vec<Vec<u8>> {
    let frame = svc.frame();
    requests
        .iter()
        .map(|r| {
            let reply = match frame.serve(r) {
                Ok(resp) => Reply::Ok(resp),
                Err(e) => Reply::Err(e),
            };
            encode_reply_payload(&reply).expect("encode expected reply")
        })
        .collect()
}

/// Sends the whole stream pipelined over one connection and returns the
/// reply bytes in request order.
fn served_reply_bytes(addr: std::net::SocketAddr, requests: &[ServeRequest]) -> Vec<Vec<u8>> {
    let mut client = NetClient::connect(addr).expect("connect");
    let ids: Vec<u64> = requests
        .iter()
        .map(|r| client.send(&Request::Serve(r.clone())).expect("send"))
        .collect();
    ids.iter()
        .map(|&id| {
            let reply = client.recv(id).expect("recv");
            encode_reply_payload(&reply).expect("encode served reply")
        })
        .collect()
}

#[test]
fn socket_replies_are_byte_identical_to_in_process_at_any_concurrency() {
    let (svc, requests) = world();
    let expected = expected_reply_bytes(svc, requests);

    for workers in [1usize, 2, 4] {
        for batch_max in [1usize, 3, 32] {
            let server = Server::start(
                Arc::clone(svc),
                "127.0.0.1:0",
                ServerConfig {
                    workers,
                    exec_threads: workers, // vary the executor too
                    batch_max,
                    queue_cap: 4096,
                    debug_batch_delay_us: 0,
                    allow_export: false,
                },
            )
            .expect("start server");

            // Two concurrent clients: requests from both connections
            // coalesce into shared batches, and both must still see
            // exactly the in-process bytes.
            let addr = server.local_addr();
            let reqs2 = requests.clone();
            let second = std::thread::spawn(move || served_reply_bytes(addr, &reqs2));
            let first = served_reply_bytes(addr, requests);
            let second = second.join().expect("second client");

            assert_eq!(
                first, expected,
                "workers={workers} batch_max={batch_max}: client 1 diverged from in-process"
            );
            assert_eq!(
                second, expected,
                "workers={workers} batch_max={batch_max}: client 2 diverged from in-process"
            );
            // Coalescing actually happened when allowed (smoke check that
            // the equivalence above tested something non-trivial).
            let stats = server.stats_report();
            assert_eq!(stats.served, 2 * requests.len() as u64);
            if batch_max >= 32 && workers == 1 {
                assert!(
                    stats.max_batch > 1,
                    "expected some coalescing with a pipelined stream, max_batch = {}",
                    stats.max_batch
                );
            }
            server.shutdown();
        }
    }
}

#[test]
fn overload_sheds_typed_replies_and_keeps_the_queue_bounded() {
    let (svc, requests) = world();
    let queue_cap = 8usize;
    let server = Server::start(
        Arc::clone(svc),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            exec_threads: 1,
            batch_max: 4,
            queue_cap,
            // Slow the lone worker so the blast overruns the queue
            // deterministically even on a fast machine.
            debug_batch_delay_us: 5000,
            allow_export: false,
        },
    )
    .expect("start server");

    let n = 200usize;
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            let req = requests[i % requests.len()].clone();
            client.send(&Request::Serve(req)).expect("send")
        })
        .collect();

    // While the queue is saturated, stats must still answer (it is
    // handled inline by the read thread, not queued).
    let mid_report = client.stats().expect("stats under load");
    assert_eq!(mid_report.queue_cap, queue_cap as u32);

    let mut ok = 0usize;
    let mut shed = 0usize;
    for id in ids {
        match client.recv(id).expect("recv") {
            Reply::Ok(_) | Reply::Err(_) => ok += 1,
            Reply::Shed { depth, cap } => {
                shed += 1;
                assert_eq!(cap, queue_cap as u32);
                assert!(depth >= queue_cap as u32, "shed below the bound: {depth}");
            }
            other => panic!("unexpected reply under overload: {other:?}"),
        }
    }
    assert_eq!(ok + shed, n, "every request gets exactly one typed answer");
    assert!(shed > 0, "the blast must overflow an {queue_cap}-deep queue");

    let report = client.stats().expect("stats after load");
    assert_eq!(report.served, ok as u64);
    assert_eq!(report.shed, shed as u64);
    assert!(
        report.queue_max_depth <= report.queue_cap,
        "admission bound violated: {} > {}",
        report.queue_max_depth,
        report.queue_cap
    );
    server.shutdown();
}

/// The kinds the reader thread answers itself rather than queueing.
fn is_light(req: &ServeRequest) -> bool {
    matches!(
        req,
        ServeRequest::Conceptualize { .. } | ServeRequest::Recommend { .. }
    )
}

#[test]
fn light_kinds_bypass_the_admission_queue_under_overload() {
    let (svc, requests) = world();
    let expected = expected_reply_bytes(svc, requests);
    let queue_cap = 8usize;
    let server = Server::start(
        Arc::clone(svc),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            exec_threads: 1,
            batch_max: 4,
            queue_cap,
            debug_batch_delay_us: 5000,
            allow_export: false,
        },
    )
    .expect("start server");

    // Light and heavy kinds alternate, each cycling through its share of
    // the stream.
    let (light_idx, heavy_idx): (Vec<usize>, Vec<usize>) =
        (0..requests.len()).partition(|&r| is_light(&requests[r]));
    let order: Vec<usize> = (0..200)
        .map(|i| {
            let side = if i % 2 == 0 { &light_idx } else { &heavy_idx };
            side[(i / 2) % side.len()]
        })
        .collect();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let ids: Vec<u64> = order
        .iter()
        .map(|&r| client.send(&Request::Serve(requests[r].clone())).expect("send"))
        .collect();

    let (mut light, mut heavy_served, mut shed) = (0u64, 0u64, 0u64);
    for (&r, id) in order.iter().zip(ids) {
        let reply = client.recv(id).expect("recv");
        if let Reply::Shed { .. } = reply {
            assert!(
                !is_light(&requests[r]),
                "a light request was shed: {:?}",
                requests[r]
            );
            shed += 1;
            continue;
        }
        if is_light(&requests[r]) {
            assert!(matches!(reply, Reply::Ok(_)), "light reply not Ok: {reply:?}");
            light += 1;
        } else {
            heavy_served += 1;
        }
        assert_eq!(
            encode_reply_payload(&reply).expect("encode served reply"),
            expected[r],
            "request {r} diverged from in-process"
        );
    }
    assert!(shed > 0, "the blast must overflow an {queue_cap}-deep queue");
    assert!(light > 0 && heavy_served > 0, "both paths must serve");

    let report = client.stats().expect("stats after load");
    assert_eq!(report.served, light + heavy_served, "served counts both paths");
    assert_eq!(report.shed, shed);
    assert!(report.queue_max_depth <= report.queue_cap);
    server.shutdown();
}

#[test]
fn malformed_frames_are_rejected_without_killing_the_server() {
    use std::io::Write as _;
    let (svc, requests) = world();
    let server = Server::start(Arc::clone(svc), "127.0.0.1:0", ServerConfig::default())
        .expect("start server");

    // A frame with a valid header shape but a wrong checksum.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    let payload = [4u8]; // would be Request::Stats if the checksum held
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&9u64.to_le_bytes());
    frame.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
    frame.extend_from_slice(&payload);
    stream.write_all(&frame).expect("write corrupt frame");

    // The server answers with a typed protocol rejection, then closes.
    let (_, reply_payload) = read_frame(&mut stream).expect("read rejection");
    match giant::net::wire::decode_reply(&reply_payload).expect("decode rejection") {
        Reply::Bad { reason } => assert!(
            reason.contains("checksum"),
            "rejection should name the checksum, got: {reason}"
        ),
        other => panic!("expected Reply::Bad, got {other:?}"),
    }
    assert!(
        read_frame(&mut stream).is_err(),
        "connection must be closed after a protocol rejection"
    );

    // ...and other clients are entirely unaffected.
    let mut client = NetClient::connect(server.local_addr()).expect("connect healthy client");
    let reply = client
        .serve(requests[0].clone())
        .expect("serve after another client's corruption");
    assert!(matches!(reply, Reply::Ok(_)));
    server.shutdown();
}

/// Open descriptors of this process (Linux only).
#[cfg(target_os = "linux")]
fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("read /proc/self/fd").count()
}

/// Short connections must not accumulate: after hundreds of
/// connect/serve/drop cycles against one server the process holds no more
/// descriptors than when it started (give or take what the suite's other
/// tests, running beside this one, have open), and the server still
/// answers a fresh client with the in-process bytes.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    const CYCLES: usize = 400;
    // Far below the three descriptors per connection a leak retains, far
    // above what the concurrently running tests of this file hold open.
    const SLACK: usize = 64;

    let (svc, requests) = world();
    let expected = expected_reply_bytes(svc, &requests[..1]);
    let server = Server::start(Arc::clone(svc), "127.0.0.1:0", ServerConfig::default())
        .expect("start server");
    let addr = server.local_addr();

    let before = open_descriptors();
    for _ in 0..CYCLES {
        assert_eq!(served_reply_bytes(addr, &requests[..1]), expected);
    }
    // A reader notices its peer's hang-up asynchronously; wait for the
    // last of them, bounded.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut now = open_descriptors();
    while now > before + SLACK && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
        now = open_descriptors();
    }
    assert!(
        now <= before + SLACK,
        "{CYCLES} closed connections left {now} descriptors open ({before} before)"
    );
    assert_eq!(served_reply_bytes(addr, &requests[..1]), expected);
    server.shutdown();
}
