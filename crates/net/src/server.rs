//! The serving front door: accept/read threads, a bounded admission
//! queue, and a request-coalescing worker pool.
//!
//! ## Threading model
//!
//! ```text
//! accept thread ──► one reader thread per connection
//!                        │  buffered read → frame → decode
//!                        ├─ Conceptualize / Recommend: served inline
//!                        │  against the current frame, reply written
//!                        ├─ Stats / Metrics: answered inline
//!                        │
//!                        │  TagDocument / StoryTree / ExportSubgraph:
//!                        │  Job ──► bounded queue ──► workers
//!                        │  (queue full → Reply::Shed, not queued)  │
//!                        │                                          │
//!                        │             drain ≤ batch_max jobs ◄─────┘
//!                        │             OntologyService::serve_batch
//!                        └──────────►  reply frames → per-conn mutex
//! ```
//!
//! The light kinds cost about a microsecond to answer, less than the
//! wake-up a queue hand-off costs, so the reader answers them itself: one
//! thread hop per request instead of two. The reader pulls the socket
//! through a per-connection buffer, so one `read` brings in a whole
//! frame and every frame pipelined behind it.
//!
//! Workers drain whatever has accumulated (up to `batch_max`) into a
//! single [`OntologyService::serve_batch`] call, which acquires **one**
//! serving frame for the whole batch and fans out through
//! `giant_exec::run_ordered`. Because each answer depends only on
//! (request, frame), neither coalescing nor the inline path shows in the
//! response bytes: any worker count, batch composition, or executor
//! thread count produces byte-identical replies.
//!
//! ## Overload semantics
//!
//! Admission is a bounded queue. The read thread rejects — it never
//! blocks and never buffers beyond the bound — so server memory under
//! overload is O(queue_cap + open connections), and a client always gets
//! a prompt, typed answer:
//!
//! | condition                           | client sees                             |
//! |-------------------------------------|-----------------------------------------|
//! | queued kind, queue has room         | reply, after queue + compute            |
//! | queued kind, queue full             | [`Reply::Shed`] immediately             |
//! | malformed / oversized frame         | [`Reply::Bad`], then connection close   |
//! | `Request::Stats`, any load          | [`Reply::Stats`] inline (never shed)    |
//! | Conceptualize / Recommend, any load | reply inline (never queued, never shed) |
//!
//! Inline answers are bounded per connection the way stats are: a reader
//! answers one frame before it reads the next, so a client that sends
//! faster than it is answered is slowed by TCP flow control.

use giant_apps::serving::{OntologyService, ServeError, ServeRequest};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::{ServerStats, StatsReport};
use crate::wire::{
    decode_request, encode_reply_frame, kind_index, read_frame, NetError, Reply, Request,
};

/// Tuning for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue (each issues its own
    /// `serve_batch` calls).
    pub workers: usize,
    /// Threads handed to `serve_batch` for intra-batch fan-out.
    pub exec_threads: usize,
    /// Largest batch one worker coalesces per drain.
    pub batch_max: usize,
    /// Admission queue bound; requests arriving past it are shed.
    pub queue_cap: usize,
    /// Test/bench hook: artificial delay (µs) each worker sleeps before
    /// serving a drained batch, to make overload reproducible on fast
    /// machines. 0 (the default) in production.
    pub debug_batch_delay_us: u64,
    /// Whether [`ServeRequest::ExportSubgraph`] is admitted. Off by
    /// default: a full-graph export is orders of magnitude heavier than
    /// any other request and dumps the whole ontology to the peer, so the
    /// host must opt in (`giant_server --allow-export`). When disabled,
    /// export requests get a typed
    /// [`ServeError::ExportDisabled`](giant_apps::serving::ServeError)
    /// reply without ever entering the admission queue.
    pub allow_export: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            exec_threads: 4,
            batch_max: 32,
            queue_cap: 256,
            debug_batch_delay_us: 0,
            allow_export: false,
        }
    }
}

/// One admitted request waiting for a worker.
struct Job {
    req: ServeRequest,
    ticket: Ticket,
}

/// Where a job's answer goes, and what the stats need to know about it.
struct Ticket {
    id: u64,
    kind: usize,
    conn: Arc<Conn>,
    enqueued: Instant,
}

/// A connection's write half. Replies from the worker pool and the
/// reader's inline answers interleave, so every frame write holds this
/// mutex — frames are atomic on the wire.
struct Conn {
    stream: Mutex<TcpStream>,
}

impl Conn {
    /// Encodes and writes one reply frame. Errors are swallowed: a peer
    /// that hung up forfeits its replies, which is its problem, not the
    /// batch's.
    fn send(&self, id: u64, reply: &Reply) {
        if let Ok(frame) = encode_reply_frame(id, reply) {
            use std::io::Write as _;
            let mut stream = self.stream.lock().expect("conn stream poisoned");
            let _ = stream.write_all(&frame);
        }
    }
}

/// State shared by the accept thread, reader threads, and workers.
struct Shared {
    svc: Arc<OntologyService>,
    cfg: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    stop: AtomicBool,
    stats: ServerStats,
    readers: Mutex<Readers>,
}

/// The reader threads, keyed by connection id. A reader that returns moves
/// its own entry from `live` to `finished`, so a closed connection costs
/// the server nothing once its handle is reaped.
#[derive(Default)]
struct Readers {
    /// Per open connection: a clone of its socket, so shutdown can unblock
    /// the reader, and the reader's handle.
    live: HashMap<u64, (TcpStream, JoinHandle<()>)>,
    /// Readers that have returned; joined at the next accept or shutdown.
    finished: Vec<JoinHandle<()>>,
}

impl Shared {
    /// Called by reader `id` as its last act: closes the server's clone of
    /// the socket and queues the handle for joining. After shutdown has
    /// taken the entry there is nothing left to do.
    fn retire_reader(&self, id: u64) {
        let mut readers = self.readers.lock().expect("readers poisoned");
        if let Some((_socket, handle)) = readers.live.remove(&id) {
            readers.finished.push(handle);
        }
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`])
/// stops accepting, unblocks all threads, and joins them.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept, reader, and worker threads.
    pub fn start(
        svc: Arc<OntologyService>,
        addr: &str,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let queue_cap = u32::try_from(cfg.queue_cap).unwrap_or(u32::MAX);
        let shared = Arc::new(Shared {
            svc,
            cfg: cfg.clone(),
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            stop: AtomicBool::new(false),
            stats: ServerStats::new(queue_cap),
            readers: Mutex::new(Readers::default()),
        });

        let worker_handles = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("giant-net-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("giant-net-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        Ok(Server {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A stats snapshot, as the wire endpoint would report it.
    pub fn stats_report(&self) -> StatsReport {
        self.shared.stats.report(self.shared.svc.frame().version)
    }

    /// The unified metrics snapshot, as [`Request::Metrics`] would
    /// report it: this server's `net.*` rows merged with the
    /// process-wide `giant-obs` registry.
    pub fn metrics_report(&self) -> giant_obs::MetricsSnapshot {
        self.shared
            .stats
            .metrics_snapshot(self.shared.svc.frame().version)
            .merge(giant_obs::registry().snapshot())
    }

    /// Stops the server: no new connections, in-flight work drains, all
    /// threads joined.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept thread with a throwaway connection. Joining
        // it first means no reader is registered after the sweep below.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Unblock reader threads by shutting their sockets down.
        let Readers { live, finished } =
            std::mem::take(&mut *self.shared.readers.lock().expect("readers poisoned"));
        for (socket, _) in live.values() {
            let _ = socket.shutdown(Shutdown::Both);
        }
        // Unblock workers parked on the condvar.
        self.shared.not_empty.notify_all();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        for h in live.into_values().map(|(_, h)| h).chain(finished) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.stop.load(Ordering::SeqCst) {
            self.stop_and_join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let Ok((read_half, unblock)) = prepare_accepted(&stream) else {
            continue;
        };
        let conn = Arc::new(Conn {
            stream: Mutex::new(stream),
        });
        let reader_shared = Arc::clone(shared);
        // The lock is held across the spawn so the reader cannot retire
        // before it is registered.
        let mut readers = shared.readers.lock().expect("readers poisoned");
        let finished = std::mem::take(&mut readers.finished);
        if let Ok(handle) = std::thread::Builder::new()
            .name("giant-net-reader".into())
            .spawn(move || {
                reader_loop(read_half, conn, &reader_shared);
                reader_shared.retire_reader(id);
            })
        {
            readers.live.insert(id, (unblock, handle));
        }
        drop(readers);
        for h in finished {
            let _ = h.join();
        }
    }
}

/// Turns Nagle's algorithm off on an accepted socket and clones the
/// reader's and the shutdown sweep's handles to it (clones share the
/// option). Replies are small frames written one at a time; with Nagle on,
/// a reply that follows another waits for the peer's ACK, which a client
/// with nothing to send delays — until its next request, so an open-loop
/// client's latency floor was one inter-arrival time.
fn prepare_accepted(stream: &TcpStream) -> io::Result<(TcpStream, TcpStream)> {
    stream.set_nodelay(true)?;
    Ok((stream.try_clone()?, stream.try_clone()?))
}

/// Whether a request is answered on its connection's reader thread
/// rather than queued for a worker: the kinds whose answer costs less
/// than the hand-off would.
fn answered_inline(req: &ServeRequest) -> bool {
    matches!(
        req,
        ServeRequest::Conceptualize { .. } | ServeRequest::Recommend { .. }
    )
}

fn reader_loop(read_half: TcpStream, conn: Arc<Conn>, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(read_half);
    while !shared.stop.load(Ordering::SeqCst) {
        let (id, payload) = match read_frame(&mut reader) {
            Ok(frame) => frame,
            // Peer hung up (or shutdown unblocked us): close quietly.
            Err(NetError::Io(_)) => return,
            // The stream survived but the frame is bad; after a length or
            // checksum failure we cannot trust the stream position, so
            // reply (best effort) and close.
            Err(e) => {
                conn.send(0, &Reply::Bad {
                    reason: e.to_string(),
                });
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                return;
            }
        };
        let received = Instant::now();
        match decode_request(&payload) {
            Ok(Request::Stats) => {
                // Answered inline on the read thread: stats must respond
                // even when the admission queue is saturated.
                let report = shared.stats.report(shared.svc.frame().version);
                conn.send(id, &Reply::Stats(report));
            }
            Ok(Request::Metrics) => {
                // Same inline discipline as Stats. This server's
                // namespaced `net.*` rows merged with the process-wide
                // registry (WAL counters, span histograms, ingest
                // counters) — the one-report cross-layer view.
                let snap = shared
                    .stats
                    .metrics_snapshot(shared.svc.frame().version)
                    .merge(giant_obs::registry().snapshot());
                conn.send(id, &Reply::Metrics(snap));
            }
            Ok(Request::Serve(req)) if answered_inline(&req) => {
                // The same `frame.serve` that `serve_batch` maps, against
                // the frame live now, so the bytes match the queued path.
                let reply = match shared.svc.frame().serve(&req) {
                    Ok(resp) => Reply::Ok(resp),
                    Err(e) => Reply::Err(e),
                };
                // Recorded before the write, as the workers do.
                let us = received.elapsed().as_secs_f64() * 1e6;
                shared.stats.record_served(kind_index(&req), us);
                conn.send(id, &reply);
            }
            Ok(Request::Serve(req)) => {
                // The export gate sits in front of admission: a disabled
                // export is a policy refusal, not load, so it neither
                // occupies a queue slot nor counts as shed.
                if matches!(req, ServeRequest::ExportSubgraph { .. }) && !shared.cfg.allow_export {
                    conn.send(id, &Reply::Err(ServeError::ExportDisabled));
                    continue;
                }
                let mut queue = shared.queue.lock().expect("admission queue poisoned");
                if queue.len() >= shared.cfg.queue_cap {
                    let depth = queue.len();
                    drop(queue);
                    shared.stats.record_shed();
                    conn.send(id, &Reply::Shed {
                        depth: depth as u32,
                        cap: shared.cfg.queue_cap as u32,
                    });
                } else {
                    queue.push_back(Job {
                        ticket: Ticket {
                            id,
                            kind: kind_index(&req),
                            conn: Arc::clone(&conn),
                            enqueued: Instant::now(),
                        },
                        req,
                    });
                    shared.stats.record_queue_depth(queue.len());
                    drop(queue);
                    shared.not_empty.notify_one();
                }
            }
            // A frame that decodes to garbage is recoverable (framing is
            // intact), so reply and keep the connection.
            Err(e) => conn.send(id, &Reply::Bad {
                reason: e.to_string(),
            }),
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("admission queue poisoned");
            while queue.is_empty() && !shared.stop.load(Ordering::SeqCst) {
                queue = shared
                    .not_empty
                    .wait(queue)
                    .expect("admission queue poisoned");
            }
            if queue.is_empty() {
                return; // stop requested and nothing left to drain
            }
            let n = queue.len().min(shared.cfg.batch_max.max(1));
            let batch: Vec<Job> = queue.drain(..n).collect();
            shared.stats.record_queue_depth(queue.len());
            batch
        };
        if shared.cfg.debug_batch_delay_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(
                shared.cfg.debug_batch_delay_us,
            ));
        }
        shared.stats.record_batch(batch.len());
        // Queue wait is measured at drain time — the span between
        // admission and a worker picking the job up, the number the
        // ROADMAP's admission-quota work needs.
        for job in &batch {
            shared
                .stats
                .record_queue_wait(job.ticket.enqueued.elapsed().as_secs_f64() * 1e6);
        }
        let batch_span = giant_obs::span("net.batch");
        let (requests, tickets): (Vec<ServeRequest>, Vec<Ticket>) =
            batch.into_iter().map(|j| (j.req, j.ticket)).unzip();
        // One frame, one ordered fan-out for the whole batch — results
        // come back in request order, so zip matches job to answer.
        let serve_span = giant_obs::span("net.serve");
        let results = shared.svc.serve_batch(&requests, shared.cfg.exec_threads);
        drop(serve_span);
        let reply_span = giant_obs::span("net.reply");
        for (job, result) in tickets.into_iter().zip(results) {
            let reply = match result {
                Ok(resp) => Reply::Ok(resp),
                Err(e) => Reply::Err(e),
            };
            // Record before sending: a client that has seen every reply
            // must also see consistent counters from the stats endpoint.
            let us = job.enqueued.elapsed().as_secs_f64() * 1e6;
            shared.stats.record_served(job.kind, us);
            job.conn.send(job.id, &reply);
        }
        drop(reply_span);
        drop(batch_span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_reply, encode_reply_payload, encode_request_frame};
    use giant_apps::{
        DuetConfig, DuetMatcher, ServeResources, StoryTreeConfig, TagResources, TaggingConfig,
    };
    use giant_ontology::{NodeKind, Ontology, OntologySnapshot, Phrase};
    use giant_text::{PhraseEncoder, TfIdf, Vocab, WordEmbeddings};
    use std::io::Write as _;
    use std::time::Duration;

    /// A hand-built ontology behind a service whose tagging models are
    /// inert: enough to answer the inline kinds.
    fn service() -> Arc<OntologyService> {
        let mut o = Ontology::new();
        let cars = o.add_node(NodeKind::Concept, Phrase::from_text("electric cars"), 5.0);
        let v = o.add_node(NodeKind::Entity, Phrase::from_text("veltro x9"), 3.0);
        let k = o.add_node(NodeKind::Entity, Phrase::from_text("kario s4"), 9.0);
        o.add_is_a(cars, v, 1.0).expect("is_a");
        o.add_is_a(cars, k, 1.0).expect("is_a");
        o.add_correlate(v, k, 0.9).expect("correlate");
        let resources = ServeResources {
            tagging: TagResources {
                concept_contexts: HashMap::new(),
                event_phrases: Vec::new(),
                tfidf: Arc::new(TfIdf::new()),
                duet: Arc::new(DuetMatcher::train(&[], DuetConfig::default())),
                encoder: Arc::new(PhraseEncoder::new(WordEmbeddings::from_parts(8, 0, Vec::new()))),
                vocab: Arc::new(Vocab::new()),
                config: TaggingConfig::default(),
            },
            stories: Vec::new(),
            story_config: StoryTreeConfig::default(),
            match_aliases: false,
            max_results: 5,
        };
        Arc::new(OntologyService::new(OntologySnapshot::freeze(&o), resources))
    }

    /// Light requests of several lengths, each kind more than once.
    fn light_requests(n: usize) -> Vec<ServeRequest> {
        const QUERIES: [&str; 4] = ["best electric cars", "veltro x9 review", "kario s4", "x"];
        (0..n)
            .map(|i| {
                let query = format!("{} {i}", QUERIES[i % QUERIES.len()]);
                if i % 3 == 0 {
                    ServeRequest::Recommend { query }
                } else {
                    ServeRequest::Conceptualize { query }
                }
            })
            .collect()
    }

    /// The in-process answer, as reply payload bytes.
    fn in_process(svc: &OntologyService, req: &ServeRequest) -> Vec<u8> {
        let reply = match svc.frame().serve(req) {
            Ok(resp) => Reply::Ok(resp),
            Err(e) => Reply::Err(e),
        };
        encode_reply_payload(&reply).expect("encode")
    }

    fn frame(id: u64, req: &ServeRequest) -> Vec<u8> {
        encode_request_frame(id, &Request::Serve(req.clone())).expect("encode request")
    }

    fn connect(server: &Server) -> TcpStream {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
    }

    /// Reads replies until a stats reply: every reply before it, in order.
    fn replies_until_stats(stream: &mut TcpStream, stats_id: u64) -> Vec<(u64, Vec<u8>)> {
        stream
            .write_all(&encode_request_frame(stats_id, &Request::Stats).expect("encode"))
            .expect("write stats");
        let mut replies = Vec::new();
        loop {
            let (id, payload) = read_frame(stream).expect("read reply");
            if id == stats_id {
                return replies;
            }
            replies.push((id, payload));
        }
    }

    #[test]
    fn frames_pipelined_in_one_write_are_each_answered_once() {
        let svc = service();
        let server = Server::start(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
            .expect("start");
        // Enough frames that the reader's buffer refills mid-frame.
        let requests = light_requests(300);
        let blob: Vec<u8> = (1u64..)
            .zip(&requests)
            .flat_map(|(id, req)| frame(id, req))
            .collect();
        assert!(blob.len() > 8 * 1024, "the stream must outgrow one buffer fill");
        let mut stream = connect(&server);
        stream.write_all(&blob).expect("write");
        let replies = replies_until_stats(&mut stream, u64::MAX);
        let expected: Vec<(u64, Vec<u8>)> = (1u64..)
            .zip(&requests)
            .map(|(id, req)| (id, in_process(&svc, req)))
            .collect();
        assert_eq!(replies, expected);
        assert_eq!(server.stats_report().served, requests.len() as u64);
        server.shutdown();
    }

    #[test]
    fn a_frame_torn_at_every_offset_is_answered_once() {
        let svc = service();
        let server = Server::start(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
            .expect("start");
        let req = ServeRequest::Conceptualize {
            query: "best electric cars".into(),
        };
        let expected = in_process(&svc, &req);
        let mut stream = connect(&server);
        let len = frame(0, &req).len();
        for (id, cut) in (1u64..).zip(1..len) {
            let bytes = frame(id, &req);
            stream.write_all(&bytes[..cut]).expect("write head");
            // Let the head arrive on its own before the tail follows.
            std::thread::sleep(Duration::from_millis(1));
            stream.write_all(&bytes[cut..]).expect("write tail");
            let replies = replies_until_stats(&mut stream, u64::MAX - id);
            assert_eq!(replies, vec![(id, expected.clone())], "torn at byte {cut}");
        }
        assert_eq!(server.stats_report().served, (len - 1) as u64);
        server.shutdown();
    }

    #[test]
    fn a_good_frame_is_answered_before_a_corrupt_one_behind_it_closes_the_connection() {
        let svc = service();
        let server = Server::start(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
            .expect("start");
        let req = ServeRequest::Recommend {
            query: "veltro x9 review".into(),
        };
        let mut corrupt = frame(2, &req);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let mut segment = frame(1, &req);
        segment.extend_from_slice(&corrupt);
        let mut stream = connect(&server);
        stream.write_all(&segment).expect("write");

        let (id, payload) = read_frame(&mut stream).expect("good reply");
        assert_eq!((id, payload), (1, in_process(&svc, &req)));
        let (id, payload) = read_frame(&mut stream).expect("rejection");
        assert_eq!(id, 0);
        match decode_reply(&payload).expect("decode rejection") {
            Reply::Bad { reason } => assert!(reason.contains("checksum"), "{reason}"),
            other => panic!("expected Reply::Bad, got {other:?}"),
        }
        assert!(
            read_frame(&mut stream).is_err(),
            "the connection must close after a rejection"
        );
        server.shutdown();
    }

    #[test]
    fn accepted_sockets_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        assert!(!stream.nodelay().expect("nodelay"), "the OS default is Nagle on");
        let (read_half, unblock) = prepare_accepted(&stream).expect("prepare");
        for socket in [&stream, &read_half, &unblock] {
            assert!(socket.nodelay().expect("nodelay"));
        }
    }
}
