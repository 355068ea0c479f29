//! The binary wire protocol: framing, checksums, and the typed message
//! codecs.
//!
//! ## Frame layout
//!
//! Both directions use the one checksummed frame of
//! `giant_ontology::binio` ([`binio::encode_frame`],
//! [`binio::FrameHeader`]) — the WAL's entry frame — with the request id
//! where the WAL carries its sequence number:
//!
//! ```text
//! frame    := len u32 | id u64 | checksum u64 | payload (len bytes)
//! checksum := FNV-1a-64 over id_le ++ payload
//! payload  := kind u8 | body            (binio primitive encodings)
//! ```
//!
//! `id` is chosen by the client and echoed verbatim in the reply, so
//! pipelined clients match responses to requests even when server-side
//! batching completes them out of order. `len` is checked against
//! [`MAX_PAYLOAD`] on **both** ends before any allocation, and the
//! checksum is verified before any decoding — a corrupted or malicious
//! frame yields a typed [`NetError`], never a panic or a huge allocation.
//!
//! ## Encode-side length discipline
//!
//! Every length prefix is a checked conversion: an oversized message
//! fails with [`NetError::TooLarge`] before a single byte hits the
//! socket (the same sticky-overflow machinery
//! `giant_ontology::binio::Writer` provides to the checkpoint and WAL
//! writers — an unchecked `as u32` would desync the stream instead).

use giant_apps::query::{QueryUnderstanding, Recommendations};
use giant_apps::serving::{ServeError, ServeRequest, ServeResponse};
use giant_apps::storytree::{StoryEvent, StoryTree};
use giant_apps::tagging::DocTags;
use giant_obs::{HistogramSummary, MetricRow, MetricValue, MetricsSnapshot};
use giant_ontology::binio::{self, BinError, FrameError, FrameHeader, Reader, Writer};
use giant_ontology::NodeId;
use std::fmt;

use crate::stats::{KindRow, StatsReport};

/// Hard cap on one frame's payload bytes, enforced before allocation on
/// the read side and before transmission on the write side. Generous for
/// every real message (a full story-tree reply on the bench world is
/// ~10 KiB) while bounding what a malformed length prefix can make the
/// server allocate.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// Number of [`ServeRequest`] kinds (the per-kind stats arrays index by
/// [`kind_index`]).
pub const N_KINDS: usize = 5;

/// Typed failures of the wire layer.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// A frame announced (or a message encoded to) a payload larger than
    /// [`MAX_PAYLOAD`].
    TooLarge {
        /// The offending payload length.
        len: u64,
        /// The enforced maximum.
        max: u64,
    },
    /// The frame arrived complete but its checksum does not match —
    /// bits changed in flight, or the stream desynced.
    ChecksumMismatch {
        /// The id field as read (untrustworthy, for diagnostics only).
        id: u64,
    },
    /// The checksum held but the payload is not a valid message.
    Malformed(BinError),
    /// The payload's kind byte names no known message.
    BadKind {
        /// The unknown discriminant.
        kind: u8,
    },
    /// The server replied with a protocol-level rejection (the peer's
    /// view of one of the errors above).
    Rejected {
        /// The server's reason string.
        reason: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "wire i/o: {e}"),
            NetError::TooLarge { len, max } => {
                write!(f, "frame payload {len} bytes exceeds the {max}-byte cap")
            }
            NetError::ChecksumMismatch { id } => {
                write!(f, "frame checksum mismatch (id field read as {id})")
            }
            NetError::Malformed(e) => write!(f, "malformed message: {e}"),
            NetError::BadKind { kind } => write!(f, "unknown message kind {kind}"),
            NetError::Rejected { reason } => write!(f, "server rejected the frame: {reason}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<BinError> for NetError {
    fn from(e: BinError) -> Self {
        NetError::Malformed(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::TooLarge { len, max } => NetError::TooLarge {
                len,
                max: u64::from(max),
            },
            FrameError::ChecksumMismatch { id } => NetError::ChecksumMismatch { id },
        }
    }
}

/// A client → server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// A typed serving request, to be answered from the live frame.
    Serve(ServeRequest),
    /// The stats endpoint: per-kind latency percentiles, queue depth,
    /// shed counts. Answered inline by the connection's read thread, so
    /// it works even when the admission queue is saturated.
    Stats,
    /// The unified metrics endpoint (DESIGN.md §13): every registered
    /// `giant-obs` metric — WAL counters, span histograms, ingest
    /// counters — merged with this server's namespaced `net.*` rows.
    /// Like [`Request::Stats`], answered inline by the read thread.
    Metrics,
}

/// A server → client message.
#[derive(Debug, Clone)]
pub enum Reply {
    /// The serving answer.
    Ok(ServeResponse),
    /// The serving layer's typed refusal (e.g. unknown story seed).
    Err(ServeError),
    /// Load shed: the admission queue was full when the request arrived.
    /// The request was **not** queued; the client may retry later.
    Shed {
        /// Queue depth observed at rejection time.
        depth: u32,
        /// The configured queue bound.
        cap: u32,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsReport),
    /// Answer to [`Request::Metrics`]: name-sorted rows of counters,
    /// gauges, and histogram summaries.
    Metrics(MetricsSnapshot),
    /// Protocol-level rejection of a malformed frame; the server closes
    /// the connection after sending this (the stream may be desynced).
    Bad {
        /// What the server could not parse.
        reason: String,
    },
}

/// The stable label of a request kind (stats rows, bench reports).
pub fn kind_label(req: &ServeRequest) -> &'static str {
    match req {
        ServeRequest::Conceptualize { .. } => "conceptualize",
        ServeRequest::Recommend { .. } => "recommend",
        ServeRequest::TagDocument { .. } => "tag_document",
        ServeRequest::StoryTree { .. } => "story_tree",
        ServeRequest::ExportSubgraph { .. } => "export_subgraph",
    }
}

/// The dense index of a request kind (see [`N_KINDS`]).
pub fn kind_index(req: &ServeRequest) -> usize {
    match req {
        ServeRequest::Conceptualize { .. } => 0,
        ServeRequest::Recommend { .. } => 1,
        ServeRequest::TagDocument { .. } => 2,
        ServeRequest::StoryTree { .. } => 3,
        ServeRequest::ExportSubgraph { .. } => 4,
    }
}

/// Labels in [`kind_index`] order.
pub const KIND_LABELS: [&str; N_KINDS] =
    ["conceptualize", "recommend", "tag_document", "story_tree", "export_subgraph"];

// ---------------------------------------------------------------------------
// Small shared codecs.

fn write_opt_node(w: &mut Writer, n: &Option<NodeId>) {
    match n {
        Some(id) => {
            w.bool(true);
            w.u32(id.0);
        }
        None => w.bool(false),
    }
}

fn read_opt_node(r: &mut Reader<'_>) -> Result<Option<NodeId>, BinError> {
    Ok(if r.bool()? {
        Some(NodeId(r.u32()?))
    } else {
        None
    })
}

fn write_nodes(w: &mut Writer, xs: &[NodeId]) {
    w.len_prefix(xs.len(), "node list");
    for n in xs {
        w.u32(n.0);
    }
}

fn read_nodes(r: &mut Reader<'_>) -> Result<Vec<NodeId>, BinError> {
    let n = r.len(4, "node list")?;
    (0..n).map(|_| Ok(NodeId(r.u32()?))).collect()
}

fn write_scored_nodes(w: &mut Writer, xs: &[(NodeId, f64)]) {
    w.len_prefix(xs.len(), "scored node list");
    for (n, s) in xs {
        w.u32(n.0);
        w.f64(*s);
    }
}

fn read_scored_nodes(r: &mut Reader<'_>) -> Result<Vec<(NodeId, f64)>, BinError> {
    let n = r.len(12, "scored node list")?;
    (0..n).map(|_| Ok((NodeId(r.u32()?), r.f64()?))).collect()
}

fn write_opt_str(w: &mut Writer, s: &Option<String>) {
    match s {
        Some(s) => {
            w.bool(true);
            w.str(s);
        }
        None => w.bool(false),
    }
}

fn read_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, BinError> {
    Ok(if r.bool()? { Some(r.str()?) } else { None })
}

fn write_story_event(w: &mut Writer, e: &StoryEvent) {
    w.u32(e.node.0);
    w.str_slice(&e.tokens);
    write_opt_str(w, &e.trigger);
    write_nodes(w, &e.entities);
    w.u32(e.day);
}

fn read_story_event(r: &mut Reader<'_>) -> Result<StoryEvent, BinError> {
    Ok(StoryEvent {
        node: NodeId(r.u32()?),
        tokens: r.str_vec()?,
        trigger: read_opt_str(r)?,
        entities: read_nodes(r)?,
        day: r.u32()?,
    })
}

// ---------------------------------------------------------------------------
// Request codec.

const REQ_CONCEPTUALIZE: u8 = 0;
const REQ_RECOMMEND: u8 = 1;
const REQ_TAG_DOCUMENT: u8 = 2;
const REQ_STORY_TREE: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_EXPORT_SUBGRAPH: u8 = 5;
const REQ_METRICS: u8 = 6;

/// Serialises one request payload (kind byte + body).
pub fn write_request(w: &mut Writer, req: &Request) {
    match req {
        Request::Serve(ServeRequest::Conceptualize { query }) => {
            w.u8(REQ_CONCEPTUALIZE);
            w.str(query);
        }
        Request::Serve(ServeRequest::Recommend { query }) => {
            w.u8(REQ_RECOMMEND);
            w.str(query);
        }
        Request::Serve(ServeRequest::TagDocument { title, sentences }) => {
            w.u8(REQ_TAG_DOCUMENT);
            w.str(title);
            w.str_slice(sentences);
        }
        Request::Serve(ServeRequest::StoryTree { seed }) => {
            w.u8(REQ_STORY_TREE);
            w.u32(seed.0);
        }
        Request::Serve(ServeRequest::ExportSubgraph { root }) => {
            w.u8(REQ_EXPORT_SUBGRAPH);
            write_opt_node(w, root);
        }
        Request::Stats => w.u8(REQ_STATS),
        Request::Metrics => w.u8(REQ_METRICS),
    }
}

/// Decodes one request payload. Every failure is typed; oversized inner
/// lengths are rejected by the reader's allocation caps.
pub fn decode_request(payload: &[u8]) -> Result<Request, NetError> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let req = match kind {
        REQ_CONCEPTUALIZE => Request::Serve(ServeRequest::Conceptualize { query: r.str()? }),
        REQ_RECOMMEND => Request::Serve(ServeRequest::Recommend { query: r.str()? }),
        REQ_TAG_DOCUMENT => Request::Serve(ServeRequest::TagDocument {
            title: r.str()?,
            sentences: r.str_vec()?,
        }),
        REQ_STORY_TREE => Request::Serve(ServeRequest::StoryTree {
            seed: NodeId(r.u32()?),
        }),
        REQ_STATS => Request::Stats,
        REQ_EXPORT_SUBGRAPH => Request::Serve(ServeRequest::ExportSubgraph {
            root: read_opt_node(&mut r)?,
        }),
        REQ_METRICS => Request::Metrics,
        kind => return Err(NetError::BadKind { kind }),
    };
    r.expect_exhausted()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Reply codec.

const REP_CONCEPTUALIZE: u8 = 0;
const REP_RECOMMEND: u8 = 1;
const REP_TAG_DOCUMENT: u8 = 2;
const REP_STORY_TREE: u8 = 3;
const REP_ERR_UNKNOWN_SEED: u8 = 4;
const REP_SHED: u8 = 5;
const REP_STATS: u8 = 6;
const REP_BAD: u8 = 7;
const REP_EXPORT_SUBGRAPH: u8 = 8;
const REP_ERR_UNKNOWN_EXPORT_ROOT: u8 = 9;
const REP_ERR_EXPORT_DISABLED: u8 = 10;
const REP_ERR_EXPORT_FAILED: u8 = 11;
const REP_METRICS: u8 = 12;

/// Tag bytes for [`MetricValue`] rows inside a `Metrics` reply.
const METRIC_COUNTER: u8 = 0;
const METRIC_GAUGE: u8 = 1;
const METRIC_HISTOGRAM: u8 = 2;

fn write_metrics_snapshot(w: &mut Writer, snap: &MetricsSnapshot) {
    w.len_prefix(snap.rows.len(), "metric rows");
    for row in &snap.rows {
        w.str(&row.name);
        match &row.value {
            MetricValue::Counter(n) => {
                w.u8(METRIC_COUNTER);
                w.u64(*n);
            }
            // binio carries no signed integers; gauges ride as
            // two's-complement u64, losslessly.
            MetricValue::Gauge(v) => {
                w.u8(METRIC_GAUGE);
                w.u64(*v as u64);
            }
            MetricValue::Histogram(h) => {
                w.u8(METRIC_HISTOGRAM);
                w.u64(h.count);
                w.u64(h.sum_us);
                w.f64(h.p50_us);
                w.f64(h.p99_us);
            }
        }
    }
}

fn read_metrics_snapshot(r: &mut Reader<'_>) -> Result<MetricsSnapshot, NetError> {
    // Min row size: 4-byte name length + 1 tag + 8 value bytes.
    let n = r.len(13, "metric rows")?;
    let rows = (0..n)
        .map(|_| {
            let name = r.str()?;
            let value = match r.u8()? {
                METRIC_COUNTER => MetricValue::Counter(r.u64()?),
                METRIC_GAUGE => MetricValue::Gauge(r.u64()? as i64),
                METRIC_HISTOGRAM => MetricValue::Histogram(HistogramSummary {
                    count: r.u64()?,
                    sum_us: r.u64()?,
                    p50_us: r.f64()?,
                    p99_us: r.f64()?,
                }),
                kind => return Err(NetError::BadKind { kind }),
            };
            Ok(MetricRow { name, value })
        })
        .collect::<Result<Vec<_>, NetError>>()?;
    Ok(MetricsSnapshot { rows })
}

/// Serialises one reply payload (kind byte + body).
pub fn write_reply(w: &mut Writer, reply: &Reply) {
    match reply {
        Reply::Ok(ServeResponse::Conceptualize(u)) => {
            w.u8(REP_CONCEPTUALIZE);
            write_opt_node(w, &u.concept);
            write_opt_node(w, &u.entity);
            w.str_slice(&u.rewrites);
            write_nodes(w, &u.recommendations);
        }
        Reply::Ok(ServeResponse::Recommend(rec)) => {
            w.u8(REP_RECOMMEND);
            write_opt_node(w, &rec.entity);
            write_nodes(w, &rec.items);
        }
        Reply::Ok(ServeResponse::TagDocument(tags)) => {
            w.u8(REP_TAG_DOCUMENT);
            write_scored_nodes(w, &tags.concepts);
            write_scored_nodes(w, &tags.events);
            write_scored_nodes(w, &tags.topics);
        }
        Reply::Ok(ServeResponse::StoryTree(tree)) => {
            w.u8(REP_STORY_TREE);
            w.len_prefix(tree.events.len(), "story events");
            for e in &tree.events {
                write_story_event(w, e);
            }
            w.len_prefix(tree.branches.len(), "story branches");
            for b in &tree.branches {
                w.len_prefix(b.len(), "story branch");
                for &i in b {
                    w.usize(i);
                }
            }
        }
        Reply::Ok(ServeResponse::ExportSubgraph(json)) => {
            w.u8(REP_EXPORT_SUBGRAPH);
            w.str(json);
        }
        Reply::Err(ServeError::UnknownStorySeed(n)) => {
            w.u8(REP_ERR_UNKNOWN_SEED);
            w.u32(n.0);
        }
        Reply::Err(ServeError::UnknownExportRoot(n)) => {
            w.u8(REP_ERR_UNKNOWN_EXPORT_ROOT);
            w.u32(n.0);
        }
        Reply::Err(ServeError::ExportDisabled) => w.u8(REP_ERR_EXPORT_DISABLED),
        Reply::Err(ServeError::ExportFailed(msg)) => {
            w.u8(REP_ERR_EXPORT_FAILED);
            w.str(msg);
        }
        Reply::Shed { depth, cap } => {
            w.u8(REP_SHED);
            w.u32(*depth);
            w.u32(*cap);
        }
        Reply::Stats(s) => {
            w.u8(REP_STATS);
            w.u64(s.version);
            w.u64(s.served);
            w.u64(s.shed);
            w.u64(s.batches);
            w.u32(s.max_batch);
            w.u32(s.queue_depth);
            w.u32(s.queue_max_depth);
            w.u32(s.queue_cap);
            w.len_prefix(s.kinds.len(), "stat rows");
            for row in &s.kinds {
                w.str(&row.kind);
                w.u64(row.count);
                w.f64(row.p50_us);
                w.f64(row.p99_us);
            }
        }
        Reply::Metrics(snap) => {
            w.u8(REP_METRICS);
            write_metrics_snapshot(w, snap);
        }
        Reply::Bad { reason } => {
            w.u8(REP_BAD);
            w.str(reason);
        }
    }
}

/// Decodes one reply payload.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, NetError> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let reply = match kind {
        REP_CONCEPTUALIZE => Reply::Ok(ServeResponse::Conceptualize(QueryUnderstanding {
            concept: read_opt_node(&mut r)?,
            entity: read_opt_node(&mut r)?,
            rewrites: r.str_vec()?,
            recommendations: read_nodes(&mut r)?,
        })),
        REP_RECOMMEND => Reply::Ok(ServeResponse::Recommend(Recommendations {
            entity: read_opt_node(&mut r)?,
            items: read_nodes(&mut r)?,
        })),
        REP_TAG_DOCUMENT => Reply::Ok(ServeResponse::TagDocument(DocTags {
            concepts: read_scored_nodes(&mut r)?,
            events: read_scored_nodes(&mut r)?,
            topics: read_scored_nodes(&mut r)?,
        })),
        REP_STORY_TREE => {
            let n = r.len(14, "story events")?;
            let events = (0..n)
                .map(|_| read_story_event(&mut r))
                .collect::<Result<Vec<_>, _>>()?;
            let nb = r.len(4, "story branches")?;
            let branches = (0..nb)
                .map(|_| {
                    let n = r.len(8, "story branch")?;
                    (0..n).map(|_| r.usize()).collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            Reply::Ok(ServeResponse::StoryTree(StoryTree { events, branches }))
        }
        REP_ERR_UNKNOWN_SEED => Reply::Err(ServeError::UnknownStorySeed(NodeId(r.u32()?))),
        REP_EXPORT_SUBGRAPH => Reply::Ok(ServeResponse::ExportSubgraph(r.str()?)),
        REP_ERR_UNKNOWN_EXPORT_ROOT => Reply::Err(ServeError::UnknownExportRoot(NodeId(r.u32()?))),
        REP_ERR_EXPORT_DISABLED => Reply::Err(ServeError::ExportDisabled),
        REP_ERR_EXPORT_FAILED => Reply::Err(ServeError::ExportFailed(r.str()?)),
        REP_SHED => Reply::Shed {
            depth: r.u32()?,
            cap: r.u32()?,
        },
        REP_STATS => {
            let version = r.u64()?;
            let served = r.u64()?;
            let shed = r.u64()?;
            let batches = r.u64()?;
            let max_batch = r.u32()?;
            let queue_depth = r.u32()?;
            let queue_max_depth = r.u32()?;
            let queue_cap = r.u32()?;
            let n = r.len(25, "stat rows")?;
            let kinds = (0..n)
                .map(|_| {
                    Ok(KindRow {
                        kind: r.str()?,
                        count: r.u64()?,
                        p50_us: r.f64()?,
                        p99_us: r.f64()?,
                    })
                })
                .collect::<Result<Vec<_>, BinError>>()?;
            Reply::Stats(StatsReport {
                version,
                served,
                shed,
                batches,
                max_batch,
                queue_depth,
                queue_max_depth,
                queue_cap,
                kinds,
            })
        }
        REP_METRICS => Reply::Metrics(read_metrics_snapshot(&mut r)?),
        REP_BAD => Reply::Bad { reason: r.str()? },
        kind => return Err(NetError::BadKind { kind }),
    };
    r.expect_exhausted()?;
    Ok(reply)
}

// ---------------------------------------------------------------------------
// Framing.

/// Builds one complete frame (header + payload) for transmission,
/// checking the payload length against [`MAX_PAYLOAD`].
pub fn encode_frame(id: u64, payload: Vec<u8>) -> Result<Vec<u8>, NetError> {
    Ok(binio::encode_frame(id, &payload, MAX_PAYLOAD)?)
}

/// Encodes a request as a complete frame.
pub fn encode_request_frame(id: u64, req: &Request) -> Result<Vec<u8>, NetError> {
    let mut w = Writer::new();
    write_request(&mut w, req);
    encode_frame(id, w.into_bytes_checked()?)
}

/// Encodes a reply as a complete frame.
pub fn encode_reply_frame(id: u64, reply: &Reply) -> Result<Vec<u8>, NetError> {
    let mut w = Writer::new();
    write_reply(&mut w, reply);
    encode_frame(id, w.into_bytes_checked()?)
}

/// The canonical payload bytes of a reply — what byte-identity tests
/// compare (two replies are equal iff their encodings are).
pub fn encode_reply_payload(reply: &Reply) -> Result<Vec<u8>, NetError> {
    let mut w = Writer::new();
    write_reply(&mut w, reply);
    Ok(w.into_bytes_checked()?)
}

/// Reads one frame from `stream`: `(id, payload)`, with the length cap
/// enforced **before** the payload allocation and the checksum verified
/// before returning. A peer that vanishes mid-frame surfaces as
/// [`NetError::Io`] (`UnexpectedEof`).
pub fn read_frame(stream: &mut impl std::io::Read) -> Result<(u64, Vec<u8>), NetError> {
    let header = FrameHeader::read_from(stream)?;
    let mut payload = vec![0u8; header.payload_len(MAX_PAYLOAD)?];
    stream.read_exact(&mut payload)?;
    header.verify(&payload)?;
    Ok((header.id, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Serve(ServeRequest::Conceptualize {
                query: "best electric cars".into(),
            }),
            Request::Serve(ServeRequest::Recommend {
                query: "veltro x9 review".into(),
            }),
            Request::Serve(ServeRequest::TagDocument {
                title: "veltro x9 wins award".into(),
                sentences: vec!["a great day".into(), "for electric cars".into()],
            }),
            Request::Serve(ServeRequest::StoryTree { seed: NodeId(7) }),
            Request::Serve(ServeRequest::ExportSubgraph { root: None }),
            Request::Serve(ServeRequest::ExportSubgraph {
                root: Some(NodeId(12)),
            }),
            Request::Stats,
            Request::Metrics,
        ]
    }

    fn sample_replies() -> Vec<Reply> {
        vec![
            Reply::Ok(ServeResponse::Conceptualize(QueryUnderstanding {
                concept: Some(NodeId(3)),
                entity: None,
                rewrites: vec!["best electric cars kario s4".into()],
                recommendations: vec![NodeId(9), NodeId(4)],
            })),
            Reply::Ok(ServeResponse::Recommend(Recommendations {
                entity: Some(NodeId(1)),
                items: vec![NodeId(2)],
            })),
            Reply::Ok(ServeResponse::TagDocument(DocTags {
                concepts: vec![(NodeId(1), 0.5)],
                events: vec![],
                topics: vec![(NodeId(2), -0.0)],
            })),
            Reply::Ok(ServeResponse::StoryTree(StoryTree {
                events: vec![StoryEvent {
                    node: NodeId(11),
                    tokens: vec!["veltro".into(), "x9".into()],
                    trigger: Some("wins".into()),
                    entities: vec![NodeId(1)],
                    day: 3,
                }],
                branches: vec![vec![0], vec![]],
            })),
            Reply::Err(ServeError::UnknownStorySeed(NodeId(999))),
            Reply::Ok(ServeResponse::ExportSubgraph(
                "{\n  \"nodes\": []\n}".into(),
            )),
            Reply::Err(ServeError::UnknownExportRoot(NodeId(404))),
            Reply::Err(ServeError::ExportDisabled),
            Reply::Err(ServeError::ExportFailed("node 3: missing property".into())),
            Reply::Shed { depth: 64, cap: 64 },
            Reply::Stats(StatsReport {
                version: 3,
                served: 100,
                shed: 2,
                batches: 10,
                max_batch: 16,
                queue_depth: 1,
                queue_max_depth: 32,
                queue_cap: 64,
                kinds: vec![KindRow {
                    kind: "conceptualize".into(),
                    count: 50,
                    p50_us: 12.5,
                    p99_us: 80.0,
                }],
            }),
            Reply::Metrics(MetricsSnapshot {
                rows: vec![
                    MetricRow {
                        name: "net.queue.depth".into(),
                        value: MetricValue::Gauge(-3),
                    },
                    MetricRow {
                        name: "net.queue.wait_us".into(),
                        value: MetricValue::Histogram(HistogramSummary {
                            count: 4,
                            sum_us: 52,
                            p50_us: 9.513656920021768,
                            p99_us: 26.908685288118864,
                        }),
                    },
                    MetricRow {
                        name: "wal.appends".into(),
                        value: MetricValue::Counter(128),
                    },
                ],
            }),
            Reply::Metrics(MetricsSnapshot { rows: vec![] }),
            Reply::Bad {
                reason: "checksum mismatch".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip_bit_exactly() {
        for req in sample_requests() {
            let mut w = Writer::new();
            write_request(&mut w, &req);
            let bytes = w.into_bytes_checked().unwrap();
            let back = decode_request(&bytes).unwrap();
            let mut w2 = Writer::new();
            write_request(&mut w2, &back);
            assert_eq!(bytes, w2.into_bytes_checked().unwrap(), "{req:?}");
        }
    }

    #[test]
    fn replies_round_trip_bit_exactly() {
        for reply in sample_replies() {
            let bytes = encode_reply_payload(&reply).unwrap();
            let back = decode_reply(&bytes).unwrap();
            assert_eq!(
                bytes,
                encode_reply_payload(&back).unwrap(),
                "{reply:?}"
            );
        }
    }

    #[test]
    fn frames_carry_ids_and_catch_flips() {
        let payload = {
            let mut w = Writer::new();
            write_request(&mut w, &sample_requests()[0]);
            w.into_bytes_checked().unwrap()
        };
        let frame = encode_frame(77, payload.clone()).unwrap();
        let (id, got) = read_frame(&mut &frame[..]).unwrap();
        assert_eq!(id, 77);
        assert_eq!(got, payload);
        // Any single flipped byte is caught: header flips break the
        // length/id/checksum agreement, payload flips break the checksum.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(
                read_frame(&mut &bad[..]).is_err(),
                "flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation() {
        // Announced payload over the cap: rejected from the header alone.
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(NetError::TooLarge { .. })
        ));
        // Encode side refuses the same way.
        assert!(matches!(
            encode_frame(1, vec![0u8; MAX_PAYLOAD as usize + 1]),
            Err(NetError::TooLarge { .. })
        ));
    }

    #[test]
    fn unknown_kinds_are_typed() {
        assert!(matches!(
            decode_request(&[200]),
            Err(NetError::BadKind { kind: 200 })
        ));
        assert!(matches!(
            decode_reply(&[250]),
            Err(NetError::BadKind { kind: 250 })
        ));
        // Trailing garbage after a valid message is malformed, not ignored.
        let mut w = Writer::new();
        write_request(&mut w, &Request::Stats);
        let mut bytes = w.into_bytes_checked().unwrap();
        bytes.push(0);
        assert!(matches!(
            decode_request(&bytes),
            Err(NetError::Malformed(_))
        ));
    }
}
