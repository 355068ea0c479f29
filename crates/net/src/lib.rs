//! # giant-net — the network front door for the `OntologyService`
//!
//! The serving layer (`giant_apps::serving`) answers typed
//! [`ServeRequest`](giant_apps::ServeRequest)s in microseconds, but only
//! in-process. This crate puts a server in front of it — the deployment
//! shape of the paper's production system, where one ontology serves
//! recommendation and tagging traffic for millions of browser users:
//!
//! * [`wire`] — a length-prefixed, checksummed binary protocol over TCP,
//!   built on the same `giant_ontology::binio` primitives (and the same
//!   frame discipline) as the checkpoint and WAL formats. Every message
//!   decodes to a typed value or a typed [`NetError`] —
//!   never a panic, never an unbounded allocation.
//! * [`server`] — one reader thread per connection reads frames through
//!   a buffer and answers the microsecond-cheap kinds (Conceptualize,
//!   Recommend) itself, never queued and never shed. The heavier kinds
//!   go to a **bounded admission queue**; worker threads drain it,
//!   **coalescing concurrent requests into `giant_exec::run_ordered`
//!   batches** through `OntologyService::serve_batch`. Both paths call
//!   the same `frame.serve`, so a served answer is byte-identical to the
//!   in-process answer at any thread count and any batch composition.
//!   When the queue is full the server *sheds*: the client gets a typed
//!   [`Reply::Shed`](wire::Reply) immediately instead of the server
//!   queuing without bound.
//! * [`stats`] — per-request-kind latency accounting (p50/p99 over
//!   `giant-obs` log-scale histograms) served over the wire as a stats
//!   endpoint, so operators can watch SLOs without touching the serving
//!   path. The wider `Request::Metrics` endpoint merges these `net.*`
//!   rows with the process-wide `giant-obs` registry — WAL counters,
//!   span histograms, ingest counters — into one report (DESIGN.md §13).
//! * [`client`] — a small blocking client supporting both one-shot calls
//!   and pipelined send/receive (what the load generator and the
//!   equivalence suite drive).
//!
//! ## Determinism contract
//!
//! A response's bytes depend only on the request and the published frame:
//! `encode_reply(serve(req))` over the socket equals
//! `encode_reply(frame.serve(req))` in-process, regardless of server
//! thread count, batch size, or which batch a request happened to ride
//! in. `tests/net_equivalence.rs` (workspace root) byte-asserts this at
//! 1/2/4 server threads and several coalescing limits.

#![forbid(unsafe_code)]

pub mod client;
pub mod server;
pub mod stats;
pub mod wire;

pub use client::NetClient;
pub use server::{Server, ServerConfig};
pub use stats::{KindRow, StatsReport};
pub use wire::{NetError, Reply, Request, MAX_PAYLOAD};
