//! # giant-incr — incremental ontology maintenance
//!
//! GIANT's ontology is not a one-shot artifact: the paper rebuilds it from
//! continuously arriving query logs and click graphs. This crate gives the
//! repo that regime — fold fresh click-log batches into a live ontology
//! **without** rebuilding from scratch:
//!
//! * [`DeltaBatch`] — one ingestion unit: new documents, click events,
//!   session streams and dictionary entities, in arrival order.
//! * [`IncrementalState`] — the long-lived folder. Each
//!   [`IncrementalState::fold`] applies a batch to the accumulated
//!   [`giant_core::pipeline::PipelineInput`], computes the batch's dirty
//!   node set, invalidates
//!   exactly the cached cluster walks whose footprints read a dirty node
//!   (`giant_graph::plan::PlanCache`), re-mines only those clusters on the
//!   shared deterministic executor (`giant_core::cache::PipelineCaches`),
//!   then diffs the rebuilt ontology against the served one and applies
//!   the resulting [`giant_ontology::OntologyDelta`] to produce the next
//!   live version.
//! * [`CorpusStream`] / [`union_input`] — replayable corpus splitting, the
//!   harness for the convergence contract.
//! * [`screen_batch`] — schema screening for third-party feeds: salvages
//!   the valid items of a batch and reports typed per-item rejections,
//!   leaving the fold itself untouched (DESIGN.md §12).
//!
//! ## The convergence contract
//!
//! For **any** split of a corpus into an initial batch plus arbitrary
//! delta batches, the incrementally maintained ontology is byte-identical
//! (via `giant_ontology::io::dump`) to a full `run_pipeline` over the
//! union of the batches, at every thread count. Two mechanisms carry the
//! proof obligation:
//!
//! 1. **cache soundness** — a cached walk is reused only when no node its
//!    footprint read has changed ([`giant_graph::WalkFootprint`]), and a
//!    cached mining outcome only under an exact fingerprint of its inputs;
//!    under those rules the cached pipeline output *is* the uncached
//!    output (same code, same bytes);
//! 2. **delta fidelity** — `apply(prev, diff(prev, rebuilt)) == rebuilt`
//!    structurally, so serving from the delta-applied chain equals serving
//!    from the rebuild.
//!
//! `tests/incremental_convergence.rs` proptests both over random splits of
//! random worlds and pins the seed-42 experiment world as a golden.

#![forbid(unsafe_code)]

pub mod batch;
pub mod ckpt;
pub mod screen;
pub mod state;
pub mod stream;
pub mod wal;

pub use batch::{ClickEvent, DeltaBatch};
pub use ckpt::Checkpoint;
pub use screen::{screen_batch, BatchItem, BatchRejection, RejectReason, ScreenReport};
pub use state::{FoldError, FoldReport, IncrementalState};
pub use stream::{union_input, CorpusStream};
pub use wal::{wal_metrics, SyncMode, Wal, WalEntry, WalError, WalMetrics, WalTruncation};
