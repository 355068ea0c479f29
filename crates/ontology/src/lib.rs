//! # giant-ontology — the Attention Ontology data model
//!
//! The Attention Ontology (paper §2) is a DAG whose nodes are *attention
//! phrases* at five granularities — categories, concepts, entities, topics
//! and events — connected by three relationship kinds: `isA` ("destination
//! is an instance of source"), `involve` ("destination participates in the
//! source event/topic") and `correlate` (symmetric relatedness).
//!
//! This crate stores the graph, enforces the `isA` DAG invariant on
//! insertion, answers the traversals the applications need, computes the
//! per-kind statistics behind Tables 1–2, and round-trips a plain-text
//! serialisation ([`io`]).

#![forbid(unsafe_code)]

pub mod binio;
pub mod delta;
pub mod edge;
pub mod io;
pub mod json;
pub mod node;
pub mod ontology;
pub mod snapshot;

pub use delta::{DeltaError, DeltaStats, NodeChange, NodePayload, OntologyDelta};
pub use edge::EdgeKind;
pub use node::{AttentionNode, EventRole, NodeId, NodeKind, Phrase};
pub use ontology::{AliasOutcome, Ontology, OntologyError, OntologyStats};
pub use snapshot::OntologySnapshot;
