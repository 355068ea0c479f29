//! # giant-graph — click-graph substrate for the GIANT reproduction
//!
//! GIANT mines user attentions from a *search click graph*: the bipartite
//! graph whose left nodes are queries, right nodes are documents, and whose
//! weighted edges count how often a query led to a click on a document
//! (paper §3.1). This crate provides:
//!
//! * [`digraph`] — a generic directed graph with typed edges and BFS hop
//!   distances (used by the QTIG ATSP decoder and the ontology).
//! * [`click`] — the bipartite [`click::ClickGraph`] with the
//!   transport probabilities of eq. (1)/(2).
//! * [`walk`] — random walk with restart computing deterministic visit
//!   probabilities from a seed query.
//! * [`cluster`] — query–doc cluster extraction with the visit-probability
//!   threshold `δ_v` and the "more than half non-stop-word overlap" filter.
//! * [`plan`] — the sequential cluster-planning pass that partitions the
//!   query space into disjoint work items for parallel mining.

#![forbid(unsafe_code)]

pub mod click;
pub mod cluster;
pub mod digraph;
pub mod plan;
pub mod walk;

pub use click::{ClickGraph, ClickSavepoint, DocId, QueryId};
pub use cluster::{extract_cluster, extract_cluster_tracked, extract_cluster_with, ClusterConfig, QueryDocCluster};
pub use digraph::DiGraph;
pub use plan::{plan_clusters, plan_clusters_cached, plan_clusters_parallel, ClusterPlan, ClusterWorkItem, DirtySet, PlanCache};
pub use walk::{walk_from, WalkConfig, WalkFootprint, WalkResult, Walker};
