//! # giant-core — the GIANT ontology-construction pipeline (the paper's
//! primary contribution)
//!
//! GIANT (SIGMOD 2020) mines *user attention phrases* from a search click
//! graph and links them into the Attention Ontology. This crate implements
//! the full method:
//!
//! * [`qtig`] — the Query-Title Interaction Graph (Algorithm 2, Figure 3).
//! * [`gctsp`] — GCTSP-Net: feature embeddings + stacked R-GCN node
//!   classifier (eq. 5–6), binary and 4-class heads.
//! * [`decode`] — ATSP decoding of positive nodes into an ordered phrase.
//! * [`normalize`] — attention-phrase normalization (δ_m).
//! * [`bootstrap`] — pattern–concept duality bootstrapping.
//! * [`align`] — query–title alignment candidates.
//! * [`event_cand`] — CoverRank subtitle candidates.
//! * [`mod@derive`] — Common Suffix Discovery and Common Pattern Discovery.
//! * [`link`] — category links (δ_g), the concept–entity GBDT, correlate
//!   embeddings (hinge loss).
//! * [`train`] — dataset-to-model training helpers.
//! * [`pipeline`] — Algorithm 1 + §3.2 end to end: [`run_pipeline`].

#![forbid(unsafe_code)]

pub mod align;
mod annotations;
pub mod bootstrap;
pub mod cache;
pub mod ckpt;
pub mod config;
pub mod decode;
pub mod derive;
pub mod event_cand;
pub mod gctsp;
pub mod link;
pub mod normalize;
pub mod pipeline;
pub mod qtig;
pub mod train;
pub mod util;

pub use align::{align_query_title, align_query_titles};
pub use bootstrap::{Bootstrapper, Pattern};
pub use cache::{CacheStats, PipelineCaches};
pub use config::GiantConfig;
pub use decode::{atsp_decode, decode_tokens};
pub use derive::{common_pattern_discovery, common_suffix_discovery, CpdEvent, DerivedConcept, DerivedTopic};
pub use event_cand::{best_event_candidate, cover_rank, SubtitleCandidate};
pub use gctsp::{GctspConfig, GctspNet, InferScratch};
pub use link::{category_links, concept_entity_features, ConceptEntityClassifier, CorrelateConfig, CorrelateModel};
pub use normalize::{MergedPhrase, Normalizer};
pub use pipeline::{run_pipeline, run_pipeline_cached, CategoryRecord, DocRecord, GiantOutput, MinedAttention, PipelineInput, StageTimings};
pub use qtig::{Qtig, QtigNode, QtigRelation};
pub use train::{build_cluster_qtig, train_phrase_model, train_role_model, GiantModels, TrainingCluster};
