//! # giant-data — the synthetic world, corpus, click logs and datasets
//!
//! GIANT's input is proprietary: Tencent search click logs at billion-user
//! scale. This crate is the substitution (DESIGN.md S1): a seeded generator
//! producing a world of categories, entities, concepts, events and topics, a
//! document corpus and a click log that exhibit exactly the structural
//! regularities the paper's algorithms exploit — plus the generating ground
//! truth, so every accuracy number the paper obtained from human judgement
//! is computable mechanically here.
//!
//! * [`names`] / [`domain`] — deterministic name generation and domain
//!   templates.
//! * [`world`] — the ground-truth world ([`World`]).
//! * [`corpus`] — document generation ([`Corpus`]).
//! * [`clicks`] — queries, click records, session streams ([`ClickLog`]).
//! * [`datasets`] — CMD/EMD analogues with 80/10/10 splits.
//! * [`scale`] — tile-based scaled generation: N independent worlds from
//!   derived seeds, streamed one at a time for bounded memory.

#![forbid(unsafe_code)]

pub mod clicks;
pub mod corpus;
pub mod datasets;
pub mod domain;
pub mod names;
pub mod scale;
pub mod world;

pub use clicks::{generate_clicks, ClickConfig, ClickLog, ClickRecord, Intent};
pub use scale::{tile_config, tile_seed, tile_worlds};
pub use corpus::{generate_corpus, Corpus, CorpusConfig, DocSource, SynthDoc};
pub use datasets::{concept_mining_dataset, event_mining_dataset, MiningDataset, MiningExample};
pub use domain::{DomainSpec, EntityFlavor, DOMAINS};
pub use names::NameGen;
pub use world::{CategoryDef, ConceptDef, EntityDef, EventDef, TopicDef, World, WorldConfig};
