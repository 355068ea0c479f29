//! # giant — a Rust reproduction of GIANT (SIGMOD 2020)
//!
//! *GIANT: Scalable Creation of a Web-scale Ontology* (Liu, Guo, Niu, Luo,
//! Wang, Wen, Xu; SIGMOD 2020) mines **user attention phrases** — concepts,
//! events and topics in the language of search users — from a search click
//! graph, and links them with categories and entities into the **Attention
//! Ontology**: a DAG with `isA`, `involve` and `correlate` edges that powers
//! document tagging, story trees, query conceptualization and feed
//! recommendation.
//!
//! This workspace is a from-scratch reproduction (see `DESIGN.md` for the
//! system inventory and the substitutions made for proprietary inputs):
//!
//! | crate | contents |
//! |-------|----------|
//! | [`text`] | tokenizer, POS/NER/dependency annotation, SGNS embeddings, TF-IDF |
//! | [`graph`] | click graph, random walk with restart, query–doc clustering |
//! | [`nn`] | matrices, R-GCN, LSTM/BiLSTM, CRF, GBDT — verified backward passes |
//! | [`tsp`] | exact + heuristic asymmetric-TSP path solvers |
//! | [`ontology`] | the Attention Ontology store (DAG invariants, stats, IO) |
//! | [`data`] | the synthetic world, corpus, click logs, CMD/EMD datasets |
//! | [`mining`] | QTIG, GCTSP-Net, ATSP decoding, the full pipeline (`giant-core`) |
//! | [`apps`] | story trees, document tagging, Duet, query understanding, feed simulator |
//! | [`incr`] | incremental ontology maintenance: delta batches, dirty-cluster re-mining, ontology deltas |
//! | [`net`] | network front door: checksummed binary wire protocol, request-coalescing server, bounded admission, latency stats |
//! | [`schema`] | typed schema layer: object/link types, validation, JSON interchange |
//! | [`obs`] | unified observability: metrics registry, structured spans, profiling hooks, text/JSON exposition |
//!
//! ## Quickstart
//!
//! ```no_run
//! use giant::adapter::{build_serving, GiantSetup};
//! use giant::apps::serving::ServeRequest;
//!
//! // Generate a synthetic world + click log, train the models, build the AO.
//! let setup = GiantSetup::generate(giant::data::WorldConfig::tiny());
//! let (models, _) = setup.train_models(&Default::default());
//! let output = setup.run_pipeline(&models, &Default::default());
//! let stats = output.ontology.stats();
//! println!("nodes: {:?}, edges: {:?}", stats.nodes_by_kind, stats.edges_by_kind);
//!
//! // Freeze the ontology and publish it behind the versioned serving API.
//! let serving = build_serving(&setup, &output);
//! let answer = serving.service.serve(&ServeRequest::Conceptualize {
//!     query: "best budget phones".into(),
//! });
//! println!("version {}: {answer:?}", serving.service.version());
//! ```

#![forbid(unsafe_code)]

pub use giant_apps as apps;
pub use giant_core as mining;
pub use giant_data as data;
pub use giant_graph as graph;
pub use giant_incr as incr;
pub use giant_net as net;
pub use giant_nn as nn;
pub use giant_obs as obs;
pub use giant_ontology as ontology;
pub use giant_schema as schema;
pub use giant_text as text;
pub use giant_tsp as tsp;

pub mod adapter;
pub mod cli;
