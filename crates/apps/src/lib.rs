//! # giant-apps — the applications of the Attention Ontology (paper §4–5)
//!
//! * [`storytree`] — story-tree formation (Figure 5): correlated-event
//!   retrieval, the eq. (8)–(11) similarity, hierarchical clustering and
//!   time-ordered branch assembly.
//! * [`tagging`] — document tagging: concepts via key-entity parents with
//!   TF-IDF coherence plus the probabilistic fallback (eq. 12–14);
//!   events/topics via LCS + the Duet matcher.
//! * [`duet`] — the simplified Duet semantic matcher (local + distributed
//!   channels → MLP).
//! * [`query`] — query conceptualization and correlate-based
//!   recommendations.
//! * [`recommend`] — the news-feed A/B simulator behind Figures 6–7.
//! * [`serving`] — the versioned `OntologyService`: immutable read-optimized
//!   snapshots behind one typed request/response API, every app above
//!   reachable through `ServeRequest`.

#![forbid(unsafe_code)]

pub(crate) mod ckpt;
pub mod duet;
pub mod incremental;
pub mod query;
pub mod recommend;
pub mod serving;
pub mod storytree;
pub mod tagging;

pub use duet::{duet_features, DuetConfig, DuetMatcher, DUET_FEATURE_DIM};
pub use incremental::{
    mined_metadata, refresh_resources, DurabilityConfig, IncrementalDriver, IngestError,
    IngestReport, MinedMetadata, RestoreError, RestoreReport,
};
pub use query::{conceptualize, recommend as recommend_query, QueryUnderstanding, Recommendations};
pub use recommend::{
    simulate_by_kind,
    ground_truth_tags, simulate_feed, FeedSimConfig, KindSeries, SimDoc, SimResult, TagStrategy,
};
pub use serving::{
    OntologyService, ServeError, ServeRequest, ServeResources, ServeResponse, ServingFrame,
};
pub use storytree::{
    build_story_tree, retrieve_related, EventSimilarity, StoryEvent, StoryTree, StoryTreeConfig,
};
pub use tagging::{DocTags, DocumentTagger, TagResources, TaggingConfig};
