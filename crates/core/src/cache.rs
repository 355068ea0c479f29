//! Cross-run memoization for the incremental pipeline.
//!
//! A [`PipelineCaches`] value carried across [`crate::pipeline::run_pipeline_cached`]
//! runs memoizes the two expensive per-cluster computations of attention
//! mining:
//!
//! * **cluster extraction** (the random walks inside planning) — delegated
//!   to [`giant_graph::plan::PlanCache`], invalidated by walk-footprint
//!   intersection with the batch's [`DirtySet`];
//! * **cluster mining** (QTIG build + GCTSP inference + ATSP decode) —
//!   memoized here per seed query, validated by an **exact fingerprint** of
//!   everything the computation reads that can change between runs: the
//!   cluster's query/doc composition with bit-exact walk weights, and the
//!   seed's total click mass. Query texts, document payloads, the
//!   annotator and the trained models are immutable across folds
//!   (documents are append-only and batches may not reference docs that do
//!   not exist yet), so the fingerprint plus the entity-filter re-check at
//!   reuse time covers every input.
//!
//! The contract both caches share: **a hit returns bit-for-bit what the
//! computation would have produced fresh on the current input.** Under it,
//! `run_pipeline_cached` output is byte-identical to an uncached
//! `run_pipeline` over the same input — the convergence guarantee the
//! incremental subsystem is built on (`tests/incremental_convergence.rs`).

use crate::pipeline::{ClusterCandidate, PipelineInput};
use giant_graph::plan::{ClusterWorkItem, DirtySet, PlanCache};
use giant_graph::ClickGraph;
use giant_ontology::EventRole;
use giant_text::TfIdf;
use std::collections::{HashMap, HashSet};

/// Cache effectiveness counters for the most recent pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cluster extractions served from the plan cache (walks skipped).
    pub plan_reused: usize,
    /// Cluster extractions walked fresh.
    pub plan_walked: usize,
    /// Cluster minings served from the mine cache (inference skipped).
    pub clusters_reused: usize,
    /// Cluster minings computed fresh.
    pub clusters_mined: usize,
}

impl CacheStats {
    /// Fraction of clusters whose mining was skipped (0 when nothing ran).
    pub fn reuse_rate(&self) -> f64 {
        let total = self.clusters_reused + self.clusters_mined;
        if total == 0 {
            0.0
        } else {
            self.clusters_reused as f64 / total as f64
        }
    }
}

/// Everything the computation of one cluster's mining reads that can
/// change between incremental runs, bit-exact. Equal fingerprint ⇒ equal
/// mining outcome (modulo the entity filter, which is re-applied at reuse).
///
/// Deliberately **weight-free**: mining consumes the cluster's query and
/// doc *sequences* (texts and titles in kept order), the clicked doc ids
/// and the seed's total mass — never the walk probabilities themselves.
/// A graph edit that perturbs walk weights without reordering the kept
/// sets (the common case for a stray click a few hops away) therefore
/// re-walks but does **not** re-mine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MineFingerprint {
    /// Cluster query ids in kept order.
    pub(crate) queries: Vec<u32>,
    /// Cluster doc ids in kept order.
    pub(crate) docs: Vec<u32>,
    /// The seed's total click mass (the candidate's support), bit-exact.
    pub(crate) seed_total: u64,
}

impl MineFingerprint {
    pub(crate) fn of(item: &ClusterWorkItem, g: &ClickGraph) -> Self {
        Self {
            queries: item.cluster.queries.iter().map(|&(q, _)| q.0).collect(),
            docs: item.cluster.docs.iter().map(|&(d, _)| d.0).collect(),
            seed_total: g.query_clicks(item.seed).to_bits(),
        }
    }
}

/// A memoized mining outcome, **before** the entity filter — the entity
/// dictionary is the one mining input that can grow without touching the
/// cluster, so the filter is re-evaluated on every reuse against the
/// current surfaces.
#[derive(Debug, Clone)]
pub(crate) enum MineOutcome {
    /// The cluster decodes to nothing usable (no titles, empty decode, or
    /// all stopwords) regardless of the entity dictionary.
    Dead,
    /// The cluster decodes to a candidate phrase.
    Decoded {
        /// The decoded surface, the entity-filter key.
        surface: String,
        /// The full candidate (tokens, support, context).
        cand: ClusterCandidate,
    },
}

impl MineOutcome {
    /// Applies the entity filter: the pipeline never mines a phrase that
    /// merely re-discovers a dictionary entity.
    pub(crate) fn resolve(&self, entity_surfaces: &HashSet<String>) -> Option<ClusterCandidate> {
        match self {
            MineOutcome::Dead => None,
            MineOutcome::Decoded { surface, cand } => {
                if entity_surfaces.contains(surface) {
                    None
                } else {
                    Some(cand.clone())
                }
            }
        }
    }
}

/// One mine-cache slot: the fingerprint it was computed under plus the
/// outcome.
#[derive(Debug, Clone)]
pub(crate) struct MineEntry {
    pub(crate) fp: MineFingerprint,
    pub(crate) outcome: MineOutcome,
}

/// Append-only text derivations: tokenized titles and body sentences, the
/// running title TF-IDF, and per-sentence entity presence. Documents are
/// immutable and arrive in id order and the entity dictionary only grows,
/// so extending these structures reproduces bit-for-bit what a fresh
/// whole-corpus pass builds — the sync is pure bookkeeping, never
/// approximation.
#[derive(Debug, Clone, Default)]
pub(crate) struct TextCache {
    /// Running TF-IDF over titles, fed in doc order.
    pub(crate) tfidf: TfIdf,
    /// Tokenized title per doc.
    pub(crate) titles: Vec<Vec<String>>,
    /// Tokenized body sentences per doc.
    pub(crate) sentences: Vec<Vec<Vec<String>>>,
    /// Per doc, per sentence: ascending indices of entities (into
    /// `input.entities`) whose token sequence occurs in the sentence.
    pub(crate) entity_presence: Vec<Vec<Vec<u32>>>,
    /// Entity count the presence lists are complete up to.
    pub(crate) entities_seen: usize,
}

impl TextCache {
    /// Extends the cache to cover `input`'s docs and entities. New docs
    /// are tokenized and scanned in full; existing docs are re-scanned
    /// only against entities appended since the last sync (matches are
    /// pushed in ascending entity order, so each presence list stays
    /// exactly what a full scan would produce).
    pub(crate) fn sync(&mut self, input: &PipelineInput) {
        let old_docs = self.titles.len();
        for d in &input.docs[old_docs..] {
            let toks = giant_text::tokenize(&d.title);
            self.tfidf.add_doc(toks.iter().map(|s| s.as_str()));
            self.titles.push(toks);
            self.sentences
                .push(d.sentences.iter().map(|s| giant_text::tokenize(s)).collect());
        }
        let n_ent = input.entities.len();
        // Existing docs: only the appended entity tail is new.
        if n_ent > self.entities_seen {
            for (doc, rows) in self.entity_presence.iter_mut().enumerate() {
                for (si, present) in rows.iter_mut().enumerate() {
                    let sent = &self.sentences[doc][si];
                    for (ei, (etoks, _)) in
                        input.entities.iter().enumerate().take(n_ent).skip(self.entities_seen)
                    {
                        if crate::util::contains_seq(sent, etoks).is_some() {
                            present.push(ei as u32);
                        }
                    }
                }
            }
        }
        // New docs: scan the full dictionary.
        for doc in self.entity_presence.len()..self.sentences.len() {
            let rows = self.sentences[doc]
                .iter()
                .map(|sent| {
                    input
                        .entities
                        .iter()
                        .enumerate()
                        .filter(|(_, (etoks, _))| crate::util::contains_seq(sent, etoks).is_some())
                        .map(|(ei, _)| ei as u32)
                        .collect()
                })
                .collect();
            self.entity_presence.push(rows);
        }
        self.entities_seen = n_ent;
    }
}

/// Memo of `find_entity` (first dictionary entity contained in a query)
/// per query text. `None` results remember how much of the dictionary they
/// checked: when the dictionary grows, only the appended tail is scanned —
/// the first match among new entities *is* the global first match, because
/// every earlier entity already missed.
#[derive(Debug, Clone, Default)]
pub(crate) struct EntityLookupCache {
    pub(crate) map: HashMap<String, (Option<u32>, usize)>,
}

impl EntityLookupCache {
    /// First entity (by dictionary order) whose token sequence occurs in
    /// `query`, memoized.
    pub(crate) fn find(
        &mut self,
        query: &str,
        entities: &[(Vec<String>, String)],
    ) -> Option<usize> {
        let n = entities.len();
        if let Some(&(hit, checked)) = self.map.get(query) {
            if let Some(i) = hit {
                return Some(i as usize);
            }
            if checked == n {
                return None;
            }
            let qt = giant_text::tokenize(query);
            let found = entities[checked..]
                .iter()
                .position(|(toks, _)| crate::util::contains_seq(&qt, toks).is_some())
                .map(|off| checked + off);
            self.map
                .insert(query.to_owned(), (found.map(|i| i as u32), n));
            return found;
        }
        let qt = giant_text::tokenize(query);
        let found = entities
            .iter()
            .position(|(toks, _)| crate::util::contains_seq(&qt, toks).is_some());
        self.map
            .insert(query.to_owned(), (found.map(|i| i as u32), n));
        found
    }
}

/// The caches a long-lived incremental pipeline carries across runs. See
/// the [module docs](self) for the validity contract.
#[derive(Debug, Clone, Default)]
pub struct PipelineCaches {
    /// Cluster-extraction cache (walks), footprint-invalidated.
    pub(crate) plan: PlanCache,
    /// Cluster-mining cache keyed by seed query id, fingerprint-validated.
    /// Stale entries are overwritten when their seed is re-mined, so no
    /// separate invalidation pass is needed for correctness.
    pub(crate) mine: HashMap<u32, MineEntry>,
    /// Append-only text derivations (tokenization, TF-IDF, entity
    /// presence).
    pub(crate) text: TextCache,
    /// Event role inference memo keyed by the exact QTIG inputs
    /// (queries + titles + phrase tokens).
    pub(crate) roles: HashMap<String, Vec<EventRole>>,
    /// Session-mining entity lookup memo.
    pub(crate) entity_lookup: EntityLookupCache,
}

impl PipelineCaches {
    /// Empty caches (first run mines everything and fills them).
    pub fn new() -> Self {
        Self::default()
    }

    /// Evicts every cached walk whose footprint reads a node the batch
    /// dirtied; returns how many were evicted. Must be called after each
    /// round of click-graph edits, before the next cached run.
    pub fn invalidate(&mut self, dirty: &DirtySet) -> usize {
        self.plan.invalidate(dirty)
    }

    /// Number of cached cluster extractions.
    pub fn cached_plans(&self) -> usize {
        self.plan.len()
    }

    /// Number of cached cluster minings.
    pub fn cached_minings(&self) -> usize {
        self.mine.len()
    }
}
