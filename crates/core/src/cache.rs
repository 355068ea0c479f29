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
    pub(crate) fn resolve(self, entity_surfaces: &HashSet<String>) -> Option<ClusterCandidate> {
        match self {
            MineOutcome::Decoded { surface, cand } if !entity_surfaces.contains(&surface) => {
                Some(cand)
            }
            _ => None,
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
    /// are tokenized and matched against the full dictionary; existing docs
    /// only against entities appended since the last sync (all larger than
    /// the ids already listed, so each presence list stays exactly what a
    /// full scan would produce).
    ///
    /// A sentence's entities are found through a first-token → entity-ids
    /// index and verified token by token, instead of testing every entity
    /// against every sentence.
    pub(crate) fn sync(&mut self, input: &PipelineInput) {
        let old_docs = self.titles.len();
        for d in &input.docs[old_docs..] {
            let toks = giant_text::tokenize(&d.title);
            self.tfidf.add_doc(toks.iter().map(|s| s.as_str()));
            self.titles.push(toks);
            self.sentences
                .push(d.sentences.iter().map(|s| giant_text::tokenize(s)).collect());
        }
        let entities = &input.entities;
        // Existing docs: only the appended entity tail is new.
        if entities.len() > self.entities_seen {
            let tail = first_token_index(entities, self.entities_seen);
            for (rows, sentences) in self.entity_presence.iter_mut().zip(&self.sentences) {
                for (present, sent) in rows.iter_mut().zip(sentences) {
                    push_present(&tail, entities, sent, present);
                }
            }
        }
        // New docs: the full dictionary.
        if self.entity_presence.len() < self.sentences.len() {
            let all = first_token_index(entities, 0);
            for sentences in &self.sentences[self.entity_presence.len()..] {
                let rows = sentences
                    .iter()
                    .map(|sent| {
                        let mut present = Vec::new();
                        push_present(&all, entities, sent, &mut present);
                        present
                    })
                    .collect();
                self.entity_presence.push(rows);
            }
        }
        self.entities_seen = entities.len();
    }
}

type Entity = (Vec<String>, giant_text::NerTag);

/// First token → ascending ids of the entities `from..` that start with it.
/// An entity with no tokens is in no list: it occurs in no sentence.
fn first_token_index(entities: &[Entity], from: usize) -> HashMap<&str, Vec<u32>> {
    let mut index: HashMap<&str, Vec<u32>> = HashMap::new();
    for (ei, (tokens, _)) in entities.iter().enumerate().skip(from) {
        if let Some(first) = tokens.first() {
            index.entry(first.as_str()).or_default().push(ei as u32);
        }
    }
    index
}

/// Appends to `present`, ascending, the indexed entities whose token
/// sequence occurs in `sent` — those `contains_seq` accepts. Every id in
/// `index` must exceed every id already in `present`.
fn push_present(
    index: &HashMap<&str, Vec<u32>>,
    entities: &[Entity],
    sent: &[String],
    present: &mut Vec<u32>,
) {
    let old = present.len();
    for (at, token) in sent.iter().enumerate() {
        for &ei in index.get(token.as_str()).map_or(&[][..], Vec::as_slice) {
            if sent[at..].starts_with(&entities[ei as usize].0) {
                present.push(ei);
            }
        }
    }
    // An entity occurring twice was pushed twice, and positions interleave
    // the ids.
    present[old..].sort_unstable();
    present.dedup();
}

/// The entity dictionary indexed by first token, answering "the first
/// entity in dictionary order whose token sequence occurs in these tokens".
#[derive(Debug)]
pub(crate) struct EntityIndex<'a> {
    entities: &'a [Entity],
    by_first: HashMap<&'a str, Vec<u32>>,
}

impl<'a> EntityIndex<'a> {
    pub(crate) fn new(entities: &'a [Entity]) -> Self {
        Self {
            entities,
            by_first: first_token_index(entities, 0),
        }
    }

    /// The smallest id `>= from` of an entity whose tokens occur
    /// contiguously in `tokens` — what
    /// `entities[from..].iter().position(contains_seq)` finds, offset by
    /// `from`. An entity occurs iff it starts at some position of
    /// `tokens`, and then it is in that position's first-token list; so
    /// the smallest verified candidate over all positions is the first
    /// occurring entity. An entity with no tokens occurs nowhere, as in
    /// `contains_seq`.
    pub(crate) fn first_occurring(&self, tokens: &[String], from: usize) -> Option<usize> {
        let mut best: Option<u32> = None;
        for (at, token) in tokens.iter().enumerate() {
            let Some(ids) = self.by_first.get(token.as_str()) else {
                continue;
            };
            let start = ids.partition_point(|&ei| (ei as usize) < from);
            for &ei in &ids[start..] {
                if best.is_some_and(|b| ei >= b) {
                    break;
                }
                if tokens[at..].starts_with(&self.entities[ei as usize].0) {
                    best = Some(ei);
                    break;
                }
            }
        }
        best.map(|ei| ei as usize)
    }
}

/// Memo of `find_entity` (first dictionary entity contained in a query)
/// per query text. `None` results remember how much of the dictionary they
/// checked: when the dictionary grows, only the appended tail is searched —
/// the first match among new entities *is* the global first match, because
/// every earlier entity already missed.
#[derive(Debug, Clone, Default)]
pub(crate) struct EntityLookupCache {
    pub(crate) map: HashMap<String, (Option<u32>, usize)>,
}

impl EntityLookupCache {
    /// First entity (by dictionary order) whose token sequence occurs in
    /// `query`, memoized.
    pub(crate) fn find(&mut self, query: &str, index: &EntityIndex<'_>) -> Option<usize> {
        let n = index.entities.len();
        let from = match self.map.get(query) {
            Some(&(Some(hit), _)) => return Some(hit as usize),
            Some(&(None, checked)) if checked == n => return None,
            Some(&(None, checked)) => checked,
            None => 0,
        };
        let found = index.first_occurring(&giant_text::tokenize(query), from);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DocRecord;
    use giant_text::{Annotator, NerTag};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const WORDS: [&str; 6] = ["neon", "sea", "quanta", "corp", "q7", "launch"];

    fn words(rng: &mut StdRng, len: usize) -> Vec<String> {
        (0..len)
            .map(|_| WORDS[rng.random_range(0..WORDS.len())].to_owned())
            .collect()
    }

    fn random_docs(rng: &mut StdRng, from: usize, n: usize) -> Vec<DocRecord> {
        (from..from + n)
            .map(|id| DocRecord {
                id,
                title: words(rng, 3).join(" "),
                sentences: (0..rng.random_range(0..4))
                    .map(|_| {
                        let len = rng.random_range(0..9);
                        words(rng, len).join(" ")
                    })
                    .collect(),
                leaf_category: 0,
                day: 0,
            })
            .collect()
    }

    /// Over six words, entities of one to four tokens share first tokens
    /// and repeat whole surfaces; one is longer than any sentence and one
    /// has no tokens.
    fn random_entities(rng: &mut StdRng, n: usize) -> Vec<Entity> {
        let mut entities: Vec<Entity> = (0..n)
            .map(|_| {
                let len = rng.random_range(1..5);
                (words(rng, len), NerTag::None)
            })
            .collect();
        entities.push((words(rng, 12), NerTag::None));
        entities.push((Vec::new(), NerTag::None));
        entities
    }

    /// The presence lists by definition: every entity tried on every
    /// sentence with `contains_seq`.
    fn brute_force(input: &PipelineInput) -> Vec<Vec<Vec<u32>>> {
        input
            .docs
            .iter()
            .map(|d| {
                d.sentences
                    .iter()
                    .map(|s| {
                        let sent = giant_text::tokenize(s);
                        (0..input.entities.len() as u32)
                            .filter(|&ei| {
                                let etoks = &input.entities[ei as usize].0;
                                crate::util::contains_seq(&sent, etoks).is_some()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn indexed_entity_presence_equals_the_full_scan() {
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut input = PipelineInput {
                click_graph: ClickGraph::new(),
                docs: random_docs(&mut rng, 0, 20),
                categories: Vec::new(),
                sessions: Vec::new(),
                entities: random_entities(&mut rng, 30),
                annotator: Annotator::default(),
            };
            let mut cache = TextCache::default();
            cache.sync(&input);
            let first = brute_force(&input);
            assert_eq!(cache.entity_presence, first, "seed {seed}: first sync");
            assert!(
                first.iter().flatten().any(|present| present.len() > 1),
                "seed {seed}: some sentence holds several entities"
            );

            // The dictionary and the corpus both grow; old docs see only the
            // appended tail, new docs the whole dictionary.
            let more = random_entities(&mut rng, 15);
            input.entities.extend(more);
            input.docs.extend(random_docs(&mut rng, 20, 10));
            cache.sync(&input);
            assert_eq!(cache.entity_presence, brute_force(&input), "seed {seed}: second sync");
            assert_eq!(cache.entities_seen, input.entities.len());

            // Nothing new: a sync is an identity.
            cache.sync(&input);
            assert_eq!(cache.entity_presence, brute_force(&input), "seed {seed}: idle sync");
        }
    }

    /// `find_entity` by definition: the first entity in dictionary order
    /// whose tokens `contains_seq` finds in the query.
    fn linear_scan(entities: &[Entity], query: &str) -> Option<usize> {
        let qt = giant_text::tokenize(query);
        entities
            .iter()
            .position(|(toks, _)| crate::util::contains_seq(&qt, toks).is_some())
    }

    #[test]
    fn indexed_entity_lookup_equals_the_linear_scan() {
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            // Shared first tokens, repeated surfaces, one entity longer
            // than any query and one with no tokens.
            let mut entities = random_entities(&mut rng, 30);
            let queries: Vec<String> = (0..60)
                .map(|_| {
                    let len = rng.random_range(0..7);
                    words(&mut rng, len).join(" ")
                })
                .collect();
            let mut memo = EntityLookupCache::default();
            let mut hits = 0;
            for round in 0..3 {
                let index = EntityIndex::new(&entities);
                for q in &queries {
                    let want = linear_scan(&entities, q);
                    hits += usize::from(want.is_some());
                    let qt = giant_text::tokenize(q);
                    assert_eq!(index.first_occurring(&qt, 0), want, "seed {seed}: {q:?}");
                    for from in [1, 7, 29, entities.len()] {
                        let tail = entities[from.min(entities.len())..]
                            .iter()
                            .position(|(t, _)| crate::util::contains_seq(&qt, t).is_some())
                            .map(|i| from + i);
                        let what = format!("seed {seed}: {q:?} from {from}");
                        assert_eq!(index.first_occurring(&qt, from), tail, "{what}");
                    }
                    // The memo answers the scan over the whole dictionary
                    // as it stands; a miss records how much it checked.
                    assert_eq!(memo.find(q, &index), want, "seed {seed} round {round}: {q:?}");
                    let (hit, checked) = memo.map[q.as_str()];
                    assert_eq!(hit, want.map(|i| i as u32), "seed {seed}: memo of {q:?}");
                    if hit.is_none() {
                        assert_eq!(checked, entities.len(), "seed {seed}: memo of {q:?}");
                    }
                }
                // The dictionary grows between runs.
                entities.extend(random_entities(&mut rng, 10));
            }
            assert!(hits > 0 && hits < 3 * queries.len(), "seed {seed}: hits and misses");
        }
    }
}
