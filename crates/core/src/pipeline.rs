//! The end-to-end GIANT pipeline: Algorithm 1 (attention mining) followed by
//! §3.2 (attention linking), producing the Attention Ontology.
//!
//! The pipeline is data-source agnostic: it consumes a [`PipelineInput`]
//! (click graph + documents + category tree + session streams + an entity
//! dictionary + an annotator) and two trained GCTSP-Net models. The `giant`
//! facade crate adapts `giant-data`'s synthetic world into this form.

use crate::annotations::{AnnotationTable, TextRefs};
use crate::cache::{
    CacheStats, EntityIndex, EntityLookupCache, MineEntry, MineFingerprint, MineOutcome,
    PipelineCaches, TextCache,
};
use crate::config::GiantConfig;
use crate::decode::decode_tokens;
use crate::derive::{common_pattern_discovery, common_suffix_discovery, CpdEvent};
use crate::gctsp::InferScratch;
use crate::link::{
    category_links, concept_entity_features, ConceptEntityClassifier, CorrelateConfig,
    CorrelateModel,
};
use crate::normalize::Normalizer;
use crate::qtig::QtigInput;

use crate::train::GiantModels;
use giant_graph::plan::{plan_clusters_cached, plan_clusters_parallel, ClusterWorkItem};
use giant_graph::{ClickGraph, DocId, QueryId};
use giant_nn::GbdtConfig;
use giant_ontology::{EventRole, NodeId, NodeKind, Ontology, Phrase};
use giant_text::{Annotator, NerTag, PosTag};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};

/// One document, pipeline view.
#[derive(Debug, Clone)]
pub struct DocRecord {
    /// Dense id matching the click graph's [`DocId`].
    pub id: usize,
    /// Title text.
    pub title: String,
    /// Body sentences.
    pub sentences: Vec<String>,
    /// Leaf category id (ancestors come from the category table).
    pub leaf_category: usize,
    /// Publication day.
    pub day: u32,
}

/// One category-tree node, pipeline view.
#[derive(Debug, Clone)]
pub struct CategoryRecord {
    /// Dense id.
    pub id: usize,
    /// Name tokens.
    pub tokens: Vec<String>,
    /// Tree level (1–3).
    pub level: u8,
    /// Parent id.
    pub parent: Option<usize>,
}

/// Everything the pipeline consumes.
#[derive(Debug)]
pub struct PipelineInput {
    /// The bipartite search click graph.
    pub click_graph: ClickGraph,
    /// Documents, indexed by click-graph doc id.
    pub docs: Vec<DocRecord>,
    /// The pre-defined category tree (paper: 1,206 categories, 3 levels).
    pub categories: Vec<CategoryRecord>,
    /// Consecutive-query session streams.
    pub sessions: Vec<Vec<String>>,
    /// Entity dictionary: known entity surfaces with NER tags (stands in for
    /// the pre-existing entity base every production taxonomy starts from).
    pub entities: Vec<(Vec<String>, NerTag)>,
    /// The NLP annotator.
    pub annotator: Annotator,
}

/// A mined attention node with its mining metadata.
#[derive(Debug, Clone)]
pub struct MinedAttention {
    /// Ontology node id.
    pub node: NodeId,
    /// Node kind (Concept/Event/Topic).
    pub kind: NodeKind,
    /// Phrase tokens.
    pub tokens: Vec<String>,
    /// Recognised trigger (events).
    pub trigger: Option<String>,
    /// Involved entity nodes (events).
    pub entities: Vec<NodeId>,
    /// Recognised location tokens (events).
    pub location: Option<Vec<String>>,
    /// Earliest clicked-document day (events).
    pub day: Option<u32>,
    /// Accumulated click support.
    pub support: f64,
    /// The queries whose clusters produced this phrase.
    pub source_queries: Vec<String>,
    /// Top clicked titles (context-enriched representation).
    pub top_titles: Vec<String>,
    /// Clicked doc ids (category voting).
    pub clicked_docs: Vec<usize>,
}

/// Wall-clock spent per pipeline stage, in execution order. Purely
/// diagnostic — never part of the determinism contract (two identical runs
/// produce identical ontologies and *different* timings).
///
/// Since the `giant-obs` integration (DESIGN.md §13) every entry is fed
/// from a [`giant_obs::span()`] guard — one clock serves both this compat
/// structure and the observability layer (span ring, `span.*`
/// histograms, folded-stacks profile) when obs is armed.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    entries: Vec<(&'static str, f64)>,
}

impl StageTimings {
    /// Records `secs` against `stage` (accumulates on repeated names).
    pub fn record(&mut self, stage: &'static str, secs: f64) {
        match self.entries.iter_mut().find(|(n, _)| *n == stage) {
            Some((_, s)) => *s += secs,
            None => self.entries.push((stage, secs)),
        }
    }

    /// Seconds recorded for `stage`, if any.
    pub fn get(&self, stage: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _)| *n == stage).map(|(_, s)| *s)
    }

    /// All `(stage, secs)` rows in execution order.
    pub fn entries(&self) -> &[(&'static str, f64)] {
        &self.entries
    }

    /// Total recorded seconds.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, s)| s).sum()
    }
}

/// The pipeline's product.
#[derive(Debug)]
pub struct GiantOutput {
    /// The constructed Attention Ontology.
    pub ontology: Ontology,
    /// Mined attentions with metadata, in creation order.
    pub mined: Vec<MinedAttention>,
    /// Category id → ontology node.
    pub category_nodes: HashMap<usize, NodeId>,
    /// Entity surface → ontology node.
    pub entity_nodes: HashMap<String, NodeId>,
    /// Diagnostics: edges rejected (would have closed an isA cycle).
    pub rejected_edges: usize,
    /// Diagnostics: alias registrations that lost a surface collision
    /// (first registration wins; see `AliasOutcome::Conflict`).
    pub alias_conflicts: usize,
    /// Diagnostics: per-stage wall clock of this run.
    pub timings: StageTimings,
    /// Diagnostics: cache effectiveness of this run (all-miss for the
    /// uncached [`run_pipeline`]).
    pub cache_stats: CacheStats,
}

impl GiantOutput {
    /// Mined attentions of one kind.
    pub fn mined_of_kind(&self, kind: NodeKind) -> Vec<&MinedAttention> {
        self.mined.iter().filter(|m| m.kind == kind).collect()
    }
}

/// Runs the full pipeline.
pub fn run_pipeline(input: &PipelineInput, models: &GiantModels, cfg: &GiantConfig) -> GiantOutput {
    run_impl(input, models, cfg, None)
}

/// [`run_pipeline`] reusing (and refilling) cross-run [`PipelineCaches`].
///
/// The output is **byte-identical** to an uncached [`run_pipeline`] over
/// the same input provided the cache validity contract holds: the caches
/// were only ever filled by runs over ancestors of this input (documents
/// and queries append-only, texts immutable) and
/// [`PipelineCaches::invalidate`] was called with every batch of
/// click-graph edits since the previous run. `giant-incr` owns that
/// bookkeeping; calling this directly with hand-managed caches is possible
/// but easy to get wrong.
pub fn run_pipeline_cached(
    input: &PipelineInput,
    models: &GiantModels,
    cfg: &GiantConfig,
    caches: &mut PipelineCaches,
) -> GiantOutput {
    run_impl(input, models, cfg, Some(caches))
}

fn run_impl(
    input: &PipelineInput,
    models: &GiantModels,
    cfg: &GiantConfig,
    caches: Option<&mut PipelineCaches>,
) -> GiantOutput {
    // Root span for the whole build: armed runs see stage spans nest as
    // `pipeline;mine.execute` etc. in the ring and the profile.
    let pipeline_span = giant_obs::span("pipeline");
    let mut out = GiantOutput {
        ontology: Ontology::new(),
        mined: Vec::new(),
        category_nodes: HashMap::new(),
        entity_nodes: HashMap::new(),
        rejected_edges: 0,
        alias_conflicts: 0,
        timings: StageTimings::default(),
        cache_stats: CacheStats::default(),
    };
    let mut timings = StageTimings::default();
    // Split the cache struct into independently borrowed parts; the
    // uncached path builds a throwaway text cache (same derivations a
    // fresh whole-corpus pass produces — `TextCache::sync` from empty *is*
    // that pass).
    let mut local_text = TextCache::default();
    type RoleMap = HashMap<String, Vec<EventRole>>;
    type MineCaches<'a> =
        Option<(&'a mut giant_graph::plan::PlanCache, &'a mut HashMap<u32, MineEntry>)>;
    let (mine_caches, text, roles, lookup): (
        MineCaches<'_>,
        &TextCache,
        Option<&mut RoleMap>,
        Option<&mut EntityLookupCache>,
    ) = match caches {
        Some(c) => {
            timed(&mut timings, "text_sync", || c.text.sync(input));
            (
                Some((&mut c.plan, &mut c.mine)),
                &c.text,
                Some(&mut c.roles),
                Some(&mut c.entity_lookup),
            )
        }
        None => {
            timed(&mut timings, "text_sync", || local_text.sync(input));
            (None, &local_text, None, None)
        }
    };
    timed(&mut timings, "register_categories", || register_categories(input, &mut out));
    timed(&mut timings, "register_entities", || register_entities(input, &mut out));
    let (annotations, refs) =
        mine_attentions(input, models, cfg, &mut out, mine_caches, text, &mut timings);
    timed(&mut timings, "event_elements", || {
        recognize_event_elements(input, models, cfg, &mut out, roles, annotations, &refs)
    });
    timed(&mut timings, "link_categories", || link_categories(input, cfg, &mut out));
    timed(&mut timings, "link_concept_entities", || {
        link_concept_entities(input, cfg, &mut out, text, lookup)
    });
    timed(&mut timings, "derive_concepts", || derive_parent_concepts(input, cfg, &mut out));
    timed(&mut timings, "derive_topics", || derive_topics(input, cfg, &mut out));
    timed(&mut timings, "link_correlates", || link_correlates(input, cfg, &mut out, text));
    out.timings = timings;
    drop(pipeline_span);
    out
}

/// Runs `f` inside an obs span named `name`, recording the span's wall
/// clock against `name` in `timings` — compat field and obs share the
/// same measurement.
fn timed<R>(timings: &mut StageTimings, name: &'static str, f: impl FnOnce() -> R) -> R {
    let span = giant_obs::span(name);
    let r = f();
    timings.record(name, span.finish_secs());
    r
}

fn register_categories(input: &PipelineInput, out: &mut GiantOutput) {
    for c in &input.categories {
        let node = out.ontology.add_node(
            NodeKind::Category,
            Phrase::new(c.tokens.iter().cloned()),
            0.0,
        );
        out.category_nodes.insert(c.id, node);
    }
    for c in &input.categories {
        if let Some(p) = c.parent {
            let parent = out.category_nodes[&p];
            let child = out.category_nodes[&c.id];
            if out.ontology.add_is_a(parent, child, 1.0).is_err() {
                out.rejected_edges += 1;
            }
        }
    }
}

/// Registers the entity dictionary. `entity_nodes` is keyed by the joined
/// surface, so duplicate surfaces in `input.entities` are collapsed
/// **explicitly**: the first occurrence creates the node and every later
/// duplicate maps to it. (The previous behaviour created a fresh ontology
/// node per occurrence and let the `HashMap` insert silently orphan all
/// but the last one — an ordering hazard the duplicate-surface test below
/// pins down.)
fn register_entities(input: &PipelineInput, out: &mut GiantOutput) {
    for (tokens, _ner) in &input.entities {
        let surface = tokens.join(" ");
        if out.entity_nodes.contains_key(&surface) {
            continue;
        }
        let node = out
            .ontology
            .add_node(NodeKind::Entity, Phrase::new(tokens.iter().cloned()), 0.0);
        out.entity_nodes.insert(surface, node);
    }
}

/// All category ids of a doc: its leaf plus every ancestor.
fn doc_category_chain(input: &PipelineInput, leaf: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(3);
    let mut cur = Some(leaf);
    while let Some(c) = cur {
        out.push(c);
        cur = input.categories.get(c).and_then(|r| r.parent);
    }
    out
}

/// The execute phase's per-cluster product: one decoded attention phrase
/// candidate with the metadata the merge phase needs.
#[derive(Debug, Clone)]
pub(crate) struct ClusterCandidate {
    /// Decoded phrase tokens.
    pub(crate) tokens: Vec<String>,
    /// True when the phrase contains a verb (event, not concept).
    pub(crate) is_event: bool,
    /// Click support of the seed query.
    pub(crate) support: f64,
    /// All cluster query texts (QTIG inputs, seed first).
    pub(crate) queries: Vec<String>,
    /// Top clicked titles (context-enriched representation).
    pub(crate) top_titles: Vec<String>,
    /// Clicked doc ids.
    pub(crate) clicked: Vec<usize>,
    /// Earliest clicked-document day.
    pub(crate) day: Option<u32>,
    /// Context-enriched representation (phrase tokens + tokenized top
    /// titles), bit-equal to `Normalizer::context_repr` on the same inputs.
    /// Empty as [`mine_cluster_raw`] returns it: the merge builds it from
    /// the annotation table, so nothing is tokenized twice, and the mine
    /// cache stores it.
    pub(crate) context: Vec<String>,
}

/// The ids of the documents `item` clicked that exist, in cluster order:
/// the documents whose titles mining reads.
fn titled_docs<'a>(
    input: &'a PipelineInput,
    item: &'a ClusterWorkItem,
) -> impl Iterator<Item = u32> + 'a {
    item.cluster
        .docs
        .iter()
        .map(|(d, _)| d.0)
        .filter(|&d| (d as usize) < input.docs.len())
}

/// The expensive, **pure** per-cluster work of Algorithm 1: QTIG build,
/// GCTSP inference and ATSP decode for one planned work item, minus the
/// entity filter (re-applied per run by [`MineOutcome::resolve`], because
/// the entity dictionary may grow between incremental runs without
/// touching the cluster). No shared mutable state — safe to run on any
/// worker thread in any order, and safe to memoize under the
/// [`MineFingerprint`] contract. `table` must hold the item's texts.
fn mine_cluster_raw(
    input: &PipelineInput,
    models: &GiantModels,
    table: &AnnotationTable,
    scratch: &mut InferScratch,
    item: &ClusterWorkItem,
) -> MineOutcome {
    let stopwords = &input.annotator.stopwords;
    let docs: Vec<u32> = titled_docs(input, item).collect();
    if docs.is_empty() {
        return MineOutcome::Dead;
    }
    let query_ids: Vec<u32> = item.cluster.queries.iter().map(|(q, _)| q.0).collect();
    let qtig = table.qtig(&query_ids, &docs);
    let positives = models.phrase_model.predict_positive_nodes_with(scratch, &qtig);
    let tokens = decode_tokens(&qtig, &positives);
    if tokens.is_empty() || tokens.iter().all(|t| stopwords.is_stop(t)) {
        return MineOutcome::Dead;
    }
    let surface = tokens.join(" ");
    let is_event = tokens
        .iter()
        .any(|t| input.annotator.lexicon.tag(t) == PosTag::Verb);
    let support = input.click_graph.query_clicks(item.seed);
    let clicked: Vec<usize> = item.cluster.docs.iter().map(|(d, _)| d.index()).collect();
    let top_titles: Vec<String> = docs[..docs.len().min(TOP_TITLES)]
        .iter()
        .map(|&d| input.docs[d as usize].title.clone())
        .collect();
    let day = clicked
        .iter()
        .filter_map(|&d| input.docs.get(d).map(|doc| doc.day))
        .min();
    let queries: Vec<String> = query_ids
        .iter()
        .map(|&q| input.click_graph.query_text(QueryId(q)).to_owned())
        .collect();
    MineOutcome::Decoded {
        surface,
        cand: ClusterCandidate {
            tokens,
            is_event,
            support,
            queries,
            top_titles,
            clicked,
            day,
            // Filled by the merge (see `merge_context`).
            context: Vec::new(),
        },
    }
}

/// The context-enriched representation of a candidate decoded from
/// `item`: its phrase tokens, then the tokens of its top titles — the
/// tokenization the annotation table holds, bit-equal to
/// `Normalizer::context_repr`. Built by the merge on the calling thread,
/// not by the workers: a context is a few dozen small strings, and built
/// on the workers every candidate's would be alive at once, spread over
/// the workers' heaps, until the merge consumed them.
fn merge_context(
    input: &PipelineInput,
    table: &AnnotationTable,
    item: &ClusterWorkItem,
    tokens: &[String],
) -> Vec<String> {
    let titles: Vec<_> = titled_docs(input, item)
        .take(TOP_TITLES)
        .map(|d| table.title(d))
        .collect();
    let mut context =
        Vec::with_capacity(tokens.len() + titles.iter().map(|t| t.n_tokens()).sum::<usize>());
    context.extend(tokens.iter().cloned());
    context.extend(titles.iter().flat_map(|t| t.token_texts().map(str::to_owned)));
    context
}

/// Titles kept per candidate (the context-enriched representation).
const TOP_TITLES: usize = 5;

/// What the execute phase does with one planned item.
enum Step<'c> {
    /// Reuse the mine cache's outcome, which is still fresh.
    Reuse(&'c MineOutcome),
    /// Mine the cluster, and with a mine cache file the outcome under
    /// this fingerprint.
    Mine(Option<MineFingerprint>),
}

/// Phase 1: Algorithm 1 as plan → execute → merge.
///
/// * **Plan**: [`plan_clusters_parallel`] partitions the query space into
///   disjoint [`ClusterWorkItem`]s, reproducing the old covered-set
///   loop's seed selection exactly. The extraction walks are speculated
///   across workers; the acceptance pass stays sequential.
/// * **Execute** (parallel): the distinct texts of the clusters to mine are
///   annotated once into an [`AnnotationTable`]; then [`mine_cluster_raw`]
///   runs QTIG build + GCTSP inference + decode per item on `cfg.threads`
///   scoped workers, each with its own [`InferScratch`]; `giant-exec`
///   returns candidates **in plan order** regardless of thread count or
///   scheduling.
/// * **Merge** (sequential, deterministic): candidates feed the
///   [`Normalizer`]s in plan order — the same order the interleaved loop
///   used — so the resulting ontology is byte-identical at every thread
///   count (see `tests/golden_snapshot.rs` and `tests/determinism.rs`).
///
/// Returns the annotation table and, aligned with `out.mined`, the ids of
/// the texts each mined attention's role inference reads.
fn mine_attentions(
    input: &PipelineInput,
    models: &GiantModels,
    cfg: &GiantConfig,
    out: &mut GiantOutput,
    caches: Option<(&mut giant_graph::plan::PlanCache, &mut HashMap<u32, MineEntry>)>,
    text: &TextCache,
    timings: &mut StageTimings,
) -> (AnnotationTable, Vec<TextRefs>) {
    let stopwords = &input.annotator.stopwords;
    // TF-IDF over titles (shared text cache) for normalization contexts.
    let mut concept_norm = Normalizer::new(&text.tfidf, stopwords.clone(), cfg.delta_m);
    let mut event_norm = Normalizer::new(&text.tfidf, stopwords.clone(), cfg.delta_m);
    // Group metadata keyed by (is_event, group index).
    #[derive(Default, Clone)]
    struct GroupMeta {
        queries: Vec<String>,
        titles: Vec<String>,
        refs: TextRefs,
        docs: Vec<usize>,
        day: Option<u32>,
    }
    let mut concept_meta: Vec<GroupMeta> = Vec::new();
    let mut event_meta: Vec<GroupMeta> = Vec::new();

    let entity_surfaces: HashSet<String> = out.entity_nodes.keys().cloned().collect();

    // Plan. The extraction walks inside planning are themselves the
    // costliest part of mining, so the planner speculates batches of them
    // across the same worker budget (see `plan_clusters_parallel`). With
    // caches, seeds whose walk footprint survived invalidation skip the
    // walk (`plan_clusters_cached`) — reproducing the uncached bytes
    // exactly (see `crate::cache`).
    let (mut plan_cache, mine_cache) = caches.unzip();
    let span = giant_obs::span("mine.plan");
    let plan = match plan_cache.as_deref_mut() {
        Some(pc) => plan_clusters_cached(
            &input.click_graph,
            stopwords,
            &cfg.cluster,
            cfg.threads,
            pc,
        ),
        None => plan_clusters_parallel(&input.click_graph, stopwords, &cfg.cluster, cfg.threads),
    };
    timings.record("mine.plan", span.finish_secs());

    // Execute. Per item, whether to mine it or to reuse the mine cache's
    // outcome: a lookup and two short vectors an item, on this thread.
    let span = giant_obs::span("mine.execute");
    let steps: Vec<Step<'_>> = match mine_cache.as_deref() {
        None => plan.items.iter().map(|_| Step::Mine(None)).collect(),
        Some(mine) => plan
            .items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let entry = mine.get(&item.seed.0);
                if plan.reused.get(i).copied().unwrap_or(false) {
                    // The planner certifies this cluster unchanged since the
                    // seed's last fold as an item, and the mine entry is
                    // rewritten on every mismatch — so a plan-reused item's
                    // entry is fresh without re-fingerprinting (see
                    // `ClusterPlan::reused`).
                    if let Some(e) = entry {
                        return Step::Reuse(&e.outcome);
                    }
                }
                let fp = MineFingerprint::of(item, &input.click_graph);
                match entry {
                    // Hit: the memoized outcome is what mining would
                    // decode; only the entity filter may have changed
                    // since, so it is re-applied at the merge.
                    Some(e) if e.fp == fp => Step::Reuse(&e.outcome),
                    _ => Step::Mine(Some(fp)),
                }
            })
            .collect(),
    };
    let to_mine: Vec<&ClusterWorkItem> = plan
        .items
        .iter()
        .zip(&steps)
        .filter(|(_, step)| matches!(step, Step::Mine(_)))
        .map(|(item, _)| item)
        .collect();
    // One annotation per distinct text the clusters to mine read (a
    // cluster without a titled doc reads none).
    let mut table = AnnotationTable::default();
    let read: Vec<&ClusterWorkItem> = to_mine
        .iter()
        .copied()
        .filter(|item| titled_docs(input, item).next().is_some())
        .collect();
    table.extend(
        input,
        cfg.threads,
        read.iter()
            .flat_map(|it| it.cluster.queries.iter().map(|(q, _)| q.0)),
        read.iter().flat_map(|it| titled_docs(input, it)),
    );
    let fresh: Vec<MineOutcome> = giant_exec::run_ordered_scratch(
        &to_mine,
        cfg.threads,
        InferScratch::default,
        |scratch, _, item| mine_cluster_raw(input, models, &table, scratch, item),
    );
    let mut stats = CacheStats::default();
    match plan_cache {
        Some(pc) => (stats.plan_reused, stats.plan_walked) = (pc.reused, pc.walked),
        None => stats.plan_walked = plan.items.len(),
    }
    stats.clusters_mined = fresh.len();
    stats.clusters_reused = plan.items.len() - fresh.len();
    out.cache_stats = stats;
    timings.record("mine.execute", span.finish_secs());

    // Merge, in plan order. Fresh outcomes get their merge context here
    // and, with a mine cache, are filed there, context included, after the
    // loop. The entity filter applies here, to reused outcomes too: the
    // dictionary may have grown since they were memoized.
    let merge_span = giant_obs::span("mine.merge");
    let mut fresh = fresh.into_iter();
    let mut filed = Vec::new();
    for (item, step) in plan.items.iter().zip(steps) {
        let outcome = match step {
            Step::Reuse(outcome) => outcome.clone(),
            Step::Mine(fp) => {
                let mut outcome = fresh.next().expect("every item to mine is mined");
                if let MineOutcome::Decoded { cand, .. } = &mut outcome {
                    cand.context = merge_context(input, &table, item, &cand.tokens);
                }
                if let Some(fp) = fp {
                    let entry = MineEntry {
                        fp,
                        outcome: outcome.clone(),
                    };
                    filed.push((item.seed.0, entry));
                }
                outcome
            }
        };
        let Some(cand) = outcome.resolve(&entity_surfaces) else {
            continue;
        };
        let (norm, meta) = if cand.is_event {
            (&mut event_norm, &mut event_meta)
        } else {
            (&mut concept_norm, &mut concept_meta)
        };
        let gi = norm.merge_or_insert_with_context(cand.tokens, cand.context, cand.support);
        if gi == meta.len() {
            meta.push(GroupMeta::default());
        }
        let m = &mut meta[gi];
        m.queries.extend(cand.queries);
        m.titles = cand.top_titles;
        if cand.is_event {
            // The ids behind the texts just merged, for role inference: a
            // candidate's queries are its cluster's, and its top titles
            // those of the first titled docs (a reused candidate's cluster
            // has the same ids — its fingerprint says so).
            m.refs
                .queries
                .extend(item.cluster.queries.iter().map(|(q, _)| q.0));
            m.refs.top_docs = titled_docs(input, item).take(TOP_TITLES).collect();
        }
        m.docs.extend(cand.clicked);
        m.day = match (m.day, cand.day) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
    if let Some(mine) = mine_cache {
        mine.extend(filed);
    }

    // Materialise ontology nodes from the normalized groups.
    let mut refs = Vec::new();
    for (norm, meta, kind) in [
        (concept_norm, concept_meta, NodeKind::Concept),
        (event_norm, event_meta, NodeKind::Event),
    ] {
        for (g, m) in norm.into_groups().into_iter().zip(meta) {
            let phrase = Phrase::new(g.tokens.iter().cloned());
            let node = if kind == NodeKind::Event {
                out.ontology
                    .add_event(phrase, g.support, m.day.unwrap_or(0))
            } else {
                out.ontology.add_node(kind, phrase, g.support)
            };
            for v in &g.variants {
                if let giant_ontology::AliasOutcome::Conflict { .. } =
                    out.ontology.add_alias(node, Phrase::new(v.iter().cloned()))
                {
                    out.alias_conflicts += 1;
                }
            }
            out.mined.push(MinedAttention {
                node,
                kind,
                tokens: g.tokens,
                trigger: None,
                entities: Vec::new(),
                location: None,
                day: m.day,
                support: g.support,
                source_queries: m.queries,
                top_titles: m.titles,
                clicked_docs: m.docs,
            });
            refs.push(m.refs);
        }
    }
    timings.record("mine.merge", merge_span.finish_secs());
    (table, refs)
}

/// Phase 2a: 4-class GCTSP over event clusters → trigger/entity/location +
/// involve edges (§3.2 "Edges between Attentions and Entities").
///
/// The expensive step — QTIG build + role inference per event — is a pure
/// function of `(source_queries, top_titles, tokens)`, so it runs first, for
/// all events at once, on `cfg.threads` workers; with a cache the per-token
/// roles are memoized under exactly that key and only the misses are
/// inferred. The span matching and node creation below stay sequential
/// (they read and grow the shared entity map in mining order). The QTIGs
/// are built from the run's annotation `table`, over the texts `refs`
/// names (aligned with `out.mined`); the table is dropped on return.
fn recognize_event_elements(
    input: &PipelineInput,
    models: &GiantModels,
    cfg: &GiantConfig,
    out: &mut GiantOutput,
    roles_cache: Option<&mut HashMap<String, Vec<EventRole>>>,
    mut table: AnnotationTable,
    refs: &[TextRefs],
) {
    let events: Vec<usize> = (0..out.mined.len())
        .filter(|&mi| out.mined[mi].kind == NodeKind::Event)
        .collect();
    // Per-position roles; a token string always maps to one QTIG node, so
    // this equals the historical per-string lookup.
    let infer = |table: &AnnotationTable, scratch: &mut InferScratch, mi: usize| {
        let (m, r) = (&out.mined[mi], &refs[mi]);
        debug_assert!(r
            .queries
            .iter()
            .map(|&q| input.click_graph.query_text(QueryId(q)))
            .eq(m.source_queries.iter().map(String::as_str)));
        debug_assert!(r
            .top_docs
            .iter()
            .map(|&d| &input.docs[d as usize].title)
            .eq(&m.top_titles));
        let qtig = table.qtig(&r.queries, &r.top_docs);
        let classes = models.role_model.predict_classes_with(scratch, &qtig);
        m.tokens
            .iter()
            .map(|t| {
                qtig.node_id(t)
                    .map(|i| EventRole::from_index(classes[i]))
                    .unwrap_or(EventRole::Other)
            })
            .collect()
    };
    // The QTIGs come from the mining-time annotations; only texts of
    // clusters that were not mined in this run (a cached run's reused
    // ones) are annotated here.
    let mut infer_all = |which: &[usize]| -> Vec<Vec<EventRole>> {
        table.extend(
            input,
            cfg.threads,
            which.iter().flat_map(|&mi| refs[mi].queries.iter().copied()),
            which.iter().flat_map(|&mi| refs[mi].top_docs.iter().copied()),
        );
        let table = &table;
        giant_exec::run_ordered_scratch(which, cfg.threads, InferScratch::default, |s, _, &mi| {
            infer(table, s, mi)
        })
    };
    let event_roles: Vec<Vec<EventRole>> = match roles_cache {
        Some(cache) => {
            let keys: Vec<String> = events
                .iter()
                .map(|&mi| {
                    let m = &out.mined[mi];
                    role_cache_key(&m.source_queries, &m.top_titles, &m.tokens)
                })
                .collect();
            // One inference per distinct missing key.
            let mut missing: HashSet<&str> = HashSet::new();
            let misses: Vec<usize> = (0..events.len())
                .filter(|&e| !cache.contains_key(&keys[e]) && missing.insert(&keys[e]))
                .collect();
            let which: Vec<usize> = misses.iter().map(|&e| events[e]).collect();
            for (&e, roles) in misses.iter().zip(infer_all(&which)) {
                cache.insert(keys[e].clone(), roles);
            }
            keys.iter().map(|k| cache[k].clone()).collect()
        }
        None => infer_all(&events),
    };
    for (mi, roles) in events.into_iter().zip(event_roles) {
        let tokens = out.mined[mi].tokens.clone();
        // Trigger: first trigger-class token of the phrase.
        let trigger = tokens
            .iter()
            .zip(&roles)
            .find(|(_, r)| **r == EventRole::Trigger)
            .map(|(t, _)| t.clone());
        // Location: contiguous location-class tokens.
        let loc_tokens: Vec<String> = tokens
            .iter()
            .zip(&roles)
            .filter(|(_, r)| **r == EventRole::Location)
            .map(|(t, _)| t.clone())
            .collect();
        // Entities: match contiguous entity-class spans against the
        // dictionary (longest match first).
        let mut entity_nodes = Vec::new();
        let flags: Vec<bool> = roles.iter().map(|r| *r == EventRole::Entity).collect();
        let mut i = 0;
        while i < tokens.len() {
            if !flags[i] {
                i += 1;
                continue;
            }
            let mut j = i;
            while j + 1 < tokens.len() && flags[j + 1] {
                j += 1;
            }
            // Longest dictionary match inside [i, j].
            let mut matched = false;
            for end in (i..=j).rev() {
                let surface = tokens[i..=end].join(" ");
                if let Some(&node) = out.entity_nodes.get(&surface) {
                    entity_nodes.push(node);
                    i = end + 1;
                    matched = true;
                    break;
                }
            }
            if !matched {
                // Unknown entity: create a node (the ontology grows).
                let surface = tokens[i..=j].join(" ");
                let node = out.ontology.add_node(
                    NodeKind::Entity,
                    Phrase::new(tokens[i..=j].iter().cloned()),
                    0.0,
                );
                out.entity_nodes.insert(surface, node);
                entity_nodes.push(node);
                i = j + 1;
            }
        }
        let event_node = out.mined[mi].node;
        for &e in &entity_nodes {
            if out.ontology.add_involve(event_node, e, 1.0).is_err() {
                out.rejected_edges += 1;
            }
        }
        let m = &mut out.mined[mi];
        m.trigger = trigger;
        m.entities = entity_nodes;
        m.location = if loc_tokens.is_empty() {
            None
        } else {
            Some(loc_tokens)
        };
    }
}

/// The exact inputs of one event's role inference, as a cache key.
fn role_cache_key(queries: &[String], titles: &[String], tokens: &[String]) -> String {
    let mut key = String::new();
    for section in [queries, titles, tokens] {
        for s in section {
            key.push_str(s);
            key.push('\u{1f}');
        }
        key.push('\u{1e}');
    }
    key
}

/// Phase 2b: attention ↔ category edges via `P(g|p) > δ_g`.
fn link_categories(input: &PipelineInput, cfg: &GiantConfig, out: &mut GiantOutput) {
    for mi in 0..out.mined.len() {
        let chains: Vec<Vec<usize>> = out.mined[mi]
            .clicked_docs
            .iter()
            .filter_map(|&d| input.docs.get(d))
            .map(|doc| doc_category_chain(input, doc.leaf_category))
            .collect();
        let node = out.mined[mi].node;
        for (cat, p) in category_links(&chains, cfg.delta_g) {
            if let Some(&cat_node) = out.category_nodes.get(&cat) {
                if out.ontology.add_is_a(cat_node, node, p).is_err() {
                    out.rejected_edges += 1;
                }
            }
        }
    }
}

/// Phase 2c: concept ↔ entity isA edges via the GBDT classifier, trained on
/// the automatically constructed dataset of Figure 4. Tokenized doc views
/// come from the shared [`TextCache`]; the per-query entity containment
/// scan is memoized across runs when a lookup cache is supplied.
fn link_concept_entities(
    input: &PipelineInput,
    cfg: &GiantConfig,
    out: &mut GiantOutput,
    text: &TextCache,
    mut lookup: Option<&mut EntityLookupCache>,
) {
    // Resolve query text → mined concept index / dictionary entity surface.
    let mut query_to_concept: HashMap<&str, usize> = HashMap::new();
    for (mi, m) in out.mined.iter().enumerate() {
        if m.kind == NodeKind::Concept {
            for q in &m.source_queries {
                query_to_concept.insert(q.as_str(), mi);
            }
        }
    }
    let entity_list: Vec<(Vec<String>, String)> = input
        .entities
        .iter()
        .map(|(t, _)| (t.clone(), t.join(" ")))
        .collect();
    let index = EntityIndex::new(&input.entities);
    let mut find_entity = |query: &str| -> Option<usize> {
        match lookup.as_deref_mut() {
            Some(c) => c.find(query, &index),
            None => index.first_occurring(&giant_text::tokenize(query), 0),
        }
    };

    // Session pair counts: (concept idx, entity idx) → count.
    let mut session_counts: HashMap<(usize, usize), f64> = HashMap::new();
    for s in &input.sessions {
        for w in s.windows(2) {
            let (Some(&c), Some(e)) = (query_to_concept.get(w[0].as_str()), find_entity(&w[1]))
            else {
                continue;
            };
            *session_counts.entry((c, e)).or_insert(0.0) += 1.0;
        }
    }

    // Tokenized doc bodies (shared text cache).
    let doc_sentences = &text.sentences;
    let doc_titles = &text.titles;

    // Positives: session pair + entity mentioned in a doc clicked from the
    // concept's queries. Negatives: same-domain entity randomly inserted.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e55);
    let mut examples: Vec<(Vec<f64>, bool)> = Vec::new();
    let mut candidates: Vec<(usize, usize, Vec<f64>)> = Vec::new();
    let mut keys: Vec<(usize, usize)> = session_counts.keys().copied().collect();
    keys.sort_unstable();
    for (ci, ei) in keys {
        let m = &out.mined[ci];
        let (etoks, _) = &entity_list[ei];
        // Find a clicked doc mentioning the entity (the presence index
        // answers "does any sentence of d contain entity ei" exactly).
        let ei_key = ei as u32;
        let Some(&doc) = m.clicked_docs.iter().find(|&&d| {
            text.entity_presence
                .get(d)
                .map(|rows| rows.iter().any(|row| row.binary_search(&ei_key).is_ok()))
                .unwrap_or(false)
        }) else {
            continue;
        };
        let feats = concept_entity_features(
            &m.tokens,
            etoks,
            &doc_titles[doc],
            &doc_sentences[doc],
            session_counts[&(ci, ei)],
        );
        examples.push((feats.clone(), true));
        candidates.push((ci, ei, feats));
        // Negative: another entity, inserted at a random position.
        let neg = rng.random_range(0..entity_list.len());
        if neg != ei && !session_counts.contains_key(&(ci, neg)) {
            let (ntoks, _) = &entity_list[neg];
            let mut sents = doc_sentences[doc].clone();
            if !sents.is_empty() {
                let si = rng.random_range(0..sents.len());
                let pos = rng.random_range(0..=sents[si].len());
                for (k, t) in ntoks.iter().enumerate() {
                    sents[si].insert(pos + k, t.clone());
                }
            }
            let feats =
                concept_entity_features(&m.tokens, ntoks, &doc_titles[doc], &sents, 0.0);
            examples.push((feats, false));
        }
    }
    if examples.iter().filter(|(_, y)| *y).count() < 2
        || examples.iter().filter(|(_, y)| !*y).count() < 2
    {
        return; // not enough signal to train a classifier
    }
    let clf = ConceptEntityClassifier::train(
        &examples,
        GbdtConfig {
            n_trees: 30,
            ..GbdtConfig::default()
        },
    );
    for (ci, ei, feats) in candidates {
        if clf.predict(&feats) {
            let concept_node = out.mined[ci].node;
            let entity_node = out.entity_nodes[&entity_list[ei].1];
            if out.ontology.add_is_a(concept_node, entity_node, clf.predict_proba(&feats)).is_err()
            {
                out.rejected_edges += 1;
            }
        }
    }
}

/// Phase 2d: Common Suffix Discovery → parent concepts (§3.1 derivation +
/// §3.2 "link two concepts by isA if one is the suffix of another").
fn derive_parent_concepts(input: &PipelineInput, cfg: &GiantConfig, out: &mut GiantOutput) {
    let concept_idx: Vec<usize> = out
        .mined
        .iter()
        .enumerate()
        .filter(|(_, m)| m.kind == NodeKind::Concept)
        .map(|(i, _)| i)
        .collect();
    let phrases: Vec<Vec<String>> = concept_idx
        .iter()
        .map(|&i| out.mined[i].tokens.clone())
        .collect();
    let derived = common_suffix_discovery(
        &phrases,
        &input.annotator.lexicon,
        &input.annotator.stopwords,
        cfg.csd_min_children,
    );
    for d in derived {
        let support: f64 = d
            .children
            .iter()
            .map(|&c| out.mined[concept_idx[c]].support)
            .sum();
        let parent =
            out.ontology
                .add_node(NodeKind::Concept, Phrase::new(d.tokens.iter().cloned()), support);
        for &c in &d.children {
            let child = out.mined[concept_idx[c]].node;
            if parent == child {
                continue;
            }
            if out.ontology.add_is_a(parent, child, 1.0).is_err() {
                out.rejected_edges += 1;
            }
        }
    }
}

/// Phase 2e: Common Pattern Discovery → topics, plus topic edges
/// (topic --isA--> event members; topic --involve--> contained concept).
fn derive_topics(input: &PipelineInput, cfg: &GiantConfig, out: &mut GiantOutput) {
    let mut cpd_events = Vec::new();
    for m in out.mined.iter().filter(|m| m.kind == NodeKind::Event) {
        // Use the first involved entity's span within the phrase.
        let Some(&entity) = m.entities.first() else {
            continue;
        };
        let etoks = &out.ontology.node(entity).phrase.tokens;
        let Some(start) = crate::util::contains_seq(&m.tokens, etoks) else {
            continue;
        };
        cpd_events.push(CpdEvent {
            node: m.node,
            tokens: m.tokens.clone(),
            entity_span: (start, start + etoks.len()),
            entity,
            support: m.support,
        });
    }
    let topics = common_pattern_discovery(
        &cpd_events,
        &out.ontology,
        cfg.cpd_min_events,
        cfg.topic_min_support,
    );
    for t in topics {
        let node =
            out.ontology
                .add_node(NodeKind::Topic, Phrase::new(t.tokens.iter().cloned()), t.support);
        for &e in &t.events {
            if out.ontology.add_is_a(node, e, 1.0).is_err() {
                out.rejected_edges += 1;
            }
        }
        // "We connect a concept to a topic if the concept is contained in
        // the topic phrase."
        if out.ontology.add_involve(node, t.concept, 1.0).is_err() {
            out.rejected_edges += 1;
        }
        out.mined.push(MinedAttention {
            node,
            kind: NodeKind::Topic,
            tokens: t.tokens,
            trigger: None,
            entities: Vec::new(),
            location: None,
            day: None,
            support: t.support,
            source_queries: Vec::new(),
            top_titles: Vec::new(),
            clicked_docs: Vec::new(),
        });
    }
    let _ = input;
}

/// Phase 2f: entity ↔ entity correlate edges from hinge-loss embeddings over
/// sentence/query co-occurrence pairs. The per-sentence entity presence
/// comes from the shared [`TextCache`] (ascending entity order per
/// sentence — exactly what the historical inline scan produced).
fn link_correlates(
    input: &PipelineInput,
    cfg: &GiantConfig,
    out: &mut GiantOutput,
    text: &TextCache,
) {
    let entity_list: Vec<(Vec<String>, String)> = input
        .entities
        .iter()
        .map(|(t, _)| (t.clone(), t.join(" ")))
        .collect();
    // Co-occurrence positives: entities in the same body sentence.
    let mut positives: Vec<(usize, usize)> = Vec::new();
    for rows in &text.entity_presence {
        for present in rows {
            for i in 0..present.len() {
                for j in i + 1..present.len() {
                    positives.push((present[i] as usize, present[j] as usize));
                }
            }
        }
    }
    if positives.is_empty() {
        return;
    }
    let model = CorrelateModel::train(
        entity_list.len(),
        &positives,
        &CorrelateConfig {
            seed: cfg.seed ^ 0xc0,
            threshold_percentile: cfg.correlate_threshold_percentile,
            ..CorrelateConfig::default()
        },
    );
    for (a, b, d) in model.correlated_pairs() {
        let na = out.entity_nodes[&entity_list[a].1];
        let nb = out.entity_nodes[&entity_list[b].1];
        if out.ontology.add_correlate(na, nb, 1.0 / (1.0 + d)).is_err() {
            out.rejected_edges += 1;
        }
    }
}

/// Lookup helper: the clicked docs of a query as pipeline doc ids.
pub fn clicked_doc_ids(graph: &ClickGraph, query: &str) -> Vec<usize> {
    graph
        .query_id(query)
        .map(|q| graph.docs_of(q).iter().map(|(d, _)| d.index()).collect())
        .unwrap_or_default()
}

/// Converts a click-graph [`DocId`] into a pipeline doc index.
pub fn doc_id(d: DocId) -> usize {
    d.index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use giant_text::Annotator;

    fn empty_output() -> GiantOutput {
        GiantOutput {
            ontology: Ontology::new(),
            mined: Vec::new(),
            category_nodes: HashMap::new(),
            entity_nodes: HashMap::new(),
            rejected_edges: 0,
            alias_conflicts: 0,
            timings: StageTimings::default(),
            cache_stats: CacheStats::default(),
        }
    }

    fn input_with_entities(entities: Vec<(Vec<String>, NerTag)>) -> PipelineInput {
        PipelineInput {
            click_graph: ClickGraph::new(),
            docs: Vec::new(),
            categories: Vec::new(),
            sessions: Vec::new(),
            entities,
            annotator: Annotator::default(),
        }
    }

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn duplicate_entity_surfaces_do_not_drop_nodes() {
        // Two occurrences of "quanta corp" (with different NER tags — the
        // surface is the identity) plus one distinct entity. The ordering
        // hazard this pins down: iterating `input.entities` into a map
        // keyed by joined surface used to create one ontology node per
        // occurrence and keep only the *last* in `entity_nodes`, silently
        // orphaning the rest.
        let input = input_with_entities(vec![
            (toks("quanta corp"), NerTag::Organization),
            (toks("neon sea"), NerTag::Location),
            (toks("quanta corp"), NerTag::None),
        ]);
        let mut out = empty_output();
        register_entities(&input, &mut out);

        // One node per unique surface — no orphans in the ontology…
        assert_eq!(out.ontology.stats().nodes_by_kind[NodeKind::Entity.index()], 2);
        // …and the map resolves every surface to a live node.
        assert_eq!(out.entity_nodes.len(), 2);
        let quanta = out.entity_nodes["quanta corp"];
        assert_eq!(out.ontology.node(quanta).phrase.tokens, toks("quanta corp"));
        // First occurrence wins: the node was created when the first
        // duplicate was seen, so its id precedes "neon sea"'s.
        assert!(quanta < out.entity_nodes["neon sea"]);
    }

    #[test]
    fn register_entities_is_order_insensitive_up_to_ids() {
        // The surviving surface set must not depend on occurrence order.
        let a = {
            let mut out = empty_output();
            register_entities(
                &input_with_entities(vec![
                    (toks("quanta corp"), NerTag::Organization),
                    (toks("quanta corp"), NerTag::None),
                ]),
                &mut out,
            );
            out
        };
        let b = {
            let mut out = empty_output();
            register_entities(
                &input_with_entities(vec![
                    (toks("quanta corp"), NerTag::None),
                    (toks("quanta corp"), NerTag::Organization),
                ]),
                &mut out,
            );
            out
        };
        assert_eq!(a.entity_nodes.len(), b.entity_nodes.len());
        assert_eq!(
            a.ontology.stats().nodes_by_kind[NodeKind::Entity.index()],
            b.ontology.stats().nodes_by_kind[NodeKind::Entity.index()]
        );
    }
}
