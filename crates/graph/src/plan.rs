//! Cluster planning: the cheap sequential pass of the pipeline's
//! plan → execute → merge architecture.
//!
//! [`plan_clusters`] walks every query of the click graph in id order and
//! partitions the query space into [`ClusterWorkItem`]s, exactly
//! reproducing the covered-set semantics the mining loop used when it was
//! interleaved with per-cluster inference: a query seeds a cluster only if
//! no earlier cluster already covered it, and a cluster covers every query
//! it kept.
//!
//! Each work item carries two views of its cluster:
//!
//! * [`ClusterWorkItem::cluster`] — the **full** extraction around the
//!   seed (may overlap earlier items; this is what QTIG construction and
//!   inference consume, so per-cluster output is identical to the
//!   sequential pipeline's).
//! * [`ClusterWorkItem::owned`] — the queries this item *newly* covers.
//!   Owned sets are pairwise disjoint and jointly cover every query id of
//!   the graph (the invariant `tests/plan_properties.rs` proves), which is
//!   what makes the items safe to execute concurrently: each query's
//!   attention is attributed by exactly one item, in plan order.

use crate::click::{ClickGraph, QueryId};
use crate::cluster::{
    extract_cluster_tracked, extract_cluster_with, ClusterConfig, QueryDocCluster,
};
use crate::walk::{WalkFootprint, Walker};
use giant_text::StopWords;
use std::collections::HashMap;

/// One unit of parallelizable mining work: a seed query plus its extracted
/// cluster and the set of queries it owns.
#[derive(Debug, Clone)]
pub struct ClusterWorkItem {
    /// The seed query (always the first entry of `cluster.queries` and of
    /// `owned`).
    pub seed: QueryId,
    /// The full query–doc cluster around the seed.
    pub cluster: QueryDocCluster,
    /// Queries first covered by this item, in cluster-weight order.
    pub owned: Vec<QueryId>,
}

/// The product of the planning pass: work items in deterministic plan
/// order (ascending seed query id).
#[derive(Debug, Clone, Default)]
pub struct ClusterPlan {
    /// Work items; executing them in any order and merging results back
    /// in *this* order reproduces the sequential pipeline byte for byte.
    pub items: Vec<ClusterWorkItem>,
    /// Per-item cache provenance, aligned with `items` when the plan came
    /// from [`plan_clusters_cached`] (empty otherwise): `true` means the
    /// item's cluster was served from the plan cache, i.e. it is
    /// **unchanged since the last plan in which this seed was an item** —
    /// downstream per-cluster memos keyed by the same seed are then
    /// provably fresh without re-fingerprinting (the mine cache rewrites
    /// its entry on every mismatch, so after any fold each entry matches
    /// that fold's cluster; an unchanged cluster therefore still matches).
    pub reused: Vec<bool>,
}

impl ClusterPlan {
    /// Total queries owned across all items (equals the graph's query
    /// count by the partition invariant).
    pub fn owned_queries(&self) -> usize {
        self.items.iter().map(|it| it.owned.len()).sum()
    }
}

/// Plans disjoint cluster work items over the whole click graph
/// (sequential reference semantics; equals [`plan_clusters_parallel`] at
/// every thread count).
pub fn plan_clusters(g: &ClickGraph, stopwords: &StopWords, cfg: &ClusterConfig) -> ClusterPlan {
    plan_clusters_parallel(g, stopwords, cfg, 1)
}

/// [`plan_clusters`] with the expensive cluster extractions (random
/// walks) spread over `threads` workers.
///
/// Extraction is **speculative** (`giant_exec::run_speculative`): a walk
/// never depends on the covered set, so workers extract candidate seeds
/// ahead of the sequential acceptance frontier, which replays the
/// covered-set semantics strictly in query-id order. The covered flags
/// are monotonic (false → true, written only by acceptance), so workers
/// reading them can only *skip doomed work*, never change the plan:
/// a producer that observes `covered[q]` declines the walk the
/// sequential planner would never have started, and a stale read merely
/// extracts a cluster acceptance then discards. The produced plan is
/// therefore **identical** to [`plan_clusters`]'s for every thread
/// count; only wall-clock changes.
pub fn plan_clusters_parallel(
    g: &ClickGraph,
    stopwords: &StopWords,
    cfg: &ClusterConfig,
    threads: usize,
) -> ClusterPlan {
    use std::sync::atomic::{AtomicBool, Ordering};

    let n = g.n_queries();
    let covered: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let mut items: Vec<ClusterWorkItem> = Vec::new();
    giant_exec::run_speculative(
        n,
        threads,
        threads.max(1) * 4,
        || Walker::for_graph(g),
        |walker, i| {
            if covered[i].load(Ordering::Acquire) {
                return None; // already claimed: the sequential planner would skip it
            }
            Some(extract_cluster_with(walker, g, QueryId(i as u32), stopwords, cfg))
        },
        |i, produced| {
            // Authoritative sequential state: only this closure writes
            // `covered`, in index order.
            if covered[i].load(Ordering::Relaxed) {
                return; // claimed since production started: discard speculation
            }
            let cluster: QueryDocCluster =
                produced.expect("uncovered seed must have been extracted");
            let seed = QueryId(i as u32);
            let mut owned = Vec::new();
            for &(cq, _) in &cluster.queries {
                if !covered[cq.index()].load(Ordering::Relaxed) {
                    covered[cq.index()].store(true, Ordering::Release);
                    owned.push(cq);
                }
            }
            debug_assert_eq!(owned.first(), Some(&seed), "seed must own itself");
            items.push(ClusterWorkItem {
                seed,
                cluster,
                owned,
            });
        },
    );
    ClusterPlan {
        items,
        reused: Vec::new(),
    }
}

/// The graph nodes touched by a batch of click-graph edits, in the id space
/// of the **post-edit** graph. Recording is the ingester's job: every
/// `add_clicks(q, d, _)` marks `q` and `d` (their adjacency and cached
/// totals changed); brand-new queries/docs are dirty by construction but
/// appear in no stored footprint, so what protects cached walks from them
/// is that attaching a new node also dirties its (old) neighbours.
#[derive(Debug, Clone, Default)]
pub struct DirtySet {
    queries: Vec<bool>,
    docs: Vec<bool>,
    n_queries: usize,
    n_docs: usize,
}

impl DirtySet {
    /// An empty dirty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks query `q` dirty.
    pub fn mark_query(&mut self, q: usize) {
        if self.queries.len() <= q {
            self.queries.resize(q + 1, false);
        }
        if !self.queries[q] {
            self.queries[q] = true;
            self.n_queries += 1;
        }
    }

    /// Marks doc `d` dirty.
    pub fn mark_doc(&mut self, d: usize) {
        if self.docs.len() <= d {
            self.docs.resize(d + 1, false);
        }
        if !self.docs[d] {
            self.docs[d] = true;
            self.n_docs += 1;
        }
    }

    /// Number of dirty queries.
    pub fn n_dirty_queries(&self) -> usize {
        self.n_queries
    }

    /// Number of dirty docs.
    pub fn n_dirty_docs(&self) -> usize {
        self.n_docs
    }

    /// True when nothing is dirty.
    pub fn is_empty(&self) -> bool {
        self.n_queries == 0 && self.n_docs == 0
    }

    /// True when the footprint reads any dirty node — the cached walk it
    /// belongs to can no longer be trusted.
    pub fn touches(&self, fp: &WalkFootprint) -> bool {
        fp.queries
            .iter()
            .any(|&q| self.queries.get(q as usize).copied().unwrap_or(false))
            || fp
                .docs
                .iter()
                .any(|&d| self.docs.get(d as usize).copied().unwrap_or(false))
    }
}

/// A cached cluster extraction: the cluster and the walk footprint that
/// certifies it.
#[derive(Debug, Clone)]
struct PlanCacheEntry {
    cluster: QueryDocCluster,
    footprint: WalkFootprint,
}

/// Memo of previous cluster extractions, keyed by seed query id, for the
/// incremental planner. The soundness contract: an entry may be reused on a
/// graph `g'` iff no node of its footprint changed between the graph it was
/// extracted on and `g'` — which [`PlanCache::invalidate`] enforces by
/// evicting every entry touched by the batch's [`DirtySet`] *before*
/// planning. Because eviction happens unconditionally (not only for seeds
/// the next plan extracts), the invariant "every stored entry equals a
/// fresh extraction on the current graph" holds across arbitrarily many
/// ingest rounds.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entries: HashMap<u32, PlanCacheEntry>,
    /// Clusters served from cache by the last planning pass.
    pub reused: usize,
    /// Clusters extracted fresh (walked) by the last planning pass.
    pub walked: usize,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached extractions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every cached extraction as `(seed, cluster, footprint)`, in
    /// ascending seed order — the checkpoint serialisation view. Sorted so
    /// the same cache state always serialises to the same bytes.
    pub fn entries(&self) -> Vec<(u32, &QueryDocCluster, &WalkFootprint)> {
        let mut out: Vec<(u32, &QueryDocCluster, &WalkFootprint)> = self
            .entries
            .iter()
            .map(|(&seed, e)| (seed, &e.cluster, &e.footprint))
            .collect();
        out.sort_by_key(|(seed, _, _)| *seed);
        out
    }

    /// Rebuilds a cache from serialized entries plus the last pass's
    /// reuse counters (checkpoint restore). An entry restored here is
    /// trusted exactly as far as a surviving in-memory entry would be: the
    /// caller must only feed back entries it previously obtained from
    /// [`PlanCache::entries`] on the same (append-only) graph history.
    pub fn from_entries(
        entries: impl IntoIterator<Item = (u32, QueryDocCluster, WalkFootprint)>,
        reused: usize,
        walked: usize,
    ) -> Self {
        Self {
            entries: entries
                .into_iter()
                .map(|(seed, cluster, footprint)| {
                    (seed, PlanCacheEntry { cluster, footprint })
                })
                .collect(),
            reused,
            walked,
        }
    }

    /// Evicts every entry whose footprint reads a dirty node; returns how
    /// many were evicted. Must be called with the batch's dirty set after
    /// each round of graph edits and before the next planning pass.
    pub fn invalidate(&mut self, dirty: &DirtySet) -> usize {
        if dirty.is_empty() {
            return 0;
        }
        let before = self.entries.len();
        self.entries.retain(|_, e| !dirty.touches(&e.footprint));
        before - self.entries.len()
    }
}

/// [`plan_clusters_parallel`] with a [`PlanCache`]: seeds whose cached
/// extraction survived invalidation are served from the cache (no walk),
/// everything else is walked fresh and stored. Given the cache soundness
/// contract the produced plan is **identical** to an uncached
/// [`plan_clusters`] on the same graph, for every thread count and every
/// cache state — only wall-clock changes. Entries are inserted during the
/// sequential acceptance pass, so the cache contents after planning are
/// also independent of the thread count.
pub fn plan_clusters_cached(
    g: &ClickGraph,
    stopwords: &StopWords,
    cfg: &ClusterConfig,
    threads: usize,
    cache: &mut PlanCache,
) -> ClusterPlan {
    use std::sync::atomic::{AtomicBool, Ordering};

    let n = g.n_queries();
    let covered: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let mut items: Vec<ClusterWorkItem> = Vec::new();
    let mut item_reused: Vec<bool> = Vec::new();
    let mut fresh: Vec<(u32, PlanCacheEntry)> = Vec::new();
    let (mut reused, mut walked) = (0usize, 0usize);
    let entries = &cache.entries;
    giant_exec::run_speculative(
        n,
        threads,
        threads.max(1) * 4,
        || Walker::for_graph(g),
        |walker, i| {
            if covered[i].load(Ordering::Acquire) {
                return None; // already claimed: the sequential planner would skip it
            }
            match entries.get(&(i as u32)) {
                // Cache hit: the stored cluster is bit-identical to what a
                // fresh walk would extract (soundness invariant).
                Some(e) => Some((e.cluster.clone(), None)),
                None => {
                    let (cluster, footprint) =
                        extract_cluster_tracked(walker, g, QueryId(i as u32), stopwords, cfg);
                    Some((cluster, Some(footprint)))
                }
            }
        },
        |i, produced| {
            if covered[i].load(Ordering::Relaxed) {
                return; // claimed since production started: discard speculation
            }
            let (cluster, footprint) =
                produced.expect("uncovered seed must have been extracted");
            let seed = QueryId(i as u32);
            match footprint {
                Some(fp) => {
                    walked += 1;
                    item_reused.push(false);
                    fresh.push((
                        i as u32,
                        PlanCacheEntry {
                            cluster: cluster.clone(),
                            footprint: fp,
                        },
                    ));
                }
                None => {
                    reused += 1;
                    item_reused.push(true);
                }
            }
            let mut owned = Vec::new();
            for &(cq, _) in &cluster.queries {
                if !covered[cq.index()].load(Ordering::Relaxed) {
                    covered[cq.index()].store(true, Ordering::Release);
                    owned.push(cq);
                }
            }
            debug_assert_eq!(owned.first(), Some(&seed), "seed must own itself");
            items.push(ClusterWorkItem {
                seed,
                cluster,
                owned,
            });
        },
    );
    for (seed, entry) in fresh {
        cache.entries.insert(seed, entry);
    }
    cache.reused = reused;
    cache.walked = walked;
    ClusterPlan {
        items,
        reused: item_reused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::click::DocId;
    use std::collections::HashSet;

    fn graph() -> ClickGraph {
        let mut g = ClickGraph::new();
        g.add_clicks("miyazaki animated films", DocId(0), 20.0);
        g.add_clicks("miyazaki animated films", DocId(1), 15.0);
        g.add_clicks("famous miyazaki films", DocId(0), 10.0);
        g.add_clicks("classic animated films miyazaki", DocId(1), 8.0);
        g.add_clicks("tokyo travel guide", DocId(1), 9.0);
        g.add_clicks("tokyo travel guide", DocId(3), 40.0);
        g
    }

    #[test]
    fn owned_sets_partition_the_query_space() {
        let g = graph();
        let plan = plan_clusters(&g, &StopWords::standard(), &ClusterConfig::default());
        let mut seen = HashSet::new();
        for it in &plan.items {
            for q in &it.owned {
                assert!(seen.insert(*q), "query {q:?} owned twice");
            }
        }
        assert_eq!(seen.len(), g.n_queries(), "every query must be owned");
        assert_eq!(plan.owned_queries(), g.n_queries());
    }

    #[test]
    fn seeds_are_uncovered_queries_in_id_order() {
        let g = graph();
        let plan = plan_clusters(&g, &StopWords::standard(), &ClusterConfig::default());
        for w in plan.items.windows(2) {
            assert!(w[0].seed.index() < w[1].seed.index(), "plan order is seed id order");
        }
        for it in &plan.items {
            assert_eq!(it.owned.first(), Some(&it.seed));
            assert_eq!(it.cluster.seed, it.seed);
        }
    }

    #[test]
    fn full_cluster_may_exceed_owned_but_never_misses_it() {
        let g = graph();
        let plan = plan_clusters(&g, &StopWords::standard(), &ClusterConfig::default());
        for it in &plan.items {
            let cluster_qs: HashSet<QueryId> = it.cluster.query_ids().into_iter().collect();
            for q in &it.owned {
                assert!(cluster_qs.contains(q), "owned query outside its cluster");
            }
        }
    }

    #[test]
    fn parallel_planner_reproduces_sequential_plan_exactly() {
        let g = graph();
        let sw = StopWords::standard();
        let cfg = ClusterConfig::default();
        let seq = plan_clusters(&g, &sw, &cfg);
        for threads in [2, 3, 8] {
            let par = plan_clusters_parallel(&g, &sw, &cfg, threads);
            assert_eq!(par.items.len(), seq.items.len(), "threads={threads}");
            for (a, b) in par.items.iter().zip(&seq.items) {
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.owned, b.owned);
                assert_eq!(a.cluster.query_ids(), b.cluster.query_ids());
                assert_eq!(a.cluster.doc_ids(), b.cluster.doc_ids());
            }
        }
    }

    fn assert_same_plan(a: &ClusterPlan, b: &ClusterPlan, what: &str) {
        assert_eq!(a.items.len(), b.items.len(), "{what}: item count");
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.seed, y.seed, "{what}");
            assert_eq!(x.owned, y.owned, "{what}");
            assert_eq!(x.cluster.queries, y.cluster.queries, "{what}");
            assert_eq!(x.cluster.docs, y.cluster.docs, "{what}");
        }
    }

    #[test]
    fn cached_planner_matches_uncached_cold_and_warm() {
        let g = graph();
        let sw = StopWords::standard();
        let cfg = ClusterConfig::default();
        let reference = plan_clusters(&g, &sw, &cfg);
        let mut cache = PlanCache::new();
        for threads in [1, 2, 4] {
            // Cold (first round populates) then warm (everything reused).
            let cold = plan_clusters_cached(&g, &sw, &cfg, threads, &mut cache);
            assert_same_plan(&cold, &reference, "cold");
            let warm = plan_clusters_cached(&g, &sw, &cfg, threads, &mut cache);
            assert_same_plan(&warm, &reference, "warm");
            assert_eq!(cache.walked, 0, "warm pass must not walk");
            assert!(cache.reused > 0);
        }
    }

    #[test]
    fn invalidation_after_edits_reconverges_to_the_full_plan() {
        let mut g = graph();
        let sw = StopWords::standard();
        let cfg = ClusterConfig::default();
        let mut cache = PlanCache::new();
        plan_clusters_cached(&g, &sw, &cfg, 1, &mut cache);
        let cached_before = cache.len();
        assert!(cached_before > 0);

        // Fold a delta: a new query joins the miyazaki component and an
        // old edge gains weight.
        let mut dirty = DirtySet::new();
        let q = g.add_clicks("miyazaki films ranked", DocId(0), 12.0);
        dirty.mark_query(q.index());
        dirty.mark_doc(0);
        let q2 = g.add_clicks("tokyo travel guide", DocId(3), 5.0);
        dirty.mark_query(q2.index());
        dirty.mark_doc(3);
        let evicted = cache.invalidate(&dirty);
        assert!(evicted > 0, "dirty component entries must be evicted");

        for threads in [1, 3] {
            let incremental = plan_clusters_cached(&g, &sw, &cfg, threads, &mut cache);
            let full = plan_clusters(&g, &sw, &cfg);
            assert_same_plan(&incremental, &full, "post-delta");
        }
    }

    #[test]
    fn untouched_component_entries_survive_invalidation() {
        let mut g = graph();
        let sw = StopWords::standard();
        let cfg = ClusterConfig::default();
        let mut cache = PlanCache::new();
        plan_clusters_cached(&g, &sw, &cfg, 1, &mut cache);
        // Dirty only a doc nobody clicks (isolated edit far from both
        // components): nothing may be evicted.
        let mut dirty = DirtySet::new();
        g.add_clicks("entirely new island query", DocId(9), 1.0);
        let nq = g.query_id("entirely new island query").unwrap();
        dirty.mark_query(nq.index());
        dirty.mark_doc(9);
        assert_eq!(cache.invalidate(&dirty), 0);
        let plan = plan_clusters_cached(&g, &sw, &cfg, 1, &mut cache);
        // Only the new island seed needed a walk.
        assert_eq!(cache.walked, 1);
        assert_same_plan(&plan, &plan_clusters(&g, &sw, &cfg), "island delta");
    }

    #[test]
    fn dirty_set_counts_and_queries() {
        let mut d = DirtySet::new();
        assert!(d.is_empty());
        d.mark_query(3);
        d.mark_query(3);
        d.mark_doc(1);
        assert_eq!(d.n_dirty_queries(), 1);
        assert_eq!(d.n_dirty_docs(), 1);
        let fp = WalkFootprint {
            queries: vec![3],
            docs: vec![],
        };
        assert!(d.touches(&fp));
        let clean = WalkFootprint {
            queries: vec![2, 4],
            docs: vec![0, 2],
        };
        assert!(!d.touches(&clean));
        // Ids beyond the marked range are clean, not out-of-bounds.
        let beyond = WalkFootprint {
            queries: vec![100],
            docs: vec![100],
        };
        assert!(!d.touches(&beyond));
    }

    #[test]
    fn empty_graph_plans_nothing() {
        let g = ClickGraph::new();
        let plan = plan_clusters(&g, &StopWords::standard(), &ClusterConfig::default());
        assert!(plan.items.is_empty());
        assert_eq!(plan.owned_queries(), 0);
    }
}
