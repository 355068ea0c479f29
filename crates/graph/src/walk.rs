//! Random walk with restart over the click graph.
//!
//! Paper §3.1: "From query q, we perform random walk according to transport
//! probabilities calculated above and compute the weights of visited queries
//! and documents." We compute the *stationary visit probabilities* exactly by
//! power iteration instead of Monte-Carlo sampling — the result is the same
//! quantity, deterministic, and cheap because each walk only touches the
//! seed's local neighbourhood.

use crate::click::{ClickGraph, DocId, QueryId};
use std::collections::BTreeMap;

/// Random-walk parameters.
#[derive(Debug, Clone, Copy)]
pub struct WalkConfig {
    /// Restart probability back to the seed query at every step.
    pub restart: f64,
    /// Maximum power-iteration rounds (one round = query step + doc step).
    pub max_iter: usize,
    /// L1 convergence tolerance.
    pub tol: f64,
    /// Frontier prune: after each accumulation step, nodes holding less
    /// than this visit probability are dropped from the layer (their mass
    /// vanishes). Cluster extraction keeps only nodes above `δ_v` (0.01 —
    /// 0.03 in this repo), so carrying mass orders of magnitude below it
    /// across hub documents buys nothing but cost — on realistic logs a
    /// few uniform noise clicks weld the graph into one giant component,
    /// and an unpruned walk then reads (and depends on) *every* node of
    /// it. Pruning keeps the walk local: footprints shrink from the
    /// component to the meaningful neighbourhood, which is what makes
    /// walks fast and incremental invalidation selective. `0.0` restores
    /// the exhaustive behaviour.
    pub min_mass: f64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            restart: 0.3,
            max_iter: 12,
            tol: 1e-8,
            min_mass: 3e-3,
        }
    }
}

/// Visit probabilities produced by [`walk_from`].
#[derive(Debug, Clone, Default)]
pub struct WalkResult {
    /// Visit probability per reached query.
    pub query_probs: BTreeMap<QueryId, f64>,
    /// Visit probability per reached document.
    pub doc_probs: BTreeMap<DocId, f64>,
}

impl WalkResult {
    /// Queries ordered by decreasing probability (ties by id, deterministic).
    pub fn ordered_queries(&self) -> Vec<(QueryId, f64)> {
        let mut v: Vec<(QueryId, f64)> = self.query_probs.iter().map(|(k, p)| (*k, *p)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        v
    }

    /// Documents ordered by decreasing probability (ties by id).
    pub fn ordered_docs(&self) -> Vec<(DocId, f64)> {
        let mut v: Vec<(DocId, f64)> = self.doc_probs.iter().map(|(k, p)| (*k, *p)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        v
    }
}

/// Runs a random walk with restart from `seed`, alternating
/// query→doc (eq. 1) and doc→query (eq. 2) steps, and returns visit
/// probabilities over the touched neighbourhood.
///
/// Internally the iteration runs over **dense per-layer buffers** instead
/// of fresh `BTreeMap`s: hub documents fan walks out to most of the
/// component, so tree inserts and their allocations dominated the old
/// implementation (this function is the pipeline's hottest kernel — every
/// planned cluster pays for one walk). Determinism is preserved exactly:
/// each layer keeps the id set it would have held as tree keys
/// (`SparseLayer`, membership-flag exact) and sorts it before every
/// ordered scan, so ids are visited in the same ascending order a
/// `BTreeMap` iterates, every f64 accumulation happens in the identical
/// sequence, and the results are bit-for-bit those of the tree-based
/// walk. Scans touch only registered ids — never a gap between them,
/// never the whole graph — so sparse neighbourhoods stay cheap no matter
/// how the component's ids are distributed.
pub fn walk_from(g: &ClickGraph, seed: QueryId, cfg: &WalkConfig) -> WalkResult {
    Walker::for_graph(g).walk(g, seed, cfg)
}

/// The set of graph nodes whose edge lists (or cached totals) a walk
/// **read**: every query/document that carried nonzero mass in any
/// iteration. The walk's output is a pure function of exactly these nodes'
/// adjacency — if none of them changed between two graphs, re-walking the
/// same seed on the new graph reproduces the old result bit for bit (the
/// incremental planner's invalidation rule; see [`crate::plan::PlanCache`]).
///
/// The argument is inductive: the walk starts as `{seed}`, and each
/// iteration's frontier is computed only from the edges and totals of nodes
/// already carrying mass. If every such node is unchanged, every iteration
/// — and therefore the result — is unchanged. A graph edit can only steer
/// the walk by touching a node the walk actually reads, and any such node
/// is in this set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalkFootprint {
    /// Touched query ids, ascending.
    pub queries: Vec<u32>,
    /// Touched doc ids, ascending.
    pub docs: Vec<u32>,
}

impl WalkFootprint {
    /// Total touched nodes.
    pub fn len(&self) -> usize {
        self.queries.len() + self.docs.len()
    }

    /// True when nothing was touched (never the case for a real walk — the
    /// seed is always read).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty() && self.docs.is_empty()
    }
}

/// Reusable dense walk state. One walk allocates graph-sized buffers; the
/// planner (`giant_graph::plan::plan_clusters_parallel`) amortises them by
/// keeping one `Walker` per participant of its `giant_exec::run_speculative`
/// pipeline instead of reallocating per seed. Results are identical to a
/// fresh walker's: layers are empty on entry and re-emptied on exit, so no
/// state crosses walks.
#[derive(Debug, Clone)]
pub struct Walker {
    qp: SparseLayer,
    dp: SparseLayer,
    next_qp: SparseLayer,
    next_dp: SparseLayer,
    /// Touched-query flags for footprint tracking (empty outside walks).
    tq: TouchSet,
    /// Touched-doc flags for footprint tracking.
    td: TouchSet,
}

impl Walker {
    /// A walker sized for `g` (buffers grow if a larger graph is walked).
    pub fn for_graph(g: &ClickGraph) -> Self {
        Self {
            qp: SparseLayer::with_capacity(g.n_queries()),
            dp: SparseLayer::with_capacity(g.n_docs()),
            next_qp: SparseLayer::with_capacity(g.n_queries()),
            next_dp: SparseLayer::with_capacity(g.n_docs()),
            tq: TouchSet::with_capacity(g.n_queries()),
            td: TouchSet::with_capacity(g.n_docs()),
        }
    }

    fn ensure_capacity(&mut self, g: &ClickGraph) {
        self.qp.grow(g.n_queries());
        self.next_qp.grow(g.n_queries());
        self.dp.grow(g.n_docs());
        self.next_dp.grow(g.n_docs());
        self.tq.grow(g.n_queries());
        self.td.grow(g.n_docs());
    }

    /// Runs one random walk with restart, reusing this walker's buffers.
    /// Bit-identical to [`walk_from`].
    pub fn walk(&mut self, g: &ClickGraph, seed: QueryId, cfg: &WalkConfig) -> WalkResult {
        self.walk_impl(g, seed, cfg, false)
    }

    /// [`Walker::walk`] plus the walk's [`WalkFootprint`]. The probability
    /// result is bit-identical to the untracked walk's — tracking only
    /// records which nodes the iteration read, it never alters the
    /// arithmetic or its order.
    pub fn walk_tracked(
        &mut self,
        g: &ClickGraph,
        seed: QueryId,
        cfg: &WalkConfig,
    ) -> (WalkResult, WalkFootprint) {
        let result = self.walk_impl(g, seed, cfg, true);
        let footprint = WalkFootprint {
            queries: self.tq.drain_sorted(),
            docs: self.td.drain_sorted(),
        };
        (result, footprint)
    }

    fn walk_impl(
        &mut self,
        g: &ClickGraph,
        seed: QueryId,
        cfg: &WalkConfig,
        track: bool,
    ) -> WalkResult {
        self.ensure_capacity(g);
        let (qp, dp) = (&mut self.qp, &mut self.dp);
        let (next_qp, next_dp) = (&mut self.next_qp, &mut self.next_dp);
        let (tq, td) = (&mut self.tq, &mut self.td);
        qp.insert(seed.index(), 1.0);
        if track {
            // The seed's adjacency is read even when max_iter is 0 in
            // spirit (the result depends on the seed existing), so it is
            // always part of the footprint.
            tq.touch(seed.index());
        }

        for _ in 0..cfg.max_iter {
            // Query layer -> doc layer.
            for &qi in qp.ids() {
                let qi = qi as usize;
                let p = qp.get(qi);
                if p == 0.0 {
                    continue;
                }
                if track {
                    // Both `query_clicks` and `docs_of` of this node are
                    // read below: the walk depends on its adjacency.
                    tq.touch(qi);
                }
                let q = QueryId(qi as u32);
                let total = g.query_clicks(q);
                if total == 0.0 {
                    continue;
                }
                for (d, c) in g.docs_of(q) {
                    next_dp.add(d.index(), p * (c / total));
                }
            }
            next_dp.prune_below(cfg.min_mass);
            next_dp.sort_ids();
            // Doc layer -> query layer, restart mass returning to the seed.
            next_qp.insert(seed.index(), cfg.restart);
            for &di in next_dp.ids() {
                let di = di as usize;
                let p = next_dp.get(di);
                if p == 0.0 {
                    continue;
                }
                if track {
                    td.touch(di);
                }
                let d = DocId(di as u32);
                let total = g.doc_clicks(d);
                if total == 0.0 {
                    continue;
                }
                for (q, c) in g.queries_of(d) {
                    next_qp.add(q.index(), (1.0 - cfg.restart) * p * (c / total));
                }
            }
            next_qp.prune_below(cfg.min_mass);
            next_qp.sort_ids();
            // L1 delta, in ascending id order: entries of the new state
            // first, then vanished entries of the old — the exact term
            // order the tree-based implementation summed in (its first
            // clause iterated next_qp's keys, its second the old keys
            // absent from next_qp).
            let mut delta = 0.0f64;
            for &qi in next_qp.ids() {
                let qi = qi as usize;
                delta += (next_qp.get(qi) - qp.get(qi)).abs();
            }
            for &qi in qp.ids() {
                let qi = qi as usize;
                if !next_qp.contains(qi) {
                    delta += qp.get(qi).abs();
                }
            }
            // Advance: empty the old layers, swap in the new state.
            qp.clear();
            std::mem::swap(qp, next_qp);
            dp.clear();
            std::mem::swap(dp, next_dp);
            if delta < cfg.tol {
                break;
            }
        }

        // Materialise the sparse public view (ascending id order, like
        // the trees the API exposes), then empty the layers so the next
        // walk starts clean.
        let mut query_probs: BTreeMap<QueryId, f64> = BTreeMap::new();
        for &qi in qp.ids() {
            let p = qp.get(qi as usize);
            if p != 0.0 {
                query_probs.insert(QueryId(qi), p);
            }
        }
        let mut doc_probs: BTreeMap<DocId, f64> = BTreeMap::new();
        for &di in dp.ids() {
            let p = dp.get(di as usize);
            if p != 0.0 {
                doc_probs.insert(DocId(di), p);
            }
        }
        qp.clear();
        dp.clear();
        WalkResult {
            query_probs,
            doc_probs,
        }
    }
}

/// One layer of sparse walk state over a dense value buffer: membership
/// flags make insertion O(1) and the id list bounds every scan to the
/// entries actually present (never a gap, never the whole graph). The id
/// list mirrors a `BTreeMap`'s key set exactly — including keys holding
/// `0.0` — and iterating it after [`SparseLayer::sort_ids`] visits keys
/// in the same ascending order the tree would, which is what keeps every
/// f64 accumulation bit-identical to the tree-based implementation.
#[derive(Debug, Clone, Default)]
struct SparseLayer {
    vals: Vec<f64>,
    present: Vec<bool>,
    ids: Vec<u32>,
    min_id: usize,
    max_id: usize,
}

impl SparseLayer {
    fn with_capacity(n: usize) -> Self {
        Self {
            vals: vec![0.0; n],
            present: vec![false; n],
            ids: Vec::new(),
            min_id: usize::MAX,
            max_id: 0,
        }
    }

    fn grow(&mut self, n: usize) {
        if self.vals.len() < n {
            self.vals.resize(n, 0.0);
            self.present.resize(n, false);
        }
    }

    #[inline]
    fn register(&mut self, i: usize) {
        if !self.present[i] {
            self.present[i] = true;
            self.ids.push(i as u32);
            self.min_id = self.min_id.min(i);
            self.max_id = self.max_id.max(i);
        }
    }

    /// Tree-`insert` analogue: sets the value, registering the id.
    fn insert(&mut self, i: usize, v: f64) {
        self.register(i);
        self.vals[i] = v;
    }

    /// Tree-`entry().or_insert(0.0) +=` analogue.
    #[inline]
    fn add(&mut self, i: usize, term: f64) {
        self.register(i);
        self.vals[i] += term;
    }

    /// Value at `i` (0.0 when absent, like `get().copied().unwrap_or(0.0)`).
    #[inline]
    fn get(&self, i: usize) -> f64 {
        self.vals[i]
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.present[i]
    }

    /// Puts the id list into ascending (tree key) order. Call once per
    /// accumulation phase, before any ordered scan. When the occupied
    /// span is dense a membership scan rebuilds the list in O(span);
    /// when ids are scattered across a wide span it sorts instead — so
    /// neither contiguous components nor pathologically interleaved ones
    /// degrade. Both paths produce the identical ascending exact id
    /// list, keeping iteration order (and so every f64 accumulation)
    /// independent of which one ran.
    fn sort_ids(&mut self) {
        if self.ids.is_empty() {
            return;
        }
        let span = self.max_id - self.min_id + 1;
        if span <= self.ids.len().saturating_mul(8) {
            self.ids.clear();
            for i in self.min_id..=self.max_id {
                if self.present[i] {
                    self.ids.push(i as u32);
                }
            }
        } else {
            self.ids.sort_unstable();
        }
    }

    /// Registered ids (ascending iff [`SparseLayer::sort_ids`] ran after
    /// the last insertion).
    fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Drops every entry holding less than `min` (their mass vanishes and
    /// the id is unregistered, so later scans never visit them). A no-op
    /// at `min <= 0.0`. Value-based and order-independent, so pruning
    /// keeps the walk deterministic at every thread count.
    fn prune_below(&mut self, min: f64) {
        if min <= 0.0 {
            return;
        }
        let (mut min_id, mut max_id) = (usize::MAX, 0usize);
        let (vals, present) = (&mut self.vals, &mut self.present);
        self.ids.retain(|&i| {
            let idx = i as usize;
            if vals[idx] < min {
                vals[idx] = 0.0;
                present[idx] = false;
                false
            } else {
                min_id = min_id.min(idx);
                max_id = max_id.max(idx);
                true
            }
        });
        self.min_id = min_id;
        self.max_id = max_id;
    }

    /// Removes every entry, restoring the all-absent invariant.
    fn clear(&mut self) {
        for &i in &self.ids {
            self.vals[i as usize] = 0.0;
            self.present[i as usize] = false;
        }
        self.ids.clear();
        self.min_id = usize::MAX;
        self.max_id = 0;
    }
}

/// A reusable membership set over dense ids: O(1) insert, drained into a
/// sorted id list once per tracked walk. Like [`SparseLayer`] it grows
/// monotonically with the graph and is emptied after every use so no state
/// crosses walks.
#[derive(Debug, Clone, Default)]
struct TouchSet {
    present: Vec<bool>,
    ids: Vec<u32>,
}

impl TouchSet {
    fn with_capacity(n: usize) -> Self {
        Self {
            present: vec![false; n],
            ids: Vec::new(),
        }
    }

    fn grow(&mut self, n: usize) {
        if self.present.len() < n {
            self.present.resize(n, false);
        }
    }

    #[inline]
    fn touch(&mut self, i: usize) {
        if !self.present[i] {
            self.present[i] = true;
            self.ids.push(i as u32);
        }
    }

    /// Returns the touched ids ascending and resets the set to empty.
    fn drain_sorted(&mut self) -> Vec<u32> {
        for &i in &self.ids {
            self.present[i as usize] = false;
        }
        let mut out = std::mem::take(&mut self.ids);
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disconnected components; the walk must stay inside the seed's.
    fn two_component_graph() -> ClickGraph {
        let mut g = ClickGraph::new();
        // Component A: q0, q1 share doc 0; q1 also clicks doc 1.
        g.add_clicks("qa0", DocId(0), 10.0);
        g.add_clicks("qa1", DocId(0), 10.0);
        g.add_clicks("qa1", DocId(1), 10.0);
        // Component B: q2 clicks doc 2.
        g.add_clicks("qb2", DocId(2), 50.0);
        g
    }

    #[test]
    fn walk_stays_in_component() {
        let g = two_component_graph();
        let seed = g.query_id("qa0").unwrap();
        let r = walk_from(&g, seed, &WalkConfig::default());
        assert!(r.query_probs.contains_key(&g.query_id("qa1").unwrap()));
        assert!(!r.query_probs.contains_key(&g.query_id("qb2").unwrap()));
        assert!(!r.doc_probs.contains_key(&DocId(2)));
    }

    #[test]
    fn seed_has_highest_query_probability() {
        let g = two_component_graph();
        let seed = g.query_id("qa0").unwrap();
        let r = walk_from(&g, seed, &WalkConfig::default());
        let ordered = r.ordered_queries();
        assert_eq!(ordered[0].0, seed);
        // All probabilities in (0, 1].
        for (_, p) in &ordered {
            assert!(*p > 0.0 && *p <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn query_mass_is_conserved() {
        let g = two_component_graph();
        let seed = g.query_id("qa0").unwrap();
        let r = walk_from(&g, seed, &WalkConfig::default());
        // After a doc->query step all doc mass (plus restart) lands on
        // queries, so the query layer always sums to 1.
        let total: f64 = r.query_probs.values().sum();
        assert!((total - 1.0).abs() < 1e-6, "total query mass = {total}");
    }

    #[test]
    fn stronger_coclick_means_higher_probability() {
        let mut g = ClickGraph::new();
        g.add_clicks("seed", DocId(0), 100.0);
        g.add_clicks("seed", DocId(1), 1.0);
        g.add_clicks("close", DocId(0), 100.0);
        g.add_clicks("far", DocId(1), 100.0);
        let seed = g.query_id("seed").unwrap();
        let r = walk_from(&g, seed, &WalkConfig::default());
        let close = r.query_probs[&g.query_id("close").unwrap()];
        let far = r.query_probs[&g.query_id("far").unwrap()];
        assert!(close > far, "close={close} far={far}");
    }

    #[test]
    fn isolated_seed_keeps_all_mass() {
        let mut g = ClickGraph::new();
        let seed = g.intern_query("lonely");
        let r = walk_from(&g, seed, &WalkConfig::default());
        assert_eq!(r.query_probs.len(), 1);
        assert!(r.doc_probs.is_empty());
    }

    #[test]
    fn tracked_walk_is_bit_identical_and_reports_the_component() {
        let g = two_component_graph();
        let seed = g.query_id("qa0").unwrap();
        let cfg = WalkConfig::default();
        let plain = walk_from(&g, seed, &cfg);
        let mut w = Walker::for_graph(&g);
        let (tracked, fp) = w.walk_tracked(&g, seed, &cfg);
        assert_eq!(plain.query_probs, tracked.query_probs);
        assert_eq!(plain.doc_probs, tracked.doc_probs);
        // Footprint covers exactly the seed's component, ascending.
        assert!(fp.queries.contains(&seed.0));
        assert!(fp.queries.contains(&g.query_id("qa1").unwrap().0));
        assert!(!fp.queries.contains(&g.query_id("qb2").unwrap().0));
        assert!(fp.docs.contains(&0) && fp.docs.contains(&1) && !fp.docs.contains(&2));
        assert!(fp.queries.windows(2).all(|w| w[0] < w[1]));
        assert!(fp.docs.windows(2).all(|w| w[0] < w[1]));
        assert!(!fp.is_empty() && fp.len() == fp.queries.len() + fp.docs.len());
    }

    #[test]
    fn tracked_and_untracked_walks_interleave_cleanly() {
        // Tracking state must not leak across walks on a reused walker.
        let g = two_component_graph();
        let a = g.query_id("qa0").unwrap();
        let b = g.query_id("qb2").unwrap();
        let cfg = WalkConfig::default();
        let mut w = Walker::for_graph(&g);
        let (_, fp_a) = w.walk_tracked(&g, a, &cfg);
        let plain_b = w.walk(&g, b, &cfg);
        let (tracked_b, fp_b) = w.walk_tracked(&g, b, &cfg);
        assert_eq!(plain_b.query_probs, tracked_b.query_probs);
        // B's footprint is disjoint from A's (separate components) — no
        // carry-over from the earlier tracked walk.
        assert!(fp_b.queries.iter().all(|q| !fp_a.queries.contains(q)));
        assert_eq!(fp_b.queries, vec![b.0]);
        assert_eq!(fp_b.docs, vec![2]);
    }

    #[test]
    fn isolated_seed_footprint_is_just_the_seed() {
        let mut g = ClickGraph::new();
        let seed = g.intern_query("lonely");
        let mut w = Walker::for_graph(&g);
        let (_, fp) = w.walk_tracked(&g, seed, &WalkConfig::default());
        assert_eq!(fp.queries, vec![seed.0]);
        assert!(fp.docs.is_empty());
    }
}
