//! Deterministic partitioning of the click graph into K disjoint shards.
//!
//! The sharded pipeline (ROADMAP: "shard the build, federate the serve")
//! runs the full plan→execute→merge mining pass per shard over a
//! *private* click graph, so partitioning must be a pure function of the
//! graph's content — independent of thread counts, of hash-map iteration
//! order, and of the order in which clicks happened to arrive.
//!
//! The split is **document-led**: the caller supplies a shard hint per
//! document (in GIANT, the level-1 category subtree the doc's leaf
//! category hangs under — the "horizontal segmentation" boundary of
//! PAPERS.md), and [`partition`] then assigns each *query* to the shard
//! holding the majority of its click mass. Queries whose mass ties across
//! shards — the cross-subtree components — fall back to a hash of the
//! query *text* (the cluster-hash fallback), never of its id, so the
//! choice survives re-interning in a different order.
//!
//! Edges whose query and document land on different shards are **boundary
//! edges**: they are excluded from every per-shard graph (each shard is
//! self-contained) and reported exactly in a [`BoundaryReport`], which the
//! federation stage uses to bound and account for the mass the split
//! ignored.
//!
//! ## Determinism
//!
//! * Per-query per-shard click mass is accumulated by **sorted
//!   summation**: the edge weights going to one shard are sorted by bit
//!   pattern before summing, so the result is identical for every edge
//!   insertion order (f64 addition is not associative; sorting restores a
//!   canonical order).
//! * Ties pick from the tied shard set by FNV-1a of the query text.
//! * Local ids in each shard graph are the global order restricted to the
//!   shard: `query_map`/`doc_map` are strictly ascending in global id, so
//!   stable assignments yield *prefix-extending* maps across incremental
//!   folds — the property the sharded caches key on.

use crate::click::{ClickGraph, DocId, QueryId};
use giant_text::fnv1a64;

/// Sums `weights` in a canonical order (ascending bit pattern), making the
/// result independent of the caller's accumulation order.
fn sorted_sum(weights: &mut [u64]) -> f64 {
    weights.sort_unstable();
    weights.iter().map(|&b| f64::from_bits(b)).sum()
}

/// An edge `(q, d)` whose endpoints were assigned to different shards.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryEdge {
    /// Global query id.
    pub query: QueryId,
    /// Global doc id.
    pub doc: DocId,
    /// Shard owning the query.
    pub query_shard: usize,
    /// Shard owning the doc.
    pub doc_shard: usize,
    /// Click count on the edge.
    pub clicks: f64,
}

/// Exact accounting of the edges a K-way split severed.
#[derive(Debug, Clone, Default)]
pub struct BoundaryReport {
    /// Every severed edge, in (query id, edge row) order.
    pub edges: Vec<BoundaryEdge>,
    /// Total severed click mass (in-order sum over `edges`).
    pub mass: f64,
    /// Total click mass of the input graph (same canonical resum).
    pub total_mass: f64,
}

impl BoundaryReport {
    /// Fraction of total click mass the split severed (0 when the graph
    /// is empty).
    pub fn severed_fraction(&self) -> f64 {
        if self.total_mass == 0.0 {
            0.0
        } else {
            self.mass / self.total_mass
        }
    }
}

/// One shard's private click graph plus its id translation tables.
#[derive(Debug, Clone)]
pub struct GraphShard {
    /// The shard-local click graph (boundary edges removed).
    pub graph: ClickGraph,
    /// Local query id → global query id; strictly ascending.
    pub query_map: Vec<u32>,
    /// Local doc id → global doc id; strictly ascending.
    pub doc_map: Vec<u32>,
}

/// The full output of [`partition`].
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Number of shards K.
    pub k: usize,
    /// Per-global-query shard assignment.
    pub query_shard: Vec<usize>,
    /// Per-global-doc shard assignment (verbatim copy of the caller's
    /// hints, padded to the doc universe).
    pub doc_shard: Vec<usize>,
    /// The per-shard graphs and id maps, indexed by shard.
    pub shards: Vec<GraphShard>,
    /// Exact report of severed cross-shard edges.
    pub boundary: BoundaryReport,
}

/// Splits `g` into `k` disjoint shards.
///
/// `doc_shard[d]` is the caller's shard hint for global doc `d` (values
/// `< k`); its length defines the document universe and must cover every
/// doc the graph knows (`doc_shard.len() >= g.n_docs()`). Docs beyond the
/// graph's click range (clickless corpus docs) are carried into their
/// shard's `doc_map` so the per-shard corpus stays aligned with the
/// per-shard graph.
///
/// Queries go to the shard holding the strict majority of their click
/// mass (sorted summation per shard; ties broken by FNV-1a of the query
/// text over the tied set). `k == 0` is treated as `k == 1`.
pub fn partition(g: &ClickGraph, doc_shard: &[usize], k: usize) -> ShardPlan {
    let k = k.max(1);
    assert!(
        doc_shard.len() >= g.n_docs(),
        "doc universe ({}) smaller than click graph ({})",
        doc_shard.len(),
        g.n_docs()
    );
    for (d, &s) in doc_shard.iter().enumerate() {
        assert!(s < k, "doc {d} hinted to shard {s} but k={k}");
    }

    // --- assign queries by majority mass -------------------------------
    let mut query_shard = Vec::with_capacity(g.n_queries());
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); k];
    for q in g.query_ids() {
        for w in per_shard.iter_mut() {
            w.clear();
        }
        for &(d, c) in g.docs_of(q) {
            per_shard[doc_shard[d.index()]].push(c.to_bits());
        }
        let masses: Vec<f64> = per_shard.iter_mut().map(|w| sorted_sum(w)).collect();
        let best = masses
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| if b > a { b } else { a });
        let tied: Vec<usize> = (0..k).filter(|&s| masses[s] == best).collect();
        let shard = if tied.len() == 1 {
            tied[0]
        } else {
            // Cross-subtree component (or clickless query): hash the TEXT
            // so the pick survives any re-interning order.
            let h = fnv1a64(g.query_text(q).as_bytes());
            tied[(h % tied.len() as u64) as usize]
        };
        query_shard.push(shard);
    }

    // --- id maps: global order restricted to each shard -----------------
    let mut query_maps: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (q, &s) in query_shard.iter().enumerate() {
        query_maps[s].push(q as u32);
    }
    let mut doc_maps: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut doc_local = vec![0u32; doc_shard.len()];
    for (d, &s) in doc_shard.iter().enumerate() {
        doc_local[d] = doc_maps[s].len() as u32;
        doc_maps[s].push(d as u32);
    }

    // --- boundary report + canonical total mass -------------------------
    let mut boundary = BoundaryReport::default();
    for q in g.query_ids() {
        let qs = query_shard[q.index()];
        for &(d, c) in g.docs_of(q) {
            boundary.total_mass += c;
            let ds = doc_shard[d.index()];
            if ds != qs {
                boundary.mass += c;
                boundary.edges.push(BoundaryEdge {
                    query: q,
                    doc: d,
                    query_shard: qs,
                    doc_shard: ds,
                    clicks: c,
                });
            }
        }
    }

    // --- build each shard's private graph -------------------------------
    let mut shards = Vec::with_capacity(k);
    for (s, (query_map, doc_map)) in query_maps.into_iter().zip(doc_maps).enumerate() {
        let queries: Vec<String> = query_map
            .iter()
            .map(|&q| g.query_text(QueryId(q)).to_owned())
            .collect();
        let mut query_local = std::collections::HashMap::new();
        for (lq, &q) in query_map.iter().enumerate() {
            query_local.insert(QueryId(q), QueryId(lq as u32));
        }
        // Edge rows keep their global row order (insertion order), only
        // filtered and re-id'd — a fold and a rebuild that produced the
        // same global graph bytes produce the same shard graph bytes.
        let q_edges: Vec<Vec<(DocId, f64)>> = query_map
            .iter()
            .map(|&q| {
                g.docs_of(QueryId(q))
                    .iter()
                    .filter(|(d, _)| doc_shard[d.index()] == s)
                    .map(|&(d, c)| (DocId(doc_local[d.index()]), c))
                    .collect()
            })
            .collect();
        let d_edges: Vec<Vec<(QueryId, f64)>> = doc_map
            .iter()
            .map(|&d| {
                g.queries_of(DocId(d))
                    .iter()
                    .filter(|(q, _)| query_shard[q.index()] == s)
                    .map(|&(q, c)| (query_local[&q], c))
                    .collect()
            })
            .collect();
        // The shard's running total is the canonical in-order resum of its
        // rows: arrival order within one shard is not recoverable, and the
        // resum is identical for any history that built these rows.
        let total: f64 = q_edges
            .iter()
            .map(|row| row.iter().map(|(_, c)| c).sum::<f64>())
            .sum();
        shards.push(GraphShard {
            graph: ClickGraph::from_parts(queries, q_edges, d_edges, total),
            query_map,
            doc_map,
        });
    }

    ShardPlan {
        k,
        query_shard,
        doc_shard: doc_shard.to_vec(),
        shards,
        boundary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClickGraph {
        let mut g = ClickGraph::new();
        g.add_clicks("family road trip vehicles", DocId(0), 10.0);
        g.add_clicks("family road trip vehicles", DocId(1), 30.0);
        g.add_clicks("honda odyssey review", DocId(1), 20.0);
        g.add_clicks("honda odyssey review", DocId(2), 5.0);
        g.add_clicks("summer beach tips", DocId(3), 8.0);
        g
    }

    #[test]
    fn k1_is_the_identity_partition() {
        let g = sample();
        let plan = partition(&g, &[0, 0, 0, 0], 1);
        assert_eq!(plan.k, 1);
        assert!(plan.boundary.edges.is_empty());
        assert_eq!(plan.boundary.mass, 0.0);
        let shard = &plan.shards[0];
        assert_eq!(shard.query_map, vec![0, 1, 2]);
        assert_eq!(shard.doc_map, vec![0, 1, 2, 3]);
        assert_eq!(shard.graph.n_queries(), g.n_queries());
        assert_eq!(shard.graph.n_docs(), g.n_docs());
        for q in g.query_ids() {
            assert_eq!(shard.graph.docs_of(q), g.docs_of(q));
            assert_eq!(shard.graph.query_text(q), g.query_text(q));
        }
    }

    #[test]
    fn queries_follow_majority_mass_and_boundary_is_exact() {
        let g = sample();
        // Docs 0,1 → shard 0; docs 2,3 → shard 1.
        let plan = partition(&g, &[0, 0, 1, 1], 2);
        let q0 = g.query_id("family road trip vehicles").unwrap();
        let q1 = g.query_id("honda odyssey review").unwrap();
        let q2 = g.query_id("summer beach tips").unwrap();
        assert_eq!(plan.query_shard[q0.index()], 0); // all 40 mass on shard 0
        assert_eq!(plan.query_shard[q1.index()], 0); // 20 vs 5
        assert_eq!(plan.query_shard[q2.index()], 1); // all mass on shard 1
        // Exactly one severed edge: honda→doc2 (5 clicks).
        assert_eq!(plan.boundary.edges.len(), 1);
        let be = &plan.boundary.edges[0];
        assert_eq!((be.query, be.doc, be.clicks), (q1, DocId(2), 5.0));
        assert_eq!((be.query_shard, be.doc_shard), (0, 1));
        assert_eq!(plan.boundary.mass, 5.0);
        assert_eq!(plan.boundary.total_mass, 73.0);
        // Shard 0 graph: both queries, docs {0,1}, no doc2 edge.
        let s0 = &plan.shards[0];
        assert_eq!(s0.doc_map, vec![0, 1]);
        assert_eq!(s0.graph.n_queries(), 2);
        let lq1 = s0.graph.query_id("honda odyssey review").unwrap();
        assert_eq!(s0.graph.docs_of(lq1), &[(DocId(1), 20.0)]);
        // Shard 1 graph: the beach query only, docs {2,3} re-id'd.
        let s1 = &plan.shards[1];
        assert_eq!(s1.doc_map, vec![2, 3]);
        assert_eq!(s1.graph.n_queries(), 1);
        let lq2 = s1.graph.query_id("summer beach tips").unwrap();
        assert_eq!(s1.graph.docs_of(lq2), &[(DocId(1), 8.0)]);
    }

    #[test]
    fn tie_break_uses_query_text_not_id() {
        // One query with equal mass on both shards: assignment must be a
        // pure function of the text.
        let mut a = ClickGraph::new();
        a.add_clicks("decoy", DocId(0), 1.0);
        a.add_clicks("torn between worlds", DocId(0), 7.0);
        a.add_clicks("torn between worlds", DocId(1), 7.0);
        let mut b = ClickGraph::new(); // same content, different intern order
        b.add_clicks("torn between worlds", DocId(1), 7.0);
        b.add_clicks("torn between worlds", DocId(0), 7.0);
        b.add_clicks("decoy", DocId(0), 1.0);
        let pa = partition(&a, &[0, 1], 2);
        let pb = partition(&b, &[0, 1], 2);
        let qa = a.query_id("torn between worlds").unwrap();
        let qb = b.query_id("torn between worlds").unwrap();
        assert_eq!(
            pa.query_shard[qa.index()],
            pb.query_shard[qb.index()],
            "tie-break must not depend on intern order"
        );
    }

    #[test]
    fn clickless_docs_ride_into_their_shard_map() {
        let mut g = ClickGraph::new();
        g.add_clicks("q", DocId(0), 1.0);
        // Universe of 4 docs, only doc 0 clicked.
        let plan = partition(&g, &[0, 1, 0, 1], 2);
        assert_eq!(plan.shards[0].doc_map, vec![0, 2]);
        assert_eq!(plan.shards[1].doc_map, vec![1, 3]);
        assert_eq!(plan.shards[0].graph.n_docs(), 2);
        assert_eq!(plan.shards[1].graph.n_docs(), 2);
        assert_eq!(plan.shards[1].graph.n_queries(), 0);
    }

    #[test]
    fn maps_are_strictly_ascending() {
        let g = sample();
        let plan = partition(&g, &[1, 0, 1, 0], 2);
        for shard in &plan.shards {
            assert!(shard.query_map.windows(2).all(|w| w[0] < w[1]));
            assert!(shard.doc_map.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
