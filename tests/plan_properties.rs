//! Property tests for the cluster-planning pass (`giant_graph::plan`):
//! on arbitrary click graphs, the work items' owned query sets form a
//! **partition** of the query space — pairwise disjoint, jointly covering
//! every query id. This is the invariant that makes the execute phase safe
//! to parallelize: each query's attention is attributed by exactly one
//! work item, in plan order.
//!
//! Determinism: the vendored proptest runner derives every case from a
//! fixed workspace seed, so CI replays the same stream.

use giant::graph::{plan_clusters, plan_clusters_parallel, ClickGraph, ClusterConfig, DocId};
use giant::text::StopWords;
use proptest::prelude::*;

/// Builds a click graph from raw (query word-pair, doc, clicks) triples.
/// Query texts are drawn from a small vocabulary so clusters genuinely
/// overlap, which is where coverage bugs would hide.
fn build_graph(triples: &[(usize, usize, usize, f64)]) -> ClickGraph {
    const WORDS: [&str; 8] = [
        "miyazaki", "films", "electric", "cars", "budget", "phones", "travel", "guide",
    ];
    let mut g = ClickGraph::new();
    for &(w1, w2, doc, clicks) in triples {
        let query = format!("{} {}", WORDS[w1 % WORDS.len()], WORDS[w2 % WORDS.len()]);
        g.add_clicks(&query, DocId((doc % 12) as u32), clicks);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Owned sets are pairwise disjoint and cover every query id.
    #[test]
    fn owned_sets_partition_the_query_space(
        triples in proptest::collection::vec(
            (0usize..8, 0usize..8, 0usize..12, 1.0f64..50.0),
            1..40,
        )
    ) {
        let g = build_graph(&triples);
        let plan = plan_clusters(&g, &StopWords::standard(), &ClusterConfig::default());
        let mut owned_by = vec![usize::MAX; g.n_queries()];
        for (i, item) in plan.items.iter().enumerate() {
            for q in &item.owned {
                prop_assert_eq!(
                    owned_by[q.index()],
                    usize::MAX,
                    "query {} owned by items {} and {}",
                    q.index(),
                    owned_by[q.index()],
                    i
                );
                owned_by[q.index()] = i;
            }
        }
        for (qi, owner) in owned_by.iter().enumerate() {
            prop_assert!(*owner != usize::MAX, "query {} never owned", qi);
        }
        prop_assert_eq!(plan.owned_queries(), g.n_queries());
    }

    /// Every item's seed owns itself, owned ⊆ cluster, and seeds ascend in
    /// id order (the deterministic plan/merge order).
    #[test]
    fn items_are_well_formed_and_plan_ordered(
        triples in proptest::collection::vec(
            (0usize..8, 0usize..8, 0usize..12, 1.0f64..50.0),
            1..40,
        )
    ) {
        let g = build_graph(&triples);
        let plan = plan_clusters(&g, &StopWords::standard(), &ClusterConfig::default());
        let mut prev_seed = None;
        for item in &plan.items {
            prop_assert_eq!(item.owned.first(), Some(&item.seed));
            prop_assert_eq!(item.cluster.seed, item.seed);
            let cluster_qs: std::collections::HashSet<_> =
                item.cluster.query_ids().into_iter().collect();
            for q in &item.owned {
                prop_assert!(cluster_qs.contains(q), "owned query outside its cluster");
            }
            if let Some(p) = prev_seed {
                prop_assert!(p < item.seed.index(), "seeds must ascend in plan order");
            }
            prev_seed = Some(item.seed.index());
        }
    }

    /// Planning is a pure function of the graph: two plans over the same
    /// graph are identical item by item.
    #[test]
    fn planning_is_deterministic(
        triples in proptest::collection::vec(
            (0usize..8, 0usize..8, 0usize..12, 1.0f64..50.0),
            1..30,
        )
    ) {
        let g = build_graph(&triples);
        let sw = StopWords::standard();
        let cfg = ClusterConfig::default();
        let a = plan_clusters(&g, &sw, &cfg);
        let b = plan_clusters(&g, &sw, &cfg);
        prop_assert_eq!(a.items.len(), b.items.len());
        for (x, y) in a.items.iter().zip(&b.items) {
            prop_assert_eq!(x.seed, y.seed);
            prop_assert_eq!(&x.owned, &y.owned);
            prop_assert_eq!(x.cluster.query_ids(), y.cluster.query_ids());
            prop_assert_eq!(x.cluster.doc_ids(), y.cluster.doc_ids());
        }
    }

    /// The speculative parallel planner emits the sequential plan exactly,
    /// at every worker count — discarded speculation never leaks.
    #[test]
    fn parallel_planning_equals_sequential(
        triples in proptest::collection::vec(
            (0usize..8, 0usize..8, 0usize..12, 1.0f64..50.0),
            1..30,
        ),
        threads in 2usize..8,
    ) {
        let g = build_graph(&triples);
        let sw = StopWords::standard();
        let cfg = ClusterConfig::default();
        let seq = plan_clusters(&g, &sw, &cfg);
        let par = plan_clusters_parallel(&g, &sw, &cfg, threads);
        prop_assert_eq!(par.items.len(), seq.items.len());
        for (x, y) in par.items.iter().zip(&seq.items) {
            prop_assert_eq!(x.seed, y.seed);
            prop_assert_eq!(&x.owned, &y.owned);
            prop_assert_eq!(x.cluster.query_ids(), y.cluster.query_ids());
            prop_assert_eq!(x.cluster.doc_ids(), y.cluster.doc_ids());
        }
    }
}
