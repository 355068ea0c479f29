//! Building per-shard [`PipelineInput`]s from one global input.
//!
//! The document→shard rule lives here (the graph crate knows nothing about
//! categories): every document follows the **level-1 root** of its category
//! chain, and the roots are dealt round-robin over the K shards in id
//! order. Because the category tree is fixed at state initialisation
//! (`giant-incr` rejects batches that would grow it) and documents are
//! append-only, a document's shard never changes across incremental folds
//! — which is what keeps each shard's local id maps *prefix-extending*
//! and its caches reusable (see [`crate::cache::ShardSlot`]).
//!
//! Queries are assigned by [`giant_graph::shard::partition`] (majority
//! click mass, text-hash tie-break), and sessions follow the shard of
//! their first query that exists in the click graph (text-hash fallback
//! for sessions the graph has never seen).
//!
//! Each shard's input is self-contained and *identically shaped* to a
//! non-sharded input: a private click graph and doc list (re-id'd to local
//! dense ids), but the **full** category tree and the **full** entity
//! dictionary — sharing those keeps every shard's category/entity node
//! prefix identical, which makes federation's alignment maps trivial for
//! the schema-level nodes and exact for the instance-level ones.

use crate::pipeline::{DocRecord, PipelineInput};
use giant_graph::shard::{partition, ShardPlan};
use giant_text::fnv1a64;
use std::collections::HashMap;

/// The global input split K ways.
#[derive(Debug)]
pub(crate) struct ShardedInput {
    /// The partition (assignments, per-shard graphs and id maps, boundary
    /// report).
    pub(crate) plan: ShardPlan,
    /// One self-contained pipeline input per shard.
    pub(crate) inputs: Vec<PipelineInput>,
}

/// Shard hint per document: the level-1 root of its category chain,
/// round-robined over `k` in root-id order. Documents with a leaf outside
/// the category table (defensive — the adapter never produces one) fall
/// back to a hash of the doc id.
pub(crate) fn doc_hints(input: &PipelineInput, k: usize) -> Vec<usize> {
    let mut root_shard: HashMap<usize, usize> = HashMap::new();
    let mut next = 0usize;
    for c in &input.categories {
        if c.parent.is_none() {
            root_shard.insert(c.id, next % k);
            next += 1;
        }
    }
    let universe = input.docs.len().max(input.click_graph.n_docs());
    (0..universe)
        .map(|d| match input.docs.get(d) {
            Some(doc) => {
                let mut cur = doc.leaf_category;
                let mut hops = 0;
                while let Some(p) = input.categories.get(cur).and_then(|c| c.parent) {
                    cur = p;
                    hops += 1;
                    if hops > input.categories.len() {
                        break; // malformed tree; bail to the fallback
                    }
                }
                root_shard
                    .get(&cur)
                    .copied()
                    .unwrap_or_else(|| (fnv1a64(&(d as u64).to_le_bytes()) % k as u64) as usize)
            }
            None => (fnv1a64(&(d as u64).to_le_bytes()) % k as u64) as usize,
        })
        .collect()
}

/// Splits `input` into `k` self-contained per-shard inputs.
pub(crate) fn build_sharded_input(input: &PipelineInput, k: usize) -> ShardedInput {
    let hints = doc_hints(input, k);
    let plan = partition(&input.click_graph, &hints, k);

    // Sessions follow their first graph-resolvable query's shard; sessions
    // the graph has never seen hash on their first query text. Global
    // session order is preserved within each shard.
    let mut shard_sessions: Vec<Vec<Vec<String>>> = vec![Vec::new(); plan.k];
    for s in &input.sessions {
        let shard = s
            .iter()
            .find_map(|q| input.click_graph.query_id(q))
            .map(|q| plan.query_shard[q.index()])
            .unwrap_or_else(|| {
                let key = s.first().map(String::as_str).unwrap_or("");
                (fnv1a64(key.as_bytes()) % plan.k as u64) as usize
            });
        shard_sessions[shard].push(s.clone());
    }

    let inputs = plan
        .shards
        .iter()
        .zip(shard_sessions)
        .map(|(gs, sessions)| {
            let docs: Vec<DocRecord> = gs
                .doc_map
                .iter()
                .enumerate()
                .filter_map(|(ld, &gd)| {
                    input.docs.get(gd as usize).map(|doc| DocRecord {
                        id: ld,
                        ..doc.clone()
                    })
                })
                .collect();
            PipelineInput {
                click_graph: gs.graph.clone(),
                docs,
                categories: input.categories.clone(),
                sessions,
                entities: input.entities.clone(),
                annotator: input.annotator.clone(),
            }
        })
        .collect();

    ShardedInput { plan, inputs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giant_graph::ClickGraph;
    use giant_text::Annotator;

    fn cat(id: usize, level: u8, parent: Option<usize>) -> crate::pipeline::CategoryRecord {
        crate::pipeline::CategoryRecord {
            id,
            tokens: vec![format!("cat{id}")],
            level,
            parent,
        }
    }

    fn doc(id: usize, leaf: usize) -> DocRecord {
        DocRecord {
            id,
            title: format!("title {id}"),
            sentences: vec![],
            leaf_category: leaf,
            day: 0,
        }
    }

    fn two_domain_input() -> PipelineInput {
        // Two level-1 roots (0, 3), each with a level-2 leaf (1, 4).
        let categories = vec![
            cat(0, 1, None),
            cat(1, 2, Some(0)),
            cat(2, 3, Some(1)),
            cat(3, 1, None),
            cat(4, 2, Some(3)),
        ];
        let mut g = ClickGraph::new();
        g.add_clicks("alpha topic", giant_graph::DocId(0), 5.0);
        g.add_clicks("beta topic", giant_graph::DocId(1), 5.0);
        PipelineInput {
            click_graph: g,
            docs: vec![doc(0, 2), doc(1, 4)],
            categories,
            sessions: vec![
                vec!["alpha topic".into(), "follow up".into()],
                vec!["beta topic".into()],
                vec!["never seen".into()],
            ],
            entities: vec![(vec!["alpha".into()], giant_text::NerTag::None)],
            annotator: Annotator::default(),
        }
    }

    #[test]
    fn docs_follow_their_level1_root() {
        let input = two_domain_input();
        let hints = doc_hints(&input, 2);
        // Doc 0 chains 2→1→0 (root 0 → shard 0); doc 1 chains 4→3 (root 3,
        // second root in id order → shard 1).
        assert_eq!(hints, vec![0, 1]);
        // At k=1 everything lands on shard 0.
        assert_eq!(doc_hints(&input, 1), vec![0, 0]);
    }

    #[test]
    fn shard_inputs_are_self_contained_and_share_schema() {
        let input = two_domain_input();
        let sharded = build_sharded_input(&input, 2);
        assert_eq!(sharded.inputs.len(), 2);
        for (si, shard_input) in sharded.inputs.iter().enumerate() {
            // Full category tree and entity dictionary everywhere.
            assert_eq!(shard_input.categories.len(), input.categories.len());
            assert_eq!(shard_input.entities.len(), input.entities.len());
            // Docs re-id'd to dense local ids aligned with the local graph.
            for (ld, d) in shard_input.docs.iter().enumerate() {
                assert_eq!(d.id, ld);
                let gd = sharded.plan.shards[si].doc_map[ld] as usize;
                assert_eq!(d.title, input.docs[gd].title);
            }
            assert!(shard_input.click_graph.n_docs() <= shard_input.docs.len().max(1));
        }
        // Sessions routed by their first resolvable query; every session
        // lands somewhere.
        let routed: usize = sharded.inputs.iter().map(|i| i.sessions.len()).sum();
        assert_eq!(routed, input.sessions.len());
        let s0 = &sharded.inputs[0].sessions;
        assert!(s0.iter().any(|s| s[0] == "alpha topic"));
        assert!(!s0.iter().any(|s| s[0] == "beta topic"));
    }
}
