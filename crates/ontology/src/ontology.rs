//! The Attention Ontology store: nodes, typed edges, traversal, statistics.
//!
//! Paper §2: the AO is a DAG over five node kinds with `isA`, `involve` and
//! `correlate` edges. This store enforces acyclicity of the `isA` hierarchy
//! on insertion (cycle-creating edges are rejected), deduplicates nodes by
//! `(kind, surface)`, and provides the traversals the applications need
//! (ancestors for tagging, children for query rewriting, correlate
//! neighbourhoods for recommendation).

use crate::edge::EdgeKind;
use crate::node::{AttentionNode, NodeId, NodeKind, Phrase};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Errors produced by ontology mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OntologyError {
    /// The edge would close an `isA` cycle.
    CycleDetected {
        /// Attempted parent.
        parent: NodeId,
        /// Attempted child.
        child: NodeId,
    },
    /// A referenced node id does not exist.
    InvalidNode(NodeId),
    /// Self-loops are never meaningful in the AO.
    SelfLoop(NodeId),
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OntologyError::CycleDetected { parent, child } => {
                write!(f, "isA edge {}→{} would create a cycle", parent.0, child.0)
            }
            OntologyError::InvalidNode(n) => write!(f, "node {} does not exist", n.0),
            OntologyError::SelfLoop(n) => write!(f, "self loop on node {}", n.0),
        }
    }
}

impl std::error::Error for OntologyError {}

/// What happened when an alias surface was registered.
///
/// `(kind, surface)` lookup keys are **first-registration-wins**: once a
/// surface maps to a node — as its canonical phrase or as an earlier alias —
/// no later registration may rebind it. The losing registration is not an
/// error (phrase normalization legitimately produces variants colliding with
/// existing nodes) but callers that care can log or count the conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasOutcome {
    /// The surface was free and now resolves to the node.
    Registered,
    /// The surface already resolves to this same node (no-op).
    AlreadyOwn,
    /// The surface already resolves to a *different* node, which keeps it.
    Conflict {
        /// The node that owns the surface.
        existing: NodeId,
    },
}

/// Per-kind node/edge counts (Table 1 / Table 2 support).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OntologyStats {
    /// Node count per [`NodeKind`] (indexed by `NodeKind::index()`).
    pub nodes_by_kind: [usize; 5],
    /// Edge count per [`EdgeKind`] (correlate pairs counted once).
    pub edges_by_kind: [usize; 3],
}

impl OntologyStats {
    /// Total node count.
    pub fn total_nodes(&self) -> usize {
        self.nodes_by_kind.iter().sum()
    }

    /// Total edge count.
    pub fn total_edges(&self) -> usize {
        self.edges_by_kind.iter().sum()
    }
}

/// The Attention Ontology.
#[derive(Debug, Clone, Default)]
pub struct Ontology {
    nodes: Vec<AttentionNode>,
    by_surface: HashMap<(NodeKind, String), NodeId>,
    out: Vec<Vec<(NodeId, EdgeKind, f64)>>,
    inc: Vec<Vec<(NodeId, EdgeKind, f64)>>,
    edge_counts: [usize; 3],
}

impl Ontology {
    /// An empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Adds (or finds) a node of `kind` with `phrase`. Re-adding the same
    /// `(kind, surface)` returns the existing id and accumulates `support`.
    pub fn add_node(&mut self, kind: NodeKind, phrase: Phrase, support: f64) -> NodeId {
        let key = (kind, phrase.surface());
        if let Some(&id) = self.by_surface.get(&key) {
            self.nodes[id.index()].support += support;
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.by_surface.insert(key, id);
        self.nodes.push(AttentionNode {
            id,
            kind,
            phrase,
            aliases: Vec::new(),
            support,
            time: None,
        });
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        id
    }

    /// Adds an event node with a time stamp (day index).
    pub fn add_event(&mut self, phrase: Phrase, support: f64, time: u32) -> NodeId {
        let id = self.add_node(NodeKind::Event, phrase, support);
        self.nodes[id.index()].time = Some(time);
        id
    }

    /// Registers an alias phrase for `id` (phrase normalization merge) and
    /// indexes it so lookups by the alias surface find the node.
    ///
    /// First registration wins: if `(kind, surface)` already resolves to a
    /// different node the existing mapping is kept untouched — the alias is
    /// neither indexed nor recorded on `id` — and the conflict is reported
    /// via [`AliasOutcome::Conflict`] instead of silently rebinding lookups.
    pub fn add_alias(&mut self, id: NodeId, alias: Phrase) -> AliasOutcome {
        let kind = self.nodes[id.index()].kind;
        let key = (kind, alias.surface());
        if let Some(&existing) = self.by_surface.get(&key) {
            return if existing == id {
                AliasOutcome::AlreadyOwn
            } else {
                AliasOutcome::Conflict { existing }
            };
        }
        self.by_surface.insert(key, id);
        self.nodes[id.index()].aliases.push(alias);
        AliasOutcome::Registered
    }

    /// Finds a node by kind and surface form (canonical or alias).
    pub fn find(&self, kind: NodeKind, surface: &str) -> Option<NodeId> {
        self.by_surface.get(&(kind, surface.to_owned())).copied()
    }

    /// The node payload.
    pub fn node(&self, id: NodeId) -> &AttentionNode {
        &self.nodes[id.index()]
    }

    /// Mutable node payload.
    pub fn node_mut(&mut self, id: NodeId) -> &mut AttentionNode {
        &mut self.nodes[id.index()]
    }

    /// All nodes of a kind, in id order.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = &AttentionNode> {
        self.nodes.iter().filter(move |n| n.kind == kind)
    }

    /// All nodes.
    pub fn nodes(&self) -> &[AttentionNode] {
        &self.nodes
    }

    /// Outgoing edges of `id` as stored: `(destination, kind, weight)` in
    /// insertion order (correlates appear in both endpoints' lists).
    pub fn out_edges(&self, id: NodeId) -> &[(NodeId, EdgeKind, f64)] {
        &self.out[id.index()]
    }

    /// Incoming edges of `id` as stored: `(source, kind, weight)` in
    /// insertion order.
    pub fn in_edges(&self, id: NodeId) -> &[(NodeId, EdgeKind, f64)] {
        &self.inc[id.index()]
    }

    /// The surface lookup table, exactly as registration built it (canonical
    /// phrases plus first-registration-wins aliases). The snapshot freezer
    /// copies this rather than re-deriving ownership from node order.
    pub(crate) fn surface_index(&self) -> &HashMap<(NodeKind, String), NodeId> {
        &self.by_surface
    }

    /// Reconstructs an ontology directly from its structural parts (node
    /// payloads in id order plus per-node out/in adjacency). Used by the
    /// delta applier, which edits these parts wholesale instead of
    /// replaying mutations.
    ///
    /// The surface index is rebuilt by replaying registrations in id order
    /// (canonical phrase first, then recorded aliases, first-registration
    /// wins) — the same order [`crate::io::load`] replays a dump in. For
    /// any ontology built through the public mutation API this reproduces
    /// `by_surface` exactly: `add_node` deduplicates against canonical
    /// *and* alias surfaces, so canonical keys are unique, and losing
    /// aliases are never recorded on their node, so every recorded alias
    /// re-registers cleanly.
    pub(crate) fn from_parts(
        nodes: Vec<AttentionNode>,
        out: Vec<Vec<(NodeId, EdgeKind, f64)>>,
        inc: Vec<Vec<(NodeId, EdgeKind, f64)>>,
    ) -> Self {
        debug_assert_eq!(nodes.len(), out.len());
        debug_assert_eq!(nodes.len(), inc.len());
        let mut by_surface = HashMap::new();
        for n in &nodes {
            by_surface.entry((n.kind, n.phrase.surface())).or_insert(n.id);
            for a in &n.aliases {
                by_surface.entry((n.kind, a.surface())).or_insert(n.id);
            }
        }
        let mut edge_counts = [0usize; 3];
        for es in &out {
            for &(_, k, _) in es {
                edge_counts[k.index()] += 1;
            }
        }
        // Correlates are stored in both directions but counted once.
        edge_counts[EdgeKind::Correlate.index()] /= 2;
        Self {
            nodes,
            by_surface,
            out,
            inc,
            edge_counts,
        }
    }

    /// The raw out-adjacency table, for the delta differ.
    pub(crate) fn out_table(&self) -> &[Vec<(NodeId, EdgeKind, f64)>] {
        &self.out
    }

    /// The raw in-adjacency table, for the delta differ.
    pub(crate) fn in_table(&self) -> &[Vec<(NodeId, EdgeKind, f64)>] {
        &self.inc
    }

    fn check(&self, id: NodeId) -> Result<(), OntologyError> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(OntologyError::InvalidNode(id))
        }
    }

    /// True when `dst` is reachable from `src` following `kind` edges.
    fn reachable_via(&self, src: NodeId, dst: NodeId, kind: EdgeKind) -> bool {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([src]);
        seen.insert(src);
        while let Some(u) = queue.pop_front() {
            if u == dst {
                return true;
            }
            for (v, k, _) in &self.out[u.index()] {
                if *k == kind && seen.insert(*v) {
                    queue.push_back(*v);
                }
            }
        }
        false
    }

    /// True when an edge `src --kind--> dst` already exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId, kind: EdgeKind) -> bool {
        self.out
            .get(src.index())
            .map(|es| es.iter().any(|(v, k, _)| *v == dst && *k == kind))
            .unwrap_or(false)
    }

    fn push_edge(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind, w: f64) {
        self.out[src.index()].push((dst, kind, w));
        self.inc[dst.index()].push((src, kind, w));
    }

    /// Adds `parent --isA--> child` ("child is an instance of parent"),
    /// rejecting duplicates silently and cycles with an error.
    pub fn add_is_a(&mut self, parent: NodeId, child: NodeId, w: f64) -> Result<(), OntologyError> {
        self.check(parent)?;
        self.check(child)?;
        if parent == child {
            return Err(OntologyError::SelfLoop(parent));
        }
        if self.has_edge(parent, child, EdgeKind::IsA) {
            return Ok(());
        }
        if self.reachable_via(child, parent, EdgeKind::IsA) {
            return Err(OntologyError::CycleDetected { parent, child });
        }
        self.push_edge(parent, child, EdgeKind::IsA, w);
        self.edge_counts[EdgeKind::IsA.index()] += 1;
        Ok(())
    }

    /// Adds `source --involve--> involved` (source is an event/topic).
    pub fn add_involve(
        &mut self,
        source: NodeId,
        involved: NodeId,
        w: f64,
    ) -> Result<(), OntologyError> {
        self.check(source)?;
        self.check(involved)?;
        if source == involved {
            return Err(OntologyError::SelfLoop(source));
        }
        if self.has_edge(source, involved, EdgeKind::Involve) {
            return Ok(());
        }
        self.push_edge(source, involved, EdgeKind::Involve, w);
        self.edge_counts[EdgeKind::Involve.index()] += 1;
        Ok(())
    }

    /// Adds a symmetric correlate edge (stored in both directions, counted
    /// once).
    pub fn add_correlate(&mut self, a: NodeId, b: NodeId, w: f64) -> Result<(), OntologyError> {
        self.check(a)?;
        self.check(b)?;
        if a == b {
            return Err(OntologyError::SelfLoop(a));
        }
        if self.has_edge(a, b, EdgeKind::Correlate) {
            return Ok(());
        }
        self.push_edge(a, b, EdgeKind::Correlate, w);
        self.push_edge(b, a, EdgeKind::Correlate, w);
        self.edge_counts[EdgeKind::Correlate.index()] += 1;
        Ok(())
    }

    /// Direct isA children (instances) of `id`.
    pub fn children_of(&self, id: NodeId) -> Vec<NodeId> {
        self.out[id.index()]
            .iter()
            .filter(|(_, k, _)| *k == EdgeKind::IsA)
            .map(|(v, _, _)| *v)
            .collect()
    }

    /// Direct isA parents of `id`.
    pub fn parents_of(&self, id: NodeId) -> Vec<NodeId> {
        self.inc[id.index()]
            .iter()
            .filter(|(_, k, _)| *k == EdgeKind::IsA)
            .map(|(v, _, _)| *v)
            .collect()
    }

    /// Transitive isA ancestors with their hop distance from `id`.
    pub fn ancestors(&self, id: NodeId) -> Vec<(NodeId, u32)> {
        let mut out = Vec::new();
        let mut seen = HashSet::from([id]);
        let mut queue = VecDeque::from([(id, 0u32)]);
        while let Some((u, d)) = queue.pop_front() {
            for p in self.parents_of(u) {
                if seen.insert(p) {
                    out.push((p, d + 1));
                    queue.push_back((p, d + 1));
                }
            }
        }
        out
    }

    /// Transitive isA descendants with hop distance.
    pub fn descendants(&self, id: NodeId) -> Vec<(NodeId, u32)> {
        let mut out = Vec::new();
        let mut seen = HashSet::from([id]);
        let mut queue = VecDeque::from([(id, 0u32)]);
        while let Some((u, d)) = queue.pop_front() {
            for c in self.children_of(u) {
                if seen.insert(c) {
                    out.push((c, d + 1));
                    queue.push_back((c, d + 1));
                }
            }
        }
        out
    }

    /// Nodes involved in event/topic `id`.
    pub fn involved_in(&self, id: NodeId) -> Vec<NodeId> {
        self.out[id.index()]
            .iter()
            .filter(|(_, k, _)| *k == EdgeKind::Involve)
            .map(|(v, _, _)| *v)
            .collect()
    }

    /// Events/topics that involve `id`.
    pub fn involving(&self, id: NodeId) -> Vec<NodeId> {
        self.inc[id.index()]
            .iter()
            .filter(|(_, k, _)| *k == EdgeKind::Involve)
            .map(|(v, _, _)| *v)
            .collect()
    }

    /// Correlate neighbours of `id` with weights.
    pub fn correlates_of(&self, id: NodeId) -> Vec<(NodeId, f64)> {
        self.out[id.index()]
            .iter()
            .filter(|(_, k, _)| *k == EdgeKind::Correlate)
            .map(|(v, _, w)| (*v, *w))
            .collect()
    }

    /// The deepest common isA ancestor of `a` and `b` ("most fine-grained
    /// common concept ancestor", §3.1 Attention Derivation), if any. Depth is
    /// measured as hops from the arguments; smaller combined distance wins,
    /// ties broken by node id for determinism.
    pub fn finest_common_ancestor(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let da: HashMap<NodeId, u32> = self.ancestors(a).into_iter().collect();
        let db: HashMap<NodeId, u32> = self.ancestors(b).into_iter().collect();
        da.iter()
            .filter_map(|(n, d1)| db.get(n).map(|d2| (*n, d1 + d2)))
            .min_by(|x, y| x.1.cmp(&y.1).then(x.0 .0.cmp(&y.0 .0)))
            .map(|(n, _)| n)
    }

    /// All edges as `(src, dst, kind, weight)`, lazily (correlate listed
    /// once, in the direction it was first added); allocates nothing.
    pub fn edges_iter(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeKind, f64)> + '_ {
        self.out.iter().enumerate().flat_map(|(u, es)| {
            let src = NodeId(u as u32);
            es.iter().filter_map(move |&(v, k, w)| {
                if k == EdgeKind::Correlate && src > v {
                    None // count symmetric pair once
                } else {
                    Some((src, v, k, w))
                }
            })
        })
    }

    /// Per-kind node/edge statistics.
    pub fn stats(&self) -> OntologyStats {
        let mut s = OntologyStats::default();
        for n in &self.nodes {
            s.nodes_by_kind[n.kind.index()] += 1;
        }
        s.edges_by_kind = self.edge_counts;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Phrase {
        Phrase::from_text(s)
    }

    #[test]
    fn node_dedup_accumulates_support() {
        let mut o = Ontology::new();
        let a = o.add_node(NodeKind::Concept, p("economy cars"), 1.0);
        let b = o.add_node(NodeKind::Concept, p("economy cars"), 2.0);
        assert_eq!(a, b);
        assert_eq!(o.node(a).support, 3.0);
        // Same surface under a different kind is a different node.
        let c = o.add_node(NodeKind::Topic, p("economy cars"), 1.0);
        assert_ne!(a, c);
        assert_eq!(o.n_nodes(), 2);
    }

    #[test]
    fn is_a_hierarchy_and_traversal() {
        let mut o = Ontology::new();
        let cars = o.add_node(NodeKind::Category, p("cars"), 1.0);
        let eco = o.add_node(NodeKind::Concept, p("economy cars"), 1.0);
        let civic = o.add_node(NodeKind::Entity, p("honda civic"), 1.0);
        o.add_is_a(cars, eco, 1.0).unwrap();
        o.add_is_a(eco, civic, 1.0).unwrap();
        assert_eq!(o.children_of(cars), vec![eco]);
        assert_eq!(o.parents_of(civic), vec![eco]);
        let anc = o.ancestors(civic);
        assert_eq!(anc, vec![(eco, 1), (cars, 2)]);
        let desc = o.descendants(cars);
        assert_eq!(desc, vec![(eco, 1), (civic, 2)]);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut o = Ontology::new();
        let a = o.add_node(NodeKind::Concept, p("a"), 1.0);
        let b = o.add_node(NodeKind::Concept, p("b"), 1.0);
        let c = o.add_node(NodeKind::Concept, p("c"), 1.0);
        o.add_is_a(a, b, 1.0).unwrap();
        o.add_is_a(b, c, 1.0).unwrap();
        let err = o.add_is_a(c, a, 1.0).unwrap_err();
        assert!(matches!(err, OntologyError::CycleDetected { .. }));
        // Self loops rejected too.
        assert!(matches!(
            o.add_is_a(a, a, 1.0),
            Err(OntologyError::SelfLoop(_))
        ));
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let mut o = Ontology::new();
        let a = o.add_node(NodeKind::Concept, p("a"), 1.0);
        let b = o.add_node(NodeKind::Entity, p("b"), 1.0);
        o.add_is_a(a, b, 1.0).unwrap();
        o.add_is_a(a, b, 1.0).unwrap();
        assert_eq!(o.stats().edges_by_kind[EdgeKind::IsA.index()], 1);
    }

    #[test]
    fn correlate_is_symmetric_counted_once() {
        let mut o = Ontology::new();
        let a = o.add_node(NodeKind::Entity, p("iphone"), 1.0);
        let b = o.add_node(NodeKind::Entity, p("apple"), 1.0);
        o.add_correlate(a, b, 0.9).unwrap();
        assert_eq!(o.correlates_of(a), vec![(b, 0.9)]);
        assert_eq!(o.correlates_of(b), vec![(a, 0.9)]);
        assert_eq!(o.stats().edges_by_kind[EdgeKind::Correlate.index()], 1);
        assert_eq!(o.edges_iter().count(), 1);
    }

    #[test]
    fn involve_edges() {
        let mut o = Ontology::new();
        let ev = o.add_event(p("trade war begins"), 1.0, 3);
        let us = o.add_node(NodeKind::Entity, p("united states"), 1.0);
        o.add_involve(ev, us, 1.0).unwrap();
        assert_eq!(o.involved_in(ev), vec![us]);
        assert_eq!(o.involving(us), vec![ev]);
        assert_eq!(o.node(ev).time, Some(3));
    }

    #[test]
    fn finest_common_ancestor_prefers_deepest() {
        let mut o = Ontology::new();
        let root = o.add_node(NodeKind::Category, p("entertainment"), 1.0);
        let music = o.add_node(NodeKind::Category, p("music"), 1.0);
        let singer = o.add_node(NodeKind::Concept, p("singer"), 1.0);
        let jay = o.add_node(NodeKind::Entity, p("jay chou"), 1.0);
        let taylor = o.add_node(NodeKind::Entity, p("taylor swift"), 1.0);
        o.add_is_a(root, music, 1.0).unwrap();
        o.add_is_a(music, singer, 1.0).unwrap();
        o.add_is_a(singer, jay, 1.0).unwrap();
        o.add_is_a(singer, taylor, 1.0).unwrap();
        assert_eq!(o.finest_common_ancestor(jay, taylor), Some(singer));
        // `ancestors` excludes the node itself, so jay vs singer meet at music.
        assert_eq!(o.finest_common_ancestor(jay, singer), Some(music));
        // The root has no ancestors at all.
        assert_eq!(o.finest_common_ancestor(jay, root), None);
    }

    #[test]
    fn aliases_resolve_to_canonical_node() {
        let mut o = Ontology::new();
        let a = o.add_node(NodeKind::Concept, p("miyazaki animated films"), 1.0);
        assert_eq!(
            o.add_alias(a, p("famous miyazaki animated films")),
            AliasOutcome::Registered
        );
        assert_eq!(
            o.find(NodeKind::Concept, "famous miyazaki animated films"),
            Some(a)
        );
        assert_eq!(o.n_nodes(), 1);
    }

    #[test]
    fn alias_surface_collision_keeps_first_registration() {
        let mut o = Ontology::new();
        let a = o.add_node(NodeKind::Concept, p("fuel efficient cars"), 1.0);
        let b = o.add_node(NodeKind::Concept, p("economy cars"), 1.0);
        // Alias colliding with another node's canonical surface: the
        // canonical mapping survives and the conflict is reported.
        assert_eq!(
            o.add_alias(b, p("fuel efficient cars")),
            AliasOutcome::Conflict { existing: a }
        );
        assert_eq!(o.find(NodeKind::Concept, "fuel efficient cars"), Some(a));
        assert!(o.node(b).aliases.is_empty(), "losing alias must not be recorded");
        // Alias colliding with an earlier alias of another node: same rule.
        assert_eq!(o.add_alias(a, p("thrifty cars")), AliasOutcome::Registered);
        assert_eq!(
            o.add_alias(b, p("thrifty cars")),
            AliasOutcome::Conflict { existing: a }
        );
        assert_eq!(o.find(NodeKind::Concept, "thrifty cars"), Some(a));
        // Re-registering a node's own surface is a no-op, not a conflict.
        assert_eq!(o.add_alias(a, p("thrifty cars")), AliasOutcome::AlreadyOwn);
        assert_eq!(o.node(a).aliases.len(), 1, "own-surface no-op must not duplicate");
        // A different kind is a different key space: no conflict.
        let t = o.add_node(NodeKind::Topic, p("cars"), 1.0);
        assert_eq!(
            o.add_alias(t, p("fuel efficient cars")),
            AliasOutcome::Registered
        );
    }

    #[test]
    fn edges_iter_is_repeatable_and_allocates_lazily() {
        let mut o = Ontology::new();
        let a = o.add_node(NodeKind::Concept, p("a"), 1.0);
        let b = o.add_node(NodeKind::Entity, p("b"), 1.0);
        let c = o.add_node(NodeKind::Entity, p("c"), 1.0);
        o.add_is_a(a, b, 1.0).unwrap();
        o.add_correlate(b, c, 0.5).unwrap();
        o.add_involve(a, c, 0.7).unwrap();
        let collected: Vec<_> = o.edges_iter().collect();
        assert_eq!(collected, o.edges_iter().collect::<Vec<_>>());
        assert_eq!(collected.len(), 3);
        // Streaming consumption needs no Vec.
        assert_eq!(o.edges_iter().filter(|(_, _, k, _)| *k == EdgeKind::Correlate).count(), 1);
    }

    #[test]
    fn stats_count_by_kind() {
        let mut o = Ontology::new();
        o.add_node(NodeKind::Category, p("tech"), 1.0);
        o.add_node(NodeKind::Concept, p("phones"), 1.0);
        o.add_node(NodeKind::Concept, p("cheap phones"), 1.0);
        o.add_event(p("apple launch"), 1.0, 0);
        let s = o.stats();
        assert_eq!(s.nodes_by_kind[NodeKind::Category.index()], 1);
        assert_eq!(s.nodes_by_kind[NodeKind::Concept.index()], 2);
        assert_eq!(s.nodes_by_kind[NodeKind::Event.index()], 1);
        assert_eq!(s.total_nodes(), 4);
    }

    #[test]
    fn invalid_node_errors() {
        let mut o = Ontology::new();
        let a = o.add_node(NodeKind::Concept, p("a"), 1.0);
        let bogus = NodeId(99);
        assert!(matches!(
            o.add_is_a(a, bogus, 1.0),
            Err(OntologyError::InvalidNode(_))
        ));
    }
}
