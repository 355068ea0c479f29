//! The Query-Title Interaction Graph (paper §3.1, Algorithm 2, Figure 3).
//!
//! Nodes are *unique tokens* across all queries and titles of a cluster plus
//! the special `sos`/`eos` markers. Adjacent tokens in any input are linked
//! by a bi-directional `seq` edge; non-adjacent tokens with a syntactic
//! dependency get a bi-directional typed dashed edge. For every unordered
//! token pair only the *first* edge ever constructed survives — inputs are
//! processed in random-walk weight order, so `seq` edges and high-weight
//! inputs win ("we prefer the 'seq' relationship as it shows a stronger
//! connection than any syntactical dependency").

use giant_text::dep::DepRel;
use giant_text::{AnnotatedText, NerTag, PosTag};
use std::collections::{HashMap, HashSet};

/// One input text of a QTIG: annotated tokens and their dependency arcs.
/// Implemented by [`AnnotatedText`] and by views of annotations held
/// elsewhere, so a graph can be built without copying them.
pub trait QtigInput {
    /// Number of tokens.
    fn n_tokens(&self) -> usize;
    /// Token `i` (`i < n_tokens()`).
    fn token(&self, i: usize) -> QtigToken<'_>;
    /// The dependency arcs as `(head, dep, rel)` over token indices.
    fn arcs(&self) -> impl Iterator<Item = (usize, usize, DepRel)> + '_;
}

/// One annotated token of a [`QtigInput`].
#[derive(Debug, Clone, Copy)]
pub struct QtigToken<'a> {
    /// Lowercased surface form.
    pub text: &'a str,
    /// Part-of-speech tag.
    pub pos: PosTag,
    /// Named-entity tag.
    pub ner: NerTag,
    /// Stop-word flag.
    pub is_stop: bool,
}

impl QtigInput for AnnotatedText {
    fn n_tokens(&self) -> usize {
        self.tokens.len()
    }

    fn token(&self, i: usize) -> QtigToken<'_> {
        let t = &self.tokens[i];
        QtigToken {
            text: &t.text,
            pos: t.pos,
            ner: t.ner,
            is_stop: t.is_stop,
        }
    }

    fn arcs(&self) -> impl Iterator<Item = (usize, usize, DepRel)> + '_ {
        self.arcs.iter().map(|a| (a.head, a.dep, a.rel))
    }
}

/// R-GCN relation ids for QTIG edges. Each undirected edge contributes two
/// directed relations (forward + inverse), mirroring R-GCN's canonical /
/// inverse relation handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QtigRelation {
    /// `seq` edge in reading direction.
    SeqFwd,
    /// `seq` edge against reading direction.
    SeqBwd,
    /// Dependency edge head→dependent.
    DepFwd(DepRel),
    /// Dependency edge dependent→head.
    DepBwd(DepRel),
}

impl QtigRelation {
    /// Total number of relation ids (for R-GCN sizing).
    pub const COUNT: usize = 2 + 2 * DepRel::ALL.len();

    /// Stable dense relation id.
    pub fn index(self) -> usize {
        match self {
            QtigRelation::SeqFwd => 0,
            QtigRelation::SeqBwd => 1,
            QtigRelation::DepFwd(r) => 2 + 2 * r.index(),
            QtigRelation::DepBwd(r) => 3 + 2 * r.index(),
        }
    }
}

/// One QTIG node (a unique token).
#[derive(Debug, Clone)]
pub struct QtigNode {
    /// The token text (`"<sos>"` / `"<eos>"` for the markers).
    pub token: String,
    /// POS tag (first occurrence wins).
    pub pos: PosTag,
    /// NER tag (first occurrence wins).
    pub ner: NerTag,
    /// Stop-word flag.
    pub is_stop: bool,
    /// Character count of the token.
    pub char_count: usize,
    /// Order in which the node was added to the graph (a feature in §3.1).
    pub seq_id: usize,
}

/// The Query-Title Interaction Graph.
#[derive(Debug, Clone)]
pub struct Qtig {
    /// Nodes; index 0 is `sos`, index 1 is `eos`.
    pub nodes: Vec<QtigNode>,
    /// Directed typed edges `(src, dst, rel)`; every undirected edge appears
    /// as a forward/backward pair.
    pub edges: Vec<(usize, usize, QtigRelation)>,
    /// Node-id sequence per input text, *including* the sos/eos endpoints,
    /// in the order the inputs were supplied (highest weight first).
    pub inputs: Vec<Vec<usize>>,
    node_of: HashMap<String, usize>,
    keep_parallel_edges: bool,
}

/// Index of the `sos` node.
pub const SOS: usize = 0;
/// Index of the `eos` node.
pub const EOS: usize = 1;

impl Qtig {
    /// Builds the QTIG from annotated inputs (queries first, then titles,
    /// each list in descending random-walk weight).
    pub fn build<T: QtigInput>(inputs: &[T]) -> Self {
        Self::build_with_options(inputs, false)
    }

    /// Ablation A1 (DESIGN.md §4): `keep_parallel_edges = true` disables the
    /// first-edge-wins rule and keeps every seq/dependency edge between a
    /// pair — the configuration §3.1 reports as empirically worse.
    pub fn build_with_options<T: QtigInput>(inputs: &[T], keep_parallel_edges: bool) -> Self {
        let mut g = Qtig {
            nodes: Vec::new(),
            edges: Vec::new(),
            inputs: Vec::new(),
            node_of: HashMap::new(),
            keep_parallel_edges,
        };
        g.push_node("<sos>", PosTag::Other, NerTag::None, false);
        g.push_node("<eos>", PosTag::Other, NerTag::None, false);

        let mut connected: HashSet<(usize, usize)> = HashSet::new();
        g.keep_parallel_edges = keep_parallel_edges;

        // Pass 1 (Algorithm 2, lines 2–7): nodes + seq edges.
        for text in inputs {
            let mut seq = Vec::with_capacity(text.n_tokens() + 2);
            seq.push(SOS);
            for i in 0..text.n_tokens() {
                let id = g.node_id_or_insert(text.token(i));
                seq.push(id);
            }
            seq.push(EOS);
            for w in seq.windows(2) {
                g.connect_seq(w[0], w[1], &mut connected);
            }
            g.inputs.push(seq);
        }

        // Pass 2 (lines 8–12): dependency edges between non-adjacent pairs.
        for (ti, text) in inputs.iter().enumerate() {
            let seq = &g.inputs[ti];
            for (head, dep, rel) in text.arcs() {
                // +1: inputs are offset by the leading sos.
                let h = seq[head + 1];
                let d = seq[dep + 1];
                if h == d {
                    continue; // merged tokens
                }
                let key = pair_key(h, d);
                if !g.keep_parallel_edges && connected.contains(&key) {
                    continue; // first edge wins
                }
                connected.insert(key);
                g.edges.push((h, d, QtigRelation::DepFwd(rel)));
                g.edges.push((d, h, QtigRelation::DepBwd(rel)));
            }
        }
        g
    }

    fn push_node(&mut self, token: &str, pos: PosTag, ner: NerTag, is_stop: bool) -> usize {
        let id = self.nodes.len();
        self.nodes.push(QtigNode {
            token: token.to_owned(),
            pos,
            ner,
            is_stop,
            char_count: token.chars().count(),
            seq_id: id,
        });
        self.node_of.insert(token.to_owned(), id);
        id
    }

    fn node_id_or_insert(&mut self, tok: QtigToken<'_>) -> usize {
        if let Some(&id) = self.node_of.get(tok.text) {
            return id;
        }
        self.push_node(tok.text, tok.pos, tok.ner, tok.is_stop)
    }

    fn connect_seq(&mut self, a: usize, b: usize, connected: &mut HashSet<(usize, usize)>) {
        if a == b {
            return;
        }
        let key = pair_key(a, b);
        if !self.keep_parallel_edges && connected.contains(&key) {
            return;
        }
        connected.insert(key);
        self.edges.push((a, b, QtigRelation::SeqFwd));
        self.edges.push((b, a, QtigRelation::SeqBwd));
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node id of a token, if present.
    pub fn node_id(&self, token: &str) -> Option<usize> {
        self.node_of.get(token).copied()
    }

    /// Binary gold labels: 1 for nodes whose token is in `gold_tokens`.
    pub fn binary_labels(&self, gold_tokens: &[String]) -> Vec<usize> {
        let gold: HashSet<&str> = gold_tokens.iter().map(|s| s.as_str()).collect();
        self.nodes
            .iter()
            .map(|n| usize::from(gold.contains(n.token.as_str())))
            .collect()
    }

    /// Class labels from a token→class map (class 0 = other, incl. sos/eos).
    pub fn class_labels(&self, classes: &HashMap<String, usize>) -> Vec<usize> {
        self.nodes
            .iter()
            .map(|n| classes.get(&n.token).copied().unwrap_or(0))
            .collect()
    }
}

#[inline]
fn pair_key(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giant_text::Annotator;

    fn annotate(texts: &[&str]) -> Vec<AnnotatedText> {
        let ann = Annotator::default();
        texts.iter().map(|t| ann.annotate(t)).collect()
    }

    #[test]
    fn tokens_are_merged_across_inputs() {
        let q = Qtig::build(&annotate(&[
            "miyazaki animated films",
            "famous miyazaki animated films",
        ]));
        // sos, eos, miyazaki, animated, films, famous = 6 nodes.
        assert_eq!(q.n_nodes(), 6);
        assert_eq!(q.inputs.len(), 2);
        // The shared token maps to one node in both inputs.
        let m = q.node_id("miyazaki").unwrap();
        assert!(q.inputs[0].contains(&m));
        assert!(q.inputs[1].contains(&m));
    }

    #[test]
    fn seq_edges_are_bidirectional_pairs() {
        let q = Qtig::build(&annotate(&["alpha beta"]));
        let a = q.node_id("alpha").unwrap();
        let b = q.node_id("beta").unwrap();
        assert!(q
            .edges
            .iter()
            .any(|&(s, d, r)| s == a && d == b && r == QtigRelation::SeqFwd));
        assert!(q
            .edges
            .iter()
            .any(|&(s, d, r)| s == b && d == a && r == QtigRelation::SeqBwd));
        // sos connects to first, last connects to eos.
        assert!(q
            .edges
            .iter()
            .any(|&(s, d, r)| s == SOS && d == a && r == QtigRelation::SeqFwd));
        assert!(q
            .edges
            .iter()
            .any(|&(s, d, r)| s == b && d == EOS && r == QtigRelation::SeqFwd));
    }

    #[test]
    fn first_edge_wins_seq_beats_dependency() {
        // "famous films": adjacent (seq) AND amod-dependent. Only the seq
        // pair may exist.
        let q = Qtig::build(&annotate(&["famous films"]));
        let f = q.node_id("famous").unwrap();
        let n = q.node_id("films").unwrap();
        let between: Vec<QtigRelation> = q
            .edges
            .iter()
            .filter(|&&(s, d, _)| (s == f && d == n) || (s == n && d == f))
            .map(|&(_, _, r)| r)
            .collect();
        assert_eq!(between.len(), 2);
        assert!(between.contains(&QtigRelation::SeqFwd));
        assert!(between.contains(&QtigRelation::SeqBwd));
    }

    #[test]
    fn non_adjacent_dependencies_get_dashed_edges() {
        // "films about dogs premiere": parser attaches "films" to the verb
        // "premiere" (nsubj) across the prepositional phrase.
        let mut lx = giant_text::Lexicon::with_closed_class();
        lx.insert("films", giant_text::PosTag::Noun);
        lx.insert("dogs", giant_text::PosTag::Noun);
        lx.insert("premiere", giant_text::PosTag::Verb);
        let ann = Annotator::new(lx, giant_text::Gazetteer::new(), giant_text::StopWords::standard());
        let q = Qtig::build(&[ann.annotate("films about dogs premiere today")]);
        let has_dep = q
            .edges
            .iter()
            .any(|&(_, _, r)| matches!(r, QtigRelation::DepFwd(_)));
        assert!(has_dep, "expected at least one dependency edge");
    }

    #[test]
    fn duplicate_edges_are_never_created() {
        let q = Qtig::build(&annotate(&[
            "alpha beta gamma",
            "alpha beta",
            "beta alpha", // reversed adjacency — pair already connected
        ]));
        let mut seen = HashSet::new();
        for &(s, d, _) in &q.edges {
            assert!(seen.insert((s, d)), "duplicate directed edge {s}->{d}");
        }
    }

    #[test]
    fn relation_ids_are_dense_and_unique() {
        let mut ids = vec![
            QtigRelation::SeqFwd.index(),
            QtigRelation::SeqBwd.index(),
        ];
        for r in DepRel::ALL {
            ids.push(QtigRelation::DepFwd(r).index());
            ids.push(QtigRelation::DepBwd(r).index());
        }
        ids.sort_unstable();
        let expect: Vec<usize> = (0..QtigRelation::COUNT).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn binary_labels_mark_gold_tokens() {
        let q = Qtig::build(&annotate(&["famous miyazaki films"]));
        let gold = vec!["miyazaki".to_owned(), "films".to_owned()];
        let labels = q.binary_labels(&gold);
        assert_eq!(labels[q.node_id("miyazaki").unwrap()], 1);
        assert_eq!(labels[q.node_id("films").unwrap()], 1);
        assert_eq!(labels[q.node_id("famous").unwrap()], 0);
        assert_eq!(labels[SOS], 0);
    }

    #[test]
    fn keep_parallel_edges_retains_duplicates() {
        let ann = Annotator::default();
        let inputs: Vec<AnnotatedText> =
            ["famous films", "famous films"].iter().map(|t| ann.annotate(t)).collect();
        let dedup = Qtig::build(&inputs);
        let all = Qtig::build_with_options(&inputs, true);
        assert!(all.edges.len() > dedup.edges.len());
    }

    #[test]
    fn empty_input_produces_markers_only() {
        let q = Qtig::build::<AnnotatedText>(&[]);
        assert_eq!(q.n_nodes(), 2);
        assert!(q.edges.is_empty());
    }
}
