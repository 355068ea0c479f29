//! Story-tree formation (paper §4, Figure 5).
//!
//! "Constructing a story tree from an attention ontology involves four
//! steps: retrieving correlated events, calculating similarity matrix,
//! hierarchical clustering, and tree formation." Event similarity is
//! eq. (8)–(11): phrase-encoding cosine (`f_m`, BERT in the paper → SGNS
//! mean-pooling here, DESIGN.md S3), trigger-vector cosine (`f_g`) and
//! TF-IDF similarity of the entity sets (`f_e`).

use giant_ontology::{NodeId, OntologySnapshot};
use giant_text::embedding::PhraseEncoder;
use giant_text::{TfIdf, TfIdfVector, Vocab};
use std::collections::HashSet;

/// One event participating in a story.
#[derive(Debug, Clone)]
pub struct StoryEvent {
    /// Ontology node of the event.
    pub node: NodeId,
    /// Phrase tokens.
    pub tokens: Vec<String>,
    /// Trigger verb, when recognised.
    pub trigger: Option<String>,
    /// Involved entity nodes.
    pub entities: Vec<NodeId>,
    /// Day index.
    pub day: u32,
}

/// Similarity oracle implementing eq. (8)–(11).
pub struct EventSimilarity<'a> {
    /// Phrase encoder (the BERT substitute).
    pub encoder: &'a PhraseEncoder,
    /// Vocabulary the encoder was trained against.
    pub vocab: &'a Vocab,
    /// TF-IDF table for entity-set similarity.
    pub tfidf: &'a TfIdf,
    /// Frozen ontology for resolving entity phrases.
    pub snapshot: &'a OntologySnapshot,
}

/// One event prepared for eq. (8): everything a pairwise score needs
/// that depends on one side only, built once per event.
struct PreparedEvent<'p> {
    /// `f_m` input: the phrase encoding.
    encoding: Vec<f32>,
    /// `f_g` input: the trigger verb and its vocabulary id.
    trigger: Option<(&'p str, Option<giant_text::TokenId>)>,
    /// `f_e` input: the TF-IDF vector of the entity-phrase tokens.
    entities: TfIdfVector<'p>,
}

impl<'a> EventSimilarity<'a> {
    fn prepare<'p>(&self, e: &'p StoryEvent) -> PreparedEvent<'p>
    where
        'a: 'p,
    {
        let ids: Vec<giant_text::TokenId> = e
            .tokens
            .iter()
            .filter_map(|t| self.vocab.get(t))
            .collect();
        let snapshot: &'a OntologySnapshot = self.snapshot;
        PreparedEvent {
            encoding: self.encoder.encode(&ids),
            trigger: e.trigger.as_deref().map(|t| (t, self.vocab.get(t))),
            entities: self.tfidf.vectorize(
                e.entities
                    .iter()
                    .flat_map(|&n| snapshot.node(n).phrase.tokens.iter().map(String::as_str)),
            ),
        }
    }

    /// `s(e1, e2) = f_m + f_g + f_e` over two prepared events.
    fn score(&self, a: &PreparedEvent<'_>, b: &PreparedEvent<'_>) -> f64 {
        let f_m = giant_text::embedding::cosine(&a.encoding, &b.encoding) as f64;
        let f_g = match (a.trigger, b.trigger) {
            (Some((ta, ia)), Some((tb, ib))) => {
                if ta == tb {
                    1.0
                } else {
                    match (ia, ib) {
                        (Some(ia), Some(ib)) => {
                            f64::from(self.encoder.embeddings().cosine(ia, ib))
                        }
                        _ => 0.0,
                    }
                }
            }
            _ => 0.0,
        };
        let f_e = a.entities.cosine(&b.entities);
        f_m + f_g + f_e
    }

    /// `s(e1, e2) = f_m + f_g + f_e` (eq. 8).
    pub fn similarity(&self, a: &StoryEvent, b: &StoryEvent) -> f64 {
        self.score(&self.prepare(a), &self.prepare(b))
    }

    /// The symmetric matrix of [`EventSimilarity::similarity`] over
    /// `events` (zero diagonal), preparing each event once rather than
    /// once per pair.
    pub fn similarity_matrix(&self, events: &[StoryEvent]) -> Vec<Vec<f64>> {
        let n = events.len();
        let mut s = vec![vec![0.0f64; n]; n];
        if n < 2 {
            // A seed with no related events: no pair, nothing to prepare.
            return s;
        }
        let prepared: Vec<PreparedEvent<'_>> = events.iter().map(|e| self.prepare(e)).collect();
        for i in 0..n {
            for j in i + 1..n {
                let v = self.score(&prepared[i], &prepared[j]);
                s[i][j] = v;
                s[j][i] = v;
            }
        }
        s
    }
}

/// Story-tree parameters.
#[derive(Debug, Clone, Copy)]
pub struct StoryTreeConfig {
    /// Agglomerative merge threshold on eq. (8) similarity (range ~[0, 3]).
    pub merge_threshold: f64,
}

impl Default for StoryTreeConfig {
    fn default() -> Self {
        Self {
            merge_threshold: 1.2,
        }
    }
}

/// The assembled story tree: time-ordered branches of coherent events.
#[derive(Debug, Clone)]
pub struct StoryTree {
    /// All events, sorted by day.
    pub events: Vec<StoryEvent>,
    /// Branches: each is a set of indices into `events`, internally
    /// day-ordered; branches are ordered by their earliest event.
    pub branches: Vec<Vec<usize>>,
}

impl StoryTree {
    /// ASCII rendering in the spirit of Figure 5.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (bi, branch) in self.branches.iter().enumerate() {
            out.push_str(&format!("branch {}:\n", bi + 1));
            for (step, &ei) in branch.iter().enumerate() {
                let e = &self.events[ei];
                let connector = if step == 0 { "├─" } else { "│  └─" };
                out.push_str(&format!(
                    "{connector} [day {:>2}] {}\n",
                    e.day,
                    e.tokens.join(" ")
                ));
            }
        }
        out
    }

    /// Total number of events.
    pub fn n_events(&self) -> usize {
        self.events.len()
    }
}

/// Retrieves the events correlated with `seed`: sharing at least one entity,
/// or sharing the trigger ("the criteria to retrieve 'correlated' events can
/// be flexible").
pub fn retrieve_related<'a>(
    seed: &StoryEvent,
    pool: &'a [StoryEvent],
) -> Vec<&'a StoryEvent> {
    let seed_entities: HashSet<NodeId> = seed.entities.iter().copied().collect();
    pool.iter()
        .filter(|e| {
            e.node != seed.node
                && (e.entities.iter().any(|x| seed_entities.contains(x))
                    || (e.trigger.is_some() && e.trigger == seed.trigger))
        })
        .collect()
}

/// Builds the story tree around `seed` from its related events.
pub fn build_story_tree(
    seed: StoryEvent,
    related: Vec<StoryEvent>,
    sim: &EventSimilarity<'_>,
    cfg: &StoryTreeConfig,
) -> StoryTree {
    let mut events = vec![seed];
    events.extend(related);
    events.sort_by_key(|e| e.day);
    let n = events.len();
    let s = sim.similarity_matrix(&events);
    // Average-linkage agglomerative clustering down to the threshold.
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..clusters.len() {
            for b in a + 1..clusters.len() {
                let mut total = 0.0;
                let mut count: f64 = 0.0;
                for &i in &clusters[a] {
                    for &j in &clusters[b] {
                        total += s[i][j];
                        count += 1.0;
                    }
                }
                let avg = total / count.max(1.0);
                if best.map(|(_, _, bs)| avg > bs).unwrap_or(true) {
                    best = Some((a, b, avg));
                }
            }
        }
        match best {
            Some((a, b, score)) if score >= cfg.merge_threshold => {
                let merged = clusters.remove(b);
                clusters[a].extend(merged);
            }
            _ => break,
        }
    }
    // "Order the events by time, and put the events in the same cluster into
    // the same branch."
    let mut branches: Vec<Vec<usize>> = clusters
        .into_iter()
        .map(|mut c| {
            c.sort_by_key(|&i| events[i].day);
            c
        })
        .collect();
    branches.sort_by_key(|b| b.first().map(|&i| events[i].day).unwrap_or(u32::MAX));
    StoryTree { events, branches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giant_ontology::{NodeKind, Ontology, Phrase};
    use giant_text::embedding::{SgnsConfig, WordEmbeddings};

    /// A miniature trade-war world: two coherent sub-stories.
    struct Fixture {
        snapshot: OntologySnapshot,
        vocab: Vocab,
        encoder: PhraseEncoder,
        tfidf: TfIdf,
        events: Vec<StoryEvent>,
    }

    fn fixture() -> Fixture {
        let mut ontology = Ontology::new();
        let mut vocab = Vocab::new();
        let usa = ontology.add_node(NodeKind::Entity, Phrase::from_text("usa"), 1.0);
        let china = ontology.add_node(NodeKind::Entity, Phrase::from_text("china"), 1.0);
        let band = ontology.add_node(NodeKind::Entity, Phrase::from_text("velora"), 1.0);
        let texts = [
            ("usa raises tariffs on china", Some("raises"), vec![usa, china], 2u32),
            ("china imposes tariffs on usa", Some("imposes"), vec![china, usa], 5),
            ("usa raises tariffs again", Some("raises"), vec![usa, china], 9),
            ("velora announces world tour", Some("announces"), vec![band], 3),
        ];
        // Train tiny embeddings on sentences echoing the two topics.
        let mut sents = Vec::new();
        for _ in 0..40 {
            sents.push(
                giant_text::tokenize("usa china tariffs trade war imposes raises")
                    .iter()
                    .map(|t| vocab.intern(t))
                    .collect::<Vec<_>>(),
            );
            sents.push(
                giant_text::tokenize("velora tour concert announces stage music")
                    .iter()
                    .map(|t| vocab.intern(t))
                    .collect::<Vec<_>>(),
            );
        }
        let emb = WordEmbeddings::train(&sents, vocab.len(), &SgnsConfig::default());
        let encoder = PhraseEncoder::new(emb);
        let mut tfidf = TfIdf::new();
        tfidf.add_doc(["usa", "china", "tariffs"]);
        tfidf.add_doc(["velora", "tour"]);
        let mut events = Vec::new();
        for (text, trig, ents, day) in texts {
            let node = ontology.add_event(Phrase::from_text(text), 1.0, day);
            events.push(StoryEvent {
                node,
                tokens: giant_text::tokenize(text),
                trigger: trig.map(|s| s.to_owned()),
                entities: ents,
                day,
            });
        }
        Fixture {
            snapshot: OntologySnapshot::freeze(&ontology),
            vocab,
            encoder,
            tfidf,
            events,
        }
    }

    #[test]
    fn retrieval_uses_shared_entities_or_trigger() {
        let f = fixture();
        let related = retrieve_related(&f.events[0], &f.events);
        let days: Vec<u32> = related.iter().map(|e| e.day).collect();
        assert!(days.contains(&5)); // shares usa/china
        assert!(days.contains(&9));
        assert!(!days.contains(&3)); // the concert shares nothing
    }

    #[test]
    fn tree_orders_events_by_time() {
        let f = fixture();
        let sim = EventSimilarity {
            encoder: &f.encoder,
            vocab: &f.vocab,
            tfidf: &f.tfidf,
            snapshot: &f.snapshot,
        };
        let related: Vec<StoryEvent> = retrieve_related(&f.events[0], &f.events)
            .into_iter()
            .cloned()
            .collect();
        let tree = build_story_tree(f.events[0].clone(), related, &sim, &StoryTreeConfig::default());
        assert_eq!(tree.n_events(), 3);
        let days: Vec<u32> = tree.events.iter().map(|e| e.day).collect();
        let mut sorted = days.clone();
        sorted.sort_unstable();
        assert_eq!(days, sorted);
        // Every event appears in exactly one branch.
        let mut seen: Vec<usize> = tree.branches.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        // Rendering mentions each phrase.
        let txt = tree.render();
        assert!(txt.contains("raises tariffs"));
    }

    #[test]
    fn unrelated_event_lands_in_separate_branch() {
        let f = fixture();
        let sim = EventSimilarity {
            encoder: &f.encoder,
            vocab: &f.vocab,
            tfidf: &f.tfidf,
            snapshot: &f.snapshot,
        };
        // Force-build a tree over all four events.
        let tree = build_story_tree(
            f.events[0].clone(),
            f.events[1..].to_vec(),
            &sim,
            &StoryTreeConfig::default(),
        );
        // The concert event must not share a branch with a tariff event.
        let concert_idx = tree
            .events
            .iter()
            .position(|e| e.tokens.contains(&"tour".to_owned()))
            .unwrap();
        let branch_of_concert = tree
            .branches
            .iter()
            .find(|b| b.contains(&concert_idx))
            .unwrap();
        assert_eq!(branch_of_concert.len(), 1, "concert merged into trade war");
    }

    #[test]
    fn similarity_is_symmetric_and_higher_for_related() {
        let f = fixture();
        let sim = EventSimilarity {
            encoder: &f.encoder,
            vocab: &f.vocab,
            tfidf: &f.tfidf,
            snapshot: &f.snapshot,
        };
        let ab = sim.similarity(&f.events[0], &f.events[1]);
        let ba = sim.similarity(&f.events[1], &f.events[0]);
        assert!((ab - ba).abs() < 1e-9);
        let unrelated = sim.similarity(&f.events[0], &f.events[3]);
        assert!(ab > unrelated, "related {ab} vs unrelated {unrelated}");
    }
}
