//! Document tagging (paper §4): concepts via key-entity parents + TF-IDF
//! coherence with a probabilistic fallback (eq. 12–14); events/topics via
//! LCS matching combined with the Duet matcher.
//!
//! Serving note: the tagger reads an [`OntologySnapshot`] — key-entity
//! detection is an inverted-index lookup over the entity dictionary instead
//! of a scan of every surface, and the eq. (13) concept-token posting lists
//! are precomputed at freeze time. Model resources (TF-IDF table, Duet
//! matcher, phrase encoder) arrive bundled in [`TagResources`], the unit the
//! `OntologyService` publishes alongside each snapshot version.

use crate::duet::{duet_features, DuetMatcher};
use giant_ontology::{NodeId, NodeKind, OntologySnapshot};
use giant_text::embedding::PhraseEncoder;
use giant_text::{TfIdf, Vocab};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Tagging thresholds.
#[derive(Debug, Clone, Copy)]
pub struct TaggingConfig {
    /// Minimum TF-IDF coherence between document title and concept context.
    pub coherence_threshold: f64,
    /// Minimum probability for the eq. (12) fallback.
    pub fallback_threshold: f64,
    /// Minimum LCS fraction of the event phrase for event/topic tagging.
    pub lcs_min_fraction: f64,
    /// Minimum mining support for a concept to be used as a tag (one-off
    /// noise phrases have little click mass behind them).
    pub min_concept_support: f64,
}

impl Default for TaggingConfig {
    fn default() -> Self {
        Self {
            coherence_threshold: 0.12,
            fallback_threshold: 0.05,
            lcs_min_fraction: 0.8,
            min_concept_support: 0.0,
        }
    }
}

/// Tags assigned to one document.
#[derive(Debug, Clone, Default)]
pub struct DocTags {
    /// Concept tags with scores.
    pub concepts: Vec<(NodeId, f64)>,
    /// Event tags with scores.
    pub events: Vec<(NodeId, f64)>,
    /// Topic tags with scores.
    pub topics: Vec<(NodeId, f64)>,
}

/// The model resources the tagger needs beyond the ontology snapshot.
/// Shared pieces (encoder, vocab, TF-IDF, Duet) are `Arc`ed so one trained
/// set serves many published versions without retraining.
#[derive(Debug, Clone)]
pub struct TagResources {
    /// Concept node → context-enriched tokens (phrase + top clicked titles).
    pub concept_contexts: HashMap<NodeId, Vec<String>>,
    /// Event/topic phrases to match: `(node, tokens)`.
    pub event_phrases: Vec<(NodeId, Vec<String>)>,
    /// TF-IDF table over titles.
    pub tfidf: Arc<TfIdf>,
    /// Trained Duet matcher.
    pub duet: Arc<DuetMatcher>,
    /// Phrase encoder for Duet's distributed channel.
    pub encoder: Arc<PhraseEncoder>,
    /// Vocabulary for the encoder.
    pub vocab: Arc<Vocab>,
    /// Thresholds.
    pub config: TaggingConfig,
}

/// The document tagger: a snapshot plus its model resources.
pub struct DocumentTagger<'a> {
    /// Frozen ontology.
    pub snapshot: &'a OntologySnapshot,
    /// Model resources.
    pub resources: &'a TagResources,
}

impl DocumentTagger<'_> {
    /// Finds the key entities of a document by dictionary matching over the
    /// title and body: every entity whose canonical surface occurs as a
    /// contiguous token run, in ascending node-id order.
    pub fn key_entities(&self, title_tokens: &[String], sentences: &[Vec<String>]) -> Vec<NodeId> {
        let mut found = std::collections::BTreeSet::new();
        found.extend(self.snapshot.contained_nodes(title_tokens, NodeKind::Entity, false));
        for s in sentences {
            found.extend(self.snapshot.contained_nodes(s, NodeKind::Entity, false));
        }
        found.into_iter().collect()
    }

    /// Tags one document.
    pub fn tag(&self, title: &str, sentences: &[String]) -> DocTags {
        let snap = self.snapshot;
        let res = self.resources;
        let title_tokens = giant_text::tokenize(title);
        let sent_tokens: Vec<Vec<String>> =
            sentences.iter().map(|s| giant_text::tokenize(s)).collect();
        let entities = self.key_entities(&title_tokens, &sent_tokens);

        let mut tags = DocTags::default();
        // --- Concepts via parents of the key entities (matching approach).
        let mut seen = HashSet::new();
        let mut any_parent = false;
        let mut title_vec = None;
        for &e in &entities {
            for &parent in snap.parents(e) {
                let node = snap.node(parent);
                if node.kind != NodeKind::Concept
                    || node.support < res.config.min_concept_support
                    || !seen.insert(parent)
                {
                    continue;
                }
                any_parent = true;
                let ctx = res
                    .concept_contexts
                    .get(&parent)
                    .unwrap_or(&node.phrase.tokens);
                let title_vec = title_vec.get_or_insert_with(|| {
                    res.tfidf.vectorize(title_tokens.iter().map(String::as_str))
                });
                let score = title_vec.cosine(&res.tfidf.vectorize(ctx.iter().map(String::as_str)));
                if score >= res.config.coherence_threshold {
                    tags.concepts.push((parent, score));
                }
            }
        }
        // --- Probabilistic fallback (eq. 12–14) when no parent was usable.
        if !any_parent && !entities.is_empty() {
            let probs = self.fallback_concepts(&entities, &sent_tokens);
            for (c, p) in probs {
                if p >= res.config.fallback_threshold {
                    tags.concepts.push((c, p));
                }
            }
        }
        tags.concepts
            .sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        // Relative cut: weak tags far below the best coherent tag are noise.
        if let Some(best) = tags.concepts.first().map(|(_, s)| *s) {
            tags.concepts.retain(|(_, s)| *s >= 0.6 * best);
        }

        // --- Events & topics: LCS + Duet over title + first sentence (§4).
        let mut target = title_tokens.clone();
        if let Some(first) = sent_tokens.first() {
            target.extend(first.iter().cloned());
        }
        let present: HashSet<&str> = target.iter().map(String::as_str).collect();
        for (node, phrase) in &res.event_phrases {
            if phrase.is_empty() {
                continue;
            }
            // Every token an LCS matches is present in `target`, so the
            // count of present phrase tokens bounds `lcs_len` from above;
            // dividing both by the same positive length keeps the order,
            // so a bound under the cut proves the LCS fraction is too.
            // Count down the misses and stop as soon as that holds.
            let len = phrase.len() as f64;
            let mut bound = phrase.len();
            let below_cut = phrase.iter().any(|t| {
                !present.contains(t.as_str()) && {
                    bound -= 1;
                    (bound as f64 / len) < res.config.lcs_min_fraction
                }
            });
            if below_cut {
                continue;
            }
            let lcs = giant_text::lcs_len(phrase, &target) as f64 / len;
            if lcs < res.config.lcs_min_fraction {
                continue;
            }
            let feats = duet_features(phrase, &target, &res.encoder, &res.vocab);
            if res.duet.matches(&feats) {
                let kind = snap.node(*node).kind;
                let entry = (*node, lcs);
                match kind {
                    NodeKind::Event => tags.events.push(entry),
                    NodeKind::Topic => tags.topics.push(entry),
                    _ => {}
                }
            }
        }
        tags.events.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        tags.topics.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        tags
    }

    /// Eq. (12)–(14): `P(p_c|d) = Σ_i P(p_c|e_i) P(e_i|d)` with
    /// `P(p_c|x_j) = 1/|P^c_{x_j}|` for context words `x_j` of the entity.
    /// The concept posting lists come precomputed from the snapshot.
    ///
    /// Accumulation runs over `BTreeMap`s deliberately: float addition is
    /// order-sensitive, and `HashMap`'s per-instance random iteration order
    /// would make repeated identical requests differ in score low bits —
    /// breaking the serving layer's byte-identical-responses guarantee.
    fn fallback_concepts(
        &self,
        entities: &[NodeId],
        sentences: &[Vec<String>],
    ) -> Vec<(NodeId, f64)> {
        use std::collections::BTreeMap;
        let snap = self.snapshot;
        // Document frequency of each entity (eq. 12's P(e|d)).
        let ent_tokens: Vec<(NodeId, &[String])> = entities
            .iter()
            .map(|&e| (e, snap.node(e).phrase.tokens.as_slice()))
            .collect();
        let mut mention_count: BTreeMap<NodeId, f64> = BTreeMap::new();
        for s in sentences {
            for (e, toks) in &ent_tokens {
                if contains_seq(s, toks) {
                    *mention_count.entry(*e).or_insert(0.0) += 1.0;
                }
            }
        }
        let total_mentions: f64 = mention_count.values().sum::<f64>().max(1.0);

        let mut scores: BTreeMap<NodeId, f64> = BTreeMap::new();
        for (e, toks) in &ent_tokens {
            let p_e_d = mention_count.get(e).copied().unwrap_or(0.0) / total_mentions;
            if p_e_d == 0.0 {
                continue;
            }
            // Context words: tokens co-occurring with the entity in a sentence.
            let mut ctx_counts: BTreeMap<&str, f64> = BTreeMap::new();
            let mut ctx_total = 0.0;
            for s in sentences {
                if !contains_seq(s, toks) {
                    continue;
                }
                for t in s {
                    if toks.contains(t) {
                        continue;
                    }
                    *ctx_counts.entry(t.as_str()).or_insert(0.0) += 1.0;
                    ctx_total += 1.0;
                }
            }
            if ctx_total == 0.0 {
                continue;
            }
            for (x, cnt) in ctx_counts {
                let cands = snap.concepts_with_token(x);
                if cands.is_empty() {
                    continue;
                }
                let p_c_x = 1.0 / cands.len() as f64;
                let p_x_e = cnt / ctx_total;
                for &c in cands {
                    *scores.entry(c).or_insert(0.0) += p_c_x * p_x_e * p_e_d;
                }
            }
        }
        let mut out: Vec<(NodeId, f64)> = scores.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        out
    }
}

fn contains_seq(haystack: &[String], needle: &[String]) -> bool {
    !needle.is_empty()
        && haystack.len() >= needle.len()
        && (0..=haystack.len() - needle.len())
            .any(|i| &haystack[i..i + needle.len()] == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duet::DuetConfig;
    use giant_ontology::{Ontology, Phrase};
    use giant_text::embedding::{SgnsConfig, WordEmbeddings};

    struct Fixture {
        snapshot: OntologySnapshot,
        resources: TagResources,
    }

    fn fixture() -> Fixture {
        let mut ontology = Ontology::new();
        let concept =
            ontology.add_node(NodeKind::Concept, Phrase::from_text("electric cars"), 1.0);
        let veltro = ontology.add_node(NodeKind::Entity, Phrase::from_text("veltro x9"), 1.0);
        ontology.add_node(NodeKind::Entity, Phrase::from_text("kario s4"), 1.0);
        ontology.add_is_a(concept, veltro, 1.0).unwrap();
        let event = ontology.add_event(Phrase::from_text("quanta motors recalls veltro x9"), 1.0, 4);
        let mut contexts = HashMap::new();
        contexts.insert(
            concept,
            giant_text::tokenize("electric cars top 10 electric cars of 2018"),
        );
        let mut tfidf = TfIdf::new();
        for t in [
            "top 10 electric cars of 2018",
            "veltro x9 review",
            "quanta motors recalls veltro x9",
            "unrelated title entirely",
        ] {
            let toks = giant_text::tokenize(t);
            tfidf.add_doc(toks.iter().map(|s| s.as_str()));
        }
        // Tiny encoder.
        let mut vocab = Vocab::new();
        let sents: Vec<Vec<giant_text::TokenId>> = (0..20)
            .map(|_| {
                giant_text::tokenize("quanta motors recalls veltro x9 electric cars")
                    .iter()
                    .map(|t| vocab.intern(t))
                    .collect()
            })
            .collect();
        let emb = WordEmbeddings::train(&sents, vocab.len(), &SgnsConfig::default());
        let encoder = PhraseEncoder::new(emb);
        // Duet trained on synthetic separable features.
        let mut examples = Vec::new();
        for _ in 0..20 {
            examples.push((vec![0.95, 0.95, 0.9, 0.6, 0.5, 1.0], true));
            examples.push((vec![0.1, 0.15, 0.0, 0.1, 0.3, 0.0], false));
        }
        let duet = DuetMatcher::train(&examples, DuetConfig::default());
        let events = vec![(event, giant_text::tokenize("quanta motors recalls veltro x9"))];
        Fixture {
            snapshot: OntologySnapshot::freeze(&ontology),
            resources: TagResources {
                concept_contexts: contexts,
                event_phrases: events,
                tfidf: Arc::new(tfidf),
                duet: Arc::new(duet),
                encoder: Arc::new(encoder),
                vocab: Arc::new(vocab),
                config: TaggingConfig::default(),
            },
        }
    }

    fn tagger(f: &Fixture) -> DocumentTagger<'_> {
        DocumentTagger {
            snapshot: &f.snapshot,
            resources: &f.resources,
        }
    }

    #[test]
    fn concept_tag_via_entity_parent() {
        let f = fixture();
        let t = tagger(&f);
        let tags = t.tag(
            "veltro x9 review of 2018 electric cars",
            &["veltro x9 is great".to_owned()],
        );
        assert!(!tags.concepts.is_empty(), "expected a concept tag");
        let concept = f.snapshot.find(NodeKind::Concept, "electric cars").unwrap();
        assert_eq!(tags.concepts[0].0, concept);
    }

    #[test]
    fn event_tag_requires_lcs_and_duet() {
        let f = fixture();
        let t = tagger(&f);
        let tags = t.tag(
            "breaking : quanta motors recalls veltro x9",
            &["the recall affects thousands".to_owned()],
        );
        assert_eq!(tags.events.len(), 1);
        // A document without the phrase gets no event tag.
        let tags = t.tag("veltro x9 wins design award", &[]);
        assert!(tags.events.is_empty());
    }

    #[test]
    fn fallback_fires_when_no_parents_exist() {
        let f = fixture();
        let t = tagger(&f);
        // kario s4 has no parent concept; context words "electric"/"cars"
        // point to the concept via eq. (13)-(14).
        let tags = t.tag(
            "kario s4 first look",
            &["kario s4 joins the electric cars wave".to_owned()],
        );
        let concept = f.snapshot.find(NodeKind::Concept, "electric cars").unwrap();
        assert!(
            tags.concepts.iter().any(|(c, _)| *c == concept),
            "fallback failed: {tags:?}"
        );
    }

    #[test]
    fn no_entities_no_tags() {
        let f = fixture();
        let t = tagger(&f);
        let tags = t.tag("totally unrelated text", &["nothing here".to_owned()]);
        assert!(tags.concepts.is_empty());
        assert!(tags.events.is_empty());
    }

    #[test]
    fn key_entities_found_in_title_and_body() {
        let f = fixture();
        let t = tagger(&f);
        let title = giant_text::tokenize("veltro x9 arrives");
        let body = vec![giant_text::tokenize("kario s4 responds")];
        let ents = t.key_entities(&title, &body);
        assert_eq!(ents.len(), 2);
    }
}
