//! Attention linking (paper §3.2): the edge-construction strategies.
//!
//! * Attention↔category: co-occurrence in click logs — `P(g|p) = n_g/n_p`,
//!   link when above `δ_g`.
//! * Concept↔entity: a GBDT classifier over manual features of the
//!   (concept, entity, clicked document) triple, trained on a dataset built
//!   automatically from consecutive queries and click-mentions (Figure 4).
//! * Entity↔entity (`correlate`): embeddings trained with a hinge loss on
//!   co-occurrence pairs; pairs closer than a distance threshold correlate.

use giant_nn::{Gbdt, GbdtConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Attention ↔ category
// ---------------------------------------------------------------------------

/// Estimates `P(g | p)` from the categories of the documents clicked for
/// phrase `p` used as a query, and returns every category passing `δ_g`.
///
/// `doc_categories` holds, per clicked document, all category ids it belongs
/// to (leaf plus ancestors — a document votes at every level).
pub fn category_links(doc_categories: &[Vec<usize>], delta_g: f64) -> Vec<(usize, f64)> {
    let n_p = doc_categories.len();
    if n_p == 0 {
        return Vec::new();
    }
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for cats in doc_categories {
        for &g in cats {
            *counts.entry(g).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(usize, f64)> = counts
        .into_iter()
        .map(|(g, n)| (g, n as f64 / n_p as f64))
        .filter(|(_, p)| *p > delta_g)
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

// ---------------------------------------------------------------------------
// Concept ↔ entity (GBDT)
// ---------------------------------------------------------------------------

/// Number of manual features used by the concept–entity classifier.
pub const CE_FEATURE_DIM: usize = 7;

fn contains_seq(haystack: &[String], needle: &[String]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (0..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}

/// Extracts the manual features for a (concept, entity, clicked document)
/// triple. `sentences` are the document's body sentences, tokenized;
/// `session_count` counts how often the entity query directly followed a
/// query for this concept in one user's stream.
pub fn concept_entity_features(
    concept: &[String],
    entity: &[String],
    title: &[String],
    sentences: &[Vec<String>],
    session_count: f64,
) -> Vec<f64> {
    let head = concept.last().cloned().unwrap_or_default();
    let n = sentences.len().max(1) as f64;
    let mut mention_sentences = 0.0;
    let mut with_head = 0.0;
    let mut with_full = 0.0;
    let mut entity_before_concept = 0.0;
    let mut first_mention: Option<usize> = None;
    for (si, s) in sentences.iter().enumerate() {
        let Some(epos) = contains_seq(s, entity) else {
            continue;
        };
        mention_sentences += 1.0;
        first_mention.get_or_insert(si);
        if s.contains(&head) {
            with_head = 1.0;
        }
        if let Some(cpos) = contains_seq(s, concept) {
            with_full = 1.0;
            if epos < cpos {
                entity_before_concept = 1.0;
            }
        }
    }
    let title_jaccard = giant_text::jaccard(
        entity.iter().map(|s| s.as_str()),
        title.iter().map(|s| s.as_str()),
    );
    let first_frac = first_mention
        .map(|i| 1.0 - i as f64 / n)
        .unwrap_or(0.0);
    vec![
        mention_sentences / n,
        with_head,
        with_full,
        entity_before_concept,
        title_jaccard,
        first_frac,
        (1.0 + session_count).ln(),
    ]
}

/// GBDT wrapper deciding isA between a concept and an entity.
#[derive(Debug, Clone)]
pub struct ConceptEntityClassifier {
    gbdt: Gbdt,
}

impl ConceptEntityClassifier {
    /// Trains on `(features, is_member)` pairs.
    pub fn train(examples: &[(Vec<f64>, bool)], cfg: GbdtConfig) -> Self {
        let features: Vec<Vec<f64>> = examples.iter().map(|(f, _)| f.clone()).collect();
        let labels: Vec<f64> = examples.iter().map(|(_, y)| f64::from(*y)).collect();
        Self {
            gbdt: Gbdt::train(&features, &labels, cfg),
        }
    }

    /// Probability that the entity is an instance of the concept.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        self.gbdt.predict_proba(features)
    }

    /// Hard decision at 0.5.
    pub fn predict(&self, features: &[f64]) -> bool {
        self.gbdt.predict(features)
    }
}

// ---------------------------------------------------------------------------
// Entity ↔ entity correlate embeddings
// ---------------------------------------------------------------------------

/// Hinge-loss embedding training parameters (§3.2 "we learn the embedding
/// vectors of entities with Hinge loss, so that the Euclidean distance
/// between two correlated entities will be small").
#[derive(Debug, Clone, Copy)]
pub struct CorrelateConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Epochs over the positive pairs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// Hinge margin.
    pub margin: f64,
    /// Seed.
    pub seed: u64,
    /// Percentile of positive-pair distances used as the correlate
    /// threshold.
    pub threshold_percentile: f64,
}

impl Default for CorrelateConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            epochs: 80,
            lr: 0.05,
            margin: 1.0,
            seed: 17,
            threshold_percentile: 0.9,
        }
    }
}

/// Trained correlate embeddings.
#[derive(Debug, Clone)]
pub struct CorrelateModel {
    /// Row-major `n × dim` embedding table.
    vectors: Vec<f64>,
    n: usize,
    dim: usize,
    /// Distance threshold below which a pair correlates.
    pub threshold: f64,
}

impl CorrelateModel {
    /// Trains embeddings on co-occurrence `positives` over `n` entities and
    /// calibrates the threshold from the positive-pair distance percentile.
    ///
    /// Each step is the hinge triplet of [`hinge_triplet`] on the
    /// `(a, b, negative)` rows, updated in place: the three rows are
    /// distinct, so coordinate `i`'s gradients read only coordinate `i`,
    /// and computing and applying them one coordinate at a time gives the
    /// bits of computing every gradient first.
    ///
    /// [`hinge_triplet`]: giant_nn::loss::hinge_triplet
    pub fn train(n: usize, positives: &[(usize, usize)], cfg: &CorrelateConfig) -> Self {
        let dim = cfg.dim;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut vectors: Vec<f64> = (0..n * dim).map(|_| rng.random::<f64>() - 0.5).collect();
        if n >= 2 {
            for _ in 0..cfg.epochs {
                for &(a, b) in positives {
                    if a >= n || b >= n || a == b {
                        continue;
                    }
                    let mut neg = rng.random_range(0..n);
                    // Resample until the negative differs from the pair.
                    for _ in 0..8 {
                        if neg != a && neg != b {
                            break;
                        }
                        neg = rng.random_range(0..n);
                    }
                    if neg == a || neg == b {
                        continue;
                    }
                    let row = |i: usize| &vectors[i * dim..(i + 1) * dim];
                    let (va, vp, vn) = (row(a), row(b), row(neg));
                    let d_pos: f64 = va.iter().zip(vp).map(|(a, p)| (a - p) * (a - p)).sum();
                    let d_neg: f64 = va.iter().zip(vn).map(|(a, n)| (a - n) * (a - n)).sum();
                    let loss = (cfg.margin + d_pos - d_neg).max(0.0);
                    if loss == 0.0 {
                        continue;
                    }
                    let (a, b, neg) = (a * dim, b * dim, neg * dim);
                    for i in 0..dim {
                        let (x, p, q) = (vectors[a + i], vectors[b + i], vectors[neg + i]);
                        let ga = 2.0 * (x - p) - 2.0 * (x - q);
                        let gp = -2.0 * (x - p);
                        let gn = 2.0 * (x - q);
                        vectors[a + i] -= cfg.lr * ga;
                        vectors[b + i] -= cfg.lr * gp;
                        vectors[neg + i] -= cfg.lr * gn;
                    }
                }
            }
        }
        let mut model = Self {
            vectors,
            n,
            dim,
            threshold: 0.0,
        };
        // Calibrate the threshold on positive distances.
        let mut dists: Vec<f64> = positives
            .iter()
            .filter(|(a, b)| *a < n && *b < n && a != b)
            .map(|&(a, b)| model.distance(a, b))
            .collect();
        dists.sort_by(|x, y| x.total_cmp(y));
        if !dists.is_empty() {
            let idx = ((dists.len() as f64 - 1.0) * cfg.threshold_percentile) as usize;
            model.threshold = dists[idx];
        }
        model
    }

    /// The embedding of entity `i`.
    pub fn vector(&self, i: usize) -> &[f64] {
        &self.vectors[i * self.dim..(i + 1) * self.dim]
    }

    /// Euclidean distance between two entities.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        euclidean(self.vector(a), self.vector(b))
    }

    /// Number of embedded entities.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no entities are embedded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All pairs within the calibrated threshold, `(a, b)` ascending. The
    /// scan tries every pair, `O(n² · dim)` in the dictionary size `n`.
    pub fn correlated_pairs(&self) -> Vec<(usize, usize, f64)> {
        let n = self.len();
        let mut out = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                let d = self.distance(a, b);
                if d <= self.threshold {
                    out.push((a, b, d));
                }
            }
        }
        out
    }
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        giant_text::tokenize(s)
    }

    #[test]
    fn category_links_respect_threshold() {
        // 4 docs: 3 in category 7 (and its ancestor 1), 1 in category 9.
        let docs = vec![vec![7, 1], vec![7, 1], vec![7, 1], vec![9, 1]];
        let links = category_links(&docs, 0.3);
        let cats: Vec<usize> = links.iter().map(|(g, _)| *g).collect();
        assert!(cats.contains(&7));
        assert!(cats.contains(&1));
        assert!(!cats.contains(&9)); // 0.25 < 0.3
        // Ancestor 1 has probability 1.0 and sorts first.
        assert_eq!(links[0].0, 1);
        assert!(category_links(&[], 0.3).is_empty());
    }

    #[test]
    fn ce_features_discriminate_natural_vs_inserted_mentions() {
        let concept = toks("electric cars");
        let entity = toks("veltro x9");
        // Natural doc: the template sentence mentions entity before concept.
        let natural = concept_entity_features(
            &concept,
            &entity,
            &toks("veltro x9 review : specs and price"),
            &[
                toks("veltro x9 is one of the electric cars"),
                toks("everything about veltro x9 in one place"),
            ],
            3.0,
        );
        // Inserted doc: the entity token appears with no concept context.
        let inserted = concept_entity_features(
            &concept,
            &entity,
            &toks("top 10 budget phones of 2018"),
            &[
                toks("kalor z3 is one of the budget phones veltro x9"),
                toks("many readers pick kalor z3"),
            ],
            0.0,
        );
        assert_eq!(natural.len(), CE_FEATURE_DIM);
        assert_eq!(inserted.len(), CE_FEATURE_DIM);
        assert!(natural[2] > inserted[2]); // full-concept co-mention
        assert!(natural[4] > inserted[4]); // title overlap
        assert!(natural[6] > inserted[6]); // session signal
    }

    #[test]
    fn ce_classifier_learns_the_separation() {
        // Synthesize feature vectors like the two cases above.
        let mut examples = Vec::new();
        for i in 0..40 {
            let x = i as f64 / 40.0;
            examples.push((vec![0.5, 1.0, 1.0, 1.0, 0.4 + 0.1 * x, 0.9, 1.2], true));
            examples.push((vec![0.3, 0.2 * x, 0.0, 0.0, 0.05, 0.4, 0.0], false));
        }
        let clf = ConceptEntityClassifier::train(&examples, GbdtConfig::default());
        assert!(clf.predict(&[0.5, 1.0, 1.0, 1.0, 0.45, 0.9, 1.1]));
        assert!(!clf.predict(&[0.3, 0.0, 0.0, 0.0, 0.04, 0.4, 0.0]));
    }

    #[test]
    fn correlate_embeddings_pull_positives_together() {
        // Two cliques {0,1,2} and {3,4,5}; no cross-clique positives.
        let positives = vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        let model = CorrelateModel::train(6, &positives, &CorrelateConfig::default());
        let intra = model.distance(0, 1);
        let inter = model.distance(0, 3);
        assert!(intra < inter, "intra {intra} vs inter {inter}");
        // Calibrated pairs recover mostly the cliques.
        let pairs = model.correlated_pairs();
        assert!(!pairs.is_empty());
        let clique = |x: usize| usize::from(x >= 3);
        let good = pairs.iter().filter(|(a, b, _)| clique(*a) == clique(*b)).count();
        assert!(
            good * 10 >= pairs.len() * 8,
            "only {good}/{} intra-clique pairs",
            pairs.len()
        );
    }

    #[test]
    fn correlate_handles_degenerate_inputs() {
        let model = CorrelateModel::train(0, &[], &CorrelateConfig::default());
        assert!(model.is_empty());
        assert!(model.correlated_pairs().is_empty());
        let model = CorrelateModel::train(1, &[(0, 0)], &CorrelateConfig::default());
        assert_eq!(model.len(), 1);
    }
}
