//! TF-IDF vectors and cosine similarity over sorted sparse term lists.
//!
//! GIANT uses TF-IDF similarity in several places: phrase normalization
//! compares *context-enriched representations* (the phrase plus its top-5
//! clicked titles, §3.1); document tagging scores concept/document coherence
//! (§4); story-tree formation compares event entity sets (eq. 11).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

/// The TF-IDF vector of one token multiset: its distinct terms in
/// ascending order, each weighted `(count / total) * idf(term)`, and the
/// Euclidean norm summed in that same order. Build it once per text with
/// [`TfIdf::vectorize`] and compare it against many others with
/// [`TfIdfVector::cosine`].
///
/// Every sum runs in ascending term order: float addition is
/// order-sensitive, and the serving layer's byte-identical-responses
/// guarantee needs the same inputs to give the same bits on every call.
/// Terms borrow from the tokens they were built from;
/// [`TfIdfVector::into_owned`] detaches a vector that must outlive them.
#[derive(Debug, Clone, PartialEq)]
pub struct TfIdfVector<'a> {
    terms: Vec<(Cow<'a, str>, f64)>,
    norm: f64,
}

impl TfIdfVector<'_> {
    /// Cosine similarity: a merge-join of the two ascending term lists.
    /// `0.0` when either side is empty or has zero norm.
    pub fn cosine(&self, other: &TfIdfVector<'_>) -> f64 {
        let (a, b) = (&self.terms, &other.terms);
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let (mut i, mut j) = (0, 0);
        let dot: f64 = std::iter::from_fn(|| {
            while i < a.len() && j < b.len() {
                match a[i].0.cmp(&b[j].0) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        let product = a[i].1 * b[j].1;
                        i += 1;
                        j += 1;
                        return Some(product);
                    }
                }
            }
            None
        })
        .sum();
        if self.norm == 0.0 || other.norm == 0.0 {
            0.0
        } else {
            dot / (self.norm * other.norm)
        }
    }

    /// The same vector with every term copied out of the borrowed tokens.
    pub fn into_owned(self) -> TfIdfVector<'static> {
        TfIdfVector {
            terms: self
                .terms
                .into_iter()
                .map(|(t, w)| (Cow::Owned(t.into_owned()), w))
                .collect(),
            norm: self.norm,
        }
    }
}

/// Document-frequency table with smoothed IDF.
#[derive(Debug, Clone, Default)]
pub struct TfIdf {
    df: HashMap<String, u32>,
    n_docs: u32,
}

impl TfIdf {
    /// An empty table (IDF falls back to the uniform smoothing value).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one document's tokens to the document-frequency counts.
    pub fn add_doc<'a, I: IntoIterator<Item = &'a str>>(&mut self, tokens: I) {
        self.n_docs += 1;
        let mut seen: HashMap<&str, ()> = HashMap::new();
        for t in tokens {
            if seen.insert(t, ()).is_none() {
                *self.df.entry(t.to_owned()).or_insert(0) += 1;
            }
        }
    }

    /// Number of indexed documents.
    pub fn n_docs(&self) -> u32 {
        self.n_docs
    }

    /// Every `(term, document frequency)` pair, sorted by term — the
    /// checkpoint serialisation view (sorted so the same table always
    /// serialises to the same bytes).
    pub fn doc_frequencies(&self) -> Vec<(&str, u32)> {
        let mut out: Vec<(&str, u32)> =
            self.df.iter().map(|(t, &c)| (t.as_str(), c)).collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Rebuilds a table from serialized parts (checkpoint restore) —
    /// exact: IDF depends only on the df map and the doc count, both
    /// carried through verbatim.
    pub fn from_parts(df: impl IntoIterator<Item = (String, u32)>, n_docs: u32) -> Self {
        Self {
            df: df.into_iter().collect(),
            n_docs,
        }
    }

    /// Smoothed inverse document frequency: `ln(1 + N / (1 + df))`.
    pub fn idf(&self, term: &str) -> f64 {
        let df = self.df.get(term).copied().unwrap_or(0) as f64;
        (1.0 + self.n_docs as f64 / (1.0 + df)).ln()
    }

    /// The TF-IDF vector of a token multiset.
    pub fn vectorize<'a, I: IntoIterator<Item = &'a str>>(&self, tokens: I) -> TfIdfVector<'a> {
        let mut tokens: Vec<&'a str> = tokens.into_iter().collect();
        tokens.sort_unstable();
        let total = tokens.len() as f64;
        let terms: Vec<(Cow<'a, str>, f64)> = tokens
            .chunk_by(|a, b| a == b)
            .map(|run| (Cow::Borrowed(run[0]), (run.len() as f64 / total) * self.idf(run[0])))
            .collect();
        let norm = terms.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        TfIdfVector { terms, norm }
    }

    /// TF-IDF cosine similarity of two token multisets.
    pub fn similarity<'a, I, J>(&self, a: I, b: J) -> f64
    where
        I: IntoIterator<Item = &'a str>,
        J: IntoIterator<Item = &'a str>,
    {
        self.vectorize(a).cosine(&self.vectorize(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TfIdf {
        let mut t = TfIdf::new();
        t.add_doc(["the", "trade", "war", "begins"]);
        t.add_doc(["the", "trade", "deal", "signed"]);
        t.add_doc(["the", "concert", "tour", "announced"]);
        t
    }

    #[test]
    fn idf_orders_by_rarity() {
        let t = table();
        assert!(t.idf("concert") > t.idf("trade"));
        assert!(t.idf("trade") > t.idf("the"));
        // Unseen terms get the highest idf.
        assert!(t.idf("zebra") >= t.idf("concert"));
    }

    #[test]
    fn similarity_prefers_shared_rare_terms() {
        let t = table();
        let s_related = t.similarity(
            ["trade", "war", "tariffs"],
            ["trade", "war", "escalates"],
        );
        let s_unrelated = t.similarity(["trade", "war"], ["concert", "tour"]);
        assert!(s_related > s_unrelated);
        assert!(s_related > 0.0);
        assert_eq!(s_unrelated, 0.0);
    }

    #[test]
    fn self_similarity_is_one() {
        let t = table();
        let s = t.similarity(["trade", "war", "begins"], ["trade", "war", "begins"]);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let t = table();
        assert_eq!(t.similarity([], ["a"]), 0.0);
        assert_eq!(t.similarity([], []), 0.0);
    }

    #[test]
    fn duplicate_tokens_count_once_for_df() {
        let mut t = TfIdf::new();
        t.add_doc(["a", "a", "a"]);
        t.add_doc(["a", "b"]);
        // df("a") must be 2 (documents), not 4 (occurrences).
        assert!(t.idf("a") < t.idf("b"));
    }
}
