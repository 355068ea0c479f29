//! Attention-phrase normalization (paper §3.1).
//!
//! "The same user attention may be expressed by slightly different phrases…
//! we examine whether a new phrase p_n is similar to an existing phrase p_e
//! by two criteria: i) the non-stop words in p_n shall be similar (same or
//! synonyms) with that in p_e, and ii) the TF-IDF similarity between their
//! context-enriched representations shall be above a threshold δ_m. The
//! context-enriched representation of a phrase is obtained by using itself
//! as a query and concatenating the top 5 clicked titles."
//!
//! Substitution note: the synthetic world has no synonym dictionary, so
//! criterion (i) reduces to equality of the non-stop token sets (the paper's
//! "same or synonyms" with an empty synonym table).

use giant_text::{StopWords, TfIdf, TfIdfVector};
use std::collections::{BTreeSet, HashMap, HashSet};

/// A canonical phrase plus its merged variants and enriched context.
#[derive(Debug, Clone)]
pub struct MergedPhrase {
    /// Canonical tokens (the first phrase that created the group).
    pub tokens: Vec<String>,
    /// Later variants merged into this group.
    pub variants: Vec<Vec<String>>,
    /// Context-enriched representation tokens (phrase + top clicked titles).
    pub context: Vec<String>,
    /// Accumulated support.
    pub support: f64,
}

/// Deduplicates mined phrases per §3.1.
///
/// Criterion (i) is content-token **set equality**, so groups are indexed
/// by a canonical content key: a candidate is compared (criterion (ii),
/// TF-IDF context cosine) only against the groups sharing its key, in
/// insertion order — the same first-match the full scan would find, at
/// O(bucket) instead of O(groups) per candidate. Byte-identical output,
/// and the pipeline's merge phase stops being quadratic in the number of
/// mined groups.
#[derive(Debug)]
pub struct Normalizer<'a> {
    tfidf: &'a TfIdf,
    stopwords: StopWords,
    delta_m: f64,
    merged: Vec<MergedPhrase>,
    /// Content key → group indices with that key, ascending (insertion
    /// order).
    by_content: HashMap<String, Vec<usize>>,
    /// Each group's context TF-IDF vector, built at the group's first
    /// comparison and reused by every later one.
    vectors: Vec<Option<TfIdfVector<'static>>>,
}

impl<'a> Normalizer<'a> {
    /// Creates a normalizer. `tfidf` should be built over the title corpus
    /// so context similarities are meaningful (borrowed: the table is
    /// shared with the linking stages and can be large).
    pub fn new(tfidf: &'a TfIdf, stopwords: StopWords, delta_m: f64) -> Self {
        Self {
            tfidf,
            stopwords,
            delta_m,
            merged: Vec::new(),
            by_content: HashMap::new(),
            vectors: Vec::new(),
        }
    }

    /// The canonical content key: the sorted, deduplicated non-stop tokens.
    /// Two phrases have equal content *sets* iff their keys are equal.
    fn content_key(&self, tokens: &[String]) -> String {
        let set: BTreeSet<&str> = tokens
            .iter()
            .map(|t| t.as_str())
            .filter(|t| !self.stopwords.is_stop(t))
            .collect();
        let mut key = String::new();
        for t in set {
            key.push_str(t);
            key.push('\u{1f}');
        }
        key
    }

    /// Context-enriched representation: the phrase tokens plus the tokens of
    /// its top clicked titles.
    pub fn context_repr(&self, tokens: &[String], top_titles: &[String]) -> Vec<String> {
        let mut ctx = tokens.to_vec();
        for t in top_titles.iter().take(5) {
            ctx.extend(giant_text::tokenize(t));
        }
        ctx
    }

    fn content_set<'t>(&self, tokens: &'t [String]) -> HashSet<&'t str> {
        tokens
            .iter()
            .map(|t| t.as_str())
            .filter(|t| !self.stopwords.is_stop(t))
            .collect()
    }

    /// True when the two phrases satisfy both §3.1 criteria.
    pub fn are_similar(
        &self,
        a_tokens: &[String],
        a_context: &[String],
        b_tokens: &[String],
        b_context: &[String],
    ) -> bool {
        if self.content_set(a_tokens) != self.content_set(b_tokens) {
            return false;
        }
        let sim = self.tfidf.similarity(
            a_context.iter().map(|s| s.as_str()),
            b_context.iter().map(|s| s.as_str()),
        );
        sim >= self.delta_m
    }

    /// Merges `tokens` into an existing group or creates a new one; returns
    /// the group index.
    pub fn merge_or_insert(
        &mut self,
        tokens: Vec<String>,
        top_titles: &[String],
        support: f64,
    ) -> usize {
        let context = self.context_repr(&tokens, top_titles);
        self.merge_or_insert_with_context(tokens, context, support)
    }

    /// [`Normalizer::merge_or_insert`] with a caller-supplied context
    /// representation — callers that already hold
    /// `context_repr(&tokens, top_titles)` (the mining cache memoizes it
    /// per candidate) skip re-tokenizing the titles on every merge.
    pub fn merge_or_insert_with_context(
        &mut self,
        tokens: Vec<String>,
        context: Vec<String>,
        support: f64,
    ) -> usize {
        let key = self.content_key(&tokens);
        // Only groups with the identical content set can satisfy criterion
        // (i); among them, the first (insertion order) passing criterion
        // (ii) wins — exactly the full scan's first match. Most candidates
        // open a group of their own, so a candidate's context is vectorized
        // only once its bucket is known to be non-empty.
        if let Some(bucket) = self.by_content.get(&key) {
            let cand = self.tfidf.vectorize(context.iter().map(String::as_str));
            for &i in bucket {
                let group = self.vectors[i].get_or_insert_with(|| {
                    let ctx = &self.merged[i].context;
                    self.tfidf.vectorize(ctx.iter().map(String::as_str)).into_owned()
                });
                if cand.cosine(group) >= self.delta_m {
                    let g = &mut self.merged[i];
                    if g.tokens != tokens && !g.variants.contains(&tokens) {
                        g.variants.push(tokens);
                    }
                    g.support += support;
                    return i;
                }
            }
        }
        let i = self.merged.len();
        self.merged.push(MergedPhrase {
            tokens,
            variants: Vec::new(),
            context,
            support,
        });
        self.vectors.push(None);
        self.by_content.entry(key).or_default().push(i);
        i
    }

    /// The merged groups.
    pub fn groups(&self) -> &[MergedPhrase] {
        &self.merged
    }

    /// Consumes the normalizer, returning the groups.
    pub fn into_groups(self) -> Vec<MergedPhrase> {
        self.merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        giant_text::tokenize(s)
    }

    fn tfidf() -> TfIdf {
        let mut tfidf = TfIdf::new();
        for t in [
            "top 10 electric cars of 2018",
            "electric family cars buying guide",
            "the best budget phones",
            "budget phones of the year",
            "marathon runners to watch",
        ] {
            tfidf.add_doc(toks(t).iter().map(|s| s.to_string()).collect::<Vec<_>>().iter().map(|s| s.as_str()));
        }
        tfidf
    }

    fn normalizer(tfidf: &TfIdf) -> Normalizer<'_> {
        Normalizer::new(tfidf, StopWords::standard(), 0.5)
    }

    #[test]
    fn same_content_same_context_merges() {
        let t = tfidf();
        let mut n = normalizer(&t);
        let titles = vec![
            "top 10 electric cars of 2018".to_owned(),
            "electric family cars buying guide".to_owned(),
        ];
        let a = n.merge_or_insert(toks("electric cars"), &titles, 1.0);
        // Different wrappers, same content tokens, same context.
        let b = n.merge_or_insert(toks("the electric cars"), &titles, 2.0);
        assert_eq!(a, b);
        assert_eq!(n.groups().len(), 1);
        assert_eq!(n.groups()[0].support, 3.0);
        assert_eq!(n.groups()[0].variants.len(), 1);
    }

    #[test]
    fn different_content_never_merges() {
        let t = tfidf();
        let mut n = normalizer(&t);
        let titles = vec!["top 10 electric cars of 2018".to_owned()];
        let a = n.merge_or_insert(toks("electric cars"), &titles, 1.0);
        let b = n.merge_or_insert(toks("budget phones"), &titles, 1.0);
        assert_ne!(a, b);
        assert_eq!(n.groups().len(), 2);
    }

    #[test]
    fn same_content_different_context_stays_separate() {
        // Same non-stop tokens but disjoint click contexts → below δ_m.
        let t = tfidf();
        let mut n = normalizer(&t);
        let a = n.merge_or_insert(
            toks("electric cars"),
            &["top 10 electric cars of 2018".to_owned()],
            1.0,
        );
        let b = n.merge_or_insert(
            toks("electric cars"),
            &["marathon runners to watch".to_owned()],
            1.0,
        );
        assert_ne!(a, b, "disjoint contexts must not merge");
    }

    #[test]
    fn exact_duplicate_does_not_grow_variants() {
        let t = tfidf();
        let mut n = normalizer(&t);
        let titles = vec!["top 10 electric cars of 2018".to_owned()];
        n.merge_or_insert(toks("electric cars"), &titles, 1.0);
        n.merge_or_insert(toks("electric cars"), &titles, 1.0);
        assert_eq!(n.groups()[0].variants.len(), 0);
        assert_eq!(n.groups()[0].support, 2.0);
    }
}
