//! # giant-text — NLP substrate for the GIANT reproduction
//!
//! GIANT (SIGMOD 2020) consumes search queries and document titles that have
//! been tokenized and annotated with part-of-speech tags, named-entity tags
//! and syntactic dependencies. The production system used off-the-shelf
//! Chinese NLP tooling; this crate provides a from-scratch, deterministic
//! substrate with the same interface obligations:
//!
//! * [`vocab`] — string interning ([`Vocab`], [`TokenId`]).
//! * [`mod@tokenize`] — lowercasing word/punctuation tokenizer and sentence split.
//! * [`stopwords`] — stop-word list including query wrapper words.
//! * [`pos`] — part-of-speech tags, a lexicon tagger and a trainable HMM
//!   (Viterbi) tagger.
//! * [`ner`] — named-entity tags and a gazetteer tagger with longest-match
//!   multiword entities.
//! * [`dep`] — deterministic rule-based dependency parser producing the typed
//!   edges the Query-Title Interaction Graph needs (compound, amod, dobj, …).
//! * [`embedding`] — skip-gram-with-negative-sampling word vectors (stands in
//!   for the paper's BERT / directional-skip-gram encoders as a similarity
//!   oracle).
//! * [`tfidf`] — document-frequency table and TF-IDF cosine similarity.
//! * [`similarity`] — LCS, Jaccard and edit distance.
//! * [`hash`] — FNV-1a, the workspace's checksum and tie-break hash.
//!
//! Everything is deterministic given a seed so experiments reproduce exactly.

#![forbid(unsafe_code)]

pub mod annotate;
pub mod dep;
pub mod embedding;
pub mod hash;
pub mod ner;
pub mod pos;
pub mod similarity;
pub mod stopwords;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use annotate::{AnnotatedText, Annotator, Token};
pub use dep::{DepArc, DepRel, DependencyParser};
pub use embedding::{PhraseEncoder, SgnsConfig, WordEmbeddings};
pub use hash::{fnv1a64, fnv1a64_extend};
pub use ner::{Gazetteer, NerTag};
pub use pos::{HmmTagger, Lexicon, PosTag};
pub use similarity::{edit_distance, jaccard, lcs_len};
pub use stopwords::StopWords;
pub use tfidf::{TfIdf, TfIdfVector};
pub use tokenize::{sentences, tokenize, tokenize_keep_case};
pub use vocab::{TokenId, Vocab};
