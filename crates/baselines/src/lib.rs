//! # giant-baselines — every comparison method from the paper's evaluation
//!
//! Tables 5–7 compare GCTSP-Net against: TextRank, AutoPhrase, Match, Align,
//! MatchAlign, LSTM-CRF (query/title variants), plain LSTM, CoverRank and
//! TextSummary. This crate implements each at the protocol the paper
//! describes, plus the metrics (EM / token F1 / COV and macro/micro/weighted
//! F1).
//!
//! CoverRank itself lives in `giant-core::event_cand` (the pipeline uses it
//! to build training candidates); this crate re-exports it alongside the
//! other baselines so the benchmark harness has one import surface.

#![forbid(unsafe_code)]

pub mod autophrase;
pub mod eval;
pub mod lstm_tagger;
pub mod matching;
pub mod textrank;
pub mod textsummary;

pub use autophrase::{AutoPhrase, AutoPhraseConfig};
pub use eval::{evaluate_phrases, exact_match, multiclass_f1, token_f1, MiningEval, MultiClassEval};
pub use giant_core::event_cand::{best_event_candidate, cover_rank};
pub use lstm_tagger::{bio, bio_labels, LstmTagger, TaggerConfig};
pub use matching::{align_predict, match_align_predict, MatchBaseline};
pub use textrank::{textrank_keywords, textrank_phrase, TextRankConfig};
pub use textsummary::{Seq2SeqConfig, TextSummary};
