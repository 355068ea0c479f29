//! Binary codec for the serving frame's [`ServeResources`] — everything a
//! restored process needs to answer requests without retraining: the
//! tagging metadata, TF-IDF table, trained Duet MLP weights, SGNS phrase
//! encoder, vocabulary and the story-event set.
//!
//! Together with `giant_ontology::binio::write_snapshot` this makes
//! `OntologyService::checkpoint`/`restore` a complete warm start: restore
//! reads the frozen snapshot (no re-freeze) and these resources (no
//! retraining) and serves byte-identical answers immediately.

use crate::duet::DuetMatcher;
use crate::serving::ServeResources;
use crate::storytree::{StoryEvent, StoryTreeConfig};
use crate::tagging::{TagResources, TaggingConfig};
use giant_core::ckpt::{read_tfidf, write_tfidf};
use giant_nn::{Linear, Matrix, Parameter};
use giant_ontology::binio::{BinError, Reader, Writer};
use giant_ontology::NodeId;
use giant_text::embedding::{PhraseEncoder, WordEmbeddings};
use giant_text::Vocab;
use std::collections::HashMap;
use std::sync::Arc;

fn write_matrix(w: &mut Writer, m: &Matrix) {
    w.usize(m.rows());
    w.usize(m.cols());
    w.f64_slice(m.data());
}

fn read_matrix(r: &mut Reader<'_>) -> Result<Matrix, BinError> {
    let rows = r.usize()?;
    let cols = r.usize()?;
    let at = r.position();
    let data = r.f64_vec()?;
    if data.len() != rows * cols {
        return Err(BinError {
            at,
            message: format!("matrix {rows}x{cols} carries {} values", data.len()),
        });
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn write_linear(w: &mut Writer, l: &Linear) {
    write_matrix(w, &l.w.value);
    write_matrix(w, &l.b.value);
}

fn read_linear(r: &mut Reader<'_>) -> Result<Linear, BinError> {
    // Gradients are training state, not model state: restored zeroed.
    let w_value = read_matrix(r)?;
    let b_value = read_matrix(r)?;
    Ok(Linear::from_params(
        Parameter::from_value(w_value),
        Parameter::from_value(b_value),
    ))
}

fn write_opt_str(w: &mut Writer, s: &Option<String>) {
    match s {
        Some(s) => {
            w.bool(true);
            w.str(s);
        }
        None => w.bool(false),
    }
}

fn read_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, BinError> {
    Ok(if r.bool()? { Some(r.str()?) } else { None })
}

/// Serialises a full [`ServeResources`] (models included).
pub(crate) fn write_resources(w: &mut Writer, res: &ServeResources) {
    let tag = &res.tagging;
    // Concept contexts, sorted by node id for deterministic bytes.
    let mut ctx: Vec<(&NodeId, &Vec<String>)> = tag.concept_contexts.iter().collect();
    ctx.sort_by_key(|(id, _)| id.0);
    w.len_prefix(ctx.len(), "concept contexts");
    for (id, tokens) in ctx {
        w.u32(id.0);
        w.str_slice(tokens);
    }
    w.len_prefix(tag.event_phrases.len(), "event phrases");
    for (id, tokens) in &tag.event_phrases {
        w.u32(id.0);
        w.str_slice(tokens);
    }
    write_tfidf(w, &tag.tfidf);
    write_linear(w, &tag.duet.l1);
    write_linear(w, &tag.duet.l2);
    let emb = tag.encoder.embeddings();
    w.usize(emb.dim());
    w.usize(emb.vocab_size());
    w.f32_slice(emb.raw_vectors());
    w.len_prefix(tag.vocab.len(), "vocab");
    for (_, s) in tag.vocab.iter() {
        w.str(s);
    }
    w.f64(tag.config.coherence_threshold);
    w.f64(tag.config.fallback_threshold);
    w.f64(tag.config.lcs_min_fraction);
    w.f64(tag.config.min_concept_support);

    w.len_prefix(res.stories.len(), "stories");
    for s in &res.stories {
        w.u32(s.node.0);
        w.str_slice(&s.tokens);
        write_opt_str(w, &s.trigger);
        w.len_prefix(s.entities.len(), "entities");
        for e in &s.entities {
            w.u32(e.0);
        }
        w.u32(s.day);
    }
    w.f64(res.story_config.merge_threshold);
    w.bool(res.match_aliases);
    w.usize(res.max_results);
}

/// Restores resources written by [`write_resources`].
pub(crate) fn read_resources(r: &mut Reader<'_>) -> Result<ServeResources, BinError> {
    let n_ctx = r.len(8, "concept contexts")?;
    let mut concept_contexts = HashMap::with_capacity(n_ctx);
    for _ in 0..n_ctx {
        let id = NodeId(r.u32()?);
        concept_contexts.insert(id, r.str_vec()?);
    }
    let n_events = r.len(8, "event phrases")?;
    let mut event_phrases = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let id = NodeId(r.u32()?);
        event_phrases.push((id, r.str_vec()?));
    }
    let tfidf = read_tfidf(r)?;
    let duet = DuetMatcher {
        l1: read_linear(r)?,
        l2: read_linear(r)?,
    };
    let dim = r.usize()?;
    let vocab_size = r.usize()?;
    let at = r.position();
    let vectors = r.f32_vec()?;
    if vectors.len() != dim * vocab_size {
        return Err(BinError {
            at,
            message: format!(
                "embedding table {dim}x{vocab_size} carries {} values",
                vectors.len()
            ),
        });
    }
    let encoder = PhraseEncoder::new(WordEmbeddings::from_parts(dim, vocab_size, vectors));
    let n_vocab = r.len(4, "vocab")?;
    let mut vocab = Vocab::new();
    for i in 0..n_vocab {
        let s = r.str()?;
        let id = vocab.intern(&s);
        if id.index() != i {
            return Err(BinError {
                at: r.position(),
                message: format!("duplicate vocab token {s:?} at id {i}"),
            });
        }
    }
    let config = TaggingConfig {
        coherence_threshold: r.f64()?,
        fallback_threshold: r.f64()?,
        lcs_min_fraction: r.f64()?,
        min_concept_support: r.f64()?,
    };
    let n_stories = r.len(14, "stories")?;
    let mut stories = Vec::with_capacity(n_stories);
    for _ in 0..n_stories {
        let node = NodeId(r.u32()?);
        let tokens = r.str_vec()?;
        let trigger = read_opt_str(r)?;
        let entities: Vec<NodeId> = r.u32_vec()?.into_iter().map(NodeId).collect();
        let day = r.u32()?;
        stories.push(StoryEvent {
            node,
            tokens,
            trigger,
            entities,
            day,
        });
    }
    let story_config = StoryTreeConfig {
        merge_threshold: r.f64()?,
    };
    let match_aliases = r.bool()?;
    let max_results = r.usize()?;
    Ok(ServeResources {
        tagging: TagResources {
            concept_contexts,
            event_phrases,
            tfidf: Arc::new(tfidf),
            duet: Arc::new(duet),
            encoder: Arc::new(encoder),
            vocab: Arc::new(vocab),
            config,
        },
        stories,
        story_config,
        match_aliases,
        max_results,
    })
}
