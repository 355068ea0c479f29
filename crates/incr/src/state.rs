//! The long-lived incremental folder.

use crate::batch::DeltaBatch;
use giant_core::cache::{CacheStats, PipelineCaches};
use giant_core::pipeline::{CategoryRecord, GiantOutput, PipelineInput, StageTimings};
use giant_core::train::GiantModels;
use giant_core::GiantConfig;
use giant_graph::plan::DirtySet;
use giant_graph::{ClickGraph, DocId};
use giant_ontology::{Ontology, OntologyDelta};
use giant_text::Annotator;
use std::fmt;
use std::time::Instant;

/// Batch validation errors. A failed fold leaves the state **untouched**:
/// validation runs to completion before any mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum FoldError {
    /// A batch document's id does not densely extend the doc space.
    NonContiguousDoc {
        /// The id the batch should have used.
        expected: usize,
        /// The id it carried.
        got: usize,
    },
    /// A click references a document that does not exist even after the
    /// batch's own documents are appended.
    ClickToMissingDoc {
        /// Offending click's query text.
        query: String,
        /// Offending doc id.
        doc: usize,
        /// Doc-space size after the batch.
        n_docs: usize,
    },
    /// A click carries negative mass.
    NegativeClicks {
        /// Offending click's query text.
        query: String,
    },
    /// Applying the diffed delta to the live ontology failed — an internal
    /// invariant violation (a delta produced by `diff` must apply to its
    /// own base). The fold rolled every input mutation back: the
    /// accumulated corpus, click graph, live ontology and fold counter are
    /// bit-identical to before the call (warm caches are dropped — a cold
    /// cache changes wall-clock, never bytes).
    DeltaApply(giant_ontology::DeltaError),
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::NonContiguousDoc { expected, got } => {
                write!(f, "batch doc id {got} does not extend the doc space (expected {expected})")
            }
            FoldError::ClickToMissingDoc { query, doc, n_docs } => write!(
                f,
                "click {query:?} → doc {doc} references a document beyond the {n_docs}-doc space"
            ),
            FoldError::NegativeClicks { query } => {
                write!(f, "click {query:?} carries negative mass")
            }
            FoldError::DeltaApply(e) => {
                write!(f, "delta application failed, fold rolled back: {e}")
            }
        }
    }
}

impl std::error::Error for FoldError {}

/// What one fold did, for ingest reports and benches.
#[derive(Debug)]
pub struct FoldReport {
    /// The rebuilt pipeline product over the accumulated input (node ids
    /// identical to the live ontology's — resource refreshers index it
    /// directly).
    pub output: GiantOutput,
    /// The change-set that took the previous live version to this one.
    pub delta: OntologyDelta,
    /// Queries dirtied by the batch.
    pub dirty_queries: usize,
    /// Docs dirtied by the batch.
    pub dirty_docs: usize,
    /// Cached walks evicted by footprint intersection.
    pub evicted_walks: usize,
    /// Cache effectiveness of the rebuild.
    pub cache: CacheStats,
    /// Per-stage wall clock of the rebuild.
    pub timings: StageTimings,
    /// End-to-end fold wall clock (validate + ingest + rebuild + diff +
    /// apply).
    pub secs: f64,
}

/// The long-lived incremental pipeline state: accumulated input, warm
/// caches, and the live (delta-applied) ontology.
///
/// The live ontology is **never** replaced by the rebuilt one — each fold
/// applies the diff to the previous live version, exactly the path a
/// remote replica consuming shipped deltas would take, so any delta
/// infidelity surfaces immediately as a divergence from the rebuilt
/// reference (asserted in debug builds, proptested in release).
pub struct IncrementalState {
    input: PipelineInput,
    models: GiantModels,
    cfg: GiantConfig,
    caches: PipelineCaches,
    ontology: Ontology,
    folds: u64,
    /// Test-only fault injection: when set, the next fold applies this
    /// delta (known-bad) instead of the diffed one, exercising the
    /// apply-failure rollback path.
    #[cfg(test)]
    pub(crate) sabotage_delta: Option<OntologyDelta>,
}

impl fmt::Debug for IncrementalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncrementalState")
            .field("folds", &self.folds)
            .field("n_docs", &self.input.docs.len())
            .field("n_queries", &self.input.click_graph.n_queries())
            .field("n_nodes", &self.ontology.n_nodes())
            .finish_non_exhaustive()
    }
}

impl IncrementalState {
    /// A fresh state over a fixed category tree and annotator, with no
    /// corpus yet. The first fold is the bootstrap build (everything is
    /// mined, caches fill); every later fold is incremental.
    pub fn new(
        categories: Vec<CategoryRecord>,
        annotator: Annotator,
        models: GiantModels,
        cfg: GiantConfig,
    ) -> Self {
        Self {
            input: PipelineInput {
                click_graph: ClickGraph::new(),
                docs: Vec::new(),
                categories,
                sessions: Vec::new(),
                entities: Vec::new(),
                annotator,
            },
            models,
            cfg,
            caches: PipelineCaches::new(),
            ontology: Ontology::new(),
            folds: 0,
            #[cfg(test)]
            sabotage_delta: None,
        }
    }

    /// Checks `batch` against the accumulated input without mutating
    /// anything. [`IncrementalState::fold`] runs exactly this validation
    /// before ingesting; hosts that persist batches ahead of folding (the
    /// write-ahead log) call it first so a log never records a batch the
    /// fold would reject.
    pub fn validate(&self, batch: &DeltaBatch) -> Result<(), FoldError> {
        let n_docs_after = self.input.docs.len() + batch.docs.len();
        for (k, d) in batch.docs.iter().enumerate() {
            let expected = self.input.docs.len() + k;
            if d.id != expected {
                return Err(FoldError::NonContiguousDoc {
                    expected,
                    got: d.id,
                });
            }
        }
        for c in &batch.clicks {
            if c.doc >= n_docs_after {
                return Err(FoldError::ClickToMissingDoc {
                    query: c.query.clone(),
                    doc: c.doc,
                    n_docs: n_docs_after,
                });
            }
            if c.count < 0.0 {
                return Err(FoldError::NegativeClicks {
                    query: c.query.clone(),
                });
            }
        }
        Ok(())
    }

    /// Folds one batch: validate → ingest → invalidate → cached rebuild →
    /// diff → apply. The fold is **atomic — apply or reject**: on any
    /// error (validation up front, or the never-expected delta-application
    /// failure after the rebuild) the observable state is bit-identical to
    /// before the call.
    pub fn fold(&mut self, batch: DeltaBatch) -> Result<FoldReport, FoldError> {
        let t0 = Instant::now();
        // Validate everything before mutating anything.
        self.validate(&batch)?;

        // Rollback bookkeeping for the one fallible step left after
        // mutation begins (delta application): list lengths plus a
        // bit-exact savepoint of the click-graph rows the batch touches.
        let n_docs_before = self.input.docs.len();
        let n_sessions_before = self.input.sessions.len();
        let n_entities_before = self.input.entities.len();
        let savepoint = self.input.click_graph.savepoint(
            batch.clicks.iter().map(|c| c.query.as_str()),
            batch.clicks.iter().map(|c| c.doc),
        );

        // Ingest, recording the dirty set: every endpoint of a click edit
        // has changed adjacency/totals. New docs and new queries carry no
        // cached footprint; what protects old caches from them is that
        // attaching a new node dirties its old-side neighbour.
        self.input.docs.extend(batch.docs);
        let mut dirty = DirtySet::new();
        for c in &batch.clicks {
            let q = self
                .input
                .click_graph
                .add_clicks(&c.query, DocId(c.doc as u32), c.count);
            dirty.mark_query(q.index());
            dirty.mark_doc(c.doc);
        }
        self.input.sessions.extend(batch.sessions);
        self.input.entities.extend(batch.entities);

        // Drop exactly the cached walks the batch could have changed.
        let evicted_walks = self.caches.invalidate(&dirty);

        // Rebuild over the accumulated input; clean clusters come from
        // the caches, dirty ones are re-mined.
        let output =
            giant_core::run_pipeline_cached(&self.input, &self.models, &self.cfg, &mut self.caches);

        // Ship the difference: the live version advances by delta
        // application, never by wholesale replacement.
        let mut timings = output.timings.clone();
        let t = Instant::now();
        let delta = OntologyDelta::diff(&self.ontology, &output.ontology);
        timings.record("delta.diff", t.elapsed().as_secs_f64());
        let t = Instant::now();
        #[cfg(test)]
        let delta = match self.sabotage_delta.take() {
            Some(d) => d,
            None => delta,
        };
        // A delta produced by `diff` always applies to its own base; a
        // failure here is an internal invariant violation, not a bad
        // batch. It must not panic the production fold loop, and it must
        // not leave the state half-ingested: roll every input mutation
        // back (bit-exactly) and surface a typed error. The warm caches
        // are reset rather than rewound — entries computed over the
        // rolled-back input (notably the append-only per-doc text cache,
        // which would alias future doc ids) must not survive, and by the
        // cache-soundness contract a cold cache can change wall-clock but
        // never bytes.
        let next = match delta.apply(&self.ontology) {
            Ok(next) => next,
            Err(error) => {
                self.input.docs.truncate(n_docs_before);
                self.input.sessions.truncate(n_sessions_before);
                self.input.entities.truncate(n_entities_before);
                self.input.click_graph.rollback(savepoint);
                self.caches = PipelineCaches::new();
                return Err(FoldError::DeltaApply(error));
            }
        };
        timings.record("delta.apply", t.elapsed().as_secs_f64());
        debug_assert_eq!(
            giant_ontology::io::dump(&next),
            giant_ontology::io::dump(&output.ontology),
            "delta application diverged from the rebuilt reference"
        );
        self.ontology = next;
        self.folds += 1;

        Ok(FoldReport {
            dirty_queries: dirty.n_dirty_queries(),
            dirty_docs: dirty.n_dirty_docs(),
            evicted_walks,
            cache: output.cache_stats,
            timings,
            secs: t0.elapsed().as_secs_f64(),
            delta,
            output,
        })
    }

    /// The live (delta-applied) ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The accumulated pipeline input.
    pub fn input(&self) -> &PipelineInput {
        &self.input
    }

    /// The pipeline configuration folds run under.
    pub fn cfg(&self) -> &GiantConfig {
        &self.cfg
    }

    /// The trained models folds run under.
    pub fn models(&self) -> &GiantModels {
        &self.models
    }

    /// Completed folds.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Cache occupancy `(cached walks, cached minings)`.
    pub fn cache_sizes(&self) -> (usize, usize) {
        (self.caches.cached_plans(), self.caches.cached_minings())
    }

    /// The warm caches, for checkpoint capture.
    pub(crate) fn caches(&self) -> &PipelineCaches {
        &self.caches
    }

    /// Reassembles a state from checkpointed parts (see
    /// [`crate::ckpt::Checkpoint`]). The caller owns the invariant that
    /// `caches` and `ontology` were captured from a state over exactly
    /// this `input` — which [`crate::ckpt::Checkpoint`] guarantees by
    /// capturing and restoring them together.
    pub(crate) fn from_parts(
        input: PipelineInput,
        models: GiantModels,
        cfg: GiantConfig,
        caches: PipelineCaches,
        ontology: Ontology,
        folds: u64,
    ) -> Self {
        Self {
            input,
            models,
            cfg,
            caches,
            ontology,
            folds,
            #[cfg(test)]
            sabotage_delta: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ClickEvent;
    use giant_core::gctsp::{GctspConfig, GctspNet};
    use giant_core::pipeline::DocRecord;
    use giant_core::train::GiantModels;
    use giant_ontology::{NodeKind, Phrase};

    fn untrained_models() -> GiantModels {
        GiantModels {
            phrase_model: GctspNet::new(GctspConfig::default()),
            role_model: GctspNet::new(GctspConfig {
                n_classes: 4,
                ..GctspConfig::default()
            }),
        }
    }

    fn category() -> Vec<CategoryRecord> {
        vec![CategoryRecord {
            id: 0,
            tokens: vec!["tech".into()],
            level: 1,
            parent: None,
        }]
    }

    fn batch_one() -> DeltaBatch {
        let mut b = DeltaBatch::new();
        b.docs.push(DocRecord {
            id: 0,
            title: "quanta corp launches panel".into(),
            sentences: vec!["the quanta corp panel is here".into()],
            leaf_category: 0,
            day: 1,
        });
        b.clicks.push(ClickEvent {
            query: "quanta panel".into(),
            doc: 0,
            count: 3.0,
        });
        b
    }

    fn batch_two() -> DeltaBatch {
        let mut b = DeltaBatch::new();
        b.docs.push(DocRecord {
            id: 1,
            title: "vertex labs ships headset".into(),
            sentences: vec!["the vertex labs headset shipped today".into()],
            leaf_category: 0,
            day: 2,
        });
        b.clicks.push(ClickEvent {
            query: "vertex headset".into(),
            doc: 1,
            count: 2.0,
        });
        b.clicks.push(ClickEvent {
            query: "quanta panel".into(),
            doc: 1,
            count: 1.0,
        });
        b
    }

    /// A delta guaranteed to fail against any small live ontology: its base
    /// has more nodes than the live one, so a `Carry` references an old id
    /// out of range.
    fn poison_delta(live_nodes: usize) -> OntologyDelta {
        let mut big = Ontology::new();
        for i in 0..live_nodes + 8 {
            big.add_node(NodeKind::Concept, Phrase::from_text(&format!("filler {i}")), 1.0);
        }
        OntologyDelta::diff(&big, &big)
    }

    /// Regression for the production panic path: a delta-application
    /// failure mid-fold must reject the batch atomically — typed error,
    /// state bit-identical — instead of `.expect` aborting the process.
    #[test]
    fn failed_delta_apply_rejects_the_fold_atomically() {
        let mut state = IncrementalState::new(
            category(),
            Annotator::default(),
            untrained_models(),
            GiantConfig::default(),
        );
        state.fold(batch_one()).expect("bootstrap folds");
        let dump_before = giant_ontology::io::dump(state.ontology());
        let folds_before = state.folds();
        let n_docs_before = state.input().docs.len();
        let total_bits_before = state.input().click_graph.total_clicks().to_bits();
        let n_queries_before = state.input().click_graph.n_queries();

        state.sabotage_delta = Some(poison_delta(state.ontology().n_nodes()));
        let err = state.fold(batch_two()).expect_err("sabotaged apply must fail");
        assert!(matches!(err, FoldError::DeltaApply(_)), "typed error, got {err}");

        // The fold was rejected whole: no half-ingested corpus, no
        // half-advanced ontology.
        assert_eq!(state.folds(), folds_before);
        assert_eq!(giant_ontology::io::dump(state.ontology()), dump_before);
        assert_eq!(state.input().docs.len(), n_docs_before);
        assert_eq!(state.input().click_graph.n_queries(), n_queries_before);
        assert_eq!(
            state.input().click_graph.total_clicks().to_bits(),
            total_bits_before,
            "running click total must roll back bit-exactly"
        );

        // And the state is fully usable afterwards: re-folding the same
        // batch (no sabotage) converges with a never-poisoned reference.
        state.fold(batch_two()).expect("clean refold succeeds");
        let mut reference = IncrementalState::new(
            category(),
            Annotator::default(),
            untrained_models(),
            GiantConfig::default(),
        );
        reference.fold(batch_one()).unwrap();
        reference.fold(batch_two()).unwrap();
        assert_eq!(
            giant_ontology::io::dump(state.ontology()),
            giant_ontology::io::dump(reference.ontology()),
            "post-rollback folds must converge with the never-failed chain"
        );
    }
}
