//! Durable binary checkpoints of the long-lived [`IncrementalState`]:
//! write → (process dies) → read → restore → keep folding, with the
//! restored state converging **byte-identically** to the never-restarted
//! one over the same delta stream.
//!
//! One writer, one reader: [`Checkpoint::write_state_sections`] serialises
//! a live state by reference (no deep clone of the corpus) into a
//! [`SectionFile`], and [`Checkpoint::from_sections`] +
//! [`Checkpoint::restore`] bring it back. The host owns the container and
//! the file (the incremental driver files the serving frame and the WAL
//! watermark alongside).
//!
//! ## What is (and is not) checkpointed
//!
//! The `incr.*` sections carry everything that *accumulates* across folds:
//!
//! * the accumulated corpus — click graph (edge lists and the historical
//!   running total, bit-exact), documents, category tree, sessions,
//!   entity dictionary;
//! * the live (delta-applied) [`Ontology`] and the fold counter;
//! * the warm [`giant_core::cache::PipelineCaches`] — cached cluster
//!   walks with their footprints, mining memos with fingerprints, the
//!   append-only text/TF-IDF cache, role-inference and entity-lookup
//!   memos — so the restored process resumes delta folding without
//!   re-mining clean clusters;
//! * the [`GiantConfig`] the folds ran under.
//!
//! **Not** checkpointed: the trained [`GiantModels`] and the
//! [`Annotator`]. Both are immutable across folds (the cache soundness
//! contract already depends on that) and owned by the host's model store —
//! they are supplied again at [`Checkpoint::restore`] exactly as they were
//! at [`IncrementalState::new`]. Supplying *different* models than the
//! checkpoint was written under voids the convergence guarantee the same
//! way swapping models under a live state would.
//!
//! Framing, checksums and bit-exactness come from
//! [`giant_ontology::binio`]; see that module for the container layout.

use crate::state::IncrementalState;
use giant_core::cache::PipelineCaches;
use giant_core::pipeline::{CategoryRecord, DocRecord, PipelineInput};
use giant_core::train::GiantModels;
use giant_core::GiantConfig;
use giant_graph::{ClickGraph, ClusterConfig, DocId, QueryId, WalkConfig};
use giant_ontology::binio::{self, BinError, Reader, SectionFile, Writer};
use giant_ontology::Ontology;
use giant_text::{Annotator, NerTag};

fn write_ner(w: &mut Writer, tag: NerTag) {
    w.u8(tag.index() as u8);
}

fn read_ner(r: &mut Reader<'_>) -> Result<NerTag, BinError> {
    let at = r.position();
    let i = r.u8()? as usize;
    NerTag::ALL.get(i).copied().ok_or_else(|| BinError {
        at,
        message: format!("bad NER tag {i}"),
    })
}

/// Checkpoint layer format version, carried in the `incr.format` section
/// as `[version: u32, slot_count: u32]`.
///
/// The slot count and the `usize` that follows `threads` in `incr.meta`
/// are fixed fields of the layout: they are written as `0` and `1`, the
/// values every checkpoint this layout has ever held, and the reader
/// rejects anything else (see [`Checkpoint::from_sections`]). The
/// container-global version in [`giant_ontology::binio`] is separate.
const CHECKPOINT_VERSION: u32 = 2;

/// The typed refusal for the two fields that used to describe a sharded
/// state (`what` names the field, `found` its stored value).
fn sharded_unsupported(at: usize, what: &str, found: u64) -> BinError {
    BinError::new(
        at,
        format!("sharded checkpoints are no longer supported ({what} = {found})"),
    )
}

fn write_config(w: &mut Writer, cfg: &GiantConfig) {
    w.f64(cfg.cluster.delta_v);
    w.f64(cfg.cluster.walk.restart);
    w.usize(cfg.cluster.walk.max_iter);
    w.f64(cfg.cluster.walk.tol);
    w.f64(cfg.cluster.walk.min_mass);
    w.usize(cfg.cluster.max_queries);
    w.usize(cfg.cluster.max_docs);
    w.f64(cfg.cluster.min_overlap);
    w.f64(cfg.delta_m);
    w.f64(cfg.delta_g);
    w.usize(cfg.subtitle_min_tokens);
    w.usize(cfg.subtitle_max_tokens);
    w.usize(cfg.csd_min_children);
    w.usize(cfg.cpd_min_events);
    w.f64(cfg.topic_min_support);
    w.f64(cfg.correlate_threshold_percentile);
    w.u64(cfg.seed);
    w.usize(cfg.threads);
    w.usize(1);
}

fn read_config(r: &mut Reader<'_>) -> Result<GiantConfig, BinError> {
    let cfg = GiantConfig {
        cluster: ClusterConfig {
            delta_v: r.f64()?,
            walk: WalkConfig {
                restart: r.f64()?,
                max_iter: r.usize()?,
                tol: r.f64()?,
                min_mass: r.f64()?,
            },
            max_queries: r.usize()?,
            max_docs: r.usize()?,
            min_overlap: r.f64()?,
        },
        delta_m: r.f64()?,
        delta_g: r.f64()?,
        subtitle_min_tokens: r.usize()?,
        subtitle_max_tokens: r.usize()?,
        csd_min_children: r.usize()?,
        cpd_min_events: r.usize()?,
        topic_min_support: r.f64()?,
        correlate_threshold_percentile: r.f64()?,
        seed: r.u64()?,
        threads: r.usize()?,
    };
    let at = r.position();
    let shards = r.usize()?;
    if shards > 1 {
        return Err(sharded_unsupported(at, "stored shards", shards as u64));
    }
    Ok(cfg)
}

fn write_click_graph(w: &mut Writer, g: &ClickGraph) {
    w.len_prefix(g.n_queries(), "click graph queries");
    for q in g.query_ids() {
        w.str(g.query_text(q));
    }
    for q in g.query_ids() {
        let edges = g.docs_of(q);
        w.len_prefix(edges.len(), "query edges");
        for &(d, c) in edges {
            w.u32(d.0);
            w.f64(c);
        }
    }
    w.len_prefix(g.n_docs(), "click graph docs");
    for d in 0..g.n_docs() {
        let edges = g.queries_of(DocId(d as u32));
        w.len_prefix(edges.len(), "doc edges");
        for &(q, c) in edges {
            w.u32(q.0);
            w.f64(c);
        }
    }
    w.f64(g.total_clicks());
}

fn read_click_graph(r: &mut Reader<'_>) -> Result<ClickGraph, BinError> {
    let n_queries = r.len(1, "click graph queries")?;
    let mut queries = Vec::with_capacity(n_queries);
    for _ in 0..n_queries {
        queries.push(r.str()?);
    }
    let mut q_edges = Vec::with_capacity(n_queries);
    for _ in 0..n_queries {
        let m = r.len(12, "query edges")?;
        let mut row = Vec::with_capacity(m);
        for _ in 0..m {
            let d = r.u32()?;
            let c = r.f64()?;
            row.push((DocId(d), c));
        }
        q_edges.push(row);
    }
    let n_docs = r.len(4, "click graph docs")?;
    let mut d_edges = Vec::with_capacity(n_docs);
    for _ in 0..n_docs {
        let m = r.len(12, "doc edges")?;
        let mut row = Vec::with_capacity(m);
        for _ in 0..m {
            let q = r.u32()?;
            if q as usize >= n_queries {
                return Err(BinError {
                    at: r.position(),
                    message: format!("doc edge references query {q} out of range"),
                });
            }
            let c = r.f64()?;
            row.push((QueryId(q), c));
        }
        d_edges.push(row);
    }
    let total_clicks = r.f64()?;
    Ok(ClickGraph::from_parts(queries, q_edges, d_edges, total_clicks))
}

pub(crate) fn write_docs(w: &mut Writer, docs: &[DocRecord]) {
    w.len_prefix(docs.len(), "docs");
    for d in docs {
        w.usize(d.id);
        w.str(&d.title);
        w.str_slice(&d.sentences);
        w.usize(d.leaf_category);
        w.u32(d.day);
    }
}

pub(crate) fn read_docs(r: &mut Reader<'_>) -> Result<Vec<DocRecord>, BinError> {
    let n = r.len(25, "docs")?;
    let mut docs = Vec::with_capacity(n);
    for _ in 0..n {
        docs.push(DocRecord {
            id: r.usize()?,
            title: r.str()?,
            sentences: r.str_vec()?,
            leaf_category: r.usize()?,
            day: r.u32()?,
        });
    }
    Ok(docs)
}

fn write_categories(w: &mut Writer, cats: &[CategoryRecord]) {
    w.len_prefix(cats.len(), "categories");
    for c in cats {
        w.usize(c.id);
        w.str_slice(&c.tokens);
        w.u8(c.level);
        match c.parent {
            Some(p) => {
                w.bool(true);
                w.usize(p);
            }
            None => w.bool(false),
        }
    }
}

fn read_categories(r: &mut Reader<'_>) -> Result<Vec<CategoryRecord>, BinError> {
    let n = r.len(14, "categories")?;
    let mut cats = Vec::with_capacity(n);
    for _ in 0..n {
        cats.push(CategoryRecord {
            id: r.usize()?,
            tokens: r.str_vec()?,
            level: r.u8()?,
            parent: if r.bool()? { Some(r.usize()?) } else { None },
        });
    }
    Ok(cats)
}

/// Sessions then the entity dictionary: the one codec behind both the
/// `incr.input` section and a WAL batch payload, so the two never drift
/// apart byte-wise.
pub(crate) fn write_sessions_entities(
    w: &mut Writer,
    sessions: &[Vec<String>],
    entities: &[(Vec<String>, NerTag)],
) {
    w.len_prefix(sessions.len(), "sessions");
    for s in sessions {
        w.str_slice(s);
    }
    w.len_prefix(entities.len(), "entities");
    for (tokens, ner) in entities {
        w.str_slice(tokens);
        write_ner(w, *ner);
    }
}

/// Sessions and the entity dictionary, as [`read_sessions_entities`]
/// returns them.
pub(crate) type SessionsEntities = (Vec<Vec<String>>, Vec<(Vec<String>, NerTag)>);

/// Inverse of [`write_sessions_entities`].
pub(crate) fn read_sessions_entities(r: &mut Reader<'_>) -> Result<SessionsEntities, BinError> {
    let n = r.len(4, "sessions")?;
    let mut sessions = Vec::with_capacity(n);
    for _ in 0..n {
        sessions.push(r.str_vec()?);
    }
    let n = r.len(5, "entities")?;
    let mut entities = Vec::with_capacity(n);
    for _ in 0..n {
        entities.push((r.str_vec()?, read_ner(r)?));
    }
    Ok((sessions, entities))
}

/// The `incr.*` sections of one [`IncrementalState`], read back: the
/// accumulated corpus, warm caches, live ontology and configuration —
/// everything [`Checkpoint::restore`] needs besides the host's models and
/// annotator (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    cfg: GiantConfig,
    folds: u64,
    click_graph: ClickGraph,
    docs: Vec<DocRecord>,
    categories: Vec<CategoryRecord>,
    sessions: Vec<Vec<String>>,
    entities: Vec<(Vec<String>, NerTag)>,
    caches: PipelineCaches,
    ontology: Ontology,
}

impl Checkpoint {
    /// Completed folds at checkpoint time.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// The configuration the checkpointed folds ran under.
    pub fn cfg(&self) -> &GiantConfig {
        &self.cfg
    }

    /// Reassembles a live state: the host supplies the same annotator and
    /// trained models it folded under before the restart.
    pub fn restore(self, annotator: Annotator, models: GiantModels) -> IncrementalState {
        let input = PipelineInput {
            click_graph: self.click_graph,
            docs: self.docs,
            categories: self.categories,
            sessions: self.sessions,
            entities: self.entities,
            annotator,
        };
        IncrementalState::from_parts(
            input,
            models,
            self.cfg,
            self.caches,
            self.ontology,
            self.folds,
        )
    }

    /// Adds a live state's `incr.*` sections to a container, serialising
    /// by reference — composable with other sections (the incremental
    /// driver files the serving frame alongside). The one checkpoint
    /// writer.
    pub fn write_state_sections(state: &IncrementalState, file: &mut SectionFile) {
        let mut w = Writer::new();
        w.u32(CHECKPOINT_VERSION);
        w.u32(0);
        file.add_writer("incr.format", w);

        let mut w = Writer::new();
        write_config(&mut w, state.cfg());
        w.u64(state.folds());
        file.add_writer("incr.meta", w);

        let input = state.input();
        let mut w = Writer::new();
        write_click_graph(&mut w, &input.click_graph);
        write_docs(&mut w, &input.docs);
        write_categories(&mut w, &input.categories);
        write_sessions_entities(&mut w, &input.sessions, &input.entities);
        file.add_writer("incr.input", w);

        let mut w = Writer::new();
        state.caches().write_checkpoint(&mut w);
        file.add_writer("incr.caches", w);

        let mut w = Writer::new();
        binio::write_ontology(state.ontology(), &mut w);
        file.add_writer("incr.ontology", w);
    }

    /// Reads a checkpoint back out of a container's `incr.*` sections.
    ///
    /// Exactly one layout is accepted: `incr.format = [2, 0]` and a stored
    /// shard count of at most 1. A missing `incr.format`, another version,
    /// a non-zero slot count or a larger shard count fail with a typed
    /// [`BinError`] before anything is sized from them.
    pub fn from_sections(file: &SectionFile) -> Result<Self, BinError> {
        let unsupported = |found: &str| {
            BinError::new(
                0,
                format!(
                    "unsupported checkpoint format {found} \
                     (this build reads v{CHECKPOINT_VERSION})"
                ),
            )
        };
        let mut r = file
            .section("incr.format")
            .map_err(|_| unsupported("v1 (no incr.format section)"))?;
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(unsupported(&format!("v{version}")));
        }
        let at = r.position();
        let n_slots = r.u32()?;
        if n_slots != 0 {
            return Err(sharded_unsupported(at, "slot count", n_slots.into()));
        }
        r.expect_exhausted()?;

        let mut r = file.section("incr.meta")?;
        let cfg = read_config(&mut r)?;
        let folds = r.u64()?;
        r.expect_exhausted()?;

        let mut r = file.section("incr.input")?;
        let click_graph = read_click_graph(&mut r)?;
        let docs = read_docs(&mut r)?;
        let categories = read_categories(&mut r)?;
        let (sessions, entities) = read_sessions_entities(&mut r)?;
        r.expect_exhausted()?;

        let mut r = file.section("incr.caches")?;
        let caches = PipelineCaches::read_checkpoint(&mut r)?;
        r.expect_exhausted()?;

        let mut r = file.section("incr.ontology")?;
        let ontology = binio::read_ontology(&mut r)?;
        r.expect_exhausted()?;

        Ok(Self {
            cfg,
            folds,
            click_graph,
            docs,
            categories,
            sessions,
            entities,
            caches,
            ontology,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{ClickEvent, DeltaBatch};
    use giant_core::gctsp::{GctspConfig, GctspNet};

    /// Deterministically initialised (untrained) models — checkpoints only
    /// need *a* fixed model pair, not a good one.
    fn untrained_models() -> GiantModels {
        GiantModels {
            phrase_model: GctspNet::new(GctspConfig::default()),
            role_model: GctspNet::new(GctspConfig {
                n_classes: 4,
                ..GctspConfig::default()
            }),
        }
    }

    fn tiny_state() -> IncrementalState {
        let mut state = IncrementalState::new(
            vec![CategoryRecord {
                id: 0,
                tokens: vec!["tech".into()],
                level: 1,
                parent: None,
            }],
            Annotator::default(),
            untrained_models(),
            GiantConfig::default(),
        );
        let mut batch = DeltaBatch::new();
        batch.docs.push(DocRecord {
            id: 0,
            title: "quanta corp launches panel".into(),
            sentences: vec!["the quanta corp panel is here".into()],
            leaf_category: 0,
            day: 1,
        });
        batch.clicks.push(ClickEvent {
            query: "quanta panel".into(),
            doc: 0,
            count: 3.0,
        });
        batch.sessions.push(vec!["quanta panel".into(), "quanta corp".into()]);
        batch
            .entities
            .push((vec!["quanta".into(), "corp".into()], NerTag::Organization));
        state.fold(batch).expect("tiny batch folds");
        state
    }

    #[test]
    fn checkpoint_write_read_restore_round_trips() {
        let state = tiny_state();
        let before = giant_ontology::io::dump(state.ontology());
        let dir = std::env::temp_dir().join("giant-incr-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let mut file = SectionFile::new();
        Checkpoint::write_state_sections(&state, &mut file);
        file.write_file(&path).unwrap();

        let loaded = Checkpoint::from_sections(&SectionFile::read_file(&path).unwrap()).unwrap();
        assert_eq!(loaded.folds(), state.folds());
        let restored = loaded.restore(Annotator::default(), untrained_models());
        assert_eq!(restored.folds(), state.folds());
        assert_eq!(restored.cache_sizes(), state.cache_sizes());
        assert_eq!(giant_ontology::io::dump(restored.ontology()), before);
        assert_eq!(
            restored.input().click_graph.total_clicks().to_bits(),
            state.input().click_graph.total_clicks().to_bits(),
            "running click total must be bit-exact"
        );
        std::fs::remove_file(&path).ok();
    }

    /// The one supported layout, hand-built against its frozen field
    /// order rather than through `write_state_sections`, so the test pins
    /// the bytes and not the writer: it must restore to the live state,
    /// the writer must emit exactly these bytes, and every neighbouring
    /// layout (sharded, another version, the pre-`incr.format` v1) must
    /// fail typed.
    #[test]
    fn frozen_layout_restores_and_every_other_layout_is_rejected() {
        let state = tiny_state();
        let before = giant_ontology::io::dump(state.ontology());
        let mut written = SectionFile::new();
        Checkpoint::write_state_sections(&state, &mut written);
        let ck = Checkpoint::from_sections(&written).expect("the writer's sections parse");

        let build = |format: Option<(u32, u32)>, stored_shards: usize| {
            let mut file = SectionFile::new();
            if let Some((version, slots)) = format {
                let mut w = Writer::new();
                w.u32(version);
                w.u32(slots);
                file.add_writer("incr.format", w);
            }

            let mut w = Writer::new();
            let cfg = ck.cfg();
            w.f64(cfg.cluster.delta_v);
            w.f64(cfg.cluster.walk.restart);
            w.usize(cfg.cluster.walk.max_iter);
            w.f64(cfg.cluster.walk.tol);
            w.f64(cfg.cluster.walk.min_mass);
            w.usize(cfg.cluster.max_queries);
            w.usize(cfg.cluster.max_docs);
            w.f64(cfg.cluster.min_overlap);
            w.f64(cfg.delta_m);
            w.f64(cfg.delta_g);
            w.usize(cfg.subtitle_min_tokens);
            w.usize(cfg.subtitle_max_tokens);
            w.usize(cfg.csd_min_children);
            w.usize(cfg.cpd_min_events);
            w.f64(cfg.topic_min_support);
            w.f64(cfg.correlate_threshold_percentile);
            w.u64(cfg.seed);
            w.usize(cfg.threads);
            w.usize(stored_shards);
            w.u64(ck.folds());
            file.add_writer("incr.meta", w);

            let mut w = Writer::new();
            write_click_graph(&mut w, &ck.click_graph);
            write_docs(&mut w, &ck.docs);
            write_categories(&mut w, &ck.categories);
            w.u32(ck.sessions.len() as u32);
            for s in &ck.sessions {
                w.str_slice(s);
            }
            w.u32(ck.entities.len() as u32);
            for (tokens, ner) in &ck.entities {
                w.str_slice(tokens);
                write_ner(&mut w, *ner);
            }
            file.add_writer("incr.input", w);

            let mut w = Writer::new();
            ck.caches.write_checkpoint(&mut w);
            file.add_writer("incr.caches", w);

            let mut w = Writer::new();
            binio::write_ontology(&ck.ontology, &mut w);
            file.add_writer("incr.ontology", w);
            file
        };

        let frozen = build(Some((2, 0)), 1);
        assert_eq!(written.to_bytes(), frozen.to_bytes(), "the writer moved the on-disk bytes");

        let reread = SectionFile::from_bytes(&frozen.to_bytes()).expect("container round trip");
        let loaded = Checkpoint::from_sections(&reread).expect("the frozen layout parses");
        assert_eq!(loaded.folds(), ck.folds());
        let restored = loaded.restore(Annotator::default(), untrained_models());
        assert_eq!(restored.cache_sizes(), state.cache_sizes());
        assert_eq!(giant_ontology::io::dump(restored.ontology()), before);

        for (what, file, expect) in [
            ("slot count 2", build(Some((2, 2)), 1), "sharded checkpoints are no longer supported"),
            ("stored shards 4", build(Some((2, 0)), 4), "sharded checkpoints are no longer supported"),
            ("version 3", build(Some((3, 0)), 1), "unsupported checkpoint format v3"),
            ("no incr.format", build(None, 1), "unsupported checkpoint format v1"),
            // A slot count no machine could allocate for is refused like
            // any other, before anything is sized from it.
            ("slot count u32::MAX", build(Some((2, u32::MAX)), 1), "slot count = 4294967295"),
        ] {
            let err = Checkpoint::from_sections(&file).expect_err(what);
            assert!(err.message.contains(expect), "{what}: got {}", err.message);
        }
    }

    #[test]
    fn corrupted_checkpoint_fails_typed() {
        let state = tiny_state();
        let mut file = SectionFile::new();
        Checkpoint::write_state_sections(&state, &mut file);
        let mut bytes = file.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x42;
        assert!(SectionFile::from_bytes(&bytes).is_err(), "checksum must catch the flip");
    }
}
