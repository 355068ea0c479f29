//! The incremental serving driver: the end-to-end "log stream in, fresh
//! versioned answers out" loop.
//!
//! [`IncrementalDriver`] ties `giant-incr`'s folding to the versioned
//! [`OntologyService`]: each [`IncrementalDriver::ingest`] folds one
//! [`DeltaBatch`] (dirty-cluster re-mining + [`giant_ontology::OntologyDelta`]
//! application), freezes the updated live ontology into an
//! [`giant_ontology::OntologySnapshot`], refreshes the serving metadata
//! from the fold's mining product, and publishes the new frame — all while
//! readers keep answering from whatever frame they hold (the superseded
//! frame is freed when the last of them lets go).
//!
//! Model resources (the SGNS phrase encoder, TF-IDF, Duet matcher) are
//! trained offline and carried across publishes by `Arc`; what refreshes
//! per version is the *mined metadata*: concept contexts, event/topic
//! phrases, the concept support floor, and the story-event set
//! ([`mined_metadata`] — also the single derivation `giant::adapter`'s
//! batch `build_serving` uses, so batch and incremental serving can never
//! drift apart).

use crate::serving::{OntologyService, ServeResources};
use crate::storytree::StoryEvent;
use crate::tagging::{TagResources, TaggingConfig};
use giant_core::pipeline::GiantOutput;
use giant_core::train::GiantModels;
use giant_incr::{
    screen_batch, BatchRejection, Checkpoint, DeltaBatch, FoldError, IncrementalState, SyncMode,
    Wal, WalError, WalTruncation,
};
use giant_ontology::binio::{self, FileError, SectionFile, Writer};
use giant_ontology::{DeltaStats, NodeId, NodeKind, OntologySnapshot};
use giant_schema::Schema;
use giant_text::Annotator;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Serving metadata derived from one pipeline product.
#[derive(Debug)]
pub struct MinedMetadata {
    /// Concept node → context-enriched tokens (phrase + top clicked
    /// titles).
    pub concept_contexts: HashMap<NodeId, Vec<String>>,
    /// Event/topic phrases to match during tagging.
    pub event_phrases: Vec<(NodeId, Vec<String>)>,
    /// Support floor separating noise concepts (half the median mined
    /// concept support).
    pub min_concept_support: f64,
    /// The mined events as story-tree inputs, in mining order.
    pub stories: Vec<StoryEvent>,
}

/// Derives the per-version serving metadata from a pipeline product. The
/// single implementation behind both the batch `build_serving` assembly
/// and [`refresh_resources`].
pub fn mined_metadata(output: &GiantOutput) -> MinedMetadata {
    let mut concept_contexts: HashMap<NodeId, Vec<String>> = HashMap::new();
    for m in output.mined_of_kind(NodeKind::Concept) {
        let mut ctx = m.tokens.clone();
        for t in &m.top_titles {
            ctx.extend(giant_text::tokenize(t));
        }
        concept_contexts.insert(m.node, ctx);
    }
    let event_phrases: Vec<(NodeId, Vec<String>)> = output
        .mined
        .iter()
        .filter(|m| matches!(m.kind, NodeKind::Event | NodeKind::Topic))
        .map(|m| (m.node, m.tokens.clone()))
        .collect();
    // Noise concepts come from single odd clusters and carry little click
    // mass; half the median support separates them from the real ones
    // without assuming any ground truth.
    let mut supports: Vec<f64> = output
        .mined_of_kind(NodeKind::Concept)
        .iter()
        .map(|m| m.support)
        .collect();
    supports.sort_by(|a, b| a.total_cmp(b));
    let min_concept_support = supports.get(supports.len() / 2).copied().unwrap_or(0.0) * 0.5;
    let stories = output
        .mined_of_kind(NodeKind::Event)
        .into_iter()
        .map(|m| StoryEvent {
            node: m.node,
            tokens: m.tokens.clone(),
            trigger: m.trigger.clone(),
            entities: m.entities.clone(),
            day: m.day.unwrap_or(0),
        })
        .collect();
    MinedMetadata {
        concept_contexts,
        event_phrases,
        min_concept_support,
        stories,
    }
}

/// A new [`ServeResources`] for `output`: trained model handles carried
/// over from `prev` by `Arc`, mined metadata re-derived from the fold.
pub fn refresh_resources(prev: &ServeResources, output: &GiantOutput) -> ServeResources {
    let meta = mined_metadata(output);
    ServeResources {
        tagging: TagResources {
            concept_contexts: meta.concept_contexts,
            event_phrases: meta.event_phrases,
            tfidf: Arc::clone(&prev.tagging.tfidf),
            duet: Arc::clone(&prev.tagging.duet),
            encoder: Arc::clone(&prev.tagging.encoder),
            vocab: Arc::clone(&prev.tagging.vocab),
            config: TaggingConfig {
                min_concept_support: meta.min_concept_support,
                ..prev.tagging.config
            },
        },
        stories: meta.stories,
        story_config: prev.story_config,
        match_aliases: prev.match_aliases,
        max_results: prev.max_results,
    }
}

/// How [`IncrementalDriver`] persists across crashes: a write-ahead log
/// of every ingested batch plus a periodic full checkpoint, both living
/// under one directory (`state.ckpt` + `ingest.wal`).
///
/// The contract (proven by `tests/crash_consistency.rs`): kill the
/// process at **any** instant, then [`IncrementalDriver::restore_durable`]
/// converges byte-identically with the never-crashed run — the WAL is
/// appended *before* the fold, so every acknowledged ingest is either in
/// the checkpoint or replayable from the log tail.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `state.ckpt` and `ingest.wal` (created if
    /// missing).
    pub dir: PathBuf,
    /// WAL fsync policy; see [`SyncMode`] for the survival table.
    pub sync: SyncMode,
    /// Checkpoint every N successful folds (≥ 1). Between checkpoints the
    /// WAL alone carries the delta; after each checkpoint the log is
    /// rotated down to a header.
    pub checkpoint_every: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with per-append fsync and a checkpoint
    /// every 8 folds.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: SyncMode::Strict,
            checkpoint_every: 8,
        }
    }

    /// Path of the periodic checkpoint file.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("state.ckpt")
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("ingest.wal")
    }
}

/// The live durability machinery behind an enabled [`DurabilityConfig`].
struct Durability {
    cfg: DurabilityConfig,
    wal: Wal,
    folds_since_checkpoint: u64,
}

/// What [`IncrementalDriver::restore_durable`] found and did.
#[derive(Debug)]
pub struct RestoreReport {
    /// WAL entries folded on top of the checkpoint.
    pub replayed: usize,
    /// Set when lenient recovery dropped a corrupt WAL suffix.
    pub truncation: Option<WalTruncation>,
}

/// [`IncrementalDriver::restore_durable`] failures.
#[derive(Debug)]
pub enum RestoreError {
    /// The checkpoint file is unreadable or undecodable.
    Checkpoint(FileError),
    /// The WAL is unreadable or corrupt (strict open; see
    /// [`giant_incr::Wal::open`]).
    Wal(WalError),
    /// A logged batch no longer folds — models/config drift between the
    /// run that logged it and this restore.
    Replay { seq: u64, source: FoldError },
    /// Writing the post-replay checkpoint failed.
    Persist(std::io::Error),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Checkpoint(e) => write!(f, "checkpoint unreadable: {e}"),
            RestoreError::Wal(e) => write!(f, "wal unreadable: {e}"),
            RestoreError::Replay { seq, source } => {
                write!(f, "replay of wal entry {seq} rejected: {source}")
            }
            RestoreError::Persist(e) => write!(f, "post-replay checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<FileError> for RestoreError {
    fn from(e: FileError) -> Self {
        RestoreError::Checkpoint(e)
    }
}

impl From<WalError> for RestoreError {
    fn from(e: WalError) -> Self {
        RestoreError::Wal(e)
    }
}

/// What one [`IncrementalDriver::ingest`] did.
///
/// The `*_secs` fields are fed from the same `giant-obs` span guards
/// that populate the `ingest.*` span histograms when observability is
/// armed — one clock, two views (DESIGN.md §13). They stay filled even
/// when recording is disarmed.
#[derive(Debug)]
pub struct IngestReport {
    /// The version the fold published.
    pub version: u64,
    /// Ontology change summary (nodes added/removed/updated, rewiring).
    pub delta: DeltaStats,
    /// Clusters re-mined by the fold.
    pub clusters_mined: usize,
    /// Clusters served from cache.
    pub clusters_reused: usize,
    /// Fold wall clock (ingest + rebuild + diff + apply).
    pub fold_secs: f64,
    /// Freeze + metadata refresh + publish wall clock.
    pub publish_secs: f64,
    /// WAL append wall clock, when durability is enabled.
    pub wal_secs: Option<f64>,
    /// Checkpoint wall clock, when this durable ingest hit its
    /// `checkpoint_every` boundary.
    pub checkpoint_secs: Option<f64>,
    /// Batch items the schema screen rejected (empty unless
    /// [`IncrementalDriver::set_schema`] armed a schema). Rejected items
    /// never reach the WAL or the fold; the rest of the batch proceeds.
    pub rejections: Vec<BatchRejection>,
}

/// [`IncrementalDriver::ingest`] errors.
///
/// The variants split along the publish boundary: [`IngestError::Fold`]
/// and [`IngestError::Wal`] reject the batch **before** anything is
/// served — state, service and (for `Fold` in durable mode) the WAL are
/// rolled back, and retrying the batch is safe. [`IngestError::Checkpoint`]
/// fires **after** the fold already published: readers are serving the new
/// version and the batch is folded for good. It therefore carries the
/// successful [`IngestReport`] — the publish stands; do **not** retry the
/// batch (that would fold it twice). In durable mode a failed checkpoint
/// leaves the WAL un-rotated, so no durability is lost either: the entry
/// replays on restore.
#[derive(Debug)]
pub enum IngestError {
    /// Batch validation failed; the state and service are untouched.
    Fold(FoldError),
    /// The WAL append failed; the batch was not folded or published.
    Wal(WalError),
    /// The fold published, but the checkpoint (or WAL rotation after it)
    /// could not complete. `report` is the report of the **successful**
    /// ingest.
    Checkpoint {
        /// The report of the ingest that published (version, stats, …).
        report: Box<IngestReport>,
        /// Why persisting failed.
        source: std::io::Error,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Fold(e) => write!(f, "fold rejected: {e}"),
            IngestError::Wal(e) => write!(f, "wal append failed: {e}"),
            IngestError::Checkpoint { report, source } => write!(
                f,
                "checkpoint failed after version {} published (the publish stands, do not retry the batch): {source}",
                report.version
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Fold(e) => Some(e),
            IngestError::Wal(e) => Some(e),
            IngestError::Checkpoint { source, .. } => Some(source),
        }
    }
}

impl From<FoldError> for IngestError {
    fn from(e: FoldError) -> Self {
        IngestError::Fold(e)
    }
}

/// The end-to-end incremental serving loop. See the [module docs](self).
pub struct IncrementalDriver {
    state: IncrementalState,
    service: Arc<OntologyService>,
    durability: Option<Durability>,
    schema: Option<Arc<Schema>>,
}

/// Section name carrying the WAL watermark inside a durable checkpoint:
/// the sequence number of the last WAL entry folded into the checkpointed
/// state. Replay skips entries at or below it. Absent from a checkpoint
/// written by [`IncrementalDriver::checkpoint`] (treated as watermark 0).
const WAL_WATERMARK_SECTION: &str = "driver.wal";

impl IncrementalDriver {
    /// Bootstraps the loop: folds `initial` into a fresh `state`, derives
    /// the first frame's resources from the bootstrap product (taking the
    /// trained model handles from `base`), and publishes version 1.
    ///
    /// `_keep_frames` is an unused shim (the service keeps no frame
    /// history): the next `benchmark` PR drops the argument at its call
    /// sites, then it goes from here and `restore_durable`.
    pub fn bootstrap(
        mut state: IncrementalState,
        base: ServeResources,
        initial: DeltaBatch,
        _keep_frames: usize,
    ) -> Result<(Self, IngestReport), FoldError> {
        let report = state.fold(initial)?;
        let publish_span = giant_obs::span("ingest.publish");
        let resources = refresh_resources(&base, &report.output);
        let snapshot = OntologySnapshot::freeze(state.ontology());
        let service = Arc::new(OntologyService::new(snapshot, resources));
        let publish_secs = publish_span.finish_secs();
        let driver = Self {
            state,
            service,
            durability: None,
            schema: None,
        };
        let ingest = IngestReport {
            version: driver.service.version(),
            delta: report.delta.stats(),
            clusters_mined: report.cache.clusters_mined,
            clusters_reused: report.cache.clusters_reused,
            fold_secs: report.secs,
            publish_secs,
            wal_secs: None,
            checkpoint_secs: None,
            rejections: Vec::new(),
        };
        Ok((driver, ingest))
    }

    /// Turns on WAL-backed durability: every subsequent
    /// [`IncrementalDriver::ingest`] appends the batch to
    /// `cfg.wal_path()` **before** folding, and the driver checkpoints to
    /// `cfg.checkpoint_path()` every `cfg.checkpoint_every` folds
    /// (rotating the log after each successful checkpoint).
    ///
    /// The directory is created if missing; any existing log there is
    /// **truncated** and an immediate baseline checkpoint of the current
    /// state is written — this call starts a fresh durability epoch. To
    /// *resume* a previous epoch, use
    /// [`IncrementalDriver::restore_durable`] instead. With
    /// `checkpoint_every: 1` every publish is checkpointed.
    pub fn enable_durability(&mut self, cfg: DurabilityConfig) -> Result<(), RestoreError> {
        std::fs::create_dir_all(&cfg.dir).map_err(RestoreError::Persist)?;
        let wal = Wal::create(&cfg.wal_path(), cfg.sync, 1)?;
        self.write_checkpoint(&cfg.checkpoint_path(), Some(0))
            .map_err(RestoreError::Persist)?;
        self.durability = Some(Durability {
            cfg,
            wal,
            folds_since_checkpoint: 0,
        });
        Ok(())
    }

    /// The enabled durability configuration, if any.
    pub fn durability(&self) -> Option<&DurabilityConfig> {
        self.durability.as_ref().map(|d| &d.cfg)
    }

    /// Arms (or disarms, with `None`) schema screening on ingest: every
    /// subsequent [`IncrementalDriver::ingest`] runs the batch through
    /// [`giant_incr::screen_batch`] first, drops the items that violate
    /// `schema` (reported per item in [`IngestReport::rejections`]), and
    /// folds only the surviving remainder. Screening happens **before**
    /// the WAL append, so the log only ever holds accepted batches and
    /// replay needs no schema. With no schema armed, ingest is
    /// byte-identical to a driver without this feature (the schema-off
    /// fast path; pinned by `tests/schema_interchange.rs`).
    pub fn set_schema(&mut self, schema: Option<Arc<Schema>>) {
        self.schema = schema;
    }

    /// The schema armed by [`IncrementalDriver::set_schema`], if any.
    pub fn schema(&self) -> Option<&Arc<Schema>> {
        self.schema.as_ref()
    }

    /// Folds one batch and publishes the resulting ontology version.
    ///
    /// In durable mode the batch is validated, appended to the WAL, and
    /// only then folded — so a crash at any instant after `append`
    /// returns leaves the batch recoverable, and a crash before leaves
    /// state and log both without it. Every `checkpoint_every`-th fold
    /// checkpoints and rotates the log.
    pub fn ingest(&mut self, batch: DeltaBatch) -> Result<IngestReport, IngestError> {
        // Root span for the whole ingest; the stage spans below nest under
        // it, so a profiling run attributes screen/WAL/fold/publish/
        // checkpoint time separately (DESIGN.md §13). The report's
        // `*_secs` fields are fed from the same guards — one clock.
        let _ingest_span = giant_obs::span("ingest");
        // Schema screen first (when armed): salvage the valid items and
        // collect typed per-item rejections. The accepted remainder is what
        // gets logged and folded — the WAL never holds a rejected item.
        let mut rejections = Vec::new();
        let batch = match self.schema.as_deref() {
            Some(schema) => {
                let screen_span = giant_obs::span("ingest.screen");
                let screened = screen_batch(schema, self.state.input().docs.len(), &batch);
                drop(screen_span);
                rejections = screened.rejections;
                screened.accepted
            }
            None => batch,
        };
        let mut wal_secs = None;
        let mut logged_seq = None;
        if let Some(d) = self.durability.as_mut() {
            // Validate up front: a batch the fold would reject must never
            // enter the log (replay would re-reject it on every restore).
            self.state.validate(&batch).map_err(IngestError::Fold)?;
            let wal_span = giant_obs::span("ingest.wal_append");
            logged_seq = Some(d.wal.append(&batch).map_err(IngestError::Wal)?);
            wal_secs = Some(wal_span.finish_secs());
            binio::crash_point("driver.post-append");
        }
        let fold_span = giant_obs::span("ingest.fold");
        let report = match self.state.fold(batch) {
            Ok(r) => r,
            Err(e) => {
                // Validation passed but the fold still rejected (a
                // diff/apply invariant failure): compensate the append so
                // log and state stay in agreement, then surface the error.
                if let (Some(d), Some(seq)) = (self.durability.as_mut(), logged_seq) {
                    let _ = d.wal.rollback_last(seq);
                }
                return Err(IngestError::Fold(e));
            }
        };
        drop(fold_span);
        let publish_span = giant_obs::span("ingest.publish");
        let resources = refresh_resources(&self.service.resources(), &report.output);
        let snapshot = OntologySnapshot::freeze(self.state.ontology());
        let version = self.service.publish(snapshot, resources);
        let publish_secs = publish_span.finish_secs();
        let m = giant_obs::registry();
        m.counter("ingest.batches").inc();
        m.counter("ingest.rejections").add(rejections.len() as u64);
        let mut out = IngestReport {
            version,
            delta: report.delta.stats(),
            clusters_mined: report.cache.clusters_mined,
            clusters_reused: report.cache.clusters_reused,
            fold_secs: report.secs,
            publish_secs,
            wal_secs,
            checkpoint_secs: None,
            rejections,
        };
        let due = self.durability.as_mut().is_some_and(|d| {
            d.folds_since_checkpoint += 1;
            d.folds_since_checkpoint >= d.cfg.checkpoint_every.max(1)
        });
        if due {
            binio::crash_point("driver.pre-checkpoint");
            let ckpt_span = giant_obs::span("ingest.checkpoint");
            match self.checkpoint_and_rotate() {
                Ok(()) => out.checkpoint_secs = Some(ckpt_span.finish_secs()),
                // The publish stands and the WAL still holds the entry
                // (rotation only follows a *successful* checkpoint), so
                // nothing is lost — report it.
                Err(source) => {
                    return Err(IngestError::Checkpoint {
                        report: Box::new(out),
                        source,
                    })
                }
            }
        }
        Ok(out)
    }

    /// Checkpoints the durable state (watermark = last logged seq), then
    /// rotates the WAL down to a header. Ordering is the durability
    /// argument: the checkpoint holds every logged entry *before* the log
    /// forgets them, and a crash between the two steps only means replay
    /// skips the whole (already-checkpointed) log.
    fn checkpoint_and_rotate(&mut self) -> std::io::Result<()> {
        let d = self.durability.as_ref().expect("durable mode");
        let path = d.cfg.checkpoint_path();
        let watermark = d.wal.last_seq();
        self.write_checkpoint(&path, Some(watermark))?;
        binio::crash_point("driver.pre-rotate");
        let d = self.durability.as_mut().expect("durable mode");
        d.wal.rotate().map_err(std::io::Error::other)?;
        binio::crash_point("driver.post-rotate");
        d.folds_since_checkpoint = 0;
        Ok(())
    }

    /// Writes one file carrying both halves of the loop: the folding
    /// state's `incr.*` sections (accumulated corpus, warm caches, live
    /// ontology) and the serving frame's `serve.*` sections (frozen
    /// snapshot + model resources + version). Serialises the state by
    /// reference — no transient deep clone, so a checkpoint adds write
    /// time but not peak memory to an ingest. Carries no WAL watermark:
    /// [`IncrementalDriver::restore_durable`] from it replays the whole log.
    pub fn checkpoint(&self, path: &Path) -> std::io::Result<()> {
        self.write_checkpoint(path, None)
    }

    /// The one checkpoint writer: state + serving sections, plus (in
    /// durable mode) the [`WAL_WATERMARK_SECTION`] recording how much of
    /// the log the image already contains.
    fn write_checkpoint(&self, path: &Path, watermark: Option<u64>) -> std::io::Result<()> {
        let mut file = SectionFile::new();
        Checkpoint::write_state_sections(&self.state, &mut file);
        self.service.checkpoint_sections(&mut file);
        if let Some(seq) = watermark {
            let mut w = Writer::new();
            w.u64(seq);
            file.add_writer(WAL_WATERMARK_SECTION, w);
        }
        file.write_file(path)
    }

    /// Crash recovery for a durable driver: loads `state.ckpt`, replays
    /// the WAL tail (every entry past the checkpoint's watermark) through
    /// the normal fold+publish path, then re-checkpoints and rotates so
    /// the recovered process starts from a clean epoch.
    ///
    /// Replay reproduces the exact fold sequence the crashed process ran,
    /// so the restored ontology, serving frames and version numbers are
    /// byte-identical with a process that never crashed (the
    /// `tests/crash_consistency.rs` contract). The host supplies the same
    /// annotator and trained models as the original run.
    pub fn restore_durable(
        cfg: DurabilityConfig,
        annotator: Annotator,
        models: GiantModels,
        _keep_frames: usize, // unused shim, see `bootstrap`
    ) -> Result<(Self, RestoreReport), RestoreError> {
        let _restore_span = giant_obs::span("restore");
        let file = SectionFile::read_file(&cfg.checkpoint_path())?;
        let state = Checkpoint::from_sections(&file)
            .map_err(FileError::from)?
            .restore(annotator, models);
        let service = OntologyService::restore_sections(&file).map_err(FileError::from)?;
        let watermark = match file.section(WAL_WATERMARK_SECTION) {
            Ok(mut r) => r.u64().map_err(FileError::from)?,
            Err(_) => 0,
        };
        // Lenient open: a torn tail is the expected crash artifact and a
        // corrupt suffix cannot be trusted anyway — recovery resumes at
        // the last valid entry and the drop is surfaced in the report.
        let (wal, entries, truncation) = Wal::recover(&cfg.wal_path(), cfg.sync)?;
        let mut driver = Self {
            state,
            service: Arc::new(service),
            durability: Some(Durability {
                cfg,
                wal,
                folds_since_checkpoint: 0,
            }),
            schema: None,
        };
        let mut replayed = 0;
        for entry in entries {
            if entry.seq <= watermark {
                continue;
            }
            let replay_span = giant_obs::span("restore.replay");
            driver
                .replay_one(entry.batch)
                .map_err(|source| RestoreError::Replay {
                    seq: entry.seq,
                    source,
                })?;
            drop(replay_span);
            replayed += 1;
        }
        // Distinct from `wal.replayed` (entries *decoded* from the log):
        // this counts entries actually folded past the watermark.
        giant_obs::registry().counter("ingest.replayed").add(replayed as u64);
        if replayed > 0 {
            driver.checkpoint_and_rotate().map_err(RestoreError::Persist)?;
        }
        Ok((driver, RestoreReport { replayed, truncation }))
    }

    /// One replayed WAL entry: the fold+publish half of
    /// [`IncrementalDriver::ingest`], **without** re-appending to the log
    /// (the entry is already there) and without per-entry checkpoints.
    fn replay_one(&mut self, batch: DeltaBatch) -> Result<(), FoldError> {
        let report = self.state.fold(batch)?;
        let resources = refresh_resources(&self.service.resources(), &report.output);
        let snapshot = OntologySnapshot::freeze(self.state.ontology());
        self.service.publish(snapshot, resources);
        Ok(())
    }

    /// The serving endpoint (shared: clone the `Arc` into reader threads).
    pub fn service(&self) -> &Arc<OntologyService> {
        &self.service
    }

    /// The folding state (accumulated input, live ontology, caches).
    pub fn state(&self) -> &IncrementalState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Driver behaviour over a real world is covered by
    // `tests/apps_integration.rs` (facade level — building the initial
    // resources needs the corpus-trained models the adapter assembles);
    // here we only pin the metadata derivation's shape on an empty
    // product.
    #[test]
    fn mined_metadata_of_empty_output_is_empty() {
        let output = GiantOutput {
            ontology: giant_ontology::Ontology::new(),
            mined: Vec::new(),
            category_nodes: HashMap::new(),
            entity_nodes: HashMap::new(),
            rejected_edges: 0,
            alias_conflicts: 0,
            timings: Default::default(),
            cache_stats: Default::default(),
        };
        let meta = mined_metadata(&output);
        assert!(meta.concept_contexts.is_empty());
        assert!(meta.event_phrases.is_empty());
        assert!(meta.stories.is_empty());
        assert_eq!(meta.min_concept_support, 0.0);
    }
}
