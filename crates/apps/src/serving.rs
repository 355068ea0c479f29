//! The versioned ontology serving layer: one typed API over immutable
//! snapshots, with concurrent reads and hot snapshot replacement.
//!
//! Production framing (ROADMAP north star): the ontology is rebuilt
//! periodically by the mining pipeline but queried continuously by the
//! applications. [`OntologyService`] decouples the two — each `publish`
//! freezes a build into an [`OntologySnapshot`] + [`ServeResources`] pair
//! (a *frame*) carrying a monotonically increasing version. The service
//! holds the live frame as one `Mutex<Arc<ServingFrame>>`: a reader locks,
//! clones the `Arc` and unlocks (once per request, once per
//! [`OntologyService::serve_batch`]), a publish replaces the `Arc` under
//! the same lock, and a superseded frame is freed by its reference count
//! when the last in-flight reader lets go of it. Every request is answered
//! entirely within one frame, so a mid-batch publish can never mix two
//! ontology versions in one response.
//!
//! The typed surface is [`ServeRequest`] / [`ServeResponse`]: one request
//! kind per application (conceptualization + rewriting, correlate
//! recommendation, document tagging, story-tree formation).
//! [`OntologyService::serve_batch`] drives request slices through
//! `giant_exec::run_ordered`, so batched serving returns responses in
//! request order, byte-identical at any thread count.

use crate::query::{conceptualize, recommend, QueryUnderstanding, Recommendations};
use crate::storytree::{
    build_story_tree, retrieve_related, EventSimilarity, StoryEvent, StoryTree, StoryTreeConfig,
};
use crate::tagging::{DocTags, DocumentTagger, TagResources};
use giant_ontology::binio::{self, BinError, FileError, SectionFile, Writer};
use giant_ontology::{AttentionNode, EdgeKind, NodeId, OntologySnapshot};
use giant_schema::{export_json_view, Schema};
use std::collections::HashSet;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// Everything a frame needs beyond the snapshot to answer requests.
#[derive(Debug, Clone)]
pub struct ServeResources {
    /// Tagging models and metadata (also lends the encoder/vocab/TF-IDF to
    /// story-tree similarity).
    pub tagging: TagResources,
    /// The mined events available to story-tree requests.
    pub stories: Vec<StoryEvent>,
    /// Story-tree clustering parameters.
    pub story_config: StoryTreeConfig,
    /// Serving policy: let contained-phrase detection match alias surfaces
    /// (`false` reproduces canonical-only historical behaviour).
    pub match_aliases: bool,
    /// Default result cap for conceptualize/recommend requests.
    pub max_results: usize,
}

/// A typed serving request.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// Query conceptualization: contained concept/entity, instance
    /// rewrites, correlate recommendations.
    Conceptualize {
        /// The raw query.
        query: String,
    },
    /// Correlate-based recommendation for the entity conveyed by a query.
    Recommend {
        /// The raw query.
        query: String,
    },
    /// Full document tagging (concepts, events, topics).
    TagDocument {
        /// Document title.
        title: String,
        /// Body sentences.
        sentences: Vec<String>,
    },
    /// Story-tree formation around a seed event node.
    StoryTree {
        /// The seed event's ontology node.
        seed: NodeId,
    },
    /// Schema-checked JSON export of the frame's ontology (DESIGN.md §12):
    /// the whole graph, or the isA-closure under `root`. Opt-in at the
    /// network layer — see `giant_net::ServerConfig::allow_export`.
    ExportSubgraph {
        /// Export root: `None` exports every node; `Some(id)` exports `id`
        /// plus its transitive isA descendants (induced edges only).
        root: Option<NodeId>,
    },
}

/// The typed response for each [`ServeRequest`] kind.
#[derive(Debug, Clone)]
pub enum ServeResponse {
    /// Answer to [`ServeRequest::Conceptualize`].
    Conceptualize(QueryUnderstanding),
    /// Answer to [`ServeRequest::Recommend`].
    Recommend(Recommendations),
    /// Answer to [`ServeRequest::TagDocument`].
    TagDocument(DocTags),
    /// Answer to [`ServeRequest::StoryTree`].
    StoryTree(StoryTree),
    /// Answer to [`ServeRequest::ExportSubgraph`]: the interchange JSON
    /// document (`giant_schema::export_json_view` against the builtin
    /// schema).
    ExportSubgraph(String),
}

/// Serving errors (requests referencing unknown nodes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The story-tree seed is not a mined event in the current frame.
    UnknownStorySeed(NodeId),
    /// The export root is not a node of the current frame.
    UnknownExportRoot(NodeId),
    /// Export was requested but the serving host has it disabled (the
    /// giant-net default; see `ServerConfig::allow_export`).
    ExportDisabled,
    /// The frame's ontology failed schema validation or rendering during
    /// export; the message carries the first violation.
    ExportFailed(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownStorySeed(n) => {
                write!(f, "node {} is not a mined story event in this frame", n.0)
            }
            ServeError::UnknownExportRoot(n) => {
                write!(f, "export root {} is not a node in this frame", n.0)
            }
            ServeError::ExportDisabled => write!(f, "subgraph export is disabled on this host"),
            ServeError::ExportFailed(msg) => write!(f, "export failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One published ontology version: an immutable snapshot plus the model
/// resources that answer requests against it.
#[derive(Debug)]
pub struct ServingFrame {
    /// Monotonically increasing publish version (first publish is 1).
    pub version: u64,
    /// The frozen ontology.
    pub snapshot: Arc<OntologySnapshot>,
    /// Models and serving metadata.
    pub resources: Arc<ServeResources>,
}

impl ServingFrame {
    /// A document tagger borrowing this frame's snapshot and resources —
    /// the single implementation behind `TagDocument` and harness code
    /// that needs sub-steps like key-entity detection.
    pub fn tagger(&self) -> DocumentTagger<'_> {
        DocumentTagger {
            snapshot: &self.snapshot,
            resources: &self.resources.tagging,
        }
    }

    /// Answers one request entirely within this frame.
    pub fn serve(&self, req: &ServeRequest) -> Result<ServeResponse, ServeError> {
        let res = &self.resources;
        match req {
            ServeRequest::Conceptualize { query } => Ok(ServeResponse::Conceptualize(
                conceptualize(&self.snapshot, query, res.max_results, res.match_aliases),
            )),
            ServeRequest::Recommend { query } => Ok(ServeResponse::Recommend(recommend(
                &self.snapshot,
                query,
                res.max_results,
                res.match_aliases,
            ))),
            ServeRequest::TagDocument { title, sentences } => {
                Ok(ServeResponse::TagDocument(self.tagger().tag(title, sentences)))
            }
            ServeRequest::StoryTree { seed } => {
                let seed_event = res
                    .stories
                    .iter()
                    .find(|e| e.node == *seed)
                    .ok_or(ServeError::UnknownStorySeed(*seed))?;
                let related: Vec<StoryEvent> = retrieve_related(seed_event, &res.stories)
                    .into_iter()
                    .cloned()
                    .collect();
                let sim = EventSimilarity {
                    encoder: &res.tagging.encoder,
                    vocab: &res.tagging.vocab,
                    tfidf: &res.tagging.tfidf,
                    snapshot: &self.snapshot,
                };
                Ok(ServeResponse::StoryTree(build_story_tree(
                    seed_event.clone(),
                    related,
                    &sim,
                    &res.story_config,
                )))
            }
            ServeRequest::ExportSubgraph { root } => {
                Ok(ServeResponse::ExportSubgraph(self.export_subgraph(*root)?))
            }
        }
    }

    /// The [`ServeRequest::ExportSubgraph`] implementation: collects the
    /// node set (everything, or `root` plus its isA closure), walks the
    /// snapshot adjacency for the induced edges (correlates emitted once,
    /// smaller id first — matching `Ontology::edges_iter`), and renders
    /// through the builtin schema. Node ids keep their frame values, so a
    /// subgraph export names the same nodes the full export does.
    fn export_subgraph(&self, root: Option<NodeId>) -> Result<String, ServeError> {
        let snap = &self.snapshot;
        let ids: Vec<NodeId> = match root {
            None => (0..snap.n_nodes()).map(|i| NodeId(i as u32)).collect(),
            Some(r) => {
                if r.index() >= snap.n_nodes() {
                    return Err(ServeError::UnknownExportRoot(r));
                }
                let mut ids: Vec<NodeId> =
                    snap.descendants(r).into_iter().map(|(id, _)| id).collect();
                ids.push(r);
                ids.sort_unstable_by_key(|id| id.0);
                ids.dedup();
                ids
            }
        };
        let included: HashSet<u32> = ids.iter().map(|id| id.0).collect();
        let nodes: Vec<AttentionNode> = ids.iter().map(|id| snap.node(*id).clone()).collect();
        let mut edges: Vec<(NodeId, NodeId, EdgeKind, f64)> = Vec::new();
        for &id in &ids {
            for kind in EdgeKind::ALL {
                let (targets, weights) = snap.out_edges(kind, id);
                for (t, w) in targets.iter().zip(weights) {
                    if !included.contains(&t.0) {
                        continue;
                    }
                    if kind == EdgeKind::Correlate && t.0 < id.0 {
                        continue; // symmetric pair: emit once
                    }
                    edges.push((id, *t, kind, *w));
                }
            }
        }
        export_json_view(&nodes, &edges, &Schema::builtin())
            .map_err(|e| ServeError::ExportFailed(e.to_string()))
    }
}

/// The versioned, hot-swappable ontology serving endpoint.
///
/// The lock guards only an `Arc` clone (readers) or replace (`publish`):
/// frames are built before it is taken and freed after it is released.
pub struct OntologyService {
    current: Mutex<Arc<ServingFrame>>,
}

impl fmt::Debug for OntologyService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OntologyService")
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

impl OntologyService {
    /// Builds a service with its first published version (version 1).
    pub fn new(snapshot: OntologySnapshot, resources: ServeResources) -> Self {
        Self::with_frame(snapshot, resources, 1)
    }

    /// Builds a service whose live frame carries an explicit version —
    /// checkpoint restore resumes the version sequence instead of
    /// restarting it at 1.
    fn with_frame(snapshot: OntologySnapshot, resources: ServeResources, version: u64) -> Self {
        Self {
            current: Mutex::new(Arc::new(ServingFrame {
                version,
                snapshot: Arc::new(snapshot),
                resources: Arc::new(resources),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Arc<ServingFrame>> {
        self.current.lock().expect("a frame-lock holder panicked")
    }

    /// Writes the live frame — version, frozen snapshot, full serving
    /// resources (trained models included) — as `serve.*` sections, so a
    /// restored process serves byte-identical answers without re-freezing
    /// or retraining. In-flight readers and publishers are unaffected
    /// (this reads one frame through [`OntologyService::frame`]).
    pub fn checkpoint_sections(&self, file: &mut SectionFile) {
        let frame = self.frame();
        let mut w = Writer::new();
        w.u64(frame.version);
        file.add_writer("serve.meta", w);
        let mut w = Writer::new();
        binio::write_snapshot(&frame.snapshot, &mut w);
        file.add_writer("serve.snapshot", w);
        let mut w = Writer::new();
        crate::ckpt::write_resources(&mut w, &frame.resources);
        file.add_writer("serve.resources", w);
    }

    /// Checkpoints the live frame to `path` (atomic write; magic, format
    /// version and per-section checksums per `giant_ontology::binio`).
    pub fn checkpoint(&self, path: &Path) -> std::io::Result<()> {
        let mut file = SectionFile::new();
        self.checkpoint_sections(&mut file);
        file.write_file(path)
    }

    /// Rebuilds a service from `serve.*` sections: the snapshot is read
    /// back directly (no re-freeze), the resources carry their trained
    /// models, and the restored service resumes at the checkpointed
    /// version.
    pub fn restore_sections(file: &SectionFile) -> Result<Self, BinError> {
        let mut r = file.section("serve.meta")?;
        let version = r.u64()?;
        r.expect_exhausted()?;
        let mut r = file.section("serve.snapshot")?;
        let snapshot = binio::read_snapshot(&mut r)?;
        r.expect_exhausted()?;
        let mut r = file.section("serve.resources")?;
        let resources = crate::ckpt::read_resources(&mut r)?;
        r.expect_exhausted()?;
        Ok(Self::with_frame(snapshot, resources, version))
    }

    /// Restores a service from a checkpoint written by
    /// [`OntologyService::checkpoint`].
    pub fn restore(path: &Path) -> Result<Self, FileError> {
        let file = SectionFile::read_file(path)?;
        Ok(Self::restore_sections(&file)?)
    }

    /// Atomically replaces the live frame with a freshly built one and
    /// returns its version. In-flight readers keep answering from the frame
    /// they already hold; new readers observe the new frame immediately.
    /// Concurrent publishers serialise on the lock, so versions are
    /// strictly monotonic. The superseded frame is freed when its last
    /// holder drops it — here, if no reader has it.
    pub fn publish(&self, snapshot: OntologySnapshot, resources: ServeResources) -> u64 {
        let mut frame = Arc::new(ServingFrame {
            version: 0, // assigned under the lock
            snapshot: Arc::new(snapshot),
            resources: Arc::new(resources),
        });
        let superseded = {
            let mut current = self.lock();
            Arc::get_mut(&mut frame)
                .expect("an unpublished frame is unshared")
                .version = current.version + 1;
            std::mem::replace(&mut *current, frame)
        };
        let version = superseded.version + 1;
        // Outside the lock: freeing a large snapshot must not stall readers.
        drop(superseded);
        version
    }

    /// The live frame.
    pub fn frame(&self) -> Arc<ServingFrame> {
        Arc::clone(&self.lock())
    }

    /// The live version number.
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    /// The live snapshot.
    pub fn snapshot(&self) -> Arc<OntologySnapshot> {
        Arc::clone(&self.frame().snapshot)
    }

    /// The live resources.
    pub fn resources(&self) -> Arc<ServeResources> {
        Arc::clone(&self.frame().resources)
    }

    /// Answers one request against the live frame.
    pub fn serve(&self, req: &ServeRequest) -> Result<ServeResponse, ServeError> {
        self.frame().serve(req)
    }

    /// Answers a batch on `threads` workers via `giant_exec::run_ordered`:
    /// responses come back in request order, byte-identical at any thread
    /// count, and the whole batch is answered within a single frame even if
    /// a publish lands mid-flight.
    pub fn serve_batch(
        &self,
        requests: &[ServeRequest],
        threads: usize,
    ) -> Vec<Result<ServeResponse, ServeError>> {
        let span = giant_obs::span("serve_batch");
        let frame = self.frame();
        let replies = giant_exec::run_ordered(requests, threads, |_, req| frame.serve(req));
        drop(span);
        replies
    }

    /// No-op shim: there is no frame history to prune; the live frame is
    /// the one frame the service retains. Kept only because `benchmark/`
    /// calls it — the next `benchmark` PR removes that call, then this.
    pub fn retain_last(&self, _keep: usize) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duet::{DuetConfig, DuetMatcher};
    use crate::tagging::TaggingConfig;
    use giant_ontology::{NodeKind, Ontology, Phrase};
    use giant_text::embedding::{PhraseEncoder, SgnsConfig, WordEmbeddings};
    use giant_text::{TfIdf, Vocab};
    use std::collections::HashMap;

    /// A minimal but fully wired frame over a hand-built world.
    fn service() -> (OntologyService, NodeId) {
        let mut o = Ontology::new();
        let cars = o.add_node(NodeKind::Concept, Phrase::from_text("electric cars"), 5.0);
        let v = o.add_node(NodeKind::Entity, Phrase::from_text("veltro x9"), 3.0);
        let k = o.add_node(NodeKind::Entity, Phrase::from_text("kario s4"), 9.0);
        o.add_is_a(cars, v, 1.0).unwrap();
        o.add_is_a(cars, k, 1.0).unwrap();
        o.add_correlate(v, k, 0.9).unwrap();
        let ev = o.add_event(Phrase::from_text("veltro x9 wins award"), 1.0, 3);
        let ev2 = o.add_event(Phrase::from_text("veltro x9 recalled"), 1.0, 7);
        o.add_involve(ev, v, 1.0).unwrap();
        o.add_involve(ev2, v, 1.0).unwrap();

        let mut vocab = Vocab::new();
        let sents: Vec<Vec<giant_text::TokenId>> = (0..10)
            .map(|_| {
                giant_text::tokenize("veltro x9 electric cars wins award recalled")
                    .iter()
                    .map(|t| vocab.intern(t))
                    .collect()
            })
            .collect();
        let encoder =
            PhraseEncoder::new(WordEmbeddings::train(&sents, vocab.len(), &SgnsConfig::default()));
        let mut tfidf = TfIdf::new();
        tfidf.add_doc(["veltro", "x9", "electric", "cars"]);
        let mut examples = Vec::new();
        for _ in 0..10 {
            examples.push((vec![0.95, 0.95, 0.9, 0.6, 0.5, 1.0], true));
            examples.push((vec![0.1, 0.15, 0.0, 0.1, 0.3, 0.0], false));
        }
        let duet = DuetMatcher::train(&examples, DuetConfig::default());
        let stories = vec![
            StoryEvent {
                node: ev,
                tokens: giant_text::tokenize("veltro x9 wins award"),
                trigger: Some("wins".into()),
                entities: vec![v],
                day: 3,
            },
            StoryEvent {
                node: ev2,
                tokens: giant_text::tokenize("veltro x9 recalled"),
                trigger: Some("recalled".into()),
                entities: vec![v],
                day: 7,
            },
        ];
        let resources = ServeResources {
            tagging: TagResources {
                concept_contexts: HashMap::new(),
                event_phrases: vec![(ev, giant_text::tokenize("veltro x9 wins award"))],
                tfidf: Arc::new(tfidf),
                duet: Arc::new(duet),
                encoder: Arc::new(encoder),
                vocab: Arc::new(vocab),
                config: TaggingConfig::default(),
            },
            stories,
            story_config: StoryTreeConfig::default(),
            match_aliases: false,
            max_results: 5,
        };
        (OntologyService::new(OntologySnapshot::freeze(&o), resources), ev)
    }

    #[test]
    fn serves_every_request_kind() {
        let (svc, ev) = service();
        assert_eq!(svc.version(), 1);
        let c = svc
            .serve(&ServeRequest::Conceptualize { query: "best electric cars".into() })
            .unwrap();
        let ServeResponse::Conceptualize(u) = c else { panic!("wrong response kind") };
        assert!(u.concept.is_some());
        assert_eq!(u.rewrites.len(), 2);

        let r = svc
            .serve(&ServeRequest::Recommend { query: "veltro x9 review".into() })
            .unwrap();
        let ServeResponse::Recommend(r) = r else { panic!("wrong response kind") };
        assert_eq!(r.items.len(), 1);

        let t = svc
            .serve(&ServeRequest::TagDocument {
                title: "veltro x9 wins award".into(),
                sentences: vec!["a great day for electric cars".into()],
            })
            .unwrap();
        assert!(matches!(t, ServeResponse::TagDocument(_)));

        let s = svc.serve(&ServeRequest::StoryTree { seed: ev }).unwrap();
        let ServeResponse::StoryTree(tree) = s else { panic!("wrong response kind") };
        assert_eq!(tree.n_events(), 2);

        // Unknown story seed is a typed error.
        let bogus = NodeId(999);
        assert_eq!(
            svc.serve(&ServeRequest::StoryTree { seed: bogus }).unwrap_err(),
            ServeError::UnknownStorySeed(bogus)
        );
    }

    #[test]
    fn batch_is_order_preserving_and_thread_invariant() {
        let (svc, ev) = service();
        let reqs: Vec<ServeRequest> = (0..24)
            .map(|i| match i % 3 {
                0 => ServeRequest::Conceptualize { query: format!("q{i} electric cars") },
                1 => ServeRequest::Recommend { query: "veltro x9".into() },
                _ => ServeRequest::StoryTree { seed: ev },
            })
            .collect();
        let base: Vec<String> =
            svc.serve_batch(&reqs, 1).iter().map(|r| format!("{r:?}")).collect();
        for threads in [2, 4, 7] {
            let got: Vec<String> =
                svc.serve_batch(&reqs, threads).iter().map(|r| format!("{r:?}")).collect();
            assert_eq!(base, got, "batch output varies at {threads} threads");
        }
    }

    #[test]
    fn publish_swaps_the_frame_and_the_last_holder_frees_the_old_one() {
        let (svc, _) = service();
        let req = ServeRequest::Conceptualize { query: "electric cars".into() };
        let old_frame = svc.frame();
        assert_eq!(old_frame.version, 1);
        let old_weak = Arc::downgrade(&old_frame);
        let old_answer = format!("{:?}", old_frame.serve(&req));

        // New world: one more entity under the concept.
        let mut o = Ontology::new();
        let cars = o.add_node(NodeKind::Concept, Phrase::from_text("electric cars"), 5.0);
        let z = o.add_node(NodeKind::Entity, Phrase::from_text("zelda gt2"), 4.0);
        o.add_is_a(cars, z, 1.0).unwrap();
        let resources = (*svc.resources()).clone();
        let v2 = svc.publish(OntologySnapshot::freeze(&o), resources);
        assert_eq!(v2, 2);
        assert_eq!(svc.version(), 2);

        // New frame answers from the new world…
        let ServeResponse::Conceptualize(u) = svc.serve(&req).unwrap() else {
            panic!("wrong response kind")
        };
        assert_eq!(u.rewrites, vec!["electric cars zelda gt2".to_owned()]);
        // …while the frame grabbed before the publish still answers from the
        // old one, byte for byte (snapshot isolation for in-flight work)…
        assert_eq!(format!("{:?}", old_frame.serve(&req)), old_answer);
        // …and is freed by its reference count, with no pruning call, the
        // moment its last holder lets go.
        drop(old_frame);
        assert!(old_weak.upgrade().is_none(), "the service kept a superseded frame alive");
    }

    #[test]
    fn checkpoint_restore_round_trips_every_request_kind() {
        let (svc, ev) = service();
        // Advance the version so restore has something nontrivial to keep.
        let snap = (*svc.snapshot()).clone();
        let res = (*svc.resources()).clone();
        svc.publish(snap, res);
        assert_eq!(svc.version(), 2);

        let dir = std::env::temp_dir().join("giant-serving-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service.ckpt");
        svc.checkpoint(&path).unwrap();
        let restored = OntologyService::restore(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(restored.version(), 2, "restore resumes the version sequence");
        let requests = vec![
            ServeRequest::Conceptualize { query: "best electric cars".into() },
            ServeRequest::Recommend { query: "veltro x9 review".into() },
            ServeRequest::TagDocument {
                title: "veltro x9 wins award".into(),
                sentences: vec!["a great day for electric cars".into()],
            },
            ServeRequest::StoryTree { seed: ev },
            ServeRequest::StoryTree { seed: NodeId(999) },
        ];
        for req in &requests {
            let a = format!("{:?}", svc.serve(req));
            let b = format!("{:?}", restored.serve(req));
            assert_eq!(a, b, "restored frame diverged on {req:?}");
        }
        // A restored service publishes onward normally.
        let snap = (*restored.snapshot()).clone();
        let res = (*restored.resources()).clone();
        assert_eq!(restored.publish(snap, res), 3);
    }

    #[test]
    fn restore_rejects_corrupted_checkpoints() {
        let (svc, _) = service();
        let dir = std::env::temp_dir().join("giant-serving-ckpt-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service.ckpt");
        svc.checkpoint(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x41;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            OntologyService::restore(&path).is_err(),
            "a flipped byte must fail restore, not serve corrupted answers"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Reader threads hold in-flight frames across publishes, and every
    /// answer from a held frame must equal the answer that same frame gave
    /// before — i.e. no in-flight reader ever observes a freed (or
    /// swapped-out) frame.
    #[test]
    fn in_flight_frames_survive_publish() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (svc, _) = service();
        let svc = Arc::new(svc);
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let req = ServeRequest::Conceptualize { query: "electric cars".into() };
                let mut held = 0u64;
                loop {
                    // Acquire a frame and pin its identity *before* the
                    // writer gets a chance to supersede it.
                    let frame = svc.frame();
                    let version = frame.version;
                    let before = format!("{:?}", frame.serve(&req));
                    // Let publishes land in between.
                    std::thread::yield_now();
                    // The held frame must be fully intact: same version,
                    // byte-identical answer.
                    assert_eq!(frame.version, version, "frame version mutated under reader");
                    let after = format!("{:?}", frame.serve(&req));
                    assert_eq!(before, after, "held frame changed answers mid-flight");
                    held += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                held
            }));
        }
        for _ in 0..50 {
            let snap = (*svc.snapshot()).clone();
            let res = (*svc.resources()).clone();
            svc.publish(snap, res);
            assert!(svc.version() >= 2);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader starved");
        }
        assert_eq!(svc.version(), 51);
    }

    #[test]
    fn concurrent_reads_across_publishes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (svc, _) = service();
        let svc = Arc::new(svc);
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut served = 0u64;
                let mut last_version = 0u64;
                // Check-at-end: every reader completes at least one read
                // even if the publisher finishes before it is scheduled.
                loop {
                    let frame = svc.frame();
                    assert!(frame.version >= last_version, "version went backwards");
                    last_version = frame.version;
                    let r = frame
                        .serve(&ServeRequest::Conceptualize { query: "electric cars".into() })
                        .unwrap();
                    assert!(matches!(r, ServeResponse::Conceptualize(_)));
                    served += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                served
            }));
        }
        // Two publishers race 50 publishes each: they serialise on the
        // frame lock, so every version 2..=101 is handed out exactly once.
        let start = Arc::new(std::sync::Barrier::new(2));
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    (0..50)
                        .map(|_| svc.publish((*svc.snapshot()).clone(), (*svc.resources()).clone()))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut versions: Vec<u64> =
            publishers.into_iter().flat_map(|p| p.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader starved");
        }
        versions.sort_unstable();
        assert_eq!(versions, (2..=101).collect::<Vec<u64>>(), "duplicate or skipped version");
        assert_eq!(svc.version(), 101);
    }
}
