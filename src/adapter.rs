//! Adapts the synthetic world (`giant-data`) into the data-agnostic pipeline
//! input (`giant-core`), and bundles the common experiment setup: generate →
//! build datasets → train models → run the pipeline → publish for serving.

use giant_apps::duet::{duet_features, DuetConfig, DuetMatcher};
use giant_apps::serving::{OntologyService, ServeResources};
use giant_apps::storytree::{StoryEvent, StoryTreeConfig};
use giant_apps::tagging::{TagResources, TaggingConfig};
use giant_core::gctsp::GctspConfig;
use giant_core::pipeline::{CategoryRecord, DocRecord, GiantOutput, PipelineInput};
use giant_core::train::{train_phrase_model, train_role_model, GiantModels, TrainingCluster};
use giant_core::GiantConfig;
use giant_data::{
    concept_mining_dataset, event_mining_dataset, generate_clicks, generate_corpus, ClickConfig,
    ClickLog, Corpus, CorpusConfig, MiningDataset, MiningExample, World, WorldConfig,
};
use giant_incr::{union_input, ClickEvent, CorpusStream};
use giant_ontology::{NodeKind, OntologySnapshot};
use giant_text::embedding::{PhraseEncoder, SgnsConfig, WordEmbeddings};
use giant_text::{TfIdf, Vocab};
use std::sync::Arc;

/// Everything needed to run experiments, generated from one seed.
pub struct GiantSetup {
    /// The ground-truth world.
    pub world: World,
    /// The document corpus.
    pub corpus: Corpus,
    /// The click log (records, intents, sessions).
    pub log: ClickLog,
    /// Concept Mining Dataset analogue.
    pub cmd: MiningDataset,
    /// Event Mining Dataset analogue.
    pub emd: MiningDataset,
}

/// Model-training configuration for [`GiantSetup::train_models`].
#[derive(Debug, Clone, Copy)]
pub struct ModelTrainConfig {
    /// Phrase (binary) model configuration.
    pub phrase: GctspConfig,
    /// Role (4-class) model configuration.
    pub role: GctspConfig,
}

impl Default for ModelTrainConfig {
    fn default() -> Self {
        Self {
            phrase: GctspConfig {
                epochs: 8,
                ..GctspConfig::default()
            },
            role: GctspConfig {
                n_classes: 4,
                epochs: 8,
                ..GctspConfig::default()
            },
        }
    }
}

impl ModelTrainConfig {
    /// A small configuration for tests (3-layer, few epochs).
    pub fn small() -> Self {
        let small = GctspConfig {
            hidden: 16,
            layers: 3,
            n_bases: 3,
            feat_dim: 6,
            epochs: 6,
            ..GctspConfig::default()
        };
        Self {
            phrase: small,
            role: GctspConfig {
                n_classes: 4,
                ..small
            },
        }
    }
}

/// Converts dataset examples into the core's training form.
pub fn to_training_clusters(examples: &[MiningExample]) -> Vec<TrainingCluster> {
    examples
        .iter()
        .map(|e| TrainingCluster {
            queries: e.queries.clone(),
            titles: e.titles.clone(),
            gold_tokens: e.gold_tokens.clone(),
            roles: e.roles.clone(),
        })
        .collect()
}

impl GiantSetup {
    /// Generates world, corpus, click log and datasets from `cfg`.
    pub fn generate(cfg: WorldConfig) -> Self {
        Self::generate_with(cfg, &ClickConfig::default())
    }

    /// [`GiantSetup::generate`] with explicit click-log generation
    /// parameters (noise fractions, sessions per member) — benches use
    /// this to model, e.g., a spam-filtered ingest stream.
    pub fn generate_with(cfg: WorldConfig, clicks: &ClickConfig) -> Self {
        let world = World::generate(cfg);
        let corpus = generate_corpus(&world, &CorpusConfig::default());
        let log = generate_clicks(&world, &corpus, clicks);
        let cmd = concept_mining_dataset(&world, &corpus, &log);
        let emd = event_mining_dataset(&world, &corpus, &log);
        Self {
            world,
            corpus,
            log,
            cmd,
            emd,
        }
    }

    /// The category tree, pipeline view.
    pub fn category_records(&self) -> Vec<CategoryRecord> {
        self.world
            .categories
            .iter()
            .map(|c| CategoryRecord {
                id: c.id,
                tokens: c.tokens.clone(),
                level: c.level,
                parent: c.parent,
            })
            .collect()
    }

    /// The raw replayable stream view of this setup: documents, click
    /// records, sessions and entities in log order, before any click graph
    /// is built. This is what incremental folding splits into batches
    /// (`giant_incr::CorpusStream::split`); replaying the whole stream
    /// reproduces [`GiantSetup::pipeline_input`] bit for bit.
    pub fn corpus_stream(&self) -> CorpusStream {
        CorpusStream {
            categories: self.category_records(),
            annotator: self.world.annotator(),
            docs: self
                .corpus
                .docs
                .iter()
                .map(|d| DocRecord {
                    id: d.id,
                    title: d.title.clone(),
                    sentences: d.sentences.clone(),
                    leaf_category: d.leaf_category,
                    day: d.day,
                })
                .collect(),
            clicks: self
                .log
                .records
                .iter()
                .map(|r| ClickEvent {
                    query: r.query.clone(),
                    doc: r.doc,
                    count: r.count,
                })
                .collect(),
            sessions: self.log.sessions.clone(),
            entities: self
                .world
                .entities
                .iter()
                .map(|e| (e.tokens.clone(), e.ner))
                .collect(),
        }
    }

    /// The pipeline-input view of this setup: the corpus stream replayed
    /// as one batch (identical to the historical direct construction —
    /// `build_click_graph` folded the records in the same order).
    pub fn pipeline_input(&self) -> PipelineInput {
        let stream = self.corpus_stream();
        union_input(
            stream.categories.clone(),
            stream.annotator.clone(),
            &[stream.as_one_batch()],
        )
    }

    /// The raw stream of a **scaled** world: `tiles` independently
    /// generated tile worlds (derived seeds — `giant_data::scale`),
    /// concatenated into one corpus with category- and doc-id offsets and
    /// one merged annotator. Tiles are generated one at a time and dropped
    /// after conversion, so peak memory is one tile plus the flat records —
    /// the path the repo benchmark's cold build uses to grow the corpus
    /// past a single world's template capacity.
    ///
    /// Each tile owns its own level-1 category roots, while repeated
    /// concept surfaces across tiles (the domain templates repeat) keep
    /// queries that click into several tiles in the click graph.
    pub fn scaled_corpus_stream(
        base: WorldConfig,
        clicks: &ClickConfig,
        tiles: usize,
    ) -> CorpusStream {
        let mut categories: Vec<CategoryRecord> = Vec::new();
        let mut docs: Vec<DocRecord> = Vec::new();
        let mut click_events: Vec<ClickEvent> = Vec::new();
        let mut sessions: Vec<Vec<String>> = Vec::new();
        let mut entities: Vec<(Vec<String>, giant_text::NerTag)> = Vec::new();
        let mut lexicon = giant_text::Lexicon::with_closed_class();
        let mut gazetteer = giant_text::Gazetteer::new();
        for world in giant_data::tile_worlds(base, tiles.max(1)) {
            let corpus = generate_corpus(&world, &CorpusConfig::default());
            let log = generate_clicks(&world, &corpus, clicks);
            let cat_off = categories.len();
            let doc_off = docs.len();
            categories.extend(world.categories.iter().map(|c| CategoryRecord {
                id: cat_off + c.id,
                tokens: c.tokens.clone(),
                level: c.level,
                parent: c.parent.map(|p| p + cat_off),
            }));
            docs.extend(corpus.docs.iter().map(|d| DocRecord {
                id: doc_off + d.id,
                title: d.title.clone(),
                sentences: d.sentences.clone(),
                leaf_category: d.leaf_category + cat_off,
                day: d.day,
            }));
            click_events.extend(log.records.iter().map(|r| ClickEvent {
                query: r.query.clone(),
                doc: r.doc + doc_off,
                count: r.count,
            }));
            sessions.extend(log.sessions.iter().cloned());
            entities.extend(world.entities.iter().map(|e| (e.tokens.clone(), e.ner)));
            world.extend_lexicon(&mut lexicon);
            world.extend_gazetteer(&mut gazetteer);
            // `world`, `corpus`, `log` drop here — one tile in memory at a
            // time.
        }
        CorpusStream {
            categories,
            annotator: giant_text::Annotator::new(
                lexicon,
                gazetteer,
                giant_text::StopWords::standard(),
            ),
            docs,
            clicks: click_events,
            sessions,
            entities,
        }
    }

    /// Trains the phrase + role models on the CMD/EMD train splits.
    /// Returns the models and the pair of final-epoch losses.
    pub fn train_models(&self, cfg: &ModelTrainConfig) -> (GiantModels, (f64, f64)) {
        let annotator = self.world.annotator();
        let cmd_train = to_training_clusters(&self.cmd.train);
        let emd_train = to_training_clusters(&self.emd.train);
        let (phrase_model, l1) = train_phrase_model(&cmd_train, &annotator, cfg.phrase);
        // The binary phrase model must also see event clusters so the
        // pipeline can mine both kinds.
        let mut all_train = cmd_train;
        all_train.extend(emd_train.iter().cloned());
        let (phrase_model_full, _) = train_phrase_model(&all_train, &annotator, cfg.phrase);
        let (role_model, l2) = train_role_model(&emd_train, &annotator, cfg.role);
        // Keep the CMD-only loss for reporting, ship the full model.
        drop(phrase_model);
        (
            GiantModels {
                phrase_model: phrase_model_full,
                role_model,
            },
            (l1, l2),
        )
    }

    /// Trains models and runs the full pipeline.
    pub fn run_pipeline(&self, models: &GiantModels, cfg: &GiantConfig) -> GiantOutput {
        giant_core::run_pipeline(&self.pipeline_input(), models, cfg)
    }
}

/// A ready-to-serve bundle: the versioned [`OntologyService`] plus shared
/// handles to the trained text resources (kept for harness code that also
/// uses them outside the service, e.g. baseline evaluation).
pub struct ServingBuild {
    /// The serving endpoint, version 1 published.
    pub service: OntologyService,
    /// Frozen ontology of the published frame (same `Arc` the service holds).
    pub snapshot: Arc<OntologySnapshot>,
    /// Phrase encoder trained on the corpus.
    pub encoder: Arc<PhraseEncoder>,
    /// Vocabulary of the encoder.
    pub vocab: Arc<Vocab>,
    /// TF-IDF table over corpus titles.
    pub tfidf: Arc<TfIdf>,
}

/// Trains the Duet matcher on (mined event phrase, matching/non-matching
/// title) pairs from the pipeline output.
pub fn train_duet(
    output: &GiantOutput,
    encoder: &PhraseEncoder,
    vocab: &Vocab,
) -> DuetMatcher {
    let mut examples = Vec::new();
    let events = output.mined_of_kind(NodeKind::Event);
    for (i, m) in events.iter().enumerate() {
        let Some(pos_title) = m.top_titles.first() else {
            continue;
        };
        let pos = duet_features(&m.tokens, &giant_text::tokenize(pos_title), encoder, vocab);
        examples.push((pos, true));
        // Negative: another event's title.
        if let Some(other) = events.get((i + 1) % events.len()) {
            if other.node != m.node {
                if let Some(neg_title) = other.top_titles.first() {
                    let neg =
                        duet_features(&m.tokens, &giant_text::tokenize(neg_title), encoder, vocab);
                    examples.push((neg, false));
                }
            }
        }
    }
    DuetMatcher::train(&examples, DuetConfig::default())
}

/// The mined events as story-tree inputs, in mining order (thin wrapper
/// over the shared serving-metadata derivation in `giant_apps`).
pub fn story_events(output: &GiantOutput) -> Vec<StoryEvent> {
    giant_apps::incremental::mined_metadata(output).stories
}

/// Assembles and publishes the full serving stack for one pipeline product:
/// trains the corpus text resources (SGNS encoder, TF-IDF, Duet), derives
/// the tagging metadata (concept contexts, event phrases, support floor),
/// freezes the ontology into an [`OntologySnapshot`] and publishes
/// everything as version 1 of an [`OntologyService`].
pub fn build_serving(setup: &GiantSetup, output: &GiantOutput) -> ServingBuild {
    // Corpus-trained text resources.
    let mut vocab = Vocab::new();
    let sents = setup.corpus.embedding_corpus(&mut vocab);
    let encoder = Arc::new(PhraseEncoder::new(WordEmbeddings::train(
        &sents,
        vocab.len(),
        &SgnsConfig::default(),
    )));
    let vocab = Arc::new(vocab);
    let mut tfidf = TfIdf::new();
    for d in &setup.corpus.docs {
        let toks = giant_text::tokenize(&d.title);
        tfidf.add_doc(toks.iter().map(|s| s.as_str()));
    }
    let tfidf = Arc::new(tfidf);
    let duet = Arc::new(train_duet(output, &encoder, &vocab));

    // Per-version serving metadata — the same derivation the incremental
    // driver refreshes on every publish (`giant_apps::incremental`), so
    // batch and incremental serving can never drift apart.
    let meta = giant_apps::incremental::mined_metadata(output);

    let resources = ServeResources {
        tagging: TagResources {
            concept_contexts: meta.concept_contexts,
            event_phrases: meta.event_phrases,
            tfidf: Arc::clone(&tfidf),
            duet,
            encoder: Arc::clone(&encoder),
            vocab: Arc::clone(&vocab),
            config: TaggingConfig {
                min_concept_support: meta.min_concept_support,
                ..TaggingConfig::default()
            },
        },
        stories: meta.stories,
        story_config: StoryTreeConfig::default(),
        match_aliases: false,
        max_results: 5,
    };
    let service = OntologyService::new(OntologySnapshot::freeze(&output.ontology), resources);
    let snapshot = service.snapshot();
    ServingBuild {
        service,
        snapshot,
        encoder,
        vocab,
        tfidf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_generates_consistent_datasets() {
        let s = GiantSetup::generate(WorldConfig::tiny());
        assert_eq!(s.cmd.len(), s.world.concepts.len());
        assert_eq!(s.emd.len(), s.world.events.len());
        let input = s.pipeline_input();
        assert_eq!(input.docs.len(), s.corpus.docs.len());
        assert_eq!(input.categories.len(), s.world.categories.len());
        assert_eq!(input.entities.len(), s.world.entities.len());
        assert!(!input.sessions.is_empty());
    }
}
