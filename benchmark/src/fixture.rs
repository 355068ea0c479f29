//! What the workloads are built on: the generated world, trained models,
//! first build and published service, each step inside a span so the
//! traced run can attribute set-up time to a layer.

use crate::span::Recorder;
use crate::stats::Summary;
use giant::adapter::{build_serving, GiantSetup, ModelTrainConfig, ServingBuild};
use giant::apps::ServeRequest;
use giant::data::{ClickConfig, WorldConfig};
use giant::mining::{GiantConfig, GiantModels};
use giant::net::wire::{encode_reply_payload, Reply};
use giant::net::ServerConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Spam-filtered ingest stream: 1% residual uniform click noise (the raw
/// 5% smears every delta's dirty set across the whole click graph).
pub const CLICKS: ClickConfig = ClickConfig {
    noise_fraction: 0.01,
    sessions_per_member: 2,
    noise_session_fraction: 0.5,
};

/// Seed of every generated world. The world is the same in every run:
/// which documents and queries are hot decides what a request costs, so a
/// per-run world would put its own spread on every latency. `--seed`
/// drives what varies between runs of one system — the request mixes.
pub const WORLD_SEED: u64 = 42;

/// Times the set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// The world the serving and ingest workloads run on: 2184 documents
/// (108 in a smoke run).
pub fn serve_world_config(smoke: bool) -> WorldConfig {
    if smoke {
        WorldConfig {
            seed: WORLD_SEED,
            ..WorldConfig::tiny()
        }
    } else {
        WorldConfig {
            seed: WORLD_SEED,
            entities_per_sub: 24,
            concepts_per_sub: 10,
            ..WorldConfig::experiment()
        }
    }
}

/// The server under test: defaults, except a roomy admission queue. The
/// default bound of 256 sheds after a 16 ms stall at 16 000 rps, which on a
/// shared 2-processor box happened in one run of ten; the workloads
/// measure the queueing curve, not the shed path (the repo's own
/// `net_throughput` bench makes the same choice), and a benchmark
/// operation must not fail.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        queue_cap: 4096,
        ..ServerConfig::default()
    }
}

/// The mining configuration every workload uses: defaults, hardware
/// thread count, sharding left off.
pub fn mining_config() -> GiantConfig {
    GiantConfig::default().auto_threads()
}

/// The distinct requests of each kind, with the kind's traffic share.
pub type KindPools = Vec<(Vec<ServeRequest>, f64)>;

/// Generated data, trained models and the service over the first build.
pub struct ServeWorld {
    /// World, corpus, click log, datasets.
    pub setup: GiantSetup,
    /// Trained phrase and role models.
    pub models: GiantModels,
    /// The published service over the first full build.
    pub serving: ServingBuild,
}

impl ServeWorld {
    /// Generate → train → build → publish, one span per layer call.
    pub fn build(smoke: bool, rec: &mut Recorder) -> Self {
        let (setup, _) = rec.span("data.generate", |_| {
            GiantSetup::generate_with(serve_world_config(smoke), &CLICKS)
        });
        let (models, _) = rec.span("core.train", |_| {
            setup.train_models(&ModelTrainConfig::small()).0
        });
        let (output, _) = rec.span("core.first_build", |_| {
            giant::mining::run_pipeline(&setup.pipeline_input(), &models, &mining_config())
        });
        let (serving, _) = rec.span("apps.build_serving", |_| build_serving(&setup, &output));
        ServeWorld {
            setup,
            models,
            serving,
        }
    }

    /// The light pools: 60% `Conceptualize` over the distinct log queries
    /// (first 4000, in log order), 40% `Recommend` over every entity.
    pub fn light_pools(&self) -> KindPools {
        let mut seen = std::collections::HashSet::new();
        let conceptualize = self
            .setup
            .log
            .records
            .iter()
            .filter(|r| seen.insert(r.query.as_str()))
            .take(4000)
            .map(|r| ServeRequest::Conceptualize {
                query: r.query.clone(),
            })
            .collect();
        let recommend = self
            .setup
            .world
            .entities
            .iter()
            .map(|e| ServeRequest::Recommend {
                query: format!("{} news", e.tokens.join(" ")),
            })
            .collect();
        vec![(conceptualize, 0.6), (recommend, 0.4)]
    }

    /// The heavy pools: 80% `TagDocument` over the first 500 documents,
    /// 20% `StoryTree` over the first 64 mined events.
    pub fn heavy_pools(&self) -> KindPools {
        let tag = self
            .setup
            .corpus
            .docs
            .iter()
            .take(500)
            .map(|d| ServeRequest::TagDocument {
                title: d.title.clone(),
                sentences: d.sentences.clone(),
            })
            .collect();
        let stories = self
            .serving
            .service
            .resources()
            .stories
            .iter()
            .take(64)
            .map(|e| ServeRequest::StoryTree { seed: e.node })
            .collect();
        vec![(tag, 0.8), (stories, 0.2)]
    }
}

/// Runs `build` [`SETUP_REPEATS`] times, timing each; keeps the last
/// product (earlier ones are dropped before the next starts, so peak
/// memory is one product).
pub fn repeat_setup<T>(mut build: impl FnMut(usize) -> T) -> (T, Summary) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build(i));
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repeat"), Summary::of(&secs))
}

/// The reply payload the in-process service gives for every pool request:
/// the reference the socket answers are compared with, byte for byte.
pub fn reference_answers(
    service: &giant::apps::OntologyService,
    pool: &[ServeRequest],
) -> Vec<Vec<u8>> {
    pool.iter()
        .map(|r| {
            let reply = match service.serve(r) {
                Ok(resp) => Reply::Ok(resp),
                Err(e) => Reply::Err(e),
            };
            encode_reply_payload(&reply).expect("reply encodes")
        })
        .collect()
}

/// A scratch directory under `benchmark/out/`, removed on drop. Everything
/// the benchmark writes (checkpoints, WALs, traces) stays inside the
/// benchmark's own directory.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `<out>/tmp-<pid>-<tag>`.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// `benchmark/out` of the checkout the command was started in, or of the
/// package the binary was built from when started elsewhere.
pub fn out_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Fingerprint of an ontology's text dump: what the determinism checks
/// compare.
pub fn dump_fingerprint(ontology: &giant::ontology::Ontology) -> u64 {
    giant::ontology::binio::fnv1a64(giant::ontology::io::dump(ontology).as_bytes())
}
