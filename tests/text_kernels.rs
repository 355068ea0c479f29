//! Text-kernel parity suite: the sorted TF-IDF vector kernel, and the
//! tagger and story-tree paths built on it, must reproduce the
//! formulations they replaced bit for bit.
//!
//! * (a) `TfIdfVector::cosine` equals the `HashMap`-vector cosine with
//!   sorted-key probing on seeded random token multisets.
//! * (b) `DocumentTagger::tag` equals a reference tagger (`HashMap`
//!   vectors rebuilt per parent, `lcs_len` against every event phrase) on
//!   every document of the world, plus adversarial documents aimed at the
//!   token-overlap bound that now guards `lcs_len`.
//! * (c) The prepared story-tree similarity matrix equals the pairwise
//!   `EventSimilarity::similarity` and the reference eq. (8), and the
//!   rendered trees are equal.
//!
//! Scores are compared with `f64::to_bits`. The tiny world runs in every
//! build; the seed-42 serve world (2184 documents, the world the repo
//! benchmark's serving workloads use) is release-gated.

use giant::adapter::{build_serving, GiantSetup, ModelTrainConfig, ServingBuild};
use giant::apps::storytree::{
    build_story_tree, retrieve_related, EventSimilarity, StoryEvent, StoryTree, StoryTreeConfig,
};
use giant::apps::{
    duet_features, DocTags, DocumentTagger, DuetConfig, DuetMatcher, TagResources, DUET_FEATURE_DIM,
};
use giant::data::{ClickConfig, WorldConfig};
use giant::mining::GiantConfig;
use giant::ontology::{NodeId, NodeKind, OntologySnapshot};
use giant::text::TfIdf;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// Oracles: the pre-kernel formulations, kept verbatim in behaviour.
// ---------------------------------------------------------------------------

/// The deleted `TfIdf::vector`: a `HashMap` of `(count / total) * idf`.
fn oracle_vector<'a>(
    tfidf: &TfIdf,
    tokens: impl IntoIterator<Item = &'a str>,
) -> HashMap<String, f64> {
    let mut tf: HashMap<String, f64> = HashMap::new();
    let mut total = 0.0f64;
    for t in tokens {
        *tf.entry(t.to_owned()).or_insert(0.0) += 1.0;
        total += 1.0;
    }
    if total == 0.0 {
        return tf;
    }
    for (term, v) in tf.iter_mut() {
        *v = (*v / total) * tfidf.idf(term);
    }
    tf
}

/// The deleted `cosine_sparse`: both sides sorted by key, the smaller side
/// iterated in key order probing the larger map.
fn oracle_cosine(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    fn sorted(m: &HashMap<String, f64>) -> Vec<(&str, f64)> {
        let mut v: Vec<(&str, f64)> = m.iter().map(|(k, x)| (k.as_str(), *x)).collect();
        v.sort_unstable_by(|x, y| x.0.cmp(y.0));
        v
    }
    let sa = sorted(a);
    let sb = sorted(b);
    let (small, large) = if a.len() <= b.len() {
        (&sa, b)
    } else {
        (&sb, a)
    };
    let dot: f64 = small
        .iter()
        .filter_map(|(k, va)| large.get(*k).map(|vb| va * vb))
        .sum();
    let norm = |v: &[(&str, f64)]| -> f64 { v.iter().map(|(_, x)| x * x).sum::<f64>().sqrt() };
    let na = norm(&sa);
    let nb = norm(&sb);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

fn oracle_similarity<'a>(
    tfidf: &TfIdf,
    a: impl IntoIterator<Item = &'a str>,
    b: impl IntoIterator<Item = &'a str>,
) -> f64 {
    oracle_cosine(&oracle_vector(tfidf, a), &oracle_vector(tfidf, b))
}

/// The tagger before the kernel: the title and each parent's cloned
/// context vectorized per comparison, and `lcs_len` run against every
/// event phrase.
fn ref_tag(
    snap: &OntologySnapshot,
    res: &TagResources,
    title: &str,
    sentences: &[String],
) -> DocTags {
    let tagger = DocumentTagger {
        snapshot: snap,
        resources: res,
    };
    let title_tokens = giant::text::tokenize(title);
    let sent_tokens: Vec<Vec<String>> =
        sentences.iter().map(|s| giant::text::tokenize(s)).collect();
    let entities = tagger.key_entities(&title_tokens, &sent_tokens);

    let mut tags = DocTags::default();
    let mut seen = HashSet::new();
    let mut any_parent = false;
    for &e in &entities {
        for &parent in snap.parents(e) {
            let node = snap.node(parent);
            if node.kind != NodeKind::Concept
                || node.support < res.config.min_concept_support
                || !seen.insert(parent)
            {
                continue;
            }
            any_parent = true;
            let ctx = res
                .concept_contexts
                .get(&parent)
                .cloned()
                .unwrap_or_else(|| node.phrase.tokens.clone());
            let score = oracle_similarity(
                &res.tfidf,
                title_tokens.iter().map(|s| s.as_str()),
                ctx.iter().map(|s| s.as_str()),
            );
            if score >= res.config.coherence_threshold {
                tags.concepts.push((parent, score));
            }
        }
    }
    if !any_parent && !entities.is_empty() {
        for (c, p) in ref_fallback_concepts(snap, &entities, &sent_tokens) {
            if p >= res.config.fallback_threshold {
                tags.concepts.push((c, p));
            }
        }
    }
    tags.concepts
        .sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    if let Some(best) = tags.concepts.first().map(|(_, s)| *s) {
        tags.concepts.retain(|(_, s)| *s >= 0.6 * best);
    }

    let mut target = title_tokens.clone();
    if let Some(first) = sent_tokens.first() {
        target.extend(first.iter().cloned());
    }
    for (node, phrase) in &res.event_phrases {
        if phrase.is_empty() {
            continue;
        }
        let lcs = giant::text::lcs_len(phrase, &target) as f64 / phrase.len() as f64;
        if lcs < res.config.lcs_min_fraction {
            continue;
        }
        let feats = duet_features(phrase, &target, &res.encoder, &res.vocab);
        if res.duet.matches(&feats) {
            let entry = (*node, lcs);
            match snap.node(*node).kind {
                NodeKind::Event => tags.events.push(entry),
                NodeKind::Topic => tags.topics.push(entry),
                _ => {}
            }
        }
    }
    tags.events
        .sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    tags.topics
        .sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    tags
}

/// Eq. (12)–(14), as the tagger computes it (unchanged by the kernel).
fn ref_fallback_concepts(
    snap: &OntologySnapshot,
    entities: &[NodeId],
    sentences: &[Vec<String>],
) -> Vec<(NodeId, f64)> {
    let contains_seq = |haystack: &[String], needle: &[String]| {
        !needle.is_empty()
            && haystack.len() >= needle.len()
            && (0..=haystack.len() - needle.len()).any(|i| &haystack[i..i + needle.len()] == needle)
    };
    let ent_tokens: Vec<(NodeId, &[String])> = entities
        .iter()
        .map(|&e| (e, snap.node(e).phrase.tokens.as_slice()))
        .collect();
    let mut mention_count: BTreeMap<NodeId, f64> = BTreeMap::new();
    for s in sentences {
        for (e, toks) in &ent_tokens {
            if contains_seq(s, toks) {
                *mention_count.entry(*e).or_insert(0.0) += 1.0;
            }
        }
    }
    let total_mentions: f64 = mention_count.values().sum::<f64>().max(1.0);
    let mut scores: BTreeMap<NodeId, f64> = BTreeMap::new();
    for (e, toks) in &ent_tokens {
        let p_e_d = mention_count.get(e).copied().unwrap_or(0.0) / total_mentions;
        if p_e_d == 0.0 {
            continue;
        }
        let mut ctx_counts: BTreeMap<&str, f64> = BTreeMap::new();
        let mut ctx_total = 0.0;
        for s in sentences {
            if !contains_seq(s, toks) {
                continue;
            }
            for t in s {
                if toks.contains(t) {
                    continue;
                }
                *ctx_counts.entry(t.as_str()).or_insert(0.0) += 1.0;
                ctx_total += 1.0;
            }
        }
        if ctx_total == 0.0 {
            continue;
        }
        for (x, cnt) in ctx_counts {
            let cands = snap.concepts_with_token(x);
            if cands.is_empty() {
                continue;
            }
            let p_c_x = 1.0 / cands.len() as f64;
            let p_x_e = cnt / ctx_total;
            for &c in cands {
                *scores.entry(c).or_insert(0.0) += p_c_x * p_x_e * p_e_d;
            }
        }
    }
    let mut out: Vec<(NodeId, f64)> = scores.into_iter().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    out
}

/// Eq. (8) before the prepared form: both events encoded and their entity
/// tokens cloned and vectorized on every call.
fn ref_event_similarity(sim: &EventSimilarity<'_>, a: &StoryEvent, b: &StoryEvent) -> f64 {
    let encode = |tokens: &[String]| {
        let ids: Vec<giant::text::TokenId> =
            tokens.iter().filter_map(|t| sim.vocab.get(t)).collect();
        sim.encoder.encode(&ids)
    };
    let f_m = giant::text::embedding::cosine(&encode(&a.tokens), &encode(&b.tokens)) as f64;
    let f_g = match (&a.trigger, &b.trigger) {
        (Some(ta), Some(tb)) => {
            if ta == tb {
                1.0
            } else {
                match (sim.vocab.get(ta), sim.vocab.get(tb)) {
                    (Some(ia), Some(ib)) => f64::from(sim.encoder.embeddings().cosine(ia, ib)),
                    _ => 0.0,
                }
            }
        }
        _ => 0.0,
    };
    let ents = |e: &StoryEvent| -> Vec<String> {
        e.entities
            .iter()
            .flat_map(|&n| sim.snapshot.node(n).phrase.tokens.clone())
            .collect()
    };
    let ea = ents(a);
    let eb = ents(b);
    let f_e = oracle_similarity(
        sim.tfidf,
        ea.iter().map(|s| s.as_str()),
        eb.iter().map(|s| s.as_str()),
    );
    f_m + f_g + f_e
}

/// `build_story_tree` with the pairwise reference matrix.
fn ref_build_story_tree(
    seed: StoryEvent,
    related: Vec<StoryEvent>,
    sim: &EventSimilarity<'_>,
    cfg: &StoryTreeConfig,
) -> StoryTree {
    let mut events = vec![seed];
    events.extend(related);
    events.sort_by_key(|e| e.day);
    let n = events.len();
    let mut s = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            let v = ref_event_similarity(sim, &events[i], &events[j]);
            s[i][j] = v;
            s[j][i] = v;
        }
    }
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..clusters.len() {
            for b in a + 1..clusters.len() {
                let mut total = 0.0;
                let mut count: f64 = 0.0;
                for &i in &clusters[a] {
                    for &j in &clusters[b] {
                        total += s[i][j];
                        count += 1.0;
                    }
                }
                let avg = total / count.max(1.0);
                if best.map(|(_, _, bs)| avg > bs).unwrap_or(true) {
                    best = Some((a, b, avg));
                }
            }
        }
        match best {
            Some((a, b, score)) if score >= cfg.merge_threshold => {
                let merged = clusters.remove(b);
                clusters[a].extend(merged);
            }
            _ => break,
        }
    }
    let mut branches: Vec<Vec<usize>> = clusters
        .into_iter()
        .map(|mut c| {
            c.sort_by_key(|&i| events[i].day);
            c
        })
        .collect();
    branches.sort_by_key(|b| b.first().map(|&i| events[i].day).unwrap_or(u32::MAX));
    StoryTree { events, branches }
}

// ---------------------------------------------------------------------------
// Worlds.
// ---------------------------------------------------------------------------

/// A deterministic splitmix64 stream for the random multisets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The tiny world: the serve world's derivation at debug-build size.
fn tiny_world() -> &'static (GiantSetup, ServingBuild) {
    static WORLD: OnceLock<(GiantSetup, ServingBuild)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let setup = GiantSetup::generate(WorldConfig {
            seed: 42,
            ..WorldConfig::tiny()
        });
        let (models, _) = setup.train_models(&ModelTrainConfig::small());
        let output = setup.run_pipeline(&models, &GiantConfig::default());
        let serving = build_serving(&setup, &output);
        (setup, serving)
    })
}

/// The seed-42 serve world: the 2184-document world, click noise and
/// models the repo benchmark's serving workloads are built on.
fn serve_world() -> &'static (GiantSetup, ServingBuild) {
    static WORLD: OnceLock<(GiantSetup, ServingBuild)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let setup = GiantSetup::generate_with(
            WorldConfig {
                seed: 42,
                entities_per_sub: 24,
                concepts_per_sub: 10,
                ..WorldConfig::experiment()
            },
            &ClickConfig {
                noise_fraction: 0.01,
                sessions_per_member: 2,
                noise_session_fraction: 0.5,
            },
        );
        let (models, _) = setup.train_models(&ModelTrainConfig::small());
        let output = giant::mining::run_pipeline(
            &setup.pipeline_input(),
            &models,
            &GiantConfig::default().auto_threads(),
        );
        let serving = build_serving(&setup, &output);
        (setup, serving)
    })
}

fn docs_of(setup: &GiantSetup) -> Vec<(String, Vec<String>)> {
    setup
        .corpus
        .docs
        .iter()
        .map(|d| (d.title.clone(), d.sentences.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

fn bits(tags: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    tags.iter().map(|&(n, s)| (n, s.to_bits())).collect()
}

/// Tags every doc with the tagger and the reference; returns how many docs
/// got (event or topic, concept) tags.
fn assert_tagger_parity(
    snap: &OntologySnapshot,
    res: &TagResources,
    docs: &[(String, Vec<String>)],
) -> (usize, usize) {
    let tagger = DocumentTagger {
        snapshot: snap,
        resources: res,
    };
    let (mut with_events, mut with_concepts) = (0, 0);
    for (title, sentences) in docs {
        let got = tagger.tag(title, sentences);
        let want = ref_tag(snap, res, title, sentences);
        assert_eq!(
            bits(&got.concepts),
            bits(&want.concepts),
            "concepts of {title:?}"
        );
        assert_eq!(bits(&got.events), bits(&want.events), "events of {title:?}");
        assert_eq!(bits(&got.topics), bits(&want.topics), "topics of {title:?}");
        with_events += usize::from(!got.events.is_empty() || !got.topics.is_empty());
        with_concepts += usize::from(!got.concepts.is_empty());
    }
    (with_events, with_concepts)
}

/// Synthetic phrases and documents aimed at the LCS bound, checked under
/// several cut fractions (0.8 is the default), with the world's Duet and
/// with one that accepts everything — under which the event tags are
/// exactly the LCS cut's verdicts.
fn assert_adversarial_parity(snap: &OntologySnapshot, res: &TagResources) {
    let (event_node, _) = res
        .event_phrases
        .first()
        .cloned()
        .expect("the world mined event phrases");
    let toks = |s: &str| giant::text::tokenize(s);
    let mut res = res.clone();
    res.event_phrases
        .push((event_node, toks("kernel alpha beta gamma delta")));
    res.event_phrases
        .push((event_node, toks("echo echo echo foxtrot foxtrot")));
    res.event_phrases.push((event_node, Vec::new()));
    let out_of_order = "delta gamma beta alpha kernel";
    let four_of_five = "kernel alpha beta gamma report";
    let repeated = "echo foxtrot";
    let mut docs: Vec<(String, Vec<String>)> = vec![
        // Every phrase token present, out of order: the bound passes, the
        // LCS (1 of 5) fails.
        (out_of_order.into(), vec![]),
        ("delta gamma".into(), vec!["beta alpha kernel news".into()]),
        // Exactly 4 of 5 present, in order: 0.8 sits on the cut.
        (four_of_five.into(), vec![]),
        ("kernel alpha".into(), vec!["beta delta today".into()]),
        // 4 of 5 present but out of order, and 3 of 5.
        ("gamma kernel alpha beta".into(), vec![]),
        ("kernel beta delta".into(), vec![]),
        // Repeated phrase tokens against a single copy in the target.
        (repeated.into(), vec!["more echo".into()]),
        ("echo echo foxtrot foxtrot".into(), vec![]),
        // Empty titles, with and without a first sentence.
        (String::new(), vec!["kernel alpha beta gamma delta".into()]),
        (String::new(), vec![]),
    ];
    // Real phrases: verbatim, reversed, and with the first token moved
    // to the first sentence.
    for (_, phrase) in res.event_phrases.iter().take(24) {
        let mut reversed = phrase.clone();
        reversed.reverse();
        docs.push((phrase.join(" "), vec![]));
        docs.push((reversed.join(" "), vec!["filler words here".into()]));
        if phrase.len() > 1 {
            docs.push((phrase[1..].join(" "), vec![phrase[..1].join(" ")]));
        }
    }
    let accept_all: Vec<(Vec<f64>, bool)> = (0..=DUET_FEATURE_DIM)
        .map(|k| {
            (
                (0..DUET_FEATURE_DIM)
                    .map(|i| f64::from(u8::from(i < k)))
                    .collect(),
                true,
            )
        })
        .collect();
    let accept_all = Arc::new(DuetMatcher::train(&accept_all, DuetConfig::default()));
    assert!(
        accept_all.matches(&[0.0; DUET_FEATURE_DIM])
            && accept_all.matches(&[1.0; DUET_FEATURE_DIM])
    );
    for duet in [Arc::clone(&res.duet), accept_all] {
        res.duet = duet;
        for cut in [0.0, 0.5, 0.8, 1.0] {
            res.config.lcs_min_fraction = cut;
            assert_tagger_parity(snap, &res, &docs);
        }
    }
    res.config.lcs_min_fraction = 0.8;
    let tagger = DocumentTagger {
        snapshot: snap,
        resources: &res,
    };
    let scores = |title: &str, sentences: &[String]| -> Vec<f64> {
        let tags = tagger.tag(title, sentences);
        tags.events
            .iter()
            .chain(&tags.topics)
            .filter(|(n, _)| *n == event_node)
            .map(|&(_, s)| s)
            .collect()
    };
    assert_eq!(
        scores(four_of_five, &[]),
        vec![0.8],
        "4 of 5 in order reaches the cut"
    );
    assert!(
        scores(out_of_order, &[]).is_empty(),
        "out of order fails the LCS"
    );
    assert!(
        scores(repeated, &["more echo".into()]).is_empty(),
        "repeats fail the LCS"
    );
}

/// For every mined event as a story seed: prepared matrix == pairwise
/// similarity == reference eq. (8), and the trees render equal.
fn assert_story_parity(serving: &ServingBuild) -> usize {
    let res = serving.service.resources();
    let snap = serving.service.snapshot();
    let sim = EventSimilarity {
        encoder: &res.tagging.encoder,
        vocab: &res.tagging.vocab,
        tfidf: &res.tagging.tfidf,
        snapshot: &snap,
    };
    let mut pairs = 0;
    for seed in &res.stories {
        let related: Vec<StoryEvent> = retrieve_related(seed, &res.stories)
            .into_iter()
            .cloned()
            .collect();
        let mut events = vec![seed.clone()];
        events.extend(related.iter().cloned());
        events.sort_by_key(|e| e.day);
        let m = sim.similarity_matrix(&events);
        for i in 0..events.len() {
            assert_eq!(m[i][i].to_bits(), 0.0f64.to_bits());
            for j in i + 1..events.len() {
                let pairwise = sim.similarity(&events[i], &events[j]);
                let reference = ref_event_similarity(&sim, &events[i], &events[j]);
                assert_eq!(
                    m[i][j].to_bits(),
                    pairwise.to_bits(),
                    "seed {:?} ({i},{j})",
                    seed.node
                );
                assert_eq!(
                    m[j][i].to_bits(),
                    pairwise.to_bits(),
                    "seed {:?} ({j},{i})",
                    seed.node
                );
                assert_eq!(
                    pairwise.to_bits(),
                    reference.to_bits(),
                    "seed {:?} ({i},{j})",
                    seed.node
                );
                pairs += 1;
            }
        }
        let got = build_story_tree(seed.clone(), related.clone(), &sim, &res.story_config);
        let want = ref_build_story_tree(seed.clone(), related, &sim, &res.story_config);
        assert_eq!(got.render(), want.render(), "tree of seed {:?}", seed.node);
        assert_eq!(got.branches, want.branches);
    }
    pairs
}

// ---------------------------------------------------------------------------
// (a) The vector kernel.
// ---------------------------------------------------------------------------

#[test]
fn vector_cosine_matches_the_hashmap_oracle_bit_for_bit() {
    const WORDS: [&str; 16] = [
        "trade", "war", "tariffs", "phones", "budget", "cars", "electric", "tour", "concert",
        "the", "of", "best", "zebra", "quokka", "narwhal", "axolotl",
    ];
    // The last four words never enter the df table (unknown terms).
    let mut rng = Rng(0x5eed_0042);
    let mut tfidf = TfIdf::new();
    for _ in 0..40 {
        let doc: Vec<&str> = (0..1 + rng.below(8))
            .map(|_| WORDS[rng.below(12)])
            .collect();
        tfidf.add_doc(doc.iter().copied());
    }
    let tables = [tfidf, TfIdf::new()];
    let multiset = |rng: &mut Rng, words: &[&'static str], max: usize| -> Vec<&'static str> {
        (0..rng.below(max + 1))
            .map(|_| words[rng.below(words.len())])
            .collect()
    };
    let check = |t: &TfIdf, a: &[&str], b: &[&str]| {
        let want = oracle_similarity(t, a.iter().copied(), b.iter().copied());
        let got = t
            .vectorize(a.iter().copied())
            .cosine(&t.vectorize(b.iter().copied()));
        assert_eq!(got.to_bits(), want.to_bits(), "{a:?} vs {b:?}");
        let sim = t.similarity(a.iter().copied(), b.iter().copied());
        assert_eq!(sim.to_bits(), want.to_bits(), "{a:?} vs {b:?}");
    };
    let mut cases = 0;
    for t in &tables {
        for round in 0..300 {
            // Random multisets over a small vocabulary: duplicates are the
            // norm, an empty side comes up about once in 21.
            let a = multiset(&mut rng, &WORDS, 20);
            let b = multiset(&mut rng, &WORDS, 20);
            check(t, &a, &b);
            // Disjoint vocabularies.
            let c = multiset(&mut rng, &WORDS[..8], 12);
            let d = multiset(&mut rng, &WORDS[8..], 12);
            check(t, &c, &d);
            // The same multiset in another order, and an explicit empty side.
            let mut shuffled = a.clone();
            shuffled.reverse();
            check(t, &a, &shuffled);
            check(t, &a, &[]);
            check(t, &[], &a);
            // Unknown terms only.
            let u = multiset(&mut rng, &WORDS[12..], 6);
            check(t, &u, &a);
            cases += 6;
            // One vector compared against many.
            if round % 10 == 0 {
                let base = multiset(&mut rng, &WORDS, 30);
                let vb = t.vectorize(base.iter().copied());
                for _ in 0..10 {
                    let other = multiset(&mut rng, &WORDS, 20);
                    let want = oracle_similarity(t, base.iter().copied(), other.iter().copied());
                    let got = vb.cosine(&t.vectorize(other.iter().copied()));
                    assert_eq!(got.to_bits(), want.to_bits(), "{base:?} vs {other:?}");
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 1000, "only {cases} cases");
    let t = &tables[0];
    let v = t.vectorize(["trade", "war", "war"]);
    assert_eq!(
        v.clone().into_owned(),
        v,
        "into_owned keeps terms and weights"
    );
    assert_eq!(
        v.cosine(&v).to_bits(),
        oracle_similarity(t, ["trade", "war", "war"], ["trade", "war", "war"]).to_bits()
    );
}

// ---------------------------------------------------------------------------
// (b) Tagger parity, (c) story-tree parity.
// ---------------------------------------------------------------------------

#[test]
fn tagger_matches_the_reference_on_the_tiny_world() {
    let (setup, serving) = tiny_world();
    let snap = serving.service.snapshot();
    let res = serving.service.resources();
    assert_tagger_parity(&snap, &res.tagging, &docs_of(setup));
    assert_adversarial_parity(&snap, &res.tagging);
}

#[test]
fn story_trees_match_the_reference_on_the_tiny_world() {
    assert!(
        assert_story_parity(&tiny_world().1) > 0,
        "no event pairs compared"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "2184-document serve world; run in release")]
fn tagger_matches_the_reference_on_the_serve_world() {
    let (setup, serving) = serve_world();
    let snap = serving.service.snapshot();
    let res = serving.service.resources();
    let docs = docs_of(setup);
    assert_eq!(docs.len(), 2184);
    let (with_events, with_concepts) = assert_tagger_parity(&snap, &res.tagging, &docs);
    assert!(
        with_events > 0 && with_concepts > 0,
        "{with_events} / {with_concepts}"
    );
    assert_adversarial_parity(&snap, &res.tagging);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "2184-document serve world; run in release")]
fn story_trees_match_the_reference_on_the_serve_world() {
    assert!(
        assert_story_parity(&serve_world().1) > 0,
        "no event pairs compared"
    );
}
