//! The GCTSP inference kernel against its oracle.
//!
//! Inference (`GctspNet::logits_with` and everything built on it) runs a
//! kernel of its own — frozen `W_r`, aggregation over the `(dst, rel)` pairs
//! that have edges, reused scratch — that promises the **bits** of the
//! training pass `GctspNet::forward`, which keeps the dense textbook
//! formulation. Goldens only see an argmax of those logits; this suite
//! compares the logits themselves by `f64::to_bits`, on adversarial random
//! graphs (at the paper's widths and at widths that are not multiples of
//! the row kernel's block) and on every cluster of the seed-42 world, and
//! checks that a weight update can never be answered from stale frozen
//! weights. Both passes share one row kernel, `Matrix::add_row_product`,
//! so it is checked on its own against the textbook loop it replaced.

use giant::adapter::{to_training_clusters, GiantSetup, ModelTrainConfig};
use giant::data::WorldConfig;
use giant::graph::plan::plan_clusters;
use giant::mining::gctsp::{GctspConfig, GctspNet, InferScratch};
use giant::mining::train::build_cluster_qtig;
use giant::mining::{GiantConfig, Qtig, QtigRelation};
use giant::nn::Matrix;
use giant::text::dep::DepRel;
use giant::text::{Annotator, NerTag, PosTag};

/// SplitMix64: a seeded stream with no dependency on the vendored `rand`.
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

fn all_relations() -> Vec<QtigRelation> {
    let mut rels = vec![QtigRelation::SeqFwd, QtigRelation::SeqBwd];
    for r in DepRel::ALL {
        rels.push(QtigRelation::DepFwd(r));
        rels.push(QtigRelation::DepBwd(r));
    }
    assert_eq!(rels.len(), QtigRelation::COUNT);
    rels
}

/// A QTIG-shaped graph of `n` nodes that `Qtig::build` would never produce:
/// random node features, and `n_edges` random edges over all 26 relations
/// with self loops and parallel edges allowed. Nodes past `n_linked` take no
/// part in any edge, so isolated nodes are guaranteed.
fn random_qtig(rng: &mut Rng, n: usize, n_linked: usize, n_edges: usize) -> Qtig {
    let text: Vec<String> = (0..n - 2).map(|i| format!("tok{i}")).collect();
    let mut q = Qtig::build(&[Annotator::default().annotate(&text.join(" "))]);
    assert_eq!(q.n_nodes(), n);
    for node in &mut q.nodes {
        node.pos = PosTag::ALL[rng.below(PosTag::ALL.len())];
        node.ner = NerTag::ALL[rng.below(NerTag::ALL.len())];
        node.is_stop = rng.below(2) == 1;
        // Past the bucket caps on purpose: the clamp is part of the kernel.
        node.char_count = rng.below(24);
        node.seq_id = rng.below(80);
    }
    let rels = all_relations();
    q.edges.clear();
    for e in 0..n_edges {
        let src = rng.below(n_linked);
        // Every relation appears once the graph has 26 edges; a fifth of the
        // edges are self loops, a fifth repeat the previous edge.
        let rel = rels[if e < rels.len() {
            e
        } else {
            rng.below(rels.len())
        }];
        let edge = match (rng.below(5), q.edges.last()) {
            (0, _) => (src, src, rel),
            (1, Some(&last)) => last,
            _ => (src, rng.below(n_linked), rel),
        };
        q.edges.push(edge);
    }
    q
}

fn default_net(n_classes: usize, seed: u64) -> GctspNet {
    GctspNet::new(GctspConfig {
        n_classes,
        seed,
        ..GctspConfig::default()
    })
}

/// Kernel logits (out of `scratch`) == training-forward logits, to the bit.
fn assert_parity(
    net: &GctspNet,
    oracle: &mut GctspNet,
    scratch: &mut InferScratch,
    q: &Qtig,
    what: &str,
) {
    let want = oracle.forward(q);
    let got = net.logits_with(scratch, q);
    assert_eq!(got.len(), want.data().len(), "{what}: logit count");
    for (i, (g, w)) in got.iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: logit {i} differs: kernel {g:e} vs forward {w:e}"
        );
    }
}

#[test]
fn kernel_matches_training_forward_on_random_graphs() {
    for n_classes in [2, 4] {
        let net = default_net(n_classes, 7);
        let mut oracle = net.clone();
        // One scratch for the whole stream: sizes go up and down, so stale
        // rows, groups and workspace from a larger graph sit behind every
        // smaller one.
        let mut scratch = InferScratch::default();
        let mut rng = Rng(n_classes as u64);
        let mut relations_seen = [false; QtigRelation::COUNT];
        for case in 0..320 {
            let n = match case {
                0 => 2,
                1 => 64,
                _ => 2 + rng.below(63),
            };
            let n_linked = 1 + rng.below(n);
            let n_edges = match case % 8 {
                0 => 0,
                1 => 26 + rng.below(4 * n),
                _ => rng.below(3 * n),
            };
            let q = random_qtig(&mut rng, n, n_linked, n_edges);
            for &(_, _, rel) in &q.edges {
                relations_seen[rel.index()] = true;
            }
            assert_parity(
                &net,
                &mut oracle,
                &mut scratch,
                &q,
                &format!("{n_classes}-class net, case {case} (n={n}, edges={n_edges})"),
            );
        }
        assert!(
            relations_seen.iter().all(|&s| s),
            "every relation exercised"
        );
    }
}

#[test]
fn kernel_matches_training_forward_at_widths_off_the_block() {
    // hidden 12 and 20 leave a 4-column remainder after the 8-column
    // blocks; feat_dim 5 makes the first layer 19 wide; 3 classes make the
    // head a remainder only.
    for (hidden, seed) in [(12, 3), (20, 4)] {
        let net = GctspNet::new(GctspConfig {
            hidden,
            feat_dim: 5,
            n_classes: 3,
            seed,
            ..GctspConfig::default()
        });
        let mut oracle = net.clone();
        let mut scratch = InferScratch::default();
        let mut rng = Rng(hidden as u64);
        for case in 0..120 {
            let n = 2 + rng.below(40);
            let n_linked = 1 + rng.below(n);
            let n_edges = if case % 4 == 0 {
                26 + rng.below(3 * n)
            } else {
                rng.below(3 * n)
            };
            let q = random_qtig(&mut rng, n, n_linked, n_edges);
            let what = format!("hidden {hidden}, case {case} (n={n}, edges={n_edges})");
            assert_parity(&net, &mut oracle, &mut scratch, &q, &what);
        }
    }
}

/// `acc += a @ w` as the kernel did before blocking: `k` ascending, zero
/// entries of `a` skipped, every product added straight into `acc`.
fn textbook_row_product(w: &Matrix, a: &[f64], acc: &mut [f64]) {
    for (k, &a) in a.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        for (o, &b) in acc.iter_mut().zip(w.row(k)) {
            *o += a * b;
        }
    }
}

#[test]
fn row_kernel_matches_the_textbook_loop_to_the_bit() {
    // Signed zeros, subnormals, exact cancellations (x and -x) and the
    // smallest normal, beside ordinary values: the entries that decide
    // whether a sum ends at +0.0 or -0.0 and whether a product underflows.
    let sub = f64::from_bits(1);
    let pool = [
        0.0,
        -0.0,
        sub,
        -sub,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        3.0,
        1e-300,
        -1e-300,
    ];
    let mut rng = Rng(42);
    let draw = |rng: &mut Rng| match rng.below(pool.len() + 4) {
        i if i < pool.len() => pool[i],
        _ => (rng.next() % 2001) as f64 / 1000.0 - 1.0,
    };
    for case in 0..2000 {
        // Rows past 64 take the kernel's long path; columns cover whole
        // blocks, remainders and both.
        let rows = match case % 10 {
            0 => 65 + rng.below(20),
            _ => rng.below(40),
        };
        let cols = rng.below(27);
        let w = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| draw(&mut rng)).collect(),
        );
        let a: Vec<f64> = (0..rows).map(|_| draw(&mut rng)).collect();
        let mut want = vec![0.0; cols];
        textbook_row_product(&w, &a, &mut want);
        let mut got = vec![0.0; cols];
        w.add_row_product(&a, &mut got);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&got), bits(&want), "case {case}: {rows}x{cols}");
        // matmul runs the same kernel, row by row.
        let x = Matrix::from_vec(1, rows, a);
        assert_eq!(
            bits(x.matmul(&w).data()),
            bits(&want),
            "case {case}: matmul"
        );
    }
}

#[test]
fn kernel_matches_training_forward_on_every_seed_world_cluster() {
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let input = setup.pipeline_input();
    let plan = plan_clusters(
        &input.click_graph,
        &input.annotator.stopwords,
        &GiantConfig::default().cluster,
    );
    let (mut phrase_oracle, mut role_oracle) =
        (models.phrase_model.clone(), models.role_model.clone());
    let mut scratch = InferScratch::default();
    let mut clusters = 0;
    for item in &plan.items {
        let queries: Vec<String> = item
            .cluster
            .queries
            .iter()
            .map(|(q, _)| input.click_graph.query_text(*q).to_owned())
            .collect();
        let titles: Vec<String> = item
            .cluster
            .docs
            .iter()
            .filter_map(|(d, _)| input.docs.get(d.index()).map(|doc| doc.title.clone()))
            .collect();
        let q = build_cluster_qtig(&input.annotator, &queries, &titles);
        // Both nets share the one scratch, as the pipeline's workers do not:
        // a stricter reuse than production.
        let what = format!("cluster of seed query {:?}", queries[0]);
        assert_parity(
            &models.phrase_model,
            &mut phrase_oracle,
            &mut scratch,
            &q,
            &what,
        );
        assert_parity(
            &models.role_model,
            &mut role_oracle,
            &mut scratch,
            &q,
            &what,
        );
        clusters += 1;
    }
    assert!(clusters > 50, "the seed world plans {clusters} clusters");
}

#[test]
fn a_weight_update_drops_the_frozen_weights() {
    let setup = GiantSetup::generate(WorldConfig::tiny());
    let annotator = setup.world.annotator();
    let examples: Vec<(Qtig, Vec<usize>)> = to_training_clusters(&setup.cmd.train)
        .iter()
        .take(12)
        .map(|c| {
            let q = build_cluster_qtig(&annotator, &c.queries, &c.titles);
            let labels = q.binary_labels(&c.gold_tokens);
            (q, labels)
        })
        .collect();
    let cfg = GctspConfig {
        epochs: 1,
        ..ModelTrainConfig::small().phrase
    };
    let probe = &examples[0].0;
    let bits = |m: giant::nn::Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();

    // Predicts between the epochs, so its weights are frozen when the
    // second epoch starts.
    let mut net = GctspNet::new(cfg);
    net.train(&examples);
    let after_one = bits(net.forward_inference(probe));
    net.train(&examples);
    let after_two = bits(net.forward_inference(probe));

    // Same two epochs, never asked before the end: frozen exactly once.
    let mut fresh = GctspNet::new(cfg);
    fresh.train(&examples);
    fresh.train(&examples);

    assert_ne!(after_one, after_two, "the second epoch moved the logits");
    assert_eq!(after_two, bits(fresh.forward_inference(probe)));
    assert_eq!(
        net.predict_positive_nodes(probe),
        fresh.predict_positive_nodes(probe)
    );
}
