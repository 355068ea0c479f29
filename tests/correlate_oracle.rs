//! The correlate-embedding trainer against its textbook formulation.
//!
//! `CorrelateModel::train` updates one flat embedding table in place, one
//! coordinate at a time. The formulation it replaced is kept here as the
//! oracle: per step, `giant_nn::loss::hinge_triplet` returns the loss and
//! three freshly allocated gradient vectors, and the three rows are updated
//! from them afterwards. Both consume the same RNG stream, so every
//! embedding coordinate and the calibrated threshold must agree to the bit
//! (`f64::to_bits`), on seeded pair lists that include the steps the
//! trainer skips: pairs with `a == b`, ids past the table, and negatives
//! that stay equal to the pair after every resample (two entities).

use giant::mining::{CorrelateConfig, CorrelateModel};
use giant::nn::loss::hinge_triplet;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The pre-kernel trainer: per-entity `Vec`s, gradients from
/// `hinge_triplet`. Returns the embeddings and the threshold.
fn textbook_train(
    n: usize,
    positives: &[(usize, usize)],
    cfg: &CorrelateConfig,
) -> (Vec<Vec<f64>>, f64) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut vectors: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..cfg.dim).map(|_| rng.random::<f64>() - 0.5).collect())
        .collect();
    if n >= 2 {
        for _ in 0..cfg.epochs {
            for &(a, b) in positives {
                if a >= n || b >= n || a == b {
                    continue;
                }
                let mut neg = rng.random_range(0..n);
                for _ in 0..8 {
                    if neg != a && neg != b {
                        break;
                    }
                    neg = rng.random_range(0..n);
                }
                if neg == a || neg == b {
                    continue;
                }
                let (loss, ga, gp, gn) =
                    hinge_triplet(&vectors[a], &vectors[b], &vectors[neg], cfg.margin);
                if loss == 0.0 {
                    continue;
                }
                for i in 0..cfg.dim {
                    vectors[a][i] -= cfg.lr * ga[i];
                    vectors[b][i] -= cfg.lr * gp[i];
                    vectors[neg][i] -= cfg.lr * gn[i];
                }
            }
        }
    }
    let euclidean = |x: &[f64], y: &[f64]| {
        x.iter()
            .zip(y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    };
    let mut dists: Vec<f64> = positives
        .iter()
        .filter(|(a, b)| *a < n && *b < n && a != b)
        .map(|&(a, b)| euclidean(&vectors[a], &vectors[b]))
        .collect();
    dists.sort_by(|x, y| x.total_cmp(y));
    let threshold = if dists.is_empty() {
        0.0
    } else {
        dists[((dists.len() as f64 - 1.0) * cfg.threshold_percentile) as usize]
    };
    (vectors, threshold)
}

fn assert_same(n: usize, positives: &[(usize, usize)], cfg: &CorrelateConfig, what: &str) {
    let model = CorrelateModel::train(n, positives, cfg);
    let (want, threshold) = textbook_train(n, positives, cfg);
    assert_eq!(model.len(), n, "{what}: entity count");
    for (i, w) in want.iter().enumerate() {
        let got: Vec<u64> = model.vector(i).iter().map(|v| v.to_bits()).collect();
        let w: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, w, "{what}: embedding of entity {i}");
    }
    assert_eq!(
        model.threshold.to_bits(),
        threshold.to_bits(),
        "{what}: threshold {} vs {threshold}",
        model.threshold
    );
}

/// `m` pairs over `n` ids: mostly in range, some `a == b`, some past `n`.
fn random_pairs(rng: &mut StdRng, n: usize, m: usize) -> Vec<(usize, usize)> {
    (0..m)
        .map(|_| {
            let a = rng.random_range(0..n.max(1));
            match rng.random_range(0..10u32) {
                0 => (a, a),
                1 => (a, n + rng.random_range(0..3usize)),
                2 => (n + rng.random_range(0..3usize), a),
                _ => (a, rng.random_range(0..n.max(1))),
            }
        })
        .collect()
}

#[test]
fn in_place_training_matches_the_hinge_triplet_loop() {
    let mut rng = StdRng::seed_from_u64(7);
    for case in 0..40 {
        let n = match case {
            0 => 0,
            1 => 1,
            _ => 2 + rng.random_range(0..40usize),
        };
        let m = rng.random_range(0..3 * n + 4);
        let positives = random_pairs(&mut rng, n, m);
        let cfg = CorrelateConfig {
            dim: [1, 3, 8, 16][case % 4],
            epochs: 1 + rng.random_range(0..12usize),
            lr: [0.05, 0.2, 1e-3][case % 3],
            margin: [1.0, 0.25, 3.0][case % 3],
            seed: case as u64,
            threshold_percentile: [0.9, 0.5, 0.0, 1.0][case % 4],
        };
        assert_same(
            n,
            &positives,
            &cfg,
            &format!("case {case} (n={n}, {m} pairs)"),
        );
    }
}

#[test]
fn two_entities_exhaust_the_resamples() {
    // Every negative drawn from {0, 1} equals the pair, so each step draws
    // nine times and is skipped: the stream still advances identically.
    let positives = [(0, 1), (1, 0), (0, 0), (1, 5)];
    for seed in 0..8 {
        let cfg = CorrelateConfig {
            seed,
            epochs: 5,
            ..CorrelateConfig::default()
        };
        assert_same(2, &positives, &cfg, &format!("n = 2, seed {seed}"));
    }
    // A third entity makes some resamples succeed.
    let cfg = CorrelateConfig::default();
    assert_same(3, &positives, &cfg, "n = 3");
}

#[test]
fn the_pipeline_default_matches_on_a_clique_world() {
    // Two cliques, the shape the pipeline's sentence co-occurrence feeds.
    let mut positives = Vec::new();
    for clique in [0..6usize, 6..12] {
        for a in clique.clone() {
            for b in a + 1..clique.end {
                positives.push((a, b));
            }
        }
    }
    assert_same(12, &positives, &CorrelateConfig::default(), "two cliques");
}
