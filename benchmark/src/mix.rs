//! Seeded request mixes: which request a generator sends next.
//!
//! A mix is a list of pools (one per request kind) with traffic shares.
//! The kind is drawn by share and the item within the kind by zipf(1) rank,
//! so a few hot requests dominate and a long tail follows — the shape
//! front-door traffic has. The draw depends on the seed alone.

use giant::apps::ServeRequest;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Cumulative zipf(s = 1) masses for `n` ranked items.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|i| {
            acc += 1.0 / (i + 1) as f64;
            acc
        })
        .collect()
}

/// First index whose cumulative mass reaches `x × total`.
fn draw(cdf: &[f64], x: f64) -> usize {
    let total = *cdf.last().expect("non-empty cdf");
    cdf.partition_point(|&c| c < x * total).min(cdf.len() - 1)
}

/// The distinct requests of a workload, flat, with each kind's range.
pub struct Pools {
    /// Every distinct request, kind after kind, hottest first within a kind.
    pub requests: Vec<ServeRequest>,
    /// `(start, len, share)` of each kind's slice of `requests`.
    kinds: Vec<(usize, usize, f64)>,
}

impl Pools {
    /// Builds the flat pool from `(requests of one kind, traffic share)`.
    /// Empty kinds are dropped (a tiny smoke world may mine no events).
    pub fn new(kinds: crate::fixture::KindPools) -> Self {
        let mut requests = Vec::new();
        let mut ranges = Vec::new();
        for (pool, share) in kinds {
            if !pool.is_empty() {
                ranges.push((requests.len(), pool.len(), share));
                requests.extend(pool);
            }
        }
        assert!(
            !requests.is_empty(),
            "a workload needs at least one request"
        );
        Pools {
            requests,
            kinds: ranges,
        }
    }

    /// `n` indices into `requests`, drawn from `seed`.
    pub fn draw(&self, seed: u64, n: usize) -> Vec<u32> {
        let share_cdf: Vec<f64> = self
            .kinds
            .iter()
            .scan(0.0, |acc, k| {
                *acc += k.2;
                Some(*acc)
            })
            .collect();
        let item_cdfs: Vec<Vec<f64>> = self.kinds.iter().map(|k| zipf_cdf(k.1)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let k = draw(&share_cdf, rng.random());
                (self.kinds[k].0 + draw(&item_cdfs[k], rng.random())) as u32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Pools {
        let q = |i: usize| ServeRequest::Conceptualize {
            query: format!("q{i}"),
        };
        let r = |i: usize| ServeRequest::Recommend {
            query: format!("r{i}"),
        };
        Pools::new(vec![
            ((0..100).map(q).collect(), 0.6),
            ((0..50).map(r).collect(), 0.4),
        ])
    }

    #[test]
    fn mix_is_identical_for_equal_seeds_and_differs_for_unequal() {
        let p = pools();
        assert_eq!(p.draw(42, 5000), p.draw(42, 5000));
        assert_ne!(p.draw(42, 5000), p.draw(43, 5000));
    }

    #[test]
    fn mix_follows_shares_and_zipf_rank() {
        let p = pools();
        let idx = p.draw(7, 20_000);
        let first_kind = idx.iter().filter(|&&i| i < 100).count() as f64 / 20_000.0;
        assert!((first_kind - 0.6).abs() < 0.02, "share was {first_kind}");
        let hottest = idx.iter().filter(|&&i| i == 0).count();
        let coldest = idx.iter().filter(|&&i| i == 99).count();
        assert!(hottest > 20 * coldest.max(1), "{hottest} vs {coldest}");
        assert!(idx.iter().all(|&i| (i as usize) < p.requests.len()));
    }
}
