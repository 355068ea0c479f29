//! Tile-based scaling of the synthetic world.
//!
//! One [`World`] is bounded by its domain templates — a handful of category
//! subtrees, tens of entities. Scaling the *corpus* two orders of magnitude
//! for throughput work (the repo benchmark's cold build) therefore
//! replicates the generator instead of the templates: a **scaled world is N
//! independent tiles**, each a full `World` generated from a seed derived
//! per tile, concatenated downstream with id offsets.
//!
//! Properties this buys:
//!
//! * **Streaming, bounded memory** — [`tile_worlds`] is lazy; callers
//!   convert one tile into records (docs, clicks, sessions, annotator
//!   vocabulary via [`World::extend_lexicon`] / [`World::extend_gazetteer`])
//!   and drop it before the next is generated. Peak memory is one tile
//!   plus the accumulated flat records, not N worlds.
//! * **Determinism** — tile seeds come from a SplitMix64 finalizer over
//!   `(base seed, tile index)`; the scaled corpus is a pure function of
//!   `(base config, n_tiles)`.
//! * **Tile structure** — each tile owns distinct level-1 category roots,
//!   while shared concept surfaces across tiles (the domain templates
//!   repeat) keep a realistic trickle of queries that click into several
//!   tiles.

use crate::world::{World, WorldConfig};

/// SplitMix64 finalizer: decorrelates per-tile seeds derived from one base
/// seed. Adjacent tile indices land in unrelated RNG streams.
pub fn tile_seed(base: u64, tile: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(tile.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The configuration of tile `tile` of a scaled world: identical knobs,
/// derived seed. Tile 0 is **not** the base world (its seed is derived
/// too), so a scaled run never aliases a single-world run byte-wise.
pub fn tile_config(base: &WorldConfig, tile: usize) -> WorldConfig {
    WorldConfig {
        seed: tile_seed(base.seed, tile as u64),
        ..*base
    }
}

/// Lazily generates the `n_tiles` tile worlds of a scaled world. Each item
/// is generated when the iterator is advanced; drop it before `next()` to
/// keep memory bounded at one tile.
pub fn tile_worlds(base: WorldConfig, n_tiles: usize) -> impl Iterator<Item = World> {
    (0..n_tiles).map(move |t| World::generate(tile_config(&base, t)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_seeds_are_decorrelated_and_deterministic() {
        let a: Vec<u64> = (0..8).map(|t| tile_seed(42, t)).collect();
        let b: Vec<u64> = (0..8).map(|t| tile_seed(42, t)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "tile seeds collide");
        let other: Vec<u64> = (0..8).map(|t| tile_seed(43, t)).collect();
        assert!(a.iter().zip(&other).all(|(x, y)| x != y));
    }

    #[test]
    fn tiles_are_full_distinct_worlds() {
        let base = WorldConfig::tiny();
        let mut names = std::collections::HashSet::new();
        let mut tiles = 0usize;
        for w in tile_worlds(base, 3) {
            tiles += 1;
            assert_eq!(w.categories.len(), World::generate(tile_config(&base, tiles - 1)).categories.len());
            assert!(!w.entities.is_empty());
            for e in &w.entities {
                names.insert(e.tokens.join(" "));
            }
        }
        assert_eq!(tiles, 3);
        // Entity names are RNG-generated per tile: across 3 tiny tiles the
        // overwhelming majority must be distinct (the streams differ).
        let total: usize = 3 * World::generate(tile_config(&base, 0)).entities.len();
        assert!(
            names.len() * 10 > total * 8,
            "tile RNG streams look correlated: {} distinct of {}",
            names.len(),
            total
        );
    }
}
