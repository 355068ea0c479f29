//! # giant-tsp — asymmetric TSP path solvers for ATSP decoding
//!
//! GCTSP-Net orders the positively classified QTIG nodes by solving an
//! asymmetric travelling-salesman problem: "find the shortest route that
//! starts from the 'sos' node, visits each predicted positive node, and
//! returns to the 'eos' node" (paper §3.1). The paper uses the
//! Lin–Kernighan heuristic [Helsgaun 2000].
//!
//! Substitution note (DESIGN.md S5): attention phrases almost always have
//! fewer than ~15 positive tokens, so an exact Held–Karp dynamic program
//! covers the regime the paper operates in; for larger inputs we fall back
//! to a Lin–Kernighan-style local search (nearest-neighbour construction,
//! directed Or-opt segment relocation and pairwise exchange — all moves
//! preserve traversal direction, which keeps them valid under asymmetric
//! costs, unlike classic 2-opt segment reversal).
//!
//! The problem solved throughout is the *fixed-endpoint Hamiltonian path*:
//! `start → (all intermediates in some order) → end`.

#![forbid(unsafe_code)]

pub mod cost;
pub mod exact;
pub mod heuristic;

pub use cost::CostMatrix;
pub use exact::held_karp_path;
pub use heuristic::lin_kernighan_path;

/// Intermediate-node count up to which [`solve_path`] uses the exact DP.
pub const EXACT_LIMIT: usize = 13;

/// Solves the fixed-endpoint ATSP path `start → … → end` over all nodes of
/// `costs`, choosing Held–Karp when at most [`EXACT_LIMIT`] intermediates
/// remain and the Lin–Kernighan-style heuristic otherwise.
///
/// Returns `(total cost, node order including both endpoints)`.
pub fn solve_path(costs: &CostMatrix, start: usize, end: usize) -> (f64, Vec<usize>) {
    let n_intermediate = costs.n() - usize::from(start != end) - 1;
    if n_intermediate <= EXACT_LIMIT {
        held_karp_path(costs, start, end)
    } else {
        lin_kernighan_path(costs, start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_path_dispatches_to_exact_for_small_instances() {
        let c = CostMatrix::from_rows(vec![
            vec![0.0, 1.0, 9.0, 9.0],
            vec![9.0, 0.0, 1.0, 9.0],
            vec![9.0, 9.0, 0.0, 1.0],
            vec![9.0, 9.0, 9.0, 0.0],
        ]);
        let (cost, path) = solve_path(&c, 0, 3);
        assert_eq!(path, vec![0, 1, 2, 3]);
        assert!((cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_path_handles_large_instances() {
        // 20 nodes in a line: the optimal path follows the chain.
        let n = 20;
        let mut rows = vec![vec![0.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i as f64 - j as f64).abs() * 2.0 + if j > i { 0.0 } else { 1.0 };
            }
        }
        let c = CostMatrix::from_rows(rows);
        let (cost, path) = solve_path(&c, 0, n - 1);
        assert_eq!(path.len(), n);
        assert_eq!(path[0], 0);
        assert_eq!(path[n - 1], n - 1);
        // Chain cost = 19 hops * 2.0 = 38; heuristic must be close.
        assert!(cost <= 38.0 * 1.3, "cost {cost} too far from optimum 38");
    }
}
