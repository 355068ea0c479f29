//! Relational Graph Convolutional Network layer (Schlichtkrull et al. 2017),
//! exactly as used by GCTSP-Net (paper §3.1, eq. 5–6):
//!
//! ```text
//! h_v^{l+1} = σ( Σ_r Σ_{w ∈ N_r(v)} (1/c_vw) W_r^l h_w^l  +  W_0^l h_v^l )
//! W_r = Σ_b a_rb V_b                      (basis decomposition, eq. 6)
//! ```
//!
//! with `c_vw = |N_r(v)|` (per-relation in-degree normalisation). The layer
//! itself is linear; callers apply the activation (ReLU between layers,
//! softmax at the head) so the final layer can emit logits.

use crate::matrix::Matrix;
use crate::param::Parameter;
use rand::Rng;
use std::collections::BTreeMap;

/// One typed directed edge `src --rel--> dst` (message flows src → dst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypedEdge {
    /// Message source node.
    pub src: usize,
    /// Message destination node.
    pub dst: usize,
    /// Relation type index in `[0, n_rels)`.
    pub rel: usize,
}

#[derive(Debug, Clone)]
struct RgcnCache {
    x: Matrix,
    /// Aggregated normalised neighbour features per relation present in the
    /// batch: `m_r[dst] = Σ_{src ∈ N_r(dst)} x[src] / |N_r(dst)|`.
    m: BTreeMap<usize, Matrix>,
    /// `W_r` of every relation in `m`, as the forward pass built it.
    w: BTreeMap<usize, Matrix>,
    /// Per-relation in-degree of each node.
    indeg: BTreeMap<usize, Vec<f64>>,
    edges: Vec<TypedEdge>,
}

/// One R-GCN layer with basis decomposition.
#[derive(Debug, Clone)]
pub struct RgcnLayer {
    /// Basis matrices `V_b`, each `(d_in × d_out)`.
    pub bases: Vec<Parameter>,
    /// Basis coefficients `a_rb`, `(n_rels × n_bases)`.
    pub coeffs: Parameter,
    /// Self-connection weight `W_0`, `(d_in × d_out)`.
    pub self_w: Parameter,
    n_rels: usize,
    cache: Option<RgcnCache>,
}

impl RgcnLayer {
    /// New layer for `n_rels` relation types with `n_bases` bases.
    pub fn new<R: Rng>(
        d_in: usize,
        d_out: usize,
        n_rels: usize,
        n_bases: usize,
        rng: &mut R,
    ) -> Self {
        assert!(n_bases >= 1, "need at least one basis");
        let bases = (0..n_bases)
            .map(|_| Parameter::xavier(d_in, d_out, rng))
            .collect();
        Self {
            bases,
            coeffs: Parameter::xavier(n_rels, n_bases, rng),
            self_w: Parameter::xavier(d_in, d_out, rng),
            n_rels,
            cache: None,
        }
    }

    /// Input dimensionality.
    pub fn d_in(&self) -> usize {
        self.self_w.value.rows()
    }

    /// Output dimensionality.
    pub fn d_out(&self) -> usize {
        self.self_w.value.cols()
    }

    /// Number of relation types.
    pub fn n_rels(&self) -> usize {
        self.n_rels
    }

    /// Effective relation weight `W_r = Σ_b a_rb V_b`.
    fn w_r(&self, r: usize) -> Matrix {
        let mut w = Matrix::zeros(self.d_in(), self.d_out());
        for (b, basis) in self.bases.iter().enumerate() {
            w.add_scaled(&basis.value, self.coeffs.value.get(r, b));
        }
        w
    }

    fn aggregate(
        &self,
        x: &Matrix,
        edges: &[TypedEdge],
    ) -> (BTreeMap<usize, Matrix>, BTreeMap<usize, Vec<f64>>) {
        let n = x.rows();
        let mut indeg: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for e in edges {
            assert!(e.rel < self.n_rels, "relation {} out of range", e.rel);
            assert!(e.src < n && e.dst < n, "edge node out of range");
            indeg.entry(e.rel).or_insert_with(|| vec![0.0; n])[e.dst] += 1.0;
        }
        let mut m: BTreeMap<usize, Matrix> = BTreeMap::new();
        for e in edges {
            let c = indeg[&e.rel][e.dst];
            let mr = m
                .entry(e.rel)
                .or_insert_with(|| Matrix::zeros(n, x.cols()));
            let src_row = x.row(e.src).to_vec();
            let dst_row = mr.row_mut(e.dst);
            for (d, s) in dst_row.iter_mut().zip(&src_row) {
                *d += s / c;
            }
        }
        (m, indeg)
    }

    /// Training forward pass over node features `x (N × d_in)` and typed
    /// edges; caches what [`backward`](Self::backward) needs. Inference goes
    /// through [`freeze`](Self::freeze), which this pass is the oracle for.
    pub fn forward(&mut self, x: &Matrix, edges: &[TypedEdge]) -> Matrix {
        let (m, indeg) = self.aggregate(x, edges);
        let w: BTreeMap<usize, Matrix> = m.keys().map(|&r| (r, self.w_r(r))).collect();
        let mut out = x.matmul(&self.self_w.value);
        for (r, mr) in &m {
            out.add_assign(&mr.matmul(&w[r]));
        }
        self.cache = Some(RgcnCache {
            x: x.clone(),
            m,
            w,
            indeg,
            edges: edges.to_vec(),
        });
        out
    }

    /// Snapshot of this layer's current weights for inference: `W_self` and
    /// every `W_r`, each built by the `add_scaled` sequence the training
    /// pass uses, so every entry is bit-equal to what
    /// [`forward`](Self::forward) multiplies by. The snapshot does not
    /// follow later parameter updates.
    pub fn freeze(&self) -> FrozenRgcn {
        FrozenRgcn {
            w_self: self.self_w.value.clone(),
            w_rel: (0..self.n_rels).map(|r| self.w_r(r)).collect(),
        }
    }

    /// Backward pass: accumulates gradients for the bases, coefficients and
    /// self-weight, and returns `dx`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("forward before backward");
        // Self connection.
        self.self_w.grad.add_assign(&cache.x.matmul_tn(dy));
        let mut dx = dy.matmul_nt(&self.self_w.value);
        // Per-relation terms.
        for (&r, mr) in &cache.m {
            // dW_r = M_rᵀ dy.
            let dw_r = mr.matmul_tn(dy);
            // Chain into bases and coefficients.
            for (b, basis) in self.bases.iter_mut().enumerate() {
                let a_rb = self.coeffs.value.get(r, b);
                basis.grad.add_scaled(&dw_r, a_rb);
                self.coeffs
                    .grad
                    .add_at(r, b, dw_r.frobenius_dot(&basis.value));
            }
            // dM_r = dy W_rᵀ, then scatter to source nodes.
            let dm_r = dy.matmul_nt(&cache.w[&r]);
            let indeg = &cache.indeg[&r];
            for e in cache.edges.iter().filter(|e| e.rel == r) {
                let c = indeg[e.dst];
                let g = dm_r.row(e.dst).to_vec();
                let row = dx.row_mut(e.src);
                for (rv, gv) in row.iter_mut().zip(&g) {
                    *rv += gv / c;
                }
            }
        }
        dx
    }

    /// Parameters for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut p: Vec<&mut Parameter> = self.bases.iter_mut().collect();
        p.push(&mut self.coeffs);
        p.push(&mut self.self_w);
        p
    }
}

/// The edges of one graph sorted by `(dst, rel)`, sources of a pair in the
/// order the edges were given. Every layer of a network aggregates over the
/// same pairs, so the sort is done once per graph;
/// [`rebuild`](Self::rebuild) reuses the buffer.
#[derive(Debug, Clone, Default)]
pub struct EdgeGroups {
    n_nodes: usize,
    /// `(dst, rel, edge position, src)`, sorted; the position makes the key
    /// unique, so the in-place unstable sort yields the stable order.
    keyed: Vec<(usize, usize, usize, usize)>,
}

impl EdgeGroups {
    /// Regroups for a graph of `n_nodes` nodes. Panics on an edge whose
    /// endpoint is not a node.
    pub fn rebuild(&mut self, n_nodes: usize, edges: impl IntoIterator<Item = TypedEdge>) {
        self.n_nodes = n_nodes;
        self.keyed.clear();
        for (i, e) in edges.into_iter().enumerate() {
            assert!(e.src < n_nodes && e.dst < n_nodes, "edge node out of range");
            self.keyed.push((e.dst, e.rel, i, e.src));
        }
        self.keyed.sort_unstable();
    }
}

/// Inference weights of one [`RgcnLayer`] (see [`RgcnLayer::freeze`]).
#[derive(Debug, Clone)]
pub struct FrozenRgcn {
    w_self: Matrix,
    w_rel: Vec<Matrix>,
}

impl FrozenRgcn {
    /// The layer on node features `x` (row-major `N × d_in`), written to
    /// `out` (`N × d_out`), with ReLU applied when `relu`.
    ///
    /// Bit-equal to [`RgcnLayer::forward`] (followed by [`crate::act::relu`])
    /// on the same weights: per output row it performs that pass's
    /// floating-point operations in that pass's order — the self term
    /// summed from `+0.0`, then per relation ascending the mean of the
    /// sources in edge order, its product with `W_r` summed from `+0.0`,
    /// and the add into the row — through the one row kernel both passes
    /// share, [`Matrix::add_row_product`]. What it leaves out is the dense
    /// pass's `+ 0.0` for every relation a row has no edge under; an
    /// accumulator that starts at `+0.0` is never `-0.0`, so those adds
    /// change no bit. A pair with one source multiplies that source's row
    /// itself: its mean `+0.0 + s / 1.0` differs from `s` only when `s` is
    /// `-0.0`, where it is `+0.0`, and the kernel skips both zeros alike.
    /// `work` is workspace.
    pub fn forward(
        &self,
        x: &[f64],
        groups: &EdgeGroups,
        relu: bool,
        work: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        let (d_in, d_out) = (self.w_self.rows(), self.w_self.cols());
        let n = groups.n_nodes;
        assert_eq!(x.len(), n * d_in, "feature rows must match the graph");
        work.resize(d_in, 0.0);
        let m = &mut work[..d_in];
        out.clear();
        out.resize(n * d_out, 0.0);
        let row = |i: usize| &x[i * d_in..(i + 1) * d_in];
        let mut pairs = groups
            .keyed
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .peekable();
        for (dst, out_row) in out.chunks_exact_mut(d_out).enumerate() {
            self.w_self.add_row_product(row(dst), out_row);
            while let Some(pair) = pairs.next_if(|pair| pair[0].0 == dst) {
                let rel = pair[0].1;
                assert!(rel < self.w_rel.len(), "relation {rel} out of range");
                let mean = if let [(_, _, _, src)] = pair {
                    row(*src)
                } else {
                    let c = pair.len() as f64;
                    m.fill(0.0);
                    for &(_, _, _, src) in pair {
                        for (d, s) in m.iter_mut().zip(row(src)) {
                            *d += s / c;
                        }
                    }
                    &*m
                };
                self.w_rel[rel].add_row_product(mean, out_row);
            }
            if relu {
                for v in out_row.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sq_loss(y: &Matrix) -> f64 {
        y.data().iter().map(|v| v * v).sum::<f64>() / 2.0
    }

    /// The inference kernel on one layer, as a dense matrix.
    fn infer(layer: &RgcnLayer, x: &Matrix, edges: &[TypedEdge]) -> Matrix {
        let mut groups = EdgeGroups::default();
        groups.rebuild(x.rows(), edges.iter().copied());
        let (mut work, mut out) = (Vec::new(), Vec::new());
        layer
            .freeze()
            .forward(x.data(), &groups, false, &mut work, &mut out);
        Matrix::from_vec(x.rows(), layer.d_out(), out)
    }

    fn small_graph() -> Vec<TypedEdge> {
        vec![
            TypedEdge { src: 0, dst: 1, rel: 0 },
            TypedEdge { src: 2, dst: 1, rel: 0 },
            TypedEdge { src: 1, dst: 2, rel: 1 },
            TypedEdge { src: 3, dst: 0, rel: 2 },
            TypedEdge { src: 0, dst: 3, rel: 1 },
        ]
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = RgcnLayer::new(3, 5, 4, 2, &mut rng);
        let x = Matrix::xavier(4, 3, &mut rng);
        let edges = small_graph();
        let y1 = layer.forward(&x, &edges);
        let y2 = infer(&layer, &x, &edges);
        assert_eq!((y1.rows(), y1.cols()), (4, 5));
        for (a, b) in y1.data().iter().zip(y2.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn isolated_node_uses_only_self_connection() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = RgcnLayer::new(2, 2, 2, 1, &mut rng);
        let x = Matrix::xavier(3, 2, &mut rng);
        // Node 2 has no in-edges.
        let edges = vec![TypedEdge { src: 0, dst: 1, rel: 0 }];
        let y = infer(&layer, &x, &edges);
        let self_only = x.matmul(&layer.self_w.value);
        assert_eq!(y.row(2), self_only.row(2));
        assert_eq!(y.row(0), self_only.row(0));
        assert_ne!(y.row(1), self_only.row(1));
    }

    #[test]
    fn normalisation_averages_same_relation_neighbours() {
        // Two in-neighbours under the same relation are averaged (c_vw = 2).
        let mut rng = StdRng::seed_from_u64(2);
        let layer = RgcnLayer::new(2, 2, 1, 1, &mut rng);
        let x = Matrix::from_vec(3, 2, vec![2.0, 0.0, 4.0, 0.0, 0.0, 0.0]);
        let edges = vec![
            TypedEdge { src: 0, dst: 2, rel: 0 },
            TypedEdge { src: 1, dst: 2, rel: 0 },
        ];
        let y = infer(&layer, &x, &edges);
        // Mean of x0 and x1 = [3, 0]; so y[2] = [3,0] W_0^{rel} + x2 W_self.
        let w_r = layer.w_r(0);
        let expect_0 = 3.0 * w_r.get(0, 0);
        let expect_1 = 3.0 * w_r.get(0, 1);
        assert!((y.get(2, 0) - expect_0).abs() < 1e-12);
        assert!((y.get(2, 1) - expect_1).abs() < 1e-12);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = RgcnLayer::new(3, 2, 4, 2, &mut rng);
        let x = Matrix::xavier(4, 3, &mut rng);
        let edges = small_graph();
        let y = layer.forward(&x, &edges);
        let dx = layer.backward(&y);
        crate::gradcheck::check_param_grads(
            &mut layer,
            |l| sq_loss(&infer(l, &x, &small_graph())),
            |l| l.params_mut(),
            1e-6,
            1e-5,
        );
        // Input gradient.
        let eps = 1e-6;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.add_at(r, c, eps);
                let mut xm = x.clone();
                xm.add_at(r, c, -eps);
                let num = (sq_loss(&infer(&layer, &xp, &edges))
                    - sq_loss(&infer(&layer, &xm, &edges)))
                    / (2.0 * eps);
                assert!(
                    (num - dx.get(r, c)).abs() < 1e-5,
                    "dx({r},{c}): {num} vs {}",
                    dx.get(r, c)
                );
            }
        }
    }

    #[test]
    fn basis_decomposition_shares_weights() {
        // With one basis, all relation matrices are scalar multiples of it.
        let mut rng = StdRng::seed_from_u64(4);
        let layer = RgcnLayer::new(2, 2, 3, 1, &mut rng);
        let w0 = layer.w_r(0);
        let w1 = layer.w_r(1);
        let a0 = layer.coeffs.value.get(0, 0);
        let a1 = layer.coeffs.value.get(1, 0);
        for i in 0..2 {
            for j in 0..2 {
                assert!((w0.get(i, j) / a0 - w1.get(i, j) / a1).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "relation 7 out of range")]
    fn relation_bounds_checked() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = RgcnLayer::new(2, 2, 3, 1, &mut rng);
        let x = Matrix::zeros(2, 2);
        let _ = infer(&layer, &x, &[TypedEdge { src: 0, dst: 1, rel: 7 }]);
    }
}
