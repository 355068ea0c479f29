//! Fully connected layer `y = xW + b` with manual backward.

use crate::matrix::Matrix;
use crate::param::Parameter;
use rand::Rng;

/// Dense layer. `W` is `(in × out)`, `b` is `(1 × out)`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix.
    pub w: Parameter,
    /// Bias row.
    pub b: Parameter,
    cache_x: Option<Matrix>,
}

impl Linear {
    /// Xavier-initialised dense layer.
    pub fn new<R: Rng>(d_in: usize, d_out: usize, rng: &mut R) -> Self {
        Self {
            w: Parameter::xavier(d_in, d_out, rng),
            b: Parameter::zeros(1, d_out),
            cache_x: None,
        }
    }

    /// Wraps existing parameters (checkpoint restore): the forward cache
    /// starts empty, exactly as after [`Linear::new`].
    pub fn from_params(w: Parameter, b: Parameter) -> Self {
        assert_eq!(w.value.cols(), b.value.cols(), "bias width must match W");
        Self {
            w,
            b,
            cache_x: None,
        }
    }

    /// Input dimensionality.
    pub fn d_in(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimensionality.
    pub fn d_out(&self) -> usize {
        self.w.value.cols()
    }

    /// Forward pass; caches `x` for the backward pass.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(&self.b.value);
        self.cache_x = Some(x.clone());
        y
    }

    /// Forward without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut y = Vec::new();
        self.forward_rows(x.data(), &mut y);
        Matrix::from_vec(x.rows(), self.d_out(), y)
    }

    /// Inference on row-major slices: `x` holds `N × d_in`, `out` is
    /// overwritten with `N × d_out`. Per element the operations and their
    /// order are those of [`forward`](Self::forward), so the values are
    /// bit-equal.
    pub fn forward_rows(&self, x: &[f64], out: &mut Vec<f64>) {
        let (d_in, d_out) = (self.d_in(), self.d_out());
        out.clear();
        out.resize(x.len() / d_in * d_out, 0.0);
        for (x_row, out_row) in x.chunks_exact(d_in).zip(out.chunks_exact_mut(d_out)) {
            self.w.value.add_row_product(x_row, out_row);
            for (v, b) in out_row.iter_mut().zip(self.b.value.data()) {
                *v += b;
            }
        }
    }

    /// Backward pass: accumulates `dW = xᵀ dy`, `db = Σ_rows dy`, returns
    /// `dx = dy Wᵀ`. Panics if `forward` was not called.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self.cache_x.as_ref().expect("forward before backward");
        self.w.grad.add_assign(&x.matmul_tn(dy));
        self.b.grad.add_assign(&dy.sum_rows());
        dy.matmul_nt(&self.w.value)
    }

    /// The layer's parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_param_grads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 5, &mut rng);
        let x = Matrix::xavier(4, 3, &mut rng);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 5));
        assert_eq!(l.d_in(), 3);
        assert_eq!(l.d_out(), 5);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Matrix::xavier(4, 3, &mut rng);
        // Loss = sum(y^2)/2 so that d_loss/dy = y.
        let make_loss = |l: &mut Linear| {
            let y = l.forward(&x);
            let loss: f64 = y.data().iter().map(|v| v * v).sum::<f64>() / 2.0;
            (loss, y)
        };
        let mut l = Linear::new(3, 2, &mut rng);
        let (_, y) = make_loss(&mut l);
        let dx = l.backward(&y);
        assert_eq!((dx.rows(), dx.cols()), (4, 3));
        // Check W and b grads numerically.
        check_param_grads(
            &mut l,
            |l| {
                let y = l.forward_inference(&x);
                y.data().iter().map(|v| v * v).sum::<f64>() / 2.0
            },
            |l| vec![&mut l.w, &mut l.b],
            1e-6,
            1e-6,
        );
        // Check dx numerically.
        let eps = 1e-6;
        for r in 0..4 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.add_at(r, c, eps);
                let mut xm = x.clone();
                xm.add_at(r, c, -eps);
                let yp = l.forward_inference(&xp);
                let ym = l.forward_inference(&xm);
                let lp: f64 = yp.data().iter().map(|v| v * v).sum::<f64>() / 2.0;
                let lm: f64 = ym.data().iter().map(|v| v * v).sum::<f64>() / 2.0;
                let num = (lp - lm) / (2.0 * eps);
                assert!((num - dx.get(r, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "forward before backward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let dy = Matrix::zeros(1, 2);
        let _ = l.backward(&dy);
    }
}
