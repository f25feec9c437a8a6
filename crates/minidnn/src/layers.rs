//! Concrete layers: fully-connected, ReLU, Tanh, and layer normalization.

use rand::Rng;

use crate::layer::{Layer, ParamShape};
use crate::tensor::Tensor;

/// A fully-connected layer: `y = x·W + b`, with `W: [in, out]`, `b: [out]`.
///
/// Two parameter tensors (weight then bias) — mirroring the
/// weight-plus-bias tensor pairs that make the paper's Table I models have
/// roughly `2×` tensors per learnable layer.
#[derive(Debug, Clone)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    /// Initial weight and bias, until the layer is pushed.
    init: Vec<Vec<f32>>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier/Glorot-uniform weights drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let weight: Vec<f32> = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Linear {
            in_dim,
            out_dim,
            init: vec![weight, vec![0.0; out_dim]],
            cached_input: None,
        }
    }

    /// Input feature dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Layer for Linear {
    fn name(&self) -> String {
        format!("linear({}->{})", self.in_dim, self.out_dim)
    }

    fn params(&self) -> Vec<ParamShape> {
        vec![
            ParamShape::new(&[self.in_dim, self.out_dim]),
            ParamShape::new(&[self.out_dim]),
        ]
    }

    fn take_init(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.init)
    }

    fn forward(&mut self, params: &[&[f32]], input: &Tensor) -> Tensor {
        assert_eq!(
            input.cols(),
            self.in_dim,
            "input features {} != layer in_dim {}",
            input.cols(),
            self.in_dim
        );
        let mut out = input.matmul_slice(params[0]);
        for row in out.data_mut().chunks_exact_mut(self.out_dim) {
            for (o, bias) in row.iter_mut().zip(params[1]) {
                *o += bias;
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(
        &mut self,
        params: &[&[f32]],
        grads: &mut [&mut [f32]],
        grad_output: &Tensor,
    ) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        // dW = xᵀ · dy, written where the store keeps it.
        input.t_matmul_into(grad_output, grads[0]);
        // db = column sums of dy
        grads[1].fill(0.0);
        for row in grad_output.data().chunks_exact(self.out_dim) {
            for (db, g) in grads[1].iter_mut().zip(row) {
                *db += g;
            }
        }
        // dx = dy · Wᵀ
        grad_output.matmul_t_slice(params[0])
    }
}

/// Rectified linear unit, element-wise `max(x, 0)`. No parameters.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    #[must_use]
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        "relu".to_owned()
    }

    fn forward(&mut self, _params: &[&[f32]], input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        let mut out = Tensor::zeros(input.shape());
        for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
            *o = x.max(0.0);
        }
        out
    }

    fn backward(
        &mut self,
        _params: &[&[f32]],
        _grads: &mut [&mut [f32]],
        grad_output: &Tensor,
    ) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let mut grad = grad_output.clone();
        for (g, &x) in grad.data_mut().iter_mut().zip(input.data()) {
            if x <= 0.0 {
                *g = 0.0;
            }
        }
        grad
    }
}

/// Hyperbolic tangent activation. No parameters.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a Tanh layer.
    #[must_use]
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn name(&self) -> String {
        "tanh".to_owned()
    }

    fn forward(&mut self, _params: &[&[f32]], input: &Tensor) -> Tensor {
        let mut out = input.clone();
        out.map_inplace(f32::tanh);
        self.cached_output = Some(out.clone());
        out
    }

    fn backward(
        &mut self,
        _params: &[&[f32]],
        _grads: &mut [&mut [f32]],
        grad_output: &Tensor,
    ) -> Tensor {
        let out = self
            .cached_output
            .as_ref()
            .expect("backward called before forward");
        let mut grad = grad_output.clone();
        for (g, &y) in grad.data_mut().iter_mut().zip(out.data()) {
            *g *= 1.0 - y * y;
        }
        grad
    }
}

/// Layer normalization (Ba et al.): per-row standardization followed by a
/// learned element-wise affine (`gain`, `bias`) — the normalization used
/// throughout BERT-class transformer blocks. Two parameter tensors.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    dim: usize,
    eps: f32,
    /// Cached per-row `(x - mean) / std` from the forward pass.
    cached_norm: Option<Tensor>,
    /// Cached per-row standard deviations.
    cached_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer over `dim` features with unit gain and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "layer dimensions must be positive");
        LayerNorm {
            dim,
            eps: 1e-5,
            cached_norm: None,
            cached_std: Vec::new(),
        }
    }
}

impl Layer for LayerNorm {
    fn name(&self) -> String {
        format!("layernorm({})", self.dim)
    }

    fn params(&self) -> Vec<ParamShape> {
        vec![ParamShape::new(&[self.dim]); 2]
    }

    fn take_init(&mut self) -> Vec<Vec<f32>> {
        vec![vec![1.0; self.dim], vec![0.0; self.dim]]
    }

    fn forward(&mut self, params: &[&[f32]], input: &Tensor) -> Tensor {
        assert_eq!(input.cols(), self.dim, "layernorm dimension mismatch");
        let (gain, bias) = (params[0], params[1]);
        let rows = input.rows();
        let mut norm = Tensor::zeros(&[rows, self.dim]);
        self.cached_std = Vec::with_capacity(rows);
        let mut out = Tensor::zeros(&[rows, self.dim]);
        for r in 0..rows {
            let mean: f32 = (0..self.dim).map(|c| input.at(r, c)).sum::<f32>() / self.dim as f32;
            let var: f32 = (0..self.dim)
                .map(|c| (input.at(r, c) - mean).powi(2))
                .sum::<f32>()
                / self.dim as f32;
            let std = (var + self.eps).sqrt();
            self.cached_std.push(std);
            for c in 0..self.dim {
                let n = (input.at(r, c) - mean) / std;
                *norm.at_mut(r, c) = n;
                *out.at_mut(r, c) = gain[c] * n + bias[c];
            }
        }
        self.cached_norm = Some(norm);
        out
    }

    fn backward(
        &mut self,
        params: &[&[f32]],
        grads: &mut [&mut [f32]],
        grad_output: &Tensor,
    ) -> Tensor {
        let norm = self
            .cached_norm
            .as_ref()
            .expect("backward called before forward");
        let gain = params[0];
        let [grad_gain, grad_bias] = grads else {
            panic!("layernorm has two parameter tensors");
        };
        grad_gain.fill(0.0);
        grad_bias.fill(0.0);
        let rows = grad_output.rows();
        let d = self.dim as f32;
        let mut grad_in = Tensor::zeros(&[rows, self.dim]);
        for r in 0..rows {
            // dL/dgain_c = sum_r dy * n; dL/dbias_c = sum_r dy.
            // dL/dx via the standard layer-norm backward:
            // dx = (g·dy - mean(g·dy) - n · mean(g·dy ⊙ n)) / std
            let mut sum_gdy = 0.0f32;
            let mut sum_gdy_n = 0.0f32;
            for c in 0..self.dim {
                let dy = grad_output.at(r, c);
                let gdy = gain[c] * dy;
                grad_gain[c] += dy * norm.at(r, c);
                grad_bias[c] += dy;
                sum_gdy += gdy;
                sum_gdy_n += gdy * norm.at(r, c);
            }
            let std = self.cached_std[r];
            for (c, gain) in gain.iter().enumerate() {
                let gdy = gain * grad_output.at(r, c);
                *grad_in.at_mut(r, c) = (gdy - sum_gdy / d - norm.at(r, c) * sum_gdy_n / d) / std;
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_computes_affine_map() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let y = l.forward(&[&[1.0, 2.0, 3.0, 4.0], &[0.5, -0.5]], &x);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn linear_backward_shapes_and_bias_grad() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(3, 2, &mut rng);
        let init = l.take_init();
        let params = [&init[0][..], &init[1][..]];
        let x = Tensor::from_vec(&[4, 3], (0..12).map(|i| i as f32 / 10.0).collect());
        let _ = l.forward(&params, &x);
        let dy = Tensor::from_vec(&[4, 2], vec![1.0; 8]);
        let (mut dw, mut db) = ([0.0; 6], [0.0; 2]);
        let dx = l.backward(&params, &mut [&mut dw, &mut db], &dy);
        assert_eq!(dx.shape(), &[4, 3]);
        // db = batch-sum of dy = 4 per output.
        assert_eq!(db, [4.0, 4.0]);
    }

    #[test]
    fn relu_masks_negative_inputs() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = r.forward(&[], &x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let dy = Tensor::from_vec(&[1, 4], vec![1.0; 4]);
        let dx = r.backward(&[], &mut [], &dy);
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn tanh_gradient_uses_output() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(&[1, 1], vec![0.0]);
        let y = t.forward(&[], &x);
        assert_eq!(y.data(), &[0.0]);
        let dx = t.backward(&[], &mut [], &Tensor::from_vec(&[1, 1], vec![2.0]));
        assert_eq!(dx.data(), &[2.0]); // 1 - tanh(0)^2 = 1
    }

    #[test]
    fn layernorm_standardizes_rows() {
        let mut ln = LayerNorm::new(4);
        let init = ln.take_init();
        let x = Tensor::from_vec(&[2, 4], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let y = ln.forward(&[&init[0], &init[1]], &x);
        // Row 0: zero mean, unit variance (up to eps).
        let row0: Vec<f32> = (0..4).map(|c| y.at(0, c)).collect();
        let mean: f32 = row0.iter().sum::<f32>() / 4.0;
        let var: f32 = row0.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-2);
        // Constant row maps to zeros (gain 1, bias 0).
        for c in 0..4 {
            assert!(y.at(1, c).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_gradients_match_finite_differences() {
        use crate::gradcheck::check_gradients;
        use crate::network::Sequential;
        let mut rng = StdRng::seed_from_u64(31);
        let mut net = Sequential::new()
            .push(Linear::new(5, 6, &mut rng))
            .push(LayerNorm::new(6))
            .push(Linear::new(6, 3, &mut rng));
        let x = Tensor::from_vec(&[3, 5], (0..15).map(|i| (i as f32 * 0.3).sin()).collect());
        let report = check_gradients(&mut net, &x, &[0, 2, 1], 2);
        assert!(
            report.max_rel_error < 0.08,
            "layernorm gradcheck failed: {}",
            report.max_rel_error
        );
    }

    #[test]
    fn layernorm_has_two_param_tensors() {
        let ln = LayerNorm::new(8);
        assert_eq!(ln.params().len(), 2);
        assert_eq!(ln.param_count(), 16);
        assert_eq!(ln.name(), "layernorm(8)");
    }

    #[test]
    fn backward_overwrites_whatever_the_gradient_slices_held() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(2, 2, &mut rng);
        let init = l.take_init();
        let params = [&init[0][..], &init[1][..]];
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
        let dy = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let _ = l.forward(&params, &x);
        let (mut dw, mut db) = ([0.0; 4], [0.0; 2]);
        let _ = l.backward(&params, &mut [&mut dw, &mut db], &dy);
        let (mut dw2, mut db2) = ([f32::NAN; 4], [7.0; 2]);
        let _ = l.backward(&params, &mut [&mut dw2, &mut db2], &dy);
        assert_eq!((dw, db), (dw2, db2));
        assert_eq!(dw, [1.0, 1.0, 2.0, 2.0]);
        assert_eq!(l.param_count(), 6);
    }
}
