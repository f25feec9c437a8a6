//! Single-head self-attention — the defining layer of the paper's
//! BERT-class workloads, with full manual backward.
//!
//! Input rows are flattened `[seq × dim]` token blocks (the batched tensor
//! is `[batch, seq·dim]`, keeping the substrate's 2-D convention). Four
//! parameter tensors: `W_q`, `W_k`, `W_v`, `W_o`, each `[dim, dim]` — the
//! same weight multiplicity that makes transformer blocks communication-
//! heavy in the paper's Table I.

use rand::Rng;

use crate::layer::{Layer, ParamShape};
use crate::tensor::Tensor;

/// Single-head scaled dot-product self-attention over fixed-length
/// sequences: `softmax(QKᵀ/√d)·V·W_o` with `Q = XW_q`, `K = XW_k`,
/// `V = XW_v`.
#[derive(Debug, Clone)]
pub struct SelfAttention {
    seq: usize,
    dim: usize,
    /// Initial `W_q`, `W_k`, `W_v`, `W_o`, until the layer is pushed.
    init: Vec<Vec<f32>>,
    /// Cached forward intermediates, one entry per batch row:
    /// `(x, q, k, v, attn, context)` as `[seq, dim]` / `[seq, seq]` tensors.
    cache: Vec<(Tensor, Tensor, Tensor, Tensor, Tensor, Tensor)>,
}

impl SelfAttention {
    /// Creates the layer for `seq`-token inputs of width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(seq: usize, dim: usize, rng: &mut impl Rng) -> Self {
        assert!(seq > 0 && dim > 0, "dims must be positive");
        let limit = (3.0 / dim as f32).sqrt();
        let init = (0..4)
            .map(|_| {
                (0..dim * dim)
                    .map(|_| rng.gen_range(-limit..=limit))
                    .collect()
            })
            .collect();
        SelfAttention {
            seq,
            dim,
            init,
            cache: Vec::new(),
        }
    }

    /// Flattened feature count (`seq · dim`), unchanged by the layer.
    #[must_use]
    pub fn features(&self) -> usize {
        self.seq * self.dim
    }

    fn unflatten(&self, row: &[f32]) -> Tensor {
        Tensor::from_vec(&[self.seq, self.dim], row.to_vec())
    }

    fn softmax_rows(scores: &Tensor) -> Tensor {
        let mut out = scores.clone();
        let (rows, cols) = (scores.rows(), scores.cols());
        for r in 0..rows {
            let max = (0..cols)
                .map(|c| scores.at(r, c))
                .fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for c in 0..cols {
                let e = (scores.at(r, c) - max).exp();
                *out.at_mut(r, c) = e;
                denom += e;
            }
            for c in 0..cols {
                *out.at_mut(r, c) /= denom;
            }
        }
        out
    }
}

impl Layer for SelfAttention {
    fn name(&self) -> String {
        format!("self_attention(seq {}, dim {})", self.seq, self.dim)
    }

    fn params(&self) -> Vec<ParamShape> {
        vec![ParamShape::new(&[self.dim, self.dim]); 4]
    }

    fn take_init(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.init)
    }

    fn forward(&mut self, params: &[&[f32]], input: &Tensor) -> Tensor {
        assert_eq!(input.cols(), self.features(), "attention feature mismatch");
        let &[wq, wk, wv, wo] = params else {
            panic!("self-attention has four parameter tensors");
        };
        let batch = input.rows();
        let scale = 1.0 / (self.dim as f32).sqrt();
        let mut out = Tensor::zeros(&[batch, self.features()]);
        self.cache.clear();
        for b in 0..batch {
            let row = &input.data()[b * self.features()..(b + 1) * self.features()];
            let x = self.unflatten(row);
            let q = x.matmul_slice(wq);
            let k = x.matmul_slice(wk);
            let v = x.matmul_slice(wv);
            let mut scores = q.matmul_t(&k);
            scores.map_inplace(|s| s * scale);
            let attn = Self::softmax_rows(&scores);
            let context = attn.matmul(&v);
            let y = context.matmul_slice(wo);
            out.data_mut()[b * self.features()..(b + 1) * self.features()]
                .copy_from_slice(y.data());
            self.cache.push((x, q, k, v, attn, context));
        }
        out
    }

    fn backward(
        &mut self,
        params: &[&[f32]],
        grads: &mut [&mut [f32]],
        grad_output: &Tensor,
    ) -> Tensor {
        assert_eq!(
            self.cache.len(),
            grad_output.rows(),
            "backward called before forward"
        );
        let &[wq, wk, wv, wo] = params else {
            panic!("self-attention has four parameter tensors");
        };
        // Each gradient is a sum over the batch rows of per-row products.
        for grad in grads.iter_mut() {
            grad.fill(0.0);
        }
        let add = |grad: &mut [f32], term: Tensor| {
            for (g, t) in grad.iter_mut().zip(term.data()) {
                *g += t;
            }
        };
        let [grad_wq, grad_wk, grad_wv, grad_wo] = grads else {
            panic!("self-attention has four parameter tensors");
        };
        let batch = grad_output.rows();
        let scale = 1.0 / (self.dim as f32).sqrt();
        let mut grad_in = Tensor::zeros(&[batch, self.features()]);
        for b in 0..batch {
            let (x, q, k, v, attn, context) = &self.cache[b];
            let dy_row = &grad_output.data()[b * self.features()..(b + 1) * self.features()];
            let dy = self.unflatten(dy_row);
            // y = context · Wo
            add(grad_wo, context.t_matmul(&dy));
            let dcontext = dy.matmul_t_slice(wo);
            // context = attn · v
            let dattn = dcontext.matmul_t(v);
            let dv = attn.t_matmul(&dcontext);
            // softmax backward, row-wise: ds = a ⊙ (da − Σ a·da)
            let mut dscores = Tensor::zeros(&[self.seq, self.seq]);
            for r in 0..self.seq {
                let dot: f32 = (0..self.seq).map(|c| attn.at(r, c) * dattn.at(r, c)).sum();
                for c in 0..self.seq {
                    *dscores.at_mut(r, c) = attn.at(r, c) * (dattn.at(r, c) - dot) * scale;
                }
            }
            // scores = q · kᵀ
            let dq = dscores.matmul(k);
            let dk = dscores.t_matmul(q);
            // q = x·Wq, k = x·Wk, v = x·Wv
            add(grad_wq, x.t_matmul(&dq));
            add(grad_wk, x.t_matmul(&dk));
            add(grad_wv, x.t_matmul(&dv));
            let mut dx = dq.matmul_t_slice(wq);
            dx.axpy(1.0, &dk.matmul_t_slice(wk));
            dx.axpy(1.0, &dv.matmul_t_slice(wv));
            grad_in.data_mut()[b * self.features()..(b + 1) * self.features()]
                .copy_from_slice(dx.data());
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::layers::Linear;
    use crate::network::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn attention_rows_are_convex_combinations() {
        // With Wo = I and Wv = I, each output token is a convex combination
        // of input tokens: outputs stay within the input min/max envelope.
        let mut rng = StdRng::seed_from_u64(0);
        let mut att = SelfAttention::new(3, 2, &mut rng);
        let init = att.take_init();
        let eye = [1.0, 0.0, 0.0, 1.0];
        let x = Tensor::from_vec(&[1, 6], vec![0.0, 1.0, 2.0, -1.0, 0.5, 0.5]);
        let y = att.forward(&[&init[0], &init[1], &eye, &eye], &x);
        let lo = x.data().iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = x.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for &v in y.data() {
            assert!(v >= lo - 1e-5 && v <= hi + 1e-5, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn attention_has_four_parameter_tensors() {
        let mut rng = StdRng::seed_from_u64(1);
        let att = SelfAttention::new(4, 8, &mut rng);
        assert_eq!(att.params().len(), 4);
        assert_eq!(att.param_count(), 4 * 64);
        assert_eq!(att.features(), 32);
    }

    #[test]
    fn attention_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let att = SelfAttention::new(3, 4, &mut rng);
        let feats = att.features();
        let mut net = Sequential::new()
            .push(att)
            .push(Linear::new(feats, 2, &mut rng));
        let x = Tensor::from_vec(
            &[2, feats],
            (0..2 * feats).map(|i| ((i as f32) * 0.41).sin()).collect(),
        );
        let report = check_gradients(&mut net, &x, &[0, 1], 5);
        assert!(
            report.max_rel_error < 0.08,
            "attention gradcheck failed: {}",
            report.max_rel_error
        );
    }

    #[test]
    fn attention_trains_through_dear_style_loop() {
        use crate::adam::Adam;
        use crate::data::BlobDataset;
        use crate::loss::softmax_cross_entropy;
        use crate::optim::Optimizer;
        let mut rng = StdRng::seed_from_u64(3);
        let att = SelfAttention::new(4, 4, &mut rng); // 16 features
        let feats = att.features();
        let mut net = Sequential::new()
            .push(att)
            .push(crate::layers::LayerNorm::new(feats))
            .push(Linear::new(feats, 3, &mut rng));
        let data = BlobDataset::new(16, 3, 0.3, 4);
        let mut opt = Adam::new(0.01);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..120 {
            let (x, labels) = data.batch(step, 16);
            let logits = net.forward(&x);
            let (loss, dloss) = softmax_cross_entropy(&logits, &labels);
            if step == 0 {
                first = loss;
            }
            last = loss;
            net.backward(&dloss);
            opt.step(&mut net);
        }
        assert!(
            last < 0.3 * first,
            "attention net did not learn: {first} -> {last}"
        );
    }
}
