//! Token embedding — the lookup table that dominates BERT's parameter
//! count (the ≈23 M-element first tensor of the paper's BERT-Base profile).

use rand::Rng;

use crate::layer::{Layer, ParamShape};
use crate::tensor::Tensor;

/// An embedding lookup: each input feature is a token id (carried as an
/// `f32`, rounded); the output row concatenates the looked-up vectors, so
/// `[batch, seq]` ids become `[batch, seq·dim]` features. One parameter
/// tensor (`[vocab, dim]`).
///
/// Out-of-range or negative ids map to token 0 (the conventional padding
/// slot).
#[derive(Debug, Clone)]
pub struct Embedding {
    vocab: usize,
    dim: usize,
    /// Initial table, until the layer is pushed.
    init: Vec<Vec<f32>>,
    cached_ids: Vec<Vec<usize>>,
}

impl Embedding {
    /// Creates a `vocab × dim` table with small random entries.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(vocab: usize, dim: usize, rng: &mut impl Rng) -> Self {
        assert!(vocab > 0 && dim > 0, "dims must be positive");
        let data: Vec<f32> = (0..vocab * dim)
            .map(|_| rng.gen_range(-0.1..=0.1))
            .collect();
        Embedding {
            vocab,
            dim,
            init: vec![data],
            cached_ids: Vec::new(),
        }
    }

    /// The embedding width.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The vocabulary size.
    #[must_use]
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    fn clamp_id(&self, raw: f32) -> usize {
        let id = raw.round();
        if id.is_finite() && id >= 0.0 && (id as usize) < self.vocab {
            id as usize
        } else {
            0
        }
    }
}

impl Layer for Embedding {
    fn name(&self) -> String {
        format!("embedding({}x{})", self.vocab, self.dim)
    }

    fn params(&self) -> Vec<ParamShape> {
        vec![ParamShape::new(&[self.vocab, self.dim])]
    }

    fn take_init(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.init)
    }

    fn forward(&mut self, params: &[&[f32]], input: &Tensor) -> Tensor {
        let table = params[0];
        let batch = input.rows();
        let seq = input.cols();
        let mut out = Tensor::zeros(&[batch, seq * self.dim]);
        self.cached_ids.clear();
        for b in 0..batch {
            let mut ids = Vec::with_capacity(seq);
            for s in 0..seq {
                let id = self.clamp_id(input.at(b, s));
                ids.push(id);
                let row = &table[id * self.dim..(id + 1) * self.dim];
                out.data_mut()[b * seq * self.dim + s * self.dim..][..self.dim]
                    .copy_from_slice(row);
            }
            self.cached_ids.push(ids);
        }
        out
    }

    fn backward(
        &mut self,
        _params: &[&[f32]],
        grads: &mut [&mut [f32]],
        grad_output: &Tensor,
    ) -> Tensor {
        let batch = grad_output.rows();
        assert_eq!(
            self.cached_ids.len(),
            batch,
            "backward called before forward"
        );
        let seq = self.cached_ids.first().map_or(0, Vec::len);
        assert_eq!(grad_output.cols(), seq * self.dim, "embedding grad shape");
        let grad_table = &mut *grads[0];
        grad_table.fill(0.0);
        for (b, ids) in self.cached_ids.iter().enumerate() {
            for (s, &id) in ids.iter().enumerate() {
                let dy = &grad_output.data()[b * seq * self.dim + s * self.dim..][..self.dim];
                let row = &mut grad_table[id * self.dim..(id + 1) * self.dim];
                for (g, d) in row.iter_mut().zip(dy) {
                    *g += d;
                }
            }
        }
        // Token ids are not differentiable; the upstream gradient is zero.
        Tensor::zeros(&[batch, seq])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_looks_up_rows() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut emb = Embedding::new(4, 2, &mut rng);
        let ids = Tensor::from_vec(&[1, 3], vec![2.0, 0.0, 3.0]);
        let y = emb.forward(&[&[0., 0., 1., 1., 2., 2., 3., 3.]], &ids);
        assert_eq!(y.data(), &[2., 2., 0., 0., 3., 3.]);
    }

    #[test]
    fn out_of_range_ids_map_to_padding() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut emb = Embedding::new(3, 1, &mut rng);
        let ids = Tensor::from_vec(&[1, 4], vec![-1.0, 99.0, f32::NAN, 1.0]);
        let y = emb.forward(&[&[7., 8., 9.]], &ids);
        assert_eq!(y.data(), &[7., 7., 7., 8.]);
    }

    #[test]
    fn backward_scatter_adds_per_token() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut emb = Embedding::new(3, 2, &mut rng);
        let table = emb.take_init().remove(0);
        let ids = Tensor::from_vec(&[1, 3], vec![1.0, 1.0, 2.0]);
        let _ = emb.forward(&[&table], &ids);
        let dy = Tensor::from_vec(&[1, 6], vec![1., 2., 3., 4., 5., 6.]);
        let mut grad = [f32::NAN; 6];
        let dx = emb.backward(&[&table], &mut [&mut grad], &dy);
        assert_eq!(dx.data(), &[0., 0., 0.]); // ids are not differentiable
                                              // Token 1 used twice: its rows add up; token 0 is unused.
        assert_eq!(grad, [0., 0., 4., 6., 5., 6.]);
    }

    #[test]
    fn embedding_classifier_trains() {
        use crate::layers::Linear;
        use crate::loss::softmax_cross_entropy;
        use crate::network::Sequential;
        use crate::optim::Sgd;
        // Token sequences where the label equals the first token.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new()
            .push(Embedding::new(3, 8, &mut rng))
            .push(Linear::new(4 * 8, 3, &mut rng));
        let mut opt = Sgd::new(0.2);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..150u64 {
            let ids: Vec<f32> = (0..16)
                .map(|i| ((step.wrapping_mul(31) + i) % 3) as f32)
                .collect();
            let labels: Vec<usize> = ids.chunks(4).map(|c| c[0] as usize).collect();
            let x = Tensor::from_vec(&[4, 4], ids);
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
            last < 0.1 * first,
            "embedding net did not learn: {first} -> {last}"
        );
    }
}
