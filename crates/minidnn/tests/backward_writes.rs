//! `Layer::backward` **writes** parameter gradients (DESIGN.md §4.3): the
//! slices it is handed may hold anything, and what comes out must equal,
//! bit for bit, what the zero-then-accumulate form computed — a zeroing
//! sweep, the old accumulating loops (kept here as the reference), and for
//! matrix products a zeroed temporary added into the zeroed gradient.
//!
//! Inputs are chosen to hit the traps: an all-zero activation column (the
//! product loops skip zero activations, so nothing would ever write that
//! gradient row), upstream gradients that are exactly `0.0` under negative
//! activations (`-0.0` products, which `0.0 + …` turns into `+0.0`), and
//! gradient slices pre-filled with NaN and other garbage.

use dear_minidnn::{Embedding, Layer, LayerNorm, Linear, SelfAttention, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `[rows, cols]` of values in ±2 with column `zero_col` all zero and a
/// sprinkling of exact zeros elsewhere.
fn activations(rng: &mut StdRng, rows: usize, cols: usize, zero_col: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            if i % cols == zero_col || rng.gen_range(0..7) == 0 {
                0.0
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect();
    Tensor::from_vec(&[rows, cols], data)
}

/// Runs `layer` forward and backward on its own initial parameters with
/// every gradient slice pre-filled with garbage; returns the parameters and
/// the gradients it wrote.
fn written(layer: &mut dyn Layer, x: &Tensor, dy: &Tensor) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let params = layer.take_init();
    let views: Vec<&[f32]> = params.iter().map(Vec::as_slice).collect();
    let _ = layer.forward(&views, x);
    let mut grads: Vec<Vec<f32>> = params
        .iter()
        .enumerate()
        .map(|(t, p)| {
            (0..p.len())
                .map(|i| if (i + t) % 3 == 0 { f32::NAN } else { 1e30 })
                .collect()
        })
        .collect();
    let mut grad_views: Vec<&mut [f32]> = grads.iter_mut().map(Vec::as_mut_slice).collect();
    let _ = layer.backward(&views, &mut grad_views, dy);
    // A second backward over its own output must not accumulate either.
    let once = grads.clone();
    let mut grad_views: Vec<&mut [f32]> = grads.iter_mut().map(Vec::as_mut_slice).collect();
    let _ = layer.backward(&views, &mut grad_views, dy);
    for (a, b) in once.iter().zip(&grads) {
        assert_eq!(bits(a), bits(b), "backward accumulated into its own output");
    }
    (params, grads)
}

/// `aᵀ·b` as `Tensor::t_matmul` computed it into a zeroed temporary: rows
/// outermost, zero activations skipped.
fn ref_t_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; k * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a.at(i, kk);
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[kk * n + j] += av * b.at(i, j);
            }
        }
    }
    out
}

/// `grad += 1.0 · term`, the old `axpy` into a gradient tensor.
fn ref_axpy(grad: &mut [f32], term: &[f32]) {
    for (g, t) in grad.iter_mut().zip(term) {
        *g += 1.0 * t;
    }
}

#[test]
fn linear_writes_what_zero_then_accumulate_computed() {
    let mut rng = StdRng::seed_from_u64(1);
    for (batch, in_dim, out_dim) in [(1, 5, 4), (2, 8, 6), (5, 7, 3)] {
        let x = activations(&mut rng, batch, in_dim, 2);
        // Exact zeros upstream, as a ReLU mask leaves them.
        let dy = activations(&mut rng, batch, out_dim, 1);
        let mut layer = Linear::new(in_dim, out_dim, &mut rng);
        let (_, grads) = written(&mut layer, &x, &dy);

        let mut dw = vec![0.0f32; in_dim * out_dim];
        ref_axpy(&mut dw, &ref_t_matmul(&x, &dy));
        let mut db = vec![0.0f32; out_dim];
        for r in 0..batch {
            for (c, db) in db.iter_mut().enumerate() {
                *db += dy.at(r, c);
            }
        }
        assert_eq!(
            bits(&grads[0]),
            bits(&dw),
            "dW at {batch}x{in_dim}x{out_dim}"
        );
        assert_eq!(
            bits(&grads[1]),
            bits(&db),
            "db at {batch}x{in_dim}x{out_dim}"
        );
        assert!(
            grads[0][2 * out_dim..3 * out_dim]
                .iter()
                .all(|g| g.to_bits() == 0),
            "the all-zero activation column must leave a +0.0 gradient row"
        );
    }
}

#[test]
fn layernorm_writes_what_zero_then_accumulate_computed() {
    let mut rng = StdRng::seed_from_u64(2);
    let (rows, dim) = (4, 6);
    let x = activations(&mut rng, rows, dim, 3);
    let dy = activations(&mut rng, rows, dim, 0);
    let (_, grads) = written(&mut LayerNorm::new(dim), &x, &dy);

    let (mut gain, mut bias) = (vec![0.0f32; dim], vec![0.0f32; dim]);
    for r in 0..rows {
        // The forward pass's normalisation, recomputed.
        let mean: f32 = (0..dim).map(|c| x.at(r, c)).sum::<f32>() / dim as f32;
        let var: f32 = (0..dim).map(|c| (x.at(r, c) - mean).powi(2)).sum::<f32>() / dim as f32;
        let std = (var + 1e-5).sqrt();
        for c in 0..dim {
            gain[c] += dy.at(r, c) * ((x.at(r, c) - mean) / std);
            bias[c] += dy.at(r, c);
        }
    }
    assert_eq!(bits(&grads[0]), bits(&gain));
    assert_eq!(bits(&grads[1]), bits(&bias));
}

#[test]
fn self_attention_writes_what_zero_then_accumulate_computed() {
    let mut rng = StdRng::seed_from_u64(4);
    let (seq, dim, batch) = (3usize, 4usize, 3usize);
    let feats = seq * dim;
    let x = activations(&mut rng, batch, feats, 1);
    let dy = activations(&mut rng, batch, feats, 6);
    let mut layer = SelfAttention::new(seq, dim, &mut rng);
    let (params, grads) = written(&mut layer, &x, &dy);

    let weight = |i: usize| Tensor::from_vec(&[dim, dim], params[i].clone());
    let (wq, wk, wv, wo) = (weight(0), weight(1), weight(2), weight(3));
    let scale = 1.0 / (dim as f32).sqrt();
    let mut want = vec![vec![0.0f32; dim * dim]; 4];
    for b in 0..batch {
        let row = |t: &Tensor| {
            Tensor::from_vec(&[seq, dim], t.data()[b * feats..(b + 1) * feats].to_vec())
        };
        let (xb, dyb) = (row(&x), row(&dy));
        // Forward, recomputed.
        let (q, k, v) = (xb.matmul(&wq), xb.matmul(&wk), xb.matmul(&wv));
        let mut scores = q.matmul_t(&k);
        scores.map_inplace(|s| s * scale);
        let mut attn = scores.clone();
        for r in 0..seq {
            let max = (0..seq)
                .map(|c| scores.at(r, c))
                .fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for c in 0..seq {
                let e = (scores.at(r, c) - max).exp();
                *attn.at_mut(r, c) = e;
                denom += e;
            }
            for c in 0..seq {
                *attn.at_mut(r, c) /= denom;
            }
        }
        let context = attn.matmul(&v);
        // Backward, the accumulating form.
        ref_axpy(&mut want[3], &ref_t_matmul(&context, &dyb));
        let dcontext = dyb.matmul_t(&wo);
        let dattn = dcontext.matmul_t(&v);
        let dv = Tensor::from_vec(&[seq, dim], ref_t_matmul(&attn, &dcontext));
        let mut dscores = Tensor::zeros(&[seq, seq]);
        for r in 0..seq {
            let dot: f32 = (0..seq).map(|c| attn.at(r, c) * dattn.at(r, c)).sum();
            for c in 0..seq {
                *dscores.at_mut(r, c) = attn.at(r, c) * (dattn.at(r, c) - dot) * scale;
            }
        }
        let dq = dscores.matmul(&k);
        let dk = Tensor::from_vec(&[seq, dim], ref_t_matmul(&dscores, &q));
        ref_axpy(&mut want[0], &ref_t_matmul(&xb, &dq));
        ref_axpy(&mut want[1], &ref_t_matmul(&xb, &dk));
        ref_axpy(&mut want[2], &ref_t_matmul(&xb, &dv));
    }
    for (i, name) in ["Wq", "Wk", "Wv", "Wo"].iter().enumerate() {
        assert_eq!(bits(&grads[i]), bits(&want[i]), "gradient of {name}");
    }
}

#[test]
fn embedding_writes_what_zero_then_accumulate_computed() {
    let mut rng = StdRng::seed_from_u64(5);
    let (vocab, dim, batch, seq) = (5usize, 3usize, 2usize, 4usize);
    // Token 3 never occurs: its gradient row is written by nothing but the
    // layer's own zeroing.
    let ids = [1.0, 1.0, 4.0, 0.0, 2.0, 1.0, 0.0, 4.0];
    let x = Tensor::from_vec(&[batch, seq], ids.to_vec());
    let dy = activations(&mut rng, batch, seq * dim, 2);
    let (_, grads) = written(&mut Embedding::new(vocab, dim, &mut rng), &x, &dy);

    let mut table = vec![0.0f32; vocab * dim];
    for b in 0..batch {
        for s in 0..seq {
            let id = ids[b * seq + s] as usize;
            for d in 0..dim {
                table[id * dim + d] += dy.at(b, s * dim + d);
            }
        }
    }
    assert_eq!(bits(&grads[0]), bits(&table));
    assert!(grads[0][3 * dim..4 * dim].iter().all(|g| g.to_bits() == 0));
}
