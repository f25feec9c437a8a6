//! The dense kernels compute what the loops they replaced computed, bit
//! for bit (DESIGN.md §4.3): `Tensor::matmul_t_slice` runs 8 output
//! columns as lanes, advancing them from one transposed 8×8 weight tile
//! per 8 k steps, and `Tensor::matmul_slice` and `Tensor::t_matmul_into`
//! gather their nonzero coefficients and accumulate column blocks in
//! registers, but per output element each keeps the old loop's chain —
//! same start value, same terms, same order. The old loops live on here
//! only as the oracles.
//!
//! Every case sweeps the whole shape grid: batch sizes on both sides of
//! the 32-row gather; inner dimensions and output widths at the tile's edge
//! (7, 8, 9: all scalar tail, one tile, one tile and a one-step tail), at
//! the edges of the 32-step gather (32, 33, 64) and of the 64-column block
//! (32, 64, 128), and no multiple of either. Inputs carry exact zeros (a
//! ReLU'd `dy`, the activations the gathers skip, a batch row and an
//! activation column of nothing but zeros), `-0.0` (so a chain's start
//! value shows in its sign), and in half the cases ±inf and one NaN.
//!
//! NaNs compare as NaNs: which payload survives when two meet depends on
//! operand order inside one `mulps`/`addps`, which neither Rust nor LLVM
//! pins down. Everything else compares by `to_bits`.

use dear_minidnn::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `x · W` as `Tensor::matmul_slice` computed it before the gathered
/// kernel: i-k-j order into a zeroed output, one pass over the output row
/// per activation, rows of `W` whose activation is exactly zero skipped.
fn oracle_matmul(a: &Tensor, rhs: &[f32]) -> Vec<f32> {
    let (m, k) = (a.rows(), a.cols());
    let n = rhs.len() / k;
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a.data()[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let row = &rhs[kk * n..(kk + 1) * n];
            for (o, b) in out[i * n..(i + 1) * n].iter_mut().zip(row) {
                *o += av * b;
            }
        }
    }
    out
}

/// `dy · Wᵀ` as `Tensor::matmul_t_slice` computed it before any lane kernel:
/// one scalar dot product per output element.
fn oracle_matmul_t(a: &Tensor, rhs: &[f32]) -> Vec<f32> {
    let (m, k) = (a.rows(), a.cols());
    let n = rhs.len() / k;
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let a_row = &a.data()[i * k..(i + 1) * k];
            let b_row = &rhs[j * k..(j + 1) * k];
            out[i * n + j] = a_row.iter().zip(b_row).map(|(a, b)| a * b).sum();
        }
    }
    out
}

/// `xᵀ · dy` as `Tensor::t_matmul_into` computed it before the write-once
/// kernel: one read-modify-write pass over the output row per batch row.
fn oracle_t_matmul_into(a: &Tensor, other: &Tensor, out: &mut [f32]) {
    let (m, k) = (a.rows(), a.cols());
    let n = other.cols();
    for (kk, out_row) in out.chunks_exact_mut(n).enumerate() {
        let mut written = false;
        for i in 0..m {
            let av = a.data()[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let row = &other.data()[i * n..(i + 1) * n];
            if written {
                for (o, b) in out_row.iter_mut().zip(row) {
                    *o += av * b;
                }
            } else {
                for (o, b) in out_row.iter_mut().zip(row) {
                    *o = 0.0 + av * b;
                }
                written = true;
            }
        }
        if !written {
            out_row.fill(0.0);
        }
    }
}

/// Values in ±2 with a quarter exact `0.0` and a sprinkling of `-0.0`;
/// `non_finite` adds a `+inf`, a `-inf` and one NaN at random places.
fn values(rng: &mut StdRng, len: usize, non_finite: bool) -> Vec<f32> {
    let mut v: Vec<f32> = (0..len)
        .map(|_| match rng.gen_range(0..16) {
            0..=3 => 0.0,
            4 => -0.0,
            _ => rng.gen_range(-2.0..2.0),
        })
        .collect();
    if non_finite {
        for special in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            v[rng.gen_range(0..len)] = special;
        }
    }
    v
}

fn first_difference(got: &[f32], want: &[f32]) -> Option<String> {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()))
        .map(|at| {
            format!(
                "element {at}: got {:e} ({:#010x}), want {:e} ({:#010x})",
                got[at],
                got[at].to_bits(),
                want[at],
                want[at].to_bits()
            )
        })
}

const BATCHES: [usize; 7] = [1, 2, 3, 8, 32, 33, 70];
const INNER: [usize; 12] = [1, 5, 7, 8, 9, 32, 33, 63, 64, 65, 100, 131];
const WIDTHS: [usize; 14] = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 80, 128, 512];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn matmul_slice_keeps_every_chain(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (m, k, n) in grid() {
            let non_finite = rng.gen_range(0..2) == 1;
            let mut x = values(&mut rng, m * k, non_finite);
            // A batch row with no activation (its output row accumulates
            // nothing and must come out `+0.0`) and an activation no row
            // has, where they leave the product something to compute.
            if m > 1 && k > 1 {
                let (row, col) = (rng.gen_range(0..m), rng.gen_range(0..k));
                x[row * k..][..k].fill(0.0);
                x.iter_mut().skip(col).step_by(k).for_each(|v| *v = 0.0);
            }
            let x = Tensor::from_vec(&[m, k], x);
            let w = values(&mut rng, k * n, non_finite);
            let got = x.matmul_slice(&w);
            prop_assert_eq!(got.shape(), &[m, n]);
            if let Some(diff) = first_difference(got.data(), &oracle_matmul(&x, &w)) {
                prop_assert!(false, "matmul_slice [{m}x{k}]·[{k}x{n}] {diff}");
            }
        }
    }

    #[test]
    fn matmul_t_slice_keeps_every_chain(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (m, k, n) in grid() {
            let non_finite = rng.gen_range(0..2) == 1;
            let dy = Tensor::from_vec(&[m, k], values(&mut rng, m * k, non_finite));
            let w = values(&mut rng, n * k, non_finite);
            let got = dy.matmul_t_slice(&w);
            prop_assert_eq!(got.shape(), &[m, n]);
            if let Some(diff) = first_difference(got.data(), &oracle_matmul_t(&dy, &w)) {
                prop_assert!(false, "matmul_t_slice [{m}x{k}]·[{n}x{k}]ᵀ {diff}");
            }
        }
    }

    #[test]
    fn t_matmul_into_keeps_every_chain(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (m, k, n) in grid() {
            let non_finite = rng.gen_range(0..2) == 1;
            let mut x = values(&mut rng, m * k, non_finite);
            // A column no row touches: nothing accumulates into that
            // gradient row, it has to come out `0.0` all the same.
            let dead = rng.gen_range(0..k);
            x.iter_mut().skip(dead).step_by(k).for_each(|v| *v = 0.0);
            let x = Tensor::from_vec(&[m, k], x);
            let dy = Tensor::from_vec(&[m, n], values(&mut rng, m * n, non_finite));
            let mut got = vec![f32::NAN; k * n];
            let mut want = vec![f32::NAN; k * n];
            x.t_matmul_into(&dy, &mut got);
            oracle_t_matmul_into(&x, &dy, &mut want);
            if let Some(diff) = first_difference(&got, &want) {
                prop_assert!(false, "t_matmul_into [{m}x{k}]ᵀ·[{m}x{n}] {diff}");
            }
        }
    }
}

fn grid() -> impl Iterator<Item = (usize, usize, usize)> {
    BATCHES.into_iter().flat_map(|m| {
        INNER
            .into_iter()
            .flat_map(move |k| WIDTHS.into_iter().map(move |n| (m, k, n)))
    })
}
