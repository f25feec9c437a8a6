//! A minimal dense tensor: a shape plus a flat `f32` buffer.
//!
//! This replaces the PyTorch tensors of the paper's implementation. Only
//! the operations the training substrate needs are provided (2-D matmul,
//! transpose-products, element-wise maps); everything is row-major.

use serde::{Deserialize, Serialize};

/// A dense row-major `f32` tensor.
///
/// # Examples
///
/// ```
/// use dear_minidnn::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    #[must_use]
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat buffer.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of rows of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Element accessor for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on out-of-bounds indices.
    #[inline]
    #[must_use]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element accessor for 2-D tensors.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        &mut self.data[r * self.shape[1] + c]
    }

    /// Matrix product `self @ other` for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    #[must_use]
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (k, k2) = (self.cols(), other.rows());
        assert_eq!(k, k2, "matmul inner dimensions {k} vs {k2}");
        self.matmul_slice(&other.data)
    }

    /// [`Tensor::matmul`] against a row-major `[self.cols(), n]` matrix
    /// given as a flat slice — a layer's weight, borrowed from the
    /// [`crate::ParamStore`].
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len()` is not a multiple of `self.cols()`.
    #[must_use]
    pub fn matmul_slice(&self, rhs: &[f32]) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        assert_eq!(rhs.len() % k, 0, "matmul operand is not {k} rows");
        let n = rhs.len() / k;
        let mut out = Tensor::zeros(&[m, n]);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: the host has AVX2, checked just above.
            unsafe { avx2::matmul_kernel(&self.data, rhs, &mut out.data, (m, k, n)) };
            return out;
        }
        matmul_kernel(&self.data, rhs, &mut out.data, (m, k, n));
        out
    }

    /// `selfᵀ @ other` (used for weight gradients: `xᵀ · dy`).
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    #[must_use]
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.cols(), other.cols()]);
        self.t_matmul_into(other, &mut out.data);
        out
    }

    /// Writes `selfᵀ @ other` into `out`, whatever `out` held: a weight
    /// gradient produced where the collective reads it. Every element is
    /// the chain `0.0 + Σᵢ self[i][k]·other[i][j]` over the rows `i` with
    /// `self[i][k] ≠ 0`, in row order — what accumulating into a zeroed
    /// buffer computes, with no zeroing sweep and each element written once.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree or `out` is not `[cols, cols]`
    /// of the operands.
    pub fn t_matmul_into(&self, other: &Tensor, out: &mut [f32]) {
        let (m, k) = (self.rows(), self.cols());
        let (m2, n) = (other.rows(), other.cols());
        assert_eq!(m, m2, "t_matmul row counts {m} vs {m2}");
        assert_eq!(out.len(), k * n, "t_matmul output is not {k}x{n}");
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: the host has AVX2, checked just above.
            unsafe { avx2::t_matmul_kernel(&self.data, &other.data, out, (m, k, n)) };
            return;
        }
        t_matmul_kernel(&self.data, &other.data, out, (m, k, n));
    }

    /// `self @ otherᵀ` (used for input gradients: `dy · Wᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    #[must_use]
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let (k, k2) = (self.cols(), other.cols());
        assert_eq!(k, k2, "matmul_t column counts {k} vs {k2}");
        self.matmul_t_slice(&other.data)
    }

    /// [`Tensor::matmul_t`] against a row-major `[n, self.cols()]` matrix
    /// given as a flat slice.
    ///
    /// Every output element is the strictly ordered dot product
    /// `Σₖ self[i][k]·rhs[j][k]`, `k` ascending from `Iterator::sum`'s start
    /// value. A single such chain cannot be vectorised without reordering
    /// it, so the kernel runs 8 of them — output columns — side by side:
    /// per 8 k steps it transposes one 8×8 tile of `rhs` in registers and
    /// advances every batch row's 8 chains from it (DESIGN.md §4.3).
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len()` is not a multiple of `self.cols()`.
    #[must_use]
    pub fn matmul_t_slice(&self, rhs: &[f32]) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        assert_eq!(rhs.len() % k, 0, "matmul_t operand is not {k} columns");
        let n = rhs.len() / k;
        // Every chain starts where `Iterator::sum` starts an `f32` one and
        // is carried from tile to tile through `out`.
        let start: f32 = std::iter::empty::<f32>().sum();
        let mut out = Tensor::from_vec(&[m, n], vec![start; m * n]);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: the host has AVX2, checked just above.
            unsafe { avx2::matmul_t_kernel(&self.data, rhs, &mut out.data, (m, k, n)) };
            return out;
        }
        matmul_t_kernel(&self.data, rhs, &mut out.data, (m, k, n), transpose_tile);
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise AXPY: `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }
}

/// Side of the weight tiles [`Tensor::matmul_t_slice`] transposes: it runs
/// `TILE` output columns side by side, one strictly ordered sum per lane,
/// `TILE` k steps per tile.
const TILE: usize = 8;
/// One `TILE × TILE` tile, transposed: `tile[kk][lane]`.
type Tile = [[f32; TILE]; TILE];
/// Output columns [`accumulate_row`] accumulates in registers.
const T_BLOCK: usize = 64;
/// Terms gathered per pass: batch rows (weight gradient), `k` steps (forward).
const GATHER: usize = 32;
/// A product's `(m, k, n)`: `a` is `[m, k]`; each body's doc gives the rest.
type Dims = (usize, usize, usize);
/// One pass's gathered terms: `(coefficient, offset of its source row)`.
type Live = [(f32, usize); GATHER];

// The three kernels below are each one source compiled twice: called
// directly they run on the baseline instruction stream (SSE2 on x86-64),
// and through `avx2`'s wrappers, which the methods above pick per call when
// the host has AVX2, on 256-bit vectors; `#[inline(always)]` puts a body,
// helpers included, into its wrapper's stream. The products stay `a * b`
// then `+` (Rust never contracts them into a fused multiply-add), so both
// streams compute every output element's chain with the same operations
// in the same order and agree bit for bit (DESIGN.md §4.3). The forward
// and the weight gradient are one body, [`accumulate_row`], over different
// gathers; the one piece with two bodies is `matmul_t_kernel`'s 8×8 tile
// transpose, a permutation: portable here, intrinsics in `avx2`.

/// [`Tensor::matmul_slice`]'s body: `out = a @ rhs` for row-major `a: [m,
/// k]` and `rhs: [k, n]`, whatever `out` held. Element `(i, j)` is `0.0 +
/// Σ a[i][kk]·rhs[kk][j]` over the `kk` with `a[i][kk] ≠ 0`, ascending.
/// The `k` chunks are the outer loop, so every batch row reads the same
/// strip of `GATHER` rows of `rhs` while it is in cache.
#[inline(always)]
fn matmul_kernel(a: &[f32], rhs: &[f32], out: &mut [f32], (m, k, n): Dims) {
    let mut live: Live = [(0.0, 0); GATHER];
    for k0 in (0..k).step_by(GATHER) {
        for i in 0..m {
            let terms = (k0..k.min(k0 + GATHER)).map(|kk| (a[i * k + kk], kk * n));
            let live = gather(&mut live, terms);
            accumulate_row(&mut out[i * n..(i + 1) * n], live, rhs, k0 == 0);
        }
    }
}

/// [`Tensor::t_matmul_into`]'s body: `out = xᵀ @ dy` for `x: [m, k]` and
/// `dy: [m, n]`, whatever `out` held. Element `(kk, j)` is `0.0 + Σ
/// x[i][kk]·dy[i][j]` over the `i` with `x[i][kk] ≠ 0`, ascending.
#[inline(always)]
fn t_matmul_kernel(x: &[f32], dy: &[f32], out: &mut [f32], (m, k, n): Dims) {
    let mut live: Live = [(0.0, 0); GATHER];
    for kk in 0..k {
        // `max(1)`: an empty batch still writes its zeros.
        for i0 in (0..m.max(1)).step_by(GATHER) {
            let terms = (i0..m.min(i0 + GATHER)).map(|i| (x[i * k + kk], i * n));
            let live = gather(&mut live, terms);
            accumulate_row(&mut out[kk * n..(kk + 1) * n], live, dy, i0 == 0);
        }
    }
}

/// The terms whose coefficient is not exactly zero, in order: gathered
/// first, so [`accumulate_row`]'s column blocks run without a branch on
/// the data (tested per block, it mispredicts half the time after a ReLU).
#[inline(always)]
fn gather(live: &mut Live, terms: impl Iterator<Item = (f32, usize)>) -> &[(f32, usize)] {
    let mut count = 0;
    for (a, at) in terms {
        live[count] = (a, at);
        count += usize::from(a != 0.0);
    }
    &live[..count]
}

/// Both gathered products' body: adds `a · src[at..at + n]` into `out`,
/// `n` long, for every `(a, at)` of `live` in order. With `first` every
/// chain starts from `0.0` (a `-0.0` first product comes out `+0.0`, an
/// element nothing reaches `0.0`), otherwise from `out`. A block of
/// `T_BLOCK` columns accumulates in a local array and is stored once (with
/// `out`'s slice as the accumulator the baseline stream stays scalar); the
/// `n mod T_BLOCK` last columns accumulate in place.
#[inline(always)]
fn accumulate_row(out: &mut [f32], live: &[(f32, usize)], src: &[f32], first: bool) {
    let (n, n_blocks) = (out.len(), out.len() - out.len() % T_BLOCK);
    for (block, j0) in out.chunks_exact_mut(T_BLOCK).zip((0..).step_by(T_BLOCK)) {
        let mut acc = [0.0f32; T_BLOCK];
        if !first {
            acc.copy_from_slice(block);
        }
        for &(a, at) in live {
            for (s, b) in acc.iter_mut().zip(&src[at + j0..][..T_BLOCK]) {
                *s += a * b;
            }
        }
        block.copy_from_slice(&acc);
    }
    let tail = &mut out[n_blocks..];
    if first {
        tail.fill(0.0);
    }
    for &(a, at) in live {
        for (o, b) in tail.iter_mut().zip(&src[at + n_blocks..at + n]) {
            *o += a * b;
        }
    }
}

/// [`Tensor::matmul_t_slice`]'s body, given its stream's tile transpose:
/// `out = a @ rhsᵀ` for `a: [m, k]` and `rhs: [n, k]`, `out` filled with
/// the chains' start value. Per strip of `TILE` output columns and per
/// `TILE`-deep k step, one tile of `rhs` is transposed — `tile[kk][lane] =
/// rhs[(j0 + lane) * k + k0 + kk]` — and every batch row's `TILE` chains
/// advance from it: loaded from `out`, `a[i][kk]·tile[kk][lane]` added with
/// `kk` ascending, stored back. Per element that is the scalar dot
/// product's order; the lanes are independent, so the adds vectorise. The
/// `k mod TILE` last steps of a strip and the `n mod TILE` last columns run
/// the scalar chain.
#[inline(always)]
fn matmul_t_kernel(
    a: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    (m, k, n): Dims,
    transpose: impl Fn(&[f32], usize) -> Tile,
) {
    let (a, out) = (&a[..m * k], &mut out[..m * n]);
    let (k_tiles, n_tiles) = (k - k % TILE, n - n % TILE);
    for j0 in (0..n_tiles).step_by(TILE) {
        let w = &rhs[j0 * k..][..TILE * k];
        for k0 in (0..k_tiles).step_by(TILE) {
            let tile = transpose(&w[k0..], k);
            for i in 0..m {
                // Accumulated in a local array: with `out`'s slice itself
                // as the accumulator the baseline stream stays scalar.
                let out = &mut out[i * n + j0..][..TILE];
                let mut acc = [0.0f32; TILE];
                acc.copy_from_slice(out);
                for (a, col) in a[i * k + k0..][..TILE].iter().zip(&tile) {
                    for (s, w) in acc.iter_mut().zip(col) {
                        *s += a * w;
                    }
                }
                out.copy_from_slice(&acc);
            }
        }
        for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            for (o, w_row) in out_row[j0..j0 + TILE].iter_mut().zip(w.chunks_exact(k)) {
                for (a, w) in a_row[k_tiles..].iter().zip(&w_row[k_tiles..]) {
                    *o += a * w;
                }
            }
        }
    }
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (j, o) in out_row.iter_mut().enumerate().skip(n_tiles) {
            let b_row = &rhs[j * k..(j + 1) * k];
            *o = a_row.iter().zip(b_row).map(|(a, b)| a * b).sum();
        }
    }
}

/// `tile[c][r] = w[r * stride + c]`: the `TILE × TILE` tile at the start
/// of `w`, whose rows are `stride` apart, transposed.
#[inline(always)]
fn transpose_tile(w: &[f32], stride: usize) -> Tile {
    let rows: [&[f32]; TILE] = std::array::from_fn(|r| &w[r * stride..][..TILE]);
    std::array::from_fn(|c| std::array::from_fn(|r| rows[r][c]))
}

/// Whether the kernels run on their AVX2 stream. std caches the answer:
/// after the first call this is a load and a test.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

/// The kernels compiled for AVX2. Calling one is `unsafe`: the host must
/// have AVX2 ([`has_avx2`]). They touch memory through the slices they are
/// given, and `matmul_t_kernel`'s tile transpose through raw-pointer loads
/// inside one slice it has bounds-checked.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Dims, Tile, TILE};

    /// [`super::matmul_kernel`] on this stream.
    #[target_feature(enable = "avx2")]
    pub(super) fn matmul_kernel(a: &[f32], rhs: &[f32], out: &mut [f32], dims: Dims) {
        super::matmul_kernel(a, rhs, out, dims);
    }

    /// [`super::t_matmul_kernel`] on this stream.
    #[target_feature(enable = "avx2")]
    pub(super) fn t_matmul_kernel(x: &[f32], dy: &[f32], out: &mut [f32], dims: Dims) {
        super::t_matmul_kernel(x, dy, out, dims);
    }

    /// [`super::matmul_t_kernel`] on this stream: the same body, with
    /// [`transpose_tile`] as its transpose.
    #[target_feature(enable = "avx2")]
    pub(super) fn matmul_t_kernel(a: &[f32], b: &[f32], out: &mut [f32], dims: Dims) {
        super::matmul_t_kernel(a, b, out, dims, |w, stride| transpose_tile(w, stride));
    }

    /// [`super::transpose_tile`] in eight loads, 24 shuffles and eight
    /// stores. It only moves bits — every value, NaN payloads included,
    /// comes out as it went in — so both streams feed the arithmetic the
    /// same tile.
    #[target_feature(enable = "avx2")]
    pub(super) fn transpose_tile(w: &[f32], stride: usize) -> Tile {
        use std::arch::x86_64::{
            _mm256_loadu_ps, _mm256_permute2f128_ps, _mm256_shuffle_ps, _mm256_storeu_ps,
            _mm256_unpackhi_ps, _mm256_unpacklo_ps,
        };
        let w = &w[..(TILE - 1) * stride + TILE];
        // SAFETY: row `r` is the `TILE` floats from `r * stride`, which end
        // at most at `(TILE - 1) * stride + TILE`, the length `w` was just
        // cut to (and checked against).
        let [r0, r1, r2, r3, r4, r5, r6, r7] =
            std::array::from_fn(|r| unsafe { _mm256_loadu_ps(w.as_ptr().add(r * stride)) });
        // Pairs of rows interleaved, per 128-bit half: `a0 b0 a1 b1 | a4 b4 a5 b5`.
        let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
        let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
        let (t4, t5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
        let (t6, t7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
        // Quads: `a0 b0 c0 d0 | a4 b4 c4 d4`.
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        // Columns: the low halves give columns 0–3, the high halves 4–7.
        let cols = [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ];
        let mut tile = [[0.0; TILE]; TILE];
        for (out, col) in tile.iter_mut().zip(cols) {
            // SAFETY: `out` is `TILE` = 8 floats, one 256-bit store.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), col) };
        }
        tile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at(0, 1), 2.0);
        assert_eq!(t.at(1, 0), 3.0);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn mismatched_data_length_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_small_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_products_match_explicit_transpose() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[2, 4], vec![1., 0., 2., -1., 3., 1., 0., 2.]);
        // aᵀ (3x2) @ b (2x4)
        let at = Tensor::from_vec(&[3, 2], vec![1., 4., 2., 5., 3., 6.]);
        assert_eq!(a.t_matmul(&b), at.matmul(&b));
        // b (2x4) @ cᵀ where c is 3x4
        let c = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32).collect());
        let ct = Tensor::from_vec(
            &[4, 3],
            vec![0., 4., 8., 1., 5., 9., 2., 6., 10., 3., 7., 11.],
        );
        assert_eq!(b.matmul_t(&c), b.matmul(&ct));
    }

    #[test]
    fn axpy_and_map() {
        let mut a = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(&[3], vec![10., 10., 10.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6., 7., 8.]);
        a.map_inplace(|x| x * 2.0);
        assert_eq!(a.data(), &[12., 14., 16.]);
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

    /// Each kernel on the baseline stream and through its AVX2 wrapper,
    /// over `tests/kernel_bits.rs`' shape grid, compared by `to_bits` (a
    /// NaN as a NaN: which payload survives two NaNs meeting is not pinned
    /// down, see there).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_stream_matches_the_baseline_bit_for_bit() {
        if !has_avx2() {
            println!("skipped: this host has no AVX2, so the baseline stream is the only one");
            return;
        }
        let check = |kernel: &str, (m, k, n): Dims, base: &[f32], fast: &[f32]| {
            for (at, (b, f)) in base.iter().zip(fast).enumerate() {
                assert!(
                    b.to_bits() == f.to_bits() || (b.is_nan() && f.is_nan()),
                    "{kernel} m={m} k={k} n={n} element {at}: baseline {b:e}, avx2 {f:e}"
                );
            }
        };
        let mut rng = StdRng::seed_from_u64(38);
        let widths = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 80, 128, 512];
        let grid = [1, 2, 3, 8, 32, 33, 70].into_iter().flat_map(|m| {
            let inner = [1, 5, 7, 8, 9, 32, 33, 63, 64, 65, 100, 131].into_iter();
            inner.flat_map(move |k| widths.map(|n| (m, k, n)))
        });
        for (case, dims @ (m, k, n)) in grid.enumerate() {
            let non_finite = case % 2 == 1;
            let mut a = values(&mut rng, m * k, non_finite);
            // A batch row with no activation and an activation no row has,
            // where they leave the product something to compute.
            let dead = (m > 1 && k > 1).then(|| rng.gen_range(0..m));
            if let Some(row) = dead {
                a[row * k..][..k].fill(0.0);
                let col = rng.gen_range(0..k);
                a.iter_mut().skip(col).step_by(k).for_each(|v| *v = 0.0);
            }
            // `[k, n]` for the forward product, `[n, k]` for `matmul_t`.
            let w = values(&mut rng, k * n, non_finite);
            let dy = values(&mut rng, m * n, non_finite);

            let (mut base, mut fast) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
            matmul_kernel(&a, &w, &mut base, dims);
            // SAFETY: the host has AVX2, checked at the top.
            unsafe { avx2::matmul_kernel(&a, &w, &mut fast, dims) };
            check("matmul", dims, &base, &fast);
            if let Some(row) = dead {
                assert!(base[row * n..][..n].iter().all(|v| v.to_bits() == 0));
            }

            let (mut base, mut fast) = (vec![f32::NAN; k * n], vec![f32::NAN; k * n]);
            t_matmul_kernel(&a, &dy, &mut base, dims);
            // SAFETY: as above.
            unsafe { avx2::t_matmul_kernel(&a, &dy, &mut fast, dims) };
            check("t_matmul", dims, &base, &fast);

            let start: f32 = std::iter::empty::<f32>().sum();
            let (mut base, mut fast) = (vec![start; m * n], vec![start; m * n]);
            matmul_t_kernel(&a, &w, &mut base, dims, transpose_tile);
            // SAFETY: as above.
            unsafe { avx2::matmul_t_kernel(&a, &w, &mut fast, dims) };
            check("matmul_t", dims, &base, &fast);
        }
    }

    /// The two tile transposes against each other and against their
    /// definition, on tiles cut at several offsets and row strides out of
    /// random bit patterns, a quarter of them NaNs with random sign and
    /// payload (signalling ones among them). A transpose only moves bits,
    /// so the comparison is `to_bits`, NaNs included.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_transpose_moves_the_same_bits() {
        if !has_avx2() {
            println!("skipped: this host has no AVX2, so the portable transpose is the only one");
            return;
        }
        let mut rng = StdRng::seed_from_u64(45);
        let bits = |tile: &Tile| tile.map(|col| col.map(f32::to_bits));
        for stride in [8, 9, 15, 16, 64, 131, 512] {
            let w: Vec<f32> = (0..(TILE + 3) * stride)
                .map(|_| match rng.next_u32() {
                    // All-ones exponent, nonzero mantissa: a NaN.
                    bits if bits % 4 == 0 => f32::from_bits(bits | 0x7f80_0001),
                    bits => f32::from_bits(bits),
                })
                .collect();
            for offset in [0, 1, 3, stride - 1, 2 * stride + 5] {
                let w = &w[offset..];
                let want: Tile =
                    std::array::from_fn(|c| std::array::from_fn(|r| w[r * stride + c]));
                let portable = transpose_tile(w, stride);
                // SAFETY: the host has AVX2, checked at the top.
                let fast = unsafe { avx2::transpose_tile(w, stride) };
                assert_eq!(
                    bits(&portable),
                    bits(&want),
                    "portable, stride {stride} at {offset}"
                );
                assert_eq!(
                    bits(&fast),
                    bits(&want),
                    "avx2, stride {stride} at {offset}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        let _ = a.matmul(&b);
    }
}
