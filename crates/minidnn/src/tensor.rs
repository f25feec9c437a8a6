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
            unsafe { avx2::matmul_kernel(&self.data, rhs, &mut out.data, m, k, n) };
            return out;
        }
        matmul_kernel(&self.data, rhs, &mut out.data, m, k, n);
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
    /// buffer computes, without the zeroing sweep and without a pass over
    /// the output row per batch row: a block of columns accumulates over
    /// the batch in registers and is written once.
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
            unsafe { avx2::t_matmul_kernel(&self.data, &other.data, out, m, k, n) };
            return;
        }
        t_matmul_kernel(&self.data, &other.data, out, m, k, n);
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
    /// it, so the kernel runs `LANES` of them — output columns — side by
    /// side over a transposed panel of `rhs` (DESIGN.md §4.3).
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
        // is carried from k-block to k-block through `out`.
        let start: f32 = std::iter::empty::<f32>().sum();
        let mut out = Tensor::from_vec(&[m, n], vec![start; m * n]);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: the host has AVX2, checked just above.
            unsafe { avx2::matmul_t_kernel(&self.data, rhs, &mut out.data, m, k, n) };
            return out;
        }
        matmul_t_kernel(&self.data, rhs, &mut out.data, m, k, n);
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

/// Output columns [`Tensor::matmul_t_slice`] runs side by side, one
/// strictly ordered sum per lane.
const LANES: usize = 16;
/// Depth of the transposed weight panel: `K_BLOCK × LANES` floats, 4 KiB of
/// stack, packed once per k-block and read by every batch row.
const K_BLOCK: usize = 64;
/// Output columns [`Tensor::t_matmul_into`] accumulates in registers.
const T_BLOCK: usize = 32;
/// Batch rows it gathers per pass; a longer batch carries through `out`.
const ROW_BLOCK: usize = 32;

// The three kernels below are each one source compiled twice: called
// directly they run on the baseline instruction stream (SSE2 on x86-64),
// and through `avx2`'s wrappers, which the methods above pick per call when
// the host has AVX2, on 256-bit vectors. The products stay `a * b` then `+`
// (Rust never contracts them into a fused multiply-add), so both streams
// compute every output element's chain with the same operations in the
// same order and agree bit for bit (DESIGN.md §4.3). `#[inline(always)]`
// is what puts a body, helpers included, into the wrapper's stream.

/// `out = a @ rhs` for row-major `a: [m, k]` and `rhs: [k, n]`, `out`
/// zeroed: every element accumulates `a[i][kk]·rhs[kk][j]` over the `kk`
/// with `a[i][kk] ≠ 0`, ascending.
#[inline(always)]
fn matmul_kernel(a: &[f32], rhs: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    // i-k-j loop order for cache-friendly row-major access.
    for i in 0..m {
        for kk in 0..k {
            let a = a[i * k + kk];
            if a == 0.0 {
                continue;
            }
            let row = &rhs[kk * n..(kk + 1) * n];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, b) in out_row.iter_mut().zip(row) {
                *o += a * b;
            }
        }
    }
}

/// [`Tensor::t_matmul_into`]'s body: `out = xᵀ @ dy` for `x: [m, k]` and
/// `dy: [m, n]`, whatever `out` held.
#[inline(always)]
fn t_matmul_kernel(x: &[f32], dy: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let n_blocks = n - n % T_BLOCK;
    // The rows of one row block that contribute to gradient row `kk`:
    // (activation, offset of the row in `dy`). Gathered once per `kk`,
    // so the column blocks below run without a data-dependent branch.
    let mut live = [(0.0f32, 0usize); ROW_BLOCK];
    for (kk, out_row) in out.chunks_exact_mut(n).enumerate() {
        // `max(1)`: an empty batch still writes its zeros.
        for i0 in (0..m.max(1)).step_by(ROW_BLOCK) {
            let mut count = 0;
            for i in i0..m.min(i0 + ROW_BLOCK) {
                let a = x[i * k + kk];
                live[count] = (a, i * n);
                count += usize::from(a != 0.0);
            }
            let live = &live[..count];
            // A chain starts from `0.0` (a `-0.0` first product comes
            // out `+0.0`, an untouched element stays `0.0`), runs in
            // registers and is stored once; only a batch longer than a
            // row block picks it up from `out` again.
            for (block, j0) in out_row
                .chunks_exact_mut(T_BLOCK)
                .zip((0..).step_by(T_BLOCK))
            {
                let mut acc = [0.0f32; T_BLOCK];
                if i0 > 0 {
                    acc.copy_from_slice(block);
                }
                for &(a, at) in live {
                    for (s, b) in acc.iter_mut().zip(&dy[at + j0..][..T_BLOCK]) {
                        *s += a * b;
                    }
                }
                block.copy_from_slice(&acc);
            }
            // The `n % T_BLOCK` last columns, accumulated in place.
            let tail = &mut out_row[n_blocks..];
            if i0 == 0 {
                tail.fill(0.0);
            }
            for &(a, at) in live {
                for (o, b) in tail.iter_mut().zip(&dy[at + n_blocks..at + n]) {
                    *o += a * b;
                }
            }
        }
    }
}

/// [`Tensor::matmul_t_slice`]'s body: `out = a @ rhsᵀ` for `a: [m, k]`
/// and `rhs: [n, k]`, `out` filled with the chains' start value.
#[inline(always)]
fn matmul_t_kernel(a: &[f32], rhs: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut panel = [[0.0f32; LANES]; K_BLOCK];
    let n_lanes = n - n % LANES;
    for j0 in (0..n_lanes).step_by(LANES) {
        for k0 in (0..k).step_by(K_BLOCK) {
            let panel = &mut panel[..K_BLOCK.min(k - k0)];
            pack_panel(panel, &rhs[j0 * k + k0..], k);
            for i in (0..m).step_by(2) {
                let a = &a[i * k + k0..];
                let out = &mut out[i * n + j0..];
                if i + 1 < m {
                    advance_chains::<2>(panel, a, k, out, n);
                } else {
                    advance_chains::<1>(panel, a, k, out, n);
                }
            }
        }
    }
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (j, o) in out_row.iter_mut().enumerate().skip(n_lanes) {
            let b_row = &rhs[j * k..(j + 1) * k];
            *o = a_row.iter().zip(b_row).map(|(a, b)| a * b).sum();
        }
    }
}

/// `panel[kk][lane] = w[lane * k + kk]`: `LANES` rows of a row-major matrix
/// of row length `k`, transposed so that one k step of all lanes is one
/// contiguous row. Moved as 4×4 tiles, which compile to shuffles: an
/// element at a time, the pack costs more than the arithmetic at batch 2.
#[inline(always)]
fn pack_panel(panel: &mut [[f32; LANES]], w: &[f32], k: usize) {
    let depth = panel.len();
    for l0 in (0..LANES).step_by(4) {
        let rows: [&[f32]; 4] = std::array::from_fn(|r| &w[(l0 + r) * k..][..depth]);
        let mut tiles = panel.chunks_exact_mut(4);
        for (t, tile) in tiles.by_ref().enumerate() {
            let src: [[f32; 4]; 4] =
                std::array::from_fn(|r| std::array::from_fn(|c| rows[r][4 * t + c]));
            for (c, p) in tile.iter_mut().enumerate() {
                p[l0..l0 + 4].copy_from_slice(&[src[0][c], src[1][c], src[2][c], src[3][c]]);
            }
        }
        for (p, kk) in tiles.into_remainder().iter_mut().zip(depth - depth % 4..) {
            for (r, row) in rows.iter().enumerate() {
                p[l0 + r] = row[kk];
            }
        }
    }
}

/// Advances the `LANES` chains of `R` consecutive batch rows by one k-block:
/// `out[r * n + lane] += a[r * k + kk] · panel[kk][lane]`, `kk` ascending —
/// per element the order of the scalar dot product, with the lanes
/// independent so the adds vectorise.
#[inline(always)]
fn advance_chains<const R: usize>(
    panel: &[[f32; LANES]],
    a: &[f32],
    k: usize,
    out: &mut [f32],
    n: usize,
) {
    let a: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..][..panel.len()]);
    let mut acc = [[0.0f32; LANES]; R];
    for (r, acc) in acc.iter_mut().enumerate() {
        acc.copy_from_slice(&out[r * n..][..LANES]);
    }
    for (kk, p) in panel.iter().enumerate() {
        for (acc, a) in acc.iter_mut().zip(a) {
            for (s, w) in acc.iter_mut().zip(p) {
                *s += a[kk] * w;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        out[r * n..][..LANES].copy_from_slice(acc);
    }
}

/// Whether the kernels run on their AVX2 stream. std caches the answer:
/// after the first call this is a load and a test.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// The kernels compiled for AVX2. Calling one is `unsafe`: the host must
/// have AVX2 ([`has_avx2`]). They touch memory only through the slices
/// they are given.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    macro_rules! avx2_stream {
        ($($kernel:ident),*) => {$(
            #[target_feature(enable = "avx2")]
            pub(super) fn $kernel(
                a: &[f32],
                b: &[f32],
                out: &mut [f32],
                m: usize,
                k: usize,
                n: usize,
            ) {
                super::$kernel(a, b, out, m, k, n);
            }
        )*};
    }

    avx2_stream!(matmul_kernel, t_matmul_kernel, matmul_t_kernel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let check = |kernel: &str, (m, k, n): (usize, usize, usize), base: &[f32], fast: &[f32]| {
            for (at, (b, f)) in base.iter().zip(fast).enumerate() {
                assert!(
                    b.to_bits() == f.to_bits() || (b.is_nan() && f.is_nan()),
                    "{kernel} m={m} k={k} n={n} element {at}: baseline {b:e}, avx2 {f:e}"
                );
            }
        };
        let mut rng = StdRng::seed_from_u64(38);
        let grid = [1, 2, 3, 8, 32, 33, 70].into_iter().flat_map(|m| {
            [1, 5, 63, 65, 100, 131]
                .into_iter()
                .flat_map(move |k| [1, 15, 16, 17, 31, 33, 80, 512].map(|n| (m, k, n)))
        });
        for (case, dims @ (m, k, n)) in grid.enumerate() {
            let non_finite = case % 2 == 1;
            let a = values(&mut rng, m * k, non_finite);
            // `[k, n]` for the forward product, `[n, k]` for `matmul_t`.
            let w = values(&mut rng, k * n, non_finite);
            let dy = values(&mut rng, m * n, non_finite);

            let (mut base, mut fast) = (vec![0.0; m * n], vec![0.0; m * n]);
            matmul_kernel(&a, &w, &mut base, m, k, n);
            // SAFETY: the host has AVX2, checked at the top.
            unsafe { avx2::matmul_kernel(&a, &w, &mut fast, m, k, n) };
            check("matmul", dims, &base, &fast);

            let (mut base, mut fast) = (vec![f32::NAN; k * n], vec![f32::NAN; k * n]);
            t_matmul_kernel(&a, &dy, &mut base, m, k, n);
            // SAFETY: as above.
            unsafe { avx2::t_matmul_kernel(&a, &dy, &mut fast, m, k, n) };
            check("t_matmul", dims, &base, &fast);

            let start: f32 = std::iter::empty::<f32>().sum();
            let (mut base, mut fast) = (vec![start; m * n], vec![start; m * n]);
            matmul_t_kernel(&a, &w, &mut base, m, k, n);
            // SAFETY: as above.
            unsafe { avx2::matmul_t_kernel(&a, &w, &mut fast, m, k, n) };
            check("matmul_t", dims, &base, &fast);
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
