//! Dense row-major `f32` matrices.
//!
//! This is the numeric workhorse of the workspace: node feature tables,
//! layer weights, gradients and intermediate activations are all `Matrix`
//! values. The representation is a flat 64-byte-aligned [`Buf`] in row-major
//! order, which keeps row gathers/scatters (the hot operations in message
//! passing) cache friendly.

use rand::Rng;

use crate::buf::Buf;
use crate::kernel;
use crate::parallel;

/// Elements per chunk for parallel elementwise loops. Chunk boundaries are
/// fixed by this constant (never by worker count), so results are identical
/// for any thread count; inputs smaller than one chunk stay sequential.
/// Halved from the scoped-spawn era's `1 << 14`: a persistent-pool dispatch
/// costs ~1µs instead of ~10µs per helper, so an 8k-element map (~a few µs
/// of work) now amortizes fanning out. Every use is elementwise or pure row
/// copy, so the value never touches a reduction order — bitwise-safe to
/// tune. (Reduction grains [`REDUCE_CHUNK`]/[`COL_ROW_CHUNK`] below fix the
/// combine tree itself and deliberately stay untouched.)
const ELEM_CHUNK: usize = 1 << 13;

/// Elements per partial in parallel reductions. Partials are combined in
/// chunk order, fixing the reduction tree independent of worker count.
const REDUCE_CHUNK: usize = 4096;

/// Rows per partial in column-wise reductions.
const COL_ROW_CHUNK: usize = 128;

/// Sum of `f(x)` over a slice with a fixed chunked reduction order.
fn par_reduce_sum(data: &[f32], f: impl Fn(f32) -> f32 + Sync) -> f32 {
    if data.len() <= REDUCE_CHUNK {
        return data.iter().map(|&x| f(x)).sum();
    }
    let chunks: Vec<&[f32]> = data.chunks(REDUCE_CHUNK).collect();
    let partials = parallel::par_map(&chunks, |_, chunk| chunk.iter().map(|&x| f(x)).sum::<f32>());
    partials.into_iter().sum()
}

/// A dense row-major matrix of `f32`.
///
/// ```
/// use gnn4tdl_tensor::Matrix;
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b).data(), a.data());
/// assert_eq!(a.transpose().get(0, 1), 3.0);
/// ```
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Buf,
}

impl Clone for Matrix {
    /// Copies into a fresh aligned buffer, whatever storage `self` has.
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: Buf::copied(&self.data) }
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: Buf::zeroed(rows * cols) }
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "shape {}x{} needs {} elements, got {}",
            rows,
            cols,
            rows * cols,
            data.len()
        );
        Self { rows, cols, data: Buf::from_vec(data) }
    }

    /// Creates a matrix from nested rows (convenient in tests).
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data: Buf::from_vec(data) }
    }

    /// A 1xN row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self { rows: 1, cols: values.len(), data: Buf::copied(values) }
    }

    /// An Nx1 column vector.
    pub fn col_vector(values: &[f32]) -> Self {
        Self { rows: values.len(), cols: 1, data: Buf::copied(values) }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Samples every entry i.i.d. uniform in `[lo, hi)`.
    pub fn uniform<R: Rng>(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut R) -> Self {
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Self { rows, cols, data: Buf::from_vec(data) }
    }

    /// Samples every entry i.i.d. from a normal distribution via Box-Muller.
    pub fn randn<R: Rng>(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut R) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Self { rows, cols, data: Buf::from_vec(data) }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Extracts the storage as a plain `Vec` (copies when the storage is an
    /// aligned allocation; cold paths only).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        let (rows, cols) = (self.rows, self.cols);
        let src = &self.data;
        // Output rows per block, sized so a block is ~[`ELEM_CHUNK`]
        // element copies — a pure transposition scatter, so the block size
        // (like every elementwise grain) is bitwise-safe to tune with the
        // dispatch cost.
        let block = ELEM_CHUNK.div_ceil(rows.max(1)).max(1);
        parallel::par_chunks_mut(&mut out.data, block * rows, |blk, chunk| {
            for (local, out_row) in chunk.chunks_mut(rows).enumerate() {
                let c = blk * block + local;
                for (r, o) in out_row.iter_mut().enumerate() {
                    *o = src[r * cols + c];
                }
            }
        });
        out
    }

    /// Dense matrix multiply `self * other`, through the packed register-
    /// tiled micro-kernel in [`crate::kernel`]. Bitwise equal to the scalar
    /// (i, k, j) saxpy loop at any thread count and for every kernel
    /// implementation.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Accumulates `self * other` into `out` (`out += self * other`; `out`
    /// must be `self.rows x other.cols`, typically freshly zeroed). The
    /// tape's backward pass uses it to fill both `MatMul` gradients under
    /// `par_join` into outputs it allocated on the coordinating thread.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul output shape mismatch");
        // Unconditional multiply-accumulate: the old `a == 0.0` skip
        // mispredicted on dense data and, because adding `±0·b` to a running
        // sum never changes it for finite `b` (round-to-nearest addition
        // keeps the accumulator's sign class), removing it is bitwise
        // identical on finite inputs. Non-finite `b` under a zero `a` now
        // propagates NaN, the IEEE-correct result.
        kernel::gemm_into(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
            kernel::Epilogue::None,
        );
    }

    /// Fused dense layer `relu(self * other + bias)` (`bias` has
    /// `other.cols` entries, broadcast over rows). The bias-add and clamp
    /// run as the GEMM epilogue on each output tile's final k-block —
    /// bitwise identical to `matmul` followed by a separate bias/relu pass,
    /// without re-streaming the output.
    ///
    /// # Panics
    /// Panics on inner-dimension or bias-width mismatch.
    pub fn matmul_bias_relu(&self, other: &Matrix, bias: &[f32]) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(bias.len(), other.cols, "bias width mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernel::gemm_into(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
            kernel::Epilogue::BiasRelu(bias),
        );
        out
    }

    /// Elementwise binary map; shapes must match.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "elementwise shape mismatch");
        let mut data = Buf::zeroed(self.data.len());
        for ((o, &a), &b) in data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise unary map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut data = Buf::zeroed(self.data.len());
        for (o, &a) in data.iter_mut().zip(&self.data) {
            *o = f(a);
        }
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Parallel elementwise binary op (the closure must be `Sync`, unlike
    /// [`Self::zip_map`] which stays sequential for arbitrary closures).
    fn par_zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "elementwise shape mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        let (a, b) = (&self.data, &other.data);
        parallel::par_chunks_mut(&mut out.data, ELEM_CHUNK, |i, chunk| {
            let off = i * ELEM_CHUNK;
            for (k, o) in chunk.iter_mut().enumerate() {
                *o = f(a[off + k], b[off + k]);
            }
        });
        out
    }

    pub fn add(&self, other: &Matrix) -> Matrix {
        self.par_zip(other, |a, b| a + b)
    }

    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.par_zip(other, |a, b| a - b)
    }

    pub fn mul(&self, other: &Matrix) -> Matrix {
        self.par_zip(other, |a, b| a * b)
    }

    pub fn scale(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        parallel::par_chunks_mut(&mut out.data, ELEM_CHUNK, |_, chunk| {
            for o in chunk.iter_mut() {
                *o *= s;
            }
        });
        out
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        let b = &other.data;
        parallel::par_chunks_mut(&mut self.data, ELEM_CHUNK, |i, chunk| {
            let off = i * ELEM_CHUNK;
            for (k, a) in chunk.iter_mut().enumerate() {
                *a += alpha * b[off + k];
            }
        });
    }

    /// Sum of all elements (fixed chunked reduction order; see
    /// `REDUCE_CHUNK`).
    pub fn sum(&self) -> f32 {
        par_reduce_sum(&self.data, |x| x)
    }

    /// Mean of all elements (0 for empty matrices).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm (fixed chunked reduction order).
    pub fn frobenius_norm(&self) -> f32 {
        par_reduce_sum(&self.data, |x| x * x).sqrt()
    }

    /// Per-column partial sums of `f(row)` over fixed row blocks, combined
    /// in block order — the shared kernel behind the column reductions.
    fn col_reduce(&self, f: impl Fn(&[f32], &mut [f32]) + Sync) -> Vec<f32> {
        let ranges: Vec<(usize, usize)> = (0..self.rows)
            .step_by(COL_ROW_CHUNK)
            .map(|r0| (r0, (r0 + COL_ROW_CHUNK).min(self.rows)))
            .collect();
        let partials = parallel::par_map(&ranges, |_, &(r0, r1)| {
            let mut acc = vec![0.0f32; self.cols];
            for r in r0..r1 {
                f(self.row(r), &mut acc);
            }
            acc
        });
        let mut total = vec![0.0f32; self.cols];
        for partial in partials {
            for (t, p) in total.iter_mut().zip(partial) {
                *t += p;
            }
        }
        total
    }

    /// Per-column mean as a 1xC matrix.
    pub fn col_means(&self) -> Matrix {
        let mut sums = self.col_reduce(|row, acc| {
            for (o, &v) in acc.iter_mut().zip(row) {
                *o += v;
            }
        });
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f32;
            for o in &mut sums {
                *o *= inv;
            }
        }
        Matrix { rows: 1, cols: self.cols, data: Buf::from_vec(sums) }
    }

    /// Per-column (population) standard deviation as a 1xC matrix.
    pub fn col_stds(&self) -> Matrix {
        let means = self.col_means();
        let mut sq = self.col_reduce(|row, acc| {
            for ((o, &v), &m) in acc.iter_mut().zip(row).zip(&means.data) {
                let d = v - m;
                *o += d * d;
            }
        });
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f32;
            for o in &mut sq {
                *o = (*o * inv).sqrt();
            }
        }
        Matrix { rows: 1, cols: self.cols, data: Buf::from_vec(sq) }
    }

    /// Index of the maximum value in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Gathers rows by index into a new matrix (rows may repeat).
    ///
    /// Parallel over fixed element-count chunks of the output, so
    /// the copy is bitwise identical at any thread count. This is the
    /// row-gather kernel behind minibatch feature blocks and split slicing.
    pub fn gather_rows(&self, index: &[usize]) -> Matrix {
        let cols = self.cols;
        let mut out = Matrix::zeros(index.len(), cols);
        if cols > 0 && !index.is_empty() {
            let rows_per = (ELEM_CHUNK / cols).max(1);
            parallel::par_chunks_mut(out.data_mut(), rows_per * cols, |blk, chunk| {
                for (local, dst) in chunk.chunks_mut(cols).enumerate() {
                    dst.copy_from_slice(self.row(index[blk * rows_per + local]));
                }
            });
        }
        crate::obs::GATHER_ROWS.add(index.len() as u64);
        out
    }

    /// Horizontally concatenates `self` and `other` (same row count).
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertically concatenates `self` and `other` (same column count).
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat col mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data: Buf::from_vec(data) }
    }

    /// Euclidean distance between two rows of (possibly different) matrices.
    pub fn row_distance(a: &Matrix, i: usize, b: &Matrix, j: usize) -> f32 {
        debug_assert_eq!(a.cols, b.cols);
        a.row(i).iter().zip(b.row(j)).map(|(&x, &y)| (x - y) * (x - y)).sum::<f32>().sqrt()
    }

    /// True if all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Max absolute difference against another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data.iter().zip(&other.data).map(|(&a, &b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::randn(4, 4, 0.0, 1.0, &mut rng);
        let i = Matrix::identity(4);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-6);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::randn(3, 5, 0.0, 1.0, &mut rng);
        assert!(a.transpose().transpose().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).data(), &[-2.0, -2.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.col_means().data(), &[2.0, 3.0]);
        let stds = a.col_stds();
        assert!((stds.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let a = Matrix::from_rows(&[vec![0.1, 0.9, 0.5], vec![2.0, -1.0, 0.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn gather_and_concat() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
        let h = a.hcat(&a);
        assert_eq!(h.shape(), (3, 4));
        assert_eq!(h.row(1), &[3.0, 4.0, 3.0, 4.0]);
        let v = a.vcat(&a);
        assert_eq!(v.shape(), (6, 2));
        assert_eq!(v.row(4), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "hcat row mismatch")]
    fn hcat_rejects_mismatched_rows() {
        Matrix::zeros(2, 1).hcat(&Matrix::zeros(3, 1));
    }

    #[test]
    #[should_panic(expected = "vcat col mismatch")]
    fn vcat_rejects_mismatched_cols() {
        Matrix::zeros(1, 2).vcat(&Matrix::zeros(1, 3));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Matrix::uniform(50, 4, -0.5, 0.25, &mut rng);
        assert!(m.data().iter().all(|&x| (-0.5..0.25).contains(&x)));
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::randn(200, 50, 1.0, 2.0, &mut rng);
        assert!((m.mean() - 1.0).abs() < 0.1);
        let var: f32 = m.data().iter().map(|&x| (x - m.mean()).powi(2)).sum::<f32>() / m.len() as f32;
        assert!((var.sqrt() - 2.0).abs() < 0.2);
    }

    #[test]
    fn row_distance_matches_manual() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
        assert!((Matrix::row_distance(&a, 0, &a, 1) - 5.0).abs() < 1e-6);
    }
}
