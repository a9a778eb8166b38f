//! Compressed sparse row (CSR) matrices for graph message passing.
//!
//! GNN aggregation is `A * H` where `A` is a (normalized) adjacency matrix and
//! `H` is a dense feature matrix. Adjacencies from tabular graphs are sparse,
//! so SpMM with a CSR layout is the hot path of the whole workspace.

use crate::buf::Buf;
use crate::error::GnnError;
use crate::kernel;
use crate::matrix::Matrix;
use crate::parallel;

/// Input rows per block in the parallel transpose. Fixed (never derived from
/// the worker count) so entry placement is identical for any thread count.
const TRANSPOSE_ROW_BLOCK: usize = 2048;

/// Selected rows per block in the parallel induced-subgraph extraction.
/// Fixed (never derived from the worker count) so entry placement is
/// identical for any thread count.
const SUBGRAPH_ROW_BLOCK: usize = 2048;

/// Element budget of one sparse-product output block: `spmv` takes this many
/// output rows per chunk, `spmm` divides it by the dense width. Sized from
/// the shapes only, never from the worker count, so per-row reduction orders
/// are thread-invariant. Halved from the scoped-spawn era's `1 << 12` now
/// that a persistent-pool dispatch costs ~1µs rather than ~10µs per helper:
/// mid-sized minibatch blocks (a few thousand output elements) fan out
/// where they used to run sequentially. Blocks are whole output rows and
/// each row sums its non-zeros in CSR order regardless of blocking, so the
/// value is bitwise-safe to tune.
const SPARSE_PRODUCT_BLOCK: usize = 1 << 11;

/// Raw pointer wrapper for scatters whose write positions are provably
/// disjoint across workers (see [`CsrMatrix::transpose`]).
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// A CSR sparse matrix of `f32`.
///
/// Invariants: `indptr.len() == rows + 1`, `indptr` is non-decreasing,
/// `indices.len() == values.len() == indptr[rows]`, every column index is
/// `< cols`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Buf,
}

impl CsrMatrix {
    /// Builds a CSR matrix from COO triplets. Duplicate entries are summed.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds for {rows}x{cols}");
        }
        // Counting sort by row.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let indptr_tmp = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0usize; triplets.len()];
        let mut values = vec![0f32; triplets.len()];
        for &(r, c, v) in triplets {
            let pos = cursor[r];
            indices[pos] = c;
            values[pos] = v;
            cursor[r] += 1;
        }
        // Sort within each row and merge duplicates.
        let mut out_indptr = vec![0usize; rows + 1];
        let mut out_indices = Vec::with_capacity(indices.len());
        let mut out_values = Vec::with_capacity(values.len());
        let mut scratch: Vec<(usize, f32)> = Vec::new();
        for r in 0..rows {
            let (start, end) = (indptr_tmp[r], indptr_tmp[r + 1]);
            scratch.clear();
            scratch.extend(indices[start..end].iter().copied().zip(values[start..end].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut last_col = usize::MAX;
            for &(c, v) in &scratch {
                if c == last_col {
                    *out_values.last_mut().expect("dup after first") += v;
                } else {
                    out_indices.push(c);
                    out_values.push(v);
                    last_col = c;
                }
            }
            out_indptr[r + 1] = out_indices.len();
        }
        Self::from_parts_unchecked(rows, cols, out_indptr, out_indices, out_values)
    }

    /// Builds directly from CSR components (validated).
    ///
    /// # Panics
    /// Panics when the buffers violate a CSR invariant; see
    /// [`CsrMatrix::try_from_parts`] for the fallible variant.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f32>,
    ) -> Self {
        Self::try_from_parts(rows, cols, indptr, indices, values).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds from CSR components, returning [`GnnError::InvalidGraph`] when
    /// the buffers violate a structural invariant: `indptr` must have
    /// `rows + 1` non-decreasing entries terminating at `indices.len()`,
    /// `indices` and `values` must agree in length, and every column index
    /// must be `< cols`.
    pub fn try_from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, GnnError> {
        let fail = |detail: String| Err(GnnError::InvalidGraph { detail });
        if indptr.len() != rows + 1 {
            return fail(format!("indptr length {} != rows + 1 = {}", indptr.len(), rows + 1));
        }
        if indices.len() != values.len() {
            return fail(format!("indices/values length mismatch: {} vs {}", indices.len(), values.len()));
        }
        let terminal = *indptr.last().unwrap_or(&0);
        if terminal != indices.len() {
            return fail(format!("indptr terminal {terminal} != nnz {}", indices.len()));
        }
        if let Some(w) = indptr.windows(2).position(|w| w[0] > w[1]) {
            return fail(format!("indptr must be non-decreasing (violated at row {w})"));
        }
        if let Some(k) = indices.iter().position(|&c| c >= cols) {
            return fail(format!("column index {} out of bounds for {cols} columns (entry {k})", indices[k]));
        }
        Ok(Self { rows, cols, indptr, indices, values: Buf::from_vec(values) }.account())
    }

    /// Builds from CSR components without validating the invariants
    /// (debug builds still assert them). For internal hot paths that
    /// construct the buffers themselves; external data must go through
    /// [`CsrMatrix::try_from_parts`].
    pub fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f32>,
    ) -> Self {
        Self::from_parts_buf(rows, cols, indptr, indices, Buf::from_vec(values))
    }

    /// [`Self::from_parts_unchecked`] over an already-owned [`Buf`], so
    /// internal builders can keep aligned value storage without a copy.
    fn from_parts_buf(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Buf,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1, "indptr length");
        debug_assert_eq!(indices.len(), values.len(), "indices/values length");
        debug_assert_eq!(*indptr.last().unwrap_or(&0), indices.len(), "indptr terminal");
        debug_assert!(indptr.windows(2).all(|w| w[0] <= w[1]), "indptr must be non-decreasing");
        debug_assert!(indices.iter().all(|&c| c < cols), "column index out of bounds");
        Self { rows, cols, indptr, indices, values }.account()
    }

    /// Bytes held by the three CSR buffers (`indptr`, `indices`, `values`).
    pub fn heap_bytes(&self) -> usize {
        (self.indptr.len() + self.indices.len()) * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f32>()
    }

    /// Credits this freshly built matrix to the observability ledger.
    fn account(self) -> Self {
        crate::obs::CSR_ALLOCS.add(1);
        crate::obs::CSR_BYTES.add(self.heap_bytes() as u64);
        self
    }

    /// An empty matrix with no stored entries.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self { rows, cols, indptr: vec![0; rows + 1], indices: Vec::new(), values: Buf::default() }
    }

    /// The identity as CSR.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: Buf::from_vec(vec![1.0; n]),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    pub fn values(&self) -> &[f32] {
        &self.values
    }

    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Iterates over the `(col, value)` pairs of row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (start, end) = (self.indptr[r], self.indptr[r + 1]);
        self.indices[start..end].iter().copied().zip(self.values[start..end].iter().copied())
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Column indices of the stored entries in row `r` — for an adjacency
    /// matrix, the out-neighbors of node `r`.
    pub fn neighbors(&self, r: usize) -> &[usize] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Stored values of row `r`, aligned with [`CsrMatrix::neighbors`].
    pub fn row_values(&self, r: usize) -> &[f32] {
        &self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Extracts the subgraph induced by `nodes`: a `k×k` CSR (`k =
    /// nodes.len()`) whose entry `(i, j)` is present iff
    /// `(nodes[i], nodes[j])` is stored in `self`. Returns the subgraph and
    /// the local→global row map (a copy of `nodes`).
    ///
    /// Two passes over fixed `SUBGRAPH_ROW_BLOCK`-row blocks: a parallel
    /// count of surviving entries per selected row, a sequential prefix sum
    /// into the new `indptr`, then a parallel scatter where each row writes
    /// exactly its own `[indptr[i], indptr[i+1])` range. Block boundaries
    /// depend only on `k`, and entries keep their original relative order
    /// within each row, so the result is bitwise identical at any thread
    /// count.
    ///
    /// # Panics
    /// Panics when `self` is not square or a node index is out of bounds;
    /// debug builds additionally assert `nodes` is duplicate-free.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> (CsrMatrix, Vec<usize>) {
        assert_eq!(self.rows, self.cols, "induced_subgraph requires a square matrix");
        let k = nodes.len();
        let mut local_of = vec![usize::MAX; self.cols];
        for (local, &g) in nodes.iter().enumerate() {
            assert!(g < self.rows, "node {g} out of bounds for {} rows", self.rows);
            debug_assert_eq!(local_of[g], usize::MAX, "duplicate node {g} in induced_subgraph");
            local_of[g] = local;
        }
        let nblocks = k.div_ceil(SUBGRAPH_ROW_BLOCK).max(1);
        let blocks: Vec<usize> = (0..nblocks).collect();
        let block_rows = |b: usize| {
            let r0 = b * SUBGRAPH_ROW_BLOCK;
            (r0, (r0 + SUBGRAPH_ROW_BLOCK).min(k))
        };
        let counts = parallel::par_map(&blocks, |_, &b| {
            let (r0, r1) = block_rows(b);
            nodes[r0..r1]
                .iter()
                .map(|&g| self.neighbors(g).iter().filter(|&&c| local_of[c] != usize::MAX).count())
                .collect::<Vec<usize>>()
        });
        let mut indptr = vec![0usize; k + 1];
        let mut at = 0usize;
        for block in &counts {
            for &n in block {
                indptr[at + 1] = indptr[at] + n;
                at += 1;
            }
        }
        let nnz = indptr[k];
        let mut indices = vec![0usize; nnz];
        let mut values = Buf::zeroed(nnz);
        let idx_ptr = SendPtr(indices.as_mut_ptr());
        let val_ptr = SendPtr(values.as_mut_ptr());
        let indptr_ref = &indptr;
        let local_ref = &local_of;
        parallel::par_map(&blocks, |_, &b| {
            // Capture the Send+Sync wrappers, not their raw-pointer fields.
            let (idx_ptr, val_ptr) = (&idx_ptr, &val_ptr);
            let (r0, r1) = block_rows(b);
            for (local, &g) in nodes[r0..r1].iter().enumerate() {
                let mut pos = indptr_ref[r0 + local];
                for (c, v) in self.row_iter(g) {
                    let lc = local_ref[c];
                    if lc != usize::MAX {
                        // SAFETY: output row `r0 + local` writes only
                        // [indptr[r0+local], indptr[r0+local+1]); these
                        // ranges partition [0, nnz) across rows, so no two
                        // workers ever touch the same position.
                        unsafe {
                            *idx_ptr.0.add(pos) = lc;
                            *val_ptr.0.add(pos) = v;
                        }
                        pos += 1;
                    }
                }
            }
        });
        crate::obs::CSR_SUBGRAPH_ROWS.add(k as u64);
        crate::obs::CSR_SUBGRAPH_NNZ.add(nnz as u64);
        (Self::from_parts_buf(k, k, indptr, indices, values), nodes.to_vec())
    }

    /// Dense sparse-dense product `self * dense`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm shape mismatch: {}x{} * {}x{}",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let d = dense.cols();
        let mut out = Matrix::zeros(self.rows, d);
        // Resolve the kernel implementation on the coordinating thread so a
        // `with_kernel` override covers the parallel region.
        let kern = kernel::select();
        // Output-row blocks sized from the shapes only; each output element
        // accumulates its row's entries in CSR order exactly as the
        // sequential scalar loop would, for every kernel implementation.
        let block_rows = SPARSE_PRODUCT_BLOCK.div_ceil(d.max(1)).clamp(1, self.rows.max(1));
        parallel::par_chunks_mut(out.data_mut(), block_rows * d, |blk, chunk| {
            for (local, out_row) in chunk.chunks_mut(d).enumerate() {
                let r = blk * block_rows + local;
                kernel::spmm_row(kern, self.neighbors(r), self.row_values(r), dense.data(), d, out_row);
            }
        });
        out
    }

    /// Sparse-vector product `self * v` for a dense vector, into an aligned
    /// buffer.
    pub fn spmv(&self, v: &[f32]) -> Buf {
        assert_eq!(self.cols, v.len(), "spmv shape mismatch");
        let mut out = Buf::zeroed(self.rows);
        parallel::par_chunks_mut(&mut out[..], SPARSE_PRODUCT_BLOCK, |blk, chunk| {
            for (local, o) in chunk.iter_mut().enumerate() {
                let r = blk * SPARSE_PRODUCT_BLOCK + local;
                *o = self.row_iter(r).map(|(c, val)| val * v[c]).sum();
            }
        });
        out
    }

    /// Transposed matrix as a new CSR.
    ///
    /// Parallel counting sort over fixed input-row blocks: per-block column
    /// histograms are prefix-combined into per-block cursors, then each
    /// block scatters its own entries. Entries within an output row land in
    /// input-row order — the exact placement of the sequential scatter —
    /// and nothing depends on the worker count.
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let nblocks = self.rows.div_ceil(TRANSPOSE_ROW_BLOCK).max(1);
        if nblocks == 1 {
            return self.transpose_sequential().account();
        }
        if parallel::current_threads() == 1 {
            // Keep the dispatch ledger thread-invariant: the parallel path
            // below would submit two per-block `par_map` passes.
            crate::obs::PAR_ITEMS.add(2 * nblocks as u64);
            return self.transpose_sequential().account();
        }
        let block_rows = |b: usize| {
            let r0 = b * TRANSPOSE_ROW_BLOCK;
            (r0, (r0 + TRANSPOSE_ROW_BLOCK).min(self.rows))
        };
        let blocks: Vec<usize> = (0..nblocks).collect();
        let hists = parallel::par_map(&blocks, |_, &b| {
            let (r0, r1) = block_rows(b);
            let mut hist = vec![0usize; self.cols];
            for k in self.indptr[r0]..self.indptr[r1] {
                hist[self.indices[k]] += 1;
            }
            hist
        });
        let mut indptr = vec![0usize; self.cols + 1];
        for hist in &hists {
            for (c, &n) in hist.iter().enumerate() {
                indptr[c + 1] += n;
            }
        }
        for c in 0..self.cols {
            indptr[c + 1] += indptr[c];
        }
        // cursors[b][c]: first output position block b writes in column c.
        let mut running = indptr[..self.cols].to_vec();
        let cursors: Vec<Vec<usize>> = hists
            .iter()
            .map(|hist| {
                let snapshot = running.clone();
                for (r, &n) in running.iter_mut().zip(hist) {
                    *r += n;
                }
                snapshot
            })
            .collect();
        let mut indices = vec![0usize; nnz];
        let mut values = vec![0f32; nnz];
        let idx_ptr = SendPtr(indices.as_mut_ptr());
        let val_ptr = SendPtr(values.as_mut_ptr());
        parallel::par_map(&blocks, |_, &b| {
            // Capture the Send+Sync wrappers, not their raw-pointer fields
            // (edition 2021 closures capture disjoint fields by default).
            let (idx_ptr, val_ptr) = (&idx_ptr, &val_ptr);
            let (r0, r1) = block_rows(b);
            let mut cursor = cursors[b].clone();
            for r in r0..r1 {
                for (c, v) in self.row_iter(r) {
                    let pos = cursor[c];
                    cursor[c] += 1;
                    // SAFETY: block b writes column c only in
                    // [cursors[b][c], cursors[b][c] + hists[b][c]); these
                    // ranges partition [0, nnz) across blocks, so no two
                    // workers ever touch the same position.
                    unsafe {
                        *idx_ptr.0.add(pos) = r;
                        *val_ptr.0.add(pos) = v;
                    }
                }
            }
        });
        CsrMatrix { rows: self.cols, cols: self.rows, indptr, indices, values: Buf::from_vec(values) }
            .account()
    }

    /// Single-threaded counting-sort transpose (also the small-input path).
    fn transpose_sequential(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                let pos = cursor[c];
                indices[pos] = r;
                values[pos] = v;
                cursor[c] += 1;
            }
        }
        CsrMatrix { rows: self.cols, cols: self.rows, indptr, indices, values: Buf::from_vec(values) }
    }

    /// Materializes as dense (tests & tiny graphs only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.set(r, c, out.get(r, c) + v);
            }
        }
        out
    }

    /// Out-degree (row sums of absolute support, i.e. stored entry count).
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_nnz(r)).collect()
    }

    /// Row sums of values.
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows).map(|r| self.row_iter(r).map(|(_, v)| v).sum()).collect()
    }

    /// Returns a copy with each row's values scaled to sum to 1 (rows with
    /// zero sum are left untouched). This is the random-walk normalization
    /// `D^-1 A` used by mean-aggregation GNNs.
    pub fn row_normalized(&self) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let (start, end) = (self.indptr[r], self.indptr[r + 1]);
            let s: f32 = self.values[start..end].iter().sum();
            if s != 0.0 {
                let inv = 1.0 / s;
                for v in &mut out.values[start..end] {
                    *v *= inv;
                }
            }
        }
        out
    }

    /// Symmetric GCN normalization `D^-1/2 (A) D^-1/2` over value row-sums.
    ///
    /// Only valid for square matrices; degrees are computed from value sums
    /// of each row (callers typically pass an adjacency with self-loops
    /// already added).
    pub fn sym_normalized(&self) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "sym_normalized requires a square matrix");
        let sums = self.row_sums();
        let inv_sqrt: Vec<f32> = sums.iter().map(|&s| if s > 0.0 { 1.0 / s.sqrt() } else { 0.0 }).collect();
        let mut out = self.clone();
        for r in 0..self.rows {
            let (start, end) = (self.indptr[r], self.indptr[r + 1]);
            for k in start..end {
                out.values[k] *= inv_sqrt[r] * inv_sqrt[self.indices[k]];
            }
        }
        out
    }

    /// Adds self-loops with the given weight, returning a new matrix. If a
    /// diagonal entry already exists, the weight is added to it.
    pub fn with_self_loops(&self, weight: f32) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "self-loops require a square matrix");
        let mut triplets: Vec<(usize, usize, f32)> = Vec::with_capacity(self.nnz() + self.rows);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                triplets.push((r, c, v));
            }
            triplets.push((r, r, weight));
        }
        CsrMatrix::from_triplets(self.rows, self.cols, &triplets)
    }

    /// The COO edge list `(row, col, value)` of stored entries.
    pub fn to_triplets(&self) -> Vec<(usize, usize, f32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.push((r, c, v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn from_triplets_layout() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.indptr(), &[0, 2, 2, 4]);
        assert_eq!(m.indices(), &[0, 2, 0, 1]);
        assert_eq!(m.values(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.values(), &[3.5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_out_of_bounds_panics() {
        CsrMatrix::from_triplets(2, 2, &[(0, 2, 1.0)]);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 0.5], vec![3.0, -1.0]]);
        let got = m.spmm(&x);
        let want = m.to_dense().matmul(&x);
        assert!(got.max_abs_diff(&want) < 1e-6);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let v = vec![1.0, -2.0, 0.5];
        let got = m.spmv(&v);
        assert_eq!(&got[..], &[2.0, 0.0, -5.0]);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        assert!(t.to_dense().max_abs_diff(&m.to_dense().transpose()) < 1e-6);
        assert_eq!(t.shape(), (3, 3));
    }

    #[test]
    fn row_normalized_sums_to_one() {
        let m = sample().row_normalized();
        let sums = m.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-6);
        assert_eq!(sums[1], 0.0); // empty row untouched
        assert!((sums[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sym_normalized_is_symmetric_for_symmetric_input() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
            .with_self_loops(1.0)
            .sym_normalized();
        let d = m.to_dense();
        assert!(d.max_abs_diff(&d.transpose()) < 1e-6);
        // Known value for path graph with self loops: entry (0,1) = 1/sqrt(2*3).
        assert!((d.get(0, 1) - 1.0 / (6.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn with_self_loops_adds_diagonal() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 1, 2.0)]).with_self_loops(1.0);
        let d = m.to_dense();
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(1, 1), 3.0);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!(CsrMatrix::identity(2).spmm(&x).max_abs_diff(&x) < 1e-9);
    }

    #[test]
    fn triplets_round_trip() {
        let m = sample();
        let again = CsrMatrix::from_triplets(3, 3, &m.to_triplets());
        assert_eq!(m, again);
    }

    #[test]
    fn try_from_parts_accepts_valid_buffers() {
        let m = CsrMatrix::try_from_parts(2, 3, vec![0, 1, 2], vec![2, 0], vec![1.0, 2.0]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m, CsrMatrix::from_parts(2, 3, vec![0, 1, 2], vec![2, 0], vec![1.0, 2.0]));
    }

    #[test]
    fn try_from_parts_rejects_each_invariant_violation() {
        let err = |r| match r {
            Err(GnnError::InvalidGraph { detail }) => detail,
            other => panic!("expected InvalidGraph, got {other:?}"),
        };
        // wrong indptr length
        let d = err(CsrMatrix::try_from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]));
        assert!(d.contains("indptr length"), "{d}");
        // indices/values disagree
        let d = err(CsrMatrix::try_from_parts(1, 2, vec![0, 1], vec![0], vec![1.0, 2.0]));
        assert!(d.contains("length mismatch"), "{d}");
        // bad terminal
        let d = err(CsrMatrix::try_from_parts(1, 2, vec![0, 2], vec![0], vec![1.0]));
        assert!(d.contains("terminal"), "{d}");
        // decreasing indptr
        let d = err(CsrMatrix::try_from_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]));
        assert!(d.contains("non-decreasing"), "{d}");
        // column out of bounds
        let d = err(CsrMatrix::try_from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]));
        assert!(d.contains("out of bounds"), "{d}");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_parts_panics_on_invalid_column() {
        CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn neighbors_and_row_values_slice_rows() {
        let m = sample();
        assert_eq!(m.neighbors(0), &[0, 2]);
        assert_eq!(m.row_values(0), &[1.0, 2.0]);
        assert_eq!(m.neighbors(1), &[] as &[usize]);
        assert_eq!(m.row_values(1), &[] as &[f32]);
        assert_eq!(m.neighbors(2), &[0, 1]);
        assert_eq!(m.row_values(2), &[3.0, 4.0]);
    }

    /// Scalar oracle: dense extraction of the induced submatrix.
    fn dense_subgraph(m: &CsrMatrix, nodes: &[usize]) -> Matrix {
        let d = m.to_dense();
        let mut out = Matrix::zeros(nodes.len(), nodes.len());
        for (i, &gi) in nodes.iter().enumerate() {
            for (j, &gj) in nodes.iter().enumerate() {
                out.set(i, j, d.get(gi, gj));
            }
        }
        out
    }

    #[test]
    fn induced_subgraph_matches_dense_oracle() {
        let m = sample();
        let nodes = vec![2, 0];
        let (sub, map) = m.induced_subgraph(&nodes);
        assert_eq!(map, nodes);
        assert_eq!(sub.shape(), (2, 2));
        assert!(sub.to_dense().max_abs_diff(&dense_subgraph(&m, &nodes)) < 1e-9);
        // Row "global 2" keeps only the edge to global 0 (local 1).
        assert_eq!(sub.neighbors(0), &[1]);
        assert_eq!(sub.row_values(0), &[3.0]);
    }

    #[test]
    fn induced_subgraph_empty_and_full_selection() {
        let m = sample();
        let (empty, map) = m.induced_subgraph(&[]);
        assert_eq!(empty.shape(), (0, 0));
        assert_eq!(empty.nnz(), 0);
        assert!(map.is_empty());
        let all = vec![0, 1, 2];
        let (full, _) = m.induced_subgraph(&all);
        assert_eq!(full, m);
    }

    #[test]
    fn induced_subgraph_larger_random_matches_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let n = 64;
        let mut triplets = Vec::new();
        for r in 0..n {
            for _ in 0..6 {
                triplets.push((r, rng.gen_range(0..n), rng.gen_range(-1.0f32..1.0)));
            }
        }
        let m = CsrMatrix::from_triplets(n, n, &triplets);
        // A scrambled, non-contiguous selection.
        let nodes: Vec<usize> = (0..n).filter(|i| i % 3 != 1).rev().collect();
        let (sub, map) = m.induced_subgraph(&nodes);
        assert_eq!(map, nodes);
        assert!(sub.to_dense().max_abs_diff(&dense_subgraph(&m, &nodes)) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn induced_subgraph_rejects_out_of_bounds_node() {
        sample().induced_subgraph(&[0, 7]);
    }

    #[test]
    #[should_panic(expected = "requires a square matrix")]
    fn induced_subgraph_rejects_rectangular() {
        CsrMatrix::empty(2, 3).induced_subgraph(&[0]);
    }
}
