//! Pairwise similarity / distance measures used by rule-based and
//! metric-based graph construction (survey Table 3's "Similarity" column).

use gnn4tdl_tensor::{parallel, Matrix};

/// Similarity measure between feature rows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Similarity {
    /// Negative Euclidean distance (larger = more similar).
    Euclidean,
    /// Cosine similarity.
    Cosine,
    /// Gaussian (RBF) kernel `exp(-||a-b||^2 / (2 sigma^2))`.
    Gaussian { sigma: f32 },
    /// Inner product.
    InnerProduct,
}

impl Similarity {
    /// Similarity between rows `i` of `a` and `j` of `b`.
    pub fn between(&self, a: &Matrix, i: usize, b: &Matrix, j: usize) -> f32 {
        let (x, y) = (a.row(i), b.row(j));
        match *self {
            Similarity::Euclidean => -euclidean(x, y),
            Similarity::Cosine => cosine(x, y),
            Similarity::Gaussian { sigma } => {
                let d = euclidean(x, y);
                (-d * d / (2.0 * sigma * sigma)).exp()
            }
            Similarity::InnerProduct => dot(x, y),
        }
    }

    /// Full pairwise similarity matrix of the rows of `x` (symmetric).
    ///
    /// Computed as one GEMM: the Gram matrix `G = X Xᵀ` via the parallel
    /// [`Matrix::matmul`], then each measure is finished elementwise from
    /// `G[i][j]` and the squared row norms (`d² = ‖x‖² + ‖y‖² − 2·x·y`).
    /// The Gram matrix is exactly symmetric (products commute, and each
    /// entry's reduction runs in the same `k` order), the norm sums commute,
    /// and the matmul's chunking depends only on the shapes — so the output
    /// is still exactly symmetric and bit-identical at any thread count.
    pub fn pairwise(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut g = x.matmul(&x.transpose());
        let sq = row_sq_norms(x);
        let (sq_ref, measure) = (&sq, *self);
        // Row blocks sized from n only (~16k entries each).
        let block_rows = (1usize << 14).div_ceil(n.max(1)).clamp(1, n.max(1));
        parallel::par_chunks_mut(g.data_mut(), block_rows * n, |blk, chunk| {
            for (local, out_row) in chunk.chunks_mut(n).enumerate() {
                let i = blk * block_rows + local;
                for (o, &sq_j) in out_row.iter_mut().zip(sq_ref) {
                    *o = measure.finish_dot(sq_ref[i], sq_j, *o);
                }
            }
        });
        g
    }

    /// Finishes one similarity value from Gram-matrix ingredients: the dot
    /// product `x·y` and the squared norms `‖x‖²`, `‖y‖²`. The cosine and
    /// inner-product branches reproduce the scalar [`Similarity::between`]
    /// bit for bit; the distance-based branches use the GEMM identity
    /// `d² = ‖x‖² + ‖y‖² − 2·x·y` clamped at zero against cancellation.
    pub(crate) fn finish_dot(&self, sq_i: f32, sq_j: f32, dot: f32) -> f32 {
        match *self {
            Similarity::Euclidean => -gemm_distance(sq_i, sq_j, dot),
            Similarity::Cosine => {
                let (ni, nj) = (sq_i.sqrt(), sq_j.sqrt());
                if ni < 1e-12 || nj < 1e-12 {
                    0.0
                } else {
                    dot / (ni * nj)
                }
            }
            Similarity::Gaussian { sigma } => {
                let d = gemm_distance(sq_i, sq_j, dot);
                (-d * d / (2.0 * sigma * sigma)).exp()
            }
            Similarity::InnerProduct => dot,
        }
    }

    /// A human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Similarity::Euclidean => "euclidean",
            Similarity::Cosine => "cosine",
            Similarity::Gaussian { .. } => "gaussian",
            Similarity::InnerProduct => "inner_product",
        }
    }
}

/// Squared row norms `‖x_i‖²`, each accumulated in the same sequential `k`
/// order as [`Matrix::matmul`]'s per-entry reduction, so `sq[i]` is bitwise
/// equal to the Gram diagonal `(X Xᵀ)[i][i]` and the GEMM distance of a row
/// to itself is exactly zero.
pub(crate) fn row_sq_norms(x: &Matrix) -> Vec<f32> {
    (0..x.rows()).map(|i| x.row(i).iter().map(|&a| a * a).sum::<f32>()).collect()
}

/// Euclidean distance from Gram-matrix ingredients:
/// `sqrt(max(‖x‖² + ‖y‖² − 2·x·y, 0))`. The clamp guards against tiny
/// negative values from floating-point cancellation between near-identical
/// rows.
pub(crate) fn gemm_distance(sq_i: f32, sq_j: f32, dot: f32) -> f32 {
    (sq_i + sq_j - 2.0 * dot).max(0.0).sqrt()
}

/// The pre-GEMM row-by-row `pairwise` implementation, kept as a test oracle
/// for the GEMM path.
#[cfg(test)]
pub(crate) fn pairwise_scalar(measure: Similarity, x: &Matrix) -> Matrix {
    let n = x.rows();
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            out.set(i, j, measure.between(x, i, x, j));
        }
    }
    out
}

fn dot(x: &[f32], y: &[f32]) -> f32 {
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

fn euclidean(x: &[f32], y: &[f32]) -> f32 {
    x.iter().zip(y).map(|(&a, &b)| (a - b) * (a - b)).sum::<f32>().sqrt()
}

fn cosine(x: &[f32], y: &[f32]) -> f32 {
    let nx = dot(x, x).sqrt();
    let ny = dot(y, y).sqrt();
    if nx < 1e-12 || ny < 1e-12 {
        0.0
    } else {
        dot(x, y) / (nx * ny)
    }
}

/// Pearson correlation between two equal-length slices; used to build
/// feature graphs from column correlations (IGNNet-style).
pub fn pearson(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let n = x.len() as f32;
    if n == 0.0 {
        return 0.0;
    }
    let mx = x.iter().sum::<f32>() / n;
    let my = y.iter().sum::<f32>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx < 1e-12 || vy < 1e-12 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 0.0]])
    }

    #[test]
    fn euclidean_orders_by_distance() {
        let x = m();
        let s = Similarity::Euclidean;
        // row0 closer to row2 than to row1
        assert!(s.between(&x, 0, &x, 2) > s.between(&x, 0, &x, 1));
        assert_eq!(s.between(&x, 0, &x, 0), 0.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let x = m();
        let s = Similarity::Cosine;
        assert!((s.between(&x, 0, &x, 2) - 1.0).abs() < 1e-6);
        assert!(s.between(&x, 0, &x, 1).abs() < 1e-6);
    }

    #[test]
    fn gaussian_in_unit_interval_and_peaked_at_self() {
        let x = m();
        let s = Similarity::Gaussian { sigma: 1.0 };
        for i in 0..3 {
            for j in 0..3 {
                let v = s.between(&x, i, &x, j);
                assert!((0.0..=1.0).contains(&v));
            }
            assert!((s.between(&x, i, &x, i) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn pairwise_is_symmetric() {
        let x = m();
        for s in [
            Similarity::Euclidean,
            Similarity::Cosine,
            Similarity::Gaussian { sigma: 2.0 },
            Similarity::InnerProduct,
        ] {
            let p = s.pairwise(&x);
            assert!(p.max_abs_diff(&p.transpose()) < 1e-6, "{} not symmetric", s.name());
        }
    }

    /// Deterministic pseudo-random features without an RNG dependency.
    fn synthetic(n: usize, d: usize) -> Matrix {
        let mut m = Matrix::zeros(n, d);
        for i in 0..n {
            for j in 0..d {
                m.set(i, j, ((i * 31 + j * 17 + 3) as f32 * 0.7311).sin() * 2.0);
            }
        }
        m
    }

    #[test]
    fn gemm_pairwise_matches_scalar_oracle() {
        let x = synthetic(37, 6);
        for s in [
            Similarity::Euclidean,
            Similarity::Cosine,
            Similarity::Gaussian { sigma: 1.3 },
            Similarity::InnerProduct,
        ] {
            let gemm = s.pairwise(&x);
            let scalar = pairwise_scalar(s, &x);
            match s {
                // dot-product measures reduce in the same k order as the
                // scalar path: bit-identical
                Similarity::Cosine | Similarity::InnerProduct => {
                    assert_eq!(gemm.data(), scalar.data(), "{} not bitwise equal", s.name());
                }
                // distance-based measures use the GEMM identity: close, not
                // bitwise
                _ => {
                    // cancellation in ‖x‖²+‖y‖²−2·x·y costs a few ulps of
                    // the norms, not of the (possibly tiny) distance
                    assert!(gemm.max_abs_diff(&scalar) < 1e-3, "{} diverges from scalar oracle", s.name());
                }
            }
        }
    }

    #[test]
    fn gemm_pairwise_self_similarity_is_exact() {
        let x = synthetic(25, 4);
        let e = Similarity::Euclidean.pairwise(&x);
        let g = Similarity::Gaussian { sigma: 0.9 }.pairwise(&x);
        for i in 0..25 {
            assert_eq!(e.get(i, i), 0.0, "euclidean self-distance must be exactly 0");
            assert_eq!(g.get(i, i), 1.0, "gaussian self-similarity must be exactly 1");
        }
    }

    #[test]
    fn pearson_known_values() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-6);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-6);
        assert_eq!(pearson(&[1.0, 1.0], &[0.0, 5.0]), 0.0); // zero variance in x
    }
}
