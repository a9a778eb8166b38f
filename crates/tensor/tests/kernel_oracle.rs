//! The micro-kernel equivalence contract from the outside: every tiled
//! implementation (portable lanes, AVX intrinsics) must be **bitwise**
//! identical to the retained scalar oracle on arbitrary — and deliberately
//! awkward — shapes, and the removal of the dense inner loop's
//! `a == 0.0` skip must be invisible on finite inputs, signed zeros
//! included.

use gnn4tdl_tensor::kernel::{self, Epilogue, Kernel};
use gnn4tdl_tensor::{CsrMatrix, Matrix};
use proptest::prelude::*;

/// Every implementation runnable on this host. The AVX leg vanishes off
/// x86-64 (and on CPUs without AVX), leaving scalar vs portable.
fn kernels() -> Vec<Kernel> {
    let mut ks = vec![Kernel::Scalar, Kernel::Portable];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        ks.push(Kernel::Avx);
    }
    ks
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The dense inner loop exactly as it was before this PR, zero-skip
/// included, kept as the historical oracle for the skip-removal proof.
fn matmul_with_zero_skip(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let av = a.get(i, kk);
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out.set(i, j, out.get(i, j) + av * b.get(kk, j));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Odd/tail shapes — nothing aligned to MR, NR, or the row-chunk size —
    /// through the full `matmul` entry point under every implementation.
    #[test]
    fn gemm_matches_scalar_oracle_on_odd_shapes(
        m in 1usize..22,
        k in 1usize..40,
        n in 1usize..38,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::randn(m, k, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 0.0, 1.0, &mut rng);
        let mut want = vec![0.0f32; m * n];
        kernel::gemm_into(m, k, n, a.data(), b.data(), &mut want, Epilogue::None);
        // direct oracle call, no packing, no threading
        let mut oracle = vec![0.0f32; m * n];
        kernel::gemm_oracle(m, k, n, a.data(), b.data(), &mut oracle, Epilogue::None);
        prop_assert_eq!(bits(&want), bits(&oracle));
        for kern in kernels() {
            let got = kernel::with_kernel(kern, || a.matmul(&b));
            prop_assert_eq!(
                bits(got.data()), bits(&oracle),
                "matmul diverged from the scalar oracle under {:?}", kern
            );
        }
    }

    /// The fused bias+relu epilogue under every implementation, against the
    /// unfused composition on the same shapes.
    #[test]
    fn fused_bias_relu_matches_unfused_on_odd_shapes(
        m in 1usize..16,
        k in 1usize..24,
        n in 1usize..38,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(7));
        let a = Matrix::randn(m, k, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 0.0, 1.0, &mut rng);
        let bias = Matrix::randn(1, n, 0.0, 1.0, &mut rng);
        let mut unfused = vec![0.0f32; m * n];
        kernel::gemm_oracle(m, k, n, a.data(), b.data(), &mut unfused, Epilogue::None);
        for (i, v) in unfused.iter_mut().enumerate() {
            *v = (*v + bias.data()[i % n]).max(0.0);
        }
        for kern in kernels() {
            let got = kernel::with_kernel(kern, || a.matmul_bias_relu(&b, bias.data()));
            prop_assert_eq!(
                bits(got.data()), bits(&unfused),
                "fused epilogue diverged under {:?}", kern
            );
        }
    }

    /// SpMM through every implementation against the scalar kernel run.
    #[test]
    fn spmm_matches_scalar_kernel_on_odd_widths(
        t in proptest::collection::vec((0usize..9, 0usize..9, -2.0f32..2.0), 0..30),
        d in 1usize..35,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(13));
        let sp = CsrMatrix::from_triplets(9, 9, &t);
        let x = Matrix::randn(9, d, 0.0, 1.0, &mut rng);
        let oracle = kernel::with_kernel(Kernel::Scalar, || sp.spmm(&x));
        for kern in kernels() {
            let got = kernel::with_kernel(kern, || sp.spmm(&x));
            prop_assert_eq!(
                bits(got.data()), bits(oracle.data()),
                "spmm diverged from the scalar kernel under {:?}", kern
            );
        }
    }

    /// Signed zeros sprinkled through A: with the `a == 0.0` skip removed,
    /// every implementation must still match the *historical* skipping loop
    /// bit for bit — adding `±0.0 · b` to a finite running sum is a no-op
    /// under round-to-nearest, for either sign of zero.
    #[test]
    fn zero_skip_removal_is_bitwise_invisible_on_finite_inputs(
        m in 1usize..10,
        k in 1usize..16,
        n in 1usize..20,
        seed in 0u64..1000,
        zero_mask in proptest::collection::vec(0u8..4, 1..160),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(29));
        let mut a = Matrix::randn(m, k, 0.0, 1.0, &mut rng);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            match zero_mask[i % zero_mask.len()] {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        let b = Matrix::randn(k, n, 0.0, 1.0, &mut rng);
        let want = matmul_with_zero_skip(&a, &b);
        for kern in kernels() {
            let got = kernel::with_kernel(kern, || a.matmul(&b));
            prop_assert_eq!(
                bits(got.data()), bits(want.data()),
                "skip-free inner loop diverged from the skipping loop under {:?}", kern
            );
        }
    }
}

/// The one place the removal *is* visible, by design: a non-finite B value
/// under a zero A multiplier now propagates (`0 · inf = NaN`), where the
/// old skip silently dropped it. All implementations agree on the new
/// (IEEE-correct) answer.
#[test]
fn zero_times_nonfinite_now_propagates_nan_identically() {
    let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, -0.0, 2.0]);
    let b = Matrix::from_vec(2, 2, vec![f32::INFINITY, 1.0, 3.0, f32::NAN]);
    let skipped = matmul_with_zero_skip(&a, &b);
    // the historical loop ignored the inf/NaN behind the zeros
    assert!(skipped.get(0, 0).is_finite() && skipped.get(0, 1).is_nan());
    let reference = kernel::with_kernel(Kernel::Scalar, || a.matmul(&b));
    assert!(reference.get(0, 0).is_nan(), "0·inf must propagate NaN");
    assert!(reference.get(0, 1).is_nan());
    for kern in kernels() {
        let got = kernel::with_kernel(kern, || a.matmul(&b));
        assert_eq!(bits(got.data()), bits(reference.data()), "non-finite propagation differs under {kern:?}");
    }
}

/// k-major batched dots (the HNSW `sim_batch` engine) against the one-lane
/// oracle, on widths around and off the 8-lane vector size.
#[test]
fn dot_kmajor_matches_oracle_on_odd_widths() {
    for &(d, bwidth) in &[(1usize, 1usize), (3, 7), (8, 8), (5, 9), (16, 33), (31, 64)] {
        let q: Vec<f32> = (0..d).map(|i| (i as f32 * 0.37 - 1.0).sin()).collect();
        let panel: Vec<f32> = (0..d * bwidth).map(|i| (i as f32 * 0.11 + 0.5).cos()).collect();
        let mut oracle = vec![0.25f32; bwidth];
        kernel::dot_kmajor_oracle(&q, &panel, bwidth, &mut oracle);
        for kern in kernels() {
            let mut got = vec![0.25f32; bwidth];
            kernel::dot_kmajor(kern, &q, &panel, bwidth, &mut got);
            assert_eq!(bits(&got), bits(&oracle), "dot_kmajor diverged under {kern:?} at d={d} b={bwidth}");
        }
    }
}

/// Best-of-reps single-shape GEMM throughput (GFLOP/s) under `kern`.
fn gemm_gflops(m: usize, k: usize, n: usize, kern: Kernel) -> f64 {
    let mut s = 0x9e3779b97f4a7c15u64;
    let mut fill = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as i32 % 1000) as f32 / 997.0
            })
            .collect()
    };
    let a = fill(m * k);
    let b = fill(k * n);
    let mut out = vec![0.0f32; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    let reps = ((2e8 / flops).ceil() as usize).clamp(3, 2000);
    let mut best = f64::INFINITY;
    kernel::with_kernel(kern, || {
        for _ in 0..reps {
            out.fill(0.0);
            let t = std::time::Instant::now();
            kernel::gemm_into(m, k, n, &a, &b, &mut out, Epilogue::None);
            best = best.min(t.elapsed().as_secs_f64());
        }
    });
    flops / best / 1e9
}

/// Timing gate (release only): the selected tiled kernel must run the
/// dominant training shape — the hidden-layer product of an n=1000 fit —
/// at least 1.5x faster than the scalar oracle. Nothing to beat when the
/// scalar tier is the one selected (`GNN4TDL_KERNEL=scalar`).
#[test]
#[ignore = "timing gate: cargo test --release -- --ignored gate_"]
fn gate_tiled_gemm_beats_scalar_on_the_dominant_shape() {
    let selected = kernel::select();
    if selected == Kernel::Scalar {
        eprintln!("skipped: the scalar kernel is selected, so there is nothing to beat");
        return;
    }
    let (m, k, n) = (1000, 32, 32);
    let speedup = gemm_gflops(m, k, n, selected) / gemm_gflops(m, k, n, Kernel::Scalar);
    eprintln!("tiled GEMM ({selected:?}) {speedup:.2}x the scalar oracle on {m}x{k}x{n}");
    assert!(speedup >= 1.5, "tiled GEMM speedup {speedup:.2}x on {m}x{k}x{n} is below the required 1.5x");
}
