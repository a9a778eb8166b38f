//! Register-tiled, cache-blocked micro-kernels for the dense/sparse hot
//! paths.
//!
//! Every workload in the workspace bottoms out in a handful of inner loops:
//! dense GEMM ([`Matrix::matmul_into`](crate::Matrix::matmul_into) and the
//! fused `LinearRelu` tape op), CSR×dense SpMM, and the batched similarity
//! dots of graph construction and serving. This module is their shared
//! engine: a BLIS-style packed GEMM micro-kernel plus row-panel SpMM and
//! k-major dot kernels, each available in three bitwise-identical
//! implementations selected at runtime.
//!
//! # Tiling and packing layout
//!
//! GEMM computes `out += A (m×k) · B (k×n)` as [`MR`]×[`NR`] register tiles.
//! B is packed **once per product, on the calling thread** — into a
//! grow-only per-thread scratch that stays warm on the persistent
//! `parallel` workers (see [`pack_stats`]) — as
//! `NR`-column panels: within one `k`-block of at most [`KC`] rows, panel
//! `p` stores rows `k0..k0+kc` of columns `p·NR..p·NR+NR` contiguously as
//! `panel[kk·NR + lane]`, zero-padding the right-edge lanes (padded lanes
//! are computed but never stored). The micro-kernel loads the `MR×NR` output
//! tile, walks the panel with `k` ascending — broadcasting one A element per
//! row and doing a multiply **then** an add across the `NR` lanes — and
//! stores the tile back after each `k`-block.
//!
//! # Lane-determinism contract
//!
//! All three implementations produce **bitwise identical** results, equal to
//! the retained scalar oracle ([`gemm_oracle`]), at any thread count:
//!
//! * Vectorization is across *output lanes* (the `j`/`n` dimension), never
//!   across the reduction, so every output element keeps a single
//!   accumulator summed in ascending-`k` order — exactly the scalar order.
//! * No fused multiply-add: FMA rounds once where `mul`+`add` round twice,
//!   so the AVX path uses explicit `_mm256_mul_ps`/`_mm256_add_ps` and the
//!   portable path relies on Rust never contracting `a + b * c` without
//!   fast-math.
//! * The per-`k`-block tile store/reload round-trips exact `f32` values, so
//!   blocking does not reassociate the per-element chain.
//! * [`MR`], [`NR`] and [`KC`] are compile-time constants and row-chunk
//!   boundaries derive from shapes only, so nothing depends on the worker
//!   count (the PR 1–3 thread-invariance contract).
//!
//! # Feature detection and the escape hatch
//!
//! [`select`] picks the implementation once per process: the AVX path when
//! `is_x86_feature_detected!("avx")`, otherwise the portable unrolled-lane
//! fallback that the autovectorizer lowers to SSE. `GNN4TDL_KERNEL=scalar`
//! (or `portable`) overrides the choice so the fallback paths stay
//! exercised in CI; [`with_kernel`] scopes an override to one closure for
//! tests and benches. Because results are bitwise identical across
//! implementations, the selection is a pure throughput knob.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::buf::Buf;
use crate::parallel;

/// Rows per register tile.
pub const MR: usize = 4;
/// Output columns (lanes) per register tile: two 8-wide AVX vectors.
pub const NR: usize = 16;
/// Reduction depth per packed B block (L1-resident A tile rows).
pub const KC: usize = 256;

/// One of the three interchangeable kernel implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// The reference loops — the retained scalar oracle, also reachable at
    /// runtime via `GNN4TDL_KERNEL=scalar`.
    Scalar,
    /// Packed tiles over fixed-width lane arrays the compiler vectorizes.
    Portable,
    /// Packed tiles over explicit 256-bit `std::arch` intrinsics.
    #[cfg(target_arch = "x86_64")]
    Avx,
}

/// 0 = unresolved, 1 = scalar, 2 = portable, 3 = avx.
static SELECTED: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// Per-thread override installed by [`with_kernel`]; 0 = none.
    static OVERRIDE: Cell<u8> = const { Cell::new(0) };
}

fn encode(k: Kernel) -> u8 {
    match k {
        Kernel::Scalar => 1,
        Kernel::Portable => 2,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx => 3,
    }
}

fn decode(code: u8) -> Kernel {
    match code {
        1 => Kernel::Scalar,
        #[cfg(target_arch = "x86_64")]
        3 => Kernel::Avx,
        _ => Kernel::Portable,
    }
}

/// The fastest implementation this CPU supports.
fn detect() -> u8 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        return 3;
    }
    2
}

#[cold]
fn init_from_env() -> u8 {
    let pick = match std::env::var("GNN4TDL_KERNEL") {
        Ok(v) if v.trim().eq_ignore_ascii_case("scalar") => 1,
        Ok(v) if v.trim().eq_ignore_ascii_case("portable") => 2,
        _ => detect(),
    };
    // Keep an explicit choice that raced us.
    let _ = SELECTED.compare_exchange(0, pick, Ordering::Relaxed, Ordering::Relaxed);
    SELECTED.load(Ordering::Relaxed)
}

/// The implementation the current thread would run: a [`with_kernel`]
/// override if one is active, else the process-wide choice resolved once
/// from `GNN4TDL_KERNEL` and CPU feature detection.
pub fn select() -> Kernel {
    let over = OVERRIDE.with(Cell::get);
    if over != 0 {
        return decode(over);
    }
    decode(match SELECTED.load(Ordering::Relaxed) {
        0 => init_from_env(),
        code => code,
    })
}

/// Runs `f` with the calling thread forced onto implementation `k`. The
/// dense entry points resolve the kernel on the coordinating thread before
/// fanning out, so the override covers their parallel regions too.
pub fn with_kernel<R>(k: Kernel, f: impl FnOnce() -> R) -> R {
    let prev = OVERRIDE.with(|c| c.replace(encode(k)));
    let result = f();
    OVERRIDE.with(|c| c.set(prev));
    result
}

/// Post-GEMM transform applied to each output element after the final
/// `k`-block (bitwise identical to running it as a separate pass).
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// Plain accumulation: `out += A·B`.
    None,
    /// Fused dense layer: `out = max(out + A·B + bias[j], 0)`.
    BiasRelu(&'a [f32]),
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// `out += a (m×k) · b (k×n)` (row-major slices), with `epi` applied to
/// every element after the reduction. Packs B, then fans out over
/// shape-derived row chunks; the actual arithmetic is the selected
/// micro-kernel. Bitwise equal to [`gemm_oracle`] for every implementation.
pub fn gemm_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], epi: Epilogue) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let kern = select();
    if kern == Kernel::Scalar {
        gemm_scalar_par(m, k, n, a, b, out, epi);
        return;
    }
    // Rows per chunk, a multiple of MR sized to [`GEMM_TILED_CHUNK_FLOPS`]
    // from the shapes only — chunk boundaries (and so the whole
    // computation) are identical at any worker count.
    let block_rows = GEMM_TILED_CHUNK_FLOPS.div_ceil((k * n).max(1)).next_multiple_of(MR);
    with_packed_b(b, k, n, |packed| {
        parallel::par_chunks_mut(out, block_rows * n, |blk, chunk| {
            let i0 = blk * block_rows;
            let rows = chunk.len() / n;
            gemm_chunk(kern, &a[i0 * k..(i0 + rows) * k], rows, k, n, packed, chunk, epi);
        });
    });
}

/// Flop budget (MACs) per tiled-GEMM row chunk: the sequential cutoff and
/// the parallel grain in one constant. Halved from the scoped-spawn era's
/// `1 << 17`: a pooled dispatch costs ~1µs instead of ~10µs per helper, so
/// products half the old size now amortize fanning out, and the smaller
/// grain load-balances better. Chunks are whole rows, so the per-element
/// ascending-k reduction chains — and therefore every output bit — are
/// unchanged by this value.
const GEMM_TILED_CHUNK_FLOPS: usize = 1 << 16;

/// Same budget for the scalar escape hatch (`GNN4TDL_KERNEL=scalar`), kept
/// 4× smaller than the tiled grain because the scalar inner loop is ~4-8×
/// slower per element; halved from `1 << 15` with the same pooled-dispatch
/// rationale. Bitwise-safe for the same whole-rows reason.
const GEMM_SCALAR_CHUNK_FLOPS: usize = 1 << 14;

/// The retained scalar oracle: the straightforward (i, k, j) triple loop
/// every tiled implementation must match bit for bit. Sequential; tests and
/// the bench gate call it directly.
pub fn gemm_oracle(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], epi: Epilogue) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        apply_epilogue(out_row, 0, epi);
    }
}

/// The scalar oracle with the pre-kernel parallel row chunking, used when
/// `GNN4TDL_KERNEL=scalar` so the escape hatch keeps the thread-invariance
/// contract of the tiled paths.
fn gemm_scalar_par(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], epi: Epilogue) {
    let block_rows = GEMM_SCALAR_CHUNK_FLOPS.div_ceil((k * n).max(1)).clamp(1, m.max(1));
    parallel::par_chunks_mut(out, block_rows * n, |blk, chunk| {
        let i0 = blk * block_rows;
        let rows = chunk.len() / n;
        gemm_oracle(rows, k, n, &a[i0 * k..(i0 + rows) * k], b, chunk, epi);
    });
}

fn apply_epilogue(row: &mut [f32], j0: usize, epi: Epilogue) {
    if let Epilogue::BiasRelu(bias) = epi {
        let bias = &bias[j0..j0 + row.len()];
        for (o, &bb) in row.iter_mut().zip(bias) {
            *o = (*o + bb).max(0.0);
        }
    }
}

thread_local! {
    /// Grow-only per-thread scratch for the packed B panels. GEMMs run on
    /// whichever thread calls them — the coordinator or a persistent
    /// `parallel` pool worker (e.g. a `par_join` branch of the LinearRelu
    /// backward) — and because pool workers never die, the scratch stays
    /// warm: after the first product of a given size, packing allocates
    /// nothing. Which thread runs a product is scheduling-dependent, so the
    /// obs ledger gets the logical `pack.takes` count (one per product) and
    /// the physical reuse tallies live in [`pack_stats`].
    static PACK_SCRATCH: RefCell<Buf> = RefCell::new(Buf::zeroed(0));
}

/// Process-wide physical pack-scratch tallies across every thread: `hits`
/// are packs served by an already-large-enough warm scratch, `misses` are
/// packs that had to (re)allocate it.
static PACK_HITS: AtomicU64 = AtomicU64::new(0);
static PACK_MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the pack-scratch reuse tallies since the last
/// [`reset_pack_stats`] — the bench's warm-worker evidence.
pub fn pack_stats() -> crate::pool::PoolStats {
    crate::pool::PoolStats {
        hits: PACK_HITS.load(Ordering::Relaxed),
        misses: PACK_MISSES.load(Ordering::Relaxed),
    }
}

/// Zeroes the pack-scratch tallies (warm scratches stay warm).
pub fn reset_pack_stats() {
    PACK_HITS.store(0, Ordering::Relaxed);
    PACK_MISSES.store(0, Ordering::Relaxed);
}

/// Packs `b` (k×n row-major) into the calling thread's panel scratch (see
/// [`PACK_SCRATCH`]) and hands the packed slice to `f`.
fn with_packed_b<R>(b: &[f32], k: usize, n: usize, f: impl FnOnce(&[f32]) -> R) -> R {
    let need = n.div_ceil(NR) * NR * k;
    crate::obs::PACK_TAKES.add(1);
    PACK_SCRATCH.with(|cell| {
        let mut packed = cell.replace(Buf::zeroed(0));
        if packed.len() < need {
            PACK_MISSES.fetch_add(1, Ordering::Relaxed);
            packed = Buf::zeroed(need);
        } else {
            PACK_HITS.fetch_add(1, Ordering::Relaxed);
        }
        pack_b_into(&mut packed[..need], b, k, n);
        let result = f(&packed[..need]);
        cell.replace(packed);
        result
    })
}

/// Packs `b` (k×n row-major) into the panel layout described in the module
/// docs, overwriting every element of `packed` (so stale scratch contents
/// are unobservable).
fn pack_b_into(packed: &mut [f32], b: &[f32], k: usize, n: usize) {
    let npanels = n.div_ceil(NR);
    debug_assert_eq!(packed.len(), npanels * NR * k);
    let mut off = 0;
    let mut k0 = 0;
    while k0 < k {
        let kc = (k - k0).min(KC);
        for p in 0..npanels {
            let j0 = p * NR;
            let width = (n - j0).min(NR);
            for kk in 0..kc {
                let dst = &mut packed[off + kk * NR..off + (kk + 1) * NR];
                dst[..width].copy_from_slice(&b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + width]);
                dst[width..].fill(0.0);
            }
            off += kc * NR;
        }
        k0 += kc;
    }
}

/// Computes `rows` output rows (one parallel chunk) through the tiled
/// micro-kernel. `a` holds those rows of A (stride `k`), `out` the matching
/// rows of the output (stride `n`).
#[allow(clippy::too_many_arguments)]
fn gemm_chunk(
    kern: Kernel,
    a: &[f32],
    rows: usize,
    k: usize,
    n: usize,
    packed: &[f32],
    out: &mut [f32],
    epi: Epilogue,
) {
    let npanels = n.div_ceil(NR);
    let mut k0 = 0;
    loop {
        let kc = (k - k0).min(KC);
        let last = k0 + kc == k;
        let kb_base = k0 * npanels * NR;
        for ip in (0..rows).step_by(MR) {
            let mr = (rows - ip).min(MR);
            for p in 0..npanels {
                let j0 = p * NR;
                let width = (n - j0).min(NR);
                let panel = &packed[kb_base + p * kc * NR..kb_base + (p + 1) * kc * NR];
                let epi_now = if last { epi } else { Epilogue::None };
                tile(
                    kern,
                    &a[ip * k + k0..],
                    k,
                    kc,
                    mr,
                    panel,
                    &mut out[ip * n + j0..],
                    n,
                    width,
                    j0,
                    epi_now,
                );
            }
        }
        if last {
            break;
        }
        k0 += kc;
    }
}

/// One MR×NR tile: load the accumulator from `out`, run the micro-kernel
/// over `kc` packed rows, apply the epilogue on the final block, store the
/// valid lanes back. Loading/storing exact `f32`s between k-blocks keeps
/// each element's reduction a single ascending-k chain.
#[allow(clippy::too_many_arguments)]
fn tile(
    kern: Kernel,
    a: &[f32],
    lda: usize,
    kc: usize,
    mr: usize,
    panel: &[f32],
    out: &mut [f32],
    ldc: usize,
    width: usize,
    j0: usize,
    epi: Epilogue,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, lane) in acc.iter_mut().enumerate().take(mr) {
        lane[..width].copy_from_slice(&out[r * ldc..r * ldc + width]);
    }
    match kern {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: gated on runtime AVX detection in `select`.
        Kernel::Avx => unsafe {
            match mr {
                1 => micro_avx::<1>(a, lda, kc, panel, &mut acc),
                2 => micro_avx::<2>(a, lda, kc, panel, &mut acc),
                3 => micro_avx::<3>(a, lda, kc, panel, &mut acc),
                _ => micro_avx::<4>(a, lda, kc, panel, &mut acc),
            }
        },
        _ => match mr {
            1 => micro_portable::<1>(a, lda, kc, panel, &mut acc),
            2 => micro_portable::<2>(a, lda, kc, panel, &mut acc),
            3 => micro_portable::<3>(a, lda, kc, panel, &mut acc),
            _ => micro_portable::<4>(a, lda, kc, panel, &mut acc),
        },
    }
    for (r, lane) in acc.iter_mut().enumerate().take(mr) {
        apply_epilogue(&mut lane[..width], j0, epi);
        out[r * ldc..r * ldc + width].copy_from_slice(&lane[..width]);
    }
}

/// Portable micro-kernel: fixed-width lane arrays the autovectorizer lowers
/// to SIMD. `ROWS ≤ MR` is a const generic so the accumulator tile stays in
/// registers.
#[inline(always)]
fn micro_portable<const ROWS: usize>(
    a: &[f32],
    lda: usize,
    kc: usize,
    panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    for kk in 0..kc {
        let b = &panel[kk * NR..(kk + 1) * NR];
        for r in 0..ROWS {
            let av = a[r * lda + kk];
            let lane = &mut acc[r];
            for j in 0..NR {
                lane[j] += av * b[j];
            }
        }
    }
}

/// AVX micro-kernel: two 256-bit accumulators per row. Explicit
/// `mul`+`add` — never FMA — so rounding matches the scalar oracle.
///
/// # Safety
/// Requires AVX (callers dispatch through [`select`]'s runtime detection),
/// and `a`/`panel` sized as in [`micro_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn micro_avx<const ROWS: usize>(
    a: &[f32],
    lda: usize,
    kc: usize,
    panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    let mut c0 = [_mm256_setzero_ps(); ROWS];
    let mut c1 = [_mm256_setzero_ps(); ROWS];
    for r in 0..ROWS {
        c0[r] = _mm256_loadu_ps(acc[r].as_ptr());
        c1[r] = _mm256_loadu_ps(acc[r].as_ptr().add(8));
    }
    let pp = panel.as_ptr();
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(pp.add(kk * NR));
        let b1 = _mm256_loadu_ps(pp.add(kk * NR + 8));
        for r in 0..ROWS {
            let av = _mm256_set1_ps(*a.get_unchecked(r * lda + kk));
            c0[r] = _mm256_add_ps(c0[r], _mm256_mul_ps(av, b0));
            c1[r] = _mm256_add_ps(c1[r], _mm256_mul_ps(av, b1));
        }
    }
    for r in 0..ROWS {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), c0[r]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), c1[r]);
    }
}

// ---------------------------------------------------------------------------
// SpMM (one CSR row × dense NR-column tiles)
// ---------------------------------------------------------------------------

/// `out_row += Σ values[t] · dense[cols[t]]` over one CSR row, where
/// `dense` is row-major `?×d`. Tiled over NR output columns with a register
/// accumulator per tile; every output element still sums its non-zeros in
/// CSR (ascending-`t`) order, bitwise equal to [`spmm_row_oracle`].
pub fn spmm_row(kern: Kernel, cols: &[usize], vals: &[f32], dense: &[f32], d: usize, out_row: &mut [f32]) {
    debug_assert_eq!(cols.len(), vals.len());
    debug_assert_eq!(out_row.len(), d);
    match kern {
        Kernel::Scalar => spmm_row_oracle(cols, vals, dense, d, out_row),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: gated on runtime AVX detection in `select`.
        Kernel::Avx => unsafe { spmm_row_avx(cols, vals, dense, d, out_row) },
        _ => spmm_row_portable(cols, vals, dense, d, out_row),
    }
}

/// The retained scalar oracle for one SpMM row: non-zeros outer, a full-row
/// saxpy inner — the pre-kernel loop.
pub fn spmm_row_oracle(cols: &[usize], vals: &[f32], dense: &[f32], d: usize, out_row: &mut [f32]) {
    for (&c, &v) in cols.iter().zip(vals) {
        let src = &dense[c * d..(c + 1) * d];
        for (o, &s) in out_row.iter_mut().zip(src) {
            *o += v * s;
        }
    }
}

fn spmm_row_portable(cols: &[usize], vals: &[f32], dense: &[f32], d: usize, out_row: &mut [f32]) {
    let mut j0 = 0;
    while j0 + NR <= d {
        let mut acc = [0.0f32; NR];
        acc.copy_from_slice(&out_row[j0..j0 + NR]);
        for (&c, &v) in cols.iter().zip(vals) {
            let src = &dense[c * d + j0..c * d + j0 + NR];
            for j in 0..NR {
                acc[j] += v * src[j];
            }
        }
        out_row[j0..j0 + NR].copy_from_slice(&acc);
        j0 += NR;
    }
    spmm_tail(cols, vals, dense, d, out_row, j0);
}

/// Tail columns (`d % NR`): per-lane scalar chains, same ascending-`t`
/// order per element.
fn spmm_tail(cols: &[usize], vals: &[f32], dense: &[f32], d: usize, out_row: &mut [f32], j0: usize) {
    if j0 == d {
        return;
    }
    let mut acc = [0.0f32; NR];
    let width = d - j0;
    acc[..width].copy_from_slice(&out_row[j0..d]);
    for (&c, &v) in cols.iter().zip(vals) {
        let src = &dense[c * d + j0..c * d + d];
        for (a, &s) in acc[..width].iter_mut().zip(src) {
            *a += v * s;
        }
    }
    out_row[j0..d].copy_from_slice(&acc[..width]);
}

/// # Safety
/// Requires AVX; same slice contracts as [`spmm_row_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn spmm_row_avx(cols: &[usize], vals: &[f32], dense: &[f32], d: usize, out_row: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut j0 = 0;
    while j0 + NR <= d {
        let op = out_row.as_mut_ptr().add(j0);
        let mut a0 = _mm256_loadu_ps(op);
        let mut a1 = _mm256_loadu_ps(op.add(8));
        for (&c, &v) in cols.iter().zip(vals) {
            let vv = _mm256_set1_ps(v);
            let sp = dense.as_ptr().add(c * d + j0);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vv, _mm256_loadu_ps(sp)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(vv, _mm256_loadu_ps(sp.add(8))));
        }
        _mm256_storeu_ps(op, a0);
        _mm256_storeu_ps(op.add(8), a1);
        j0 += NR;
    }
    spmm_tail(cols, vals, dense, d, out_row, j0);
}

// ---------------------------------------------------------------------------
// k-major batched dots (HNSW candidate batches)
// ---------------------------------------------------------------------------

/// `acc[t] += Σ_k q[k] · panel[k·b + t]` for `b` lanes of a k-major panel.
/// Each lane is an independent ascending-`k` chain, so every implementation
/// (and any lane tiling) is bitwise equal to [`dot_kmajor_oracle`].
pub fn dot_kmajor(kern: Kernel, q: &[f32], panel: &[f32], b: usize, acc: &mut [f32]) {
    debug_assert!(panel.len() >= q.len() * b);
    debug_assert_eq!(acc.len(), b);
    match kern {
        Kernel::Scalar => dot_kmajor_oracle(q, panel, b, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: gated on runtime AVX detection in `select`.
        Kernel::Avx => unsafe { dot_kmajor_avx(q, panel, b, acc) },
        _ => {
            // The k-outer saxpy the autovectorizer already handles well.
            for (k, &qk) in q.iter().enumerate() {
                for (a, &x) in acc.iter_mut().zip(&panel[k * b..k * b + b]) {
                    *a += qk * x;
                }
            }
        }
    }
}

/// The retained scalar oracle: one lane at a time, ascending `k`.
pub fn dot_kmajor_oracle(q: &[f32], panel: &[f32], b: usize, acc: &mut [f32]) {
    for (t, a) in acc.iter_mut().enumerate() {
        for (k, &qk) in q.iter().enumerate() {
            *a += qk * panel[k * b + t];
        }
    }
}

/// # Safety
/// Requires AVX; same slice contracts as [`dot_kmajor`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn dot_kmajor_avx(q: &[f32], panel: &[f32], b: usize, acc: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut t0 = 0;
    while t0 + 8 <= b {
        let ap = acc.as_mut_ptr().add(t0);
        let mut av = _mm256_loadu_ps(ap);
        for (k, &qk) in q.iter().enumerate() {
            let qv = _mm256_set1_ps(qk);
            let xv = _mm256_loadu_ps(panel.as_ptr().add(k * b + t0));
            av = _mm256_add_ps(av, _mm256_mul_ps(qv, xv));
        }
        _mm256_storeu_ps(ap, av);
        t0 += 8;
    }
    for t in t0..b {
        let a = acc.get_unchecked_mut(t);
        for (k, &qk) in q.iter().enumerate() {
            *a += qk * *panel.get_unchecked(k * b + t);
        }
    }
}

// ---------------------------------------------------------------------------
// 4-way row dots (exact per-query scans)
// ---------------------------------------------------------------------------

/// Dots of `q` against four equal-length rows with four independent
/// accumulators. Each dot is the plain sequential ascending-`k` chain —
/// bitwise identical to summing each row alone — but the four chains
/// interleave, hiding add latency in the serve path's exact scans.
pub fn dot4(q: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> [f32; 4] {
    let mut acc = [0.0f32; 4];
    for (k, &qk) in q.iter().enumerate() {
        acc[0] += qk * r0[k];
        acc[1] += qk * r1[k];
        acc[2] += qk * r2[k];
        acc[3] += qk * r3[k];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        // Deterministic, sign-varied, non-round values.
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as i32 % 1000) as f32 / 97.0
            })
            .collect()
    }

    fn all_kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar, Kernel::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            ks.push(Kernel::Avx);
        }
        ks
    }

    #[test]
    fn gemm_matches_oracle_bitwise_across_kernels_and_shapes() {
        // Deliberately awkward shapes: tails in every dimension, k spanning
        // multiple KC blocks, single rows/cols.
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (4, 16, 16), (5, 2, 17), (9, 300, 33), (17, 31, 19), (2, 600, 5)]
        {
            let a = fill(m as u64 * 31 + 1, m * k);
            let b = fill(n as u64 * 17 + 2, k * n);
            let mut want = fill(7, m * n);
            let seed_out = want.clone();
            gemm_oracle(m, k, n, &a, &b, &mut want, Epilogue::None);
            for kern in all_kernels() {
                let mut got = seed_out.clone();
                with_kernel(kern, || gemm_into(m, k, n, &a, &b, &mut got, Epilogue::None));
                assert_eq!(got, want, "{kern:?} differs from oracle at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn gemm_bias_relu_epilogue_matches_unfused_bitwise() {
        let (m, k, n) = (13, 21, 37);
        let a = fill(3, m * k);
        let b = fill(4, k * n);
        let bias = fill(5, n);
        let mut unfused = vec![0.0; m * n];
        gemm_oracle(m, k, n, &a, &b, &mut unfused, Epilogue::None);
        for (i, o) in unfused.iter_mut().enumerate() {
            *o = (*o + bias[i % n]).max(0.0);
        }
        for kern in all_kernels() {
            let mut got = vec![0.0; m * n];
            with_kernel(kern, || gemm_into(m, k, n, &a, &b, &mut got, Epilogue::BiasRelu(&bias)));
            assert_eq!(got, unfused, "{kern:?} fused epilogue differs");
        }
    }

    #[test]
    fn gemm_zero_k_applies_epilogue_only() {
        let bias = [1.0, -2.0];
        for kern in all_kernels() {
            let mut out = vec![-0.5, 3.0, -0.5, 3.0];
            with_kernel(kern, || gemm_into(2, 0, 2, &[], &[], &mut out, Epilogue::BiasRelu(&bias)));
            assert_eq!(out, vec![0.5, 1.0, 0.5, 1.0], "{kern:?}");
        }
    }

    #[test]
    fn gemm_accumulates_into_nonzero_out() {
        let (m, k, n) = (6, 10, 11);
        let a = fill(8, m * k);
        let b = fill(9, k * n);
        let init = fill(10, m * n);
        let mut want = init.clone();
        gemm_oracle(m, k, n, &a, &b, &mut want, Epilogue::None);
        for kern in all_kernels() {
            let mut got = init.clone();
            with_kernel(kern, || gemm_into(m, k, n, &a, &b, &mut got, Epilogue::None));
            assert_eq!(got, want, "{kern:?}");
        }
    }

    #[test]
    fn spmm_row_matches_oracle_bitwise() {
        for d in [1, 7, 16, 32, 33, 50] {
            let dense = fill(d as u64, 20 * d);
            let cols = [3usize, 0, 19, 7, 7, 11];
            let vals = fill(99, cols.len());
            let mut want = fill(1, d);
            let seed_out = want.clone();
            spmm_row_oracle(&cols, &vals, &dense, d, &mut want);
            for kern in all_kernels() {
                let mut got = seed_out.clone();
                spmm_row(kern, &cols, &vals, &dense, d, &mut got);
                assert_eq!(got, want, "{kern:?} spmm_row differs at d={d}");
            }
        }
    }

    #[test]
    fn dot_kmajor_matches_oracle_bitwise() {
        for b in [1, 3, 8, 9, 16, 31] {
            for k in [1, 4, 16, 33] {
                let q = fill(b as u64 + 1, k);
                let panel = fill(k as u64 + 2, k * b);
                let mut want = vec![0.0; b];
                dot_kmajor_oracle(&q, &panel, b, &mut want);
                for kern in all_kernels() {
                    let mut got = vec![0.0; b];
                    dot_kmajor(kern, &q, &panel, b, &mut got);
                    assert_eq!(got, want, "{kern:?} dot_kmajor differs at b={b} k={k}");
                }
            }
        }
    }

    #[test]
    fn dot4_matches_single_chains() {
        let q = fill(1, 23);
        let rows: Vec<Vec<f32>> = (0..4).map(|i| fill(i + 10, 23)).collect();
        let got = dot4(&q, &rows[0], &rows[1], &rows[2], &rows[3]);
        for (i, row) in rows.iter().enumerate() {
            let mut want = 0.0f32;
            for (k, &qk) in q.iter().enumerate() {
                want += qk * row[k];
            }
            assert_eq!(got[i], want, "lane {i}");
        }
    }

    #[test]
    fn with_kernel_restores_previous_selection() {
        let outer = select();
        with_kernel(Kernel::Scalar, || {
            assert_eq!(select(), Kernel::Scalar);
            with_kernel(Kernel::Portable, || assert_eq!(select(), Kernel::Portable));
            assert_eq!(select(), Kernel::Scalar);
        });
        assert_eq!(select(), outer);
    }
}
