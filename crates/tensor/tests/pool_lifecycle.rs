//! Lifecycle tests for the persistent worker pool behind `tensor::parallel`:
//! results stay bitwise identical across thread counts, the pool resizes
//! mid-run without teardown, concurrent dispatch from plain threads (the
//! serve request-worker shape) falls back inline instead of deadlocking, and
//! a panicking region never poisons the pool.

use std::sync::atomic::{AtomicUsize, Ordering};

use gnn4tdl_tensor::{parallel, CsrMatrix, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A compound workload touching every dispatch shape the trainers use:
/// tiled GEMM (`par_chunks_mut`), SpMM (whole-row chunks), a reduction, and
/// `par_map`. Returns the result bits so comparisons are exact.
fn workload(seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::randn(97, 64, 0.0, 1.0, &mut rng);
    let b = Matrix::randn(64, 41, 0.0, 1.0, &mut rng);
    let mut triplets = Vec::new();
    for r in 0..200 {
        for _ in 0..5 {
            triplets.push((r, rng.gen_range(0..97usize), rng.gen_range(-1.0f32..1.0)));
        }
    }
    let sp = CsrMatrix::from_triplets(200, 97, &triplets);
    let dense = a.matmul(&b);
    let mixed = sp.spmm(&a);
    let total = dense.sum() + mixed.frobenius_norm();
    let mut bits: Vec<u32> = dense.data().iter().chain(mixed.data()).map(|v| v.to_bits()).collect();
    bits.push(total.to_bits());
    bits
}

#[test]
fn workload_bits_are_identical_at_one_two_and_available_threads() {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let baseline = parallel::with_threads(1, || workload(7));
    for threads in [1, 2, avail, 6] {
        let got = parallel::with_threads(threads, || workload(7));
        assert_eq!(got, baseline, "workload bits changed at {threads} threads");
    }
}

#[test]
fn pool_resizes_mid_run_via_set_threads() {
    // Process-wide resizes while work is flowing: the pool only grows, and
    // smaller counts dispatch to a prefix subset — results never change.
    // (Other tests in this binary use thread-local `with_threads` overrides,
    // which take precedence over the global knob, so this cannot race them.)
    let baseline = parallel::with_threads(1, || workload(21));
    for &n in &[2usize, 5, 3, 1, 4] {
        parallel::set_threads(n);
        assert_eq!(parallel::current_threads(), n);
        assert_eq!(workload(21), baseline, "workload bits changed after set_threads({n})");
    }
    parallel::set_threads(0); // restore the default resolution chain

    // A region that finds another test's broadcast in flight runs inline
    // and spawns nothing, so the largest request is retried until one
    // dispatch wins the broadcast lock.
    for _ in 0..1000 {
        if parallel::pool_size() >= 4 {
            break;
        }
        parallel::set_threads(5);
        assert_eq!(workload(21), baseline, "workload bits changed after set_threads(5)");
        parallel::set_threads(0);
        std::thread::yield_now();
    }
    assert!(parallel::pool_size() >= 4, "pool should have grown to cover the largest request");
}

#[test]
fn concurrent_dispatch_from_plain_threads_is_deadlock_free() {
    // The serve shape: several request workers all hit parallel primitives
    // at once. At most one wins the broadcast lock; the rest must run their
    // region inline rather than queue up — so this finishes even on a
    // single-core host, and every thread gets the same bits.
    let baseline = parallel::with_threads(1, || workload(3));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8).map(|_| s.spawn(|| parallel::with_threads(4, || workload(3)))).collect();
        for h in handles {
            assert_eq!(h.join().expect("request worker panicked"), baseline);
        }
    });
}

#[test]
fn nested_dispatch_inside_a_region_runs_inline() {
    let rows: Vec<usize> = (0..64).collect();
    let got = parallel::with_threads(4, || {
        parallel::par_map(&rows, |_, &r| {
            // inner region: a pool worker dispatching again must not hang
            let inner: Vec<usize> = parallel::par_map(&rows, |_, &c| r * 100 + c);
            inner.iter().sum::<usize>()
        })
    });
    let want: Vec<usize> = rows.iter().map(|&r| rows.iter().map(|&c| r * 100 + c).sum()).collect();
    assert_eq!(got, want);
}

#[test]
fn panic_in_region_propagates_and_pool_is_reusable() {
    let trips = AtomicUsize::new(0);
    for round in 0..3 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel::with_threads(4, || {
                let items: Vec<usize> = (0..32).collect();
                parallel::par_map(&items, |_, &i| {
                    if i == 17 {
                        trips.fetch_add(1, Ordering::Relaxed);
                        panic!("injected chunk failure (round {round})");
                    }
                    i * 2
                })
            })
        }));
        assert!(result.is_err(), "round {round}: injected panic must propagate to the caller");
    }
    assert_eq!(trips.load(Ordering::Relaxed), 3);
    // the pool must come back clean: same workload, same bits, no poison
    let baseline = parallel::with_threads(1, || workload(11));
    assert_eq!(parallel::with_threads(4, || workload(11)), baseline);
}

/// Work per chunk in the dispatch gate: two 1 KiB chunks, so the region
/// body is trivial and per-region latency is dominated by the handoff
/// (pool broadcast vs thread spawn), which is what the gate compares.
const DISPATCH_ELEMS: usize = 2048;
const DISPATCH_REPS: usize = 2000;

/// Best-of-3 mean per-region latency (µs) of `f` over `DISPATCH_REPS` runs.
fn dispatch_us(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        for _ in 0..DISPATCH_REPS {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best / DISPATCH_REPS as f64 * 1e6
}

/// Timing gate (release only): a two-chunk `par_chunks_mut` on the
/// persistent pool (one helper broadcast + join barrier per call) must be
/// at least 1.5x faster than the pre-pool strategy of spawning a scoped
/// helper thread per region.
#[test]
#[ignore = "timing gate: cargo test --release -- --ignored gate_"]
fn gate_pooled_dispatch_beats_scoped_spawn() {
    let mut buf = vec![0.0f32; DISPATCH_ELEMS];
    let pooled_us = parallel::with_threads(2, || {
        dispatch_us(|| {
            parallel::par_chunks_mut(&mut buf, DISPATCH_ELEMS / 2, |_, chunk| {
                for v in chunk {
                    *v += 1.0;
                }
            });
        })
    });
    let scoped_us = dispatch_us(|| {
        let (head, tail) = buf.split_at_mut(DISPATCH_ELEMS / 2);
        std::thread::scope(|s| {
            s.spawn(|| {
                for v in tail.iter_mut() {
                    *v += 1.0;
                }
            });
            for v in head.iter_mut() {
                *v += 1.0;
            }
        });
    });
    let speedup = scoped_us / pooled_us;
    eprintln!("pooled dispatch {speedup:.2}x scoped spawn ({pooled_us:.2}us vs {scoped_us:.2}us per region)");
    assert!(
        speedup.is_finite() && speedup >= 1.5,
        "pooled dispatch is only {speedup:.2}x the scoped-spawn baseline \
         ({pooled_us:.2}us vs {scoped_us:.2}us per region), below the required 1.5x"
    );
}
