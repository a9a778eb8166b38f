//! Dependency-free parallel compute substrate built on a persistent worker
//! pool.
//!
//! Every primitive here is **deterministic by construction**: work is split
//! into chunks whose boundaries depend only on the input size (never on the
//! thread count), each chunk is computed exactly as the sequential code
//! would, and chunks write disjoint regions. Threads only change *which
//! worker* computes a chunk, so results are bit-for-bit identical for any
//! thread count — including 1, which simply runs the sequential fallback.
//!
//! # Thread-count resolution
//!
//! [`current_threads`] resolves the worker count with this precedence:
//!
//! 1. a scoped override installed by [`with_threads`] (thread-local, so
//!    parallel-running tests cannot race each other),
//! 2. a process-wide default installed by [`set_threads`],
//! 3. the `GNN4TDL_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! Setting any of these to `1` forces fully sequential execution — the
//! deterministic single-thread mode required for reproducing experiment
//! outputs bit-for-bit (which, by the design above, match the parallel
//! outputs anyway).
//!
//! # Pool lifecycle
//!
//! Workers are **persistent**: the first multi-threaded dispatch lazily
//! spawns helper threads that park on a condvar and stay alive for the rest
//! of the process. A parallel region is a *generation-stamped broadcast*:
//! the coordinator publishes a job pointer under the pool lock, bumps the
//! generation, wakes the workers, runs a share of the work itself, then
//! blocks on a join barrier until every participating worker has checked
//! out. Dispatching a region costs two condvar round-trips (~1µs) instead
//! of the ~10µs-per-thread spawn/join of the old `std::thread::scope`
//! design, and because the threads never die, their thread-local GEMM pack
//! scratch ([`crate::kernel`]) stays warm across regions.
//!
//! Thread-count changes *over-provision*: the pool grows to the largest
//! count ever requested (capped at `MAX_HELPERS`) and smaller regions
//! dispatch to a prefix subset — workers whose index is beyond the region's
//! worker count skip the generation and go back to sleep. `set_threads`,
//! `with_threads`, and `GNN4TDL_THREADS` therefore take effect immediately,
//! with no teardown.
//!
//! Nested or concurrent dispatch **falls back inline**: pool workers
//! themselves, and any thread that finds a broadcast already in flight
//! (e.g. a `serve` request worker or the minibatch prefetch sampler racing
//! the training thread), simply run the whole region on the calling thread.
//! That is always safe — a region's result does not depend on how many
//! workers execute it — and it makes deadlock impossible by construction:
//! nobody ever *waits* for a pool slot.
//!
//! A panic inside a region is caught at the worker, carried through the
//! join barrier, and re-raised on the coordinator; the pool itself is never
//! poisoned and the next dispatch reuses it.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

/// Process-wide worker-count override; 0 = unset.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped worker-count override; 0 = unset.
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of workers parallel primitives will use right now.
pub fn current_threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local > 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Ok(value) = std::env::var("GNN4TDL_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Installs a process-wide worker count (`0` clears it, restoring the
/// `GNN4TDL_THREADS` / `available_parallelism` default). Takes effect on
/// the next dispatch; the persistent pool only ever grows, so shrinking
/// just narrows the dispatched subset.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Runs `f` with the worker count forced to `n` on this thread only.
///
/// The override nests and is restored even if `f` panics. Being
/// thread-local, concurrent tests exercising different thread counts
/// cannot interfere with one another.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_THREADS.with(|c| {
        let prev = c.get();
        c.set(n);
        prev
    });
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// Hard cap on helper threads ever spawned, far above any sane
/// `GNN4TDL_THREADS`; requests beyond it dispatch to a subset.
const MAX_HELPERS: usize = 255;

/// Lifetime-erased pointer to the region closure. The coordinator blocks on
/// the join barrier before its stack frame (and thus the pointee) can go
/// away, so workers only ever dereference a live closure.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn() + Sync));
// SAFETY: the pointee is `Sync` (shared-call safe) and outlives every use
// (see the barrier argument on `JobPtr`), so sending the pointer between
// threads is sound.
unsafe impl Send for JobPtr {}

struct Shared {
    /// Broadcast stamp: bumped once per dispatched region.
    generation: u64,
    /// The in-flight region closure, `Some` only between broadcast and
    /// barrier release.
    job: Option<JobPtr>,
    /// Workers participating in the current generation (a prefix subset of
    /// the spawned workers).
    active: usize,
    /// Participating workers that have not yet checked out.
    remaining: usize,
    /// First worker panic of the current generation, re-raised by the
    /// coordinator after the barrier.
    panic: Option<Box<dyn Any + Send>>,
    /// Helper threads spawned so far (grow-only).
    spawned: usize,
}

static SHARED: Mutex<Shared> =
    Mutex::new(Shared { generation: 0, job: None, active: 0, remaining: 0, panic: None, spawned: 0 });
/// Wakes parked workers when a new generation is published.
static START: Condvar = Condvar::new();
/// Wakes the coordinator when the last participating worker checks out.
static DONE: Condvar = Condvar::new();
/// Serializes broadcasts; `try_lock` failure means another thread is
/// mid-dispatch and the caller runs its region inline instead of waiting.
static DISPATCH: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set once on pool worker threads: any dispatch from one runs inline.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Poison-tolerant lock: a panic while holding the pool lock (or a queue
/// lock in a primitive) must not wedge every later dispatch.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of persistent helper threads spawned so far (diagnostics/tests).
pub fn pool_size() -> usize {
    lock(&SHARED).spawned
}

/// Spawns helpers until `want` exist. Spawn failure (thread exhaustion) is
/// tolerated: dispatch proceeds with however many workers exist.
fn spawn_up_to(shared: &mut Shared, want: usize) {
    while shared.spawned < want {
        let index = shared.spawned;
        let spawned = std::thread::Builder::new()
            .name(format!("gnn4tdl-par-{index}"))
            .spawn(move || worker_main(index));
        if spawned.is_err() {
            break;
        }
        shared.spawned += 1;
    }
}

fn worker_main(index: usize) {
    IS_POOL_WORKER.with(|flag| flag.set(true));
    let mut seen_generation = 0u64;
    loop {
        let mut shared = lock(&SHARED);
        while shared.generation == seen_generation {
            shared = START.wait(shared).unwrap_or_else(PoisonError::into_inner);
        }
        seen_generation = shared.generation;
        if index >= shared.active {
            // Not part of this generation's subset; back to sleep.
            continue;
        }
        let job = shared.job.expect("active generation carries a job");
        drop(shared);
        // SAFETY: `job` was published for this generation and the
        // coordinator cannot pass the barrier (and free the closure) until
        // this worker decrements `remaining` below.
        let task = unsafe { &*job.0 };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        let mut shared = lock(&SHARED);
        if let Err(payload) = result {
            shared.panic.get_or_insert(payload);
        }
        shared.remaining -= 1;
        if shared.remaining == 0 {
            DONE.notify_all();
        }
    }
}

/// Runs `task` on the calling thread plus up to `helpers` pool workers, all
/// racing the same claim loop; returns after every participant finishes.
/// Worker panics are re-raised here (worker panic wins over a coordinator
/// panic), and the pool stays usable afterwards.
///
/// Falls back to running `task` inline — which must be complete on its own,
/// i.e. a claim loop that drains the whole region — when the caller is
/// itself a pool worker, another broadcast is in flight, or no helper could
/// be spawned.
fn run_broadcast(helpers: usize, task: &(dyn Fn() + Sync)) {
    if helpers == 0 || IS_POOL_WORKER.with(Cell::get) {
        task();
        return;
    }
    let dispatch = match DISPATCH.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            // Another thread (or an outer region on this thread) is
            // mid-broadcast. Inline execution is always correct: results
            // never depend on the worker count.
            task();
            return;
        }
    };
    // Erase the borrow lifetime; sound because this function does not
    // return until the barrier below observes `remaining == 0`.
    let job = JobPtr(unsafe { std::mem::transmute::<&(dyn Fn() + Sync), *const (dyn Fn() + Sync)>(task) });
    let active = {
        let mut shared = lock(&SHARED);
        spawn_up_to(&mut shared, helpers.min(MAX_HELPERS));
        let active = helpers.min(shared.spawned);
        if active > 0 {
            shared.generation = shared.generation.wrapping_add(1);
            shared.job = Some(job);
            shared.active = active;
            shared.remaining = active;
            START.notify_all();
        }
        active
    };
    if active == 0 {
        drop(dispatch);
        task();
        return;
    }
    let coordinator = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
    let worker_panic = {
        let mut shared = lock(&SHARED);
        while shared.remaining > 0 {
            shared = DONE.wait(shared).unwrap_or_else(PoisonError::into_inner);
        }
        shared.job = None;
        shared.panic.take()
    };
    drop(dispatch);
    if let Some(payload) = worker_panic {
        std::panic::resume_unwind(payload);
    }
    if let Err(payload) = coordinator {
        std::panic::resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Public primitives
// ---------------------------------------------------------------------------

/// Applies `f(chunk_index, chunk)` over `data` split into chunks of
/// `chunk_len` (last chunk may be shorter).
///
/// Chunk boundaries depend only on `data.len()` and `chunk_len`, so the
/// result is identical for any worker count. Workers claim chunks from a
/// shared queue, which load-balances uneven chunks (e.g. sparse rows).
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    // Counted before the sequential fallback so the ledger is identical at
    // every thread count (the snapshot tests rely on this).
    crate::obs::PAR_CHUNKS.add(n_chunks as u64);
    let workers = current_threads().min(n_chunks);
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let drain = || loop {
        let next = lock(&queue).next();
        match next {
            Some((i, chunk)) => f(i, chunk),
            None => break,
        }
    };
    run_broadcast(workers - 1, &drain);
}

/// Like [`par_chunks_mut`] but with explicit, possibly uneven part
/// boundaries: `bounds` must start at 0, end at `data.len()`, and be
/// non-decreasing. Part `i` is `data[bounds[i]..bounds[i + 1]]`.
///
/// Used where disjoint output regions have data-dependent sizes, e.g. the
/// per-column spans of a CSR transpose.
pub fn par_parts_mut<T, F>(data: &mut [T], bounds: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n_parts = bounds.len().saturating_sub(1);
    crate::obs::PAR_CHUNKS.add(n_parts as u64);
    if n_parts == 0 {
        return;
    }
    assert_eq!(bounds[0], 0, "part bounds must start at 0");
    assert_eq!(bounds[n_parts], data.len(), "part bounds must end at data.len()");
    let workers = current_threads().min(n_parts);
    if workers <= 1 {
        let mut rest = data;
        for i in 0..n_parts {
            let (part, tail) = rest.split_at_mut(bounds[i + 1] - bounds[i]);
            f(i, part);
            rest = tail;
        }
        return;
    }
    let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(n_parts);
    let mut rest = data;
    for i in 0..n_parts {
        let (part, tail) = rest.split_at_mut(bounds[i + 1] - bounds[i]);
        parts.push((i, part));
        rest = tail;
    }
    let queue = Mutex::new(parts.into_iter());
    let drain = || loop {
        let next = lock(&queue).next();
        match next {
            Some((i, part)) => f(i, part),
            None => break,
        }
    };
    run_broadcast(workers - 1, &drain);
}

/// Maps `f(index, item)` over `items`, preserving order in the output.
///
/// Each item is computed independently; worker count only affects which
/// thread computes which item.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    crate::obs::PAR_ITEMS.add(items.len() as u64);
    let workers = current_threads().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let queue = Mutex::new(out.iter_mut().zip(items).enumerate());
    let drain = || loop {
        let next = lock(&queue).next();
        match next {
            Some((i, (slot, item))) => *slot = Some(f(i, item)),
            None => break,
        }
    };
    run_broadcast(workers - 1, &drain);
    out.into_iter().map(|slot| slot.expect("worker filled every slot")).collect()
}

/// Runs two closures, possibly concurrently, returning both results.
pub fn par_join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    crate::obs::PAR_JOINS.add(1);
    if current_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let a_cell = Mutex::new(Some(a));
    let b_cell = Mutex::new(Some(b));
    let ra_cell = Mutex::new(None);
    let rb_cell = Mutex::new(None);
    // Both participants race the same claim sequence (`a` first, then `b`);
    // each closure runs exactly once, on whichever thread claims it, and
    // the inline fallback degenerates to the sequential `a(); b()`.
    let drain = || {
        if let Some(a) = lock(&a_cell).take() {
            let ra = a();
            *lock(&ra_cell) = Some(ra);
        }
        if let Some(b) = lock(&b_cell).take() {
            let rb = b();
            *lock(&rb_cell) = Some(rb);
        }
    };
    run_broadcast(1, &drain);
    let ra = lock(&ra_cell).take().expect("closure a ran");
    let rb = lock(&rb_cell).take().expect("closure b ran");
    (ra, rb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_indices_cover_data_once() {
        for threads in [1, 2, 5] {
            with_threads(threads, || {
                let mut data = vec![0u32; 103];
                par_chunks_mut(&mut data, 10, |i, chunk| {
                    for v in chunk.iter_mut() {
                        *v += 1 + i as u32;
                    }
                });
                for (k, v) in data.iter().enumerate() {
                    assert_eq!(*v, 1 + (k / 10) as u32);
                }
            });
        }
    }

    #[test]
    fn uneven_parts_get_their_own_spans() {
        for threads in [1, 3] {
            with_threads(threads, || {
                let mut data = vec![0usize; 20];
                let bounds = [0usize, 7, 7, 12, 20];
                par_parts_mut(&mut data, &bounds, |i, part| {
                    for v in part.iter_mut() {
                        *v = i + 1;
                    }
                });
                assert!(data[..7].iter().all(|&v| v == 1));
                assert!(data[7..12].iter().all(|&v| v == 3));
                assert!(data[12..].iter().all(|&v| v == 4));
            });
        }
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..57).collect();
        for threads in [1, 4] {
            let out = with_threads(threads, || par_map(&items, |i, &x| i * 1000 + x));
            let expect: Vec<usize> = (0..57).map(|i| i * 1000 + i).collect();
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn join_returns_both() {
        for threads in [1, 2] {
            let (a, b) = with_threads(threads, || par_join(|| 6 * 7, || "ok".to_string()));
            assert_eq!(a, 42);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn with_threads_restores_after_panic() {
        with_threads(5, || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_threads(2, || panic!("boom"));
            }));
            assert!(caught.is_err());
            assert_eq!(current_threads(), 5);
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_threads(2, || {
                let mut data = vec![0u8; 16];
                par_chunks_mut(&mut data, 4, |i, _| {
                    if i == 2 {
                        panic!("worker failure");
                    }
                });
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn pool_survives_panics_and_grows_on_demand() {
        // Repeated panics must not poison the persistent pool...
        for round in 0..3 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_threads(3, || {
                    let mut data = vec![0u8; 12];
                    par_chunks_mut(&mut data, 3, |i, _| {
                        if i == round {
                            panic!("round {round}");
                        }
                    });
                });
            }));
            assert!(caught.is_err(), "round {round} did not propagate");
        }
        // ...and the very next dispatch computes normally.
        let mut data = vec![0u32; 64];
        with_threads(3, || {
            par_chunks_mut(&mut data, 8, |i, chunk| chunk.iter_mut().for_each(|v| *v = i as u32));
        });
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, (k / 8) as u32);
        }
        // A bigger request grows the pool; a smaller one dispatches a subset.
        // A region that finds another test's broadcast in flight runs
        // inline and spawns nothing, so the growing request is retried
        // until one dispatch wins the broadcast lock.
        for _ in 0..1000 {
            with_threads(6, || {
                let items: Vec<usize> = (0..30).collect();
                let out = par_map(&items, |_, &x| x * 2);
                assert_eq!(out, (0..30).map(|x| x * 2).collect::<Vec<_>>());
            });
            if pool_size() >= 2 {
                break;
            }
            std::thread::yield_now();
        }
        assert!(pool_size() >= 2, "pool never spawned persistent helpers");
        with_threads(2, || {
            let items: Vec<usize> = (0..9).collect();
            let out = par_map(&items, |_, &x| x + 1);
            assert_eq!(out, (1..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        with_threads(4, || {
            let outer: Vec<usize> = (0..8).collect();
            let out = par_map(&outer, |_, &x| {
                // Nested region: claimed by a pool worker (inline via the
                // worker flag) or by the coordinator (inline via the held
                // dispatch lock). Either way it must complete and agree
                // with the sequential result.
                let inner: Vec<usize> = (0..50).collect();
                par_map(&inner, |_, &y| x * 100 + y).iter().sum::<usize>()
            });
            let want: Vec<usize> = (0..8).map(|x| (0..50).map(|y| x * 100 + y).sum()).collect();
            assert_eq!(out, want);
        });
    }
}
