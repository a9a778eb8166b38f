//! Per-layer probes the traced phase runs on each workload's own shapes:
//! kernel throughput, parallel dispatch latency, one epoch of neighbor
//! sampling and kNN-graph recall.

use std::collections::HashSet;
use std::time::Instant;

use gnn4tdl_construct::{ExactIndex, NeighborIndex, Similarity};
use gnn4tdl_graph::Graph;
use gnn4tdl_tensor::{kernel, parallel, CsrMatrix, Matrix};
use gnn4tdl_train::NeighborSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Metrics;

/// Work per timed kernel repetition set, in floating-point operations.
const KERNEL_FLOPS: f64 = 2e8;

fn random_values(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Best-of-repetitions time of `f` in seconds, with enough repetitions
/// for `flops_per_call` to add up to [`KERNEL_FLOPS`].
fn best_time(flops_per_call: f64, mut f: impl FnMut()) -> f64 {
    let reps = ((KERNEL_FLOPS / flops_per_call).ceil() as usize).clamp(3, 2000);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// `kernel::gemm_into` throughput in GFLOP/s at `m×k · k×n`.
pub fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a = random_values(m * k, 1);
    let b = random_values(k * n, 2);
    let mut out = vec![0.0f32; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    let secs = best_time(flops, || {
        out.fill(0.0);
        kernel::gemm_into(m, k, n, &a, &b, &mut out, kernel::Epilogue::None);
    });
    flops / secs / 1e9
}

/// `CsrMatrix::spmm` throughput in GFLOP/s of `adj` times a dense
/// `adj.cols()×cols` matrix.
pub fn spmm_gflops(adj: &CsrMatrix, cols: usize) -> f64 {
    let dense = Matrix::from_vec(adj.cols(), cols, random_values(adj.cols() * cols, 3));
    let flops = 2.0 * (adj.nnz() * cols) as f64;
    let secs = best_time(flops, || {
        std::hint::black_box(adj.spmm(&dense));
    });
    flops / secs / 1e9
}

/// Latency in µs of one two-chunk `par_chunks_mut` region on two threads:
/// the region body is trivial, so this is the pool's broadcast and join.
pub fn dispatch_us() -> f64 {
    const ELEMS: usize = 2048;
    const REPS: usize = 2000;
    let mut buf = vec![0.0f32; ELEMS];
    parallel::with_threads(2, || {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            for _ in 0..REPS {
                parallel::par_chunks_mut(&mut buf, ELEMS / 2, |_, chunk| {
                    for v in chunk {
                        *v += 1.0;
                    }
                });
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        best / REPS as f64 * 1e6
    })
}

/// One epoch of `NeighborSampler(128, [4, 3])` blocks over `seeds`.
pub struct SampleEpoch {
    pub ms: f64,
    pub mean_nodes: f64,
    pub mean_edges: f64,
}

pub fn sample_epoch(
    sampler: &NeighborSampler,
    graph: &Graph,
    features: &Matrix,
    seeds: &[usize],
) -> SampleEpoch {
    let batches = sampler.epoch_batches(seeds, 0);
    let (mut nodes, mut edges) = (0usize, 0usize);
    let t = Instant::now();
    for (b, batch) in batches.iter().enumerate() {
        let block = sampler.sample_block(graph, features, batch, 0, b as u64);
        nodes += block.num_nodes();
        edges += block.num_edges();
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let count = batches.len().max(1) as f64;
    SampleEpoch { ms, mean_nodes: nodes as f64 / count, mean_edges: edges as f64 / count }
}

/// Sets the per-layer metrics every workload measures the same way:
/// sampling (`epoch`), recall of `graph`, GEMM at the workload's forward
/// shape `forward_rows × hidden × hidden`, SpMM over `graph` and dispatch.
pub fn shared(
    metrics: &mut Metrics,
    epoch: &SampleEpoch,
    graph: &Graph,
    features: &Matrix,
    forward_rows: usize,
    hidden: usize,
    seed: u64,
) {
    metrics.set("train.sample_block_ms", epoch.ms);
    metrics.set("train.block_nodes", epoch.mean_nodes);
    metrics.set("train.block_edges", epoch.mean_edges);
    metrics.set("construct.recall", graph_recall(features, graph, RECALL_K, RECALL_ROWS, seed));
    metrics.set("tensor.gemm_gflops", gemm_gflops(forward_rows.max(1), hidden, hidden));
    metrics.set("tensor.spmm_gflops", spmm_gflops(graph.adjacency(), hidden));
    metrics.set("tensor.dispatch_us", dispatch_us());
}

/// Neighbors per row and rows sampled by the recall probe.
const RECALL_K: usize = 10;
const RECALL_ROWS: usize = 500;

/// Share of each sampled row's exact `k` nearest neighbors that are among
/// its neighbors in `graph`, over `rows` rows drawn from `seed`.
pub fn graph_recall(features: &Matrix, graph: &Graph, k: usize, rows: usize, seed: u64) -> f64 {
    let exact = ExactIndex::new(features, Similarity::Euclidean);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut hits, mut total) = (0usize, 0usize);
    for _ in 0..rows {
        let i = rng.gen_range(0..features.rows());
        let linked: HashSet<usize> = graph.neighbor_ids(i).iter().copied().collect();
        let truth = exact.query_k(features, i, k, Some(i));
        total += truth.len();
        hits += truth.iter().filter(|(j, _)| linked.contains(j)).count();
    }
    hits as f64 / total.max(1) as f64
}
