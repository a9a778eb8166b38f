//! Backend-level guarantees for the [`NeighborIndex`] API: the approximate
//! HNSW index must hit the recall gate against the exact blocked-GEMM
//! search, and both backends must be bitwise deterministic — across worker
//! counts and across identically-seeded rebuilds.

use gnn4tdl_construct::{
    build_index, knn_distances, knn_distances_with, knn_edges, knn_edges_with, IndexKind, Similarity,
};
use gnn4tdl_data::encode_all;
use gnn4tdl_data::synth::{gaussian_clusters, ClustersConfig};
use gnn4tdl_tensor::{parallel, pool, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seeded Gaussian blobs: `classes` clusters of equal size in `d`
/// dimensions, centers on scaled axes so the clusters are well separated.
fn blobs(n: usize, d: usize, classes: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::randn(n, d, 0.0, 1.0, &mut rng);
    for i in 0..n {
        let c = i % classes;
        x.set(i, c % d, x.get(i, c % d) + 6.0 * (c + 1) as f32);
    }
    x
}

fn hnsw(seed: u64) -> IndexKind {
    IndexKind::Hnsw { m: 16, ef_construction: 128, ef_search: 64, seed }
}

/// Neighbor ids + similarity bit patterns for every row — the strictest
/// comparable form of an index's output.
fn query_all_bits(x: &Matrix, kind: &IndexKind, k: usize) -> Vec<Vec<(usize, u32)>> {
    let idx = build_index(x, Similarity::Euclidean, kind);
    idx.query_all(k).into_iter().map(|row| row.into_iter().map(|(j, s)| (j, s.to_bits())).collect()).collect()
}

/// Fraction of the true k-nearest neighbors the approximate rows recovered.
fn recall(exact: &[Vec<(usize, f32)>], approx: &[Vec<(usize, f32)>]) -> f64 {
    let mut hits = 0usize;
    let mut total = 0usize;
    for (t, a) in exact.iter().zip(approx) {
        let truth: std::collections::HashSet<usize> = t.iter().map(|&(j, _)| j).collect();
        total += truth.len();
        hits += a.iter().filter(|&&(j, _)| truth.contains(&j)).count();
    }
    hits as f64 / total as f64
}

#[test]
fn hnsw_recall_at_10_meets_gate() {
    let k = 10;
    let x = blobs(2000, 16, 3, 7);
    let exact = build_index(&x, Similarity::Euclidean, &IndexKind::Exact).query_all(k);
    let approx = build_index(&x, Similarity::Euclidean, &hnsw(42)).query_all(k);
    let recall = recall(&exact, &approx);
    assert!(recall >= 0.95, "recall@{k} = {recall:.4} below the 0.95 gate");
}

/// Timing gate (release only): kNN graph construction at n=50k — build an
/// index, self-query every row — with the tuned HNSW (m=11, ef_construction
/// 44, ef_search 30) must keep recall@10 ≥ 0.95 against the exact search
/// and run at least 5x faster than it.
#[test]
#[ignore = "timing gate: cargo test --release -- --ignored gate_"]
fn gate_hnsw_construction_recall_and_speedup_at_50k() {
    let k = 10;
    pool::enable();
    let mut rng = StdRng::seed_from_u64(42);
    let dataset = gaussian_clusters(
        &ClustersConfig {
            n: 50_000,
            informative: 12,
            noise_features: 4,
            classes: 3,
            cluster_std: 0.8,
            center_scale: 3.0,
        },
        &mut rng,
    );
    let features = encode_all(&dataset.table).features;
    let kind = IndexKind::Hnsw { m: 11, ef_construction: 44, ef_search: 30, seed: 42 };

    let t = std::time::Instant::now();
    let approx = build_index(&features, Similarity::Euclidean, &kind).query_all(k);
    let hnsw_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let exact = build_index(&features, Similarity::Euclidean, &IndexKind::Exact).query_all(k);
    let exact_s = t.elapsed().as_secs_f64();

    let recall = recall(&exact, &approx);
    let speedup = exact_s / hnsw_s;
    eprintln!("n=50000: recall@{k} {recall:.4}, hnsw {hnsw_s:.2}s vs exact {exact_s:.2}s ({speedup:.2}x)");
    assert!(recall >= 0.95, "recall@{k} {recall:.4} is below the required 0.95");
    assert!(speedup >= 5.0, "hnsw speedup {speedup:.2}x is below the required 5x");
}

#[test]
fn both_backends_are_thread_invariant() {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let x = blobs(600, 12, 3, 11);
    for kind in [IndexKind::Exact, hnsw(5)] {
        let seq = parallel::with_threads(1, || query_all_bits(&x, &kind, 8));
        for threads in [2, avail] {
            let par = parallel::with_threads(threads, || query_all_bits(&x, &kind, 8));
            assert_eq!(par, seq, "{} differs at {threads} threads", kind.name());
        }
    }
}

#[test]
fn seeded_rebuilds_are_bitwise_identical() {
    let x = blobs(800, 10, 4, 3);
    let a = query_all_bits(&x, &hnsw(9), 6);
    let b = query_all_bits(&x, &hnsw(9), 6);
    assert_eq!(a, b, "identically-seeded HNSW rebuilds diverged");
    // A different seed redraws every node's level; on easy blobs the final
    // neighbor lists may still agree, so only determinism is asserted here
    // (seed propagation is covered by the unit tests on `draw_level`).
}

#[test]
fn exact_backend_matches_legacy_entry_points_bitwise() {
    let x = blobs(300, 8, 3, 13);
    for k in [1, 5, 9] {
        let legacy_edges = knn_edges(&x, Similarity::Cosine, k);
        let via_index = knn_edges_with(&x, Similarity::Cosine, k, &IndexKind::Exact);
        assert_eq!(legacy_edges, via_index, "knn_edges k={k}");
        let legacy_dists = knn_distances(&x, k);
        let via_index_d = knn_distances_with(&x, k, &IndexKind::Exact);
        assert_eq!(legacy_dists, via_index_d, "knn_distances k={k}");
    }
}

#[test]
fn query_k_excludes_and_caps() {
    let x = blobs(120, 6, 2, 17);
    for kind in [IndexKind::Exact, hnsw(1)] {
        let idx = build_index(&x, Similarity::Euclidean, &kind);
        for row in [0usize, 59, 119] {
            let res = idx.query_k(&x, row, 5, Some(row));
            assert_eq!(res.len(), 5, "{}", kind.name());
            assert!(res.iter().all(|&(j, _)| j != row), "{} returned the excluded row", kind.name());
            assert!(
                res.windows(2).all(|w| w[0].1 >= w[1].1),
                "{} results not sorted by similarity",
                kind.name()
            );
        }
    }
}
