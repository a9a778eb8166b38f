//! Determinism contract of the minibatch path.
//!
//! The sampler's draws are pure splitmix64 hash streams and the kernels
//! underneath (`induced_subgraph`, `gather_rows`) are bitwise
//! thread-invariant, so identical `(seed, epoch, batch)` keys must yield
//! bitwise-identical blocks at any worker count — and a seeded
//! `fit_minibatch` refit must reproduce the trained weights bit-for-bit.

use gnn4tdl_construct::{build_instance_graph, EdgeRule, Similarity};
use gnn4tdl_data::metrics::accuracy;
use gnn4tdl_data::synth::{gaussian_clusters, ClustersConfig};
use gnn4tdl_data::{encode_all, Split};
use gnn4tdl_graph::Graph;
use gnn4tdl_nn::GcnModel;
use gnn4tdl_tensor::{parallel, Matrix, ParamStore};
use gnn4tdl_train::{
    fit, fit_minibatch, predict, NeighborSampler, NodeTask, SampledBlock, SupervisedModel, TrainConfig,
    TrainReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Circulant graph: node `u` links to `u ± 1..=d` (mod `n`) — deterministic,
/// connected, uniform degree `2d`, so fanout sampling always has choices.
fn circulant(n: usize, d: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * d);
    for u in 0..n {
        for k in 1..=d {
            edges.push((u, (u + k) % n));
        }
    }
    Graph::from_edges(n, &edges, true)
}

/// Brute-force Euclidean kNN graph — small-n test helper; the pipeline's
/// real constructor lives in `gnn4tdl-construct`.
fn knn_graph(x: &Matrix, k: usize) -> Graph {
    let n = x.rows();
    let mut edges = Vec::with_capacity(n * k);
    for i in 0..n {
        let mut dist: Vec<(f32, usize)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| {
                let d: f32 = (0..x.cols())
                    .map(|c| {
                        let diff = x.get(i, c) - x.get(j, c);
                        diff * diff
                    })
                    .sum();
                (d, j)
            })
            .collect();
        dist.sort_by(|a, b| a.partial_cmp(b).unwrap());
        edges.extend(dist.iter().take(k).map(|&(_, j)| (i, j)));
    }
    Graph::from_edges(n, &edges, true)
}

fn cluster_task(n: usize, seed: u64) -> NodeTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = gaussian_clusters(
        &ClustersConfig { n, informative: 5, classes: 3, cluster_std: 0.6, ..Default::default() },
        &mut rng,
    );
    let enc = encode_all(&data.table);
    let split = Split::stratified(data.target.labels(), 0.4, 0.2, &mut rng);
    NodeTask::classification(enc.features, data.target.labels().to_vec(), 3, split)
}

/// Everything observable about a block, floats as bits: (nodes, num_seeds,
/// indptr, indices, value bits, feature bits).
type BlockPrint = (Vec<usize>, usize, Vec<usize>, Vec<usize>, Vec<u32>, Vec<u32>);

fn fingerprint(b: &SampledBlock) -> BlockPrint {
    let adj = b.graph.adjacency();
    (
        b.nodes.clone(),
        b.num_seeds,
        adj.indptr().to_vec(),
        adj.indices().to_vec(),
        adj.values().iter().map(|v| v.to_bits()).collect(),
        b.features.data().iter().map(|v| v.to_bits()).collect(),
    )
}

fn thread_counts() -> Vec<usize> {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, avail];
    counts.dedup();
    counts
}

#[test]
fn sampled_blocks_are_bitwise_thread_invariant() {
    let g = circulant(300, 6);
    let mut rng = StdRng::seed_from_u64(5);
    let x = Matrix::randn(300, 8, 0.0, 1.0, &mut rng);
    let sampler = NeighborSampler::new(32, vec![4, 3], 17);
    let seeds: Vec<usize> = (0..300).step_by(2).collect();

    let plan_of = |threads: usize| {
        parallel::with_threads(threads, || {
            let mut out = Vec::new();
            for epoch in 0..3u64 {
                for (b, batch) in sampler.epoch_batches(&seeds, epoch).iter().enumerate() {
                    out.push(fingerprint(&sampler.sample_block(&g, &x, batch, epoch, b as u64)));
                }
            }
            out
        })
    };

    let baseline = plan_of(1);
    for t in thread_counts() {
        assert_eq!(plan_of(t), baseline, "blocks diverge at {t} threads");
    }
}

fn train_once(task: &NodeTask, graph: &Graph, model_seed: u64) -> (Vec<u32>, Vec<u32>, TrainReport) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(model_seed);
    let start = store.len();
    let enc = GcnModel::new(&mut store, graph, &[task.features.cols(), 16], 0.0, &mut rng);
    let model = SupervisedModel::new(&mut store, start, enc, 3, &mut rng);
    let sampler = NeighborSampler::new(16, vec![5, 3], 23);
    let cfg = TrainConfig { epochs: 12, patience: 0, seed: 41, ..Default::default() };
    let report = fit_minibatch(&model, &mut store, graph, task, &sampler, &cfg);
    let weights: Vec<u32> = store.iter().flat_map(|(_, _, m)| m.data().iter().map(|v| v.to_bits())).collect();
    let preds: Vec<u32> =
        predict(&model, &store, &task.features).data().iter().map(|v| v.to_bits()).collect();
    (weights, preds, report)
}

#[test]
fn seeded_refit_is_bitwise_reproducible_at_any_thread_count() {
    let task = cluster_task(160, 3);
    let g = circulant(160, 4);
    let (weights, preds, report) = train_once(&task, &g, 9);
    assert!(report.best_val_loss.is_finite());
    assert!(report.history.len() >= 2, "training should run multiple epochs");

    // Same-thread refit, then refits pinned to each worker count.
    for t in thread_counts() {
        let (w, p, r) = parallel::with_threads(t, || train_once(&task, &g, 9));
        assert_eq!(w, weights, "weights diverge at {t} threads");
        assert_eq!(p, preds, "predictions diverge at {t} threads");
        assert_eq!(r.best_epoch, report.best_epoch);
    }
}

#[test]
fn prefetched_sampling_is_bitwise_identical_to_inline() {
    // `train_once` uses the default config, so it exercises the prefetch
    // pipeline; pinning `prefetch: false` must reproduce the exact bits —
    // the sampler thread is a pure latency optimization.
    let task = cluster_task(160, 3);
    let g = circulant(160, 4);
    let train_with = |prefetch: bool| {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let start = store.len();
        let enc = GcnModel::new(&mut store, &g, &[task.features.cols(), 16], 0.0, &mut rng);
        let model = SupervisedModel::new(&mut store, start, enc, 3, &mut rng);
        let sampler = NeighborSampler::new(16, vec![5, 3], 23);
        let cfg = TrainConfig { epochs: 12, patience: 0, seed: 41, prefetch, ..Default::default() };
        let report = fit_minibatch(&model, &mut store, &g, &task, &sampler, &cfg);
        let weights: Vec<u32> =
            store.iter().flat_map(|(_, _, m)| m.data().iter().map(|v| v.to_bits())).collect();
        let preds: Vec<u32> =
            predict(&model, &store, &task.features).data().iter().map(|v| v.to_bits()).collect();
        (weights, preds, report.best_epoch)
    };
    let inline = train_with(false);
    for t in thread_counts() {
        let prefetched = parallel::with_threads(t, || train_with(true));
        assert_eq!(prefetched, inline, "prefetch diverges from inline at {t} threads");
    }
}

#[test]
fn training_loss_decreases_and_predictions_are_useful() {
    let task = cluster_task(200, 8);
    let g = knn_graph(&task.features, 6);
    let (_, preds, report) = train_once(&task, &g, 4);
    let first = report.history.first().unwrap().train_loss;
    let best: f32 = report.history.iter().map(|e| e.train_loss).fold(f32::INFINITY, f32::min);
    assert!(best < first, "minibatch training never improved the loss");

    // predictions beat chance on the test split (3 balanced classes)
    let preds_f: Vec<f32> = preds.iter().map(|&b| f32::from_bits(b)).collect();
    let labels = match &task.target {
        gnn4tdl_train::TaskTarget::Classification { labels, .. } => labels,
        gnn4tdl_train::TaskTarget::Regression { .. } => unreachable!(),
    };
    let cols = 3;
    let hits = task
        .split
        .test
        .iter()
        .filter(|&&i| {
            let row = &preds_f[i * cols..(i + 1) * cols];
            let argmax = row.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
            argmax == labels[i]
        })
        .count();
    let acc = hits as f64 / task.split.test.len() as f64;
    assert!(acc > 0.5, "test accuracy {acc:.2} not better than chance");
}

/// Timing-free but release-sized gate: at n=10k, in the semi-supervised
/// regime (1% of rows labelled), neighbor-sampled minibatch training must
/// reach full-batch test accuracy within 0.02, and the prefetched sampler
/// must produce exactly the prediction bits of inline sampling.
#[test]
#[ignore = "release-sized gate: cargo test --release -- --ignored gate_"]
fn gate_minibatch_accuracy_drop_at_10k_rows() {
    const CLASSES: usize = 3;
    let mut rng = StdRng::seed_from_u64(42);
    let dataset = gaussian_clusters(
        &ClustersConfig {
            n: 10_000,
            informative: 12,
            noise_features: 4,
            classes: CLASSES,
            cluster_std: 0.8,
            center_scale: 3.0,
        },
        &mut rng,
    );
    let labels = dataset.target.labels().to_vec();
    let split = Split::stratified(&labels, 0.01, 0.01, &mut rng);
    let features = encode_all(&dataset.table).features;
    let in_dim = features.cols();
    let graph = build_instance_graph(&features, Similarity::Euclidean, EdgeRule::Knn { k: 10 });
    let task = NodeTask::classification(features, labels.clone(), CLASSES, split.clone());
    let cfg = TrainConfig { epochs: 25, patience: 0, ..Default::default() };
    let sampler = NeighborSampler::new(128, vec![4, 3], 11);

    // Each leg starts from a freshly seeded model; returns (test accuracy,
    // prediction bits).
    let leg = |minibatch: Option<bool>| {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let start = store.len();
        let enc = GcnModel::new(&mut store, &graph, &[in_dim, 32], 0.0, &mut rng);
        let model = SupervisedModel::new(&mut store, start, enc, CLASSES, &mut rng);
        match minibatch {
            None => {
                fit(&model, &mut store, &task, &[], &cfg);
            }
            Some(prefetch) => {
                let leg_cfg = TrainConfig { prefetch, ..cfg.clone() };
                fit_minibatch(&model, &mut store, &graph, &task, &sampler, &leg_cfg);
            }
        }
        let pred = predict(&model, &store, &task.features);
        let argmax = pred.argmax_rows();
        let p: Vec<usize> = split.test.iter().map(|&i| argmax[i]).collect();
        let t: Vec<usize> = split.test.iter().map(|&i| labels[i]).collect();
        (accuracy(&p, &t), pred.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
    };
    let (full_acc, _) = leg(None);
    let (_, inline_bits) = leg(Some(false));
    let (mini_acc, prefetch_bits) = leg(Some(true));
    assert!(
        prefetch_bits == inline_bits,
        "prefetched minibatch predictions differ bitwise from inline sampling"
    );
    let drop = full_acc - mini_acc;
    eprintln!("n=10000: accuracy {full_acc:.4} full-batch, {mini_acc:.4} minibatch (drop {drop:.4})");
    assert!(drop <= 0.02, "minibatch accuracy drop {drop:.4} exceeds the allowed 0.02");
}
