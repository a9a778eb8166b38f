//! Pipeline-level guarantees of the buffer pool: pooling changes not one
//! bit of any result, and a steady-state training run is served almost
//! entirely from recycled buffers.
//!
//! The pool's on/off switch is process-wide, so the tests serialize on one
//! lock and restore the pooled default before releasing it.

use std::sync::Mutex;

use gnn4tdl::prelude::*;
use gnn4tdl_data::synth::{gaussian_clusters, ClustersConfig};
use gnn4tdl_tensor::pool;
use rand::rngs::StdRng;
use rand::SeedableRng;

static POOL_LOCK: Mutex<()> = Mutex::new(());

fn fixture(epochs: usize) -> (Dataset, Split, PipelineConfig) {
    let mut rng = StdRng::seed_from_u64(23);
    let dataset = gaussian_clusters(
        &ClustersConfig { n: 80, informative: 5, classes: 3, cluster_std: 0.7, ..Default::default() },
        &mut rng,
    );
    let split = Split::stratified(dataset.target.labels(), 0.6, 0.2, &mut rng);
    let cfg = PipelineConfig::builder(GraphSpec::Rule {
        similarity: Similarity::Euclidean,
        rule: EdgeRule::Knn { k: 5 },
    })
    .hidden(16)
    .train(TrainConfig { epochs, ..Default::default() })
    .seed(7)
    .build();
    (dataset, split, cfg)
}

#[test]
fn pooled_and_unpooled_runs_are_bitwise_identical() {
    let _guard = POOL_LOCK.lock().unwrap();
    let (dataset, split, cfg) = fixture(25);

    pool::enable();
    pool::clear_local();
    let pooled = fit_pipeline(&dataset, &split, &cfg);

    pool::disable();
    let unpooled = fit_pipeline(&dataset, &split, &cfg);

    pool::enable();
    pool::clear_local();

    // logits, not argmaxes: every float must match to the bit
    assert_eq!(pooled.predictions.data(), unpooled.predictions.data(), "pooling perturbed the predictions");
    assert_eq!(pooled.graph_edges, unpooled.graph_edges);
}

#[test]
fn steady_state_training_hit_rate_exceeds_90_percent() {
    let _guard = POOL_LOCK.lock().unwrap();
    let (dataset, split, cfg) = fixture(200);

    pool::enable();
    pool::clear_local();
    fit_pipeline(&dataset, &split, &cfg);
    let stats = pool::local_stats();

    // Every take after the first epoch should find a same-shaped buffer on
    // the free list; 200 epochs amortize the cold start far past 90%.
    assert!(
        stats.hit_rate() >= 0.90,
        "pool hit rate {:.3} below 0.90 over a 200-epoch fit ({stats:?})",
        stats.hit_rate()
    );
    pool::clear_local();

    // The hot-loop case: an n=1000 GCN on a k=10 kNN graph, measured over
    // 60 epochs after a 3-epoch warm-up. It gates the all-thread rate, so a
    // regression that only pushes the persistent `parallel` workers onto
    // the allocator still fails.
    let mut rng = StdRng::seed_from_u64(42);
    let dataset = gaussian_clusters(
        &ClustersConfig {
            n: 1000,
            informative: 12,
            noise_features: 4,
            classes: 3,
            cluster_std: 1.0,
            center_scale: 3.0,
        },
        &mut rng,
    );
    let split = Split::stratified(dataset.target.labels(), 0.5, 0.2, &mut rng);
    let cfg = |epochs: usize| {
        PipelineConfig::builder(GraphSpec::Rule {
            similarity: Similarity::Euclidean,
            rule: EdgeRule::Knn { k: 10 },
        })
        .hidden(32)
        .train(TrainConfig { epochs, patience: 0, ..Default::default() })
        .seed(7)
        .build()
    };
    fit_pipeline(&dataset, &split, &cfg(3));
    pool::reset_local_stats();
    pool::reset_global_stats();
    fit_pipeline(&dataset, &split, &cfg(60));
    let global = pool::global_stats();
    assert!(
        global.hit_rate() >= 0.90,
        "steady-state all-thread pool hit rate {:.4} below 0.90 over the hot-loop fit \
         (global {global:?}, local {:?})",
        global.hit_rate(),
        pool::local_stats()
    );
    pool::clear_local();
}
