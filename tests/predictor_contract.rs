//! Contract tests for every [`Predictor`] implementation: probability rows
//! form a distribution, hard predictions agree with `argmax(predict_proba)`
//! (including on exact ties), and refitting with the same seed reproduces
//! bit-identical predictions.
//!
//! The serving contract rides along: the online local-subgraph prediction
//! must equal a full-graph batch recompute bit for bit, logits and
//! probabilities, under `IndexKind::Exact` (recall-bounded under Hnsw),
//! and repeated identical requests must be bitwise-identical across
//! `GNN4TDL_THREADS` ∈ {1, 2, available}.

use gnn4tdl::prelude::*;
use gnn4tdl_data::synth::{gaussian_clusters, ClustersConfig};
use gnn4tdl_data::{Column, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset_and_split() -> (Dataset, Split) {
    let mut rng = StdRng::seed_from_u64(7);
    let dataset = gaussian_clusters(
        &ClustersConfig { n: 90, informative: 4, classes: 3, cluster_std: 0.6, ..Default::default() },
        &mut rng,
    );
    let split = Split::stratified(dataset.target.labels(), 0.6, 0.2, &mut rng);
    (dataset, split)
}

fn all_predictors() -> Vec<Box<dyn Predictor>> {
    let gnn_cfg = PipelineConfig::builder(GraphSpec::Rule {
        similarity: Similarity::Euclidean,
        rule: EdgeRule::Knn { k: 5 },
    })
    .hidden(8)
    .train(TrainConfig { epochs: 12, ..Default::default() })
    .seed(3)
    .build();
    vec![
        Box::new(GnnPredictor::new(gnn_cfg)),
        Box::new(LogRegPredictor::new(LogRegConfig::default())),
        Box::new(KnnPredictor::new(5)),
        Box::new(TreePredictor::new(TreeConfig::default(), 3)),
        Box::new(ForestPredictor::new(ForestConfig::default(), 3)),
        Box::new(GbdtPredictor::new(GbdtConfig::default(), 3)),
    ]
}

fn assert_rows_are_distributions(proba: &gnn4tdl_tensor::Matrix, who: &str) {
    for r in 0..proba.rows() {
        let mut sum = 0.0f32;
        for c in 0..proba.cols() {
            let p = proba.get(r, c);
            assert!((0.0..=1.0 + 1e-5).contains(&p), "{who}: proba[{r},{c}] = {p} outside [0,1]");
            sum += p;
        }
        assert!((sum - 1.0).abs() < 1e-4, "{who}: proba row {r} sums to {sum}");
    }
}

fn assert_hard_matches_argmax(model: &dyn Predictor, rows: &[usize]) {
    let proba = model.predict_proba(rows);
    let hard = model.predict(rows);
    let argmax = proba.argmax_rows();
    assert_eq!(hard.len(), rows.len());
    for (i, (&h, &a)) in hard.iter().zip(argmax.iter()).enumerate() {
        assert_eq!(h as usize, a, "{}: predict()[{i}] = {h} but argmax(proba)[{i}] = {a}", model.name());
    }
}

#[test]
fn proba_rows_sum_to_one_and_match_hard_predictions() {
    let (dataset, split) = dataset_and_split();
    for mut model in all_predictors() {
        model.fit(&dataset, &split);
        let proba = model.predict_proba(&split.test);
        assert_eq!(proba.rows(), split.test.len());
        assert_eq!(proba.cols(), 3, "{}: expected one column per class", model.name());
        assert_rows_are_distributions(&proba, model.name());
        assert_hard_matches_argmax(model.as_ref(), &split.test);
    }
}

#[test]
fn same_seed_refit_reproduces_identical_predictions() {
    let (dataset, split) = dataset_and_split();
    for (mut first, mut second) in all_predictors().into_iter().zip(all_predictors()) {
        first.fit(&dataset, &split);
        let hard1 = first.predict(&split.test);
        let proba1 = first.predict_proba(&split.test);
        second.fit(&dataset, &split);
        let hard2 = second.predict(&split.test);
        let proba2 = second.predict_proba(&split.test);
        // Bitwise equality: same seed, same data, same arithmetic.
        assert_eq!(hard1, hard2, "{}: hard predictions drifted across refits", first.name());
        assert_eq!(proba1.data(), proba2.data(), "{}: probabilities drifted across refits", first.name());
    }
}

/// A dataset whose only feature column is constant: the `Featurizer` guards
/// zero-variance columns by emitting 0.0 everywhere, so every pairwise
/// distance is zero and every vote/leaf is an exact tie. With alternating
/// labels, kNN (k even), trees, and forests all produce 50/50 probability
/// ties — the hard prediction must still equal `argmax(predict_proba)`.
fn constant_feature_dataset() -> (Dataset, Split) {
    let n = 12;
    let table = Table::new(vec![Column::numeric("flat", vec![1.5; n])]);
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
    let dataset = Dataset::new("ties", table, Target::Classification { labels, num_classes: 2 });
    let split = Split { train: (0..8).collect(), val: vec![8, 9], test: vec![10, 11] };
    (dataset, split)
}

// -- serving contract -------------------------------------------------------

fn servable(index: IndexKind) -> ServableModel {
    let (dataset, split) = dataset_and_split();
    let features = gnn4tdl_data::encode_all(&dataset.table).features;
    let labels = dataset.target.labels().to_vec();
    let config = ServableConfig {
        encoder: EncoderSpec::Gcn,
        in_dim: features.cols(),
        hidden: 8,
        layers: 2,
        num_classes: 3,
        dropout: 0.0,
        k: 5,
        similarity: Similarity::Euclidean,
        index,
    };
    ServableModel::fit(features, labels, &split, config, &TrainConfig { epochs: 12, ..Default::default() })
        .unwrap()
}

fn request_rows(model: &ServableModel, count: usize) -> Vec<Vec<f32>> {
    // Perturbed copies of corpus rows: in-distribution but unseen.
    (0..count)
        .map(|r| {
            let base = model.features.row(r * 7 % model.corpus_len());
            base.iter().enumerate().map(|(i, &v)| v + ((i + r) as f32 * 0.713).sin() * 0.05).collect()
        })
        .collect()
}

/// Under `IndexKind::Exact`, the O(neighborhood) local-subgraph prediction
/// must equal the O(n) full-graph recompute bit for bit — serving an unseen
/// row online and batch-recomputing the extended graph are the same
/// function.
#[test]
fn serving_local_prediction_matches_full_graph_recompute() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let model = servable(IndexKind::Exact);
    for row in request_rows(&model, 6) {
        let neighbors: Vec<usize> = model.exact_neighbors(&row).into_iter().map(|(i, _)| i).collect();
        let local = model.predict_local(&row, &neighbors).unwrap();
        let full = model.predict_full(&row, &neighbors).unwrap();
        assert!((local.proba.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        let context = format!("subgraph {} of {} nodes", local.subgraph_nodes, model.corpus_len() + 1);
        assert_eq!(bits(&local.logits), bits(&full.logits), "logits: {context}");
        assert_eq!(bits(&local.proba), bits(&full.proba), "proba: {context}");
    }
}

/// Under `IndexKind::Hnsw` the incremental insert-then-query path is
/// approximate: the attachment neighborhood is recall-bounded against the
/// exact oracle rather than equal, and the prediction it conditions on is
/// still a valid distribution computed by the same local-subgraph rule.
#[test]
fn serving_incremental_insert_is_recall_bounded_under_hnsw() {
    let model = servable(IndexKind::Hnsw { m: 12, ef_construction: 64, ef_search: 48, seed: 9 });
    let engine = gnn4tdl_serve::Engine::new(model).unwrap();
    let rows = request_rows(engine.model(), 8);
    let mut hits = 0usize;
    let mut total = 0usize;
    for row in &rows {
        let exact: std::collections::HashSet<usize> =
            engine.model().exact_neighbors(row).into_iter().map(|(i, _)| i).collect();
        let approx = engine.neighbors(row).unwrap();
        assert!(!approx.is_empty());
        assert!(
            approx.iter().all(|&i| i < engine.corpus_len()),
            "inserted request rows must not become neighbors"
        );
        hits += approx.iter().filter(|i| exact.contains(i)).count();
        total += exact.len();
        let prediction = engine.model().predict_local(row, &approx).unwrap();
        assert!((prediction.proba.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.6, "hnsw serving recall {recall:.3} collapsed below the usable bound");
}

/// Repeated identical requests are bitwise-identical, and stay so whether
/// the kernels run on 1, 2, or all available threads — the serving path
/// inherits the workspace's thread-count determinism contract.
#[test]
fn serving_repeats_are_bitwise_identical_across_thread_counts() {
    use gnn4tdl_tensor::parallel;
    let model = servable(IndexKind::Exact);
    let rows = request_rows(&model, 4);
    let serve_all = |model: &ServableModel| -> Vec<Vec<u32>> {
        rows.iter()
            .map(|row| {
                let neighbors: Vec<usize> = model.exact_neighbors(row).into_iter().map(|(i, _)| i).collect();
                let p = model.predict_local(row, &neighbors).unwrap();
                p.logits.iter().chain(&p.proba).map(|v| v.to_bits()).collect()
            })
            .collect()
    };
    let baseline = parallel::with_threads(1, || serve_all(&model));
    // A second pass at the same thread count: repeats are bitwise stable.
    assert_eq!(baseline, parallel::with_threads(1, || serve_all(&model)));
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    for threads in [2, avail] {
        assert_eq!(
            baseline,
            parallel::with_threads(threads, || serve_all(&model)),
            "serving output diverged at {threads} threads"
        );
    }
}

#[test]
fn tie_breaking_is_consistent_between_hard_and_soft_predictions() {
    let (dataset, split) = constant_feature_dataset();
    let mut models: Vec<Box<dyn Predictor>> = vec![
        Box::new(KnnPredictor::new(4)),
        Box::new(TreePredictor::new(TreeConfig::default(), 0)),
        Box::new(ForestPredictor::new(ForestConfig::default(), 0)),
    ];
    for model in &mut models {
        model.fit(&dataset, &split);
        let proba = model.predict_proba(&split.test);
        assert_rows_are_distributions(&proba, model.name());
        assert_hard_matches_argmax(model.as_ref(), &split.test);
        // All rows are identical, so both test rows must score identically.
        for c in 0..proba.cols() {
            assert_eq!(
                proba.get(0, c).to_bits(),
                proba.get(1, c).to_bits(),
                "{}: identical rows scored differently",
                model.name()
            );
        }
    }
}
