//! The fit workloads: encode → construct → train → predict on a table drawn
//! from the seed, repeated until the window has passed and a p99 of the
//! optimizer-step time is supported. The fit itself is the sequence of
//! public calls, so the traced phase is the spans around those calls plus
//! the kernel probes and the pool and pack counters.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gnn4tdl::classification_on;
use gnn4tdl_construct::{build_instance_graph_with, EdgeRule, IndexKind, Similarity};
use gnn4tdl_data::encode_all;
use gnn4tdl_graph::Graph;
use gnn4tdl_nn::{BlockModel, GcnModel, NodeModel, Session};
use gnn4tdl_tensor::{fnv1a64, kernel, pool, ParamStore, Var};
use gnn4tdl_train::{fit, fit_minibatch, predict, NeighborSampler, NodeTask, SupervisedModel, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{median, percentile, sorted, tail_percentile, Metrics, P99_SAMPLES, PER_LAYER};
use crate::probe;
use crate::trace::Tracer;
use crate::workload::{synthesize, CLASSES};
use crate::Outcome;

const HIDDEN: usize = 32;
const K: usize = 10;
/// Table syntheses per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Every fit must reach this test accuracy.
const MIN_ACCURACY: f64 = 0.95;

pub struct Plan {
    rows: usize,
    epochs: usize,
    train: f64,
    val: f64,
    index: IndexKind,
    minibatch: bool,
}

pub fn plan(workload: &str) -> Option<Plan> {
    match workload {
        "fit-full" => Some(Plan {
            rows: 10_000,
            epochs: 300,
            train: 0.5,
            val: 0.2,
            index: IndexKind::Exact,
            minibatch: false,
        }),
        "fit-minibatch" => Some(Plan {
            rows: 30_000,
            epochs: 30,
            train: 0.1,
            val: 0.1,
            index: IndexKind::Hnsw { m: 12, ef_construction: 64, ef_search: 48, seed: 17 },
            minibatch: true,
        }),
        _ => None,
    }
}

/// The GCN encoder, stamping the start of every training-mode forward.
/// Consecutive stamps bound one optimizer step: a full-batch epoch, or one
/// sampled block. It only delegates, so the fit computes what the plain
/// encoder computes.
#[derive(Clone)]
struct Stamped {
    inner: GcnModel,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl NodeModel for Stamped {
    fn forward(&self, s: &mut Session<'_>, x: Var) -> Var {
        if s.is_training() {
            self.stamps.lock().expect("stamp lock poisoned").push(Instant::now());
        }
        self.inner.forward(s, x)
    }

    fn out_dim(&self) -> usize {
        self.inner.out_dim()
    }
}

impl BlockModel for Stamped {
    fn bind(&self, graph: &Graph) -> Self {
        Stamped { inner: self.inner.bind(graph), stamps: Arc::clone(&self.stamps) }
    }
}

pub fn run(plan: &Plan, seed: u64, window: Duration, tracer: &Tracer) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut sample = None;
    for _ in 0..SETUPS {
        drop(sample.take());
        let start = Instant::now();
        sample = Some(synthesize(plan.rows, seed, plan.train, plan.val));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let sample = sample.expect("at least one set-up");

    let sampler = NeighborSampler::new(128, vec![4, 3], 11);
    let cfg = TrainConfig { epochs: plan.epochs, patience: 0, ..TrainConfig::default() };
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let (mut step_ms, mut fit_s, mut train_s, mut accuracy) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut digest = None;
    let mut last = None;
    pool::reset_global_stats();
    kernel::reset_pack_stats();
    let start = Instant::now();
    while fit_s.is_empty() || start.elapsed() < window || step_ms.len() < P99_SAMPLES {
        let n = fit_s.len() as u64;
        let began = Instant::now();
        let features = tracer.span("data.encode", n, || encode_all(&sample.table).features);
        let graph = tracer.span("construct.graph", n, || {
            build_instance_graph_with(&features, Similarity::Euclidean, EdgeRule::Knn { k: K }, &plan.index)
        });
        let task = NodeTask::classification(features, sample.labels.clone(), CLASSES, sample.split.clone());
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let inner = GcnModel::new(&mut store, &graph, &[task.features.cols(), HIDDEN], 0.0, &mut rng);
        let model = SupervisedModel::new(
            &mut store,
            0,
            Stamped { inner, stamps: Arc::clone(&stamps) },
            CLASSES,
            &mut rng,
        );
        let train_start = Instant::now();
        tracer.span("train.fit", n, || {
            if plan.minibatch {
                fit_minibatch(&model, &mut store, &graph, &task, &sampler, &cfg)
            } else {
                fit(&model, &mut store, &task, &[], &cfg)
            }
        });
        let trained = Instant::now();
        let pred = tracer.span("nn.predict", n, || predict(&model, &store, &task.features));
        accuracy.push(classification_on(&pred, &sample.labels, CLASSES, &sample.split.test).accuracy);
        fit_s.push(began.elapsed().as_secs_f64());
        train_s.push((trained - train_start).as_secs_f64());
        let mut steps = std::mem::take(&mut *stamps.lock().expect("stamp lock poisoned"));
        steps.push(trained);
        step_ms.extend(steps.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3));
        if tracer.on() && digest.is_none() {
            let bits: Vec<u8> = pred.data().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
            digest = Some(fnv1a64(&bits));
        }
        last = Some((task, graph));
    }
    let pool_stats = pool::global_stats();
    let pack = kernel::pack_stats();

    let low = accuracy.iter().filter(|&&a| a < MIN_ACCURACY).count();
    let mut checks = Vec::new();
    if low > 0 {
        checks.push(format!("test_acc: {low} of {} fits below {MIN_ACCURACY}: {accuracy:?}", accuracy.len()));
    }
    let ordered = sorted(&step_ms);
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s));
    metrics.set("p50_ms", percentile(&ordered, 50.0));
    metrics.set("p99_ms", tail_percentile(&ordered, 99.0).map_err(|e| format!("p99_ms: {e}"))?);
    metrics.set("rows_per_s", plan.rows as f64 / median(&fit_s));
    metrics.set("accuracy", median(&accuracy));

    if tracer.on() {
        // The serving layers do no work here: their shares and counts are 0.
        let serving = |name: &str| name.starts_with("serve.") || name.starts_with("servable.");
        for (name, _) in PER_LAYER.iter().filter(|(name, _)| serving(name)) {
            metrics.set(name, 0.0);
        }
        metrics.set("data.encode_ms", median(&tracer.durations("data.encode")) * 1e3);
        metrics.set("construct.graph_s", median(&tracer.durations("construct.graph")));
        metrics.set("train.fit_s", median(&tracer.durations("train.fit")));
        metrics.set("nn.predict_ms", median(&tracer.durations("nn.predict")) * 1e3);
        metrics.set("tensor.pool_hit_rate", pool_stats.hit_rate());
        metrics.set("tensor.pool_misses", pool_stats.misses as f64);
        metrics.set("tensor.pack_hit_rate", pack.hit_rate());
        let (task, graph) = last.expect("at least one fit");
        let epoch = probe::sample_epoch(&sampler, &graph, &task.features, &task.split.train);
        let (forward_rows, sample_share) = if plan.minibatch {
            let epoch_ms = median(&train_s) / plan.epochs as f64 * 1e3;
            (epoch.mean_nodes.round() as usize, epoch.ms / epoch_ms)
        } else {
            (plan.rows, 0.0)
        };
        metrics.set("train.sample_share", sample_share);
        probe::shared(&mut metrics, &epoch, &graph, &task.features, forward_rows, HIDDEN, seed);
    }
    let fits = accuracy.len() as u64;
    Ok(Outcome { metrics, attempted: fits, failed: low as u64, checks, digest })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn traced_fits_report_every_metric() {
        for workload in ["fit-full", "fit-minibatch"] {
            let plan = Plan { rows: 600, epochs: 40, train: 0.5, ..plan(workload).unwrap() };
            let outcome = run(&plan, 2, Duration::ZERO, &Tracer::new(true)).unwrap();
            assert_eq!(outcome.metrics.select(END_TO_END).len(), END_TO_END.len());
            assert_eq!(outcome.metrics.select(PER_LAYER).len(), PER_LAYER.len());
            assert!(outcome.digest.is_some() && outcome.attempted >= 1, "{workload}");
        }
    }
}
