//! The training loop: full-batch transductive optimization with early
//! stopping on validation loss, best-snapshot restore, and fault tolerance
//! (gradient clipping, divergence recovery, periodic checkpoints).

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gnn4tdl_nn::{NodeModel, Session};
use gnn4tdl_tensor::{fault, obs, Matrix, ParamId, ParamStore};

use crate::aux::AuxTask;
use crate::checkpoint::Checkpointer;
use crate::optim::OptimizerKind;
use crate::task::{NodeTask, SupervisedModel};

/// Training hyperparameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub optimizer: OptimizerKind,
    pub weight_decay: f32,
    /// Early-stopping patience in epochs; 0 disables early stopping.
    pub patience: usize,
    /// Seed for dropout and corruption masks.
    pub seed: u64,
    /// When set, only these parameters are updated (others are frozen).
    pub trainable: Option<Vec<ParamId>>,
    /// Global gradient-norm clip threshold; `None` (the default) leaves
    /// gradients untouched, keeping the update stream bitwise identical to
    /// an unguarded run.
    pub clip_norm: Option<f32>,
    /// Divergence-recovery budget: how many rollbacks (best-snapshot restore
    /// plus learning-rate halving) are attempted before the phase gives up
    /// and returns with `TrainReport::diverged` set.
    pub max_recoveries: usize,
    /// Write a checkpoint every this many epochs; 0 (the default) disables
    /// checkpointing. Requires `checkpoint_dir`.
    pub checkpoint_every: usize,
    /// Directory for checkpoint files and their manifest.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the newest valid checkpoint in `checkpoint_dir` before
    /// training (falls back to a fresh start when none loads).
    pub resume: bool,
    /// Which training phase this fit belongs to (strategies number their
    /// phases so checkpoints from different phases never mix).
    pub checkpoint_phase: usize,
    /// Overlap neighbor sampling with training compute on the minibatch
    /// path: a dedicated sampler thread produces the next block (bounded
    /// lookahead) while the current one trains. Blocks are pure functions
    /// of `(seed, epoch, batch)`, so results are bitwise identical to
    /// inline sampling. Ignored while obs tracing is enabled — divergence
    /// recovery can discard a speculatively sampled block, and the traced
    /// logical-work ledger must not count work the inline path never does.
    pub prefetch: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            optimizer: OptimizerKind::Adam { lr: 0.01 },
            weight_decay: 5e-4,
            patience: 30,
            seed: 0,
            trainable: None,
            clip_norm: None,
            max_recoveries: 3,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: false,
            checkpoint_phase: 0,
            prefetch: true,
        }
    }
}

impl TrainConfig {
    /// A copy tagged with a strategy phase index (see `checkpoint_phase`).
    pub fn with_checkpoint_phase(&self, phase: usize) -> Self {
        Self { checkpoint_phase: phase, ..self.clone() }
    }
}

/// Per-epoch statistics.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    pub train_loss: f32,
    /// Weighted auxiliary-loss share of `train_loss` (0 with no aux tasks).
    pub aux_loss: f32,
    pub val_loss: f32,
    /// Whether this epoch improved the best validation loss.
    pub improved: bool,
    /// Early-stopping state after this epoch: consecutive non-improving
    /// epochs so far.
    pub bad_epochs: usize,
    /// Global (pre-clip) gradient L2 norm over the trainable set.
    pub grad_norm: f32,
    /// Whether the gradients were rescaled by `TrainConfig::clip_norm`.
    pub clipped: bool,
    /// Whether this epoch tripped divergence recovery (the update was
    /// discarded and the best snapshot restored).
    pub recovered: bool,
}

/// Outcome of one fitting phase.
#[derive(Clone, Debug)]
pub struct TrainReport {
    pub history: Vec<EpochStats>,
    pub best_epoch: usize,
    pub best_val_loss: f32,
    /// Divergence recoveries performed (best-snapshot rollbacks).
    pub recoveries: usize,
    /// Epochs whose gradients were clipped to `TrainConfig::clip_norm`.
    pub clipped_steps: usize,
    /// The recovery budget ran out and the phase stopped early.
    pub diverged: bool,
    /// When resuming from a checkpoint: the epoch the checkpoint was
    /// written at.
    pub resumed_from: Option<usize>,
}

impl TrainReport {
    pub fn epochs_run(&self) -> usize {
        self.history.len()
    }

    pub fn final_train_loss(&self) -> f32 {
        self.history.last().map_or(f32::NAN, |e| e.train_loss)
    }
}

/// Fits `model` on `task` with auxiliary tasks, weighting the main loss by
/// `main_weight` (0 trains purely self-supervised — the first phase of
/// two-stage / pretrain-finetune strategies).
///
/// Early stopping watches the *validation main loss* when `main_weight > 0`,
/// otherwise the training objective itself.
pub fn fit_weighted<E: NodeModel>(
    model: &SupervisedModel<E>,
    store: &mut ParamStore,
    task: &NodeTask,
    aux: &[AuxTask],
    cfg: &TrainConfig,
    main_weight: f32,
) -> TrainReport {
    assert!(main_weight > 0.0 || !aux.is_empty(), "nothing to optimize");
    let _span = obs::span("train.fit");
    // Nested span path (e.g. `pipeline.fit/pipeline.train/train.fit`) labels
    // this phase's telemetry records.
    let phase_label = obs::current_path().unwrap_or_else(|| "train.fit".to_string());
    let started = Instant::now();
    let mut optimizer = cfg.optimizer.build(cfg.weight_decay);
    // Halved on every divergence recovery; the optimizer is rebuilt so its
    // moment state does not carry the blown-up step.
    let mut lr_factor = 1.0f32;
    let mut corrupt_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9);
    let features = Arc::new(task.features.clone());
    let allowed: Option<HashSet<usize>> =
        cfg.trainable.as_ref().map(|ids| ids.iter().map(|id| id.index()).collect());

    let mut history = Vec::with_capacity(cfg.epochs);
    let mut best_val = f32::INFINITY;
    let mut best_epoch = 0usize;
    let mut best_snapshot = store.snapshot();
    let mut bad_epochs = 0usize;
    let mut recoveries = 0usize;
    let mut clipped_steps = 0usize;
    let mut diverged = false;
    let mut resumed_from = None;
    let mut start_epoch = 0usize;

    let mut ckpt = match (&cfg.checkpoint_dir, cfg.checkpoint_every) {
        (Some(dir), every) if every > 0 => Some(Checkpointer::new(dir, cfg.checkpoint_phase, every)),
        _ => None,
    };
    if cfg.resume {
        if let Some(dir) = &cfg.checkpoint_dir {
            if let Some(rs) = Checkpointer::resume(dir, cfg.checkpoint_phase, store) {
                start_epoch = rs.start_epoch;
                best_epoch = rs.best_epoch;
                best_val = rs.best_val;
                resumed_from = Some(rs.checkpoint_epoch);
                best_snapshot = rs.best_snapshot;
            }
        }
    }

    for epoch in start_epoch..cfg.epochs {
        let mut s = Session::train(store, cfg.seed.wrapping_add(epoch as u64));
        let x = s.input(task.features.clone());
        let (emb, out) = model.forward(&mut s, x);

        let mut total = if main_weight > 0.0 {
            let main = task.train_loss(&mut s, out);
            s.tape.scale(main, main_weight)
        } else {
            s.input(gnn4tdl_tensor::Matrix::zeros(1, 1))
        };
        let main_part = s.tape.value(total).get(0, 0);
        for a in aux {
            let al = a.loss(&mut s, &model.encoder, x, &features, emb, &mut corrupt_rng);
            total = s.tape.add(total, al);
        }
        let mut train_loss = s.tape.value(total).get(0, 0);
        if fault::trip(fault::FaultKind::InfLoss) {
            train_loss = f32::INFINITY;
        }
        let aux_loss = train_loss - main_part;
        let tape_nodes = s.tape.len();
        let mut grads = s.backward(total);
        if let Some(allowed) = &allowed {
            grads.retain(|(id, _)| allowed.contains(&id.index()));
        }
        if fault::trip(fault::FaultKind::NanGrad) {
            if let Some((_, g)) = grads.first_mut() {
                g.data_mut()[0] = f32::NAN;
            }
        }

        // Guards: a non-finite loss or gradient means the step would poison
        // the parameters — skip it entirely. A finite over-norm gradient is
        // rescaled when clipping is configured; with `clip_norm: None` the
        // norm is only observed, so an unguarded run is bitwise unchanged.
        let grad_norm = global_grad_norm(&grads);
        let mut divergent = !train_loss.is_finite() || !grad_norm.is_finite();
        let mut clipped = false;
        if !divergent {
            if let Some(clip) = cfg.clip_norm {
                if grad_norm > clip {
                    let scale = clip / grad_norm;
                    for (_, g) in &mut grads {
                        for v in g.data_mut() {
                            *v *= scale;
                        }
                    }
                    clipped = true;
                    clipped_steps += 1;
                    obs::counter_add("train.clipped_steps", 1);
                }
            }
            optimizer.step(store, &grads);
        }
        // Catch a genuine blowup the step itself produced.
        if !divergent && !params_finite(store) {
            divergent = true;
        }

        // validation pass (clean, eval mode); skipped on a divergent epoch
        let val_loss = if divergent {
            f32::INFINITY
        } else {
            let mut sv = Session::eval(store);
            let xv = sv.input(task.features.clone());
            let (emb_v, out_v) = model.forward(&mut sv, xv);
            if main_weight > 0.0 && !task.split.val.is_empty() {
                let vl = task.val_loss(&mut sv, out_v);
                sv.tape.value(vl).get(0, 0)
            } else {
                // self-supervised phases: track the training objective
                let mut total_v = sv.input(gnn4tdl_tensor::Matrix::zeros(1, 1));
                let mut rng_v = StdRng::seed_from_u64(cfg.seed ^ 0x51ed_270b);
                for a in aux {
                    let al = a.loss(&mut sv, &model.encoder, xv, &features, emb_v, &mut rng_v);
                    total_v = sv.tape.add(total_v, al);
                }
                sv.tape.value(total_v).get(0, 0)
            }
        };
        if !divergent && !val_loss.is_finite() {
            divergent = true;
        }

        if divergent {
            // Recover: discard the epoch, roll back to the best snapshot,
            // and restart the optimizer at half the learning rate.
            recoveries += 1;
            obs::counter_add("train.recoveries", 1);
            store.restore(&best_snapshot);
            lr_factor *= 0.5;
            optimizer = cfg.optimizer.with_lr_factor(lr_factor).build(cfg.weight_decay);
            history.push(EpochStats {
                train_loss,
                aux_loss,
                val_loss: f32::INFINITY,
                improved: false,
                bad_epochs,
                grad_norm,
                clipped,
                recovered: true,
            });
            if obs::enabled() {
                obs::counter_add("train.epochs", 1);
                obs::record_epoch(obs::EpochRecord {
                    phase: phase_label.clone(),
                    epoch,
                    train_loss,
                    aux_loss,
                    val_loss: f32::INFINITY,
                    improved: false,
                    bad_epochs,
                });
            }
            if recoveries > cfg.max_recoveries {
                diverged = true;
                break;
            }
            continue;
        }

        let improved = val_loss < best_val - 1e-6;
        if improved {
            best_val = val_loss;
            best_epoch = epoch;
            best_snapshot = store.snapshot();
            bad_epochs = 0;
        } else {
            bad_epochs += 1;
        }
        history.push(EpochStats {
            train_loss,
            aux_loss,
            val_loss,
            improved,
            bad_epochs,
            grad_norm,
            clipped,
            recovered: false,
        });
        if obs::enabled() {
            obs::counter_add("train.epochs", 1);
            obs::histogram_record("train.tape_nodes", tape_nodes as f64);
            obs::record_epoch(obs::EpochRecord {
                phase: phase_label.clone(),
                epoch,
                train_loss,
                aux_loss,
                val_loss,
                improved,
                bad_epochs,
            });
        }
        if let Some(ck) = &mut ckpt {
            if ck.due(epoch) {
                ck.save(store, &best_snapshot, epoch, best_epoch, best_val);
            }
        }
        if !improved && cfg.patience > 0 && bad_epochs >= cfg.patience {
            break;
        }
    }
    store.restore(&best_snapshot);
    if obs::enabled() {
        obs::gauge_set("train.best_val_loss", f64::from(best_val));
        obs::record_phase(
            &phase_label,
            started.elapsed().as_secs_f64() * 1e3,
            &[
                ("epochs", history.len() as f64),
                ("best_epoch", best_epoch as f64),
                ("best_val_loss", f64::from(best_val)),
            ],
        );
    }
    TrainReport {
        history,
        best_epoch,
        best_val_loss: best_val,
        recoveries,
        clipped_steps,
        diverged,
        resumed_from,
    }
}

/// Global L2 norm across a gradient set.
pub(crate) fn global_grad_norm(grads: &[(ParamId, Matrix)]) -> f32 {
    grads.iter().map(|(_, g)| g.data().iter().map(|&x| x * x).sum::<f32>()).sum::<f32>().sqrt()
}

/// Are all parameter values finite?
pub(crate) fn params_finite(store: &ParamStore) -> bool {
    store.iter().all(|(_, _, m)| m.data().iter().all(|v| v.is_finite()))
}

/// Standard supervised fit (main loss weight 1).
pub fn fit<E: NodeModel>(
    model: &SupervisedModel<E>,
    store: &mut ParamStore,
    task: &NodeTask,
    aux: &[AuxTask],
    cfg: &TrainConfig,
) -> TrainReport {
    fit_weighted(model, store, task, aux, cfg, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::predict;
    use gnn4tdl_data::metrics::accuracy;
    use gnn4tdl_data::synth::{gaussian_clusters, ClustersConfig};
    use gnn4tdl_data::{encode_all, Split};
    use gnn4tdl_nn::MlpModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cluster_task(seed: u64) -> NodeTask {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = gaussian_clusters(
            &ClustersConfig { n: 150, informative: 6, classes: 3, cluster_std: 0.6, ..Default::default() },
            &mut rng,
        );
        let enc = encode_all(&data.table);
        let split = Split::stratified(data.target.labels(), 0.5, 0.2, &mut rng);
        NodeTask::classification(enc.features, data.target.labels().to_vec(), 3, split)
    }

    #[test]
    fn fit_learns_clusters() {
        let task = cluster_task(0);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let start = store.len();
        let enc = MlpModel::new(&mut store, &[task.features.cols(), 16], 0.0, &mut rng);
        let model = SupervisedModel::new(&mut store, start, enc, 3, &mut rng);
        let cfg = TrainConfig { epochs: 150, patience: 30, ..Default::default() };
        let report = fit(&model, &mut store, &task, &[], &cfg);
        assert!(report.epochs_run() > 5);
        let logits = predict(&model, &store, &task.features);
        let preds = logits.argmax_rows();
        let labels = match &task.target {
            crate::task::TaskTarget::Classification { labels, .. } => labels.clone(),
            _ => unreachable!(),
        };
        let test_pred: Vec<usize> = task.split.test.iter().map(|&i| preds[i]).collect();
        let test_true: Vec<usize> = task.split.test.iter().map(|&i| labels[i]).collect();
        let acc = accuracy(&test_pred, &test_true);
        assert!(acc > 0.85, "test accuracy too low: {acc}");
    }

    #[test]
    fn early_stopping_restores_best() {
        let task = cluster_task(2);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let start = store.len();
        let enc = MlpModel::new(&mut store, &[task.features.cols(), 8], 0.0, &mut rng);
        let model = SupervisedModel::new(&mut store, start, enc, 3, &mut rng);
        // aggressive learning rate makes validation loss oscillate, so the
        // patience window closes well before the epoch budget.
        let cfg = TrainConfig {
            epochs: 2000,
            patience: 5,
            optimizer: OptimizerKind::Adam { lr: 0.1 },
            ..Default::default()
        };
        let report = fit(&model, &mut store, &task, &[], &cfg);
        assert!(report.epochs_run() < 2000, "early stopping never triggered");
        // restored parameters reproduce the best validation loss
        let mut sv = Session::eval(&store);
        let xv = sv.input(task.features.clone());
        let (_, out) = model.forward(&mut sv, xv);
        let vl = task.val_loss(&mut sv, out);
        let val = sv.tape.value(vl).get(0, 0);
        assert!((val - report.best_val_loss).abs() < 1e-4, "{val} vs {}", report.best_val_loss);
    }

    #[test]
    fn frozen_params_do_not_move() {
        let task = cluster_task(4);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let start = store.len();
        let enc = MlpModel::new(&mut store, &[task.features.cols(), 8], 0.0, &mut rng);
        let model = SupervisedModel::new(&mut store, start, enc, 3, &mut rng);
        let frozen_before: Vec<_> = model.encoder_params().iter().map(|&id| store.get(id).clone()).collect();
        let cfg = TrainConfig {
            epochs: 20,
            patience: 0,
            trainable: Some(model.head_params().to_vec()),
            ..Default::default()
        };
        fit(&model, &mut store, &task, &[], &cfg);
        for (id, before) in model.encoder_params().iter().zip(&frozen_before) {
            assert!(store.get(*id).max_abs_diff(before) < 1e-9, "frozen param moved");
        }
    }

    #[test]
    fn unsupervised_phase_runs_without_main_loss() {
        let task = cluster_task(6);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let start = store.len();
        let enc = MlpModel::new(&mut store, &[task.features.cols(), 8], 0.0, &mut rng);
        let model = SupervisedModel::new(&mut store, start, enc, 3, &mut rng);
        let aux = vec![crate::aux::AuxTask::feature_reconstruction(
            &mut store,
            8,
            task.features.cols(),
            1.0,
            &mut rng,
        )];
        let cfg = TrainConfig { epochs: 30, patience: 0, ..Default::default() };
        let report = fit_weighted(&model, &mut store, &task, &aux, &cfg, 0.0);
        let first = report.history.first().unwrap().train_loss;
        let last = report.final_train_loss();
        assert!(last < first, "reconstruction loss did not fall: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "nothing to optimize")]
    fn zero_weight_without_aux_panics() {
        let task = cluster_task(8);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let start = store.len();
        let enc = MlpModel::new(&mut store, &[task.features.cols(), 8], 0.0, &mut rng);
        let model = SupervisedModel::new(&mut store, start, enc, 3, &mut rng);
        fit_weighted(&model, &mut store, &task, &[], &TrainConfig::default(), 0.0);
    }
}
