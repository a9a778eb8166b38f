//! Minibatch neighbor-sampled training: the GraphSAGE-style scalable path.
//!
//! Full-batch training runs every epoch over the whole instance graph, so
//! epoch cost grows with `n`. This module trains on *sampled blocks* instead:
//! a seeded [`NeighborSampler`] draws a batch of seed nodes, expands it
//! through per-layer neighbor fanouts, and extracts the induced subgraph plus
//! a gathered feature slice ([`SampledBlock`]); [`fit_minibatch`] then runs
//! the usual tape/optimizer machinery per block, with the loss masked to the
//! seed nodes.
//!
//! # Determinism contract
//!
//! Every random choice is a pure function of `(seed, epoch, batch)` through
//! [`gnn4tdl_tensor::splitmix64`] hash streams (the generator `tensor::fault`
//! replays fault schedules with): the per-epoch seed permutation, the per-node neighbor
//! draws, and the per-batch dropout seeds. The heavy kernels underneath —
//! [`gnn4tdl_tensor::CsrMatrix::induced_subgraph`] and
//! [`gnn4tdl_tensor::Matrix::gather_rows`] — are bitwise thread-invariant, so
//! an identical `(seed, epoch, batch)` produces a bitwise-identical block and
//! an identical refit at any `GNN4TDL_THREADS` setting.
//!
//! # Prefetch pipeline
//!
//! Because a block is a pure function of its `(seed, epoch, batch)` key,
//! sampling can run *ahead* of training without touching the determinism
//! contract: when [`TrainConfig::prefetch`] is set (and obs tracing is off — a
//! speculatively sampled block discarded by divergence recovery would
//! otherwise count ledger work the inline path never does), `fit_minibatch`
//! spawns one scoped sampler thread that produces block `t+1` while block `t`
//! trains, bounded to `PREFETCH_DEPTH` blocks of lookahead. Divergence
//! recovery cancels the in-flight epoch's queue; early stop or an unwind on
//! the training thread closes it, so the scope join can never deadlock.
//! Results are bitwise identical to inline sampling — fault-injection draws
//! (`tensor::fault`) happen only on the training thread, so even chaos
//! schedules replay unchanged.

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gnn4tdl_graph::Graph;
use gnn4tdl_nn::{BlockModel, Session};
use gnn4tdl_tensor::{fault, obs, splitmix64, Matrix, ParamStore};

use crate::checkpoint::Checkpointer;
use crate::task::{NodeTask, SupervisedModel, TaskTarget};
use crate::trainer::{global_grad_norm, params_finite, EpochStats, TrainConfig, TrainReport};

/// How the trainer feeds the graph to the model.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Batching {
    /// Full-batch transductive training: every epoch runs the model over
    /// the whole graph (the historical default; bitwise identical to the
    /// pre-minibatch trainer).
    #[default]
    Full,
    /// Neighbor-sampled minibatch training: per epoch, the train split is
    /// shuffled into seed batches of `batch_size`, each expanded through
    /// `fanouts` (neighbors sampled per node, outermost layer first) into an
    /// induced-subgraph block.
    Neighbor { batch_size: usize, fanouts: Vec<usize>, seed: u64 },
}

/// Chains key parts into one stream seed: order-sensitive, so
/// `(epoch, batch)` and `(batch, epoch)` land in different streams.
fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x51ed_270b_u64;
    for &p in parts {
        h = splitmix64(h ^ splitmix64(p));
    }
    h
}

/// Domain tags keeping the shuffle, neighbor, and dropout streams disjoint.
const TAG_SHUFFLE: u64 = 1;
const TAG_NEIGHBOR: u64 = 2;
const TAG_DROPOUT: u64 = 3;
/// Epoch key for the validation plan: validation blocks are sampled once
/// from an epoch-independent stream so the early-stopping signal is
/// comparable across epochs.
const VAL_EPOCH: u64 = u64::MAX;

/// One training block: an induced subgraph over the sampled node union,
/// the gathered feature rows, and the local→global map. The first
/// `num_seeds` local rows are the seed nodes — the only rows the loss sees.
pub struct SampledBlock {
    pub graph: Graph,
    pub features: Matrix,
    /// Local row `i` is global node `nodes[i]`; seeds come first.
    pub nodes: Vec<usize>,
    pub num_seeds: usize,
}

impl SampledBlock {
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Loss mask over local rows: 1 on seed rows (scaled by `row_weights`
    /// at their global index when given), 0 elsewhere.
    pub fn seed_mask(&self, row_weights: Option<&[f32]>) -> Vec<f32> {
        let mut mask = vec![0.0f32; self.nodes.len()];
        for (i, m) in mask.iter_mut().enumerate().take(self.num_seeds) {
            *m = row_weights.map_or(1.0, |w| w[self.nodes[i]]);
        }
        mask
    }
}

/// Seeded GraphSAGE-style neighbor sampler. All draws are splitmix64 hash
/// streams keyed by `(seed, epoch, batch, layer, node)` — no mutable RNG
/// state, so any block can be re-derived independently and the whole plan is
/// deterministic given the constructor arguments.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    batch_size: usize,
    /// Neighbors sampled per node at each expansion hop, seed-side first
    /// (e.g. `[10, 5]`: 10 neighbors per seed, then 5 per hop-1 node).
    fanouts: Vec<usize>,
    seed: u64,
}

impl NeighborSampler {
    pub fn new(batch_size: usize, fanouts: Vec<usize>, seed: u64) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(!fanouts.is_empty(), "fanouts must name at least one hop");
        assert!(fanouts.iter().all(|&f| f > 0), "fanouts must be positive");
        Self { batch_size, fanouts, seed }
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Batches of seed nodes for one epoch: `seeds` permuted by a seeded
    /// Fisher-Yates, then chunked into `batch_size` groups (the last may be
    /// short). `epoch` selects the permutation stream; `VAL_EPOCH` keys
    /// the fixed validation plan.
    pub fn epoch_batches(&self, seeds: &[usize], epoch: u64) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = seeds.to_vec();
        let key = mix(&[self.seed, TAG_SHUFFLE, epoch]);
        for i in (1..order.len()).rev() {
            let j = (splitmix64(key.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order.chunks(self.batch_size).map(<[usize]>::to_vec).collect()
    }

    /// Samples the block for `batch` (seed nodes `batch_seeds`): expands the
    /// seeds through the fanouts, extracts the induced subgraph over the
    /// union (seeds first, then neighbors in discovery order), and gathers
    /// the block's feature rows.
    pub fn sample_block(
        &self,
        graph: &Graph,
        features: &Matrix,
        batch_seeds: &[usize],
        epoch: u64,
        batch: u64,
    ) -> SampledBlock {
        let n = graph.num_nodes();
        let mut in_block = vec![false; n];
        let mut nodes: Vec<usize> = Vec::with_capacity(batch_seeds.len() * 4);
        for &s in batch_seeds {
            if !in_block[s] {
                in_block[s] = true;
                nodes.push(s);
            }
        }
        let num_seeds = nodes.len();
        let mut frontier_start = 0usize;
        let mut scratch: Vec<usize> = Vec::new();
        for (layer, &fanout) in self.fanouts.iter().enumerate() {
            let frontier_end = nodes.len();
            for fi in frontier_start..frontier_end {
                let u = nodes[fi];
                let neigh = graph.neighbor_ids(u);
                if neigh.len() <= fanout {
                    for &v in neigh {
                        if !in_block[v] {
                            in_block[v] = true;
                            nodes.push(v);
                        }
                    }
                } else {
                    // Partial Fisher-Yates on a scratch copy: the first
                    // `fanout` slots end up a uniform sample without
                    // replacement, fully determined by the stream key.
                    let key = mix(&[self.seed, TAG_NEIGHBOR, epoch, batch, layer as u64, u as u64]);
                    scratch.clear();
                    scratch.extend_from_slice(neigh);
                    for i in 0..fanout {
                        let span = (scratch.len() - i) as u64;
                        let j = i + (splitmix64(key.wrapping_add(i as u64)) % span) as usize;
                        scratch.swap(i, j);
                        let v = scratch[i];
                        if !in_block[v] {
                            in_block[v] = true;
                            nodes.push(v);
                        }
                    }
                }
            }
            frontier_start = frontier_end;
        }
        let (sub, map) = graph.induced_subgraph(&nodes);
        let block_features = features.gather_rows(&map);
        obs::counter_add("train.sampled_nodes", map.len() as u64);
        obs::counter_add("train.sampled_edges", sub.num_edges() as u64);
        SampledBlock { graph: sub, features: block_features, nodes: map, num_seeds }
    }
}

/// Bounded lookahead for the prefetch pipeline: the sampler thread keeps at
/// most this many blocks queued ahead of the training thread. Two is double
/// buffering — block `t+1` is produced while block `t` trains, with one slot
/// of slack so the producer is never stalled on the exact handoff instant.
const PREFETCH_DEPTH: usize = 2;

/// Queue state shared between the training thread and the sampler thread.
/// Requests and blocks are keyed by `(epoch, batch)` — the same key
/// [`NeighborSampler::sample_block`] derives its draw streams from — so a
/// prefetched block is bitwise identical to one sampled inline.
struct PrefetchState {
    /// Sampling requests the producer has not picked up yet, in epoch order:
    /// `(epoch, batch, seed nodes)`.
    pending: VecDeque<(u64, u64, Vec<usize>)>,
    /// Produced blocks awaiting consumption, tagged with their request key.
    ready: VecDeque<(u64, u64, SampledBlock)>,
    /// Bumped by [`Prefetcher::cancel`]: a block produced under an older
    /// generation is discarded on arrival instead of queued.
    cancel_gen: u64,
    /// Set on shutdown (normal return or a training-thread unwind) so the
    /// sampler exits and the scope join cannot deadlock.
    closed: bool,
}

/// Handoff channel for the double-buffered sampler thread (see the module
/// docs). Plain `Mutex` + two `Condvar`s: `work` wakes the producer (new
/// requests, a freed lookahead slot, cancel, close), `done` wakes the
/// consumer (a block landed in `ready`).
struct Prefetcher {
    state: Mutex<PrefetchState>,
    work: Condvar,
    done: Condvar,
}

/// Marks the prefetch queue closed when dropped, including during unwinding:
/// held on the training thread so a panic mid-epoch releases the sampler, and
/// inside [`Prefetcher::run`] so a sampler panic fails `take` fast instead of
/// leaving the training thread parked forever.
struct CloseOnDrop<'a>(&'a Prefetcher);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl Prefetcher {
    fn new() -> Self {
        Self {
            state: Mutex::new(PrefetchState {
                pending: VecDeque::new(),
                ready: VecDeque::new(),
                cancel_gen: 0,
                closed: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Locks the shared state, shrugging off poison: both sides already
    /// fail-fast through `closed`, so a panicking peer must not also wedge
    /// this thread on the lock.
    fn lock(&self) -> MutexGuard<'_, PrefetchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues one epoch's batches for production, in training order.
    fn schedule(&self, epoch: u64, batches: &[Vec<usize>]) {
        let mut st = self.lock();
        for (batch, seeds) in batches.iter().enumerate() {
            st.pending.push_back((epoch, batch as u64, seeds.clone()));
        }
        drop(st);
        self.work.notify_all();
    }

    /// Blocks until the sampler has produced the block for `(epoch, batch)`.
    fn take(&self, epoch: u64, batch: u64) -> SampledBlock {
        let mut st = self.lock();
        loop {
            if let Some(pos) = st.ready.iter().position(|entry| entry.0 == epoch && entry.1 == batch) {
                let (_, _, block) = st.ready.remove(pos).expect("scanned position exists");
                drop(st);
                // a lookahead slot just opened up
                self.work.notify_all();
                return block;
            }
            assert!(!st.closed, "prefetch sampler exited before producing block ({epoch}, {batch})");
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Divergence recovery skipped the rest of the epoch: drop every queued
    /// request and block. A block already in flight is discarded on arrival
    /// (its generation no longer matches). The next epoch re-schedules.
    fn cancel(&self) {
        let mut st = self.lock();
        st.pending.clear();
        st.ready.clear();
        st.cancel_gen += 1;
        drop(st);
        self.work.notify_all();
    }

    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.work.notify_all();
        self.done.notify_all();
    }

    /// Sampler-thread loop: produce pending requests in order, staying at
    /// most [`PREFETCH_DEPTH`] blocks ahead of consumption.
    fn run(&self, sampler: &NeighborSampler, graph: &Graph, features: &Matrix) {
        let _close = CloseOnDrop(self);
        loop {
            let (epoch, batch, seeds, generation) = {
                let mut st = self.lock();
                loop {
                    if st.closed {
                        return;
                    }
                    if st.ready.len() < PREFETCH_DEPTH {
                        if let Some((epoch, batch, seeds)) = st.pending.pop_front() {
                            break (epoch, batch, seeds, st.cancel_gen);
                        }
                    }
                    st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let block = sampler.sample_block(graph, features, &seeds, epoch, batch);
            let mut st = self.lock();
            if st.cancel_gen == generation {
                st.ready.push_back((epoch, batch, block));
                drop(st);
                self.done.notify_all();
            }
        }
    }
}

/// Per-block loss: the task objective over the block's local rows, masked to
/// the seed nodes. The tape losses normalize by the mask-weight sum, so a
/// block loss is on the same scale as the full-batch loss.
fn block_loss<E: BlockModel>(
    model: &SupervisedModel<E>,
    s: &mut Session<'_>,
    block: &SampledBlock,
    task: &NodeTask,
    bound: &E,
) -> (gnn4tdl_tensor::Var, f32) {
    let x = s.input(block.features.clone());
    let emb = bound.forward(s, x);
    let out = model.head.forward(s, emb);
    let mask = block.seed_mask(task.row_weights.as_deref());
    let mask_weight: f32 = mask.iter().sum();
    let loss = match &task.target {
        TaskTarget::Classification { labels, .. } => {
            let local: Vec<usize> = block.nodes.iter().map(|&g| labels[g]).collect();
            s.tape.softmax_cross_entropy(out, Arc::new(local), Some(Arc::new(mask)))
        }
        TaskTarget::Regression { values } => {
            let local = values.gather_rows(&block.nodes);
            s.tape.mse_loss(out, Arc::new(local), Some(Arc::new(mask)))
        }
    };
    (loss, mask_weight)
}

/// Evaluation-mode loss over a fixed set of blocks, combined as the
/// mask-weighted mean so it matches the scale of a full-batch loss.
fn eval_blocks<E: BlockModel>(
    model: &SupervisedModel<E>,
    store: &ParamStore,
    task: &NodeTask,
    blocks: &[SampledBlock],
) -> f32 {
    let mut total = 0.0f64;
    let mut weight = 0.0f64;
    for block in blocks {
        let bound = model.encoder.bind(&block.graph);
        let mut s = Session::eval(store);
        let (loss, w) = block_loss(model, &mut s, block, task, &bound);
        total += f64::from(s.tape.value(loss).get(0, 0)) * f64::from(w);
        weight += f64::from(w);
    }
    if weight > 0.0 {
        (total / weight) as f32
    } else {
        f32::INFINITY
    }
}

/// Fits `model` on `task` with neighbor-sampled minibatches over `graph`.
///
/// The loop mirrors [`crate::trainer::fit_weighted`] — gradient clipping,
/// divergence recovery (per *block*: a non-finite loss, gradient, or
/// post-step parameter rolls back to the best snapshot and halves the
/// learning rate), early stopping on validation loss, and phase-tagged
/// epoch-granularity checkpoints — but each optimizer step sees one sampled
/// block instead of the full graph. Validation uses a fixed epoch-independent
/// block plan over the validation split so the early-stopping signal is
/// comparable across epochs. Auxiliary tasks are not supported on this path.
pub fn fit_minibatch<E: BlockModel>(
    model: &SupervisedModel<E>,
    store: &mut ParamStore,
    graph: &Graph,
    task: &NodeTask,
    sampler: &NeighborSampler,
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!task.split.train.is_empty(), "minibatch training needs a non-empty train split");
    assert_eq!(graph.num_nodes(), task.num_rows(), "graph/feature row mismatch");
    let _span = obs::span("train.fit_minibatch");
    let phase_label = obs::current_path().unwrap_or_else(|| "train.fit_minibatch".to_string());
    let started = Instant::now();
    let mut optimizer = cfg.optimizer.build(cfg.weight_decay);
    let mut lr_factor = 1.0f32;
    let allowed: Option<HashSet<usize>> =
        cfg.trainable.as_ref().map(|ids| ids.iter().map(|id| id.index()).collect());

    // Fixed validation plan: sampled once, reused every epoch.
    let val_blocks: Vec<SampledBlock> = sampler
        .epoch_batches(&task.split.val, VAL_EPOCH)
        .iter()
        .enumerate()
        .map(|(b, seeds)| sampler.sample_block(graph, &task.features, seeds, VAL_EPOCH, b as u64))
        .collect();

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

    // Sampling overlap: only when requested and obs tracing is off — a
    // speculative block discarded by divergence recovery would otherwise
    // count ledger work the inline path never does (see the module docs).
    let use_prefetch = cfg.prefetch && !obs::enabled();

    let mut run_epochs = |prefetch: Option<&Prefetcher>| {
        'epochs: for epoch in start_epoch..cfg.epochs {
            let batches = sampler.epoch_batches(&task.split.train, epoch as u64);
            if let Some(p) = prefetch {
                p.schedule(epoch as u64, &batches);
            }
            let mut epoch_loss = 0.0f64;
            let mut epoch_weight = 0.0f64;
            let mut epoch_grad_norm = 0.0f32;
            let mut epoch_clipped = false;
            for (batch, seeds) in batches.iter().enumerate() {
                let block = match prefetch {
                    Some(p) => p.take(epoch as u64, batch as u64),
                    None => sampler.sample_block(graph, &task.features, seeds, epoch as u64, batch as u64),
                };
                let bound = model.encoder.bind(&block.graph);
                let dropout_seed = mix(&[cfg.seed, TAG_DROPOUT, epoch as u64, batch as u64]);
                let mut s = Session::train(store, dropout_seed);
                let (loss, mask_weight) = block_loss(model, &mut s, &block, task, &bound);
                let mut train_loss = s.tape.value(loss).get(0, 0);
                if fault::trip(fault::FaultKind::InfLoss) {
                    train_loss = f32::INFINITY;
                }
                let mut grads = s.backward(loss);
                if let Some(allowed) = &allowed {
                    grads.retain(|(id, _)| allowed.contains(&id.index()));
                }
                if fault::trip(fault::FaultKind::NanGrad) {
                    if let Some((_, g)) = grads.first_mut() {
                        g.data_mut()[0] = f32::NAN;
                    }
                }
                let grad_norm = global_grad_norm(&grads);
                epoch_grad_norm = epoch_grad_norm.max(grad_norm);
                let mut divergent = !train_loss.is_finite() || !grad_norm.is_finite();
                if !divergent {
                    if let Some(clip) = cfg.clip_norm {
                        if grad_norm > clip {
                            let scale = clip / grad_norm;
                            for (_, g) in &mut grads {
                                for v in g.data_mut() {
                                    *v *= scale;
                                }
                            }
                            epoch_clipped = true;
                            clipped_steps += 1;
                            obs::counter_add("train.clipped_steps", 1);
                        }
                    }
                    optimizer.step(store, &grads);
                }
                if !divergent && !params_finite(store) {
                    divergent = true;
                }
                obs::counter_add("train.batches", 1);
                if divergent {
                    // Per-block recovery: discard the poisoned step, roll back
                    // to the best snapshot, and restart the optimizer at half
                    // the learning rate. The rest of the epoch is skipped so
                    // no further step builds on discarded state.
                    recoveries += 1;
                    obs::counter_add("train.recoveries", 1);
                    if let Some(p) = prefetch {
                        // The rest of this epoch's requests (and any block
                        // already produced for them) are dead: the retry epoch
                        // re-schedules from scratch.
                        p.cancel();
                    }
                    store.restore(&best_snapshot);
                    lr_factor *= 0.5;
                    optimizer = cfg.optimizer.with_lr_factor(lr_factor).build(cfg.weight_decay);
                    history.push(EpochStats {
                        train_loss,
                        aux_loss: 0.0,
                        val_loss: f32::INFINITY,
                        improved: false,
                        bad_epochs,
                        grad_norm,
                        clipped: epoch_clipped,
                        recovered: true,
                    });
                    if obs::enabled() {
                        obs::counter_add("train.epochs", 1);
                        obs::record_epoch(obs::EpochRecord {
                            phase: phase_label.clone(),
                            epoch,
                            train_loss,
                            aux_loss: 0.0,
                            val_loss: f32::INFINITY,
                            improved: false,
                            bad_epochs,
                        });
                    }
                    if recoveries > cfg.max_recoveries {
                        diverged = true;
                        break 'epochs;
                    }
                    continue 'epochs;
                }
                epoch_loss += f64::from(train_loss) * f64::from(mask_weight);
                epoch_weight += f64::from(mask_weight);
            }
            let train_loss =
                if epoch_weight > 0.0 { (epoch_loss / epoch_weight) as f32 } else { f32::INFINITY };

            let mut val_loss = if val_blocks.is_empty() {
                // no validation split: track the training objective
                train_loss
            } else {
                eval_blocks(model, store, task, &val_blocks)
            };
            if !val_loss.is_finite() {
                // A finite training epoch with a blown-up validation loss still
                // counts against the recovery budget (mirrors `fit_weighted`).
                recoveries += 1;
                obs::counter_add("train.recoveries", 1);
                store.restore(&best_snapshot);
                lr_factor *= 0.5;
                optimizer = cfg.optimizer.with_lr_factor(lr_factor).build(cfg.weight_decay);
                val_loss = f32::INFINITY;
                history.push(EpochStats {
                    train_loss,
                    aux_loss: 0.0,
                    val_loss,
                    improved: false,
                    bad_epochs,
                    grad_norm: epoch_grad_norm,
                    clipped: epoch_clipped,
                    recovered: true,
                });
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
                aux_loss: 0.0,
                val_loss,
                improved,
                bad_epochs,
                grad_norm: epoch_grad_norm,
                clipped: epoch_clipped,
                recovered: false,
            });
            if obs::enabled() {
                obs::counter_add("train.epochs", 1);
                obs::record_epoch(obs::EpochRecord {
                    phase: phase_label.clone(),
                    epoch,
                    train_loss,
                    aux_loss: 0.0,
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
    };

    if use_prefetch {
        let prefetcher = Prefetcher::new();
        std::thread::scope(|scope| {
            scope.spawn(|| prefetcher.run(sampler, graph, &task.features));
            // Closes the queue even if the training loop unwinds, so the
            // scope join below can never hang on a parked sampler.
            let _close = CloseOnDrop(&prefetcher);
            run_epochs(Some(&prefetcher));
        });
    } else {
        run_epochs(None);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_batches_partition_and_permute() {
        let sampler = NeighborSampler::new(4, vec![2], 7);
        let seeds: Vec<usize> = (0..10).collect();
        let batches = sampler.epoch_batches(&seeds, 0);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
        let mut all: Vec<usize> = batches.concat();
        all.sort_unstable();
        assert_eq!(all, seeds);
        // different epochs shuffle differently (overwhelmingly likely)
        assert_ne!(batches, sampler.epoch_batches(&seeds, 1));
        // same epoch is reproducible
        assert_eq!(batches, sampler.epoch_batches(&seeds, 0));
    }

    #[test]
    fn sample_block_seeds_first_and_respects_fanout() {
        // star: node 0 connected to 1..=9
        let edges: Vec<(usize, usize)> = (1..10).map(|v| (0, v)).collect();
        let g = Graph::from_edges(10, &edges, true);
        let x = Matrix::from_rows(&(0..10).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let sampler = NeighborSampler::new(2, vec![3], 42);
        let block = sampler.sample_block(&g, &x, &[0], 0, 0);
        assert_eq!(block.num_seeds, 1);
        assert_eq!(block.nodes[0], 0);
        // seed 0 has 9 neighbors, fanout 3 -> exactly 4 nodes in the block
        assert_eq!(block.num_nodes(), 4);
        assert_eq!(block.features.rows(), 4);
        // gathered features carry the global node id in column 0
        for (local, &global) in block.nodes.iter().enumerate() {
            assert_eq!(block.features.get(local, 0), global as f32);
        }
        // mask selects exactly the seed
        let mask = block.seed_mask(None);
        assert_eq!(mask[0], 1.0);
        assert!(mask[1..].iter().all(|&m| m == 0.0));
    }

    #[test]
    fn sample_block_keeps_small_neighborhoods_whole() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], true);
        let x = Matrix::zeros(4, 1);
        let sampler = NeighborSampler::new(4, vec![10, 10], 0);
        let block = sampler.sample_block(&g, &x, &[0], 5, 0);
        // fanouts exceed every degree: two hops from node 0 reach 0,1,2
        assert_eq!(block.nodes, vec![0, 1, 2]);
        let (expect, _) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(block.graph.adjacency(), expect.adjacency());
    }

    #[test]
    fn sample_block_is_reproducible_per_key() {
        let mut edges = Vec::new();
        for u in 0..40usize {
            for d in 1..=5usize {
                edges.push((u, (u + d * 7) % 40));
            }
        }
        let g = Graph::from_edges(40, &edges, true);
        let x = Matrix::zeros(40, 3);
        let sampler = NeighborSampler::new(8, vec![3, 2], 9);
        let a = sampler.sample_block(&g, &x, &[1, 5, 9], 2, 0);
        let b = sampler.sample_block(&g, &x, &[1, 5, 9], 2, 0);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.graph.adjacency(), b.graph.adjacency());
        // a different epoch draws a different neighborhood
        let c = sampler.sample_block(&g, &x, &[1, 5, 9], 3, 0);
        assert_ne!(a.nodes, c.nodes);
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_rejected() {
        NeighborSampler::new(0, vec![2], 0);
    }

    #[test]
    #[should_panic(expected = "fanouts must name at least one hop")]
    fn empty_fanouts_rejected() {
        NeighborSampler::new(4, vec![], 0);
    }
}
