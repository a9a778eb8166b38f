//! Servable model bundles: everything an online inference server needs to
//! answer predictions for unseen rows, in one checksummed snapshot file.
//!
//! A [`ServableModel`] packages four things that training normally keeps in
//! separate in-process structures:
//!
//! 1. a [`ServableConfig`] — the architecture and graph-construction recipe
//!    (encoder, dims, `k`, similarity, index backend),
//! 2. the trained [`ParamStore`] weights,
//! 3. the encoded corpus feature matrix, and
//! 4. the corpus instance graph (CSR snapshot).
//!
//! # Request lifecycle (the incremental path)
//!
//! An unseen row never triggers a full-graph recompute. Instead:
//!
//! 1. its `k` nearest corpus rows are found (exact re-query under
//!    [`IndexKind::Exact`], or `HnswIndex::insert` on the server's owned
//!    index under [`IndexKind::Hnsw`]),
//! 2. the row joins the *extended* graph (corpus graph plus the row with
//!    symmetric unit edges to its neighbors), and a message-flow
//!    [`Block`] is sliced out of it: the last layer computes the request
//!    row alone, and each earlier layer the next layer's rows plus their
//!    neighbors, so the input is the `L`-hop neighborhood of an `L`-layer
//!    encoder (none for the MLP, whose block is the request row),
//! 3. the encoder runs over the block and the head's output row is the
//!    answer.
//!
//! The block is *exact*, not approximate. Each layer's operator holds
//! exactly the rows of the extended graph's normalized adjacency that the
//! layer's outputs need, and each row carries every entry of the full
//! row, in the same column order (ascending id, request row last), with
//! values from the same arithmetic: corpus row sums are computed once per
//! snapshot, and the request entry adds one to an attachment neighbor's
//! sum. Kernels accumulate each output row over its own entries in stored
//! order and GEMM rows are independent, so every computed row is
//! bit-identical to that node's row of a full-graph forward.
//! [`ServableModel::predict_full`] materializes the full extended graph as
//! the test oracle.
//!
//! # Determinism contract
//!
//! Request rows attach to the frozen corpus graph; they never rewire
//! corpus↔corpus edges (the training-time graph is part of the model), and
//! batch rows are independent of each other. Predictions are therefore a
//! pure function of `(snapshot, request row)` — identical across reruns,
//! thread counts, and batch compositions.

use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gnn4tdl_construct::{
    build_instance_graph_with, EdgeRule, ExactIndex, IndexKind, NeighborIndex, Similarity,
};
use gnn4tdl_data::Split;
use gnn4tdl_graph::Graph;
use gnn4tdl_nn::{Block, GcnModel, GinModel, MlpModel, NodeModel, SageModel, Session};
use gnn4tdl_tensor::{
    atomic_write, fault, fnv1a64, obs, parallel, CsrMatrix, GnnError, Matrix, ParamStore, Var,
};
use gnn4tdl_train::{discover_best_checkpoints, fit, NodeTask, SupervisedModel, TrainConfig};

use crate::pipeline::EncoderSpec;
use crate::predictor::softmax_rows;

/// Magic + version of the servable snapshot container. Version 2 added a
/// `generation: u64` right after the version word (durable-serving
/// lineage); version-1 snapshots still load, as generation 0.
const MAGIC: &[u8; 4] = b"GSRV";
const VERSION: u32 = 2;
/// Schema tag inside the embedded config JSON.
const SCHEMA: &str = "gnn4tdl.servable/v1";

/// Architecture + graph recipe of a servable model. Everything needed to
/// rebuild the parameter layout and the request-time neighbor search;
/// round-trips through a flat JSON object inside the snapshot file.
#[derive(Clone, Debug, PartialEq)]
pub struct ServableConfig {
    /// Block encoder; [`EncoderSpec::Gat`] is rejected (it cannot rebind to
    /// a request subgraph).
    pub encoder: EncoderSpec,
    /// Encoded feature width the model was trained on.
    pub in_dim: usize,
    pub hidden: usize,
    /// Message-passing depth (at least one layer is built); a request
    /// block reaches `layers` hops.
    pub layers: usize,
    pub num_classes: usize,
    pub dropout: f32,
    /// Neighbors per request row (and per corpus row at construction).
    pub k: usize,
    pub similarity: Similarity,
    pub index: IndexKind,
}

impl ServableConfig {
    /// Validates serving preconditions: a bindable encoder, `k >= 1`, and
    /// index parameters compatible with `k`.
    pub fn validate(&self) -> Result<(), GnnError> {
        if matches!(self.encoder, EncoderSpec::Gat { .. }) {
            return Err(GnnError::InvalidConfig {
                detail: "serving supports block encoders (mlp/gcn/sage/gin); gat cannot rebind to a \
                         request subgraph"
                    .into(),
            });
        }
        if self.k == 0 {
            return Err(GnnError::InvalidConfig { detail: "serving needs k >= 1 neighbors".into() });
        }
        if self.num_classes < 2 {
            return Err(GnnError::InvalidConfig { detail: "serving needs num_classes >= 2".into() });
        }
        self.index.validate(self.k)
    }

    /// Flat JSON encoding (no nesting, so the minimal field parser below
    /// round-trips it without a JSON tree).
    fn to_json(&self) -> String {
        let (index, m, efc, efs, iseed) = match self.index {
            IndexKind::Exact => ("exact", 0, 0, 0, 0),
            IndexKind::Hnsw { m, ef_construction, ef_search, seed } => {
                ("hnsw", m, ef_construction, ef_search, seed)
            }
        };
        let (sim, sigma) = match self.similarity {
            Similarity::Euclidean => ("euclidean", 0.0),
            Similarity::Cosine => ("cosine", 0.0),
            Similarity::InnerProduct => ("inner_product", 0.0),
            Similarity::Gaussian { sigma } => ("gaussian", sigma),
        };
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"encoder\": \"{}\", \"in_dim\": {}, \"hidden\": {}, \
             \"layers\": {}, \"num_classes\": {}, \"dropout\": {}, \"k\": {}, \"similarity\": \"{sim}\", \
             \"sigma\": {sigma}, \"index\": \"{index}\", \"m\": {m}, \"ef_construction\": {efc}, \
             \"ef_search\": {efs}, \"index_seed\": {iseed}}}",
            self.encoder.name(),
            self.in_dim,
            self.hidden,
            self.layers,
            self.num_classes,
            self.dropout,
            self.k,
        )
    }

    fn from_json(text: &str) -> Result<Self, GnnError> {
        let bad = |what: &str| GnnError::Checkpoint { detail: format!("servable config: {what}") };
        if !text.contains(SCHEMA) {
            return Err(bad("missing schema tag"));
        }
        let get = |key: &str| field(text, key).ok_or_else(|| bad(&format!("missing field '{key}'")));
        let num = |key: &str| -> Result<usize, GnnError> {
            get(key)?.parse::<usize>().map_err(|_| bad(&format!("field '{key}' is not an integer")))
        };
        let encoder = match get("encoder")?.as_str() {
            "mlp" => EncoderSpec::Mlp,
            "gcn" => EncoderSpec::Gcn,
            "sage" => EncoderSpec::Sage,
            "gin" => EncoderSpec::Gin,
            other => return Err(bad(&format!("unsupported encoder '{other}'"))),
        };
        let similarity = match get("similarity")?.as_str() {
            "euclidean" => Similarity::Euclidean,
            "cosine" => Similarity::Cosine,
            "inner_product" => Similarity::InnerProduct,
            "gaussian" => Similarity::Gaussian {
                sigma: get("sigma")?.parse().map_err(|_| bad("field 'sigma' is not a number"))?,
            },
            other => return Err(bad(&format!("unsupported similarity '{other}'"))),
        };
        let index = match get("index")?.as_str() {
            "exact" => IndexKind::Exact,
            "hnsw" => IndexKind::Hnsw {
                m: num("m")?,
                ef_construction: num("ef_construction")?,
                ef_search: num("ef_search")?,
                seed: get("index_seed")?.parse().map_err(|_| bad("field 'index_seed' is not an integer"))?,
            },
            other => return Err(bad(&format!("unsupported index '{other}'"))),
        };
        let cfg = Self {
            encoder,
            in_dim: num("in_dim")?,
            hidden: num("hidden")?,
            layers: num("layers")?,
            num_classes: num("num_classes")?,
            dropout: get("dropout")?.parse().map_err(|_| bad("field 'dropout' is not a number"))?,
            k: num("k")?,
            similarity,
            index,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Extracts `"key":` from a flat JSON object, unquoting strings — the same
/// minimal discipline as the checkpoint manifest parser.
fn field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        return Some(stripped[..stripped.find('"')?].to_string());
    }
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().to_string())
}

/// The encoder variants a servable model can carry: exactly the models
/// with a message-flow block forward (and a rebind for the oracle).
#[derive(Clone)]
pub enum ServeEncoder {
    Mlp(MlpModel),
    Gcn(GcnModel),
    Sage(SageModel),
    Gin(GinModel),
}

impl ServeEncoder {
    fn build(
        cfg: &ServableConfig,
        store: &mut ParamStore,
        graph: &Graph,
        rng: &mut StdRng,
    ) -> Result<Self, GnnError> {
        let mut dims = vec![cfg.in_dim];
        dims.extend(std::iter::repeat_n(cfg.hidden, cfg.layers.max(1)));
        Ok(match cfg.encoder {
            EncoderSpec::Mlp => ServeEncoder::Mlp(MlpModel::new(store, &dims, cfg.dropout, rng)),
            EncoderSpec::Gcn => ServeEncoder::Gcn(GcnModel::new(store, graph, &dims, cfg.dropout, rng)),
            EncoderSpec::Sage => ServeEncoder::Sage(SageModel::new(store, graph, &dims, cfg.dropout, rng)),
            EncoderSpec::Gin => ServeEncoder::Gin(GinModel::new(store, graph, &dims, cfg.dropout, rng)),
            EncoderSpec::Gat { .. } => {
                return Err(GnnError::InvalidConfig { detail: "gat is not servable".into() })
            }
        })
    }

    /// Rebinds to another graph (the per-request local subgraph), sharing
    /// the underlying parameters.
    fn bind(&self, graph: &Graph) -> Self {
        match self {
            ServeEncoder::Mlp(m) => ServeEncoder::Mlp(m.clone()),
            ServeEncoder::Gcn(m) => ServeEncoder::Gcn(gnn4tdl_nn::BlockModel::bind(m, graph)),
            ServeEncoder::Sage(m) => ServeEncoder::Sage(gnn4tdl_nn::BlockModel::bind(m, graph)),
            ServeEncoder::Gin(m) => ServeEncoder::Gin(gnn4tdl_nn::BlockModel::bind(m, graph)),
        }
    }

    /// Forward over a request [`Block`]: the serving hot path.
    fn forward_block(&self, s: &mut Session<'_>, block: &Block, x: Var) -> Var {
        match self {
            ServeEncoder::Mlp(m) => m.forward_block(s, block, x),
            ServeEncoder::Gcn(m) => m.forward_block(s, block, x),
            ServeEncoder::Sage(m) => m.forward_block(s, block, x),
            ServeEncoder::Gin(m) => m.forward_block(s, block, x),
        }
    }
}

impl NodeModel for ServeEncoder {
    fn forward(&self, s: &mut Session<'_>, x: Var) -> Var {
        match self {
            ServeEncoder::Mlp(m) => m.forward(s, x),
            ServeEncoder::Gcn(m) => m.forward(s, x),
            ServeEncoder::Sage(m) => m.forward(s, x),
            ServeEncoder::Gin(m) => m.forward(s, x),
        }
    }

    fn out_dim(&self) -> usize {
        match self {
            ServeEncoder::Mlp(m) => m.out_dim(),
            ServeEncoder::Gcn(m) => m.out_dim(),
            ServeEncoder::Sage(m) => m.out_dim(),
            ServeEncoder::Gin(m) => m.out_dim(),
        }
    }
}

/// One local prediction for a request row.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalPrediction {
    /// Raw head outputs for the request row.
    pub logits: Vec<f32>,
    /// Row-wise softmax of `logits`.
    pub proba: Vec<f32>,
    /// Input rows of the message-flow block that produced it (request row
    /// included) — the "O(neighborhood)" the serving path touches. For the
    /// full-graph oracle, every node of the extended graph.
    pub subgraph_nodes: usize,
}

/// One request's message-flow frontier; see [`ServableModel::block`].
struct Frontier {
    /// Extended-graph ids in hop order; local 0 is the request row (id
    /// `corpus_len`).
    nodes: Vec<usize>,
    /// `ends[h]`: how many nodes lie within `h` hops, for `h = 0..=depth`.
    ends: Vec<usize>,
    /// Operator rows of the nodes within `depth - 1` hops over local ids,
    /// each in the extended graph's column order.
    indptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f32>,
}

/// Row `g` of `A + I` in column order, as `with_self_loops(1.0)` builds it:
/// the unit self-loop at its sorted place, added onto a stored diagonal.
fn self_looped(adj: &CsrMatrix, g: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
    let (cols, vals) = (adj.neighbors(g), adj.row_values(g));
    let at = cols.partition_point(|&c| c < g);
    let diagonal = cols.get(at) == Some(&g);
    let self_loop = if diagonal { vals[at] + 1.0 } else { 1.0 };
    let rest = at + usize::from(diagonal);
    cols[..at]
        .iter()
        .copied()
        .zip(vals[..at].iter().copied())
        .chain(std::iter::once((g, self_loop)))
        .chain(cols[rest..].iter().copied().zip(vals[rest..].iter().copied()))
}

/// Row sums of the operator `encoder` aggregates through, over the corpus
/// graph: each the sequential sum of the row's entries in column order, as
/// `sym_normalized` (over `A + I`, for GCN) and `row_normalized` (Sage)
/// take them. Gin and the MLP normalize nothing.
fn operator_row_sums(encoder: &EncoderSpec, graph: &Graph) -> Vec<f32> {
    let adj = graph.adjacency();
    match encoder {
        EncoderSpec::Gcn => (0..adj.rows()).map(|g| self_looped(adj, g).map(|(_, w)| w).sum()).collect(),
        EncoderSpec::Sage => adj.row_sums(),
        _ => Vec::new(),
    }
}

/// A trained model plus everything needed to serve it; see the module docs.
pub struct ServableModel {
    pub config: ServableConfig,
    pub store: ParamStore,
    /// Encoded corpus features (`n x in_dim`).
    pub features: Matrix,
    /// Corpus instance graph (symmetric unit-weight kNN).
    pub graph: Graph,
    /// Snapshot lineage: 0 for a freshly fitted model, bumped by each
    /// serving-side compaction or reload that produces a new snapshot.
    pub generation: u64,
    model: SupervisedModel<ServeEncoder>,
    /// [`operator_row_sums`] of `graph`, computed once per snapshot.
    row_sums: Vec<f32>,
}

impl ServableModel {
    /// Trains a servable bundle: builds the kNN instance graph over
    /// `features`, fits the configured encoder + linear head on the labeled
    /// split, and packages the result.
    pub fn fit(
        features: Matrix,
        labels: Vec<usize>,
        split: &Split,
        config: ServableConfig,
        train: &TrainConfig,
    ) -> Result<Self, GnnError> {
        config.validate()?;
        if features.cols() != config.in_dim {
            return Err(GnnError::InvalidConfig {
                detail: format!(
                    "features have {} columns, config.in_dim is {}",
                    features.cols(),
                    config.in_dim
                ),
            });
        }
        let graph = build_instance_graph_with(
            &features,
            config.similarity,
            EdgeRule::Knn { k: config.k },
            &config.index,
        );
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(train.seed);
        let encoder = ServeEncoder::build(&config, &mut store, &graph, &mut rng)?;
        let model = SupervisedModel::new(&mut store, 0, encoder, config.num_classes, &mut rng);
        let task = NodeTask::classification(features.clone(), labels, config.num_classes, split.clone());
        fit(&model, &mut store, &task, &[], train);
        let row_sums = operator_row_sums(&config.encoder, &graph);
        Ok(Self { config, store, features, graph, generation: 0, model, row_sums })
    }

    /// Number of corpus rows.
    pub fn corpus_len(&self) -> usize {
        self.features.rows()
    }

    /// Swaps in the newest valid best-snapshot checkpoint recorded under
    /// `dir` for `phase` (see `gnn4tdl_train::discover_best_checkpoints`),
    /// probe-loading newest-first and rolling back on a corrupt candidate.
    pub fn load_checkpoint_params(&mut self, dir: &Path, phase: usize) -> Result<(), GnnError> {
        let candidates = discover_best_checkpoints(dir, phase);
        if candidates.is_empty() {
            return Err(GnnError::Checkpoint {
                detail: format!("no checkpoint manifest for phase {phase} in {}", dir.display()),
            });
        }
        let pristine = self.store.snapshot();
        for path in &candidates {
            match self.store.load(path) {
                Ok(()) => return Ok(()),
                Err(_) => self.store.restore(&pristine),
            }
        }
        Err(GnnError::Checkpoint {
            detail: format!(
                "all {} checkpoint candidates in {} failed to load",
                candidates.len(),
                dir.display()
            ),
        })
    }

    /// The `k` most similar corpus rows to `row` via the exact blocked
    /// search — the read-only neighbor path under [`IndexKind::Exact`], and
    /// the recall oracle for the approximate one.
    pub fn exact_neighbors(&self, row: &[f32]) -> Vec<(usize, f32)> {
        let q = Matrix::from_vec(1, row.len(), row.to_vec());
        ExactIndex::new(&self.features, self.config.similarity).query_k(&q, 0, self.config.k, None)
    }

    /// [`Self::exact_neighbors`] for a whole batch: one [`ExactIndex`]
    /// (corpus square norms computed once, not once per row) queried per
    /// row. Each row's result is identical to its single-row call —
    /// `query_k` scores one query row at a time against the same index.
    pub fn exact_neighbors_batch(&self, rows: &[Vec<f32>]) -> Vec<Vec<(usize, f32)>> {
        if rows.is_empty() {
            return Vec::new();
        }
        let mut data = Vec::with_capacity(rows.len() * self.config.in_dim);
        for row in rows {
            data.extend_from_slice(row);
        }
        let q = Matrix::from_vec(rows.len(), self.config.in_dim, data);
        let index = ExactIndex::new(&self.features, self.config.similarity);
        (0..rows.len()).map(|i| index.query_k(&q, i, self.config.k, None)).collect()
    }

    /// Folds retained request rows into the corpus, producing the
    /// next-generation servable bundle (serving-side snapshot compaction).
    ///
    /// Each folded row keeps exactly the attachment it had while being
    /// served: symmetric unit edges to its recorded corpus neighbors, and
    /// the same node id (`corpus_len + i`) it held in the live index —
    /// which is what makes a deterministic HNSW rebuild over the compacted
    /// corpus bitwise-identical to the live index it replaces (`build` is
    /// sequential `insert` in id order with seeded level draws). Weights
    /// are carried over unchanged; only features and graph grow.
    pub fn compacted(&self, rows: &[Vec<f32>], neighbors: &[Vec<usize>]) -> Result<Self, GnnError> {
        if rows.is_empty() || rows.len() != neighbors.len() {
            return Err(GnnError::InvalidConfig {
                detail: format!(
                    "compaction needs matching non-empty rows/neighbors, got {}/{}",
                    rows.len(),
                    neighbors.len()
                ),
            });
        }
        for (row, nbrs) in rows.iter().zip(neighbors) {
            self.check_request(row, nbrs)?;
        }
        let n = self.corpus_len();
        let mut triples = self.graph.adjacency().to_triplets();
        for (i, nbrs) in neighbors.iter().enumerate() {
            for &j in nbrs {
                triples.push((n + i, j, 1.0));
                triples.push((j, n + i, 1.0));
            }
        }
        let total = n + rows.len();
        let graph = Graph::from_weighted_edges(total, &triples, false);
        let mut data = self.features.data().to_vec();
        for row in rows {
            data.extend_from_slice(row);
        }
        let features = Matrix::from_vec(total, self.config.in_dim, data);
        // Same reconstruction discipline as `from_bytes`: rebuild the
        // architecture (deterministic registration order), then overwrite
        // the fresh init with the trained weights.
        let params = self.store.save_bytes();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let encoder = ServeEncoder::build(&self.config, &mut store, &graph, &mut rng)?;
        let model = SupervisedModel::new(&mut store, 0, encoder, self.config.num_classes, &mut rng);
        store
            .load_bytes(&params)
            .map_err(|e| GnnError::Checkpoint { detail: format!("compaction parameter carry: {e}") })?;
        obs::counter_add("servable.compacted_rows", rows.len() as u64);
        Ok(Self {
            config: self.config.clone(),
            store,
            features,
            row_sums: operator_row_sums(&self.config.encoder, &graph),
            graph,
            generation: self.generation + 1,
            model,
        })
    }

    /// Local prediction for one request row given its corpus neighbor ids
    /// — the serving hot path, as a batch of one. See the module docs for
    /// why the message-flow block makes this exact.
    pub fn predict_local(&self, row: &[f32], neighbors: &[usize]) -> Result<LocalPrediction, GnnError> {
        let mut predictions = self.predict_local_batch(&[row.to_vec()], &[neighbors.to_vec()])?;
        Ok(predictions.remove(0))
    }

    /// Local predictions for a whole batch in **one** forward pass over
    /// one message-flow [`Block`]: the per-row blocks are stacked (rows of
    /// different requests never share an operator row, mirroring "batch
    /// rows never edge to each other"), and each layer computes only the
    /// rows the next one reads.
    ///
    /// Bitwise-identical to mapping `predict_local` row by row: every
    /// kernel output element is one ascending-k accumulator chain over
    /// that row's inputs alone (GEMM rows are independent), and each
    /// operator row carries exactly the entries, in the same column order,
    /// of the extended graph's row for that node. What changes with the
    /// batch is cost: one GEMM/SpMM sweep per layer over every request's
    /// rows, which the batched kernels tile, instead of `B` tiny dispatches.
    pub fn predict_local_batch(
        &self,
        rows: &[Vec<f32>],
        neighbors: &[Vec<usize>],
    ) -> Result<Vec<LocalPrediction>, GnnError> {
        debug_assert_eq!(rows.len(), neighbors.len());
        let _span = gnn4tdl_tensor::span!("servable.predict_local_batch");
        for (row, nbrs) in rows.iter().zip(neighbors) {
            self.check_request(row, nbrs)?;
        }
        let build = gnn4tdl_tensor::span!("servable.block.build");
        let (block, xs, sizes) = self.block(rows, neighbors)?;
        drop(build);
        let forward = gnn4tdl_tensor::span!("servable.block.forward");
        // Resolve the worker count once for the whole forward: without an
        // override every kernel dispatch re-reads it from the environment
        // and the cgroup limits, which costs more than a request's kernels.
        let logits_m = parallel::with_threads(parallel::current_threads(), || {
            let mut s = Session::eval(&self.store);
            let x = s.input(xs);
            let emb = self.model.encoder.forward_block(&mut s, &block, x);
            let out = self.model.head.forward(&mut s, emb);
            s.tape.value(out).clone()
        });
        drop(forward);
        obs::counter_add("servable.local_nodes", block.input_rows() as u64);
        obs::counter_add("servable.rows_computed", block.rows_computed() as u64);
        Ok(sizes
            .iter()
            .enumerate()
            .map(|(r, &size)| {
                let mut p = self.center_prediction(&logits_m, r);
                p.subgraph_nodes = size;
                p
            })
            .collect())
    }

    /// Full extended-graph prediction for the same request — materializes
    /// the corpus graph plus the request row and forwards *all* nodes. The
    /// O(n) oracle the local path must match; also the baseline the bench
    /// measures speedup against.
    pub fn predict_full(&self, row: &[f32], neighbors: &[usize]) -> Result<LocalPrediction, GnnError> {
        self.check_request(row, neighbors)?;
        let n = self.graph.num_nodes();
        let mut triples = self.graph.adjacency().to_triplets();
        for &j in neighbors {
            triples.push((n, j, 1.0));
            triples.push((j, n, 1.0));
        }
        let g = Graph::from_weighted_edges(n + 1, &triples, false);
        let mut data = self.features.data().to_vec();
        data.extend_from_slice(row);
        let xs = Matrix::from_vec(n + 1, self.config.in_dim, data);
        let logits_m = self.forward(&g, xs);
        Ok(self.center_prediction(&logits_m, n))
    }

    fn check_request(&self, row: &[f32], neighbors: &[usize]) -> Result<(), GnnError> {
        if row.len() != self.config.in_dim {
            return Err(GnnError::InvalidConfig {
                detail: format!(
                    "request row has {} features, model expects {}",
                    row.len(),
                    self.config.in_dim
                ),
            });
        }
        if let Some(&bad) = neighbors.iter().find(|&&j| j >= self.graph.num_nodes()) {
            return Err(GnnError::InvalidConfig {
                detail: format!("neighbor id {bad} out of range for {} corpus rows", self.graph.num_nodes()),
            });
        }
        let mut sorted = neighbors.to_vec();
        sorted.sort_unstable();
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(GnnError::InvalidConfig { detail: format!("neighbor id {} repeated", pair[0]) });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(GnnError::NonFiniteFeature { column: "<request>".into(), row: 0 });
        }
        Ok(())
    }

    /// Message-passing layers a block must carry: none for the MLP, and
    /// otherwise the `layers.max(1)` that [`ServeEncoder::build`] stacks.
    fn depth(&self) -> usize {
        match self.config.encoder {
            EncoderSpec::Mlp => 0,
            _ => self.config.layers.max(1),
        }
    }

    /// The batch's message-flow block, its stacked input features, and each
    /// request's input-row count. Per-request frontiers are stacked
    /// band-major — every request row, then every request's 1-hop nodes,
    /// and so on — so each layer's output rows (the nodes within fewer
    /// hops) stay a prefix of its input rows across the whole batch.
    fn block(
        &self,
        rows: &[Vec<f32>],
        neighbors: &[Vec<usize>],
    ) -> Result<(Block, Matrix, Vec<usize>), GnnError> {
        let depth = self.depth();
        if depth == 0 {
            let xs = Matrix::from_vec(rows.len(), self.config.in_dim, rows.concat());
            return Ok((Block::new(rows.len(), Vec::new())?, xs, vec![1; rows.len()]));
        }
        let mut local = vec![0usize; self.corpus_len()];
        let frontiers: Vec<Frontier> =
            neighbors.iter().map(|nbrs| self.frontier(nbrs, depth, &mut local)).collect();
        let band = |f: &Frontier, h: usize| if h == 0 { 0..1 } else { f.ends[h - 1]..f.ends[h] };
        // Stacked position of every request's nodes, the features in that
        // order, and `within[h]`: the stacked rows within `h` hops.
        let mut at: Vec<Vec<usize>> = frontiers.iter().map(|f| vec![0; f.nodes.len()]).collect();
        let mut within = Vec::with_capacity(depth + 1);
        let mut data = Vec::new();
        let mut next = 0;
        for h in 0..=depth {
            for ((f, pos), row) in frontiers.iter().zip(&mut at).zip(rows) {
                for i in band(f, h) {
                    pos[i] = next;
                    next += 1;
                    data.extend_from_slice(if i == 0 { row } else { self.features.row(f.nodes[i]) });
                }
            }
            within.push(next);
        }
        // The operator rows of the nodes within `depth - 1` hops, in the
        // same stacked order, with local columns mapped to stacked ones.
        let mut indptr = vec![0];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for h in 0..depth {
            for (f, pos) in frontiers.iter().zip(&at) {
                for i in band(f, h) {
                    let entries = f.indptr[i]..f.indptr[i + 1];
                    cols.extend(f.cols[entries.clone()].iter().map(|&c| pos[c]));
                    vals.extend_from_slice(&f.vals[entries]);
                    indptr.push(cols.len());
                }
            }
        }
        // Layer l maps the nodes within `depth - l` hops to those within
        // `depth - 1 - l`: each operator is a row prefix of the one before.
        let operators = (0..depth)
            .map(|l| {
                let (dst, src) = (within[depth - 1 - l], within[depth - l]);
                let nnz = indptr[dst];
                CsrMatrix::from_parts_unchecked(
                    dst,
                    src,
                    indptr[..=dst].to_vec(),
                    cols[..nnz].to_vec(),
                    vals[..nnz].to_vec(),
                )
            })
            .collect();
        let xs = Matrix::from_vec(within[depth], self.config.in_dim, data);
        let sizes = frontiers.iter().map(|f| f.nodes.len()).collect();
        Ok((Block::new(within[depth], operators)?, xs, sizes))
    }

    /// One request's frontier over the extended graph (the corpus graph
    /// plus the request row, attached by unit edges to `neighbors`): its
    /// nodes in hop order and the operator rows of those the layers
    /// compute. `local` maps corpus ids to local ones (0 = absent); it is
    /// all zero on entry and on return.
    fn frontier(&self, neighbors: &[usize], depth: usize, local: &mut [usize]) -> Frontier {
        let adj = self.graph.adjacency();
        // The request row, its neighbors ascending (its row's column
        // order), then each further hop's unseen corpus neighbors.
        let mut nodes = Vec::with_capacity(1 + neighbors.len());
        nodes.push(self.corpus_len());
        nodes.extend_from_slice(neighbors);
        nodes[1..].sort_unstable();
        let mut ends = vec![1, nodes.len()];
        for (i, &g) in nodes.iter().enumerate().skip(1) {
            local[g] = i;
        }
        for h in 2..=depth {
            for i in ends[h - 2]..ends[h - 1] {
                for &v in adj.neighbors(nodes[i]) {
                    if local[v] == 0 {
                        local[v] = nodes.len();
                        nodes.push(v);
                    }
                }
            }
            ends.push(nodes.len());
        }
        let gcn = matches!(self.config.encoder, EncoderSpec::Gcn);
        let attached = |i: usize| (1..ends[1]).contains(&i);
        // Each node's extended row sum, as the sequential sum over its
        // entries in column order: the request row's entries are all ones
        // (plus its GCN self-loop); an attachment's row gains the request
        // entry last, adding 1 to its corpus sum.
        let row_sum = |i: usize| match i {
            0 => (ends[1] - 1 + usize::from(gcn)) as f32,
            _ if attached(i) => self.row_sums[nodes[i]] + 1.0,
            _ => self.row_sums[nodes[i]],
        };
        // Per-node scale of the encoder's operator: `sym_normalized`'s
        // inverse square root for GCN, `row_normalized`'s inverse (rows
        // summing to 0 stay untouched) for Sage, none for Gin.
        let scale: Vec<f32> = (0..nodes.len())
            .map(|i| match self.config.encoder {
                EncoderSpec::Gcn => match row_sum(i) {
                    s if s > 0.0 => 1.0 / s.sqrt(),
                    _ => 0.0,
                },
                EncoderSpec::Sage => match row_sum(i) {
                    s if s != 0.0 => 1.0 / s,
                    _ => 1.0,
                },
                _ => 1.0,
            })
            .collect();
        let value = |r: usize, c: usize, w: f32| match self.config.encoder {
            EncoderSpec::Gcn => w * (scale[r] * scale[c]),
            EncoderSpec::Sage => w * scale[r],
            _ => w,
        };
        let rows = ends[depth - 1];
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for i in 0..rows {
            let mut push = |c: usize, w: f32| {
                cols.push(c);
                vals.push(value(i, c, w));
            };
            if i == 0 {
                (1..ends[1]).for_each(|a| push(a, 1.0));
                if gcn {
                    push(0, 1.0);
                }
            } else {
                let g = nodes[i];
                if gcn {
                    self_looped(adj, g).for_each(|(c, w)| push(local[c], w));
                } else {
                    adj.row_iter(g).for_each(|(c, w)| push(local[c], w));
                }
                if attached(i) {
                    push(0, 1.0);
                }
            }
            indptr.push(cols.len());
        }
        for &g in &nodes[1..] {
            local[g] = 0;
        }
        Frontier { nodes, ends, indptr, cols, vals }
    }

    fn forward(&self, graph: &Graph, xs: Matrix) -> Matrix {
        let bound = self.model.encoder.bind(graph);
        let mut s = Session::eval(&self.store);
        let x = s.input(xs);
        let emb = bound.forward(&mut s, x);
        let out = self.model.head.forward(&mut s, emb);
        s.tape.value(out).clone()
    }

    fn center_prediction(&self, logits_m: &Matrix, center: usize) -> LocalPrediction {
        let logits = logits_m.row(center).to_vec();
        let one = Matrix::from_vec(1, logits.len(), logits.clone());
        let proba = softmax_rows(&one).row(0).to_vec();
        LocalPrediction { logits, proba, subgraph_nodes: logits_m.rows() }
    }

    /// Batch predictions over the frozen corpus (training-time semantics):
    /// softmaxed logits for every corpus row. `/metrics`-style diagnostics
    /// and tests use this; request rows go through [`Self::predict_local`].
    pub fn corpus_proba(&self) -> Matrix {
        let logits = gnn4tdl_train::predict(&self.model, &self.store, &self.features);
        softmax_rows(&logits)
    }

    // -- snapshot container ------------------------------------------------

    /// Serializes the bundle: magic/version, config JSON, GTDL parameter
    /// payload, feature matrix, graph CSR, trailing FNV-1a-64 checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        let config = self.config.to_json().into_bytes();
        out.extend_from_slice(&(config.len() as u64).to_le_bytes());
        out.extend_from_slice(&config);
        let params = self.store.save_bytes();
        out.extend_from_slice(&(params.len() as u64).to_le_bytes());
        out.extend_from_slice(&params);
        out.extend_from_slice(&(self.features.rows() as u64).to_le_bytes());
        out.extend_from_slice(&(self.features.cols() as u64).to_le_bytes());
        for &x in self.features.data() {
            out.extend_from_slice(&x.to_le_bytes());
        }
        let adj = self.graph.adjacency();
        out.extend_from_slice(&(adj.rows() as u64).to_le_bytes());
        out.extend_from_slice(&(adj.nnz() as u64).to_le_bytes());
        for &p in adj.indptr() {
            out.extend_from_slice(&(p as u64).to_le_bytes());
        }
        for &c in adj.indices() {
            out.extend_from_slice(&(c as u64).to_le_bytes());
        }
        for &w in adj.values() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Atomically writes the snapshot. Chaos hooks: the `buffer-corrupt`
    /// fault flips payload bytes before the write (the checksum must catch
    /// it at load), and `io-fail` fires inside [`atomic_write`] as a
    /// mid-write crash that never touches the destination.
    pub fn save(&self, path: &Path) -> Result<(), GnnError> {
        let mut bytes = self.to_bytes();
        fault::corrupt_buffer(&mut bytes);
        atomic_write(path, &bytes).map_err(|e| GnnError::Io { detail: e.to_string() })
    }

    /// Loads a snapshot: verifies magic, version, and checksum *before*
    /// constructing anything (a corrupt file yields a typed
    /// [`GnnError::Checkpoint`] and no partial state), then rebuilds the
    /// architecture from the config and restores the weights into it.
    /// Honors the `io-fail` fault at the `servable.load` failpoint.
    pub fn load(path: &Path) -> Result<Self, GnnError> {
        fault::io_failpoint("servable.load").map_err(|e| GnnError::Io { detail: e.to_string() })?;
        let bytes = std::fs::read(path).map_err(|e| GnnError::Io { detail: e.to_string() })?;
        Self::from_bytes(&bytes)
    }

    /// Parses a snapshot produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GnnError> {
        let corrupt = |what: &str| GnnError::Checkpoint { detail: format!("servable snapshot: {what}") };
        if bytes.len() < 16 || &bytes[..4] != MAGIC {
            return Err(corrupt("bad magic; not a servable snapshot"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version == 0 || version > VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a64(payload) != expected {
            return Err(corrupt("checksum mismatch"));
        }
        let mut cur = 8usize;
        // v1 predates the generation word; such snapshots load as gen 0.
        let generation = if version >= 2 {
            if payload.len() < 16 {
                return Err(corrupt("truncated"));
            }
            cur = 16;
            u64::from_le_bytes(payload[8..16].try_into().unwrap())
        } else {
            0
        };
        let take = |cur: &mut usize, n: usize| -> Result<&[u8], GnnError> {
            let end =
                cur.checked_add(n).filter(|&e| e <= payload.len()).ok_or_else(|| corrupt("truncated"))?;
            let s = &payload[*cur..end];
            *cur = end;
            Ok(s)
        };
        let take_u64 = |cur: &mut usize| -> Result<usize, GnnError> {
            Ok(u64::from_le_bytes(take(cur, 8)?.try_into().unwrap()) as usize)
        };
        let config_len = take_u64(&mut cur)?;
        let config_text = std::str::from_utf8(take(&mut cur, config_len)?)
            .map_err(|_| corrupt("config is not utf-8"))?
            .to_string();
        let config = ServableConfig::from_json(&config_text)?;
        let params_len = take_u64(&mut cur)?;
        let params = take(&mut cur, params_len)?.to_vec();
        let rows = take_u64(&mut cur)?;
        let cols = take_u64(&mut cur)?;
        let raw = take(
            &mut cur,
            rows.checked_mul(cols)
                .and_then(|e| e.checked_mul(4))
                .ok_or_else(|| corrupt("feature shape overflow"))?,
        )?;
        let data: Vec<f32> = raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        let features = Matrix::from_vec(rows, cols, data);
        let n = take_u64(&mut cur)?;
        let nnz = take_u64(&mut cur)?;
        // Size both counts against the bytes left before allocating for
        // them: a forged header is a typed error, not an allocator panic.
        (n.checked_add(1).and_then(|rows| rows.checked_mul(8)))
            .zip(nnz.checked_mul(12))
            .and_then(|(ptr, entries)| ptr.checked_add(entries))
            .filter(|&need| need <= payload.len() - cur)
            .ok_or_else(|| corrupt("graph header exceeds the payload"))?;
        let mut indptr = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            indptr.push(take_u64(&mut cur)?);
        }
        let mut indices = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            indices.push(take_u64(&mut cur)?);
        }
        let wraw = take(&mut cur, nnz * 4)?;
        let values: Vec<f32> =
            wraw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        if cur != payload.len() {
            return Err(corrupt("trailing bytes"));
        }
        if features.cols() != config.in_dim || features.rows() != n {
            return Err(corrupt("feature shape disagrees with config/graph"));
        }
        let graph = Graph::from_adjacency(CsrMatrix::try_from_parts(n, n, indptr, indices, values)?);
        // Rebuild the architecture (deterministic parameter registration
        // order), then overwrite the freshly initialized weights with the
        // stored ones — the same reconstruction discipline as checkpoints.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let encoder = ServeEncoder::build(&config, &mut store, &graph, &mut rng)?;
        let model = SupervisedModel::new(&mut store, 0, encoder, config.num_classes, &mut rng);
        store.load_bytes(&params).map_err(|e| corrupt(&format!("parameter payload: {e}")))?;
        let row_sums = operator_row_sums(&config.encoder, &graph);
        Ok(Self { config, store, features, graph, generation, model, row_sums })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn4tdl_data::encode_all;
    use gnn4tdl_data::synth::{gaussian_clusters, ClustersConfig};

    fn tiny_model(encoder: EncoderSpec) -> ServableModel {
        fitted(encoder, 2, 80, 15)
    }

    /// An exact-index servable over `n` clustered rows with `layers`
    /// message-passing layers, trained for `epochs`.
    fn fitted(encoder: EncoderSpec, layers: usize, n: usize, epochs: usize) -> ServableModel {
        let mut rng = StdRng::seed_from_u64(5);
        let dataset = gaussian_clusters(
            &ClustersConfig {
                n,
                informative: 6,
                noise_features: 2,
                classes: 3,
                cluster_std: 0.7,
                ..Default::default()
            },
            &mut rng,
        );
        let features = encode_all(&dataset.table).features;
        let labels = match &dataset.target {
            gnn4tdl_data::Target::Classification { labels, .. } => labels.clone(),
            _ => unreachable!("clusters dataset is classification"),
        };
        let split = Split::stratified(&labels, 0.6, 0.2, &mut rng);
        let config = ServableConfig {
            encoder,
            in_dim: features.cols(),
            hidden: 8,
            layers,
            num_classes: 3,
            dropout: 0.0,
            k: 5,
            similarity: Similarity::Euclidean,
            index: IndexKind::Exact,
        };
        let train = TrainConfig { epochs, ..Default::default() };
        ServableModel::fit(features, labels, &split, config, &train).expect("fit servable")
    }

    /// Logit and probability bits: the local path's equality contract.
    fn bits(p: &LocalPrediction) -> (Vec<u32>, Vec<u32>) {
        (p.logits.iter().map(|v| v.to_bits()).collect(), p.proba.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn local_prediction_matches_full_oracle() {
        for encoder in [EncoderSpec::Gcn, EncoderSpec::Sage, EncoderSpec::Gin, EncoderSpec::Mlp] {
            let m = tiny_model(encoder);
            let row: Vec<f32> = (0..m.config.in_dim).map(|j| (j as f32 * 0.37).sin()).collect();
            let nbrs: Vec<usize> = m.exact_neighbors(&row).iter().map(|&(j, _)| j).collect();
            let local = m.predict_local(&row, &nbrs).unwrap();
            let full = m.predict_full(&row, &nbrs).unwrap();
            assert!(local.subgraph_nodes <= full.subgraph_nodes);
            assert_eq!(bits(&local), bits(&full), "{encoder:?}");
        }
    }

    /// Every depth and encoder: local == full-graph and batch == singles,
    /// bit for bit, including a request with no attachment neighbors; a
    /// repeated neighbor id is a typed error on both paths.
    #[test]
    fn every_depth_matches_full_and_batches_bitwise() {
        for layers in 1..=3 {
            for encoder in [EncoderSpec::Gcn, EncoderSpec::Sage, EncoderSpec::Gin, EncoderSpec::Mlp] {
                let m = fitted(encoder, layers, 500, 3);
                let rows: Vec<Vec<f32>> = (0..6)
                    .map(|r| {
                        let base = m.features.row(r * 83 % m.corpus_len());
                        base.iter()
                            .enumerate()
                            .map(|(j, &v)| v + ((j + r) as f32 * 0.713).sin() * 0.05)
                            .collect()
                    })
                    .collect();
                let mut nbrs: Vec<Vec<usize>> = m
                    .exact_neighbors_batch(&rows)
                    .into_iter()
                    .map(|hits| hits.into_iter().map(|(j, _)| j).collect())
                    .collect();
                nbrs[5].clear();
                let batch = m.predict_local_batch(&rows, &nbrs).unwrap();
                for ((row, n), got) in rows.iter().zip(&nbrs).zip(&batch) {
                    let single = m.predict_local(row, n).unwrap();
                    let full = m.predict_full(row, n).unwrap();
                    assert_eq!(bits(&single), bits(&full), "{encoder:?} layers {layers}: local vs full");
                    assert_eq!(bits(&single), bits(got), "{encoder:?} layers {layers}: single vs batch");
                    assert_eq!(single.subgraph_nodes, got.subgraph_nodes);
                }
                let repeated = vec![nbrs[0][0], nbrs[0][1], nbrs[0][0]];
                for result in [m.predict_local(&rows[0], &repeated), m.predict_full(&rows[0], &repeated)] {
                    match result {
                        Err(GnnError::InvalidConfig { detail }) => {
                            assert!(detail.contains("repeated"), "{detail}")
                        }
                        other => panic!("{encoder:?}: repeated neighbor id must be typed, got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        let m = tiny_model(EncoderSpec::Gcn);
        let dir = std::env::temp_dir().join(format!("gnn4tdl-servable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gsrv");
        m.save(&path).unwrap();
        let loaded = ServableModel::load(&path).unwrap();
        assert_eq!(loaded.config, m.config);
        assert_eq!(loaded.features.data(), m.features.data());
        assert_eq!(loaded.graph.num_edges(), m.graph.num_edges());
        let row: Vec<f32> = (0..m.config.in_dim).map(|j| (j as f32 * 0.11).cos()).collect();
        let nbrs: Vec<usize> = m.exact_neighbors(&row).iter().map(|&(j, _)| j).collect();
        assert_eq!(m.predict_local(&row, &nbrs).unwrap(), loaded.predict_local(&row, &nbrs).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_rejected_with_no_partial_state() {
        let m = tiny_model(EncoderSpec::Gin);
        let mut bytes = m.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match ServableModel::from_bytes(&bytes) {
            Err(GnnError::Checkpoint { detail }) => assert!(detail.contains("checksum"), "{detail}"),
            Err(other) => panic!("expected checksum rejection, got {other:?}"),
            Ok(_) => panic!("corrupt snapshot must not load"),
        }
        // Truncation is also typed, not a panic.
        let short = &m.to_bytes()[..40];
        assert!(ServableModel::from_bytes(short).is_err());
    }

    #[test]
    fn forged_graph_header_is_a_typed_error_not_a_panic() {
        let m = tiny_model(EncoderSpec::Gcn);
        let bytes = m.to_bytes();
        let adj = m.graph.adjacency();
        let body = bytes.len() - 8;
        let header = body - (adj.rows() + 1) * 8 - adj.nnz() * 12 - 16;
        for (field, at) in [("n", header), ("nnz", header + 8)] {
            let mut forged = bytes[..body].to_vec();
            forged[at..at + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
            let checksum = fnv1a64(&forged);
            forged.extend_from_slice(&checksum.to_le_bytes());
            match ServableModel::from_bytes(&forged) {
                Err(GnnError::Checkpoint { detail }) => assert!(detail.contains("graph header"), "{detail}"),
                Err(other) => panic!("forged {field}: expected a checkpoint error, got {other:?}"),
                Ok(_) => panic!("forged {field}: snapshot must not load"),
            }
        }
    }

    #[test]
    fn batched_local_prediction_is_bitwise_equal_to_singles() {
        for encoder in [EncoderSpec::Gcn, EncoderSpec::Sage, EncoderSpec::Gin, EncoderSpec::Mlp] {
            let m = tiny_model(encoder);
            let rows: Vec<Vec<f32>> = (0..5)
                .map(|r| (0..m.config.in_dim).map(|j| ((j + r) as f32 * 0.29).sin()).collect())
                .collect();
            let nbrs: Vec<Vec<usize>> = m
                .exact_neighbors_batch(&rows)
                .into_iter()
                .map(|hits| hits.into_iter().map(|(j, _)| j).collect())
                .collect();
            let batch = m.predict_local_batch(&rows, &nbrs).unwrap();
            for ((row, n), got) in rows.iter().zip(&nbrs).zip(&batch) {
                assert_eq!(&m.predict_local(row, n).unwrap(), got, "{encoder:?}");
            }
        }
    }

    #[test]
    fn exact_neighbors_batch_matches_singles() {
        let m = tiny_model(EncoderSpec::Gcn);
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..m.config.in_dim).map(|j| ((j * (r + 1)) as f32 * 0.13).cos()).collect())
            .collect();
        let batch = m.exact_neighbors_batch(&rows);
        for (row, hits) in rows.iter().zip(&batch) {
            assert_eq!(&m.exact_neighbors(row), hits);
        }
    }

    #[test]
    fn generation_survives_the_snapshot_round_trip() {
        let mut m = tiny_model(EncoderSpec::Gcn);
        assert_eq!(m.generation, 0);
        m.generation = 7;
        let loaded = ServableModel::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(loaded.generation, 7);
    }

    #[test]
    fn compaction_folds_rows_and_preserves_predictions() {
        let m = tiny_model(EncoderSpec::Gcn);
        let rows: Vec<Vec<f32>> =
            (0..3).map(|r| (0..m.config.in_dim).map(|j| ((j + r) as f32 * 0.41).sin()).collect()).collect();
        let nbrs: Vec<Vec<usize>> =
            rows.iter().map(|row| m.exact_neighbors(row).into_iter().map(|(j, _)| j).collect()).collect();
        let folded = m.compacted(&rows, &nbrs).unwrap();
        assert_eq!(folded.generation, m.generation + 1);
        assert_eq!(folded.corpus_len(), m.corpus_len() + 3);
        // Folded rows carry their features and serving-time attachment.
        for (i, (row, n)) in rows.iter().zip(&nbrs).enumerate() {
            let id = m.corpus_len() + i;
            assert_eq!(folded.features.row(id), &row[..]);
            let mut adj: Vec<usize> = folded.graph.neighbor_ids(id).to_vec();
            adj.sort_unstable();
            let mut want = n.clone();
            want.sort_unstable();
            assert_eq!(adj, want);
        }
        // The folded bundle is a *valid* servable model: the local path
        // still matches the full extended-graph oracle (degrees of nodes
        // that gained fold edges shifted, consistently on both paths).
        let probe: Vec<f32> = (0..m.config.in_dim).map(|j| (j as f32 * 0.23).cos()).collect();
        let pn: Vec<usize> = folded.exact_neighbors(&probe).into_iter().map(|(j, _)| j).collect();
        let local = folded.predict_local(&probe, &pn).unwrap();
        let full = folded.predict_full(&probe, &pn).unwrap();
        assert_eq!(bits(&local), bits(&full), "folded local vs full");
        // Mismatched shapes are typed errors.
        assert!(m.compacted(&[], &[]).is_err());
        assert!(m.compacted(&rows, &nbrs[..2]).is_err());
    }

    #[test]
    fn gat_and_bad_requests_are_rejected() {
        let cfg = ServableConfig {
            encoder: EncoderSpec::Gat { heads: 2 },
            in_dim: 4,
            hidden: 8,
            layers: 2,
            num_classes: 3,
            dropout: 0.0,
            k: 5,
            similarity: Similarity::Euclidean,
            index: IndexKind::Exact,
        };
        assert!(cfg.validate().is_err());
        let m = tiny_model(EncoderSpec::Mlp);
        assert!(m.predict_local(&[0.0; 2], &[0]).is_err(), "wrong width must be typed");
        let row = vec![0.0; m.config.in_dim];
        assert!(m.predict_local(&row, &[10_000]).is_err(), "bad neighbor id must be typed");
        let mut nan_row = row.clone();
        nan_row[0] = f32::NAN;
        assert!(m.predict_local(&nan_row, &[0]).is_err(), "non-finite row must be typed");
    }
}
