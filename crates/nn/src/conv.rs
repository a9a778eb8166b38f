//! Spectral/spatial convolution encoders: GCN, GraphSAGE, GIN — the
//! workhorse homogeneous GNNs of the survey's Table 5 — plus the graph-free
//! MLP encoder they are compared against.

use std::sync::Arc;

use rand::Rng;

use gnn4tdl_graph::Graph;
use gnn4tdl_tensor::{ParamStore, SpAdj, Var};

use crate::block::Block;
use crate::linear::{Activation, Linear, Mlp};
use crate::session::Session;

/// A node-level encoder: features `n x d` in, embeddings `n x h` out.
///
/// The graph (if any) is baked in at construction; `rebind` methods swap
/// the graph while sharing parameters, which is how inductive evaluation on
/// unseen nodes works.
pub trait NodeModel {
    fn forward(&self, s: &mut Session<'_>, x: Var) -> Var;
    fn out_dim(&self) -> usize;
}

impl NodeModel for Box<dyn NodeModel> {
    fn forward(&self, s: &mut Session<'_>, x: Var) -> Var {
        self.as_ref().forward(s, x)
    }

    fn out_dim(&self) -> usize {
        self.as_ref().out_dim()
    }
}

/// A [`NodeModel`] that can be re-bound to a different graph while sharing
/// its parameters — the contract minibatch training relies on: the sampler
/// extracts an induced subgraph per block and the trainer binds the shared
/// weights to it via [`BlockModel::bind`]. Graph-free encoders ([`MlpModel`])
/// ignore the graph and just clone.
pub trait BlockModel: NodeModel + Clone {
    /// Same parameters over `graph` (no new entries in the [`ParamStore`]).
    fn bind(&self, graph: &Graph) -> Self;
}

impl BlockModel for GcnModel {
    fn bind(&self, graph: &Graph) -> Self {
        self.rebind(graph)
    }
}

impl BlockModel for SageModel {
    fn bind(&self, graph: &Graph) -> Self {
        self.rebind(graph)
    }
}

impl BlockModel for GinModel {
    fn bind(&self, graph: &Graph) -> Self {
        self.rebind(graph)
    }
}

impl BlockModel for MlpModel {
    fn bind(&self, _graph: &Graph) -> Self {
        self.clone()
    }
}

/// Kipf-Welling graph convolution: `relu(Â X W)` stacked, with dropout and
/// optional PairNorm between layers (Zhao & Akoglu), the oversmoothing
/// mitigation the survey's robustness section points to.
#[derive(Clone, Debug)]
pub struct GcnModel {
    adj: Arc<SpAdj>,
    layers: Vec<Linear>,
    dropout: f32,
    pair_norm: bool,
}

impl GcnModel {
    /// `dims = [in, hidden..., out]`; uses the graph's symmetric-normalized
    /// operator with self-loops.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        graph: &Graph,
        dims: &[usize],
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "GCN needs at least one layer");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("gcn.l{i}"), w[0], w[1], rng))
            .collect();
        Self { adj: graph.gcn_adj(), layers, dropout, pair_norm: false }
    }

    /// Enables PairNorm after every hidden layer: activations are centered
    /// per feature and rescaled to a constant mean row norm, preventing the
    /// collapse of node representations in deep stacks.
    pub fn with_pair_norm(mut self) -> Self {
        self.pair_norm = true;
        self
    }

    /// Same parameters over a different graph (inductive evaluation).
    pub fn rebind(&self, graph: &Graph) -> Self {
        Self {
            adj: graph.gcn_adj(),
            layers: self.layers.clone(),
            dropout: self.dropout,
            pair_norm: self.pair_norm,
        }
    }

    /// Forward over a message-flow [`Block`] whose operators are rows of
    /// this model's normalized adjacency: each layer aggregates through its
    /// block operator, so it computes only the rows the next layer reads.
    /// Every computed row goes through the same arithmetic as in
    /// [`NodeModel::forward`] over the whole graph.
    ///
    /// # Panics
    /// Panics when the block depth is not the layer count, or with
    /// PairNorm on (it normalizes over every node, which a block lacks).
    pub fn forward_block(&self, s: &mut Session<'_>, block: &Block, x: Var) -> Var {
        assert!(!self.pair_norm, "PairNorm normalizes over the whole graph; a block cannot");
        assert_eq!(block.depth(), self.layers.len(), "block depth must equal the GCN layer count");
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let agg = s.tape.spmm(block.operator(i), h);
            if i < last {
                h = layer.forward_relu(s, agg);
                h = s.dropout(h, self.dropout);
            } else {
                h = layer.forward(s, agg);
            }
        }
        h
    }
}

/// PairNorm: center columns, then rescale so the mean squared row norm is
/// `scale^2`. Fully differentiable — built from existing tape ops
/// (`sqrt(z) = exp(0.5 ln z)`).
pub fn pair_norm(s: &mut Session<'_>, x: Var, scale: f32) -> Var {
    let n = s.tape.value(x).rows();
    let mean = s.tape.mean_rows(x); // 1 x d
    let neg_mean = s.tape.scale(mean, -1.0);
    let centered = s.tape.add_row(x, neg_mean);
    let sq = s.tape.square(centered);
    let mean_sq = s.tape.mean_all(sq); // 1 x 1: mean squared entry
    let log = s.tape.log(mean_sq, 1e-9);
    let half_neg = s.tape.scale(log, -0.5);
    let inv_rms = s.tape.exp(half_neg); // 1 x 1: 1 / rms entry
    let scaled = s.tape.scale(inv_rms, scale);
    let ones = s.input(gnn4tdl_tensor::Matrix::full(n, 1, 1.0));
    let col = s.tape.matmul(ones, scaled); // n x 1 broadcast of the scalar
    s.tape.mul_col(centered, col)
}

impl NodeModel for GcnModel {
    fn forward(&self, s: &mut Session<'_>, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let agg = s.tape.spmm(&self.adj, h);
            if i < last && !self.pair_norm {
                // hidden layer without PairNorm: fused relu(agg W + b)
                h = layer.forward_relu(s, agg);
                h = s.dropout(h, self.dropout);
            } else {
                h = layer.forward(s, agg);
                if i < last {
                    if self.pair_norm {
                        h = pair_norm(s, h, 1.0);
                    }
                    h = s.tape.relu(h);
                    h = s.dropout(h, self.dropout);
                }
            }
        }
        h
    }

    fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }
}

/// Neighborhood aggregator for GraphSAGE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SageAggregator {
    /// Mean of neighbor states (the default in practice).
    Mean,
    /// Element-wise max of a learned per-neighbor transform — the
    /// "max-pooling" aggregator of the original GraphSAGE paper.
    MaxPool,
}

/// GraphSAGE: `relu(W_self x + W_neigh AGG(x_N))` with a mean or max-pool
/// neighborhood aggregator.
#[derive(Clone, Debug)]
pub struct SageModel {
    adj: Arc<SpAdj>,
    edge_src: Arc<Vec<usize>>,
    edge_dst: Arc<Vec<usize>>,
    n: usize,
    self_layers: Vec<Linear>,
    neigh_layers: Vec<Linear>,
    /// Per-layer pre-pool transforms (max-pool aggregator only).
    pool_layers: Vec<Linear>,
    aggregator: SageAggregator,
    dropout: f32,
}

impl SageModel {
    /// Mean-aggregation GraphSAGE.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        graph: &Graph,
        dims: &[usize],
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        Self::with_aggregator(store, graph, dims, dropout, SageAggregator::Mean, rng)
    }

    /// GraphSAGE with an explicit aggregator choice.
    pub fn with_aggregator<R: Rng>(
        store: &mut ParamStore,
        graph: &Graph,
        dims: &[usize],
        dropout: f32,
        aggregator: SageAggregator,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "SAGE needs at least one layer");
        let mut self_layers = Vec::new();
        let mut neigh_layers = Vec::new();
        let mut pool_layers = Vec::new();
        for (i, w) in dims.windows(2).enumerate() {
            self_layers.push(Linear::new(store, &format!("sage.self{i}"), w[0], w[1], rng));
            neigh_layers.push(Linear::new_no_bias(store, &format!("sage.neigh{i}"), w[0], w[1], rng));
            if aggregator == SageAggregator::MaxPool {
                pool_layers.push(Linear::new(store, &format!("sage.pool{i}"), w[0], w[0], rng));
            }
        }
        let edges = graph.edge_index(false);
        Self {
            adj: graph.mean_adj(),
            edge_src: Arc::new(edges.src),
            edge_dst: Arc::new(edges.dst),
            n: graph.num_nodes(),
            self_layers,
            neigh_layers,
            pool_layers,
            aggregator,
            dropout,
        }
    }

    pub fn rebind(&self, graph: &Graph) -> Self {
        let edges = graph.edge_index(false);
        Self {
            adj: graph.mean_adj(),
            edge_src: Arc::new(edges.src),
            edge_dst: Arc::new(edges.dst),
            n: graph.num_nodes(),
            ..self.clone()
        }
    }

    pub fn aggregator(&self) -> SageAggregator {
        self.aggregator
    }

    /// Forward over a message-flow [`Block`] whose operators are rows of
    /// the mean-aggregation operator: the self term reads each layer's
    /// `dst` rows, the neighbor term the block operator. Every computed row
    /// goes through the same arithmetic as in [`NodeModel::forward`].
    ///
    /// # Panics
    /// Panics when the block depth is not the layer count, or for the
    /// max-pool aggregator (its messages are edge lists, not an operator).
    pub fn forward_block(&self, s: &mut Session<'_>, block: &Block, x: Var) -> Var {
        assert_eq!(self.aggregator, SageAggregator::Mean, "block forward needs the mean aggregator");
        assert_eq!(block.depth(), self.self_layers.len(), "block depth must equal the SAGE layer count");
        let mut h = x;
        let last = self.self_layers.len() - 1;
        for i in 0..self.self_layers.len() {
            let dst = block.dst_rows(s, i, h);
            let own = self.self_layers[i].forward(s, dst);
            let agg = s.tape.spmm(block.operator(i), h);
            let neigh = self.neigh_layers[i].forward(s, agg);
            h = s.tape.add(own, neigh);
            if i < last {
                h = s.tape.relu(h);
                h = s.dropout(h, self.dropout);
            }
        }
        h
    }
}

impl NodeModel for SageModel {
    fn forward(&self, s: &mut Session<'_>, x: Var) -> Var {
        let mut h = x;
        let last = self.self_layers.len() - 1;
        for i in 0..self.self_layers.len() {
            let own = self.self_layers[i].forward(s, h);
            let agg = match self.aggregator {
                SageAggregator::Mean => s.tape.spmm(&self.adj, h),
                SageAggregator::MaxPool => {
                    // transform each neighbor, then take the element-wise max
                    let pooled = self.pool_layers[i].forward(s, h);
                    let pooled = s.tape.relu(pooled);
                    let messages = s.tape.gather_rows(pooled, Arc::clone(&self.edge_src));
                    s.tape.scatter_max_rows(messages, Arc::clone(&self.edge_dst), self.n)
                }
            };
            let neigh = self.neigh_layers[i].forward(s, agg);
            h = s.tape.add(own, neigh);
            if i < last {
                h = s.tape.relu(h);
                h = s.dropout(h, self.dropout);
            }
        }
        h
    }

    fn out_dim(&self) -> usize {
        self.self_layers.last().expect("non-empty").out_dim
    }
}

/// Graph isomorphism network (GIN-0): `MLP((1 + eps) x + sum(x_N))` with
/// fixed `eps = 0`, the common simplification.
#[derive(Clone, Debug)]
pub struct GinModel {
    adj: Arc<SpAdj>,
    mlps: Vec<Mlp>,
    dropout: f32,
}

impl GinModel {
    /// One GIN layer per `dims` window; each layer's MLP has a single hidden
    /// layer of the output width.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        graph: &Graph,
        dims: &[usize],
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "GIN needs at least one layer");
        let mlps = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                Mlp::new(store, &format!("gin.mlp{i}"), &[w[0], w[1], w[1]], Activation::Relu, 0.0, rng)
            })
            .collect();
        Self { adj: graph.sum_adj(), mlps, dropout }
    }

    pub fn rebind(&self, graph: &Graph) -> Self {
        Self { adj: graph.sum_adj(), mlps: self.mlps.clone(), dropout: self.dropout }
    }

    /// Forward over a message-flow [`Block`] whose operators are rows of
    /// the adjacency: each layer adds its `dst` rows to their aggregated
    /// neighbors. Every computed row goes through the same arithmetic as in
    /// [`NodeModel::forward`].
    ///
    /// # Panics
    /// Panics when the block depth is not the layer count.
    pub fn forward_block(&self, s: &mut Session<'_>, block: &Block, x: Var) -> Var {
        assert_eq!(block.depth(), self.mlps.len(), "block depth must equal the GIN layer count");
        let mut h = x;
        let last = self.mlps.len() - 1;
        for (i, mlp) in self.mlps.iter().enumerate() {
            let agg = s.tape.spmm(block.operator(i), h);
            let own = block.dst_rows(s, i, h);
            let combined = s.tape.add(own, agg);
            h = mlp.forward(s, combined);
            if i < last {
                h = s.tape.relu(h);
                h = s.dropout(h, self.dropout);
            }
        }
        h
    }
}

impl NodeModel for GinModel {
    fn forward(&self, s: &mut Session<'_>, x: Var) -> Var {
        let mut h = x;
        let last = self.mlps.len() - 1;
        for (i, mlp) in self.mlps.iter().enumerate() {
            let agg = s.tape.spmm(&self.adj, h);
            let combined = s.tape.add(h, agg);
            h = mlp.forward(s, combined);
            if i < last {
                h = s.tape.relu(h);
                h = s.dropout(h, self.dropout);
            }
        }
        h
    }

    fn out_dim(&self) -> usize {
        self.mlps.last().expect("non-empty").out_dim()
    }
}

/// Graph-free MLP encoder: the deep-tabular baseline every GNN is compared
/// against in the survey's "why GNNs" experiments.
#[derive(Clone, Debug)]
pub struct MlpModel {
    mlp: Mlp,
}

impl MlpModel {
    pub fn new<R: Rng>(store: &mut ParamStore, dims: &[usize], dropout: f32, rng: &mut R) -> Self {
        Self { mlp: Mlp::new(store, "mlp", dims, Activation::Relu, dropout, rng) }
    }

    /// The MLP over a block's seed rows: a graph-free encoder reads no
    /// neighbors, so a block of any depth works (the cheapest has none).
    pub fn forward_block(&self, s: &mut Session<'_>, block: &Block, x: Var) -> Var {
        let seeds = block.seed_rows(s, x);
        self.mlp.forward(s, seeds)
    }
}

impl NodeModel for MlpModel {
    fn forward(&self, s: &mut Session<'_>, x: Var) -> Var {
        self.mlp.forward(s, x)
    }

    fn out_dim(&self) -> usize {
        self.mlp.out_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn4tdl_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_graph() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], true)
    }

    fn check_shapes(model: &dyn NodeModel, n: usize, d: usize, store: &ParamStore) {
        let mut s = Session::eval(store);
        let x = s.input(Matrix::full(n, d, 0.5));
        let y = model.forward(&mut s, x);
        assert_eq!(s.tape.value(y).shape(), (n, model.out_dim()));
        assert!(s.tape.value(y).all_finite());
    }

    #[test]
    fn gcn_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let g = toy_graph();
        let m = GcnModel::new(&mut store, &g, &[3, 8, 2], 0.1, &mut rng);
        check_shapes(&m, 4, 3, &store);
    }

    #[test]
    fn sage_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let g = toy_graph();
        let m = SageModel::new(&mut store, &g, &[3, 8, 2], 0.0, &mut rng);
        check_shapes(&m, 4, 3, &store);
    }

    #[test]
    fn sage_maxpool_shapes_and_differs_from_mean() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = toy_graph();
        let mut store_a = ParamStore::new();
        let mean = SageModel::with_aggregator(&mut store_a, &g, &[3, 4], 0.0, SageAggregator::Mean, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(21); // same init for shared layers
        let mut store_b = ParamStore::new();
        let maxp =
            SageModel::with_aggregator(&mut store_b, &g, &[3, 4], 0.0, SageAggregator::MaxPool, &mut rng2);
        assert_eq!(maxp.aggregator(), SageAggregator::MaxPool);
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0],
            vec![0.0, 0.0, 3.0],
            vec![1.0, 1.0, 1.0],
        ]);
        let mut sa = Session::eval(&store_a);
        let xa = sa.input(x.clone());
        let ya = mean.forward(&mut sa, xa);
        let mut sb = Session::eval(&store_b);
        let xb = sb.input(x);
        let yb = maxp.forward(&mut sb, xb);
        assert_eq!(sb.tape.value(yb).shape(), (4, 4));
        assert!(sb.tape.value(yb).all_finite());
        assert!(sa.tape.value(ya).max_abs_diff(sb.tape.value(yb)) > 1e-6);
    }

    #[test]
    fn sage_maxpool_trains() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(22);
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)], true);
        let m =
            SageModel::with_aggregator(&mut store, &g, &[2, 8, 2], 0.0, SageAggregator::MaxPool, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, 0.1], vec![0.9, 0.0], vec![-1.0, 0.2], vec![-0.8, 0.1]]);
        let labels = std::sync::Arc::new(vec![0usize, 0, 1, 1]);
        let eval = |store: &ParamStore| {
            let mut s = Session::eval(store);
            let xv = s.input(x.clone());
            let logits = m.forward(&mut s, xv);
            let loss = s.tape.softmax_cross_entropy(logits, std::sync::Arc::clone(&labels), None);
            s.tape.value(loss).get(0, 0)
        };
        let before = eval(&store);
        for step in 0..40 {
            let mut s = Session::train(&store, step);
            let xv = s.input(x.clone());
            let logits = m.forward(&mut s, xv);
            let loss = s.tape.softmax_cross_entropy(logits, std::sync::Arc::clone(&labels), None);
            for (id, gr) in s.backward(loss) {
                store.get_mut(id).axpy(-0.3, &gr);
            }
        }
        assert!(eval(&store) < before * 0.6);
    }

    #[test]
    fn gin_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let g = toy_graph();
        let m = GinModel::new(&mut store, &g, &[3, 8, 2], 0.0, &mut rng);
        check_shapes(&m, 4, 3, &store);
    }

    #[test]
    fn mlp_model_ignores_graph() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let m = MlpModel::new(&mut store, &[3, 8, 2], 0.0, &mut rng);
        check_shapes(&m, 4, 3, &store);
    }

    /// The first `rows` rows of an operator, over all of its columns.
    fn first_rows(op: &gnn4tdl_tensor::CsrMatrix, rows: usize) -> gnn4tdl_tensor::CsrMatrix {
        let nnz = op.indptr()[rows];
        gnn4tdl_tensor::CsrMatrix::from_parts(
            rows,
            op.cols(),
            op.indptr()[..=rows].to_vec(),
            op.indices()[..nnz].to_vec(),
            op.values()[..nnz].to_vec(),
        )
    }

    #[test]
    fn block_forward_equals_the_full_forward_on_its_seed_rows() {
        // Seeds {0, 1} of a 2-layer model: layer 0 computes every node,
        // layer 1 only the seeds, each from the full-graph operator rows.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)], true);
        let x = Matrix::from_rows(&[
            vec![1.0, 0.2, -0.3],
            vec![0.1, 0.9, 0.4],
            vec![-0.7, 0.3, 0.8],
            vec![0.5, -0.6, 0.2],
            vec![0.3, 0.3, -0.9],
        ]);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let check = |model: &dyn NodeModel,
                     block_forward: &dyn Fn(&mut Session<'_>, &Block, Var) -> Var,
                     adj: &Arc<SpAdj>,
                     store: &ParamStore| {
            let mut s = Session::eval(store);
            let xv = s.input(x.clone());
            let full = model.forward(&mut s, xv);
            let want = s.tape.value(full).gather_rows(&[0, 1]);
            let block = Block::new(5, vec![adj.matrix().clone(), first_rows(adj.matrix(), 2)]).unwrap();
            let mut s = Session::eval(store);
            let xv = s.input(x.clone());
            let got = block_forward(&mut s, &block, xv);
            assert_eq!(bits(s.tape.value(got)), bits(&want));
        };
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(31);
        let dims = [3usize, 4, 2];
        let gcn = GcnModel::new(&mut store, &g, &dims, 0.0, &mut rng);
        let sage = SageModel::new(&mut store, &g, &dims, 0.0, &mut rng);
        let gin = GinModel::new(&mut store, &g, &dims, 0.0, &mut rng);
        let mlp = MlpModel::new(&mut store, &dims, 0.0, &mut rng);
        check(&gcn, &|s, b, x| gcn.forward_block(s, b, x), &g.gcn_adj(), &store);
        check(&sage, &|s, b, x| sage.forward_block(s, b, x), &g.mean_adj(), &store);
        check(&gin, &|s, b, x| gin.forward_block(s, b, x), &g.sum_adj(), &store);
        check(&mlp, &|s, b, x| mlp.forward_block(s, b, x), &g.sum_adj(), &store);
    }

    #[test]
    fn gcn_propagates_neighbor_information() {
        // one-layer identity-weight GCN: isolated node differs from connected
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let g = Graph::from_edges(3, &[(0, 1)], true); // node 2 isolated
        let m = GcnModel::new(&mut store, &g, &[2, 2], 0.0, &mut rng);
        let mut s = Session::eval(&store);
        let x = s.input(Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 1.0]]));
        let y = m.forward(&mut s, x);
        let v = s.tape.value(y);
        // node 1 and node 2 have the same input but different neighborhoods
        let diff: f32 = (0..2).map(|c| (v.get(1, c) - v.get(2, c)).abs()).sum();
        assert!(diff > 1e-4, "neighborhood had no effect: {diff}");
    }

    #[test]
    fn rebind_keeps_parameters() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let g1 = toy_graph();
        let m1 = GcnModel::new(&mut store, &g1, &[2, 2], 0.0, &mut rng);
        let before = store.len();
        let g2 = Graph::from_edges(4, &[(0, 3)], true);
        let m2 = m1.rebind(&g2);
        assert_eq!(store.len(), before, "rebind must not add parameters");
        // different graphs -> different outputs for same input
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0], vec![0.5, 0.5]]);
        let mut s1 = Session::eval(&store);
        let x1 = s1.input(x.clone());
        let y1 = m1.forward(&mut s1, x1);
        let mut s2 = Session::eval(&store);
        let x2 = s2.input(x);
        let y2 = m2.forward(&mut s2, x2);
        assert!(s1.tape.value(y1).max_abs_diff(s2.tape.value(y2)) > 1e-5);
    }

    #[test]
    fn pair_norm_centers_and_rescales() {
        let store = ParamStore::new();
        let mut s = Session::eval(&store);
        let x = s.input(Matrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 9.0], vec![5.0, 13.0]]));
        let y = crate::conv::pair_norm(&mut s, x, 1.0);
        let v = s.tape.value(y);
        // columns centered
        let m = v.col_means();
        assert!(m.data().iter().all(|c| c.abs() < 1e-5), "not centered: {m:?}");
        // mean squared entry == 1 (scale 1)
        let ms: f32 = v.data().iter().map(|&a| a * a).sum::<f32>() / v.len() as f32;
        assert!((ms - 1.0).abs() < 1e-4, "bad scale: {ms}");
    }

    #[test]
    fn pair_norm_gradient_flows() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![0.5, -1.0]]));
        let mut s = Session::train(&store, 0);
        let x = s.p(w);
        let y = crate::conv::pair_norm(&mut s, x, 1.0);
        let sq = s.tape.square(y);
        let loss = s.tape.mean_all(sq);
        let grads = s.backward(loss);
        assert_eq!(grads.len(), 1);
        assert!(grads[0].1.all_finite());
    }

    #[test]
    fn deep_gcn_with_pair_norm_keeps_rows_distinct() {
        // 6-layer GCN without PairNorm oversmooths node outputs toward each
        // other; with PairNorm the rows stay separated.
        let mut rng = StdRng::seed_from_u64(11);
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], true);
        let dims = [2usize, 8, 8, 8, 8, 8, 2];
        let mut spread = |with_pn: bool| -> f32 {
            let mut store = ParamStore::new();
            let mut m = GcnModel::new(&mut store, &g, &dims, 0.0, &mut rng);
            if with_pn {
                m = m.with_pair_norm();
            }
            let mut s = Session::eval(&store);
            let x = s.input(Matrix::from_rows(&[
                vec![1.0, 0.0],
                vec![0.9, 0.1],
                vec![0.5, 0.5],
                vec![0.1, 0.9],
                vec![0.0, 1.0],
                vec![-0.5, 1.2],
            ]));
            let y = m.forward(&mut s, x);
            let v = s.tape.value(y);
            // mean pairwise row distance
            let mut total = 0.0;
            let mut count = 0;
            for a in 0..6 {
                for b in (a + 1)..6 {
                    total += Matrix::row_distance(v, a, v, b);
                    count += 1;
                }
            }
            total / count as f32
        };
        let plain = spread(false);
        let pn = spread(true);
        assert!(pn > plain, "PairNorm should preserve spread: plain {plain}, pn {pn}");
    }

    #[test]
    fn training_step_reduces_loss_gcn() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)], true);
        let m = GcnModel::new(&mut store, &g, &[2, 8, 2], 0.0, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, 0.1], vec![0.9, 0.0], vec![-1.0, 0.2], vec![-0.8, 0.1]]);
        let labels = std::sync::Arc::new(vec![0usize, 0, 1, 1]);
        let eval = |store: &ParamStore| {
            let mut s = Session::eval(store);
            let xv = s.input(x.clone());
            let logits = m.forward(&mut s, xv);
            let loss = s.tape.softmax_cross_entropy(logits, std::sync::Arc::clone(&labels), None);
            s.tape.value(loss).get(0, 0)
        };
        let before = eval(&store);
        for step in 0..30 {
            let mut s = Session::train(&store, step);
            let xv = s.input(x.clone());
            let logits = m.forward(&mut s, xv);
            let loss = s.tape.softmax_cross_entropy(logits, std::sync::Arc::clone(&labels), None);
            for (id, gr) in s.backward(loss) {
                store.get_mut(id).axpy(-0.3, &gr);
            }
        }
        assert!(eval(&store) < before * 0.5);
    }
}
