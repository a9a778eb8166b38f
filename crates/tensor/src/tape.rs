//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! The tape records a computation as a flat list of nodes; every operation is
//! a variant of one closed operation enum, so all backward rules live in a single
//! audited `match` (see [`Tape::backward`]). Training code builds a fresh tape
//! per step (functional style), inserts parameters and inputs as leaves, and
//! reads gradients back out after `backward`.
//!
//! The op set is exactly what GNN-for-tabular-data models need: dense and
//! sparse matrix products, row gathers/scatter-adds and segment softmax for
//! message passing and attention, pointwise nonlinearities, dropout with a
//! stored mask, broadcasts, reductions, and fused classification/regression
//! losses with optional per-row masks for semi-supervised training.

use std::sync::Arc;

use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;

/// A sparse adjacency packaged with its precomputed transpose.
///
/// The transpose is needed by the backward pass of [`Tape::spmm`]; computing
/// it once per graph (instead of once per training step) keeps SpMM backward
/// as cheap as forward.
#[derive(Clone, Debug)]
pub struct SpAdj {
    forward: CsrMatrix,
    backward: CsrMatrix,
}

impl SpAdj {
    /// Wraps an adjacency, precomputing its transpose.
    pub fn new(a: CsrMatrix) -> Self {
        let backward = a.transpose();
        Self { forward: a, backward }
    }

    pub fn matrix(&self) -> &CsrMatrix {
        &self.forward
    }

    pub fn transpose_matrix(&self) -> &CsrMatrix {
        &self.backward
    }

    pub fn rows(&self) -> usize {
        self.forward.rows()
    }

    pub fn cols(&self) -> usize {
        self.forward.cols()
    }
}

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    pub fn index(self) -> usize {
        self.0
    }
}

/// Operations recorded on the tape.
#[derive(Clone)]
enum Op {
    /// Input or parameter leaf.
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    MatMul(usize, usize),
    /// Fixed sparse adjacency times dense: `A * H`.
    SpMM(Arc<SpAdj>, usize),
    /// `(n x d) + (1 x d)` row broadcast (bias add).
    AddRow(usize, usize),
    /// `(n x d) * (n x 1)` column broadcast (per-row scaling, attention).
    MulCol(usize, usize),
    /// Fused `relu(x @ w + bias)` — the dense-layer hot path as one node
    /// with a single output buffer instead of three.
    LinearRelu {
        x: usize,
        w: usize,
        bias: usize,
    },
    Scale(usize, f32),
    AddScalar(usize),
    Relu(usize),
    LeakyRelu(usize, f32),
    Sigmoid(usize),
    Tanh(usize),
    Exp(usize),
    /// `ln(x + eps)`; eps guards against zeros from softmax underflow.
    Log(usize, f32),
    Square(usize),
    /// Dropout with a fixed 0/scale mask sampled outside the tape.
    Dropout(usize, Arc<Vec<f32>>),
    /// Row gather: `out[i] = in[index[i]]`.
    GatherRows(usize, Arc<Vec<usize>>),
    /// Row scatter-add: `out[index[i]] += in[i]`.
    ScatterAddRows {
        src: usize,
        index: Arc<Vec<usize>>,
    },
    /// Row scatter-max: `out[index[i]] = max(out[index[i]], in[i])` per
    /// column; rows receiving nothing are 0. Gradients route to the argmax.
    ScatterMaxRows {
        src: usize,
        index: Arc<Vec<usize>>,
        out_rows: usize,
    },
    /// Per-column softmax within segments: entries sharing `seg[i]` form one
    /// softmax group (GAT attention over edges grouped by destination).
    SegmentSoftmax {
        src: usize,
        seg: Arc<Vec<usize>>,
        n_seg: usize,
    },
    /// Row-wise softmax (dense attention / direct graph structure learning).
    SoftmaxRows(usize),
    ConcatCols(usize, usize),
    Transpose(usize),
    /// Sum of all entries, a 1x1 matrix.
    SumAll(usize),
    /// Mean of all entries, a 1x1 matrix.
    MeanAll(usize),
    /// Column sums: `n x d -> 1 x d`.
    SumRows(usize),
    /// Column means: `n x d -> 1 x d`.
    MeanRows(usize),
    /// Row sums: `n x d -> n x 1`.
    RowSum(usize),
    /// Mean softmax cross-entropy over (optionally masked) rows.
    SoftmaxCrossEntropy {
        logits: usize,
        labels: Arc<Vec<usize>>,
        mask: Option<Arc<Vec<f32>>>,
    },
    /// Mean binary cross-entropy with logits over (optionally masked) entries.
    BceWithLogits {
        logits: usize,
        targets: Arc<Matrix>,
        mask: Option<Arc<Vec<f32>>>,
    },
    /// Mean squared error over (optionally masked) entries.
    MseLoss {
        pred: usize,
        target: Arc<Matrix>,
        mask: Option<Arc<Vec<f32>>>,
    },
}

struct Node {
    value: Matrix,
    op: Op,
    /// True if this node (transitively) depends on a trainable leaf.
    needs_grad: bool,
}

/// A single-use reverse-mode autodiff tape.
///
/// ```
/// use gnn4tdl_tensor::{Matrix, Tape};
/// let mut tape = Tape::new();
/// let x = tape.param(Matrix::from_rows(&[vec![3.0]]));
/// let y = tape.square(x);            // y = x^2
/// let loss = tape.sum_all(y);
/// let grads = tape.backward(loss);
/// assert_eq!(grads.get(x).unwrap().get(0, 0), 6.0); // dy/dx = 2x
/// ```
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> Var {
        debug_assert!(value.all_finite(), "non-finite value produced by tape op");
        crate::obs::TAPE_NODES.add(1);
        self.nodes.push(Node { value, op, needs_grad });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// The forward value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Inserts a trainable parameter leaf.
    pub fn param(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Inserts a constant input leaf (no gradient).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    // ---- elementwise & linear algebra ----

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(value, Op::Add(a.0, b.0), self.needs(a) || self.needs(b))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        self.push(value, Op::Sub(a.0, b.0), self.needs(a) || self.needs(b))
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        self.push(value, Op::Mul(a.0, b.0), self.needs(a) || self.needs(b))
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::MatMul(a.0, b.0), self.needs(a) || self.needs(b))
    }

    /// Sparse adjacency times dense features.
    pub fn spmm(&mut self, adj: &Arc<SpAdj>, h: Var) -> Var {
        let value = adj.matrix().spmm(self.value(h));
        self.push(value, Op::SpMM(Arc::clone(adj), h.0), self.needs(h))
    }

    /// Adds a `1 x d` row vector to every row of an `n x d` matrix.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(bias));
        assert_eq!(bv.rows(), 1, "add_row bias must be 1 x d");
        assert_eq!(av.cols(), bv.cols(), "add_row width mismatch");
        let mut value = av.clone();
        for r in 0..value.rows() {
            for (o, &b) in value.row_mut(r).iter_mut().zip(bv.data()) {
                *o += b;
            }
        }
        self.push(value, Op::AddRow(a.0, bias.0), self.needs(a) || self.needs(bias))
    }

    /// Multiplies every row of an `n x d` matrix by the matching entry of an
    /// `n x 1` column vector.
    pub fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let (av, cv) = (self.value(a), self.value(col));
        assert_eq!(cv.cols(), 1, "mul_col scale must be n x 1");
        assert_eq!(av.rows(), cv.rows(), "mul_col height mismatch");
        let mut value = av.clone();
        for r in 0..value.rows() {
            let s = cv.get(r, 0);
            for o in value.row_mut(r) {
                *o *= s;
            }
        }
        self.push(value, Op::MulCol(a.0, col.0), self.needs(a) || self.needs(col))
    }

    /// Fused dense layer: `relu(x @ w + bias)` recorded as one node.
    ///
    /// Bitwise identical to `relu(add_row(matmul(x, w), bias))` — the same
    /// GEMM micro-kernel runs with bias-add and clamp fused in as its output
    /// epilogue ([`crate::Matrix::matmul_bias_relu`]) — but the tape holds
    /// one buffer instead of three, the output is streamed once instead of
    /// twice, and the backward pass reuses the incoming gradient buffer for
    /// the masked delta.
    pub fn linear_relu(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let (xv, wv, bv) = (self.value(x), self.value(w), self.value(bias));
        assert_eq!(bv.rows(), 1, "linear_relu bias must be 1 x d");
        assert_eq!(bv.cols(), wv.cols(), "linear_relu bias width mismatch");
        let value = xv.matmul_bias_relu(wv, bv.data());
        let needs = self.needs(x) || self.needs(w) || self.needs(bias);
        self.push(value, Op::LinearRelu { x: x.0, w: w.0, bias: bias.0 }, needs)
    }

    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        self.push(value, Op::Scale(a.0, s), self.needs(a))
    }

    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).map(|x| x + s);
        self.push(value, Op::AddScalar(a.0), self.needs(a))
    }

    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    // ---- nonlinearities ----

    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(value, Op::Relu(a.0), self.needs(a))
    }

    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let value = self.value(a).map(|x| if x > 0.0 { x } else { slope * x });
        self.push(value, Op::LeakyRelu(a.0, slope), self.needs(a))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(value, Op::Sigmoid(a.0), self.needs(a))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        self.push(value, Op::Tanh(a.0), self.needs(a))
    }

    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::exp);
        self.push(value, Op::Exp(a.0), self.needs(a))
    }

    /// `ln(x + eps)`.
    pub fn log(&mut self, a: Var, eps: f32) -> Var {
        let value = self.value(a).map(|x| (x + eps).ln());
        self.push(value, Op::Log(a.0, eps), self.needs(a))
    }

    pub fn square(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x * x);
        self.push(value, Op::Square(a.0), self.needs(a))
    }

    /// Applies a fixed dropout mask. The mask entries should be `0` or
    /// `1/(1-p)` (inverted dropout); sample it with
    /// [`crate::init::dropout_mask`].
    pub fn dropout(&mut self, a: Var, mask: Arc<Vec<f32>>) -> Var {
        let av = self.value(a);
        assert_eq!(av.len(), mask.len(), "dropout mask size mismatch");
        let data = av.data().iter().zip(mask.iter()).map(|(&x, &m)| x * m).collect();
        let value = Matrix::from_vec(av.rows(), av.cols(), data);
        self.push(value, Op::Dropout(a.0, mask), self.needs(a))
    }

    // ---- message passing primitives ----

    /// `out[i] = in[index[i]]`; the core "node features to edges" move.
    pub fn gather_rows(&mut self, a: Var, index: Arc<Vec<usize>>) -> Var {
        let value = self.value(a).gather_rows(&index);
        self.push(value, Op::GatherRows(a.0, index), self.needs(a))
    }

    /// `out[index[i]] += in[i]`; the core "edge messages to nodes" move.
    pub fn scatter_add_rows(&mut self, a: Var, index: Arc<Vec<usize>>, out_rows: usize) -> Var {
        let av = self.value(a);
        assert_eq!(av.rows(), index.len(), "scatter index length mismatch");
        let mut value = Matrix::zeros(out_rows, av.cols());
        for (i, &dst) in index.iter().enumerate() {
            assert!(dst < out_rows, "scatter index out of bounds");
            for (o, &s) in value.row_mut(dst).iter_mut().zip(av.row(i)) {
                *o += s;
            }
        }
        self.push(value, Op::ScatterAddRows { src: a.0, index }, self.needs(a))
    }

    /// `out[index[i]] = elementwise-max over the rows scattered to it`;
    /// destinations receiving no rows stay 0 (matching max-pool GraphSAGE,
    /// where isolated nodes contribute a zero neighborhood).
    pub fn scatter_max_rows(&mut self, a: Var, index: Arc<Vec<usize>>, out_rows: usize) -> Var {
        let av = self.value(a);
        assert_eq!(av.rows(), index.len(), "scatter index length mismatch");
        let cols = av.cols();
        let mut value = Matrix::full(out_rows, cols, f32::NEG_INFINITY);
        for (i, &dst) in index.iter().enumerate() {
            assert!(dst < out_rows, "scatter index out of bounds");
            for (o, &s) in value.row_mut(dst).iter_mut().zip(av.row(i)) {
                *o = o.max(s);
            }
        }
        // untouched rows -> 0
        for v in value.data_mut() {
            if *v == f32::NEG_INFINITY {
                *v = 0.0;
            }
        }
        self.push(value, Op::ScatterMaxRows { src: a.0, index, out_rows }, self.needs(a))
    }

    /// Softmax over entries sharing a segment id, independently per column.
    /// Used for attention coefficients over edges grouped by destination
    /// node. Numerically stabilized with a per-segment max.
    pub fn segment_softmax(&mut self, a: Var, seg: Arc<Vec<usize>>, n_seg: usize) -> Var {
        let av = self.value(a);
        assert_eq!(av.rows(), seg.len(), "segment id length mismatch");
        let cols = av.cols();
        let mut maxes = vec![f32::NEG_INFINITY; n_seg * cols];
        for (i, &s) in seg.iter().enumerate() {
            assert!(s < n_seg, "segment id out of bounds");
            for c in 0..cols {
                let m = &mut maxes[s * cols + c];
                *m = m.max(av.get(i, c));
            }
        }
        let mut value = Matrix::zeros(av.rows(), cols);
        let mut sums = vec![0f32; n_seg * cols];
        for (i, &s) in seg.iter().enumerate() {
            for c in 0..cols {
                let e = (av.get(i, c) - maxes[s * cols + c]).exp();
                value.set(i, c, e);
                sums[s * cols + c] += e;
            }
        }
        for (i, &s) in seg.iter().enumerate() {
            for c in 0..cols {
                let denom = sums[s * cols + c];
                if denom > 0.0 {
                    value.set(i, c, value.get(i, c) / denom);
                }
            }
        }
        self.push(value, Op::SegmentSoftmax { src: a.0, seg, n_seg }, self.needs(a))
    }

    /// Row-wise softmax, numerically stabilized.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let mut value = Matrix::zeros(av.rows(), av.cols());
        for r in 0..av.rows() {
            let row = av.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, &x) in value.row_mut(r).iter_mut().zip(row) {
                *o = (x - max).exp();
                sum += *o;
            }
            if sum > 0.0 {
                for o in value.row_mut(r) {
                    *o /= sum;
                }
            }
        }
        self.push(value, Op::SoftmaxRows(a.0), self.needs(a))
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).hcat(self.value(b));
        self.push(value, Op::ConcatCols(a.0, b.0), self.needs(a) || self.needs(b))
    }

    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose();
        self.push(value, Op::Transpose(a.0), self.needs(a))
    }

    // ---- reductions ----

    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(value, Op::SumAll(a.0), self.needs(a))
    }

    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).mean()]);
        self.push(value, Op::MeanAll(a.0), self.needs(a))
    }

    /// Column sums: `n x d -> 1 x d`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let mut value = Matrix::zeros(1, av.cols());
        for r in 0..av.rows() {
            for (o, &x) in value.row_mut(0).iter_mut().zip(av.row(r)) {
                *o += x;
            }
        }
        self.push(value, Op::SumRows(a.0), self.needs(a))
    }

    /// Column means: `n x d -> 1 x d` (mean readout).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let value = av.col_means();
        self.push(value, Op::MeanRows(a.0), self.needs(a))
    }

    /// Row sums: `n x d -> n x 1`.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let mut value = Matrix::zeros(av.rows(), 1);
        for r in 0..av.rows() {
            value.set(r, 0, av.row(r).iter().sum());
        }
        self.push(value, Op::RowSum(a.0), self.needs(a))
    }

    // ---- losses ----

    /// Mean softmax cross-entropy of `logits` (`n x C`) against integer
    /// `labels`. `mask` selects which rows contribute (semi-supervised); the
    /// loss is averaged over the mask weight sum.
    pub fn softmax_cross_entropy(
        &mut self,
        logits: Var,
        labels: Arc<Vec<usize>>,
        mask: Option<Arc<Vec<f32>>>,
    ) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.rows(), labels.len(), "label count mismatch");
        if let Some(m) = &mask {
            assert_eq!(m.len(), labels.len(), "mask length mismatch");
        }
        let (probs, _) = row_softmax(lv);
        let mut loss = 0.0;
        let mut weight = 0.0;
        for (r, &y) in labels.iter().enumerate() {
            assert!(y < lv.cols(), "label {y} out of range for {} classes", lv.cols());
            let w = mask.as_ref().map_or(1.0, |m| m[r]);
            if w == 0.0 {
                continue;
            }
            loss -= w * (probs.get(r, y) + 1e-12).ln();
            weight += w;
        }
        let value = Matrix::from_vec(1, 1, vec![if weight > 0.0 { loss / weight } else { 0.0 }]);
        self.push(value, Op::SoftmaxCrossEntropy { logits: logits.0, labels, mask }, self.needs(logits))
    }

    /// Mean binary cross-entropy with logits against a dense target matrix
    /// (entries in `[0,1]`), optionally masked per entry.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Arc<Matrix>, mask: Option<Arc<Vec<f32>>>) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.shape(), targets.shape(), "bce target shape mismatch");
        if let Some(m) = &mask {
            assert_eq!(m.len(), lv.len(), "bce mask length mismatch");
        }
        let mut loss = 0.0;
        let mut weight = 0.0;
        for (i, (&x, &t)) in lv.data().iter().zip(targets.data()).enumerate() {
            let w = mask.as_ref().map_or(1.0, |m| m[i]);
            if w == 0.0 {
                continue;
            }
            // log(1 + e^{-|x|}) + max(x,0) - x*t  is the stable BCE-with-logits.
            loss += w * ((-x.abs()).exp().ln_1p() + x.max(0.0) - x * t);
            weight += w;
        }
        let value = Matrix::from_vec(1, 1, vec![if weight > 0.0 { loss / weight } else { 0.0 }]);
        self.push(value, Op::BceWithLogits { logits: logits.0, targets, mask }, self.needs(logits))
    }

    /// Mean squared error against a dense target matrix, optionally masked
    /// per entry (feature reconstruction with missing values uses the mask).
    pub fn mse_loss(&mut self, pred: Var, target: Arc<Matrix>, mask: Option<Arc<Vec<f32>>>) -> Var {
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "mse target shape mismatch");
        if let Some(m) = &mask {
            assert_eq!(m.len(), pv.len(), "mse mask length mismatch");
        }
        let mut loss = 0.0;
        let mut weight = 0.0;
        for (i, (&x, &t)) in pv.data().iter().zip(target.data()).enumerate() {
            let w = mask.as_ref().map_or(1.0, |m| m[i]);
            if w == 0.0 {
                continue;
            }
            let d = x - t;
            loss += w * d * d;
            weight += w;
        }
        let value = Matrix::from_vec(1, 1, vec![if weight > 0.0 { loss / weight } else { 0.0 }]);
        self.push(value, Op::MseLoss { pred: pred.0, target, mask }, self.needs(pred))
    }

    // ---- backward ----

    /// Runs reverse-mode differentiation from `root` (which must be 1x1) and
    /// returns the retained gradients. Only **leaf** gradients (parameters
    /// and inputs) are retained: every interior node's gradient buffer is
    /// consumed while propagating — moved to its single consumer,
    /// transformed in place, or dropped.
    pub fn backward(&self, root: Var) -> Gradients {
        let rv = self.value(root);
        assert_eq!(rv.shape(), (1, 1), "backward root must be a scalar (1x1), got {:?}", rv.shape());
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[root.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for idx in (0..=root.0).rev() {
            if !self.nodes[idx].needs_grad {
                continue;
            }
            let Some(g) = grads[idx].take() else { continue };
            if matches!(self.nodes[idx].op, Op::Leaf) {
                grads[idx] = Some(g);
                continue;
            }
            self.accumulate_parents(idx, g, &mut grads);
        }
        Gradients { grads }
    }

    /// Adds `delta` into the parent's gradient slot, taking ownership: the
    /// first contribution moves the buffer in, later ones accumulate in
    /// place. Deltas for parents that don't need a gradient are dropped.
    fn acc_grad(&self, parent: usize, delta: Matrix, grads: &mut [Option<Matrix>]) {
        if !self.nodes[parent].needs_grad {
            return;
        }
        match &mut grads[parent] {
            Some(existing) => existing.axpy(1.0, &delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Propagates the owned gradient `g` of node `idx` to its parents.
    /// Backward rules mutate `g` in place wherever the math allows, keeping
    /// the exact per-element expressions and reduction orders of the
    /// original out-of-place forms (results stay bitwise identical).
    fn accumulate_parents(&self, idx: usize, mut g: Matrix, grads: &mut [Option<Matrix>]) {
        let val = |i: usize| &self.nodes[i].value;

        match &self.nodes[idx].op {
            // backward() retains leaf gradients before propagating; reaching
            // here means nothing consumes g.
            Op::Leaf => {}
            Op::Add(a, b) => {
                let ga = g.clone();
                self.acc_grad(*a, ga, grads);
                self.acc_grad(*b, g, grads);
            }
            Op::Sub(a, b) => {
                let ga = g.clone();
                self.acc_grad(*a, ga, grads);
                for v in g.data_mut() {
                    *v = -*v;
                }
                self.acc_grad(*b, g, grads);
            }
            Op::Mul(a, b) => {
                self.acc_grad(*a, g.mul(val(*b)), grads);
                for (gg, &x) in g.data_mut().iter_mut().zip(val(*a).data()) {
                    *gg *= x;
                }
                self.acc_grad(*b, g, grads);
            }
            Op::MatMul(a, b) => {
                // The two gradient products are independent; each is itself
                // a deterministic parallel matmul, so joining them changes
                // nothing about the result. Transposes and both gradient
                // outputs are allocated here on the coordinating thread and
                // the products accumulate into them under par_join:
                // allocating inside the branches measured slower on
                // gnnbench's fit-full (step p50 +5%, rows/s -10% on 2 vCPUs).
                let (va, vb) = (&self.nodes[*a].value, &self.nodes[*b].value);
                let bt = vb.transpose();
                let at = va.transpose();
                let mut ga = Matrix::zeros(g.rows(), bt.cols());
                let mut gb = Matrix::zeros(at.rows(), g.cols());
                {
                    let (gref, btref, atref) = (&g, &bt, &at);
                    let (ga_mut, gb_mut) = (&mut ga, &mut gb);
                    crate::parallel::par_join(
                        || gref.matmul_into(btref, ga_mut),
                        || atref.matmul_into(gref, gb_mut),
                    );
                }
                self.acc_grad(*a, ga, grads);
                self.acc_grad(*b, gb, grads);
            }
            Op::SpMM(adj, h) => {
                let gh = adj.transpose_matrix().spmm(&g);
                self.acc_grad(*h, gh, grads);
            }
            Op::AddRow(a, bias) => {
                let mut bg = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &x) in bg.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                self.acc_grad(*a, g, grads);
                self.acc_grad(*bias, bg, grads);
            }
            Op::MulCol(a, col) => {
                let cv = val(*col);
                let av = val(*a);
                let mut gc = Matrix::zeros(cv.rows(), 1);
                for r in 0..g.rows() {
                    let dot: f32 = g.row(r).iter().zip(av.row(r)).map(|(&x, &y)| x * y).sum();
                    gc.set(r, 0, dot);
                }
                for r in 0..g.rows() {
                    let s = cv.get(r, 0);
                    for o in g.row_mut(r) {
                        *o *= s;
                    }
                }
                self.acc_grad(*a, g, grads);
                self.acc_grad(*col, gc, grads);
            }
            Op::LinearRelu { x, w, bias } => {
                // dz = g masked by the fused output (out > 0 ⟺ pre-act > 0),
                // reusing g's buffer; bias gets dz's column sums and the two
                // dense products mirror MatMul's par_join. Bitwise identical
                // to the unfused Relu→AddRow→MatMul backward chain.
                let out = &self.nodes[idx].value;
                for (gg, &y) in g.data_mut().iter_mut().zip(out.data()) {
                    if y <= 0.0 {
                        *gg = 0.0;
                    }
                }
                let mut gb = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &d) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += d;
                    }
                }
                let (xv, wv) = (&self.nodes[*x].value, &self.nodes[*w].value);
                let wt = wv.transpose();
                let xt = xv.transpose();
                let mut gx = Matrix::zeros(g.rows(), wt.cols());
                let mut gw = Matrix::zeros(xt.rows(), g.cols());
                {
                    let (dref, wtref, xtref) = (&g, &wt, &xt);
                    let (gx_mut, gw_mut) = (&mut gx, &mut gw);
                    crate::parallel::par_join(
                        || dref.matmul_into(wtref, gx_mut),
                        || xtref.matmul_into(dref, gw_mut),
                    );
                }
                self.acc_grad(*x, gx, grads);
                self.acc_grad(*w, gw, grads);
                self.acc_grad(*bias, gb, grads);
            }
            Op::Scale(a, s) => {
                let s = *s;
                for o in g.data_mut() {
                    *o *= s;
                }
                self.acc_grad(*a, g, grads);
            }
            Op::AddScalar(a) => self.acc_grad(*a, g, grads),
            Op::Relu(a) => {
                for (gg, &x) in g.data_mut().iter_mut().zip(val(*a).data()) {
                    if x <= 0.0 {
                        *gg = 0.0;
                    }
                }
                self.acc_grad(*a, g, grads);
            }
            Op::LeakyRelu(a, slope) => {
                let s = *slope;
                for (gg, &x) in g.data_mut().iter_mut().zip(val(*a).data()) {
                    if x <= 0.0 {
                        *gg *= s;
                    }
                }
                self.acc_grad(*a, g, grads);
            }
            Op::Sigmoid(a) => {
                let out = &self.nodes[idx].value;
                for (gg, &y) in g.data_mut().iter_mut().zip(out.data()) {
                    *gg = *gg * y * (1.0 - y);
                }
                self.acc_grad(*a, g, grads);
            }
            Op::Tanh(a) => {
                let out = &self.nodes[idx].value;
                for (gg, &y) in g.data_mut().iter_mut().zip(out.data()) {
                    *gg *= 1.0 - y * y;
                }
                self.acc_grad(*a, g, grads);
            }
            Op::Exp(a) => {
                let out = &self.nodes[idx].value;
                for (gg, &y) in g.data_mut().iter_mut().zip(out.data()) {
                    *gg *= y;
                }
                self.acc_grad(*a, g, grads);
            }
            Op::Log(a, eps) => {
                let e = *eps;
                for (gg, &x) in g.data_mut().iter_mut().zip(val(*a).data()) {
                    *gg /= x + e;
                }
                self.acc_grad(*a, g, grads);
            }
            Op::Square(a) => {
                for (gg, &x) in g.data_mut().iter_mut().zip(val(*a).data()) {
                    *gg = 2.0 * *gg * x;
                }
                self.acc_grad(*a, g, grads);
            }
            Op::Dropout(a, mask) => {
                for (gg, &m) in g.data_mut().iter_mut().zip(mask.iter()) {
                    *gg *= m;
                }
                self.acc_grad(*a, g, grads);
            }
            Op::GatherRows(a, index) => {
                let av = val(*a);
                let mut ga = Matrix::zeros(av.rows(), av.cols());
                for (i, &src) in index.iter().enumerate() {
                    for (o, &x) in ga.row_mut(src).iter_mut().zip(g.row(i)) {
                        *o += x;
                    }
                }
                self.acc_grad(*a, ga, grads);
            }
            Op::ScatterAddRows { src, index } => {
                let mut gs = Matrix::zeros(index.len(), g.cols());
                for (i, &dst) in index.iter().enumerate() {
                    gs.row_mut(i).copy_from_slice(g.row(dst));
                }
                self.acc_grad(*src, gs, grads);
            }
            Op::ScatterMaxRows { src, index, out_rows } => {
                // route each output cell's gradient to the first row that
                // achieved the max (ties broken by scatter order)
                let sv = val(*src);
                let cols = sv.cols();
                let mut argmax = vec![usize::MAX; out_rows * cols];
                let mut best = vec![f32::NEG_INFINITY; out_rows * cols];
                for (i, &dst) in index.iter().enumerate() {
                    for c in 0..cols {
                        let v = sv.get(i, c);
                        let k = dst * cols + c;
                        if v > best[k] {
                            best[k] = v;
                            argmax[k] = i;
                        }
                    }
                }
                let mut gs = Matrix::zeros(sv.rows(), cols);
                for dst in 0..*out_rows {
                    for c in 0..cols {
                        let k = dst * cols + c;
                        if argmax[k] != usize::MAX {
                            let cur = gs.get(argmax[k], c);
                            gs.set(argmax[k], c, cur + g.get(dst, c));
                        }
                    }
                }
                self.acc_grad(*src, gs, grads);
            }
            Op::SegmentSoftmax { src, seg, n_seg } => {
                // d a_i = alpha_i * (g_i - sum_{j in seg(i)} g_j alpha_j)
                let alpha = &self.nodes[idx].value;
                let cols = alpha.cols();
                let mut seg_dot = vec![0f32; n_seg * cols];
                for (i, &s) in seg.iter().enumerate() {
                    for c in 0..cols {
                        seg_dot[s * cols + c] += g.get(i, c) * alpha.get(i, c);
                    }
                }
                let mut ga = Matrix::zeros(alpha.rows(), cols);
                for (i, &s) in seg.iter().enumerate() {
                    for c in 0..cols {
                        ga.set(i, c, alpha.get(i, c) * (g.get(i, c) - seg_dot[s * cols + c]));
                    }
                }
                self.acc_grad(*src, ga, grads);
            }
            Op::SoftmaxRows(a) => {
                let y = &self.nodes[idx].value;
                let mut ga = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let dot: f32 = g.row(r).iter().zip(y.row(r)).map(|(&gg, &yy)| gg * yy).sum();
                    for c in 0..y.cols() {
                        ga.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                    }
                }
                self.acc_grad(*a, ga, grads);
            }
            Op::ConcatCols(a, b) => {
                let (ca, cb) = (val(*a).cols(), val(*b).cols());
                let mut ga = Matrix::zeros(g.rows(), ca);
                let mut gb = Matrix::zeros(g.rows(), cb);
                for r in 0..g.rows() {
                    ga.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                    gb.row_mut(r).copy_from_slice(&g.row(r)[ca..]);
                }
                self.acc_grad(*a, ga, grads);
                self.acc_grad(*b, gb, grads);
            }
            Op::Transpose(a) => {
                let ga = g.transpose();
                self.acc_grad(*a, ga, grads);
            }
            Op::SumAll(a) => {
                let av = val(*a);
                let ga = Matrix::full(av.rows(), av.cols(), g.get(0, 0));
                self.acc_grad(*a, ga, grads);
            }
            Op::MeanAll(a) => {
                let av = val(*a);
                let n = av.len().max(1) as f32;
                let ga = Matrix::full(av.rows(), av.cols(), g.get(0, 0) / n);
                self.acc_grad(*a, ga, grads);
            }
            Op::SumRows(a) => {
                let av = val(*a);
                let mut ga = Matrix::zeros(av.rows(), av.cols());
                for r in 0..av.rows() {
                    ga.row_mut(r).copy_from_slice(g.row(0));
                }
                self.acc_grad(*a, ga, grads);
            }
            Op::MeanRows(a) => {
                let av = val(*a);
                let inv = 1.0 / av.rows().max(1) as f32;
                let mut ga = Matrix::zeros(av.rows(), av.cols());
                for r in 0..av.rows() {
                    for (o, &x) in ga.row_mut(r).iter_mut().zip(g.row(0)) {
                        *o = x * inv;
                    }
                }
                self.acc_grad(*a, ga, grads);
            }
            Op::RowSum(a) => {
                let av = val(*a);
                let mut ga = Matrix::zeros(av.rows(), av.cols());
                for r in 0..av.rows() {
                    let gg = g.get(r, 0);
                    for o in ga.row_mut(r) {
                        *o = gg;
                    }
                }
                self.acc_grad(*a, ga, grads);
            }
            Op::SoftmaxCrossEntropy { logits, labels, mask } => {
                let lv = val(*logits);
                let (probs, _) = row_softmax(lv);
                let weight: f32 = mask.as_ref().map_or(labels.len() as f32, |m| m.iter().sum());
                let scale = if weight > 0.0 { g.get(0, 0) / weight } else { 0.0 };
                let mut gl = Matrix::zeros(lv.rows(), lv.cols());
                for (r, &y) in labels.iter().enumerate() {
                    let w = mask.as_ref().map_or(1.0, |m| m[r]);
                    if w == 0.0 {
                        continue;
                    }
                    for c in 0..lv.cols() {
                        let p = probs.get(r, c);
                        let t = if c == y { 1.0 } else { 0.0 };
                        gl.set(r, c, w * scale * (p - t));
                    }
                }
                self.acc_grad(*logits, gl, grads);
            }
            Op::BceWithLogits { logits, targets, mask } => {
                let lv = val(*logits);
                let weight: f32 = mask.as_ref().map_or(lv.len() as f32, |m| m.iter().sum());
                let scale = if weight > 0.0 { g.get(0, 0) / weight } else { 0.0 };
                let mut gl = Matrix::zeros(lv.rows(), lv.cols());
                for (i, ((o, &x), &t)) in
                    gl.data_mut().iter_mut().zip(lv.data()).zip(targets.data()).enumerate()
                {
                    let w = mask.as_ref().map_or(1.0, |m| m[i]);
                    let p = 1.0 / (1.0 + (-x).exp());
                    *o = w * scale * (p - t);
                }
                self.acc_grad(*logits, gl, grads);
            }
            Op::MseLoss { pred, target, mask } => {
                let pv = val(*pred);
                let weight: f32 = mask.as_ref().map_or(pv.len() as f32, |m| m.iter().sum());
                let scale = if weight > 0.0 { g.get(0, 0) / weight } else { 0.0 };
                let mut gl = Matrix::zeros(pv.rows(), pv.cols());
                for (i, ((o, &x), &t)) in
                    gl.data_mut().iter_mut().zip(pv.data()).zip(target.data()).enumerate()
                {
                    let w = mask.as_ref().map_or(1.0, |m| m[i]);
                    *o = w * scale * 2.0 * (x - t);
                }
                self.acc_grad(*pred, gl, grads);
            }
        }
    }
}

/// Leaf gradients produced by [`Tape::backward`]. Interior-node gradients
/// are consumed during the backward sweep (moved to their single consumer,
/// transformed in place, or dropped), so only leaves — parameters and
/// inputs — can have entries.
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// The gradient of the backward root with respect to leaf `v`, if any
    /// was propagated (leaves unreachable from the root, non-trainable
    /// paths, and interior nodes have no gradient).
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.index()).and_then(|g| g.as_ref())
    }

    /// Takes ownership of the gradient for `v`.
    pub fn take(&mut self, v: Var) -> Option<Matrix> {
        self.grads.get_mut(v.index()).and_then(|g| g.take())
    }
}

/// Row-wise softmax with the per-row max subtracted; returns (probs, maxes).
fn row_softmax(m: &Matrix) -> (Matrix, Vec<f32>) {
    let mut probs = Matrix::zeros(m.rows(), m.cols());
    let mut maxes = Vec::with_capacity(m.rows());
    for r in 0..m.rows() {
        let row = m.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        maxes.push(max);
        let mut sum = 0.0;
        for (o, &x) in probs.row_mut(r).iter_mut().zip(row) {
            *o = (x - max).exp();
            sum += *o;
        }
        if sum > 0.0 {
            for o in probs.row_mut(r) {
                *o /= sum;
            }
        }
    }
    (probs, maxes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference gradient check for a scalar-valued function
    /// of one leaf matrix.
    fn grad_check(shape: (usize, usize), seed: u64, f: impl Fn(&mut Tape, Var) -> Var, tol: f32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0 = Matrix::randn(shape.0, shape.1, 0.0, 1.0, &mut rng);

        let mut tape = Tape::new();
        let x = tape.param(x0.clone());
        let loss = f(&mut tape, x);
        let grads = tape.backward(loss);
        let analytic = grads.get(x).expect("gradient must exist").clone();

        let eps = 1e-2f32;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x0.clone();
            minus.data_mut()[i] -= eps;

            let mut tp = Tape::new();
            let xp = tp.param(plus);
            let lp = f(&mut tp, xp);
            let mut tm = Tape::new();
            let xm = tm.param(minus);
            let lm = f(&mut tm, xm);

            let numeric = (tp.value(lp).get(0, 0) - tm.value(lm).get(0, 0)) / (2.0 * eps);
            let got = analytic.data()[i];
            assert!(
                (numeric - got).abs() < tol * (1.0 + numeric.abs().max(got.abs())),
                "grad mismatch at {i}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn grad_sum_of_square() {
        grad_check(
            (3, 2),
            1,
            |t, x| {
                let s = t.square(x);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_chain() {
        grad_check(
            (3, 4),
            2,
            |t, x| {
                let mut rng = StdRng::seed_from_u64(99);
                let w = t.constant(Matrix::randn(4, 2, 0.0, 1.0, &mut rng));
                let h = t.matmul(x, w);
                let r = t.tanh(h);
                t.mean_all(r)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_rhs() {
        grad_check(
            (4, 3),
            3,
            |t, x| {
                let mut rng = StdRng::seed_from_u64(98);
                let a = t.constant(Matrix::randn(2, 4, 0.0, 1.0, &mut rng));
                let h = t.matmul(a, x);
                let s = t.square(h);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_spmm() {
        let adj = Arc::new(SpAdj::new(CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 0.5), (1, 0, 0.5), (1, 2, 1.5), (2, 2, 1.0)],
        )));
        grad_check(
            (3, 2),
            4,
            move |t, x| {
                let h = t.spmm(&adj, x);
                let s = t.square(h);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_pointwise_nonlinearities() {
        grad_check(
            (2, 3),
            5,
            |t, x| {
                let a = t.sigmoid(x);
                let b = t.tanh(a);
                let c = t.leaky_relu(b, 0.1);
                t.mean_all(c)
            },
            1e-2,
        );
        grad_check(
            (2, 3),
            6,
            |t, x| {
                let a = t.exp(x);
                let b = t.log(a, 1e-6);
                t.sum_all(b)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_broadcasts() {
        grad_check(
            (3, 2),
            7,
            |t, x| {
                let mut rng = StdRng::seed_from_u64(97);
                let bias = t.constant(Matrix::randn(1, 2, 0.0, 1.0, &mut rng));
                let col = t.constant(Matrix::randn(3, 1, 0.0, 1.0, &mut rng));
                let a = t.add_row(x, bias);
                let b = t.mul_col(a, col);
                t.sum_all(b)
            },
            1e-2,
        );
        // bias gradient
        grad_check(
            (1, 4),
            8,
            |t, bias| {
                let mut rng = StdRng::seed_from_u64(96);
                let a = t.constant(Matrix::randn(5, 4, 0.0, 1.0, &mut rng));
                let h = t.add_row(a, bias);
                let s = t.square(h);
                t.sum_all(s)
            },
            1e-2,
        );
        // column-scale gradient
        grad_check(
            (5, 1),
            9,
            |t, col| {
                let mut rng = StdRng::seed_from_u64(95);
                let a = t.constant(Matrix::randn(5, 3, 0.0, 1.0, &mut rng));
                let h = t.mul_col(a, col);
                let s = t.square(h);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_gather_scatter() {
        let index = Arc::new(vec![0usize, 2, 2, 1]);
        grad_check(
            (3, 2),
            10,
            {
                let index = Arc::clone(&index);
                move |t, x| {
                    let g = t.gather_rows(x, Arc::clone(&index));
                    let s = t.square(g);
                    t.sum_all(s)
                }
            },
            1e-2,
        );
        grad_check(
            (4, 2),
            11,
            move |t, x| {
                let s = t.scatter_add_rows(x, Arc::clone(&index), 3);
                let q = t.square(s);
                t.sum_all(q)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_scatter_max() {
        let index = Arc::new(vec![0usize, 0, 1, 1]);
        // offset inputs so maxima are unambiguous (finite differences near
        // ties are meaningless)
        let mut rng = StdRng::seed_from_u64(77);
        let base = Matrix::randn(4, 2, 0.0, 1.0, &mut rng);
        let mut x0 = base.clone();
        for (i, v) in x0.data_mut().iter_mut().enumerate() {
            *v += i as f32; // strictly increasing offsets kill ties
        }
        let mut tape = Tape::new();
        let x = tape.param(x0.clone());
        let m = tape.scatter_max_rows(x, Arc::clone(&index), 2);
        let sq = tape.square(m);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        let analytic = grads.get(x).unwrap().clone();
        let eps = 1e-2f32;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x0.clone();
            minus.data_mut()[i] -= eps;
            let f = |m0: Matrix| -> f32 {
                let mut t = Tape::new();
                let xv = t.param(m0);
                let mm = t.scatter_max_rows(xv, Arc::clone(&index), 2);
                let ss = t.square(mm);
                let ll = t.sum_all(ss);
                t.value(ll).get(0, 0)
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[i]).abs() < 1e-1 * (1.0 + numeric.abs()),
                "idx {i}: numeric {numeric} vs analytic {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn scatter_max_empty_destination_is_zero() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[vec![-5.0, 3.0]]));
        let m = tape.scatter_max_rows(x, Arc::new(vec![1]), 3);
        let v = tape.value(m);
        assert_eq!(v.row(0), &[0.0, 0.0]);
        assert_eq!(v.row(1), &[-5.0, 3.0]);
        assert_eq!(v.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn grad_segment_softmax() {
        let seg = Arc::new(vec![0usize, 0, 1, 1, 1]);
        grad_check(
            (5, 1),
            12,
            move |t, x| {
                let a = t.segment_softmax(x, Arc::clone(&seg), 2);
                let s = t.square(a);
                t.sum_all(s)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_softmax_rows() {
        grad_check(
            (3, 4),
            13,
            |t, x| {
                let p = t.softmax_rows(x);
                let s = t.square(p);
                t.sum_all(s)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_concat_and_transpose() {
        grad_check(
            (3, 2),
            14,
            |t, x| {
                let xt = t.transpose(x);
                let back = t.transpose(xt);
                let c = t.concat_cols(x, back);
                let s = t.square(c);
                t.mean_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_reductions() {
        grad_check(
            (4, 3),
            15,
            |t, x| {
                let m = t.mean_rows(x);
                let s = t.square(m);
                t.sum_all(s)
            },
            1e-2,
        );
        grad_check(
            (4, 3),
            16,
            |t, x| {
                let m = t.row_sum(x);
                let s = t.square(m);
                t.mean_all(s)
            },
            1e-2,
        );
        grad_check(
            (4, 3),
            17,
            |t, x| {
                let m = t.sum_rows(x);
                let s = t.square(m);
                t.sum_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_cross_entropy() {
        let labels = Arc::new(vec![0usize, 2, 1]);
        grad_check(
            (3, 3),
            18,
            {
                let labels = Arc::clone(&labels);
                move |t, x| t.softmax_cross_entropy(x, Arc::clone(&labels), None)
            },
            2e-2,
        );
        // masked variant: only rows 0 and 2 count
        let mask = Arc::new(vec![1.0f32, 0.0, 1.0]);
        grad_check(
            (3, 3),
            19,
            move |t, x| t.softmax_cross_entropy(x, Arc::clone(&labels), Some(Arc::clone(&mask))),
            2e-2,
        );
    }

    #[test]
    fn grad_bce_and_mse() {
        let targets = Arc::new(Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]));
        grad_check(
            (2, 2),
            20,
            {
                let targets = Arc::clone(&targets);
                move |t, x| t.bce_with_logits(x, Arc::clone(&targets), None)
            },
            2e-2,
        );
        grad_check((2, 2), 21, move |t, x| t.mse_loss(x, Arc::clone(&targets), None), 1e-2);
    }

    #[test]
    fn grad_mse_masked_ignores_masked_entries() {
        let target = Arc::new(Matrix::from_rows(&[vec![0.0, 0.0]]));
        let mask = Arc::new(vec![0.0f32, 1.0]);
        let mut tape = Tape::new();
        let x = tape.param(Matrix::from_rows(&[vec![5.0, 3.0]]));
        let loss = tape.mse_loss(x, target, Some(mask));
        assert!((tape.value(loss).get(0, 0) - 9.0).abs() < 1e-5);
        let grads = tape.backward(loss);
        let g = grads.get(x).unwrap();
        assert_eq!(g.get(0, 0), 0.0);
        assert!((g.get(0, 1) - 6.0).abs() < 1e-5);
    }

    #[test]
    fn grad_dropout_respects_mask() {
        let mask = Arc::new(vec![0.0f32, 2.0, 2.0, 0.0]);
        let mut tape = Tape::new();
        let x = tape.param(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let d = tape.dropout(x, Arc::clone(&mask));
        assert_eq!(tape.value(d).data(), &[0.0, 4.0, 6.0, 0.0]);
        let s = tape.sum_all(d);
        let grads = tape.backward(s);
        assert_eq!(grads.get(x).unwrap().data(), &[0.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    fn no_grad_through_constants() {
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::from_rows(&[vec![1.0]]));
        let x = tape.param(Matrix::from_rows(&[vec![2.0]]));
        let y = tape.mul(c, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert!(grads.get(c).is_none());
        assert!((grads.get(x).unwrap().get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fan_out_accumulates() {
        // loss = sum(x*x_used_twice): y = x + x => dy/dx = 2 per use.
        let mut tape = Tape::new();
        let x = tape.param(Matrix::from_rows(&[vec![3.0]]));
        let y = tape.add(x, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().get(0, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "backward root must be a scalar")]
    fn backward_requires_scalar_root() {
        let mut tape = Tape::new();
        let x = tape.param(Matrix::zeros(2, 2));
        tape.backward(x);
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[vec![1.0], vec![2.0], vec![0.5], vec![-1.0]]));
        let seg = Arc::new(vec![0usize, 0, 1, 1]);
        let a = tape.segment_softmax(x, seg, 2);
        let v = tape.value(a);
        assert!((v.get(0, 0) + v.get(1, 0) - 1.0).abs() < 1e-6);
        assert!((v.get(2, 0) + v.get(3, 0) - 1.0).abs() < 1e-6);
    }
}
