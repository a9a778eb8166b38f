//! Message-flow blocks: the layer-by-layer computation graph of a set of
//! seed nodes, the shape PyG's `NeighborLoader` and DGL's message-flow
//! graphs hand a GNN instead of the whole graph.
//!
//! Layer `l` of a [`Block`] maps its `src` input rows to its `dst` output
//! rows through one sparse `dst × src` operator. The `dst` rows come first
//! among the `src` rows (seeds first, as in a sampled minibatch block), so a
//! layer's self term is the row prefix of its input, and each layer's
//! outputs are exactly the next layer's inputs. The last layer's outputs are
//! the seeds.

use std::sync::Arc;

use gnn4tdl_tensor::{CsrMatrix, GnnError, SpAdj, Var};

use crate::session::Session;

/// Per-layer `dst × src` operators of a message-flow graph, input side
/// first; see the module docs.
#[derive(Clone, Debug)]
pub struct Block {
    inputs: usize,
    layers: Vec<Arc<SpAdj>>,
}

impl Block {
    /// Wraps `operators` (input side first) over `inputs` input rows. With
    /// no operators the block is the identity over its rows, which is what a
    /// graph-free encoder reads.
    ///
    /// Returns [`GnnError::InvalidGraph`] unless the shapes chain: the first
    /// operator has `inputs` columns, each operator's rows equal the next
    /// one's columns, and no operator has more rows than columns (its rows
    /// are a prefix of its inputs).
    pub fn new(inputs: usize, operators: Vec<CsrMatrix>) -> Result<Self, GnnError> {
        let mut cols = inputs;
        for (l, op) in operators.iter().enumerate() {
            if op.cols() != cols || op.rows() > cols {
                return Err(GnnError::InvalidGraph {
                    detail: format!(
                        "block layer {l} is {}x{}; it needs {cols} columns and at most as many rows",
                        op.rows(),
                        op.cols()
                    ),
                });
            }
            cols = op.rows();
        }
        Ok(Self { inputs, layers: operators.into_iter().map(|op| Arc::new(SpAdj::new(op))).collect() })
    }

    /// Number of message-passing layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Rows of the layer-0 input.
    pub fn input_rows(&self) -> usize {
        self.inputs
    }

    /// Rows of the last layer's output: the seeds.
    pub fn output_rows(&self) -> usize {
        self.layers.last().map_or(self.inputs, |op| op.rows())
    }

    /// Output rows summed over layers: the rows a forward pass computes.
    pub fn rows_computed(&self) -> usize {
        self.layers.iter().map(|op| op.rows()).sum()
    }

    /// Layer `layer`'s `dst × src` operator.
    pub fn operator(&self, layer: usize) -> &Arc<SpAdj> {
        &self.layers[layer]
    }

    /// The rows of `h` (layer `layer`'s input) that the layer outputs: the
    /// self term of Sage and Gin layers.
    pub fn dst_rows(&self, s: &mut Session<'_>, layer: usize, h: Var) -> Var {
        prefix(s, h, self.layers[layer].rows())
    }

    /// The seed rows of the block input `x`.
    pub fn seed_rows(&self, s: &mut Session<'_>, x: Var) -> Var {
        prefix(s, x, self.output_rows())
    }
}

/// The first `rows` rows of `h`, gathered on the tape (`h` itself when that
/// is all of it).
fn prefix(s: &mut Session<'_>, h: Var, rows: usize) -> Var {
    if s.tape.value(h).rows() == rows {
        h
    } else {
        s.tape.gather_rows(h, Arc::new((0..rows).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_must_chain() {
        let op = |rows, cols| CsrMatrix::empty(rows, cols);
        let block = Block::new(5, vec![op(3, 5), op(1, 3)]).unwrap();
        assert_eq!((block.depth(), block.input_rows(), block.output_rows()), (2, 5, 1));
        assert_eq!(block.rows_computed(), 4);
        let identity = Block::new(4, Vec::new()).unwrap();
        assert_eq!((identity.depth(), identity.output_rows(), identity.rows_computed()), (0, 4, 0));
        for bad in [vec![op(3, 4)], vec![op(3, 5), op(1, 2)], vec![op(6, 5)]] {
            assert!(matches!(Block::new(5, bad), Err(GnnError::InvalidGraph { .. })));
        }
    }
}
