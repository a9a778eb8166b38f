//! # gnn4tdl-nn
//!
//! Neural encoders for graph-shaped tabular data: linear/MLP blocks, the
//! homogeneous GNN zoo (GCN, GraphSAGE, GIN, GAT), relational GCN for
//! multiplex graphs, GRAPE-style bipartite message passing with an edge-value
//! decoder, hypergraph convolution, learning-based graph-structure-learning
//! models, the Fi-GNN-style batched feature-graph encoder, and message-flow
//! [`Block`]s that compute only a seed set's receptive field.
//!
//! Layers hold [`gnn4tdl_tensor::ParamId`]s into a shared
//! [`gnn4tdl_tensor::ParamStore`]; every forward pass runs in a fresh
//! [`session::Session`].

#![allow(clippy::needless_range_loop)] // index loops over matrix coordinates read better in numeric kernels

pub mod bipartite;
pub mod block;
pub mod conv;
pub mod feature_graph;
pub mod gat;
pub mod ggnn;
pub mod gsl;
pub mod hetero;
pub mod hyper;
pub mod linear;
pub mod readout;
pub mod rgcn;
pub mod session;

pub use bipartite::{BipartiteModel, EdgeValueDecoder};
pub use block::Block;
pub use conv::{pair_norm, BlockModel, GcnModel, GinModel, MlpModel, NodeModel, SageAggregator, SageModel};
pub use feature_graph::{FeatureGraphModel, FieldAdjacency};
pub use gat::GatModel;
pub use ggnn::GgnnModel;
pub use gsl::{DirectGslModel, NeuralGslModel};
pub use hetero::HeteroModel;
pub use hyper::HyperModel;
pub use linear::{Activation, Linear, Mlp};
pub use readout::{segment_readout, Readout};
pub use rgcn::RgcnModel;
pub use session::Session;
