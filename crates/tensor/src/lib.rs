//! # gnn4tdl-tensor
//!
//! Dense matrices, CSR sparse matrices, and a reverse-mode autodiff tape —
//! the numeric substrate for the `gnn4tdl` workspace (a from-scratch Rust
//! reproduction of the GNN-for-Tabular-Data-Learning pipeline).
//!
//! Everything is CPU `f32`; determinism comes from explicit `rand` RNGs
//! threaded through every stochastic routine.

pub mod buf;
pub mod error;
pub mod fault;
pub mod init;
pub mod json;
pub mod kernel;
pub mod matrix;
pub mod obs;
pub mod parallel;
pub mod params;
pub mod pool;
pub mod sparse;
pub mod tape;

pub use buf::Buf;
pub use error::GnnError;
pub use matrix::Matrix;
pub use params::{atomic_write, fnv1a64, ParamId, ParamStore};
pub use sparse::CsrMatrix;
pub use tape::{Gradients, SpAdj, Tape, Var};

/// SplitMix64 finalizer: good dispersion from consecutive inputs, so
/// counter-derived keys are safe. The one hash behind every replayable draw
/// stream — fault plans, the neighbor sampler and HNSW level draws — which
/// is why none of them needs RNG state. `#[inline]` so the sampler and HNSW
/// hot loops inline it across the crate boundary.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
