//! Performance-first CPU inference kernels for SparseNN.
//!
//! Every other execution substrate in this repository *models* speed — the
//! cycle-accurate machine, the golden fixed-point reference, the analytic
//! SIMD platforms. This crate is engineered for it: a two-stage design in
//! the style of SparseFlow that turns SparseNN's input/output sparsity into
//! **measured wall-clock** wins on a general-purpose core.
//!
//! 1. **Prescan** ([`BlockIndex`]): one pass over the activation vector
//!    builds a nonzero-block index — per-layer bitmask words plus a
//!    live-block list over fixed-size column blocks. Cost: `O(n)` loads,
//!    no multiplies.
//! 2. **Compute** ([`SparseKernel`]): touches only live blocks, against
//!    weights repacked once at construction into row-major block panels
//!    ([`PackedLayer`]) — contiguous, cache-blocked, SIMD-friendly. Output
//!    sparsity composes on top: rows the UV predictor bypasses are skipped
//!    whole.
//!
//! [`SparseKernel::run`] is the B = 1 case of [`SparseKernel::run_batch`]:
//! one layer loop serves both. The hot path allocates only the vectors it
//! returns (each layer's output and mask); every intermediate lives in a
//! [`Scratch`] arena reused across samples and batches.
//!
//! Results are **bit-exact** against the golden fixed-point model
//! (`sparsenn_model::fixedpoint`) in both UV modes. The key property is
//! that a zero activation contributes exactly `0` to the wide `i64`
//! accumulator, so a dense dot product over a live block (zeros included)
//! equals the golden `row_dot` (which skips zeros) bit for bit — and i64
//! addition is order-independent, so block order doesn't matter either.
//! Zero padding at the row tail is exact for the same reason.
//!
//! [`Strategy::Dense`] keeps an honest dense-GEMV baseline in the same
//! crate (same data layout, same accumulator), so "prescan speedup" is
//! measured against the best dense implementation of the same arithmetic,
//! not a strawman.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod packed;
mod prescan;

pub use kernel::{
    KernelBatchRun, KernelLayer, KernelRun, LayerStats, Scratch, SparseKernel, Strategy,
};
pub use packed::{PackedLayer, PackedPredictor};
pub use prescan::BlockIndex;

/// Default column-block size, tuned by measurement (`--bin kernel` in the
/// bench crate): with scattered zeros the chance a block is entirely dead
/// falls off exponentially in the block width, so the finer 8-wide block
/// (16 bytes per panel row) skips markedly more work than 16 or 32 on both
/// glyph-style inputs and ReLU'd hidden activations, and still amortizes
/// the index indirection.
pub const DEFAULT_BLOCK: usize = 8;
