//! Minimal dense tensor library used by the DistrEdge reproduction.
//!
//! The distribution algorithms in the `distredge` crate only reason about
//! layer *configurations* (shapes, FLOPs, byte counts), but the reproduction
//! also needs to demonstrate that a vertical split of a layer-volume is
//! *functionally* exact: running each split-part on its slice of the input
//! and stitching the outputs back together must reproduce the output of the
//! un-split layer-volume bit-for-bit.  This crate provides the small CHW
//! tensor type and the convolution / pooling / linear kernels needed for
//! that verification, plus the runnable examples.
//!
//! Convolutions execute on a packed implicit-GEMM path ([`ops::gemm`]):
//! weights are repacked into register-tile panels (once, at deploy time,
//! via [`ops::pack_conv_filter`]), the micro-kernels read the input band in
//! place from a zero-padded copy of it — no im2col matrix is built — and
//! rayon parallelises over output row tiles.  Linear layers are bandwidth-bound matrix-vector
//! products: the kernels in [`ops::gemv`] read the caller's row-major
//! weights in place ([`ops::PackedLinearFilter::shared`] wraps an
//! `Arc<[f32]>`, never copying it), sixteen rows at a time, transposed in
//! registers.  Every f32 kernel
//! arm computes under one numerical contract — a single accumulator per
//! output, `k` ascending, one fused multiply-add per step (see [`ops`]) —
//! which is what makes split-and-stitch exact across tile sizes, threads,
//! SIMD widths and machines.  The clarity-first direct kernels remain as
//! oracles ([`ops::conv2d_direct`], [`ops::linear_direct`]) that the fast
//! path is validated against under a tolerance.
//!
//! # Example
//!
//! ```
//! use tensor::{Tensor, ops};
//!
//! let input = Tensor::filled([3, 8, 8], 1.0);
//! // Weights laid out [c_out][c_in][f][f], one bias per output channel.
//! let weights = vec![0.5; ops::im2col_weight_len(3, 4, 3)];
//! let bias = vec![0.0; 4];
//! // Pack once (3×3, stride 1; `None` leaves the kernel route to the
//! // policy), then run any band of output rows — here all eight, from the
//! // whole input, with padding 1.
//! let filter = ops::pack_conv_filter(&weights, 3, 4, 3, 1, None)?;
//! let out = ops::conv2d_rows_packed(
//!     &input, 0, 8, 0, 8, &filter, &bias, 3, 1, 1, ops::Activation::Relu,
//! )?;
//! assert_eq!(out.shape(), [4, 8, 8]);
//! # Ok::<(), tensor::TensorError>(())
//! ```

pub mod error;
pub mod ops;
pub mod shape;
pub mod slab;
pub mod slice;
mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
