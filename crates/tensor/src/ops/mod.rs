//! Compute kernels: convolution, pooling, activation, and linear layers.
//!
//! Every fast path runs from weights prepared once, and only from them: a
//! conv or int8 FC layer is packed once ([`pack_conv_filter`],
//! [`QuantizedLinearFilter::pack`]), an f32 FC layer's row-major weights
//! are wrapped as they are ([`PackedLinearFilter::shared`], or copied once
//! by [`pack_linear_filter`]), and then each runs per frame
//! ([`conv2d_rows_packed`], [`linear_packed`], [`linear_q8`]).  A conv pack
//! fixes its kernel route ([`ConvRoute`]): the implicit GEMM (the band
//! read in place by the blocked GEMM in [`gemm`]), the Winograd F(2×2,3×3) shortcut in [`winograd`] for
//! stride-1 3×3 layers with enough channels, or the int8 GEMM in
//! [`qgemm`] — all three through the one blocked GEMM driver in [`gemm`],
//! f32 and int8 differing only in their number format.  Linear layers run
//! the bandwidth-bound row-vectorised GEMV kernels in [`gemv`], the f32
//! one straight off the caller's rows.  All of it
//! sits behind the runtime micro-kernel dispatch in [`dispatch`]: one
//! request (`DISTREDGE_KERNEL`, or a [`pin_kernels`] guard in tests and
//! benches) selects the arm of both kernel families.  The direct loop-nest
//! kernels ([`conv2d_direct`] / [`conv2d_rows_direct`] / [`linear_direct`])
//! take raw weights and remain as the oracles the fast paths are validated
//! against.
//!
//! # The f32 numerical contract
//!
//! Every f32 kernel arm ([`gemm`], [`gemv`], and through them the implicit
//! GEMM, Winograd and the FC head) computes an output element as
//!
//! ```text
//! acc = bias;  for k in 0..K { acc = fma(a[k], b[k], acc) }
//! ```
//!
//! — one accumulator per element, initialised from the bias, `k` strictly
//! ascending, each step **one fused multiply-add** (IEEE-754
//! `fusedMultiplyAdd`: the exact product plus the accumulator, rounded
//! once).  `f32::mul_add`, x86 `vfmadd`, AArch64 `fmla` and libm `fmaf` are
//! all that one correctly rounded operation, so the result is the same bit
//! pattern on every dispatch arm, tile size, thread count, band cut and
//! machine.  The direct-loop oracles round the product and the sum
//! separately and are compared under a tolerance, never bitwise.
//! [`NUMERICS_CONTRACT`] names this contract on the wire.

/// Version of the f32 numerical contract (see the module docs) this build
/// computes under.  Two builds with different values produce outputs that
/// differ in the last bit, so bands from both must never be stitched into
/// one tensor: `edge-cluster`'s handshake carries the byte and a node
/// refuses a coordinator whose value differs.  Bump it whenever the
/// per-element op sequence of any f32 arm changes.
///
/// * `1` — separate multiply then add (builds that predate the byte).
/// * `2` — one fused multiply-add per step.
pub const NUMERICS_CONTRACT: u8 = 2;

mod activation;
mod conv;
pub mod dispatch;
pub mod gemm;
pub mod gemv;
mod linear;
mod pool;
pub mod qgemm;
pub mod winograd;

pub use activation::{apply_activation, Activation};
pub use conv::{
    conv2d_direct, conv2d_rows_direct, conv2d_rows_packed, im2col_weight_len, pack_conv_filter,
    ConvRoute, PackedConvFilter,
};
pub use dispatch::{kernel_arch, pin_kernels, qkernel_arch, KernelArch, QKernelArch};
pub use gemm::PackedFilter;
pub use gemv::{PackedLinearFilter, QuantizedLinearFilter};
pub use linear::{linear_direct, linear_packed, linear_q8, pack_linear_filter};
pub use pool::{maxpool2d, maxpool2d_rows};
pub use qgemm::{quant_byte, quant_scale, quantize_i8, quantize_slice, QuantizedFilter};
pub use winograd::{winograd_eligible, winograd_preferred, WinogradFilter};
