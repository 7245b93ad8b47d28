//! Fully-connected (linear) layer kernel.
//!
//! An FC layer is a matrix-vector product: bandwidth-bound, one pass over
//! the weights per frame.  It runs on the row-vectorised GEMV kernels in
//! [`super::gemv`], which keep the GEMM path's numerical contract — one
//! fused multiply-add per step, `k` ascending (see [`super`]) — bit for
//! bit.  [`linear_packed`] / [`linear_q8`] consume a filter prepacked at
//! deploy time ([`pack_linear_filter`] /
//! [`QuantizedLinearFilter::pack`]); nothing packs per call.
//! [`linear_direct`] is the serial oracle over raw weights: it rounds the
//! product and the sum separately, so it is compared under a tolerance,
//! never bitwise.

use super::activation::Activation;
use super::gemv::{
    gemv_bias_act_into, qgemv_bias_act_into, PackedLinearFilter, QuantizedLinearFilter,
};
use crate::error::TensorError;
use crate::shape::Shape;
use crate::{Result, Tensor};

fn validate(in_features: usize, w_len: usize, bias_len: usize, out_features: usize) -> Result<()> {
    if w_len != in_features * out_features {
        return Err(TensorError::KernelConfig(format!(
            "linear weights length {w_len} != out*in = {}",
            in_features * out_features
        )));
    }
    if bias_len != out_features {
        return Err(TensorError::KernelConfig(format!(
            "linear bias length {bias_len} != out {out_features}"
        )));
    }
    Ok(())
}

/// Packs `[out][in]` linear weights into GEMV panels (the deploy-time half
/// of the packed FC path).
pub fn pack_linear_filter(
    weights: &[f32],
    in_features: usize,
    out_features: usize,
) -> Result<PackedLinearFilter> {
    PackedLinearFilter::pack(weights, out_features, in_features)
}

/// Fully-connected layer over a prepacked filter — the per-frame hot path:
/// `out[o] = act(bias[o] + sum_i w[o][i] * in[i])`.
///
/// The input tensor is flattened in CHW order (its length must be the
/// filter's `in_features`, `bias` one entry per output); the result is a
/// `[out, 1, 1]` tensor.
pub fn linear_packed(
    input: &Tensor,
    filter: &PackedLinearFilter,
    bias: &[f32],
    act: Activation,
) -> Result<Tensor> {
    let mut out = vec![0.0f32; filter.m()];
    gemv_bias_act_into(filter, input.data(), bias, act, &mut out)?;
    Tensor::from_vec(Shape::new(filter.m(), 1, 1), out)
}

/// Fully-connected layer on the **int8 quantized** path over a prepacked
/// [`QuantizedLinearFilter`]: the input vector is quantized against the
/// calibrated `scale_in`, multiplied in i32, and dequantized in the fused
/// epilogue.  Same result on every int8 dispatch arm; accuracy against
/// [`linear_packed`] is bounded by the quantization step (see
/// `ops::qgemm`).
pub fn linear_q8(
    input: &Tensor,
    filter: &QuantizedLinearFilter,
    scale_in: f32,
    bias: &[f32],
    act: Activation,
) -> Result<Tensor> {
    let mut out = vec![0.0f32; filter.m()];
    qgemv_bias_act_into(filter, input.data(), scale_in, bias, act, &mut out)?;
    Tensor::from_vec(Shape::new(filter.m(), 1, 1), out)
}

/// Serial dot-product linear layer — the test oracle.
pub fn linear_direct(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    out_features: usize,
    act: Activation,
) -> Result<Tensor> {
    let in_features = input.len();
    validate(in_features, weights.len(), bias.len(), out_features)?;
    let x = input.data();
    let mut out = Vec::with_capacity(out_features);
    for o in 0..out_features {
        let row = &weights[o * in_features..(o + 1) * in_features];
        let mut acc = bias[o];
        for (w, v) in row.iter().zip(x) {
            acc += w * v;
        }
        out.push(act.apply(acc));
    }
    Tensor::from_vec(Shape::new(out_features, 1, 1), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs `[out][in]` weights for `input` and runs the GEMV path.
    fn pack_and_run(
        input: &Tensor,
        weights: &[f32],
        bias: &[f32],
        act: Activation,
    ) -> Result<Tensor> {
        let filter = pack_linear_filter(weights, input.len(), bias.len())?;
        linear_packed(input, &filter, bias, act)
    }

    #[test]
    fn identity_matrix() {
        let input = Tensor::from_vec([3, 1, 1], vec![1.0, 2.0, 3.0]).unwrap();
        let weights = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let out = pack_and_run(&input, &weights, &[0.0; 3], Activation::None).unwrap();
        assert_eq!(out.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn bias_and_relu() {
        let input = Tensor::from_vec([2, 1, 1], vec![1.0, -1.0]).unwrap();
        // out0 = 1*1 + 1*(-1) - 5 = -5 -> relu 0 ; out1 = 2*1 + 0 + 1 = 3
        let weights = vec![1.0, 1.0, 2.0, 0.0];
        let out = pack_and_run(&input, &weights, &[-5.0, 1.0], Activation::Relu).unwrap();
        assert_eq!(out.data(), &[0.0, 3.0]);
    }

    #[test]
    fn flattens_spatial_input() {
        let input = Tensor::filled([2, 2, 2], 1.0);
        let weights = vec![1.0; 8];
        let out = pack_and_run(&input, &weights, &[0.0], Activation::None).unwrap();
        assert_eq!(out.data(), &[8.0]);
    }

    #[test]
    fn gemm_path_matches_direct_oracle() {
        // Sizes past one panel and off the lane edge.
        for &(inf, outf) in &[(7usize, 3usize), (300, 17), (1024, 133)] {
            let input = Tensor::from_vec(
                [inf, 1, 1],
                (0..inf).map(|i| ((i % 13) as f32) * 0.1 - 0.6).collect(),
            )
            .unwrap();
            let weights: Vec<f32> = (0..inf * outf)
                .map(|i| ((i % 19) as f32 - 9.0) * 0.03)
                .collect();
            let bias: Vec<f32> = (0..outf).map(|i| (i as f32) * 0.02 - 0.1).collect();
            let fast = pack_and_run(&input, &weights, &bias, Activation::Tanh).unwrap();
            let oracle = linear_direct(&input, &weights, &bias, outf, Activation::Tanh).unwrap();
            assert!(
                fast.approx_eq(&oracle, 1e-4),
                "({inf},{outf}): max diff {}",
                fast.max_abs_diff(&oracle).unwrap()
            );
        }
    }

    #[test]
    fn quantized_fc_tracks_oracle_within_bound() {
        use super::super::qgemm::quant_scale;
        for &(inf, outf) in &[(64usize, 9usize), (300, 17), (1024, 33)] {
            let input = Tensor::from_vec(
                [inf, 1, 1],
                (0..inf).map(|i| ((i % 13) as f32) * 0.1 - 0.6).collect(),
            )
            .unwrap();
            let weights: Vec<f32> = (0..inf * outf)
                .map(|i| ((i % 19) as f32 - 9.0) * 0.03)
                .collect();
            let bias: Vec<f32> = (0..outf).map(|i| (i as f32) * 0.02 - 0.1).collect();
            let scale_in = quant_scale(input.data());
            let filter = QuantizedLinearFilter::pack(&weights, outf, inf).unwrap();
            let q = linear_q8(&input, &filter, scale_in, &bias, Activation::None).unwrap();
            let oracle = linear_direct(&input, &weights, &bias, outf, Activation::None).unwrap();
            // |Δ| ≤ s_w/2·Σ|x| + s_a/2·Σ|w| + K·s_a·s_w/4 per output.
            let sx: f32 = input.data().iter().map(|v| v.abs()).sum();
            for o in 0..outf {
                let sw: f32 = weights[o * inf..(o + 1) * inf]
                    .iter()
                    .map(|v| v.abs())
                    .sum();
                let bound = 0.5 * filter.scale() * sx
                    + 0.5 * scale_in * sw
                    + 0.25 * (inf as f32) * scale_in * filter.scale()
                    + 1e-3 * (1.0 + oracle.data()[o].abs());
                let diff = (q.data()[o] - oracle.data()[o]).abs();
                assert!(diff <= bound, "({inf},{outf})[{o}]: {diff} > {bound}");
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let input = Tensor::filled([2, 1, 1], 1.0);
        assert!(pack_linear_filter(&[1.0; 3], 2, 2).is_err());
        let filter = pack_linear_filter(&[1.0; 4], 2, 2).unwrap();
        assert!(linear_packed(&input, &filter, &[0.0; 3], Activation::None).is_err());
        let filter = pack_linear_filter(&[1.0; 6], 3, 2).unwrap();
        let wrong = Tensor::filled([2, 1, 1], 1.0);
        assert!(linear_packed(&wrong, &filter, &[0.0; 2], Activation::None).is_err());
    }
}
