//! Property-based tests for the height-split / stitch invariants.
//!
//! The core invariant behind DistrEdge's vertical split is that computing a
//! convolution (or pooling) band-by-band with correct halos and concatenating
//! the bands reproduces the full-layer output.  These tests exercise the
//! invariant across random geometries and random cut points.

use proptest::prelude::*;
use tensor::ops::{
    conv2d_rows_packed, im2col_weight_len, maxpool2d, maxpool2d_rows, pack_conv_filter, Activation,
};
use tensor::shape::{conv_out_dim, input_rows_for_output};
use tensor::slice::{concat_rows, slice_rows, split_rows_at};
use tensor::Tensor;

fn pseudo_tensor(c: usize, h: usize, w: usize, seed: u64) -> Tensor {
    Tensor::from_fn([c, h, w], |ci, y, x| {
        let v = (ci as u64)
            .wrapping_mul(2654435761)
            .wrapping_add((y as u64).wrapping_mul(40503))
            .wrapping_add((x as u64).wrapping_mul(9973))
            .wrapping_add(seed);
        ((v % 2048) as f32 / 1024.0) - 1.0
    })
}

fn pseudo_weights(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((v % 1000) as f32 / 500.0) - 1.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Slicing a tensor at arbitrary cut points and re-concatenating the
    /// non-empty bands reproduces the original tensor.
    #[test]
    fn slice_concat_roundtrip(
        c in 1usize..4,
        h in 2usize..24,
        w in 1usize..12,
        seed in any::<u64>(),
        raw_cuts in proptest::collection::vec(0usize..24, 0..4),
    ) {
        let t = pseudo_tensor(c, h, w, seed);
        let mut cuts: Vec<usize> = raw_cuts.into_iter().map(|v| v % (h + 1)).collect();
        cuts.sort_unstable();
        let parts = split_rows_at(&t, &cuts).unwrap();
        let non_empty: Vec<Tensor> = parts.into_iter().flatten().collect();
        let back = concat_rows(&non_empty).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Banded convolution with minimal halo equals full convolution for any
    /// cut position and any (f, s, p) in the common CNN range.
    #[test]
    fn banded_conv_equals_full(
        c_in in 1usize..3,
        c_out in 1usize..4,
        h in 6usize..20,
        w in 4usize..10,
        f in 1usize..4,
        stride in 1usize..3,
        seed in any::<u64>(),
        cut_frac in 0.1f64..0.9,
    ) {
        let padding = f / 2;
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0xabc);
        let bias = pseudo_weights(c_out, seed ^ 0x123);
        let filter = pack_conv_filter(&weights, c_in, c_out, f, stride, None).unwrap();
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();
        prop_assume!(out_h >= 2);
        let full = conv2d_rows_packed(
            &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, Activation::Relu,
        ).unwrap();
        let cut = ((out_h as f64 * cut_frac) as usize).clamp(1, out_h - 1);

        let mut bands = Vec::new();
        for (lo_out, hi_out) in [(0, cut), (cut, out_h)] {
            let (lo, hi) = input_rows_for_output(lo_out, hi_out, f, stride, padding, h);
            let band_in = slice_rows(&input, lo, hi).unwrap();
            let band = conv2d_rows_packed(
                &band_in, lo, h, lo_out, hi_out, &filter, &bias, f, stride, padding,
                Activation::Relu,
            ).unwrap();
            bands.push(band);
        }
        let stitched = concat_rows(&bands).unwrap();
        prop_assert!(stitched.approx_eq(&full, 1e-4));
    }

    /// Banded max-pooling equals full max-pooling.
    #[test]
    fn banded_pool_equals_full(
        c in 1usize..3,
        h in 6usize..24,
        w in 4usize..12,
        f in 2usize..4,
        seed in any::<u64>(),
        cut_frac in 0.1f64..0.9,
    ) {
        let stride = f;
        prop_assume!(h >= f && w >= f);
        let input = pseudo_tensor(c, h, w, seed);
        let full = maxpool2d(&input, f, stride);
        let out_h = full.height();
        prop_assume!(out_h >= 2);
        let cut = ((out_h as f64 * cut_frac) as usize).clamp(1, out_h - 1);

        let mut bands = Vec::new();
        for (lo_out, hi_out) in [(0, cut), (cut, out_h)] {
            let (lo, hi) = input_rows_for_output(lo_out, hi_out, f, stride, 0, h);
            let band_in = slice_rows(&input, lo, hi).unwrap();
            let band = maxpool2d_rows(&band_in, lo, h, lo_out, hi_out, f, stride).unwrap();
            bands.push(band);
        }
        let stitched = concat_rows(&bands).unwrap();
        prop_assert!(stitched.approx_eq(&full, 0.0));
    }
}
