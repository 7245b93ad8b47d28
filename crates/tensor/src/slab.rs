//! Flat binary (de)serialization of tensors — the payload format of the
//! edge-runtime's wire frames.
//!
//! A slab is `[c: u32][h: u32][w: u32][data: c*h*w little-endian f32]`.
//! The format is deliberately trivial: receivers know the expected geometry
//! from their routing tables, so the header exists only as a cheap
//! consistency check.
//!
//! A **q8 slab** is the quantized variant used by int8 activation
//! transfer: `[c: u32][h: u32][w: u32][scale: f32 LE][data: c*h*w i8]` —
//! one byte per element plus one scale, ~4× smaller than the f32 slab.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::{Result, Tensor};

/// Byte length of a slab holding a `[c, h, w]` tensor.
pub fn slab_len(c: usize, h: usize, w: usize) -> usize {
    12 + c * h * w * 4
}

/// Appends the slab encoding of `t` to `out`.
pub fn write_slab(t: &Tensor, out: &mut Vec<u8>) {
    let [c, h, w] = t.shape();
    out.reserve(slab_len(c, h, w));
    out.extend_from_slice(&(c as u32).to_le_bytes());
    out.extend_from_slice(&(h as u32).to_le_bytes());
    out.extend_from_slice(&(w as u32).to_le_bytes());
    for v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encodes `t` as a standalone slab.
pub fn to_slab(t: &Tensor) -> Vec<u8> {
    let mut out = Vec::new();
    write_slab(t, &mut out);
    out
}

fn read_u32(bytes: &[u8], at: usize) -> Result<u32> {
    let end = at + 4;
    if end > bytes.len() {
        return Err(TensorError::KernelConfig(format!(
            "slab truncated: need {end} bytes, have {}",
            bytes.len()
        )));
    }
    Ok(u32::from_le_bytes([
        bytes[at],
        bytes[at + 1],
        bytes[at + 2],
        bytes[at + 3],
    ]))
}

/// Reads a slab header: the `[c, h, w]` it declares and the byte length
/// of the whole slab (`header` bytes plus `elem` bytes per element).  The
/// dims are peer-supplied, so a length that overflows or exceeds `bytes`
/// is refused here — before anything is sized from it.
fn read_header(bytes: &[u8], header: usize, elem: usize) -> Result<(Shape, usize)> {
    let c = read_u32(bytes, 0)? as usize;
    let h = read_u32(bytes, 4)? as usize;
    let w = read_u32(bytes, 8)? as usize;
    let len = c
        .checked_mul(h)
        .and_then(|n| n.checked_mul(w))
        .and_then(|n| n.checked_mul(elem))
        .and_then(|n| n.checked_add(header));
    match len {
        Some(len) if len <= bytes.len() => Ok((Shape::new(c, h, w), len)),
        Some(len) => Err(TensorError::KernelConfig(format!(
            "slab truncated: header promises {len} bytes, have {}",
            bytes.len()
        ))),
        None => Err(TensorError::KernelConfig(format!(
            "slab header [{c}, {h}, {w}] overflows the address space"
        ))),
    }
}

/// Decodes a slab produced by [`write_slab`], returning the tensor and the
/// number of bytes consumed.
pub fn read_slab(bytes: &[u8]) -> Result<(Tensor, usize)> {
    let (shape, len) = read_header(bytes, 12, 4)?;
    let data = bytes[12..len]
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    Ok((Tensor::from_vec(shape, data)?, len))
}

/// Byte length of a q8 slab holding a `[c, h, w]` tensor.
pub fn q8_slab_len(c: usize, h: usize, w: usize) -> usize {
    16 + c * h * w
}

/// Appends the q8 slab encoding of an already-quantized tensor to `out`.
///
/// `data` holds the symmetric int8 codes (one per element, CHW order) and
/// `scale` the dequantization step; callers produce both via
/// `ops::quant_scale` / `ops::quantize_slice`.
pub fn write_q8_slab(shape: Shape, scale: f32, data: &[i8], out: &mut Vec<u8>) -> Result<()> {
    let (c, h, w) = (shape.c, shape.h, shape.w);
    if data.len() != c * h * w {
        return Err(TensorError::KernelConfig(format!(
            "q8 slab data length {} != c*h*w = {}",
            data.len(),
            c * h * w
        )));
    }
    out.reserve(q8_slab_len(c, h, w));
    out.extend_from_slice(&(c as u32).to_le_bytes());
    out.extend_from_slice(&(h as u32).to_le_bytes());
    out.extend_from_slice(&(w as u32).to_le_bytes());
    out.extend_from_slice(&scale.to_le_bytes());
    out.extend(data.iter().map(|&q| q as u8));
    Ok(())
}

/// Decodes a q8 slab produced by [`write_q8_slab`], returning the shape,
/// scale, int8 codes, and the number of bytes consumed.  A scale that is
/// not finite and positive is refused: no max-abs scale of finite values
/// is one, and it would dequantize every code to NaN, an infinity, a zero
/// or a sign-flipped value.
pub fn read_q8_slab(bytes: &[u8]) -> Result<(Shape, f32, Vec<i8>, usize)> {
    let scale = f32::from_le_bytes(read_u32(bytes, 12)?.to_le_bytes());
    if !(scale.is_finite() && scale > 0.0) {
        return Err(TensorError::KernelConfig(format!(
            "q8 slab scale {scale} is not finite and positive"
        )));
    }
    let (shape, len) = read_header(bytes, 16, 1)?;
    let data = bytes[16..len].iter().map(|&b| b as i8).collect();
    Ok((shape, scale, data, len))
}

/// Decodes a slab that must span the whole input exactly.
pub fn from_slab(bytes: &[u8]) -> Result<Tensor> {
    let (t, used) = read_slab(bytes)?;
    if used != bytes.len() {
        return Err(TensorError::KernelConfig(format!(
            "slab has {} trailing bytes",
            bytes.len() - used
        )));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_bit_exact() {
        let t = Tensor::from_fn([3, 5, 4], |c, y, x| {
            (c as f32 * 0.37 - y as f32 * 1.25 + x as f32) * 0.618
        });
        let bytes = to_slab(&t);
        assert_eq!(bytes.len(), slab_len(3, 5, 4));
        let back = from_slab(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn roundtrip_preserves_special_values() {
        let mut t = Tensor::zeros([1, 2, 2]);
        t.set(0, 0, 0, f32::NAN);
        t.set(0, 0, 1, f32::NEG_INFINITY);
        t.set(0, 1, 0, -0.0);
        let back = from_slab(&to_slab(&t)).unwrap();
        assert!(back.get(0, 0, 0).is_nan());
        assert_eq!(back.get(0, 0, 1), f32::NEG_INFINITY);
        assert_eq!(back.get(0, 1, 0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn truncated_slab_is_rejected() {
        let t = Tensor::filled([2, 2, 2], 1.0);
        let bytes = to_slab(&t);
        assert!(from_slab(&bytes[..bytes.len() - 1]).is_err());
        assert!(from_slab(&bytes[..8]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let t = Tensor::filled([1, 1, 1], 2.0);
        let mut bytes = to_slab(&t);
        bytes.push(0);
        assert!(from_slab(&bytes).is_err());
        // read_slab tolerates the trailing bytes and reports consumption.
        let (back, used) = read_slab(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(used, bytes.len() - 1);
    }

    #[test]
    fn q8_slab_roundtrips_and_rejects_truncation() {
        let shape = Shape::new(2, 3, 4);
        let data: Vec<i8> = (0..24).map(|i| (i * 11 % 255) as i8).collect();
        let mut bytes = Vec::new();
        write_q8_slab(shape, 0.042, &data, &mut bytes).unwrap();
        assert_eq!(bytes.len(), q8_slab_len(2, 3, 4));
        let (s, scale, back, used) = read_q8_slab(&bytes).unwrap();
        assert_eq!(s.as_array(), [2, 3, 4]);
        assert_eq!(scale, 0.042);
        assert_eq!(back, data);
        assert_eq!(used, bytes.len());
        assert!(read_q8_slab(&bytes[..bytes.len() - 1]).is_err());
        assert!(read_q8_slab(&bytes[..10]).is_err());
        // Mismatched data length is rejected at encode time.
        let mut out = Vec::new();
        assert!(write_q8_slab(shape, 1.0, &data[..23], &mut out).is_err());
    }

    #[test]
    fn q8_slab_refuses_a_scale_that_is_not_finite_and_positive() {
        let shape = Shape::new(1, 1, 2);
        for scale in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, -0.5] {
            let mut bytes = Vec::new();
            write_q8_slab(shape, scale, &[3, -3], &mut bytes).unwrap();
            assert!(read_q8_slab(&bytes).is_err(), "scale {scale}");
        }
        let mut bytes = Vec::new();
        write_q8_slab(shape, f32::from_bits(1), &[3, -3], &mut bytes).unwrap();
        assert!(
            read_q8_slab(&bytes).is_ok(),
            "a subnormal scale is positive"
        );
    }

    #[test]
    fn overflowing_headers_are_rejected() {
        // `[2^31, 2^31, 1]` f32s are 2^64 bytes and `[2^16, 2^24, 2^24]`
        // codes 2^64: a wrapping multiply calls both 0 bytes of data.
        for dims in [
            [1u32 << 31, 1 << 31, 1],
            [1 << 16, 1 << 24, 1 << 24],
            [u32::MAX; 3],
        ] {
            let mut bytes: Vec<u8> = dims.iter().flat_map(|d| d.to_le_bytes()).collect();
            bytes.extend_from_slice(&[0; 8]);
            assert!(read_slab(&bytes).is_err(), "{dims:?}");
            assert!(read_q8_slab(&bytes).is_err(), "{dims:?}");
        }
    }

    #[test]
    fn empty_tensor_roundtrips() {
        let t = Tensor::zeros([0, 0, 0]);
        let back = from_slab(&to_slab(&t)).unwrap();
        assert_eq!(back.shape(), [0, 0, 0]);
    }
}
