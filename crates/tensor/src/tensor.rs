//! The dense CHW tensor type.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A dense, row-major, channel-first (CHW) `f32` tensor.
///
/// The element at channel `c`, row `y`, column `x` lives at index
/// `c * h * w + y * w + x`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data in CHW order.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                expected: shape.volume(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Self {
            shape,
            data: vec![value; shape.volume()],
        }
    }

    /// Creates a zero tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Self::filled(shape, 0.0)
    }

    /// Creates a tensor whose elements are produced by `f(c, y, x)`.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize, usize, usize) -> f32) -> Self {
        let shape = shape.into();
        let mut data = Vec::with_capacity(shape.volume());
        for c in 0..shape.c {
            for y in 0..shape.h {
                for x in 0..shape.w {
                    data.push(f(c, y, x));
                }
            }
        }
        Self { shape, data }
    }

    /// Shape as a `[c, h, w]` array.
    pub fn shape(&self) -> [usize; 3] {
        self.shape.as_array()
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.shape.c
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.shape.h
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.shape.w
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access (checked in debug builds through slice indexing).
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.index(c, y, x)]
    }

    /// Sets a single element.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        let i = self.index(c, y, x);
        self.data[i] = v;
    }

    #[inline]
    fn index(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.shape.c && y < self.shape.h && x < self.shape.w);
        (c * self.shape.h + y) * self.shape.w + x
    }

    /// Borrow one channel plane as a row-major slice.
    pub fn channel(&self, c: usize) -> &[f32] {
        let plane = self.shape.plane();
        &self.data[c * plane..(c + 1) * plane]
    }

    /// Element-wise addition; shapes must match.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Tensor {
            shape: self.shape,
            data,
        })
    }

    /// Maximum absolute difference between two tensors of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Returns `true` if every element differs by at most `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }

    /// Sum of all elements (useful for cheap checksums in tests).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Flattens the tensor into a `[volume, 1, 1]` vector tensor.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: Shape::new(self.shape.volume(), 1, 1),
            data: self.data.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec([1, 2, 2], vec![0.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec([1, 2, 2], vec![0.0; 5]),
            Err(TensorError::LengthMismatch {
                len: 5,
                expected: 4
            })
        ));
    }

    #[test]
    fn indexing_is_chw_row_major() {
        let t = Tensor::from_fn([2, 3, 4], |c, y, x| (c * 100 + y * 10 + x) as f32);
        assert_eq!(t.get(0, 0, 0), 0.0);
        assert_eq!(t.get(0, 2, 3), 23.0);
        assert_eq!(t.get(1, 1, 2), 112.0);
        assert_eq!(t.data()[12 + 4 + 2], 112.0);
    }

    #[test]
    fn set_and_get() {
        let mut t = Tensor::zeros([1, 2, 2]);
        t.set(0, 1, 1, 7.5);
        assert_eq!(t.get(0, 1, 1), 7.5);
    }

    #[test]
    fn channel_plane_borrow() {
        let t = Tensor::from_fn([2, 2, 2], |c, _, _| c as f32);
        assert_eq!(t.channel(0), &[0.0; 4]);
        assert_eq!(t.channel(1), &[1.0; 4]);
    }

    #[test]
    fn add_matches_elementwise() {
        let a = Tensor::filled([1, 2, 2], 1.5);
        let b = Tensor::filled([1, 2, 2], 2.0);
        let c = a.add(&b).unwrap();
        assert!(c.data().iter().all(|&v| (v - 3.5).abs() < 1e-6));
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = Tensor::zeros([1, 2, 2]);
        let b = Tensor::zeros([1, 2, 3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = Tensor::filled([1, 2, 2], 1.0);
        let mut b = a.clone();
        b.set(0, 0, 0, 1.05);
        assert!((a.max_abs_diff(&b).unwrap() - 0.05).abs() < 1e-6);
        assert!(a.approx_eq(&b, 0.1));
        assert!(!a.approx_eq(&b, 0.01));
    }

    #[test]
    fn flatten_preserves_data() {
        let t = Tensor::from_fn([2, 2, 2], |c, y, x| (c + y + x) as f32);
        let f = t.flatten();
        assert_eq!(f.shape(), [8, 1, 1]);
        assert_eq!(f.data(), t.data());
    }

    #[test]
    fn sum_is_total() {
        let t = Tensor::filled([2, 3, 4], 2.0);
        assert_eq!(t.sum(), 48.0);
    }
}
