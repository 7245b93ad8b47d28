//! Individual CNN layer configurations.

use crate::error::ModelError;
use crate::{Result, BYTES_PER_ELEM};
use serde::{Deserialize, Serialize};
use tensor::ops::Activation;
use tensor::shape::conv_out_dim;
use tensor::Shape;

/// The operation a layer performs, together with its hyper-parameters.
///
/// Only the layer types DistrEdge distributes are modelled: convolution,
/// max-pooling, and (for the classification heads that stay on a single
/// device) fully-connected layers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LayerOp {
    /// 2-D convolution.
    Conv {
        /// Number of output channels.
        c_out: usize,
        /// Square filter size.
        f: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each border, at most `⌊f/2⌋`: a wider border
        /// gives output rows that read padding alone, which no input band
        /// feeds ([`Layer::resolve`] refuses it).
        padding: usize,
        /// Activation applied in-place after the convolution.
        act: Activation,
    },
    /// 2-D max-pooling.
    MaxPool {
        /// Square window size.
        f: usize,
        /// Stride.
        stride: usize,
    },
    /// Fully-connected layer (classification head; never split).
    Fc {
        /// Number of output features.
        out_features: usize,
    },
}

impl LayerOp {
    /// Convenience constructor for a ReLU convolution.
    pub const fn conv(c_out: usize, f: usize, stride: usize, padding: usize) -> Self {
        LayerOp::Conv {
            c_out,
            f,
            stride,
            padding,
            act: Activation::Relu,
        }
    }

    /// Convenience constructor for a leaky-ReLU convolution (YOLO family).
    pub const fn conv_leaky(c_out: usize, f: usize, stride: usize, padding: usize) -> Self {
        LayerOp::Conv {
            c_out,
            f,
            stride,
            padding,
            act: Activation::LeakyRelu,
        }
    }

    /// Convenience constructor for a max-pooling layer.
    pub const fn pool(f: usize, stride: usize) -> Self {
        LayerOp::MaxPool { f, stride }
    }

    /// Convenience constructor for a fully-connected layer.
    pub const fn fc(out_features: usize) -> Self {
        LayerOp::Fc { out_features }
    }

    /// Whether this layer can be vertically split (conv / pool), as opposed
    /// to the FC head which always runs whole on one device.
    pub const fn is_splittable(&self) -> bool {
        !matches!(self, LayerOp::Fc { .. })
    }
}

/// A layer instantiated within a model: operation plus resolved shapes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Index of the layer within the model.
    pub index: usize,
    /// The operation performed.
    pub op: LayerOp,
    /// Input shape (channels, height, width).
    pub input: Shape,
    /// Output shape (channels, height, width).
    pub output: Shape,
}

impl Layer {
    /// Resolves a layer's output shape from its op and input shape.  A conv
    /// whose padding exceeds `⌊f/2⌋`, or any layer that does not fit its
    /// input, is [`ModelError::InvalidGeometry`].
    pub fn resolve(index: usize, op: LayerOp, input: Shape) -> Result<Self> {
        let output = match op {
            LayerOp::Conv {
                c_out,
                f,
                stride,
                padding,
                ..
            } => {
                if padding > f / 2 {
                    return Err(ModelError::InvalidGeometry {
                        layer: index,
                        reason: format!("conv f={f} padding {padding} exceeds ⌊f/2⌋ = {}", f / 2),
                    });
                }
                let (h, w) = input.conv_output(f, stride, padding).ok_or_else(|| {
                    ModelError::InvalidGeometry {
                        layer: index,
                        reason: format!(
                            "conv f={f} s={stride} p={padding} does not fit input {}x{}",
                            input.h, input.w
                        ),
                    }
                })?;
                Shape::new(c_out, h, w)
            }
            LayerOp::MaxPool { f, stride } => {
                let h = conv_out_dim(input.h, f, stride, 0);
                let w = conv_out_dim(input.w, f, stride, 0);
                let (h, w) = h.zip(w).ok_or_else(|| ModelError::InvalidGeometry {
                    layer: index,
                    reason: format!(
                        "pool f={f} s={stride} does not fit input {}x{}",
                        input.h, input.w
                    ),
                })?;
                Shape::new(input.c, h, w)
            }
            LayerOp::Fc { out_features } => Shape::new(out_features, 1, 1),
        };
        Ok(Layer {
            index,
            op,
            input,
            output,
        })
    }

    /// Filter size along the height dimension (1 for FC layers).
    pub fn filter(&self) -> usize {
        match self.op {
            LayerOp::Conv { f, .. } | LayerOp::MaxPool { f, .. } => f,
            LayerOp::Fc { .. } => 1,
        }
    }

    /// Stride along the height dimension (1 for FC layers).
    pub fn stride(&self) -> usize {
        match self.op {
            LayerOp::Conv { stride, .. } | LayerOp::MaxPool { stride, .. } => stride,
            LayerOp::Fc { .. } => 1,
        }
    }

    /// Zero padding (0 for pooling and FC layers).
    pub fn padding(&self) -> usize {
        match self.op {
            LayerOp::Conv { padding, .. } => padding,
            _ => 0,
        }
    }

    /// Whether this layer participates in vertical splitting.
    pub fn is_splittable(&self) -> bool {
        self.op.is_splittable()
    }

    /// Number of arithmetic operations to produce `rows` output rows.
    ///
    /// Convolutions count multiply-accumulates ×2 (the MAC convention used
    /// when quoting GFLOPs for CNNs); pooling counts one comparison per
    /// window element; FC layers count 2 × in × out.
    pub fn ops_for_rows(&self, rows: usize) -> f64 {
        let rows = rows.min(self.output.h) as f64;
        match self.op {
            LayerOp::Conv { c_out, f, .. } => {
                2.0 * (f * f) as f64
                    * self.input.c as f64
                    * c_out as f64
                    * rows
                    * self.output.w as f64
            }
            LayerOp::MaxPool { f, .. } => {
                (f * f) as f64 * self.input.c as f64 * rows * self.output.w as f64
            }
            LayerOp::Fc { out_features } => {
                // FC layers ignore `rows`; they are never split.
                2.0 * self.input.volume() as f64 * out_features as f64
            }
        }
    }

    /// Total operations of the layer.
    pub fn ops(&self) -> f64 {
        self.ops_for_rows(self.output.h)
    }

    /// Bytes of output data for `rows` output rows (FP16).
    pub fn output_bytes_for_rows(&self, rows: usize) -> f64 {
        let rows = rows.min(self.output.h) as f64;
        self.output.c as f64 * rows * self.output.w as f64 * BYTES_PER_ELEM
    }

    /// Bytes of the full output feature map (FP16).
    pub fn output_bytes(&self) -> f64 {
        self.output_bytes_for_rows(self.output.h)
    }

    /// Bytes of input data for `rows` input rows (FP16).
    pub fn input_bytes_for_rows(&self, rows: usize) -> f64 {
        let rows = rows.min(self.input.h) as f64;
        self.input.c as f64 * rows * self.input.w as f64 * BYTES_PER_ELEM
    }

    /// Number of weight parameters (used for reporting model sizes).
    pub fn weight_count(&self) -> usize {
        match self.op {
            LayerOp::Conv { c_out, f, .. } => c_out * self.input.c * f * f + c_out,
            LayerOp::MaxPool { .. } => 0,
            LayerOp::Fc { out_features } => out_features * self.input.volume() + out_features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_layer() -> Layer {
        Layer::resolve(0, LayerOp::conv(64, 3, 1, 1), Shape::new(3, 224, 224)).unwrap()
    }

    #[test]
    fn conv_shape_resolution() {
        let l = conv_layer();
        assert_eq!(l.output, Shape::new(64, 224, 224));
        assert_eq!(l.filter(), 3);
        assert_eq!(l.stride(), 1);
        assert_eq!(l.padding(), 1);
        assert!(l.is_splittable());
    }

    #[test]
    fn pool_shape_resolution() {
        let l = Layer::resolve(1, LayerOp::pool(2, 2), Shape::new(64, 224, 224)).unwrap();
        assert_eq!(l.output, Shape::new(64, 112, 112));
        assert_eq!(l.padding(), 0);
    }

    #[test]
    fn fc_shape_resolution() {
        let l = Layer::resolve(2, LayerOp::fc(1000), Shape::new(512, 7, 7)).unwrap();
        assert_eq!(l.output, Shape::new(1000, 1, 1));
        assert!(!l.is_splittable());
        assert_eq!(l.filter(), 1);
        assert_eq!(l.stride(), 1);
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(Layer::resolve(0, LayerOp::conv(8, 7, 1, 0), Shape::new(3, 4, 4)).is_err());
        assert!(Layer::resolve(0, LayerOp::pool(3, 2), Shape::new(3, 2, 2)).is_err());
    }

    #[test]
    fn conv_ops_match_macs_formula() {
        let l = conv_layer();
        // 2 * 3*3 * 3 * 64 * 224 * 224
        let expected = 2.0 * 9.0 * 3.0 * 64.0 * 224.0 * 224.0;
        assert!((l.ops() - expected).abs() < 1.0);
    }

    #[test]
    fn ops_scale_linearly_with_rows() {
        let l = conv_layer();
        let half = l.ops_for_rows(112);
        assert!((half * 2.0 - l.ops()).abs() / l.ops() < 1e-9);
        assert_eq!(l.ops_for_rows(0), 0.0);
    }

    #[test]
    fn ops_for_rows_clamped_to_height() {
        let l = conv_layer();
        assert_eq!(l.ops_for_rows(10_000), l.ops());
    }

    #[test]
    fn output_bytes_fp16() {
        let l = conv_layer();
        assert!((l.output_bytes() - 64.0 * 224.0 * 224.0 * 2.0).abs() < 1.0);
        assert!((l.output_bytes_for_rows(1) - 64.0 * 224.0 * 2.0).abs() < 1.0);
    }

    #[test]
    fn pool_has_no_weights() {
        let l = Layer::resolve(1, LayerOp::pool(2, 2), Shape::new(64, 224, 224)).unwrap();
        assert_eq!(l.weight_count(), 0);
        assert!(l.ops() > 0.0);
    }

    #[test]
    fn vgg_first_fc_weight_count() {
        let l = Layer::resolve(0, LayerOp::fc(4096), Shape::new(512, 7, 7)).unwrap();
        assert_eq!(l.weight_count(), 4096 * 512 * 7 * 7 + 4096);
    }
}
