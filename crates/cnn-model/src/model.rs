//! Whole CNN models as sequential layer chains.

use crate::error::ModelError;
use crate::layer::{Layer, LayerOp};
use crate::Result;
use serde::{Deserialize, Serialize};
use tensor::Shape;

/// A CNN model: a named, sequentially connected chain of layers.
///
/// DistrEdge (like the systems it compares against) treats the model as a
/// chain: the output of layer `i` is the input of layer `i + 1`.  Branching
/// architectures in the zoo are represented by their sequential backbone
/// trunks (see the `zoo` module documentation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    name: String,
    input: Shape,
    layers: Vec<Layer>,
}

impl Model {
    /// Builds a model from an input shape and a list of layer operations,
    /// propagating shapes through the chain.
    ///
    /// All splittable (conv/pool) layers must precede the FC head; this
    /// mirrors the paper's setup where "the last fully-connected layer(s)"
    /// are excluded from distribution.
    pub fn new(name: impl Into<String>, input: Shape, ops: &[LayerOp]) -> Result<Self> {
        let name = name.into();
        let mut layers = Vec::with_capacity(ops.len());
        let mut current = input;
        let mut seen_fc = false;
        for (index, &op) in ops.iter().enumerate() {
            if op.is_splittable() && seen_fc {
                return Err(ModelError::InvalidGeometry {
                    layer: index,
                    reason: "conv/pool layer after a fully-connected layer".into(),
                });
            }
            seen_fc |= !op.is_splittable();
            let layer = Layer::resolve(index, op, current)?;
            current = layer.output;
            layers.push(layer);
        }
        if layers.iter().filter(|l| l.is_splittable()).count() == 0 {
            return Err(ModelError::EmptyModel);
        }
        Ok(Model {
            name,
            input,
            layers,
        })
    }

    /// Model name (e.g. `"vgg16"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input shape of the model.
    pub fn input(&self) -> Shape {
        self.input
    }

    /// All layers, including the FC head.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// A single layer by index.
    pub fn layer(&self, index: usize) -> Result<&Layer> {
        self.layers.get(index).ok_or(ModelError::IndexOutOfRange {
            index,
            len: self.layers.len(),
        })
    }

    /// Total number of layers, including the FC head.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers (never true for a constructed model).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Number of leading layers that participate in distribution (the
    /// conv/pool prefix).  Layer-volumes partition exactly `0..distributable_len()`.
    pub fn distributable_len(&self) -> usize {
        self.layers.iter().take_while(|l| l.is_splittable()).count()
    }

    /// The FC head layers (possibly empty).
    pub fn head_layers(&self) -> &[Layer] {
        &self.layers[self.distributable_len()..]
    }

    /// Total operations of the whole model (no split redundancy).
    pub fn total_ops(&self) -> f64 {
        self.layers.iter().map(Layer::ops).sum()
    }

    /// Operations of the FC head only.
    pub fn head_ops(&self) -> f64 {
        self.head_layers().iter().map(Layer::ops).sum()
    }

    /// Sum of all intermediate output sizes in bytes — the transmission cost
    /// of a fully layer-by-layer distribution; used to normalise LC-PSS
    /// transmission scores.
    pub fn total_output_bytes(&self) -> f64 {
        self.layers[..self.distributable_len()]
            .iter()
            .map(Layer::output_bytes)
            .sum()
    }

    /// Bytes of the model input (what the service requester ships out).
    pub fn input_bytes(&self) -> f64 {
        self.input.volume() as f64 * crate::BYTES_PER_ELEM
    }

    /// Bytes of the final output (what is shipped back to the requester).
    pub fn final_output_bytes(&self) -> f64 {
        self.layers.last().map(|l| l.output_bytes()).unwrap_or(0.0)
    }

    /// Total number of weight parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Layer::weight_count).sum()
    }

    /// Output shape of the distributable prefix (input to the FC head, or the
    /// model output if there is no head).
    pub fn prefix_output(&self) -> Shape {
        self.layers[self.distributable_len() - 1].output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Model {
        Model::new(
            "tiny",
            Shape::new(3, 32, 32),
            &[
                LayerOp::conv(8, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::fc(10),
            ],
        )
        .unwrap()
    }

    #[test]
    fn padding_beyond_half_the_filter_is_refused() {
        // A 1×1 conv with padding 1 has output rows that read padding alone;
        // a split part holding only such rows would wait for input that no
        // device ever sends.
        let err = Model::new(
            "wide-padding",
            Shape::new(3, 19, 34),
            &[
                LayerOp::pool(2, 2),
                LayerOp::conv(4, 1, 1, 1),
                LayerOp::fc(10),
            ],
        )
        .unwrap_err();
        assert!(
            matches!(err, ModelError::InvalidGeometry { layer: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn shapes_propagate() {
        let m = tiny();
        assert_eq!(m.len(), 5);
        assert_eq!(m.layer(0).unwrap().output, Shape::new(8, 32, 32));
        assert_eq!(m.layer(1).unwrap().output, Shape::new(8, 16, 16));
        assert_eq!(m.layer(2).unwrap().output, Shape::new(16, 16, 16));
        assert_eq!(m.layer(3).unwrap().output, Shape::new(16, 8, 8));
        assert_eq!(m.layer(4).unwrap().output, Shape::new(10, 1, 1));
    }

    #[test]
    fn distributable_prefix_excludes_head() {
        let m = tiny();
        assert_eq!(m.distributable_len(), 4);
        assert_eq!(m.head_layers().len(), 1);
        assert_eq!(m.prefix_output(), Shape::new(16, 8, 8));
    }

    #[test]
    fn conv_after_fc_rejected() {
        let err = Model::new(
            "bad",
            Shape::new(3, 8, 8),
            &[
                LayerOp::conv(4, 3, 1, 1),
                LayerOp::fc(10),
                LayerOp::conv(4, 1, 1, 0),
            ],
        );
        assert!(err.is_err());
    }

    #[test]
    fn fc_only_model_rejected() {
        assert!(matches!(
            Model::new("head", Shape::new(128, 1, 1), &[LayerOp::fc(10)]),
            Err(ModelError::EmptyModel)
        ));
    }

    #[test]
    fn totals_are_sums() {
        let m = tiny();
        let ops_sum: f64 = m.layers().iter().map(Layer::ops).sum();
        assert_eq!(m.total_ops(), ops_sum);
        assert!(m.head_ops() > 0.0);
        assert!(m.total_output_bytes() > 0.0);
        assert_eq!(m.input_bytes(), 3.0 * 32.0 * 32.0 * 2.0);
        assert_eq!(m.final_output_bytes(), 10.0 * 2.0);
    }

    #[test]
    fn layer_out_of_range() {
        let m = tiny();
        assert!(m.layer(99).is_err());
    }

    #[test]
    fn parameter_count_positive() {
        assert!(tiny().parameter_count() > 0);
    }
}
