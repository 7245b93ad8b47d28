//! The eight evaluation models of the paper (§V-E) as layer-configuration
//! tables.
//!
//! DistrEdge (and every baseline it compares against) treats a CNN as a
//! sequential chain of convolution / pooling layers followed by an optional
//! fully-connected head.  Branching architectures are therefore represented
//! by their sequential backbone trunks with equivalent per-stage channel
//! counts, spatial resolutions and operation totals:
//!
//! * **ResNet-50 / SSD-ResNet-50** — bottleneck blocks are unrolled into
//!   their 1×1 / 3×3 / 1×1 convolution sequences; the identity shortcuts
//!   (which add negligible FLOPs and no extra transmission in a fused
//!   volume) are dropped.
//! * **Inception-V3** — each inception block is replaced by a 3×3
//!   convolution with the block's concatenated output channel count, which
//!   preserves the output shape and approximates the block FLOPs.
//! * **SSD / YOLOv2 / OpenPose** — detection and pose heads are kept as
//!   convolutions (they are convolutional in the originals).
//! * **VoxelNet** — the sparse voxel feature encoder and 3-D middle layers
//!   are projected onto an equivalent-FLOP 2-D bird's-eye-view convolution
//!   stack feeding the original region-proposal network.
//!
//! These substitutions preserve exactly the quantities the distribution
//! algorithms consume — per-layer heights, widths, channels, filter sizes,
//! strides, operation counts and output byte counts — which is what matters
//! for reproducing the *relative* performance of the distribution methods.

mod classification;
mod detection;
mod pose;

pub use classification::{inception_v3, resnet50, tiny_vgg, vgg11, vgg16};
pub use detection::{ssd_resnet50, ssd_vgg16, voxelnet, yolov2};
pub use pose::openpose;

use crate::model::Model;

/// The zoo models that are sequential approximations of branching
/// originals, by [`Model::name`], each with what its table changed (see the
/// module docs).  Whatever prints their results should say so.
pub const SEQUENTIAL_APPROXIMATIONS: &[(&str, &str)] = &[
    ("resnet50", "identity shortcuts dropped"),
    ("inception_v3", "each inception block flattened to one conv"),
    (
        "ssd_resnet50",
        "identity shortcuts and multibox heads dropped",
    ),
    ("ssd_vgg16", "multibox heads dropped"),
    ("openpose", "PAF / heat-map branches merged, 2 of 6 stages"),
    ("voxelnet", "3-D voxel layers projected to a 2-D conv stack"),
];

/// All zoo model constructors keyed by their canonical names, in the order
/// the paper's Fig. 10/11 present them.
pub fn all_models() -> Vec<Model> {
    vec![
        vgg16(),
        resnet50(),
        inception_v3(),
        yolov2(),
        ssd_resnet50(),
        ssd_vgg16(),
        openpose(),
        voxelnet(),
    ]
}

/// The canonical id of every model [`by_name`] resolves — the registry a
/// serving fleet (or a CLI) can enumerate to list its tenants.  Ids are
/// already in canonical form: lowercase, alphanumeric only.
pub fn names() -> &'static [&'static str] {
    &[
        "vgg16",
        "resnet50",
        "inceptionv3",
        "yolov2",
        "ssdresnet50",
        "ssdvgg16",
        "openpose",
        "voxelnet",
        "tinyvgg",
        "vgg11",
    ]
}

/// Looks a model up by name (case-insensitive, hyphen/underscore-insensitive).
pub fn by_name(name: &str) -> Option<Model> {
    let canon: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    match canon.as_str() {
        "vgg16" => Some(vgg16()),
        "resnet50" => Some(resnet50()),
        "inceptionv3" => Some(inception_v3()),
        "yolov2" => Some(yolov2()),
        "ssdresnet50" => Some(ssd_resnet50()),
        "ssdvgg16" => Some(ssd_vgg16()),
        "openpose" => Some(openpose()),
        "voxelnet" => Some(voxelnet()),
        "tinyvgg" => Some(tiny_vgg()),
        "vgg11" => Some(vgg11()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build() {
        let models = all_models();
        assert_eq!(models.len(), 8);
        for m in &models {
            assert!(m.distributable_len() >= 10, "{} too shallow", m.name());
            assert!(m.total_ops() > 1e9, "{} ops implausibly small", m.name());
        }
    }

    #[test]
    fn approximations_name_zoo_models() {
        let models = all_models();
        for (name, _) in SEQUENTIAL_APPROXIMATIONS {
            assert!(models.iter().any(|m| m.name() == *name), "{name}");
        }
    }

    #[test]
    fn lookup_by_name_variants() {
        assert!(by_name("VGG-16").is_some());
        assert!(by_name("vgg16").is_some());
        assert!(by_name("VGG-11").is_some());
        assert!(by_name("SSD_ResNet50").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn every_registered_name_resolves_and_is_canonical() {
        for id in names() {
            let model = by_name(id).unwrap_or_else(|| panic!("{id} not resolvable"));
            assert!(model.distributable_len() > 0);
            let canon: String = id
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_ascii_lowercase();
            assert_eq!(*id, canon, "registry id {id} is not canonical");
        }
        // The registry covers every model `all_models` builds, plus the
        // small/paper-scale extras.
        assert_eq!(names().len(), all_models().len() + 2);
    }

    #[test]
    fn names_are_distinct() {
        let models = all_models();
        let mut names: Vec<&str> = models.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn vgg16_flops_in_published_range() {
        // VGG-16 at 224x224 is ~30.9 GFLOPs (counting MACs x2) for the conv
        // stack plus ~0.25 GFLOPs for the FC head.
        let ops = vgg16().total_ops();
        assert!(ops > 28e9 && ops < 34e9, "VGG-16 ops = {ops:.3e}");
    }

    #[test]
    fn resnet50_flops_in_published_range() {
        // ResNet-50 at 224x224 is ~7.7 GFLOPs; the sequential trunk
        // approximation should stay within a factor ~1.3 of that.
        let ops = resnet50().total_ops();
        assert!(ops > 6e9 && ops < 11e9, "ResNet-50 ops = {ops:.3e}");
    }

    #[test]
    fn detection_models_are_heavier_than_classification() {
        assert!(yolov2().total_ops() > resnet50().total_ops());
        assert!(ssd_vgg16().total_ops() > vgg16().total_ops() * 0.8);
    }
}
