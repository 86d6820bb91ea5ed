//! ML inference workload generators (regular access patterns).
//!
//! The paper's Figure-17 regression check runs multi-threaded inference for
//! AlexNet, ResNet, VGG, BERT, Transformer, and DLRM, plus a 3-layer MLP
//! for the Figure-8 generalization study. These workloads are *regular*:
//! weights stream sequentially (huge arrays, read once per inference) while
//! activations are small and heavily reused — producing high cache hit
//! rates and, in secure memory, heavy same-counter re-encryption traffic.
//!
//! Each model is described by its layer shapes; the generator walks the
//! layers emitting sequential weight reads interleaved with activation
//! reads/writes, partitioning output neurons/channels across cores as the
//! paper does.

use crate::interleave::interleave;
use cosmos_common::{MemAccess, PhysAddr, SplitMix64, Trace};

/// One dense/conv layer's memory shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layer {
    /// Weight bytes (streamed once per inference pass).
    pub weight_bytes: u64,
    /// Input activation bytes (reused across the output partition).
    pub in_bytes: u64,
    /// Output activation bytes (written).
    pub out_bytes: u64,
}

/// The evaluated ML models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MlModel {
    /// 3-layer MLP (Figure 8's non-graph workload).
    Mlp,
    /// AlexNet (224×224×3 input).
    AlexNet,
    /// ResNet-style residual CNN.
    ResNet,
    /// VGG-16-style CNN.
    Vgg,
    /// BERT-base-style encoder (seq 128, hidden 768).
    Bert,
    /// Transformer encoder stack.
    Transformer,
    /// DLRM (dense features + embedding lookups).
    Dlrm,
}

impl MlModel {
    /// Every model: the Figure-8 MLP, then the Figure-17 set.
    pub const fn all() -> [MlModel; 7] {
        [
            MlModel::Mlp,
            MlModel::AlexNet,
            MlModel::ResNet,
            MlModel::Vgg,
            MlModel::Bert,
            MlModel::Transformer,
            MlModel::Dlrm,
        ]
    }

    /// The Figure-17 model set (excludes the MLP used only in Figure 8).
    pub const fn figure17() -> [MlModel; 6] {
        [
            MlModel::AlexNet,
            MlModel::ResNet,
            MlModel::Vgg,
            MlModel::Bert,
            MlModel::Transformer,
            MlModel::Dlrm,
        ]
    }

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            MlModel::Mlp => "MLP",
            MlModel::AlexNet => "AlexNet",
            MlModel::ResNet => "ResNet",
            MlModel::Vgg => "VGG",
            MlModel::Bert => "BERT",
            MlModel::Transformer => "Transformer",
            MlModel::Dlrm => "DLRM",
        }
    }

    /// The layer shapes (approximate real model dimensions, f32 weights).
    pub fn layers(self) -> Vec<Layer> {
        let fc = |inputs: u64, outputs: u64| Layer {
            weight_bytes: inputs * outputs * 4,
            in_bytes: inputs * 4,
            out_bytes: outputs * 4,
        };
        let conv = |k: u64, cin: u64, cout: u64, spatial: u64| Layer {
            weight_bytes: k * k * cin * cout * 4,
            in_bytes: spatial * spatial * cin * 4,
            out_bytes: spatial * spatial * cout * 4,
        };
        match self {
            MlModel::Mlp => vec![fc(4096, 4096), fc(4096, 4096), fc(4096, 1000)],
            MlModel::AlexNet => vec![
                conv(11, 3, 96, 55),
                conv(5, 96, 256, 27),
                conv(3, 256, 384, 13),
                conv(3, 384, 384, 13),
                conv(3, 384, 256, 13),
                fc(9216, 4096),
                fc(4096, 4096),
                fc(4096, 1000),
            ],
            MlModel::ResNet => {
                let mut layers = vec![conv(7, 3, 64, 112)];
                for (cin, cout, sp) in [(64, 64, 56), (64, 128, 28), (128, 256, 14), (256, 512, 7)]
                {
                    for _ in 0..4 {
                        layers.push(conv(3, cin, cout, sp));
                        layers.push(conv(3, cout, cout, sp));
                    }
                }
                layers.push(fc(512, 1000));
                layers
            }
            MlModel::Vgg => vec![
                conv(3, 3, 64, 224),
                conv(3, 64, 64, 224),
                conv(3, 64, 128, 112),
                conv(3, 128, 128, 112),
                conv(3, 128, 256, 56),
                conv(3, 256, 256, 56),
                conv(3, 256, 512, 28),
                conv(3, 512, 512, 28),
                conv(3, 512, 512, 14),
                fc(25088, 4096),
                fc(4096, 4096),
                fc(4096, 1000),
            ],
            MlModel::Bert | MlModel::Transformer => {
                // 12 encoder layers: QKV + output projection + 2 FFN mats,
                // seq 128 × hidden 768.
                let h = 768u64;
                let seq = 128u64;
                let mut layers = Vec::new();
                for _ in 0..12 {
                    for _ in 0..4 {
                        layers.push(Layer {
                            weight_bytes: h * h * 4,
                            in_bytes: seq * h * 4,
                            out_bytes: seq * h * 4,
                        });
                    }
                    layers.push(Layer {
                        weight_bytes: h * 4 * h * 4,
                        in_bytes: seq * h * 4,
                        out_bytes: seq * 4 * h * 4,
                    });
                    layers.push(Layer {
                        weight_bytes: 4 * h * h * 4,
                        in_bytes: seq * 4 * h * 4,
                        out_bytes: seq * h * 4,
                    });
                }
                layers
            }
            MlModel::Dlrm => {
                // Bottom MLP, embedding tables (modeled as a wide layer with
                // sparse input reuse), top MLP.
                vec![
                    fc(13, 512),
                    fc(512, 256),
                    fc(256, 64),
                    Layer {
                        // 26 embedding tables, ~1M rows × 64 dims total reads
                        // are sparse; weight_bytes here is the streamed
                        // portion per inference batch.
                        weight_bytes: 26 * 64 * 4 * 2048,
                        in_bytes: 26 * 4,
                        out_bytes: 26 * 64 * 4,
                    },
                    fc(26 * 64 + 64, 512),
                    fc(512, 256),
                    fc(256, 1),
                ]
            }
        }
    }

    /// Generates a multi-core inference trace of `budget / cores` accesses
    /// per core.
    ///
    /// Output channels are partitioned across cores: each core streams its
    /// slice of every layer's weights while re-reading the shared input
    /// activations.
    pub fn generate(self, cores: usize, budget: usize, seed: u64) -> Trace {
        assert!(cores > 0, "need at least one core");
        let layers = self.layers();
        let per_core = budget / cores;
        let streams: Vec<_> = (0..cores)
            .map(|c| {
                let mut rng = cosmos_common::rng::streams::WORKLOAD_ML.derive_lane(seed, c as u64);
                model_stream(&layers, c as u8, cores, per_core, &mut rng).into_iter()
            })
            .collect();
        interleave(streams, seed)
    }
}

impl core::fmt::Display for MlModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

pub(crate) const WEIGHT_BASE: u64 = 1 << 28;
pub(crate) const ACT_BASE: u64 = 1 << 26;

fn model_stream(
    layers: &[Layer],
    core: u8,
    cores: usize,
    budget: usize,
    rng: &mut SplitMix64,
) -> Trace {
    // A step pushes up to three accesses (weight, activation, output)
    // after the budget check, so the stream can run two past `budget`
    // before the truncate.
    let mut t = Trace::with_capacity(budget + 2);
    // Precompute weight region offsets per layer.
    let mut offsets = Vec::with_capacity(layers.len());
    let mut acc = WEIGHT_BASE;
    for l in layers {
        offsets.push(acc);
        acc += l.weight_bytes.div_ceil(64) * 64;
    }
    'outer: loop {
        // One inference pass.
        for (li, l) in layers.iter().enumerate() {
            let w_base = offsets[li];
            let slice = l.weight_bytes / cores as u64;
            let my_w = w_base + slice * core as u64;
            let mut w = 0u64;
            // Stream this core's weight slice; every few weight lines,
            // revisit an input activation (reuse) and occasionally write an
            // output activation.
            while w < slice {
                if t.len() >= budget {
                    break 'outer;
                }
                t.push(MemAccess::read(core, PhysAddr::new(my_w + w), 2));
                w += 64;
                if rng.chance(0.5) {
                    let a = rng.next_below(l.in_bytes.max(64));
                    t.push(MemAccess::read(
                        core,
                        PhysAddr::new(ACT_BASE + (li as u64 % 2) * (1 << 24) + (a & !63)),
                        2,
                    ));
                }
                if rng.chance(0.1) {
                    let o = rng.next_below(l.out_bytes.max(64));
                    t.push(MemAccess::write(
                        core,
                        PhysAddr::new(ACT_BASE + ((li as u64 + 1) % 2) * (1 << 24) + (o & !63)),
                        2,
                    ));
                }
            }
        }
    }
    t.truncate(budget);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_fill_budget() {
        for m in MlModel::figure17().into_iter().chain([MlModel::Mlp]) {
            let t = m.generate(4, 10_000, 1);
            assert_eq!(t.len(), 10_000, "{m}");
            assert_eq!(t.core_count(), 4, "{m}");
        }
    }

    #[test]
    fn regular_pattern_has_sequential_runs() {
        // Weight streaming should make consecutive same-core reads mostly
        // sequential lines.
        let t = MlModel::Vgg.generate(1, 20_000, 2);
        let mut sequential = 0;
        let mut total = 0;
        let mut last: Option<u64> = None;
        for a in t.iter() {
            let line = a.addr.line().index();
            if let Some(prev) = last {
                total += 1;
                if line == prev || line == prev + 1 {
                    sequential += 1;
                }
            }
            last = Some(line);
        }
        let frac = sequential as f64 / total as f64;
        // Weight lines advance sequentially; roughly half the steps also
        // interleave an activation touch, so ~a quarter of adjacent pairs
        // remain line-sequential — far above an irregular workload's.
        assert!(frac > 0.2, "expected streaming behaviour, got {frac:.3}");
    }

    #[test]
    fn activations_are_reused() {
        let t = MlModel::Mlp.generate(1, 30_000, 3);
        use std::collections::HashMap;
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for a in t.iter() {
            if a.addr.value() < WEIGHT_BASE {
                *counts.entry(a.addr.line().index()).or_default() += 1;
            }
        }
        let reused = counts.values().filter(|&&c| c > 1).count();
        assert!(
            reused * 2 > counts.len(),
            "most activation lines should be reused ({reused}/{})",
            counts.len()
        );
    }

    #[test]
    fn writes_present_but_minority() {
        for m in [MlModel::Bert, MlModel::Dlrm] {
            let t = m.generate(2, 20_000, 4);
            let w = t.write_fraction();
            assert!(w > 0.01 && w < 0.3, "{m}: write fraction {w}");
        }
    }

    #[test]
    fn layer_shapes_are_sane() {
        for m in MlModel::figure17() {
            let layers = m.layers();
            assert!(!layers.is_empty(), "{m}");
            for l in &layers {
                assert!(l.weight_bytes > 0 && l.in_bytes > 0 && l.out_bytes > 0);
            }
        }
        // VGG is the biggest CNN here.
        let vgg: u64 = MlModel::Vgg.layers().iter().map(|l| l.weight_bytes).sum();
        let alex: u64 = MlModel::AlexNet
            .layers()
            .iter()
            .map(|l| l.weight_bytes)
            .sum();
        assert!(vgg > alex);
    }

    #[test]
    fn deterministic() {
        let a = MlModel::Bert.generate(4, 5_000, 5);
        let b = MlModel::Bert.generate(4, 5_000, 5);
        assert_eq!(a, b);
    }
}
