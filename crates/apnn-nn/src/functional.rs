//! Hand-built functional networks, as a front-end to the compiled engine.
//!
//! [`QuantNet`] keeps the original stage-by-stage construction API — push
//! fused conv/linear stages with explicit kernels, packed weights and
//! epilogues — but no longer owns an execution loop: every pushed
//! [`QuantStage`] is *prepared* immediately (weights handed to the kernel
//! layer, emulation plan and corrections materialized) and appended to a
//! [`CompiledNet`], so `QuantNet` inference is exactly
//! [`crate::compile::CpuEngine`] running a compiled plan. The §5.1
//! minimal-traffic dataflow (packed `q`-bit activations between stages,
//! i32 only at the logits) is enforced by that engine.
//!
//! Use [`QuantNet::into_plan`] to extract the underlying [`CompiledNet`]
//! for batched serving or simulator pricing.

use apnn_bitpack::{BitPlanes, BitTensor4};
use apnn_kernels::apconv::{ApConv, ConvWeights, Pool2};
use apnn_kernels::apmm::Apmm;
use apnn_kernels::fusion::Epilogue;

use crate::compile::{CompiledNet, MainKernel, MainStage, PlanStage};
use crate::fuse::{MainOp, StageSrc};

pub use crate::compile::flatten_map;

/// One fused stage of a functional quantized network.
#[derive(Debug, Clone)]
pub enum QuantStage {
    /// Convolution (+ optional fused 2×2 pool) with epilogue.
    Conv {
        /// The kernel instance (shape + tile).
        conv: ApConv,
        /// Packed weights.
        weights: ConvWeights,
        /// Fused 2×2 pooling.
        pool: Option<Pool2>,
        /// Fused element-wise tail. Must end in quantization for every stage
        /// except the last.
        epi: Epilogue,
    },
    /// Fully connected layer with epilogue.
    Linear {
        /// The kernel instance.
        apmm: Apmm,
        /// Packed weights (rows = out_features, cols = in_features).
        weights: BitPlanes,
        /// Fused element-wise tail.
        epi: Epilogue,
    },
}

/// A functional quantized network over packed activations, backed by a
/// compiled plan.
#[derive(Debug, Clone)]
pub struct QuantNet {
    plan: CompiledNet,
}

impl Default for QuantNet {
    fn default() -> Self {
        QuantNet {
            plan: CompiledNet::empty("quantnet", "hand-built"),
        }
    }
}

impl QuantNet {
    /// Append a stage, preparing its kernel (weight packing, emulation-plan
    /// and correction precomputation happen here, once).
    pub fn push(&mut self, stage: QuantStage) {
        let idx = self.plan.stages().len();
        let compiled = match stage {
            QuantStage::Conv {
                conv,
                weights,
                pool,
                epi,
            } => {
                let desc = conv.desc;
                let tile = conv.tile;
                let prepared = conv.prepare(weights);
                let micro = prepared.micro();
                let arm = prepared.arm();
                MainStage {
                    name: format!("stage{idx}"),
                    op: MainOp::Conv {
                        cin: desc.cin,
                        h: desc.h,
                        w: desc.w,
                        cout: desc.cout,
                        k: desc.kh,
                        stride: desc.stride,
                        pad: desc.pad,
                    },
                    pool,
                    epi,
                    kernel: MainKernel::Conv {
                        desc,
                        tile,
                        micro,
                        arm,
                        prepared: Some(prepared),
                    },
                    init: None,
                    input: StageSrc::Chain,
                    save_branch: false,
                    residual: None,
                }
            }
            QuantStage::Linear { apmm, weights, epi } => {
                let desc = apmm.desc;
                let tile = apmm.tile;
                let prepared = apmm.prepare(weights);
                let micro = prepared.micro();
                let arm = prepared.arm();
                MainStage {
                    name: format!("stage{idx}"),
                    op: MainOp::Linear {
                        in_features: desc.k,
                        out_features: desc.m,
                    },
                    pool: None,
                    epi,
                    kernel: MainKernel::Linear {
                        desc,
                        tile,
                        micro,
                        arm,
                        prepared: Some(prepared),
                    },
                    init: None,
                    input: StageSrc::Chain,
                    save_branch: false,
                    residual: None,
                }
            }
        };
        self.plan.push_stage(PlanStage::Main(compiled));
    }

    /// Number of stages pushed so far.
    pub fn len(&self) -> usize {
        self.plan.stages().len()
    }

    /// Is the network empty?
    pub fn is_empty(&self) -> bool {
        self.plan.stages().is_empty()
    }

    /// Run inference on a packed input feature map.
    ///
    /// Returns logits as `batch × classes`, row-major.
    pub fn infer(&self, input: &BitTensor4) -> Vec<i32> {
        self.plan.infer(input)
    }

    /// Run inference on packed feature *vectors* (all-linear networks):
    /// `input` rows = batch, cols = features.
    pub fn infer_vec(&self, input: &BitPlanes) -> Vec<i32> {
        self.plan.infer(input)
    }

    /// Output classes (from the last linear stage).
    pub fn num_classes(&self) -> usize {
        match self.plan.main_stages().last() {
            Some(MainStage {
                kernel: MainKernel::Linear { desc, .. },
                ..
            }) => desc.m,
            _ => panic!("network must end with a linear stage"),
        }
    }

    /// Borrow the underlying compiled plan.
    pub fn plan(&self) -> &CompiledNet {
        &self.plan
    }

    /// Extract the compiled plan (for `infer_batched_into`, simulator pricing,
    /// …).
    pub fn into_plan(self) -> CompiledNet {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apnn_bitpack::{Encoding, Layout, Tensor4};
    use apnn_kernels::apconv::ConvDesc;
    use apnn_kernels::apmm::ApmmDesc;
    use apnn_kernels::reference::{conv2d_i32, gemm_i32};

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// Two-stage net: conv(w1a2, fused quant) → linear(i32 out), verified
    /// end-to-end against the naive oracles.
    #[test]
    fn tiny_net_matches_oracle_composition() {
        let mut seed = 31;
        let (batch, cin, hw) = (2, 4, 6);
        let cout = 5;
        let classes = 3;

        // Input: 2-bit codes.
        let codes = Tensor4::<u32>::from_fn(batch, cin, hw, hw, Layout::Nhwc, |_, _, _, _| {
            (lcg(&mut seed) as u32) % 4
        });
        let input = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);

        // Conv stage.
        let cdesc = ConvDesc::unsigned(batch, cin, hw, cout, 3, 1, 1, 1, 2);
        let wn = cout * 9 * cin;
        let wcodes: Vec<u32> = (0..wn).map(|_| (lcg(&mut seed) as u32) % 2).collect();
        let cweights = ConvWeights::from_codes(&cdesc, &wcodes);
        let epi = Epilogue::quantize(3.0, 0.0, 2);

        // Linear stage (consumes hw*hw*cout 2-bit features).
        let feats = hw * hw * cout;
        let ldesc = ApmmDesc::unsigned(classes, batch, feats, 1, 2);
        let lcodes: Vec<u32> = (0..classes * feats)
            .map(|_| (lcg(&mut seed) as u32) % 2)
            .collect();
        let lweights = BitPlanes::from_codes(&lcodes, classes, feats, 1, Encoding::ZeroOne);

        let mut net = QuantNet::default();
        net.push(QuantStage::Conv {
            conv: ApConv::new(cdesc),
            weights: cweights,
            pool: None,
            epi: epi.clone(),
        });
        net.push(QuantStage::Linear {
            apmm: Apmm::new(ldesc),
            weights: lweights.clone(),
            epi: Epilogue::none(),
        });
        let logits = net.infer(&input);
        assert_eq!(logits.len(), batch * classes);
        assert_eq!(net.num_classes(), classes);

        // Oracle composition: reference conv → quantize → reference gemm.
        let x_vals: Vec<i32> = {
            let mut v = vec![0i32; batch * hw * hw * cin];
            for b in 0..batch {
                for y in 0..hw {
                    for x in 0..hw {
                        for c in 0..cin {
                            v[((b * hw + y) * hw + x) * cin + c] = codes.get(b, c, y, x) as i32;
                        }
                    }
                }
            }
            v
        };
        let w_vals: Vec<i32> = wcodes.iter().map(|&c| c as i32).collect();
        let conv_out = conv2d_i32(&x_vals, &w_vals, batch, hw, hw, cin, cout, 3, 3, 1, 1);
        // Quantize per channel (co).
        let mut feat_codes = vec![0i32; batch * feats];
        for b in 0..batch {
            for y in 0..hw {
                for x in 0..hw {
                    for co in 0..cout {
                        let acc = conv_out[((b * hw + y) * hw + x) * cout + co];
                        let code = epi.apply_to_code(acc, co) as i32;
                        feat_codes[b * feats + (y * hw + x) * cout + co] = code;
                    }
                }
            }
        }
        let lw_vals: Vec<i32> = lcodes.iter().map(|&c| c as i32).collect();
        let want = gemm_i32(&lw_vals, &feat_codes, classes, batch, feats);
        // want is classes×batch; logits are batch×classes.
        for b in 0..batch {
            for cl in 0..classes {
                assert_eq!(logits[b * classes + cl], want[cl * batch + b]);
            }
        }
    }

    #[test]
    fn flatten_orders_hwc() {
        let codes = Tensor4::<u32>::from_fn(1, 2, 2, 2, Layout::Nhwc, |_, c, h, w| {
            (c + 2 * (w + 2 * h)) as u32 % 4
        });
        let map = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        let flat = flatten_map(&map);
        assert_eq!(flat.rows(), 1);
        assert_eq!(flat.cols(), 8);
        let got = flat.reconstruct_codes();
        for h in 0..2 {
            for w in 0..2 {
                for c in 0..2 {
                    assert_eq!(got[(h * 2 + w) * 2 + c], codes.get(0, c, h, w));
                }
            }
        }
    }

    #[test]
    fn pushed_stages_are_prepared_and_deterministic() {
        // The counters are process-wide and other tests in this binary run
        // concurrently, so only monotonicity is asserted here; the exact
        // "no re-prepare during inference" contract is covered by the
        // serialized integration test in `tests/compiled_plan.rs`.
        let before = apnn_kernels::stats::weight_prepares();
        let mut seed = 5;
        let desc = ApmmDesc::unsigned(3, 2, 10, 1, 2);
        let codes: Vec<u32> = (0..30).map(|_| (lcg(&mut seed) as u32) % 2).collect();
        let w = BitPlanes::from_codes(&codes, 3, 10, 1, Encoding::ZeroOne);
        let mut net = QuantNet::default();
        net.push(QuantStage::Linear {
            apmm: Apmm::new(desc),
            weights: w,
            epi: Epilogue::none(),
        });
        assert!(apnn_kernels::stats::weight_prepares() > before);

        let xc: Vec<u32> = (0..20).map(|_| (lcg(&mut seed) as u32) % 4).collect();
        let x = BitPlanes::from_codes(&xc, 2, 10, 2, Encoding::ZeroOne);
        assert_eq!(net.infer_vec(&x), net.infer_vec(&x));
    }
}
