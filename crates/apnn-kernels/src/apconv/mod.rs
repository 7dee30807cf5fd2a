//! Arbitrary-Precision Convolution — APConv (paper §4.2).
//!
//! APConv lowers a `p`-bit-weight × `q`-bit-activation convolution onto the
//! same batched 1-bit tensor-core machinery as APMM via implicit GEMM:
//! `M = C_out`, `N = batch·OH·OW`, `K = KH·KW·C_in` (each `(kh,kw)` tap's
//! channel vector padded to the 128-bit fragment boundary).
//!
//! Two convolution-specific designs from the paper:
//! * **Channel-major data organization** (§4.2(a), Fig. 4): activations are
//!   [`apnn_bitpack::BitTensor4`] in NPHWC order, so each window tap reads
//!   one aligned, coalesced channel vector — [`simmap`] exposes the NCHW
//!   alternative to quantify the difference.
//! * **Input-aware padding** (§4.2(b)): out-of-frame window taps must
//!   contribute *zero*, which is nontrivial when bit 0 encodes −1; see
//!   [`padding`] for the three strategies (including the border-counter
//!   correction for ±1 features).

pub mod cpu;
pub mod im2row;
pub mod padding;
pub mod simmap;
pub mod weights;

use apnn_bitpack::word::pad_to_bmma_k;
use apnn_bitpack::{BitTensor4, Encoding};
use apnn_sim::{GpuSpec, KernelReport};

use crate::apmm::{ApmmDesc, TileConfig};
use crate::autotune::autotune;
use crate::fusion::Epilogue;
pub use weights::ConvWeights;

/// Shape + precision of one convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvDesc {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub cin: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels.
    pub cout: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same both axes).
    pub stride: usize,
    /// Zero-padding (same both axes).
    pub pad: usize,
    /// Weight bits `p`.
    pub w_bits: u32,
    /// Activation bits `q`.
    pub x_bits: u32,
    /// Weight encoding.
    pub w_enc: Encoding,
    /// Activation encoding.
    pub x_enc: Encoding,
}

impl ConvDesc {
    /// Square-input convenience constructor with unsigned encodings.
    #[allow(clippy::too_many_arguments)]
    pub fn unsigned(
        batch: usize,
        cin: usize,
        hw: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
        p: u32,
        q: u32,
    ) -> Self {
        ConvDesc {
            batch,
            cin,
            h: hw,
            w: hw,
            cout,
            kh: k,
            kw: k,
            stride,
            pad,
            w_bits: p,
            x_bits: q,
            w_enc: Encoding::ZeroOne,
            x_enc: Encoding::ZeroOne,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Channel vector width after 128-bit padding.
    pub fn padded_c(&self) -> usize {
        pad_to_bmma_k(self.cin)
    }

    /// Implicit-GEMM reduction width in bits (`KH·KW` fragment-aligned
    /// channel segments).
    pub fn k_bits(&self) -> usize {
        self.kh * self.kw * self.padded_c()
    }

    /// Valid (logical) reduction length per fully-in-frame window.
    pub fn k_valid(&self) -> usize {
        self.kh * self.kw * self.cin
    }

    /// The implicit-GEMM description this convolution maps onto. `k` is the
    /// padded bit width because the conv operands are materialized directly
    /// at fragment granularity.
    pub fn as_gemm(&self) -> ApmmDesc {
        ApmmDesc {
            m: self.cout,
            n: self.batch * self.out_h() * self.out_w(),
            k: self.k_bits(),
            w_bits: self.w_bits,
            x_bits: self.x_bits,
            w_enc: self.w_enc,
            x_enc: self.x_enc,
        }
    }

    /// Total emulated 1-bit MACs (§3.1 cost analysis, conv form).
    pub fn emulated_macs(&self) -> u64 {
        self.w_bits as u64
            * self.x_bits as u64
            * self.cout as u64
            * (self.batch * self.out_h() * self.out_w()) as u64
            * self.k_bits() as u64
    }
}

/// Output of a fused convolution.
#[derive(Debug, Clone)]
pub enum ConvOutput {
    /// Raw NHWC i32 accumulators `(batch, oh, ow, cout)`.
    Int32(Vec<i32>),
    /// Quantized activations packed channel-major for the next layer.
    Packed(BitTensor4),
}

/// Optional 2×2/stride-2 pooling fused between the accumulators and the
/// quantizing epilogue (the Fig. 10 fusion workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool2 {
    /// 2×2 max pooling.
    Max,
    /// 2×2 average pooling (integer mean, floor).
    Avg,
}

/// An APConv kernel instance.
#[derive(Debug, Clone)]
pub struct ApConv {
    /// Layer description.
    pub desc: ConvDesc,
    /// Block tiling over the batched implicit-GEMM space.
    pub tile: TileConfig,
}

impl ApConv {
    /// Create with an autotuned tile configuration.
    pub fn new(desc: ConvDesc) -> Self {
        let g = desc.as_gemm();
        let tile = autotune(g.m, g.n, g.k, g.w_bits, g.x_bits);
        ApConv { desc, tile }
    }

    /// Create with an explicit tile configuration.
    pub fn with_tile(desc: ConvDesc, tile: TileConfig) -> Self {
        ApConv { desc, tile }
    }

    /// Functional CPU convolution over packed operands. Returns NHWC i32.
    /// The per-call execution state is rebuilt each call (tile selection
    /// goes through the shape-keyed memo); the batch's images fan out over
    /// the Rayon pool, each on the one sequential driver.
    pub fn execute(&self, weights: &ConvWeights, input: &BitTensor4) -> Vec<i32> {
        assert_eq!(input.shape().0, self.desc.batch, "batch mismatch");
        let state = cpu::ConvExecPlan::new(&self.desc, weights);
        cpu::conv_exec_sharded(&self.desc, weights, input, &state)
    }

    /// Functional CPU convolution with fused pooling + epilogue.
    pub fn execute_fused(
        &self,
        weights: &ConvWeights,
        input: &BitTensor4,
        pool: Option<Pool2>,
        epi: &Epilogue,
    ) -> ConvOutput {
        let y = self.execute(weights, input);
        finish_fused(&self.desc, y, input.shape().0, pool, epi)
    }

    /// Hoist every per-call invariant out of the serving loop: take
    /// ownership of the packed weights and materialize the emulation plan +
    /// input-aware padding pattern (§4.2(b)). The result executes repeatedly
    /// without re-packing or re-planning, and accepts partial batches.
    pub fn prepare(&self, weights: ConvWeights) -> PreparedConv {
        let (cout, taps, cin, _) = weights.dims();
        assert_eq!(cout, self.desc.cout, "weight cout");
        assert_eq!(taps, self.desc.kh * self.desc.kw, "weight taps");
        assert_eq!(cin, self.desc.cin, "weight cin");
        crate::stats::count_weight_prepare();
        let exec_plan = cpu::ConvExecPlan::new(&self.desc, &weights);
        PreparedConv {
            desc: self.desc,
            tile: self.tile,
            weights,
            exec_plan,
        }
    }

    /// Simulated latency of the un-fused (i32-output) kernel.
    pub fn simulate(&self, spec: &GpuSpec) -> KernelReport {
        simmap::estimate(
            &self.desc,
            &self.tile,
            spec,
            None,
            None,
            simmap::ActLayout::Nphwc,
        )
    }

    /// Simulated latency with fused pooling/epilogue.
    pub fn simulate_fused(
        &self,
        spec: &GpuSpec,
        pool: Option<Pool2>,
        epi: &Epilogue,
    ) -> KernelReport {
        simmap::estimate(
            &self.desc,
            &self.tile,
            spec,
            pool,
            Some(epi),
            simmap::ActLayout::Nphwc,
        )
    }
}

/// An APConv kernel compiled for serving: packed weights + emulation plan +
/// padding pattern, all materialized once at compile time.
#[derive(Debug, Clone)]
pub struct PreparedConv {
    /// Layer description (`batch` is the *compiled* batch; calls may shard).
    pub desc: ConvDesc,
    /// Block tiling chosen at compile time.
    pub tile: TileConfig,
    weights: ConvWeights,
    exec_plan: cpu::ConvExecPlan,
}

impl PreparedConv {
    /// The packed weight operand.
    pub fn weights(&self) -> &ConvWeights {
        &self.weights
    }

    /// The CPU microkernel `(JB, KB)` tile this plan executes with (chosen
    /// at prepare time by [`crate::autotune::select_micro`]).
    pub fn micro(&self) -> crate::autotune::MicroTile {
        self.exec_plan.micro()
    }

    /// Replace the microkernel tile (bench sweeps, differential tests) —
    /// every value is bit-identical.
    pub fn with_micro(mut self, micro: crate::autotune::MicroTile) -> Self {
        self.exec_plan = self.exec_plan.with_micro(micro);
        self
    }

    /// The popcount arm this plan executes with (bound at prepare time by
    /// [`apnn_bitpack::PopcntArm::detect`]).
    pub fn arm(&self) -> apnn_bitpack::PopcntArm {
        self.exec_plan.arm()
    }

    /// Force a popcount arm (tests, benches, CI force-arm legs) — every
    /// available arm is bit-identical; unavailable arms are clamped.
    pub fn with_arm(mut self, arm: apnn_bitpack::PopcntArm) -> Self {
        self.exec_plan = self.exec_plan.with_arm(arm);
        self
    }

    /// NHWC i32 accumulators for an input shard (batch ≤ compiled batch),
    /// in a fresh buffer. The shard's images fan out over the Rayon pool,
    /// each on the one sequential driver — bit-identical to
    /// [`PreparedConv::execute_into`].
    pub fn execute(&self, input: &BitTensor4) -> Vec<i32> {
        cpu::conv_exec_sharded(&self.desc, &self.weights, input, &self.exec_plan)
    }

    /// Fused pooling + epilogue execution for an input shard.
    pub fn execute_fused(
        &self,
        input: &BitTensor4,
        pool: Option<Pool2>,
        epi: &Epilogue,
    ) -> ConvOutput {
        finish_fused(&self.desc, self.execute(input), input.shape().0, pool, epi)
    }

    /// Workspace form of [`PreparedConv::execute`]: NHWC i32 accumulators
    /// land in `out`, the window gather reuses `scratch`, and — once the
    /// buffers have reached the plan's full-batch capacity — the call
    /// performs **zero heap allocations**. Runs on the calling thread.
    pub fn execute_into(
        &self,
        input: &BitTensor4,
        scratch: &mut cpu::ConvScratch,
        out: &mut Vec<i32>,
    ) {
        cpu::conv_exec_into(
            &self.desc,
            &self.weights,
            input,
            &self.exec_plan,
            &mut scratch.window,
            out,
        );
    }

    /// Sequential workspace form of [`PreparedConv::execute_fused`] for
    /// quantizing epilogues: accumulators and pooled values go through
    /// `scratch`, and the packed channel-major activations are rebuilt in
    /// place in `out` (see [`apnn_bitpack::BitTensor4::reset_zeros`]).
    /// Panics if `epi` does not end in quantization — the compiled-plan
    /// engine only runs quantizing conv stages.
    pub fn execute_fused_into(
        &self,
        input: &BitTensor4,
        pool: Option<Pool2>,
        epi: &Epilogue,
        scratch: &mut cpu::ConvScratch,
        out: &mut BitTensor4,
    ) {
        cpu::conv_exec_fused_seq(
            &self.desc,
            &self.weights,
            input,
            &self.exec_plan,
            None,
            pool,
            epi,
            scratch,
            out,
        );
    }

    /// [`PreparedConv::execute_fused_into`] with a residual buffer added
    /// into the raw i32 accumulators *before* pooling and the epilogue —
    /// the fused lowering of a ResNet block tail. `residual` must hold
    /// `batch·out_h·out_w·cout` NHWC values (the same shape the conv
    /// accumulates); exactness is integer end-to-end: no rounding happens
    /// between the main-path and skip-path contributions.
    pub fn execute_fused_residual_into(
        &self,
        input: &BitTensor4,
        residual: &[i32],
        pool: Option<Pool2>,
        epi: &Epilogue,
        scratch: &mut cpu::ConvScratch,
        out: &mut BitTensor4,
    ) {
        cpu::conv_exec_fused_seq(
            &self.desc,
            &self.weights,
            input,
            &self.exec_plan,
            Some(residual),
            pool,
            epi,
            scratch,
            out,
        );
    }
}

/// Optional 2×2 pooling and the epilogue over raw NHWC accumulators of a
/// `batch`-image execution: packed channel-major activations when the
/// chain quantizes, epilogue-transformed i32 otherwise. Single
/// implementation shared by the ad-hoc and prepared allocating forms.
fn finish_fused(
    desc: &ConvDesc,
    y: Vec<i32>,
    batch: usize,
    pool: Option<Pool2>,
    epi: &Epilogue,
) -> ConvOutput {
    let (oh, ow, cout) = (desc.out_h(), desc.out_w(), desc.cout);
    let (ph, pw, mut vals) = match pool {
        None => (oh, ow, y),
        Some(kind) => (
            oh / 2,
            ow / 2,
            cpu::pool2_i32(&y, batch, oh, ow, cout, kind),
        ),
    };
    match epi.output_bits() {
        None => {
            if !epi.ops().is_empty() {
                for (idx, e) in vals.iter_mut().enumerate() {
                    *e = epi.apply(*e, idx % cout) as i32;
                }
            }
            ConvOutput::Int32(vals)
        }
        Some(bits) => {
            let mut t = BitTensor4::zeros(batch, ph, pw, cout, bits, Encoding::ZeroOne);
            for (idx, &acc) in vals.iter().enumerate() {
                let (pix, co) = (idx / cout, idx % cout);
                let (b, py, px) = (pix / (ph * pw), (pix / pw) % ph, pix % pw);
                t.set_code(b, py, px, co, epi.apply_to_code(acc, co));
            }
            ConvOutput::Packed(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dims() {
        let d = ConvDesc::unsigned(1, 128, 16, 256, 3, 1, 1, 1, 2);
        assert_eq!(d.out_h(), 16);
        assert_eq!(d.out_w(), 16);
        assert_eq!(d.padded_c(), 128);
        assert_eq!(d.k_bits(), 9 * 128);
        assert_eq!(d.k_valid(), 9 * 128);
    }

    #[test]
    fn ragged_channels_pad_per_tap() {
        let d = ConvDesc::unsigned(1, 3, 224, 64, 11, 4, 2, 1, 8);
        assert_eq!(d.padded_c(), 128);
        assert_eq!(d.k_bits(), 121 * 128);
        assert_eq!(d.k_valid(), 121 * 3);
        assert_eq!(d.out_h(), 55); // AlexNet conv1
    }

    #[test]
    fn prepared_conv_matches_adhoc_and_serves_partial_batches() {
        use apnn_bitpack::{Layout, Tensor4};
        let desc = ConvDesc::unsigned(4, 5, 6, 3, 3, 1, 1, 1, 2);
        let mut seed = 3u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let codes = Tensor4::<u32>::from_fn(4, 5, 6, 6, Layout::Nhwc, |_, _, _, _| next() % 4);
        let input = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        let wcodes: Vec<u32> = (0..3 * 9 * 5).map(|_| next() % 2).collect();
        let weights = ConvWeights::from_codes(&desc, &wcodes);

        let conv = ApConv::new(desc);
        let adhoc = conv.execute(&weights, &input);
        let prepared = conv.prepare(weights);
        assert_eq!(prepared.execute(&input), adhoc);

        // First image alone — the plan serves a partial shard unchanged.
        let one = input.batch_slice(0, 1);
        let got = prepared.execute(&one);
        let per_image = desc.out_h() * desc.out_w() * desc.cout;
        assert_eq!(got, adhoc[..per_image].to_vec());
    }

    #[test]
    fn gemm_mapping() {
        let d = ConvDesc::unsigned(8, 128, 16, 256, 3, 1, 1, 2, 2);
        let g = d.as_gemm();
        assert_eq!(g.m, 256);
        assert_eq!(g.n, 8 * 16 * 16);
        assert_eq!(g.k, 9 * 128);
        assert_eq!(g.w_bits, 2);
    }
}
