//! Per-layer probes of the traced run: each times calls into one crate's
//! public functions on inputs shaped like the workload's own plans.

use std::hint::black_box;
use std::time::{Duration, Instant};

use apnn_bitpack::popcnt::{and_popcount_arm, xor_popcount_arm};
use apnn_bitpack::{BitPlanes, BitTensor4, Encoding, PopcntArm};
use apnn_kernels::apconv::cpu::ConvScratch;
use apnn_kernels::apmm::cpu::ApmmScratch;
use apnn_nn::compile::MainKernel;
use apnn_nn::{CompiledNet, StageSrc};
use apnn_serve::wire::{decode_request, encode_request};
use apnn_serve::Request;

use crate::common::{fill_codes, median, time_median, Metrics, Rng};

/// Minimum timed work per probe point.
const PROBE_TIME: Duration = Duration::from_millis(30);

/// A plan and its share of the workload's requests.
pub struct Weighted<'a> {
    pub plan: &'a CompiledNet,
    pub weight: f64,
}

fn normalised<'a>(plans: &'a [Weighted<'a>]) -> impl Iterator<Item = (&'a CompiledNet, f64)> {
    let total: f64 = plans.iter().map(|w| w.weight).sum();
    plans.iter().map(move |w| (w.plan, w.weight / total))
}

/// `apnn-bitpack`: merged AND- and XOR-popcount throughput of the detected
/// arm at every row length (packed K words) the plans stream, in GB/s of
/// operand bytes read.
pub fn popcount_gbps(plans: &[Weighted<'_>], rng: &mut Rng) -> f64 {
    let arm = PopcntArm::detect();
    let mut lens: Vec<usize> = plans
        .iter()
        .flat_map(|w| w.plan.main_stages())
        .filter_map(|s| match &s.kernel {
            MainKernel::Conv { desc, .. } => Some(desc.k_bits() / 64),
            MainKernel::Linear { desc, .. } => Some(desc.k_padded() / 64),
            MainKernel::Baseline => None,
        })
        .collect();
    lens.sort_unstable();
    lens.dedup();
    let mut bytes = 0.0;
    let mut secs = 0.0;
    for len in lens {
        let a: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let reps = (1 << 16) / len.max(1) + 1;
        let per_call = time_median(5, PROBE_TIME, || {
            let mut acc = 0u32;
            for _ in 0..reps {
                acc = acc.wrapping_add(and_popcount_arm(arm, black_box(&a), black_box(&b)));
                acc = acc.wrapping_add(xor_popcount_arm(arm, black_box(&a), black_box(&b)));
            }
            black_box(acc);
        });
        bytes += (reps * 2 * 2 * len * 8) as f64;
        secs += per_call;
    }
    bytes / secs / 1e9
}

/// Per-image seconds of each kernel class when every main stage of a plan
/// is replayed on its own, plus the plane-pair words it streams.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub conv: f64,
    pub residual: f64,
    pub skip: f64,
    pub linear: f64,
    /// Plane-pair 64-bit word popcounts per image, computed from each
    /// stage's shape and bit widths (not measured).
    pub pair_words: f64,
}

impl Replay {
    pub fn total(&self) -> f64 {
        self.conv + self.residual + self.skip + self.linear
    }

    fn add(&mut self, o: &Replay, w: f64) {
        self.conv += o.conv * w;
        self.residual += o.residual * w;
        self.skip += o.skip * w;
        self.linear += o.linear * w;
        self.pair_words += o.pair_words * w;
    }
}

/// `apnn-kernels`: replay each main stage's prepared kernel — the exact
/// call `CpuEngine` makes for it — on a seeded stage-shaped input of
/// `width` images.
pub fn replay(plan: &CompiledNet, width: usize, rng: &mut Rng) -> Replay {
    let mut r = Replay::default();
    let w = width as f64;
    for stage in plan.main_stages() {
        match &stage.kernel {
            MainKernel::Conv {
                desc,
                prepared: Some(p),
                ..
            } => {
                let mut x =
                    BitTensor4::zeros(width, desc.h, desc.w, desc.cin, desc.x_bits, desc.x_enc);
                fill_codes(&mut x, rng);
                let mut scratch = ConvScratch::default();
                r.pair_words += (desc.out_h() * desc.out_w() * desc.cout * (desc.k_bits() / 64))
                    as f64
                    * f64::from(desc.w_bits * desc.x_bits);
                if stage.input == StageSrc::Branch {
                    let mut acc = Vec::new();
                    r.skip +=
                        time_median(3, PROBE_TIME, || p.execute_into(&x, &mut scratch, &mut acc))
                            / w;
                } else {
                    let mut out = BitTensor4::zeros(1, 1, 1, 1, 1, Encoding::ZeroOne);
                    if stage.residual.is_some() {
                        let res: Vec<i32> = (0..width * desc.out_h() * desc.out_w() * desc.cout)
                            .map(|_| rng.below(4) as i32)
                            .collect();
                        r.residual += time_median(3, PROBE_TIME, || {
                            p.execute_fused_residual_into(
                                &x,
                                &res,
                                stage.pool,
                                &stage.epi,
                                &mut scratch,
                                &mut out,
                            )
                        }) / w;
                    } else {
                        r.conv += time_median(3, PROBE_TIME, || {
                            p.execute_fused_into(&x, stage.pool, &stage.epi, &mut scratch, &mut out)
                        }) / w;
                    }
                }
            }
            MainKernel::Linear {
                desc,
                prepared: Some(p),
                ..
            } => {
                let codes: Vec<u32> = (0..width * desc.k)
                    .map(|_| (rng.next_u64() & ((1 << desc.x_bits) - 1)) as u32)
                    .collect();
                let x = BitPlanes::from_codes(&codes, width, desc.k, desc.x_bits, desc.x_enc);
                let mut scratch = ApmmScratch::default();
                r.pair_words +=
                    (desc.m * (desc.k_padded() / 64)) as f64 * f64::from(desc.w_bits * desc.x_bits);
                r.linear += if stage.epi.output_bits().is_some() {
                    let mut codes_buf = Vec::new();
                    let mut out = BitPlanes::zeros(1, 1, 1, Encoding::ZeroOne);
                    time_median(3, PROBE_TIME, || {
                        p.execute_fused_into(&x, &stage.epi, &mut scratch, &mut codes_buf, &mut out)
                    })
                } else {
                    let mut y = Vec::new();
                    time_median(3, PROBE_TIME, || p.execute_into(&x, &mut scratch, &mut y))
                } / w;
            }
            _ => panic!(
                "plan `{}` has a stage that cannot run on the CPU engine",
                plan.model
            ),
        }
    }
    r
}

/// Kernel and `apnn-nn` probes over the workload's plans, weighted by
/// their share of requests. `images` holds at least 64 seeded images.
pub fn kernel_and_nn(plans: &[Weighted<'_>], images: &BitTensor4, rng: &mut Rng, m: &mut Metrics) {
    let mut at8 = Replay::default();
    let mut at1 = 0.0;
    let mut infer = 0.0;
    let mut bytes = 0.0;
    for (plan, w) in normalised(plans) {
        at8.add(&replay(plan, 8, rng), w);
        at1 += replay(plan, 1, rng).total() * w;
        let x8 = images.batch_slice(0, 8);
        let mut ws = plan.workspace();
        let mut out = Vec::new();
        infer += time_median(5, PROBE_TIME * 3, || {
            plan.infer_into(&x8, &mut ws, &mut out)
        }) / 8.0
            * w;
        bytes += plan.workspace_spec().total_bytes as f64;
    }
    let ms = 1e3;
    m.set("kernels.conv_ms_per_image", at8.conv * ms, "ms");
    m.set(
        "kernels.residual_conv_ms_per_image",
        at8.residual * ms,
        "ms",
    );
    m.set("kernels.skip_proj_ms_per_image", at8.skip * ms, "ms");
    m.set("kernels.linear_ms_per_image", at8.linear * ms, "ms");
    m.set("kernels.batch1_ms_per_image", at1 * ms, "ms");
    m.set("kernels.pair_words_per_image", at8.pair_words, "words");
    m.set(
        "kernels.gwords_per_s",
        at8.pair_words / at8.total() / 1e9,
        "Gwords/s",
    );
    m.set("nn.infer_ms_per_image", infer * ms, "ms");
    m.set("nn.glue_ms_per_image", (infer - at8.total()) * ms, "ms");
    m.set("nn.replay_share", at8.total() / infer, "share");
    m.set("nn.workspace_bytes", bytes, "bytes");

    // Shard speed-up on the most requested plan: 64 images through the
    // sequential core one compiled batch at a time, against the same
    // images sharded over two threads.
    let hot = plans
        .iter()
        .max_by(|a, b| a.weight.total_cmp(&b.weight))
        .expect("at least one plan")
        .plan;
    let x64 = images.batch_slice(0, 64);
    let chunks: Vec<BitTensor4> = (0..64)
        .step_by(hot.batch())
        .map(|s| x64.batch_slice(s, hot.batch().min(64 - s)))
        .collect();
    let mut ws = hot.workspace();
    let mut out = Vec::new();
    let one = time_median(3, PROBE_TIME * 3, || {
        for c in &chunks {
            hot.infer_into(c, &mut ws, &mut out);
        }
    });
    let pool = hot.workspace_pool(2);
    let two = time_median(3, PROBE_TIME * 3, || {
        hot.infer_batched_into(&x64, &pool, 2, &mut out)
    });
    m.set("nn.shard_speedup", one / two, "x");
}

/// `apnn-serve::wire`: encode and decode time of the workload's request
/// frames (median µs each) and their mean size on the wire.
pub fn wire_codec(reqs: &[Request], m: &mut Metrics) {
    let mut enc = Vec::with_capacity(reqs.len());
    let mut dec = Vec::with_capacity(reqs.len());
    let mut bytes = 0usize;
    for _ in 0..3 {
        for (i, r) in reqs.iter().enumerate() {
            let t = Instant::now();
            let payload = black_box(encode_request(i as u64, r));
            enc.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let decoded = black_box(decode_request(&payload));
            dec.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(decoded.is_ok(), "the wire must decode its own frames");
            bytes += payload.len() + 4;
        }
    }
    m.set("wire.encode_us", median(&enc), "us");
    m.set("wire.decode_us", median(&dec), "us");
    m.set(
        "wire.request_bytes",
        bytes as f64 / (3 * reqs.len()).max(1) as f64,
        "bytes",
    );
}
