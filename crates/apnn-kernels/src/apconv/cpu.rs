//! Functional CPU backend for APConv.
//!
//! Direct convolution over the channel-major packed layout: for every output
//! pixel the `KH·KW` window taps are gathered as aligned channel vectors
//! (the CPU analogue of the coalesced NPHWC reads of §4.2(a)), then every
//! output channel reduces against its packed weight row with XOR/AND +
//! popcount. Out-of-frame taps follow the input-aware padding strategies.
//!
//! One sequential driver, `conv_exec_seq`, runs every convolution on the
//! calling thread with a reused window gather. Parallelism comes from batch
//! shards only: compiled inference shards requests across workspaces, and
//! the allocating `execute` forms fan the batch's images out over the Rayon
//! pool (`conv_exec_sharded`), each image running the same driver.

use apnn_bitpack::{BitTensor4, Encoding, PopcntArm};
use rayon::prelude::*;

use super::padding::{correct_xor_window, fill_words, pad_fill, valid_row_popc};
use super::{ConvDesc, ConvWeights, Pool2};
use crate::autotune::{select_micro, MicroTile};
use crate::fusion::Epilogue;
use crate::micro::{popc_tile, PlaneView, MAX_TILE};
use crate::select::{plan, EmulationCase};

/// Input coordinates + frame status of window tap `(ky, kx)` for output
/// pixel `(oy, ox)` — the **single** copy of the stride/padding index
/// arithmetic every gather path uses.
#[inline]
fn tap_coords(desc: &ConvDesc, oy: usize, ox: usize, ky: usize, kx: usize) -> (isize, isize, bool) {
    let iy = (oy * desc.stride + ky) as isize - desc.pad as isize;
    let ix = (ox * desc.stride + kx) as isize - desc.pad as isize;
    let in_frame = iy >= 0 && ix >= 0 && (iy as usize) < desc.h && (ix as usize) < desc.w;
    (iy, ix, in_frame)
}

/// Per-call-invariant execution state for a convolution: the emulation plan
/// and the materialized padding pattern. Compiled plans build this once;
/// the ad-hoc `ApConv::execute` forms rebuild it per call.
#[derive(Debug, Clone)]
pub struct ConvExecPlan {
    pub(crate) eplan: crate::select::EmulationPlan,
    pub(crate) fill_pattern: Vec<u64>,
    /// CPU microkernel `(JB, KB)` tile: the column block runs over output
    /// channels (they share each loaded window word). Chosen once here —
    /// per layer at compile time for prepared kernels — and exact for any
    /// value (tests override it freely).
    pub(crate) micro: MicroTile,
    /// Popcount arm the microkernel runs on, bound once at plan time by
    /// [`PopcntArm::detect`] (exact for any value).
    pub(crate) arm: PopcntArm,
}

impl ConvExecPlan {
    /// Resolve the plan + padding strategy + popcount arm + microkernel
    /// tile for a layer. Tile selection goes through the shape-keyed
    /// [`select_micro`] memo, so rebuilding this state per ad-hoc call
    /// re-selects nothing after the first call per layer shape.
    pub fn new(desc: &ConvDesc, weights: &ConvWeights) -> Self {
        let eplan = plan(desc.w_enc, desc.x_enc);
        let fill = pad_fill(desc.w_enc, desc.x_enc);
        let fill_pattern = fill_words(fill, desc.cin, weights.words_per_tap());
        let arm = PopcntArm::detect();
        let micro = select_micro(
            desc.cout,
            desc.kh * desc.kw * weights.words_per_tap(),
            desc.x_bits,
            desc.w_bits,
            arm,
        );
        ConvExecPlan {
            eplan,
            fill_pattern,
            micro,
            arm,
        }
    }

    /// The microkernel tile this plan executes with.
    pub fn micro(&self) -> MicroTile {
        self.micro
    }

    /// Replace the microkernel tile (bench sweeps, differential tests).
    pub fn with_micro(mut self, micro: MicroTile) -> Self {
        self.micro = micro;
        self
    }

    /// The popcount arm this plan executes with.
    pub fn arm(&self) -> PopcntArm {
        self.arm
    }

    /// Force a popcount arm (tests, benches, CI force-arm legs);
    /// unavailable arms are clamped to the detected best.
    pub fn with_arm(mut self, arm: PopcntArm) -> Self {
        self.arm = arm.sanitized();
        self
    }
}

/// Reusable per-call scratch for the sequential (workspace) APConv path:
/// one gathered window (reused across every output pixel) plus the
/// accumulator and pooling buffers of fused executions. Size it once with
/// [`ConvScratch::reserve`] (at the plan's full batch); every later call —
/// full or partial shard — is then allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    /// The reused window gather.
    pub(crate) window: WindowScratch,
    /// Raw NHWC i32 accumulators for fused executions.
    pub(crate) acc: Vec<i32>,
    /// Pooled accumulators (fused 2×2 pooling).
    pub(crate) pooled: Vec<i32>,
}

/// The window-gather portion of [`ConvScratch`], split out so fused
/// executions can borrow it independently of the accumulator buffers.
#[derive(Debug, Clone, Default)]
pub struct WindowScratch {
    /// Flat `q` planes × (taps · words_per_tap) gathered window words.
    win: Vec<u64>,
    /// Indices of out-of-frame taps of the current window.
    oob: Vec<usize>,
    /// Per-plane popcounts of the gathered window (Case `AndWeightTransformed`).
    popc: Vec<i32>,
}

impl ConvScratch {
    /// Pre-size the scratch: `win_words` gathered-window words
    /// (`x_bits × taps × words_per_tap`), `taps` out-of-frame slots,
    /// `planes` popcount slots (`x_bits`), `acc` accumulator elements
    /// (`batch × oh × ow × cout`) and `pooled` pooled elements.
    pub fn reserve(
        &mut self,
        win_words: usize,
        taps: usize,
        planes: usize,
        acc: usize,
        pooled: usize,
    ) {
        let w = &mut self.window;
        w.win.reserve(win_words.saturating_sub(w.win.len()));
        w.oob.reserve(taps.saturating_sub(w.oob.len()));
        w.popc.reserve(planes.saturating_sub(w.popc.len()));
        self.acc.reserve(acc.saturating_sub(self.acc.len()));
        self.pooled
            .reserve(pooled.saturating_sub(self.pooled.len()));
    }
}

/// Gather one output pixel's window into the reused scratch buffers. Every
/// tap's words are overwritten — in-frame taps copy the input, out-of-frame
/// taps write the fill pattern (or zeros) — so stale data from the previous
/// pixel never survives.
///
/// `shift_prev` enables the stride-1 fast path: when the scratch still
/// holds this row's previous window (`(b, oy, ox−1)` at stride 1), tap
/// `(ky, kx)` of the new window reads exactly the same input pixel as tap
/// `(ky, kx+1)` of the old one — so the overlapping taps are moved left
/// with one in-place `copy_within` per kernel row and only the fresh
/// right-hand column is gathered from the input. Word contents (and hence
/// every popcount downstream) are bit-identical to a full gather.
#[allow(clippy::too_many_arguments)]
fn gather_window_seq(
    desc: &ConvDesc,
    input: &BitTensor4,
    fill_pattern: &[u64],
    b: usize,
    oy: usize,
    ox: usize,
    need_popc: bool,
    shift_prev: bool,
    scratch: &mut WindowScratch,
) {
    let wpt = input.words_per_pixel();
    let taps = desc.kh * desc.kw;
    let q = desc.x_bits as usize;
    let plane_words = taps * wpt;
    if shift_prev {
        debug_assert_eq!(desc.stride, 1);
        debug_assert!(ox > 0);
        debug_assert_eq!(scratch.win.len(), q * plane_words);
        // The per-plane popcounts update incrementally: only the departing
        // left column and the arriving right column change, and both are
        // touched by the shift anyway (exact integers, so this equals a
        // full recount). Valid whenever the previous gather tracked them
        // — same `need_popc` for every pixel of one execution.
        let track_popc = need_popc && scratch.popc.len() == q;
        if track_popc {
            for t in 0..q {
                let mut departing = 0u32;
                for ky in 0..desc.kh {
                    let base = t * plane_words + ky * desc.kw * wpt;
                    departing += apnn_bitpack::word::popcount(&scratch.win[base..base + wpt]);
                }
                scratch.popc[t] -= departing as i32;
            }
        }
        // Shift the kw−1 overlapping columns left in place, per plane and
        // kernel row. An old out-of-frame tap already holds the fill
        // pattern, which is exactly what the shifted position needs, so no
        // oob rewrite is required either.
        for t in 0..q {
            for ky in 0..desc.kh {
                let base = t * plane_words + ky * desc.kw * wpt;
                scratch
                    .win
                    .copy_within(base + wpt..base + desc.kw * wpt, base);
            }
        }
        // Rebuild the bounds bookkeeping (cheap — no word traffic) and
        // gather only the new rightmost column.
        scratch.oob.clear();
        for ky in 0..desc.kh {
            for kx in 0..desc.kw {
                let tap = ky * desc.kw + kx;
                let (iy, ix, in_frame) = tap_coords(desc, oy, ox, ky, kx);
                if kx + 1 == desc.kw {
                    for t in 0..q {
                        let dst = t * plane_words + tap * wpt;
                        if in_frame {
                            scratch.win[dst..dst + wpt].copy_from_slice(input.pixel_words(
                                b,
                                t as u32,
                                iy as usize,
                                ix as usize,
                            ));
                        } else {
                            scratch.win[dst..dst + wpt].copy_from_slice(fill_pattern);
                        }
                        if track_popc {
                            scratch.popc[t] +=
                                apnn_bitpack::word::popcount(&scratch.win[dst..dst + wpt]) as i32;
                        }
                    }
                }
                if !in_frame {
                    scratch.oob.push(tap);
                }
            }
        }
        if track_popc {
            return;
        }
    } else {
        // Every (plane, tap) slot is written exactly once below — in-frame
        // taps copy the input, out-of-frame taps copy the fill pattern
        // (which is all-zero words for `PadFill::Zeros`) — so the reshape
        // skips the per-pixel zeroing pass the old `resize(.., 0)` paid on
        // every window.
        apnn_bitpack::resize_for_overwrite(&mut scratch.win, q * plane_words);
        scratch.oob.clear();
        for ky in 0..desc.kh {
            for kx in 0..desc.kw {
                let tap = ky * desc.kw + kx;
                let (iy, ix, in_frame) = tap_coords(desc, oy, ox, ky, kx);
                if in_frame {
                    for t in 0..q {
                        let dst = t * plane_words + tap * wpt;
                        scratch.win[dst..dst + wpt].copy_from_slice(input.pixel_words(
                            b,
                            t as u32,
                            iy as usize,
                            ix as usize,
                        ));
                    }
                } else {
                    scratch.oob.push(tap);
                    for t in 0..q {
                        let dst = t * plane_words + tap * wpt;
                        scratch.win[dst..dst + wpt].copy_from_slice(fill_pattern);
                    }
                }
            }
        }
    }
    scratch.popc.clear();
    if need_popc {
        for t in 0..q {
            let plane = &scratch.win[t * plane_words..(t + 1) * plane_words];
            scratch
                .popc
                .push(plane.iter().map(|w| w.count_ones()).sum::<u32>() as i32);
        }
    }
}

/// Consume one popcount tile block: apply the per-case §3.2/§4.2(b)
/// corrections and the shift-add combination for a `jbc`-wide
/// output-channel block. The `[j][t][s]` tile orientation comes from the
/// conv call shape (A side = window planes, B side = weight rows); the
/// s-outer / t-inner accumulation order matches the pre-microkernel
/// kernels, so results are bit-identical.
#[allow(clippy::too_many_arguments)]
fn combine_conv_block(
    desc: &ConvDesc,
    weights: &ConvWeights,
    case: EmulationCase,
    tile: &[i32],
    co0: usize,
    oob: &[usize],
    plane_popc: &[i32],
    valid_taps: i32,
    oob_taps: i32,
    out_block: &mut [i32],
) {
    let p = desc.w_bits as usize;
    let q = desc.x_bits as usize;
    for (jj, out_v) in out_block.iter_mut().enumerate() {
        let co = co0 + jj;
        let mut acc = 0i32;
        for s in 0..p {
            let oob_w_popc: i32 = oob
                .iter()
                .map(|&tap| weights.seg_popc(s as u32, co, tap))
                .sum();
            for t in 0..q {
                let popc = tile[(jj * q + t) * p + s];
                let adj = match case {
                    EmulationCase::AndUnsigned => popc,
                    EmulationCase::XorSignedBinary => {
                        correct_xor_window(popc, desc.cin as i32, valid_taps, oob_w_popc, oob_taps)
                    }
                    EmulationCase::AndWeightTransformed => 2 * popc - plane_popc[t],
                    EmulationCase::AndActivationTransformed => {
                        2 * popc - valid_row_popc(weights.row_popc(s as u32, co), oob_w_popc)
                    }
                    // The XOR-only (Turing) derivations are supported at
                    // the GEMM level (`PreparedApmm::with_plan`); the direct
                    // convolution always plans for the target device via
                    // `plan(..)`, which never emits them here.
                    EmulationCase::XorDerivedUnsigned
                    | EmulationCase::XorDerivedWeightTransformed
                    | EmulationCase::XorDerivedActivationTransformed => {
                        unreachable!("conv kernels use the Ampere plan")
                    }
                };
                acc += adj << (s + t);
            }
        }
        *out_v = acc;
    }
}

/// The APConv driver: convolve `input` (whose batch may be ≤ `desc.batch`
/// when a compiled plan serves a partial shard) on the calling thread with
/// a reused window gather, storing every NHWC i32 accumulator of `out`
/// (which must hold exactly `batch·out_h·out_w·cout` elements). Performs no
/// heap allocation once `scratch` has reached the layer's window size.
pub(crate) fn conv_exec_seq(
    desc: &ConvDesc,
    weights: &ConvWeights,
    input: &BitTensor4,
    eplan_state: &ConvExecPlan,
    scratch: &mut WindowScratch,
    out: &mut [i32],
) {
    let (n, h, w, c) = input.shape();
    assert!(n <= desc.batch, "input batch exceeds plan batch");
    assert_eq!((h, w, c), (desc.h, desc.w, desc.cin));
    assert_eq!(input.bits(), desc.x_bits);
    assert_eq!(input.encoding(), desc.x_enc);
    let (cout, taps, cin, _padded) = weights.dims();
    assert_eq!(cout, desc.cout);
    assert_eq!(taps, desc.kh * desc.kw);
    assert_eq!(cin, desc.cin);

    let ConvExecPlan {
        eplan,
        fill_pattern,
        micro,
        arm,
    } = eplan_state;
    let eplan = *eplan;
    let arm = arm.sanitized();
    let need_popc = eplan.case == EmulationCase::AndWeightTransformed;

    let (oh, ow) = (desc.out_h(), desc.out_w());
    let p = desc.w_bits as usize;
    let q = desc.x_bits as usize;
    let pixels = n * oh * ow;
    let wpt = input.words_per_pixel();
    let plane_words = taps * wpt;
    assert_eq!(out.len(), pixels * cout, "accumulator buffer mis-sized");

    let MicroTile { jb, kb } = micro.sanitized();
    let w_view = PlaneView::from_bitplanes(weights.planes());
    let mut tile = [0i32; MAX_TILE];
    for pix in 0..pixels {
        let b = pix / (oh * ow);
        let oy = (pix / ow) % oh;
        let ox = pix % ow;
        // The stride-1 fast path: within an output row the previous
        // pixel's gather is still in the scratch, one input column to the
        // left — shift-reuse the overlapping taps instead of re-copying
        // the full window.
        let shift_prev = desc.stride == 1 && ox > 0;
        gather_window_seq(
            desc,
            input,
            fill_pattern,
            b,
            oy,
            ox,
            need_popc,
            shift_prev,
            scratch,
        );
        let valid_taps = (taps - scratch.oob.len()) as i32;
        let oob_taps = scratch.oob.len() as i32;
        let win_view = PlaneView::from_flat(&scratch.win, q, plane_words);

        let chunk = &mut out[pix * cout..(pix + 1) * cout];
        let mut co0 = 0;
        while co0 < cout {
            let jbc = jb.min(cout - co0);
            // A-side = the gathered window (q planes, shared by the whole
            // output-channel block), B-side = the weight rows: the tile
            // comes back `[j][t][s]`-indexed.
            let live = &mut tile[..jbc * q * p];
            popc_tile(eplan.op, arm, &win_view, 0, &w_view, co0, jbc, kb, live);
            combine_conv_block(
                desc,
                weights,
                eplan.case,
                live,
                co0,
                &scratch.oob,
                &scratch.popc,
                valid_taps,
                oob_taps,
                &mut chunk[co0..co0 + jbc],
            );
            co0 += jbc;
        }
    }
}

/// Sequential fused execution: [`conv_exec_seq`] + in-place pooling +
/// quantizing epilogue, packing the next layer's channel-major activations
/// into the caller-owned `out` tensor. The whole pipeline is
/// allocation-free once `scratch` and `out` have reached the plan's
/// full-batch capacity.
///
/// `residual` adds a same-shaped NHWC i32 buffer into the raw accumulators
/// *before* the pool/epilogue run — the exact-i32 requantization point of a
/// fused residual block: `quantize(epi(acc + residual))`, with no
/// intermediate rounding between the two integer paths.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_exec_fused_seq(
    desc: &ConvDesc,
    weights: &ConvWeights,
    input: &BitTensor4,
    eplan_state: &ConvExecPlan,
    residual: Option<&[i32]>,
    pool: Option<Pool2>,
    epi: &Epilogue,
    scratch: &mut ConvScratch,
    out: &mut BitTensor4,
) {
    let bits = epi
        .output_bits()
        .expect("fused conv stages must end in quantization");
    let ConvScratch {
        window,
        acc,
        pooled,
    } = scratch;
    conv_exec_into(desc, weights, input, eplan_state, window, acc);
    if let Some(res) = residual {
        assert_eq!(
            res.len(),
            acc.len(),
            "residual buffer must match the accumulator shape"
        );
        for (a, r) in acc.iter_mut().zip(res) {
            *a += r;
        }
    }
    let batch = input.shape().0;
    let (oh, ow) = (desc.out_h(), desc.out_w());
    let cout = desc.cout;
    let (ph, pw, vals): (usize, usize, &[i32]) = match pool {
        None => (oh, ow, acc),
        Some(kind) => {
            pool2_i32_into(acc, batch, oh, ow, cout, kind, pooled);
            (oh / 2, ow / 2, pooled)
        }
    };
    // `set_code` stores every real-channel bit of every plane for each of
    // the `batch` images below, and channel-padding bits are zero
    // inductively (this slot only ever holds outputs of this stage, whose
    // padding was zeroed at construction and never set since), so the
    // reshape skips the zeroing pass of `reset_zeros`.
    out.reset_for_overwrite(batch, ph, pw, cout, bits, Encoding::ZeroOne);
    for b in 0..batch {
        for py in 0..ph {
            for px in 0..pw {
                for co in 0..cout {
                    let a = vals[((b * ph + py) * pw + px) * cout + co];
                    out.set_code(b, py, px, co, epi.apply_to_code(a, co));
                }
            }
        }
    }
}

/// [`conv_exec_seq`] into a caller-owned `Vec`, resized in place to the
/// shard's accumulator count. Every element is stored by the driver, so
/// the reshape pays no zeroing pass.
pub(crate) fn conv_exec_into(
    desc: &ConvDesc,
    weights: &ConvWeights,
    input: &BitTensor4,
    eplan_state: &ConvExecPlan,
    scratch: &mut WindowScratch,
    out: &mut Vec<i32>,
) {
    let per_image = desc.out_h() * desc.out_w() * desc.cout;
    apnn_bitpack::resize_for_overwrite(out, input.shape().0 * per_image);
    conv_exec_seq(desc, weights, input, eplan_state, scratch, out);
}

/// The allocating convolution: NHWC i32 accumulators in a fresh buffer.
/// Every image is a shard: the images fan out over the Rayon pool, each
/// participant running [`conv_exec_seq`] with its own window scratch into
/// the image's disjoint chunk of the output. The driver never looks across
/// images, so the result is bit-identical to one call over the whole batch.
/// One-image shards (rather than one shard per thread) let whichever pool
/// thread is free take the next image, so a participant that starts late
/// or is descheduled never leaves the others waiting on a fixed half.
pub(crate) fn conv_exec_sharded(
    desc: &ConvDesc,
    weights: &ConvWeights,
    input: &BitTensor4,
    eplan_state: &ConvExecPlan,
) -> Vec<i32> {
    let n = input.shape().0;
    let per_image = desc.out_h() * desc.out_w() * desc.cout;
    let mut out = vec![0i32; n * per_image];
    if n <= 1 {
        let scratch = &mut WindowScratch::default();
        conv_exec_seq(desc, weights, input, eplan_state, scratch, &mut out);
        return out;
    }
    out.par_chunks_mut(per_image).enumerate().for_each_init(
        WindowScratch::default,
        |scratch, (b, chunk)| {
            let image = input.batch_slice(b, 1);
            conv_exec_seq(desc, weights, &image, eplan_state, scratch, chunk);
        },
    );
    out
}

/// Fused 2×2/stride-2 pooling over NHWC i32 accumulators — the shared
/// implementation behind the fused kernels and compile-time calibration.
pub fn pool2_i32(
    y: &[i32],
    batch: usize,
    oh: usize,
    ow: usize,
    cout: usize,
    kind: Pool2,
) -> Vec<i32> {
    let mut v = Vec::new();
    pool2_i32_into(y, batch, oh, ow, cout, kind, &mut v);
    v
}

/// [`pool2_i32`] writing into a caller-owned buffer (allocation-free once
/// `out` has reached its peak capacity).
pub fn pool2_i32_into(
    y: &[i32],
    batch: usize,
    oh: usize,
    ow: usize,
    cout: usize,
    kind: Pool2,
    out: &mut Vec<i32>,
) {
    let ph = oh / 2;
    let pw = ow / 2;
    // Every pooled element is stored below — no zeroing pass needed.
    apnn_bitpack::resize_for_overwrite(out, batch * ph * pw * cout);
    let v = out;
    for b in 0..batch {
        for py in 0..ph {
            for px in 0..pw {
                for co in 0..cout {
                    let at = |dy: usize, dx: usize| {
                        y[((b * oh + 2 * py + dy) * ow + 2 * px + dx) * cout + co]
                    };
                    let vv = match kind {
                        Pool2::Max => at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1)),
                        Pool2::Avg => (at(0, 0) + at(0, 1) + at(1, 0) + at(1, 1)).div_euclid(4),
                    };
                    v[((b * ph + py) * pw + px) * cout + co] = vv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apconv::{ApConv, ConvOutput};
    use crate::reference::conv2d_i32;
    use apnn_bitpack::{Layout, Tensor4};

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// Build packed input + decoded reference values.
    fn make_input(desc: &ConvDesc, seed: &mut u64) -> (BitTensor4, Vec<i32>) {
        let codes = Tensor4::<u32>::from_fn(
            desc.batch,
            desc.cin,
            desc.h,
            desc.w,
            Layout::Nhwc,
            |_, _, _, _| (lcg(seed) as u32) % (1 << desc.x_bits),
        );
        let packed = BitTensor4::from_tensor(&codes, desc.x_bits, desc.x_enc);
        // Decoded NHWC values.
        let mut vals = vec![0i32; desc.batch * desc.h * desc.w * desc.cin];
        for b in 0..desc.batch {
            for y in 0..desc.h {
                for x in 0..desc.w {
                    for c in 0..desc.cin {
                        vals[((b * desc.h + y) * desc.w + x) * desc.cin + c] =
                            desc.x_enc.code_value(codes.get(b, c, y, x), desc.x_bits);
                    }
                }
            }
        }
        (packed, vals)
    }

    fn make_weights(desc: &ConvDesc, seed: &mut u64) -> (ConvWeights, Vec<i32>) {
        let n = desc.cout * desc.kh * desc.kw * desc.cin;
        let codes: Vec<u32> = (0..n)
            .map(|_| (lcg(seed) as u32) % (1 << desc.w_bits))
            .collect();
        let w = ConvWeights::from_codes(desc, &codes);
        let vals: Vec<i32> = codes
            .iter()
            .map(|&c| desc.w_enc.code_value(c, desc.w_bits))
            .collect();
        (w, vals)
    }

    fn check_against_reference(desc: &ConvDesc, seed: u64) {
        let mut seed = seed;
        let (input, x_vals) = make_input(desc, &mut seed);
        let (weights, w_vals) = make_weights(desc, &mut seed);
        let got = ApConv::new(*desc).execute(&weights, &input);
        let want = conv2d_i32(
            &x_vals,
            &w_vals,
            desc.batch,
            desc.h,
            desc.w,
            desc.cin,
            desc.cout,
            desc.kh,
            desc.kw,
            desc.stride,
            desc.pad,
        );
        assert_eq!(got, want, "desc {desc:?}");
    }

    #[test]
    fn case1_unsigned_various_shapes() {
        check_against_reference(&ConvDesc::unsigned(1, 3, 5, 4, 3, 1, 1, 1, 2), 1);
        check_against_reference(&ConvDesc::unsigned(2, 7, 8, 5, 3, 1, 1, 2, 2), 2);
        check_against_reference(&ConvDesc::unsigned(1, 130, 4, 3, 3, 1, 1, 1, 3), 3);
        check_against_reference(&ConvDesc::unsigned(1, 4, 9, 2, 5, 2, 2, 2, 1), 4);
        check_against_reference(&ConvDesc::unsigned(1, 3, 6, 2, 1, 1, 0, 3, 3), 5);
    }

    #[test]
    fn case2_signed_binary_with_oob_padding() {
        // ±1 weights and activations with pad=1 exercises the counter
        // correction on every border pixel.
        let mut desc = ConvDesc::unsigned(1, 5, 6, 4, 3, 1, 1, 1, 1);
        desc.w_enc = Encoding::PlusMinusOne;
        desc.x_enc = Encoding::PlusMinusOne;
        check_against_reference(&desc, 7);
        // Bigger pad → windows fully outside rows exist.
        let mut desc = ConvDesc::unsigned(2, 3, 4, 3, 3, 1, 2, 1, 1);
        desc.w_enc = Encoding::PlusMinusOne;
        desc.x_enc = Encoding::PlusMinusOne;
        check_against_reference(&desc, 8);
    }

    #[test]
    fn case3_signed_weights_unsigned_activations() {
        let mut desc = ConvDesc::unsigned(1, 6, 6, 4, 3, 1, 1, 1, 2);
        desc.w_enc = Encoding::PlusMinusOne;
        check_against_reference(&desc, 9);
        let mut desc = ConvDesc::unsigned(2, 9, 5, 3, 3, 2, 1, 1, 4);
        desc.w_enc = Encoding::PlusMinusOne;
        check_against_reference(&desc, 10);
    }

    #[test]
    fn case3_mirrored_unsigned_weights_signed_activations() {
        let mut desc = ConvDesc::unsigned(1, 5, 5, 3, 3, 1, 1, 2, 1);
        desc.x_enc = Encoding::PlusMinusOne;
        check_against_reference(&desc, 11);
    }

    #[test]
    fn fused_pool_and_quantize() {
        let desc = ConvDesc::unsigned(1, 4, 8, 3, 3, 1, 1, 1, 2);
        let mut seed = 13;
        let (input, x_vals) = make_input(&desc, &mut seed);
        let (weights, w_vals) = make_weights(&desc, &mut seed);
        let epi = Epilogue::quantize(4.0, 0.0, 2);
        let out = ApConv::new(desc).execute_fused(&weights, &input, Some(Pool2::Max), &epi);
        let ConvOutput::Packed(packed) = out else {
            panic!("expected packed")
        };
        let (n, ph, pw, c) = packed.shape();
        assert_eq!((n, ph, pw, c), (1, 4, 4, 3));

        // Oracle: reference conv → max pool → quantize.
        let y = conv2d_i32(&x_vals, &w_vals, 1, 8, 8, 4, 3, 3, 3, 1, 1);
        let (oh, ow) = (8, 8);
        for py in 0..4 {
            for px in 0..4 {
                for co in 0..3 {
                    let at =
                        |dy: usize, dx: usize| y[(((2 * py + dy) * ow) + 2 * px + dx) * 3 + co];
                    let m = at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1));
                    assert_eq!(packed.get_code(0, py, px, co), epi.apply_to_code(m, co));
                }
            }
        }
        let _ = oh;
    }

    #[test]
    fn sequential_workspace_core_matches_pooled_path_every_case() {
        let mut descs = vec![
            ConvDesc::unsigned(2, 5, 6, 4, 3, 1, 1, 2, 2),
            ConvDesc::unsigned(1, 130, 4, 3, 3, 1, 1, 1, 3),
        ];
        // ±1/±1 (pad-1 + counter correction) and the two Case III forms.
        let mut d = ConvDesc::unsigned(1, 5, 6, 4, 3, 1, 1, 1, 1);
        d.w_enc = Encoding::PlusMinusOne;
        d.x_enc = Encoding::PlusMinusOne;
        descs.push(d);
        let mut d = ConvDesc::unsigned(2, 9, 5, 3, 3, 2, 1, 1, 4);
        d.w_enc = Encoding::PlusMinusOne;
        descs.push(d);
        let mut d = ConvDesc::unsigned(1, 5, 5, 3, 3, 1, 1, 2, 1);
        d.x_enc = Encoding::PlusMinusOne;
        descs.push(d);

        let mut scratch = WindowScratch::default();
        let mut out = Vec::new();
        for (i, desc) in descs.iter().enumerate() {
            let mut seed = 100 + i as u64;
            let (input, _) = make_input(desc, &mut seed);
            let (weights, _) = if desc.w_enc == Encoding::PlusMinusOne {
                let n = desc.cout * desc.kh * desc.kw * desc.cin;
                let vals: Vec<i32> = (0..n)
                    .map(|_| if lcg(&mut seed) & 1 == 0 { -1 } else { 1 })
                    .collect();
                (ConvWeights::from_signed(desc, &vals), vals)
            } else {
                make_weights(desc, &mut seed)
            };
            let state = ConvExecPlan::new(desc, &weights);
            // One scratch reused across every desc: shapes shrink and grow.
            conv_exec_into(desc, &weights, &input, &state, &mut scratch, &mut out);
            let pooled = ApConv::new(*desc).execute(&weights, &input);
            assert_eq!(out, pooled, "desc {desc:?}");
        }
    }

    #[test]
    fn every_micro_tile_is_bit_identical_for_conv() {
        let mut descs = vec![
            // Stride-1 with padding: the sequential path takes the
            // shift-reuse window gather on every non-leading column.
            ConvDesc::unsigned(2, 5, 7, 9, 3, 1, 1, 2, 2),
            // Stride 2 (full gather every pixel) and a wide-kernel shape.
            ConvDesc::unsigned(1, 4, 9, 5, 5, 2, 2, 1, 2),
        ];
        let mut d = ConvDesc::unsigned(1, 5, 6, 4, 3, 1, 1, 1, 1);
        d.w_enc = Encoding::PlusMinusOne;
        d.x_enc = Encoding::PlusMinusOne;
        descs.push(d);
        let mut d = ConvDesc::unsigned(2, 6, 5, 7, 3, 1, 1, 1, 3);
        d.w_enc = Encoding::PlusMinusOne;
        descs.push(d);

        for (i, desc) in descs.iter().enumerate() {
            let mut seed = 300 + i as u64;
            let (input, _) = make_input(desc, &mut seed);
            let weights = if desc.w_enc == Encoding::PlusMinusOne {
                let n = desc.cout * desc.kh * desc.kw * desc.cin;
                let vals: Vec<i32> = (0..n)
                    .map(|_| if lcg(&mut seed) & 1 == 0 { -1 } else { 1 })
                    .collect();
                ConvWeights::from_signed(desc, &vals)
            } else {
                make_weights(desc, &mut seed).0
            };
            let want = ApConv::new(*desc).execute(&weights, &input);
            let mut scratch = WindowScratch::default();
            let mut out = Vec::new();
            for jb in [1usize, 2, 8] {
                for kb in [1usize, 4, 64] {
                    let micro = MicroTile { jb, kb };
                    let state = ConvExecPlan::new(desc, &weights).with_micro(micro);
                    assert_eq!(
                        conv_exec_sharded(desc, &weights, &input, &state),
                        want,
                        "sharded jb={jb} kb={kb} desc {desc:?}"
                    );
                    conv_exec_into(desc, &weights, &input, &state, &mut scratch, &mut out);
                    assert_eq!(out, want, "seq jb={jb} kb={kb} desc {desc:?}");
                }
            }
        }
    }

    #[test]
    fn every_available_arm_is_bit_identical_for_conv() {
        // One Ampere case per encoding class, run through every popcount
        // arm on both the sharded and the workspace form. Unavailable arms
        // sanitize to the detected best — still exact, so asserting on
        // the full set is safe on any host.
        let mut descs = vec![ConvDesc::unsigned(2, 5, 7, 9, 3, 1, 1, 2, 2)];
        let mut d = ConvDesc::unsigned(1, 5, 6, 4, 3, 1, 1, 1, 1);
        d.w_enc = Encoding::PlusMinusOne;
        d.x_enc = Encoding::PlusMinusOne;
        descs.push(d);
        let mut d = ConvDesc::unsigned(2, 6, 5, 7, 3, 1, 1, 1, 3);
        d.w_enc = Encoding::PlusMinusOne;
        descs.push(d);

        for (i, desc) in descs.iter().enumerate() {
            let mut seed = 700 + i as u64;
            let (input, _) = make_input(desc, &mut seed);
            let weights = if desc.w_enc == Encoding::PlusMinusOne {
                let n = desc.cout * desc.kh * desc.kw * desc.cin;
                let vals: Vec<i32> = (0..n)
                    .map(|_| if lcg(&mut seed) & 1 == 0 { -1 } else { 1 })
                    .collect();
                ConvWeights::from_signed(desc, &vals)
            } else {
                make_weights(desc, &mut seed).0
            };
            let want = ApConv::new(*desc).execute(&weights, &input);
            let mut scratch = WindowScratch::default();
            let mut out = Vec::new();
            for arm in PopcntArm::ALL {
                let state = ConvExecPlan::new(desc, &weights).with_arm(arm);
                assert_eq!(
                    conv_exec_sharded(desc, &weights, &input, &state),
                    want,
                    "sharded arm {} desc {desc:?}",
                    arm.label()
                );
                conv_exec_into(desc, &weights, &input, &state, &mut scratch, &mut out);
                assert_eq!(out, want, "seq arm {} desc {desc:?}", arm.label());
            }
        }
    }

    #[test]
    fn ad_hoc_conv_entry_reuses_the_shape_keyed_memo() {
        // `ApConv::execute` rebuilds its `ConvExecPlan` per call, but tile
        // selection must go through the shape-keyed memo —
        // first call per layer shape selects (and, in measured mode,
        // benches) once; repeats move neither counter. The shape is unique
        // to this test so the first call is a guaranteed memo miss.
        let desc = ConvDesc::unsigned(1, 37, 5, 13, 3, 1, 1, 2, 2);
        let mut seed = 41;
        let (input, _) = make_input(&desc, &mut seed);
        let (weights, _) = make_weights(&desc, &mut seed);

        let conv = ApConv::new(desc);
        let s = crate::stats::scope();
        let y1 = conv.execute(&weights, &input);
        assert_eq!(s.micro_tunes(), 1, "first call per shape selects once");
        assert!(s.micro_benches() <= 1);
        let (tunes, benches) = (s.micro_tunes(), s.micro_benches());
        let y2 = conv.execute(&weights, &input);
        let y3 = conv.execute(&weights, &input);
        assert_eq!(
            (s.micro_tunes(), s.micro_benches()),
            (tunes, benches),
            "repeat calls must be memo hits"
        );
        assert_eq!(y1, y2);
        assert_eq!(y1, y3);
    }

    #[test]
    fn shifted_window_gather_matches_full_gather() {
        // Drive the stride-1 shift path directly against a fresh full
        // gather for every pixel of a padded feature map, including the
        // Case-III popcount bookkeeping.
        let mut desc = ConvDesc::unsigned(1, 5, 8, 3, 3, 1, 1, 1, 2);
        desc.w_enc = Encoding::PlusMinusOne; // AndWeightTransformed → need_popc
        let mut seed = 23;
        let (input, _) = make_input(&desc, &mut seed);
        let n = desc.cout * desc.kh * desc.kw * desc.cin;
        let vals: Vec<i32> = (0..n)
            .map(|_| if lcg(&mut seed) & 1 == 0 { -1 } else { 1 })
            .collect();
        let weights = ConvWeights::from_signed(&desc, &vals);
        let state = ConvExecPlan::new(&desc, &weights);

        let mut rolling = WindowScratch::default();
        let mut fresh = WindowScratch::default();
        for oy in 0..desc.out_h() {
            for ox in 0..desc.out_w() {
                let shift = ox > 0;
                gather_window_seq(
                    &desc,
                    &input,
                    &state.fill_pattern,
                    0,
                    oy,
                    ox,
                    true,
                    shift,
                    &mut rolling,
                );
                gather_window_seq(
                    &desc,
                    &input,
                    &state.fill_pattern,
                    0,
                    oy,
                    ox,
                    true,
                    false,
                    &mut fresh,
                );
                assert_eq!(rolling.win, fresh.win, "window words at ({oy},{ox})");
                assert_eq!(rolling.oob, fresh.oob, "oob taps at ({oy},{ox})");
                assert_eq!(rolling.popc, fresh.popc, "plane popc at ({oy},{ox})");
            }
        }
    }

    #[test]
    fn sequential_fused_matches_allocating_fused() {
        let desc = ConvDesc::unsigned(2, 4, 8, 3, 3, 1, 1, 1, 2);
        let mut seed = 13;
        let (input, _) = make_input(&desc, &mut seed);
        let (weights, _) = make_weights(&desc, &mut seed);
        let epi = Epilogue::quantize(4.0, 0.0, 2);
        let state = ConvExecPlan::new(&desc, &weights);
        let mut scratch = ConvScratch::default();
        let mut packed = BitTensor4::zeros(1, 1, 1, 1, 1, Encoding::ZeroOne);
        for pool in [None, Some(Pool2::Max), Some(Pool2::Avg)] {
            conv_exec_fused_seq(
                &desc,
                &weights,
                &input,
                &state,
                None,
                pool,
                &epi,
                &mut scratch,
                &mut packed,
            );
            let ConvOutput::Packed(want) =
                ApConv::new(desc).execute_fused(&weights, &input, pool, &epi)
            else {
                panic!("expected packed")
            };
            assert_eq!(packed, want, "pool {pool:?}");
        }
    }

    #[test]
    fn residual_adds_into_raw_accumulators_before_the_epilogue() {
        let desc = ConvDesc::unsigned(2, 4, 8, 3, 3, 1, 1, 1, 2);
        let mut seed = 29;
        let (input, _) = make_input(&desc, &mut seed);
        let (weights, _) = make_weights(&desc, &mut seed);
        let epi = Epilogue::quantize(4.0, 0.0, 2);
        let state = ConvExecPlan::new(&desc, &weights);
        let n = desc.batch * desc.out_h() * desc.out_w() * desc.cout;
        let res: Vec<i32> = (0..n).map(|i| (i as i32 % 11) - 5).collect();

        let mut scratch = ConvScratch::default();
        let mut packed = BitTensor4::zeros(1, 1, 1, 1, 1, Encoding::ZeroOne);
        conv_exec_fused_seq(
            &desc,
            &weights,
            &input,
            &state,
            Some(&res),
            None,
            &epi,
            &mut scratch,
            &mut packed,
        );

        // Oracle: raw accumulators + residual, then the epilogue.
        let raw = ApConv::new(desc).execute(&weights, &input);
        for b in 0..desc.batch {
            for y in 0..desc.out_h() {
                for x in 0..desc.out_w() {
                    for co in 0..desc.cout {
                        let idx = ((b * desc.out_h() + y) * desc.out_w() + x) * desc.cout + co;
                        let want = epi.apply_to_code(raw[idx] + res[idx], co);
                        assert_eq!(packed.get_code(b, y, x, co), want, "at {idx}");
                    }
                }
            }
        }
    }

    #[test]
    fn avg_pool_floors_toward_neg_infinity() {
        let desc = ConvDesc::unsigned(1, 1, 4, 1, 1, 1, 0, 1, 1);
        let mut seed = 17;
        let (input, _) = make_input(&desc, &mut seed);
        let (weights, _) = make_weights(&desc, &mut seed);
        let out =
            ApConv::new(desc).execute_fused(&weights, &input, Some(Pool2::Avg), &Epilogue::none());
        let ConvOutput::Int32(v) = out else {
            panic!("expected i32")
        };
        assert_eq!(v.len(), 4); // 2x2 pooled
    }
}
