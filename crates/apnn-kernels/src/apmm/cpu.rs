//! Functional CPU backend for APMM.
//!
//! This is the "real compute" path: bit-packed rows, XOR/AND + popcount
//! inner loops (the CPU equivalent of the tensor-core `bmma` pipeline). One
//! sequential driver, `apmm_exec_seq`, runs every APMM: compiled
//! inference calls it with workspace scratch, and the allocating
//! `execute` forms call it with fresh scratch. Parallelism lives one level
//! up, in batch shards (`CompiledNet::infer_batched_into`). Results are
//! validated against the naive i32 oracle and against the fragment-level
//! [`crate::emulate::ap_bit_mm`].

use apnn_bitpack::{BitPlanes, PopcntArm};

use super::ApmmDesc;
use crate::autotune::MicroTile;
use crate::micro::{popc_tile, PlaneView, MAX_TILE};
use crate::select::{adjust_partial, EmulationCase, EmulationPlan};

/// Which correction vectors a case consumes.
pub(crate) fn correction_needs(case: EmulationCase) -> (bool, bool) {
    use EmulationCase::*;
    let needs_row = matches!(
        case,
        AndActivationTransformed | XorDerivedUnsigned | XorDerivedWeightTransformed
    );
    let needs_col = matches!(
        case,
        AndWeightTransformed | XorDerivedUnsigned | XorDerivedActivationTransformed
    );
    (needs_row, needs_col)
}

/// Compute the per-plane weight-row sums a case's correction consumes (the
/// `W·J` vectors of §3.2). Returns an empty vec when the plan needs none —
/// this is the weight-side precomputation hoisted into compiled plans.
/// Every *actual* build bumps [`crate::stats::row_sum_builds`], so tests
/// can prove prepared kernels compute these exactly once per plan and
/// never on the inference hot path.
pub fn weight_row_sums(w: &BitPlanes, eplan: EmulationPlan) -> Vec<Vec<i32>> {
    let (needs_row, _) = correction_needs(eplan.case);
    if needs_row {
        crate::stats::count_row_sums_build();
        (0..w.bits()).map(|s| w.plane(s).row_sums()).collect()
    } else {
        Vec::new()
    }
}

/// Consume one popcount tile block for a `jbc`-wide batch-column block:
/// apply the §3.2 correction ([`adjust_partial`]) and the shift-add
/// combination, in the same s-outer / t-inner order as the
/// pre-microkernel kernels (bit-identical results). The correction
/// lookups are closures over the driver's flat tables.
#[allow(clippy::too_many_arguments)]
fn combine_apmm_block(
    case: EmulationCase,
    tile: &[i32],
    (p, q): (usize, usize),
    k_valid: i32,
    j0: usize,
    row_sum: impl Fn(usize) -> i32,
    col_sum: impl Fn(usize, usize) -> i32,
    out_block: &mut [i32],
) {
    for (jj, out_v) in out_block.iter_mut().enumerate() {
        let j = j0 + jj;
        let mut acc = 0i32;
        for s in 0..p {
            for t in 0..q {
                let adj = adjust_partial(
                    case,
                    tile[(jj * p + s) * q + t],
                    k_valid,
                    row_sum(s),
                    col_sum(t, j),
                );
                acc += adj << (s + t);
            }
        }
        *out_v = acc;
    }
}

/// Reusable per-call scratch for the sequential (workspace) APMM path:
/// the activation-side correction table and the raw accumulator buffer.
/// Size it once with [`ApmmScratch::reserve`] (at the plan's full batch);
/// every later call — full or partial shard — is then allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ApmmScratch {
    /// Flat `q × n` activation column sums (input-dependent, rebuilt per
    /// call in place).
    pub(crate) col_sums: Vec<i32>,
    /// Raw `m × n` i32 accumulators for fused executions.
    pub(crate) acc: Vec<i32>,
}

impl ApmmScratch {
    /// Pre-size the scratch: `col_sums` activation-correction entries
    /// (`x_bits × batch`) and `acc` accumulator elements (`m × batch`).
    pub fn reserve(&mut self, col_sums: usize, acc: usize) {
        self.col_sums
            .reserve(col_sums.saturating_sub(self.col_sums.len()));
        self.acc.reserve(acc.saturating_sub(self.acc.len()));
    }
}

/// The APMM driver: multiply packed `w` (rows = output features) against
/// packed `x` (rows = batch; may carry *fewer* rows than `desc.n` when a
/// compiled plan serves a partial shard) on the **calling thread**, with
/// every buffer caller-owned. `w_row_sums` are the weight-side corrections
/// from [`weight_row_sums`]; `col_sums` is rebuilt per call. Once the
/// buffers have reached the plan's full-batch capacity the call performs
/// zero heap allocations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apmm_exec_seq(
    desc: &ApmmDesc,
    w: &BitPlanes,
    x: &BitPlanes,
    eplan: EmulationPlan,
    w_row_sums: &[Vec<i32>],
    micro: MicroTile,
    arm: PopcntArm,
    col_sums: &mut Vec<i32>,
    out: &mut Vec<i32>,
) {
    let m = desc.m;
    let n = x.rows();
    assert!(n <= desc.n, "activation batch exceeds plan batch");
    let (p, q) = (desc.w_bits as usize, desc.x_bits as usize);
    let k_valid = desc.k as i32;
    assert_eq!(
        w.plane(0).padded_cols(),
        x.plane(0).padded_cols(),
        "operands must share padded K"
    );

    // Every accumulator is stored by the loop below — no zeroing pass.
    apnn_bitpack::resize_for_overwrite(out, m * n);
    if n == 0 {
        col_sums.clear();
        return;
    }

    let (needs_row, needs_col) = correction_needs(eplan.case);
    if needs_col {
        // Every entry is stored below — reshape without the zeroing pass.
        apnn_bitpack::resize_for_overwrite(col_sums, q * n);
        for t in 0..q {
            let plane = x.plane(t as u32);
            for j in 0..n {
                col_sums[t * n + j] = plane.row_popcount(j) as i32;
            }
        }
    } else {
        col_sums.clear();
    }

    let MicroTile { jb, kb } = micro.sanitized();
    let arm = arm.sanitized();
    let w_view = PlaneView::from_bitplanes(w);
    let x_view = PlaneView::from_bitplanes(x);
    let mut tile = [0i32; MAX_TILE];
    for i in 0..m {
        let row_out = &mut out[i * n..(i + 1) * n];
        let mut j0 = 0;
        while j0 < n {
            let jbc = jb.min(n - j0);
            let live = &mut tile[..jbc * p * q];
            popc_tile(eplan.op, arm, &w_view, i, &x_view, j0, jbc, kb, live);
            combine_apmm_block(
                eplan.case,
                live,
                (p, q),
                k_valid,
                j0,
                |s| if needs_row { w_row_sums[s][i] } else { 0 },
                |t, j| if needs_col { col_sums[t * n + j] } else { 0 },
                &mut row_out[j0..j0 + jbc],
            );
            j0 += jbc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apmm::Apmm;
    use crate::emulate::decoded_reference;
    use apnn_bitpack::Encoding;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn rand_codes(len: usize, bits: u32, seed: &mut u64) -> Vec<u32> {
        (0..len).map(|_| (lcg(seed) as u32) % (1 << bits)).collect()
    }

    fn rand_signs(len: usize, seed: &mut u64) -> Vec<i32> {
        (0..len)
            .map(|_| if lcg(seed) & 1 == 0 { -1 } else { 1 })
            .collect()
    }

    #[test]
    fn unsigned_matches_reference_various_shapes() {
        let mut seed = 11;
        for (m, n, k, p, q) in [
            (1, 1, 1, 1, 1),
            (8, 8, 128, 1, 2),
            (33, 65, 200, 2, 2),
            (64, 128, 512, 3, 5),
            (5, 3, 1000, 8, 8),
        ] {
            let wc = rand_codes(m * k, p, &mut seed);
            let xc = rand_codes(n * k, q, &mut seed);
            let w = BitPlanes::from_codes(&wc, m, k, p, Encoding::ZeroOne);
            let x = BitPlanes::from_codes(&xc, n, k, q, Encoding::ZeroOne);
            let desc = ApmmDesc::unsigned(m, n, k, p, q);
            assert_eq!(
                Apmm::new(desc).execute(&w, &x),
                decoded_reference(&w, &x),
                "shape {m}x{n}x{k} w{p}a{q}"
            );
        }
    }

    #[test]
    fn signed_binary_matches_reference() {
        let mut seed = 13;
        let (m, n, k) = (24, 40, 300);
        let w = BitPlanes::from_signed_binary(&rand_signs(m * k, &mut seed), m, k);
        let x = BitPlanes::from_signed_binary(&rand_signs(n * k, &mut seed), n, k);
        let desc = ApmmDesc::w1aq(m, n, k, 1, Encoding::PlusMinusOne);
        assert_eq!(Apmm::new(desc).execute(&w, &x), decoded_reference(&w, &x));
    }

    #[test]
    fn w1aq_case3_matches_reference() {
        let mut seed = 17;
        for q in [2u32, 3, 4, 8] {
            let (m, n, k) = (16, 20, 250);
            let w = BitPlanes::from_signed_binary(&rand_signs(m * k, &mut seed), m, k);
            let x =
                BitPlanes::from_codes(&rand_codes(n * k, q, &mut seed), n, k, q, Encoding::ZeroOne);
            let desc = ApmmDesc::w1aq(m, n, k, q, Encoding::ZeroOne);
            assert_eq!(
                Apmm::new(desc).execute(&w, &x),
                decoded_reference(&w, &x),
                "w1a{q}"
            );
        }
    }

    #[test]
    fn mirrored_case3_matches_reference() {
        let mut seed = 19;
        let (m, n, k, p) = (12, 9, 130, 4);
        let w = BitPlanes::from_codes(&rand_codes(m * k, p, &mut seed), m, k, p, Encoding::ZeroOne);
        let x = BitPlanes::from_signed_binary(&rand_signs(n * k, &mut seed), n, k);
        let desc = ApmmDesc {
            m,
            n,
            k,
            w_bits: p,
            x_bits: 1,
            w_enc: Encoding::ZeroOne,
            x_enc: Encoding::PlusMinusOne,
        };
        assert_eq!(Apmm::new(desc).execute(&w, &x), decoded_reference(&w, &x));
    }

    #[test]
    fn xor_only_plan_matches_ampere_plan_every_case() {
        // Turing (XOR-only) plans must produce identical products.
        use crate::select::plan_xor_only;
        let mut seed = 29;
        let cases = [
            (Encoding::ZeroOne, Encoding::ZeroOne, 3u32, 2u32),
            (Encoding::PlusMinusOne, Encoding::ZeroOne, 1, 4),
            (Encoding::ZeroOne, Encoding::PlusMinusOne, 2, 1),
            (Encoding::PlusMinusOne, Encoding::PlusMinusOne, 1, 1),
        ];
        for (w_enc, x_enc, p, q) in cases {
            let (m, n, k) = (14, 22, 250);
            let desc = ApmmDesc {
                m,
                n,
                k,
                w_bits: p,
                x_bits: q,
                w_enc,
                x_enc,
            };
            let mk = |rows: usize, bits: u32, enc: Encoding, seed: &mut u64| {
                if enc == Encoding::PlusMinusOne {
                    BitPlanes::from_signed_binary(&rand_signs(rows * k, seed), rows, k)
                } else {
                    BitPlanes::from_codes(&rand_codes(rows * k, bits, seed), rows, k, bits, enc)
                }
            };
            let w = mk(m, p, w_enc, &mut seed);
            let x = mk(n, q, x_enc, &mut seed);
            let ampere = Apmm::new(desc).execute(&w, &x);
            let turing = Apmm::new(desc)
                .prepare(w)
                .with_plan(plan_xor_only(w_enc, x_enc))
                .execute(&x);
            assert_eq!(ampere, turing, "{w_enc:?}/{x_enc:?} w{p}a{q}");
        }
    }

    #[test]
    fn sequential_core_matches_oracle_every_case_and_shard() {
        let mut seed = 37;
        let cases = [
            (Encoding::ZeroOne, Encoding::ZeroOne, 3u32, 2u32),
            (Encoding::PlusMinusOne, Encoding::ZeroOne, 1, 4),
            (Encoding::ZeroOne, Encoding::PlusMinusOne, 2, 1),
            (Encoding::PlusMinusOne, Encoding::PlusMinusOne, 1, 1),
        ];
        for (w_enc, x_enc, p, q) in cases {
            let (m, n, k) = (13, 21, 230);
            let desc = ApmmDesc {
                m,
                n,
                k,
                w_bits: p,
                x_bits: q,
                w_enc,
                x_enc,
            };
            let mk = |rows: usize, bits: u32, enc: Encoding, seed: &mut u64| {
                if enc == Encoding::PlusMinusOne {
                    BitPlanes::from_signed_binary(&rand_signs(rows * k, seed), rows, k)
                } else {
                    BitPlanes::from_codes(&rand_codes(rows * k, bits, seed), rows, k, bits, enc)
                }
            };
            let w = mk(m, p, w_enc, &mut seed);
            let x = mk(n, q, x_enc, &mut seed);
            let eplan = desc.plan();
            let want = decoded_reference(&w, &x);

            let w_sums = weight_row_sums(&w, eplan);
            let micro = MicroTile { jb: 4, kb: 2 };
            let arm = PopcntArm::detect();
            let mut col_sums = Vec::new();
            let mut out = Vec::new();
            apmm_exec_seq(
                &desc,
                &w,
                &x,
                eplan,
                &w_sums,
                micro,
                arm,
                &mut col_sums,
                &mut out,
            );
            assert_eq!(out, want, "{w_enc:?}/{x_enc:?} w{p}a{q}");

            // Partial shard through the same reused buffers.
            let half = n / 2;
            let xh = if x_enc == Encoding::PlusMinusOne {
                BitPlanes::from_signed_binary(&x.values()[..half * k], half, k)
            } else {
                BitPlanes::from_codes(
                    &x.reconstruct_codes()[..half * k],
                    half,
                    k,
                    q,
                    Encoding::ZeroOne,
                )
            };
            apmm_exec_seq(
                &desc,
                &w,
                &xh,
                eplan,
                &w_sums,
                micro,
                arm,
                &mut col_sums,
                &mut out,
            );
            for i in 0..m {
                for j in 0..half {
                    assert_eq!(out[i * half + j], want[i * n + j]);
                }
            }
        }
    }

    #[test]
    fn zero_row_batches_yield_empty_products_on_every_path() {
        // Regression: a zero-row shard once got a fabricated chunk width of
        // `n.max(1)`; the empty shard must produce the (empty) `m × 0`
        // product on both the allocating and the workspace form, without
        // panicking.
        let mut seed = 41;
        let (m, k, p, q) = (7, 200, 2u32, 2u32);
        let wc = rand_codes(m * k, p, &mut seed);
        let w = BitPlanes::from_codes(&wc, m, k, p, Encoding::ZeroOne);
        let x0 = BitPlanes::from_codes(&[], 0, k, q, Encoding::ZeroOne);
        let desc = ApmmDesc::unsigned(m, 4, k, p, q);
        let eplan = desc.plan();
        let micro = MicroTile { jb: 8, kb: 16 };

        let arm = PopcntArm::detect();
        let y = Apmm::new(desc).prepare(w.clone()).execute(&x0);
        assert!(y.is_empty(), "m×0 product must be empty");

        let w_sums = weight_row_sums(&w, eplan);
        let mut col_sums = vec![1i32; 3]; // stale state must be cleared
        let mut out = vec![7i32; 5];
        apmm_exec_seq(
            &desc,
            &w,
            &x0,
            eplan,
            &w_sums,
            micro,
            arm,
            &mut col_sums,
            &mut out,
        );
        assert!(out.is_empty());
        assert!(col_sums.is_empty());
    }

    #[test]
    fn every_micro_tile_is_bit_identical() {
        let mut seed = 43;
        let (m, n, k, p, q) = (9, 13, 310, 2, 3);
        let wc = rand_codes(m * k, p, &mut seed);
        let xc = rand_codes(n * k, q, &mut seed);
        let w = BitPlanes::from_codes(&wc, m, k, p, Encoding::ZeroOne);
        let x = BitPlanes::from_codes(&xc, n, k, q, Encoding::ZeroOne);
        let want = decoded_reference(&w, &x);
        let prepared = Apmm::new(ApmmDesc::unsigned(m, n, k, p, q)).prepare(w);
        for jb in [1usize, 2, 3, 8] {
            for kb in [1usize, 4, 64] {
                let got = prepared
                    .clone()
                    .with_micro(MicroTile { jb, kb })
                    .execute(&x);
                assert_eq!(got, want, "jb={jb} kb={kb}");
            }
        }
    }

    #[test]
    fn every_available_arm_is_bit_identical() {
        let mut seed = 47;
        let (m, n, k, p, q) = (11, 17, 290, 3, 2);
        let w = BitPlanes::from_codes(&rand_codes(m * k, p, &mut seed), m, k, p, Encoding::ZeroOne);
        let x = BitPlanes::from_codes(&rand_codes(n * k, q, &mut seed), n, k, q, Encoding::ZeroOne);
        let want = decoded_reference(&w, &x);
        let prepared = Apmm::new(ApmmDesc::unsigned(m, n, k, p, q))
            .prepare(w)
            .with_micro(MicroTile { jb: 4, kb: 16 });
        for arm in PopcntArm::ALL {
            let got = prepared.clone().with_arm(arm).execute(&x);
            assert_eq!(got, want, "{arm:?}");
        }
    }

    #[test]
    fn ad_hoc_entry_point_reuses_the_shape_keyed_memo() {
        // `Apmm::execute` must not re-run tile selection on every call — the first call per shape selects (and, in measured
        // mode, benches) once; repeats move neither counter. The shape is
        // unique to this test so the first call is a guaranteed memo miss.
        let mut seed = 53;
        let (m, n, k, p, q) = (6, 19, 331, 2, 2);
        let w = BitPlanes::from_codes(&rand_codes(m * k, p, &mut seed), m, k, p, Encoding::ZeroOne);
        let x = BitPlanes::from_codes(&rand_codes(n * k, q, &mut seed), n, k, q, Encoding::ZeroOne);
        let desc = ApmmDesc::unsigned(m, n, k, p, q);

        let s = crate::stats::scope();
        let y1 = Apmm::new(desc).execute(&w, &x);
        assert_eq!(s.micro_tunes(), 1, "first call per shape selects once");
        assert!(s.micro_benches() <= 1);
        let (tunes, benches) = (s.micro_tunes(), s.micro_benches());
        let y2 = Apmm::new(desc).execute(&w, &x);
        let y3 = Apmm::new(desc).execute(&w, &x);
        assert_eq!(
            (s.micro_tunes(), s.micro_benches()),
            (tunes, benches),
            "repeat calls must be memo hits"
        );
        assert_eq!(y1, y2);
        assert_eq!(y1, y3);
    }

    #[test]
    fn agrees_with_fragment_template() {
        let mut seed = 23;
        let (m, n, k, p, q) = (17, 15, 260, 2, 3);
        let w = BitPlanes::from_codes(&rand_codes(m * k, p, &mut seed), m, k, p, Encoding::ZeroOne);
        let x = BitPlanes::from_codes(&rand_codes(n * k, q, &mut seed), n, k, q, Encoding::ZeroOne);
        let desc = ApmmDesc::unsigned(m, n, k, p, q);
        assert_eq!(
            Apmm::new(desc).execute(&w, &x),
            crate::emulate::ap_bit_mm(&w, &x)
        );
    }
}
