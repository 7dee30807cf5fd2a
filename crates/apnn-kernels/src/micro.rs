//! The register-blocked multi-plane popcount microkernel — the **one**
//! inner loop every functional kernel path runs on.
//!
//! The paper's AP-BMMA tiles bit-planes through the memory hierarchy:
//! operand fragments are loaded once and reused across all `p·q`
//! plane-pair products, with batch-based double caching keeping them hot
//! (§4–5). The CPU analogue here is [`popc_tile`]: a single pass over the
//! packed K words that
//!
//! * walks K in `KB`-word blocks, so each streamed chunk of every plane is
//!   cache-resident while **all** plane pairs consume it (the old kernels
//!   re-streamed the whole activation row once per `(s, t)` pair);
//! * blocks `JB` B-side columns (batch columns for APMM, output channels
//!   for APConv) over each A-side chunk, amortizing those loads `JB`-fold
//!   — the register/L1 form of the paper's fragment reuse;
//! * accumulates all `pa·pb` plane-pair popcounts of the block into one
//!   stack-resident i32 tile, combining the words with the Harley–Seal
//!   merged popcount of [`apnn_bitpack::word`].
//!
//! Every accumulator is exact i32 arithmetic, so **any** tile shape is
//! bit-identical to any other (and to the pre-microkernel kernels): tiling
//! moves throughput, never results. The differential proptests drive this
//! across all emulation cases × block sizes × partial shards.

use apnn_bitpack::popcnt::{and_popcount_arm, xor_popcount_arm};
use apnn_bitpack::word::{and_popcount, xor_popcount};
use apnn_bitpack::{BitPlanes, PopcntArm};
use apnn_sim::BmmaOp;

use crate::autotune::MAX_JB;

/// Maximum plane count per operand (codes are 1..=8 bits wide).
pub const MAX_PLANES: usize = 8;

/// Stack accumulator capacity: a full column block at maximal plane
/// counts. Kernels declare `[i32; MAX_TILE]` locals and slice them to the
/// live `jb·pa·pb` prefix.
pub const MAX_TILE: usize = MAX_JB * MAX_PLANES * MAX_PLANES;

/// A bit-plane operand viewed as `planes × rows` of equal-width word rows
/// — the one shape both kernel families feed the microkernel: packed
/// [`BitPlanes`] matrices (weights, activations) and the conv window
/// scratch (a flat `q × plane_words` gather).
#[derive(Debug, Clone, Copy)]
pub struct PlaneView<'a> {
    planes: [&'a [u64]; MAX_PLANES],
    n_planes: usize,
    words_per_row: usize,
}

impl<'a> PlaneView<'a> {
    /// View a packed [`BitPlanes`] operand (each plane's rows are
    /// contiguous at the matrix's padded word stride).
    pub fn from_bitplanes(p: &'a BitPlanes) -> Self {
        let n_planes = p.bits() as usize;
        assert!(n_planes <= MAX_PLANES, "plane counts are 1..=8");
        let words_per_row = p.plane(0).words_per_row();
        let mut planes: [&'a [u64]; MAX_PLANES] = [&[]; MAX_PLANES];
        for (s, slot) in planes.iter_mut().enumerate().take(n_planes) {
            *slot = p.plane(s as u32).words();
        }
        PlaneView {
            planes,
            n_planes,
            words_per_row,
        }
    }

    /// View a flat single-row gather: `n_planes` consecutive
    /// `words_per_row`-word planes (the conv window scratch layout).
    pub fn from_flat(words: &'a [u64], n_planes: usize, words_per_row: usize) -> Self {
        assert!(n_planes <= MAX_PLANES, "plane counts are 1..=8");
        assert!(words.len() >= n_planes * words_per_row);
        let mut planes: [&'a [u64]; MAX_PLANES] = [&[]; MAX_PLANES];
        for (s, slot) in planes.iter_mut().enumerate().take(n_planes) {
            *slot = &words[s * words_per_row..(s + 1) * words_per_row];
        }
        PlaneView {
            planes,
            n_planes,
            words_per_row,
        }
    }

    /// Plane count.
    #[inline]
    pub fn n_planes(&self) -> usize {
        self.n_planes
    }

    /// Words per logical row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The `[k0, k0+len)` word chunk of `row` in `plane`.
    #[inline]
    fn chunk(&self, plane: usize, row: usize, k0: usize, len: usize) -> &'a [u64] {
        let base = row * self.words_per_row + k0;
        &self.planes[plane][base..base + len]
    }
}

/// Accumulate the raw plane-pair popcounts of a `jb`-wide column block in
/// one K pass:
///
/// `tile[(j·pa + s)·pb + u] = Σ_k popc(op(A[s][ai][k], B[u][bj0+j][k]))`
///
/// for every A plane `s`, B plane `u` and block column `j`. K is walked in
/// `kb`-word rounds; within a round the A chunks are hoisted once and
/// every `(j, u)` chunk is combined against all of them while hot. The
/// counts are exact, so the caller's correction/shift-add step
/// ([`crate::select::adjust_partial`]) sees the same integers the
/// un-tiled kernels produced.
///
/// `arm` names the merged-popcount implementation the chunks run on
/// ([`PopcntArm`], bound once per plan at compile time); every arm is
/// bit-identical, so it moves throughput only. The [`PopcntArm::Scalar`]
/// arm keeps the historical compile-time dispatch (and its auto-vectorized
/// codegen under `target-cpu=native`); the SIMD arms reach explicit
/// `core::arch` reductions regardless of build flags.
#[allow(clippy::too_many_arguments)]
pub fn popc_tile(
    op: BmmaOp,
    arm: PopcntArm,
    a: &PlaneView<'_>,
    ai: usize,
    b: &PlaneView<'_>,
    bj0: usize,
    jb: usize,
    kb: usize,
    tile: &mut [i32],
) {
    match (op, arm) {
        (BmmaOp::And, PopcntArm::Scalar) => {
            popc_tile_with(a, ai, b, bj0, jb, kb, tile, and_popcount)
        }
        (BmmaOp::Xor, PopcntArm::Scalar) => {
            popc_tile_with(a, ai, b, bj0, jb, kb, tile, xor_popcount)
        }
        (BmmaOp::And, arm) => popc_tile_with(a, ai, b, bj0, jb, kb, tile, |x, y| {
            and_popcount_arm(arm, x, y)
        }),
        (BmmaOp::Xor, arm) => popc_tile_with(a, ai, b, bj0, jb, kb, tile, |x, y| {
            xor_popcount_arm(arm, x, y)
        }),
    }
}

/// [`popc_tile`] monomorphized over the combining popcount, so the op
/// dispatch happens once per call instead of once per word.
#[allow(clippy::too_many_arguments)]
#[inline]
fn popc_tile_with(
    a: &PlaneView<'_>,
    ai: usize,
    b: &PlaneView<'_>,
    bj0: usize,
    jb: usize,
    kb: usize,
    tile: &mut [i32],
    popc: impl Fn(&[u64], &[u64]) -> u32,
) {
    let (pa, pb) = (a.n_planes, b.n_planes);
    let kw = a.words_per_row;
    debug_assert_eq!(kw, b.words_per_row, "operands must share padded K");
    debug_assert_eq!(tile.len(), jb * pa * pb, "accumulator tile mis-sized");
    tile.fill(0);
    let kb = kb.max(1);
    let mut k0 = 0;
    while k0 < kw {
        let len = kb.min(kw - k0);
        // Hoist the A-side chunks: every (j, u) pair of the block reuses
        // them while they are hot.
        let a_chunks: [&[u64]; MAX_PLANES] =
            std::array::from_fn(|s| if s < pa { a.chunk(s, ai, k0, len) } else { &[] });
        for j in 0..jb {
            for u in 0..pb {
                let b_chunk = b.chunk(u, bj0 + j, k0, len);
                let row = &mut tile[(j * pa) * pb..(j * pa + pa) * pb];
                for (s, a_chunk) in a_chunks[..pa].iter().enumerate() {
                    row[s * pb + u] += popc(a_chunk, b_chunk) as i32;
                }
            }
        }
        k0 += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apnn_bitpack::Encoding;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// The naive per-pair reference the microkernel must reproduce.
    fn naive_tile(
        op: BmmaOp,
        w: &BitPlanes,
        i: usize,
        x: &BitPlanes,
        j0: usize,
        jb: usize,
    ) -> Vec<i32> {
        let (pa, pb) = (w.bits() as usize, x.bits() as usize);
        let mut out = vec![0i32; jb * pa * pb];
        for j in 0..jb {
            for (s, cell) in out[j * pa * pb..(j + 1) * pa * pb]
                .chunks_mut(pb)
                .enumerate()
            {
                for (u, v) in cell.iter_mut().enumerate() {
                    let a_row = w.plane(s as u32).row_words(i);
                    let b_row = x.plane(u as u32).row_words(j0 + j);
                    *v = a_row
                        .iter()
                        .zip(b_row)
                        .map(|(&aw, &bw)| match op {
                            BmmaOp::And => (aw & bw).count_ones(),
                            BmmaOp::Xor => (aw ^ bw).count_ones(),
                        })
                        .sum::<u32>() as i32;
                }
            }
        }
        out
    }

    #[test]
    fn tile_matches_naive_for_every_block_shape() {
        let mut seed = 5;
        let (m, n, k) = (5, 9, 300);
        for (p, q) in [(1u32, 1u32), (1, 2), (2, 2), (3, 5), (8, 8)] {
            let wc: Vec<u32> = (0..m * k)
                .map(|_| (lcg(&mut seed) as u32) % (1 << p))
                .collect();
            let xc: Vec<u32> = (0..n * k)
                .map(|_| (lcg(&mut seed) as u32) % (1 << q))
                .collect();
            let w = BitPlanes::from_codes(&wc, m, k, p, Encoding::ZeroOne);
            let x = BitPlanes::from_codes(&xc, n, k, q, Encoding::ZeroOne);
            let (wv, xv) = (PlaneView::from_bitplanes(&w), PlaneView::from_bitplanes(&x));
            for op in [BmmaOp::And, BmmaOp::Xor] {
                for arm in PopcntArm::ALL {
                    for jb in [1usize, 2, 3, 8] {
                        for kb in [1usize, 2, 4, 64] {
                            let jb = jb.min(n);
                            let mut tile = [0i32; MAX_TILE];
                            let live = &mut tile[..jb * p as usize * q as usize];
                            popc_tile(op, arm, &wv, 2, &xv, 1, jb, kb, live);
                            assert_eq!(
                                live,
                                &naive_tile(op, &w, 2, &x, 1, jb)[..],
                                "w{p}a{q} {op:?} {arm:?} jb={jb} kb={kb}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flat_view_matches_bitplanes_view() {
        // A flat single-row gather must behave exactly like a one-row
        // BitPlanes operand.
        let mut seed = 11;
        let (k, q) = (260, 3u32);
        let xc: Vec<u32> = (0..k).map(|_| (lcg(&mut seed) as u32) % (1 << q)).collect();
        let x = BitPlanes::from_codes(&xc, 1, k, q, Encoding::ZeroOne);
        let wpr = x.plane(0).words_per_row();
        let flat: Vec<u64> = (0..q)
            .flat_map(|t| x.plane(t).row_words(0).to_vec())
            .collect();
        let wc: Vec<u32> = (0..2 * k).map(|_| (lcg(&mut seed) as u32) % 4).collect();
        let w = BitPlanes::from_codes(&wc, 2, k, 2, Encoding::ZeroOne);

        let fv = PlaneView::from_flat(&flat, q as usize, wpr);
        let xv = PlaneView::from_bitplanes(&x);
        let wv = PlaneView::from_bitplanes(&w);
        let mut t1 = [0i32; MAX_TILE];
        let mut t2 = [0i32; MAX_TILE];
        let live = 2 * q as usize * 2;
        for arm in PopcntArm::ALL {
            popc_tile(BmmaOp::And, arm, &fv, 0, &wv, 0, 2, 8, &mut t1[..live]);
            popc_tile(BmmaOp::And, arm, &xv, 0, &wv, 0, 2, 8, &mut t2[..live]);
            assert_eq!(t1, t2, "{arm:?}");
        }
    }
}
