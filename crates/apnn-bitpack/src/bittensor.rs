//! Channel-major bit-packed activation tensors — the paper's **NPHWC**
//! data organization (§4.2(a), Fig. 4).
//!
//! Two design choices from the paper:
//! 1. A `P`-bit feature map is split into `P` one-bit feature maps, each
//!    stored consecutively, so every plane is individually bit-addressable
//!    and memory accesses stay aligned for any precision `P`.
//! 2. All channels of one spatial location are stored consecutively
//!    (channel-major). Convolutions read whole channel vectors per pixel,
//!    which turns the `K×K` window walk into coalesced 128-bit reads.

use crate::encoding::Encoding;
use crate::tensor::Tensor4;
use crate::word::{pad_to_bmma_k, WORD_BITS};

/// A bit-packed 4-D activation tensor in NPHWC order:
/// `[batch][plane][height][width][channel-bits]`.
///
/// The channel dimension is padded to a multiple of 128 bits and padding bits
/// are always zero (same invariant as [`crate::BitMatrix`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitTensor4 {
    n: usize,
    bits: u32,
    h: usize,
    w: usize,
    c: usize,
    padded_c: usize,
    words_per_pixel: usize,
    encoding: Encoding,
    data: Vec<u64>,
}

impl BitTensor4 {
    /// Zeroed tensor of logical shape `(n, h, w, c)` with `bits` planes.
    pub fn zeros(n: usize, h: usize, w: usize, c: usize, bits: u32, encoding: Encoding) -> Self {
        assert!((1..=8).contains(&bits));
        if encoding == Encoding::PlusMinusOne {
            assert_eq!(bits, 1, "±1 encoding is one bit wide");
        }
        let padded_c = pad_to_bmma_k(c);
        let words_per_pixel = padded_c / WORD_BITS;
        BitTensor4 {
            n,
            bits,
            h,
            w,
            c,
            padded_c,
            words_per_pixel,
            encoding,
            data: vec![0u64; n * bits as usize * h * w * words_per_pixel],
        }
    }

    /// Pack a dense tensor of unsigned codes (`< 2^bits`) into NPHWC planes.
    /// Accepts any input [`crate::Layout`].
    pub fn from_tensor(codes: &Tensor4<u32>, bits: u32, encoding: Encoding) -> Self {
        let (n, c, h, w) = codes.shape();
        let mut t = Self::zeros(n, h, w, c, bits, encoding);
        for in_ in 0..n {
            for ih in 0..h {
                for iw in 0..w {
                    for ic in 0..c {
                        t.set_code(in_, ih, iw, ic, codes.get(in_, ic, ih, iw));
                    }
                }
            }
        }
        t
    }

    /// Logical shape `(n, h, w, c)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.h, self.w, self.c)
    }

    /// Number of bit planes `P`.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Operand encoding.
    #[inline]
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Channel count after 128-bit padding.
    #[inline]
    pub fn padded_c(&self) -> usize {
        self.padded_c
    }

    /// Packed words per (plane, pixel) channel vector.
    #[inline]
    pub fn words_per_pixel(&self) -> usize {
        self.words_per_pixel
    }

    /// Total packed size in bytes (the global-memory footprint the paper's
    /// minimal-traffic dataflow accounts for).
    #[inline]
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// Reshape this tensor in place to `(n, h, w, c)` with `bits` planes,
    /// zeroing every bit and **reusing the backing store**: once the tensor
    /// has been sized at its peak shape, later resets to any shape that
    /// fits the allocated capacity perform zero heap allocations. This is
    /// the workspace-slot rebuild primitive behind steady-state serving.
    pub fn reset_zeros(
        &mut self,
        n: usize,
        h: usize,
        w: usize,
        c: usize,
        bits: u32,
        encoding: Encoding,
    ) {
        assert!((1..=8).contains(&bits));
        if encoding == Encoding::PlusMinusOne {
            assert_eq!(bits, 1, "±1 encoding is one bit wide");
        }
        let padded_c = pad_to_bmma_k(c);
        let words_per_pixel = padded_c / WORD_BITS;
        self.data.clear();
        self.data
            .resize(n * bits as usize * h * w * words_per_pixel, 0);
        self.n = n;
        self.bits = bits;
        self.h = h;
        self.w = w;
        self.c = c;
        self.padded_c = padded_c;
        self.words_per_pixel = words_per_pixel;
        self.encoding = encoding;
    }

    /// [`BitTensor4::reset_zeros`] without the zeroing pass, for callers
    /// that immediately overwrite **every** image slot with
    /// [`BitTensor4::copy_image_from`] (gather/concat coalescing): the
    /// surviving prefix of the backing store keeps stale bits, which is
    /// sound only because a full-stride image copy — from a tensor whose
    /// own padding is zero — replaces all of them. Any region grown beyond
    /// the previous length is zero-filled.
    pub fn reset_for_overwrite(
        &mut self,
        n: usize,
        h: usize,
        w: usize,
        c: usize,
        bits: u32,
        encoding: Encoding,
    ) {
        assert!((1..=8).contains(&bits));
        if encoding == Encoding::PlusMinusOne {
            assert_eq!(bits, 1, "±1 encoding is one bit wide");
        }
        let padded_c = pad_to_bmma_k(c);
        let words_per_pixel = padded_c / WORD_BITS;
        let len = n * bits as usize * h * w * words_per_pixel;
        self.data.truncate(len);
        self.data.resize(len, 0);
        self.n = n;
        self.bits = bits;
        self.h = h;
        self.w = w;
        self.c = c;
        self.padded_c = padded_c;
        self.words_per_pixel = words_per_pixel;
        self.encoding = encoding;
    }

    /// Copy image `src_index` of `src` into slot `dst_index` of `self` —
    /// one contiguous word-level memcpy, no allocation. Both tensors must
    /// agree on per-image geometry (`h × w × c`, bits, encoding).
    pub fn copy_image_from(&mut self, src: &BitTensor4, src_index: usize, dst_index: usize) {
        assert_eq!(
            (src.h, src.w, src.c, src.bits, src.encoding),
            (self.h, self.w, self.c, self.bits, self.encoding),
            "copy_image_from tensors disagree on image geometry"
        );
        assert!(src_index < src.n, "source image index out of range");
        assert!(dst_index < self.n, "destination image index out of range");
        let stride = self.image_stride();
        self.data[dst_index * stride..(dst_index + 1) * stride]
            .copy_from_slice(src.image_words(src_index));
    }

    /// Copy images `[start, start + len)` into a new tensor. The NPHWC
    /// layout is batch-major, so this is one contiguous memcpy — the batch
    /// sharding primitive behind the allocating conv's image shards.
    pub fn batch_slice(&self, start: usize, len: usize) -> BitTensor4 {
        assert!(start + len <= self.n, "batch slice out of range");
        let stride = self.image_stride();
        BitTensor4 {
            n: len,
            bits: self.bits,
            h: self.h,
            w: self.w,
            c: self.c,
            padded_c: self.padded_c,
            words_per_pixel: self.words_per_pixel,
            encoding: self.encoding,
            data: self.data[start * stride..(start + len) * stride].to_vec(),
        }
    }

    /// Reserve backing-store capacity for `n` images of the given
    /// per-image geometry without reshaping or writing anything. Pair
    /// with [`BitTensor4::fill_from_batch_range`]: one up-front
    /// reservation at the peak width makes every later fill — any shard
    /// width, in any order — allocation-free.
    pub fn reserve_images(&mut self, n: usize, h: usize, w: usize, c: usize, bits: u32) {
        let words = n * bits as usize * h * w * (pad_to_bmma_k(c) / WORD_BITS);
        self.data.reserve(words.saturating_sub(self.data.len()));
    }

    /// Reshape to `len` images of `src`'s per-image geometry and copy
    /// images `[start, start + len)` of `src` in — **one contiguous
    /// word-level memcpy** (the NPHWC layout is batch-major), and nothing
    /// else: shrinking truncates, growing appends the copied words
    /// directly, so no byte is ever zero-filled only to be overwritten.
    /// This is the shard-staging primitive of the parallel batched
    /// execution path; reserve capacity once at the peak width
    /// ([`BitTensor4::reserve_images`]) and every fill is allocation-free.
    pub fn fill_from_batch_range(&mut self, src: &BitTensor4, start: usize, len: usize) {
        assert!(start + len <= src.n, "batch range out of bounds");
        let stride = src.image_stride();
        let need = len * stride;
        let src_words = &src.data[start * stride..(start + len) * stride];
        let have = self.data.len().min(need);
        self.data.truncate(have);
        self.data[..have].copy_from_slice(&src_words[..have]);
        self.data.extend_from_slice(&src_words[have..]);
        self.n = len;
        self.bits = src.bits;
        self.h = src.h;
        self.w = src.w;
        self.c = src.c;
        self.padded_c = src.padded_c;
        self.words_per_pixel = src.words_per_pixel;
        self.encoding = src.encoding;
    }

    /// Packed words of one whole image (`[start, start+1)` of the batch).
    #[inline]
    fn image_words(&self, n: usize) -> &[u64] {
        let stride = self.image_stride();
        &self.data[n * stride..(n + 1) * stride]
    }

    /// Packed words per image (all planes × pixels of one batch entry).
    #[inline]
    fn image_stride(&self) -> usize {
        self.bits as usize * self.h * self.w * self.words_per_pixel
    }

    /// Gather images by (possibly non-contiguous, repeated, reordered)
    /// batch indices into a new tensor: `out[i] = self[indices[i]]`.
    ///
    /// This is the request-coalescing primitive of `apnn-serve`: pending
    /// requests land anywhere in a submission buffer, and a serving shard
    /// gathers exactly the images it owns. Word-level copies — no
    /// per-element re-packing.
    pub fn batch_gather(&self, indices: &[usize]) -> BitTensor4 {
        let mut out = BitTensor4::zeros(0, self.h, self.w, self.c, self.bits, self.encoding);
        self.batch_gather_into(indices, &mut out);
        out
    }

    /// [`batch_gather`] writing into a caller-owned tensor: `out` is
    /// reshaped in place (see [`BitTensor4::reset_zeros`]) and filled with
    /// word-level image copies, so a serving worker that keeps one
    /// coalescing buffer per thread gathers every batch without touching
    /// the allocator once the buffer has reached its peak size.
    ///
    /// [`batch_gather`]: BitTensor4::batch_gather
    pub fn batch_gather_into(&self, indices: &[usize], out: &mut BitTensor4) {
        // Every slot is overwritten below, so skip the zeroing pass.
        out.reset_for_overwrite(
            indices.len(),
            self.h,
            self.w,
            self.c,
            self.bits,
            self.encoding,
        );
        for (slot, &i) in indices.iter().enumerate() {
            assert!(
                i < self.n,
                "batch_gather index {i} out of range ({})",
                self.n
            );
            out.copy_image_from(self, i, slot);
        }
    }

    /// Concatenate tensors along the batch dimension (the scatter-side
    /// inverse of [`batch_gather`]): coalesces single-image requests into
    /// one contiguous batch. All parts must agree on shape, bit width and
    /// encoding; empty parts (n = 0) contribute nothing.
    ///
    /// [`batch_gather`]: BitTensor4::batch_gather
    pub fn concat_images(parts: &[&BitTensor4]) -> BitTensor4 {
        let first = parts
            .first()
            .expect("concat_images needs at least one part");
        let mut out = BitTensor4::zeros(0, first.h, first.w, first.c, first.bits, first.encoding);
        Self::concat_images_into(parts, &mut out);
        out
    }

    /// [`concat_images`] writing into a caller-owned tensor (reshaped in
    /// place, allocation-free once `out` has reached its peak capacity).
    ///
    /// [`concat_images`]: BitTensor4::concat_images
    pub fn concat_images_into(parts: &[&BitTensor4], out: &mut BitTensor4) {
        let first = parts
            .first()
            .expect("concat_images needs at least one part");
        let total: usize = parts.iter().map(|p| p.n).sum();
        // Every slot is overwritten below, so skip the zeroing pass.
        out.reset_for_overwrite(total, first.h, first.w, first.c, first.bits, first.encoding);
        let mut slot = 0;
        for p in parts {
            assert_eq!(
                (p.h, p.w, p.c, p.bits, p.encoding),
                (first.h, first.w, first.c, first.bits, first.encoding),
                "concat_images parts disagree on shape/bits/encoding"
            );
            for i in 0..p.n {
                out.copy_image_from(p, i, slot);
                slot += 1;
            }
        }
    }

    #[inline]
    fn pixel_base(&self, n: usize, plane: u32, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && plane < self.bits && h < self.h && w < self.w);
        (((n * self.bits as usize + plane as usize) * self.h + h) * self.w + w)
            * self.words_per_pixel
    }

    /// The packed channel vector of plane `plane` at pixel `(n, h, w)`.
    #[inline]
    pub fn pixel_words(&self, n: usize, plane: u32, h: usize, w: usize) -> &[u64] {
        let base = self.pixel_base(n, plane, h, w);
        &self.data[base..base + self.words_per_pixel]
    }

    /// Mutable packed channel vector (kernel epilogues write through this).
    #[inline]
    pub fn pixel_words_mut(&mut self, n: usize, plane: u32, h: usize, w: usize) -> &mut [u64] {
        let base = self.pixel_base(n, plane, h, w);
        &mut self.data[base..base + self.words_per_pixel]
    }

    /// Read one bit of plane `plane` at `(n, h, w, c)`.
    #[inline]
    pub fn get_bit(&self, n: usize, plane: u32, h: usize, w: usize, c: usize) -> bool {
        debug_assert!(c < self.c);
        let words = self.pixel_words(n, plane, h, w);
        (words[c / WORD_BITS] >> (c % WORD_BITS)) & 1 != 0
    }

    /// Write a full `bits`-wide code at `(n, h, w, c)` across all planes.
    pub fn set_code(&mut self, n: usize, h: usize, w: usize, c: usize, code: u32) {
        debug_assert!(c < self.c);
        debug_assert!(self.bits == 32 || code < (1u32 << self.bits));
        for plane in 0..self.bits {
            let base = self.pixel_base(n, plane, h, w);
            let word = &mut self.data[base + c / WORD_BITS];
            let mask = 1u64 << (c % WORD_BITS);
            if (code >> plane) & 1 != 0 {
                *word |= mask;
            } else {
                *word &= !mask;
            }
        }
    }

    /// Read back the full code at `(n, h, w, c)`.
    pub fn get_code(&self, n: usize, h: usize, w: usize, c: usize) -> u32 {
        let mut code = 0u32;
        for plane in 0..self.bits {
            if self.get_bit(n, plane, h, w, c) {
                code |= 1 << plane;
            }
        }
        code
    }

    /// Unpack into a dense NHWC code tensor (inverse of [`from_tensor`]).
    ///
    /// [`from_tensor`]: BitTensor4::from_tensor
    pub fn to_tensor(&self) -> Tensor4<u32> {
        Tensor4::from_fn(
            self.n,
            self.c,
            self.h,
            self.w,
            crate::tensor::Layout::Nhwc,
            |n, c, h, w| self.get_code(n, h, w, c),
        )
    }

    /// Verify the channel-padding invariant (test helper).
    pub fn padding_is_zero(&self) -> bool {
        for n in 0..self.n {
            for p in 0..self.bits {
                for h in 0..self.h {
                    for w in 0..self.w {
                        let words = self.pixel_words(n, p, h, w);
                        for c in self.c..self.padded_c {
                            if (words[c / WORD_BITS] >> (c % WORD_BITS)) & 1 != 0 {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Layout;

    #[test]
    fn shape_and_padding() {
        let t = BitTensor4::zeros(2, 3, 3, 130, 2, Encoding::ZeroOne);
        assert_eq!(t.shape(), (2, 3, 3, 130));
        assert_eq!(t.padded_c(), 256);
        assert_eq!(t.words_per_pixel(), 4);
        assert!(t.padding_is_zero());
    }

    #[test]
    fn code_roundtrip() {
        let mut t = BitTensor4::zeros(1, 2, 2, 5, 3, Encoding::ZeroOne);
        t.set_code(0, 1, 1, 4, 0b101);
        t.set_code(0, 0, 0, 0, 0b011);
        assert_eq!(t.get_code(0, 1, 1, 4), 0b101);
        assert_eq!(t.get_code(0, 0, 0, 0), 0b011);
        assert_eq!(t.get_code(0, 0, 1, 2), 0);
        // Overwrite clears old bits.
        t.set_code(0, 1, 1, 4, 0b010);
        assert_eq!(t.get_code(0, 1, 1, 4), 0b010);
        assert!(t.padding_is_zero());
    }

    #[test]
    fn from_tensor_roundtrip_nchw() {
        let codes = Tensor4::<u32>::from_fn(2, 4, 3, 3, Layout::Nchw, |n, c, h, w| {
            ((n + c + h + w) % 4) as u32
        });
        let packed = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        let unpacked = packed.to_tensor();
        for n in 0..2 {
            for c in 0..4 {
                for h in 0..3 {
                    for w in 0..3 {
                        assert_eq!(codes.get(n, c, h, w), unpacked.get(n, c, h, w));
                    }
                }
            }
        }
    }

    #[test]
    fn planes_are_contiguous_per_pixel() {
        // Channel-major: the packed words of one (plane, pixel) pair hold all
        // channels; neighbouring channels land in the same word.
        let mut t = BitTensor4::zeros(1, 1, 1, 64, 1, Encoding::ZeroOne);
        for c in 0..64 {
            t.set_code(0, 0, 0, c, (c % 2) as u32);
        }
        let words = t.pixel_words(0, 0, 0, 0);
        assert_eq!(words[0], 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(words[1], 0); // padding word
    }

    #[test]
    fn batch_gather_matches_per_image_slices() {
        let codes = Tensor4::<u32>::from_fn(5, 3, 2, 2, Layout::Nhwc, |n, c, h, w| {
            ((7 * n + 5 * c + 3 * h + w) % 4) as u32
        });
        let t = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        // Reordered, repeated, non-contiguous.
        let idx = [4, 1, 1, 0];
        let g = t.batch_gather(&idx);
        assert_eq!(g.shape(), (4, 2, 2, 3));
        for (out_i, &src) in idx.iter().enumerate() {
            assert_eq!(g.batch_slice(out_i, 1), t.batch_slice(src, 1));
        }
        assert!(g.padding_is_zero());
        // Empty gather is a zero-batch tensor.
        assert_eq!(t.batch_gather(&[]).shape(), (0, 2, 2, 3));
    }

    #[test]
    fn concat_images_inverts_batch_slices() {
        let codes = Tensor4::<u32>::from_fn(4, 2, 3, 3, Layout::Nhwc, |n, c, h, w| {
            ((n + c + 2 * h + w) % 8) as u32
        });
        let t = BitTensor4::from_tensor(&codes, 3, Encoding::ZeroOne);
        let parts: Vec<BitTensor4> = (0..4).map(|i| t.batch_slice(i, 1)).collect();
        let refs: Vec<&BitTensor4> = parts.iter().collect();
        let joined = BitTensor4::concat_images(&refs);
        assert_eq!(joined, t);
        // Uneven split round-trips too.
        let a = t.batch_slice(0, 3);
        let b = t.batch_slice(3, 1);
        assert_eq!(BitTensor4::concat_images(&[&a, &b]), t);
    }

    #[test]
    fn gather_into_reuses_one_buffer_across_shrinking_and_growing_gathers() {
        let codes = Tensor4::<u32>::from_fn(6, 3, 2, 2, Layout::Nhwc, |n, c, h, w| {
            ((11 * n + 5 * c + 3 * h + w) % 4) as u32
        });
        let t = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        let mut buf = BitTensor4::zeros(6, 2, 2, 3, 2, Encoding::ZeroOne);
        for idx in [vec![5, 0, 0, 2, 4, 1], vec![3], vec![1, 1, 2, 0]] {
            t.batch_gather_into(&idx, &mut buf);
            assert_eq!(buf, t.batch_gather(&idx));
        }
        // concat_images_into round-trips through the same reused buffer.
        let a = t.batch_slice(0, 2);
        let b = t.batch_slice(2, 4);
        BitTensor4::concat_images_into(&[&a, &b], &mut buf);
        assert_eq!(buf, t);
    }

    #[test]
    fn fill_from_batch_range_matches_batch_slice_across_widths() {
        let codes = Tensor4::<u32>::from_fn(6, 3, 4, 4, Layout::Nhwc, |n, c, h, w| {
            ((9 * n + 5 * c + 3 * h + w) % 4) as u32
        });
        let t = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        let mut staged = BitTensor4::zeros(0, 1, 1, 1, 1, Encoding::ZeroOne);
        // Shrinking and growing ranges through one reused buffer.
        for (start, len) in [(0, 6), (2, 3), (5, 1), (0, 4), (3, 3)] {
            staged.fill_from_batch_range(&t, start, len);
            assert_eq!(staged, t.batch_slice(start, len), "range {start}+{len}");
            assert!(staged.padding_is_zero());
        }
    }

    #[test]
    fn reset_zeros_reshapes_and_clears() {
        let codes = Tensor4::<u32>::from_fn(2, 4, 3, 3, Layout::Nhwc, |_, _, _, _| 3);
        let mut t = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        t.reset_zeros(1, 2, 2, 200, 1, Encoding::ZeroOne);
        assert_eq!(t.shape(), (1, 2, 2, 200));
        assert_eq!(t.bits(), 1);
        assert_eq!(t.padded_c(), 256);
        assert!(t.padding_is_zero());
        assert_eq!(t.get_code(0, 1, 1, 199), 0);
        assert_eq!(t, BitTensor4::zeros(1, 2, 2, 200, 1, Encoding::ZeroOne));
    }

    #[test]
    fn packed_bytes_scale_with_bits() {
        let t1 = BitTensor4::zeros(1, 8, 8, 128, 1, Encoding::ZeroOne);
        let t2 = BitTensor4::zeros(1, 8, 8, 128, 2, Encoding::ZeroOne);
        assert_eq!(t2.packed_bytes(), 2 * t1.packed_bytes());
    }
}
