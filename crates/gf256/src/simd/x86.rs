//! SSSE3 and AVX2 split-table kernels for x86 / x86_64.
//!
//! Both paths implement the same ISA-L scheme: the coefficient's 16-entry
//! low- and high-nibble product tables ([`crate::tables::MUL_LO`] /
//! [`crate::tables::MUL_HI`]) are loaded into vector registers once per
//! call, then each iteration computes 16 (SSSE3) or 32 (AVX2) products with
//! two byte shuffles and a XOR:
//!
//! ```text
//! prod = shuffle(lo_tbl, src & 0x0f) ^ shuffle(hi_tbl, (src >> 4) & 0x0f)
//! ```
//!
//! The safe wrappers split the input at the last full vector and hand the
//! remainder to the scalar loops, so the vector bodies only ever see
//! whole-lane lengths.
//!
//! Both paths share one CRC-32: a four-lane `PCLMULQDQ` fold with a Barrett
//! reduction (Intel, "Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ Instruction", 2009, with the constants of the reflected IEEE
//! polynomial), used when the CPU reports `pclmulqdq` and falling back to
//! slicing-by-16 otherwise, below 64 bytes and for the last partial 16
//! bytes. The batched per-chunk entry point runs that fold chunk after
//! chunk inside one call and keeps software prefetches
//! [`PREFETCH_AHEAD`] bytes ahead of it, which brings per-chunk CRCs of
//! data that is not in cache to about the speed of a sequential read.
//!
//! This module is the designated home for `unsafe` in this crate (with
//! `simd/neon.rs`); the workspace lint enforces that and the `// SAFETY:`
//! comments below.

#![allow(unsafe_code)]

#[cfg(target_arch = "x86")]
use core::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use super::{scalar, KernelPath, Kernels};
use crate::crc::{slicing16, slicing16_chunks};
use crate::tables::{MUL_HI, MUL_LO};

pub(super) static SSSE3: Kernels = Kernels {
    path: KernelPath::Ssse3,
    mul: mul_ssse3,
    mul_add: mul_add_ssse3,
    add: add_ssse3,
    crc: crc_pclmul,
    crc_chunks: crc_chunks_pclmul,
};

pub(super) static AVX2: Kernels = Kernels {
    path: KernelPath::Avx2,
    mul: mul_avx2,
    mul_add: mul_add_avx2,
    add: add_avx2,
    crc: crc_pclmul,
    crc_chunks: crc_chunks_pclmul,
};

// ---------------------------------------------------------------- SSSE3 --

fn mul_ssse3(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 16;
    // SAFETY: these kernels are only reachable through `Kernels::for_path`,
    // which returns the SSSE3 table solely when `is_x86_feature_detected!
    // ("ssse3")` holds, so the target-feature contract is met.
    unsafe { mul_ssse3_body(coeff, &src[..split], &mut dst[..split]) };
    scalar::mul(coeff, &src[split..], &mut dst[split..]);
}

fn mul_add_ssse3(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 16;
    // SAFETY: reachable only when runtime detection confirmed SSSE3 (see
    // `Kernels::for_path`).
    unsafe { mul_add_ssse3_body(coeff, &src[..split], &mut dst[..split]) };
    scalar::mul_add(coeff, &src[split..], &mut dst[split..]);
}

fn add_ssse3(src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 16;
    // SAFETY: reachable only when runtime detection confirmed SSSE3, which
    // implies the SSE2 loads/stores used by the body.
    unsafe { add_sse2_body(&src[..split], &mut dst[..split]) };
    scalar::add(&src[split..], &mut dst[split..]);
}

/// 16-products-per-iteration multiply. `src.len()` must be a multiple of 16
/// and equal `dst.len()`; caller must have verified SSSE3 support.
// SAFETY: every load/store below is `loadu`/`storeu` (no alignment
// requirement) over `i < len` offsets with `len % 16 == 0`, so all 16-byte
// accesses stay in bounds; the table rows are `[u8; 16]` so the table loads
// are exactly in bounds too.
#[target_feature(enable = "ssse3")]
unsafe fn mul_ssse3_body(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 16, 0);
    debug_assert_eq!(src.len(), dst.len());
    let lo_tbl = _mm_loadu_si128(MUL_LO[coeff as usize].as_ptr().cast());
    let hi_tbl = _mm_loadu_si128(MUL_HI[coeff as usize].as_ptr().cast());
    let mask = _mm_set1_epi8(0x0f);
    let mut i = 0;
    while i < src.len() {
        let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
        let lo_n = _mm_and_si128(s, mask);
        let hi_n = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
        let prod = _mm_xor_si128(
            _mm_shuffle_epi8(lo_tbl, lo_n),
            _mm_shuffle_epi8(hi_tbl, hi_n),
        );
        _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), prod);
        i += 16;
    }
}

/// 16-products-per-iteration multiply-accumulate; same contract as
/// [`mul_ssse3_body`].
// SAFETY: same bounds argument as `mul_ssse3_body` — unaligned 16-byte
// accesses at offsets `< len` with `len % 16 == 0`.
#[target_feature(enable = "ssse3")]
unsafe fn mul_add_ssse3_body(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 16, 0);
    debug_assert_eq!(src.len(), dst.len());
    let lo_tbl = _mm_loadu_si128(MUL_LO[coeff as usize].as_ptr().cast());
    let hi_tbl = _mm_loadu_si128(MUL_HI[coeff as usize].as_ptr().cast());
    let mask = _mm_set1_epi8(0x0f);
    let mut i = 0;
    while i < src.len() {
        let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
        let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
        let lo_n = _mm_and_si128(s, mask);
        let hi_n = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
        let prod = _mm_xor_si128(
            _mm_shuffle_epi8(lo_tbl, lo_n),
            _mm_shuffle_epi8(hi_tbl, hi_n),
        );
        _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d, prod));
        i += 16;
    }
}

/// 16-bytes-per-iteration XOR; same length contract as [`mul_ssse3_body`].
// SAFETY: unaligned 16-byte accesses at offsets `< len` with
// `len % 16 == 0`; only SSE2 instructions are used.
#[target_feature(enable = "sse2")]
unsafe fn add_sse2_body(src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 16, 0);
    debug_assert_eq!(src.len(), dst.len());
    let mut i = 0;
    while i < src.len() {
        let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
        let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
        _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d, s));
        i += 16;
    }
}

// ----------------------------------------------------------------- AVX2 --

fn mul_avx2(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 32;
    // SAFETY: reachable only when runtime detection confirmed AVX2 (see
    // `Kernels::for_path`).
    unsafe { mul_avx2_body(coeff, &src[..split], &mut dst[..split]) };
    scalar::mul(coeff, &src[split..], &mut dst[split..]);
}

fn mul_add_avx2(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 32;
    // SAFETY: reachable only when runtime detection confirmed AVX2 (see
    // `Kernels::for_path`).
    unsafe { mul_add_avx2_body(coeff, &src[..split], &mut dst[..split]) };
    scalar::mul_add(coeff, &src[split..], &mut dst[split..]);
}

fn add_avx2(src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 32;
    // SAFETY: reachable only when runtime detection confirmed AVX2 (see
    // `Kernels::for_path`).
    unsafe { add_avx2_body(&src[..split], &mut dst[..split]) };
    scalar::add(&src[split..], &mut dst[split..]);
}

/// 32-products-per-iteration multiply. `src.len()` must be a multiple of 32
/// and equal `dst.len()`; caller must have verified AVX2 support.
///
/// `vpshufb` shuffles within each 128-bit lane, so broadcasting the same
/// 16-entry table to both lanes makes the 256-bit shuffle behave as two
/// independent copies of the SSSE3 lookup.
// SAFETY: unaligned 32-byte accesses (`loadu`/`storeu`) at offsets `< len`
// with `len % 32 == 0` stay in bounds; table rows are `[u8; 16]`, matching
// the 128-bit broadcast loads exactly.
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2_body(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 32, 0);
    debug_assert_eq!(src.len(), dst.len());
    let lo_tbl =
        _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_LO[coeff as usize].as_ptr().cast()));
    let hi_tbl =
        _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_HI[coeff as usize].as_ptr().cast()));
    let mask = _mm256_set1_epi8(0x0f);
    let mut i = 0;
    while i < src.len() {
        let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
        let lo_n = _mm256_and_si256(s, mask);
        let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
        let prod = _mm256_xor_si256(
            _mm256_shuffle_epi8(lo_tbl, lo_n),
            _mm256_shuffle_epi8(hi_tbl, hi_n),
        );
        _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), prod);
        i += 32;
    }
}

/// 32-products-per-iteration multiply-accumulate; same contract as
/// [`mul_avx2_body`].
// SAFETY: same bounds argument as `mul_avx2_body`.
#[target_feature(enable = "avx2")]
unsafe fn mul_add_avx2_body(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 32, 0);
    debug_assert_eq!(src.len(), dst.len());
    let lo_tbl =
        _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_LO[coeff as usize].as_ptr().cast()));
    let hi_tbl =
        _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_HI[coeff as usize].as_ptr().cast()));
    let mask = _mm256_set1_epi8(0x0f);
    let mut i = 0;
    while i < src.len() {
        let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
        let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
        let lo_n = _mm256_and_si256(s, mask);
        let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
        let prod = _mm256_xor_si256(
            _mm256_shuffle_epi8(lo_tbl, lo_n),
            _mm256_shuffle_epi8(hi_tbl, hi_n),
        );
        _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, prod));
        i += 32;
    }
}

/// 32-bytes-per-iteration XOR; same contract as [`mul_avx2_body`].
// SAFETY: unaligned 32-byte accesses at offsets `< len` with
// `len % 32 == 0`.
#[target_feature(enable = "avx2")]
unsafe fn add_avx2_body(src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 32, 0);
    debug_assert_eq!(src.len(), dst.len());
    let mut i = 0;
    while i < src.len() {
        let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
        let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
        _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, s));
        i += 32;
    }
}

// ------------------------------------------------------------ PCLMULQDQ --

/// Fold constants for the reflected IEEE polynomial: `K1`/`K2` fold a lane
/// across 512 bits (four lanes), `K3`/`K4` across 128 bits, `K5` folds 64
/// bits down to 32; `P` is the polynomial and `MU` its Barrett constant
/// `floor(x^64 / P)`, both bit-reflected with the implicit top bit.
const K1: i64 = 0x1_5444_2bd4;
const K2: i64 = 0x1_c6e4_1596;
const K3: i64 = 0x1_7519_97d0;
const K4: i64 = 0x0_ccaa_009e;
const K5: i64 = 0x1_63cd_6124;
const P: i64 = 0x1_db71_0641;
const MU: i64 = 0x1_f701_1641;

/// Inputs shorter than the four-lane fold's first load go through
/// slicing-by-16.
const FOLD_MIN: usize = 64;

fn crc_pclmul(crc: u32, data: &[u8]) -> u32 {
    if !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return slicing16(crc, data);
    }
    // SAFETY: `pclmulqdq` was detected just above, and SSE2 comes with the
    // SSSE3 or AVX2 support that made this path reachable (see
    // `Kernels::for_path`).
    unsafe { crc_split(crc, data) }
}

/// Extends the raw register `crc` over `data` of any length: the fold over
/// its whole 16-byte lanes, slicing-by-16 over the rest (all of it below
/// [`FOLD_MIN`] bytes).
///
/// # Safety
///
/// The CPU must support PCLMULQDQ and SSE2.
// SAFETY: the fold only receives a prefix whose length is a multiple of 16
// and at least `FOLD_MIN`, which is `crc_fold_body`'s contract.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
unsafe fn crc_split(crc: u32, data: &[u8]) -> u32 {
    if data.len() < FOLD_MIN {
        return slicing16(crc, data);
    }
    let split = data.len() - data.len() % 16;
    let crc = crc_fold_body(crc, &data[..split]);
    // Whole-lane inputs (every full checksum chunk) skip the call: around
    // it the loop would spill and reload its vector constants.
    if split == data.len() {
        crc
    } else {
        slicing16(crc, &data[split..])
    }
}

/// How far ahead of the fold [`crc_chunks_body`] prefetches: far enough
/// that a 512-byte chunk's lines are in flight several chunks before it is
/// folded, near enough that they are not evicted from L1 before use.
const PREFETCH_AHEAD: usize = 2048;

/// Cache-line stride of the prefetches.
const LINE: usize = 64;

fn crc_chunks_pclmul(data: &[u8], chunk_size: usize, out: &mut [u32]) {
    if !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return slicing16_chunks(data, chunk_size, out);
    }
    // SAFETY: `pclmulqdq` was detected just above, and SSE2 comes with the
    // SSSE3 or AVX2 support that made this path reachable (see
    // `Kernels::for_path`).
    unsafe { crc_chunks_body(data, chunk_size, out) }
}

/// The finished CRC-32 of every `chunk_size`-byte chunk of `data` into
/// `out`, with software prefetches running [`PREFETCH_AHEAD`] bytes ahead
/// of the chunk being folded.
///
/// # Safety
///
/// The CPU must support PCLMULQDQ and SSE2.
// SAFETY: every prefetch address is `data.as_ptr() + fetched` with
// `fetched < data.len()`, so it stays inside the slice (a prefetch never
// faults, but the pointer arithmetic must not leave the allocation); the
// CPU features `crc_split` needs are this function's own.
#[target_feature(enable = "pclmulqdq,sse2")]
unsafe fn crc_chunks_body(data: &[u8], chunk_size: usize, out: &mut [u32]) {
    let base = data.as_ptr();
    let mut fetched = 0;
    let mut end = 0;
    for (chunk, sum) in data.chunks(chunk_size).zip(out) {
        end += chunk.len();
        let horizon = (end + PREFETCH_AHEAD).min(data.len());
        while fetched < horizon {
            _mm_prefetch::<_MM_HINT_T0>(base.add(fetched).cast());
            fetched += LINE;
        }
        *sum = !crc_split(!0, chunk);
    }
}

/// Folds `data` into the raw CRC register `crc`.
///
/// # Safety
///
/// `data.len()` must be a multiple of 16 and at least 64, and the CPU must
/// support PCLMULQDQ and SSE2.
// SAFETY: every load is an unaligned 16-byte `loadu` at an offset `i` with
// `i + 16 <= len` (the loops step by whole lanes over a `len % 16 == 0`
// buffer), so all accesses stay in bounds.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
unsafe fn crc_fold_body(crc: u32, data: &[u8]) -> u32 {
    debug_assert!(data.len() >= FOLD_MIN);
    debug_assert_eq!(data.len() % 16, 0);
    let load = |i: usize| _mm_loadu_si128(data.as_ptr().add(i).cast());
    let mask32 = _mm_set_epi32(0, 0, 0, !0);

    // Four independent lanes hide the multiplier's latency; the register
    // enters by XOR into the first lane's low 32 bits.
    let mut x0 = _mm_xor_si128(load(0), _mm_cvtsi32_si128(crc as i32));
    let mut x1 = load(16);
    let mut x2 = load(32);
    let mut x3 = load(48);
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut i = 64;
    while i + 64 <= data.len() {
        x0 = fold_lane(x0, load(i), k1k2);
        x1 = fold_lane(x1, load(i + 16), k1k2);
        x2 = fold_lane(x2, load(i + 32), k1k2);
        x3 = fold_lane(x3, load(i + 48), k1k2);
        i += 64;
    }

    // Fold the four lanes into one, then any remaining whole lanes.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold_lane(x0, x1, k3k4);
    x = fold_lane(x, x2, k3k4);
    x = fold_lane(x, x3, k3k4);
    while i < data.len() {
        x = fold_lane(x, load(i), k3k4);
        i += 16;
    }

    // 128 -> 64 bits, then 64 -> 32 bits.
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
        _mm_srli_si128::<8>(x),
    );
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );

    // Barrett reduction to the 32-bit remainder; the reflected variant
    // leaves it in bits 32..64.
    let pmu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, mask32), pmu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, mask32), pmu);
    _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32
}

/// `next ^ (acc.lo * keys.lo) ^ (acc.hi * keys.hi)`: carries the folded
/// lane `acc` forward by the distance `keys` encodes and adds `next`.
///
/// # Safety
///
/// The CPU must support PCLMULQDQ and SSE2.
// SAFETY: register-only arithmetic, no memory access.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
unsafe fn fold_lane(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    _mm_xor_si128(
        _mm_xor_si128(next, _mm_clmulepi64_si128::<0x00>(acc, keys)),
        _mm_clmulepi64_si128::<0x11>(acc, keys),
    )
}
