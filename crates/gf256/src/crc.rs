//! CRC-32 (IEEE 802.3, the zlib/`cksum` variant): the one checksum the
//! workspace's integrity layers share — the block stores' per-chunk `.crc`
//! sidecars, the metadata WAL frames and the metadata manifest.
//!
//! The polynomial is the reflected `0xEDB8_8320`; the register starts at
//! all ones and the result is inverted, so `crc32(b"123456789")` is the
//! standard check value `0xCBF4_3926`.
//!
//! Like the slice kernels, the implementation comes from the process-wide
//! [`Kernels`] selection (see [`crate::simd`]):
//!
//! * the portable path is slicing-by-16: sixteen 256-entry tables (16 KiB)
//!   let each step consume 16 input bytes with independent lookups instead
//!   of one byte per dependent lookup. It backs [`KernelPath::Scalar`] and
//!   [`KernelPath::Neon`], and it is the oracle the hardware path is
//!   proptested against;
//! * on x86/x86_64 the [`KernelPath::Ssse3`] and [`KernelPath::Avx2`] paths
//!   fold the input four 128-bit lanes at a time with carry-less
//!   multiplication (`PCLMULQDQ`) and finish with a Barrett reduction, when
//!   the CPU reports `pclmulqdq`; inputs under 64 bytes and the last
//!   partial 16 bytes go through slicing-by-16.
//!
//! `ECPIPE_GF_FORCE` therefore governs the checksum as well:
//! `ECPIPE_GF_FORCE=scalar` pins slicing-by-16.
//!
//! Block stores keep one CRC per 512-byte chunk, so a verified 32 KiB
//! slice is 64 short CRCs. [`crc32_chunks`] computes all of a range's
//! chunk CRCs in one call: one kernel dispatch per range rather than per
//! chunk. On x86-64 that call also issues software prefetches about 2 KiB
//! ahead of the fold: on a slice that is not in cache, one [`crc32`] call
//! per chunk runs well below the speed of a plain sequential read of the
//! slice, and the prefetching batch runs at about that speed. The portable
//! paths run the same per-chunk loop over slicing-by-16 without prefetch.
//! Every chunk still gets its own CRC, bit-identical to [`crc32`] of it.
//!
//! # Examples
//!
//! ```
//! assert_eq!(gf256::crc32(b"123456789"), 0xCBF4_3926);
//! // Streaming: extending the CRC of a prefix gives the CRC of the whole.
//! let prefix = gf256::crc32(b"hello ");
//! assert_eq!(gf256::crc32_update(prefix, b"world"), gf256::crc32(b"hello world"));
//! ```
//!
//! [`KernelPath::Scalar`]: crate::KernelPath::Scalar
//! [`KernelPath::Neon`]: crate::KernelPath::Neon
//! [`KernelPath::Ssse3`]: crate::KernelPath::Ssse3
//! [`KernelPath::Avx2`]: crate::KernelPath::Avx2

use crate::simd::Kernels;

/// The IEEE 802.3 polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// register contribution of byte `b` followed by `k` zero bytes, so one
/// 16-byte step is sixteen independent lookups XORed together.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends `crc`, the CRC-32 of some prefix (0 for the empty prefix), over
/// `data`: `crc32_update(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    Kernels::active().crc32_update(crc, data)
}

/// The CRC-32 of every `chunk_size`-byte chunk of `data` (the last chunk may
/// be shorter), written to `out` in order: `out[i]` equals
/// `crc32(&data[i * chunk_size..][..chunk_size])`. One call covers the whole
/// range, so per-chunk checksums pay one kernel dispatch rather than one
/// per chunk, and on x86-64 the loads of later chunks are prefetched while
/// earlier ones fold.
///
/// ```
/// let data = b"0123456789abcdef0123";
/// let mut sums = [0u32; 3];
/// gf256::crc32_chunks(data, 8, &mut sums);
/// assert_eq!(sums, [
///     gf256::crc32(b"01234567"),
///     gf256::crc32(b"89abcdef"),
///     gf256::crc32(b"0123"),
/// ]);
/// ```
///
/// # Panics
///
/// Panics if `chunk_size` is 0 or `out.len()` is not
/// `data.len().div_ceil(chunk_size)`.
pub fn crc32_chunks(data: &[u8], chunk_size: usize, out: &mut [u32]) {
    Kernels::active().crc32_chunks(data, chunk_size, out);
}

/// Slicing-by-16 over the raw register (the caller applies the pre- and
/// post-inversion).
pub(crate) fn slicing16(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("16-byte block");
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Per-chunk CRC-32 through slicing-by-16: the batched entry point of the
/// portable paths (finished values, inversions applied).
pub(crate) fn slicing16_chunks(data: &[u8], chunk_size: usize, out: &mut [u32]) {
    for (chunk, sum) in data.chunks(chunk_size).zip(out) {
        *sum = !slicing16(!0, chunk);
    }
}
