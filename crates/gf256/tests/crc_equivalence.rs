//! Every supported CRC-32 path must agree with the bit-at-a-time
//! definition and with the slicing-by-16 oracle (the scalar path).
//!
//! The shapes are the ones that break folded CRCs: inputs on either side of
//! the 64-byte four-lane fold threshold, a partial last 16-byte lane,
//! misaligned starts, and streaming updates split at arbitrary points. The
//! batched per-chunk entry point must equal one CRC per chunk at every
//! chunk size, including a short last chunk.

use gf256::{KernelPath, Kernels};
use proptest::prelude::*;

/// Longest input the exhaustive sweep checks.
const MAX_LEN: usize = 4096;

/// Start offsets (misalignments) the exhaustive sweep checks.
const OFFSETS: std::ops::Range<usize> = 0..16;

fn paths() -> Vec<&'static Kernels> {
    KernelPath::supported_paths()
        .into_iter()
        .map(|p| Kernels::for_path(p).expect("listed as supported"))
        .collect()
}

fn oracle() -> &'static Kernels {
    Kernels::for_path(KernelPath::Scalar).expect("scalar is always supported")
}

/// The IEEE 802.3 generator as the standard writes it (x^32 implied),
/// bit-reflected for the LSB-first register.
const POLY: u32 = 0x04C1_1DB7u32.reverse_bits();

/// The CRC-32 definition, one bit at a time, over the raw register.
fn bitwise_step(mut crc: u32, byte: u8) -> u32 {
    crc ^= byte as u32;
    for _ in 0..8 {
        crc = if crc & 1 != 0 {
            POLY ^ (crc >> 1)
        } else {
            crc >> 1
        };
    }
    crc
}

/// Deterministic bytes with no short period, so a lane mix-up changes the
/// result.
fn pattern(len: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9u32;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state as u8
        })
        .collect()
}

#[test]
fn check_vector_on_every_path() {
    for kernels in paths() {
        assert_eq!(
            kernels.crc32_update(0, b"123456789"),
            0xCBF4_3926,
            "path {}",
            kernels.path()
        );
        assert_eq!(kernels.crc32_update(0, b""), 0, "path {}", kernels.path());
    }
    assert_eq!(gf256::crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn every_length_and_offset_matches_the_definition() {
    let buf = pattern(OFFSETS.end + MAX_LEN);
    let kernels = paths();
    for offset in OFFSETS {
        // One bitwise pass yields the expected CRC of every prefix.
        let mut register = !0u32;
        let mut expected = Vec::with_capacity(MAX_LEN + 1);
        expected.push(!register);
        for &b in &buf[offset..offset + MAX_LEN] {
            register = bitwise_step(register, b);
            expected.push(!register);
        }
        for k in &kernels {
            for (len, &want) in expected.iter().enumerate() {
                let got = k.crc32_update(0, &buf[offset..offset + len]);
                assert_eq!(got, want, "path={} len={len} offset={offset}", k.path());
            }
        }
    }
}

proptest! {
    #[test]
    fn random_inputs_match_the_oracle(
        data in proptest::collection::vec(any::<u8>(), 0..MAX_LEN + 1),
        seed in any::<u32>(),
    ) {
        let want = oracle().crc32_update(seed, &data);
        for k in paths() {
            prop_assert_eq!(k.crc32_update(seed, &data), want, "path={}", k.path());
        }
    }

    #[test]
    fn split_updates_equal_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..MAX_LEN + 1),
        split in any::<usize>(),
    ) {
        let at = split % (data.len() + 1);
        let whole = oracle().crc32_update(0, &data);
        for k in paths() {
            let streamed = k.crc32_update(k.crc32_update(0, &data[..at]), &data[at..]);
            prop_assert_eq!(streamed, whole, "path={} split={}", k.path(), at);
        }
        let streamed = gf256::crc32_update(gf256::crc32(&data[..at]), &data[at..]);
        prop_assert_eq!(streamed, gf256::crc32(&data));
    }
}

/// Chunk sizes around the fold's 16-byte lane and 64-byte threshold, the
/// stores' 512-byte chunk and a page.
const CHUNK_SIZES: [usize; 7] = [1, 15, 16, 63, 64, 512, 4096];

/// `data.chunks(chunk_size).map(crc32)`, one oracle call per chunk.
fn chunk_oracle(data: &[u8], chunk_size: usize) -> Vec<u32> {
    data.chunks(chunk_size)
        .map(|c| oracle().crc32_update(0, c))
        .collect()
}

fn batched(kernels: &Kernels, data: &[u8], chunk_size: usize) -> Vec<u32> {
    let mut out = vec![0; data.len().div_ceil(chunk_size)];
    kernels.crc32_chunks(data, chunk_size, &mut out);
    out
}

#[test]
fn chunks_match_per_chunk_crcs_at_every_size_and_offset() {
    // Three whole chunks of the largest size plus a short tail, from every
    // start offset, so each size sees whole, short-last and empty inputs.
    let buf = pattern(OFFSETS.end + 3 * 4096 + 100);
    for k in paths() {
        for chunk_size in CHUNK_SIZES {
            assert!(batched(k, &[], chunk_size).is_empty());
            for offset in OFFSETS {
                for len in [1, chunk_size, 3 * chunk_size - 1, 3 * 4096 + 100] {
                    let data = &buf[offset..offset + len];
                    assert_eq!(
                        batched(k, data, chunk_size),
                        chunk_oracle(data, chunk_size),
                        "path={} chunk={chunk_size} len={len} offset={offset}",
                        k.path()
                    );
                }
            }
        }
    }
    let data = pattern(1000);
    let mut out = vec![0; 2];
    gf256::crc32_chunks(&data, 512, &mut out);
    assert_eq!(
        out,
        [gf256::crc32(&data[..512]), gf256::crc32(&data[512..])]
    );
}

#[test]
#[should_panic(expected = "one sum per chunk")]
fn chunks_reject_a_mis_sized_output() {
    gf256::crc32_chunks(&[0; 100], 64, &mut [0; 1]);
}

proptest! {
    #[test]
    fn chunks_match_the_oracle_on_every_path(
        data in proptest::collection::vec(any::<u8>(), 0..3 * MAX_LEN),
        size in 0..CHUNK_SIZES.len(),
        offset in OFFSETS,
    ) {
        let chunk_size = CHUNK_SIZES[size];
        let data = &data[offset.min(data.len())..];
        let want = chunk_oracle(data, chunk_size);
        for k in paths() {
            prop_assert_eq!(
                batched(k, data, chunk_size),
                want.clone(),
                "path={} chunk={}",
                k.path(),
                chunk_size
            );
        }
    }
}
