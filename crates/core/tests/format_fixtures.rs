//! Golden bytes of the `.crc` sidecar format.
//!
//! The hex below was produced by the byte-at-a-time CRC-32 the sidecars
//! were first written with. Any later CRC implementation must parse and
//! verify it, and re-encode the same block to identical bytes: the on-disk
//! format may not move without a version bump of the `ECC\x01` magic.

use ecpipe::integrity::crc32;
use ecpipe::BlockChecksums;

/// `BlockChecksums::compute(&golden_block(), 512).to_bytes()`.
const SIDECAR_HEX: &str = "4543430100020000000000001405000000000000da4332baddfcda0e6ede94a9";

/// A fixed 1300-byte block: two full 512-byte chunks and a 276-byte tail.
fn golden_block() -> Vec<u8> {
    (0..1300u32).map(|i| (i * i / 7 + i) as u8).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

#[test]
fn golden_sidecar_parses_verifies_and_reencodes_identically() {
    let golden = unhex(SIDECAR_HEX);
    let block = golden_block();

    let parsed = BlockChecksums::from_bytes(&golden).expect("golden sidecar parses");
    assert_eq!(parsed.chunk_size(), 512);
    assert_eq!(parsed.block_len(), 1300);
    assert_eq!(parsed.chunk_count(), 3);
    assert_eq!(parsed.verify(&block), Ok(()));

    let reencoded = BlockChecksums::compute(&block, 512).to_bytes();
    assert_eq!(reencoded, golden, "sidecar bytes moved");

    // The recorded sums are the plain CRC-32 of each chunk.
    for (i, chunk) in block.chunks(512).enumerate() {
        let at = 20 + 4 * i;
        let sum = u32::from_le_bytes(golden[at..at + 4].try_into().unwrap());
        assert_eq!(sum, crc32(chunk), "chunk {i}");
    }
}

#[test]
fn golden_sidecar_still_detects_rot_in_each_chunk() {
    let parsed = BlockChecksums::from_bytes(&unhex(SIDECAR_HEX)).unwrap();
    for (at, chunk) in [(0, 0), (700, 1), (1299, 2)] {
        let mut block = golden_block();
        block[at] ^= 0x01;
        assert_eq!(parsed.verify(&block), Err(chunk), "flip at byte {at}");
    }
}
