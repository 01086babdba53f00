//! Golden bytes of the metadata plane's on-disk formats: one WAL frame and
//! the `manifest.bin` header.
//!
//! The hex below was produced by the byte-at-a-time CRC-32 the WAL and the
//! manifest were first written with. Any later CRC implementation must
//! parse and verify these bytes, and re-encode them identically: the
//! on-disk format may not move without a version bump.

use std::path::PathBuf;

use ecc::stripe::StripeId;
use ecpipe_meta::wal::{decode_log, Record, FRAME_HEADER};
use ecpipe_meta::{MetaBackend, MetaConfig, MetaRouter, StripeRecord};

/// `golden_record().encode_frame()`.
const WAL_FRAME_HEX: &str = concat!(
    "45000000",                         // payload length: 69
    "29b17e10",                         // CRC-32 of the payload
    "03",                               // tag: PutStripe
    "0700000000000000",                 // stripe id
    "0400000000000000",                 // epoch
    "06000000",                         // location count
    "00000000000000000300000000000000", // nodes 0, 3
    "05000000000000000900000000000000", // nodes 5, 9
    "0c000000000000000200000000000000", // nodes 12, 2
);

/// `manifest.bin` of a durable router created with five shards.
const MANIFEST_HEX: &str = "45434d02050000000000000020000000411e4443";

fn golden_record() -> Record {
    Record::PutStripe(StripeRecord {
        id: StripeId(7),
        locations: vec![0, 3, 5, 9, 12, 2],
        epoch: 4,
    })
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ecpipe-meta-fixture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn golden_wal_frame_decodes_and_reencodes_identically() {
    let golden = unhex(WAL_FRAME_HEX);
    let decoded = decode_log(&golden);
    assert_eq!(decoded.records, vec![golden_record()]);
    assert_eq!(decoded.valid_len, golden.len() as u64);
    assert!(!decoded.dropped_tail);
    assert_eq!(
        golden_record().encode_frame(),
        golden,
        "WAL frame bytes moved"
    );

    // A flipped payload bit must still fail the frame's CRC.
    let mut torn = golden.clone();
    torn[FRAME_HEADER + 3] ^= 0x10;
    let decoded = decode_log(&torn);
    assert!(decoded.records.is_empty());
    assert!(decoded.dropped_tail);
}

#[test]
fn golden_manifest_opens_and_is_rewritten_identically() {
    // A fresh five-shard root writes exactly the golden manifest.
    let fresh = scratch_dir("fresh");
    let router =
        MetaRouter::open(MetaConfig::new(MetaBackend::Durable(fresh.clone())).with_shards(5))
            .expect("open fresh root");
    drop(router);
    let written = std::fs::read(fresh.join("manifest.bin")).unwrap();
    assert_eq!(written, unhex(MANIFEST_HEX), "manifest bytes moved");

    // A root holding the golden manifest reopens with its shard count,
    // whatever the caller asks for.
    let reopened = scratch_dir("golden");
    std::fs::create_dir_all(&reopened).unwrap();
    std::fs::write(reopened.join("manifest.bin"), unhex(MANIFEST_HEX)).unwrap();
    let router =
        MetaRouter::open(MetaConfig::new(MetaBackend::Durable(reopened.clone())).with_shards(1))
            .expect("golden manifest verifies");
    assert_eq!(router.shard_count(), 5);
    drop(router);

    // A corrupted manifest body is refused.
    let mut bad = unhex(MANIFEST_HEX);
    bad[5] ^= 0x01;
    let corrupt = scratch_dir("corrupt");
    std::fs::create_dir_all(&corrupt).unwrap();
    std::fs::write(corrupt.join("manifest.bin"), bad).unwrap();
    assert!(MetaRouter::open(MetaConfig::new(MetaBackend::Durable(corrupt.clone()))).is_err());

    for dir in [fresh, reopened, corrupt] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
