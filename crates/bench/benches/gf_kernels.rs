//! Criterion benches for the GF(2^8) slice kernels — the inner loop every
//! helper runs when combining partial slices during a repair — and for the
//! CRC-32 a checksummed store runs beside them on every chunk it reads,
//! one chunk at a time and batched over a slice, in cache and from DRAM.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gf256::Gf256;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf_kernels");
    for size in [32 * 1024usize, 1024 * 1024] {
        let src: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let mut dst = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("mul_add_slice", size), &size, |b, _| {
            b.iter(|| gf256::mul_add_slice(Gf256::new(0x57), &src, &mut dst));
        });
        group.bench_with_input(BenchmarkId::new("add_slice", size), &size, |b, _| {
            b.iter(|| gf256::add_slice(&src, &mut dst));
        });
        group.bench_with_input(BenchmarkId::new("mul_slice", size), &size, |b, _| {
            b.iter(|| gf256::mul_slice(Gf256::new(0x57), &src, &mut dst));
        });
    }
    // One HDFS-sized checksum chunk (what a slice read verifies per chunk)
    // and one whole 32 KiB slice.
    for size in [512usize, 32 * 1024] {
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("crc32", size), &size, |b, _| {
            b.iter(|| gf256::crc32(&data));
        });
    }
    bench_crc_chunks(&mut group);
    group.finish();
}

/// Bytes one verified slice read covers: the 32 KiB repair slice, checked
/// as 64 chunks of the stores' 512-byte checksum chunk.
const SLICE: usize = 32 * 1024;
const CHUNK: usize = 512;

/// The cold rung's working set: several times the last-level cache of
/// common CI and desktop hosts, so nearly every slice it verifies comes
/// from DRAM, as a node-recovery helper's blocks do.
const COLD_SET: usize = 256 * 1024 * 1024;

/// The batched per-chunk CRC a checksummed slice read runs, on one slice
/// that stays in cache (`crc32_chunks`) and on slices walked through a
/// working set far beyond the caches (`crc32_chunks_cold`), where the
/// kernel's prefetch is what keeps the fold fed.
fn bench_crc_chunks(group: &mut criterion::BenchmarkGroup<'_>) {
    group.throughput(Throughput::Bytes(SLICE as u64));
    let mut sums = [0u32; SLICE / CHUNK];
    let hot: Vec<u8> = (0..SLICE).map(|i| (i % 251) as u8).collect();
    group.bench_with_input(BenchmarkId::new("crc32_chunks", SLICE), &SLICE, |b, _| {
        b.iter(|| gf256::crc32_chunks(&hot, CHUNK, &mut sums));
    });
    let cold: Vec<u8> = (0..COLD_SET).map(|i| (i % 251) as u8).collect();
    let slices = COLD_SET / SLICE;
    let mut next = 0;
    group.bench_with_input(
        BenchmarkId::new("crc32_chunks_cold", SLICE),
        &SLICE,
        |b, _| {
            b.iter(|| {
                // A prime stride visits every slice before any repeats and
                // never walks adjacent slices in order, so neither the
                // caches nor the hardware prefetcher hold the next one.
                next = (next + 7919) % slices;
                gf256::crc32_chunks(&cold[next * SLICE..][..SLICE], CHUNK, &mut sums)
            });
        },
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
