//! Criterion benches for the GF(2^8) slice kernels — the inner loop every
//! helper runs when combining partial slices during a repair — and for the
//! CRC-32 a checksummed store runs beside them on every chunk it reads.

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
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
