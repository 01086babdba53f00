//! Criterion bench for the ECPipe runtime: end-to-end single-block repair
//! throughput of the execution strategies on an in-memory cluster, and of
//! repair pipelining on a checksummed one.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ecc::slice::SliceLayout;
use ecc::ReedSolomon;
use ecpipe::exec::{execute_single, ExecStrategy};
use ecpipe::transport::ChannelTransport;
use ecpipe::{Cluster, Coordinator, RepairDirective, SelectionPolicy, StoreBackend};

const BLOCK: usize = 4 * 1024 * 1024;

/// A 16-node cluster on `backend` holding one RS(14,10) stripe of 4 MiB
/// blocks with block 0 erased, and the plan that repairs it onto node 15.
fn setup(backend: StoreBackend) -> (Cluster, RepairDirective) {
    let code = Arc::new(ReedSolomon::new(14, 10).unwrap());
    let layout = SliceLayout::new(BLOCK, 32 * 1024);
    let mut coordinator = Coordinator::new(code, layout);
    let cluster = Cluster::new(backend).unwrap();
    let data: Vec<Vec<u8>> = (0..10)
        .map(|i| {
            (0..BLOCK)
                .map(|b| ((b * 13 + i * 31) % 251) as u8)
                .collect()
        })
        .collect();
    let stripe = cluster.write_stripe(&mut coordinator, 0, &data).unwrap();
    cluster.erase_block(stripe, 0);
    let directive = coordinator
        .plan_single_repair(stripe, 0, 15, &[], SelectionPolicy::CodeDefault)
        .unwrap();
    (cluster, directive)
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_exec");
    group.throughput(Throughput::Bytes(BLOCK as u64));
    let (cluster, directive) = setup(StoreBackend::memory(16));
    for strategy in [
        ExecStrategy::Conventional,
        ExecStrategy::Ppr,
        ExecStrategy::RepairPipelining,
        ExecStrategy::BlockPipeline,
    ] {
        group.bench_with_input(
            BenchmarkId::new("single_block_repair", strategy),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let transport = ChannelTransport::new();
                    execute_single(&directive, &cluster, &transport, strategy).unwrap()
                });
            },
        );
    }
    drop(cluster);
    // The same RP repair with every helper slice read verified against its
    // per-chunk CRCs: the gap to `single_block_repair/RP` is the checksum
    // cost a checksummed store adds to a repair.
    let (cluster, directive) = setup(StoreBackend::memory_checksummed(16));
    let strategy = ExecStrategy::RepairPipelining;
    group.bench_with_input(
        BenchmarkId::new("single_block_repair_checksummed", strategy),
        &strategy,
        |b, &strategy| {
            b.iter(|| {
                let transport = ChannelTransport::new();
                execute_single(&directive, &cluster, &transport, strategy).unwrap()
            });
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_runtime
}
criterion_main!(benches);
