//! Layer rungs: timed direct calls into each layer's public functions at a
//! workload's own block and slice size, and the runtime slice sweep.

use std::time::Duration;

use bytes::Bytes;
use ecc::stripe::BlockId;
use ecc::{ErasureCode, ReedSolomon};
use ecpipe::exec::{execute_single, ExecStrategy};
use ecpipe::transport::SliceMsg;
use ecpipe::{
    BlockStore, ChannelTransport, ChecksummedStore, EcPipe, MemoryStore, ReactorTransport,
    SelectionPolicy, TcpTransport, Transport,
};
use gf256::Gf256;

use crate::common::{check_bytes, fatal, ms, payload, time_loop, Samples, Shape};
use crate::workloads::{preload, Degraded, Obj};

/// Per-rung results (µs unless named otherwise).
pub struct Rungs {
    pub gf_gb_s: f64,
    pub crc_mb_s: f64,
    pub memory_slice_us: f64,
    pub checksummed_slice_us: f64,
    /// One slice hop (send, then receive) over channel, TCP and reactor.
    pub hop_us: [f64; 3],
    pub encode_ms: f64,
    pub exec_ms: f64,
    pub exec_calls: usize,
    /// Helpers on the single-repair directive's path.
    pub helpers: usize,
}

/// Measures every rung, giving each about `budget`. The single-repair rung
/// runs on `pipe` (an untraced runtime of the workload's shape) against
/// `obj`, one of its preloaded one-stripe objects.
pub fn measure(shape: Shape, seed: u64, budget: Duration, pipe: &EcPipe, obj: &Obj) -> Rungs {
    let slice = payload(seed, 0x51, shape.slice);
    let block = payload(seed, 0xB1, shape.block);

    let mut acc = payload(seed, 0xAC, shape.slice);
    let gf_us = time_loop(budget, 16, || {
        gf256::mul_add_slice(Gf256::new(0x57), std::hint::black_box(&slice), &mut acc);
    });
    std::hint::black_box(&acc);
    let crc_us = time_loop(budget, 16, || {
        std::hint::black_box(ecpipe::integrity::crc32(std::hint::black_box(&slice)));
    });

    let slice_get = |store: &dyn BlockStore| {
        let id = BlockId::new(0, 0);
        if let Err(e) = store.put(id, Bytes::from(block.clone())) {
            fatal(&format!("rung store put failed: {e}"));
        }
        let slices = shape.slices();
        let mut j = 0;
        time_loop(budget, slices, || {
            let range = j * shape.slice..((j + 1) * shape.slice).min(shape.block);
            match store.get_range(id, range) {
                Ok(bytes) => {
                    std::hint::black_box(bytes);
                }
                Err(e) => fatal(&format!("rung slice read failed: {e}")),
            }
            j = (j + 1) % slices;
        })
    };
    let memory_slice_us = slice_get(&MemoryStore::new());
    let checksummed_slice_us = slice_get(&ChecksummedStore::new(MemoryStore::new()));

    let hop_us = [
        hop(&ChannelTransport::new(), &slice, budget),
        hop(&TcpTransport::new(), &slice, budget),
        hop(&ReactorTransport::new(), &slice, budget),
    ];

    let code = ReedSolomon::new(shape.n, shape.k)
        .unwrap_or_else(|e| fatal(&format!("building RS({},{}): {e}", shape.n, shape.k)));
    let data: Vec<Vec<u8>> = (0..shape.k)
        .map(|i| payload(seed, 0xE0 + i as u64, shape.block))
        .collect();
    let encode_us = time_loop(budget, 4, || {
        match code.encode(std::hint::black_box(&data)) {
            Ok(parity) => {
                std::hint::black_box(parity);
            }
            Err(e) => fatal(&format!("encode rung failed: {e}")),
        }
    });

    let (exec_ms, exec_calls, helpers) = single_repair(shape, budget, pipe, obj);
    Rungs {
        gf_gb_s: shape.slice as f64 / gf_us / 1e3,
        crc_mb_s: shape.slice as f64 / crc_us,
        memory_slice_us,
        checksummed_slice_us,
        hop_us,
        encode_ms: encode_us / 1e3,
        exec_ms,
        exec_calls,
        helpers,
    }
}

/// Mean µs to send one slice over a fresh link and receive it.
fn hop<T: Transport>(transport: &T, slice: &[u8], budget: Duration) -> f64 {
    let (tx, rx) = transport.link(0, 1, 8);
    let data = Bytes::from(slice.to_vec());
    let mut j = 0;
    time_loop(budget, 32, || {
        if tx.send(SliceMsg::new(j, data.clone())).is_err() {
            fatal("rung hop send failed");
        }
        match rx.recv() {
            Some(msg) if msg.data.len() == data.len() => {}
            _ => fatal("rung hop lost a slice"),
        }
        j += 1;
    })
}

/// Median ms of `exec::execute_single` rebuilding block 0 of `obj` at its
/// holder, with no manager or façade in the way; also returns the call
/// count and the number of helpers on the path.
fn single_repair(shape: Shape, budget: Duration, pipe: &EcPipe, obj: &Obj) -> (f64, usize, usize) {
    let stripe = pipe
        .object_meta(&obj.name)
        .unwrap_or_else(|e| fatal(&format!("rung object lookup failed: {e}")))
        .stripes[0];
    let holder = pipe
        .cluster()
        .node_of(stripe, 0)
        .unwrap_or_else(|e| fatal(&format!("rung placement lookup failed: {e}")));
    let directive = pipe
        .with_coordinator(|c| {
            c.plan_single_repair(stripe, 0, holder, &[], SelectionPolicy::CodeDefault)
        })
        .unwrap_or_else(|e| fatal(&format!("rung repair planning failed: {e}")));
    let mut times = Samples::default();
    let deadline = std::time::Instant::now() + budget;
    while times.len() < 5 || std::time::Instant::now() < deadline {
        let started = std::time::Instant::now();
        let rebuilt = execute_single(
            &directive,
            pipe.cluster(),
            pipe.transport(),
            ExecStrategy::RepairPipelining,
        )
        .unwrap_or_else(|e| fatal(&format!("rung repair failed: {e}")));
        times.push(ms(started.elapsed()));
        check_bytes("rung repair", &rebuilt, &obj.head[..shape.block]);
    }
    (times.median(), times.len(), directive.path.len())
}

/// Slice sizes of the runtime sweep.
pub const SWEEP_KIB: [usize; 3] = [4, 32, 128];

/// One sweep point: slice size, slices per block, p50 ms and sample count.
pub struct SweepPoint {
    pub slice: usize,
    pub slices: usize,
    pub p50_ms: f64,
    pub samples: usize,
}

/// Runs the workload's degraded-read op at each sweep slice size (capped
/// at the block size) on fresh untraced runtimes, then fits
/// `p50 = a + b * slices`; `b` is the per-slice cost in µs.
pub fn sweep(shape: Shape, seed: u64, budget: Duration) -> (Vec<SweepPoint>, f64) {
    let points: Vec<SweepPoint> = SWEEP_KIB
        .iter()
        .map(|&kib| {
            let shape = shape.with_slice((kib << 10).min(shape.block));
            let pipe = shape.build(None);
            let len = shape.k * shape.block;
            let objs = preload(
                &pipe,
                seed,
                1,
                len,
                (2 * shape.block).min(len),
                &mut Samples::default(),
            );
            let mut deg = Degraded::default();
            let deadline = std::time::Instant::now() + budget;
            while deg.lat.len() < 5 || std::time::Instant::now() < deadline {
                if !deg.op(&pipe, &objs[0], shape.block, None, false) {
                    fatal("a slice-sweep degraded read failed");
                }
            }
            pipe.shutdown();
            SweepPoint {
                slice: shape.slice,
                slices: shape.slices(),
                p50_ms: deg.lat.median(),
                samples: deg.lat.len(),
            }
        })
        .collect();
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.slices as f64).sum::<f64>() / n;
    let my = points.iter().map(|p| p.p50_ms).sum::<f64>() / n;
    let cov: f64 = points
        .iter()
        .map(|p| (p.slices as f64 - mx) * (p.p50_ms - my))
        .sum();
    let var: f64 = points.iter().map(|p| (p.slices as f64 - mx).powi(2)).sum();
    (points, cov / var * 1e3)
}
