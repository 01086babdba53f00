//! Repair executors: one non-blocking driver moving real bytes.
//!
//! Each strategy is a list of *stages* — one per helper, plus the
//! requestor's sink — joined by bounded [`Transport`] links (channels, TCP
//! or reactor sockets, optionally throttled) and run against the cluster's
//! block stores, so the rebuilt block can be checked byte for byte:
//! [`ExecStrategy::Conventional`] and [`ExecStrategy::Ppr`] (§2.2),
//! [`ExecStrategy::RepairPipelining`] (§3.2: slices flow along the helper
//! path, each helper adding `a_i * B_i`), [`ExecStrategy::BlockPipeline`]
//! (`Pipe-B`, §6.4) and the multi-block [`execute_multi`] (§4.4).
//!
//! A stage never blocks: it takes the upstream slice if one has arrived
//! ([`SliceReceiver::try_recv`]), reads and combines its local slice, and
//! offers the result downstream ([`SliceSender::try_send`]), holding it while
//! the link has no credit or paces it. A *lane* steps its stages in path
//! order until none moves, then sleeps on its
//! [`Waker`](crate::transport::Waker) — which its links wake when data
//! arrives, credit returns or a peer closes — at most until a paced slice
//! may go, and never longer than `WAIT_TICK`, checking for cancellation on
//! every sweep. A repair runs on
//! `L = clamp(cores / executions in flight, 1, helpers)` lanes: the calling
//! thread drives the last contiguous segment of stages plus the sink, and
//! `L − 1` scoped threads drive the others. Both inputs are process-wide
//! facts, not settings: a lone degraded read uses every core, while
//! concurrent recoveries each stay on their own thread and no slice hop
//! crosses a thread.

use std::collections::HashMap;

use bytes::Bytes;
use ecc::slice::SliceLayout;
use ecc::stripe::BlockId;
use ecpipe_sync::OnceFlag;
use gf256::Gf256;
use simnet::NodeId;

use crate::buf::BufPool;
use crate::cluster::Cluster;
use crate::coordinator::{MultiRepairDirective, RepairDirective};
use crate::transport::{SliceReceiver, SliceSender, Transport};
use crate::{EcPipeError, Result};

mod driver;

use driver::{drive, Fold, Helper, Input, Sink, Source, Stage};

/// The number of slices that may be buffered between two pipeline stages.
/// Once this many slices are in flight on one link, the link hands further
/// slices back to their stage (backpressure).
pub const PIPELINE_DEPTH: usize = 8;

/// How a single-block repair is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecStrategy {
    /// Requestor fetches all helper blocks and decodes locally.
    Conventional,
    /// Partial-parallel repair over a binary aggregation tree.
    Ppr,
    /// Slice-level repair pipelining along the helper path.
    RepairPipelining,
    /// Block-level pipelining along the helper path (`Pipe-B`).
    BlockPipeline,
}

impl std::fmt::Display for ExecStrategy {
    /// Formats as the short label used in the paper's figures (`Conv.`,
    /// `PPR`, `RP`, `Pipe-B`), so strategy names are uniform across reports
    /// and benches. `pad` honors width/alignment options in table output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            ExecStrategy::Conventional => "Conv.",
            ExecStrategy::Ppr => "PPR",
            ExecStrategy::RepairPipelining => "RP",
            ExecStrategy::BlockPipeline => "Pipe-B",
        })
    }
}

fn execution_error(reason: impl Into<String>) -> EcPipeError {
    EcPipeError::Execution {
        reason: reason.into(),
    }
}

/// Pre-flight: every helper block must still be present. A block that
/// disappeared after planning surfaces as `BlockNotFound`, which lets the
/// caller restart with a different helper set (§3.2).
fn present(cluster: &Cluster, mut blocks: impl Iterator<Item = (NodeId, BlockId)>) -> Result<()> {
    match blocks.find(|&(node, block)| !cluster.store(node).contains(block)) {
        Some((_, block)) => Err(EcPipeError::BlockNotFound { block }),
        None => Ok(()),
    }
}

/// Executes a single-block repair and returns the reconstructed block.
pub fn execute_single<T: Transport + ?Sized>(
    directive: &RepairDirective,
    cluster: &Cluster,
    transport: &T,
    strategy: ExecStrategy,
) -> Result<Vec<u8>> {
    execute_single_cancellable(directive, cluster, transport, strategy, &OnceFlag::new())
}

/// [`execute_single`] with cooperative cancellation: once `cancel` is set,
/// every lane bails out at its next sweep — within `WAIT_TICK` — and the
/// repair fails with an [`EcPipeError::Execution`] error instead of
/// completing.
///
/// The repair manager's link watchdog uses this to abandon a stream whose
/// path crosses a degraded link, then re-plans the repair around it. A
/// cancelled execution leaves no partial block in any store — only the
/// requestor writes, and only on success.
pub fn execute_single_cancellable<T: Transport + ?Sized>(
    directive: &RepairDirective,
    cluster: &Cluster,
    transport: &T,
    strategy: ExecStrategy,
    cancel: &OnceFlag,
) -> Result<Vec<u8>> {
    present(
        cluster,
        directive.path.iter().map(|&(node, block, _)| (node, block)),
    )?;
    let block_size = directive.layout.block_size;
    let layout = match strategy {
        ExecStrategy::BlockPipeline => SliceLayout::new(block_size, block_size),
        _ => directive.layout,
    };
    let pool = BufPool::new();
    let tag = (directive.stripe.0, directive.repair_id());
    let run = Run::new(cluster, transport, layout, tag, cancel, &pool);
    match strategy {
        ExecStrategy::Conventional => run.conventional(directive),
        ExecStrategy::Ppr => run.ppr(directive),
        ExecStrategy::RepairPipelining | ExecStrategy::BlockPipeline => {
            run_pipeline(directive, cluster, transport, layout, cancel, &pool)
        }
    }
}

/// Slice-level (or block-level) pipelining along the helper path.
fn run_pipeline<T: Transport + ?Sized>(
    directive: &RepairDirective,
    cluster: &Cluster,
    transport: &T,
    layout: SliceLayout,
    cancel: &OnceFlag,
    pool: &BufPool,
) -> Result<Vec<u8>> {
    let tag = (directive.stripe.0, directive.repair_id());
    let run = Run::new(cluster, transport, layout, tag, cancel, pool);
    let path: Vec<_> = (directive.path.iter())
        .map(|&(node, block, coeff)| (node, block, vec![Gf256::new(coeff)]))
        .collect();
    Ok(run.pipeline(&path, &[directive.requestor])?.remove(0))
}

/// Executes a multi-block repair (§4.4): each helper reads its block once and
/// forwards a bundle of `f` partial slices per offset; the last helper
/// delivers each reconstructed slice to its requestor.
pub fn execute_multi<T: Transport + ?Sized>(
    directive: &MultiRepairDirective,
    cluster: &Cluster,
    transport: &T,
) -> Result<Vec<Vec<u8>>> {
    present(cluster, directive.path.iter().copied())?;
    let (never, pool) = (OnceFlag::new(), BufPool::new());
    let tag = (directive.stripe.0, directive.repair_id());
    let run = Run::new(cluster, transport, directive.layout, tag, &never, &pool);
    let path: Vec<_> = (directive.path.iter().enumerate())
        .map(|(i, &(node, block))| {
            let rows = directive.plan.coefficients.iter();
            (node, block, rows.map(|row| Gf256::new(row[i])).collect())
        })
        .collect();
    run.pipeline(&path, &directive.requestors)
}

/// What the stages of one execution share. One pool serves every helper:
/// a buffer freed downstream is reused for a later slice, so the steady
/// state allocates nothing per slice.
struct Run<'a, T: ?Sized> {
    cluster: &'a Cluster,
    transport: &'a T,
    layout: SliceLayout,
    /// `(stripe, repair id)`, carried by every slice on the wire.
    tag: (u64, u64),
    cancel: &'a OnceFlag,
    pool: BufPool,
}

impl<'a, T: Transport + ?Sized> Run<'a, T> {
    fn new(
        cluster: &'a Cluster,
        transport: &'a T,
        layout: SliceLayout,
        tag: (u64, u64),
        cancel: &'a OnceFlag,
        pool: &BufPool,
    ) -> Self {
        let pool = pool.clone();
        Run {
            cluster,
            transport,
            layout,
            tag,
            cancel,
            pool,
        }
    }

    fn link(&self, src: NodeId, dst: NodeId) -> (SliceSender, SliceReceiver) {
        self.transport.link(src, dst, PIPELINE_DEPTH)
    }

    fn helper(
        &self,
        source: Source,
        coeffs: Option<Vec<Gf256>>,
        upstream: Option<SliceReceiver>,
        downstream: Vec<SliceSender>,
    ) -> Box<Helper> {
        let (layout, tag, pool) = (self.layout, self.tag, self.pool.clone());
        Box::new(Helper::new(
            source, coeffs, upstream, downstream, layout, tag, pool,
        ))
    }

    fn block(&self, node: NodeId, block: BlockId) -> Source {
        Source::Block(self.cluster.store(node).clone(), block)
    }

    /// Pipelining along `path` (§3.2, §4.4): each helper adds
    /// `coeffs[r] * B_i` to row `r` of the upstream bundle, and the last one
    /// delivers row `r` to `requestors[r]`.
    fn pipeline(
        &self,
        path: &[(NodeId, BlockId, Vec<Gf256>)],
        requestors: &[NodeId],
    ) -> Result<Vec<Vec<u8>>> {
        if path.is_empty() {
            return Err(execution_error("repair path has no helpers"));
        }
        let mut outs = vec![vec![0u8; self.layout.block_size]; requestors.len()];
        let mut stages: Vec<Box<dyn Stage + '_>> = Vec::with_capacity(path.len() + 1);
        let (mut upstream, mut inputs) = (None, Vec::new());
        for (i, (node, block, coeffs)) in path.iter().enumerate() {
            let incoming = upstream.take();
            let downstream = match path.get(i + 1) {
                Some(&(next, ..)) => {
                    let (tx, rx) = self.link(*node, next);
                    upstream = Some(rx);
                    vec![tx]
                }
                // The sink polls every delivery link, so none needs more
                // than the pipeline depth.
                None => (requestors.iter().enumerate())
                    .map(|(row, &requestor)| {
                        let (tx, rx) = self.link(*node, requestor);
                        inputs.push(Input::new(rx, Fold::Copy, row, &self.layout));
                        tx
                    })
                    .collect(),
            };
            let source = self.block(*node, *block);
            stages.push(self.helper(source, Some(coeffs.clone()), incoming, downstream));
        }
        let targets = outs.iter_mut().map(Vec::as_mut_slice).collect();
        stages.push(Box::new(Sink::new(inputs, targets, self.layout)));
        drive(stages, self.cancel)?;
        Ok(outs)
    }

    /// Conventional repair: every helper streams its block to the
    /// requestor, which decodes.
    fn conventional(&self, directive: &RepairDirective) -> Result<Vec<u8>> {
        let mut out = vec![0u8; self.layout.block_size];
        let streams = directive.path.iter().map(|&(node, block, coeff)| {
            let fold = Fold::MulAdd(Gf256::new(coeff));
            (self.block(node, block), node, directive.requestor, fold, 0)
        });
        self.gather(streams.collect(), vec![&mut out])?;
        Ok(out)
    }

    /// Partial-parallel repair: every helper scales its block, then the
    /// partials aggregate pairwise along a binary tree, one round after
    /// another; the pairs of a round stream at once.
    fn ppr(&self, directive: &RepairDirective) -> Result<Vec<u8>> {
        let mut partials = HashMap::new();
        for &(node, block, coeff) in &directive.path {
            let local = self.cluster.store(node).get(block)?;
            let mut partial = vec![0u8; local.len()];
            gf256::mul_slice(Gf256::new(coeff), &local, &mut partial);
            partials.insert(node, partial);
        }
        // The requestor starts with an all-zero partial.
        partials.insert(directive.requestor, vec![0u8; self.layout.block_size]);
        let helpers = directive.helper_nodes();
        for round in repair::ppr::aggregation_rounds(&helpers, directive.requestor) {
            let (mut streams, mut kept) = (Vec::new(), Vec::new());
            for (sender, receiver) in round {
                let mut take = |node| {
                    let missing = || execution_error(format!("node {node} has no partial"));
                    partials.remove(&node).ok_or_else(missing)
                };
                // The partial is frozen once; each slice is a view into it.
                let sent = Source::Partial(Bytes::from(take(sender)?));
                streams.push((sent, sender, receiver, Fold::Add, kept.len()));
                kept.push((receiver, take(receiver)?));
            }
            self.gather(streams, kept.iter_mut().map(|(_, p)| &mut p[..]).collect())?;
            partials.extend(kept);
        }
        partials
            .remove(&directive.requestor)
            .ok_or_else(|| execution_error("aggregation did not reach the requestor"))
    }

    /// Streams each `(source, from, to, fold, out)` raw over a link
    /// `from -> to` into a sink that folds it into `outs[out]`.
    fn gather(
        &self,
        streams: Vec<(Source, NodeId, NodeId, Fold, usize)>,
        outs: Vec<&mut [u8]>,
    ) -> Result<()> {
        let mut stages: Vec<Box<dyn Stage + '_>> = Vec::new();
        let mut inputs = Vec::new();
        for (source, from, to, fold, out) in streams {
            let (tx, rx) = self.link(from, to);
            stages.push(self.helper(source, None, None, vec![tx]));
            inputs.push(Input::new(rx, fold, out, &self.layout));
        }
        stages.push(Box::new(Sink::new(inputs, outs, self.layout)));
        drive(stages, self.cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::SelectionPolicy;
    use crate::transport::{ChannelTransport, SliceMsg, WAIT_TICK};
    use crate::{Coordinator, StoreBackend};
    use ecc::stripe::StripeId;
    use ecc::{ErasureCode, Lrc, ReedSolomon};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const BLOCK: usize = 8192;

    const STRATEGIES: [ExecStrategy; 4] = [
        ExecStrategy::Conventional,
        ExecStrategy::Ppr,
        ExecStrategy::RepairPipelining,
        ExecStrategy::BlockPipeline,
    ];

    fn make_data(k: usize, seed: u64) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..BLOCK)
                    .map(|b| ((b as u64 * 131 + i as u64 * 17 + seed * 7) % 253) as u8)
                    .collect()
            })
            .collect()
    }

    fn setup_on(
        backend: StoreBackend,
        code: Arc<dyn ErasureCode>,
    ) -> (Cluster, Coordinator, Vec<Vec<u8>>, StripeId) {
        let k = code.k();
        let mut coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, 1024));
        let cluster = Cluster::new(backend).unwrap();
        let data = make_data(k, 3);
        let stripe = cluster.write_stripe(&mut coordinator, 0, &data).unwrap();
        (cluster, coordinator, data, stripe)
    }

    fn setup(code: Arc<dyn ErasureCode>) -> (Cluster, Coordinator, Vec<Vec<u8>>, StripeId) {
        let nodes = code.n() + 2;
        setup_on(StoreBackend::memory(nodes), code)
    }

    /// Erases block `lost` of the stripe and plans its repair to
    /// `requestor`.
    fn plan(
        cluster: &Cluster,
        coordinator: &mut Coordinator,
        stripe: StripeId,
        lost: usize,
        requestor: NodeId,
    ) -> RepairDirective {
        cluster.erase_block(stripe, lost);
        coordinator
            .plan_single_repair(stripe, lost, requestor, &[], SelectionPolicy::CodeDefault)
            .unwrap()
    }

    fn rs(n: usize, k: usize) -> Arc<dyn ErasureCode> {
        Arc::new(ReedSolomon::new(n, k).unwrap())
    }

    #[test]
    fn every_strategy_reconstructs_a_data_block() {
        for strategy in STRATEGIES {
            let (cluster, mut coordinator, data, stripe) = setup(rs(14, 10));
            cluster.erase_block(stripe, 3);
            let repaired = cluster
                .repair(&mut coordinator, stripe, 3, 15, strategy)
                .unwrap();
            assert_eq!(repaired, data[3], "strategy {:?}", strategy);
        }
    }

    #[test]
    fn every_strategy_reconstructs_a_parity_block() {
        let code = rs(9, 6);
        for strategy in STRATEGIES {
            let (cluster, mut coordinator, data, stripe) = setup(code.clone());
            let expected = code.encode(&data).unwrap()[7].clone();
            cluster.erase_block(stripe, 7);
            let repaired = cluster
                .repair(&mut coordinator, stripe, 7, 10, strategy)
                .unwrap();
            assert_eq!(repaired, expected, "strategy {:?}", strategy);
        }
    }

    #[test]
    fn rp_traffic_is_balanced_across_links() {
        let (cluster, mut coordinator, _data, stripe) = setup(rs(14, 10));
        let directive = plan(&cluster, &mut coordinator, stripe, 0, 15);
        let transport = ChannelTransport::new();
        let rp = ExecStrategy::RepairPipelining;
        execute_single(&directive, &cluster, &transport, rp).unwrap();
        // k links, each carrying exactly one block.
        assert_eq!(transport.links_used(), 10);
        assert_eq!(transport.total_bytes(), 10 * BLOCK as u64);
        assert_eq!(transport.max_link_bytes(), BLOCK as u64);
    }

    #[test]
    fn conventional_traffic_funnels_into_the_requestor() {
        let (cluster, mut coordinator, _data, stripe) = setup(rs(14, 10));
        let directive = plan(&cluster, &mut coordinator, stripe, 0, 15);
        let transport = ChannelTransport::new();
        execute_single(&directive, &cluster, &transport, ExecStrategy::Conventional).unwrap();
        assert_eq!(transport.total_bytes(), 10 * BLOCK as u64);
        // Every link ends at the requestor.
        for &(node, _, _) in &directive.path {
            assert_eq!(transport.link_bytes(node, 15), BLOCK as u64);
        }
    }

    #[test]
    fn lrc_repair_reads_only_the_local_group() {
        let code: Arc<dyn ErasureCode> = Arc::new(Lrc::new(12, 2, 2).unwrap());
        let (cluster, mut coordinator, data, stripe) = setup(code);
        let directive = plan(&cluster, &mut coordinator, stripe, 4, 17);
        assert_eq!(directive.path.len(), 6);
        let transport = ChannelTransport::new();
        let rp = ExecStrategy::RepairPipelining;
        let repaired = execute_single(&directive, &cluster, &transport, rp).unwrap();
        assert_eq!(repaired, data[4]);
        assert_eq!(transport.total_bytes(), 6 * BLOCK as u64);
    }

    #[test]
    fn reordered_path_still_reconstructs() {
        let (cluster, mut coordinator, data, stripe) = setup(rs(9, 6));
        let directive = plan(&cluster, &mut coordinator, stripe, 2, 10);
        let mut order = directive.helper_nodes();
        order.reverse();
        let directive = directive.with_path_order(&order);
        let transport = ChannelTransport::new();
        let rp = ExecStrategy::RepairPipelining;
        let repaired = execute_single(&directive, &cluster, &transport, rp).unwrap();
        assert_eq!(repaired, data[2]);
    }

    #[test]
    fn missing_helper_block_surfaces_as_error() {
        let (cluster, mut coordinator, _data, stripe) = setup(rs(6, 4));
        // Also erase a block that will be used as a helper, *after* planning.
        let directive = plan(&cluster, &mut coordinator, stripe, 0, 7);
        cluster.erase_block(stripe, directive.plan.sources[0].block_index);
        let transport = ChannelTransport::new();
        let rp = ExecStrategy::RepairPipelining;
        let result = execute_single(&directive, &cluster, &transport, rp);
        assert!(matches!(result, Err(EcPipeError::BlockNotFound { .. })));
        // Past the pre-flight check, the helper's own first read fails the
        // repair with the same error instead of stalling it.
        let (layout, never) = (directive.layout, OnceFlag::new());
        let pool = BufPool::new();
        let result = run_pipeline(&directive, &cluster, &transport, layout, &never, &pool);
        assert!(matches!(result, Err(EcPipeError::BlockNotFound { .. })));
    }

    #[test]
    fn corrupt_helper_block_surfaces_as_corrupt_block() {
        let backend = StoreBackend::memory_checksummed(11);
        let (cluster, mut coordinator, _data, stripe) = setup_on(backend, rs(9, 6));
        let directive = plan(&cluster, &mut coordinator, stripe, 0, 10);
        let multi = coordinator.plan_multi_repair(stripe, &[0], &[10]).unwrap();
        // A helper block of both plans rots after planning: its range read
        // fails mid-stream, and every strategy reports the corruption, not
        // the downstream echo of the aborted stream.
        let rotten = directive.path[2].1;
        assert!(multi.path.iter().any(|&(_, block)| block == rotten));
        cluster
            .corrupt_block(stripe, rotten.index, 5 * 1024)
            .unwrap();
        let transport = ChannelTransport::new();
        for strategy in STRATEGIES {
            let result = execute_single(&directive, &cluster, &transport, strategy);
            let corrupt = matches!(result, Err(EcPipeError::CorruptBlock { .. }));
            assert!(corrupt, "{strategy}: {result:?}");
        }
        let result = execute_multi(&multi, &cluster, &transport);
        let corrupt = matches!(result, Err(EcPipeError::CorruptBlock { .. }));
        assert!(corrupt, "multi-block: {result:?}");
    }

    #[test]
    fn cancelled_execution_fails_without_storing_anything() {
        for strategy in STRATEGIES {
            let (cluster, mut coordinator, _data, stripe) = setup(rs(6, 4));
            let directive = plan(&cluster, &mut coordinator, stripe, 1, 7);
            // 8 KiB per link at 20 KB/s: every strategy streams for 0.4 s+.
            let transport = ChannelTransport::with_rate_limit(20_000);
            let cancel = OnceFlag::new();
            let (result, cancelled_at) = std::thread::scope(|scope| {
                let canceller = scope.spawn(|| {
                    std::thread::sleep(Duration::from_millis(60));
                    cancel.set();
                    Instant::now()
                });
                let result =
                    execute_single_cancellable(&directive, &cluster, &transport, strategy, &cancel);
                (result, canceller.join().unwrap())
            });
            assert!(
                matches!(result, Err(EcPipeError::Execution { .. })),
                "strategy {strategy:?} must fail once cancelled"
            );
            let late = cancelled_at.elapsed();
            assert!(
                late < 2 * WAIT_TICK,
                "{strategy} ran on {late:?} past the cancel"
            );
            assert!(
                !cluster.store(7).contains(ecc::stripe::BlockId::new(0, 1)),
                "a cancelled repair must leave no partial block"
            );
        }
    }

    #[test]
    fn a_ten_helper_repair_starts_at_most_lanes_minus_one_threads() {
        use driver::{cores, InFlight, IN_FLIGHT, LAST_DRIVE};
        use std::sync::atomic::Ordering;

        let (cluster, mut coordinator, data, stripe) = setup(rs(14, 10));
        let directive = plan(&cluster, &mut coordinator, stripe, 0, 15);
        let (transport, rp) = (ChannelTransport::new(), ExecStrategy::RepairPipelining);
        let repaired = execute_single(&directive, &cluster, &transport, rp).unwrap();
        assert_eq!(repaired, data[0]);
        let (lanes, spawned) = LAST_DRIVE.with(|last| last.get());
        assert!((1..=cores().min(10)).contains(&lanes), "{lanes} lanes");
        assert_eq!(
            spawned,
            lanes - 1,
            "every lane but the caller's is a thread"
        );

        // With every core taken by executions in flight, a repair runs on
        // its caller's thread alone.
        let busy: Vec<_> = (0..cores())
            .map(|_| {
                IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
                InFlight
            })
            .collect();
        let repaired = execute_single(&directive, &cluster, &transport, rp).unwrap();
        drop(busy);
        assert_eq!(repaired, data[0]);
        assert_eq!(LAST_DRIVE.with(|last| last.get()), (1, 0));
    }

    #[test]
    fn stale_pooled_buffers_never_leak_into_a_repair() {
        use crate::transport::ReactorTransport;

        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(9, 6).unwrap());
        let (cluster, mut coordinator, data, stripe) = setup(code);
        cluster.erase_block(stripe, 2);
        let directive = coordinator
            .plan_single_repair(stripe, 2, 10, &[], SelectionPolicy::CodeDefault)
            .unwrap();
        let slice = directive.layout.slice_size;
        let primed_pool = || {
            let pool = BufPool::new();
            let stale: Vec<_> = (0..2 * PIPELINE_DEPTH)
                .map(|_| {
                    let mut buf = pool.take(slice);
                    buf.fill(0xAA);
                    buf
                })
                .collect();
            drop(stale);
            pool
        };

        // Leave stale 0xAA payload buffers in every hop's receive pool too.
        let reactor = ReactorTransport::new();
        let mut hops: Vec<_> = directive
            .path
            .windows(2)
            .map(|w| (w[0].0, w[1].0))
            .collect();
        hops.push((directive.path.last().unwrap().0, directive.requestor));
        for (src, dst) in hops {
            let (tx, rx) = reactor.link(src, dst, PIPELINE_DEPTH);
            for i in 0..PIPELINE_DEPTH {
                tx.send(SliceMsg::new(i, Bytes::from(vec![0xAA; slice])))
                    .unwrap();
            }
            let held: Vec<_> = (0..PIPELINE_DEPTH).map(|_| rx.recv().unwrap()).collect();
            drop(held);
        }

        let channel = ChannelTransport::new();
        for transport in [&channel as &dyn Transport, &reactor] {
            let repaired = run_pipeline(
                &directive,
                &cluster,
                transport,
                directive.layout,
                &OnceFlag::new(),
                &primed_pool(),
            )
            .unwrap();
            assert_eq!(repaired, data[2]);
        }
    }

    #[test]
    fn multi_block_repair_reconstructs_all_failures() {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
        let (cluster, mut coordinator, data, stripe) = setup(code.clone());
        let coded = code.encode(&data).unwrap();
        let failed = vec![1, 6, 12];
        for &f in &failed {
            cluster.erase_block(stripe, f);
        }
        let directive = coordinator
            .plan_multi_repair(stripe, &failed, &[14, 15, 14])
            .unwrap();
        let transport = ChannelTransport::new();
        let repaired = execute_multi(&directive, &cluster, &transport).unwrap();
        for (j, &f) in directive.plan.failed.iter().enumerate() {
            assert_eq!(repaired[j], coded[f], "failed block {f}");
        }
        // Each helper read its block once: inter-helper links carry f blocks,
        // delivery links one block each.
        assert_eq!(
            transport.total_bytes(),
            ((directive.path.len() - 1) * failed.len() * BLOCK + failed.len() * BLOCK) as u64
        );
    }
}
