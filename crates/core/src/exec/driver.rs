//! The repair driver: the stages a repair is built from, and the lanes
//! that step them.
//!
//! A [`Stage`] never blocks. [`Helper`] takes its upstream slice if one
//! has arrived, reads and combines its local slice, and offers the result
//! downstream, holding it while a link hands it back; [`Sink`] folds what
//! its links have ready into the requestor's output. [`drive`] cuts a
//! repair's stages into lanes and runs each lane's sweep loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use ecc::slice::SliceLayout;
use ecc::stripe::BlockId;
use ecpipe_sync::OnceFlag;
use gf256::Gf256;

use super::execution_error;
use crate::buf::BufPool;
use crate::store::BlockStore;
use crate::transport::{
    SliceMsg, SliceReceiver, SliceSender, TryRecv, TrySendError, Waker, WAIT_TICK,
};
use crate::{EcPipeError, Result};

/// What one step of a stage achieved.
pub(super) enum Poll {
    /// It moved a slice; step it again.
    Progress,
    /// It waits on a link: the lane's waker fires when that changes, or a
    /// paced slice may go at the instant.
    Idle(Option<Instant>),
    /// Its work is done; dropping it closes its links.
    Done,
}

/// One participant of a repair, stepped by a lane without ever blocking.
pub(super) trait Stage: Send {
    /// Points the stage's links at its lane's waker.
    fn attach(&self, waker: &Waker);

    /// Advances by at most one slice.
    fn step(&mut self) -> Result<Poll>;
}

/// Where a helper's slices come from.
pub(super) enum Source {
    /// Range reads of its block (checksum-verified on an integrity store).
    Block(Arc<dyn BlockStore>, BlockId),
    /// A partial result in memory (PPR's aggregation rounds).
    Partial(Bytes),
}

/// A helper. Per slice it takes the upstream bundle (if it has an
/// upstream), reads its own slice, adds `coeffs[r] * slice` to row `r` —
/// or forwards the slice raw when `coeffs` is `None` — and hands the
/// result on: whole over one downstream link, or row `r` over link `r`.
pub(super) struct Helper {
    source: Source,
    coeffs: Option<Vec<Gf256>>,
    upstream: Option<SliceReceiver>,
    downstream: Vec<SliceSender>,
    /// Results a link handed back, one slot per downstream link.
    held: Vec<Option<SliceMsg>>,
    next: usize,
    layout: SliceLayout,
    tag: (u64, u64),
    pool: BufPool,
}

impl Helper {
    pub(super) fn new(
        source: Source,
        coeffs: Option<Vec<Gf256>>,
        upstream: Option<SliceReceiver>,
        downstream: Vec<SliceSender>,
        layout: SliceLayout,
        tag: (u64, u64),
        pool: BufPool,
    ) -> Self {
        let held = downstream.iter().map(|_| None).collect();
        Helper {
            source,
            coeffs,
            upstream,
            downstream,
            held,
            next: 0,
            layout,
            tag,
            pool,
        }
    }

    /// Slice `self.next` of the result.
    fn produce(&self, upstream: Option<SliceMsg>) -> Result<Bytes> {
        let range = self.layout.slice_range(self.next);
        let local = match &self.source {
            Source::Block(store, block) => store.get_range(*block, range)?,
            Source::Partial(partial) => partial.slice(range),
        };
        let Some(coeffs) = &self.coeffs else {
            return Ok(local);
        };
        // `mul_slice` overwrites every byte of each row.
        let mut out = self.pool.take_for_overwrite(coeffs.len() * local.len());
        for (row, &coeff) in out.chunks_exact_mut(local.len()).zip(coeffs) {
            gf256::mul_slice(coeff, &local, row);
        }
        if let Some(msg) = upstream {
            gf256::add_slice(&msg.data, &mut out);
        }
        Ok(out.freeze())
    }
}

impl Stage for Helper {
    fn attach(&self, waker: &Waker) {
        if let Some(rx) = &self.upstream {
            rx.set_waker(waker);
        }
        for tx in &self.downstream {
            tx.set_waker(waker);
        }
    }

    fn step(&mut self) -> Result<Poll> {
        let (mut moved, mut until) = (false, None::<Instant>);
        // Offer what the links handed back, produce one slice if nothing
        // is held, and offer it at once.
        for produced in [false, true] {
            for (tx, held) in self.downstream.iter().zip(&mut self.held) {
                let Some(msg) = held.take() else { continue };
                match tx.try_send(msg) {
                    Ok(()) => moved = true,
                    Err(TrySendError::Full(msg)) => *held = Some(msg),
                    Err(TrySendError::Paced(msg, at)) => {
                        *held = Some(msg);
                        until = Some(until.map_or(at, |u| u.min(at)));
                    }
                    Err(TrySendError::Failed(e)) => return Err(e.into()),
                }
            }
            if produced || self.held.iter().any(Option::is_some) {
                break;
            }
            if self.next == self.layout.slice_count() {
                return Ok(Poll::Done);
            }
            let upstream = match &self.upstream {
                None => None,
                Some(rx) => match rx.try_recv() {
                    TryRecv::Msg(msg) => Some(msg),
                    TryRecv::Empty => break,
                    TryRecv::Closed => {
                        return Err(execution_error("upstream helper stopped early"))
                    }
                },
            };
            let result = self.produce(upstream)?;
            let row = result.len() / self.held.len();
            for (r, held) in self.held.iter_mut().enumerate() {
                let data = result.slice(r * row..(r + 1) * row);
                *held = Some(SliceMsg::new(self.next, data).tagged(self.tag.0, self.tag.1));
            }
            self.next += 1;
            moved = true;
        }
        Ok(if moved {
            Poll::Progress
        } else {
            Poll::Idle(until)
        })
    }
}

/// How the requestor folds a received slice into its output.
#[derive(Clone, Copy)]
pub(super) enum Fold {
    /// The slice is the finished output slice.
    Copy,
    /// The slice is a partial sum to add.
    Add,
    /// The slice is a raw helper slice to scale and add.
    MulAdd(Gf256),
}

/// One stream the requestor collects into `outs[out]`.
pub(super) struct Input {
    rx: SliceReceiver,
    fold: Fold,
    out: usize,
    /// Slices still to come.
    left: usize,
}

impl Input {
    pub(super) fn new(rx: SliceReceiver, fold: Fold, out: usize, layout: &SliceLayout) -> Self {
        let left = layout.slice_count();
        Input {
            rx,
            fold,
            out,
            left,
        }
    }
}

/// The requestor: folds every input stream into its output buffers, taking
/// whatever each link has ready.
pub(super) struct Sink<'a> {
    inputs: Vec<Input>,
    outs: Vec<&'a mut [u8]>,
    layout: SliceLayout,
}

impl<'a> Sink<'a> {
    pub(super) fn new(inputs: Vec<Input>, outs: Vec<&'a mut [u8]>, layout: SliceLayout) -> Self {
        Sink {
            inputs,
            outs,
            layout,
        }
    }
}

impl Stage for Sink<'_> {
    fn attach(&self, waker: &Waker) {
        for input in &self.inputs {
            input.rx.set_waker(waker);
        }
    }

    fn step(&mut self) -> Result<Poll> {
        let mut moved = false;
        for input in &mut self.inputs {
            while input.left > 0 {
                let msg = match input.rx.try_recv() {
                    TryRecv::Msg(msg) => msg,
                    TryRecv::Empty => break,
                    TryRecv::Closed => {
                        return Err(execution_error(
                            "stream ended before the block was complete",
                        ))
                    }
                };
                let dst = &mut self.outs[input.out][self.layout.slice_range(msg.index)];
                match input.fold {
                    Fold::Copy => dst.copy_from_slice(&msg.data),
                    Fold::Add => gf256::add_slice(&msg.data, dst),
                    Fold::MulAdd(coeff) => gf256::mul_add_slice(coeff, &msg.data, dst),
                }
                input.left -= 1;
                moved = true;
            }
        }
        Ok(if self.inputs.iter().all(|input| input.left == 0) {
            Poll::Done
        } else if moved {
            Poll::Progress
        } else {
            Poll::Idle(None)
        })
    }
}

/// Executions running right now, process-wide.
pub(super) static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// Uncounts an execution from [`IN_FLIGHT`] when it ends.
pub(super) struct InFlight;

impl Drop for InFlight {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

pub(super) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
thread_local! {
    /// `(lanes, threads spawned)` of this thread's last `drive`.
    pub(super) static LAST_DRIVE: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Runs `stages` as one execution in flight on
/// `L = clamp(cores / executions in flight, 1, helpers)` lanes: the last
/// stage (the sink) and the segment of helpers before it on the calling
/// thread, each other contiguous segment on a scoped thread. Returns the
/// most specific error any lane hit.
pub(super) fn drive(mut stages: Vec<Box<dyn Stage + '_>>, cancel: &OnceFlag) -> Result<()> {
    let sink = stages.pop().expect("every execution has a sink");
    let in_flight = IN_FLIGHT.fetch_add(1, Ordering::Relaxed) + 1;
    let _in_flight = InFlight;
    let lanes = (cores() / in_flight).clamp(1, stages.len().max(1));
    let mut helpers = stages.into_iter();
    let mut segments: Vec<Vec<_>> = (0..lanes)
        .map(|lane| {
            let len = helpers.len() / (lanes - lane);
            helpers.by_ref().take(len).collect()
        })
        .collect();
    let mut mine = segments.pop().expect("at least one lane");
    mine.push(sink);
    #[cfg(test)]
    LAST_DRIVE.with(|last| last.set((lanes, segments.len())));
    std::thread::scope(|scope| {
        let others: Vec<_> = (segments.into_iter())
            .map(|segment| scope.spawn(move || run_lane(segment, cancel)))
            .collect();
        let mut outcome = run_lane(mine, cancel);
        for lane in others {
            let result = (lane.join()).unwrap_or_else(|_| Err(execution_error("lane panicked")));
            outcome = most_specific(outcome, result);
        }
        outcome
    })
}

/// Steps `stages` in order until all are done, sleeping on one waker
/// whenever a whole sweep moved nothing. A stage's error ends the lane,
/// and dropping its stages closes their links, so the stages on other
/// lanes fail in turn.
fn run_lane(mut stages: Vec<Box<dyn Stage + '_>>, cancel: &OnceFlag) -> Result<()> {
    let waker = Waker::new();
    for stage in &stages {
        stage.attach(&waker);
    }
    while !stages.is_empty() {
        if cancel.is_set() {
            return Err(execution_error("repair cancelled mid-stream"));
        }
        let mut moved = false;
        let mut wake_at = Instant::now() + WAIT_TICK;
        let mut i = 0;
        while i < stages.len() {
            match stages[i].step()? {
                Poll::Progress => moved = true,
                Poll::Idle(until) => wake_at = until.map_or(wake_at, |at| at.min(wake_at)),
                Poll::Done => {
                    stages.remove(i);
                    moved = true;
                    continue;
                }
            }
            i += 1;
        }
        if !moved {
            waker.wait_until(wake_at);
        }
    }
    Ok(())
}

/// Of two outcomes, the one that best explains a failed repair: a local
/// read failure (a corrupt or vanished block) explains it, while
/// `Execution` errors are usually its downstream echo ("peer gone",
/// "upstream stopped early"). The manager re-plans around the culprit.
fn most_specific(a: Result<()>, b: Result<()>) -> Result<()> {
    fn specificity(e: &EcPipeError) -> u8 {
        match e {
            EcPipeError::CorruptBlock { .. } | EcPipeError::BlockNotFound { .. } => 2,
            EcPipeError::Execution { .. } => 0,
            _ => 1,
        }
    }
    match (a, b) {
        (Err(a), Err(b)) if specificity(&b) > specificity(&a) => Err(b),
        (Err(a), _) => Err(a),
        (Ok(()), b) => b,
    }
}
