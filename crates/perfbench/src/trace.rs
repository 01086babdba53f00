//! Layer measurement from outside the runtime: timing `BlockStore`
//! wrappers, transport counter diffs and repair-outcome matching.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use ecc::stripe::{BlockId, StripeId};
use ecpipe::{
    BlockStore, ChecksummedStore, EcPipe, MemoryStore, RepairOutcome, RepairPriority, Result,
    Transport,
};

/// Calls, busy time and bytes through one wrapper layer.
#[derive(Debug, Default)]
pub struct StoreCounters {
    reads: AtomicU64,
    read_nanos: AtomicU64,
    read_bytes: AtomicU64,
    puts: AtomicU64,
    put_nanos: AtomicU64,
}

impl StoreCounters {
    fn read(&self, started: Instant, bytes: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.read_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn snap(&self) -> StoreSnap {
        StoreSnap {
            reads: self.reads.load(Ordering::Relaxed) as f64,
            read_ms: self.read_nanos.load(Ordering::Relaxed) as f64 / 1e6,
            read_bytes: self.read_bytes.load(Ordering::Relaxed) as f64,
            puts: self.puts.load(Ordering::Relaxed) as f64,
            put_ms: self.put_nanos.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// A copy of one layer's counters; differences of two copies attribute
/// work to an interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreSnap {
    pub reads: f64,
    pub read_ms: f64,
    pub read_bytes: f64,
    pub puts: f64,
    pub put_ms: f64,
}

impl StoreSnap {
    fn zip(self, o: StoreSnap, f: impl Fn(f64, f64) -> f64) -> StoreSnap {
        StoreSnap {
            reads: f(self.reads, o.reads),
            read_ms: f(self.read_ms, o.read_ms),
            read_bytes: f(self.read_bytes, o.read_bytes),
            puts: f(self.puts, o.puts),
            put_ms: f(self.put_ms, o.put_ms),
        }
    }
}

/// Which side of the runtime a store call comes from: the benchmark's own
/// client threads (the façade's reads and writes) or the runtime's threads
/// (helpers, requestors, workers).
#[derive(Debug, Clone, Copy)]
pub enum Side {
    Runtime = 0,
    Client = 1,
}

thread_local! {
    static CLIENT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the calling thread as a client thread for the store wrappers.
pub fn mark_client_thread() {
    CLIENT.with(|c| c.set(true));
}

fn side() -> usize {
    CLIENT.with(|c| c.get()) as usize
}

/// A `BlockStore` that forwards every trait method to `inner` and times
/// reads (`get`, `get_range`, `verify`) and `put`s, per [`Side`].
pub struct Timed<S> {
    inner: S,
    counters: [Arc<StoreCounters>; 2],
}

impl<S> Timed<S> {
    fn here(&self) -> &StoreCounters {
        &self.counters[side()]
    }
}

impl<S: BlockStore> BlockStore for Timed<S> {
    fn get(&self, block: BlockId) -> Result<Bytes> {
        let started = Instant::now();
        let out = self.inner.get(block);
        self.here()
            .read(started, out.as_ref().map_or(0, |b| b.len()));
        out
    }

    fn get_range(&self, block: BlockId, range: std::ops::Range<usize>) -> Result<Bytes> {
        let started = Instant::now();
        let out = self.inner.get_range(block, range);
        self.here()
            .read(started, out.as_ref().map_or(0, |b| b.len()));
        out
    }

    fn put(&self, block: BlockId, data: Bytes) -> Result<()> {
        let started = Instant::now();
        let out = self.inner.put(block, data);
        let here = self.here();
        here.puts.fetch_add(1, Ordering::Relaxed);
        here.put_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn delete(&self, block: BlockId) -> Result<bool> {
        self.inner.delete(block)
    }

    fn contains(&self, block: BlockId) -> bool {
        self.inner.contains(block)
    }

    fn list(&self) -> Vec<BlockId> {
        self.inner.list()
    }

    fn verify(&self, block: BlockId) -> Result<()> {
        let started = Instant::now();
        let out = self.inner.verify(block);
        self.here().read(started, 0);
        out
    }

    fn corrupt(&self, block: BlockId, offset: usize) -> Result<()> {
        self.inner.corrupt(block, offset)
    }
}

/// Shared counters for the two wrapper layers of every node: `outer` sits
/// above the integrity layer, `inner` directly on the raw memory store. On
/// a plain store the two wrappers are stacked directly, so `outer - inner`
/// is the wrappers' own cost.
#[derive(Default)]
pub struct Tracer {
    outer: [Arc<StoreCounters>; 2],
    inner: [Arc<StoreCounters>; 2],
}

impl Tracer {
    pub fn store(&self, checksummed: bool) -> Arc<dyn BlockStore> {
        let raw = Timed {
            inner: MemoryStore::new(),
            counters: self.inner.clone(),
        };
        let counters = self.outer.clone();
        if checksummed {
            Arc::new(Timed {
                inner: ChecksummedStore::new(raw),
                counters,
            })
        } else {
            Arc::new(Timed {
                inner: raw,
                counters,
            })
        }
    }

    pub fn snap(&self) -> Layers {
        Layers {
            outer: [self.outer[0].snap(), self.outer[1].snap()],
            inner: [self.inner[0].snap(), self.inner[1].snap()],
        }
    }
}

/// Both wrapper layers, per [`Side`], at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    outer: [StoreSnap; 2],
    inner: [StoreSnap; 2],
}

impl Layers {
    fn zip(self, o: Layers, f: fn(f64, f64) -> f64) -> Layers {
        let z = |a: [StoreSnap; 2], b: [StoreSnap; 2]| [a[0].zip(b[0], f), a[1].zip(b[1], f)];
        Layers {
            outer: z(self.outer, o.outer),
            inner: z(self.inner, o.inner),
        }
    }

    pub fn since(self, earlier: Layers) -> Layers {
        self.zip(earlier, |a, b| a - b)
    }

    pub fn add(&mut self, other: Layers) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// The raw store's counters from one side.
    pub fn store(&self, side: Side) -> StoreSnap {
        self.inner[side as usize]
    }

    /// The raw store's counters from both sides.
    pub fn store_total(&self) -> StoreSnap {
        self.inner[0].zip(self.inner[1], |a, b| a + b)
    }

    /// Integrity-layer read time (outer minus inner wrapper) from one side.
    pub fn crc_read_ms(&self, side: Side) -> f64 {
        self.outer[side as usize].read_ms - self.inner[side as usize].read_ms
    }

    /// Integrity-layer put time from one side.
    pub fn crc_put_ms(&self, side: Side) -> f64 {
        self.outer[side as usize].put_ms - self.inner[side as usize].put_ms
    }
}

/// Transport counters summed over every directed link.
#[derive(Debug, Clone, Copy, Default)]
pub struct Links {
    pub bytes: f64,
    pub messages: f64,
    pub busy_ms: f64,
}

impl Links {
    pub fn of(pipe: &EcPipe) -> Links {
        pipe.transport()
            .stats()
            .snapshot()
            .values()
            .fold(Links::default(), |acc, s| Links {
                bytes: acc.bytes + s.bytes as f64,
                messages: acc.messages + s.messages as f64,
                busy_ms: acc.busy_ms + s.busy_nanos as f64 / 1e6,
            })
    }

    pub fn since(self, earlier: Links) -> Links {
        Links {
            bytes: self.bytes - earlier.bytes,
            messages: self.messages - earlier.messages,
            busy_ms: self.busy_ms - earlier.busy_ms,
        }
    }

    pub fn add(&mut self, other: Links) {
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.busy_ms += other.busy_ms;
    }
}

/// One client-visible degraded read, for matching against the manager's
/// outcome of the repair it waited on.
#[derive(Debug, Clone, Copy)]
pub struct DegradedCall {
    pub stripe: StripeId,
    pub index: usize,
    /// Time the client spent in the read call, ms.
    pub ms: f64,
}

/// A degraded read's latency and the parts the façade and the repair
/// queue account for (all ms).
#[derive(Debug, Clone, Copy)]
pub struct Split {
    pub op: f64,
    pub facade: f64,
    pub queue: f64,
}

/// Pairs each degraded read with the next unmatched degraded-read outcome
/// for the same block (outcomes are in completion order). Reads whose
/// repair cannot be found are skipped.
pub fn split_degraded(calls: &[DegradedCall], outcomes: &[RepairOutcome]) -> Vec<Split> {
    let mut used = vec![false; outcomes.len()];
    let mut out = Vec::with_capacity(calls.len());
    let mut from = 0;
    for call in calls {
        let found = (from..outcomes.len()).find(|&i| {
            let o = &outcomes[i];
            !used[i]
                && o.priority == RepairPriority::DegradedRead
                && o.stripe == call.stripe
                && o.failed == call.index
        });
        if let Some(i) = found {
            used[i] = true;
            while from < used.len() && used[from] {
                from += 1;
            }
            let o = &outcomes[i];
            let (queue, exec) = (
                crate::common::ms(o.queue_wait),
                crate::common::ms(o.duration),
            );
            out.push(Split {
                op: call.ms,
                facade: call.ms - queue - exec,
                queue,
            });
        }
    }
    out
}
