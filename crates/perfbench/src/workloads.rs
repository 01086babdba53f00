//! The three workloads. Each runs one measured pass over a runtime it sets
//! up itself and returns everything the reports need in a [`Pass`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ecpipe::{EcPipe, ManagerReport, RepairOutcome, RepairPriority, TransportChoice};
use ecpipe_loadgen::zipf::ZipfSampler;
use rand::{Rng, SeedableRng, StdRng};

use crate::common::{check_bytes, fatal, ms, payload, Samples, Shape, ThreadPeak, Usage};
use crate::trace::{mark_client_thread, DegradedCall, Layers, Links, Tracer};

/// A workload: its cluster and how it loads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DegradedRead,
    NodeRecovery,
    MixedServing,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "degraded_read" => Some(Workload::DegradedRead),
            "node_recovery" => Some(Workload::NodeRecovery),
            "mixed_serving" => Some(Workload::MixedServing),
            _ => None,
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::DegradedRead => Shape {
                n: 14,
                k: 10,
                nodes: 16,
                block: 1 << 20,
                slice: 32 << 10,
                checksummed: false,
                transport: TransportChoice::Reactor,
            },
            Workload::NodeRecovery => Shape {
                n: 14,
                k: 10,
                nodes: 16,
                block: 1 << 20,
                slice: 32 << 10,
                checksummed: true,
                transport: TransportChoice::Channel,
            },
            Workload::MixedServing => Shape {
                n: 6,
                k: 4,
                nodes: 8,
                block: 64 << 10,
                slice: 8 << 10,
                checksummed: true,
                transport: TransportChoice::Reactor,
            },
        }
    }

    /// The repair class whose outcomes the manager metrics summarise.
    pub fn repair_class(self) -> RepairPriority {
        match self {
            Workload::NodeRecovery => RepairPriority::Background,
            _ => RepairPriority::DegradedRead,
        }
    }

    /// Runs one pass of about `duration`, after `setups` set-ups (the node
    /// recovery workload sets up once per round instead).
    pub fn pass(
        self,
        seed: u64,
        duration: Duration,
        setups: usize,
        tracer: Option<&Tracer>,
    ) -> Pass {
        match self {
            Workload::DegradedRead => degraded_read(self.shape(), seed, duration, setups, tracer),
            Workload::NodeRecovery => node_recovery(self.shape(), seed, duration, tracer),
            Workload::MixedServing => mixed_serving(self.shape(), seed, duration, setups, tracer),
        }
    }
}

/// Objects the closed-loop workloads preload: each fills one stripe.
const DEGRADED_OBJECTS: usize = 8;
/// Objects per node-recovery round: 16 one-stripe objects on 16 nodes put
/// exactly 14 blocks on every node.
const RECOVERY_OBJECTS: usize = 16;
/// Degraded-read probes after each recovery round.
const RECOVERY_PROBES: usize = 10;
/// Mixed serving: population, arrival rate and put:get:degraded weights.
const MIXED_OBJECTS: usize = 256;
const MIXED_RATE: f64 = 200.0;
const MIXED_MIX: [u32; 3] = [10, 85, 5];
const ZIPF_THETA: f64 = 0.99;
/// Payload ids of mixed-serving puts start here, clear of the preload.
const PUT_IDS: u64 = 1 << 32;

/// A preloaded object and the bytes the benchmark keeps to check reads.
pub struct Obj {
    pub name: String,
    pub id: u64,
    pub len: usize,
    /// The leading bytes of the payload (what the degraded op reads).
    pub head: Vec<u8>,
}

/// Puts `count` seeded objects of `len` bytes, timing each put.
pub fn preload(
    pipe: &EcPipe,
    seed: u64,
    count: usize,
    len: usize,
    keep: usize,
    puts: &mut Samples,
) -> Vec<Obj> {
    (0..count as u64)
        .map(|id| {
            let data = payload(seed, id, len);
            let name = format!("obj-{id}");
            let started = Instant::now();
            if let Err(e) = pipe.put(&name, &data) {
                fatal(&format!("preloading {name} failed: {e}"));
            }
            puts.push(ms(started.elapsed()));
            Obj {
                name,
                id,
                len,
                head: data[..keep.min(len)].to_vec(),
            }
        })
        .collect()
}

/// Degraded-read ops: erase data block 0 of an object's first stripe, read
/// that block back (the read heals it through the repair manager), and
/// optionally read the intact block 1.
#[derive(Default)]
pub struct Degraded {
    /// Client time in the degraded `get_range`, ms.
    pub lat: Samples,
    /// Client time reading the intact block, ms.
    pub reads: Samples,
    pub meta_us: Samples,
    /// Closed-loop generator lag: previous op done to next op issued, ms.
    pub late: Samples,
    pub calls: Vec<DegradedCall>,
    /// Store-wrapper work inside the degraded reads (traced runs).
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    last_done: Option<Instant>,
}

impl Degraded {
    /// Starts a new closed-loop sequence (no lag is charged across it).
    pub fn pause(&mut self) {
        self.last_done = None;
    }

    /// One op on `obj`; returns whether it succeeded. Wrong bytes exit.
    pub fn op(
        &mut self,
        pipe: &EcPipe,
        obj: &Obj,
        block: usize,
        tracer: Option<&Tracer>,
        intact: bool,
    ) -> bool {
        self.attempted += 1;
        if let Some(done) = self.last_done {
            self.late.push(ms(done.elapsed()));
        }
        let ok = self.try_op(pipe, obj, block, tracer, intact);
        self.last_done = Some(Instant::now());
        if !ok {
            self.failed += 1;
        }
        ok
    }

    fn try_op(
        &mut self,
        pipe: &EcPipe,
        obj: &Obj,
        block: usize,
        tracer: Option<&Tracer>,
        intact: bool,
    ) -> bool {
        let started = Instant::now();
        let meta = match pipe.object_meta(&obj.name) {
            Ok(meta) => meta,
            Err(e) => return op_error(&obj.name, e),
        };
        self.meta_us.push(started.elapsed().as_secs_f64() * 1e6);
        let stripe = meta.stripes[0];
        pipe.erase_block(stripe, 0);
        let before = tracer.map(Tracer::snap);
        let started = Instant::now();
        let got = pipe.get_range(&obj.name, 0..block);
        let lat = ms(started.elapsed());
        if let (Some(tracer), Some(before)) = (tracer, before) {
            self.layers.add(tracer.snap().since(before));
        }
        match got {
            Ok(bytes) => check_bytes(
                &format!("degraded read of {}", obj.name),
                &bytes,
                &obj.head[..block],
            ),
            Err(e) => return op_error(&obj.name, e),
        }
        self.lat.push(lat);
        self.calls.push(DegradedCall {
            stripe,
            index: 0,
            ms: lat,
        });
        if intact {
            let started = Instant::now();
            let got = pipe.get_range(&obj.name, block..2 * block);
            let lat = ms(started.elapsed());
            match got {
                Ok(bytes) => check_bytes(
                    &format!("read of {}", obj.name),
                    &bytes,
                    &obj.head[block..2 * block],
                ),
                Err(e) => return op_error(&obj.name, e),
            }
            self.reads.push(lat);
        }
        true
    }

    /// The rebuild rate (MB/s) of each successful degraded read: one lost
    /// block over the read's latency.
    pub fn rates(&self, block: usize) -> Samples {
        self.lat.map(|ms| block as f64 / 1e3 / ms)
    }

    fn merge(&mut self, other: Degraded) {
        self.lat.extend(&other.lat);
        self.reads.extend(&other.reads);
        self.meta_us.extend(&other.meta_us);
        self.late.extend(&other.late);
        self.calls.extend(other.calls);
        self.layers.add(other.layers);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn op_error(name: &str, e: ecpipe::EcPipeError) -> bool {
    eprintln!("perfbench: op on {name} failed: {e}");
    false
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Pass {
    pub setup_s: Samples,
    /// The end-to-end samples (ms): degraded reads, intact reads, puts.
    pub degraded: Samples,
    pub reads: Samples,
    pub puts: Samples,
    /// Rebuild rate of each loss window (MB/s): bytes lost in the window
    /// over the time from loss until they were rebuilt.
    pub recovery: Samples,
    /// The latency `trace.overhead` compares (ms).
    pub primary: Samples,
    pub deg: Degraded,
    /// Normalisers: ops and repairs inside the measured windows.
    pub ops: f64,
    pub repairs: f64,
    /// Layer counters over the measured windows.
    pub layers: Layers,
    pub links: Links,
    pub usage: Usage,
    pub threads_peak: f64,
    /// Manager report contents, merged over the pass's runtimes.
    pub outcomes: Vec<RepairOutcome>,
    pub replans: f64,
    pub failed_repairs: f64,
    pub peak_inflight: f64,
    /// Generator lateness (ms), peak ops in flight and generator threads.
    pub late: Samples,
    pub in_flight_peak: f64,
    pub generator_threads: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Pass {
    fn absorb(&mut self, report: ManagerReport) {
        self.replans += report.replans as f64;
        self.failed_repairs += report.failed_repairs as f64;
        self.peak_inflight = self.peak_inflight.max(report.max_inflight() as f64);
        self.outcomes.extend(report.outcomes);
    }
}

/// Counters at the start of a measured window.
struct Window {
    layers: Option<Layers>,
    links: Links,
    usage: Usage,
    threads: Option<ThreadPeak>,
}

impl Window {
    fn start(pipe: &EcPipe, tracer: Option<&Tracer>) -> Window {
        Window {
            layers: tracer.map(Tracer::snap),
            links: Links::of(pipe),
            usage: Usage::now(),
            threads: tracer.map(|_| ThreadPeak::start()),
        }
    }

    fn finish(self, pipe: &EcPipe, tracer: Option<&Tracer>, pass: &mut Pass) {
        let usage = Usage::now().since(self.usage);
        pass.usage.cpu_ms += usage.cpu_ms;
        pass.usage.switches += usage.switches;
        pass.links.add(Links::of(pipe).since(self.links));
        if let (Some(tracer), Some(before)) = (tracer, self.layers) {
            pass.layers.add(tracer.snap().since(before));
        }
        if let Some(threads) = self.threads {
            pass.threads_peak = pass.threads_peak.max(threads.finish());
        }
    }
}

/// Builds the runtime and preloads `count` objects `setups` times, keeping
/// the last. Each set-up but a warm-up is one `setup_s` sample, and its
/// puts are `puts` samples.
fn set_up(
    shape: Shape,
    seed: u64,
    setups: usize,
    (count, len): (usize, usize),
    tracer: Option<&Tracer>,
    pass: &mut Pass,
) -> (EcPipe, Vec<Obj>) {
    let keep = (2 * shape.block).min(len);
    let mut kept: Option<(EcPipe, Vec<Obj>)> = None;
    for i in 0..setups.max(1) {
        if let Some((old, _)) = kept.take() {
            old.shutdown();
        }
        let started = Instant::now();
        let pipe = shape.build(tracer);
        let mut puts = Samples::default();
        let objs = preload(&pipe, seed, count, len, keep, &mut puts);
        // The first of several set-ups only warms the allocator: whether a
        // put's blocks land on fresh or recycled pages moves its time by up
        // to a third, and a long-running store has recycled pages.
        if setups == 1 || i > 0 {
            pass.setup_s.push(started.elapsed().as_secs_f64());
            pass.puts.extend(&puts);
        }
        kept = Some((pipe, objs));
    }
    kept.expect("at least one set-up ran")
}

/// Closed loop, one client: degraded read of block 0, then a read of the
/// intact block 1, over a few preloaded one-stripe objects.
fn degraded_read(
    shape: Shape,
    seed: u64,
    duration: Duration,
    setups: usize,
    tracer: Option<&Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let (pipe, objs) = set_up(
        shape,
        seed,
        setups,
        (DEGRADED_OBJECTS, shape.k * shape.block),
        tracer,
        &mut pass,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0);
    let window = Window::start(&pipe, tracer);
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        let obj = &objs[rng.gen_range(0..objs.len())];
        pass.deg.op(&pipe, obj, shape.block, tracer, true);
    }
    window.finish(&pipe, tracer, &mut pass);
    pass.absorb(pipe.shutdown());
    let deg = &pass.deg;
    pass.degraded = deg.lat.clone();
    pass.reads = deg.reads.clone();
    pass.primary = deg.lat.clone();
    pass.recovery = deg.rates(shape.block);
    pass.late = deg.late.clone();
    pass.ops = deg.attempted as f64;
    pass.repairs = pass.outcomes.len() as f64;
    pass.attempted = deg.attempted;
    pass.failed = deg.failed;
    pass.in_flight_peak = 1.0;
    pass.generator_threads = 1.0;
    pass
}

/// Rounds on fresh clusters: kill a node, report it, wait until every lost
/// block is rebuilt (the timed window), check the rebuilt blocks and the
/// affected objects, then probe the recovered cluster with degraded reads.
fn node_recovery(shape: Shape, seed: u64, duration: Duration, tracer: Option<&Tracer>) -> Pass {
    let mut pass = Pass::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E);
    let stripe_bytes = shape.k * shape.block;
    let deadline = Instant::now() + duration;
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        round += 1;
        let (pipe, objs) = set_up(
            shape,
            seed,
            1,
            (RECOVERY_OBJECTS, stripe_bytes),
            tracer,
            &mut pass,
        );
        let node = rng.gen_range(0..shape.nodes);
        let lost = pipe.kill_node(node);
        let window = Window::start(&pipe, tracer);
        let started = Instant::now();
        let queued = pipe.report_node_failure(node);
        pipe.wait_idle();
        let took = ms(started.elapsed());
        window.finish(&pipe, tracer, &mut pass);
        if queued != lost.len() {
            fatal(&format!(
                "node {node} lost {} blocks but {queued} repairs were queued",
                lost.len()
            ));
        }
        pass.primary.push(took);
        pass.recovery
            .push((lost.len() * shape.block) as f64 / 1e3 / took);
        pass.repairs += lost.len() as f64;
        pass.attempted += lost.len() as u64;

        // Outside the timed window: every rebuilt block verifies and every
        // affected object reads back byte-exact.
        for block in &lost {
            if let Err(e) = pipe.verify_block(block.stripe, block.index) {
                fatal(&format!("rebuilt block {block} does not verify: {e}"));
            }
        }
        for obj in &objs {
            let meta = pipe
                .object_meta(&obj.name)
                .unwrap_or_else(|e| fatal(&format!("{} vanished: {e}", obj.name)));
            if lost.iter().any(|b| meta.stripes.contains(&b.stripe)) {
                match pipe.get(&obj.name) {
                    Ok(bytes) => check_bytes(
                        &format!("re-read of {}", obj.name),
                        &bytes,
                        &payload(seed, obj.id, stripe_bytes),
                    ),
                    Err(e) => fatal(&format!(
                        "re-read of {} after recovery failed: {e}",
                        obj.name
                    )),
                }
            }
        }

        pass.deg.pause();
        for _ in 0..RECOVERY_PROBES {
            let obj = &objs[rng.gen_range(0..objs.len())];
            pass.deg.op(&pipe, obj, shape.block, tracer, true);
        }
        pass.absorb(pipe.shutdown());
    }
    let deg = &pass.deg;
    pass.degraded = deg.lat.clone();
    pass.reads = deg.reads.clone();
    pass.late = deg.late.clone();
    pass.ops = pass.repairs;
    pass.attempted += deg.attempted;
    pass.failed += deg.failed;
    pass.in_flight_peak = 1.0;
    pass.generator_threads = 1.0;
    pass
}

#[derive(Debug, Clone, Copy)]
enum Class {
    Put,
    Get,
    Degraded,
}

/// Per-worker tallies of the open loop.
#[derive(Default)]
struct Tally {
    gets: Samples,
    puts: Samples,
    degraded: Samples,
    deg: Degraded,
    attempted: u64,
    failed: u64,
}

/// Open loop at a fixed rate over zipf-popular objects: puts of fresh
/// objects, gets, and degraded gets (erase block 0, then get), each timed
/// from its scheduled send.
fn mixed_serving(
    shape: Shape,
    seed: u64,
    duration: Duration,
    setups: usize,
    tracer: Option<&Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let (pipe, objs) = set_up(
        shape,
        seed,
        setups,
        (MIXED_OBJECTS, shape.block),
        tracer,
        &mut pass,
    );
    // This workload's put latency is that of its own open-loop puts.
    pass.puts = Samples::default();
    let payloads: Vec<Vec<u8>> = objs.iter().map(|o| payload(seed, o.id, o.len)).collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A);
    let zipf = ZipfSampler::new(MIXED_OBJECTS, ZIPF_THETA);
    let total: u32 = MIXED_MIX.iter().sum();
    let count = (MIXED_RATE * duration.as_secs_f64()).ceil().max(1.0) as usize;
    let schedule: Vec<(Class, usize)> = (0..count)
        .map(|_| {
            let r = rng.gen_range(0..total);
            let class = if r < MIXED_MIX[0] {
                Class::Put
            } else if r < MIXED_MIX[0] + MIXED_MIX[1] {
                Class::Get
            } else {
                Class::Degraded
            };
            (class, zipf.sample(&mut rng))
        })
        .collect();

    // One pacer plus the workers: at most one generator thread per core.
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let workers = cores.saturating_sub(1).max(1);
    pass.generator_threads = (workers + 1) as f64;
    let in_flight = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let interval = Duration::from_secs_f64(1.0 / MIXED_RATE);

    let window = Window::start(&pipe, tracer);
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, Instant)>();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let (pipe, objs, payloads, schedule, in_flight) =
                    (&pipe, &objs, &payloads, &schedule, &in_flight);
                scope.spawn(move || {
                    mark_client_thread();
                    let mut t = Tally::default();
                    while let Ok((i, due)) = rx.recv() {
                        let (class, o) = schedule[i];
                        let obj = &objs[o];
                        t.attempted += 1;
                        let ok = match class {
                            Class::Get => match pipe.get(&obj.name) {
                                Ok(bytes) => {
                                    check_bytes(
                                        &format!("get of {}", obj.name),
                                        &bytes,
                                        &payloads[o],
                                    );
                                    true
                                }
                                Err(e) => op_error(&obj.name, e),
                            },
                            Class::Put => {
                                let name = format!("put-{i}");
                                let data = payload(seed, PUT_IDS + i as u64, shape.block);
                                pipe.put(&name, &data)
                                    .map_err(|e| op_error(&name, e))
                                    .is_ok()
                            }
                            Class::Degraded => {
                                t.deg.pause();
                                t.deg.op(pipe, obj, shape.block, tracer, false)
                            }
                        };
                        let lat = ms(due.elapsed());
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        if !ok {
                            t.failed += 1;
                            continue;
                        }
                        match class {
                            Class::Get => t.gets.push(lat),
                            Class::Put => t.puts.push(lat),
                            Class::Degraded => t.degraded.push(lat),
                        }
                    }
                    t
                })
            })
            .collect();
        drop(rx);

        // The pacer: sends on schedule whether or not the workers keep up.
        let start = Instant::now();
        for i in 0..schedule.len() {
            let due = start + interval * i as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            pass.late.push(ms(due.elapsed()));
            let now_in_flight = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now_in_flight, Ordering::SeqCst);
            if tx.send((i, due)).is_err() {
                fatal("every mixed-serving worker exited early");
            }
        }
        drop(tx);
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| fatal("a mixed-serving worker panicked"))
            })
            .collect()
    });
    window.finish(&pipe, tracer, &mut pass);
    pass.absorb(pipe.shutdown());

    for t in tallies {
        pass.reads.extend(&t.gets);
        pass.puts.extend(&t.puts);
        pass.degraded.extend(&t.degraded);
        pass.attempted += t.attempted;
        pass.failed += t.failed;
        pass.deg.merge(t.deg);
    }
    pass.primary = pass.reads.clone();
    pass.recovery = pass.deg.rates(shape.block);
    pass.ops = pass.attempted as f64;
    pass.repairs = pass.outcomes.len() as f64;
    pass.in_flight_peak = peak.load(Ordering::SeqCst) as f64;
    pass
}
