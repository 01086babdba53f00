//! Open-loop load harness for the [`EcPipe`] façade.
//!
//! A single pacer thread emits operations at a configured arrival rate into
//! an unbounded queue, independent of how fast the system drains them —
//! the *open-loop* model, where a slow server cannot slow the offered load
//! down and queueing delay therefore shows up in the measured latency
//! (closed-loop harnesses famously hide it; see "coordinated omission").
//! Each op is stamped with its *scheduled* arrival time, and latency is
//! measured from that stamp, not from when a worker happened to pick the op
//! up.
//!
//! Traffic is a weighted mix of puts (fresh objects), gets over a
//! preloaded population with zipfian popularity, and degraded reads (a
//! block of the chosen object is erased first, so the read has to heal it
//! through the repair pipeline). Per-op latencies land in an HDR-style
//! [`LatencyHistogram`] per class; the final [`HarnessReport`] carries
//! p50/p99/p999 per class and overall, plus the peak number of in-flight
//! ops — the headline numbers the paper's evaluation reports for repair
//! under load.

pub mod hist;
pub mod zipf;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ecpipe::{AnyTransport, EcPipe, EcPipeError, Result};
use rand::{Rng, SeedableRng, StdRng};

use crate::hist::LatencyHistogram;
use crate::zipf::ZipfSampler;

/// One operation class in the generated mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Write a fresh object (object names never collide, so puts measure
    /// the full encode-and-place path, not overwrite handling).
    Put,
    /// Read a preloaded object chosen by zipfian popularity.
    Get,
    /// Erase one block of the chosen object, then read it — forcing a
    /// degraded read through the repair manager.
    DegradedGet,
}

impl OpClass {
    /// Stable lowercase label used in reports and benchmark records.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Put => "put",
            OpClass::Get => "get",
            OpClass::DegradedGet => "degraded_get",
        }
    }
}

const CLASSES: [OpClass; 3] = [OpClass::Put, OpClass::Get, OpClass::DegradedGet];

/// Relative weights of the three op classes.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadMix {
    /// Weight of [`OpClass::Put`].
    pub put: u32,
    /// Weight of [`OpClass::Get`].
    pub get: u32,
    /// Weight of [`OpClass::DegradedGet`].
    pub degraded: u32,
}

impl Default for WorkloadMix {
    /// A read-heavy mix with a steady trickle of degraded reads.
    fn default() -> Self {
        WorkloadMix {
            put: 10,
            get: 85,
            degraded: 5,
        }
    }
}

impl WorkloadMix {
    fn total(&self) -> u32 {
        self.put + self.get + self.degraded
    }

    fn pick(&self, rng: &mut StdRng) -> OpClass {
        let r = rng.gen_range(0..self.total());
        if r < self.put {
            OpClass::Put
        } else if r < self.put + self.get {
            OpClass::Get
        } else {
            OpClass::DegradedGet
        }
    }
}

/// Harness knobs. Every field has a working default sized for a quick
/// local run; CI's smoke scenario shrinks duration further.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Target arrival rate, operations per second.
    pub rate: f64,
    /// How long the pacer keeps emitting ops.
    pub duration: Duration,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Preloaded object population size.
    pub objects: usize,
    /// Size of each object, bytes.
    pub object_size: usize,
    /// Zipfian skew over the preloaded population (0 = uniform).
    pub zipf_theta: f64,
    /// Class weights.
    pub mix: WorkloadMix,
    /// Seed for every random choice the harness makes.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            rate: 2_000.0,
            duration: Duration::from_secs(10),
            workers: 8,
            objects: 64,
            object_size: 64 * 1024,
            zipf_theta: 0.99,
            mix: WorkloadMix::default(),
            seed: 0x5eed,
        }
    }
}

impl HarnessConfig {
    /// A seconds-long scenario small enough for CI: a high enough arrival
    /// rate to build a deep queue, short enough to stay well inside a job
    /// timeout.
    pub fn smoke() -> Self {
        HarnessConfig {
            rate: 3_000.0,
            duration: Duration::from_secs(2),
            objects: 16,
            object_size: 16 * 1024,
            ..HarnessConfig::default()
        }
    }

    fn validate(&self) -> Result<()> {
        let bad = |reason: String| Err(EcPipeError::InvalidRequest { reason });
        if !(self.rate.is_finite() && self.rate > 0.0) {
            return bad(format!("arrival rate must be positive, got {}", self.rate));
        }
        if self.workers == 0 {
            return bad("need at least one worker".to_string());
        }
        if self.objects == 0 || self.object_size == 0 {
            return bad("need a non-empty preloaded population".to_string());
        }
        if self.mix.total() == 0 {
            return bad("workload mix has zero total weight".to_string());
        }
        if !(self.zipf_theta.is_finite() && self.zipf_theta >= 0.0) {
            return bad(format!("zipf skew must be >= 0, got {}", self.zipf_theta));
        }
        Ok(())
    }
}

/// Latency and outcome summary for one op class (or the whole run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassStats {
    /// Ops completed (successes and failures both count — an error still
    /// occupied the pipeline).
    pub ops: u64,
    /// Ops that returned an error.
    pub errors: u64,
    /// Mean latency, nanoseconds.
    pub mean_ns: f64,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, nanoseconds.
    pub p999_ns: u64,
    /// Largest observed latency, nanoseconds.
    pub max_ns: u64,
}

impl ClassStats {
    fn from_histogram(h: &LatencyHistogram, errors: u64) -> Self {
        ClassStats {
            ops: h.count(),
            errors,
            mean_ns: h.mean(),
            p50_ns: h.quantile(0.50),
            p99_ns: h.quantile(0.99),
            p999_ns: h.quantile(0.999),
            max_ns: h.max(),
        }
    }
}

/// The harness's output: whole-run and per-class tail-latency stats.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// The transport the runtime ran over (`channel`, `tcp` or `reactor`).
    pub transport: &'static str,
    /// Wall-clock time from first scheduled op to last completion.
    pub wall: Duration,
    /// The configured arrival rate.
    pub offered_rate: f64,
    /// Completions per second over the whole run.
    pub achieved_rate: f64,
    /// Peak number of ops in flight (scheduled but not yet completed) —
    /// under open-loop load this is the queue depth the system let build.
    pub peak_in_flight: usize,
    /// All classes folded together.
    pub overall: ClassStats,
    /// Stats per op class, in [`OpClass`] declaration order; classes with
    /// zero weight report zero ops.
    pub per_class: Vec<(OpClass, ClassStats)>,
}

impl HarnessReport {
    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "open-loop harness over {}: offered {:.0}/s, achieved {:.0}/s over {:.2}s, \
             peak {} in flight\n",
            self.transport,
            self.offered_rate,
            self.achieved_rate,
            self.wall.as_secs_f64(),
            self.peak_in_flight
        );
        out.push_str(&format!(
            "{:<14} {:>8} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            "class", "ops", "errors", "p50_us", "p99_us", "p999_us", "max_us"
        ));
        let mut row = |label: &str, s: &ClassStats| {
            out.push_str(&format!(
                "{label:<14} {:>8} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                s.ops,
                s.errors,
                s.p50_ns as f64 / 1_000.0,
                s.p99_ns as f64 / 1_000.0,
                s.p999_ns as f64 / 1_000.0,
                s.max_ns as f64 / 1_000.0,
            ));
        };
        for (class, stats) in &self.per_class {
            row(class.label(), stats);
        }
        row("overall", &self.overall);
        out
    }

    /// The report as `BENCH_RESULTS_LOG` records (the criterion shim's TSV
    /// format extended with p50/p99/p999 columns): one line per class that
    /// saw traffic, plus `load_harness/<transport>/overall`, so runs over
    /// different transports can share one log. `ns_per_iter` is the mean
    /// latency; `elements_per_sec` the achieved completion rate.
    pub fn bench_lines(&self) -> String {
        let mut out = String::new();
        let mut line = |name: &str, stats: &ClassStats, rate: f64| {
            if stats.ops == 0 {
                return;
            }
            out.push_str(&format!(
                "load_harness/{}/{name}\t{:.3}\t-\t{:.3}\t{}\t{}\t{}\n",
                self.transport, stats.mean_ns, rate, stats.p50_ns, stats.p99_ns, stats.p999_ns
            ));
        };
        let wall = self.wall.as_secs_f64().max(f64::EPSILON);
        for (class, stats) in &self.per_class {
            line(class.label(), stats, stats.ops as f64 / wall);
        }
        line("overall", &self.overall, self.achieved_rate);
        out
    }
}

/// Pacer/worker shared in-flight gauge.
struct InFlight {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl InFlight {
    fn enter(&self) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn exit(&self) {
        self.current.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One scheduled operation.
struct Op {
    class: OpClass,
    object: usize,
    scheduled: Instant,
}

/// Per-worker tallies, merged after the run.
struct WorkerStats {
    hists: [LatencyHistogram; 3],
    errors: [u64; 3],
}

impl WorkerStats {
    fn new() -> Self {
        WorkerStats {
            hists: [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ],
            errors: [0; 3],
        }
    }
}

fn class_index(class: OpClass) -> usize {
    CLASSES.iter().position(|c| *c == class).unwrap()
}

fn object_name(i: usize) -> String {
    format!("lg-{i}")
}

/// Executes one op. Errors are returned, not panicked: under a hot zipfian
/// population, concurrent degraded reads race with each other's repairs and
/// the occasional loser is part of the workload, not a harness bug.
fn execute(pipe: &EcPipe, op: &Op, payload: &[u8], rng: &mut StdRng) -> Result<()> {
    match op.class {
        OpClass::Put => {
            // Fresh name per put: `put` refuses overwrites by design.
            let unique: u64 = rng.gen();
            pipe.put(&format!("lg-put-{unique:016x}"), payload)?;
        }
        OpClass::Get => {
            pipe.get(&object_name(op.object))?;
        }
        OpClass::DegradedGet => {
            let name = object_name(op.object);
            let meta = pipe.object_meta(&name)?;
            let stripe = meta.stripes[rng.gen_range(0..meta.stripes.len())];
            // Erase block 0 — always a data block, so the read that follows
            // must heal it. Erasing a random index would hit parity blocks,
            // which reads never touch: the erasures would silently pile up
            // until the stripe drops below k live blocks.
            pipe.erase_block(stripe, 0);
            pipe.get(&name)?;
        }
    }
    Ok(())
}

/// Runs the harness against `pipe` and reports tail latencies.
///
/// Preloads the object population, then paces `config.rate` arrivals per
/// second for `config.duration`, measuring each op from its scheduled
/// arrival to completion. Returns after every scheduled op has drained.
pub fn run(pipe: &EcPipe, config: &HarnessConfig) -> Result<HarnessReport> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let payload: Vec<u8> = (0..config.object_size)
        .map(|i| (i as u64).wrapping_mul(0x9e37_79b9).to_le_bytes()[0])
        .collect();
    for i in 0..config.objects {
        pipe.put(&object_name(i), &payload)?;
    }

    let zipf = ZipfSampler::new(config.objects, config.zipf_theta);
    let (tx, rx) = crossbeam::channel::unbounded::<Op>();
    let in_flight = InFlight {
        current: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    };
    let completed = AtomicU64::new(0);
    let interval = Duration::from_secs_f64(1.0 / config.rate);

    let start = Instant::now();
    let mut merged: Option<Vec<WorkerStats>> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let rx = rx.clone();
            let (payload, in_flight, completed) = (&payload, &in_flight, &completed);
            handles.push(scope.spawn(move || {
                let mut stats = WorkerStats::new();
                let mut rng = StdRng::seed_from_u64(config.seed ^ ((w as u64) << 32));
                while let Ok(op) = rx.recv() {
                    let outcome = execute(pipe, &op, payload, &mut rng);
                    let latency = op.scheduled.elapsed().as_nanos().min(u64::MAX as u128);
                    let idx = class_index(op.class);
                    stats.hists[idx].record(latency as u64);
                    if outcome.is_err() {
                        stats.errors[idx] += 1;
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                    in_flight.exit();
                }
                stats
            }));
        }
        drop(rx);

        // The pacer runs on this thread: ops arrive on schedule whether or
        // not the workers keep up (open loop). If the clock slips past
        // several scheduled arrivals, they are emitted back-to-back rather
        // than silently rescheduled.
        let mut next = Instant::now();
        let pacer_deadline = Instant::now() + config.duration;
        while Instant::now() < pacer_deadline {
            let now = Instant::now();
            if now < next {
                std::thread::sleep(next - now);
            }
            let op = Op {
                class: config.mix.pick(&mut rng),
                object: zipf.sample(&mut rng),
                scheduled: next,
            };
            in_flight.enter();
            if tx.send(op).is_err() {
                break;
            }
            next += interval;
        }
        drop(tx);

        merged = Some(handles.into_iter().map(|h| h.join().unwrap()).collect());
    });
    let wall = start.elapsed();

    let mut hists = [
        LatencyHistogram::new(),
        LatencyHistogram::new(),
        LatencyHistogram::new(),
    ];
    let mut errors = [0u64; 3];
    for stats in merged.expect("scope completed") {
        for i in 0..3 {
            hists[i].merge(&stats.hists[i]);
            errors[i] += stats.errors[i];
        }
    }
    let mut overall = LatencyHistogram::new();
    for h in &hists {
        overall.merge(h);
    }
    let done = completed.load(Ordering::Relaxed);
    let transport = match pipe.transport() {
        AnyTransport::Channel(_) => "channel",
        AnyTransport::Tcp(_) => "tcp",
        AnyTransport::Reactor(_) => "reactor",
    };
    Ok(HarnessReport {
        transport,
        wall,
        offered_rate: config.rate,
        achieved_rate: done as f64 / wall.as_secs_f64().max(f64::EPSILON),
        peak_in_flight: in_flight.peak.load(Ordering::SeqCst),
        overall: ClassStats::from_histogram(&overall, errors.iter().sum()),
        per_class: CLASSES
            .iter()
            .enumerate()
            .map(|(i, &class)| (class, ClassStats::from_histogram(&hists[i], errors[i])))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecpipe::EcPipeBuilder;

    fn quick_pipe() -> EcPipe {
        EcPipeBuilder::new()
            .code(4, 2)
            .block_size(4 * 1024)
            .slice_size(1024)
            .build()
            .expect("build pipe")
    }

    fn quick_config() -> HarnessConfig {
        HarnessConfig {
            rate: 500.0,
            duration: Duration::from_millis(300),
            workers: 4,
            objects: 8,
            object_size: 8 * 1024,
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn harness_reports_consistent_counts() {
        let pipe = quick_pipe();
        let report = run(&pipe, &quick_config()).expect("harness run");
        assert!(report.overall.ops > 0, "{}", report.render());
        let class_total: u64 = report.per_class.iter().map(|(_, s)| s.ops).sum();
        assert_eq!(report.overall.ops, class_total);
        assert!(report.peak_in_flight >= 1);
        assert!(report.overall.p50_ns > 0);
        assert!(report.overall.p99_ns >= report.overall.p50_ns);
        assert!(report.overall.p999_ns >= report.overall.p99_ns);
        assert_eq!(report.overall.errors, 0, "{}", report.render());
        pipe.shutdown();
    }

    #[test]
    fn single_class_mixes_run_clean() {
        let pipe = quick_pipe();
        let config = HarnessConfig {
            mix: WorkloadMix {
                put: 0,
                get: 0,
                degraded: 1,
            },
            rate: 200.0,
            ..quick_config()
        };
        let report = run(&pipe, &config).expect("harness run");
        assert_eq!(report.per_class[0].1.ops, 0);
        assert_eq!(report.per_class[1].1.ops, 0);
        assert!(report.per_class[2].1.ops > 0);
        assert_eq!(report.overall.errors, 0, "{}", report.render());
        pipe.shutdown();
    }

    #[test]
    fn bench_lines_follow_the_extended_tsv_format() {
        let pipe = quick_pipe();
        let report = run(&pipe, &quick_config()).expect("harness run");
        let lines = report.bench_lines();
        assert!(lines.contains("load_harness/channel/overall\t"), "{lines}");
        for line in lines.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            assert_eq!(fields.len(), 7, "{line}");
            assert!(fields[1].parse::<f64>().unwrap() > 0.0);
            assert_eq!(fields[2], "-");
            assert!(fields[3].parse::<f64>().unwrap() > 0.0);
            for p in &fields[4..7] {
                assert!(p.parse::<u64>().unwrap() > 0, "{line}");
            }
        }
        pipe.shutdown();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let pipe = quick_pipe();
        for broken in [
            HarnessConfig {
                rate: 0.0,
                ..quick_config()
            },
            HarnessConfig {
                workers: 0,
                ..quick_config()
            },
            HarnessConfig {
                objects: 0,
                ..quick_config()
            },
            HarnessConfig {
                mix: WorkloadMix {
                    put: 0,
                    get: 0,
                    degraded: 0,
                },
                ..quick_config()
            },
        ] {
            assert!(run(&pipe, &broken).is_err());
        }
        pipe.shutdown();
    }
}
