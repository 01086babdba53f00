//! Pieces every workload shares: cluster shapes, seeded payloads, sample
//! statistics, `/proc/self` counters and the result printer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecpipe::{EcPipe, EcPipeBuilder, ExecStrategy, StoreBackend, TransportChoice};
use rand::{RngCore, SeedableRng, StdRng};

use crate::trace::Tracer;

/// The cluster a workload runs on.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub k: usize,
    pub nodes: usize,
    pub block: usize,
    pub slice: usize,
    pub checksummed: bool,
    pub transport: TransportChoice,
}

impl Shape {
    pub fn with_slice(self, slice: usize) -> Shape {
        Shape { slice, ..self }
    }

    pub fn slices(&self) -> usize {
        self.block.div_ceil(self.slice)
    }

    pub fn describe(&self) -> String {
        format!(
            "RS({},{}) over {} nodes, {} KiB blocks in {} KiB slices, {} store, {:?} transport",
            self.n,
            self.k,
            self.nodes,
            self.block >> 10,
            self.slice >> 10,
            if self.checksummed {
                "memory_checksummed"
            } else {
                "memory"
            },
            self.transport
        )
    }

    /// Builds a runtime of this shape. With a tracer the stores are the
    /// tracer's timing wrappers around the same store stack.
    pub fn build(&self, tracer: Option<&Tracer>) -> EcPipe {
        let backend = match tracer {
            Some(tracer) => StoreBackend::custom(
                (0..self.nodes)
                    .map(|_| tracer.store(self.checksummed))
                    .collect(),
            ),
            None if self.checksummed => StoreBackend::memory_checksummed(self.nodes),
            None => StoreBackend::memory(self.nodes),
        };
        EcPipeBuilder::new()
            .code(self.n, self.k)
            .block_size(self.block)
            .slice_size(self.slice)
            .store(backend)
            .transport(self.transport)
            .strategy(ExecStrategy::RepairPipelining)
            .build()
            .unwrap_or_else(|e| fatal(&format!("building the runtime failed: {e}")))
    }
}

/// Prints a fatal error (a byte mismatch, a failed integrity check, a
/// broken set-up) and exits non-zero without printing a result.
pub fn fatal(message: &str) -> ! {
    eprintln!("perfbench: FATAL: {message}");
    std::process::exit(1)
}

/// The bytes of object `id` under `seed`, regenerated on demand so that
/// correctness checks need not keep copies of large objects. Every payload
/// byte and every random choice the benchmark makes derives from the
/// workload seed through `StdRng`.
pub fn payload(seed: u64, id: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ id.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut out = vec![0; len];
    rng.fill_bytes(&mut out);
    out
}

/// Exits non-zero unless `got` is exactly `want`.
pub fn check_bytes(what: &str, got: &[u8], want: &[u8]) {
    if got != want {
        let first = got
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        fatal(&format!(
            "{what}: read {} bytes that differ from the {} written (first difference at byte {first})",
            got.len(),
            want.len()
        ));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A set of measured values (milliseconds unless stated otherwise), each
/// stamped with the instant it was recorded.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    at: Vec<Instant>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.at.push(Instant::now());
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.at.extend_from_slice(&other.at);
    }

    pub fn map(&self, f: impl Fn(f64) -> f64) -> Samples {
        Samples {
            values: self.values.iter().map(|&v| f(v)).collect(),
            at: self.at.clone(),
        }
    }

    /// The samples recorded during the run's quiet seconds, or all of them
    /// when none was.
    pub fn during(&self, quiet: &Quiet) -> Samples {
        let (values, at) = self
            .values
            .iter()
            .zip(&self.at)
            .filter(|(_, &at)| quiet.keeps(at))
            .unzip();
        let kept = Samples { values, at };
        if kept.len() == 0 {
            self.clone()
        } else {
            kept
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Nearest-rank quantile; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Whether at least ten samples lie beyond the `q` quantile.
    pub fn supports(&self, q: f64) -> bool {
        self.values.len() as f64 * (1.0 - q) >= 10.0
    }
}

/// Records the host CPU steal of every second of a run from a background
/// thread.
///
/// Steal is time the hypervisor gave this machine's CPUs to other guests
/// while they had work. On a shared host it comes and goes over seconds to
/// minutes, and it slows a repair pipeline far beyond its share: one
/// repair spreads over a dozen threads on two CPUs, so a descheduled CPU
/// stalls every stage behind it (10% steal was measured to add 30-60% to a
/// degraded read's median).
pub struct StealLog {
    start: Instant,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

impl StealLog {
    pub fn start() -> StealLog {
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut shares = Vec::new();
            let mut prev = cpu_ticks();
            loop {
                let second_end = start + Duration::from_secs(shares.len() as u64 + 1);
                while !flag.load(Ordering::Relaxed) && Instant::now() < second_end {
                    std::thread::sleep(Duration::from_millis(20));
                }
                let now = cpu_ticks();
                shares.push(100.0 * (now.0 - prev.0) / (now.1 - prev.1).max(1.0));
                prev = now;
                if flag.load(Ordering::Relaxed) {
                    return shares;
                }
            }
        });
        StealLog {
            start,
            stop,
            handle,
        }
    }

    /// Stops sampling and picks the quiet seconds: those with at most 2%
    /// steal, or, when fewer than 30% of the run's seconds are that quiet,
    /// its quietest 30%.
    pub fn finish(self) -> Quiet {
        self.stop.store(true, Ordering::Relaxed);
        let shares = self
            .handle
            .join()
            .unwrap_or_else(|_| fatal("steal sampler panicked"));
        let mut sorted = shares.clone();
        sorted.sort_by(f64::total_cmp);
        let threshold = sorted[(sorted.len() * 3 / 10).min(sorted.len() - 1)].max(2.0);
        Quiet {
            start: self.start,
            quiet: shares.iter().map(|&s| s <= threshold).collect(),
            mean: shares.iter().sum::<f64>() / shares.len() as f64,
            threshold,
        }
    }
}

/// The quiet seconds of a run (see [`StealLog::finish`]).
pub struct Quiet {
    start: Instant,
    quiet: Vec<bool>,
    /// Mean steal over the run, percent.
    pub mean: f64,
    /// Highest steal of a quiet second, percent.
    pub threshold: f64,
}

impl Quiet {
    fn keeps(&self, at: Instant) -> bool {
        let second = at.saturating_duration_since(self.start).as_secs() as usize;
        self.quiet[second.min(self.quiet.len() - 1)]
    }

    pub fn seconds(&self) -> (usize, usize) {
        (self.quiet.iter().filter(|&&q| q).count(), self.quiet.len())
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status("VmHWM:") / 1024.0
}

/// Live threads of this process.
pub fn threads() -> f64 {
    proc_status("Threads:")
}

/// Cumulative (steal, total) CPU ticks of the machine from `/proc/stat`.
/// Steal is time the hypervisor ran something else while this machine's
/// CPUs had work: on a shared host it slows every timing of a run.
fn cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat")
        .unwrap_or_else(|e| fatal(&format!("cannot read /proc/stat: {e}")));
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

fn proc_status(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| fatal(&format!("cannot read /proc/self/status: {e}")));
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fatal(&format!("/proc/self/status has no {key} line")))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc/self and getrusage(2) as laid out on 64-bit Linux");

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Process-wide CPU time and context switches, exited threads included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_ms: f64,
    pub switches: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
        // Linux layout (checked by the `compile_error!` gate above), and
        // RUSAGE_SELF (0) asks for this process's own counters.
        let rc = unsafe { getrusage(0, &mut ru) }; // xtask:allow(unsafe-code): getrusage(2) has no safe std wrapper
        if rc != 0 {
            fatal("getrusage(RUSAGE_SELF) failed");
        }
        let tv = |t: [i64; 2]| t[0] as f64 * 1e3 + t[1] as f64 / 1e3;
        Usage {
            cpu_ms: tv(ru.utime) + tv(ru.stime),
            switches: (ru.longs[12] + ru.longs[13]) as f64,
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_ms: self.cpu_ms - earlier.cpu_ms,
            switches: self.switches - earlier.switches,
        }
    }
}

/// Samples this process's thread count every 2 ms until stopped.
pub struct ThreadPeak {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<f64>,
}

impl ThreadPeak {
    pub fn start() -> ThreadPeak {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak: f64 = 0.0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        ThreadPeak { stop, handle }
    }

    /// The peak, not counting the sampler itself.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .unwrap_or_else(|_| fatal("thread sampler panicked"))
            - 1.0
    }
}

/// Runs `f` once to warm up, then until `budget` has passed and at least
/// `min` times; returns the mean time per call in microseconds.
pub fn time_loop(budget: Duration, min: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0usize;
    while calls < min || start.elapsed() < budget {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// The metrics a run reports, printed as they are recorded and once more
/// as the final JSON line. `declared` lists every metric's name and unit,
/// as BENCHMARK.json declares them.
pub struct Output {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Output {
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Output {
        Output {
            declared,
            values: vec![None; declared.len()],
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    /// Records a declared metric; `note` (sample count, definition) goes to
    /// the human-readable line only.
    pub fn metric(&mut self, name: &str, value: f64, note: &str) {
        let Some(i) = self.declared.iter().position(|d| d.0 == name) else {
            fatal(&format!("metric {name} is not declared"));
        };
        let unit = self.declared[i].1;
        println!("  {name:<34} {value:>12.4} {unit:<10} {note}");
        if !value.is_finite() || self.values[i].replace(value).is_some() {
            fatal(&format!("metric {name} was not measured once ({value})"));
        }
    }

    /// Prints the result line and exits 0, once every declared metric has
    /// been recorded.
    pub fn finish(self) -> ! {
        if self.attempted == 0 {
            fatal("the run attempted no operation");
        }
        let body: Vec<String> = self
            .declared
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), value)| match value {
                Some(value) => format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"),
                None => fatal(&format!("metric {name} was not recorded")),
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
        std::process::exit(0)
    }
}
