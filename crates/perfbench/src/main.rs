//! Repair benchmark for the ECPipe runtime.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/perfbench/Cargo.toml -- \
//!     --workload <degraded_read|node_recovery|mixed_serving> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, so peak memory and
//! `/proc/self` counters belong to that workload alone. All inputs (object
//! payloads, which object each op touches, the op mix, the node each
//! recovery round kills) derive from `--seed`; the runtime receives only
//! those generated inputs. Every read is compared byte for byte with the
//! payload written, every rebuilt block is verified, and any mismatch exits
//! non-zero without printing a result.
//!
//! `--trace 0` measures the end-to-end metrics through the public `EcPipe`
//! façade. Every metric is measured on every workload; what a metric means
//! on a workload is printed next to its value. Timings are medians over the
//! seconds of the run in which the host stole little CPU (see
//! [`StealLog`]), with the whole run's median printed beside them; a p99 is
//! printed where at least ten samples lie beyond it. The failure share and
//! the check of failed ops against `ManagerReport::failed_repairs` are
//! printed too: a run in which the manager gave up on a repair that no op
//! saw fail reports `"correct": false`.
//!
//! `--trace 1` measures the layers from outside the runtime: timing
//! `BlockStore` wrappers above and below the integrity layer, transport
//! counter diffs, the `ManagerReport` returned by `shutdown`, `getrusage`
//! and `/proc/self`, and timed direct calls into each layer ("rungs"). It
//! also runs an untraced pass to report the tracing overhead, a slice-size
//! sweep, and a per-op time budget of the degraded read.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod common;
mod rungs;
mod trace;
mod workloads;

use std::time::Duration;

use common::{peak_rss_mib, Output, Quiet, Samples, Shape, StealLog};
use rungs::{Rungs, SWEEP_KIB};
use trace::{split_degraded, Side, Split, Tracer};
use workloads::{preload, Pass, Workload};

const USAGE: &str = "usage: perfbench --workload <degraded_read|node_recovery|mixed_serving> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// End-to-end metrics (`--trace 0`), as declared in BENCHMARK.json.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("degraded_read_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("put_p50_ms", "ms"),
    ("recovery_mb_s", "MB/s"),
];

/// Per-layer metrics (`--trace 1`), as declared in BENCHMARK.json.
const PER_LAYER: &[(&str, &str)] = &[
    ("gf256.mul_add_gb_s", "GB/s"),
    ("gf256.bytes_combined_per_repair", "bytes"),
    ("integrity.crc32_mb_s", "MB/s"),
    ("integrity.verify_ms_per_op", "ms"),
    ("integrity.put_ms_per_op", "ms"),
    ("integrity.slice_get_us", "us"),
    ("store.slice_get_us", "us"),
    ("store.get_calls_per_op", "count"),
    ("store.get_busy_ms_per_op", "ms"),
    ("store.bytes_read_per_op", "bytes"),
    ("store.put_calls_per_op", "count"),
    ("store.put_busy_ms_per_op", "ms"),
    ("transport.hop_us.channel", "us"),
    ("transport.hop_us.tcp", "us"),
    ("transport.hop_us.reactor", "us"),
    ("transport.messages_per_repair", "count"),
    ("transport.bytes_per_repair", "bytes"),
    ("transport.send_busy_ms_per_repair", "ms"),
    ("manager.queue_wait_p50_ms", "ms"),
    ("manager.queue_wait_max_ms", "ms"),
    ("manager.repair_p50_ms", "ms"),
    ("manager.repairs", "repairs/op"),
    ("manager.replans", "count"),
    ("manager.failed_repairs", "count"),
    ("manager.peak_inflight", "count"),
    ("exec.single_repair_ms", "ms"),
    ("exec.per_slice_us", "us"),
    ("exec.sweep_p50_ms.4k", "ms"),
    ("exec.sweep_p50_ms.32k", "ms"),
    ("exec.sweep_p50_ms.128k", "ms"),
    ("facade.self_ms", "ms"),
    ("meta.object_meta_us", "us"),
    ("ecc.encode_ms_per_stripe", "ms"),
    ("proc.cpu_ms_per_op", "ms"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.threads_peak", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.peak_in_flight", "count"),
    ("loadgen.generator_threads", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Set-ups per run for the workloads that set up once: a warm-up, then
/// seven whose median is `setup_s`.
const SETUPS: usize = 8;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| -> Result<&str, String> {
            let at = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            argv.get(at + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let name = value("--workload")?.to_string();
        let workload =
            Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let seed = value("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?;
        let seconds: f64 = value("--seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        let trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        Ok(Args {
            workload,
            name,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    // Store calls from this thread are the client's, not the runtime's.
    trace::mark_client_thread();
    let shape = args.workload.shape();
    println!(
        "perfbench {} seed={} seconds={} trace={} on {} cores, gf256 path {:?}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        gf256::active_path()
    );
    println!("  cluster: {}", shape.describe());
    if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    }
}

/// What each end-to-end sample set means on a workload.
fn meaning(workload: Workload) -> [&'static str; 4] {
    match workload {
        Workload::DegradedRead => [
            "client get_range of an erased 1 MiB block",
            "client get_range of the intact block beside it",
            "put of a 10 MiB one-stripe object, during set-up",
            "one 1 MiB block per degraded read, over its latency",
        ],
        Workload::NodeRecovery => [
            "degraded-read probe after each round (1 MiB block)",
            "probe read of the intact block beside it",
            "put of a 10 MiB one-stripe object, during set-up",
            "one round's lost blocks, report_node_failure..wait_idle",
        ],
        Workload::MixedServing => [
            "degraded get (erase block 0, get), from scheduled send",
            "get of a 64 KiB object, from scheduled send",
            "put of a fresh 64 KiB object, from scheduled send",
            "one 64 KiB block per degraded get, over its service time",
        ],
    }
}

/// Records the p50 of the samples taken in quiet seconds as a metric, and
/// prints their p99 when at least ten lie beyond it and the whole run's p50.
fn timing(out: &mut Output, metric: &str, all: &Samples, quiet: &Quiet, meaning: &str) {
    let samples = all.during(quiet);
    let n = format!("n={}/{}", samples.len(), all.len());
    out.metric(metric, samples.median(), &format!("{n} {meaning}"));
    let p99 = metric.replace("p50", "p99");
    if samples.supports(0.99) {
        let v = samples.quantile(0.99);
        println!("  {p99:<34} {v:>12.4} ms         {n}");
    } else {
        println!(
            "  {p99:<34} {:>12} ms         {n} (under 10 samples beyond p99)",
            "-"
        );
    }
    let whole = metric.replace("p50", "p50_whole_run");
    println!(
        "  {whole:<34} {:>12.4} ms         n={}",
        all.median(),
        all.len()
    );
}

fn end_to_end(args: &Args) -> ! {
    let steal = StealLog::start();
    let duration = Duration::from_secs_f64(args.seconds);
    let pass = args.workload.pass(args.seed, duration, SETUPS, None);
    let quiet = steal.finish();
    let (calm, seconds) = quiet.seconds();
    println!(
        "  host CPU steal: {:.1}% mean; timings below are from the {calm} of {seconds} seconds \
         with steal <= {:.1}% (the quietest 30% when fewer are under 2%)",
        quiet.mean, quiet.threshold
    );
    println!(
        "  generator threads: {} (pacer included)",
        pass.generator_threads
    );
    let mut out = Output::new(END_TO_END);
    let [degraded, read, put, recovery] = meaning(args.workload);
    println!("end-to-end metrics:");
    let setups = format!(
        "median of n={} set-ups (build + preload)",
        pass.setup_s.len()
    );
    out.metric("setup_s", pass.setup_s.median(), &setups);
    out.metric("peak_rss_mb", peak_rss_mib(), "VmHWM of this process");
    timing(
        &mut out,
        "degraded_read_p50_ms",
        &pass.degraded,
        &quiet,
        degraded,
    );
    timing(&mut out, "read_p50_ms", &pass.reads, &quiet, read);
    timing(&mut out, "put_p50_ms", &pass.puts, &quiet, put);
    let windows = pass.recovery.during(&quiet);
    let note = format!(
        "median of n={}/{} loss windows: {recovery}",
        windows.len(),
        pass.recovery.len()
    );
    out.metric("recovery_mb_s", windows.median(), &note);
    finish(out, &[&pass])
}

/// Prints the failure share and the manager cross-check over `passes`,
/// then the result line.
fn finish(mut out: Output, passes: &[&Pass]) -> ! {
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let failed_repairs: f64 = passes.iter().map(|p| p.failed_repairs).sum();
    let share = failed as f64 / attempted.max(1) as f64;
    println!(
        "  {:<34} {share:>12.4} {:<10} failed={failed} of attempted={attempted}",
        "failed_share", "ratio"
    );
    println!("  manager cross-check: failed_repairs={failed_repairs} vs failed ops={failed}");
    // A repair the manager gave up on must have surfaced as a failed op.
    out.correct = failed_repairs <= failed as f64;
    out.attempted = attempted;
    out.failed = failed;
    out.finish()
}

fn traced(args: &Args) -> ! {
    let (w, seed, s) = (args.workload, args.seed, args.seconds);
    let shape = w.shape();
    let secs = |share: f64| Duration::from_secs_f64(s * share);
    let untraced = w.pass(seed, secs(0.35), 1, None);
    let tracer = Tracer::default();
    let t = w.pass(seed, secs(0.35), 1, Some(&tracer));

    let pipe = shape.build(None);
    let (len, keep) = (shape.k * shape.block, 2 * shape.block);
    let objs = preload(&pipe, seed, 1, len, keep, &mut Samples::default());
    let rungs = rungs::measure(shape, seed, secs(0.1 / 8.0), &pipe, &objs[0]);
    pipe.shutdown();
    let (sweep, per_slice_us) = rungs::sweep(shape, seed, secs(0.2 / 3.0));

    let mut out = Output::new(PER_LAYER);
    println!("rungs (direct calls at this workload's block and slice size):");
    let one_hop = "one slice: send, then recv";
    let exec_note = format!(
        "median of n={} exec::execute_single, no manager or facade",
        rungs.exec_calls
    );
    for (name, value, note) in [
        (
            "gf256.mul_add_gb_s",
            rungs.gf_gb_s,
            "mul_add_slice on one slice",
        ),
        ("integrity.crc32_mb_s", rungs.crc_mb_s, "crc32 on one slice"),
        (
            "integrity.slice_get_us",
            rungs.checksummed_slice_us,
            "ChecksummedStore::get_range",
        ),
        (
            "store.slice_get_us",
            rungs.memory_slice_us,
            "MemoryStore::get_range",
        ),
        ("transport.hop_us.channel", rungs.hop_us[0], one_hop),
        ("transport.hop_us.tcp", rungs.hop_us[1], one_hop),
        ("transport.hop_us.reactor", rungs.hop_us[2], one_hop),
        (
            "ecc.encode_ms_per_stripe",
            rungs.encode_ms,
            "ErasureCode::encode of k blocks",
        ),
        ("exec.single_repair_ms", rungs.exec_ms, &exec_note),
    ] {
        out.metric(name, value, note);
    }
    let combined = format!("{} helpers x one block each", rungs.helpers);
    let bytes_combined = (rungs.helpers * shape.block) as f64;
    out.metric("gf256.bytes_combined_per_repair", bytes_combined, &combined);

    println!("slice sweep (this workload's degraded read, fresh untraced runtimes):");
    let names = [
        "exec.sweep_p50_ms.4k",
        "exec.sweep_p50_ms.32k",
        "exec.sweep_p50_ms.128k",
    ];
    for (point, name) in sweep.iter().zip(names) {
        let note = format!(
            "n={} at {} KiB slices ({} per block)",
            point.samples,
            point.slice >> 10,
            point.slices
        );
        out.metric(name, point.p50_ms, &note);
    }
    let slope = format!("slope of p50 over slices per block, sizes {SWEEP_KIB:?} KiB");
    out.metric("exec.per_slice_us", per_slice_us, &slope);

    println!("traced pass ({:.1} s):", s * 0.35);
    let ops = t.ops;
    let per_op = format!("per op over {ops} ops");
    let per_repair = format!("per repair over {} repairs", t.repairs);
    let (l, store) = (&t.layers, t.layers.store_total());
    let crc_read = l.crc_read_ms(Side::Runtime) + l.crc_read_ms(Side::Client);
    let crc_put = l.crc_put_ms(Side::Runtime) + l.crc_put_ms(Side::Client);
    let class: Vec<_> = t
        .outcomes
        .iter()
        .filter(|o| o.priority == w.repair_class())
        .collect();
    let queue = samples(class.iter().map(|o| common::ms(o.queue_wait)));
    let repair = samples(class.iter().map(|o| common::ms(o.duration)));
    let class_note = format!("n={} {:?} repairs", class.len(), w.repair_class());
    let splits = split_degraded(&t.deg.calls, &t.outcomes);
    let facade = samples(splits.iter().map(|s| s.facade));
    let facade_note = format!(
        "n={} degraded reads: latency - (queue_wait + duration)",
        facade.len()
    );
    let meta_note = format!("n={} EcPipe::object_meta calls", t.deg.meta_us.len());
    let (q, late) = highest_supported(&t.late);
    let late_note = format!(
        "p{:.1} of n={} (p99, or the highest with 10 beyond)",
        q * 100.0,
        t.late.len()
    );
    let rows: &[(&str, f64, &str)] = &[
        ("store.get_calls_per_op", store.reads / ops, &per_op),
        ("store.get_busy_ms_per_op", store.read_ms / ops, &per_op),
        ("store.bytes_read_per_op", store.read_bytes / ops, &per_op),
        ("store.put_calls_per_op", store.puts / ops, &per_op),
        ("store.put_busy_ms_per_op", store.put_ms / ops, &per_op),
        ("integrity.verify_ms_per_op", crc_read / ops, &per_op),
        ("integrity.put_ms_per_op", crc_put / ops, &per_op),
        (
            "transport.messages_per_repair",
            t.links.messages / t.repairs,
            &per_repair,
        ),
        (
            "transport.bytes_per_repair",
            t.links.bytes / t.repairs,
            &per_repair,
        ),
        (
            "transport.send_busy_ms_per_repair",
            t.links.busy_ms / t.repairs,
            &per_repair,
        ),
        ("manager.queue_wait_p50_ms", queue.median(), &class_note),
        ("manager.queue_wait_max_ms", queue.max(), &class_note),
        ("manager.repair_p50_ms", repair.median(), &class_note),
        ("manager.repairs", class.len() as f64 / ops, &per_op),
        ("manager.replans", t.replans, "whole traced pass"),
        (
            "manager.failed_repairs",
            t.failed_repairs,
            "whole traced pass",
        ),
        (
            "manager.peak_inflight",
            t.peak_inflight,
            "most repair roles one node held",
        ),
        ("facade.self_ms", facade.median(), &facade_note),
        ("meta.object_meta_us", t.deg.meta_us.median(), &meta_note),
        ("proc.cpu_ms_per_op", t.usage.cpu_ms / ops, &per_op),
        ("proc.ctx_switches_per_op", t.usage.switches / ops, &per_op),
        ("proc.threads_peak", t.threads_peak, "sampled every 2 ms"),
        ("loadgen.late_p99_ms", late, &late_note),
        (
            "loadgen.peak_in_flight",
            t.in_flight_peak,
            "ops scheduled, not completed",
        ),
        (
            "loadgen.generator_threads",
            t.generator_threads,
            "client threads, pacer included",
        ),
    ];
    for &(name, value, note) in rows {
        out.metric(name, value, note);
    }

    let coverage = budget(shape, &t, &splits, &rungs);
    out.metric(
        "trace.coverage",
        coverage,
        "layer self times over degraded-read latency",
    );
    let overhead = format!(
        "traced p50 {:.4} ms (n={}) over untraced p50 {:.4} ms (n={})",
        t.primary.median(),
        t.primary.len(),
        untraced.primary.median(),
        untraced.primary.len()
    );
    let ratio = t.primary.median() / untraced.primary.median();
    out.metric("trace.overhead", ratio, &overhead);
    finish(out, &[&t, &untraced])
}

fn samples(values: impl Iterator<Item = f64>) -> Samples {
    let mut s = Samples::default();
    for v in values {
        s.push(v);
    }
    s
}

/// The p99 when ten samples lie beyond it, else the highest quantile that
/// has ten beyond it (the maximum below ten samples).
fn highest_supported(s: &Samples) -> (f64, f64) {
    let n = s.len() as f64;
    let q = if s.supports(0.99) {
        0.99
    } else if n > 10.0 {
        1.0 - 10.0 / n
    } else {
        1.0
    };
    (q, s.quantile(q))
}

/// Prints the degraded read's time budget: each layer's self time per op
/// next to the measured latency, and returns coverage (their sum over the
/// latency).
///
/// The façade's share is the read latency minus the matched repair
/// outcome's queue wait and duration; the client-side store and integrity
/// work inside it is shown on its own rows. The repair's helpers run in
/// parallel but share the host's cores, so each execution layer is charged
/// its work per read (summed over runtime threads) divided by the cores
/// that can run it, `P = min(cores, helpers)`. Store and integrity work is
/// measured by the wrappers; GF and transport work is the rung cost times
/// the bytes combined and the messages sent per repair. The requestor's
/// write of the rebuilt block is serial.
fn budget(shape: Shape, t: &Pass, splits: &[Split], rungs: &Rungs) -> f64 {
    let d = &t.deg.layers;
    let n = splits.len() as f64;
    let mean = |f: fn(&Split) -> f64| splits.iter().map(f).sum::<f64>() / n;
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let p = cores.min(rungs.helpers) as f64;
    let hop_us = rungs.hop_us[match shape.transport {
        ecpipe::TransportChoice::Channel => 0,
        ecpipe::TransportChoice::Tcp => 1,
        _ => 2,
    }];
    let reads = t.deg.lat.len() as f64;
    let client_store = d.store(Side::Client).read_ms / reads;
    let client_crc = d.crc_read_ms(Side::Client) / reads;
    let gf_ms = (rungs.helpers * shape.block) as f64 / (rungs.gf_gb_s * 1e6);
    let hop_ms = t.links.messages / t.repairs * hop_us / 1e3;
    let rows = [
        (
            "facade, own work",
            mean(|s| s.facade) - client_store - client_crc,
            "latency - queue - duration - 2 rows below",
        ),
        ("facade, store reads", client_store, "client raw read busy"),
        (
            "facade, integrity checks",
            client_crc,
            "client outer - inner read busy",
        ),
        (
            "manager queue wait",
            mean(|s| s.queue),
            "RepairOutcome::queue_wait",
        ),
        (
            "exec, store reads",
            d.store(Side::Runtime).read_ms / reads / p,
            "raw read busy / P",
        ),
        (
            "exec, integrity checks",
            d.crc_read_ms(Side::Runtime) / reads / p,
            "outer - inner read busy / P",
        ),
        (
            "exec, gf256 combine",
            gf_ms / p,
            "bytes combined / mul_add rung / P",
        ),
        (
            "exec, transport hops",
            hop_ms / p,
            "messages per repair x hop rung / P",
        ),
        (
            "exec, store write of the block",
            d.store(Side::Runtime).put_ms / reads,
            "raw put busy",
        ),
        (
            "exec, integrity on the block",
            d.crc_put_ms(Side::Runtime) / reads,
            "outer - inner put busy",
        ),
    ];
    let op = mean(|s| s.op);
    let covered: f64 = rows.iter().map(|r| r.1).sum();
    println!(
        "degraded-read budget (means over n={} reads; P = min({cores} cores, {} helpers) = {p}):",
        splits.len(),
        rungs.helpers
    );
    for (layer, ms, how) in rows {
        println!(
            "  {layer:<34} {ms:>10.4} ms  {:>6.1}%  {how}",
            100.0 * ms / op
        );
    }
    println!("  {:<34} {op:>10.4} ms  measured", "degraded read latency");
    println!("  {:<34} {:>10.4} ms", "(not covered)", op - covered);
    covered / op
}
