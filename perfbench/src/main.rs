//! End-to-end and per-layer benchmark of the parmem pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus|synth|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run checks the outputs it produces, prints each metric with its
//! unit, then prints one JSON object as its last line. `--trace 0`
//! reports the end-to-end metrics with tracing off; `--trace 1` runs the
//! same workload untraced and then traced and reports the per-layer
//! metrics. The exit code is non-zero when any output check failed.

mod corpus;
mod cpu;
mod layers;
mod serve;
mod stats;
mod synth;

use std::alloc::{GlobalAlloc, Layout};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parmem_obs::alloc::CountingAlloc;

use crate::stats::{median_secs, Report, Samples};

/// `CountingAlloc` (thread-local counts, process-wide live peak) plus a
/// process-wide count of allocation calls, which the serve workload needs
/// because its pipeline runs on daemon threads.
struct BenchAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `CountingAlloc`, which
// forwards to the system allocator; the extra counter is an atomic add
// that never allocates.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        CountingAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        CountingAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        CountingAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: BenchAlloc = BenchAlloc;

/// Process-wide allocation calls so far.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

pub const WORKLOADS: [&str; 3] = ["corpus", "synth", "serve"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("option `{flag}` needs a value"))?;
        let bad = || format!("option `{flag}` has invalid value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    Ok(args)
}

/// What a workload's timed window measured, for the end-to-end metrics.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Each set-up repetition's wall time.
    pub setup: Vec<Duration>,
    /// Successful ops per second.
    pub throughput: f64,
    /// Latency of every successful op in the window.
    pub latency: Samples,
    /// Latency limit that `goodput_rps` counts against, ms.
    pub limit_ms: f64,
    /// Process-wide allocation calls in the window.
    pub allocs: u64,
    /// Ops the allocation count covers (successful or not).
    pub ops: u64,
    /// Extra copies over one pass of the workload's inputs.
    pub extra_copies: u64,
}

/// A closed loop's timed window.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Process-wide allocation calls.
    pub allocs: u64,
    pub ops: u64,
    /// Each input's op times at reference host speed, seconds.
    pub times: Vec<Vec<f64>>,
    /// The host speed of every op.
    pub speeds: Vec<f64>,
}

impl ClosedLoop {
    /// Ops per second of one pass over the inputs, each input taking its
    /// median op time at reference host speed, so neither a hiccup during
    /// one op nor the host's speed moves a run's figure.
    pub fn throughput(&self) -> f64 {
        let pass: f64 = self.times.iter().map(|t| stats::median(t)).sum();
        if pass > 0.0 {
            self.times.len() as f64 / pass
        } else {
            0.0
        }
    }
}

/// Closed loop with one client: whole passes over `items` inputs, each
/// pass in a fresh seeded order, until `seconds` have elapsed. `op` runs
/// one input and returns its time at reference host speed and the host
/// speed that scaled it (see `stats::timed`).
pub fn closed_loop(
    seconds: u64,
    items: usize,
    rng: &mut stats::Rng,
    mut op: impl FnMut(usize) -> (Duration, f64),
) -> ClosedLoop {
    let mut order: Vec<usize> = (0..items).collect();
    let mut out = ClosedLoop {
        times: vec![Vec::new(); items],
        ..ClosedLoop::default()
    };
    let (a0, t0) = (alloc_calls(), Instant::now());
    while t0.elapsed() < Duration::from_secs(seconds) {
        rng.shuffle(&mut order);
        for &i in &order {
            let (d, speed) = op(i);
            out.times[i].push(d.as_secs_f64());
            out.speeds.push(speed);
        }
        out.ops += items as u64;
    }
    out.allocs = alloc_calls() - a0;
    out
}

pub fn emit_end_to_end(r: &mut Report, e: &EndToEnd) {
    r.metric("setup_s", median_secs(&e.setup), "s");
    r.metric("throughput_ops_s", e.throughput, "1/s");
    r.metric("latency_ms_p50", e.latency.p50(), "ms");
    let (p, tail) = e.latency.tail().unwrap_or((0.0, 0.0));
    r.note("tail_percentile", p);
    r.note("tail_samples", e.latency.len());
    r.metric("latency_ms_tail", tail, "ms");
    // Successful ops within the latency limit, at the measured rate.
    let within = e.latency.count_at_most(e.limit_ms) as f64 / e.latency.len().max(1) as f64;
    r.note("latency_limit_ms", e.limit_ms);
    r.metric("goodput_rps", e.throughput * within, "1/s");
    let (_, peak) = parmem_obs::alloc::global_live_peak();
    r.metric("peak_mb", peak as f64 / 1e6, "MB");
    r.metric(
        "allocs_per_op",
        e.allocs as f64 / e.ops.max(1) as f64,
        "count",
    );
    r.metric("extra_copies", e.extra_copies as f64, "copies");
    let ok = 1.0 - r.failed as f64 / r.attempted.max(1) as f64;
    r.metric("ok_ratio", ok, "ratio");
}

fn run_workload(args: &Args) -> Report {
    let mut r = Report::default();
    // Read before pinning, which narrows both to one CPU.
    let nproc = parallelism();
    let cpus = cpu::allowed();
    r.note("available_parallelism", nproc);
    // The measured work runs on one CPU, the one the probes run on (see
    // `cpu`); serve's generator gets another when there is one.
    if let Some(&work) = cpus.first() {
        if cpu::pin(work) {
            r.note("work_cpu", work);
        }
    }
    let rq0 = stats::runqueue_wait();
    let t0 = std::time::Instant::now();
    match args.workload.as_str() {
        "corpus" => corpus::run(args, &mut r),
        "synth" => synth::run(args, &mut r),
        "serve" => serve::run(args, &mut r, nproc, cpus.get(1).copied()),
        other => unreachable!("workload `{other}` passed argument checks"),
    }
    if let (Some(a), Some(b)) = (rq0, stats::runqueue_wait()) {
        let wait = b.saturating_sub(a).as_secs_f64();
        r.note(
            "runqueue_wait_pct",
            format!("{:.2}", 100.0 * wait / t0.elapsed().as_secs_f64()),
        );
    }
    r
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn print_report(workload: &str, r: &Report) {
    for m in &r.metrics {
        println!("{workload} {} = {} {}", m.name, m.value, m.unit);
    }
    let fail_ratio = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{workload} fail_ratio = {fail_ratio} ratio ({} of {} ops failed)",
        r.failed, r.attempted
    );
    for (k, v) in &r.context {
        println!("{workload} context {k} = {v}");
    }
    for e in &r.errors {
        eprintln!("{workload} check failed: {e}");
    }
}

/// `--workload all`: run each workload in its own child process (so each
/// reports its own process-wide peak) and merge their results, prefixing
/// every metric with its workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut merged = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn a workload run");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in &lines {
            println!("{l}");
        }
        let Some(result) = parse_result(last) else {
            eprintln!("workload {w} printed no result");
            return ExitCode::FAILURE;
        };
        correct &= result.0 && out.status.success();
        attempted += result.1;
        failed += result.2;
        // Metric lines read `<workload> <name> = <value> <unit>`.
        for l in &lines {
            let parts: Vec<&str> = l.split_whitespace().collect();
            if let [lw, name, "=", value, unit] = parts[..] {
                if lw == w && stats::valid_metric_name(name) {
                    merged.push(format!(
                        "\"{w}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    ));
                }
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        merged.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Split a result line into `(correct, attempted, failed)`.
fn parse_result(line: &str) -> Option<(bool, u64, u64)> {
    let field = |key: &str| -> Option<&str> {
        let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[start..];
        Some(&rest[..rest.find(',')?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    Some((correct, attempted, failed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let report = run_workload(&args);
    print_report(&args.workload, &report);
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_are_strict() {
        let a = parse_args(&argv("--workload synth --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("synth", 7, 3, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload corpus --trace 2")).is_err());
        assert!(parse_args(&argv("--workload corpus --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload corpus --seconds")).is_err());
    }

    #[test]
    fn result_lines_round_trip() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        r.metric("latency_ms_p50", 2.0, "ms");
        r.check(true, String::new);
        assert_eq!(parse_result(&r.json()), Some((true, 1, 0)));
    }
}
