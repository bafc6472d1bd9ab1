//! `serve`: an in-process `parmem_serve::Daemon` (one pipeline worker)
//! driven by one open-loop generator at a fixed rate. Requests are
//! `/v1/compile` and `/v1/assign` over corpus program × k ∈ {2, 4, 8} ×
//! array policy. Popularity is skewed, so most requests hit the response
//! cache, and the cache is smaller than the key set's bodies, so misses
//! insert and evict beside the hits. A hit costs only the serve layer; a
//! miss costs the pipeline, including the planned-layout simulator.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use parmem_core::layout::ArrayPolicy;
use parmem_driver::Session;
use parmem_serve::{Daemon, ServeConfig};

use crate::layers::{self, Extra, SpanAgg, StageAgg};
use crate::stats::{self, Report, Rng, Samples, Schedule};
use crate::{alloc_calls, cpu, emit_end_to_end, EndToEnd};

/// Offered load, requests per second. One pipeline worker sustains about
/// 130-200 requests/s of this mix closed-loop on 2 cores; the rate sits
/// well below that because the generator's two senders stall behind
/// concurrent misses at higher rates, which made the tail unsteady.
const RATE: f64 = 30.0;

/// Latency limit for `goodput_rps`, ms.
const LIMIT_MS: f64 = 250.0;

/// Response-cache budget, bytes: below the 84782 body bytes of the whole
/// key set, so the cache fills during a window and evicts.
const CACHE_BYTES: usize = 80 * 1024;

/// How often the open loop's probe thread reads the host speed: a cache
/// miss (about 35 ms) spans two or three readings. One reading costs under
/// half a millisecond of the daemon's CPU.
const PROBE_EVERY: Duration = Duration::from_millis(20);

/// Set-ups per run; `setup_s` is their median and the last one serves the
/// timed window.
const SETUPS: usize = 3;

const KS: [usize; 3] = [2, 4, 8];
const POLICIES: [ArrayPolicy; 4] = [
    ArrayPolicy::Interleaved,
    ArrayPolicy::Hash,
    ArrayPolicy::Block,
    ArrayPolicy::Auto,
];

#[derive(Clone, Debug)]
struct Key {
    compile: bool,
    program: &'static str,
    source: &'static str,
    k: usize,
    policy: ArrayPolicy,
}

impl Key {
    fn path(&self) -> &'static str {
        if self.compile {
            "/v1/compile"
        } else {
            "/v1/assign"
        }
    }

    fn body(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"k\":{},\"array_policy\":\"{}\"}}",
            self.program,
            self.k,
            self.policy.name()
        )
    }

    fn session(&self) -> Session {
        Session::new(self.k).with_array_policy(self.policy)
    }

    /// The response body computed in-process through `Session`.
    fn expected(&self) -> String {
        let session = self.session();
        if self.compile {
            let result = session.run(self.program, self.source);
            return format!(
                "{{\"schema\":\"parmem-serve-compile/v1\",\"job\":{}}}",
                parmem_batch::report::job_json(&result, false)
            );
        }
        let prog = session
            .compile(self.source)
            .expect("corpus programs compile");
        let trace = prog.sched.access_trace();
        let (assignment, report) = session.assign(&prog);
        let values = trace.distinct_values();
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for &v in &values {
            bytes.extend_from_slice(&assignment.copies(v).0.to_le_bytes());
        }
        format!(
            "{{\"schema\":\"parmem-serve-assign/v1\",\"program\":\"{}\",\"k\":{},\
             \"strategy\":\"{}\",\"seed\":{},\"instructions\":{},\"values\":{},\
             \"single_copy\":{},\"multi_copy\":{},\"extra_copies\":{},\"uncolored\":{},\
             \"atoms\":{},\"residual_conflicts\":{},\"repair_copies\":{},\
             \"assignment_digest\":\"{:016x}\"}}",
            self.program,
            self.k,
            session.strategy.name(),
            session.seed,
            trace.instructions.len(),
            values.len(),
            report.single_copy,
            report.multi_copy,
            report.extra_copies,
            report.uncolored,
            report.atoms,
            report.residual_conflicts,
            report.repair_copies,
            parmem_serve::cache::fnv1a(&bytes),
        )
    }
}

/// Every key, in a fixed popularity order (independent of the workload
/// seed, so every seed sees the same hot set).
fn keys_by_rank() -> Vec<Key> {
    let mut keys = Vec::new();
    for b in workloads::all_benchmarks() {
        for k in KS {
            for policy in POLICIES {
                keys.push(Key {
                    compile: true,
                    program: b.name,
                    source: b.source,
                    k,
                    policy,
                });
            }
            // The policy does not change an assignment, so assign keys
            // carry one policy only.
            keys.push(Key {
                compile: false,
                program: b.name,
                source: b.source,
                k,
                policy: ArrayPolicy::Interleaved,
            });
        }
    }
    Rng::new(0x005E_ED0F_5EED).shuffle(&mut keys);
    keys
}

/// Requests per key (by rank) in a window of `total`: key `r` appears
/// `max(1, head / (r + 1))` times, `head` the least that fills the window,
/// so every window holds the same multiset of requests: a skewed head of
/// repeated keys and a tail of keys requested once.
fn counts(keys: usize, total: usize) -> Vec<usize> {
    let count = |head: usize, r: usize| (head / (r + 1)).max(1);
    let head = (1..=total.max(1))
        .find(|&h| (0..keys).map(|r| count(h, r)).sum::<usize>() >= total)
        .unwrap_or(1);
    (0..keys).map(|r| count(head, r)).collect()
}

/// The timed window's request order. A repeated key's requests sit at
/// evenly spaced points `(j + phase) / c` of the window with a seeded
/// phase; the keys requested once (the cold keys, whose requests miss)
/// take evenly spaced slots in a seeded order. So misses never bunch up,
/// and they spread over the window alike for every seed.
fn sequence(counts: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut once: Vec<usize> = (0..counts.len()).filter(|&r| counts[r] == 1).collect();
    rng.shuffle(&mut once);
    let offset = rng.unit();
    let mut slots: Vec<(f64, usize)> = once
        .iter()
        .enumerate()
        .map(|(i, &r)| ((i as f64 + offset) / once.len() as f64, r))
        .collect();
    for (r, &c) in counts.iter().enumerate().filter(|(_, &c)| c > 1) {
        let phase = rng.unit();
        slots.extend((0..c).map(|j| ((j as f64 + phase) / c as f64, r)));
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0));
    slots.into_iter().map(|(_, r)| r).collect()
}

/// A response as the generator saw it.
struct Response {
    status: u16,
    hit: bool,
    body: String,
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let hit = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("x-parmem-cache: hit"));
    Ok(Response {
        status,
        hit,
        body: body.to_string(),
    })
}

/// Response-cache evictions and intermediate-cache `(hits, misses)` so
/// far, from `/v1/stats`.
fn cache_stats(addr: SocketAddr) -> [u64; 3] {
    let body = request(addr, "GET", "/v1/stats", "")
        .map(|r| r.body)
        .unwrap_or_default();
    let field = |section: &str, name: &str| -> u64 {
        let Some(at) = body.find(&format!("\"{section}\":{{")) else {
            return 0;
        };
        let object = &body[at..];
        json_u64(&object[..object.find('}').unwrap_or(object.len())], name).unwrap_or(0)
    };
    [
        field("cache", "evictions"),
        field("intermediates", "hits"),
        field("intermediates", "misses"),
    ]
}

fn start() -> (Daemon, SocketAddr) {
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        cache_bytes: CACHE_BYTES,
        ..ServeConfig::default()
    })
    .expect("bind a loopback port");
    let addr = daemon.local_addr();
    (daemon, addr)
}

/// One set-up: start a daemon, wait for `/healthz`, and warm its cache
/// with every repeated key and every assign key (least popular first), so
/// the window's misses are the compile keys it requests once. Returns the
/// running daemon and the set-up time at reference host speed; each warm
/// request's outcome goes to `warm`.
fn set_up(
    keys: &[Key],
    counts: &[usize],
    seen: &Seen,
    warm: &mut Vec<(usize, bool)>,
) -> (Daemon, SocketAddr, Duration) {
    let ((daemon, addr), mut setup, _) = stats::timed(|| {
        let (daemon, addr) = start();
        while !request(addr, "GET", "/healthz", "").is_ok_and(|r| r.status == 200) {
            std::thread::sleep(Duration::from_millis(1));
        }
        (daemon, addr)
    });
    for key in (0..keys.len())
        .rev()
        .filter(|&i| counts[i] > 1 || !keys[i].compile)
    {
        let k = &keys[key];
        let (resp, d, _) = stats::timed(|| request(addr, "POST", k.path(), &k.body()));
        setup += d;
        warm.push((key, resp.is_ok_and(|resp| record(seen, key, &resp))));
    }
    (daemon, addr, setup)
}

/// Bodies seen per key; every later 200 body must equal the first.
type Seen = Mutex<HashMap<usize, String>>;

/// One request's outcome in the timed window.
struct Sample {
    key: usize,
    /// Scheduled send time, from the window start.
    due: Duration,
    status: u16,
    hit: bool,
    consistent: bool,
    /// From the scheduled send time, at reference host speed.
    latency: Duration,
    /// Actual send time less scheduled send time.
    lateness: Duration,
}

fn record(seen: &Seen, key: usize, resp: &Response) -> bool {
    if resp.status != 200 {
        return false;
    }
    let mut seen = seen.lock().expect("no sender panics holding the map");
    seen.entry(key).or_insert_with(|| resp.body.clone()) == &resp.body
}

/// The open loop's sender threads and the CPU they run on, away from the
/// daemon's.
#[derive(Clone, Copy, Debug)]
struct Generator {
    senders: usize,
    cpu: Option<usize>,
}

/// Open loop: `gen.senders` threads share one schedule; each sends the
/// next due request on its own connection, so a slow miss delays later
/// sends only once every sender is busy, and that delay counts in their
/// latency. A probe thread on the daemon's CPU reads the host speed every
/// [`PROBE_EVERY`]; each latency is scaled by the mean of the readings
/// that span it, and the window's speed is the readings' median.
fn open_loop(
    addr: SocketAddr,
    keys: &[Key],
    seq: &[usize],
    seen: &Seen,
    gen: Generator,
) -> (Duration, Vec<Sample>, f64) {
    let sched = Schedule { rate: RATE };
    let total = seq.len() as u64;
    let next = AtomicU64::new(0);
    let samples = Mutex::new(Vec::with_capacity(seq.len()));
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let speeds = std::thread::scope(|s| {
        let probe = s.spawn(|| {
            let mut speeds = Vec::new();
            while !done.load(Ordering::Relaxed) {
                let speed = stats::host_speed();
                speeds.push((t0.elapsed(), speed));
                std::thread::sleep(PROBE_EVERY);
            }
            speeds
        });
        let senders: Vec<_> = (0..gen.senders)
            .map(|_| {
                s.spawn(|| {
                    if let Some(c) = gen.cpu {
                        cpu::pin(c);
                    }
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        if let Some(wait) = sched.due(i).checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let due = sched.due(i);
                        let lateness = sched.lateness(i, t0.elapsed());
                        let key = seq[i as usize];
                        let k = &keys[key];
                        let (status, hit, consistent) =
                            match request(addr, "POST", k.path(), &k.body()) {
                                Ok(resp) => (resp.status, resp.hit, record(seen, key, &resp)),
                                Err(_) => (0, false, false),
                            };
                        let latency = sched.latency(i, t0.elapsed());
                        samples
                            .lock()
                            .expect("no sender panics holding samples")
                            .push(Sample {
                                key,
                                due,
                                status,
                                hit,
                                consistent,
                                latency,
                                lateness,
                            });
                    }
                })
            })
            .collect();
        for h in senders {
            h.join().expect("sender threads do not panic");
        }
        done.store(true, Ordering::Relaxed);
        probe.join().expect("the probe thread does not panic")
    });
    let wall = t0.elapsed();
    let mut samples = samples.into_inner().expect("senders joined");
    // The readings from the last one before `from` to the first one after
    // `to`, averaged.
    let speed_over = |from: Duration, to: Duration| {
        let lo = speeds
            .partition_point(|&(at, _)| at < from)
            .saturating_sub(1);
        let hi = (speeds.partition_point(|&(at, _)| at <= to) + 1).min(speeds.len());
        let span = &speeds[lo.min(hi)..hi];
        if span.is_empty() {
            1.0
        } else {
            span.iter().map(|&(_, v)| v).sum::<f64>() / span.len() as f64
        }
    };
    for s in &mut samples {
        s.latency = s.latency.mul_f64(speed_over(s.due, s.due + s.latency));
    }
    let readings: Vec<f64> = speeds.iter().map(|&(_, v)| v).collect();
    (wall, samples, stats::median(&readings))
}

struct Window {
    wall: Duration,
    /// Median host speed over the window.
    speed: f64,
    samples: Vec<Sample>,
    allocs: u64,
    /// `cache_stats` deltas over the window.
    stats: [u64; 3],
    spans: SpanAgg,
}

impl Window {
    /// Median latency of the window's cache misses, ms.
    fn miss_p50_ms(&self) -> f64 {
        let mut m = Samples::default();
        for s in self.samples.iter().filter(|s| s.status == 200 && !s.hit) {
            m.push(s.latency);
        }
        m.p50()
    }
}

fn window(
    addr: SocketAddr,
    keys: &[Key],
    seq: &[usize],
    seen: &Seen,
    gen: Generator,
    traced: bool,
) -> Window {
    let before = cache_stats(addr);
    let a0 = alloc_calls();
    parmem_obs::set_enabled(traced);
    let (wall, samples, speed) = open_loop(addr, keys, seq, seen, gen);
    parmem_obs::set_enabled(false);
    let allocs = alloc_calls() - a0;
    let after = cache_stats(addr);
    let mut spans = SpanAgg::default();
    spans.drain(speed);
    let stats = [0, 1, 2].map(|i| after[i] - before[i]);
    Window {
        wall,
        speed,
        samples,
        allocs,
        stats,
        spans,
    }
}

/// Runs on the calling thread's CPU, which the daemon's threads inherit;
/// `senders` generator threads run on `gen_cpu` when there is one.
pub fn run(args: &crate::Args, r: &mut Report, senders: usize, gen_cpu: Option<usize>) {
    let gen = Generator {
        senders,
        cpu: gen_cpu,
    };
    let keys = keys_by_rank();
    let mut rng = Rng::new(args.seed);
    let seen: Seen = Mutex::new(HashMap::new());
    let mut e2e = EndToEnd {
        limit_ms: LIMIT_MS,
        ..EndToEnd::default()
    };
    r.note("offered_rate_rps", RATE);
    r.note("cache_bytes", CACHE_BYTES);
    r.note("keys", keys.len());

    let counts = counts(keys.len(), (RATE * args.seconds as f64) as usize);
    let mut warm = Vec::new();
    let mut running: Option<(Daemon, SocketAddr)> = None;
    for _ in 0..SETUPS {
        if let Some((old, _)) = running.take() {
            old.shutdown();
        }
        let (daemon, addr, setup) = set_up(&keys, &counts, &seen, &mut warm);
        e2e.setup.push(setup);
        running = Some((daemon, addr));
    }
    let (daemon, addr) = running.expect("at least one set-up");
    r.note("setups_s", format!("{:?}", e2e.setup));

    let seq = sequence(&counts, &mut rng);
    let untraced = window(addr, &keys, &seq, &seen, gen, false);
    daemon.shutdown();
    // A fresh daemon, set up alike, so the traced window misses the same
    // keys as the untraced one.
    let traced = args.trace.then(|| {
        let (daemon, addr, _) = set_up(&keys, &counts, &seen, &mut warm);
        let w = window(addr, &keys, &seq, &seen, gen, true);
        daemon.shutdown();
        w
    });

    // Every body the daemon served must equal the in-process computation.
    let seen = seen.into_inner().expect("senders joined");
    r.note(
        "seen_body_bytes",
        seen.values().map(String::len).sum::<usize>(),
    );
    let mut key_ok = vec![false; keys.len()];
    for (&key, body) in &seen {
        key_ok[key] = keys[key].expected() == *body;
    }
    let describe = |key: usize| {
        let k = &keys[key];
        let (path, program, policy) = (k.path(), k.program, k.policy.name());
        format!("{path} {program} k={} {policy}", k.k)
    };
    for (key, ok) in warm {
        r.check(ok && key_ok[key], || {
            format!(
                "{}: warm-fill failed or body differs from Session",
                describe(key)
            )
        });
    }
    let windows = std::iter::once(&untraced).chain(traced.as_ref());
    for s in windows.flat_map(|w| &w.samples) {
        let ok = s.status == 200 && s.consistent && key_ok[s.key];
        r.check(ok, || {
            format!(
                "{}: status {}, same body as before {}, body matches Session {}",
                describe(s.key),
                s.status,
                s.consistent,
                key_ok[s.key]
            )
        });
    }

    let mut lateness = Samples::default();
    for s in &untraced.samples {
        lateness.push(s.lateness);
    }
    let (lp, lag) = lateness.tail().unwrap_or((0.0, 0.0));
    r.note("generator_lateness_percentile", lp);
    r.note("generator_lateness_ms", lag);
    r.note("generator_lateness_p50_ms", lateness.p50());
    r.note("host_speed", format!("{:.3}", untraced.speed));

    let Some(traced) = traced else {
        for s in untraced.samples.iter().filter(|s| s.status == 200) {
            e2e.latency.push(s.latency);
        }
        e2e.throughput = e2e.latency.len() as f64 / untraced.wall.as_secs_f64();
        e2e.allocs = untraced.allocs;
        e2e.ops = untraced.samples.len() as u64;
        // The warm-fill requests every assign key, so the sum covers the
        // same keys for every seed.
        e2e.extra_copies = seen
            .iter()
            .filter(|(&k, _)| !keys[k].compile)
            .filter_map(|(_, body)| json_u64(body, "extra_copies"))
            .sum();
        emit_end_to_end(r, &e2e);
        return;
    };

    let mut x = Extra::default();
    let ok: Vec<&Sample> = traced.samples.iter().filter(|s| s.status == 200).collect();
    for s in &ok {
        if s.hit {
            x.serve_hit_ms.push(s.latency);
        } else {
            x.serve_miss_ms.push(s.latency);
        }
    }
    x.serve_hit_ratio = x.serve_hit_ms.len() as f64 / ok.len().max(1) as f64;
    let [evictions, ih, im] = traced.stats;
    x.serve_evictions = evictions;
    x.serve_intermediate_hit_ratio = ih as f64 / (ih + im).max(1) as f64;
    x.serve_rejected = traced
        .samples
        .iter()
        .filter(|s| s.status == 429 || s.status == 503)
        .count() as u64;
    let mut lag = Samples::default();
    for s in &traced.samples {
        lag.push(s.lateness);
    }
    x.serve_gen_lag_ms = lag.tail().map_or(0.0, |(_, v)| v);
    // An open loop's throughput is its offered rate, so tracing overhead
    // shows in latency instead: that of the misses, which run the spans.
    x.trace_overhead_pct = (traced.miss_p50_ms() / untraced.miss_p50_ms() - 1.0) * 100.0;
    layers::emit(r, &StageAgg::default(), &traced.spans, &x);
}

/// The unsigned integer member `name` of a flat JSON object.
fn json_u64(body: &str, name: &str) -> Option<u64> {
    let at = body.find(&format!("\"{name}\":"))? + name.len() + 3;
    body[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}
