//! Sample summaries, the tail-percentile rule, open-loop lateness
//! accounting, and the metric record every workload reports.

use std::time::Duration;

/// The percentiles a tail may be reported at, highest first. Coarse on
/// purpose: a run's sample count must move a long way before the chosen
/// rung changes, so the same workload reports the same percentile run
/// after run.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Samples of a nearest-rank percentile `p` of `n` that lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// One-based nearest rank of percentile `p` among `n` samples, in
/// integer arithmetic on tenths of a percent (99.9% of 10000 is exactly
/// rank 9990).
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest rung of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// A set of latency samples in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Samples at or below `limit`.
    pub fn count_at_most(&self, limit: f64) -> usize {
        self.0.iter().filter(|&&v| v <= limit).count()
    }

    /// Nearest-rank percentile (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v[rank(v.len(), p) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// `(percentile, value)` of the tail by [`tail_percentile`].
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail_percentile(self.len()).map(|p| (p, self.percentile(p)))
    }
}

/// Median (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median of a few set-up timings, in seconds.
pub fn median_secs(v: &[Duration]) -> f64 {
    median(&v.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Record the host speeds a run's times were scaled by, as context: their
/// median and quartiles.
pub fn note_speeds(r: &mut Report, speeds: &[f64]) {
    let mut s = speeds.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: usize| {
        s.get(q * s.len().saturating_sub(1) / 4)
            .copied()
            .unwrap_or(0.0)
    };
    r.note(
        "host_speed",
        format!("median {:.3}, quartiles {:.3}..{:.3}", at(2), at(1), at(3)),
    );
}

/// Open-loop schedule bookkeeping: request `i` is due at `i / rate`
/// seconds after the start, and is timed from then, so a stall that
/// delays later sends shows up in their latency.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub rate: f64,
}

impl Schedule {
    /// Offset of request `i`'s due time from the schedule start.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// How late a send at `sent` (offset from start) was; zero when early.
    pub fn lateness(&self, i: u64, sent: Duration) -> Duration {
        sent.saturating_sub(self.due(i))
    }

    /// Latency of a request completed at `done` (offset from start),
    /// measured from its due time, not its actual send.
    pub fn latency(&self, i: u64, done: Duration) -> Duration {
        done.saturating_sub(self.due(i))
    }
}

/// Metric names are `[A-Za-z0-9_.-]`, start with a letter or digit, and
/// are at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports: metrics, operation counts, and host
/// context that explains a run without being a metric.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub context: Vec<(String, String)>,
    pub errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Count one checked operation; a failed check is recorded with its
    /// reason (only the first few reasons are kept).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (Rust's shortest round-trip
/// form); non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Time this thread spent waiting on a run queue, from
/// `/proc/thread-self/schedstat` (second field, nanoseconds).
pub fn runqueue_wait() -> Option<Duration> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = s.split_whitespace().nth(1)?.parse().ok()?;
    Some(Duration::from_nanos(ns))
}

/// Median probe time on the host the benchmark was written on, ns.
pub const PROBE_REF_NS: f64 = 240_000.0;

/// One run of the host-speed probe: sort a fixed pseudo-random array and
/// chase indices through it. The work belongs to the benchmark and its
/// array lives on the stack, so no change to the program under test (its
/// allocator included) can move it, and it adds nothing to the heap
/// figures.
fn probe_once() -> Duration {
    let mut rng = Rng::new(0x0BAD_5EED);
    let mut v = [0u64; 16_384];
    v.fill_with(|| rng.next_u64());
    let t = std::time::Instant::now();
    v.sort_unstable();
    let mut at = 0usize;
    for _ in 0..v.len() {
        at = (v[at] as usize ^ at) % v.len();
    }
    std::hint::black_box(at);
    t.elapsed()
}

/// The host's speed now relative to the host the benchmark was written
/// on: the reference probe time over one probe's time (above 1 when
/// faster). Wall times multiplied by it read as on that host.
pub fn host_speed() -> f64 {
    PROBE_REF_NS / probe_once().as_nanos() as f64
}

/// Run `f` between two probes. Returns its result, its wall time read as
/// on the reference host, and the host speed that scaled it: the
/// reference probe time over the mean of the two probes. The host's
/// speed drifts within seconds, so only probes at both ends of the timed
/// work track it; one probe per pass of ops did not.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration, f64) {
    let before = probe_once();
    let t = std::time::Instant::now();
    let value = f();
    let wall = t.elapsed();
    let after = probe_once();
    let speed = 2.0 * PROBE_REF_NS / (before + after).as_nanos() as f64;
    (value, wall.mul_f64(speed), speed)
}

/// SplitMix64: the benchmark's own seeded generator for input choices.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 0..5000 {
            match tail_percentile(n) {
                Some(p) => {
                    assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
                    // No higher rung would also qualify.
                    for &q in TAIL_LADDER.iter().filter(|&&q| q > p) {
                        assert!(beyond(n, q) < TAIL_MIN_BEYOND, "n={n} q={q}");
                    }
                }
                None => assert!(n < 2 * TAIL_MIN_BEYOND, "n={n}"),
            }
        }
    }

    #[test]
    fn tail_rungs_at_their_thresholds() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(Duration::from_millis(v));
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.tail(), Some((90.0, 90.0)));
        assert_eq!(Samples::default().p50(), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let s = Schedule { rate: 100.0 };
        assert_eq!(s.due(3), Duration::from_millis(30));
        // Sent 5 ms late and answered 2 ms later: 7 ms of latency.
        assert_eq!(
            s.lateness(3, Duration::from_millis(35)),
            Duration::from_millis(5)
        );
        assert_eq!(
            s.latency(3, Duration::from_millis(37)),
            Duration::from_millis(7)
        );
        // An early send is not negative lateness.
        assert_eq!(s.lateness(3, Duration::from_millis(29)), Duration::ZERO);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "latency_ms_p50",
            "assign.graph_ms",
            "trace.overhead_pct",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn report_json_shape() {
        let mut r = Report::default();
        r.metric("latency_ms", 1.25, "ms");
        r.check(true, String::new);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn host_speed_is_a_positive_ratio() {
        let s = host_speed();
        assert!(s.is_finite() && s > 0.0, "{s}");
        let (v, d, speed) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(speed.is_finite() && speed > 0.0 && d < Duration::from_secs(1));
    }

    #[test]
    fn median_of_setups() {
        let d = |ms| Duration::from_millis(ms);
        assert_eq!(median_secs(&[d(300), d(100), d(200)]), 0.2);
        assert_eq!(median_secs(&[d(100), d(300)]), 0.2);
    }
}
