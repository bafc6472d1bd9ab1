//! `synth`: a scale conflict graph (`ScaleSpec`, edges = 4n, k = 8)
//! through `assign_trace` + `verify_trace` at jobs = 1. Assignment does
//! nearly all the work and there is no front end or simulator: the mirror
//! image of `corpus`.

use std::collections::HashSet;

use parmem_core::assignment::{assign_trace, AssignParams, Assignment, AssignmentReport};
use parmem_core::duplication::conflicting_candidate_sets;
use parmem_core::synth::{scale_trace, ScaleSpec};
use parmem_core::types::{AccessTrace, ModuleSet, ValueId};
use parmem_obs::{JobMetrics, StageKind, StageTimer};
use parmem_verify::VerifyReport;

use crate::layers::{self, Extra, SpanAgg, StageAgg};
use crate::stats::{self, Report, Rng, Samples};
use crate::{closed_loop, emit_end_to_end, ClosedLoop, EndToEnd};

/// Values per graph: one op costs a few hundred ms, so a run holds
/// dozens of ops.
const VALUES: usize = 30_000;

/// Graphs per run, each generated from the workload seed. Reported
/// counts are summed over one pass of this pool.
const POOL: usize = 6;

/// Latency limit for `goodput_rps`, ms: several times one op.
const LIMIT_MS: f64 = 2000.0;

fn spec() -> ScaleSpec {
    ScaleSpec {
        values: VALUES,
        edges: 4 * VALUES,
        modules: 8,
        ..ScaleSpec::default()
    }
}

fn params() -> AssignParams {
    AssignParams {
        jobs: 1,
        ..AssignParams::default()
    }
}

/// FNV-1a over every value's module set, in value order.
fn digest(trace: &AccessTrace, a: &Assignment) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in trace.distinct_values() {
        for b in a.copies(v).0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Graph {
    trace: AccessTrace,
    digest: u64,
    extra_copies: usize,
}

/// One op: assign, then verify, each under a `StageTimer`.
fn op(g: &Graph) -> (JobMetrics, Assignment, AssignmentReport, VerifyReport) {
    let mut m = JobMetrics::default();
    let t = StageTimer::start();
    let (a, report) = assign_trace(&g.trace, &params());
    m.push(StageKind::Assign, t.stop());
    let t = StageTimer::start();
    let verify = parmem_verify::verify_trace(&g.trace, &a, Some(&report));
    m.push(StageKind::Verify, t.stop());
    (m, a, report, verify)
}

/// An op's result must be conflict-free, verify clean, and repeat the
/// graph's first assignment (`g.digest`, unless this is that first op).
fn check(
    r: &mut Report,
    g: &Graph,
    a: &Assignment,
    report: &AssignmentReport,
    verify: &VerifyReport,
) {
    let d = digest(&g.trace, a);
    r.check(
        report.residual_conflicts == 0 && verify.is_clean() && (g.digest == 0 || d == g.digest),
        || {
            format!(
                "residual {}, verify clean {}, digest {d:016x} vs {:016x}",
                report.residual_conflicts,
                verify.is_clean(),
                g.digest
            )
        },
    );
}

/// Candidate sets the hitting-set duplication faces: every duplicated
/// value cut back to its lowest copy, then the conflicting combinations of
/// 2..=k operands counted.
fn candidate_sets(trace: &AccessTrace, a: &Assignment) -> usize {
    let values = trace.distinct_values();
    let dup: HashSet<ValueId> = values
        .iter()
        .copied()
        .filter(|&v| a.copies(v).len() > 1)
        .collect();
    let mut single = a.clone();
    for &v in &dup {
        let low = a
            .copies(v)
            .iter()
            .next()
            .expect("a duplicated value has copies");
        single.set_copies(v, ModuleSet::singleton(low));
    }
    (2..=trace.modules)
        .map(|num| conflicting_candidate_sets(trace, &dup, &single, num).len())
        .sum()
}

pub fn run(args: &crate::Args, r: &mut Report) {
    let mut rng = Rng::new(args.seed);
    let mut e2e = EndToEnd {
        limit_ms: LIMIT_MS,
        ..EndToEnd::default()
    };
    // Set-up, once per pool graph: generate it and run its first op, which
    // records the digest later ops must repeat.
    let mut pool = Vec::new();
    let mut firsts = Vec::new();
    for _ in 0..POOL {
        let (trace, gen, _) = stats::timed(|| scale_trace(&spec(), rng.next_u64()));
        let mut g = Graph {
            trace,
            digest: 0,
            extra_copies: 0,
        };
        let ((_, a, report, verify), first, _) = stats::timed(|| op(&g));
        check(r, &g, &a, &report, &verify);
        g.digest = digest(&g.trace, &a);
        g.extra_copies = report.extra_copies;
        e2e.setup.push(gen + first);
        firsts.push(a);
        pool.push(g);
    }
    e2e.extra_copies = pool.iter().map(|g| g.extra_copies as u64).sum();

    let untraced = window(args, &pool, r, &mut rng, false);
    stats::note_speeds(r, &untraced.run.speeds);
    if !args.trace {
        e2e.throughput = untraced.run.throughput();
        e2e.allocs = untraced.run.allocs;
        e2e.ops = untraced.run.ops;
        e2e.latency = untraced.latency;
        emit_end_to_end(r, &e2e);
        return;
    }
    let traced = window(args, &pool, r, &mut rng, true);
    let sets: usize = pool
        .iter()
        .zip(&firsts)
        .map(|(g, a)| candidate_sets(&g.trace, a))
        .sum();
    let extra = Extra {
        candidate_sets: sets as f64 / POOL as f64,
        trace_overhead_pct: (untraced.run.throughput() / traced.run.throughput() - 1.0) * 100.0,
        ..Extra::default()
    };
    layers::emit(r, &traced.stages, &traced.spans, &extra);
}

struct Window {
    run: ClosedLoop,
    latency: Samples,
    stages: StageAgg,
    spans: SpanAgg,
}

fn window(
    args: &crate::Args,
    pool: &[Graph],
    r: &mut Report,
    rng: &mut Rng,
    traced: bool,
) -> Window {
    let (mut latency, mut stages, mut spans) =
        (Samples::default(), StageAgg::default(), SpanAgg::default());
    parmem_obs::set_enabled(traced);
    let run = closed_loop(args.seconds, pool.len(), rng, |i| {
        let ((m, a, report, verify), d, speed) = stats::timed(|| op(&pool[i]));
        check(r, &pool[i], &a, &report, &verify);
        latency.push(d);
        stages.add(d, &m, speed);
        if traced {
            spans.drain(speed);
        }
        (d, speed)
    });
    parmem_obs::set_enabled(false);
    Window {
        run,
        latency,
        stages,
        spans,
    }
}
