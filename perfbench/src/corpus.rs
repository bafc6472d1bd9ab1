//! `corpus`: the batch/CLI path. Every corpus program at k = 4 and 8
//! through `Session::run` at jobs = 1, whole passes in a seeded order, one
//! client in a closed loop. Simulation and verification dominate here;
//! assignment is a small share.

use std::sync::Arc;
use std::time::Duration;

use parmem_core::assignment::AssignParams;
use parmem_driver::{JobResult, Session};

use crate::layers::{self, Extra, SpanAgg, StageAgg};
use crate::stats::{self, Report, Rng, Samples};
use crate::{closed_loop, emit_end_to_end, ClosedLoop, EndToEnd};

const KS: [usize; 2] = [4, 8];

/// Untimed passes before the timed window; `setup_s` is their median.
const SETUP_PASSES: usize = 3;

/// Latency limit for `goodput_rps`, ms: several times the slowest job.
const LIMIT_MS: f64 = 1000.0;

/// `(program, k, output hash, interleaved cycles, extra copies)` of every
/// job, recorded from the pipeline as it stands when this benchmark was
/// written (one pass sums to 158921 cycles and 1 extra copy). A later
/// change that alters any of them fails the run.
const EXPECTED: &[(&str, usize, u64, u64, usize)] = &[
    ("COLOR", 4, 0x491f9da5cae10898, 15150, 0),
    ("COLOR", 8, 0x491f9da5cae10898, 14529, 0),
    ("EXACT", 4, 0x4fa12aad46a68fe8, 7583, 0),
    ("EXACT", 8, 0x4fa12aad46a68fe8, 7104, 0),
    ("FFT", 4, 0x59c4f155f186fcf1, 5975, 0),
    ("FFT", 8, 0x59c4f155f186fcf1, 5087, 0),
    ("HIST", 4, 0xdba3cbd76c509a57, 5260, 0),
    ("HIST", 8, 0xdba3cbd76c509a57, 5056, 0),
    ("LIVERMORE", 4, 0x3def9a9d2c357a92, 1992, 0),
    ("LIVERMORE", 8, 0x3def9a9d2c357a92, 1900, 0),
    ("MATMUL", 4, 0xa93c2d202c7584aa, 5709, 0),
    ("MATMUL", 8, 0xa93c2d202c7584aa, 5429, 0),
    ("SORT", 4, 0x0075d51531a66192, 10815, 0),
    ("SORT", 8, 0x0075d51531a66192, 10159, 0),
    ("STENCIL", 4, 0x8830534dbd66a0fe, 21723, 0),
    ("STENCIL", 8, 0x8830534dbd66a0fe, 20099, 0),
    ("SYNTH", 4, 0x1951b27c96fb836b, 155, 1),
    ("SYNTH", 8, 0x1951b27c96fb836b, 105, 0),
    ("TAYLOR1", 4, 0x98c9ec4dd4c0807e, 2894, 0),
    ("TAYLOR1", 8, 0x98c9ec4dd4c0807e, 2196, 0),
    ("TAYLOR2", 4, 0x751a12692609aa9c, 5161, 0),
    ("TAYLOR2", 8, 0x751a12692609aa9c, 4840, 0),
];

struct Job {
    name: &'static str,
    source: Arc<str>,
    session: Session,
}

impl Job {
    fn run(&self) -> JobResult {
        self.session.run(self.name, Arc::clone(&self.source))
    }
}

fn jobs() -> Vec<Job> {
    let params = AssignParams {
        jobs: 1,
        ..AssignParams::default()
    };
    let mut out = Vec::new();
    for b in workloads::all_benchmarks() {
        for k in KS {
            out.push(Job {
                name: b.name,
                source: Arc::from(b.source),
                session: Session::new(k).with_params(params),
            });
        }
    }
    out
}

/// Check one job's outputs against [`EXPECTED`].
fn check(r: &mut Report, job: &Job, res: &JobResult) {
    let k = job.session.k;
    let expected = EXPECTED
        .iter()
        .find(|e| e.0 == job.name && e.1 == k)
        .map(|e| (e.2, e.3, e.4));
    let got = res
        .outcome
        .as_ref()
        .ok()
        .map(|o| (o.output_hash, o.cycles, o.assign_report.extra_copies));
    r.check(got.is_some() && got == expected, || {
        format!(
            "{} k={k}: status {}, got (hash, cycles, copies) {got:?}, expected {expected:?}",
            job.name,
            res.status()
        )
    });
}

pub fn run(args: &crate::Args, r: &mut Report) {
    let jobs = jobs();
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..jobs.len()).collect();

    let mut e2e = EndToEnd {
        limit_ms: LIMIT_MS,
        ..EndToEnd::default()
    };
    let mut extra = Extra::default();
    for pass in 0..SETUP_PASSES {
        rng.shuffle(&mut order);
        let (mut setup, mut cycles, mut copies) = (Duration::ZERO, 0, 0);
        for &i in &order {
            let (res, d, _) = stats::timed(|| jobs[i].run());
            setup += d;
            check(r, &jobs[i], &res);
            if let Ok(o) = &res.outcome {
                cycles += o.cycles;
                copies += o.assign_report.extra_copies as u64;
            }
        }
        e2e.setup.push(setup);
        if pass == 0 {
            extra.sim_cycles = cycles;
            e2e.extra_copies = copies;
        }
    }

    let untraced = window(args, &jobs, r, &mut rng, false);
    r.note("passes", untraced.run.ops / jobs.len() as u64);
    stats::note_speeds(r, &untraced.run.speeds);
    if !args.trace {
        e2e.throughput = untraced.run.throughput();
        e2e.allocs = untraced.run.allocs;
        e2e.ops = untraced.run.ops;
        e2e.latency = untraced.latency;
        emit_end_to_end(r, &e2e);
        return;
    }
    let traced = window(args, &jobs, r, &mut rng, true);
    extra.reference_steps = traced.steps;
    extra.words = traced.words;
    extra.trace_overhead_pct = (untraced.run.throughput() / traced.run.throughput() - 1.0) * 100.0;
    layers::emit(r, &traced.stages, &traced.spans, &extra);
}

/// What one timed window measured.
struct Window {
    run: ClosedLoop,
    latency: Samples,
    stages: StageAgg,
    spans: SpanAgg,
    steps: u64,
    words: u64,
}

fn window(args: &crate::Args, jobs: &[Job], r: &mut Report, rng: &mut Rng, traced: bool) -> Window {
    let (mut latency, mut stages, mut spans) =
        (Samples::default(), StageAgg::default(), SpanAgg::default());
    let (mut steps, mut words) = (0, 0);
    parmem_obs::set_enabled(traced);
    let run = closed_loop(args.seconds, jobs.len(), rng, |i| {
        let (res, d, speed) = stats::timed(|| jobs[i].run());
        check(r, &jobs[i], &res);
        if let Ok(o) = &res.outcome {
            latency.push(d);
            steps += o.reference_steps;
            words += o.words;
        }
        stages.add(d, &res.metrics, speed);
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
        steps,
        words,
    }
}
