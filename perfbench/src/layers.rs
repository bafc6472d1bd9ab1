//! Per-layer accounting for the traced run: stage metrics from the
//! driver's `StageMetrics`, span totals from `parmem_obs::take`, and the
//! one list of per-layer metrics every workload reports.

use std::collections::BTreeMap;
use std::time::Duration;

use parmem_obs::{JobMetrics, StageKind, StageMetrics};

use crate::stats::{Report, Samples};

/// Stage metrics summed over the ops of a run (peak bytes by maximum).
#[derive(Debug, Default)]
pub struct StageAgg {
    ops: u64,
    op_ns: u64,
    stages: BTreeMap<StageKind, StageMetrics>,
}

impl StageAgg {
    /// Account one op that took `op` at reference host speed and
    /// recorded `m`, whose stage times `speed` scales likewise (see
    /// `stats::timed`).
    pub fn add(&mut self, op: Duration, m: &JobMetrics, speed: f64) {
        self.ops += 1;
        self.op_ns += op.as_nanos() as u64;
        for (kind, sm) in &m.stages {
            let mut sm = *sm;
            sm.wall_ns = (sm.wall_ns as f64 * speed) as u64;
            self.stages.entry(*kind).or_default().add(sm);
        }
    }

    fn get(&self, kind: StageKind) -> StageMetrics {
        self.stages.get(&kind).copied().unwrap_or_default()
    }

    fn per_op(&self, v: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            v as f64 / self.ops as f64
        }
    }
}

/// Span durations and counts by name, summed over every drained batch.
#[derive(Debug, Default)]
pub struct SpanAgg {
    by_name: BTreeMap<String, (u64, u64)>,
}

impl SpanAgg {
    /// Drain the collector and add what it held, its times scaled by the
    /// host speed.
    pub fn drain(&mut self, speed: f64) {
        for s in parmem_obs::take().spans {
            let e = self.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.dur_ns as f64 * speed) as u64;
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }
}

/// Per-layer figures that neither stage metrics nor spans carry.
#[derive(Debug, Default)]
pub struct Extra {
    /// Reference-interpreter steps summed over the ops.
    pub reference_steps: u64,
    /// Long words of the interleaved simulation summed over the ops.
    pub words: u64,
    /// Simulated cycles of the interleaved run over one corpus pass.
    pub sim_cycles: u64,
    /// Duplication candidate sets per op.
    pub candidate_sets: f64,
    pub serve_hit_ratio: f64,
    pub serve_intermediate_hit_ratio: f64,
    pub serve_evictions: u64,
    pub serve_hit_ms: Samples,
    pub serve_miss_ms: Samples,
    pub serve_rejected: u64,
    pub serve_gen_lag_ms: f64,
    /// Cost of tracing, percent: untraced over traced throughput, less
    /// one (serve: traced over untraced median miss latency, less one).
    pub trace_overhead_pct: f64,
}

const MS: f64 = 1e-6;

/// Emit every per-layer metric. A layer the workload does not run reads
/// 0. Stage times come from `StageMetrics` when the workload ran stages
/// on its own thread, else (serve, whose pipeline runs in the daemon)
/// from the `stage.*` spans, per span.
pub fn emit(r: &mut Report, st: &StageAgg, sp: &SpanAgg, x: &Extra) {
    let stage_ms = |kind: StageKind| -> f64 {
        if st.ops > 0 {
            st.per_op(st.get(kind).wall_ns) * MS
        } else {
            let n = sp.count(kind.span_name());
            if n == 0 {
                0.0
            } else {
                sp.total_ns(kind.span_name()) as f64 / n as f64 * MS
            }
        }
    };
    let allocs = |kind: StageKind| st.per_op(st.get(kind).allocs);
    let peak = |kind: StageKind| st.get(kind).peak_bytes as f64;
    let ns = |kind: StageKind| st.get(kind).wall_ns as f64;

    r.metric("frontend.ms", stage_ms(StageKind::Frontend), "ms");
    r.metric("frontend.allocs", allocs(StageKind::Frontend), "count");
    r.metric("reference.ms", stage_ms(StageKind::Reference), "ms");
    let per_step = if x.reference_steps > 0 {
        ns(StageKind::Reference) / x.reference_steps as f64
    } else {
        0.0
    };
    r.metric("reference.ns_per_step", per_step, "ns");
    r.metric("optimize.ms", stage_ms(StageKind::Optimize), "ms");
    r.metric("optimize.allocs", allocs(StageKind::Optimize), "count");
    r.metric("schedule.ms", stage_ms(StageKind::Schedule), "ms");
    r.metric("schedule.allocs", allocs(StageKind::Schedule), "count");

    r.metric("assign.ms", stage_ms(StageKind::Assign), "ms");
    r.metric("assign.allocs", allocs(StageKind::Assign), "count");
    r.metric("assign.peak_bytes", peak(StageKind::Assign), "bytes");
    // Per `assign.pipeline` span: one per assignment run, whoever ran it.
    let runs = sp.count("assign.pipeline");
    let per_run = |name: &str| {
        if runs == 0 {
            0.0
        } else {
            sp.total_ns(name) as f64 / runs as f64 * MS
        }
    };
    let (graph, color, dup) = (
        per_run("assign.graph"),
        per_run("assign.color"),
        per_run("assign.dup.hitting_set"),
    );
    r.metric("assign.graph_ms", graph, "ms");
    r.metric("assign.color_ms", color, "ms");
    r.metric("assign.dup_ms", dup, "ms");
    r.metric("assign.candidate_sets", x.candidate_sets, "count");
    let unspanned = (per_run("assign.pipeline") - graph - color - dup).max(0.0);
    r.metric("assign.unspanned_ms", unspanned, "ms");

    r.metric("verify.ms", stage_ms(StageKind::Verify), "ms");
    r.metric("verify.allocs", allocs(StageKind::Verify), "count");
    r.metric("verify.peak_bytes", peak(StageKind::Verify), "bytes");

    r.metric("simulate.ms", stage_ms(StageKind::Simulate), "ms");
    r.metric("simulate.allocs", allocs(StageKind::Simulate), "count");
    r.metric("simulate.peak_bytes", peak(StageKind::Simulate), "bytes");
    r.metric("simulate.words", st.per_op(x.words), "count");
    let per_word = if x.words > 0 {
        ns(StageKind::Simulate) / x.words as f64
    } else {
        0.0
    };
    r.metric("simulate.ns_per_word", per_word, "ns");
    r.metric("sim_cycles", x.sim_cycles as f64, "cycles");

    // Op wall minus its stages; from the `job` span around the stage spans
    // when the pipeline ran in the daemon.
    let overhead = if st.ops > 0 {
        let stage_sum: u64 = st.stages.values().map(|m| m.wall_ns).sum();
        st.per_op(st.op_ns.saturating_sub(stage_sum)) * MS
    } else {
        let jobs = sp.count("job");
        let stage_sum: u64 = StageKind::ALL
            .iter()
            .map(|k| sp.total_ns(k.span_name()))
            .sum();
        if jobs == 0 {
            0.0
        } else {
            sp.total_ns("job").saturating_sub(stage_sum) as f64 / jobs as f64 * MS
        }
    };
    r.metric("driver.overhead_ms", overhead, "ms");

    r.metric("serve.hit_ratio", x.serve_hit_ratio, "ratio");
    r.metric(
        "serve.intermediate_hit_ratio",
        x.serve_intermediate_hit_ratio,
        "ratio",
    );
    r.metric("serve.evictions", x.serve_evictions as f64, "count");
    r.metric("serve.hit_ms_p50", x.serve_hit_ms.p50(), "ms");
    r.metric("serve.miss_ms_p50", x.serve_miss_ms.p50(), "ms");
    let miss_tail = x.serve_miss_ms.tail().map_or(0.0, |(_, v)| v);
    r.metric("serve.miss_ms_tail", miss_tail, "ms");
    r.metric("serve.rejected", x.serve_rejected as f64, "count");
    r.metric("serve.gen_lag_ms", x.serve_gen_lag_ms, "ms");

    r.metric("trace.overhead_pct", x.trace_overhead_pct, "%");
}
