//! The per-layer metric set of the traced run, and the traced engine
//! run the workloads share.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use parsched_sim::{ArrivalSource, Engine, EngineConfig, NullObserver, Policy, SimError};
use parsched_speedup::PowKernel;

use crate::report::Report;
use crate::trace::{TimedPolicy, TimedSource, Tracer};

/// Every per-layer metric, in print order, with its unit. A traced run
/// prints all of them on every workload; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("analysis.exp.f1_s", "s"),
    ("analysis.exp.f2_s", "s"),
    ("analysis.exp.f3_s", "s"),
    ("analysis.exp.f4_s", "s"),
    ("analysis.exp.f5_s", "s"),
    ("analysis.exp.f6_s", "s"),
    ("analysis.exp.t1_s", "s"),
    ("analysis.exp.t2_s", "s"),
    ("analysis.exp.t3_s", "s"),
    ("analysis.exp.t4_s", "s"),
    ("analysis.exp.t5_s", "s"),
    ("analysis.exp.x2_s", "s"),
    ("analysis.exp.x3_s", "s"),
    ("analysis.pool.workers", "count"),
    ("adversary.evals", "count"),
    ("adversary.evals_per_s", "1/s"),
    ("core.assign.calls", "count"),
    ("core.assign.self_s", "s"),
    ("simcore.events.exhaustive", "count"),
    ("simcore.events.stable", "count"),
    ("simcore.events.overload", "count"),
    ("simcore.events.step", "count"),
    ("simcore.ns_per_event.exhaustive", "ns"),
    ("simcore.ns_per_event.stable", "ns"),
    ("simcore.ns_per_event.overload", "ns"),
    ("simcore.ns_per_event.step", "ns"),
    ("simcore.peak_alive.stable", "count"),
    ("simcore.peak_alive.overload", "count"),
    ("simcore.coalesced_steps", "count"),
    ("simcore.incremental", "frac"),
    ("simcore.snapshot.capture_us", "us"),
    ("simcore.snapshot.restore_us", "us"),
    ("simcore.snapshot.encode_us", "us"),
    ("simcore.snapshot.decode_us", "us"),
    ("simcore.snapshot.bytes", "B"),
    ("fleet.codec_share", "frac"),
    ("fleet.rounds", "count"),
    ("fleet.slices", "count"),
    ("fleet.slice_us", "us"),
    ("fleet.round_p50_ms", "ms"),
    ("fleet.round_p99_ms", "ms"),
    ("fleet.query_p50_ms", "ms"),
    ("fleet.query_p99_ms", "ms"),
    ("workloads.emit.jobs", "count"),
    ("workloads.emit.self_s", "s"),
    ("speedup.gamma_ns.0.25", "ns"),
    ("speedup.gamma_ns.0.5", "ns"),
    ("speedup.gamma_ns.0.75", "ns"),
    ("speedup.gamma_ns.0.37", "ns"),
    ("opt.bracket.calls", "count"),
    ("opt.bracket.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.accounted_frac", "frac"),
    ("trace.f3_explained_frac", "frac"),
    ("trace.f4_explained_frac", "frac"),
];

/// The band `trace.accounted_frac` must fall in: at most a tenth of the
/// traced wall may be the benchmark's own glue between calls.
pub const ACCOUNTED_BAND: (f64, f64) = (0.90, 1.0 + 1e-9);

/// Per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, v);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sets the two trace-wide metrics and checks the accounting band.
    pub fn finish_trace(&mut self, tracer: &Tracer, overhead_frac: f64, rep: &mut Report) {
        let accounted = tracer.accounted_frac();
        self.set("trace.overhead_frac", overhead_frac);
        self.set("trace.accounted_frac", accounted);
        let (lo, hi) = ACCOUNTED_BAND;
        rep.check((lo..=hi).contains(&accounted), || {
            format!("trace.accounted_frac {accounted:.4} outside [{lo}, {hi}]")
        });
    }

    /// Prints every [`PER_LAYER`] metric into `rep`, 0 where unset.
    pub fn emit(&self, rep: &mut Report) {
        for (name, unit) in PER_LAYER {
            rep.metric(*name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// What a traced engine run observed beyond its metrics.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    pub incremental: bool,
    pub coalesced: u64,
    pub assign_calls: u64,
    pub emitted_jobs: u64,
}

/// Runs an engine to completion inside a span named `span`, with the
/// policy and source wrapped so their time folds into child spans
/// (`core.assign`, `workloads.emit`); the span's self time is then the
/// engine's own. `finish` materializes the outcome from the drained
/// engine.
pub fn traced_run<T>(
    tracer: &mut Tracer,
    span: &str,
    cfg: EngineConfig,
    policy: Box<dyn Policy>,
    source: &mut dyn ArrivalSource,
    finish: impl FnOnce(Engine<'_>) -> Result<T, SimError>,
) -> Result<(T, RunStats), SimError> {
    let mut policy = TimedPolicy::new(policy);
    let mut source = TimedSource::new(source);
    let mut obs = NullObserver;
    let id = tracer.open(span);
    let mut engine = Engine::new(cfg, &mut policy, &mut source, &mut obs);
    let ran = engine.run_loop();
    let incremental = engine.uses_incremental_path();
    let coalesced = engine.coalesced_steps();
    let out = ran.and_then(|()| finish(engine));
    let stats = RunStats {
        incremental,
        coalesced,
        assign_calls: policy.calls,
        emitted_jobs: source.jobs,
    };
    policy.fold_into(tracer);
    source.fold_into(tracer);
    tracer.close(id);
    out.map(|o| (o, stats))
}

/// Nanoseconds per Γ evaluation of the kernel for `alpha`, over shares
/// spanning an 8-processor machine's underload range.
pub fn gamma_ns(alpha: f64) -> f64 {
    const SHARES: usize = 1024;
    const REPS: usize = 2000;
    let kernel = PowKernel::new(alpha);
    let xs: Vec<f64> = (0..SHARES)
        .map(|i| 0.25 + 7.75 * i as f64 / SHARES as f64)
        .collect();
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..REPS {
        for &x in &xs {
            acc += kernel.gamma(black_box(x));
        }
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / (SHARES * REPS) as f64
}
