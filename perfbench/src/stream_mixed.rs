//! `stream-mixed`: Intermediate-SRPT over two lazy Poisson streams with
//! per-job α drawn from {0.25, 0.5, 0.75, 0.37} on m = 8, through the
//! memory-bounded streaming engine. One stream is stable (load 0.9, a
//! few dozen jobs alive), the other overloaded (load 1.5, the alive set
//! grows past 10⁵).
//!
//! This is the incremental fast loop: the stable leg is bound by the
//! per-event constant cost and multi-class Γ, the overload leg by
//! SRPT-set `O(log n)` operations and memory. `Policy::assign`, `opt`
//! and the snapshot codec do no work here.

use std::time::Instant;

use parsched::{IntermediateSrpt, PolicyKind};
use parsched_sim::{
    simulate_streaming, EngineConfig, NullObserver, RunMetrics, SimError, StreamingOutcome,
};
use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};
use parsched_workloads::PoissonSource;

use crate::layers::{gamma_ns, traced_run, Layers};
use crate::report::{alternating_passes, pass_seed, timed_rounds, timed_setup, Args, Report};
use crate::trace::Tracer;

const M: f64 = 8.0;
const ALPHAS: [f64; 4] = [0.25, 0.5, 0.75, 0.37];
const STABLE: Leg = Leg {
    name: "stable",
    load: 0.9,
    n: 2_000_000,
    salt: 0,
    span: "simcore.run.stable",
    events: "simcore.events.stable",
    ns_per_event: "simcore.ns_per_event.stable",
    peak_alive: "simcore.peak_alive.stable",
};
const OVERLOAD: Leg = Leg {
    name: "overload",
    load: 1.5,
    n: 1_000_000,
    salt: 0x0f0f_0f0f_0f0f_0f0f,
    span: "simcore.run.overload",
    events: "simcore.events.overload",
    ns_per_event: "simcore.ns_per_event.overload",
    peak_alive: "simcore.peak_alive.overload",
};
/// Jobs of each stream replayed on the exhaustive oracle.
const ORACLE_PREFIX: usize = 10_000;
/// Relative tolerance of the engine's flow identity and of agreement
/// between its execution paths (`REL_TOL` in `simcore/src/invariant.rs`,
/// `RTOL` of the four-way streaming differential suite).
const REL_TOL: f64 = 1e-6;

/// One stream of a pass, with the names of its traced span and metrics.
#[derive(Debug, Clone, Copy)]
struct Leg {
    name: &'static str,
    load: f64,
    n: usize,
    /// XORed into the pass seed so the two streams draw different jobs.
    salt: u64,
    span: &'static str,
    events: &'static str,
    ns_per_event: &'static str,
    peak_alive: &'static str,
}

impl Leg {
    fn workload(&self, n: usize, seed: u64) -> PoissonWorkload {
        let sizes = SizeDist::LogUniform { p: 32.0 };
        PoissonWorkload {
            n,
            rate: PoissonWorkload::rate_for_load(self.load, M, &sizes),
            sizes,
            alphas: AlphaDist::Choice(ALPHAS.iter().map(|&a| (a, 1.0)).collect()),
            seed,
        }
    }

    /// The stream's seed within pass seed `pass`.
    fn seed(&self, pass: u64) -> u64 {
        pass ^ self.salt
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Checks one finished stream against the jobs its source emitted.
fn check_stream(rep: &mut Report, leg: &Leg, seed: u64, out: &Result<StreamingOutcome, SimError>) {
    match out {
        Ok(o) => {
            let m = &o.metrics;
            rep.check(
                m.num_jobs == leg.n && o.admitted == leg.n && close(m.alive_integral, m.total_flow),
                || {
                    format!(
                        "{} stream (seed {seed}): num_jobs {} admitted {} of {}, \
                         alive_integral {} vs total_flow {}",
                        leg.name, m.num_jobs, o.admitted, leg.n, m.alive_integral, m.total_flow
                    )
                },
            );
        }
        Err(e) => rep.check(false, || format!("{} stream (seed {seed}): {e}", leg.name)),
    }
}

/// Replays the stream's first [`ORACLE_PREFIX`] jobs on the incremental
/// path and on the exhaustive oracle; the two must agree.
fn check_oracle(rep: &mut Report, leg: &Leg, seed: u64) {
    let run = |full: bool| -> Result<RunMetrics, SimError> {
        let mut src = PoissonSource::new(leg.workload(ORACLE_PREFIX, seed));
        let mut policy = IntermediateSrpt::new();
        let mut obs = NullObserver;
        let cfg = EngineConfig::new(M)
            .with_streaming(true)
            .with_full_reassign(full)
            .with_max_events(u64::MAX);
        parsched_sim::Engine::new(cfg, &mut policy, &mut src, &mut obs)
            .run_streaming()
            .map(|o| o.metrics)
    };
    let agree = match (run(false), run(true)) {
        (Ok(a), Ok(b)) => {
            a.num_jobs == b.num_jobs
                && a.num_jobs == ORACLE_PREFIX
                && close(a.total_flow, b.total_flow)
                && close(a.makespan, b.makespan)
                && close(a.alive_integral, b.alive_integral)
        }
        _ => false,
    };
    rep.check(agree, || {
        format!(
            "{} stream (seed {seed}): {ORACLE_PREFIX}-job prefix differs from the exhaustive oracle",
            leg.name
        )
    });
}

fn run_leg(leg: &Leg, seed: u64) -> Result<StreamingOutcome, SimError> {
    let mut src = PoissonSource::new(leg.workload(leg.n, seed));
    simulate_streaming(&mut src, &mut IntermediateSrpt::new(), M)
}

/// Set-up: a short warm-up stream on each leg's configuration.
fn setup() {
    for leg in [STABLE, OVERLOAD] {
        let mut src = PoissonSource::new(leg.workload(50_000, 0));
        let _ = simulate_streaming(&mut src, &mut IntermediateSrpt::new(), M);
    }
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let ((), setup_s) = timed_setup(setup);
    if !args.trace {
        // Every round runs the same two streams, one unit each.
        let seed = pass_seed(args.seed, 0);
        let best = timed_rounds(args.seconds, |best| {
            for leg in [STABLE, OVERLOAD] {
                let out = best.unit(|| run_leg(&leg, leg.seed(seed)));
                check_stream(&mut rep, &leg, leg.seed(seed), &out);
            }
        });
        for leg in [STABLE, OVERLOAD] {
            check_oracle(&mut rep, &leg, leg.seed(seed));
        }
        rep.end_to_end(setup_s, &best);
        return rep;
    }

    let mut tracer = Tracer::new(true);
    let mut layers = Layers::default();
    let mut runs = 0u32;
    let (_, traced, overhead) = alternating_passes(args.seconds, |k, traced| {
        let seed = pass_seed(args.seed, k);
        let t = Instant::now();
        if !traced {
            for leg in [STABLE, OVERLOAD] {
                let out = run_leg(&leg, leg.seed(seed));
                check_stream(&mut rep, &leg, leg.seed(seed), &out);
            }
            return t.elapsed().as_secs_f64();
        }
        let root = tracer.open("bench.pass");
        for leg in [STABLE, OVERLOAD] {
            let mut src = PoissonSource::new(leg.workload(leg.n, leg.seed(seed)));
            let res = traced_run(
                &mut tracer,
                leg.span,
                EngineConfig::new(M)
                    .with_streaming(true)
                    .with_max_events(u64::MAX),
                PolicyKind::IntermediateSrpt.build(),
                &mut src,
                |e| e.into_streaming_outcome(),
            );
            runs += 1;
            let out = res.map(|(out, stats)| {
                layers.add(leg.events, out.metrics.events as f64);
                let peak = layers.get(leg.peak_alive).max(out.peak_alive as f64);
                layers.set(leg.peak_alive, peak);
                layers.add("simcore.coalesced_steps", stats.coalesced as f64);
                layers.add(
                    "simcore.incremental",
                    f64::from(u8::from(stats.incremental)),
                );
                layers.add("workloads.emit.jobs", stats.emitted_jobs as f64);
                rep.check(stats.incremental && stats.assign_calls == 0, || {
                    format!(
                        "{} stream: incremental {} with {} assign calls",
                        leg.name, stats.incremental, stats.assign_calls
                    )
                });
                out
            });
            check_stream(&mut rep, &leg, leg.seed(seed), &out);
        }
        tracer.close(root);
        t.elapsed().as_secs_f64()
    });

    let passes = traced.len().max(1) as f64;
    for leg in [STABLE, OVERLOAD] {
        let events = layers.get(leg.events);
        layers.set(
            leg.ns_per_event,
            tracer.self_s(leg.span) * 1e9 / events.max(1.0),
        );
        layers.set(leg.events, events / passes);
    }
    for name in ["simcore.coalesced_steps", "workloads.emit.jobs"] {
        layers.set(name, layers.get(name) / passes);
    }
    layers.set(
        "simcore.incremental",
        layers.get("simcore.incremental") / f64::from(runs.max(1)),
    );
    let (emit_s, _) = tracer.total("workloads.emit");
    layers.set("workloads.emit.self_s", emit_s / passes);
    let (assign_s, assign_calls) = tracer.total("core.assign");
    layers.set("core.assign.calls", assign_calls as f64 / passes);
    layers.set("core.assign.self_s", assign_s / passes);
    for (name, alpha) in [
        ("speedup.gamma_ns.0.25", 0.25),
        ("speedup.gamma_ns.0.5", 0.5),
        ("speedup.gamma_ns.0.75", 0.75),
        ("speedup.gamma_ns.0.37", 0.37),
    ] {
        layers.set(name, gamma_ns(alpha));
    }
    layers.finish_trace(&tracer, overhead, &mut rep);
    crate::write_trace(args, &tracer);
    layers.emit(&mut rep);
    rep
}
