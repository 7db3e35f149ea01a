//! `paper-suite`: what a reproducer runs — every experiment of the suite
//! (`parsched all --quick`) and then adversary searches over the
//! standard policy set (`parsched adversary`), several short ones per
//! target.
//!
//! The exhaustive engine path does most of the work here: Greedy, SETF
//! and LAPS call `Policy::assign` on every event, and the experiments
//! bracket OPT through `parsched-opt`. The traced run re-executes the
//! F3 trap rows and F4 adversary rows component by component, with the
//! policy behind a counting wrapper, so their layer times can be set
//! against `analysis.exp.f3_s` and `analysis.exp.f4_s`.

use std::time::Instant;

use parsched::PolicyKind;
use parsched_adversary::{run_search, SearchConfig};
use parsched_analysis::experiments::{self, ExpOptions};
use parsched_analysis::sweep::set_sweep_jobs;
use parsched_opt::OptEstimate;
use parsched_sim::{AllocationStability, EngineConfig, StaticSource};
use parsched_workloads::{GreedyTrap, PhaseFamily};

use crate::layers::{traced_run, Layers, RunStats};
use crate::report::{
    alternating_passes, pass_seed, timed_rounds, timed_setup, Args, BestOf, Report,
};
use crate::trace::Tracer;

/// The `parsched adversary` default target set.
const ADVERSARY_TARGETS: [&str; 7] = [
    "isrpt", "psrpt", "ssrpt", "greedy", "equi", "laps:0.5", "setf",
];
/// Candidate evaluations per search: three generations of the default
/// population of 16, where `parsched adversary` defaults to 200.
/// What a search costs depends on where its seed's trajectory leads
/// (Greedy's, which dominates, takes 0.5–1.4 s at budget 200), and the
/// spread grows with the generations; many short searches on
/// different seeds even that out, so the run's seed does not set its
/// time.
const ADVERSARY_BUDGET: usize = 48;
/// Adversary seeds per timed round, each searched against every target.
const ADVERSARY_SEEDS: u64 = 4;

/// Sweep-pool workers for the experiments and the searches. One worker
/// keeps the pass deterministic in memory as well as in output: with
/// more, the peak resident set depends on which sweep rows happen to
/// overlap (measured 145–254 MiB on 2 workers against 159–162 MiB on
/// one), and the suite's dominant items barely scale with workers.
const WORKERS: usize = 1;

/// Quick-size F3 and F4 parameters (mirroring the experiments' `quick`
/// branch), re-executed in the traced run.
const F3_MS: [usize; 2] = [4, 9];
const F3_ALPHA: f64 = 0.5;
const F4_M: usize = 4;
const F4_ALPHA: f64 = 0.5;
const F4_P: f64 = 32.0;
const F4_STREAM: usize = 1024;

/// The band the re-executed F3/F4 rows, summed, must land in relative to
/// the experiment's own traced time (the experiment runs its rows one
/// after another on the single pool worker, so the sum explains it).
const EXPLAINED_BAND: (f64, f64) = (0.5, 2.0);

struct Inputs {
    targets: Vec<PolicyKind>,
}

fn setup() -> Inputs {
    set_sweep_jobs(WORKERS);
    let targets = ADVERSARY_TARGETS
        .iter()
        .map(|t| t.parse().expect("standard policy token parses"))
        .collect();
    // Warm-up: F4 at quick size, which ignores the seed and drives the
    // exhaustive path and the OPT brackets the timed passes lean on.
    let _ = experiments::run("f4", &ExpOptions::quick());
    Inputs { targets }
}

/// One pass over the suite, every experiment and every search a unit of
/// `best`; returns the adversary's evaluation count.
///
/// The experiments run at the suite's default seed, as `parsched all
/// --quick` does; `seeds` drive the adversary searches. The experiment
/// verdicts are calibrated at the default seed: at other seeds T3 can
/// report a positive zero-OPT drift and fail its shape check (for
/// example `parsched exp t3 --quick --seed 18400173525453684631`), a
/// defect of that experiment which the benchmark does not try to time.
fn pass(
    seeds: &[u64],
    inputs: &Inputs,
    tracer: &mut Tracer,
    rep: &mut Report,
    best: &mut BestOf,
) -> usize {
    let opts = ExpOptions::quick();
    for id in experiments::all_ids() {
        let name = format!("analysis.exp.{id}");
        let res = best.unit(|| tracer.span(&name, || experiments::run(id, &opts)));
        rep.check(res.is_some_and(|r| r.pass), || {
            format!("{id}: verdict is not SHAPE OK")
        });
    }
    let mut evals = 0;
    for (&seed, kind) in seeds
        .iter()
        .flat_map(|s| inputs.targets.iter().map(move |k| (s, k)))
    {
        let mut cfg = SearchConfig::new(*kind, seed, ADVERSARY_BUDGET);
        cfg.jobs = WORKERS;
        let out = best.unit(|| tracer.span("adversary.search", || run_search(&cfg)));
        evals += out.evals;
        rep.check(out.failures.is_empty() && out.evals > 0, || {
            format!(
                "adversary {} (seed {seed}): {} engine failure(s)",
                kind.name(),
                out.failures.len()
            )
        });
    }
    evals
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (inputs, setup_s) = timed_setup(setup);
    if !args.trace {
        let mut off = Tracer::new(false);
        let seeds: Vec<u64> = (0..ADVERSARY_SEEDS)
            .map(|k| pass_seed(args.seed, k))
            .collect();
        let best = timed_rounds(args.seconds, |best| {
            pass(&seeds, &inputs, &mut off, &mut rep, best);
        });
        rep.end_to_end(setup_s, &best);
        return rep;
    }

    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut evals = 0;
    // Traced passes search one seed each, so that several pairs fit.
    let (_, traced, overhead) = alternating_passes(args.seconds, |k, traced| {
        let seeds = [pass_seed(args.seed, k)];
        let mut unused = BestOf::default();
        let t = Instant::now();
        if traced {
            let root = tracer.open("bench.pass");
            evals += pass(&seeds, &inputs, &mut tracer, &mut rep, &mut unused);
            tracer.close(root);
        } else {
            pass(&seeds, &inputs, &mut off, &mut rep, &mut unused);
        }
        t.elapsed().as_secs_f64()
    });
    let passes = traced.len() as f64;
    let mut layers = Layers::default();
    for id in experiments::all_ids() {
        let (s, _) = tracer.total(&format!("analysis.exp.{id}"));
        layers.set(exp_metric(id), s / passes);
    }
    layers.set("analysis.pool.workers", WORKERS as f64);
    let (adv_s, _) = tracer.total("adversary.search");
    layers.set("adversary.evals", evals as f64 / passes);
    layers.set("adversary.evals_per_s", evals as f64 / adv_s.max(1e-12));

    let root = tracer.open("bench.reexec");
    let mut runs = 0u32;
    let f3_rows = reexec_f3(&mut tracer, &mut layers, &mut rep, &mut runs);
    let f4_rows = reexec_f4(&mut tracer, &mut layers, &mut rep, &mut runs);
    tracer.close(root);
    for (metric, rows, exp) in [
        ("trace.f3_explained_frac", &f3_rows, "analysis.exp.f3"),
        ("trace.f4_explained_frac", &f4_rows, "analysis.exp.f4"),
    ] {
        let frac = rows.iter().sum::<f64>() / (tracer.total(exp).0 / passes).max(1e-12);
        layers.set(metric, frac);
        let (lo, hi) = EXPLAINED_BAND;
        rep.check((lo..=hi).contains(&frac), || {
            format!("{metric} {frac:.3} outside [{lo}, {hi}]")
        });
    }
    layers.set(
        "simcore.incremental",
        layers.get("simcore.incremental") / f64::from(runs.max(1)),
    );
    layers.set(
        "simcore.ns_per_event.exhaustive",
        tracer.self_s("simcore.run.exhaustive") * 1e9
            / layers.get("simcore.events.exhaustive").max(1.0),
    );
    let (assign_s, assign_calls) = tracer.total("core.assign");
    layers.set("core.assign.calls", assign_calls as f64);
    layers.set("core.assign.self_s", assign_s);
    layers.set("workloads.emit.self_s", tracer.total("workloads.emit").0);
    let (opt_s, opt_calls) = tracer.total("opt.bracket");
    layers.set("opt.bracket.calls", opt_calls as f64);
    layers.set("opt.bracket.self_s", opt_s);
    layers.finish_trace(&tracer, overhead, &mut rep);
    crate::write_trace(args, &tracer);
    layers.emit(&mut rep);
    rep
}

fn exp_metric(id: &str) -> &'static str {
    crate::layers::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| {
            n.strip_prefix("analysis.exp.")
                .and_then(|r| r.strip_suffix("_s"))
                == Some(id)
        })
        .expect("every experiment id has an analysis.exp metric")
}

/// Span name for an engine run of `kind` under default settings: the
/// engine takes the incremental path exactly for SRPT-prefix policies.
fn run_span(kind: PolicyKind) -> &'static str {
    if kind.build().stability() == AllocationStability::SrptPrefix {
        "simcore.run.incremental"
    } else {
        "simcore.run.exhaustive"
    }
}

fn record_run(
    layers: &mut Layers,
    rep: &mut Report,
    runs: &mut u32,
    kind: PolicyKind,
    events: u64,
    stats: RunStats,
) {
    *runs += 1;
    let expect_incremental = run_span(kind) == "simcore.run.incremental";
    rep.check(stats.incremental == expect_incremental, || {
        format!(
            "{}: engine path differs from the policy's stability",
            kind.name()
        )
    });
    if !stats.incremental {
        layers.add("simcore.events.exhaustive", events as f64);
    }
    layers.add(
        "simcore.incremental",
        f64::from(u8::from(stats.incremental)),
    );
    layers.add("simcore.coalesced_steps", stats.coalesced as f64);
    layers.add("workloads.emit.jobs", stats.emitted_jobs as f64);
}

/// Re-executes F3's rows (trap instance, OPT bracket, Greedy and
/// Intermediate-SRPT runs); returns each row's serial wall time.
fn reexec_f3(
    tracer: &mut Tracer,
    layers: &mut Layers,
    rep: &mut Report,
    runs: &mut u32,
) -> Vec<f64> {
    let mut rows = Vec::new();
    for m in F3_MS {
        let t = Instant::now();
        let trap = GreedyTrap::new(m, F3_ALPHA);
        let built = tracer.span("workloads.trap", || {
            trap.instance()
                .and_then(|i| Ok((i, trap.alternative_plan()?)))
        });
        let Ok((inst, plan)) = built else {
            rep.check(false, || format!("f3 trap m={m}: instance build failed"));
            continue;
        };
        let est = tracer.span("opt.bracket", || {
            OptEstimate::bracket_with(
                &inst,
                m as f64,
                &[PolicyKind::SequentialSrpt, PolicyKind::Equi],
                &[("alternative".to_string(), plan)],
            )
        });
        let mut flows = Vec::new();
        for kind in [PolicyKind::Greedy, PolicyKind::IntermediateSrpt] {
            let mut source = StaticSource::new(&inst);
            let res = traced_run(
                tracer,
                run_span(kind),
                EngineConfig::new(m as f64),
                kind.build(),
                &mut source,
                |e| e.into_outcome(),
            );
            match res {
                Ok((out, stats)) => {
                    record_run(layers, rep, runs, kind, out.metrics.events, stats);
                    flows.push(out.metrics.total_flow);
                }
                Err(e) => rep.check(false, || format!("f3 {} m={m}: {e}", kind.name())),
            }
        }
        rows.push(t.elapsed().as_secs_f64());
        // Both runs finished and sit at or above the OPT upper bound's
        // lower companion, as any feasible schedule must.
        rep.check(
            est.is_ok_and(|e| {
                flows.len() == 2 && flows.iter().all(|&f| f >= e.lower * (1.0 - 1e-9))
            }),
            || format!("f3 m={m}: re-executed row is inconsistent with its OPT bracket"),
        );
    }
    rows
}

/// Re-executes F4's rows (the adaptive phase adversary against each
/// standard policy, its standard schedule, and the OPT bracket); returns
/// each row's serial wall time.
fn reexec_f4(
    tracer: &mut Tracer,
    layers: &mut Layers,
    rep: &mut Report,
    runs: &mut u32,
) -> Vec<f64> {
    let mut rows = Vec::new();
    for kind in PolicyKind::all_standard() {
        let t = Instant::now();
        let fam = PhaseFamily::new(F4_M, F4_ALPHA, F4_P).with_stream_len(F4_STREAM);
        let mut adversary = fam.adversary();
        let res = traced_run(
            tracer,
            run_span(kind),
            EngineConfig::new(F4_M as f64),
            kind.build(),
            &mut adversary,
            |e| e.into_outcome(),
        );
        let outcome = match res {
            Ok((out, stats)) => {
                record_run(layers, rep, runs, kind, out.metrics.events, stats);
                out
            }
            Err(e) => {
                rep.check(false, || format!("f4 {}: {e}", kind.name()));
                continue;
            }
        };
        let record = adversary.into_outcome();
        let plan = tracer.span("workloads.phases", || fam.opt_plan(&record));
        let est = plan.and_then(|plan| {
            tracer.span("opt.bracket", || {
                OptEstimate::bracket_with(
                    &outcome.instance,
                    F4_M as f64,
                    &[PolicyKind::SequentialSrpt, PolicyKind::Equi],
                    &[("standard-schedule".to_string(), plan)],
                )
            })
        });
        rows.push(t.elapsed().as_secs_f64());
        // Theorem 2's shape on the re-executed row: the adversary forces a
        // ratio above the experiment's 1.3 threshold.
        let ratio = est.map_or(0.0, |e| outcome.metrics.total_flow / e.upper);
        rep.check(ratio > 1.3, || {
            format!("f4 {}: re-executed ratio {ratio:.3} <= 1.3", kind.name())
        });
    }
    rows
}
