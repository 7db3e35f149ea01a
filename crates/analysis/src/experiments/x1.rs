//! X1 — ablation of the greedy hybrid's re-decision quantum.
//!
//! The §3 greedy hybrid (the policy Lemma 10 traps) is the only policy
//! whose preferred allocation drifts *between* events, so the engine
//! re-decides it every `resolution ×` the shortest completion horizon.
//! A finer quantum tracks the continuous-time policy more closely but
//! multiplies engine events. This experiment sweeps the resolution on an
//! overloaded Poisson fixture (the bench fixture at load 1.0) and reports
//! each run's flow drift against a much finer baseline, plus its event
//! count.
//!
//! The expected shape: events grow as the resolution shrinks, coarse
//! quanta bias the flow, and from the default `0.1` down the runs sit in a
//! converged band around the baseline. Inside that band greedy's argmax
//! flips make nearby trajectories diverge into different but similar
//! schedules, so the residual drift is the policy's own sensitivity, not
//! discretization bias.

use parsched::GreedyHybrid;
use parsched_sim::simulate;
use parsched_speedup::exact_eq;
use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};

use super::{ExpOptions, ExpResult};
use crate::sweep::parallel_map;
use crate::table::{fnum, Table};

const M: f64 = 8.0;
const LOAD: f64 = 1.0;
/// The bench fixture's seed, so the table matches the snapshot's fixture
/// family rather than `--seed`.
const FIXTURE_SEED: u64 = 0xbe9c;
/// Largest `|flow drift|` against the baseline that still counts as
/// converged at the default resolution. Fine-quantum runs of the same
/// instance differ by 1–4% (greedy's argmax flips, larger on the small
/// quick fixture), while resolution 0.2 already drifts ~5% at full size.
const BAND: f64 = 0.04;

pub(super) fn run(opts: &ExpOptions) -> ExpResult {
    // The baseline runs last, after the resolutions under test.
    let (n, mut grid, baseline): (usize, Vec<f64>, f64) = if opts.quick {
        (60, vec![0.5, 0.2, 0.1], 0.02)
    } else {
        (500, vec![0.5, 0.2, 0.1, 0.05, 0.02], 0.005)
    };
    let sizes = SizeDist::LogUniform { p: 32.0 };
    let inst = PoissonWorkload {
        n,
        rate: PoissonWorkload::rate_for_load(LOAD, M, &sizes),
        sizes,
        alphas: AlphaDist::Fixed(0.5),
        seed: FIXTURE_SEED,
    }
    .generate()
    .expect("x1 fixture");

    grid.push(baseline);
    let runs = parallel_map(grid, |res| {
        let m = simulate(&inst, &mut GreedyHybrid::with_resolution(res), M)
            .expect("greedy run")
            .metrics;
        (res, m.total_flow, m.events)
    });
    let (_, base_flow, base_events) = runs[runs.len() - 1];
    let drift = |flow: f64| (flow - base_flow) / base_flow;

    let mut table = Table::new(
        format!(
            "X1: greedy re-decision quantum (n={n}, load {LOAD}, m={M}, α=0.5), \
             drift vs resolution {baseline}"
        ),
        &[
            "resolution",
            "total flow",
            "drift",
            "events",
            "events / baseline",
        ],
    );
    for &(res, flow, events) in &runs {
        table.push_row(vec![
            format!("{res}"),
            fnum(flow),
            format!("{:+.1}%", 100.0 * drift(flow)),
            events.to_string(),
            format!("{:.3}", events as f64 / base_events as f64),
        ]);
    }

    let events_grow = runs.windows(2).all(|w| w[1].2 > w[0].2);
    let default_drift = runs
        .iter()
        .find(|r| exact_eq(r.0, GreedyHybrid::DEFAULT_RESOLUTION))
        .map(|r| drift(r.1))
        .expect("default resolution in grid");
    let converged = default_drift.abs() <= BAND;

    ExpResult {
        id: "x1",
        title: "Ablation: the greedy hybrid's re-decision quantum (accuracy vs events)",
        tables: vec![table],
        notes: vec![
            format!(
                "default resolution {} drifts {:+.2}% from the baseline (converged band: ±{:.0}%)",
                GreedyHybrid::DEFAULT_RESOLUTION,
                100.0 * default_drift,
                100.0 * BAND
            ),
            "events must grow strictly as the resolution shrinks".to_string(),
        ],
        pass: events_grow && converged,
    }
}
