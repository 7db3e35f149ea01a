//! Engine-level event-count contracts:
//!
//! * a same-timestamp arrival + completion is one engine step, counted
//!   once (`Engine::coalesced_steps`, docs/PERF.md §4);
//! * the Parallel-SRPT event count on the standard n = 10⁴ fixture is
//!   pinned exactly: 19_999 = 2n − 1, one coalesced step on this seed,
//!   while Intermediate-SRPT sees 20_000 (no coincidence under its
//!   allocation). Any drift in arrival admission, event selection, or
//!   coalescing shows up here as an off-by-k;
//! * the per-`n` allocation memo queries the policy's prefix profile at
//!   most once per distinct alive count, on both the plain and the
//!   observed loop.

use std::cell::RefCell;
use std::collections::BTreeSet;

use parsched::PolicyKind;
use parsched_bench::{mixed_alpha_fixture, poisson_fixture};
use parsched_sim::{
    AliveJob, AllocationStability, Engine, EngineConfig, Instance, JobId, JobSpec, NullObserver,
    Observer, Policy, PrefixAllocation, RunOutcome, StaticSource, Time,
};
use parsched_speedup::Curve;

fn run(inst: &Instance, kind: &PolicyKind) -> RunOutcome {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    Engine::new(
        EngineConfig::new(8.0),
        policy.as_mut(),
        &mut source,
        &mut obs,
    )
    .run()
    .expect("run")
}

/// Two fully parallelizable jobs on m = 8: job 0 (size 8, release 0)
/// drains at rate 8 and completes at exactly t = 1.0 — the instant job 1
/// is released. The engine must process that coincidence as ONE step
/// (completion + arrival coalesced), and count it once.
#[test]
fn same_timestamp_arrival_and_completion_coalesce_into_one_counted_step() {
    let inst = Instance::new(vec![
        JobSpec::new(JobId(0), 0.0, 8.0, Curve::power(1.0)),
        JobSpec::new(JobId(1), 1.0, 8.0, Curve::power(1.0)),
    ])
    .expect("coincidence instance");
    let mut policy = PolicyKind::IntermediateSrpt.build();
    let mut source = StaticSource::new(&inst);
    let mut obs = NullObserver;
    let cfg = EngineConfig::new(8.0);
    let mut engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
    while engine.step().expect("step") {}
    assert_eq!(
        engine.coalesced_steps(),
        1,
        "the t = 1.0 coincidence must be one coalesced step"
    );
    let out = engine.into_outcome().expect("outcome");
    // 2 events: the t = 0 admission precedes the first step (not an
    // event), t = 1 is ONE coalesced completion+arrival step (not two),
    // t = 2 is the final completion.
    assert_eq!(out.metrics.events, 2, "event count");
    assert_eq!(out.metrics.makespan, 2.0, "makespan");
}

#[test]
fn parallel_srpt_event_count_is_pinned_on_the_standard_n1e4_fixture() {
    let inst = poisson_fixture(10_000, 0.9, 8.0);
    let psrpt = run(&inst, &PolicyKind::ParallelSrpt);
    assert_eq!(
        psrpt.metrics.events, 19_999,
        "Parallel-SRPT event count moved — arrival admission, event \
         selection, or coalescing changed"
    );
    let isrpt = run(&inst, &PolicyKind::IntermediateSrpt);
    assert_eq!(
        isrpt.metrics.events, 20_000,
        "Intermediate-SRPT event count moved"
    );
}

/// The coalesced-step counter explains the 2n − 1 above: Parallel-SRPT
/// hits exactly one arrival/completion coincidence on this seed.
#[test]
fn parallel_srpt_coalesces_exactly_one_step_on_the_standard_fixture() {
    let inst = poisson_fixture(10_000, 0.9, 8.0);
    let mut policy = PolicyKind::ParallelSrpt.build();
    let mut source = StaticSource::new(&inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(
        EngineConfig::new(8.0),
        policy.as_mut(),
        &mut source,
        &mut obs,
    );
    while engine.step().expect("step") {}
    assert_eq!(engine.coalesced_steps(), 1);
    assert_eq!(
        engine.into_outcome().expect("outcome").metrics.events,
        19_999
    );
}

/// Delegates to a registry policy and records every alive count its
/// `prefix_allocation` is queried with.
struct CountingPrefix {
    inner: Box<dyn Policy>,
    queried: RefCell<Vec<usize>>,
}

impl Policy for CountingPrefix {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn assign(
        &mut self,
        now: Time,
        m: f64,
        jobs: &[AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        self.inner.assign(now, m, jobs, shares)
    }

    fn stability(&self) -> AllocationStability {
        self.inner.stability()
    }

    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        self.queried.borrow_mut().push(n_alive);
        self.inner.prefix_allocation(n_alive, m)
    }

    fn srpt_ordered(&self) -> bool {
        self.inner.srpt_ordered()
    }
}

/// Counts completions, which makes the observer not a no-op and so keeps
/// the loop's observer hooks compiled in.
#[derive(Default)]
struct Completions(u64);

impl Observer for Completions {
    fn on_completion(&mut self, _t: Time, _job: &JobSpec) {
        self.0 += 1;
    }

    fn needs_allocation_stream(&self) -> bool {
        false
    }
}

/// Without the memo the policy would be queried on every refresh (about
/// one per event, ~2n here); with it, each distinct alive count is
/// queried once and then replayed.
#[test]
fn profile_memo_queries_each_alive_count_once() {
    let inst = mixed_alpha_fixture(2_000, 0.9, 8.0);
    for kind in [
        PolicyKind::IntermediateSrpt,
        PolicyKind::Equi,
        PolicyKind::Threshold(2.0),
    ] {
        for observed in [false, true] {
            let mut policy = CountingPrefix {
                inner: kind.build(),
                queried: RefCell::new(Vec::new()),
            };
            let mut source = StaticSource::new(&inst);
            let mut null = NullObserver;
            let mut counter = Completions::default();
            let obs: &mut dyn Observer = if observed { &mut counter } else { &mut null };
            let engine = Engine::new(EngineConfig::new(8.0), &mut policy, &mut source, obs);
            assert!(engine.uses_incremental_path());
            let out = engine.run_streaming().expect("run");
            let queried = policy.queried.into_inner();
            let distinct: BTreeSet<usize> = queried.iter().copied().collect();
            let ctx = format!("{} (observed={observed})", kind.name());
            assert_eq!(
                queried.len(),
                distinct.len(),
                "{ctx}: an alive count was queried twice"
            );
            assert!(distinct.len() <= out.peak_alive, "{ctx}: {distinct:?}");
            assert!(
                (queried.len() as u64) < out.metrics.events / 10,
                "{ctx}: {} queries for {} events",
                queried.len(),
                out.metrics.events
            );
        }
    }
}
