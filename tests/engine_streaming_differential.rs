//! The four-way differential oracle for the streaming engine path
//! (see docs/TESTING.md):
//!
//! ```text
//!                    in-memory            streaming
//! incremental   run()/into_outcome()   run_streaming()
//! legacy        with_full_reassign     with_full_reassign + streaming
//! ```
//!
//! Streaming is a *memory mode*, not a scheduling path: for a fixed
//! per-event path the streaming run must produce **bit-identical** metrics,
//! the identical completion sequence, and the same strict-audit outcome as
//! the in-memory run, because both route completions through the same
//! constant-size sink in the same order. Across per-event paths
//! (incremental vs legacy) the existing float tolerance applies — the two
//! paths evaluate algebraically-equal expressions in different orders.
//!
//! The event loop is monomorphized over the hooks a run needs (see
//! `Engine::run_until`): a plain run (no-op observer, no audit) compiles
//! every observer and audit call out, an observed or audited run keeps
//! them. Hooks observe the schedule and never perturb it, so the arms
//! below pin plain ≡ observed ≡ strict-audited **exactly** — metric bits
//! and per-completion time bits — for every registry policy, and a
//! mid-run snapshot resumed through the plain loop finishes
//! bit-identically to the uninterrupted run.

use parsched::PolicyKind;
use parsched_bench::{mixed_alpha_fixture, overload_fixture, poisson_fixture};
use parsched_sim::{
    AllocationStability, AuditLevel, Engine, EngineConfig, Instance, JobId, JobSpec, NullObserver,
    Observer, RunMetrics, RunOutcome, Snapshot, StaticSource, Time,
};
use parsched_speedup::Curve;
use proptest::prelude::*;

/// Relative tolerance for comparing *across* per-event paths (incremental
/// vs legacy). Within one path, streaming vs in-memory is exact.
const RTOL: f64 = 1e-6;

fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= RTOL * scale.abs().max(1.0)
}

/// Records the exact completion sequence `(id, time)` in event order.
#[derive(Default)]
struct CompletionLog {
    seq: Vec<(JobId, Time)>,
}

impl Observer for CompletionLog {
    fn on_completion(&mut self, t: Time, job: &JobSpec) {
        self.seq.push((job.id, t));
    }

    fn needs_allocation_stream(&self) -> bool {
        false
    }
}

/// One run of a registry policy over `inst` in the given mode; returns the
/// aggregate metrics, the completion sequence, and whether a strict audit
/// passed (`run` errors on violation, so reaching the metrics means pass).
fn run_mode(
    inst: &Instance,
    kind: PolicyKind,
    m: f64,
    full_reassign: bool,
    streaming: bool,
    audit: AuditLevel,
) -> (RunMetrics, Vec<(JobId, Time)>) {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut log = CompletionLog::default();
    let cfg = EngineConfig::new(m)
        .with_full_reassign(full_reassign)
        .with_streaming(streaming)
        .with_audit(audit);
    let engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut log);
    let metrics = if streaming {
        engine
            .run_streaming()
            .unwrap_or_else(|e| {
                panic!(
                    "{} (streaming, full_reassign={full_reassign}): {e}",
                    kind.name()
                )
            })
            .metrics
    } else {
        engine
            .run()
            .unwrap_or_else(|e| {
                panic!(
                    "{} (in-memory, full_reassign={full_reassign}): {e}",
                    kind.name()
                )
            })
            .metrics
    };
    (metrics, log.seq)
}

/// Every registry policy the differential harness sweeps.
fn registry() -> Vec<PolicyKind> {
    let mut kinds = PolicyKind::all_standard();
    kinds.push(PolicyKind::Threshold(2.0));
    kinds
}

/// The full four-way check for one policy on one instance.
///
/// * streaming ≡ in-memory **exactly** (per per-event path): every scalar
///   of [`RunMetrics`] via `assert_eq!`, and the completion sequence
///   including intra-event order;
/// * incremental ≡ legacy within [`RTOL`] (pre-existing guarantee, checked
///   here so a streaming-only regression cannot hide behind it);
/// * strict audits pass in all four modes.
fn assert_four_way(inst: &Instance, kind: PolicyKind, m: f64, audit: AuditLevel) {
    let name = kind.name();
    let (mem_inc, seq_mem_inc) = run_mode(inst, kind, m, false, false, audit);
    let (st_inc, seq_st_inc) = run_mode(inst, kind, m, false, true, audit);
    let (mem_leg, seq_mem_leg) = run_mode(inst, kind, m, true, false, audit);
    let (st_leg, seq_st_leg) = run_mode(inst, kind, m, true, true, audit);

    // Memory mode is invisible: bit-identical aggregates and sequences.
    assert_eq!(
        mem_inc, st_inc,
        "{name}: streaming ≠ in-memory (incremental)"
    );
    assert_eq!(mem_leg, st_leg, "{name}: streaming ≠ in-memory (legacy)");
    assert_eq!(
        seq_mem_inc, seq_st_inc,
        "{name}: completion sequences diverge (incremental)"
    );
    assert_eq!(
        seq_mem_leg, seq_st_leg,
        "{name}: completion sequences diverge (legacy)"
    );

    // Across per-event paths: same schedule up to float tolerance.
    assert_eq!(
        seq_mem_inc.len(),
        seq_mem_leg.len(),
        "{name}: completion counts differ across paths"
    );
    for (what, u, v) in [
        ("total_flow", mem_inc.total_flow, mem_leg.total_flow),
        (
            "fractional_flow",
            mem_inc.fractional_flow,
            mem_leg.fractional_flow,
        ),
        (
            "alive_integral",
            mem_inc.alive_integral,
            mem_leg.alive_integral,
        ),
        ("makespan", mem_inc.makespan, mem_leg.makespan),
        ("max_flow", mem_inc.max_flow, mem_leg.max_flow),
        (
            "total_stretch",
            mem_inc.total_stretch,
            mem_leg.total_stretch,
        ),
        (
            "total_weighted_flow",
            mem_inc.total_weighted_flow,
            mem_leg.total_weighted_flow,
        ),
    ] {
        assert!(
            close(u, v, v),
            "{name}: {what} = {u} (incremental) vs {v} (legacy)"
        );
    }
}

/// One generated job: `(release, size, curve selector, alpha)`.
fn job_from(id: u64, raw: (f64, f64, u8, f64)) -> JobSpec {
    let (release, size, which, alpha) = raw;
    let curve = match which % 4 {
        0 => Curve::Sequential,
        1 => Curve::FullyParallel,
        2 => Curve::power(alpha),
        _ => Curve::try_amdahl(alpha.min(0.9)).unwrap(),
    };
    JobSpec::new(JobId(id), release, size, curve)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: all four modes agree for every registry
    /// policy on random mixed-curve instances, under a strict audit.
    #[test]
    fn streaming_matches_all_in_memory_paths_on_random_instances(
        raw in proptest::collection::vec(
            (0.0f64..12.0, 0.1f64..8.0, 0u8..4, 0.05f64..1.0),
            1..24,
        ),
        m_sel in 0u8..3,
    ) {
        let m = [1.0, 2.0, 8.0][m_sel as usize];
        let jobs: Vec<JobSpec> = raw
            .into_iter()
            .enumerate()
            .map(|(i, r)| job_from(i as u64, r))
            .collect();
        let inst = Instance::new(jobs).unwrap();
        for kind in registry() {
            assert_four_way(&inst, kind, m, AuditLevel::Strict);
        }
    }

    /// Burst arrivals landing exactly on completion instants: arrivals in
    /// the same event as retirements, so freshly-freed arena slots are
    /// reused immediately. Slot reuse must not perturb anything — the
    /// SRPT order keys on `(remaining, release, id)`, never on the index.
    #[test]
    fn burst_at_retirement_boundary_matches(
        p in 0.5f64..4.0,
        burst in 2usize..6,
        m_sel in 0u8..2,
    ) {
        let m = [2.0, 4.0][m_sel as usize];
        let mut jobs: Vec<JobSpec> = (0..m as u64)
            .map(|i| JobSpec::new(JobId(i), 0.0, p, Curve::Sequential))
            .collect();
        for k in 0..burst as u64 {
            jobs.push(JobSpec::new(
                JobId(m as u64 + k),
                p,
                1.0 + (k / 2) as f64,
                if k % 2 == 0 { Curve::Sequential } else { Curve::power(0.5) },
            ));
        }
        let inst = Instance::new(jobs).unwrap();
        for kind in registry() {
            assert_four_way(&inst, kind, m, AuditLevel::Strict);
        }
    }

    /// Random mixed-curve instances: the plain loop ≡ the observed loop
    /// for every registry policy, across machine counts including the
    /// single-machine edge.
    #[test]
    fn plain_run_matches_observed_run_on_random_instances(
        raw in proptest::collection::vec(
            (0.0f64..12.0, 0.1f64..8.0, 0u8..4, 0.05f64..1.0),
            1..24,
        ),
        m_sel in 0u8..3,
    ) {
        let m = [1.0, 2.0, 8.0][m_sel as usize];
        let jobs: Vec<JobSpec> = raw
            .into_iter()
            .enumerate()
            .map(|(i, r)| job_from(i as u64, r))
            .collect();
        let inst = Instance::new(jobs).unwrap();
        for kind in PolicyKind::all_registered() {
            assert_plain_matches_observed(&inst, kind, m, "random");
        }
    }

    /// Coincident arrivals and ties: many jobs released at identical
    /// instants force admission batching, zero-dt events, and slot reuse
    /// in the same event — the paths the hoisted leading admission of
    /// the plain loop touches most.
    #[test]
    fn coincident_releases_match(
        sizes in proptest::collection::vec(0.25f64..4.0, 2..12),
        burst_t in 0.0f64..3.0,
    ) {
        let jobs: Vec<JobSpec> = sizes
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                JobSpec::new(JobId(i as u64), burst_t, p, Curve::power(0.5))
            })
            .collect();
        let inst = Instance::new(jobs).unwrap();
        for kind in PolicyKind::all_registered() {
            assert_plain_matches_observed(&inst, kind, 2.0, "coincident");
        }
    }

    /// Moderately large random workloads (n up to 10⁴ across the suite's
    /// case budget) on the flagship policy, audit sampled: exercises many
    /// admit→retire→reuse cycles per slot.
    #[test]
    fn larger_workloads_stay_bit_identical(
        n in 200usize..1000,
        seed_jobs in proptest::collection::vec(
            (0.0f64..50.0, 0.1f64..16.0, 0u8..4, 0.05f64..1.0),
            8,
        ),
    ) {
        // Tile the 8 sampled job shapes across n ids with arithmetic
        // release jitter — large n without a huge generated vector.
        let jobs: Vec<JobSpec> = (0..n)
            .map(|i| {
                let (release, size, which, alpha) = seed_jobs[i % seed_jobs.len()];
                job_from(
                    i as u64,
                    (release + (i / seed_jobs.len()) as f64 * 0.37, size, which, alpha),
                )
            })
            .collect();
        let inst = Instance::new(jobs).unwrap();
        for kind in [PolicyKind::IntermediateSrpt, PolicyKind::Equi] {
            assert_four_way(&inst, kind, 8.0, AuditLevel::Sampled(64));
        }
    }
}

/// Deterministic regression: simultaneous completions *at* the retirement
/// boundary together with a same-instant burst. Two jobs retire in one
/// event (their slots hit the free list back-to-back), the burst reuses
/// those exact slots, and a straggler lands mid-drain.
#[test]
fn regression_simultaneous_retirement_with_burst() {
    let m = 2.0;
    let jobs = vec![
        JobSpec::new(JobId(0), 0.0, 2.0, Curve::Sequential),
        JobSpec::new(JobId(1), 0.0, 2.0, Curve::Sequential),
        JobSpec::new(JobId(2), 2.0, 1.0, Curve::Sequential),
        JobSpec::new(JobId(3), 2.0, 1.0, Curve::Sequential),
        JobSpec::new(JobId(4), 2.0, 2.0, Curve::power(0.5)),
        JobSpec::new(JobId(5), 2.5, 0.25, Curve::FullyParallel),
    ];
    let inst = Instance::new(jobs).unwrap();
    for kind in registry() {
        assert_four_way(&inst, kind, m, AuditLevel::Strict);
    }
}

/// Deterministic regression: a long chain of disjoint-lifetime jobs, so a
/// single arena slot is recycled dozens of times while the big aggregates
/// accumulate — the shape that would expose any sink/finalizer divergence
/// between the memory modes.
#[test]
fn regression_single_slot_recycled_many_times() {
    let jobs: Vec<JobSpec> = (0..64)
        .map(|i| JobSpec::new(JobId(i), 3.0 * i as f64, 1.0, Curve::power(0.5)))
        .collect();
    let inst = Instance::new(jobs).unwrap();
    for kind in registry() {
        assert_four_way(&inst, kind, 4.0, AuditLevel::Strict);
    }
}

/// The PR 6 mixed-α fixture through the full oracle: four α classes per
/// instance, so the kernel-class registry path (Γ evaluation grouped by
/// curve class, PR 6) is exercised in all four modes rather than the
/// single-class fast path the other fixtures mostly hit.
#[test]
fn mixed_alpha_fixture_agrees_in_all_four_modes() {
    let inst = parsched_bench::mixed_alpha_fixture(160, 0.9, 4.0);
    // The fixture draws from four distinct α values; the class registry
    // must actually be multi-class or this test regressed into the fast
    // path.
    let classes: std::collections::BTreeSet<u64> = inst
        .jobs()
        .iter()
        .map(|j| match j.curve {
            Curve::Power { alpha } => alpha.to_bits(),
            ref other => panic!("fixture emits power curves only, got {other:?}"),
        })
        .collect();
    assert!(
        classes.len() >= 4,
        "expected ≥ 4 α classes, got {classes:?}"
    );
    for kind in registry() {
        assert_four_way(&inst, kind, 4.0, AuditLevel::Strict);
    }
}

/// The convenience entry points agree with each other: `simulate` (the
/// in-memory helper) and `simulate_streaming` over a `StaticSource` of the
/// same instance produce identical metrics.
#[test]
fn convenience_entry_points_agree() {
    let inst = Instance::from_sizes(
        &[(0.0, 4.0), (0.5, 1.0), (1.0, 2.0), (1.0, 2.0), (3.0, 0.5)],
        Curve::power(0.5),
    )
    .unwrap();
    let mut policy = PolicyKind::IntermediateSrpt.build();
    let mem = parsched_sim::simulate(&inst, policy.as_mut(), 4.0).unwrap();
    let mut source = StaticSource::new(&inst);
    let mut policy2 = PolicyKind::IntermediateSrpt.build();
    let st = parsched_sim::simulate_streaming(&mut source, policy2.as_mut(), 4.0).unwrap();
    assert_eq!(mem.metrics, st.metrics);
    assert_eq!(st.admitted, inst.len());
}

/// One plain run: no-op observer, no audit — the loop instantiation with
/// every hook compiled out on the incremental path.
fn run_plain(inst: &Instance, kind: PolicyKind, m: f64) -> RunOutcome {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    Engine::new(EngineConfig::new(m), policy.as_mut(), &mut source, &mut obs)
        .run()
        .unwrap_or_else(|e| panic!("{} (plain): {e}", kind.name()))
}

/// Completion sequence as raw bits: order, identity, and exact times.
fn completion_bits(seq: impl IntoIterator<Item = (JobId, Time)>) -> Vec<(u64, u64)> {
    seq.into_iter().map(|(id, t)| (id.0, t.to_bits())).collect()
}

fn outcome_bits(out: &RunOutcome) -> Vec<(u64, u64)> {
    completion_bits(out.completed.iter().map(|c| (c.id, c.completion)))
}

/// plain ≡ observed, exactly: metric bits and the completion sequence.
fn assert_plain_matches_observed(inst: &Instance, kind: PolicyKind, m: f64, ctx: &str) {
    let name = kind.name();
    let plain = run_plain(inst, kind, m);
    let (observed, seq) = run_mode(inst, kind, m, false, false, AuditLevel::Off);
    assert_eq!(plain.metrics, observed, "{ctx}/{name}: observed ≠ plain");
    assert_eq!(
        outcome_bits(&plain),
        completion_bits(seq),
        "{ctx}/{name}: observed completion sequence ≠ plain"
    );
}

/// Registry policies that run on the incremental path, where a plain run
/// takes the loop instantiation with every hook compiled out. (On the
/// exhaustive path both runs take the hooked instantiation; the random
/// instances above still cover those policies.)
fn incremental_policies() -> Vec<PolicyKind> {
    PolicyKind::all_registered()
        .into_iter()
        .filter(|k| k.build().stability() == AllocationStability::SrptPrefix)
        .collect()
}

/// The incremental-path registry policies on the three bench fixtures
/// (stable load, overload, mixed-α), at a size that crosses arena growth,
/// slot reuse, and interval re-classification boundaries many times.
#[test]
fn plain_and_observed_runs_are_bit_identical_on_bench_fixtures() {
    let m = 8.0;
    let kinds = incremental_policies();
    assert!(kinds.len() >= 5, "{kinds:?}");
    for (ctx, inst) in [
        ("stable", poisson_fixture(2_000, 0.9, m)),
        ("overload", overload_fixture(2_000, m)),
        (
            "overload_sparse_ids",
            offset_ids(&overload_fixture(2_000, m)),
        ),
        ("mixed_alpha", mixed_alpha_fixture(2_000, 0.9, m)),
    ] {
        for &kind in &kinds {
            assert_plain_matches_observed(&inst, kind, m, ctx);
        }
    }
}

/// Offset that puts every id past the engine id index's dense range, so
/// each lookup, admission and streaming retirement goes through its
/// sorted sparse table (lazy removal and compaction).
const SPARSE_ID_OFFSET: u64 = 1 << 40;

/// `inst` with every job id shifted by [`SPARSE_ID_OFFSET`]. Ids only
/// name jobs and break ties, and the shift preserves their order, so the
/// schedule must not change.
fn offset_ids(inst: &Instance) -> Instance {
    let jobs = inst
        .jobs()
        .iter()
        .map(|j| {
            let mut j = j.clone();
            j.id = JobId(j.id.0 + SPARSE_ID_OFFSET);
            j
        })
        .collect();
    Instance::new(jobs).expect("shifted ids stay unique")
}

/// The overload fixture with sparse ids, run streaming (every completion
/// retires a sparse id) both plain and observed, must finish exactly as
/// the run of the original dense ids: same metric bits, same completion
/// sequence up to the id shift. The plain runs advance in lockstep, and
/// at every checkpoint each job's `remaining_of` must agree bit for bit:
/// `None` once retired, the same work while alive.
#[test]
fn sparse_id_streaming_overload_matches_dense_ids_exactly() {
    let m = 8.0;
    let dense = overload_fixture(2_000, m);
    let sparse = offset_ids(&dense);
    for kind in incremental_policies() {
        let name = kind.name();
        let baseline = run_plain(&dense, kind, m);
        let (observed, seq) = run_mode(&sparse, kind, m, false, true, AuditLevel::Off);
        assert_eq!(
            baseline.metrics, observed,
            "{name}: sparse-id stream ≠ dense"
        );
        let unshifted = seq
            .into_iter()
            .map(|(id, t)| (JobId(id.0 - SPARSE_ID_OFFSET), t));
        assert_eq!(
            outcome_bits(&baseline),
            completion_bits(unshifted),
            "{name}: sparse-id completion sequence ≠ dense"
        );

        let cfg = EngineConfig::new(m).with_streaming(true);
        let (mut p_dense, mut p_sparse) = (kind.build(), kind.build());
        let mut src_dense = StaticSource::new(&dense);
        let mut src_sparse = StaticSource::new(&sparse);
        let (mut obs_dense, mut obs_sparse) = (NullObserver, NullObserver);
        let mut e_dense = Engine::new(cfg, p_dense.as_mut(), &mut src_dense, &mut obs_dense);
        let mut e_sparse = Engine::new(cfg, p_sparse.as_mut(), &mut src_sparse, &mut obs_sparse);
        loop {
            let stepped = e_dense.run_until(97).expect("dense stream");
            assert_eq!(e_sparse.run_until(97).expect("sparse stream"), stepped);
            for j in dense.jobs() {
                let shifted = JobId(j.id.0 + SPARSE_ID_OFFSET);
                assert_eq!(
                    e_dense.remaining_of(j.id).map(f64::to_bits),
                    e_sparse.remaining_of(shifted).map(f64::to_bits),
                    "{name}: remaining work of job {} diverges",
                    j.id
                );
            }
            if stepped < 97 {
                break;
            }
        }
        let plain = e_sparse.into_streaming_outcome().expect("sparse outcome");
        assert_eq!(
            baseline.metrics, plain.metrics,
            "{name}: plain sparse-id stream ≠ dense"
        );
        assert_eq!(plain.admitted, dense.len());
    }
}

/// A strict audit builds a frame at every event, yet the audited run
/// must reproduce the plain run bit-for-bit: auditing observes the
/// schedule, it never perturbs it.
#[test]
fn strict_audited_run_matches_plain_run_exactly() {
    let m = 8.0;
    let inst = mixed_alpha_fixture(1_000, 0.9, m);
    for kind in PolicyKind::all_registered() {
        let name = kind.name();
        let plain = run_plain(&inst, kind, m);
        let mut policy = kind.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let cfg = EngineConfig::new(m).with_audit(AuditLevel::Strict);
        let audited = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs)
            .run()
            .unwrap_or_else(|e| panic!("{name} (strict audit): {e}"));
        assert!(
            audited.audit.is_some(),
            "{name}: strict audit did not report"
        );
        assert_eq!(plain.metrics, audited.metrics, "{name}: audited ≠ plain");
        assert_eq!(
            outcome_bits(&plain),
            outcome_bits(&audited),
            "{name}: audited completion sequence ≠ plain"
        );
    }
}

/// Suspends a run after `suspend_at` single steps, ships the snapshot
/// through the text codec, resumes it on a fresh engine (fresh policy
/// and source values, as a migrated tenant would hold), and runs it out
/// through the plain loop. The restored engine must rebuild the loop's
/// derived state (allocation memo, cached next completion) exactly.
fn suspend_then_resume(inst: &Instance, kind: PolicyKind, m: f64, suspend_at: u64) -> RunOutcome {
    let name = kind.name();
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(EngineConfig::new(m), policy.as_mut(), &mut source, &mut obs);
    for _ in 0..suspend_at {
        match engine.step() {
            Ok(true) => {}
            Ok(false) => break, // short run: resume from the finished state
            Err(e) => panic!("{name}: pre-suspend step: {e}"),
        }
    }
    let snap = engine.snapshot().expect("snapshot");
    drop(engine);

    let decoded = Snapshot::from_json(&snap.to_json()).expect("parse own rendering");
    assert_eq!(decoded, snap, "{name}: snapshot codec round trip drifted");

    let mut policy2 = kind.build();
    let mut source2 = StaticSource::new(inst);
    let mut obs2 = NullObserver;
    let mut resumed = Engine::new(
        EngineConfig::new(m),
        policy2.as_mut(),
        &mut source2,
        &mut obs2,
    );
    resumed.restore(&decoded).expect("restore");
    resumed
        .run_loop()
        .unwrap_or_else(|e| panic!("{name}: post-restore run: {e}"));
    resumed
        .into_outcome()
        .unwrap_or_else(|e| panic!("{name}: resumed outcome: {e}"))
}

fn assert_resume_identical(inst: &Instance, kind: PolicyKind, m: f64, suspend_points: &[u64]) {
    let name = kind.name();
    let baseline = run_plain(inst, kind, m);
    for &suspend_at in suspend_points {
        let resumed = suspend_then_resume(inst, kind, m, suspend_at);
        assert_eq!(
            baseline.metrics, resumed.metrics,
            "{name}@{suspend_at}: resumed metrics diverge"
        );
        assert_eq!(
            outcome_bits(&baseline),
            outcome_bits(&resumed),
            "{name}@{suspend_at}: resumed completion sequence diverges"
        );
    }
}

#[test]
fn mid_run_snapshot_resumes_bit_identically() {
    let m = 4.0;
    let inst = poisson_fixture(600, 0.9, m);
    for kind in PolicyKind::all_registered() {
        assert_resume_identical(&inst, kind, m, &[1, 37, 250, 900]);
    }
}

/// Mixed-α suspend points, including before the first event: the rebuilt
/// Γ class registry must assign every resumed job its original class id,
/// so the per-class rate cache stays bit-identical through later Scan
/// intervals.
#[test]
fn mixed_alpha_snapshot_resumes_bit_identically() {
    let inst = mixed_alpha_fixture(600, 0.9, 8.0);
    for kind in [PolicyKind::IntermediateSrpt, PolicyKind::Equi] {
        assert_resume_identical(&inst, kind, 8.0, &[0, 1, 7, 200, 899]);
    }
}
