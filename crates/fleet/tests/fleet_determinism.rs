//! Fleet-level determinism and cross-check contracts:
//!
//! * a fleet of N tenants produces **byte-identical** per-tenant results
//!   whatever the shard count (`Pool::new(1)` vs `Pool::new(4)`) and
//!   whether or not every suspension is forced through a cross-shard
//!   migration (the `parsched-snap/v2` text codec);
//! * batched projection queries agree with the heSRPT closed form
//!   (`parsched_opt::hesrpt_batch_lb`) on batch-release pure-power
//!   tenants — the one family where an exact external answer exists.

use parsched::PolicyKind;
use parsched_analysis::Pool;
use parsched_fleet::{
    FleetConfig, FleetOutcome, FleetQuery, FleetSession, QueryAnswer, TenantSpec, TenantStatus,
};
use parsched_opt::hesrpt_batch_lb;
use parsched_sim::{Instance, JobId, JobSpec};
use parsched_speedup::Curve;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn mixed_instance(n: usize, seed: u64) -> Instance {
    let mut state = seed;
    let alphas = [0.25, 0.5, 0.75, 1.0];
    let mut release = 0.0;
    let jobs = (0..n)
        .map(|i| {
            let u = splitmix(&mut state);
            release += (u % 5) as f64 * 0.5;
            let size = 1.0 + (u % 7) as f64;
            let alpha = alphas[(u as usize >> 8) % alphas.len()];
            JobSpec::new(JobId(i as u64), release, size, Curve::power(alpha))
        })
        .collect();
    Instance::new(jobs).expect("mixed instance")
}

fn fleet(n: usize) -> Vec<TenantSpec> {
    let policies = PolicyKind::all_registered();
    (0..n)
        .map(|i| {
            TenantSpec::new(
                format!("tenant-{i:04}"),
                mixed_instance(5 + i % 9, 0xfee1 + i as u64),
                policies[i % policies.len()],
                if i % 2 == 0 { 4.0 } else { 8.0 },
            )
            .with_streaming(i % 3 == 0)
        })
        .collect()
}

/// Canonical byte rendering of a fleet outcome: every float as its exact
/// bit pattern, so "byte-identical" below really means bit-identical.
fn render(out: &FleetOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for r in &out.reports {
        let _ = write!(s, "{}|{}|{}|{}|", r.name, r.policy, r.streaming, r.jobs);
        match &r.status {
            TenantStatus::Done { metrics, rounds } => {
                let _ = writeln!(
                    s,
                    "done|{}|{}|{}|{}|{}",
                    rounds,
                    metrics.events,
                    metrics.total_flow.to_bits(),
                    metrics.fractional_flow.to_bits(),
                    metrics.makespan.to_bits()
                );
            }
            TenantStatus::Shed { reason } => {
                let _ = writeln!(s, "shed|{reason}");
            }
            TenantStatus::Failed { error } => {
                let _ = writeln!(s, "failed|{error}");
            }
        }
    }
    s
}

fn run_fleet(jobs: usize, migrate: bool) -> String {
    let cfg = FleetConfig {
        max_in_flight: 8,
        max_pending: 64,
        slice_events: 5,
        migrate,
    };
    let mut session = FleetSession::new(cfg, fleet(24)).expect("session");
    let out = session.run(&Pool::new(jobs));
    assert_eq!(out.done, 24, "all tenants must complete:\n{}", render(&out));
    render(&out)
}

#[test]
fn fleet_results_are_byte_identical_across_shard_counts_and_migration() {
    let serial = run_fleet(1, false);
    let parallel = run_fleet(4, false);
    assert_eq!(serial, parallel, "shard count leaked into results");
    // Forcing every suspension through the text codec — a migration to
    // another shard/host each round — must change nothing.
    let migrated_serial = run_fleet(1, true);
    let migrated_parallel = run_fleet(4, true);
    assert_eq!(serial, migrated_serial, "migration changed results");
    assert_eq!(serial, migrated_parallel, "migrated parallel run diverged");
}

/// Batch-release pure-power tenants under Intermediate-SRPT: the
/// projected total flow answered from a mid-run snapshot must dominate
/// the heSRPT closed-form lower bound, and on single-job tenants (where
/// the policy's one-job allocation of all `m` processors is exactly the
/// heSRPT schedule and the repo's kneed curve is degenerate at `x ≤ m`
/// only when sized to stay fully parallel) the projection equals the
/// closed form up to float tolerance.
#[test]
fn batched_queries_cross_check_against_the_hesrpt_closed_form() {
    // Multi-job batch tenants: α = 0.5, all released at t = 0.
    let batch = |sizes: &[f64], id0: u64| {
        let jobs = sizes
            .iter()
            .enumerate()
            .map(|(i, &p)| JobSpec::new(JobId(id0 + i as u64), 0.0, p, Curve::power(0.5)))
            .collect();
        Instance::new(jobs).expect("batch instance")
    };
    let m = 4.0;
    let tenants = vec![
        TenantSpec::new(
            "batch-a",
            batch(&[1.0, 2.0, 3.0, 5.0], 0),
            PolicyKind::IntermediateSrpt,
            m,
        ),
        TenantSpec::new(
            "batch-b",
            batch(&[2.0, 2.0, 2.0], 100),
            PolicyKind::IntermediateSrpt,
            m,
        ),
        // Single job of size 2 on m = 4 with Γ(x) = min(x, x^0.5·…) kneed
        // at 1: allocated all 4 processors, rate 4^0.5 = 2 — but the pure
        // power law gives the same rate only when the curve is pure; the
        // kneed curve caps Γ(x) ≤ x. Both give Γ(4) = 2 here, so the LB
        // is tight.
        TenantSpec::new("solo", batch(&[2.0], 200), PolicyKind::IntermediateSrpt, m),
    ];
    let cfg = FleetConfig {
        max_in_flight: 3,
        max_pending: 0,
        slice_events: 2,
        migrate: true,
    };
    let mut session = FleetSession::new(cfg, tenants.clone()).expect("session");
    let pool = Pool::new(2);
    // Suspend everyone mid-run, then ask for the projected final flow.
    session.round(&pool);
    let queries: Vec<FleetQuery> = tenants
        .iter()
        .map(|t| FleetQuery::ProjectedFlow {
            tenant: t.name.clone(),
        })
        .collect();
    let answers = session.query_batch(&pool, &queries);
    for (t, answer) in tenants.iter().zip(&answers) {
        let lb = hesrpt_batch_lb(&t.instance, m).expect("closed form applies");
        let projected = match answer.as_ref().expect("projected flow") {
            QueryAnswer::Flow(f) => *f,
            other => panic!("{}: {other:?}", t.name),
        };
        assert!(
            projected >= lb - 1e-9,
            "{}: projected flow {projected} below the heSRPT lower bound {lb}",
            t.name
        );
        if t.instance.len() == 1 {
            assert!(
                (projected - lb).abs() < 1e-9,
                "{}: single-job projection {projected} != closed form {lb}",
                t.name
            );
        }
    }
    // The projections must also be what actually happens: run the fleet
    // out and compare the final flows.
    let out = session.run(&pool);
    for (report, answer) in out.reports.iter().zip(&answers) {
        let projected = match answer.as_ref().expect("projected flow") {
            QueryAnswer::Flow(f) => *f,
            other => panic!("{other:?}"),
        };
        match &report.status {
            TenantStatus::Done { metrics, .. } => assert_eq!(
                metrics.total_flow.to_bits(),
                projected.to_bits(),
                "{}: projection was not exact",
                report.name
            ),
            other => panic!("{}: {other:?}", report.name),
        }
    }
}
