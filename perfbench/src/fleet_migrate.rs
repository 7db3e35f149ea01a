//! `fleet-migrate`: the serving path, as a closed loop with one client
//! thread. A seeded multi-tenant mix (the recipe of `parsched fleet`)
//! runs through `FleetSession::round` with every suspension forced
//! through the snapshot text codec; between rounds the same client reads
//! single-query `query_batch` answers (`Progress`, `ProjectedCompletion`,
//! `ProjectedFlow`) about in-flight tenants.
//!
//! The cost is per-slice engine set-up plus `step()` on the generic loop,
//! snapshot capture and restore, and the text codec. Reads resolve their
//! tenant with a linear `find` and then run the projection forward.

use std::time::Instant;

use parsched::PolicyKind;
use parsched_analysis::Pool;
use parsched_fleet::{
    FleetConfig, FleetOutcome, FleetQuery, FleetSession, QueryAnswer, TenantSpec, TenantStatus,
};
use parsched_sim::{
    Engine, EngineBuffers, EngineConfig, Instance, JobId, JobSpec, NullObserver, Snapshot,
    StaticSource,
};
use parsched_speedup::Curve;

use crate::layers::Layers;
use crate::report::{
    alternating_passes, pass_seed, percentile, timed_ms, timed_rounds, timed_setup, Args, BestOf,
    Report,
};
use crate::trace::{TimedPolicy, Tracer};

/// Tenants per session.
const TENANTS: usize = 2000;
/// `parsched fleet` defaults: in-flight cap and events per slice.
const CAP: usize = 8;
const SLICE: u64 = 16;
/// Tenants of the warm-up session in set-up.
const WARMUP_TENANTS: usize = 100;
/// Tenants re-driven slice by slice for the snapshot layer metrics.
const SNAPSHOT_SAMPLE: usize = 200;
/// Pool workers for rounds and reads. One keeps every slice on the
/// client thread: on a two-core host two workers measured no faster
/// (2.9 s per session either way) at twice the CPU time, and left the
/// session waiting on whichever worker the host delayed.
const WORKERS: usize = 1;

/// SplitMix64 stream, the generator of `parsched fleet`'s tenant mix.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The `parsched fleet` tenant mix: 3–10 jobs per tenant, policies
/// cycling through the registry, m alternating 4/8, every third tenant
/// on the streaming path.
fn tenants(n: usize, seed: u64) -> Vec<TenantSpec> {
    let mut rng = SplitMix(seed);
    let policies = PolicyKind::all_registered();
    let alphas = [0.25, 0.5, 0.75, 1.0];
    (0..n)
        .map(|i| {
            let n_jobs = 3 + (rng.next() % 8) as usize;
            let mut release = 0.0;
            let jobs = (0..n_jobs)
                .map(|j| {
                    let u = rng.next();
                    release += (u % 5) as f64 * 0.5;
                    let size = 1.0 + (u % 7) as f64;
                    let alpha = alphas[(u as usize >> 8) % alphas.len()];
                    JobSpec::new(JobId(j as u64), release, size, Curve::power(alpha))
                })
                .collect();
            let instance = Instance::new(jobs).expect("seeded fleet instance is valid");
            TenantSpec::new(
                format!("tenant-{i:04}"),
                instance,
                policies[i % policies.len()],
                if i % 2 == 0 { 4.0 } else { 8.0 },
            )
            .with_streaming(i % 3 == 0)
        })
        .collect()
}

fn config(migrate: bool) -> FleetConfig {
    FleetConfig {
        max_in_flight: CAP,
        max_pending: TENANTS,
        slice_events: SLICE,
        migrate,
    }
}

/// Client-side totals of one session.
#[derive(Default)]
struct Served {
    rounds: u64,
    slices: u64,
    round_ms: Vec<f64>,
    query_ms: Vec<f64>,
}

/// Runs one session as the closed-loop client, each round with its reads
/// a unit of `best`; returns the session's wall time.
fn serve(
    specs: &[TenantSpec],
    seed: u64,
    pool: &Pool,
    tracer: &mut Tracer,
    rep: &mut Report,
    served: &mut Served,
    best: &mut BestOf,
) -> f64 {
    let session = match FleetSession::new(config(true), specs.to_vec()) {
        Ok(s) => s,
        Err(e) => {
            rep.check(false, || format!("fleet session: {e}"));
            return 0.0;
        }
    };
    let mut client = Client {
        specs,
        session,
        rng: SplitMix(seed),
        projected: Vec::new(),
    };
    let t = Instant::now();
    while best.unit(|| client.step(pool, tracer, rep, served)) {}
    let wall = t.elapsed().as_secs_f64();
    check_outcome(rep, &client.session.outcome(), &client.projected);
    wall
}

/// The closed-loop client of one session.
struct Client<'a> {
    specs: &'a [TenantSpec],
    session: FleetSession,
    rng: SplitMix,
    /// `ProjectedFlow` answers, by tenant index.
    projected: Vec<(usize, f64)>,
}

impl Client<'_> {
    /// One round, then reads about an in-flight tenant; false once the
    /// round finds nothing live.
    fn step(
        &mut self,
        pool: &Pool,
        tracer: &mut Tracer,
        rep: &mut Report,
        served: &mut Served,
    ) -> bool {
        let session = &mut self.session;
        served.slices += session.in_flight() as u64;
        let (live, ms) = timed_ms(|| tracer.span("fleet.round", || session.round(pool)));
        served.rounds += 1;
        served.round_ms.push(ms);
        if live == 0 {
            return false;
        }
        // Admission is FIFO with nothing shed, so the in-flight tenants
        // sit among the most recent `CAP` admissions.
        let admitted = self.specs.len() - session.queued();
        let idx = admitted - 1 - (self.rng.next() as usize % CAP.min(admitted));
        let spec = &self.specs[idx];
        let mut ask = |q: FleetQuery| {
            let (mut ans, ms) =
                timed_ms(|| tracer.span("fleet.query", || session.query_batch(pool, &[q])));
            served.query_ms.push(ms);
            ans.pop()
                .unwrap_or_else(|| Err("empty answer batch".to_string()))
        };
        let progress = ask(FleetQuery::Progress {
            tenant: spec.name.clone(),
        });
        let running = match &progress {
            Ok(QueryAnswer::Progress {
                events, completed, ..
            }) => *events > 0 && (*completed as usize) < spec.instance.len(),
            _ => false,
        };
        rep.check(progress.is_ok(), || {
            format!("{}: Progress: {progress:?}", spec.name)
        });
        if !running {
            return true;
        }
        if !spec.streaming {
            let job = JobId(self.rng.next() % spec.instance.len() as u64);
            let at = ask(FleetQuery::ProjectedCompletion {
                tenant: spec.name.clone(),
                job,
            });
            rep.check(
                matches!(at, Ok(QueryAnswer::Completion(t)) if t.is_finite()),
                || format!("{}: ProjectedCompletion({job:?}): {at:?}", spec.name),
            );
        }
        let flow = ask(FleetQuery::ProjectedFlow {
            tenant: spec.name.clone(),
        });
        match flow {
            Ok(QueryAnswer::Flow(f)) => self.projected.push((idx, f)),
            other => rep.check(false, || format!("{}: ProjectedFlow: {other:?}", spec.name)),
        }
        true
    }
}

/// Every tenant ends done, none shed or failed, and every projected flow
/// equals the tenant's realized total flow bit for bit.
fn check_outcome(rep: &mut Report, out: &FleetOutcome, projected: &[(usize, f64)]) {
    rep.check(
        out.done == out.reports.len() && out.shed == 0 && out.failed == 0,
        || {
            format!(
                "fleet: {} done, {} shed, {} failed of {}",
                out.done,
                out.shed,
                out.failed,
                out.reports.len()
            )
        },
    );
    for &(idx, f) in projected {
        let realized = match &out.reports[idx].status {
            TenantStatus::Done { metrics, .. } => Some(metrics.total_flow),
            _ => None,
        };
        rep.check(realized.is_some_and(|r| r.to_bits() == f.to_bits()), || {
            format!(
                "{}: ProjectedFlow {f} but realized {realized:?}",
                out.reports[idx].name
            )
        });
    }
}

/// Runs a session to completion without reads; returns its wall time.
fn plain_session(specs: &[TenantSpec], migrate: bool, pool: &Pool, rep: &mut Report) -> f64 {
    let t = Instant::now();
    let out = FleetSession::new(config(migrate), specs.to_vec()).map(|mut s| s.run(pool));
    let wall = t.elapsed().as_secs_f64();
    match out {
        Ok(out) => check_outcome(rep, &out, &[]),
        Err(e) => rep.check(false, || format!("fleet session: {e}")),
    }
    wall
}

/// Re-drives the first tenants slice by slice through the public engine
/// calls a fleet round makes (`restore`, `step`, `snapshot`, `to_json`,
/// `from_json`), timing each in its own span. Each re-driven tenant must
/// finish with the fleet's total flow for it.
fn redrive(
    specs: &[TenantSpec],
    realized: &FleetOutcome,
    tracer: &mut Tracer,
    layers: &mut Layers,
    rep: &mut Report,
) {
    let (mut steps, mut bytes, mut codec_docs, mut incremental) = (0u64, 0u64, 0u64, 0u64);
    let mut bufs = EngineBuffers::new();
    for (i, spec) in specs.iter().take(SNAPSHOT_SAMPLE).enumerate() {
        let mut snap: Option<Snapshot> = None;
        let flow = loop {
            let mut policy = TimedPolicy::new(spec.policy.build());
            let mut source = StaticSource::new(&spec.instance);
            let mut obs = NullObserver;
            let cfg = EngineConfig::new(spec.m).with_streaming(spec.streaming);
            let taken = std::mem::take(&mut bufs);
            let id = tracer.open("simcore.slice_setup");
            let mut engine = Engine::with_buffers(cfg, &mut policy, &mut source, &mut obs, taken);
            tracer.close(id);
            if let Some(s) = &snap {
                if let Err(e) = tracer.span("simcore.snapshot.restore", || engine.restore(s)) {
                    break Err(format!("restore: {e}"));
                }
            }
            let id = tracer.open("simcore.step");
            let mut live = true;
            let mut stepped = 0;
            let mut failed = None;
            while stepped < SLICE {
                match engine.step() {
                    Ok(true) => stepped += 1,
                    Ok(false) => {
                        live = false;
                        break;
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            steps += stepped;
            incremental += u64::from(snap.is_none() && engine.uses_incremental_path());
            if let Some(e) = failed {
                tracer.close(id);
                break Err(format!("step: {e}"));
            }
            if !live {
                let done = engine.run_streaming_reusing();
                policy.fold_into(tracer);
                tracer.close(id);
                break done
                    .map(|(out, b)| {
                        bufs = b;
                        out.metrics.total_flow
                    })
                    .map_err(|e| format!("finalize: {e}"));
            }
            let captured = tracer.span("simcore.snapshot.capture", || engine.snapshot());
            bufs = engine.into_buffers();
            policy.fold_into(tracer);
            tracer.close(id);
            let captured = match captured {
                Ok(s) => s,
                Err(e) => break Err(format!("snapshot: {e}")),
            };
            let doc = tracer.span("simcore.snapshot.encode", || captured.to_json());
            bytes += doc.len() as u64;
            codec_docs += 1;
            match tracer.span("simcore.snapshot.decode", || Snapshot::from_json(&doc)) {
                Ok(decoded) if decoded == captured => snap = Some(decoded),
                Ok(_) => break Err("codec divergence".to_string()),
                Err(e) => break Err(format!("decode: {e}")),
            }
        };
        let want = match &realized.reports[i].status {
            TenantStatus::Done { metrics, .. } => Some(metrics.total_flow),
            _ => None,
        };
        rep.check(
            matches!((&flow, want), (Ok(f), Some(w)) if f.to_bits() == w.to_bits()),
            || format!("{}: re-driven flow {flow:?} vs fleet {want:?}", spec.name),
        );
    }
    let sample = specs.len().clamp(1, SNAPSHOT_SAMPLE) as f64;
    let docs = codec_docs.max(1) as f64;
    layers.set("simcore.events.step", steps as f64);
    layers.set(
        "simcore.ns_per_event.step",
        tracer.self_s("simcore.step") * 1e9 / (steps.max(1) as f64),
    );
    layers.set("simcore.incremental", incremental as f64 / sample);
    for (metric, span) in [
        ("simcore.snapshot.capture_us", "simcore.snapshot.capture"),
        ("simcore.snapshot.restore_us", "simcore.snapshot.restore"),
        ("simcore.snapshot.encode_us", "simcore.snapshot.encode"),
        ("simcore.snapshot.decode_us", "simcore.snapshot.decode"),
    ] {
        let (s, calls) = tracer.total(span);
        layers.set(metric, s * 1e6 / (calls.max(1) as f64));
    }
    layers.set("simcore.snapshot.bytes", bytes as f64 / docs);
    let (assign_s, calls) = tracer.total("core.assign");
    layers.set("core.assign.calls", calls as f64);
    layers.set("core.assign.self_s", assign_s);
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let pool = Pool::new(WORKERS);
    let (specs, setup_s) = timed_setup(|| {
        let specs = tenants(TENANTS, args.seed);
        // Warm-up: a short session over the first tenants exercises the
        // pool, the engine and the codec the way the timed sessions do.
        let _ = FleetSession::new(config(true), specs[..WARMUP_TENANTS].to_vec())
            .map(|mut s| s.run(&pool));
        specs
    });
    let mut served = Served::default();
    if !args.trace {
        // Every round serves the same session with the same reads.
        let mut off = Tracer::new(false);
        let seed = pass_seed(args.seed, 0);
        let best = timed_rounds(args.seconds, |best| {
            serve(&specs, seed, &pool, &mut off, &mut rep, &mut served, best);
        });
        rep.end_to_end(setup_s, &best);
        return rep;
    }

    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut traced_served = Served::default();
    let (_, traced, overhead) = alternating_passes(args.seconds, |k, traced| {
        let seed = pass_seed(args.seed, k);
        let mut unused = BestOf::default();
        if !traced {
            return serve(
                &specs,
                seed,
                &pool,
                &mut off,
                &mut rep,
                &mut served,
                &mut unused,
            );
        }
        let t = Instant::now();
        let root = tracer.open("bench.pass");
        serve(
            &specs,
            seed,
            &pool,
            &mut tracer,
            &mut rep,
            &mut traced_served,
            &mut unused,
        );
        tracer.close(root);
        t.elapsed().as_secs_f64()
    });
    let passes = traced.len() as f64;
    let mut layers = Layers::default();
    layers.set("fleet.rounds", traced_served.rounds as f64 / passes);
    layers.set("fleet.slices", traced_served.slices as f64 / passes);
    let (round_s, _) = tracer.total("fleet.round");
    layers.set(
        "fleet.slice_us",
        round_s * 1e6 / (traced_served.slices.max(1) as f64),
    );
    // Round and read latencies come from the untraced passes.
    for (metric, xs, p) in [
        ("fleet.round_p50_ms", &served.round_ms, 50.0),
        ("fleet.round_p99_ms", &served.round_ms, 99.0),
        ("fleet.query_p50_ms", &served.query_ms, 50.0),
        ("fleet.query_p99_ms", &served.query_ms, 99.0),
    ] {
        layers.set(metric, percentile(xs, p));
    }
    layers.set("analysis.pool.workers", pool.workers_for(usize::MAX) as f64);

    // The codec's share of a session: the same tenants with migration
    // off and on, no reads.
    let root = tracer.open("bench.twin");
    let (on, off_wall) = {
        let id = tracer.open("fleet.session");
        let on = plain_session(&specs, true, &pool, &mut rep);
        tracer.close(id);
        let id = tracer.open("fleet.session");
        let off_wall = plain_session(&specs, false, &pool, &mut rep);
        tracer.close(id);
        (on, off_wall)
    };
    tracer.close(root);
    layers.set("fleet.codec_share", 1.0 - off_wall / on.max(1e-12));

    let realized = FleetSession::new(
        config(false),
        specs[..SNAPSHOT_SAMPLE.min(specs.len())].to_vec(),
    )
    .map(|mut s| s.run(&pool));
    match realized {
        Ok(realized) => {
            let root = tracer.open("bench.redrive");
            redrive(&specs, &realized, &mut tracer, &mut layers, &mut rep);
            tracer.close(root);
        }
        Err(e) => rep.check(false, || format!("fleet session: {e}")),
    }
    layers.finish_trace(&tracer, overhead, &mut rep);
    crate::write_trace(args, &tracer);
    layers.emit(&mut rep);
    rep
}
