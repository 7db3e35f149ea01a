//! Layer-6 conformance suite for `Engine::snapshot` / `Engine::restore`
//! (docs/TESTING.md): the fleet's suspend/migrate/resume machinery is
//! only sound if a snapshot taken at ANY event boundary, under EVERY
//! registry policy, in BOTH engine modes, resumes to a bit-identical
//! remaining trajectory — and if the `parsched-snap/v2` text codec is a
//! byte-exact fixed point, since that document is what a migration
//! actually ships between shards.
//!
//! Suspend points are drawn pseudo-randomly (splitmix64, fixed seed) plus
//! the structural corners (0, 1, midpoint, last event), so the suite is
//! deterministic yet not tuned to any particular event alignment.

use parsched::PolicyKind;
use parsched_bench::{mixed_alpha_fixture, overload_fixture};
use parsched_sim::{
    Engine, EngineConfig, Instance, JobId, NullObserver, RunMetrics, Snapshot, StaticSource,
};

const M: f64 = 8.0;

fn engine_cfg(streaming: bool) -> EngineConfig {
    EngineConfig::new(M).with_streaming(streaming)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uninterrupted reference run. The streaming finalizer's metrics are
/// bit-identical to the in-memory path's, so one shape fits both modes;
/// the completion list is compared separately on the in-memory mode.
fn baseline(inst: &Instance, kind: &PolicyKind, streaming: bool) -> (RunMetrics, Vec<(u64, u64)>) {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let engine = Engine::new(
        engine_cfg(streaming),
        policy.as_mut(),
        &mut source,
        &mut obs,
    );
    if streaming {
        let out = engine.run_streaming().expect("baseline streaming run");
        (out.metrics, Vec::new())
    } else {
        let out = engine.run().expect("baseline run");
        let completions = out
            .completed
            .iter()
            .map(|c| (c.id.0, c.completion.to_bits()))
            .collect();
        (out.metrics, completions)
    }
}

fn assert_metrics_bit_identical(got: &RunMetrics, want: &RunMetrics, ctx: &str) {
    assert_eq!(got.events, want.events, "{ctx}: events");
    assert_eq!(got.num_jobs, want.num_jobs, "{ctx}: num_jobs");
    for (name, a, b) in [
        ("total_flow", got.total_flow, want.total_flow),
        ("fractional_flow", got.fractional_flow, want.fractional_flow),
        ("makespan", got.makespan, want.makespan),
        ("max_flow", got.max_flow, want.max_flow),
        ("total_stretch", got.total_stretch, want.total_stretch),
        ("max_stretch", got.max_stretch, want.max_stretch),
        (
            "total_weighted_flow",
            got.total_weighted_flow,
            want.total_weighted_flow,
        ),
        ("alive_integral", got.alive_integral, want.alive_integral),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: {name} diverged ({a} vs {b})"
        );
    }
}

/// Run to `suspend_at`, capture, force the snapshot through the text
/// codec (checking the byte-exact fixed point), resume on a fresh engine,
/// and return the final metrics (+ completion list on the in-memory
/// path).
fn suspend_resume(
    inst: &Instance,
    kind: &PolicyKind,
    streaming: bool,
    suspend_at: u64,
    ctx: &str,
) -> (RunMetrics, Vec<(u64, u64)>) {
    let mut policy = kind.build();
    let mut source = StaticSource::new(inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(
        engine_cfg(streaming),
        policy.as_mut(),
        &mut source,
        &mut obs,
    );
    for _ in 0..suspend_at {
        assert!(engine.step().expect("pre-suspend step"), "{ctx}: ran out");
    }
    let snap = engine.snapshot().expect("snapshot");
    drop(engine);

    // Codec round trip: parse(render(s)) == s exactly, and re-rendering
    // the parsed snapshot reproduces the document byte-for-byte.
    let doc = snap.to_json();
    let decoded = Snapshot::from_json(&doc).expect("parse own rendering");
    assert_eq!(
        decoded, snap,
        "{ctx}: codec round trip changed the snapshot"
    );
    assert_eq!(
        decoded.to_json(),
        doc,
        "{ctx}: re-rendering is not byte-stable"
    );

    // Resume from the DECODED snapshot — the document is what a migration
    // ships, so the decoded form must carry the full state.
    let mut policy2 = kind.build();
    let mut source2 = StaticSource::new(inst);
    let mut obs2 = NullObserver;
    let mut resumed = Engine::new(
        engine_cfg(streaming),
        policy2.as_mut(),
        &mut source2,
        &mut obs2,
    );
    resumed.restore(&decoded).expect("restore");
    while resumed.step().expect("post-restore step") {}
    if streaming {
        let out = resumed
            .into_streaming_outcome()
            .expect("resumed streaming outcome");
        (out.metrics, Vec::new())
    } else {
        let out = resumed.into_outcome().expect("resumed outcome");
        let completions = out
            .completed
            .iter()
            .map(|c| (c.id.0, c.completion.to_bits()))
            .collect();
        (out.metrics, completions)
    }
}

#[test]
fn every_policy_and_mode_resumes_bit_identically_from_random_suspend_points() {
    let inst = mixed_alpha_fixture(300, 0.9, M);
    let mut rng = 0x5eed_f1ee7u64;
    for kind in PolicyKind::all_registered() {
        for streaming in [false, true] {
            let (want_metrics, want_completions) = baseline(&inst, &kind, streaming);
            let events = want_metrics.events;
            let mut points = vec![0, 1, events / 2, events - 1];
            for _ in 0..3 {
                points.push(splitmix(&mut rng) % events);
            }
            points.sort_unstable();
            points.dedup();
            for suspend_at in points {
                let ctx = format!(
                    "{} / {} / suspend@{suspend_at}",
                    kind.name(),
                    if streaming { "streaming" } else { "in-memory" }
                );
                let (metrics, completions) =
                    suspend_resume(&inst, &kind, streaming, suspend_at, &ctx);
                assert_metrics_bit_identical(&metrics, &want_metrics, &ctx);
                assert_eq!(
                    completions, want_completions,
                    "{ctx}: completion sequence diverged"
                );
            }
        }
    }
}

/// An overloaded stream whose ids are all ≥ 2⁴⁰. Streaming recycles
/// arena slots, so a mid-run snapshot lists its 100+ alive ids out
/// of id order, and restore rebuilds the engine's id index entirely in its
/// sorted sparse table. The resumed run must finish bit-identically, and
/// a document that gives two alive jobs one id must still be refused.
#[test]
fn overloaded_sparse_id_stream_resumes_and_refuses_duplicate_ids() {
    let shifted = overload_fixture(3_000, M)
        .jobs()
        .iter()
        .map(|j| {
            let mut j = j.clone();
            j.id = JobId(j.id.0 + (1 << 40));
            j
        })
        .collect();
    let inst = Instance::new(shifted).expect("shifted ids stay unique");
    let kind = PolicyKind::IntermediateSrpt;
    let (want, _) = baseline(&inst, &kind, true);
    let events = want.events;
    for suspend_at in [events / 4, events / 2, 3 * events / 4] {
        let ctx = format!("sparse-id overload / suspend@{suspend_at}");
        let (got, _) = suspend_resume(&inst, &kind, true, suspend_at, &ctx);
        assert_metrics_bit_identical(&got, &want, &ctx);
    }

    let mut policy = kind.build();
    let mut source = StaticSource::new(&inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(engine_cfg(true), policy.as_mut(), &mut source, &mut obs);
    assert_eq!(engine.run_until(events / 2).expect("run"), events / 2);
    let alive = engine.alive_snapshot();
    assert!(alive.len() > 100, "only {} alive", alive.len());
    let (keep, dup) = (alive[0].id, alive[alive.len() / 2].id);
    let doc = engine.snapshot().expect("snapshot").to_json();
    drop(engine);
    // Arena jobs render as `[id, …]`; give `dup`'s record `keep`'s id.
    let forged = doc.replacen(&format!("[{},", dup.0), &format!("[{},", keep.0), 1);
    assert!(forged != doc, "job record for {dup} not found");
    let decoded = Snapshot::from_json(&forged).expect("forged document still parses");
    let mut policy2 = kind.build();
    let mut source2 = StaticSource::new(&inst);
    let mut obs2 = NullObserver;
    let mut resumed = Engine::new(engine_cfg(true), policy2.as_mut(), &mut source2, &mut obs2);
    let err = resumed
        .restore(&decoded)
        .expect_err("duplicate id must be refused");
    assert!(
        err.to_string()
            .contains(&format!("snapshot duplicates job id {keep}")),
        "{err}"
    );
}

/// A snapshot of a FINISHED run must restore and immediately report
/// finished with untouched aggregates — the fleet takes this path when a
/// tenant's last slice ends exactly at its final event.
#[test]
fn finished_snapshots_restore_to_finished_engines() {
    let inst = mixed_alpha_fixture(50, 0.9, M);
    for streaming in [false, true] {
        let mut policy = PolicyKind::IntermediateSrpt.build();
        let mut source = StaticSource::new(&inst);
        let mut obs = NullObserver;
        let mut engine = Engine::new(
            engine_cfg(streaming),
            policy.as_mut(),
            &mut source,
            &mut obs,
        );
        while engine.step().expect("step") {}
        let snap = engine.snapshot().expect("snapshot of finished run");
        assert!(snap.is_finished());
        drop(engine);
        let mut policy2 = PolicyKind::IntermediateSrpt.build();
        let mut source2 = StaticSource::new(&inst);
        let mut obs2 = NullObserver;
        let mut resumed = Engine::new(
            engine_cfg(streaming),
            policy2.as_mut(),
            &mut source2,
            &mut obs2,
        );
        resumed.restore(&snap).expect("restore finished snapshot");
        assert!(
            !resumed.step().expect("step on finished engine"),
            "restored finished engine must not step"
        );
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_snapshot.json")
}

/// The committed `parsched-snap/v2` document must match what the current
/// engine captures for the same scenario — any change to the snapshot
/// schema, field order, or float rendering shows up as a diff here.
/// Regenerate deliberately with:
/// `PARSCHED_REGEN_GOLDEN=1 cargo test --test fleet_snapshot_props`.
#[test]
fn golden_snapshot_fixture_is_stable_and_restorable() {
    let inst = mixed_alpha_fixture(40, 0.9, 4.0);
    let kind = PolicyKind::IntermediateSrpt;
    let cfg = EngineConfig::new(4.0);
    let mut policy = kind.build();
    let mut source = StaticSource::new(&inst);
    let mut obs = NullObserver;
    let mut engine = Engine::new(cfg, policy.as_mut(), &mut source, &mut obs);
    for _ in 0..25 {
        assert!(engine.step().expect("step"));
    }
    let fresh = engine.snapshot().expect("snapshot").to_json();
    drop(engine);

    let path = golden_path();
    if std::env::var_os("PARSCHED_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, &fresh).expect("write golden snapshot");
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with PARSCHED_REGEN_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        committed, fresh,
        "golden snapshot drifted from the current schema/engine"
    );

    // The committed document must still restore and resume to the same
    // final metrics as an uninterrupted run.
    let mut policy_b = kind.build();
    let mut source_b = StaticSource::new(&inst);
    let mut obs_b = NullObserver;
    let want = Engine::new(cfg, policy_b.as_mut(), &mut source_b, &mut obs_b)
        .run()
        .expect("baseline")
        .metrics;
    let snap = Snapshot::from_json(&committed).expect("parse committed golden");
    let mut policy_c = kind.build();
    let mut source_c = StaticSource::new(&inst);
    let mut obs_c = NullObserver;
    let mut resumed = Engine::new(cfg, policy_c.as_mut(), &mut source_c, &mut obs_c);
    resumed.restore(&snap).expect("restore committed golden");
    while resumed.step().expect("resume step") {}
    let got = resumed.into_outcome().expect("resumed outcome").metrics;
    assert_metrics_bit_identical(&got, &want, "golden resume");
}
