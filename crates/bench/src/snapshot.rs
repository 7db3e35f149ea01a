//! `parsched bench-snapshot`: the repository's in-repo benchmark harness.
//!
//! [`measure`] runs the whole grid and [`BenchSnapshot::render`] writes the
//! `parsched-bench-snapshot/v2` document (committed as
//! `BENCH_engine.json`). Every row is timed three times and records
//! the median, minimum and maximum wall time; rates and headline ratios
//! use the median. The one single-shot measurement is the `n = 10⁷`
//! streaming run, which also runs first: `VmHWM` is a whole-process
//! high-water mark, so anything before it would inflate its peak RSS.
//!
//! The grid, by layer:
//!
//! * Γ evaluation — `kernel_eval_ns`, ns per [`PowKernel::eval`] for each
//!   kernel class;
//! * per-event phases — `hotpath_ns`, when the calling binary supplies a
//!   [`Profiler`] (built with the engine's `hotpath` feature);
//! * single runs — `rows`: the SRPT family on the stable, overload and
//!   mixed-α fixtures against the legacy exhaustive oracle, the audit and
//!   streaming paths, and every standard policy on one shared fixture;
//! * the sweep pool — `sweep_scaling_8c`, serial vs 8-worker wall time;
//! * experiments — `experiments`, the wall time of every registered
//!   experiment (quick size under `--quick`).

use std::hint::black_box;
use std::time::Instant;

use parsched::PolicyKind;
use parsched_analysis::experiments::{self, ExpOptions};
use parsched_analysis::{simulate_audited_reusing, Pool};
use parsched_sim::jsonlite::Json;
use parsched_sim::{
    simulate_streaming_audited, AllocationStability, AuditLevel, Engine, EngineBuffers,
    EngineConfig, Instance, NullObserver, StaticSource,
};
use parsched_speedup::PowKernel;

use crate::{
    mixed_alpha_fixture, overload_fixture, peak_rss_bytes, poisson_fixture, poisson_stream_fixture,
    poisson_workload,
};

/// The document's schema tag.
const SCHEMA: &str = "parsched-bench-snapshot/v2";
/// Timed repeats per row.
const SAMPLES: usize = 3;
/// Processors on every engine fixture.
const M: f64 = 8.0;
/// The kernel classes `kernel_eval_ns` covers: both endpoints, the three
/// sqrt chains and one general exponent (the ln/exp path).
const KERNEL_ALPHAS: [f64; 6] = [0.0, 0.25, 0.37, 0.5, 0.75, 1.0];
/// Γ evaluations per kernel timing pass.
const KERNEL_POINTS: usize = 100_000;

/// Median, minimum and maximum wall-clock seconds over repeated runs.
#[derive(Debug, Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut seconds: Vec<f64>) -> Self {
        seconds.sort_by(f64::total_cmp);
        Spread {
            median: seconds[seconds.len() / 2],
            min: seconds[0],
            max: seconds[seconds.len() - 1],
        }
    }
}

/// Runs `f` [`SAMPLES`] times; returns the wall-time spread and the last
/// result.
fn repeat<T>(mut f: impl FnMut() -> T) -> (Spread, T) {
    let mut seconds = Vec::with_capacity(SAMPLES);
    let mut last = None;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        last = Some(f());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (Spread::of(seconds), last.expect("SAMPLES > 0"))
}

/// One timed engine row. `mode` is the engine path: `incremental`,
/// `exhaustive`, `legacy`, `streaming`, `audited-sampled` or
/// `audited-strict`.
#[derive(Debug, Clone)]
struct Row {
    policy: String,
    fixture: &'static str,
    mode: &'static str,
    n: usize,
    events: u64,
    time: Spread,
}

impl Row {
    /// Events per second at the median run.
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.time.median.max(1e-12)
    }
}

/// The wall time of one registered experiment and its shape verdict.
#[derive(Debug, Clone)]
struct ExperimentRow {
    id: &'static str,
    pass: bool,
    time: Spread,
}

/// Per-event phase averages of one profiled Intermediate-SRPT run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Arrival admission and next-event selection, ns/event.
    pub queue: f64,
    /// Allocation refresh, ns/event.
    pub refresh: f64,
    /// Interval metric integration, ns/event.
    pub metrics: f64,
    /// Completion collection and callbacks, ns/event.
    pub dispatch: f64,
    /// Events profiled.
    pub events: u64,
}

/// Profiles one Intermediate-SRPT run of an instance on `m` processors.
/// Only a binary built with the engine's `hotpath` feature can supply
/// one; without it `hotpath_ns` is `null`.
pub type Profiler = fn(&Instance, f64) -> Phases;

/// Everything one `bench-snapshot` run measured; [`BenchSnapshot::render`]
/// turns it into the document.
#[derive(Debug, Clone)]
pub struct BenchSnapshot {
    quick: bool,
    /// The single-shot `n = 10⁷` streaming run: wall seconds and peak RSS
    /// bytes (`None` under `--quick`).
    streaming_n1e7: Option<(f64, Option<u64>)>,
    rows: Vec<Row>,
    experiments: Vec<ExperimentRow>,
    /// Median ns per Γ evaluation, by α.
    kernel_eval_ns: Vec<(f64, f64)>,
    /// Per-phase profiles by fixture label, when a profiler was supplied.
    hotpath: Option<Vec<(&'static str, Phases)>>,
    /// Serial / 8-worker median wall time over a fixed 32-run sweep, read
    /// against `host_cores`.
    sweep_scaling_8c: f64,
    host_cores: usize,
}

/// The short hash of `HEAD` in the working directory, or `None` outside
/// a git checkout.
pub fn git_commit() -> Option<String> {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Collects timed rows and echoes each to stderr as it lands.
struct Recorder {
    rows: Vec<Row>,
}

impl Recorder {
    fn time(
        &mut self,
        kind: PolicyKind,
        fixture: &'static str,
        mode: &'static str,
        n: usize,
        run: impl FnMut() -> u64,
    ) {
        let (time, events) = repeat(run);
        let row = Row {
            policy: kind.name(),
            fixture,
            mode,
            n,
            events,
            time,
        };
        eprintln!(
            "  {:<22} n={n:<7} {mode:<15} {:>12.0} events/s ({fixture})",
            row.policy,
            row.events_per_sec()
        );
        self.rows.push(row);
    }
}

/// The engine path a policy's default run takes.
fn mode_of(kind: PolicyKind) -> &'static str {
    match kind.build().stability() {
        AllocationStability::SrptPrefix => "incremental",
        AllocationStability::General => "exhaustive",
    }
}

/// One in-memory run of a fresh `kind` policy under `cfg`; returns the
/// engine's event count.
fn engine_events(inst: &Instance, kind: PolicyKind, cfg: EngineConfig) -> u64 {
    let mut policy = kind.build();
    Engine::new(
        cfg,
        policy.as_mut(),
        &mut StaticSource::new(inst),
        &mut NullObserver,
    )
    .run()
    .expect("benchmark simulation")
    .metrics
    .events
}

/// One Intermediate-SRPT run on the streaming path over the lazy
/// `poisson-0.9` source; returns the event count and peak alive set.
fn streaming_run(n: usize) -> (u64, usize) {
    let out = simulate_streaming_audited(
        &mut poisson_stream_fixture(n, 0.9, M),
        PolicyKind::IntermediateSrpt.build().as_mut(),
        M,
        AuditLevel::Off,
    )
    .expect("streaming benchmark simulation");
    (out.metrics.events, out.peak_alive)
}

/// Runs the whole grid. `quick` drops the `n = 10⁵` rows and the
/// `n = 10⁷` streaming run and times the experiments at quick size.
/// Progress goes to stderr.
pub fn measure(quick: bool, profiler: Option<Profiler>) -> BenchSnapshot {
    let streaming_n1e7 = (!quick).then(|| {
        eprintln!("  streaming n=10^7 (runs first so peak RSS reflects the streaming path)…");
        let start = Instant::now();
        let (events, peak_alive) = streaming_run(10_000_000);
        let seconds = start.elapsed().as_secs_f64();
        let peak_rss_bytes = peak_rss_bytes();
        eprintln!(
            "  {:<22} n=10^7     streaming   {:>12.0} events/s, {seconds:.1}s, \
             peak alive {peak_alive}, RSS {}",
            PolicyKind::IntermediateSrpt.name(),
            events as f64 / seconds,
            peak_rss_bytes
                .map(|b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)))
                .unwrap_or_else(|| "n/a".to_string())
        );
        (seconds, peak_rss_bytes)
    });

    let isrpt = PolicyKind::IntermediateSrpt;
    let plain = EngineConfig::new(M);
    let legacy = plain.with_full_reassign(true);
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut rec = Recorder { rows: Vec::new() };
    for &n in sizes {
        let stable = poisson_fixture(n, 0.9, M);
        for kind in [
            PolicyKind::SequentialSrpt,
            PolicyKind::ParallelSrpt,
            PolicyKind::Equi,
            PolicyKind::Threshold(2.0),
        ] {
            rec.time(kind, "poisson-0.9", mode_of(kind), n, || {
                engine_events(&stable, kind, plain)
            });
        }
        // Intermediate-SRPT against the legacy oracle, which reassigns on
        // every event (O(|A|) each) and is therefore capped at n = 10⁴.
        // Mixed α drives the multi-class Scan path (class registry,
        // per-class Γ cache); overload grows the alive set ~linearly in n,
        // where the O(n) vs O(log n) per-event separation shows.
        for (fixture, inst) in [
            ("poisson-0.9", stable.clone()),
            ("mixed-alpha-0.9", mixed_alpha_fixture(n, 0.9, M)),
            ("poisson-1.5", overload_fixture(n, M)),
        ] {
            rec.time(isrpt, fixture, "incremental", n, || {
                engine_events(&inst, isrpt, plain)
            });
            if n <= 10_000 {
                rec.time(isrpt, fixture, "legacy", n, || {
                    engine_events(&inst, isrpt, legacy)
                });
            }
        }
        // Same event loop as the incremental row, with the free-list arena
        // and constant-size sink: its rate should sit within noise of it.
        rec.time(isrpt, "poisson-0.9", "streaming", n, || streaming_run(n).0);
        // Audit-layer overhead at its sampled (production) and strict
        // (every-event) levels.
        if n == 10_000 {
            for (mode, level) in [
                ("audited-sampled", AuditLevel::Sampled(64)),
                ("audited-strict", AuditLevel::Strict),
            ] {
                rec.time(isrpt, "poisson-0.9", mode, n, || {
                    engine_events(&stable, isrpt, plain.with_audit(level))
                });
            }
        }
    }
    // Every standard policy on one shared fixture, including the
    // exhaustive-path policies (Greedy, LAPS, SETF) that dominate the
    // slow experiments.
    let inst = poisson_fixture(2_000, 1.0, M);
    for kind in PolicyKind::all_standard() {
        rec.time(kind, "poisson-1.0", mode_of(kind), 2_000, || {
            engine_events(&inst, kind, plain)
        });
    }

    let opts = ExpOptions {
        quick,
        ..ExpOptions::default()
    };
    let experiments = experiments::all_ids()
        .iter()
        .map(|&id| {
            let (time, pass) = repeat(|| {
                experiments::run(id, &opts)
                    .expect("registered experiment")
                    .pass
            });
            eprintln!(
                "  exp {id:<3} {:>8.3}s median ({:.3}–{:.3}s){}",
                time.median,
                time.min,
                time.max,
                if pass { "" } else { ", SHAPE MISMATCH" }
            );
            ExperimentRow { id, pass, time }
        })
        .collect();

    let kernel_eval_ns = kernel_eval_ns();
    let hotpath = profiler.map(|profile| {
        [
            ("stable-1e4", poisson_fixture(10_000, 0.9, M)),
            ("stable-1e5", poisson_fixture(100_000, 0.9, M)),
            ("overload-1e4", overload_fixture(10_000, M)),
            ("mixed-1e4", mixed_alpha_fixture(10_000, 0.9, M)),
        ]
        .into_iter()
        .map(|(label, inst)| {
            let p = profile(&inst, M);
            eprintln!(
                "  hotpath {label:<12} ns/event: queue {:.1}, refresh {:.1}, \
                 metrics {:.1}, dispatch {:.1}",
                p.queue, p.refresh, p.metrics, p.dispatch
            );
            (label, p)
        })
        .collect()
    });
    let (sweep_scaling_8c, host_cores) = sweep_scaling();

    BenchSnapshot {
        quick,
        streaming_n1e7,
        rows: rec.rows,
        experiments,
        kernel_eval_ns,
        hotpath,
        sweep_scaling_8c,
        host_cores,
    }
}

/// Median ns per [`PowKernel::eval`] over [`KERNEL_POINTS`] shares
/// spanning `(1, m]`, the supra-knee domain where the power law is
/// actually evaluated.
fn kernel_eval_ns() -> Vec<(f64, f64)> {
    let xs: Vec<f64> = (0..KERNEL_POINTS)
        .map(|i| 1.0 + (i as f64 + 0.5) * (M - 1.0) / KERNEL_POINTS as f64)
        .collect();
    KERNEL_ALPHAS
        .iter()
        .map(|&alpha| {
            // The engine loads α from job records at run time; black_box
            // keeps LLVM from constant-folding the classification.
            let k = black_box(PowKernel::new(alpha));
            let (time, _) = repeat(|| {
                let mut acc = 0.0;
                for &x in &xs {
                    acc += k.eval(black_box(x));
                }
                black_box(acc)
            });
            let ns = time.median / KERNEL_POINTS as f64 * 1e9;
            eprintln!("  kernel α={alpha:<5} {ns:>6.2} ns/eval");
            (alpha, ns)
        })
        .collect()
}

/// Serial vs 8-worker median wall time over a 32-run Intermediate-SRPT
/// grid (n = 2,000 Poisson runs, distinct seeds), each worker recycling
/// one set of engine buffers, plus the host's core count. On a
/// single-core host the ratio sits near 1.0.
fn sweep_scaling() -> (f64, usize) {
    let sweep = |jobs: usize| {
        Pool::new(jobs).map_with(EngineBuffers::new, (0..32).collect(), |bufs, seed| {
            let mut w = poisson_workload(2_000, 0.9, M);
            w.seed = seed;
            let inst = w.generate().expect("sweep fixture");
            let (out, next) = simulate_audited_reusing(
                std::mem::take(bufs),
                &inst,
                PolicyKind::IntermediateSrpt.build().as_mut(),
                M,
                AuditLevel::Off,
            );
            *bufs = next;
            out.expect("sweep run").metrics.total_flow
        })
    };
    let (serial, serial_flows) = repeat(|| sweep(1));
    let (pooled, pool_flows) = repeat(|| sweep(8));
    // The ratio means something only if the pool is invisible in the
    // results: the ordering guarantee, checked bit for bit.
    for (a, b) in serial_flows.iter().zip(&pool_flows) {
        assert_eq!(a.to_bits(), b.to_bits(), "pool diverged from serial sweep");
    }
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let ratio = serial.median / pooled.median;
    eprintln!(
        "  sweep pool: serial {:.3}s vs 8 workers {:.3}s ({ratio:.2}x on {cores} core(s))",
        serial.median, pooled.median
    );
    (ratio, cores)
}

/// A finite number with `digits` decimals, or `null`.
fn num(x: f64, digits: usize) -> Json {
    if x.is_finite() {
        Json::Num(format!("{x:.digits$}"))
    } else {
        Json::Null
    }
}

fn int(x: impl ToString) -> Json {
    Json::Num(x.to_string())
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Spread fields in seconds, shared by engine and experiment rows.
fn spread_fields(t: &Spread) -> [(&'static str, Json); 3] {
    [
        ("median_s", num(t.median, 6)),
        ("min_s", num(t.min, 6)),
        ("max_s", num(t.max, 6)),
    ]
}

/// Renders a top-level object with one key per line and one array
/// element per line, so the committed file diffs row by row.
fn layout(fields: Vec<(&str, Json)>) -> String {
    let mut out = String::from("{\n");
    let last = fields.len().saturating_sub(1);
    for (i, (key, value)) in fields.into_iter().enumerate() {
        let comma = if i < last { "," } else { "" };
        if let Json::Arr(items) = value {
            out.push_str(&format!("  \"{key}\": [\n"));
            for (j, item) in items.iter().enumerate() {
                let sep = if j + 1 < items.len() { "," } else { "" };
                out.push_str(&format!("    {}{sep}\n", item.render()));
            }
            out.push_str(&format!("  ]{comma}\n"));
        } else {
            out.push_str(&format!("  \"{key}\": {}{comma}\n", value.render()));
        }
    }
    out.push_str("}\n");
    out
}

impl BenchSnapshot {
    /// Intermediate-SRPT events/s at `n = 10⁴` on `fixture` in `mode`.
    fn isrpt_rate(&self, fixture: &str, mode: &str) -> Option<f64> {
        let name = PolicyKind::IntermediateSrpt.name();
        self.rows
            .iter()
            .find(|r| r.policy == name && r.fixture == fixture && r.mode == mode && r.n == 10_000)
            .map(Row::events_per_sec)
    }

    /// Rate ratio of two Intermediate-SRPT rows at `n = 10⁴`, or NaN when
    /// either is missing.
    fn rate_ratio(&self, (fa, ma): (&str, &str), (fb, mb): (&str, &str)) -> f64 {
        match (self.isrpt_rate(fa, ma), self.isrpt_rate(fb, mb)) {
            (Some(a), Some(b)) if b > 0.0 => a / b,
            _ => f64::NAN,
        }
    }

    /// Incremental / legacy Intermediate-SRPT throughput at `n = 10⁴`.
    fn speedup_vs_legacy(&self, fixture: &str) -> f64 {
        self.rate_ratio((fixture, "incremental"), (fixture, "legacy"))
    }

    /// Unaudited / audited Intermediate-SRPT throughput at `n = 10⁴` on
    /// `poisson-0.9` (`mode` is `audited-sampled` or `audited-strict`).
    fn audit_overhead(&self, mode: &str) -> f64 {
        self.rate_ratio(("poisson-0.9", "incremental"), ("poisson-0.9", mode))
    }

    /// The headline ratios at `n = 10⁴`, by document key. CI's relative
    /// floors read the overload and mixed-α speed-ups.
    fn headline(&self) -> [(&'static str, f64); 5] {
        [
            (
                "isrpt_speedup_vs_legacy_n10000",
                self.speedup_vs_legacy("poisson-0.9"),
            ),
            (
                "isrpt_overload_speedup_vs_legacy_n10000",
                self.speedup_vs_legacy("poisson-1.5"),
            ),
            (
                "isrpt_mixed_alpha_speedup_vs_legacy_n10000",
                self.speedup_vs_legacy("mixed-alpha-0.9"),
            ),
            (
                "audit_sampled_overhead_n10000",
                self.audit_overhead("audited-sampled"),
            ),
            (
                "audit_strict_overhead_n10000",
                self.audit_overhead("audited-strict"),
            ),
        ]
    }

    /// The `parsched-bench-snapshot/v2` JSON document, stamped with the
    /// measuring binary's compiler (`rustc -V`) and opt-level and the
    /// commit it measured (`None` outside a git checkout), so a snapshot
    /// from a debug build or a stale toolchain is recognizable as such.
    pub fn render(&self, rustc_version: &str, opt_level: &str, git_commit: Option<&str>) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("policy", text(&r.policy)),
                    ("fixture", text(r.fixture)),
                    ("mode", text(r.mode)),
                    ("n", int(r.n)),
                    ("m", int(M)),
                    ("events", int(r.events)),
                ];
                fields.extend(spread_fields(&r.time));
                fields.push(("events_per_sec", num(r.events_per_sec(), 0)));
                obj(fields)
            })
            .collect();
        let experiments = self
            .experiments
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("id", text(e.id)),
                    ("quick", Json::Bool(self.quick)),
                    ("pass", Json::Bool(e.pass)),
                ];
                fields.extend(spread_fields(&e.time));
                obj(fields)
            })
            .collect();
        let kernel = Json::Obj(
            self.kernel_eval_ns
                .iter()
                .map(|&(alpha, ns)| (format!("{alpha}"), num(ns, 2)))
                .collect(),
        );
        let hotpath = self.hotpath.as_ref().map_or(Json::Null, |profiles| {
            Json::Obj(
                profiles
                    .iter()
                    .map(|(label, p)| {
                        let phases = obj(vec![
                            ("queue", num(p.queue, 1)),
                            ("refresh", num(p.refresh, 1)),
                            ("metrics", num(p.metrics, 1)),
                            ("dispatch", num(p.dispatch, 1)),
                            ("events", int(p.events)),
                        ]);
                        (label.to_string(), phases)
                    })
                    .collect(),
            )
        });
        let streaming = self.streaming_n1e7;
        let mut fields = vec![
            ("schema", text(SCHEMA)),
            ("rustc_version", text(rustc_version)),
            ("opt_level", text(opt_level)),
            ("git_commit", git_commit.map_or(Json::Null, text)),
            (
                "fixture",
                text(
                    "PoissonWorkload, alpha=0.5, sizes log-uniform [1,32], seed 0xbe9c, m=8; \
                     poisson-<load> = that load (1.5 = overload, 1.0 = the all-policy row set), \
                     mixed-alpha-0.9 = load 0.9 with per-job alpha from {0.25, 0.5, 0.75, 0.37}",
                ),
            ),
            ("samples", int(SAMPLES)),
            ("quick", Json::Bool(self.quick)),
        ];
        fields.extend(self.headline().map(|(key, ratio)| (key, num(ratio, 2))));
        fields.extend([
            ("kernel_eval_ns", kernel),
            ("hotpath_ns", hotpath),
            ("sweep_scaling_8c", num(self.sweep_scaling_8c, 2)),
            ("host_cores", int(self.host_cores)),
            (
                "streaming_wall_n1e7",
                streaming.map_or(Json::Null, |(secs, _)| num(secs, 2)),
            ),
            (
                "streaming_rss_n1e7",
                streaming.and_then(|(_, rss)| rss).map_or(Json::Null, int),
            ),
            ("rows", Json::Arr(rows)),
            ("experiments", Json::Arr(experiments)),
        ]);
        layout(fields)
    }

    /// One-line summary of the headline ratios.
    pub fn summary(&self) -> String {
        let ratios: Vec<String> = self
            .headline()
            .iter()
            .map(|(key, ratio)| format!("{key} {ratio:.2}"))
            .collect();
        format!(
            "{} rows, {} experiments; {}",
            self.rows.len(),
            self.experiments.len(),
            ratios.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(fixture: &'static str, mode: &'static str, samples: [f64; 3]) -> Row {
        Row {
            policy: PolicyKind::IntermediateSrpt.name(),
            fixture,
            mode,
            n: 10_000,
            events: 20_000,
            time: Spread::of(samples.to_vec()),
        }
    }

    /// A snapshot built from made-up timings: nothing is run.
    fn synthetic() -> BenchSnapshot {
        BenchSnapshot {
            quick: true,
            streaming_n1e7: None,
            rows: vec![
                row("poisson-0.9", "incremental", [0.004, 0.003, 0.005]),
                row("poisson-0.9", "legacy", [0.010, 0.012, 0.011]),
                row("poisson-0.9", "audited-sampled", [0.005, 0.005, 0.006]),
                row("poisson-1.5", "incremental", [0.006, 0.005, 0.009]),
                row("poisson-1.5", "legacy", [0.9, 0.8, 1.0]),
                row("mixed-alpha-0.9", "incremental", [0.007, 0.007, 0.007]),
                row("mixed-alpha-0.9", "legacy", [0.011, 0.010, 0.012]),
            ],
            experiments: vec![ExperimentRow {
                id: "x1",
                pass: true,
                time: Spread::of(vec![0.3, 0.1, 0.2]),
            }],
            kernel_eval_ns: vec![(0.0, 0.6), (0.37, 6.1), (0.5, 1.9)],
            hotpath: Some(vec![(
                "stable-1e4",
                Phases {
                    queue: 10.0,
                    refresh: 40.0,
                    metrics: 20.0,
                    dispatch: 30.0,
                    events: 20_000,
                },
            )]),
            sweep_scaling_8c: 1.0,
            host_cores: 2,
        }
    }

    #[test]
    fn rendered_document_parses_back_as_v2() {
        let doc = Json::parse(&synthetic().render("rustc 0.0.0", "3", None)).expect("valid JSON");
        let get = |key: &str| doc.req(key).expect(key);
        assert_eq!(get("schema").as_str().unwrap(), SCHEMA);
        assert_eq!(get("git_commit"), &Json::Null);
        // The two keys CI's relative floors read.
        let overload = get("isrpt_overload_speedup_vs_legacy_n10000");
        assert!((overload.as_f64().unwrap() - 150.0).abs() < 1.0);
        let mixed = get("isrpt_mixed_alpha_speedup_vs_legacy_n10000");
        assert!(mixed.as_f64().unwrap() > 1.0);
        // A missing arm renders as null, never as a bare NaN.
        assert_eq!(get("audit_strict_overhead_n10000"), &Json::Null);
        let rows = get("rows").as_arr().unwrap();
        let experiments = get("experiments").as_arr().unwrap();
        assert_eq!((rows.len(), experiments.len()), (7, 1));
        for r in rows.iter().chain(experiments) {
            let secs = |k: &str| r.req(k).unwrap().as_f64().unwrap();
            assert!(secs("min_s") <= secs("median_s"), "{r:?}");
            assert!(secs("median_s") <= secs("max_s"), "{r:?}");
        }
        assert!(get("kernel_eval_ns").req("0.37").unwrap().as_f64().unwrap() > 0.0);
        let phases = get("hotpath_ns").req("stable-1e4").unwrap();
        assert_eq!(phases.req("events").unwrap().as_u64().unwrap(), 20_000);
    }
}
