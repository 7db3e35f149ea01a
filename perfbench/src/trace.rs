//! In-memory span recorder and the delegating wrappers that time the
//! layers the benchmark cannot wrap in a span call by call.
//!
//! A span is `(name, start, end, parent)`, recorded on the client thread
//! around each call into a workspace crate. The first dot-separated
//! component of a span name is the layer it charges (`analysis`,
//! `simcore`, …); `bench` spans are the benchmark's own glue. Calls too
//! frequent to record one by one (`Policy::assign`, `ArrivalSource::emit`)
//! are timed in aggregate by [`TimedPolicy`] and [`TimedSource`] and
//! recorded as one *folded* child span whose duration is their summed
//! time, so self time — span duration minus the part covered by child
//! spans — works the same for both kinds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use parsched_sim::{
    AliveJob, AllocationStability, ArrivalSource, JobSpec, Policy, PrefixAllocation, SystemView,
    Time,
};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Number of calls aggregated into this span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer this span charges: its name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

/// Handle to an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run pays nothing for the instrumented call sites.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent: self.open.last().copied(),
            calls: 1,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` (and anything opened inside it that is still open).
    pub fn close(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Records `calls` aggregated calls totalling `ns` as a child of the
    /// innermost open span.
    pub fn fold(&mut self, name: &str, calls: u64, ns: u64) {
        if !self.enabled || calls == 0 {
            return;
        }
        let parent = self.open.last().copied();
        let start = parent.map_or(0, |p| self.spans[p].start);
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start + ns,
            parent,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Summed self seconds per span name.
    pub fn self_s_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Summed self seconds of spans whose name starts with `prefix`.
    pub fn self_s(&self, prefix: &str) -> f64 {
        self.self_s_by_name()
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, s)| s)
            .sum()
    }

    /// Summed duration (seconds) and call count of spans named exactly `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, c), s| {
                (t + s.dur() as f64 * 1e-9, c + s.calls)
            })
    }

    /// Share of the root spans' wall time that workspace layers (every
    /// layer but the benchmark's own `bench` glue) account for as self
    /// time. The client is single-threaded, so the layer self times along
    /// its blocking path sum to the wall time exactly when the glue
    /// between calls costs nothing.
    pub fn accounted_frac(&self) -> f64 {
        let selfs = self.self_ns();
        let wall: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum();
        let layers: u64 = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.layer() != "bench")
            .map(|(_, ns)| *ns)
            .sum();
        if wall == 0 {
            0.0
        } else {
            layers as f64 / wall as f64
        }
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
                s.name, s.start, s.end, s.calls
            );
        }
        out
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A delegating [`Policy`] that counts and times `assign`. Every other
/// method forwards, `stability` and `event_hooks_are_noop` included, so
/// the engine takes exactly the path it takes for the bare policy.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    pub calls: u64,
    pub ns: u64,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn Policy>) -> Self {
        TimedPolicy {
            inner,
            calls: 0,
            ns: 0,
        }
    }

    /// Hands the counters accumulated since the last call to `tracer` as
    /// a folded `core.assign` child of the innermost open span.
    pub fn fold_into(&mut self, tracer: &mut Tracer) {
        tracer.fold("core.assign", self.calls, self.ns);
        self.calls = 0;
        self.ns = 0;
    }
}

impl Policy for TimedPolicy {
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
        // lint:allow(L008) benchmark-side wall timing of the call; it never feeds a simulated decision
        let t = Instant::now();
        let q = self.inner.assign(now, m, jobs, shares);
        self.ns += elapsed_ns(t);
        self.calls += 1;
        q
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn stability(&self) -> AllocationStability {
        self.inner.stability()
    }

    fn prefix_allocation(&self, n_alive: usize, m: f64) -> Option<PrefixAllocation> {
        self.inner.prefix_allocation(n_alive, m)
    }

    fn srpt_ordered(&self) -> bool {
        self.inner.srpt_ordered()
    }

    fn on_arrival(&mut self, now: Time, n_alive: usize) {
        self.inner.on_arrival(now, n_alive)
    }

    fn on_completion(&mut self, now: Time, n_alive: usize) {
        self.inner.on_completion(now, n_alive)
    }

    fn event_hooks_are_noop(&self) -> bool {
        self.inner.event_hooks_are_noop()
    }

    fn snapshot_state(&self) -> Vec<u64> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &[u64]) -> bool {
        self.inner.restore_state(state)
    }
}

/// A delegating [`ArrivalSource`] that counts emitted jobs and times
/// `emit`. The path-selecting hints (`needs_system_view`,
/// `pre_validated`) forward, so the engine treats it as the bare source.
pub struct TimedSource<'a> {
    inner: &'a mut dyn ArrivalSource,
    pub jobs: u64,
    pub calls: u64,
    pub ns: u64,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a mut dyn ArrivalSource) -> Self {
        TimedSource {
            inner,
            jobs: 0,
            calls: 0,
            ns: 0,
        }
    }

    /// Hands the accumulated emit time to `tracer` as a folded
    /// `workloads.emit` child of the innermost open span.
    pub fn fold_into(&mut self, tracer: &mut Tracer) {
        tracer.fold("workloads.emit", self.calls, self.ns);
        self.calls = 0;
        self.ns = 0;
    }
}

impl ArrivalSource for TimedSource<'_> {
    fn next_time(&self) -> Option<Time> {
        self.inner.next_time()
    }

    fn emit(&mut self, view: &SystemView<'_>) -> Vec<JobSpec> {
        let mut out = Vec::new();
        self.emit_into(view, &mut out);
        out
    }

    fn emit_into(&mut self, view: &SystemView<'_>, out: &mut Vec<JobSpec>) {
        let before = out.len();
        // lint:allow(L008) benchmark-side wall timing of the call; it never feeds a simulated decision
        let t = Instant::now();
        self.inner.emit_into(view, out);
        self.ns += elapsed_ns(t);
        self.calls += 1;
        self.jobs += (out.len() - before) as u64;
    }

    fn needs_system_view(&self) -> bool {
        self.inner.needs_system_view()
    }

    fn rewind(&mut self) -> bool {
        self.inner.rewind()
    }

    fn fast_forward(&mut self, emitted_jobs: usize) -> bool {
        self.inner.fast_forward(emitted_jobs)
    }

    fn pre_validated(&self) -> bool {
        self.inner.pre_validated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_folds() {
        let mut tr = Tracer::new(true);
        let root = tr.open("bench.pass");
        let a = tr.open("simcore.run");
        std::thread::sleep(std::time::Duration::from_millis(4));
        tr.fold("core.assign", 10, 1_000_000);
        tr.close(a);
        tr.close(root);
        let by = tr.self_s_by_name();
        let run = by["simcore.run"];
        assert!((0.002..0.5).contains(&run), "{run}");
        assert!((by["core.assign"] - 0.001).abs() < 1e-12);
        let f = tr.accounted_frac();
        assert!(f > 0.5 && f <= 1.0, "{f}");
        assert_eq!(tr.total("core.assign").1, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.open("x.y");
        tr.fold("core.assign", 3, 5);
        tr.close(id);
        assert!(tr.spans().is_empty());
    }
}
