//! What every workload shares: the timed-pass loop, set-up timing,
//! percentiles, peak RSS, output checks and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Command-line arguments common to every workload.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The seed of pass `i` of a run with seed `seed` (SplitMix64 of the
/// pair), so every pass measures fresh inputs and a run's median spans
/// several of them.
pub fn pass_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Number of set-ups whose median is reported as `setup_s`. Enough of
/// them to span a few seconds of the host's load swings.
pub const SETUP_REPEATS: usize = 9;

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last result and the
/// median time of one set-up in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPEATS >= 1"), percentile(&times, 50.0))
}

/// Best times of a pass's units over repeated rounds of the same work.
///
/// A timed pass is split into units that every round runs alike (same
/// inputs, same order). Each unit keeps its fastest wall time, and the
/// pass costs the sum of those. On a shared host the time of the same
/// work swings by half with the neighbours' load; a unit's fastest of
/// several rounds, taken seconds apart, leaves out the swings shorter
/// than the run, which a whole pass's time would follow.
#[derive(Debug, Default)]
pub struct BestOf {
    best: Vec<f64>,
    next: usize,
    rounds: usize,
    mismatched: bool,
}

impl BestOf {
    /// Runs and times the round's next unit.
    pub fn unit<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(t.elapsed().as_secs_f64());
        r
    }

    fn record(&mut self, s: f64) {
        match self.best.get_mut(self.next) {
            Some(b) => *b = b.min(s),
            None if self.rounds == 0 => self.best.push(s),
            None => self.mismatched = true,
        }
        self.next += 1;
    }

    fn end_round(&mut self) {
        self.mismatched |= self.next != self.best.len();
        self.next = 0;
        self.rounds += 1;
    }

    /// The pass time: the sum of every unit's best time.
    pub fn pass_s(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// Least number of rounds [`timed_rounds`] runs.
pub const MIN_ROUNDS: usize = 3;

/// Runs rounds `round(best)` of the same work until `seconds` are used:
/// at least [`MIN_ROUNDS`], and another only if the median round so far
/// still fits. Returns the units' best times.
pub fn timed_rounds(seconds: f64, mut round: impl FnMut(&mut BestOf)) -> BestOf {
    let start = Instant::now();
    let mut best = BestOf::default();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        round(&mut best);
        best.end_round();
        walls.push(t.elapsed().as_secs_f64());
        if best.rounds >= MIN_ROUNDS
            && start.elapsed().as_secs_f64() + percentile(&walls, 50.0) > seconds
        {
            return best;
        }
    }
}

/// Runs passes `pass(i)` until `seconds` are used up: a pass starts only
/// if the median pass so far still fits, and at least one always runs.
/// Each pass returns its own timed wall in seconds (so it can leave
/// preparation out); the walls are returned in pass order.
pub fn timed_passes(seconds: f64, mut pass: impl FnMut(u64) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut i = 0;
    loop {
        walls.push(pass(i));
        i += 1;
        if start.elapsed().as_secs_f64() + percentile(&walls, 50.0) > seconds {
            return walls;
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The traced run's pass loop: untraced and traced passes alternate,
/// each pair on the same inputs, until `seconds` are used; at least one
/// traced pass always runs. `pass(k, traced)` runs pair `k`'s pass and
/// returns its wall. Returns the untraced and traced walls and the
/// tracing overhead: the traced median over the untraced median, minus 1
/// (0 when no untraced pass fit).
pub fn alternating_passes(
    seconds: f64,
    mut pass: impl FnMut(u64, bool) -> f64,
) -> (Vec<f64>, Vec<f64>, f64) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    timed_passes(seconds, |i| {
        let wall = pass(i / 2, i % 2 == 1);
        if i % 2 == 1 {
            traced.push(wall);
        } else {
            plain.push(wall);
        }
        wall
    });
    if traced.is_empty() {
        traced.push(pass(0, true));
    }
    let overhead = if plain.is_empty() {
        0.0
    } else {
        percentile(&traced, 50.0) / percentile(&plain, 50.0) - 1.0
    };
    (plain, traced, overhead)
}

/// Linear-interpolation percentile (`p` in 0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// A workload's result: operation counts, failed checks, and metrics in
/// the order they are printed.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds the end-to-end metrics every workload reports (`trace 0`):
    /// the set-up time, the pass time from its units' best times, and the
    /// process's peak resident set. Fails the run if the rounds did not
    /// all run the same units.
    pub fn end_to_end(&mut self, setup_s: f64, best: &BestOf) {
        self.metric("setup_s", setup_s, "s");
        self.metric("wall_s", best.pass_s(), "s");
        match peak_rss_mib() {
            Ok(mib) => self.metric("peak_rss_mib", mib, "MiB"),
            Err(e) => self.check(false, || e),
        }
        self.check(!best.mismatched && !best.best.is_empty(), || {
            format!(
                "rounds ran different units ({} in the first of {})",
                best.best.len(),
                best.rounds
            )
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
    }

    #[test]
    fn pass_seeds_differ() {
        assert_ne!(pass_seed(1, 0), pass_seed(1, 1));
        assert_ne!(pass_seed(1, 0), pass_seed(2, 0));
        assert_eq!(pass_seed(7, 3), pass_seed(7, 3));
    }

    #[test]
    fn best_of_keeps_each_units_fastest_round() {
        let mut best = BestOf::default();
        for times in [[3.0, 1.0], [2.0, 5.0], [4.0, 4.0]] {
            for t in times {
                best.record(t);
            }
            best.end_round();
        }
        assert_eq!(best.pass_s(), 3.0);
        assert!(!best.mismatched);
        best.record(1.0);
        best.end_round();
        assert!(best.mismatched);
    }

    #[test]
    fn timed_rounds_runs_at_least_the_minimum() {
        let mut n = 0;
        let best = timed_rounds(1e-9, |b| {
            n += 1;
            b.unit(|| ());
        });
        assert_eq!(n, MIN_ROUNDS);
        assert_eq!(best.rounds, MIN_ROUNDS);
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.metric("wall_s", 1.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
