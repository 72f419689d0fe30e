//! Sample statistics, `/proc` readers and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed on every untraced run, with their units.
/// p99 latency is printed in the run's text but not here: its ten-run
/// spread on serve-batch reached 28%, past 0.25, the largest bound the
/// benchmark may set (perfbench/README.md).
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("wall_s", "s"),
    ("stpt_mre_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed on every traced run. A layer a workload does
/// not reach reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("serve.http_read_us", "us"),
    ("serve.route_us", "us"),
    ("serve.eval_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.http_write_us", "us"),
    ("serve.socket_us", "us"),
    ("serve.connections_per_request", "count"),
    ("pool.regions_per_request", "count"),
    ("pool.busy_us_per_request", "us"),
    ("pool.utilization", "ratio"),
    ("serve.daemon_route_us", "us"),
    ("serve.rejected_share", "ratio"),
    ("obs.scrape_ms", "ms"),
    ("ledger.prove_ms", "ms"),
    ("loadgen.cpu_share", "ratio"),
    ("data.generate_s", "s"),
    ("core.stpt_s", "s"),
    ("core.pattern_s", "s"),
    ("core.partition_s", "s"),
    ("core.sanitize_s", "s"),
    ("baselines.identity_s", "s"),
    ("baselines.fourier10_s", "s"),
    ("baselines.fourier20_s", "s"),
    ("baselines.wavelet10_s", "s"),
    ("baselines.wavelet20_s", "s"),
    ("baselines.fast_s", "s"),
    ("baselines.lgan_dp_s", "s"),
    ("baselines.wpo_s", "s"),
    ("queries.eval_s", "s"),
    ("dp.ledger_entries", "count"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("harness.other_s", "s"),
];

/// Percentile `p` (0–100) of `samples` by linear interpolation between
/// closest ranks; NaN for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds this process has used so far.
pub fn own_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_SEC)
}

/// CPU seconds, summed over this machine's CPUs, that the hypervisor gave
/// to other guests while these CPUs wanted to run (`steal` in
/// `/proc/stat`). A run with a high share was slowed by its neighbours.
pub fn steal_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let steal: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(steal / CLOCK_TICKS_PER_SEC)
}

/// Share of the machine's CPU time stolen since `since` (a
/// [`steal_secs`] reading) over `wall` seconds; NaN if unreadable.
pub fn steal_share(since: Option<f64>, wall: f64) -> f64 {
    match (since, steal_secs()) {
        (Some(a), Some(b)) => (b - a) / (wall * nproc() as f64),
        _ => f64::NAN,
    }
}

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux this runs on, and std offers
/// no way to read it without libc.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One run's outcome: the output checks, the operations they covered and
/// the metrics measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests for serving, public calls for
    /// release runs).
    pub attempted: u64,
    /// Operations whose outcome failed a check.
    pub failed: u64,
    /// Run-level checks that failed (daemon exit code, ledger proof, …).
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Note a failed run-level check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        println!("CHECK FAILED: {msg}");
        self.problems.push(msg);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric of
    /// `names`. A metric that was not measured, or is not finite, makes the
    /// run incorrect and reads 0.
    pub fn result_line(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut correct = self.correct() && self.attempted > 0;
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                other => {
                    println!("CHECK FAILED: metric {name} not measured ({other:?})");
                    correct = false;
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 4.0).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5);
        let line = o.result_line(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let missing = o.result_line(&[("wall_s", "s")]);
        assert!(missing.starts_with("{\"correct\": false"));
    }
}
