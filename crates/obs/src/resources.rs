//! OS-level resource sampling from `/proc` — std-only, degradation-first.
//!
//! The logical instruments in this crate (spans, counters, the ledger) see
//! only in-process facts. This module adds the physical side: resident-set
//! size, process CPU time (utime + stime) and per-worker CPU time for the
//! `stpt-worker-{i}` threads of the vendored pool, all read from the Linux
//! `/proc` filesystem with plain file I/O — no libc, no syscall wrappers,
//! `forbid(unsafe_code)` stands.
//!
//! # Degradation policy
//!
//! Every raw read returns `Option`: off-Linux, inside a stripped-down
//! sandbox without `/proc`, or with the gate switched off
//! (`ObsConfig::resources`, `STPT_RESOURCES=0` in the bench harness), [`available`]
//! is `false`, [`sample`] is a no-op, phase spans skip their CPU/RSS
//! capture, exports omit the resource fields and `cargo xtask regress`
//! skips resource checks with a named reason. Nothing in the result
//! envelope ever depends on whether sampling ran — resource data flows
//! only into telemetry, never into the `data` payload.
//!
//! # Cadence and units
//!
//! [`sample`] is called by the live collector tick (so the time-series
//! ring gets an RSS gauge series and CPU-time counter series), by
//! `stpt-serve`'s `/metrics` route before each render, and is cheap enough
//! for phase boundaries too: three small files under
//! `/proc/self` plus one `task/` scan. CPU time is converted from clock
//! ticks via `AT_CLKTCK` from `/proc/self/auxv` (fallback 100 Hz), RSS
//! from pages via `AT_PAGESZ` (fallback 4096). Worker threads are scoped —
//! they exist only while a `run_chunks` region executes — so the per-worker
//! CPU series is best-effort: a tick that lands outside a parallel region
//! sees no workers, and a re-spawned worker restarts its cumulative clock
//! (handled by treating a backwards jump as a fresh incarnation).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Worker indices tracked as individual counter series
/// (`worker.{i}.cpu_ms`); higher indices fold into `worker.other.cpu_ms`.
pub const MAX_TRACKED_WORKERS: usize = 8;

/// Thread-name prefix of the vendored pool's scoped workers.
pub const WORKER_PREFIX: &str = "stpt-worker-";

/// Last sampled resident-set size in bytes.
static RSS_BYTES: crate::Gauge = crate::Gauge::new("process.rss_bytes");
/// Running maximum of every RSS observation since the last reset.
static PEAK_RSS_BYTES: crate::Gauge = crate::Gauge::new("process.peak_rss_bytes");
/// Cumulative process CPU time (utime + stime, all threads), milliseconds.
static PROCESS_CPU_MS: crate::Counter = crate::Counter::new("process.cpu_ms");
/// Per-worker CPU time for the first [`MAX_TRACKED_WORKERS`] pool workers.
static WORKER_CPU_MS: [crate::Counter; MAX_TRACKED_WORKERS] = [
    crate::Counter::new("worker.0.cpu_ms"),
    crate::Counter::new("worker.1.cpu_ms"),
    crate::Counter::new("worker.2.cpu_ms"),
    crate::Counter::new("worker.3.cpu_ms"),
    crate::Counter::new("worker.4.cpu_ms"),
    crate::Counter::new("worker.5.cpu_ms"),
    crate::Counter::new("worker.6.cpu_ms"),
    crate::Counter::new("worker.7.cpu_ms"),
];
/// Overflow series for workers beyond [`MAX_TRACKED_WORKERS`].
static WORKER_CPU_OVERFLOW_MS: crate::Counter = crate::Counter::new("worker.other.cpu_ms");

/// Resource-sampling gate, on by default.
static GATE: AtomicBool = AtomicBool::new(true);

/// Whether resource sampling is switched on (default on; one relaxed
/// atomic load). This is a *gate*, not a capability: sampling
/// additionally requires a readable `/proc` (see [`available`]).
#[inline]
pub fn resources_enabled() -> bool {
    GATE.load(Ordering::Relaxed)
}

/// Switch resource sampling on or off.
pub fn set_resources_enabled(on: bool) {
    GATE.store(on, Ordering::Relaxed);
}

/// Test-only injection point for the degradation path: override the
/// directory read instead of `/proc/self`. `Some(path)` redirects every
/// read (a nonexistent path simulates a `/proc`-less host); `None`
/// restores the real `/proc/self`.
pub fn set_proc_root_override(root: Option<PathBuf>) {
    let cell = proc_root_override();
    let mut guard = cell.lock().unwrap_or_else(|p| p.into_inner());
    *guard = root;
}

fn proc_root_override() -> &'static Mutex<Option<PathBuf>> {
    static OVERRIDE: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    OVERRIDE.get_or_init(|| Mutex::new(None))
}

fn proc_root() -> PathBuf {
    let cell = proc_root_override();
    let guard = cell.lock().unwrap_or_else(|p| p.into_inner());
    guard.clone().unwrap_or_else(|| PathBuf::from("/proc/self"))
}

/// Whether sampling can actually run: the gate is on and the (possibly
/// overridden) proc root exposes a parseable `statm`. Computed per call —
/// the reads are two small files and callers sit on cold paths (collector
/// ticks, phase boundaries).
pub fn available() -> bool {
    resources_enabled() && read_rss_bytes_at(&proc_root()).is_some()
}

// ---- auxv-derived unit constants -----------------------------------------

const AT_PAGESZ: u64 = 6;
const AT_CLKTCK: u64 = 17;

/// Scan the ELF auxiliary vector (`/proc/self/auxv`, binary `usize` key /
/// value pairs) for one key. The real `/proc/self/auxv` is used even under
/// a root override — page size and tick rate are machine constants, and a
/// missing file just falls back to the documented defaults.
fn auxv_value(key: u64) -> Option<u64> {
    let bytes = std::fs::read("/proc/self/auxv").ok()?;
    let word = std::mem::size_of::<usize>();
    for pair in bytes.chunks_exact(2 * word) {
        let k = usize::from_ne_bytes(pair[..word].try_into().ok()?) as u64;
        let v = usize::from_ne_bytes(pair[word..].try_into().ok()?) as u64;
        if k == key {
            return Some(v);
        }
    }
    None
}

/// Bytes per page (`AT_PAGESZ`, fallback 4096). Cached after the first call.
pub fn page_size() -> u64 {
    static PAGE: OnceLock<u64> = OnceLock::new();
    *PAGE.get_or_init(|| auxv_value(AT_PAGESZ).filter(|&v| v > 0).unwrap_or(4096))
}

/// Clock ticks per second (`AT_CLKTCK`, fallback 100). Cached after the
/// first call.
pub fn clock_ticks_per_sec() -> u64 {
    static TICKS: OnceLock<u64> = OnceLock::new();
    *TICKS.get_or_init(|| auxv_value(AT_CLKTCK).filter(|&v| v > 0).unwrap_or(100))
}

fn ticks_to_ms(ticks: u64) -> u64 {
    ticks.saturating_mul(1000) / clock_ticks_per_sec()
}

// ---- raw /proc readers and pure parsers ----------------------------------

/// Parse the second field of `/proc/self/statm` (resident pages).
fn parse_statm_resident_pages(text: &str) -> Option<u64> {
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Parse utime + stime (clock ticks) out of a `/proc/*/stat` line. The
/// comm field is parenthesised and may itself contain spaces or `)`, so
/// fields are counted from the *last* `)`: state is the 1st token after
/// it, utime the 12th, stime the 13th.
fn parse_stat_cpu_ticks(line: &str) -> Option<u64> {
    let (_, rest) = line.rsplit_once(')')?;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.clone().nth(11)?.parse().ok()?;
    let stime: u64 = fields.nth(12)?.parse().ok()?;
    Some(utime.saturating_add(stime))
}

/// Extract the comm (thread name) between the first `(` and last `)` of a
/// `/proc/*/stat` line.
fn parse_stat_comm(line: &str) -> Option<&str> {
    let start = line.find('(')? + 1;
    let end = line.rfind(')')?;
    line.get(start..end)
}

fn read_rss_bytes_at(root: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(root.join("statm")).ok()?;
    let pages = parse_statm_resident_pages(&text)?;
    Some(pages.saturating_mul(page_size()))
}

/// Current resident-set size in bytes, or `None` when `/proc` (or the
/// test override root) cannot be read. Does **not** consult the gate —
/// use [`available`] first on recording paths.
pub fn rss_bytes() -> Option<u64> {
    read_rss_bytes_at(&proc_root())
}

/// Cumulative process CPU time (utime + stime across all threads) in
/// clock ticks, or `None` when `/proc` cannot be read.
pub fn process_cpu_ticks() -> Option<u64> {
    let text = std::fs::read_to_string(proc_root().join("stat")).ok()?;
    parse_stat_cpu_ticks(&text)
}

/// Cumulative process CPU time in seconds.
pub fn process_cpu_secs() -> Option<f64> {
    process_cpu_ticks().map(|t| t as f64 / clock_ticks_per_sec() as f64)
}

/// Cumulative CPU ticks per live `stpt-worker-{i}` thread, from
/// `/proc/self/task/*/stat`, as `(worker_index, ticks)` pairs. Scoped
/// workers only exist inside parallel regions, so an empty vector is the
/// common quiescent answer; `None` means the task directory itself was
/// unreadable.
pub fn worker_cpu_ticks() -> Option<Vec<(usize, u64)>> {
    let dir = std::fs::read_dir(proc_root().join("task")).ok()?;
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Ok(text) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        let Some(comm) = parse_stat_comm(&text) else {
            continue;
        };
        let Some(idx) = comm.strip_prefix(WORKER_PREFIX) else {
            continue;
        };
        let Ok(idx) = idx.parse::<usize>() else {
            continue;
        };
        if let Some(ticks) = parse_stat_cpu_ticks(&text) {
            out.push((idx, ticks));
        }
    }
    out.sort_unstable();
    Some(out)
}

// ---- sampler state -------------------------------------------------------

#[derive(Default)]
struct SamplerState {
    /// Cumulative process CPU ticks at the previous sample.
    prev_cpu_ticks: u64,
    /// Leftover ticks not yet large enough to emit a whole millisecond.
    cpu_ms_emitted: u64,
    /// Per-worker cumulative ticks at the previous sample (index-keyed;
    /// the overflow bucket keeps only a running total).
    prev_worker_ticks: Vec<u64>,
    prev_overflow_ticks: u64,
    /// Running peak of every RSS observation.
    peak_rss: u64,
}

static STATE: OnceLock<Mutex<SamplerState>> = OnceLock::new();

fn state() -> MutexGuard<'static, SamplerState> {
    STATE
        .get_or_init(|| Mutex::new(SamplerState::default()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Record one RSS observation: update the gauge and the running peak.
/// Called by [`sample`] and by phase spans at entry/exit so short-lived
/// allocation spikes between collector ticks still move the peak.
pub(crate) fn observe_rss() -> Option<u64> {
    let rss = rss_bytes()?;
    let mut st = state();
    RSS_BYTES.set(rss as f64);
    if rss > st.peak_rss {
        st.peak_rss = rss;
    }
    PEAK_RSS_BYTES.set(st.peak_rss as f64);
    Some(rss)
}

/// Take one resource sample into the metrics registry: RSS gauge + peak,
/// process CPU counter delta, per-worker CPU counter deltas. No-op unless
/// collection is on ([`crate::collecting`]), the gate is on and `/proc`
/// is readable — so a disabled or degraded layer costs one atomic load
/// plus (at worst) one failed `open`.
pub fn sample() {
    if !crate::collecting() || !available() {
        return;
    }
    observe_rss();
    if let Some(ticks) = process_cpu_ticks() {
        let mut st = state();
        let cum = ticks.max(st.prev_cpu_ticks);
        st.prev_cpu_ticks = cum;
        // Emit against a cumulative-ms ledger so repeated small deltas
        // below one tick-to-ms quantum are not lost to truncation. A zero
        // delta is added too, so the counter is exported from the first
        // sample on, alongside the RSS gauges.
        let delta = ticks_to_ms(cum).saturating_sub(st.cpu_ms_emitted);
        PROCESS_CPU_MS.add(delta);
        st.cpu_ms_emitted += delta;
    }
    if let Some(workers) = worker_cpu_ticks() {
        let mut st = state();
        for (idx, ticks) in workers {
            if idx < MAX_TRACKED_WORKERS {
                if st.prev_worker_ticks.len() <= idx {
                    st.prev_worker_ticks.resize(idx + 1, 0);
                }
                let prev = st.prev_worker_ticks[idx];
                // A scoped worker re-spawned since the last tick restarts
                // its clock; a backwards jump marks a fresh incarnation.
                let delta = if ticks >= prev { ticks - prev } else { ticks };
                st.prev_worker_ticks[idx] = ticks;
                if delta > 0 {
                    WORKER_CPU_MS[idx].add(ticks_to_ms(delta));
                }
            } else {
                let prev = st.prev_overflow_ticks;
                let delta = if ticks >= prev { ticks - prev } else { ticks };
                st.prev_overflow_ticks = ticks;
                if delta > 0 {
                    WORKER_CPU_OVERFLOW_MS.add(ticks_to_ms(delta));
                }
            }
        }
    }
}

/// Clear sampler bookkeeping (previous cumulatives, the RSS peak). Metric
/// values are cleared separately by [`crate::metrics::reset`]; the
/// resource gate and the test root override are left untouched.
pub fn reset() {
    let mut st = state();
    *st = SamplerState::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statm_parser_reads_resident_pages() {
        assert_eq!(
            parse_statm_resident_pages("627 363 338 6 0 89 0"),
            Some(363)
        );
        assert_eq!(parse_statm_resident_pages("627"), None);
        assert_eq!(parse_statm_resident_pages(""), None);
        assert_eq!(parse_statm_resident_pages("a b"), None);
    }

    #[test]
    fn stat_parser_handles_hostile_comm_fields() {
        // comm may contain spaces and parens; fields count from the LAST ')'.
        let line = "42 (stpt worker) ) R 1 1 1 0 -1 4194304 100 0 0 0 7 3 0 0 20 0 1 0 100 1000 50";
        assert_eq!(parse_stat_cpu_ticks(line), Some(10));
        assert_eq!(parse_stat_comm(line), Some("stpt worker) "));
        assert_eq!(parse_stat_cpu_ticks("1 (x)"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
    }

    #[test]
    fn unit_constants_have_sane_fallbacks() {
        assert!(page_size() >= 1024);
        let tck = clock_ticks_per_sec();
        assert!(tck > 0);
        assert_eq!(ticks_to_ms(tck), 1000);
    }

    #[test]
    fn live_proc_reads_are_consistent_when_available() {
        let _lock = crate::test_lock();
        set_proc_root_override(None);
        set_resources_enabled(true);
        if !available() {
            return; // degraded host: nothing to assert
        }
        let rss = rss_bytes().unwrap();
        assert!(rss > 0, "a running process has resident pages");
        let t1 = process_cpu_ticks().unwrap();
        let t2 = process_cpu_ticks().unwrap();
        assert!(t2 >= t1, "cumulative CPU time is monotone");
        // task/ scan must not error even with zero matching workers.
        assert!(worker_cpu_ticks().is_some());
        set_resources_enabled(true);
    }

    #[test]
    fn override_to_missing_root_degrades_cleanly() {
        let _lock = crate::test_lock();
        set_resources_enabled(true);
        set_proc_root_override(Some(PathBuf::from("/nonexistent/proc-root")));
        assert!(!available());
        assert_eq!(rss_bytes(), None);
        assert_eq!(process_cpu_ticks(), None);
        assert_eq!(worker_cpu_ticks(), None);
        sample(); // must be a silent no-op
        set_proc_root_override(None);
    }

    #[test]
    fn gate_off_disables_sampling_even_with_proc_present() {
        let _lock = crate::test_lock();
        set_proc_root_override(None);
        set_resources_enabled(false);
        assert!(!available());
        set_resources_enabled(true);
    }
}
