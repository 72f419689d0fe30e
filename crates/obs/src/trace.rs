//! Span-based hierarchical phase timers.
//!
//! A span is opened with [`crate::span!`] and closed when its RAII guard
//! drops. Spans nest per thread: a span opened while another is live
//! aggregates under the path `outer/inner`. Wall time and hit counts are
//! accumulated per path in a process-global table and exported by
//! [`crate::export`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total wall time across all completions, in nanoseconds.
    pub total_ns: u128,
    /// Completions that captured OS resource deltas (phase spans with
    /// `/proc` readable). Zero when the resource layer is degraded.
    pub resourced: u64,
    /// Total process CPU time (utime + stime, all threads) across all
    /// resourced completions, in seconds.
    pub cpu_secs: f64,
    /// Highest RSS observed at any resourced completion's boundary, bytes.
    pub peak_rss_bytes: u64,
}

impl SpanStat {
    /// Total wall time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

thread_local! {
    /// The per-thread stack of live span names (for path construction).
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

static SPANS: OnceLock<Mutex<HashMap<String, SpanStat>>> = OnceLock::new();

fn table() -> MutexGuard<'static, HashMap<String, SpanStat>> {
    SPANS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// RAII guard for one timed span. Construct through [`crate::span!`].
///
/// When both gates are off the guard is inert: no allocation, no clock
/// read, no lock — `enter` is two relaxed atomic loads and `drop` one
/// branch. A span fires when either gate is on: tracing feeds the
/// aggregate table, span events additionally record timestamped
/// begin/end events for [`crate::export::chrome_trace_json`].
#[must_use = "a span guard measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    /// Full `/`-separated path, captured at entry. `None` when disabled.
    path: Option<String>,
    start: Option<Instant>,
    /// Leaf name (for the end event).
    name: &'static str,
    /// Whether to feed the aggregate table at drop (the aggregate gate's
    /// state at entry — a mid-span toggle must not record a lone exit).
    aggregate: bool,
    /// Process CPU seconds at entry, for phase spans that attribute OS
    /// resources ([`SpanGuard::enter_phase`]); `None` for plain spans or
    /// when the resource layer is degraded.
    cpu_secs_at_entry: Option<f64>,
    /// RSS in bytes at entry (phase spans only).
    rss_at_entry: Option<u64>,
}

impl SpanGuard {
    /// Open a span named `name` nested under the thread's live spans.
    pub fn enter(name: &'static str) -> SpanGuard {
        Self::enter_impl(name, false)
    }

    /// Open a *phase* span: like [`SpanGuard::enter`], but additionally
    /// captures process CPU time and RSS from `/proc` at entry and exit so
    /// the aggregate table attributes `cpu_secs` and peak RSS to the path.
    /// Falls back to a plain span when the resource layer is unavailable
    /// (gate off, no `/proc`) — degradation never loses the wall timing.
    /// Intended for the coarse `run_stpt` phases, not hot inner loops: each
    /// boundary costs two small `/proc` file reads.
    pub fn enter_phase(name: &'static str) -> SpanGuard {
        Self::enter_impl(name, true)
    }

    fn enter_impl(name: &'static str, phase: bool) -> SpanGuard {
        let aggregate = crate::collecting();
        let events = crate::events_enabled();
        if !aggregate && !events {
            return SpanGuard {
                path: None,
                start: None,
                name,
                aggregate: false,
                cpu_secs_at_entry: None,
                rss_at_entry: None,
            };
        }
        let path = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.join("/")
        });
        if events {
            crate::events::record(crate::events::EventPhase::Begin, name, &path);
        }
        let (cpu_secs_at_entry, rss_at_entry) =
            if phase && aggregate && crate::resources::available() {
                (
                    crate::resources::process_cpu_secs(),
                    crate::resources::observe_rss(),
                )
            } else {
                (None, None)
            };
        SpanGuard {
            path: Some(path),
            start: Some(Instant::now()),
            name,
            aggregate,
            cpu_secs_at_entry,
            rss_at_entry,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let elapsed_ns = self
            .start
            .map(|s| s.elapsed().as_nanos())
            .unwrap_or_default();
        if crate::events_enabled() {
            crate::events::record(crate::events::EventPhase::End, self.name, &path);
        }
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        if !self.aggregate {
            return;
        }
        // Exit-side resource capture, outside the table lock. Attribution
        // is best-effort: if `/proc` vanished mid-span the completion is
        // recorded without resource deltas.
        let resource_delta = self.cpu_secs_at_entry.and_then(|cpu0| {
            let cpu1 = crate::resources::process_cpu_secs()?;
            let rss1 = crate::resources::observe_rss();
            let rss_high = rss1.unwrap_or(0).max(self.rss_at_entry.unwrap_or(0));
            Some(((cpu1 - cpu0).max(0.0), rss_high))
        });
        let mut table = table();
        let stat = table.entry(path).or_default();
        stat.count += 1;
        stat.total_ns += elapsed_ns;
        if let Some((cpu_secs, rss_high)) = resource_delta {
            stat.resourced += 1;
            stat.cpu_secs += cpu_secs;
            stat.peak_rss_bytes = stat.peak_rss_bytes.max(rss_high);
        }
    }
}

/// Snapshot of all span statistics, sorted by path.
pub fn snapshot() -> Vec<(String, SpanStat)> {
    let table = table();
    let mut out: Vec<(String, SpanStat)> = table.iter().map(|(k, v)| (k.clone(), *v)).collect();
    drop(table);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Clear all aggregated span statistics.
pub fn reset() {
    table().clear();
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_paths() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        reset();
        {
            let _a = SpanGuard::enter("outer");
            {
                let _b = SpanGuard::enter("inner");
            }
            {
                let _b = SpanGuard::enter("inner");
            }
        }
        crate::set_enabled(false);
        let snap = snapshot();
        let paths: Vec<&str> = snap.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"outer"), "{paths:?}");
        assert!(paths.contains(&"outer/inner"), "{paths:?}");
        let inner = snap.iter().find(|(p, _)| p == "outer/inner").unwrap();
        assert_eq!(inner.1.count, 2);
    }

    #[test]
    fn phase_spans_attribute_cpu_and_rss_when_proc_is_available() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::resources::set_proc_root_override(None);
        reset();
        {
            let _p = SpanGuard::enter_phase("phase");
            // Burn a little CPU so the delta is non-negative and finite.
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(acc);
        }
        crate::set_enabled(false);
        let snap = snapshot();
        let (_, stat) = snap.iter().find(|(p, _)| p == "phase").unwrap();
        assert_eq!(stat.count, 1);
        if crate::resources::available() {
            assert_eq!(stat.resourced, 1, "resourced completion expected");
            assert!(stat.cpu_secs >= 0.0 && stat.cpu_secs.is_finite());
            assert!(stat.peak_rss_bytes > 0, "a live process has resident pages");
        } else {
            assert_eq!(stat.resourced, 0, "degraded layer records wall time only");
        }
        reset();
    }

    #[test]
    fn phase_spans_degrade_to_plain_spans_without_proc() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::resources::set_proc_root_override(Some(std::path::PathBuf::from(
            "/nonexistent/proc-root",
        )));
        reset();
        {
            let _p = SpanGuard::enter_phase("degraded.phase");
        }
        crate::resources::set_proc_root_override(None);
        crate::set_enabled(false);
        let snap = snapshot();
        let (_, stat) = snap.iter().find(|(p, _)| p == "degraded.phase").unwrap();
        assert_eq!(stat.count, 1, "wall timing survives degradation");
        assert_eq!(stat.resourced, 0);
        assert_eq!(stat.cpu_secs, 0.0);
        assert_eq!(stat.peak_rss_bytes, 0);
        reset();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        reset();
        {
            let _a = SpanGuard::enter("ghost");
        }
        assert!(snapshot().is_empty());
    }
}
