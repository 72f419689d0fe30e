//! Hermetic observability for the STPT reproduction.
//!
//! Three instruments, one gate:
//!
//! * [`trace`] — span-based hierarchical phase timers. `obs::span!("x")`
//!   returns an RAII guard; nested guards build `/`-separated paths and
//!   wall time aggregates per path.
//! * [`metrics`] — a static registry of atomic [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s. Recording is lock-free and allocation-free, so hot
//!   paths (e.g. the zero-alloc training loop in `stpt-nn`) can be
//!   instrumented without violating their no-allocation guarantees.
//! * [`ledger`] — the privacy-budget audit ledger: `stpt-dp`'s
//!   `BudgetAccountant` appends one [`LedgerEntry`] per spend and publishes
//!   the replay check here, so telemetry exports carry the runtime-verified
//!   composition argument.
//!
//! Everything is gated by plain switches that default off ([`set_enabled`]
//! for tracing, [`set_events_enabled`] for span events,
//! [`set_live_enabled`] for live monitoring). When the gates are off,
//! every recording call is a single relaxed atomic load — near-zero
//! overhead. The crate reads no environment: a binary's entry point builds
//! one [`ObsConfig`] and [`ObsConfig::apply`]s it (the bench harness parses
//! it from the `STPT_TRACE*`, `STPT_RESOURCES`, `STPT_METRICS_*` and
//! `STPT_TELEMETRY_DIR` variables; `stpt-serve` is configured by its argv
//! alone). [`export::write_files`] dumps the collected state as JSON under
//! the configured directory (`results/telemetry/` by default).
//!
//! The crate is dependency-free (std only) so every workspace crate —
//! including the `stpt-dp` privacy kernel — can depend on it without
//! cycles or new external surface.
//!
//! # Output routing
//!
//! Workspace rule XT06 (`cargo xtask lint`) bans raw `println!` /
//! `eprintln!` in library crates: human-readable runtime output must flow
//! through [`report!`] (stdout — results, tables) or [`diag!`] (stderr —
//! warnings and diagnostics) so there is exactly one choke point for
//! console output.

#![forbid(unsafe_code)]

mod config;
pub mod events;
pub mod export;
pub mod httpd;
pub mod ledger;
pub mod metrics;
pub mod noise;
pub mod prometheus;
pub mod resources;
pub mod timeseries;
pub mod trace;

pub use config::ObsConfig;
pub use events::{EventPhase, TraceEvent};
pub use ledger::{Composition, LedgerCheck, LedgerEntry, PostProcessProof};
pub use metrics::{Counter, Gauge, Histogram};
pub use noise::NoiseStatus;
pub use trace::SpanGuard;

use std::sync::atomic::{AtomicBool, Ordering};

/// Tracing gate (`ObsConfig::trace`).
static TRACE: AtomicBool = AtomicBool::new(false);

/// Span-event gate (`ObsConfig::events`).
static EVENTS: AtomicBool = AtomicBool::new(false);

/// Live-monitoring gate. Only [`ObsConfig::apply`] (with a metrics period
/// or address) or [`set_live_enabled`] turn it on, so library code paths
/// cannot accidentally spawn background threads.
static LIVE: AtomicBool = AtomicBool::new(false);

/// Whether tracing/metrics collection is enabled. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    TRACE.load(Ordering::Relaxed)
}

/// Switch tracing on or off. Used by [`ObsConfig::apply`], by tests and
/// by harnesses that decide at runtime.
pub fn set_enabled(on: bool) {
    TRACE.store(on, Ordering::Relaxed);
}

/// Whether timestamped span-event recording is enabled. One relaxed
/// atomic load. Independent of [`enabled`]: events can be recorded
/// without the aggregate tables and vice versa — a span fires when either
/// gate is on.
#[inline]
pub fn events_enabled() -> bool {
    EVENTS.load(Ordering::Relaxed)
}

/// Switch span-event recording on or off.
pub fn set_events_enabled(on: bool) {
    EVENTS.store(on, Ordering::Relaxed);
}

/// Whether live monitoring (time-series collection / Prometheus scrape) is
/// enabled. One relaxed atomic load.
#[inline]
pub fn live_enabled() -> bool {
    LIVE.load(Ordering::Relaxed)
}

/// Switch the live-monitoring gate on or off.
pub fn set_live_enabled(on: bool) {
    LIVE.store(on, Ordering::Relaxed);
}

/// Whether metric/span recording should happen at all: post-mortem tracing
/// *or* live monitoring. Recording sites check this; export surfaces stay
/// gated on the switch they serve ([`enabled`] for the envelope/telemetry
/// files, [`live_enabled`] for the scrape endpoint), so turning the
/// exporter on never changes what a result envelope contains.
#[inline]
pub fn collecting() -> bool {
    enabled() || live_enabled()
}

/// Clear all collected state (spans, metric values, ledger, span events).
/// Metric *registrations* survive — statics stay registered; their values
/// reset to zero. Intended for tests and for harnesses that export one
/// snapshot per run.
pub fn reset() {
    trace::reset();
    metrics::reset();
    ledger::reset();
    events::reset();
    timeseries::reset();
    noise::reset();
    resources::reset();
}

/// Reset every process-global table this crate owns — the span aggregate
/// table, all metric values, the published budget ledger and the span-event
/// buffer — without touching the gates.
///
/// Integration tests share one process (and therefore one set of statics);
/// any test that snapshots telemetry, or asserts on ledger/metric contents,
/// must call this first so it does not observe residue from tests that ran
/// earlier in the same binary. Alias of [`reset`] under a name that states
/// the contract.
pub fn reset_for_tests() {
    reset();
}

/// Print one line of primary output (results, table rows) to stdout.
/// The sanctioned implementation behind [`report!`].
pub fn output_line(line: &str) {
    // The raw macro is correct exactly here — this is the choke point.
    // xtask-allow(XT06): the single sanctioned stdout choke point
    println!("{line}");
}

/// Print one line of diagnostic output (warnings, progress) to stderr.
/// The sanctioned implementation behind [`diag!`].
pub fn diag_line(line: &str) {
    // xtask-allow(XT06): single stderr choke point for the workspace.
    eprintln!("{line}");
}

/// Open a timed span: `let _guard = obs::span!("stpt.pattern");`.
/// Nested spans aggregate under `outer/inner` paths. No-op (and
/// allocation-free) when the gate is off.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name)
    };
}

/// Open a timed *phase* span: like [`span!`], but the guard also captures
/// process CPU time and RSS from `/proc` at its boundaries, so the span
/// table attributes `cpu_secs`, CPU efficiency and peak RSS to the path
/// (see [`resources`]). Use for coarse pipeline phases, not hot loops.
#[macro_export]
macro_rules! phase_span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter_phase($name)
    };
}

/// Primary-output line (stdout), `format!` syntax. The workspace's
/// sanctioned replacement for `println!` (see rule XT06).
#[macro_export]
macro_rules! report {
    ($($t:tt)*) => {
        $crate::output_line(&::std::format!($($t)*))
    };
}

/// Diagnostic line (stderr), `format!` syntax. The workspace's sanctioned
/// replacement for `eprintln!` (see rule XT06).
#[macro_export]
macro_rules! diag {
    ($($t:tt)*) => {
        $crate::diag_line(&::std::format!($($t)*))
    };
}

/// Serialises tests that toggle the global gate or inspect the global
/// tables — the test harness runs tests on multiple threads.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles() {
        let _lock = test_lock();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
