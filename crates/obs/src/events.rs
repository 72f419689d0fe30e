//! Timestamped span begin/end events for timeline export.
//!
//! The aggregate span table ([`crate::trace`]) answers "where did the time
//! go in total"; this module answers "when" — every span entry/exit is
//! recorded as a [`TraceEvent`] with a monotone per-process timestamp and a
//! per-thread track id, ready for [`crate::export::chrome_trace_json`] to
//! turn into a Chrome `trace_event` document.
//!
//! Recording is gated by its own switch (see [`crate::events_enabled`])
//! *separately* from the aggregate gate, because it is strictly more
//! expensive: one mutex acquisition and one `String` clone per event. The
//! aggregate-only path keeps its near-zero overhead when only tracing is
//! on.
//!
//! The buffer is a bounded ring: once [`capacity`] events (default 2^16,
//! `ObsConfig::event_cap`) have been recorded, further events are counted as dropped rather
//! than recorded — dropping *new* events (not old ones) keeps every
//! recorded begin/end pair intact, and the exporter reports the drop count.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default event-buffer capacity (events, not spans; a span is two events).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Whether an event marks a span entry or exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// Span entry (`ph: "B"` in the Chrome trace format).
    Begin,
    /// Span exit (`ph: "E"`).
    End,
}

/// One recorded span boundary.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Begin or end.
    pub phase: EventPhase,
    /// Leaf span name as passed to `span!`.
    pub name: &'static str,
    /// Full `/`-joined span path at the time of recording.
    pub path: String,
    /// Per-thread track id (dense ordinals in thread-start order).
    pub tid: u64,
    /// Nanoseconds since the process's first recorded event (monotone
    /// within and across threads — one shared `Instant` epoch).
    pub ts_ns: u128,
}

static BUFFER: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static NAMES: OnceLock<Mutex<Vec<(u64, String)>>> = OnceLock::new();

thread_local! {
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
}

fn buffer() -> MutexGuard<'static, Vec<TraceEvent>> {
    BUFFER
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Ring capacity in events (default 2^16). Public so diagnostics about
/// dropped events can name the limit to raise.
pub fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Set the ring capacity (at least one event). Events already recorded
/// are kept.
pub fn set_capacity(events: usize) {
    CAPACITY.store(events.max(1), Ordering::Relaxed);
}

fn names() -> MutexGuard<'static, Vec<(u64, String)>> {
    NAMES
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// This thread's stable track ordinal. The first claim also registers the
/// OS thread name (when one was set, e.g. the pool's `stpt-worker-N`
/// threads) so exporters can label the track.
fn thread_ordinal() -> u64 {
    TID.with(|cell| match cell.get() {
        Some(t) => t,
        None => {
            let t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(t));
            if let Some(name) = std::thread::current().name() {
                names().push((t, name.to_owned()));
            }
            t
        }
    })
}

/// OS thread names keyed by track ordinal, in ordinal-claim order.
/// Threads without a name (e.g. the main thread) are absent.
pub fn thread_names() -> Vec<(u64, String)> {
    names().clone()
}

/// Nanoseconds since the shared epoch (established on first use).
fn now_ns() -> u128 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos()
}

/// Record one span boundary. Called from [`crate::trace::SpanGuard`] only
/// when the events gate is on.
pub(crate) fn record(phase: EventPhase, name: &'static str, path: &str) {
    let event = TraceEvent {
        phase,
        name,
        path: path.to_owned(),
        tid: thread_ordinal(),
        ts_ns: now_ns(),
    };
    let mut buf = buffer();
    if buf.len() >= capacity() {
        drop(buf);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    buf.push(event);
}

/// All recorded events in recording order.
pub fn snapshot() -> Vec<TraceEvent> {
    buffer().clone()
}

/// Number of events dropped because the buffer was full.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Clear the event buffer and the dropped-event count. The time epoch,
/// thread ordinals and the name registry persist for the process lifetime
/// (timestamps stay monotone across resets).
pub fn reset() {
    buffer().clear();
    DROPPED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_record_in_order_with_pairing() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        crate::set_events_enabled(true);
        reset();
        {
            let _a = crate::span!("ev_outer");
            let _b = crate::span!("ev_inner");
        }
        crate::set_events_enabled(false);
        let events = snapshot();
        reset();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].phase, EventPhase::Begin);
        assert_eq!(events[0].path, "ev_outer");
        assert_eq!(events[1].path, "ev_outer/ev_inner");
        // Inner closes before outer; timestamps are monotone.
        assert_eq!(events[2].phase, EventPhase::End);
        assert_eq!(events[2].name, "ev_inner");
        assert_eq!(events[3].name, "ev_outer");
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // All on the same thread track.
        assert!(events.iter().all(|e| e.tid == events[0].tid));
    }

    #[test]
    fn named_threads_register_their_track_name() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        crate::set_events_enabled(true);
        reset();
        std::thread::Builder::new()
            .name("stpt-worker-test".to_owned())
            .spawn(|| {
                let _s = crate::span!("ev_named");
            })
            .expect("spawn")
            .join()
            .expect("join");
        crate::set_events_enabled(false);
        let events = snapshot();
        reset();
        let tid = events
            .iter()
            .find(|e| e.path == "ev_named")
            .map(|e| e.tid)
            .expect("named-thread event recorded");
        assert!(
            thread_names()
                .iter()
                .any(|(t, n)| *t == tid && n == "stpt-worker-test"),
            "worker name not registered for tid {tid}"
        );
    }

    #[test]
    fn events_gate_off_records_nothing() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        crate::set_events_enabled(false);
        reset();
        {
            let _a = crate::span!("ev_ghost");
        }
        assert!(snapshot().is_empty());
        assert_eq!(dropped(), 0);
    }
}
