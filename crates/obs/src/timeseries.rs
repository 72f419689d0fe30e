//! Fixed-capacity time-series ring over the metrics registry.
//!
//! A background collector (started by [`start_collector`], period from
//! `ObsConfig::metrics_period`) takes one [`crate::metrics::snapshot`] per tick
//! and appends the **delta** since the previous tick — per-counter
//! increments and per-histogram bucket/count/sum increments — to a
//! fixed-capacity ring of [`RING_CAPACITY`] slots. The ring therefore holds
//! a sliding window of recent activity for windowed rate
//! ([`window_rate`]) and windowed quantile ([`window_quantile`])
//! computation — the live view a scrape endpoint or a long-lived daemon
//! needs, which the cumulative registry alone cannot provide.
//!
//! # Concurrency design
//!
//! Writes are serialised by a mutex (one collector tick at a time), but
//! **reads never block**: every slot is a seqlock — a version word that is
//! bumped to an odd value before the slot's atomics are rewritten and to
//! the next even value after. Readers snapshot a slot's fields between two
//! equal even version reads, retrying (bounded) on a concurrent rewrite.
//! All slot fields are individual atomics, so this is safe Rust throughout
//! (`forbid(unsafe_code)` stands) — the seqlock adds slot-level
//! *consistency* (a sample's seq, timestamp and deltas belong to the same
//! tick) on top of the per-word atomicity.
//!
//! # Wraparound accounting
//!
//! When the ring laps itself, the deltas in the overwritten slot are first
//! accumulated into per-series *evicted* totals (writer state), preserving
//! the invariant checked by `tests/timeseries_proptest.rs`:
//!
//! ```text
//! evicted[series] + Σ retained slot deltas[series] == last collected cumulative value
//! ```
//!
//! Timestamps are milliseconds since the first collection (monotonic
//! clock), clamped non-decreasing; sample sequence numbers are strictly
//! increasing.

use crate::metrics::{self, HistogramSnapshot, HISTOGRAM_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::{Duration, Instant};

/// Number of delta samples retained (oldest evicted first). At the default
/// 1 s period this is two minutes of history.
pub const RING_CAPACITY: usize = 120;

/// Maximum number of distinct counter series tracked; later registrations
/// are counted in [`series_overflow`] and skipped.
pub const MAX_COUNTER_SERIES: usize = 48;

/// Maximum number of distinct histogram series tracked.
pub const MAX_HISTOGRAM_SERIES: usize = 8;

/// Maximum number of distinct gauge series tracked. Gauges are sampled
/// point-in-time (no delta/eviction accounting — a gauge has no
/// conservation invariant), giving the ring an RSS/utilization history.
pub const MAX_GAUGE_SERIES: usize = 16;

/// Collector period when no period is configured but live telemetry is on
/// (scrape address given), or the configured one does not parse.
pub const DEFAULT_PERIOD: Duration = Duration::from_secs(1);

/// One ring slot: a seqlock version word plus the delta payload.
struct Slot {
    /// Even = stable, odd = mid-rewrite.
    version: AtomicU64,
    /// 1-based tick number; 0 = never written.
    seq: AtomicU64,
    /// Milliseconds since the first collection.
    at_ms: AtomicU64,
    counters: [AtomicU64; MAX_COUNTER_SERIES],
    /// Point-in-time gauge values as f64 bits.
    gauges: [AtomicU64; MAX_GAUGE_SERIES],
    hist_count: [AtomicU64; MAX_HISTOGRAM_SERIES],
    hist_sum_bits: [AtomicU64; MAX_HISTOGRAM_SERIES],
    hist_buckets: [[AtomicU64; HISTOGRAM_BUCKETS]; MAX_HISTOGRAM_SERIES],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            at_ms: AtomicU64::new(0),
            counters: [const { AtomicU64::new(0) }; MAX_COUNTER_SERIES],
            gauges: [const { AtomicU64::new(0) }; MAX_GAUGE_SERIES],
            hist_count: [const { AtomicU64::new(0) }; MAX_HISTOGRAM_SERIES],
            hist_sum_bits: [const { AtomicU64::new(0) }; MAX_HISTOGRAM_SERIES],
            hist_buckets: [const { [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS] };
                MAX_HISTOGRAM_SERIES],
        }
    }
}

fn ring() -> &'static [Slot] {
    static RING: OnceLock<Vec<Slot>> = OnceLock::new();
    RING.get_or_init(|| (0..RING_CAPACITY).map(|_| Slot::empty()).collect())
}

/// Per-counter-series writer bookkeeping.
struct CounterSeries {
    name: &'static str,
    /// Cumulative value at the previous tick.
    prev: u64,
    /// Deltas evicted from the ring by wraparound.
    evicted: u64,
}

/// Per-histogram-series writer bookkeeping.
struct HistSeries {
    name: &'static str,
    prev_count: u64,
    prev_sum: f64,
    prev_buckets: [u64; HISTOGRAM_BUCKETS],
}

#[derive(Default)]
struct WriterState {
    /// Next tick number (0-based; stored in slots as `next_seq + 1`).
    next_seq: u64,
    epoch: Option<Instant>,
    last_ms: u64,
    counters: Vec<CounterSeries>,
    /// Tracked gauge series names (point-in-time; no writer bookkeeping
    /// beyond the name).
    gauges: Vec<&'static str>,
    hists: Vec<HistSeries>,
    counter_overflow: u64,
    gauge_overflow: u64,
    hist_overflow: u64,
}

static WRITER: OnceLock<Mutex<WriterState>> = OnceLock::new();

fn writer() -> MutexGuard<'static, WriterState> {
    WRITER
        .get_or_init(|| Mutex::new(WriterState::default()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Parse a collector period: `250ms`, `2s`, or a bare integer in
/// milliseconds. Rejects zero.
pub fn parse_period(s: &str) -> Result<Duration, String> {
    let t = s.trim();
    let (digits, unit_ms) = if let Some(d) = t.strip_suffix("ms") {
        (d.trim(), 1u64)
    } else if let Some(d) = t.strip_suffix('s') {
        (d.trim(), 1000u64)
    } else {
        (t, 1u64)
    };
    let n: u64 = digits.parse().map_err(|_| {
        format!("unparseable period {t:?}; want e.g. 250ms, 2s, or bare milliseconds")
    })?;
    let ms = n.saturating_mul(unit_ms);
    if ms == 0 {
        return Err(format!("period {t:?} is zero"));
    }
    Ok(Duration::from_millis(ms))
}

/// Spawn the background collector thread (`stpt-metrics`), once per
/// process. Each tick calls [`collect_now`]. The thread is detached and
/// runs for the life of the process; `crates/obs` is the sanctioned home
/// for such infrastructure threads (XT07 exemption).
pub fn start_collector(period: Duration) {
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        let spawned = std::thread::Builder::new()
            .name("stpt-metrics".into())
            .spawn(move || loop {
                std::thread::sleep(period);
                collect_now();
            });
        if spawned.is_err() {
            crate::diag!("live telemetry: could not spawn stpt-metrics collector thread");
        }
    });
}

/// Take one delta sample now: diff the current metrics snapshot against the
/// previous tick and publish it into the next ring slot (evicting — and
/// accounting for — the oldest sample once the ring is full). Serialised
/// with other writers; never blocks readers.
pub fn collect_now() {
    // Fold an OS resource sample (RSS, CPU time, per-worker CPU) into the
    // registry first so this tick's snapshot carries it; a no-op when the
    // resource layer is gated off or `/proc` is unavailable.
    crate::resources::sample();
    let snap = metrics::snapshot();
    let mut w = writer();
    let epoch = *w.epoch.get_or_insert_with(Instant::now);
    let now_ms = (epoch.elapsed().as_millis() as u64).max(w.last_ms);
    w.last_ms = now_ms;

    // Resolve series indices and deltas against previous cumulatives.
    let mut counter_deltas = [0u64; MAX_COUNTER_SERIES];
    for &(name, cum) in &snap.counters {
        match series_index_for(&mut w, name) {
            Some(i) => {
                counter_deltas[i] = cum.saturating_sub(w.counters[i].prev);
                w.counters[i].prev = cum;
            }
            None => w.counter_overflow += 1,
        }
    }
    let mut gauge_values = [0u64; MAX_GAUGE_SERIES];
    for &(name, value) in &snap.gauges {
        match gauge_index_for(&mut w, name) {
            Some(i) => gauge_values[i] = value.to_bits(),
            None => w.gauge_overflow += 1,
        }
    }
    let mut hist_count_deltas = [0u64; MAX_HISTOGRAM_SERIES];
    let mut hist_sum_deltas = [0f64; MAX_HISTOGRAM_SERIES];
    let mut hist_bucket_deltas = [[0u64; HISTOGRAM_BUCKETS]; MAX_HISTOGRAM_SERIES];
    for h in &snap.histograms {
        match hist_index_for(&mut w, h.name) {
            Some(i) => {
                let s = &mut w.hists[i];
                hist_count_deltas[i] = h.count.saturating_sub(s.prev_count);
                hist_sum_deltas[i] = (h.sum - s.prev_sum).max(0.0);
                let mut full = [0u64; HISTOGRAM_BUCKETS];
                for &(lb, n) in &h.buckets {
                    if let Some(b) = bucket_index(lb) {
                        full[b] = n;
                    }
                }
                for b in 0..HISTOGRAM_BUCKETS {
                    hist_bucket_deltas[i][b] = full[b].saturating_sub(s.prev_buckets[b]);
                }
                s.prev_count = h.count;
                s.prev_sum = h.sum;
                s.prev_buckets = full;
            }
            None => w.hist_overflow += 1,
        }
    }

    // Publish into the next slot under the seqlock protocol.
    let seq = w.next_seq + 1; // 1-based; 0 marks an empty slot
    let slot = &ring()[(w.next_seq as usize) % RING_CAPACITY];
    let v = slot.version.load(Ordering::SeqCst);
    slot.version.store(v | 1, Ordering::SeqCst); // odd: readers retry
    if slot.seq.load(Ordering::SeqCst) != 0 {
        // Wraparound: fold the evicted slot's deltas into the running
        // evicted totals before they vanish from the window.
        for (i, s) in w.counters.iter_mut().enumerate() {
            s.evicted += slot.counters[i].load(Ordering::SeqCst);
        }
    }
    slot.seq.store(seq, Ordering::SeqCst);
    slot.at_ms.store(now_ms, Ordering::SeqCst);
    for (cell, &d) in slot.counters.iter().zip(&counter_deltas) {
        cell.store(d, Ordering::SeqCst);
    }
    for (cell, &bits) in slot.gauges.iter().zip(&gauge_values) {
        cell.store(bits, Ordering::SeqCst);
    }
    for i in 0..MAX_HISTOGRAM_SERIES {
        slot.hist_count[i].store(hist_count_deltas[i], Ordering::SeqCst);
        slot.hist_sum_bits[i].store(hist_sum_deltas[i].to_bits(), Ordering::SeqCst);
        for (cell, &d) in slot.hist_buckets[i].iter().zip(&hist_bucket_deltas[i]) {
            cell.store(d, Ordering::SeqCst);
        }
    }
    slot.version
        .store((v | 1).wrapping_add(1), Ordering::SeqCst); // even again
    w.next_seq += 1;
}

fn series_index_for(w: &mut WriterState, name: &'static str) -> Option<usize> {
    if let Some(i) = w.counters.iter().position(|s| s.name == name) {
        return Some(i);
    }
    if w.counters.len() >= MAX_COUNTER_SERIES {
        return None;
    }
    w.counters.push(CounterSeries {
        name,
        prev: 0,
        evicted: 0,
    });
    Some(w.counters.len() - 1)
}

fn gauge_index_for(w: &mut WriterState, name: &'static str) -> Option<usize> {
    if let Some(i) = w.gauges.iter().position(|&n| n == name) {
        return Some(i);
    }
    if w.gauges.len() >= MAX_GAUGE_SERIES {
        return None;
    }
    w.gauges.push(name);
    Some(w.gauges.len() - 1)
}

fn hist_index_for(w: &mut WriterState, name: &'static str) -> Option<usize> {
    if let Some(i) = w.hists.iter().position(|s| s.name == name) {
        return Some(i);
    }
    if w.hists.len() >= MAX_HISTOGRAM_SERIES {
        return None;
    }
    w.hists.push(HistSeries {
        name,
        prev_count: 0,
        prev_sum: 0.0,
        prev_buckets: [0; HISTOGRAM_BUCKETS],
    });
    Some(w.hists.len() - 1)
}

/// Map a log2 bucket lower bound back to its bucket index (inverse of
/// [`metrics::Histogram::bucket_lower_bound`]).
fn bucket_index(lb: f64) -> Option<usize> {
    if lb <= 0.0 || !lb.is_finite() {
        return None;
    }
    let i = lb.log2().round() as i64 + 20;
    usize::try_from(i).ok().filter(|&i| i < HISTOGRAM_BUCKETS)
}

/// One histogram's deltas inside a [`Sample`].
#[derive(Debug, Clone)]
pub struct HistSample {
    /// Metric name.
    pub name: &'static str,
    /// Observations during this tick.
    pub count: u64,
    /// Sum of observations during this tick.
    pub sum: f64,
    /// Non-empty delta buckets as `(lower_bound, count)` pairs.
    pub buckets: Vec<(f64, u64)>,
}

/// One delta sample read back from the ring.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Strictly increasing tick number (1-based).
    pub seq: u64,
    /// Milliseconds since the first collection (non-decreasing).
    pub at_ms: u64,
    /// `(name, delta)` per tracked counter series.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` per tracked gauge series — point-in-time at this
    /// tick, not a delta.
    pub gauges: Vec<(&'static str, f64)>,
    /// Per-histogram deltas.
    pub histograms: Vec<HistSample>,
}

/// Read every retained sample, oldest first. Lock-free with respect to the
/// collector: slots mid-rewrite are retried a few times and then skipped,
/// so a returned vector only ever contains internally consistent samples
/// with strictly increasing `seq` and non-decreasing `at_ms`.
pub fn samples() -> Vec<Sample> {
    let (counter_names, gauge_names, hist_names) = {
        let w = writer();
        (
            w.counters.iter().map(|s| s.name).collect::<Vec<_>>(),
            w.gauges.clone(),
            w.hists.iter().map(|s| s.name).collect::<Vec<_>>(),
        )
    };
    let mut out: Vec<Sample> = Vec::with_capacity(RING_CAPACITY);
    for slot in ring() {
        if let Some(sample) = read_slot(slot, &counter_names, &gauge_names, &hist_names) {
            out.push(sample);
        }
    }
    out.sort_by_key(|s| s.seq);
    out
}

/// Seqlock read of one slot; `None` when empty or persistently contended.
fn read_slot(
    slot: &Slot,
    counter_names: &[&'static str],
    gauge_names: &[&'static str],
    hist_names: &[&'static str],
) -> Option<Sample> {
    for _ in 0..16 {
        let v1 = slot.version.load(Ordering::SeqCst);
        if v1 & 1 == 1 {
            std::hint::spin_loop();
            continue;
        }
        let seq = slot.seq.load(Ordering::SeqCst);
        if seq == 0 {
            return None;
        }
        let at_ms = slot.at_ms.load(Ordering::SeqCst);
        let counters: Vec<(&'static str, u64)> = counter_names
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, slot.counters[i].load(Ordering::SeqCst)))
            .collect();
        let gauges: Vec<(&'static str, f64)> = gauge_names
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, f64::from_bits(slot.gauges[i].load(Ordering::SeqCst))))
            .collect();
        let histograms: Vec<HistSample> = hist_names
            .iter()
            .enumerate()
            .map(|(i, &n)| HistSample {
                name: n,
                count: slot.hist_count[i].load(Ordering::SeqCst),
                sum: f64::from_bits(slot.hist_sum_bits[i].load(Ordering::SeqCst)),
                buckets: slot.hist_buckets[i]
                    .iter()
                    .enumerate()
                    .filter_map(|(b, cell)| {
                        let c = cell.load(Ordering::SeqCst);
                        (c > 0).then(|| (metrics::Histogram::bucket_lower_bound(b), c))
                    })
                    .collect(),
            })
            .collect();
        if slot.version.load(Ordering::SeqCst) == v1 {
            return Some(Sample {
                seq,
                at_ms,
                counters,
                gauges,
                histograms,
            });
        }
    }
    None // persistently mid-rewrite; drop this slot rather than block
}

/// Windowed rate of a counter in events/second: deltas recorded strictly
/// after the oldest sample inside `window`, divided by the covered span.
/// `None` until at least two samples fall inside the window, and `None` —
/// never a fabricated 0/s — for a counter the ring does not track (unknown
/// name, or a series that arrived after the table overflowed).
pub fn window_rate(counter: &str, window: Duration) -> Option<f64> {
    let all = samples();
    let newest = all.last()?.at_ms;
    let window_ms = window.as_millis() as u64;
    let included: Vec<&Sample> = all
        .iter()
        .filter(|s| s.at_ms + window_ms >= newest)
        .collect();
    if included.len() < 2 {
        return None;
    }
    // Every sample carries the full tracked-series name list, so a missing
    // name here means the counter is untracked — an absent series must not
    // alias a present-but-idle one.
    if !included[0].counters.iter().any(|&(n, _)| n == counter) {
        return None;
    }
    let span_ms = included[included.len() - 1].at_ms - included[0].at_ms;
    if span_ms == 0 {
        return None;
    }
    let total: u64 = included[1..]
        .iter()
        .flat_map(|s| s.counters.iter())
        .filter(|&&(n, _)| n == counter)
        .map(|&(_, d)| d)
        .sum();
    Some(total as f64 / (span_ms as f64 / 1000.0))
}

/// Windowed `q`-quantile of a histogram: delta buckets of every sample
/// inside `window` are summed into one [`HistogramSnapshot`] (exact
/// extrema unknown for a window, so tails fall back to bucket bounds) and
/// interpolated. `None` when no observation fell inside the window.
pub fn window_quantile(hist: &str, q: f64, window: Duration) -> Option<f64> {
    let all = samples();
    let newest = all.last()?.at_ms;
    let window_ms = window.as_millis() as u64;
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    let mut count = 0u64;
    let mut sum = 0f64;
    for s in all.iter().filter(|s| s.at_ms + window_ms >= newest) {
        for h in s.histograms.iter().filter(|h| h.name == hist) {
            count += h.count;
            sum += h.sum;
            for &(lb, n) in &h.buckets {
                if let Some(b) = bucket_index(lb) {
                    buckets[b] += n;
                }
            }
        }
    }
    if count == 0 {
        return None;
    }
    let snap = HistogramSnapshot {
        name: "window",
        count,
        sum,
        min: f64::NAN,
        max: f64::NAN,
        buckets: buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (metrics::Histogram::bucket_lower_bound(i), c))
            .collect(),
    };
    snap.quantile(q)
}

/// Per-counter `evicted + Σ retained deltas` totals, writer-locked so the
/// sum is taken against a quiescent ring. After a final [`collect_now`],
/// each total equals the counter's cumulative value — the wraparound
/// conservation invariant (see the module docs and the proptest).
pub fn audit_counter_totals() -> Vec<(&'static str, u64)> {
    let w = writer();
    let mut totals: Vec<(&'static str, u64)> =
        w.counters.iter().map(|s| (s.name, s.evicted)).collect();
    for slot in ring() {
        if slot.seq.load(Ordering::SeqCst) == 0 {
            continue;
        }
        for (i, t) in totals.iter_mut().enumerate() {
            t.1 += slot.counters[i].load(Ordering::SeqCst);
        }
    }
    totals
}

/// `(counter, histogram)` series-table overflow event counts — nonzero
/// when more distinct metrics exist than the fixed tables can track.
pub fn series_overflow() -> (u64, u64) {
    let w = writer();
    (w.counter_overflow, w.hist_overflow)
}

/// Gauge series-table overflow event count (see [`series_overflow`]).
pub fn gauge_series_overflow() -> u64 {
    writer().gauge_overflow
}

/// Clear the ring and all writer bookkeeping (series, evicted totals,
/// epoch). Used by [`crate::reset`].
pub fn reset() {
    let mut w = writer();
    *w = WriterState::default();
    for slot in ring() {
        let v = slot.version.load(Ordering::SeqCst);
        slot.version.store(v | 1, Ordering::SeqCst);
        slot.seq.store(0, Ordering::SeqCst);
        slot.at_ms.store(0, Ordering::SeqCst);
        for c in &slot.counters {
            c.store(0, Ordering::SeqCst);
        }
        for g in &slot.gauges {
            g.store(0, Ordering::SeqCst);
        }
        for i in 0..MAX_HISTOGRAM_SERIES {
            slot.hist_count[i].store(0, Ordering::SeqCst);
            slot.hist_sum_bits[i].store(0, Ordering::SeqCst);
            for b in &slot.hist_buckets[i] {
                b.store(0, Ordering::SeqCst);
            }
        }
        slot.version
            .store((v | 1).wrapping_add(1), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TS_COUNTER: crate::Counter = crate::Counter::new("test.ts.counter");
    static TS_HIST: crate::Histogram = crate::Histogram::new("test.ts.hist");

    #[test]
    fn parse_period_accepts_all_three_forms() {
        assert_eq!(parse_period("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(parse_period("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_period("750").unwrap(), Duration::from_millis(750));
        assert_eq!(parse_period(" 1s ").unwrap(), Duration::from_secs(1));
        assert!(parse_period("0").is_err());
        assert!(parse_period("0ms").is_err());
        assert!(parse_period("fast").is_err());
        assert!(parse_period("1.5s").is_err());
        assert!(parse_period("").is_err());
    }

    #[test]
    fn deltas_and_wraparound_conserve_counter_totals() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        crate::set_enabled(true);
        // More ticks than the ring holds, so eviction must kick in.
        let ticks = RING_CAPACITY + 17;
        for i in 0..ticks {
            TS_COUNTER.add(1 + (i as u64 % 3));
            TS_HIST.observe(0.5 + i as f64);
            collect_now();
        }
        crate::set_enabled(false);
        let expected = TS_COUNTER.get();
        let audited = audit_counter_totals()
            .into_iter()
            .find(|&(n, _)| n == "test.ts.counter")
            .map(|(_, t)| t)
            .unwrap();
        assert_eq!(
            audited, expected,
            "evicted + retained must equal cumulative"
        );

        let all = samples();
        assert_eq!(
            all.len(),
            RING_CAPACITY,
            "ring retains exactly its capacity"
        );
        // Strictly increasing seq, non-decreasing timestamps, oldest evicted.
        assert_eq!(all[0].seq, (ticks - RING_CAPACITY + 1) as u64);
        for pair in all.windows(2) {
            assert!(pair[1].seq == pair[0].seq + 1);
            assert!(pair[1].at_ms >= pair[0].at_ms);
        }
        crate::reset_for_tests();
    }

    #[test]
    fn windowed_rate_and_quantile_read_the_ring() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        crate::set_enabled(true);
        for _ in 0..10 {
            TS_COUNTER.add(5);
            TS_HIST.observe(1.5);
            collect_now();
        }
        crate::set_enabled(false);
        // All samples share ~the same timestamp in a fast test, so the
        // covered span can be zero; only assert the no-crash/option shape
        // plus the quantile (which is span-independent).
        let q = window_quantile("test.ts.hist", 0.5, Duration::from_secs(3600)).unwrap();
        assert!(
            (1.0..2.0).contains(&q),
            "1.5 lives in the [1,2) bucket, got {q}"
        );
        let r = window_rate("test.ts.counter", Duration::from_secs(3600));
        if let Some(r) = r {
            assert!(r > 0.0);
        }
        assert_eq!(series_overflow(), (0, 0));
        crate::reset_for_tests();
    }

    #[test]
    fn empty_ring_yields_none_not_zero() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        assert_eq!(
            window_rate("test.ts.counter", Duration::from_secs(60)),
            None
        );
        assert_eq!(
            window_quantile("test.ts.hist", 0.5, Duration::from_secs(60)),
            None
        );
    }

    #[test]
    fn single_sample_window_yields_none() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        crate::set_enabled(true);
        TS_COUNTER.add(7);
        collect_now();
        crate::set_enabled(false);
        // One sample: no span to rate over, and the (empty-delta) histogram
        // has no observations in the window.
        assert_eq!(
            window_rate("test.ts.counter", Duration::from_secs(60)),
            None
        );
        assert_eq!(
            window_quantile("test.ts.hist", 0.5, Duration::from_secs(60)),
            None
        );
        crate::reset_for_tests();
    }

    #[test]
    fn untracked_counter_yields_none_not_fabricated_zero_rate() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        crate::set_enabled(true);
        for _ in 0..3 {
            TS_COUNTER.add(2);
            collect_now();
            // Force distinct timestamps so the covered span is nonzero and
            // the rate path runs to completion for the tracked series.
            std::thread::sleep(Duration::from_millis(3));
        }
        crate::set_enabled(false);
        let tracked = window_rate("test.ts.counter", Duration::from_secs(60));
        assert!(matches!(tracked, Some(r) if r > 0.0), "got {tracked:?}");
        // An unknown series must be None, never a fabricated 0/s that is
        // indistinguishable from a present-but-idle counter.
        assert_eq!(
            window_rate("no.such.counter", Duration::from_secs(60)),
            None
        );
        crate::reset_for_tests();
    }

    #[test]
    fn fully_evicted_window_yields_none() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        crate::set_enabled(true);
        TS_COUNTER.add(1);
        collect_now();
        std::thread::sleep(Duration::from_millis(3));
        TS_COUNTER.add(1);
        collect_now();
        crate::set_enabled(false);
        // A zero-length window keeps only the newest sample — every older
        // one has aged out, so there is nothing to rate over.
        assert_eq!(window_rate("test.ts.counter", Duration::ZERO), None);
        assert_eq!(window_quantile("test.ts.hist", 0.5, Duration::ZERO), None);
        crate::reset_for_tests();
    }

    #[test]
    fn gauge_series_ride_the_ring() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        static TS_GAUGE: crate::Gauge = crate::Gauge::new("test.ts.gauge");
        crate::set_enabled(true);
        TS_GAUGE.set(12.5);
        collect_now();
        TS_GAUGE.set(99.0);
        collect_now();
        crate::set_enabled(false);
        let all = samples();
        let last = all.last().unwrap();
        let got = last
            .gauges
            .iter()
            .find(|&&(n, _)| n == "test.ts.gauge")
            .map(|&(_, v)| v);
        assert_eq!(got, Some(99.0), "newest slot holds the point-in-time value");
        assert_eq!(gauge_series_overflow(), 0);
        crate::reset_for_tests();
    }

    #[test]
    fn bucket_index_inverts_lower_bound() {
        for i in 0..HISTOGRAM_BUCKETS {
            let lb = metrics::Histogram::bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), Some(i));
        }
        assert_eq!(bucket_index(0.0), None);
        assert_eq!(bucket_index(-1.0), None);
        assert_eq!(bucket_index(f64::INFINITY), None);
    }
}
