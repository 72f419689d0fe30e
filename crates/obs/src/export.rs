//! Telemetry JSON export.
//!
//! Serialisation is hand-rolled (this crate is dependency-free by design)
//! and emits a single self-describing document per run:
//!
//! ```json
//! {
//!   "run": "table2",
//!   "spans": [ { "path": "stpt/pattern", "count": 3, "total_ms": 1.2 } ],
//!   "counters": [ { "name": "dp.noise_draws.laplace", "value": 96 } ],
//!   "gauges": [ { "name": "nn.windows_per_sec", "value": 1234.5 } ],
//!   "histograms": [ { "name": "nn.grad_norm", "count": 8, "sum": 3.1,
//!                     "buckets": [ [0.25, 5], [0.5, 3] ] } ],
//!   "ledger": { "check": { ... }, "entries": [ ... ] }
//! }
//! ```
//!
//! [`write_files`] puts it, and the other documents the enabled gates
//! produced, under the configured directory (`results/telemetry/` by
//! default, `ObsConfig::telemetry_dir`). Non-finite floats serialise as `null` —
//! JSON has no NaN/Inf and a telemetry reader must see *that it happened*
//! rather than a parse error.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::ledger;
use crate::metrics;
use crate::trace;

/// Default output directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "results/telemetry";

/// Escape a string for a JSON string literal (without the quotes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number, mapping non-finite values to `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `format!("{}", 1.0)` yields "1" — keep it valid JSON either way,
        // but make integral floats round-trip as floats for readability.
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_owned()
    }
}

/// Render the full telemetry document for a run label, including the
/// per-draw ledger audit trail.
pub fn telemetry_json(run: &str) -> String {
    render_telemetry(run, true)
}

/// Render the telemetry document without the per-draw ledger `entries`
/// (the aggregate `check` verdict is kept, `entries` becomes `null`).
///
/// The audit trail grows with one entry per noise draw — megabytes at
/// experiment scale — so result envelopes inline this summary and point at
/// the standalone `results/telemetry/<run>.json` for the full trail.
pub fn telemetry_summary_json(run: &str) -> String {
    render_telemetry(run, false)
}

fn render_telemetry(run: &str, ledger_entries: bool) -> String {
    let spans = trace::snapshot();
    let metrics::MetricsSnapshot {
        counters,
        gauges,
        histograms,
    } = metrics::snapshot();
    let published = ledger::ledger_snapshot();

    // Pool width for CPU-efficiency attribution: the vendored pool
    // publishes a `pool.threads` gauge; absent (no parallel region ran, or
    // collection started late) it defaults to one.
    let pool_threads = gauges
        .iter()
        .find(|&&(n, _)| n == "pool.threads")
        .map(|&(_, v)| v)
        .filter(|&v| v >= 1.0)
        .unwrap_or(1.0);

    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"run\": \"{}\",", json_escape(run));

    out.push_str("  \"spans\": [");
    for (i, (path, stat)) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{ \"path\": \"{}\", \"count\": {}, \"total_ms\": {}",
            json_escape(path),
            stat.count,
            json_f64(stat.total_ms())
        );
        // Resource attribution rides only on phase spans that completed
        // with `/proc` readable; degraded runs keep the plain shape.
        if stat.resourced > 0 {
            let wall_secs = stat.total_ns as f64 / 1e9;
            let efficiency = if wall_secs > 0.0 {
                stat.cpu_secs / wall_secs / pool_threads
            } else {
                f64::NAN
            };
            let _ = write!(
                out,
                ", \"cpu_secs\": {}, \"cpu_efficiency\": {}, \"peak_rss_bytes\": {}",
                json_f64(stat.cpu_secs),
                json_f64(efficiency),
                stat.peak_rss_bytes
            );
        }
        out.push_str(" }");
    }
    out.push_str(if spans.is_empty() { "],\n" } else { "\n  ],\n" });

    out.push_str("  \"counters\": [");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{ \"name\": \"{}\", \"value\": {} }}",
            json_escape(name),
            value
        );
    }
    out.push_str(if counters.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"gauges\": [");
    for (i, (name, value)) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{ \"name\": \"{}\", \"value\": {} }}",
            json_escape(name),
            json_f64(*value)
        );
    }
    out.push_str(if gauges.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"histograms\": [");
    for (i, h) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let quant = |q: f64| match h.quantile(q) {
            Some(v) => json_f64(v),
            None => "null".to_owned(),
        };
        let _ = write!(
            out,
            "\n    {{ \"name\": \"{}\", \"count\": {}, \"sum\": {}, \
             \"min\": {}, \"max\": {}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
            json_escape(h.name),
            h.count,
            json_f64(h.sum),
            json_f64(h.min),
            json_f64(h.max),
            quant(0.5),
            quant(0.95),
            quant(0.99)
        );
        for (j, (lb, c)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{}, {}]", json_f64(*lb), c);
        }
        out.push_str("] }");
    }
    out.push_str(if histograms.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    // Span-event ring health: a monitoring consumer (and `cargo xtask
    // regress --require-telemetry`) must be able to see lossy traces.
    let _ = writeln!(
        out,
        "  \"events\": {{ \"recorded\": {}, \"dropped\": {}, \"capacity\": {} }},",
        crate::events::snapshot().len(),
        crate::events::dropped(),
        crate::events::capacity()
    );

    match published {
        None => out.push_str("  \"ledger\": null\n"),
        Some((entries, proofs, check)) => {
            out.push_str("  \"ledger\": {\n");
            let _ = writeln!(
                out,
                "    \"check\": {{ \"total\": {}, \"replayed\": {}, \"spent\": {}, \
                 \"entries\": {}, \"postprocess\": {}, \"consistent\": {}, \
                 \"noise\": \"{}\" }},",
                json_f64(check.total),
                json_f64(check.replayed),
                json_f64(check.spent),
                check.entries,
                check.postprocess_stages,
                check.consistent,
                check.noise.label()
            );
            out.push_str("    \"proofs\": [");
            for (i, p) in proofs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n      {{ \"stage\": \"{}\", \"epsilon\": {}, \"spends_during\": {}, \
                     \"ledger_at\": {} }}",
                    json_escape(&p.stage),
                    json_f64(p.epsilon),
                    p.spends_during,
                    p.ledger_at
                );
            }
            out.push_str(if proofs.is_empty() {
                "],\n"
            } else {
                "\n    ],\n"
            });
            let _ = writeln!(out, "    \"runs\": {},", ledger::published_runs());
            if ledger_entries {
                out.push_str("    \"entries\": [");
                for (i, e) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let sibling = match &e.sibling {
                        Some(s) => format!("\"{}\"", json_escape(s)),
                        None => "null".to_owned(),
                    };
                    let _ = write!(
                        out,
                        "\n      {{ \"phase\": \"{}\", \"sibling\": {}, \"mechanism\": \"{}\", \
                         \"epsilon\": {}, \"sensitivity\": {}, \"kind\": \"{}\" }}",
                        json_escape(&e.phase),
                        sibling,
                        json_escape(e.mechanism),
                        json_f64(e.epsilon),
                        json_f64(e.sensitivity),
                        e.kind.label()
                    );
                }
                out.push_str(if entries.is_empty() {
                    "]\n"
                } else {
                    "\n    ]\n"
                });
            } else {
                out.push_str("    \"entries\": null\n");
            }
            out.push_str("  }\n");
        }
    }
    out.push('}');
    out.push('\n');
    out
}

/// Sanitise a run label into a filename stem.
fn file_stem(run: &str) -> String {
    let stem: String = run
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if stem.is_empty() {
        "run".to_owned()
    } else {
        stem
    }
}

/// Write the telemetry document for `run` into `dir` (created if missing).
pub fn write_telemetry_to(dir: &Path, run: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", file_stem(run)));
    std::fs::write(&path, telemetry_json(run))?;
    Ok(path)
}

/// Render the recorded span events ([`crate::events`]) as a Chrome
/// `trace_event` JSON object — loadable in Perfetto (<https://ui.perfetto.dev>)
/// or `chrome://tracing`.
///
/// Format notes:
/// * one `"B"`/`"E"` duration-event pair per span, timestamps in
///   microseconds from the process trace epoch, one `tid` track per OS
///   thread (named via `"M"` metadata events);
/// * full `/`-joined span paths ride in `args.path` (the event `name` is
///   the leaf, which is what the timeline labels show);
/// * begins left unmatched at export time — a still-open span, or a pair
///   whose end fell off the full ring buffer — are closed synthetically at
///   the thread's last seen timestamp so the document is always well
///   nested; the number of dropped events is reported in
///   `otherData.dropped_events`.
pub fn chrome_trace_json(run: &str) -> String {
    let events = crate::events::snapshot();
    let dropped = crate::events::dropped();

    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {{ \"run\": \"{}\", \"dropped_events\": {} }},",
        json_escape(run),
        dropped
    );
    out.push_str("  \"traceEvents\": [");

    let mut first = true;
    let mut push_event = |out: &mut String, body: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        out.push_str(&body);
    };

    // One thread_name metadata record per track, using the OS thread name
    // where one was recorded (the pool's `stpt-worker-N` threads) so the
    // fan-out is legible in the timeline.
    let names: std::collections::HashMap<u64, String> =
        crate::events::thread_names().into_iter().collect();
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        let label = names
            .get(tid)
            .cloned()
            .unwrap_or_else(|| format!("thread {tid}"));
        push_event(
            &mut out,
            format!(
                "{{ \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{ \"name\": \"{}\" }} }}",
                json_escape(&label)
            ),
        );
    }

    // Per-thread stacks of open begins, to synthesize ends for unmatched
    // ones (span still open at export, or end lost to the ring cap).
    let mut open: std::collections::HashMap<u64, Vec<&crate::events::TraceEvent>> =
        std::collections::HashMap::new();
    let mut last_ts: std::collections::HashMap<u64, u128> = std::collections::HashMap::new();

    for e in &events {
        let ts_us = e.ts_ns as f64 / 1e3;
        last_ts
            .entry(e.tid)
            .and_modify(|t| *t = (*t).max(e.ts_ns))
            .or_insert(e.ts_ns);
        match e.phase {
            crate::events::EventPhase::Begin => {
                open.entry(e.tid).or_default().push(e);
                push_event(
                    &mut out,
                    format!(
                        "{{ \"ph\": \"B\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"name\": \"{}\", \
                         \"cat\": \"span\", \"args\": {{ \"path\": \"{}\" }} }}",
                        e.tid,
                        json_f64(ts_us),
                        json_escape(e.name),
                        json_escape(&e.path)
                    ),
                );
            }
            crate::events::EventPhase::End => {
                open.entry(e.tid).or_default().pop();
                push_event(
                    &mut out,
                    format!(
                        "{{ \"ph\": \"E\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"name\": \"{}\" }}",
                        e.tid,
                        json_f64(ts_us),
                        json_escape(e.name)
                    ),
                );
            }
        }
    }

    // Close unmatched begins innermost-first at the thread's last timestamp.
    let mut open: Vec<(u64, Vec<&crate::events::TraceEvent>)> = open.into_iter().collect();
    open.sort_by_key(|(tid, _)| *tid);
    for (tid, stack) in open {
        let ts_us = last_ts.get(&tid).copied().unwrap_or_default() as f64 / 1e3;
        for e in stack.iter().rev() {
            push_event(
                &mut out,
                format!(
                    "{{ \"ph\": \"E\", \"pid\": 1, \"tid\": {tid}, \"ts\": {}, \"name\": \"{}\" }}",
                    json_f64(ts_us),
                    json_escape(e.name)
                ),
            );
        }
    }

    out.push_str(if first { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

/// Write the Chrome trace for `run` into `dir` as `<run>.trace.json`.
pub fn write_chrome_trace_to(dir: &Path, run: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.trace.json", file_stem(run)));
    std::fs::write(&path, chrome_trace_json(run))?;
    Ok(path)
}

/// Collapse the recorded span events into folded-stack lines — the input
/// format of standard flamegraph tooling (`flamegraph.pl`, inferno,
/// speedscope): one `path;to;frame <weight>` line per distinct stack.
///
/// The weight of a stack is its **completion count**, not wall time: span
/// durations vary run-to-run, and the acceptance bar for this export is
/// byte-identical output across same-seed runs (at `STPT_THREADS=1`).
/// Counts are schedule-independent as long as the ring did not drop
/// events; begins left unmatched (still-open spans, ends lost to the ring
/// cap) are closed synthetically and counted once. Lines are emitted in
/// lexicographic stack order, so the document is deterministic
/// independently of thread interleaving.
pub fn folded_stacks() -> String {
    let events = crate::events::snapshot();
    let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut open: std::collections::HashMap<u64, Vec<&str>> = std::collections::HashMap::new();
    for e in &events {
        match e.phase {
            crate::events::EventPhase::Begin => {
                open.entry(e.tid).or_default().push(e.path.as_str());
            }
            crate::events::EventPhase::End => {
                open.entry(e.tid).or_default().pop();
                *counts.entry(e.path.replace('/', ";")).or_insert(0) += 1;
            }
        }
    }
    // Synthetic closes for unmatched begins, innermost-first.
    for (_, stack) in open {
        for path in stack.iter().rev() {
            *counts.entry(path.replace('/', ";")).or_insert(0) += 1;
        }
    }
    let mut out = String::with_capacity(counts.len() * 48);
    for (stack, count) in &counts {
        let _ = writeln!(out, "{stack} {count}");
    }
    out
}

/// Write the folded flamegraph for `run` into `dir` as `<run>.folded`.
pub fn write_flamegraph_to(dir: &Path, run: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.folded", file_stem(run)));
    std::fs::write(&path, folded_stacks())?;
    Ok(path)
}

/// Render the retained time-series ring ([`crate::timeseries`]) as JSON:
/// one object per delta sample (counter deltas, point-in-time gauges,
/// histogram delta counts/sums) plus the series-table overflow tallies.
/// This is the post-mortem artifact of a live run — RSS and CPU-time
/// history at the collector cadence, which the cumulative telemetry
/// document cannot show.
pub fn timeseries_json(run: &str) -> String {
    let samples = crate::timeseries::samples();
    let (counter_overflow, hist_overflow) = crate::timeseries::series_overflow();
    let gauge_overflow = crate::timeseries::gauge_series_overflow();

    let mut out = String::with_capacity(samples.len() * 128 + 256);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"run\": \"{}\",", json_escape(run));
    let _ = writeln!(
        out,
        "  \"overflow\": {{ \"counters\": {counter_overflow}, \"gauges\": {gauge_overflow}, \
         \"histograms\": {hist_overflow} }},"
    );
    out.push_str("  \"samples\": [");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {{ \"seq\": {}, \"at_ms\": {}", s.seq, s.at_ms);
        out.push_str(", \"counters\": [");
        for (j, (name, delta)) in s.counters.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[\"{}\", {}]", json_escape(name), delta);
        }
        out.push_str("], \"gauges\": [");
        for (j, (name, value)) in s.gauges.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[\"{}\", {}]", json_escape(name), json_f64(*value));
        }
        out.push_str("], \"histograms\": [");
        for (j, h) in s.histograms.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{ \"name\": \"{}\", \"count\": {}, \"sum\": {} }}",
                json_escape(h.name),
                h.count,
                json_f64(h.sum)
            );
        }
        out.push_str("] }");
    }
    out.push_str(if samples.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

/// Write the time-series document for `run` into `dir` as
/// `<run>.timeseries.json`.
pub fn write_timeseries_to(dir: &Path, run: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.timeseries.json", file_stem(run)));
    std::fs::write(&path, timeseries_json(run))?;
    Ok(path)
}

/// Write every document the enabled gates produced for `run` into `dir`:
/// the telemetry document when tracing is on, the Chrome trace and the
/// folded flamegraph when span events are on, and — after one final
/// collector tick, so the ring includes activity since the last periodic
/// sample — the time-series document when live monitoring is on. Each
/// written path, and each failure, is reported on stderr: telemetry must
/// never take down the run it observes.
pub fn write_files(dir: &Path, run: &str) {
    let report = |what: &str, written: io::Result<PathBuf>| match written {
        Ok(path) => crate::diag!("telemetry: wrote {}", path.display()),
        Err(err) => crate::diag!(
            "telemetry: failed to write the {what} of {run} under {}: {err}",
            dir.display()
        ),
    };
    if crate::enabled() {
        report("telemetry document", write_telemetry_to(dir, run));
    }
    if crate::events_enabled() {
        report("Chrome trace", write_chrome_trace_to(dir, run));
        report("flamegraph", write_flamegraph_to(dir, run));
    }
    if crate::live_enabled() {
        crate::timeseries::collect_now();
        report("time series", write_timeseries_to(dir, run));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{Composition, LedgerCheck, LedgerEntry, PostProcessProof};

    #[test]
    fn json_f64_handles_degenerate_values() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn json_escape_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn document_is_structurally_sound() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _s = crate::span!("export_test");
        }
        crate::ledger::publish_ledger(
            vec![LedgerEntry {
                phase: "pattern".to_owned(),
                sibling: Some("n0".to_owned()),
                mechanism: "laplace",
                epsilon: 0.5,
                sensitivity: 1.0,
                kind: Composition::Parallel,
            }],
            vec![PostProcessProof {
                stage: "consistency".to_owned(),
                epsilon: 0.0,
                spends_during: 0,
                ledger_at: 1,
            }],
            LedgerCheck {
                total: 0.5,
                replayed: 0.5,
                spent: 0.5,
                entries: 1,
                postprocess_stages: 1,
                consistent: true,
                noise: crate::NoiseStatus::Consistent,
            },
        );
        let doc = telemetry_json("unit/test");
        crate::set_enabled(false);
        crate::reset();
        assert!(doc.contains("\"run\": \"unit/test\""));
        assert!(doc.contains("\"path\": \"export_test\""));
        assert!(doc.contains("\"consistent\": true"));
        assert!(doc.contains("\"noise\": \"consistent\""));
        assert!(doc.contains("\"events\": { \"recorded\": "));
        assert!(doc.contains("\"capacity\": "));
        assert!(doc.contains("\"kind\": \"parallel\""));
        assert!(doc.contains("\"postprocess\": 1"));
        assert!(doc.contains("\"stage\": \"consistency\""));
        assert!(doc.contains("\"spends_during\": 0"));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the dependency-free crate.
        let opens = doc.matches('{').count();
        let closes = doc.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn folded_stacks_collapse_deterministically() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        crate::set_events_enabled(true);
        {
            let _a = crate::span!("outer");
            {
                let _b = crate::span!("inner");
            }
            {
                let _b = crate::span!("inner");
            }
        }
        let _open = crate::span!("dangling"); // closed synthetically
        let folded = folded_stacks();
        crate::set_events_enabled(false);
        drop(_open);
        assert!(folded.contains("outer 1\n"), "{folded}");
        assert!(folded.contains("outer;inner 2\n"), "{folded}");
        assert!(folded.contains("dangling 1\n"), "{folded}");
        // Lines are emitted in sorted order (determinism by construction).
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        crate::reset_for_tests();
    }

    #[test]
    fn phase_span_resource_fields_ride_the_telemetry_doc() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        crate::resources::set_proc_root_override(None);
        if !crate::resources::available() {
            return; // degraded host: the fields are (correctly) absent
        }
        crate::set_enabled(true);
        {
            let _p = crate::phase_span!("resourced_phase");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let doc = telemetry_json("resource test");
        crate::set_enabled(false);
        crate::reset_for_tests();
        assert!(doc.contains("\"path\": \"resourced_phase\""), "{doc}");
        assert!(doc.contains("\"cpu_secs\": "), "{doc}");
        assert!(doc.contains("\"cpu_efficiency\": "), "{doc}");
        assert!(doc.contains("\"peak_rss_bytes\": "), "{doc}");
    }

    #[test]
    fn timeseries_document_round_trips_the_ring() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        static EXPORT_TS: crate::Counter = crate::Counter::new("test.export.ts");
        crate::set_enabled(true);
        EXPORT_TS.add(3);
        crate::timeseries::collect_now();
        crate::set_enabled(false);
        let doc = timeseries_json("ts run");
        crate::reset_for_tests();
        assert!(doc.contains("\"run\": \"ts run\""), "{doc}");
        assert!(doc.contains("[\"test.export.ts\", 3]"), "{doc}");
        assert!(doc.contains("\"overflow\": { \"counters\": 0, \"gauges\": 0, \"histograms\": 0 }"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn write_telemetry_to_creates_the_file() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        crate::reset();
        let dir = std::env::temp_dir().join("stpt_obs_export_test");
        let path = write_telemetry_to(&dir, "smoke run").expect("write");
        assert!(path.ends_with("smoke_run.json"));
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("\"ledger\": null"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
