//! Dependency-free Prometheus text exposition (format 0.0.4) over the
//! metrics registry, plus the scrape endpoint's [`httpd::Service`].
//!
//! [`render`] encodes every registered counter, gauge and log2 histogram —
//! and the observability meta-signals (span-event drops, published ledger
//! runs) — as `text/plain; version=0.0.4`. [`Scrape`] answers
//! `GET /metrics` with a fresh render; [`crate::ObsConfig::apply`] runs it
//! on one acceptor of the shared [`httpd::serve`] loop when a metrics
//! address is configured (a scrape endpoint for one Prometheus server
//! needs no concurrency).
//!
//! The exporter is strictly read-only over the registry: enabling it can
//! never change what a result envelope contains (verified byte-for-byte in
//! CI).

use crate::httpd::{self, Request, Response};
use crate::metrics;
use std::time::Duration;

/// Prefix stamped onto every exported metric family.
const PREFIX: &str = "stpt_";

/// Sanitise a dotted metric name into the Prometheus alphabet
/// `[a-zA-Z0-9_:]` (everything else becomes `_`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Format an `f64` for exposition (`+Inf`/`-Inf`/`NaN` spellings per the
/// text format).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.into()
    } else {
        format!("{v}")
    }
}

/// Rewrite a sanitized duration-counter name to base units: internal
/// counters accumulate integer `_ms`/`_us` ticks (the registry is u64),
/// but exposition follows the Prometheus convention of seconds. Returns
/// the exposed family stem and the divisor (`worker_busy_us` →
/// `worker_busy_seconds`, 1e6).
fn seconds_family(sanitized: &str) -> Option<(String, f64)> {
    if let Some(stem) = sanitized.strip_suffix("_ms") {
        return Some((format!("{stem}_seconds"), 1e3));
    }
    if let Some(stem) = sanitized.strip_suffix("_us") {
        return Some((format!("{stem}_seconds"), 1e6));
    }
    None
}

/// Append one `# HELP` line. The text format wants HELP before TYPE for
/// every family; the registry carries no free-text docs, so the help
/// string names the internal dotted metric the family is derived from.
fn push_help(out: &mut String, family: &str, source: &str, kind: &str) {
    out.push_str(&format!("# HELP {family} STPT {kind} metric `{source}`.\n"));
}

/// Render the current metrics snapshot in Prometheus text format 0.0.4.
pub fn render() -> String {
    let snap = metrics::snapshot();
    let mut out = String::with_capacity(4096);
    for (name, value) in &snap.counters {
        let n = sanitize(name);
        if let Some((stem, divisor)) = seconds_family(&n) {
            let family = format!("{PREFIX}{stem}_total");
            push_help(&mut out, &family, name, "cumulative-seconds counter");
            out.push_str(&format!("# TYPE {family} counter\n"));
            out.push_str(&format!("{family} {}\n", fmt_f64(*value as f64 / divisor)));
        } else {
            // Names already following the Prometheus `_total` convention
            // keep it; others get the suffix (never `_total_total`).
            let family = if n.ends_with("_total") {
                format!("{PREFIX}{n}")
            } else {
                format!("{PREFIX}{n}_total")
            };
            push_help(&mut out, &family, name, "counter");
            out.push_str(&format!("# TYPE {family} counter\n"));
            out.push_str(&format!("{family} {value}\n"));
        }
    }
    for (name, value) in &snap.gauges {
        let n = sanitize(name);
        push_help(&mut out, &format!("{PREFIX}{n}"), name, "gauge");
        out.push_str(&format!("# TYPE {PREFIX}{n} gauge\n"));
        out.push_str(&format!("{PREFIX}{n} {}\n", fmt_f64(*value)));
    }
    for h in &snap.histograms {
        let n = sanitize(h.name);
        push_help(&mut out, &format!("{PREFIX}{n}"), h.name, "log2 histogram");
        out.push_str(&format!("# TYPE {PREFIX}{n} histogram\n"));
        let mut cum = 0u64;
        for &(lb, count) in &h.buckets {
            cum += count;
            // Log2 buckets: upper bound is 2·lb.
            out.push_str(&format!(
                "{PREFIX}{n}_bucket{{le=\"{}\"}} {cum}\n",
                fmt_f64(2.0 * lb)
            ));
        }
        out.push_str(&format!("{PREFIX}{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{PREFIX}{n}_sum {}\n", fmt_f64(h.sum)));
        out.push_str(&format!("{PREFIX}{n}_count {}\n", h.count));
        if h.min.is_finite() {
            push_help(
                &mut out,
                &format!("{PREFIX}{n}_min"),
                h.name,
                "exact-minimum gauge",
            );
            out.push_str(&format!("# TYPE {PREFIX}{n}_min gauge\n"));
            out.push_str(&format!("{PREFIX}{n}_min {}\n", fmt_f64(h.min)));
        }
        if h.max.is_finite() {
            push_help(
                &mut out,
                &format!("{PREFIX}{n}_max"),
                h.name,
                "exact-maximum gauge",
            );
            out.push_str(&format!("# TYPE {PREFIX}{n}_max gauge\n"));
            out.push_str(&format!("{PREFIX}{n}_max {}\n", fmt_f64(h.max)));
        }
    }
    // Observability meta-signals: span-event ring drops and the number of
    // budget-audited runs published so far.
    out.push_str(&format!(
        "# HELP {PREFIX}obs_events_dropped_total Span events dropped by the fixed-capacity event ring.\n# TYPE {PREFIX}obs_events_dropped_total counter\n{PREFIX}obs_events_dropped_total {}\n",
        crate::events::dropped()
    ));
    out.push_str(&format!(
        "# HELP {PREFIX}obs_ledger_published_runs Budget-audited runs published to the DP ledger.\n# TYPE {PREFIX}obs_ledger_published_runs gauge\n{PREFIX}obs_ledger_published_runs {}\n",
        crate::ledger::published_runs()
    ));
    out
}

/// A fresh exposition: take a resource sample ([`crate::resources::sample`],
/// so RSS and CPU time are current), then render the registry.
pub fn scrape() -> Response {
    crate::resources::sample();
    Response {
        status: "200 OK",
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: render(),
    }
}

/// The scrape endpoint: `GET /metrics` (or `/`) answers with [`scrape`],
/// anything else is a `404`. Requests carry no body, so it is served with
/// a body cap of 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape;

impl httpd::Service for Scrape {
    /// One acceptor serves every scrape, so a stalled client is cut off
    /// sooner than on the daemon.
    const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

    fn respond(&self, req: &Request) -> Response {
        if req.method == "GET" && (req.path == "/metrics" || req.path == "/") {
            scrape()
        } else {
            Response {
                status: "404 Not Found",
                content_type: "text/plain; charset=utf-8",
                body: "scrape endpoint: GET /metrics\n".to_string(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    static PROM_COUNTER: crate::Counter = crate::Counter::new("test.prom.counter");
    static PROM_GAUGE: crate::Gauge = crate::Gauge::new("test.prom.gauge");
    static PROM_HIST: crate::Histogram = crate::Histogram::new("test.prom.hist");

    #[test]
    fn sanitize_maps_to_prometheus_alphabet() {
        assert_eq!(sanitize("dp.noise_draws.laplace"), "dp_noise_draws_laplace");
        assert_eq!(sanitize("a-b c"), "a_b_c");
        assert_eq!(sanitize("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn duration_counters_expose_as_seconds() {
        assert_eq!(
            seconds_family("process_cpu_ms"),
            Some(("process_cpu_seconds".into(), 1e3))
        );
        assert_eq!(
            seconds_family("worker_busy_us"),
            Some(("worker_busy_seconds".into(), 1e6))
        );
        assert_eq!(seconds_family("queries_evaluated"), None);
    }

    #[test]
    fn render_emits_valid_families() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        crate::set_enabled(true);
        PROM_COUNTER.add(7);
        PROM_GAUGE.set(2.5);
        PROM_HIST.observe(0.5);
        PROM_HIST.observe(0.5);
        PROM_HIST.observe(3.0);
        crate::set_enabled(false);
        let text = render();
        assert!(text.contains("# HELP stpt_test_prom_counter_total "));
        assert!(text.contains("# TYPE stpt_test_prom_counter_total counter"));
        assert!(text.contains("stpt_test_prom_counter_total 7"));
        assert!(text.contains("# TYPE stpt_test_prom_gauge gauge"));
        assert!(text.contains("stpt_test_prom_gauge 2.5"));
        assert!(text.contains("# TYPE stpt_test_prom_hist histogram"));
        assert!(text.contains("stpt_test_prom_hist_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("stpt_test_prom_hist_count 3"));
        assert!(text.contains("stpt_test_prom_hist_sum 4"));
        assert!(text.contains("stpt_test_prom_hist_min 0.5"));
        assert!(text.contains("stpt_test_prom_hist_max 3"));
        assert!(text.contains("stpt_obs_events_dropped_total"));
        assert!(text.contains("stpt_obs_ledger_published_runs"));
        // Buckets are cumulative: the 0.5 bucket (le=1) holds 2, +Inf 3.
        assert!(text.contains("stpt_test_prom_hist_bucket{le=\"1\"} 2"));
        // Every non-comment line is `name[{labels}] value`.
        for l in text.lines().filter(|l| !l.starts_with('#')) {
            let mut it = l.rsplitn(2, ' ');
            let value = it.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "bad sample line: {l}"
            );
        }
        crate::reset_for_tests();
    }

    #[test]
    fn serve_answers_scrapes_and_404s() {
        let _lock = crate::test_lock();
        crate::reset_for_tests();
        crate::set_enabled(true);
        PROM_COUNTER.add(1);
        crate::set_enabled(false);
        let bound = httpd::serve(Arc::new(Scrape), "127.0.0.1:0", 1, 0)
            .expect("bind an ephemeral port")
            .addr;

        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(bound).expect("connect to scrape endpoint");
            s.write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let ok = get("/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.contains("# TYPE stpt_"));
        let missing = get("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        // A slow-drip header flood is cut off at the byte cap with 413
        // instead of growing the handler's buffer without bound.
        let mut s = TcpStream::connect(bound).expect("connect for drip test");
        s.write_all(b"GET /metrics HTTP/1.1\r\n").unwrap();
        let filler = format!("X-Drip: {}\r\n", "a".repeat(120));
        for _ in 0..200 {
            if s.write_all(filler.as_bytes()).is_err() {
                break; // handler already hung up at the cap
            }
        }
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
        crate::reset_for_tests();
    }
}
