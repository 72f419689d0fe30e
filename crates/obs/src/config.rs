//! [`ObsConfig`]: every observability setting of one process, parsed once
//! at a binary's entry point and applied to the crate's plain switches.
//!
//! The crate itself reads no environment. [`ObsConfig::from_lookup`] takes
//! the variable lookup as a closure, so the one process-level reader (the
//! bench harness's `ExperimentEnv::from_env`) stays the only place that
//! touches `std::env`, and tests parse from a table.

use crate::{events, export, httpd, prometheus, resources, timeseries};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Observability settings, one field per `STPT_*` variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// `STPT_TRACE`: aggregate spans, metrics, the ledger and the
    /// telemetry envelope.
    pub trace: bool,
    /// `STPT_TRACE_EVENTS`: timestamped span events (Chrome trace,
    /// folded flamegraph).
    pub events: bool,
    /// `STPT_TRACE_EVENT_CAP`: capacity of the span-event ring, in events.
    pub event_cap: usize,
    /// `STPT_RESOURCES`: `/proc` resource sampling.
    pub resources: bool,
    /// `STPT_METRICS_PERIOD`: period of the background time-series
    /// collector.
    pub metrics_period: Option<Duration>,
    /// `STPT_METRICS_ADDR`: bind address of the Prometheus scrape
    /// listener, e.g. `127.0.0.1:9184`.
    pub metrics_addr: Option<String>,
    /// `STPT_TELEMETRY_DIR`: directory the telemetry files land in.
    pub telemetry_dir: PathBuf,
}

impl Default for ObsConfig {
    /// Everything off except resource sampling, the default ring capacity
    /// and `results/telemetry`.
    fn default() -> Self {
        ObsConfig {
            trace: false,
            events: false,
            event_cap: events::DEFAULT_CAPACITY,
            resources: true,
            metrics_period: None,
            metrics_addr: None,
            telemetry_dir: PathBuf::from(export::DEFAULT_DIR),
        }
    }
}

impl ObsConfig {
    /// Parse the settings from `lookup` (a variable name to its value, or
    /// `None` when unset).
    ///
    /// * The switches are on for any value other than empty or `0`;
    ///   unset leaves the default.
    /// * An event cap that is not a positive integer keeps the default.
    /// * The period reads `250ms`, `2s` or bare milliseconds; a bad one is
    ///   reported on stderr and replaced by 1 s.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> ObsConfig {
        let d = ObsConfig::default();
        let switch =
            |name: &str, default: bool| lookup(name).map_or(default, |v| !v.is_empty() && v != "0");
        let metrics_period =
            lookup("STPT_METRICS_PERIOD").map(|v| match timeseries::parse_period(&v) {
                Ok(p) => p,
                Err(err) => {
                    crate::diag!("live telemetry: bad STPT_METRICS_PERIOD ({err}); using 1s");
                    timeseries::DEFAULT_PERIOD
                }
            });
        ObsConfig {
            trace: switch("STPT_TRACE", d.trace),
            events: switch("STPT_TRACE_EVENTS", d.events),
            event_cap: lookup("STPT_TRACE_EVENT_CAP")
                .and_then(|v| v.parse().ok())
                .filter(|&c| c > 0)
                .unwrap_or(d.event_cap),
            resources: switch("STPT_RESOURCES", d.resources),
            metrics_period,
            metrics_addr: lookup("STPT_METRICS_ADDR"),
            telemetry_dir: lookup("STPT_TELEMETRY_DIR").map_or(d.telemetry_dir, PathBuf::from),
        }
    }

    /// Whether live monitoring is asked for: either metrics setting alone
    /// turns it on (an address alone collects at the default period; a
    /// period alone records the ring for post-mortem inspection).
    pub fn live(&self) -> bool {
        self.metrics_period.is_some() || self.metrics_addr.is_some()
    }

    /// Set the crate's switches from this config and, when [`Self::live`],
    /// start the time-series collector and the scrape listener. Failures
    /// (a busy port) are reported on stderr and never take down the run.
    /// Call once per process: the collector starts at most once, and a
    /// second scrape listener would find its port taken.
    pub fn apply(&self) {
        crate::set_enabled(self.trace);
        crate::set_events_enabled(self.events);
        events::set_capacity(self.event_cap);
        resources::set_resources_enabled(self.resources);
        crate::set_live_enabled(self.live());
        if !self.live() {
            return;
        }
        timeseries::start_collector(self.metrics_period.unwrap_or(timeseries::DEFAULT_PERIOD));
        if let Some(addr) = &self.metrics_addr {
            match httpd::serve(Arc::new(prometheus::Scrape), addr, 1, 0) {
                Ok(listener) => crate::diag!(
                    "live telemetry: serving /metrics on http://{}/metrics",
                    listener.addr
                ),
                Err(err) => crate::diag!("live telemetry: could not bind {addr}: {err}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> ObsConfig {
        ObsConfig::from_lookup(|k| {
            vars.iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_environment_is_the_default() {
        let d = ObsConfig::default();
        assert_eq!(parse(&[]), d);
        assert!(!d.trace && !d.events && !d.live());
        assert!(d.resources);
        assert_eq!(d.event_cap, 1 << 16);
        assert_eq!(d.telemetry_dir, PathBuf::from("results/telemetry"));
    }

    #[test]
    fn applying_the_default_leaves_the_gates_as_an_unset_environment_did() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::set_events_enabled(true);
        resources::set_resources_enabled(false);
        events::set_capacity(3);
        ObsConfig::default().apply();
        assert!(!crate::enabled() && !crate::events_enabled() && !crate::live_enabled());
        assert!(resources::resources_enabled());
        assert_eq!(events::capacity(), 1 << 16);
    }

    #[test]
    fn empty_or_zero_disables_and_anything_else_enables() {
        for off in ["", "0"] {
            let c = parse(&[
                ("STPT_TRACE", off),
                ("STPT_TRACE_EVENTS", off),
                ("STPT_RESOURCES", off),
            ]);
            assert!(!c.trace && !c.events && !c.resources, "{off:?}: {c:?}");
        }
        for on in ["1", "yes", "00"] {
            let c = parse(&[("STPT_TRACE", on), ("STPT_TRACE_EVENTS", on)]);
            assert!(c.trace && c.events, "{on:?}: {c:?}");
        }
    }

    #[test]
    fn either_metrics_variable_alone_turns_live_on() {
        let addr = parse(&[("STPT_METRICS_ADDR", "127.0.0.1:9184")]);
        assert!(addr.live());
        assert_eq!(addr.metrics_period, None);
        assert_eq!(addr.metrics_addr.as_deref(), Some("127.0.0.1:9184"));
        let period = parse(&[("STPT_METRICS_PERIOD", "250ms")]);
        assert!(period.live());
        assert_eq!(period.metrics_period, Some(Duration::from_millis(250)));
        assert_eq!(
            parse(&[("STPT_METRICS_PERIOD", "2s")]).metrics_period,
            Some(Duration::from_secs(2))
        );
        assert_eq!(
            parse(&[("STPT_METRICS_PERIOD", "750")]).metrics_period,
            Some(Duration::from_millis(750))
        );
    }

    #[test]
    fn bad_period_falls_back_to_one_second() {
        for bad in ["fast", "0", "1.5s", ""] {
            let c = parse(&[("STPT_METRICS_PERIOD", bad)]);
            assert_eq!(c.metrics_period, Some(Duration::from_secs(1)), "{bad:?}");
            assert!(c.live());
        }
    }

    #[test]
    fn event_cap_and_telemetry_dir_parse() {
        let c = parse(&[
            ("STPT_TRACE_EVENT_CAP", "128"),
            ("STPT_TELEMETRY_DIR", "/tmp/t"),
        ]);
        assert_eq!(c.event_cap, 128);
        assert_eq!(c.telemetry_dir, PathBuf::from("/tmp/t"));
        for bad in ["0", "-3", "many", ""] {
            let c = parse(&[("STPT_TRACE_EVENT_CAP", bad)]);
            assert_eq!(c.event_cap, events::DEFAULT_CAPACITY, "{bad:?}");
        }
    }
}
