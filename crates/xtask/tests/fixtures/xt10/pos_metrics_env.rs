//! Violating: the live-metrics env vars (`STPT_METRICS_ADDR`,
//! `STPT_METRICS_PERIOD`) and the resource-sampling gate
//! (`STPT_RESOURCES`) are read only at the bench harness entry
//! (`ExperimentEnv::from_env`, into `stpt_obs::ObsConfig`) — reading them
//! anywhere else, `crates/obs` included, would fork the exporter's
//! configuration surface and break hermeticity.
pub fn rogue_scrape_addr() -> Option<String> {
    std::env::var("STPT_METRICS_ADDR").ok()
}

pub fn rogue_period() -> bool {
    std::env::var_os("STPT_METRICS_PERIOD").is_some()
}

pub fn rogue_resource_gate() -> bool {
    std::env::var("STPT_RESOURCES").map_or(true, |v| v != "0")
}
