//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 5). Each `src/bin/figN.rs` binary prints the rows or
//! series the paper reports and dumps machine-readable JSON under
//! `results/`.
//!
//! Scale knobs (environment variables):
//!
//! * `STPT_REPS` — repetitions averaged per configuration (default 3; the
//!   paper uses 10 — set `STPT_REPS=10` for the full run).
//! * `STPT_QUERIES` — queries per workload class (default 300, as in the
//!   paper).
//! * `STPT_GRID` — grid side length (default 32, as in the paper).
//! * `STPT_HOURS` — series length in granules (default 220 days = 100 train
//!   + 120 test, the paper's release length).

#![forbid(unsafe_code)]

use rand::SeedableRng;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;
use stpt_baselines::{Fast, Fourier, Identity, LganDp, Mechanism, Wavelet, Wpo};
use stpt_core::{run_stpt, Presanitized, Release, ReleasePipeline, StptConfig, StptOutput};
use stpt_data::{ConsumptionMatrix, Dataset, DatasetSpec, Granularity, SpatialDistribution};
use stpt_dp::rng::run_seed;
use stpt_dp::{DpError, DpRng};
use stpt_queries::{
    default_rho, evaluate_workload_with, generate_queries, PrefixSum3D, QueryClass,
};

/// Telemetry: thread count the `rayon` seam resolved to for this process
/// (`STPT_THREADS`, or the machine's available parallelism).
static BENCH_THREADS: stpt_obs::Gauge = stpt_obs::Gauge::new("bench.threads");
/// Telemetry: wall-clock seconds from harness start ([`ExperimentEnv::from_env`])
/// to result emission — the speedup numerator/denominator when comparing
/// `STPT_THREADS` settings.
static BENCH_WALL_SECS: stpt_obs::Gauge = stpt_obs::Gauge::new("bench.wall_secs");
static PROCESS_START: OnceLock<Instant> = OnceLock::new();
/// Telemetry directory of the observability settings
/// [`ExperimentEnv::from_env`] applied; [`emit_result`] writes there.
static TELEMETRY_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Scale parameters shared by all experiments.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ExperimentEnv {
    /// Repetitions averaged per configuration.
    pub reps: u64,
    /// Queries per workload class.
    pub queries: usize,
    /// Grid side (cx = cy).
    pub grid: usize,
    /// Series length C_t.
    pub hours: usize,
    /// Training prefix T_train.
    pub t_train: usize,
    /// Run the ε-free consistency post-processing stage on every release.
    pub pp: bool,
}

impl ExperimentEnv {
    /// Read the environment, falling back to the defaults above. Also
    /// starts the process wall-clock used by the `bench.wall_secs` gauge.
    pub fn from_env() -> Self {
        PROCESS_START.get_or_init(Instant::now);
        // xtask-allow(XT10): the one sanctioned env reader — every scale knob read here is recorded in the result envelope, and the stpt-obs settings only switch exporters, which never change results
        let var = |k: &str| std::env::var(k).ok();
        // Observability (STPT_TRACE*, STPT_RESOURCES, STPT_METRICS_*,
        // STPT_TELEMETRY_DIR), parsed and applied once per process; live
        // settings start the collector ring and the Prometheus scrape
        // listener. Strictly read-only over results — envelopes are
        // byte-identical with every exporter on or off (checked in CI).
        TELEMETRY_DIR.get_or_init(|| {
            let config = stpt_obs::ObsConfig::from_lookup(var);
            config.apply();
            config.telemetry_dir
        });
        let get = |k: &str, d: usize| var(k).and_then(|v| v.parse().ok()).unwrap_or(d);
        ExperimentEnv {
            reps: get("STPT_REPS", 3) as u64,
            queries: get("STPT_QUERIES", 300),
            grid: get("STPT_GRID", 32),
            hours: get("STPT_HOURS", 220),
            t_train: get("STPT_TRAIN", 100),
            pp: get("STPT_POSTPROCESS", 0) != 0,
        }
    }
}

/// Per-repetition spread of a measured quantity. Serialised wherever a
/// figure used to report a bare rep-averaged number, so downstream
/// consumers (`cargo xtask baseline`) can derive tolerance bands from the
/// `STPT_REPS`-rep spread instead of guessing one.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Spread {
    /// Mean over repetitions.
    pub mean: f64,
    /// Population standard deviation over repetitions.
    pub std: f64,
    /// Minimum over repetitions.
    pub min: f64,
    /// Maximum over repetitions.
    pub max: f64,
    /// Number of repetitions.
    pub n: u64,
}

impl Spread {
    /// Summarise per-rep samples. An empty slice yields a NaN-mean spread
    /// (serialised as `null`), which a baseline consumer must treat as
    /// missing rather than zero.
    pub fn of(values: &[f64]) -> Spread {
        let n = values.len() as u64;
        if n == 0 {
            return Spread {
                mean: f64::NAN,
                std: f64::NAN,
                min: f64::NAN,
                max: f64::NAN,
                n,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        Spread {
            mean,
            std: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n,
        }
    }
}

/// One generated evaluation instance: the true (unclipped) matrix queries
/// are answered against, and the clipped matrix mechanisms consume.
pub struct Instance {
    /// Dataset spec used.
    pub spec: DatasetSpec,
    /// Per-granule contribution bound (hourly clip x 24 at day granularity).
    pub clip: f64,
    /// Spatial distribution used.
    pub distribution: SpatialDistribution,
    /// Accuracy reference: the clipped matrix. Table 2's sensitivity
    /// clipping factor *defines* the released dataset (every mechanism
    /// consumes clipped readings), so utility is measured against it —
    /// otherwise all mechanisms share an irreducible clipping bias that
    /// masks their differences.
    pub truth: ConsumptionMatrix,
    /// Clipped matrix (mechanism input, identical to `truth`).
    pub clipped: ConsumptionMatrix,
    /// Prefix-sum table over `truth`, built once per instance: every
    /// [`mre_of`] call reuses it instead of rebuilding the O(cells) table
    /// per evaluated release.
    pub truth_ps: PrefixSum3D,
    /// Denominator floor ([`default_rho`]) of `truth`, cached with the
    /// table.
    pub rho: f64,
}

/// Generate an instance for `(spec, dist)` with a deterministic per-rep seed.
pub fn make_instance(
    env: &ExperimentEnv,
    spec: DatasetSpec,
    dist: SpatialDistribution,
    rep: u64,
) -> Instance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(run_seed(hash_name(spec.name), rep));
    // The paper's evaluation releases T = 220 points at day granularity
    // (Section 3.1, Appendix C).
    let ds = Dataset::generate_at(spec, dist, Granularity::Daily, env.hours, &mut rng);
    let clipped = ds.consumption_matrix(env.grid, env.grid, true);
    let truth = clipped.clone();
    let truth_ps = PrefixSum3D::new(&truth);
    let rho = default_rho(&truth);
    Instance {
        spec,
        clip: ds.clip_bound(),
        distribution: dist,
        truth,
        clipped,
        truth_ps,
        rho,
    }
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// MRE of `sanitized` against the instance truth for one query class.
pub fn mre_of(
    env: &ExperimentEnv,
    inst: &Instance,
    sanitized: &ConsumptionMatrix,
    class: QueryClass,
    rep: u64,
) -> f64 {
    let mut qrng = rand::rngs::StdRng::seed_from_u64(run_seed(0x9_0e5, rep));
    let queries = generate_queries(class, env.queries, inst.truth.shape(), &mut qrng);
    evaluate_workload_with(&inst.truth_ps, inst.rho, sanitized, &queries).mre
}

/// The Figure 6 baseline roster (in the paper's legend order).
pub fn baseline_roster(spec: &DatasetSpec, ct: usize) -> Vec<Box<dyn Mechanism + Send + Sync>> {
    vec![
        Box::new(Identity),
        Box::new(Fourier::new(10)),
        Box::new(Fourier::new(20)),
        Box::new(Wavelet::new(10)),
        Box::new(Wavelet::new(20)),
        Box::new(Fast::default_for(ct)),
        Box::new(LganDp::new(spec.households)),
    ]
}

/// The WPO mechanism for Figure 7.
pub fn wpo() -> Box<dyn Mechanism + Send + Sync> {
    Box::new(Wpo::default())
}

/// Run a baseline mechanism with a per-(mechanism, rep) seed through the
/// staged release pipeline; returns the [`Release`] and the wall-clock
/// seconds. When `env.pp` is set, the unaudited pipeline runs the ε-free
/// consistency stage on the baseline's output (and verifies its proof), so
/// baselines and STPT are compared at the same release stage.
pub fn run_baseline(
    env: &ExperimentEnv,
    mech: &dyn Mechanism,
    inst: &Instance,
    eps_total: f64,
    rep: u64,
) -> (Release, f64) {
    let seed = run_seed(hash_name(&mech.name()), rep);
    let mut rng = DpRng::seed_from_u64(seed);
    let start = Instant::now();
    let raw = mech.raw_release(&inst.clipped, inst.clip, eps_total, &mut rng);
    let pipeline = ReleasePipeline {
        eps_total,
        seed,
        postprocess: env.pp,
        audited: false,
    };
    let release = pipeline
        .run(
            &mut Presanitized::new(raw.mechanism, raw.data),
            &inst.clipped,
        )
        // xtask-allow(XT04): a pre-sanitized release spends nothing on the accountant, so its proofs always verify
        .expect("a pre-sanitized release spends nothing, so its proofs verify");
    (release, start.elapsed().as_secs_f64())
}

/// Default STPT configuration for an instance at this experiment scale
/// (fast network; the paper network is selected by the Figure 8i binary).
pub fn stpt_config(env: &ExperimentEnv, spec: &DatasetSpec, rep: u64) -> StptConfig {
    let mut cfg = StptConfig::fast(spec.clip * 24.0);
    cfg.t_train = env.t_train;
    cfg.seed = run_seed(0x57_97, rep);
    cfg.net.seed = cfg.seed ^ 0xabcd;
    // Depth must keep the grid divisible and leave windows in each segment.
    cfg.depth = cfg.depth.min(env.grid.trailing_zeros() as usize);
    cfg.postprocess = env.pp;
    cfg
}

/// Run STPT; returns the output and wall-clock seconds.
///
/// Errors propagate from [`run_stpt`] — in practice only when `cfg`'s
/// budget fractions are inconsistent with its total.
pub fn run_stpt_timed(inst: &Instance, cfg: &StptConfig) -> Result<(StptOutput, f64), DpError> {
    let start = Instant::now();
    let out = run_stpt(&inst.clipped, cfg)?;
    Ok((out, start.elapsed().as_secs_f64()))
}

/// Envelope schema version written by [`emit_result`]. Bumped whenever the
/// envelope shape changes so consumers (`cargo xtask regress`) can give a
/// pointed error on stale files instead of a shape mismatch.
pub const ENVELOPE_SCHEMA: u32 = 2;

/// Write a run's result blob under `results/<name>.json`.
///
/// Every bench binary routes its machine-readable output through this one
/// helper: the payload is wrapped in an envelope carrying the envelope
/// schema version, a creation timestamp (unix seconds), the experiment
/// scale ([`ExperimentEnv`]) and — when `STPT_TRACE` is on — the run's
/// telemetry snapshot (spans, metrics, budget ledger verdict; the per-draw
/// ledger audit trail is elided from the envelope). The full snapshot is
/// written standalone under `results/telemetry/<name>.json`, and when
/// `STPT_TRACE_EVENTS` is on the timestamped span events land next to it
/// as a Chrome trace (`results/telemetry/<name>.trace.json`).
pub fn emit_result<T: Serialize>(name: &str, env: &ExperimentEnv, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        stpt_obs::diag!("warning: could not create results/");
        return;
    }
    let data = match serde_json::to_string_pretty(value) {
        Ok(s) => s,
        Err(e) => {
            stpt_obs::diag!("warning: could not serialise {name}: {e}");
            return;
        }
    };
    let env_json = serde_json::to_string(env).unwrap_or_else(|_| "null".to_string());
    let created_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or_default();
    // Thread count and wall clock land in gauges, not in the envelope's
    // env/data: the gauges are STPT_TRACE-gated, so the envelope stays
    // byte-identical across STPT_THREADS settings when tracing is off.
    BENCH_THREADS.set(rayon::current_num_threads() as f64);
    if let Some(start) = PROCESS_START.get() {
        BENCH_WALL_SECS.set(start.elapsed().as_secs_f64());
    }
    // One final resource sample before the summary is rendered: a short
    // traced run without phase spans may never hit a collector tick or a
    // phase boundary, and would otherwise ship no process gauges at all.
    stpt_obs::resources::sample();
    // The telemetry document is produced by stpt-obs's dependency-free
    // writer, so it is spliced in as a pre-rendered JSON fragment.
    // The per-draw ledger audit trail is megabytes at experiment scale, so
    // the envelope inlines the summary (aggregate ledger verdict only); the
    // full trail lives in the standalone telemetry file written below.
    let telemetry = if stpt_obs::enabled() {
        stpt_obs::export::telemetry_summary_json(name)
    } else {
        "null".to_string()
    };
    let doc = format!(
        "{{\n\"name\": \"{name}\",\n\"schema\": {ENVELOPE_SCHEMA},\n\"created_unix\": {created_unix},\n\"env\": {env_json},\n\"data\": {data},\n\"telemetry\": {telemetry}\n}}\n"
    );
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, doc) {
        stpt_obs::diag!("warning: could not write {}: {e}", path.display());
    }
    // No settings applied means every exporter is off: nothing to write.
    if let Some(telemetry_dir) = TELEMETRY_DIR.get() {
        stpt_obs::export::write_files(telemetry_dir, name);
    }
}

/// Format a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
// Exact float assertions in these tests are deliberate (bitwise-reproducible
// quantities); float_cmp stays deny in library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn small_env() -> ExperimentEnv {
        ExperimentEnv {
            reps: 1,
            queries: 50,
            grid: 8,
            hours: 40,
            t_train: 25,
            pp: false,
        }
    }

    #[test]
    fn spread_summarises_rep_samples() {
        let s = Spread::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.n, 3);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let empty = Spread::of(&[]);
        assert!(empty.mean.is_nan());
        assert_eq!(empty.n, 0);
    }

    #[test]
    fn instance_generation_is_deterministic_per_rep() {
        let env = small_env();
        let mut spec = DatasetSpec::CA;
        spec.households = 50;
        let a = make_instance(&env, spec, SpatialDistribution::Uniform, 0);
        let b = make_instance(&env, spec, SpatialDistribution::Uniform, 0);
        assert_eq!(a.truth.data(), b.truth.data());
        let c = make_instance(&env, spec, SpatialDistribution::Uniform, 1);
        assert_ne!(a.truth.data(), c.truth.data());
    }

    #[test]
    fn baseline_roster_has_seven_mechanisms() {
        let roster = baseline_roster(&DatasetSpec::CER, 40);
        assert_eq!(roster.len(), 7);
        let names: Vec<String> = roster.iter().map(|m| m.name()).collect();
        assert!(names.contains(&"Identity".to_string()));
        assert!(names.contains(&"Fourier-10".to_string()));
        assert!(names.contains(&"Wavelet-20".to_string()));
        assert!(names.contains(&"FAST".to_string()));
        assert!(names.contains(&"LGAN-DP".to_string()));
    }

    #[test]
    fn mre_is_zero_for_perfect_release() {
        let env = small_env();
        let mut spec = DatasetSpec::CA;
        spec.households = 50;
        let inst = make_instance(&env, spec, SpatialDistribution::Uniform, 0);
        let mre = mre_of(&env, &inst, &inst.truth.clone(), QueryClass::Random, 0);
        assert_eq!(mre, 0.0);
    }

    #[test]
    fn stpt_beats_identity_on_small_instance() {
        // The headline claim at miniature scale: STPT's MRE is lower than
        // Identity's on random queries.
        let env = small_env();
        let mut spec = DatasetSpec::CER;
        spec.households = 400;
        let inst = make_instance(&env, spec, SpatialDistribution::Uniform, 0);
        let mut cfg = stpt_config(&env, &spec, 0);
        cfg.depth = 2;
        cfg.net.embed_dim = 8;
        cfg.net.hidden_dim = 8;
        cfg.net.window = 4;
        cfg.net.epochs = 3;
        let (stpt_out, _) = run_stpt_timed(&inst, &cfg).expect("config budget is consistent");
        let stpt_mre = mre_of(&env, &inst, &stpt_out.sanitized, QueryClass::Random, 0);
        let (id_out, _) = run_baseline(&env, &Identity, &inst, cfg.eps_total(), 0);
        let id_mre = mre_of(&env, &inst, &id_out.data, QueryClass::Random, 0);
        assert!(
            stpt_mre < id_mre,
            "STPT MRE {stpt_mre} not below Identity {id_mre}"
        );
    }
}
