//! The `release-set` workload: one paper-scale Figure 6 cell (CER,
//! Uniform, 32×32×220, `T_train` 100) through the public functions of
//! `stpt-bench`, `stpt-core`, `stpt-baselines` and `stpt-queries`, each call
//! timed from here. It runs STPT (fast config, ε_tot = 30), the
//! seven-mechanism roster plus WPO, and MRE over the three query classes.

use crate::report::{median, peak_rss_mb, percentile, steal_secs, steal_share, Outcome};
use std::collections::BTreeMap;
use std::time::Instant;
use stpt_bench::{
    baseline_roster, make_instance, mre_of, run_baseline, stpt_config, wpo, ExperimentEnv, Instance,
};
use stpt_core::StptConfig;
use stpt_data::{ConsumptionMatrix, DatasetSpec, SpatialDistribution};
use stpt_queries::QueryClass;

/// The instance every run uses. STPT's MRE varies across reps by far more
/// than any bound the benchmark could set (interquartile range 21% of the
/// median over 16 reps), so the seed does not pick the rep: the workload is
/// one fixed, deterministic computation, and its MREs are recorded for
/// this rep in `expected_mre.txt`.
const REP: u64 = 0;

/// Seconds one pass takes on the machine in README.md. A run makes
/// `seconds / NOMINAL_PASS_S` passes, a count fixed by the run length rather
/// than by how fast this run happens to go.
const NOMINAL_PASS_S: f64 = 7.0;

/// Relative distance an MRE may drift from its recorded value. Reordering
/// floating-point arithmetic moves MREs by about 1e-13; a change in
/// accuracy moves them by orders of magnitude more.
const MRE_DRIFT: f64 = 1e-9;

/// Everything a release run needs before its first timed call.
pub struct Plan {
    env: ExperimentEnv,
    spec: DatasetSpec,
    /// Recorded MREs by label.
    expected: BTreeMap<String, f64>,
}

/// One pass over the workload's call sequence.
#[derive(Debug, Default)]
struct Iteration {
    wall: f64,
    /// Seconds from the start of the pass to the first mechanism call:
    /// the instance (data set, consumption matrix, truth prefix sums) and
    /// the STPT configuration.
    setup: f64,
    /// Every public call in order, with the layer it belongs to.
    calls: Vec<(&'static str, f64)>,
    /// MRE (%) by label, e.g. `Fourier-10/Random`.
    mres: Vec<(String, f64)>,
    stpt_mres: Vec<f64>,
    ledger_entries: usize,
    /// Range answers the MRE evaluation computed.
    answered: u64,
    failures: Vec<String>,
}

impl Plan {
    /// Build the plan, loading the recorded MREs from `expected_path`
    /// (unless `recording`).
    pub fn prepare(expected_path: &str, recording: bool) -> Result<Plan, String> {
        let env = ExperimentEnv {
            reps: 1,
            queries: 300,
            grid: 32,
            hours: 220,
            t_train: 100,
            pp: false,
        };
        let mut expected = BTreeMap::new();
        if !recording {
            let text = std::fs::read_to_string(expected_path)
                .map_err(|e| format!("reading {expected_path}: {e}"))?;
            for line in text.lines().filter(|l| !l.starts_with('#')) {
                let (label, value) = line
                    .split_once(' ')
                    .ok_or_else(|| format!("{expected_path}: bad line '{line}'"))?;
                let v = value
                    .parse()
                    .map_err(|e| format!("{expected_path}: bad value '{value}': {e}"))?;
                expected.insert(label.to_string(), v);
            }
        }
        Ok(Plan {
            env,
            spec: DatasetSpec::CER,
            expected,
        })
    }

    /// Run one pass of the call sequence, timing every public call.
    fn iterate(&self) -> Iteration {
        let start = Instant::now();
        let mut it = Iteration::default();
        let inst = timed(&mut it, "data.generate_s", || {
            make_instance(&self.env, self.spec, SpatialDistribution::Uniform, REP)
        });
        let cfg = stpt_config(&self.env, &self.spec, REP);
        it.setup = start.elapsed().as_secs_f64();
        self.stpt(&mut it, &inst, &cfg);
        let mut mechs = baseline_roster(&self.spec, self.env.hours);
        mechs.push(wpo());
        for mech in &mechs {
            let name = mech.name();
            let (release, _) = timed(&mut it, baseline_layer(&name), || {
                run_baseline(&self.env, mech.as_ref(), &inst, cfg.eps_total(), REP)
            });
            self.evaluate(&mut it, &inst, &release.data, &name, false);
        }
        it.wall = start.elapsed().as_secs_f64();
        it
    }

    /// `run_stpt`, then its budget checks and MREs.
    fn stpt(&self, it: &mut Iteration, inst: &Instance, cfg: &StptConfig) {
        let label = "STPT";
        let eps = cfg.eps_total();
        match timed(it, "core.stpt_s", || {
            stpt_core::run_stpt(&inst.clipped, cfg)
        }) {
            Ok(out) => {
                if (out.epsilon_spent - eps).abs() > 1e-9 * eps {
                    it.failures.push(format!(
                        "{label}: spent ε {} but ε_tot is {eps}",
                        out.epsilon_spent
                    ));
                }
                if !out.audit.consistent {
                    it.failures
                        .push(format!("{label}: ledger replay is inconsistent"));
                }
                it.ledger_entries += out.ledger.len();
                self.evaluate(it, inst, &out.sanitized, label, true);
            }
            Err(e) => it.failures.push(format!("{label}: run_stpt failed: {e}")),
        }
    }

    /// `mre_of` over the three query classes, each checked.
    fn evaluate(
        &self,
        it: &mut Iteration,
        inst: &Instance,
        data: &ConsumptionMatrix,
        label: &str,
        is_stpt: bool,
    ) {
        for class in QueryClass::ALL {
            let mre = timed(it, "queries.eval_s", || {
                mre_of(&self.env, inst, data, class, REP)
            });
            it.answered += self.env.queries as u64;
            let label = format!("{label}/{}", class.label());
            if !mre.is_finite() {
                it.failures
                    .push(format!("{label}: MRE {mre} is not finite"));
            }
            if is_stpt {
                it.stpt_mres.push(mre);
            }
            it.mres.push((label, mre));
        }
    }

    /// Compare an iteration's MREs with the recorded ones.
    fn check_recorded(&self, it: &mut Iteration) {
        for (label, mre) in &it.mres {
            match self.expected.get(label) {
                Some(want) if (mre - want).abs() <= MRE_DRIFT * want.abs() => {}
                Some(want) => it.failures.push(format!(
                    "{label}: MRE {mre} differs from the recorded {want}"
                )),
                None => it.failures.push(format!("{label}: no MRE recorded")),
            }
        }
    }
}

/// Time one public call into `layer`.
fn timed<T>(it: &mut Iteration, layer: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    it.calls.push((layer, t0.elapsed().as_secs_f64()));
    out
}

fn baseline_layer(mechanism: &str) -> &'static str {
    match mechanism {
        "Identity" => "baselines.identity_s",
        "Fourier-10" => "baselines.fourier10_s",
        "Fourier-20" => "baselines.fourier20_s",
        "Wavelet-10" => "baselines.wavelet10_s",
        "Wavelet-20" => "baselines.wavelet20_s",
        "FAST" => "baselines.fast_s",
        "LGAN-DP" => "baselines.lgan_dp_s",
        "WPO" => "baselines.wpo_s",
        _ => "baselines.other_s",
    }
}

/// Fold an iteration's checks into the outcome.
fn tally(out: &mut Outcome, it: &Iteration) {
    out.attempted += it.calls.len() as u64;
    out.failed += it.failures.len() as u64;
    for f in it.failures.iter().take(10) {
        println!("CHECK FAILED: {f}");
    }
}

/// Print the lines of `expected_mre.txt` (`--record`).
pub fn record_expected(plan: &Plan) {
    let it = plan.iterate();
    for f in &it.failures {
        eprintln!("warning: {f}");
    }
    for (label, mre) in &it.mres {
        println!("{label} {mre:?}");
    }
}

/// Untraced run: whole passes of the call sequence filling about
/// `seconds`.
pub fn run_passes(plan: &Plan, seconds: f64, out: &mut Outcome) {
    println!(
        "workload release-set: rep {REP} of 32x32x220 CER Uniform, T_train 100, 300 queries/class"
    );
    let passes = (seconds / NOMINAL_PASS_S).round().max(1.0) as usize;
    let steal0 = steal_secs();
    let mut iters: Vec<Iteration> = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut it = plan.iterate();
        plan.check_recorded(&mut it);
        if iters.first().is_some_and(|first| first.mres != it.mres) {
            it.failures
                .push("MREs differ between passes over one instance".to_string());
        }
        tally(out, &it);
        iters.push(it);
    }
    let walls: Vec<f64> = iters.iter().map(|i| i.wall).collect();
    let setups: Vec<f64> = iters.iter().map(|i| i.setup).collect();
    let steal = steal_share(steal0, walls.iter().sum());
    let calls_ms: Vec<f64> = iters
        .iter()
        .flat_map(|i| i.calls.iter().map(|c| c.1 * 1e3))
        .collect();
    let answered: u64 = iters.iter().map(|i| i.answered).sum();
    let stpt = &iters[0].stpt_mres;
    out.set("wall_s", median(&walls));
    out.set(
        "throughput_qps",
        answered as f64 / walls.iter().sum::<f64>(),
    );
    out.set("latency_p50_ms", median(&calls_ms));
    out.set(
        "stpt_mre_pct",
        stpt.iter().sum::<f64>() / stpt.len().max(1) as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN));
    out.set("setup_s", median(&setups));
    println!(
        "wall_s {:.3} s median of {} passes {walls:.3?}; public-call latency p50 {:.3} ms p99 {:.1} ms over {} calls; host steal {:.1}% of CPU time",
        median(&walls),
        walls.len(),
        median(&calls_ms),
        percentile(&calls_ms, 99.0),
        calls_ms.len(),
        100.0 * steal
    );
    println!(
        "setup_s {:.3} s median of {} pass set-ups {setups:.3?} (make_instance and stpt_config)",
        median(&setups),
        setups.len()
    );
}

/// Traced run: one untraced pass, then one pass with `stpt-obs` tracing on.
/// Layer times are the benchmark's own timings around each public call;
/// the split of `run_stpt` comes from its phase spans.
pub fn run_traced(plan: &Plan, out: &mut Outcome) {
    stpt_obs::set_enabled(false);
    let mut plain = plan.iterate();
    plan.check_recorded(&mut plain);
    tally(out, &plain);
    stpt_obs::reset();
    stpt_obs::set_enabled(true);
    let mut traced = plan.iterate();
    stpt_obs::set_enabled(false);
    plan.check_recorded(&mut traced);
    if traced.mres != plain.mres {
        traced.failures.push("tracing changed the MREs".to_string());
    }
    tally(out, &traced);
    let spans = stpt_obs::trace::snapshot();

    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for (layer, secs) in &traced.calls {
        *layers.entry(layer).or_default() += secs;
    }
    let phase = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|(path, _)| path.ends_with(&format!("stpt/{name}")))
            .map(|(_, s)| s.total_ns as f64 / 1e9)
            .sum()
    };
    let (pattern, partition, sanitize) = (phase("pattern"), phase("partition"), phase("sanitize"));
    for (name, _) in crate::report::PER_LAYER {
        if name.starts_with("data.")
            || name.starts_with("core.")
            || name.starts_with("baselines.")
            || name.starts_with("queries.")
        {
            out.set(name, layers.get(name).copied().unwrap_or(0.0));
        }
    }
    out.set("core.pattern_s", pattern);
    out.set("core.partition_s", partition);
    out.set("core.sanitize_s", sanitize);
    out.set("dp.ledger_entries", traced.ledger_entries as f64);
    out.set("trace.wall_s", traced.wall);
    out.set("trace.overhead_s", traced.wall - plain.wall);
    let attributed: f64 = layers.values().sum();
    out.set("harness.other_s", traced.wall - attributed);

    println!("reconciliation (traced pass, seconds):");
    for (layer, secs) in &layers {
        println!(
            "  {layer:<24} {secs:>9.4}  {:>5.1}%",
            100.0 * secs / traced.wall
        );
    }
    println!(
        "  {:<24} {:>9.4}  (remainder: time between calls)",
        "harness.other_s",
        traced.wall - attributed
    );
    println!("  {:<24} {:>9.4}  = trace.wall_s", "sum", traced.wall);
    let stpt = layers.get("core.stpt_s").copied().unwrap_or(0.0);
    println!(
        "  core.stpt_s {stpt:.4} = pattern {pattern:.4} + partition {partition:.4} + sanitize {sanitize:.4} + stpt.other {:.4} (remainder)",
        stpt - pattern - partition - sanitize
    );
    println!(
        "  trace.overhead_s {:.4} = traced wall {:.4} - untraced wall {:.4}",
        traced.wall - plain.wall,
        traced.wall,
        plain.wall
    );
}
