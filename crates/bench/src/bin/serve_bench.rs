//! `serve_bench` — load generator for the `stpt-serve` batch engine.
//!
//! Sanitizes one release, then measures how many range queries per second
//! [`stpt_serve::answer_batch`] sustains on one thread against the
//! in-memory prefix-sum table. `answer_batch` is a sequential map, so one
//! timed row is the whole measurement. It then closes the serving ledger
//! bracket and embeds the ε-freeness proof, so the committed artifact
//! carries *both* promises the daemon makes: throughput and zero ε spent
//! while serving.
//!
//! Writes `BENCH_serve.json` (gated by `cargo xtask regress`); `--quick`
//! shrinks the release and the measurement window and writes
//! `results/BENCH_serve_quick.json` instead, so CI smoke runs never
//! overwrite the committed baseline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::{Duration, Instant};
use stpt_queries::{generate_queries, QueryClass};
use stpt_serve::{answer_batch, ReleaseSpec};

/// Throughput floor the regress gate holds the committed artifact to.
const TARGET_QPS: f64 = 1_000_000.0;

#[derive(Serialize)]
struct Row {
    qps: f64,
    batches: u64,
}

#[derive(Serialize)]
struct ZeroSpend {
    verified: bool,
    epsilon_spent_serving: f64,
    epsilon_spent_total: f64,
    ledger_entries: usize,
}

#[derive(Serialize)]
struct BenchDoc {
    benchmark: String,
    config: String,
    unit: String,
    target_qps: f64,
    best_qps: f64,
    zero_spend: ZeroSpend,
    results: Vec<Row>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if quick {
                "results/BENCH_serve_quick.json".to_string()
            } else {
                "BENCH_serve.json".to_string()
            }
        });

    let spec = if quick {
        ReleaseSpec {
            grid: 8,
            hours: 16,
            seed: 7,
            smoke: true,
            ..ReleaseSpec::default()
        }
    } else {
        ReleaseSpec {
            grid: 32,
            hours: 128,
            seed: 7,
            smoke: true,
            ..ReleaseSpec::default()
        }
    };
    let batch_size = if quick { 256 } else { 1024 };
    let window = if quick {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(500)
    };

    println!("serve_bench: sanitizing release {} ...", spec.id());
    let t0 = Instant::now();
    let release = spec.build().expect("release spec is valid");
    let (cx, cy, ct) = release.shape;
    println!(
        "serve_bench: release ready in {:.2}s (shape {cx}x{cy}x{ct}, eps spent {:.3})",
        t0.elapsed().as_secs_f64(),
        release.epsilon_spent_sanitize
    );

    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5e57e);
    let queries = generate_queries(QueryClass::Random, batch_size, release.shape, &mut rng);

    println!(
        "serve_bench: {batch_size} random queries/batch, {}ms window",
        window.as_millis()
    );
    // Warmup: fault in the table.
    for _ in 0..3 {
        let _ = answer_batch(&release.prefix, &queries);
    }
    let start = Instant::now();
    let mut batches = 0u64;
    while start.elapsed() < window {
        let answers = answer_batch(&release.prefix, &queries);
        assert_eq!(answers.len(), queries.len());
        batches += 1;
    }
    let qps = (batches * batch_size as u64) as f64 / start.elapsed().as_secs_f64();
    release.note_queries(batches * batch_size as u64);
    println!("  {qps:>12.0} queries/sec ({batches} batches)");

    // Close the serving bracket and prove ε-freeness over everything the
    // measurement just did.
    let proof = release.prove().expect("serving must be ε-free");
    let doc = BenchDoc {
        benchmark: "serve_bench".to_string(),
        config: format!(
            "{} release {cx}x{cy}x{ct}, {batch_size} random queries/batch",
            spec.dataset
        ),
        unit: "range queries per second".to_string(),
        target_qps: TARGET_QPS,
        best_qps: qps,
        zero_spend: ZeroSpend {
            verified: proof.verified,
            epsilon_spent_serving: proof.epsilon_spent_serving,
            epsilon_spent_total: proof.epsilon_spent_total,
            ledger_entries: proof.ledger_entries,
        },
        results: vec![Row { qps, batches }],
    };

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    let json = serde_json::to_string_pretty(&doc).expect("bench doc serializes");
    std::fs::write(&out_path, json).expect("write bench artifact");
    println!(
        "serve_bench: {qps:.0} queries/sec (target {TARGET_QPS:.0}), \
         eps spent serving = {} (verified={}) -> {out_path}",
        doc.zero_spend.epsilon_spent_serving, doc.zero_spend.verified
    );
    if qps < TARGET_QPS && !quick {
        eprintln!("serve_bench: WARNING: qps below target — regress gate will fail");
        std::process::exit(1);
    }
}
