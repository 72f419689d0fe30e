//! Serving workloads: the real `stpt-serve` binary, driven over TCP by a
//! closed loop of `nproc` clients in this process, every answer checked
//! against a reference release built in-process from the same
//! `ReleaseSpec`.
//!
//! * `serve-point` — `GET /query`, one random range per request; about 5%
//!   hostile requests and 1% operator requests (`/metrics`, `/releases`).
//! * `serve-batch` — `POST /query` with 1024 random ranges per request;
//!   about 1% of ranges out of bounds and 2% of batches holding an
//!   inverted range.

use crate::http::{self, Client, Response};
use crate::report::{
    median, nproc, own_cpu_secs, peak_rss_mb, percentile, steal_secs, steal_share, Outcome,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stpt_data::{Dataset, Granularity, SpatialDistribution};
use stpt_obs::httpd;
use stpt_queries::{
    default_rho, generate_queries, relative_error, PrefixSum3D, QueryClass, RangeQuery,
};
use stpt_serve::{
    answer_batch, handle_request, CachedRelease, ReleaseCache, ReleaseSpec, ServerState,
};

/// Queries per `POST /query` batch.
const BATCH: usize = 1024;
/// Daemon start-ups timed per run; the last one serves the window.
const SETUP_SAMPLES: usize = 5;
/// Queries per class in the accuracy probe.
const PROBE_QUERIES: usize = 300;
/// Share of the run length spent on untimed load before the window. The
/// daemon's first requests fault in its heap and warm the kernel's socket
/// paths, a cost users pay once per daemon rather than per request.
const WARMUP_SHARE: f64 = 0.1;
/// Requests each client sends in the timed window per second of run
/// length, on `serve-point` and `serve-batch`: about half of what it sends
/// on the machine in README.md. `wall_s` is the time until every client
/// has sent its share, and the window lasts until then at least, so this
/// is a fixed amount of work whatever the program's speed.
const WALL_REQUESTS_PER_S: [f64; 2] = [3_000.0, 120.0];
/// Equal parts the timed window is cut into. Throughput and p50 latency
/// are the medians of their values in each part, so a few seconds in which
/// the machine's neighbours slow it down move them less.
const SUB_WINDOWS: usize = 10;
/// Seed of the accuracy probe. Fixed, like the release, so that
/// `stpt_mre_pct` compares across runs; the run's seed drives the load.
const PROBE_SEED: u64 = 0xacc0;

/// How long a load lasts: until `seconds` have passed and each client has
/// sent `requests` requests.
#[derive(Debug, Clone, Copy)]
struct Load {
    seconds: f64,
    requests: usize,
}

/// Which serving workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve-point`.
    Point,
    /// `serve-batch`.
    Batch,
}

/// The release both the daemon and the reference serve.
pub fn release_spec() -> ReleaseSpec {
    ReleaseSpec {
        dataset: "CER".to_string(),
        grid: 32,
        hours: 128,
        eps_pattern: 10.0,
        eps_sanitize: 20.0,
        seed: 42,
        postprocess: true,
        smoke: true,
    }
}

/// The daemon's argv: the same spec as [`release_spec`], one acceptor per
/// CPU.
pub fn daemon_args() -> Vec<String> {
    let acceptors = nproc().to_string();
    [
        "--addr",
        "127.0.0.1:0",
        "--dataset",
        "CER",
        "--grid",
        "32",
        "--hours",
        "128",
        "--eps",
        "30",
        "--seed",
        "42",
        "--smoke",
        "--acceptors",
        &acceptors,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Which route a request goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Query,
    Scrape,
    Prove,
}

/// What a correct daemon answers.
#[derive(Debug)]
enum Expect {
    /// A valid range: 200 with exactly this sum.
    Sum(f64),
    /// A hostile single query: a 4xx, never a sum.
    Reject,
    /// A batch: per query the reference sum, or `None` where the query
    /// must get an error. A batch holding an inverted range may instead be
    /// rejected whole with a 400.
    Batch {
        sums: Vec<Option<f64>>,
        inverted: bool,
    },
    /// `GET /metrics`: the exposition text.
    Metrics,
    /// `GET /releases`: a verified proof with zero serving spend.
    Proof,
}

/// One generated request.
struct Planned {
    route: Route,
    raw: Vec<u8>,
    expect: Expect,
    /// The ranges the route hands to `answer_batch`.
    evaluated: Vec<RangeQuery>,
}

/// Generates a workload's request stream from a seed.
struct Generator<'a> {
    kind: Kind,
    rng: StdRng,
    reference: &'a CachedRelease,
}

impl Generator<'_> {
    fn next_request(&mut self) -> Planned {
        match self.kind {
            Kind::Point => self.point(),
            Kind::Batch => self.batch(),
        }
    }

    fn random_range(&mut self) -> RangeQuery {
        generate_queries(QueryClass::Random, 1, self.reference.shape, &mut self.rng)[0]
    }

    fn point(&mut self) -> Planned {
        let id = &self.reference.id;
        let draw: f64 = self.rng.gen();
        if draw < 0.01 {
            let (route, path, expect) = if self.rng.gen_bool(0.5) {
                (Route::Scrape, "/metrics", Expect::Metrics)
            } else {
                (Route::Prove, "/releases", Expect::Proof)
            };
            return Planned {
                route,
                raw: http::get(path),
                expect,
                evaluated: Vec::new(),
            };
        }
        let q = self.random_range();
        let mut coords = coords_of(&q);
        let (expect, evaluated) = if draw < 0.06 {
            let (cx, _, ct) = self.reference.shape;
            match self.rng.gen_range(0..3) {
                0 => {
                    let bad = ["abc", "-1", "1.5", "", "0x10"];
                    coords[self.rng.gen_range(0..6usize)] =
                        bad[self.rng.gen_range(0..bad.len())].into();
                }
                1 => coords.swap(4, 5),
                _ => {
                    if self.rng.gen_bool(0.5) {
                        coords[1] = (cx + self.rng.gen_range(1..64usize)).to_string();
                    } else {
                        coords[5] = (ct + self.rng.gen_range(1..1000usize)).to_string();
                    }
                }
            }
            (Expect::Reject, Vec::new())
        } else {
            let sum = self.reference.prefix.range_sum(&q);
            (Expect::Sum(sum), vec![q])
        };
        Planned {
            route: Route::Query,
            raw: point_request(id, &coords),
            expect,
            evaluated,
        }
    }

    fn batch(&mut self) -> Planned {
        let shape = self.reference.shape;
        let mut queries = generate_queries(QueryClass::Random, BATCH, shape, &mut self.rng);
        let mut sums = Vec::with_capacity(BATCH);
        for q in &mut queries {
            if self.rng.gen_bool(0.01) {
                if self.rng.gen_bool(0.5) {
                    q.x.1 = shape.0 + self.rng.gen_range(1..64usize);
                } else {
                    q.t.1 = shape.2 + self.rng.gen_range(1..1000usize);
                }
                sums.push(None);
            } else {
                sums.push(Some(self.reference.prefix.range_sum(q)));
            }
        }
        let inverted = self.rng.gen_bool(0.02);
        if inverted {
            let i = self.rng.gen_range(0..BATCH);
            queries[i].y = (queries[i].y.1, queries[i].y.0);
            sums[i] = None;
        }
        Planned {
            route: Route::Query,
            raw: batch_request(&self.reference.id, &queries),
            expect: Expect::Batch { sums, inverted },
            evaluated: if inverted { Vec::new() } else { queries },
        }
    }
}

/// A range's six coordinates as query-string values.
fn coords_of(q: &RangeQuery) -> [String; 6] {
    [q.x.0, q.x.1, q.y.0, q.y.1, q.t.0, q.t.1].map(|c| c.to_string())
}

/// `GET /query` for one range, given as query-string values.
fn point_request(id: &str, c: &[String; 6]) -> Vec<u8> {
    http::get(&format!(
        "/query?release={id}&x0={}&x1={}&y0={}&y1={}&t0={}&t1={}",
        c[0], c[1], c[2], c[3], c[4], c[5]
    ))
}

/// `POST /query` with a JSON batch of ranges.
fn batch_request(id: &str, queries: &[RangeQuery]) -> Vec<u8> {
    let mut body = String::with_capacity(queries.len() * 48 + 64);
    body.push_str(&format!("{{\"release\":\"{id}\",\"queries\":["));
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"x\":[{},{}],\"y\":[{},{}],\"t\":[{},{}]}}",
            q.x.0, q.x.1, q.y.0, q.y.1, q.t.0, q.t.1
        ));
    }
    body.push_str("]}");
    http::post("/query", &body)
}

/// The outcome of one response.
#[derive(Debug, Default)]
struct Verdict {
    /// Answers returned with a sum.
    sums: u64,
    /// Why the response is unexpected, if it is.
    error: Option<String>,
}

fn check(p: &Planned, resp: &Response, id: &str) -> Verdict {
    let mut v = Verdict::default();
    let status = resp.status;
    let fail = |msg: String| Some(format!("{msg} (status {status})"));
    if status >= 500 {
        v.error = fail("server error".into());
        return v;
    }
    match &p.expect {
        Expect::Sum(want) => match http::single_answer(&resp.body) {
            Some((rid, Some(got))) if status == 200 && rid == id => {
                v.sums = 1;
                if got.to_bits() != want.to_bits() {
                    v.error = fail(format!("answer {got} differs from reference {want}"));
                }
            }
            _ => v.error = fail("valid query not answered with a sum".into()),
        },
        Expect::Reject => {
            if status == 200 || http::single_answer(&resp.body).is_some_and(|a| a.1.is_some()) {
                v.error = fail("hostile query answered".into());
            } else if !(400..500).contains(&status) {
                v.error = fail("hostile query not rejected with a 4xx".into());
            }
        }
        Expect::Batch { sums, inverted } => {
            if status == 400 && *inverted {
                return v;
            }
            let Some((rid, got)) = http::batch_answers(&resp.body).filter(|_| status == 200) else {
                v.error = fail("batch not answered".into());
                return v;
            };
            if rid != id || got.len() != sums.len() {
                v.error = fail(format!("{} answers from release {rid}", got.len()));
                return v;
            }
            for (want, got) in sums.iter().zip(&got) {
                match (want, got) {
                    (Some(w), Some(g)) if w.to_bits() == g.to_bits() => v.sums += 1,
                    (None, None) => {}
                    (Some(w), Some(g)) => {
                        v.sums += 1;
                        v.error = fail(format!("answer {g} differs from reference {w}"));
                    }
                    (Some(_), None) => v.error = fail("valid query got an error".into()),
                    (None, Some(_)) => {
                        v.sums += 1;
                        v.error = fail("hostile query answered with a sum".into());
                    }
                }
            }
        }
        Expect::Metrics => {
            if status != 200 || !contains(&resp.body, "stpt_serve_requests_total") {
                v.error = fail("/metrics did not expose the serving counters".into());
            }
        }
        Expect::Proof => {
            if status != 200
                || !contains(&resp.body, "\"verified\":true")
                || !contains(&resp.body, "\"epsilon_spent_serving\":0,")
                || !contains(&resp.body, &format!("\"id\":\"{id}\""))
            {
                v.error = fail("/releases did not prove zero serving spend".into());
            }
        }
    }
    v
}

fn contains(body: &[u8], needle: &str) -> bool {
    body.windows(needle.len()).any(|w| w == needle.as_bytes())
}

/// One client's counts over the timed window.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    failed: u64,
    sums: u64,
    rejected: u64,
    scrape_ms: Vec<f64>,
    prove_ms: Vec<f64>,
    connections: u64,
    first_failures: Vec<String>,
    /// Every request's end, the answers with a sum it returned, and its
    /// latency in µs if it went to the query route.
    ended: Vec<(Instant, u64, Option<f64>)>,
}

impl Tally {
    fn note(
        &mut self,
        p: &Planned,
        result: std::io::Result<Response>,
        (start, end): (Instant, Instant),
        id: &str,
    ) {
        self.requests += 1;
        let secs = end.duration_since(start).as_secs_f64();
        let mut sums = 0;
        let error = match result {
            Err(e) => Some(format!("transport error: {e}")),
            Ok(resp) => {
                if (400..500).contains(&resp.status) {
                    self.rejected += 1;
                }
                let v = check(p, &resp, id);
                sums = v.sums;
                v.error
            }
        };
        self.sums += sums;
        let query_us = (p.route == Route::Query).then_some(secs * 1e6);
        self.ended.push((end, sums, query_us));
        if let Some(e) = error {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(e);
            }
        }
        match p.route {
            Route::Query => {}
            Route::Scrape => self.scrape_ms.push(secs * 1e3),
            Route::Prove => self.prove_ms.push(secs * 1e3),
        }
    }

    fn merge(&mut self, o: Tally) {
        self.requests += o.requests;
        self.failed += o.failed;
        self.sums += o.sums;
        self.rejected += o.rejected;
        self.scrape_ms.extend(o.scrape_ms);
        self.prove_ms.extend(o.prove_ms);
        self.connections += o.connections;
        self.first_failures.extend(o.first_failures);
        self.ended.extend(o.ended);
    }
}

/// Send `p` and record the outcome.
fn exchange(client: &mut Client, p: &Planned, tally: &mut Tally, id: &str) {
    let t0 = Instant::now();
    let result = client.send(&p.raw);
    tally.note(p, result, (t0, Instant::now()), id);
}

/// A running daemon; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawn the daemon and wait for its `listening on` line. Returns it
    /// with its set-up time in seconds.
    fn launch(bin: &str) -> Result<(Daemon, f64), String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(daemon_args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {bin}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = daemon
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading daemon output: {e}"))?;
            if n == 0 {
                return Err("daemon exited before listening".to_string());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("");
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("daemon address '{addr}': {e}"))?;
                return Ok((daemon, spawned.elapsed().as_secs_f64()));
            }
        }
    }

    /// `POST /shutdown`, then wait for a clean exit.
    fn stop(mut self) -> Result<(), String> {
        let resp = Client::new(self.addr)
            .send(&http::post("/shutdown", ""))
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        if resp.status != 200 {
            return Err(format!("POST /shutdown answered {}", resp.status));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => return Err("daemon did not exit after POST /shutdown".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `GET /metrics` parsed to `family → value` (bucketed series skipped),
/// with the request latency in ms.
fn scrape(addr: SocketAddr) -> Result<(BTreeMap<String, f64>, f64), String> {
    let t0 = Instant::now();
    let resp = Client::new(addr)
        .send(&http::get("/metrics"))
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let text = String::from_utf8_lossy(&resp.body);
    let map = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?.to_string(), f.next()?.parse().ok()?))
        })
        .collect();
    Ok((map, ms))
}

/// The true answers: the clipped matrix the release was sanitized from.
/// Mirrors the generation in `ReleaseSpec::build` (FNV-1a of the dataset
/// name mixed into the seed).
fn truth(spec: &ReleaseSpec) -> Result<(PrefixSum3D, f64), String> {
    let ds_spec = spec.validate().map_err(|e| e.to_string())?;
    let fnv = ds_spec.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    let mut rng = StdRng::seed_from_u64(spec.seed ^ fnv);
    let ds = Dataset::generate_at(
        ds_spec,
        SpatialDistribution::Uniform,
        Granularity::Daily,
        spec.hours,
        &mut rng,
    );
    let clipped = ds.consumption_matrix(spec.grid, spec.grid, true);
    Ok((PrefixSum3D::new(&clipped), default_rho(&clipped)))
}

/// Send the fixed three-class probe through the workload's route, check
/// every answer, and return the served answers' MRE (%) against `truth`.
fn accuracy(
    kind: Kind,
    addr: SocketAddr,
    reference: &CachedRelease,
    (truth_ps, rho): &(PrefixSum3D, f64),
    tally: &mut Tally,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(PROBE_SEED);
    let mut client = Client::new(addr);
    let mut mres = Vec::new();
    for class in QueryClass::ALL {
        let queries = generate_queries(class, PROBE_QUERIES, reference.shape, &mut rng);
        let sums: Vec<f64> = queries
            .iter()
            .map(|q| reference.prefix.range_sum(q))
            .collect();
        // Every probe answer matches the reference bit for bit (checked
        // below), so the reference sums are what the daemon served.
        match kind {
            Kind::Point => {
                for (q, sum) in queries.iter().zip(&sums) {
                    let p = Planned {
                        route: Route::Query,
                        raw: point_request(&reference.id, &coords_of(q)),
                        expect: Expect::Sum(*sum),
                        evaluated: Vec::new(),
                    };
                    exchange(&mut client, &p, tally, &reference.id);
                }
            }
            Kind::Batch => {
                let p = Planned {
                    route: Route::Query,
                    raw: batch_request(&reference.id, &queries),
                    expect: Expect::Batch {
                        sums: sums.iter().map(|s| Some(*s)).collect(),
                        inverted: false,
                    },
                    evaluated: Vec::new(),
                };
                exchange(&mut client, &p, tally, &reference.id);
            }
        }
        let errors: f64 = queries
            .iter()
            .zip(&sums)
            .map(|(q, s)| relative_error(truth_ps.range_sum(q), *s, *rho))
            .sum();
        mres.push(errors / queries.len() as f64);
    }
    mres.iter().sum::<f64>() / mres.len() as f64
}

/// One untraced or traced serving run.
pub fn run_serving(
    kind: Kind,
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    bin: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = release_spec();
    let reference = Arc::new(
        spec.build()
            .map_err(|e| format!("building the reference release: {e}"))?,
    );
    let id = reference.id.clone();
    let truth = truth(&reference.spec)?;

    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut daemon = None;
    for i in 0..SETUP_SAMPLES {
        let (d, setup) = Daemon::launch(bin)?;
        setups.push(setup);
        if i + 1 < SETUP_SAMPLES {
            if let Err(e) = d.stop() {
                out.problem(format!("set-up daemon {i}: {e}"));
            }
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("SETUP_SAMPLES > 0");
    let addr = daemon.addr;
    println!(
        "workload {name}: {} closed-loop clients, {seconds} s window, release {id}, daemon argv: {}",
        nproc(),
        daemon_args().join(" ")
    );

    let warmup = Load {
        seconds: seconds * WARMUP_SHARE,
        requests: 0,
    };
    let warmup = load_window(kind, !seed, warmup, addr, &reference);
    let (before, _) = scrape(addr)?;
    let steal0 = steal_secs();
    let load = Load {
        seconds,
        requests: (seconds * WALL_REQUESTS_PER_S[kind as usize]).round() as usize,
    };
    let timed = load_window(kind, seed, load, addr, &reference);
    let (wall, cpu) = (timed.wall, timed.cpu);
    let steal = steal_share(steal0, wall);
    let [throughputs, p50s] = timed.per_sub_window();
    let timed_reached = timed.reached;
    let mut window = timed.tally;
    let (after, scrape_ms) = scrape(addr)?;
    window.scrape_ms.push(scrape_ms);

    // Post-window checks: the ledger proof and the accuracy probe.
    let mut post = Tally::default();
    let proof = Planned {
        route: Route::Prove,
        raw: http::get("/releases"),
        expect: Expect::Proof,
        evaluated: Vec::new(),
    };
    exchange(&mut Client::new(addr), &proof, &mut post, &id);
    let mre = accuracy(kind, addr, &reference, &truth, &mut post);
    let rss = peak_rss_mb(&daemon.child.id().to_string());
    if let Err(e) = daemon.stop() {
        out.problem(format!("measured daemon: {e}"));
    }

    // The warm-up's answers are checked like the window's; only its
    // timings are dropped.
    let wall_s = timed_reached;
    post.merge(warmup.tally);
    out.attempted += window.requests + post.requests;
    out.failed += window.failed + post.failed;
    for f in window.first_failures.iter().chain(&post.first_failures) {
        println!("CHECK FAILED: {f}");
    }
    let query: Vec<f64> = window.ended.iter().filter_map(|e| e.2).collect();
    let throughput = median(&throughputs);
    let p50_ms = median(&p50s) / 1e3;
    let p99_ms = percentile(&query, 99.0) / 1e3;
    out.set("throughput_qps", throughput);
    out.set("latency_p50_ms", p50_ms);
    out.set("wall_s", wall_s);
    out.set("stpt_mre_pct", mre);
    out.set("peak_rss_mb", rss.unwrap_or(f64::NAN));
    out.set("setup_s", median(&setups));
    let error_rate =
        (window.failed + post.failed) as f64 / (window.requests + post.requests) as f64;
    println!(
        "requests {} in {wall:.3} s ({} query-route, {} operator, {} in warm-up and checks); answers with a sum {}; 4xx {}; unexpected {}; error_rate {error_rate}",
        window.requests,
        query.len(),
        window.requests - query.len() as u64,
        post.requests,
        window.sums,
        window.rejected,
        window.failed + post.failed,
    );
    println!(
        "throughput_qps {throughput:.1} 1/s, latency_p50_ms {p50_ms:.4} ms: medians over {SUB_WINDOWS} sub-windows of {} query-route requests in all; latency_p99_ms {p99_ms:.4} ms over the whole window (not gated)",
        query.len()
    );
    println!(
        "sub-windows: throughput_qps {throughputs:.1?}, latency_p50_us {p50s:.2?}; whole window: throughput_qps {:.1}, latency_p50_ms {:.4}",
        window.sums as f64 / wall,
        median(&query) / 1e3,
    );
    println!(
        "setup_s {:.4} s median of {SETUP_SAMPLES} daemon start-ups {setups:.4?}; wall_s {wall_s:.3} s for the first {} requests of each of {} clients; peak_rss_mb {:.1} (daemon VmHWM); stpt_mre_pct {mre:.4} over {} probe queries",
        median(&setups),
        load.requests,
        nproc(),
        rss.unwrap_or(f64::NAN),
        3 * PROBE_QUERIES
    );
    println!(
        "loadgen.cpu_share {cpu:.3}; load generator opened {} connections for {} requests; host steal {:.1}% of CPU time",
        window.connections,
        window.requests,
        100.0 * steal
    );

    if traced {
        out.set("loadgen.cpu_share", cpu);
        daemon_layers(&before, &after, &window, &post, out);
        replay(kind, seed, &reference, p50_ms * 1e3, out);
    }
    Ok(())
}

/// The outcome of one load.
struct Loaded {
    /// The clients' merged tally.
    tally: Tally,
    start: Instant,
    /// Wall seconds from the start to the last answer.
    wall: f64,
    /// Wall seconds until every client had sent its `Load::requests`.
    reached: f64,
    /// This process's CPU time over wall time × `nproc`.
    cpu: f64,
}

impl Loaded {
    /// Throughput (answers with a sum per second) and p50 query-route
    /// latency (µs) in each of [`SUB_WINDOWS`] equal parts of the load.
    fn per_sub_window(&self) -> [Vec<f64>; 2] {
        let len = self.wall / SUB_WINDOWS as f64;
        let mut sums = [0u64; SUB_WINDOWS];
        let mut latencies = vec![Vec::new(); SUB_WINDOWS];
        for (end, n, query_us) in &self.tally.ended {
            let at = end.duration_since(self.start).as_secs_f64();
            let i = ((at / len) as usize).min(SUB_WINDOWS - 1);
            sums[i] += n;
            latencies[i].extend(query_us);
        }
        let latencies: Vec<&Vec<f64>> = latencies.iter().filter(|v| !v.is_empty()).collect();
        [
            sums.iter().map(|n| *n as f64 / len).collect(),
            latencies.iter().map(|v| median(v)).collect(),
        ]
    }
}

/// One load of closed-loop requests from `nproc` clients.
fn load_window(
    kind: Kind,
    seed: u64,
    load: Load,
    addr: SocketAddr,
    reference: &CachedRelease,
) -> Loaded {
    let clients = nproc();
    let cpu0 = own_cpu_secs();
    let t0 = Instant::now();
    let more = |tally: &Tally| {
        t0.elapsed().as_secs_f64() < load.seconds || tally.requests < load.requests as u64
    };
    let mut window = Tally::default();
    let mut reached = 0f64;
    // xtask-allow(XT07): load-generator clients are independent OS threads, each blocking on its own socket
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut gen = Generator {
                        kind,
                        rng: StdRng::seed_from_u64(client_seed(seed, c)),
                        reference,
                    };
                    let mut client = Client::new(addr);
                    let mut tally = Tally::default();
                    while more(&tally) {
                        let p = gen.next_request();
                        exchange(&mut client, &p, &mut tally, &reference.id);
                    }
                    tally.connections = client.connections;
                    let nth = load
                        .requests
                        .checked_sub(1)
                        .map_or(t0, |i| tally.ended[i].0);
                    (tally, nth.duration_since(t0).as_secs_f64())
                })
            })
            .collect();
        for h in handles {
            let (tally, nth) = h.join().expect("client thread panicked");
            window.merge(tally);
            reached = reached.max(nth);
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = match (cpu0, own_cpu_secs()) {
        (Some(a), Some(b)) => (b - a) / (wall * clients as f64),
        _ => f64::NAN,
    };
    Loaded {
        tally: window,
        start: t0,
        wall,
        reached,
        cpu,
    }
}

/// Per-layer metrics from the daemon's `/metrics` counters before and
/// after the window, and from the operator requests.
fn daemon_layers(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    window: &Tally,
    post: &Tally,
    out: &mut Outcome,
) {
    let requests = window.requests as f64;
    let delta = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    // The closing scrape's own connection is counted in `after`.
    let connections = delta("stpt_serve_connections_total") - 1.0;
    let regions = delta("stpt_pool_jobs_total");
    let busy = delta("stpt_worker_busy_seconds_total");
    // `pool.utilization` is cumulative busy / capacity since start-up, so
    // the window's capacity is the difference of busy / utilization.
    let capacity = |m: &BTreeMap<String, f64>| match (
        m.get("stpt_worker_busy_seconds_total"),
        m.get("stpt_pool_utilization"),
    ) {
        (Some(b), Some(u)) if *u > 0.0 => b / u,
        _ => 0.0,
    };
    let cap = capacity(after) - capacity(before);
    let routed = delta("stpt_serve_query_latency_us_count");
    let route_sum = delta("stpt_serve_query_latency_us_sum");
    let mut prove = window.prove_ms.clone();
    prove.extend(&post.prove_ms);
    out.set("serve.connections_per_request", connections / requests);
    out.set("pool.regions_per_request", regions / requests);
    out.set("pool.busy_us_per_request", busy * 1e6 / requests);
    out.set("pool.utilization", if cap > 0.0 { busy / cap } else { 0.0 });
    out.set(
        "serve.daemon_route_us",
        if routed > 0.0 {
            route_sum / routed
        } else {
            0.0
        },
    );
    out.set("serve.rejected_share", window.rejected as f64 / requests);
    out.set("obs.scrape_ms", median(&window.scrape_ms));
    out.set("ledger.prove_ms", median(&prove));
    println!(
        "daemon counters over the window: {connections} connections, {regions} pool regions, {busy:.4} s pool busy, {routed} routed queries"
    );
    println!(
        "obs.scrape_ms median of {} scrapes; ledger.prove_ms median of {} proofs",
        window.scrape_ms.len(),
        prove.len()
    );
}

/// Seed of client `c`'s request stream.
fn client_seed(seed: u64, c: usize) -> u64 {
    seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Replay a seeded sample of the workload's query-route requests through
/// the daemon's own read, route, evaluate and write functions in this
/// process, and reconcile their medians with the socket-level p50.
fn replay(kind: Kind, seed: u64, reference: &Arc<CachedRelease>, p50_us: f64, out: &mut Outcome) {
    // The daemon records live telemetry on every request; so does the
    // replay.
    stpt_obs::set_live_enabled(true);
    let mut cache = ReleaseCache::new();
    cache.insert_prebuilt(Arc::clone(reference));
    let state = ServerState::new(cache);
    let mut gen = Generator {
        kind,
        rng: StdRng::seed_from_u64(seed ^ 0x7e1a),
        reference,
    };
    let samples = match kind {
        Kind::Point => 4000,
        Kind::Batch => 500,
    };
    // The first tenth warms caches and the allocator and is not timed.
    let warmup = samples / 10;
    let (mut read, mut route, mut eval, mut write) = (vec![], vec![], vec![], vec![]);
    let mut failed = 0;
    while read.len() < warmup + samples {
        let p = gen.next_request();
        if p.route != Route::Query {
            continue;
        }
        let t0 = Instant::now();
        let req = httpd::read_request(
            &mut &p.raw[..],
            httpd::DEFAULT_HEAD_CAP,
            httpd::DEFAULT_BODY_CAP,
        );
        read.push(t0.elapsed().as_secs_f64() * 1e6);
        let Ok(req) = req else {
            failed += 1;
            continue;
        };
        let t0 = Instant::now();
        let resp = handle_request(&state, &req);
        route.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        if !p.evaluated.is_empty() {
            std::hint::black_box(answer_batch(&reference.prefix, &p.evaluated));
        }
        eval.push(t0.elapsed().as_secs_f64() * 1e6);
        let mut buf = Vec::with_capacity(resp.body.len() + 256);
        let t0 = Instant::now();
        httpd::write_response(&mut buf, resp.status, resp.content_type, &resp.body);
        write.push(t0.elapsed().as_secs_f64() * 1e6);
        let status = resp
            .status
            .split(' ')
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let checked = Response {
            status,
            body: resp.body.into_bytes(),
        };
        if check(&p, &checked, &reference.id).error.is_some() {
            failed += 1;
        }
    }
    stpt_obs::set_live_enabled(false);
    for v in [&mut read, &mut route, &mut eval, &mut write] {
        v.drain(..warmup);
    }
    out.attempted += (warmup + samples) as u64;
    out.failed += failed;
    let (r, ro, e, w) = (median(&read), median(&route), median(&eval), median(&write));
    out.set("serve.http_read_us", r);
    out.set("serve.route_us", ro);
    out.set("serve.eval_us", e);
    out.set("serve.codec_us", ro - e);
    out.set("serve.http_write_us", w);
    out.set("serve.socket_us", p50_us - r - ro - w);
    println!("reconciliation of the socket-level p50 ({samples} replayed requests, medians, us):");
    for (name, v) in [
        ("serve.http_read_us", r),
        ("serve.route_us", ro),
        ("  serve.eval_us", e),
        ("  serve.codec_us (route - eval)", ro - e),
        ("serve.http_write_us", w),
        ("serve.socket_us (remainder)", p50_us - r - ro - w),
    ] {
        println!("  {name:<32} {v:>10.2}  {:>5.1}%", 100.0 * v / p50_us);
    }
    println!("  {:<32} {p50_us:>10.2}  = latency_p50_ms x 1000", "sum");
}
