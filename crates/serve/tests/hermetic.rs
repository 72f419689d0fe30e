//! `stpt-serve` is hermetic: its argv alone determines what it serves.
//! The `STPT_*` observability variables the bench harness parses must not
//! change the daemon's `/metrics` surface. A daemon that read them would
//! gain the trace-gated `stpt_nn_train_grad_norm*` families under
//! `STPT_TRACE=1` and lose the `stpt_process_*` ones under
//! `STPT_RESOURCES=0`.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Send one raw request and return the whole response.
fn request(addr: &str, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to stpt-serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// Boot the daemon at smoke scale with `vars` on top of an environment
/// stripped of every `STPT_*` variable, scrape `/metrics` once, shut it
/// down cleanly, and return the scrape's `# TYPE` family names.
fn metric_families(vars: &[(&str, &str)]) -> BTreeSet<String> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stpt-serve"));
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--grid",
        "8",
        "--hours",
        "16",
        "--seed",
        "7",
        "--acceptors",
        "1",
        "--smoke",
    ])
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("STPT_") {
            cmd.env_remove(name);
        }
    }
    cmd.envs(vars.iter().copied());
    let mut child = cmd.spawn().expect("spawn stpt-serve");
    // Kept open until the daemon exits: it prints a last line on shutdown.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let addr = loop {
        let mut line = String::new();
        let n = stdout.read_line(&mut line).expect("read daemon output");
        assert!(n > 0, "stpt-serve exited before listening");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().unwrap_or("").to_string();
        }
    };
    let metrics = request(&addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
    request(
        &addr,
        "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    let status = child.wait().expect("wait for stpt-serve");
    assert!(status.success(), "stpt-serve exited with {status}");
    metrics
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn obs_environment_does_not_change_the_metrics_surface() {
    let clean = metric_families(&[]);
    let dirty = metric_families(&[
        ("STPT_TRACE", "1"),
        ("STPT_TRACE_EVENTS", "1"),
        ("STPT_RESOURCES", "0"),
    ]);
    assert_eq!(
        clean.symmetric_difference(&dirty).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "families differ between a clean and an STPT_*-laden environment"
    );
    assert!(clean.contains("stpt_serve_requests_total"), "{clean:?}");
    if std::path::Path::new("/proc/self/statm").exists() {
        // Every scrape samples the process afresh.
        assert!(clean.contains("stpt_process_rss_bytes"), "{clean:?}");
    }
}
