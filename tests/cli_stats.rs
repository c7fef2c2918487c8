//! Drives the `invidx` binary end to end: init → add → stats/metrics all
//! report a consistent story, the Prometheus exposition round-trips
//! through the parser, and `invidx serve` + `invidx top --once` make one
//! live dashboard frame from the METRICS/STATS verbs.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_invidx");

/// Unique scratch dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("invidx-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kills the serve child on drop so a failing assert can't leak it.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn run(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "invidx {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn stats_metrics_and_top_agree_end_to_end() {
    let scratch = Scratch::new("stats");
    let index = scratch.path().join("ix");
    let dir = index.to_str().unwrap();
    run(&["init", dir, "--disks", "2", "--blocks", "4000"]);
    let doc1 = scratch.path().join("doc1.txt");
    let doc2 = scratch.path().join("doc2.txt");
    std::fs::write(&doc1, "the quick brown fox jumps").unwrap();
    std::fs::write(&doc2, "the lazy dog sleeps all day").unwrap();
    run(&["add", dir, doc1.to_str().unwrap(), doc2.to_str().unwrap()]);

    // `stats --metrics` appends a Prometheus exposition after a blank
    // line; it must parse, and its gauges must match the human-readable
    // stats above it.
    let stats = run(&["stats", dir, "--metrics"]);
    assert!(stats.contains("documents           2"), "{stats}");
    let prom = stats.split_once("\n\n").expect("blank line before exposition").1;
    let snap = invidx::obs::parse_prometheus(prom).unwrap();
    let gauge = |name: &str| {
        snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    };
    assert_eq!(gauge("index_documents"), Some(2));
    assert_eq!(gauge("index_batches_flushed"), Some(1));

    // `metrics` renders the same registry standalone, with the migrated
    // exponential utilization buckets.
    let metrics = run(&["metrics", dir]);
    let snap = invidx::obs::parse_prometheus(&metrics).unwrap();
    assert!(snap.gauges.iter().any(|(n, v)| n == "index_documents" && *v == 2));
    let util = snap
        .histograms
        .iter()
        .find(|h| h.name == "index_long_utilization")
        .expect("utilization histogram");
    let bounds: Vec<f64> =
        util.buckets.iter().map(|&(le, _)| le).filter(|le| le.is_finite()).collect();
    assert_eq!(bounds, vec![0.125, 0.25, 0.5, 1.0], "Buckets::exponential(0.125, 2, 4)");

    // Serve the index with tracing on, drive a query, and render one
    // `invidx top` frame from the telemetry verbs.
    let mut child = KillOnDrop(
        Command::new(BIN)
            .args(["serve", dir, "--addr", "127.0.0.1:0", "--trace-sample", "1",
                   "--slow-ms", "1000"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let stdout = child.0.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("server exited before listening").unwrap();
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    let mut client =
        invidx::serve::Client::connect(&addr, std::time::Duration::from_secs(30)).unwrap();
    for req in ["QUERY fox", "QUERY dog"] {
        let reply = client.line(req).unwrap();
        assert!(reply.starts_with("OK "), "{req} failed: {reply}");
    }

    let top = run(&["top", &addr, "--once"]);
    assert!(top.contains("documents           2"), "{top}");
    assert!(top.contains("latency p50/p95/p99"), "{top}");
    assert!(top.contains("slo "), "{top}");
    assert!(top.contains("wal lag"), "{top}");
    // The two queries are visible in the frame's result-cache line.
    assert!(top.contains("result cache"), "{top}");
}

/// A directory in the retired `engine.meta` layout is refused with an
/// error that names the fix, and `init` no longer offers that layout.
#[test]
fn legacy_layout_is_refused_and_the_error_names_the_fix() {
    let scratch = Scratch::new("legacy");
    let index = scratch.path().join("ix");
    let dir = index.to_str().unwrap();
    run(&["init", dir, "--disks", "2", "--blocks", "4000"]);
    // What the old layout looked like: a metadata blob, no checkpoint.
    std::fs::remove_file(index.join("index.ckpt")).unwrap();
    std::fs::write(index.join("engine.meta"), b"IVXMETA2").unwrap();
    let out = Command::new(BIN).args(["search", dir, "cat"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    for needle in ["legacy layout", "invidx init", "invidx add"] {
        assert!(err.contains(needle), "error must mention {needle:?}: {err}");
    }
    let fresh = scratch.path().join("ix2");
    let out = Command::new(BIN).args(["init", fresh.to_str().unwrap(), "--legacy"]).output().unwrap();
    assert!(!out.status.success(), "--legacy is gone");
}

/// Stores initialised while the CLI still had a block-cache option carry a
/// `cache_blocks=<n>` line in `invidx.conf`. They must keep opening: the
/// key is accepted and ignored. The option itself is gone from `init`.
#[test]
fn stores_with_the_retired_cache_key_still_open() {
    let scratch = Scratch::new("retired-key");
    let index = scratch.path().join("ix");
    let dir = index.to_str().unwrap();
    run(&["init", dir, "--disks", "2", "--blocks", "4000"]);
    let conf = index.join("invidx.conf");
    let mut text = std::fs::read_to_string(&conf).unwrap();
    assert!(!text.contains("cache_blocks"), "init must not write the retired key: {text}");
    text.push_str("cache_blocks=16\n");
    std::fs::write(&conf, text).unwrap();

    let doc = scratch.path().join("doc.txt");
    std::fs::write(&doc, "the quick brown fox jumps").unwrap();
    run(&["add", dir, doc.to_str().unwrap()]);
    let stats = run(&["stats", dir]);
    assert!(stats.contains("documents           1"), "{stats}");
    let hits = run(&["search", dir, "fox"]);
    assert!(!hits.contains("no matches"), "{hits}");

    let fresh = scratch.path().join("ix2");
    let out = Command::new(BIN)
        .args(["init", fresh.to_str().unwrap(), "--cache-blocks", "16"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--cache-blocks is gone");
}
