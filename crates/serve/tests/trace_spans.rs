//! Acceptance test for end-to-end request tracing: a sampled query over
//! TCP must produce a span tree on the NDJSON event stream whose stages
//! (queue, cache, engine) are all present and whose top-level stages sum
//! to within 10% of the measured end-to-end latency (the root `request`
//! span) — and a sampled ingest must show where the device traffic went,
//! because under the snapshot read path the disk layer is only touched
//! when the writer materializes the next snapshot.
//!
//! Single `#[test]` on purpose: the event sink is process-global.

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_serve::{Client, QueryService, ServeConfig, Server};
use std::sync::Arc;
use std::time::Duration;

/// Minimal field extraction from one NDJSON event line (the events are
/// flat objects with unescaped keys, rendered by invidx-obs itself).
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn field_i64(line: &str, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: i64,
    dur_us: u64,
    blocks: u64,
}

/// All spans of one trace, indexed by span id (root is index 0).
fn spans_of(events: &str, trace_id: u64) -> Vec<Span> {
    let mut spans: Vec<(u64, Span)> = events
        .lines()
        .filter(|l| l.contains("\"kind\":\"tspan\""))
        .filter(|l| field_u64(l, "trace_id") == Some(trace_id))
        .map(|l| {
            (
                field_u64(l, "id").unwrap(),
                Span {
                    name: field_str(l, "name").unwrap().to_string(),
                    parent: field_i64(l, "parent").unwrap(),
                    dur_us: field_u64(l, "dur_us").unwrap(),
                    blocks: field_u64(l, "blocks").unwrap(),
                },
            )
        })
        .collect();
    spans.sort_by_key(|(id, _)| *id);
    spans.into_iter().map(|(_, s)| s).collect()
}

/// Is span `i` inside the subtree rooted at `root`?
fn within(spans: &[Span], mut i: usize, root: usize) -> bool {
    while spans[i].parent >= 0 {
        if spans[i].parent as usize == root {
            return true;
        }
        i = spans[i].parent as usize;
    }
    false
}

#[test]
fn sampled_query_yields_decomposed_span_tree() {
    // A corpus where "hot" migrates to a long list (1500 postings ≫ the
    // 40-unit bucket capacity of IndexConfig::small), so the snapshot
    // materialization reaches the disk layer.
    let array = sparse_array(2, 50_000, 256);
    let engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
    // Result cache off so every query exercises the snapshot read path;
    // sample every request (queries and ingests alike).
    let serve = ServeConfig::builder()
        .result_cache_capacity(0)
        .trace_sample(1)
        .readers(2)
        .build()
        .unwrap();
    let service = Arc::new(QueryService::with_config(engine, serve).unwrap());

    // Sink installed before the ingest: the batch's sampled trace is the
    // one that carries the disk spans now.
    invidx_obs::init_memory_event_sink();
    let docs: Vec<String> = (0..1500).map(|i| format!("hot filler{i}")).collect();
    service.ingest_batch(&docs).unwrap();

    let srv = Server::bind("127.0.0.1:0", service, serve).unwrap();
    let mut client = Client::connect(srv.addr(), Duration::from_secs(30)).unwrap();
    // Several attempts: the 10% budget is checked against the best trace
    // so one scheduler hiccup cannot flake the test.
    for _ in 0..6 {
        let reply = client.line("QUERY hot").unwrap();
        assert!(reply.starts_with("OK "), "query failed: {reply}");
    }
    srv.shutdown();
    let events = invidx_obs::take_memory_events().expect("memory sink");

    // --- The ingest trace: add/flush/publish, device traffic inside
    // publish (that is where the writer materializes the next snapshot).
    let ingest_ids: Vec<u64> = events
        .lines()
        .filter(|l| l.contains("\"kind\":\"trace\""))
        .filter(|l| field_str(l, "req") == Some("INGEST 1500"))
        .map(|l| field_u64(l, "trace_id").unwrap())
        .collect();
    assert_eq!(ingest_ids.len(), 1, "the batch ingest was sampled");
    let ispans = spans_of(&events, ingest_ids[0]);
    assert_eq!(ispans[0].name, "request");
    assert!(ispans[0].parent == -1 && ispans[0].dur_us > 0);
    for name in ["add", "flush", "publish"] {
        let s = ispans.iter().find(|s| s.name == name).unwrap_or_else(|| {
            panic!("stage {name} missing from ingest trace: {ispans:?}")
        });
        assert_eq!(s.parent, 0, "{name} must be a top-level ingest stage");
    }
    let publish_idx = ispans.iter().position(|s| s.name == "publish").unwrap();
    let disk_idx = ispans.iter().position(|s| s.name == "disk").unwrap_or_else(|| {
        panic!("stage disk missing from ingest trace: {ispans:?}")
    });
    assert!(within(&ispans, disk_idx, publish_idx), "disk must nest under publish");
    // Per-stage block accounting: materializing the long list read its
    // blocks from the device.
    let disk_blocks: u64 =
        ispans.iter().filter(|s| s.name == "disk").map(|s| s.blocks).sum();
    assert!(disk_blocks >= 10, "long list spans many blocks, saw {disk_blocks}");
    let iexplained: u64 =
        ispans.iter().filter(|s| s.parent == 0).map(|s| s.dur_us).sum();
    assert!(
        iexplained as f64 <= ispans[0].dur_us as f64 * 1.02,
        "ingest children cannot exceed the root"
    );

    // --- The query traces: queue/cache/engine decompose the latency;
    // no disk span — the read path never touches the device.
    let trace_ids: Vec<u64> = events
        .lines()
        .filter(|l| l.contains("\"kind\":\"trace\""))
        .filter(|l| field_str(l, "req") == Some("QUERY hot"))
        .map(|l| field_u64(l, "trace_id").unwrap())
        .collect();
    assert_eq!(trace_ids.len(), 6, "every query was sampled");

    let mut best_ratio = 0.0f64;
    for trace_id in &trace_ids {
        let spans = spans_of(&events, *trace_id);
        assert_eq!(spans[0].name, "request");
        assert!(spans[0].parent == -1 && spans[0].dur_us > 0);

        // Structure: queue/cache/engine are children of the root; the
        // engine subtree evaluates terms against the published snapshot.
        for name in ["queue", "cache", "engine"] {
            let s = spans.iter().find(|s| s.name == name).unwrap_or_else(|| {
                panic!("stage {name} missing from trace {trace_id}: {spans:?}")
            });
            assert_eq!(s.parent, 0, "{name} must be a top-level stage");
        }
        let engine_idx = spans.iter().position(|s| s.name == "engine").unwrap();
        let term_idx = spans.iter().position(|s| s.name == "term").unwrap_or_else(|| {
            panic!("stage term missing from trace {trace_id}: {spans:?}")
        });
        assert!(within(&spans, term_idx, engine_idx), "term must nest under engine");
        // Lock-free read path: a query trace that reached the disk model
        // would mean the snapshot leaked device reads.
        assert!(
            !spans.iter().any(|s| s.name == "disk"),
            "query must be served from the snapshot alone: {spans:?}"
        );

        // Decomposition: top-level stages must explain the end-to-end
        // latency (root duration) to within 10% on at least one trace.
        let total = spans[0].dur_us as f64;
        let explained: u64 =
            spans.iter().filter(|s| s.parent == 0).map(|s| s.dur_us).sum();
        let ratio = explained as f64 / total;
        assert!(
            ratio <= 1.02,
            "children cannot exceed the root: {explained} vs {total}"
        );
        best_ratio = best_ratio.max(ratio);
    }
    assert!(
        best_ratio >= 0.9,
        "stages must sum to within 10% of end-to-end latency; best {best_ratio:.3}"
    );
}
