//! Ablation: read latency while the writer ingests. The copy-on-write
//! snapshot read path exists for exactly one claim — a reader never takes
//! a lock the writer holds, so query latency under a heavy ingest stream
//! should look like query latency on an idle index. The old `RwLock` path
//! made precisely the opposite trade: every batch apply stalled all
//! readers for the whole add+flush window.
//!
//! Two measured phases against one in-process service, same query pool,
//! same reader count:
//!
//! * **idle** — readers replay the pool with the writer parked;
//! * **under ingest** — the same replay while a writer thread applies
//!   batches back to back with no pause between them.
//!
//! The result cache is off, so every request crosses the full snapshot
//! read path; queries execute in-process (no TCP, no admission queue) so
//! the comparison isolates the path the snapshot refactor changed.
//!
//! Reported per phase: throughput and p50/p95/p99 latency, plus the
//! p99 ratio between phases. `INVIDX_QUICK=1` shrinks everything to CI
//! scale. With `INVIDX_MAX_P99_INGEST_FACTOR=<x>` the run exits non-zero
//! unless p99-under-ingest stays within `x`× the idle p99.

use invidx_bench::{emit_table, init_metrics, percentile, quick};
use invidx_core::index::IndexConfig;
use invidx_corpus::vocab::word_string;
use invidx_corpus::zipf::ZipfTable;
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_serve::{QueryService, Request, ServeConfig};
use invidx_sim::TextTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const READERS: usize = 4;
const VOCAB_RANKS: usize = 2_000;
const WORDS_PER_DOC: usize = 12;
const ZIPF_S: f64 = 1.05;

struct Scale {
    seed_batches: usize,
    docs_per_batch: usize,
    requests_per_reader: usize,
    query_pool: usize,
}

fn scale() -> Scale {
    if quick() {
        Scale { seed_batches: 6, docs_per_batch: 40, requests_per_reader: 2_000, query_pool: 64 }
    } else {
        Scale { seed_batches: 12, docs_per_batch: 80, requests_per_reader: 10_000, query_pool: 96 }
    }
}

fn make_batch(s: &Scale, zipf: &ZipfTable, rng: &mut StdRng) -> Vec<String> {
    (0..s.docs_per_batch)
        .map(|_| {
            (0..WORDS_PER_DOC)
                .map(|_| word_string(zipf.sample(rng)))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn make_queries(s: &Scale, zipf: &ZipfTable, rng: &mut StdRng) -> Vec<Request> {
    (0..s.query_pool)
        .map(|i| {
            let mut w = || word_string(zipf.sample(rng));
            match i % 4 {
                0 => Request::Boolean(w()),
                1 => Request::Boolean(format!("{} and {}", w(), w())),
                2 => Request::Boolean(format!("({} or {}) and {}", w(), w(), w())),
                _ => Request::Near(w(), w(), 5),
            }
        })
        .collect()
}

/// Replay the pool from `READERS` threads; per-request latencies, merged.
fn measure(
    service: &Arc<QueryService<DurableEngine>>,
    queries: &Arc<Vec<Request>>,
    requests_per_reader: usize,
) -> (Vec<u64>, f64) {
    let t = Instant::now();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let service = Arc::clone(service);
            let queries = Arc::clone(queries);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x1A7E9C + r as u64);
                let mut latencies = Vec::with_capacity(requests_per_reader);
                for _ in 0..requests_per_reader {
                    let req = &queries[rng.random_range(0..queries.len())];
                    let q = Instant::now();
                    service.execute(req).expect("query");
                    latencies.push(q.elapsed().as_micros() as u64);
                }
                latencies
            })
        })
        .collect();
    let mut all: Vec<u64> =
        readers.into_iter().flat_map(|h| h.join().expect("reader")).collect();
    let secs = t.elapsed().as_secs_f64();
    all.sort_unstable();
    (all, secs)
}

fn row(label: &str, latencies_us: &[u64], secs: f64) -> Vec<String> {
    vec![
        label.to_string(),
        latencies_us.len().to_string(),
        format!("{:.0}", latencies_us.len() as f64 / secs),
        format!("{:.3}", percentile(latencies_us, 0.50)),
        format!("{:.3}", percentile(latencies_us, 0.95)),
        format!("{:.3}", percentile(latencies_us, 0.99)),
    ]
}

fn main() {
    init_metrics();
    let s = scale();
    let zipf = ZipfTable::new(VOCAB_RANKS, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(0x1D1E5EED);
    let queries = Arc::new(make_queries(&s, &zipf, &mut rng));

    let engine =
        DurableEngine::without_log(sparse_array(4, 200_000, 512), IndexConfig::small()).unwrap();
    let config = ServeConfig::builder().result_cache_capacity(0).build().unwrap();
    let service = Arc::new(QueryService::with_config(engine, config).expect("serve"));
    for _ in 0..s.seed_batches {
        let batch = make_batch(&s, &zipf, &mut rng);
        service.ingest_batch(&batch).expect("seed");
    }
    invidx_obs::log_progress(
        "latency_under_ingest",
        &format!(
            "{} seed batches x {} docs, {} queries in pool, {} readers x {} requests/phase",
            s.seed_batches, s.docs_per_batch, queries.len(), READERS, s.requests_per_reader
        ),
    );

    // Phase 1: idle writer.
    let (idle_us, idle_secs) = measure(&service, &queries, s.requests_per_reader);

    // Phase 2: the same replay while a writer applies batches back to
    // back. The stop flag is checked between batches, so the writer is
    // mid-apply for essentially the whole measured window.
    let epoch_before = service.epoch();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let mut rng = StdRng::seed_from_u64(0xFEED1E);
        let s = scale();
        let zipf = ZipfTable::new(VOCAB_RANKS, ZIPF_S);
        std::thread::spawn(move || {
            let mut batches = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let batch = make_batch(&s, &zipf, &mut rng);
                service.ingest_batch(&batch).expect("ingest");
                batches += 1;
            }
            batches
        })
    };
    let (ingest_us, ingest_secs) = measure(&service, &queries, s.requests_per_reader);
    stop.store(true, Ordering::Relaxed);
    let batches_applied = writer.join().expect("writer");
    assert!(
        service.epoch() > epoch_before && batches_applied > 0,
        "the writer must actually have ingested during the measured window"
    );

    let idle_p99 = percentile(&idle_us, 0.99);
    let ingest_p99 = percentile(&ingest_us, 0.99);
    let factor = if idle_p99 > 0.0 { ingest_p99 / idle_p99 } else { 0.0 };

    emit_table(&TextTable {
        id: "ablation_latency_under_ingest".into(),
        title: format!(
            "Read latency under ingest: {READERS} readers on the lock-free snapshot \
             path, idle vs {batches_applied} batches x {} docs applied back to back \
             (p99 ratio {factor:.2}x)",
            s.docs_per_batch
        ),
        headers: vec![
            "Phase".into(),
            "Requests".into(),
            "Req/s".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
        ],
        rows: vec![
            row("idle writer", &idle_us, idle_secs),
            row("under ingest", &ingest_us, ingest_secs),
        ],
    });

    if let Ok(max) = std::env::var("INVIDX_MAX_P99_INGEST_FACTOR") {
        let max: f64 = max.parse().expect("INVIDX_MAX_P99_INGEST_FACTOR must be a number");
        if factor > max {
            eprintln!(
                "FAIL: p99 under ingest {ingest_p99:.3} ms is {factor:.2}x idle \
                 ({idle_p99:.3} ms) > allowed {max:.2}x"
            );
            std::process::exit(1);
        }
        println!(
            "OK: p99 under ingest {ingest_p99:.3} ms is {factor:.2}x idle \
             ({idle_p99:.3} ms) <= {max:.2}x"
        );
    }
}
