//! Readers-vs-writer stress tests with an oracle replay.
//!
//! The serving invariant under test: every `(epoch, result)` pair a
//! concurrent reader observes is exactly what a single-threaded replay of
//! the same batches produces when queried after that many flushes. The
//! oracle is built first by replaying the batch schedule on a private
//! engine and recording every query's answer at every epoch; then N client
//! threads hammer the admission front end while the writer applies the
//! same schedule, and each response is checked against the oracle row for
//! the epoch it carries.

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_durable::{DurableOptions, StoreGeometry};
use invidx_ir::{Bm25Params, DurableEngine, EngineQuery, QueryOutput};
use invidx_serve::{
    Frontend, Payload, QueryService, Request, ServeConfig, ServeEngine,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const VOCAB: [&str; 12] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    "lambda", "mu",
];

/// Deterministic doc text for `(batch, slot)` — same schedule every run.
fn doc_text(batch: usize, slot: usize) -> String {
    let mut state = (batch as u64) << 32 | slot as u64 | 1;
    let mut words = Vec::with_capacity(6);
    for _ in 0..6 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        words.push(VOCAB[((state >> 33) % VOCAB.len() as u64) as usize]);
    }
    words.join(" ")
}

fn batches(count: usize, docs_per_batch: usize) -> Vec<Vec<String>> {
    (0..count)
        .map(|b| (0..docs_per_batch).map(|s| doc_text(b, s)).collect())
        .collect()
}

fn query_mix() -> Vec<Request> {
    let mut qs: Vec<Request> =
        VOCAB.iter().take(6).map(|w| Request::Boolean((*w).into())).collect();
    qs.push(Request::Boolean("alpha and beta".into()));
    qs.push(Request::Boolean("(gamma or delta) and epsilon".into()));
    qs.push(Request::Phrase("alpha beta".into()));
    qs.push(Request::Near("zeta".into(), "eta".into(), 4));
    qs
}

/// The engine query an oracle request maps to — the same mapping the
/// service applies.
fn oracle_query(req: &Request) -> EngineQuery {
    req.engine_query(Bm25Params::default()).expect("an engine query")
}

fn doc_ids(out: QueryOutput) -> Vec<u32> {
    match out {
        QueryOutput::Docs(list) => list.docs().iter().map(|d| d.0).collect(),
        other => panic!("oracle query answered {other:?}"),
    }
}

/// Replay the schedule single-threaded: `oracle[epoch][wire-form] = docs`.
fn build_oracle(schedule: &[Vec<String>], queries: &[Request]) -> Vec<HashMap<String, Vec<u32>>> {
    let array = sparse_array(2, 100_000, 256);
    let mut engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
    let mut oracle = Vec::with_capacity(schedule.len() + 1);
    let row = |engine: &DurableEngine| {
        queries
            .iter()
            .map(|q| (q.to_wire(), doc_ids(engine.execute(&oracle_query(q)).unwrap())))
            .collect()
    };
    oracle.push(row(&engine));
    for batch in schedule {
        for text in batch {
            engine.add_document(text).unwrap();
        }
        engine.flush().unwrap();
        oracle.push(row(&engine));
    }
    oracle
}

#[test]
fn eight_readers_one_writer_match_oracle_replay() {
    let schedule = batches(12, 8);
    let queries = query_mix();
    let oracle = Arc::new(build_oracle(&schedule, &queries));

    let array = sparse_array(2, 100_000, 256);
    let engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
    let config = ServeConfig::builder()
        .result_cache_capacity(64)
        .readers(4)
        .high_water(256)
        .deadline(Duration::from_secs(10))
        .build()
        .unwrap();
    let service = Arc::new(QueryService::with_config(engine, config).unwrap());
    let frontend = Arc::new(Frontend::start_with(Arc::clone(&service), config));
    let final_epoch = schedule.len() as u64;
    let checked = Arc::new(AtomicU64::new(0));

    let clients: Vec<_> = (0..8)
        .map(|c| {
            let frontend = Arc::clone(&frontend);
            let oracle = Arc::clone(&oracle);
            let queries = queries.clone();
            let checked = Arc::clone(&checked);
            std::thread::spawn(move || {
                let mut i = c; // stagger starting points across clients
                loop {
                    let done = frontend.service().epoch() == final_epoch;
                    let req = &queries[i % queries.len()];
                    i += 1;
                    let resp = frontend.call(req.clone()).unwrap();
                    let Payload::Docs(got) = &resp.payload else {
                        panic!("unexpected payload {:?}", resp.payload)
                    };
                    let want = &oracle[resp.epoch as usize][&req.to_wire()];
                    assert_eq!(
                        got, want,
                        "client {c}: {} at epoch {} diverged from oracle",
                        req.to_wire(),
                        resp.epoch
                    );
                    checked.fetch_add(1, Ordering::Relaxed);
                    if done && i % queries.len() == 0 {
                        break;
                    }
                }
            })
        })
        .collect();

    let writer = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            for (b, batch) in schedule.iter().enumerate() {
                let (_, epoch) = service.ingest_batch(batch).unwrap();
                assert_eq!(epoch, b as u64 + 1);
                std::thread::sleep(Duration::from_millis(3));
            }
        })
    };

    writer.join().unwrap();
    for client in clients {
        client.join().unwrap();
    }
    let total = checked.load(Ordering::Relaxed);
    assert!(total >= 8 * 10, "only {total} oracle-checked results");
    let stats = service.stats();
    assert_eq!(stats.docs, 12 * 8);
    assert_eq!(stats.batches, 12);
    assert_eq!(stats.shed, 0, "queue was sized to never shed here");
    assert_eq!(stats.timeouts, 0);
    assert!(stats.cache_hits > 0, "repeated queries should hit the cache");
    if let Ok(frontend) = Arc::try_unwrap(frontend) {
        frontend.shutdown();
    }
}

#[test]
fn serving_continues_while_checkpointing() {
    let dir = std::env::temp_dir()
        .join(format!("invidx-serve-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let geometry = StoreGeometry { disks: 2, blocks_per_disk: 20_000, block_size: 256 };
    // checkpoint_every: 0 — the service decides when to checkpoint.
    let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
    let engine = DurableEngine::create(&dir, IndexConfig::small(), geometry, opts).unwrap();
    let service = Arc::new(QueryService::with_config(engine, ServeConfig::default()).unwrap());
    let frontend = Arc::new(Frontend::start_with(Arc::clone(&service), ServeConfig::default()));

    let schedule = batches(6, 4);
    let oracle = Arc::new(build_oracle(&schedule, &query_mix()));
    let final_epoch = schedule.len() as u64;

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let frontend = Arc::clone(&frontend);
            let oracle = Arc::clone(&oracle);
            let queries = query_mix();
            std::thread::spawn(move || {
                let mut i = c;
                loop {
                    let done = frontend.service().epoch() == final_epoch;
                    let req = &queries[i % queries.len()];
                    i += 1;
                    let resp = frontend.call(req.clone()).unwrap();
                    let Payload::Docs(got) = &resp.payload else { panic!() };
                    assert_eq!(got, &oracle[resp.epoch as usize][&req.to_wire()]);
                    if done && i % queries.len() == 0 {
                        break;
                    }
                }
            })
        })
        .collect();

    // Writer: batch, checkpoint, batch, checkpoint... queries keep flowing
    // around each checkpoint's write-lock hold.
    for batch in &schedule {
        service.ingest_batch(batch).unwrap();
        let bytes = service.checkpoint().unwrap();
        assert!(bytes.is_some(), "durable engine must report checkpoint size");
    }
    for client in clients {
        client.join().unwrap();
    }
    if let Ok(frontend) = Arc::try_unwrap(frontend) {
        frontend.shutdown();
    }

    // The store must recover to exactly the served state.
    let service = Arc::try_unwrap(service).ok().expect("all clients done");
    let engine = service.into_engine();
    let total = ServeEngine::total_docs(&engine);
    drop(engine);
    let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
    let reopened = DurableEngine::open(&dir, IndexConfig::small(), opts).unwrap();
    assert_eq!(ServeEngine::total_docs(&reopened), total);
    assert_eq!(total, 6 * 4);
    for (req, want) in &oracle[oracle.len() - 1] {
        let query = oracle_query(&Request::parse(req).unwrap());
        let got = doc_ids(reopened.execute(&query).unwrap());
        assert_eq!(&got, want, "{req} after recovery");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// What the serving layer is told by an engine built without a log:
/// nothing to checkpoint, no WAL lag to publish, no durable batch count to
/// anchor epochs on, and no records to ship or accept — while it ingests
/// and snapshots like any other.
#[test]
fn log_less_engine_reports_no_durability() {
    let array = sparse_array(2, 50_000, 256);
    let mut engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
    ServeEngine::add_document(&mut engine, "alpha beta").unwrap();
    ServeEngine::flush(&mut engine).unwrap();
    assert_eq!(ServeEngine::checkpoint(&mut engine), Ok(None));
    assert_eq!(ServeEngine::wal_bytes(&engine), None);
    assert_eq!(ServeEngine::batches(&engine), 0);
    let no_log = Err("engine has no write-ahead log".to_string());
    assert_eq!(ServeEngine::wal_records_from(&engine, 0), no_log);
    let record = invidx_durable::WalRecord::Compact { batch: 2 };
    assert_eq!(ServeEngine::apply_replicated(&mut engine, &record), no_log.map(|_| 0));
    assert_eq!(ServeEngine::total_docs(&engine), 1);
    assert!(ServeEngine::snapshot(&mut engine, None).is_ok());
}
