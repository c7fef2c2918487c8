//! Regression tests for two serve-layer locking bugs fixed alongside the
//! copy-on-write snapshot read path:
//!
//! 1. The writer must never wait behind result-cache contention. The old
//!    read path probed the global cache mutex *while holding the engine
//!    read lock*, so a reader parked on a hot cache could wedge every
//!    ingest behind the rwlock's writer queue. Now the cache probe holds
//!    no other lock and the writer takes no lock a reader can hold.
//!
//! 2. A metrics scrape that finds the writer busy must say so: the WAL
//!    gauge refresh uses `try_lock`, and a skipped refresh increments
//!    `serve_gauge_scrape_skipped_total` and re-publishes the last-known
//!    value instead of silently leaving the gauge to rot.

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_durable::{DurableOptions, StoreGeometry};
use invidx_ir::DurableEngine;
use invidx_obs::names;
use invidx_serve::{Payload, QueryService, Request, ServeConfig};
use std::sync::{mpsc, Arc};
use std::time::Duration;

#[test]
fn writer_completes_while_result_cache_is_held() {
    let array = sparse_array(2, 50_000, 256);
    let engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
    let serve = ServeConfig::builder().result_cache_capacity(8).readers(1).build().unwrap();
    let service = Arc::new(QueryService::with_config(engine, serve).unwrap());
    service.ingest_batch(&["cat dog", "dog fox"]).unwrap();

    // A rogue holder pins every result-cache shard lock.
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            service.with_blocked_cache(|| {
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
        })
    };
    held_rx.recv().unwrap();

    // A reader parks on the shard lock mid-probe. Crucially it holds
    // nothing else while parked — its snapshot is a lock-free load.
    let reader = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.execute(&Request::Boolean("cat".into())).unwrap())
    };
    std::thread::sleep(Duration::from_millis(50));

    // The regression: with the reader parked and the cache held, an
    // ingest must still land promptly. (Under the old rwlock path the
    // parked reader pinned the read lock, so this would deadlock until
    // the cache was released.)
    let (done_tx, done_rx) = mpsc::channel();
    let writer = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            service.ingest_batch(&["bee ant"]).unwrap();
            done_tx.send(()).unwrap();
        })
    };
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("writer must not wait behind result-cache contention");
    assert_eq!(service.epoch(), 2, "the batch committed while the cache was held");

    release_tx.send(()).unwrap();
    holder.join().unwrap();
    writer.join().unwrap();
    let response = reader.join().unwrap();
    assert_eq!(response.payload, Payload::Docs(vec![1]), "parked reader still answers");
}

#[test]
fn skipped_gauge_scrape_is_counted_and_wal_gauge_holds_last_value() {
    let dir = std::env::temp_dir()
        .join(format!("invidx-serve-gauge-scrape-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let geom = StoreGeometry { disks: 2, blocks_per_disk: 20_000, block_size: 256 };
    let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
    let engine = DurableEngine::create(&dir, IndexConfig::small(), geom, opts).unwrap();
    let service =
        Arc::new(QueryService::with_config(engine, ServeConfig::default()).unwrap());
    service.ingest_batch(&["cat dog", "dog fox bee"]).unwrap();

    let gauge = invidx_obs::registry().gauge(names::INDEX_WAL_BYTES);
    let skipped = invidx_obs::registry().counter(names::SERVE_GAUGE_SCRAPE_SKIPPED);

    // Healthy scrape: the WAL gauge reflects real replay debt.
    service.publish_gauges();
    let wal = gauge.get();
    assert!(wal > 0, "two uncheckpointed batches must leave WAL bytes");
    let skips = skipped.get();

    // Poison the gauge, then scrape with the writer wedged: the skip is
    // counted and the last-known value is re-published — a dashboard sees
    // "stale but honest", not a silent gap or a zero.
    gauge.set(-1);
    service.with_blocked_writer(|| {
        service.publish_gauges();
    });
    assert_eq!(skipped.get(), skips + 1, "busy-writer scrape must be counted");
    assert_eq!(gauge.get(), wal, "last-known WAL value must be re-published");

    // Writer released: scrapes go back to live values, no new skips.
    service.publish_gauges();
    assert_eq!(skipped.get(), skips + 1);
    assert_eq!(gauge.get(), wal);
}
