//! Regression tests for publication failure *after* the commit point.
//!
//! A replica's `apply_replicated` (and a primary's `ingest_batch`) commit
//! the record to the engine — durably, for a `DurableEngine` — before the
//! next snapshot is materialized. If that materialization fails, the
//! service must NOT surface an error that leaves the epoch counter behind
//! the engine's committed batch count: the tailer would re-request the
//! same batch and the engine's gap check would reject it ("gap or
//! replay"), wedging replication until a restart. Instead publication is
//! *deferred*: the epoch advances with the commit, readers keep the
//! previous snapshot, the deferral is counted, and the committed state
//! surfaces at the next successful publication — the next record, or a
//! metrics scrape's catch-up.

use invidx_core::index::{BatchReport, IndexConfig};
use invidx_core::types::DocId;
use invidx_durable::{DurableOptions, StoreGeometry, WalRecord};
use invidx_ir::{DurableEngine, EngineSnapshot};
use invidx_obs::names;
use invidx_serve::{Payload, QueryService, Request, ServeConfig, ServeEngine};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Both tests defer a publication, and the deferral counter is
/// process-global: run them one at a time so `before + 1` is exact.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("invidx-publish-deferral-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn create(dir: &Path) -> DurableEngine {
    let geometry = StoreGeometry { disks: 2, blocks_per_disk: 20_000, block_size: 256 };
    // Replication source contract: no checkpoints while shipping.
    let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
    DurableEngine::create(dir, IndexConfig::small(), geometry, opts).unwrap()
}

fn serve_cfg() -> ServeConfig {
    ServeConfig::builder().result_cache_capacity(0).build().unwrap()
}

/// A real durable engine whose snapshot materialization can be armed to
/// fail: every failure decrements the shared counter, so `store(2)` fails
/// exactly one publication attempt (incremental + full fallback).
struct FlakySnapshots {
    inner: DurableEngine,
    fail: Arc<AtomicU32>,
}

impl ServeEngine for FlakySnapshots {
    fn add_document(&mut self, text: &str) -> Result<DocId, String> {
        self.inner.add_document(text).map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> Result<BatchReport, String> {
        self.inner.flush().map_err(|e| e.to_string())
    }

    fn wal_bytes(&self) -> Option<u64> {
        Some(self.inner.index().wal_size())
    }

    fn batches(&self) -> u64 {
        self.inner.index().batches()
    }

    fn apply_replicated(&mut self, record: &WalRecord) -> Result<u64, String> {
        self.inner.apply_replicated(record).map_err(|e| e.to_string())
    }

    fn snapshot(&mut self, prev: Option<&EngineSnapshot>) -> Result<EngineSnapshot, String> {
        if self
            .fail
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err("injected: snapshot materialization failed".into());
        }
        self.inner.snapshot(prev).map_err(|e| e.to_string())
    }

    fn total_docs(&self) -> u64 {
        self.inner.total_docs()
    }

    fn vocabulary_size(&self) -> usize {
        self.inner.vocabulary_size()
    }
}

fn shipped_records(primary: &QueryService<DurableEngine>) -> Vec<WalRecord> {
    primary.with_read(|_, engine| engine.wal_records_from(0).unwrap())
}

fn docs(service: &QueryService<FlakySnapshots>, word: &str) -> (u64, Vec<u32>) {
    let resp = service.execute(&Request::Boolean(word.into())).unwrap();
    match resp.payload {
        Payload::Docs(ids) => (resp.epoch, ids),
        other => panic!("expected docs, got {other:?}"),
    }
}

#[test]
fn deferred_publication_keeps_epoch_and_replication_in_step() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let deferred = invidx_obs::registry().counter(names::SERVE_PUBLISH_DEFERRED);

    let primary =
        QueryService::with_config(create(&tmpdir("step-primary")), serve_cfg()).unwrap();
    primary.ingest_batch(&["cat dog", "dog fox"]).unwrap();
    primary.ingest_batch(&["bee ant cat"]).unwrap();
    let records = shipped_records(&primary);
    assert_eq!(records.len(), 2);

    let fail = Arc::new(AtomicU32::new(0));
    let engine = FlakySnapshots { inner: create(&tmpdir("step-replica")), fail: fail.clone() };
    let replica = QueryService::with_config_at(engine, serve_cfg(), 0).unwrap();

    // Record 1 commits, but both materialization attempts (incremental,
    // then the full-rebuild fallback) fail. The apply must still succeed
    // and the epoch must track the committed batch count.
    let before = deferred.get();
    fail.store(2, Ordering::SeqCst);
    let epoch = replica.apply_replicated(&records[0]).unwrap();
    assert_eq!(epoch, 1, "epoch advances with the durable commit");
    assert_eq!(replica.with_read(|_, e| e.batches()), 1);
    assert_eq!(fail.load(Ordering::SeqCst), 0, "incremental and full attempts both ran");
    assert_eq!(deferred.get(), before + 1, "the deferral is counted");
    // Committed but not yet visible: readers stay on the empty snapshot.
    assert_eq!(docs(&replica, "cat"), (0, vec![]));

    // Record 2 must not trip the gap check (the historical wedge), and its
    // successful publication surfaces BOTH batches at once — the dirty set
    // survived the failed materialization.
    let epoch = replica.apply_replicated(&records[1]).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(docs(&replica, "cat"), (2, vec![1, 3]));
    assert_eq!(docs(&replica, "fox"), (2, vec![2]));
}

#[test]
fn metrics_scrape_republishes_a_deferred_snapshot() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let primary =
        QueryService::with_config(create(&tmpdir("scrape-primary")), serve_cfg()).unwrap();
    primary.ingest_batch(&["whale squid"]).unwrap();
    let records = shipped_records(&primary);

    let fail = Arc::new(AtomicU32::new(0));
    let engine = FlakySnapshots { inner: create(&tmpdir("scrape-replica")), fail: fail.clone() };
    let replica = QueryService::with_config_at(engine, serve_cfg(), 0).unwrap();

    fail.store(2, Ordering::SeqCst);
    assert_eq!(replica.apply_replicated(&records[0]).unwrap(), 1);
    assert_eq!(docs(&replica, "whale"), (0, vec![]), "publication was deferred");

    // No further records arrive (write-quiet replica). A metrics scrape
    // that can take the writer lock retries the publication, so committed
    // state does not stay invisible until the next batch.
    replica.publish_gauges();
    assert_eq!(docs(&replica, "whale"), (1, vec![1]));
    assert_eq!(
        invidx_obs::registry().gauge(names::SERVE_PUBLISH_LAG).get(),
        0,
        "catch-up clears the publication lag gauge"
    );
}
