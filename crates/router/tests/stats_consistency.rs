//! Routed `STATS` must equal the sum of the shards' own scrapes — no
//! more, no less.
//!
//! The bug class this pins down: an aggregator that folds its *own*
//! admission counters into the per-shard sums double-counts every request
//! (once at the router, once at the shard that served it). The router
//! keeps its counters in a disjoint `router_*` namespace instead, so the
//! routed `STATS` payload is a pure field-by-field sum of the shards'
//! serving counters.
//!
//! The check reads each field three ways:
//!
//! 1. a direct per-shard sum *before* the routed scrape (the baseline),
//! 2. the routed `STATS` payload itself,
//! 3. a direct per-shard sum *after* it (the scrape's own fan-out bumps
//!    each shard's query counter by exactly one, and nothing else moves).
//!
//! With traffic quiesced, (2) must equal (3) exactly, and must sit
//! exactly `shards` queries above (1) — any contribution from the
//! router's own admission counter would push it higher.

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_router::{LocalShard, Partitioner, ReadPolicy, ReplicaSet, Router, ShardBackend};
use invidx_serve::{Payload, QueryService, Request, ServeConfig, ServeStats};
use std::sync::Arc;

fn build_router(shards: usize) -> Router<DurableEngine> {
    let mut writers = Vec::with_capacity(shards);
    let mut readers = Vec::with_capacity(shards);
    for shard in 0..shards {
        let engine =
            DurableEngine::without_log(sparse_array(2, 50_000, 256), IndexConfig::small()).unwrap();
        // A small cache so hits, misses, and stale drops all show up in
        // the summed fields.
        let config = ServeConfig::builder().result_cache_capacity(8).build().unwrap();
        let service = Arc::new(QueryService::with_config(engine, config).unwrap());
        let backend: Arc<dyn ShardBackend> =
            Arc::new(LocalShard::new(Arc::clone(&service), format!("shard-{shard}")));
        writers.push(service);
        readers.push(ReplicaSet::new(vec![backend]).unwrap());
    }
    Router::new(
        writers,
        readers,
        Partitioner::Range { shards, chunk: 2 },
        ReadPolicy::default(),
    )
    .unwrap()
}

fn summed(router: &Router<DurableEngine>) -> ServeStats {
    let mut sum = ServeStats::default();
    for service in router.writers() {
        let s = service.stats();
        sum.docs += s.docs;
        sum.queries += s.queries;
        sum.cache_hits += s.cache_hits;
        sum.cache_misses += s.cache_misses;
        sum.cache_evictions += s.cache_evictions;
        sum.cache_stale_drops += s.cache_stale_drops;
        sum.shed += s.shed;
        sum.timeouts += s.timeouts;
        sum.batches += s.batches;
    }
    sum
}

#[test]
fn routed_stats_equal_summed_shard_scrapes_without_double_counting() {
    let shards = 3;
    let router = build_router(shards);
    let mut admitted = 0u64;

    // Traffic that exercises every summed counter: ingest (docs,
    // batches), repeated queries (cache hits), post-ingest re-queries
    // (stale drops), a point read (touches exactly one shard).
    router.ingest(&["cat dog", "dog fox", "fox ant", "ant bee", "bee cat"]).unwrap();
    for _ in 0..3 {
        router.execute(&Request::Boolean("dog".into())).unwrap();
        admitted += 1;
    }
    router.ingest(&["cat fox", "dog bee"]).unwrap();
    router.execute(&Request::Boolean("dog".into())).unwrap();
    router.execute(&Request::Like(3, "cat dog".into())).unwrap();
    router.execute(&Request::Doc(1)).unwrap();
    admitted += 3;

    let before = summed(&router);
    let routed = match router.execute(&Request::Stats).unwrap().payload {
        Payload::Stats(s) => s,
        other => panic!("STATS answered {other:?}"),
    };
    admitted += 1;
    let after = summed(&router);

    // Quiesced: the routed scrape and the post-scrape direct reads see
    // the identical counter state, field by field.
    assert_eq!(routed, after, "routed STATS must be the exact shard sum");

    // The scrape's own fan-out is the only movement between the
    // snapshots: one query per shard, nothing folded in from the router.
    assert_eq!(
        routed.queries,
        before.queries + shards as u64,
        "only the scrape fan-out itself may separate the snapshots — \
         a larger gap means the router double-counted its own admissions"
    );
    assert_eq!(routed.docs, before.docs);
    assert_eq!(routed.batches, before.batches);
    assert_eq!(routed.cache_hits, before.cache_hits);
    assert_eq!(routed.cache_stale_drops, before.cache_stale_drops);

    // Sanity on the traffic itself: both batches flushed on every shard
    // (range chunk 2 over 7 docs touches all three), repeats hit the
    // cache, the post-ingest re-query dropped a stale entry.
    assert_eq!(routed.docs, 7);
    assert!(routed.cache_hits > 0, "repeated query must hit the result cache");
    assert!(routed.cache_stale_drops > 0, "re-query after ingest must drop a stale entry");

    // The router's own admissions live in router_* counters, sized by
    // what the client sent — not by the fan-out multiplier.
    assert_eq!(router.counters().queries(), admitted);
    assert_eq!(router.counters().ingested_docs(), 7);
    assert_eq!(router.counters().retries(), 0);

    // The metrics exposition carries the router-layer series.
    let text = router.render_metrics();
    assert!(text.contains("router_queries_total"), "missing router counter:\n{text}");
    assert!(text.contains("router_shard_epoch"), "missing epoch gauge:\n{text}");
}
