//! Satellite check: the `STATS` verb over TCP and the in-process
//! `QueryService::stats()` must agree field-by-field, and a scripted
//! sequence must move *all* the result-cache counters (hit, miss, stale
//! drop, eviction) off zero — so a dashboard built on either surface sees
//! the same, complete story.
//!
//! The engine is rewrapped mid-way, as a service restart would do, so the
//! counters must also survive a full re-materialization.

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_serve::{parse_response, Client, Payload, QueryService, ServeConfig, Server};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn stats_verb_matches_in_process_counters() {
    // "hot" has 120 postings (≫ the 40-unit bucket capacity, so it
    // migrates to a 12-block long list); "warm" has 360. The result cache
    // holds exactly one entry (the warm lookup evicts the hot entry).
    let array = sparse_array(2, 50_000, 256);
    let engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
    let serve = ServeConfig::builder().result_cache_capacity(1).readers(1).build().unwrap();

    // Publish #1: materializing "hot" reads its 12 blocks from the device.
    let staging = QueryService::with_config(engine, serve).unwrap();
    let hot: Vec<String> = (0..120).map(|i| format!("hot f{i}")).collect();
    staging.ingest_batch(&hot).unwrap();

    // Restart-shaped rewrap: a full re-materialization re-reads hot's
    // blocks. Anchored at epoch 1 so epochs keep counting batches across the swap.
    let service =
        Arc::new(QueryService::with_config_at(staging.into_engine(), serve, 1).unwrap());

    // Publish #3: warm's batch.
    let warm: Vec<String> = (0..360).map(|i| format!("warm g{i}")).collect();
    service.ingest_batch(&warm).unwrap();

    let srv = Server::bind("127.0.0.1:0", Arc::clone(&service), serve).unwrap();
    let mut client = Client::connect(srv.addr(), Duration::from_secs(30)).unwrap();
    let mut roundtrip = |line: &str| -> String {
        let reply = client.line(line).unwrap();
        assert!(reply.starts_with("OK "), "{line} failed: {reply}");
        reply
    };

    // Result-cache miss (cold key).
    roundtrip("QUERY hot");
    // Epoch bump: the cached "hot" entry is now stale.
    roundtrip("ADD unrelated zzz");
    roundtrip("FLUSH");
    // Stale drop + recompute against the new snapshot.
    roundtrip("QUERY hot");
    // Same epoch now → result-cache hit.
    roundtrip("QUERY hot");
    // New key: result miss, and its same-epoch insert evicts the "hot"
    // entry (capacity 1) — a capacity eviction, not a stale drop.
    roundtrip("QUERY warm");

    let reply = roundtrip("STATS");
    let resp = parse_response(&reply).unwrap().unwrap();
    let Payload::Stats(wire) = resp.payload else { panic!("want stats: {reply}") };
    let local = service.stats();

    // The two surfaces must agree exactly — same counters, same engine.
    assert_eq!(wire, local, "wire STATS diverged from in-process stats()");

    // And the scripted sequence moved every cache counter off zero.
    assert!(wire.docs >= 481, "480 corpus docs + 1 added");
    assert!(wire.queries >= 4);
    assert_eq!(wire.batches, 2, "warm batch + wire flush through this service");
    assert!(wire.cache_misses >= 2, "hot cold lookup + warm lookup");
    assert!(wire.cache_stale_drops >= 1, "epoch bump must stale the entry");
    assert!(wire.cache_hits >= 1, "same-epoch re-query must hit");
    assert!(wire.cache_evictions >= 1, "capacity-1 cache must evict");
    assert_eq!(wire.shed, 0);
    assert_eq!(wire.timeouts, 0);
    srv.shutdown();
}
