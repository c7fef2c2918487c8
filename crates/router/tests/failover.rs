//! Kill a replica under the router and make sure nobody notices.
//!
//! The full replication topology, in miniature: two shards, each a
//! durable primary (WAL-shipping via its server's `WALTAIL` verb) plus
//! one durable read replica kept caught up by a [`ReplicaTailer`] and
//! served over TCP. The router reads through per-shard replica sets
//! `[remote replica, local primary]` under a retry+hedge policy, and a
//! volatile unsharded oracle ingests the identical documents.
//!
//! The scripted fault sequence:
//!
//! 1. steady state — replicas at epoch parity, routed answers equal the
//!    oracle's (LIKE scores bit-exact);
//! 2. **kill** shard 0's replica server — every routed query must still
//!    answer within the read deadline (failover to the primary) and stay
//!    oracle-correct, while the router's error/retry/hedge counters
//!    record the dance;
//! 3. keep ingesting through the outage — correctness must hold with the
//!    corpus moving and one replica dark;
//! 4. **restart** the replica cold: stop its tailer, close its engine,
//!    reopen the same directory (local WAL recovery), tail again — it
//!    must reach epoch parity with the primary and answer the full query
//!    set identically.

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_durable::{DurableOptions, StoreGeometry};
use invidx_ir::DurableEngine;
use invidx_router::{
    LocalShard, Partitioner, ReadPolicy, RemoteShard, ReplicaSet, ReplicaTailer, Router,
    ShardBackend, TailerOptions,
};
use invidx_serve::{
    Frontend, Payload, QueryService, Request, ServeConfig, ServeEngine, Server,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

fn geom() -> StoreGeometry {
    StoreGeometry { disks: 2, blocks_per_disk: 20_000, block_size: 256 }
}

fn opts() -> DurableOptions {
    // Replication source contract: no checkpoints while shipping, a
    // checkpoint would reset the WAL a tailer reads from.
    DurableOptions { checkpoint_every: 0, ..Default::default() }
}

fn serve_cfg() -> ServeConfig {
    ServeConfig::builder().result_cache_capacity(0).build().unwrap()
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("invidx-router-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn durable_service(dir: &Path) -> Arc<QueryService<DurableEngine>> {
    let engine = DurableEngine::create(dir, IndexConfig::small(), geom(), opts()).unwrap();
    let epoch = engine.batches();
    Arc::new(QueryService::with_config_at(engine, serve_cfg(), epoch).unwrap())
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn query_mix() -> Vec<Request> {
    vec![
        Request::Boolean("cat".into()),
        Request::Boolean("dog and fox".into()),
        Request::Boolean("bee or ant".into()),
        Request::Phrase("cat dog".into()),
        Request::Near("fox".into(), "bee".into(), 3),
        Request::Like(4, "cat dog fox".into()),
        Request::Doc(2),
        Request::Doc(5),
    ]
}

/// Every routed answer equals the unsharded oracle's, and lands inside
/// the read deadline even mid-fault.
fn assert_oracle_correct(
    router: &Router<DurableEngine>,
    oracle: &QueryService<DurableEngine>,
    deadline: Duration,
    context: &str,
) {
    for request in query_mix() {
        let started = Instant::now();
        let routed = router.execute(&request).unwrap_or_else(|e| {
            panic!("{context}: {request:?} failed mid-fault: {e}")
        });
        let elapsed = started.elapsed();
        assert!(
            elapsed < deadline + Duration::from_millis(500),
            "{context}: {request:?} took {elapsed:?}, beyond the read deadline"
        );
        let want = oracle.execute(&request).unwrap();
        match (&routed.payload, &want.payload) {
            (Payload::Hits(got), Payload::Hits(expect)) => {
                let bits =
                    |hits: &[(u32, f64)]| -> Vec<(u32, u64)> {
                        hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
                    };
                assert_eq!(bits(got), bits(expect), "{context}: {request:?} scores diverged");
            }
            (got, expect) => {
                assert_eq!(got, expect, "{context}: {request:?} diverged from the oracle");
            }
        }
    }
}

#[test]
fn router_fails_over_on_replica_death_and_replica_catches_up_after_restart() {
    // --- topology ------------------------------------------------------
    let mut primaries: Vec<Arc<QueryService<DurableEngine>>> = Vec::new();
    let mut primary_servers = Vec::new();
    for shard in 0..SHARDS {
        let dir = tmpdir(&format!("failover-primary-{shard}"));
        let service = durable_service(&dir);
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&service), serve_cfg()).unwrap();
        primaries.push(service);
        primary_servers.push(server);
    }

    let mut replica_dirs = Vec::new();
    let mut replicas: Vec<Option<Arc<QueryService<DurableEngine>>>> = Vec::new();
    let mut tailers: Vec<Option<ReplicaTailer>> = Vec::new();
    let mut replica_servers: Vec<Option<Server<Frontend<DurableEngine>>>> = Vec::new();
    let tailer_opts = |shard: usize| TailerOptions {
        poll: Duration::from_millis(10),
        timeout: Duration::from_secs(1),
        shard,
    };
    for (shard, primary_server) in primary_servers.iter().enumerate() {
        let dir = tmpdir(&format!("failover-replica-{shard}"));
        let service = durable_service(&dir);
        let tailer = ReplicaTailer::start(
            Arc::clone(&service),
            primary_server.addr(),
            tailer_opts(shard),
        );
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&service), serve_cfg()).unwrap();
        replica_dirs.push(dir);
        replicas.push(Some(service));
        tailers.push(Some(tailer));
        replica_servers.push(Some(server));
    }

    let policy = ReadPolicy {
        deadline: Duration::from_secs(3),
        hedge_after: Some(Duration::from_millis(150)),
        max_attempts: 2,
    };
    let mut readers = Vec::new();
    for shard in 0..SHARDS {
        let remote: Arc<dyn ShardBackend> = Arc::new(RemoteShard::new(
            replica_servers[shard].as_ref().unwrap().addr(),
            Duration::from_millis(500),
            format!("replica-{shard}"),
        ));
        let local: Arc<dyn ShardBackend> =
            Arc::new(LocalShard::new(Arc::clone(&primaries[shard]), format!("primary-{shard}")));
        readers.push(ReplicaSet::new(vec![remote, local]).unwrap());
    }
    let router =
        Router::new(primaries.clone(), readers, Partitioner::Hash { shards: SHARDS }, policy)
            .unwrap();

    let oracle_engine =
        DurableEngine::without_log(sparse_array(2, 50_000, 256), IndexConfig::small()).unwrap();
    let oracle = QueryService::with_config(oracle_engine, serve_cfg()).unwrap();

    let ingest = |router: &Router<DurableEngine>, texts: &[&str]| {
        router.ingest(texts).unwrap();
        oracle.ingest_batch(texts).unwrap();
    };
    let wait_parity = |router: &Router<DurableEngine>,
                       replica: &Arc<QueryService<DurableEngine>>,
                       shard: usize| {
        let primary_epoch = router.writers()[shard].epoch();
        wait_until(&format!("shard {shard} replica parity"), Duration::from_secs(10), || {
            replica.epoch() >= primary_epoch
        });
    };

    // --- phase 1: steady state ----------------------------------------
    ingest(&router, &["cat dog ant", "dog fox", "fox bee cat", "ant bee"]);
    ingest(&router, &["cat dog", "bee fox dog", "ant cat fox"]);
    for (shard, replica) in replicas.iter().enumerate() {
        wait_parity(&router, replica.as_ref().unwrap(), shard);
    }
    assert_oracle_correct(&router, &oracle, policy.deadline, "steady state");

    // --- phase 2: kill shard 0's replica (server and tailer) -----------
    replica_servers[0].take().unwrap().shutdown();
    tailers[0].take().unwrap().stop();
    assert_oracle_correct(&router, &oracle, policy.deadline, "replica 0 dark");
    let counters = router.counters();
    assert!(
        counters.shard_errors(0) + counters.hedges() > 0,
        "the dead replica must have shown up as shard errors or hedges"
    );
    assert_eq!(counters.shard_errors(1), 0, "shard 1 never failed");

    // --- phase 3: the corpus keeps moving through the outage -----------
    ingest(&router, &["dog dog bee", "cat ant", "fox fox"]);
    wait_parity(&router, replicas[1].as_ref().unwrap(), 1);
    assert_oracle_correct(&router, &oracle, policy.deadline, "ingest during outage");

    // --- phase 4: cold restart, catch up over WALTAIL ------------------
    let service = Arc::try_unwrap(replicas[0].take().unwrap())
        .ok()
        .expect("server and tailer released their handles");
    let behind = service.epoch();
    drop(service.into_engine()); // close the store cleanly
    let engine = DurableEngine::open(&replica_dirs[0], IndexConfig::small(), opts()).unwrap();
    assert_eq!(
        engine.batches(),
        behind,
        "local recovery must restore exactly the replicated prefix"
    );
    let restarted =
        Arc::new(QueryService::with_config_at(engine, serve_cfg(), behind).unwrap());
    let primary_epoch = router.writers()[0].epoch();
    assert!(behind < primary_epoch, "the outage left replica 0 behind its primary");
    let _tailer =
        ReplicaTailer::start(Arc::clone(&restarted), primary_servers[0].addr(), tailer_opts(0));
    wait_until("restarted replica parity", Duration::from_secs(10), || {
        restarted.epoch() >= primary_epoch
    });
    assert_eq!(restarted.epoch(), router.writers()[0].epoch(), "epoch parity after catch-up");

    // The caught-up replica answers exactly like its primary.
    for request in query_mix() {
        let from_replica = restarted.execute(&request).unwrap();
        let from_primary = router.writers()[0].execute(&request).unwrap();
        assert_eq!(
            from_replica.payload, from_primary.payload,
            "{request:?} diverged between restarted replica and primary"
        );
    }
}
