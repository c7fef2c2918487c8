//! Ablation: scatter-gather serving over shards with WAL-shipped read
//! replicas — does read throughput scale with the replica count while a
//! single writer keeps ingesting?
//!
//! The deployment under test is the real `invidx-router` stack, in
//! miniature: 2 shards, each a durable primary served over TCP (the
//! `WALTAIL` endpoint) with N durable read replicas kept caught up by
//! [`ReplicaTailer`]s. Every replica sits behind an admission
//! [`Frontend`] with **one** reader lane, and replica reads carry a
//! fixed simulated seek floor — the same move the rest of the repo makes
//! with simulated disks: the scarce resource is replica service
//! capacity, not the host's core count, so the scaling claim survives a
//! 2-core CI runner.
//!
//! Load is **open-loop**: a scheduler samples Poisson arrival times at a
//! fixed offered rate (deliberately above the 2-replica capacity) and
//! spawns one worker per arrival; workers never wait for each other, so
//! the arrival process doesn't slow down when the system saturates —
//! overload shows up as typed sheds, not as a politely throttled client.
//! Queries are a Zipf-weighted boolean mix.
//!
//! **Every successful response is oracle-checked** against an unsharded
//! twin: the full ingest schedule is known up front, the partitioner's
//! document→shard assignment is a pure function, and each shard's epoch
//! counts the batches that touched it — so for any response epoch vector
//! `(e0, e1)` the exactly-visible document set is computable, even while
//! replicas lag mid-catch-up. A brute-force evaluation over that set
//! must equal the routed answer, id for id.
//!
//! Reported per replica count: offered vs achieved throughput, shed
//! rate, latency percentiles, and scaling vs one replica. With
//! `INVIDX_MIN_SPEEDUP=<x>` the run exits non-zero unless 2-replica
//! goodput reaches `x`× the 1-replica goodput. With
//! `INVIDX_MAX_P99_MS=<ms>` it exits non-zero unless the best
//! configuration's p99 latency stays at or under `ms`.

use invidx_bench::{emit_table, init_metrics, percentile, quick};
use invidx_core::index::IndexConfig;
use invidx_corpus::vocab::word_string;
use invidx_corpus::zipf::ZipfTable;
use invidx_durable::{DurableOptions, StoreGeometry};
use invidx_ir::DurableEngine;
use invidx_router::{
    FrontendShard, Partitioner, ReadPolicy, ReplicaSet, ReplicaTailer, Router, ShardBackend,
    TailerOptions,
};
use invidx_serve::{Frontend, Payload, QueryService, Request, ServeConfig, Server};
use invidx_sim::TextTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const VOCAB_RANKS: usize = 600;
const WORDS_PER_DOC: usize = 10;
const ZIPF_S: f64 = 1.05;
/// Fixed service-time floor per replica read: models a seek-bound store,
/// so one reader lane sustains ~1/floor queries per second.
const SEEK_FLOOR: Duration = Duration::from_millis(2);

struct Scale {
    seed_batches: usize,
    live_batches: usize,
    docs_per_batch: usize,
    window: Duration,
    offered_rate: f64,
    replica_counts: Vec<usize>,
}

fn scale() -> Scale {
    if quick() {
        Scale {
            seed_batches: 5,
            live_batches: 6,
            docs_per_batch: 30,
            window: Duration::from_secs(3),
            offered_rate: 1_500.0,
            replica_counts: vec![1, 2],
        }
    } else {
        Scale {
            seed_batches: 10,
            live_batches: 12,
            docs_per_batch: 60,
            window: Duration::from_secs(6),
            offered_rate: 2_500.0,
            replica_counts: vec![1, 2, 4],
        }
    }
}

/// One query: conjunction of disjunction groups over vocabulary words —
/// renders to a `QUERY` line and brute-force evaluates against a word
/// set.
#[derive(Clone)]
struct PooledQuery {
    groups: Vec<Vec<String>>,
}

impl PooledQuery {
    fn request(&self) -> Request {
        let text = self
            .groups
            .iter()
            .map(|g| format!("({})", g.join(" or ")))
            .collect::<Vec<_>>()
            .join(" and ");
        Request::Boolean(text)
    }

    fn matches(&self, words: &HashSet<String>) -> bool {
        self.groups.iter().all(|g| g.iter().any(|w| words.contains(w)))
    }
}

fn make_queries(zipf: &ZipfTable, rng: &mut StdRng, pool: usize) -> Vec<PooledQuery> {
    (0..pool)
        .map(|_| {
            let groups = rng.random_range(1..=3);
            PooledQuery {
                groups: (0..groups)
                    .map(|_| {
                        (0..rng.random_range(1..=3))
                            .map(|_| word_string(zipf.sample(rng)))
                            .collect()
                    })
                    .collect(),
            }
        })
        .collect()
}

/// The full ingest schedule plus the pure-function partitioning facts the
/// oracle needs to name the visible set for *any* response epoch vector.
struct OracleData {
    /// Per global doc (0-indexed by `global - 1`): owning shard, global
    /// batch index, word set.
    docs: Vec<(usize, usize, HashSet<String>)>,
    /// Per shard: the global batch indices that delivered at least one
    /// document to it — shard epoch `e` means "the first `e` of these".
    touch: Vec<Vec<usize>>,
}

impl OracleData {
    fn build(schedule: &[Vec<String>], partitioner: Partitioner) -> Self {
        let mut docs = Vec::new();
        let mut touch = vec![Vec::new(); SHARDS];
        let mut global = 0u32;
        for (batch_idx, batch) in schedule.iter().enumerate() {
            let mut touched = [false; SHARDS];
            for text in batch {
                global += 1;
                let shard = partitioner.shard_of(global);
                touched[shard] = true;
                docs.push((
                    shard,
                    batch_idx,
                    text.split_whitespace().map(str::to_string).collect(),
                ));
            }
            for (shard, hit) in touched.iter().enumerate() {
                if *hit {
                    touch[shard].push(batch_idx);
                }
            }
        }
        Self { docs, touch }
    }

    /// The exact answer at epoch vector `epochs`: global ids, ascending.
    fn answer(&self, query: &PooledQuery, epochs: &[u64]) -> Vec<u32> {
        self.docs
            .iter()
            .enumerate()
            .filter(|(_, (shard, batch, words))| {
                let e = epochs[*shard] as usize;
                e > 0 && *batch <= self.touch[*shard][e - 1] && query.matches(words)
            })
            .map(|(i, _)| i as u32 + 1)
            .collect()
    }
}

fn make_batches(s: &Scale, zipf: &ZipfTable, rng: &mut StdRng) -> Vec<Vec<String>> {
    (0..s.seed_batches + s.live_batches)
        .map(|_| {
            (0..s.docs_per_batch)
                .map(|_| {
                    (0..WORDS_PER_DOC)
                        .map(|_| word_string(zipf.sample(rng)))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect()
        })
        .collect()
}

fn geom() -> StoreGeometry {
    StoreGeometry { disks: 2, blocks_per_disk: 20_000, block_size: 256 }
}

fn ship_opts() -> DurableOptions {
    DurableOptions { checkpoint_every: 0, ..DurableOptions::default() }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("invidx-sharding-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

struct RunOutcome {
    arrivals: u64,
    ok: u64,
    shed: u64,
    failed: u64,
    goodput: f64,
    latencies_us: Vec<u64>,
}

/// Build a fresh deployment with `replicas` replicas per shard, seed it,
/// then drive the open-loop window with a live writer. Every successful
/// response is oracle-checked.
#[allow(clippy::too_many_arguments)]
fn run_config(
    s: &Scale,
    replicas: usize,
    schedule: &Arc<Vec<Vec<String>>>,
    oracle: &Arc<OracleData>,
    queries: &Arc<Vec<PooledQuery>>,
    partitioner: Partitioner,
) -> RunOutcome {
    let cache_off = ServeConfig::builder().result_cache_capacity(0).build().unwrap();
    // One reader lane per replica, a short queue: saturated lanes shed
    // quickly instead of building seconds of queueing delay. The seek
    // floor models a device-bound replica read; with the lock-free
    // snapshot path it is injected at the service layer, since queries
    // no longer reach the engine (or its block device) at all.
    let lane = ServeConfig::builder()
        .result_cache_capacity(0)
        .readers(1)
        .high_water(16)
        .deadline(Duration::from_secs(2))
        .read_floor(SEEK_FLOOR)
        .build()
        .unwrap();

    let mut writers = Vec::new();
    let mut primary_servers = Vec::new();
    for shard in 0..SHARDS {
        let dir = tmpdir(&format!("r{replicas}-primary-{shard}"));
        let engine = DurableEngine::create(&dir, IndexConfig::small(), geom(), ship_opts())
            .expect("create primary");
        let service = Arc::new(QueryService::with_config_at(engine, cache_off, 0).expect("serve"));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), cache_off).expect("bind");
        writers.push(service);
        primary_servers.push(server);
    }
    let mut tailers = Vec::new();
    let mut replica_services = Vec::new();
    let mut readers = Vec::new();
    for (shard, primary_server) in primary_servers.iter().enumerate() {
        let mut backends: Vec<Arc<dyn ShardBackend>> = Vec::new();
        for r in 0..replicas {
            let dir = tmpdir(&format!("r{replicas}-replica-{shard}-{r}"));
            let engine = DurableEngine::create(&dir, IndexConfig::small(), geom(), ship_opts())
                .expect("create replica");
            let service = Arc::new(QueryService::with_config_at(engine, lane, 0).expect("serve"));
            tailers.push(ReplicaTailer::start(
                Arc::clone(&service),
                primary_server.addr(),
                TailerOptions {
                    poll: Duration::from_millis(5),
                    timeout: Duration::from_secs(2),
                    shard,
                },
            ));
            let frontend = Arc::new(Frontend::start_with(Arc::clone(&service), lane));
            backends.push(Arc::new(FrontendShard::new(frontend, format!("s{shard}r{r}"))));
            replica_services.push((shard, service));
        }
        readers.push(ReplicaSet::new(backends).expect("replica set"));
    }
    let policy = ReadPolicy {
        deadline: Duration::from_secs(3),
        hedge_after: None,
        max_attempts: 1,
    };
    let router = Arc::new(
        Router::new(writers, readers, partitioner, policy).expect("router"),
    );

    // Seed, then let every replica reach parity before the clock starts.
    for batch in &schedule[..s.seed_batches] {
        router.ingest(batch).expect("seed ingest");
    }
    let parity = |target: &[u64]| {
        replica_services.iter().all(|(shard, svc)| svc.epoch() >= target[*shard])
    };
    let target = router.epochs();
    let t0 = Instant::now();
    while !parity(&target) {
        assert!(t0.elapsed() < Duration::from_secs(30), "replicas never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The live writer: the remaining batches, spread across the window.
    let live = schedule[s.seed_batches..].to_vec();
    let writer_router = Arc::clone(&router);
    let pause = s.window / (live.len() as u32 + 1);
    let writer = std::thread::spawn(move || {
        for batch in &live {
            std::thread::sleep(pause);
            writer_router.ingest(batch).expect("live ingest");
        }
    });

    // Open loop: Poisson arrivals at the offered rate, one detached
    // worker per arrival; latency is measured from the *scheduled*
    // arrival instant, so a backlogged system cannot hide queueing delay.
    let (tx, rx) = mpsc::channel::<(bool, bool, u64)>(); // (ok, shed, latency_us)
    let mismatches = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut arrivals = 0u64;
    let mut next = Duration::ZERO;
    let mut rng = StdRng::seed_from_u64(0x0FE11A + replicas as u64);
    let mut workers = Vec::new();
    while next < s.window {
        let due = started + next;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        arrivals += 1;
        let router = Arc::clone(&router);
        let queries = Arc::clone(queries);
        let oracle = Arc::clone(oracle);
        let tx = tx.clone();
        let mismatches = Arc::clone(&mismatches);
        let pick = rng.random_range(0..queries.len());
        workers.push(std::thread::spawn(move || {
            let query = &queries[pick];
            match router.execute(&query.request()) {
                Ok(resp) => {
                    let latency = due.elapsed().as_micros() as u64;
                    let Payload::Docs(got) = &resp.payload else {
                        panic!("boolean answered {:?}", resp.payload)
                    };
                    let want = oracle.answer(query, &resp.epochs);
                    if *got != want {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "MISMATCH at epochs {:?}: got {got:?}, oracle {want:?}",
                            resp.epochs
                        );
                    }
                    let _ = tx.send((true, false, latency));
                }
                Err(e) if e.code() == "overloaded" => {
                    let _ = tx.send((false, true, due.elapsed().as_micros() as u64));
                }
                Err(e) if e.code() == "timeout" => {
                    let _ = tx.send((false, false, due.elapsed().as_micros() as u64));
                }
                Err(e) => panic!("untyped failure under load: {e}"),
            }
        }));
        // Exponential inter-arrival at the offered rate; u < 1.0 so the
        // log never blows up.
        let u: f64 = rng.random();
        next += Duration::from_secs_f64(-(1.0 - u).ln() / s.offered_rate);
    }
    for w in workers {
        w.join().expect("worker");
    }
    let secs = started.elapsed().as_secs_f64();
    writer.join().expect("writer");
    drop(tx);

    let mut out = RunOutcome {
        arrivals,
        ok: 0,
        shed: 0,
        failed: 0,
        goodput: 0.0,
        latencies_us: Vec::new(),
    };
    for (ok, shed, latency) in rx {
        if ok {
            out.ok += 1;
            out.latencies_us.push(latency);
        } else if shed {
            out.shed += 1;
        } else {
            out.failed += 1;
        }
    }
    out.goodput = out.ok as f64 / secs;
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "sharded serving returned results the unsharded oracle disagrees with"
    );
    assert!(out.ok > 0, "no successful responses at {replicas} replicas");

    // Drain: replicas reach parity with the final corpus, and a last
    // routed read at full parity equals the full-corpus oracle answer.
    let target = router.epochs();
    let t0 = Instant::now();
    while !parity(&target) {
        assert!(t0.elapsed() < Duration::from_secs(30), "replicas never re-converged");
        std::thread::sleep(Duration::from_millis(5));
    }
    let probe = &queries[0];
    let resp = router.execute(&probe.request()).expect("post-run probe");
    assert_eq!(
        resp.payload,
        Payload::Docs(oracle.answer(probe, &resp.epochs)),
        "post-run probe diverged at full parity"
    );
    drop(tailers);
    out
}

fn main() {
    init_metrics();
    let s = scale();
    let partitioner = Partitioner::Hash { shards: SHARDS };
    let zipf = ZipfTable::new(VOCAB_RANKS, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(0x5AAD5EED);
    let schedule = Arc::new(make_batches(&s, &zipf, &mut rng));
    let queries = Arc::new(make_queries(&zipf, &mut rng, 64));
    let oracle = Arc::new(OracleData::build(&schedule, partitioner));
    invidx_obs::log_progress(
        "sharding",
        &format!(
            "{} shards, {} docs ({} live batches during the window), {:.0} req/s offered for {:?}",
            SHARDS,
            oracle.docs.len(),
            s.live_batches,
            s.offered_rate,
            s.window,
        ),
    );

    let mut rows = Vec::new();
    let mut baseline: Option<f64> = None;
    let mut speedup_at_2 = 1.0f64;
    let mut best_p99_ms = f64::INFINITY;
    for &replicas in &s.replica_counts {
        let mut out = run_config(&s, replicas, &schedule, &oracle, &queries, partitioner);
        let base = *baseline.get_or_insert(out.goodput);
        let scaling = out.goodput / base;
        if replicas == 2 {
            speedup_at_2 = scaling;
        }
        invidx_obs::log_progress(
            "sharding",
            &format!(
                "{replicas} replica(s): {:.0} ok/s of {:.0} offered ({} shed), {:.2}x",
                out.goodput, s.offered_rate, out.shed, scaling
            ),
        );
        out.latencies_us.sort_unstable();
        best_p99_ms = best_p99_ms.min(percentile(&out.latencies_us, 0.99));
        rows.push(vec![
            replicas.to_string(),
            format!("{:.0}", s.offered_rate),
            out.arrivals.to_string(),
            out.ok.to_string(),
            out.shed.to_string(),
            out.failed.to_string(),
            format!("{:.0}", out.goodput),
            format!("{:.2}", percentile(&out.latencies_us, 0.50)),
            format!("{:.2}", percentile(&out.latencies_us, 0.95)),
            format!("{scaling:.2}"),
        ]);
    }

    emit_table(&TextTable {
        id: "ablation_sharding".into(),
        title: format!(
            "Sharded serving: {SHARDS} shards, WAL-shipped replicas behind 1-lane frontends \
             ({}ms seek floor), open-loop Poisson load, live writer, every response \
             oracle-checked",
            SEEK_FLOOR.as_millis()
        ),
        headers: vec![
            "Replicas/shard".into(),
            "Offered/s".into(),
            "Arrivals".into(),
            "OK".into(),
            "Shed".into(),
            "Failed".into(),
            "Goodput/s".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "Scaling x".into(),
        ],
        rows,
    });

    if let Ok(min) = std::env::var("INVIDX_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("INVIDX_MIN_SPEEDUP must be a number");
        if speedup_at_2 < min {
            eprintln!("FAIL: 2-replica goodput scaling {speedup_at_2:.2}x < required {min:.2}x");
            std::process::exit(1);
        }
        println!("OK: 2-replica goodput scaling {speedup_at_2:.2}x >= {min:.2}x");
    }
    if let Ok(max) = std::env::var("INVIDX_MAX_P99_MS") {
        let max: f64 = max.parse().expect("INVIDX_MAX_P99_MS must be a number");
        if best_p99_ms > max {
            eprintln!("FAIL: best-config p99 {best_p99_ms:.2} ms > SLO {max:.2} ms");
            std::process::exit(1);
        }
        println!("OK: best-config p99 {best_p99_ms:.2} ms <= SLO {max:.2} ms");
    }
}
