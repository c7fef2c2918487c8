//! Ablation: concurrent serving under load. The paper argues for
//! incremental updates precisely so the index can stay online — "7 days a
//! week, 24 hours a day" (§1) — which only matters if queries keep flowing
//! *while* batches land. This load generator drives the `invidx-serve`
//! stack end to end over its TCP wire protocol:
//!
//! * **Sustained phase** — 8 closed-loop clients replay a Zipf-weighted
//!   query stream against the server while a writer thread keeps ingesting
//!   batches. Every response's `(epoch, docs)` pair is checked against a
//!   single-threaded oracle replay of the same batch schedule; one
//!   mismatch fails the run.
//! * **Open-loop phase** — arrivals are sampled from a Poisson process at
//!   a fixed offered rate (same Zipf query mix) and each request gets its
//!   own connection and thread; arrivals never wait for completions, so a
//!   saturating server can't throttle its own load generator, and latency
//!   is measured from the *scheduled* arrival instant — queueing delay
//!   counts. Every response is oracle-checked.
//! * **Overload phase** — the server is rebuilt with a deliberately tiny
//!   queue (1 reader, high-water 4) and its writer wedged, then burst
//!   clients flood it. The point under test: the server answers with
//!   *typed* `ERR overloaded` / `ERR timeout` lines instead of queueing
//!   unboundedly or dropping connections.
//!
//! Reported: throughput, p50/p95/p99 latency, cache hit rate, shed rate.
//! `INVIDX_QUICK=1` shrinks the corpus and request counts to CI scale.
//! With `INVIDX_MAX_P99_MS=<ms>` the run exits non-zero unless the
//! sustained-phase p99 latency stays at or under `ms`.

use invidx_bench::{emit_table, init_metrics, percentile, quick};
use invidx_core::index::IndexConfig;
use invidx_corpus::vocab::word_string;
use invidx_corpus::zipf::ZipfTable;
use invidx_disk::sparse_array;
use invidx_ir::{Bm25Params, DurableEngine};
use invidx_serve::{Client, Payload, QueryService, Request, ServeConfig, Server};
use invidx_sim::TextTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
/// Transport bound of every load client: far beyond any deadline the
/// phases configure, so only a hung server trips it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
const VOCAB_RANKS: u64 = 2_000;
const WORDS_PER_DOC: usize = 12;
const ZIPF_S: f64 = 1.05;

struct Scale {
    batches: usize,
    docs_per_batch: usize,
    requests_per_client: usize,
    query_pool: usize,
}

fn scale() -> Scale {
    if quick() {
        Scale { batches: 6, docs_per_batch: 20, requests_per_client: 200, query_pool: 48 }
    } else {
        Scale { batches: 16, docs_per_batch: 60, requests_per_client: 1_500, query_pool: 96 }
    }
}

/// Zipf-sampled document text: frequent ranks dominate, like real text.
fn make_batches(s: &Scale, zipf: &ZipfTable, rng: &mut StdRng) -> Vec<Vec<String>> {
    (0..s.batches)
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

/// The query pool the clients replay (itself Zipf-weighted: queries are
/// built from the same skewed rank distribution, so popular words repeat —
/// which is exactly what gives the result cache something to do).
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

fn run_oracle_request(engine: &DurableEngine, req: &Request) -> Vec<u32> {
    let query = req.engine_query(Bm25Params::default()).expect("an engine query");
    let out = engine.execute(&query).expect("oracle query");
    out.docs().expect("not in the oracle mix").docs().iter().map(|d| d.0).collect()
}

/// `oracle[epoch][wire-form] = expected docs` from a single-threaded replay.
fn build_oracle(
    schedule: &[Vec<String>],
    queries: &[Request],
) -> Vec<HashMap<String, Vec<u32>>> {
    let mut engine =
        DurableEngine::without_log(sparse_array(4, 200_000, 512), IndexConfig::small()).unwrap();
    let row = |e: &DurableEngine| {
        queries.iter().map(|q| (q.to_wire(), run_oracle_request(e, q))).collect()
    };
    let mut oracle = vec![row(&engine)];
    for batch in schedule {
        for text in batch {
            engine.add_document(text).unwrap();
        }
        engine.flush().unwrap();
        oracle.push(row(&engine));
    }
    oracle
}

struct ClientOutcome {
    latencies_us: Vec<u64>,
    ok: u64,
    shed: u64,
    timeouts: u64,
}

/// One closed-loop TCP client: send a request line, wait for the reply,
/// oracle-check it, repeat.
fn run_client(
    addr: std::net::SocketAddr,
    queries: &[Request],
    oracle: &[HashMap<String, Vec<u32>>],
    requests: usize,
    seed: u64,
    mismatches: &AtomicU64,
) -> ClientOutcome {
    let mut client = Client::connect(addr, CLIENT_TIMEOUT).expect("connect");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out =
        ClientOutcome { latencies_us: Vec::with_capacity(requests), ok: 0, shed: 0, timeouts: 0 };
    for _ in 0..requests {
        let req = &queries[rng.random_range(0..queries.len())];
        let t = Instant::now();
        let reply = client.call(req).expect("well-formed reply");
        out.latencies_us.push(t.elapsed().as_micros() as u64);
        match reply {
            Ok(resp) => {
                let Payload::Docs(got) = &resp.payload else {
                    panic!("unexpected payload: {:?}", resp.payload)
                };
                let want = &oracle[resp.epoch as usize][&req.to_wire()];
                if got != want {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "MISMATCH {} at epoch {}: got {got:?}, oracle {want:?}",
                        req.to_wire(),
                        resp.epoch
                    );
                }
                out.ok += 1;
            }
            Err(e) if e.code() == "overloaded" => out.shed += 1,
            Err(e) if e.code() == "timeout" => out.timeouts += 1,
            Err(e) => panic!("unexpected serving error: {e}"),
        }
    }
    out
}

struct PhaseRow {
    label: String,
    clients: usize,
    requests: u64,
    ok: u64,
    shed: u64,
    timeouts: u64,
    secs: f64,
    latencies_us: Vec<u64>,
    cache_hit_rate: f64,
}

impl PhaseRow {
    fn cells(mut self) -> Vec<String> {
        self.latencies_us.sort_unstable();
        vec![
            self.label,
            self.clients.to_string(),
            self.requests.to_string(),
            self.ok.to_string(),
            self.shed.to_string(),
            self.timeouts.to_string(),
            format!("{:.0}", self.ok as f64 / self.secs),
            format!("{:.2}", percentile(&self.latencies_us, 0.50)),
            format!("{:.2}", percentile(&self.latencies_us, 0.95)),
            format!("{:.2}", percentile(&self.latencies_us, 0.99)),
            format!("{:.1}%", self.cache_hit_rate * 100.0),
            format!("{:.1}%", self.shed as f64 / self.requests.max(1) as f64 * 100.0),
        ]
    }
}

/// Sustained phase: 8 clients vs 1 writer, every result oracle-checked.
fn sustained_phase(
    s: &Scale,
    schedule: Arc<Vec<Vec<String>>>,
    queries: Arc<Vec<Request>>,
    oracle: Arc<Vec<HashMap<String, Vec<u32>>>>,
) -> PhaseRow {
    let engine =
        DurableEngine::without_log(sparse_array(4, 200_000, 512), IndexConfig::small()).unwrap();
    let config = ServeConfig::builder()
        .result_cache_capacity(512)
        .readers(4)
        .high_water(1_024)
        .deadline(Duration::from_secs(30))
        .build()
        .expect("valid serve config");
    let service = Arc::new(QueryService::with_config(engine, config).expect("serve"));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), config).expect("bind");
    let addr = server.addr();
    let mismatches = Arc::new(AtomicU64::new(0));

    let t = Instant::now();
    let writer = {
        let service = Arc::clone(&service);
        let schedule = Arc::clone(&schedule);
        std::thread::spawn(move || {
            for batch in schedule.iter() {
                service.ingest_batch(batch).expect("ingest");
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let queries = Arc::clone(&queries);
            let oracle = Arc::clone(&oracle);
            let mismatches = Arc::clone(&mismatches);
            let requests = s.requests_per_client;
            std::thread::spawn(move || {
                run_client(addr, &queries, &oracle, requests, 0xC0FFEE + c as u64, &mismatches)
            })
        })
        .collect();
    let outcomes: Vec<ClientOutcome> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    writer.join().unwrap();
    let secs = t.elapsed().as_secs_f64();
    server.shutdown();

    let bad = mismatches.load(Ordering::Relaxed);
    assert_eq!(bad, 0, "{bad} oracle mismatches — serving returned incorrect results");
    let stats = service.stats();
    assert_eq!(stats.batches as usize, s.batches, "writer must have kept updating");
    let lookups = stats.cache_hits + stats.cache_misses;
    PhaseRow {
        label: "sustained (oracle-checked)".into(),
        clients: CLIENTS,
        requests: outcomes.iter().map(|o| o.latencies_us.len() as u64).sum(),
        ok: outcomes.iter().map(|o| o.ok).sum(),
        shed: outcomes.iter().map(|o| o.shed).sum(),
        timeouts: outcomes.iter().map(|o| o.timeouts).sum(),
        secs,
        latencies_us: outcomes.into_iter().flat_map(|o| o.latencies_us).collect(),
        cache_hit_rate: if lookups == 0 { 0.0 } else { stats.cache_hits as f64 / lookups as f64 },
    }
}

/// Open-loop phase: fixed-rate Poisson arrivals against a warm server.
/// Unlike the closed-loop sustained phase, the arrival process is
/// independent of completions — each arrival gets its own connection and
/// thread, and latency is charged from the request's *scheduled* arrival
/// time, so backlog shows up as latency rather than as a slowed client.
fn open_loop_phase(
    queries: Arc<Vec<Request>>,
    oracle: Arc<Vec<HashMap<String, Vec<u32>>>>,
    schedule: &[Vec<String>],
) -> PhaseRow {
    let engine =
        DurableEngine::without_log(sparse_array(4, 200_000, 512), IndexConfig::small()).unwrap();
    let config = ServeConfig::builder()
        .result_cache_capacity(512)
        .readers(4)
        .high_water(256)
        .deadline(Duration::from_secs(5))
        .build()
        .expect("valid serve config");
    let service = Arc::new(QueryService::with_config(engine, config).expect("serve"));
    for batch in schedule {
        service.ingest_batch(batch).expect("seed");
    }
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), config).expect("bind");
    let addr = server.addr();
    let mismatches = Arc::new(AtomicU64::new(0));
    let (rate, window) = if quick() {
        (400.0, Duration::from_secs(2))
    } else {
        (1_000.0, Duration::from_secs(4))
    };

    let (tx, rx) = std::sync::mpsc::channel::<(u8, u64)>(); // (0 ok | 1 shed | 2 timeout, us)
    let mut rng = StdRng::seed_from_u64(0x09E71007);
    let started = Instant::now();
    let mut next = Duration::ZERO;
    let mut arrivals = 0u64;
    let mut workers = Vec::new();
    while next < window {
        let due = started + next;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        arrivals += 1;
        let pick = rng.random_range(0..queries.len());
        let queries = Arc::clone(&queries);
        let oracle = Arc::clone(&oracle);
        let mismatches = Arc::clone(&mismatches);
        let tx = tx.clone();
        workers.push(std::thread::spawn(move || {
            let req = &queries[pick];
            let reply = Client::connect(addr, CLIENT_TIMEOUT)
                .and_then(|mut client| client.call(req))
                .expect("well-formed reply");
            let latency = due.elapsed().as_micros() as u64;
            match reply {
                Ok(resp) => {
                    let Payload::Docs(got) = &resp.payload else {
                        panic!("unexpected payload: {:?}", resp.payload)
                    };
                    let want = &oracle[resp.epoch as usize][&req.to_wire()];
                    if got != want {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "MISMATCH {} at epoch {}: got {got:?}, oracle {want:?}",
                            req.to_wire(),
                            resp.epoch
                        );
                    }
                    let _ = tx.send((0, latency));
                }
                Err(e) if e.code() == "overloaded" => drop(tx.send((1, latency))),
                Err(e) if e.code() == "timeout" => drop(tx.send((2, latency))),
                Err(e) => panic!("unexpected serving error: {e}"),
            }
        }));
        // Exponential inter-arrival; u < 1.0 keeps the log finite.
        let u: f64 = rng.random();
        next += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
    }
    for w in workers {
        w.join().expect("worker");
    }
    let secs = started.elapsed().as_secs_f64();
    drop(tx);
    server.shutdown();

    let bad = mismatches.load(Ordering::Relaxed);
    assert_eq!(bad, 0, "{bad} oracle mismatches in the open-loop phase");
    let mut out = PhaseRow {
        label: format!("open loop ({rate:.0}/s Poisson)"),
        clients: 1, // one arrival process, not a closed client pool
        requests: arrivals,
        ok: 0,
        shed: 0,
        timeouts: 0,
        secs,
        latencies_us: Vec::new(),
        cache_hit_rate: 0.0,
    };
    for (kind, latency) in rx {
        match kind {
            0 => {
                out.ok += 1;
                out.latencies_us.push(latency);
            }
            1 => out.shed += 1,
            _ => out.timeouts += 1,
        }
    }
    assert!(out.ok > 0, "open loop produced no successful responses");
    let stats = service.stats();
    let lookups = stats.cache_hits + stats.cache_misses;
    out.cache_hit_rate =
        if lookups == 0 { 0.0 } else { stats.cache_hits as f64 / lookups as f64 };
    out
}

/// Overload phase: tiny queue, wedged writer, burst clients. The server
/// must degrade by answering typed load errors, not by queueing forever.
fn overload_phase(queries: Arc<Vec<Request>>, seed_batch: &[String]) -> PhaseRow {
    let engine =
        DurableEngine::without_log(sparse_array(2, 50_000, 256), IndexConfig::small()).unwrap();
    let config = ServeConfig::builder()
        .result_cache_capacity(0)
        .readers(1)
        .high_water(4)
        .deadline(Duration::from_millis(20))
        .build()
        .expect("valid serve config");
    let service = Arc::new(QueryService::with_config(engine, config).expect("serve"));
    service.ingest_batch(seed_batch).expect("seed");
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), config).expect("bind");
    let addr = server.addr();

    // Wedge the single reader behind the engine write lock so the queue
    // fills and admission control has to act.
    let wedge_service = Arc::clone(&service);
    let hold = Duration::from_millis(if quick() { 300 } else { 800 });
    let wedge = std::thread::spawn(move || {
        wedge_service.with_blocked_writer(|| std::thread::sleep(hold));
    });

    let burst_clients = 16;
    let per_client = 40;
    let t = Instant::now();
    let clients: Vec<_> = (0..burst_clients)
        .map(|c| {
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, CLIENT_TIMEOUT).expect("connect");
                let mut rng = StdRng::seed_from_u64(0xBAD10AD + c as u64);
                let mut out = ClientOutcome {
                    latencies_us: Vec::with_capacity(per_client),
                    ok: 0,
                    shed: 0,
                    timeouts: 0,
                };
                for _ in 0..per_client {
                    let req = &queries[rng.random_range(0..queries.len())];
                    let t = Instant::now();
                    let reply = client.call(req).expect("well-formed reply");
                    out.latencies_us.push(t.elapsed().as_micros() as u64);
                    match reply {
                        Ok(_) => out.ok += 1,
                        Err(e) if e.code() == "overloaded" => out.shed += 1,
                        Err(e) if e.code() == "timeout" => out.timeouts += 1,
                        Err(e) => panic!("untyped degradation: {e}"),
                    }
                }
                out
            })
        })
        .collect();
    let outcomes: Vec<ClientOutcome> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    let secs = t.elapsed().as_secs_f64();
    wedge.join().unwrap();
    server.shutdown();

    let shed: u64 = outcomes.iter().map(|o| o.shed).sum();
    let timeouts: u64 = outcomes.iter().map(|o| o.timeouts).sum();
    assert!(
        shed + timeouts > 0,
        "deliberate overload produced no typed load responses — admission control is inert"
    );
    let stats = service.stats();
    assert_eq!(stats.shed, shed, "server-side shed counter must match client-observed sheds");
    PhaseRow {
        label: "overload (1 reader, hw 4)".into(),
        clients: burst_clients,
        requests: (burst_clients * per_client) as u64,
        ok: outcomes.iter().map(|o| o.ok).sum(),
        shed,
        timeouts,
        secs,
        latencies_us: outcomes.into_iter().flat_map(|o| o.latencies_us).collect(),
        cache_hit_rate: 0.0,
    }
}

fn main() {
    init_metrics();
    let s = scale();
    let zipf = ZipfTable::new(VOCAB_RANKS as usize, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(0x5EED5EED);
    let schedule = Arc::new(make_batches(&s, &zipf, &mut rng));
    let queries = Arc::new(make_queries(&s, &zipf, &mut rng));
    invidx_obs::log_progress(
        "serving",
        &format!(
            "{} batches x {} docs, {} queries in pool, {} clients x {} requests",
            s.batches, s.docs_per_batch, queries.len(), CLIENTS, s.requests_per_client
        ),
    );
    let oracle = Arc::new(build_oracle(&schedule, &queries));
    invidx_obs::log_progress("serving", "oracle replay built; starting load");

    let sustained =
        sustained_phase(&s, Arc::clone(&schedule), Arc::clone(&queries), Arc::clone(&oracle));
    let open_loop = open_loop_phase(Arc::clone(&queries), oracle, &schedule);
    let overload = overload_phase(queries, &schedule[0]);

    let sustained_p99_ms = {
        let mut us = sustained.latencies_us.clone();
        us.sort_unstable();
        percentile(&us, 0.99)
    };

    emit_table(&TextTable {
        id: "ablation_serving".into(),
        title: format!(
            "Concurrent serving: {} docs ingested live, Zipf(s={ZIPF_S}) queries, \
             every sustained-phase result oracle-checked",
            s.batches * s.docs_per_batch
        ),
        headers: vec![
            "Phase".into(),
            "Clients".into(),
            "Requests".into(),
            "OK".into(),
            "Shed".into(),
            "Timeout".into(),
            "Req/s".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
            "Cache hit".into(),
            "Shed rate".into(),
        ],
        rows: vec![sustained.cells(), open_loop.cells(), overload.cells()],
    });

    if let Ok(max) = std::env::var("INVIDX_MAX_P99_MS") {
        let max: f64 = max.parse().expect("INVIDX_MAX_P99_MS must be a number");
        if sustained_p99_ms > max {
            eprintln!("FAIL: sustained-phase p99 {sustained_p99_ms:.2} ms > SLO {max:.2} ms");
            std::process::exit(1);
        }
        println!("OK: sustained-phase p99 {sustained_p99_ms:.2} ms <= SLO {max:.2} ms");
    }
}
