//! Regression: what a client puts on the wire must neither size an
//! allocation nor break the ranked evaluator.
//!
//! `LIKE`, `WLIKE` and `WRANK` take `k` off the socket with no ceiling
//! (only `RANK` is checked against `MAX_RANK_K`). The top-k heaps used to
//! reserve `k + 1` slots up front, so `LIKE 1000000000000 cat` asked for a
//! 16 TB heap (allocation failure aborts the process) and
//! `LIKE 18446744073709551615 cat` overflowed `k + 1`. Both must now get
//! the answer any `k` larger than the corpus gets, and leave every reader
//! thread alive.
//!
//! `WLIKE`/`WRANK` also take their weights and BM25 parameters as raw
//! `f64` bits. WAND's per-term bound is sound for any finite weight (a
//! negative one bounds at 0), and for BM25 only with `k1 ≥ 0`,
//! `b ∈ [0, 1]` and a positive `avgdl`: a negative weight must get the
//! exhaustive scorer's answer, and the rest must be refused with a typed
//! `badrequest`.

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_serve::{
    parse_response, Client, Frontend, Payload, QueryService, Request, ServeConfig, Server,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const READERS: usize = 3;
const HOSTILE_K: [usize; 2] = [1_000_000_000_000, usize::MAX];

fn config() -> ServeConfig {
    ServeConfig::builder().readers(READERS).result_cache_capacity(0).build().unwrap()
}

fn service() -> Arc<QueryService<DurableEngine>> {
    let engine =
        DurableEngine::without_log(sparse_array(2, 50_000, 256), IndexConfig::small()).unwrap();
    let service = QueryService::with_config(engine, config()).unwrap();
    service
        .ingest_batch(&["the cat sat on the mat", "the dog chased the cat", "a mouse ran away"])
        .unwrap();
    Arc::new(service)
}

/// `WRANK 10` over `cat:-3 dog:2 mouse:1` with the given `(k1, b, avgdl)`.
fn wrank(k1: f64, b: f64, avgdl: f64, k: usize) -> Request {
    let terms = [("cat", -3.0f64), ("dog", 2.0), ("mouse", 1.0)];
    Request::WeightedRank {
        k,
        k1_bits: k1.to_bits(),
        b_bits: b.to_bits(),
        avgdl_bits: avgdl.to_bits(),
        terms: terms.iter().map(|(t, w)| (t.to_string(), w.to_bits())).collect(),
    }
}

/// Requests WAND cannot answer soundly, each refused as a bad request.
fn unsound() -> Vec<Request> {
    let weight = |w: f64| vec![("cat".to_string(), w.to_bits())];
    vec![
        wrank(1.2, -2.0, 5.0, 2),
        wrank(1.2, 0.75, -9.0, 2),
        wrank(1.2, 1.5, 5.0, 2),
        wrank(-1.0, 0.75, 5.0, 2),
        wrank(1.2, 0.75, 0.0, 2),
        wrank(f64::NAN, 0.75, 5.0, 2),
        Request::WeightedLike(2, weight(f64::NAN)),
        Request::WeightedLike(2, weight(f64::INFINITY)),
        Request::WeightedLike(2, weight(f64::NEG_INFINITY)),
    ]
}

/// The three verbs whose `k` is unchecked, with a given `k`.
fn requests(k: usize) -> [Request; 3] {
    let terms = vec![("cat".to_string(), 1.5f64.to_bits()), ("dog".to_string(), 0.5f64.to_bits())];
    [
        Request::Like(k, "cat dog".into()),
        Request::WeightedLike(k, terms.clone()),
        Request::WeightedRank {
            k,
            k1_bits: 1.2f64.to_bits(),
            b_bits: 0.75f64.to_bits(),
            avgdl_bits: 5.0f64.to_bits(),
            terms,
        },
    ]
}

#[test]
fn huge_k_gets_the_ordinary_answer_and_every_reader_survives() {
    let service = service();
    let frontend = Frontend::start_with(Arc::clone(&service), config());
    let ordinary: Vec<Payload> =
        requests(10).iter().map(|r| service.execute(r).unwrap().payload).collect();
    for payload in &ordinary {
        let Payload::Hits(hits) = payload else { panic!("expected hits, got {payload:?}") };
        assert_eq!(hits.len(), 2, "both cat documents score");
    }
    for k in HOSTILE_K {
        for (request, want) in requests(k).iter().zip(&ordinary) {
            assert_eq!(&service.execute(request).unwrap().payload, want, "{}", request.to_wire());
            // And through the reader pool, which is where a panic would
            // have killed a thread.
            assert_eq!(&frontend.call(request.clone()).unwrap().payload, want);
        }
        // RANK keeps its typed ceiling.
        let err = service.execute(&Request::Rank(k, "cat".into())).unwrap_err();
        assert_eq!(err.code(), "badrequest");
    }

    assert_readers_alive(&service, &frontend);
    frontend.shutdown();
}

/// Every reader is still there: with the read path stalled, READERS jobs
/// leave the queue only if READERS threads each take one.
fn assert_readers_alive(service: &QueryService<DurableEngine>, frontend: &Frontend<DurableEngine>) {
    let mut tickets = Vec::new();
    service.with_blocked_writer(|| {
        for _ in 0..READERS {
            tickets.push(frontend.submit(Request::Boolean("cat".into())).unwrap());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while frontend.queue_depth() > 0 {
            assert!(Instant::now() < deadline, "a reader thread is gone: jobs stay queued");
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap().payload, Payload::Docs(vec![1, 2]));
    }
}

#[test]
fn negative_weights_get_the_exhaustive_answer() {
    // cat: docs 1, 2; dog: docs 1, 3; mouse: doc 1. Doc 1 scores
    // -3 + 2 + 1 = 0 and doc 3 scores 2 (with `b = 0` every BM25 factor
    // is 1): a negative per-term bound used to prune doc 3.
    let engine =
        DurableEngine::without_log(sparse_array(2, 50_000, 256), IndexConfig::small()).unwrap();
    let service = QueryService::with_config(engine, config()).unwrap();
    service.ingest_batch(&["cat dog mouse", "cat", "dog"]).unwrap();
    let answer = |r: Request| service.execute(&r).unwrap().payload;
    assert_eq!(answer(wrank(1.2, 0.0, 5.0, 1)), Payload::Hits(vec![(3, 2.0)]));
    assert_eq!(answer(wrank(1.2, 0.0, 5.0, 3)), Payload::Hits(vec![(3, 2.0), (1, 0.0), (2, -3.0)]));
    let Request::WeightedRank { terms, .. } = wrank(1.2, 0.0, 5.0, 1) else { unreachable!() };
    assert_eq!(answer(Request::WeightedLike(1, terms)), Payload::Hits(vec![(3, 2.0)]));
}

#[test]
fn unsound_weights_are_refused_and_every_reader_survives() {
    let service = service();
    let frontend = Frontend::start_with(Arc::clone(&service), config());
    for request in unsound() {
        let err = service.execute(&request).unwrap_err();
        assert_eq!(err.code(), "badrequest", "{}: {err}", request.to_wire());
        let err = frontend.call(request.clone()).unwrap_err();
        assert_eq!(err.code(), "badrequest", "{}: {err}", request.to_wire());
    }
    // And the ordinary requests still get their answers afterwards.
    for request in requests(10) {
        assert_eq!(frontend.call(request.clone()).unwrap(), service.execute(&request).unwrap());
    }
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), config()).unwrap();
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();
    for request in unsound() {
        let reply = client.line(&request.to_wire()).unwrap();
        assert!(reply.starts_with("ERR badrequest "), "{} answered {reply:?}", request.to_wire());
    }
    server.shutdown();
    assert_readers_alive(&service, &frontend);
    frontend.shutdown();
}

#[test]
fn huge_k_over_tcp_gets_the_ordinary_answer() {
    let service = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), config()).unwrap();
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();
    let mut roundtrip = |line: String| client.line(&line).unwrap();
    let ordinary: Vec<Payload> =
        requests(10).iter().map(|r| service.execute(r).unwrap().payload).collect();
    for k in HOSTILE_K {
        for (request, want) in requests(k).iter().zip(&ordinary) {
            let reply = roundtrip(request.to_wire());
            let response = parse_response(&reply).unwrap().unwrap_or_else(|e| {
                panic!("{} answered {e} ({reply:?})", request.to_wire())
            });
            assert_eq!(&response.payload, want, "{}", request.to_wire());
        }
    }
    // The raw lines from the bug report, spelled out.
    for line in ["LIKE 1000000000000 cat", "LIKE 18446744073709551615 cat"] {
        let reply = roundtrip(line.to_string());
        let response = parse_response(&reply).unwrap().unwrap();
        assert_eq!(response.payload, service.execute(&Request::Like(10, "cat".into())).unwrap().payload);
    }
    server.shutdown();
}
