//! Ablation: what does request tracing cost? The tracing layer is a
//! thread-local span stack behind one relaxed atomic load per stage site
//! (`trace_active()`), so the claim under test is "sampling off ≈ free,
//! and even modest sampling is cheap". A closed-loop client drives the
//! full admission → cache → engine path in-process (no TCP,
//! so the measurement isolates the instrumented path itself) at three
//! sampling rates:
//!
//! * `off`    — `trace_sample 0`: every stage site is one atomic load.
//! * `1/64`   — production-style sampling: 1 in 64 requests carries
//!   a span stack and emits an NDJSON span tree.
//! * `all`    — `trace_sample 1`: worst case, every request traced.
//!
//! Rounds are interleaved (off/64/all, three times, best-of-3 per config)
//! so drift hits every config equally. The run **fails** (nonzero exit)
//! if sampled-at-1/64 throughput drops more than `INVIDX_TRACE_TOL`
//! (default 5%) below tracing-off throughput — the acceptance gate for
//! the observability stack; CI runs this in quick mode.

use invidx_bench::{emit_table, init_metrics, quick};
use invidx_core::index::IndexConfig;
use invidx_corpus::vocab::word_string;
use invidx_corpus::zipf::ZipfTable;
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_obs::log_progress;
use invidx_serve::{Frontend, QueryService, Request, ServeConfig};
use invidx_sim::TextTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const VOCAB_RANKS: usize = 1_000;
const WORDS_PER_DOC: usize = 10;
const ZIPF_S: f64 = 1.05;
const ROUNDS: usize = 3;

struct Scale {
    docs: usize,
    requests: usize,
}

fn scale() -> Scale {
    if quick() {
        Scale { docs: 400, requests: 2_000 }
    } else {
        Scale { docs: 2_000, requests: 20_000 }
    }
}

fn tolerance() -> f64 {
    std::env::var("INVIDX_TRACE_TOL").ok().and_then(|v| v.parse().ok()).unwrap_or(0.05)
}

/// One serving stack at the given sampling rate, shared corpus text.
fn build_frontend(docs: &[String], trace_sample: u32) -> Frontend<DurableEngine> {
    let engine =
        DurableEngine::without_log(sparse_array(2, 200_000, 512), IndexConfig::small()).unwrap();
    let serve = ServeConfig::builder()
        .result_cache_capacity(256)
        .readers(2)
        .high_water(1_024)
        .trace_sample(trace_sample)
        .slow_query_ms(0) // keep the slow-query log out of the measurement
        .build()
        .expect("valid serve config");
    let service = Arc::new(QueryService::with_config(engine, serve).expect("serve"));
    service.ingest_batch(docs).expect("ingest");
    Frontend::start_with(service, serve)
}

/// Closed-loop run: `requests` boolean queries against one stack, qps out.
fn measure(fe: &Frontend<DurableEngine>, queries: &[Request], requests: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x7EACE);
    let t = Instant::now();
    for _ in 0..requests {
        let req = &queries[rng.random_range(0..queries.len())];
        fe.call(req.clone()).expect("query");
    }
    requests as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    init_metrics();
    let s = scale();
    let zipf = ZipfTable::new(VOCAB_RANKS, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let docs: Vec<String> = (0..s.docs)
        .map(|_| {
            (0..WORDS_PER_DOC)
                .map(|_| word_string(zipf.sample(&mut rng)))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    let queries: Vec<Request> = (0..64)
        .map(|i| {
            let mut w = || word_string(zipf.sample(&mut rng));
            match i % 3 {
                0 => Request::Boolean(w()),
                1 => Request::Boolean(format!("{} and {}", w(), w())),
                _ => Request::Boolean(format!("({} or {}) and {}", w(), w(), w())),
            }
        })
        .collect();

    let configs: [(&str, u32); 3] = [("off", 0), ("1/64", 64), ("all", 1)];
    let stacks: Vec<Frontend<DurableEngine>> =
        configs.iter().map(|&(_, rate)| build_frontend(&docs, rate)).collect();
    // Warm each stack once (result cache fill) so
    // the measured rounds compare steady states.
    for fe in &stacks {
        measure(fe, &queries, s.requests / 4);
    }
    let mut best = [0.0f64; 3];
    for round in 0..ROUNDS {
        for (i, fe) in stacks.iter().enumerate() {
            let qps = measure(fe, &queries, s.requests);
            best[i] = best[i].max(qps);
            log_progress(
                "ablation_tracing",
                &format!("round {} {:>4}: {:.0} qps", round + 1, configs[i].0, qps),
            );
        }
    }
    for fe in stacks {
        fe.shutdown();
    }

    let rows: Vec<Vec<String>> = configs
        .iter()
        .zip(&best)
        .map(|(&(label, rate), &qps)| {
            vec![
                label.to_string(),
                if rate == 0 { "-".into() } else { format!("1/{rate}") },
                format!("{qps:.0}"),
                format!("{:+.1}%", (qps / best[0] - 1.0) * 100.0),
            ]
        })
        .collect();
    emit_table(&TextTable {
        id: "ablation_tracing".into(),
        title: "request tracing overhead (closed loop, best of 3 interleaved rounds)".into(),
        headers: ["sampling", "rate", "qps", "vs off"].map(String::from).to_vec(),
        rows,
    });

    // The self-gate: production-style sampling must stay within tolerance
    // of tracing disabled.
    let tol = tolerance();
    let floor = best[0] * (1.0 - tol);
    assert!(
        best[1] >= floor,
        "tracing at 1/64 regressed throughput beyond {:.0}%: {:.0} qps vs {:.0} qps off",
        tol * 100.0,
        best[1],
        best[0],
    );
    log_progress(
        "ablation_tracing",
        &format!(
            "gate ok: 1/64 sampling at {:.1}% of off ({:.0}% tolerance)",
            best[1] / best[0] * 100.0,
            tol * 100.0
        ),
    );
}
