//! Property test for the epoch-invalidation rule of the result cache.
//!
//! Random interleavings of batch flushes and queries run against a
//! [`QueryService`] whose cache is deliberately tiny (so hits, misses,
//! stale drops, *and* evictions all occur). After every query the result
//! is compared with a brute-force model of the corpus at the current
//! epoch. Any stale cache entry surviving an epoch bump — the bug class
//! this exists to catch — shows up as a result that matches an *earlier*
//! corpus state instead of the current one.

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_serve::{Payload, QueryService, Request, ServeConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

const VOCAB: [&str; 8] = ["ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen"];

#[derive(Debug, Clone)]
enum Op {
    /// Flush a batch of docs; each doc is a set of vocabulary indices.
    Ingest(Vec<Vec<usize>>),
    /// Single-word query.
    Word(usize),
    /// Two-word conjunction.
    And(usize, usize),
    /// Two-word disjunction.
    Or(usize, usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let word = 0usize..VOCAB.len();
    let doc = prop::collection::vec(word.clone(), 1..5);
    let batch = prop::collection::vec(doc, 1..4);
    let op = prop_oneof![
        batch.prop_map(Op::Ingest),
        (0usize..VOCAB.len()).prop_map(Op::Word),
        (0usize..VOCAB.len(), 0usize..VOCAB.len()).prop_map(|(a, b)| Op::And(a, b)),
        (0usize..VOCAB.len(), 0usize..VOCAB.len()).prop_map(|(a, b)| Op::Or(a, b)),
    ];
    prop::collection::vec(op, 1..40)
}

/// Brute-force answer over the raw doc texts (doc ids are 1-based).
fn model_answer(docs: &[BTreeSet<usize>], op: &Op) -> Vec<u32> {
    let has = |d: &BTreeSet<usize>, w: &usize| d.contains(w);
    docs.iter()
        .enumerate()
        .filter(|(_, d)| match op {
            Op::Word(w) => has(d, w),
            Op::And(a, b) => has(d, a) && has(d, b),
            Op::Or(a, b) => has(d, a) || has(d, b),
            Op::Ingest(_) => unreachable!(),
        })
        .map(|(i, _)| i as u32 + 1)
        .collect()
}

fn to_request(op: &Op) -> Request {
    match op {
        Op::Word(w) => Request::Boolean(VOCAB[*w].into()),
        Op::And(a, b) => Request::Boolean(format!("{} and {}", VOCAB[*a], VOCAB[*b])),
        Op::Or(a, b) => Request::Boolean(format!("{} or {}", VOCAB[*a], VOCAB[*b])),
        Op::Ingest(_) => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_results_never_survive_postings_changes(ops in arb_ops()) {
        let array = sparse_array(2, 50_000, 256);
        let engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
        // Capacity 4 with an 8-word vocabulary: constant eviction churn.
        let config = ServeConfig::builder().result_cache_capacity(4).build().unwrap();
        let service = QueryService::with_config(engine, config).unwrap();
        let mut corpus: Vec<BTreeSet<usize>> = Vec::new();
        let mut flushes = 0u64;

        for op in &ops {
            match op {
                Op::Ingest(batch) => {
                    let texts: Vec<String> = batch
                        .iter()
                        .map(|doc| {
                            doc.iter().map(|&w| VOCAB[w]).collect::<Vec<_>>().join(" ")
                        })
                        .collect();
                    let (_, epoch) = service.ingest_batch(&texts).unwrap();
                    corpus.extend(batch.iter().map(|d| d.iter().copied().collect()));
                    flushes += 1;
                    prop_assert_eq!(epoch, flushes);
                }
                query => {
                    let resp = service.execute(&to_request(query)).unwrap();
                    prop_assert_eq!(resp.epoch, flushes, "epoch must track flushes");
                    let want = model_answer(&corpus, query);
                    let Payload::Docs(got) = resp.payload else {
                        panic!("boolean query returned {:?}", resp.payload)
                    };
                    prop_assert_eq!(
                        got, want,
                        "{:?} at epoch {} returned a result for a different corpus state",
                        query, flushes
                    );
                }
            }
        }
        // Sanity: the run exercised the cache, not just the engine.
        let stats = service.stats();
        prop_assert_eq!(
            stats.cache_hits + stats.cache_misses,
            ops.iter().filter(|o| !matches!(o, Op::Ingest(_))).count() as u64
        );
    }
}
