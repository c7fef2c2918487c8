//! The router's correctness oracle: sharding must be invisible.
//!
//! Random interleavings of batch ingest and the full query grammar run
//! twice — once through a [`Router`] over `1..=8` shards (range and hash
//! partitionings, each shard its own engine behind a [`LocalShard`]
//! backend), once through a single **unsharded** engine fed the identical
//! documents in the identical order. Every routed answer must equal the
//! oracle's:
//!
//! * `QUERY` / `PHRASE` / `NEAR` — merged doc lists identical;
//! * `LIKE` / `RANK` — hit ids identical and scores **bit-identical**
//!   (the two-phase df/weight exchanges claim ulp-exact parity);
//! * `DOC` — stored text identical after global→local translation;
//! * `DF` — summed document frequencies identical.
//!
//! Ingest interleaves with queries, so the test also exercises the
//! epoch-vector bookkeeping while the corpus moves.

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_router::{LocalShard, Partitioner, ReadPolicy, ReplicaSet, Router, ShardBackend};
use invidx_serve::{Payload, QueryService, Request, ServeConfig};
use proptest::prelude::*;
use std::sync::Arc;

const VOCAB: [&str; 10] =
    ["ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "ibex", "jay"];

#[derive(Debug, Clone)]
enum Op {
    /// Flush a batch of docs; each doc is a sequence of vocabulary indices.
    Ingest(Vec<Vec<usize>>),
    /// Single-word boolean query.
    Word(usize),
    /// `a and b`.
    And(usize, usize),
    /// `a or b`.
    Or(usize, usize),
    /// `a and not b`.
    Not(usize, usize),
    /// Two-word phrase.
    Phrase(usize, usize),
    /// Proximity within a window.
    Near(usize, usize, u32),
    /// Top-k ranked search seeded by a word sequence.
    Like(usize, Vec<usize>),
    /// BM25 top-k seeded by a word sequence (two-phase WRANK exchange).
    Rank(usize, Vec<usize>),
    /// Per-term document frequencies.
    Df(Vec<usize>),
    /// Point read of a global doc id (may be unallocated).
    Doc(u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let word = 0usize..VOCAB.len();
    let doc = prop::collection::vec(word.clone(), 1..6);
    let seed = prop::collection::vec(word.clone(), 1..6);
    let rank_seed = prop::collection::vec(word.clone(), 1..6);
    let batch = prop::collection::vec(doc, 1..5);
    let op = prop_oneof![
        batch.prop_map(Op::Ingest),
        word.clone().prop_map(Op::Word),
        (word.clone(), word.clone()).prop_map(|(a, b)| Op::And(a, b)),
        (word.clone(), word.clone()).prop_map(|(a, b)| Op::Or(a, b)),
        (word.clone(), word.clone()).prop_map(|(a, b)| Op::Not(a, b)),
        (word.clone(), word.clone()).prop_map(|(a, b)| Op::Phrase(a, b)),
        (word.clone(), word.clone(), 1u32..4).prop_map(|(a, b, w)| Op::Near(a, b, w)),
        (1usize..6, seed).prop_map(|(k, seed)| Op::Like(k, seed)),
        (1usize..6, rank_seed).prop_map(|(k, seed)| Op::Rank(k, seed)),
        prop::collection::vec(word, 1..4).prop_map(Op::Df),
        (1u32..40).prop_map(Op::Doc),
    ];
    prop::collection::vec(op, 1..30)
}

fn arb_partitioner() -> impl Strategy<Value = Partitioner> {
    prop_oneof![
        (1usize..=8, 1u64..=3)
            .prop_map(|(shards, chunk)| Partitioner::Range { shards, chunk }),
        (1usize..=8).prop_map(|shards| Partitioner::Hash { shards }),
    ]
}

fn text_of(doc: &[usize]) -> String {
    doc.iter().map(|&w| VOCAB[w]).collect::<Vec<_>>().join(" ")
}

fn to_request(op: &Op) -> Request {
    match op {
        Op::Word(w) => Request::Boolean(VOCAB[*w].into()),
        Op::And(a, b) => Request::Boolean(format!("{} and {}", VOCAB[*a], VOCAB[*b])),
        Op::Or(a, b) => Request::Boolean(format!("{} or {}", VOCAB[*a], VOCAB[*b])),
        Op::Not(a, b) => Request::Boolean(format!("{} and not {}", VOCAB[*a], VOCAB[*b])),
        Op::Phrase(a, b) => Request::Phrase(format!("{} {}", VOCAB[*a], VOCAB[*b])),
        Op::Near(a, b, w) => Request::Near(VOCAB[*a].into(), VOCAB[*b].into(), *w),
        Op::Like(k, seed) => Request::Like(*k, text_of(seed)),
        Op::Rank(k, seed) => Request::Rank(*k, text_of(seed)),
        Op::Df(terms) => Request::Df(terms.iter().map(|&t| VOCAB[t].to_string()).collect()),
        Op::Doc(id) => Request::Doc(*id),
        Op::Ingest(_) => unreachable!("ingest is not a query"),
    }
}

fn fresh_service() -> Arc<QueryService<DurableEngine>> {
    let engine = DurableEngine::without_log(sparse_array(2, 50_000, 256), IndexConfig::small()).unwrap();
    // Caches off: the oracle compares engines, not cache layers (the
    // cache's own invariants have their own property test in serve).
    let config = ServeConfig::builder().result_cache_capacity(0).build().unwrap();
    Arc::new(QueryService::with_config(engine, config).unwrap())
}

fn build_router(partitioner: Partitioner) -> Router<DurableEngine> {
    let shards = partitioner.shards();
    let mut writers = Vec::with_capacity(shards);
    let mut readers = Vec::with_capacity(shards);
    for shard in 0..shards {
        let service = fresh_service();
        let backend: Arc<dyn ShardBackend> =
            Arc::new(LocalShard::new(Arc::clone(&service), format!("shard-{shard}")));
        writers.push(service);
        readers.push(ReplicaSet::new(vec![backend]).unwrap());
    }
    Router::new(writers, readers, partitioner, ReadPolicy::default()).unwrap()
}

/// Hits compare by id and by *bit pattern* of the score — `==` on f64
/// would already fail on any drift, but bits make the claim exact.
fn bits(hits: &[(u32, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn routed_answers_equal_an_unsharded_oracle(
        partitioner in arb_partitioner(),
        ops in arb_ops(),
    ) {
        let router = build_router(partitioner);
        let oracle = fresh_service();

        for op in &ops {
            if let Op::Ingest(batch) = op {
                let texts: Vec<String> = batch.iter().map(|d| text_of(d)).collect();
                let epochs = router.ingest(&texts).unwrap();
                oracle.ingest_batch(&texts).unwrap();
                prop_assert_eq!(epochs.len(), router.shards());
                continue;
            }
            let request = to_request(op);
            let routed = router.execute(&request).unwrap();
            let want = oracle.execute(&request).unwrap();
            prop_assert_eq!(routed.epochs.len(), router.shards());
            match (&routed.payload, &want.payload) {
                (Payload::Hits(got), Payload::Hits(expect)) => {
                    prop_assert_eq!(
                        bits(got), bits(expect),
                        "{:?} over {:?}: sharded LIKE scores must be bit-identical",
                        op, partitioner
                    );
                }
                (got, expect) => {
                    prop_assert_eq!(
                        got, expect,
                        "{:?} over {:?} diverged from the unsharded oracle",
                        op, partitioner
                    );
                }
            }
        }

        // The corpora must have ended up the same size, shard-summed.
        prop_assert_eq!(
            router.total_docs(),
            oracle.with_read(|_, e| e.total_docs())
        );
    }
}
