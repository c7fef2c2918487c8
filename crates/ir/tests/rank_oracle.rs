//! WAND-vs-brute-force oracle over real engines: BM25 ranked top-k with
//! early termination must return bit-identical hits to the exhaustive
//! scorer, on both the in-place and segmented engines, across random
//! corpora, query lengths, and k values.

use invidx_core::index::{EngineKind, IndexConfig};
use invidx_disk::sparse_array;
use invidx_ir::{Bm25Params, DurableEngine, EngineQuery};
use proptest::prelude::*;

const VOCAB: &[&str] = &[
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima",
];

fn engine(kind: EngineKind) -> DurableEngine {
    let config = IndexConfig { engine: kind, ..IndexConfig::small() };
    DurableEngine::without_log(sparse_array(2, 40_000, 256), config).expect("engine")
}

fn run(kind: EngineKind, docs: &[Vec<usize>], deletes: &[u32], query: &[usize], k: usize) {
    let mut e = engine(kind);
    for doc in docs {
        let text = doc.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ");
        e.add_document(&text).expect("add");
    }
    for &pick in deletes {
        e.delete(invidx_core::types::DocId(pick % docs.len() as u32 + 1));
    }
    e.flush().expect("flush");
    let qtext = query.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ");
    let params = Bm25Params::default();
    let wand = e.execute(&EngineQuery::Rank { text: qtext.clone(), k, params }).expect("wand");
    let wand = wand.hits().expect("hits output");
    let brute = e.rank_exhaustive(&qtext, k, params).expect("exhaustive");
    assert_eq!(wand.len(), brute.len(), "hit counts diverged (k={k}, q={qtext:?})");
    for (w, b) in wand.iter().zip(&brute) {
        assert_eq!(w.doc, b.doc, "ranking diverged (k={k}, q={qtext:?})");
        assert_eq!(
            w.score.to_bits(),
            b.score.to_bits(),
            "score diverged for doc {} (k={k}, q={qtext:?})",
            w.doc
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wand_matches_exhaustive_on_both_engines(
        docs in prop::collection::vec(prop::collection::vec(0usize..VOCAB.len(), 1..16), 1..40),
        deletes in prop::collection::vec(0u32..64, 0..4),
        query in prop::collection::vec(0usize..VOCAB.len(), 1..6),
        k in prop_oneof![Just(1usize), Just(3), Just(10), Just(1000)],
    ) {
        run(EngineKind::InPlace, &docs, &deletes, &query, k);
        run(
            EngineKind::Segmented { l0_budget: 128, fanout: 2 },
            &docs,
            &deletes,
            &query,
            k,
        );
    }
}
