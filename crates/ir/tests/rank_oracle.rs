//! WAND-vs-brute-force oracle over real engines: every ranked verb —
//! `Like`, `Rank`, and `Weighted` under both weightings, with negative
//! weights and duplicate terms — must return bit-identical hits (doc
//! order and score bits) to `rank::exhaustive` fed independently resolved
//! inputs, on both the in-place and segmented engines, with deletes,
//! across random corpora, queries and k values.

use invidx_core::index::{EngineKind, IndexConfig};
use invidx_core::postings::PostingList;
use invidx_core::types::DocId;
use invidx_corpus::lexer;
use invidx_disk::sparse_array;
use invidx_ir::{rank, Bm25Params, DurableEngine, EngineQuery, Hit, PostingSource, Weighting};
use proptest::prelude::*;
use std::collections::HashMap;

const VOCAB: &[&str] = &[
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima",
];

/// Never indexed: a weighted term the engine must skip.
const UNKNOWN: &str = "zulu";

/// The engine plus each document's token length, counted from its text.
fn build(
    kind: EngineKind,
    docs: &[Vec<usize>],
    deletes: &[u32],
) -> (DurableEngine, HashMap<DocId, u32>) {
    let config = IndexConfig { engine: kind, ..IndexConfig::small() };
    let mut e = DurableEngine::without_log(sparse_array(2, 40_000, 256), config).expect("engine");
    let mut lens = HashMap::new();
    for doc in docs {
        let text = doc.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ");
        let id = e.add_document(&text).expect("add");
        lens.insert(id, lexer::tokenize_document(&text).len() as u32);
    }
    for &pick in deletes {
        e.delete(DocId(pick % docs.len() as u32 + 1));
    }
    e.flush().expect("flush");
    (e, lens)
}

/// `(weight, list)` for each known word, in the given order, dropping
/// empty lists — the oracle's own resolution of a query's terms.
fn terms(e: &DurableEngine, words: &[(String, Option<f64>)]) -> Vec<(f64, PostingList)> {
    words
        .iter()
        .filter_map(|(word, weight)| {
            e.word_id(word).map(|w| (weight, e.postings(w).expect("postings")))
        })
        .filter(|(_, list)| !list.is_empty())
        .map(|(weight, list)| {
            (weight.unwrap_or(rank::idf(e.total_docs(), list.len() as u64)), list)
        })
        .collect()
}

/// The oracle's answer to `query`.
fn oracle(e: &DurableEngine, lens: &HashMap<DocId, u32>, query: &EngineQuery) -> Vec<Hit> {
    let local = |text: &str| -> Vec<(String, Option<f64>)> {
        lexer::document_words(text).into_iter().map(|w| (w, None)).collect()
    };
    let avgdl = rank::avgdl(e.total_tokens(), e.total_docs());
    let (words, weighting, k) = match query {
        EngineQuery::Like { text, k } => (local(text), Weighting::TfIdf, *k),
        EngineQuery::Rank { text, k, params } => {
            (local(text), Weighting::Bm25 { params: *params, avgdl }, *k)
        }
        EngineQuery::Weighted { terms, k, weighting } => {
            (terms.iter().map(|(t, w)| (t.clone(), Some(*w))).collect(), *weighting, *k)
        }
        other => unreachable!("not a ranked query: {other:?}"),
    };
    rank::exhaustive(&terms(e, &words), weighting, lens, k)
}

fn bits(hits: &[Hit]) -> Vec<(u32, u64)> {
    hits.iter().map(|h| (h.doc.0, h.score.to_bits())).collect()
}

fn run(kind: EngineKind, docs: &[Vec<usize>], deletes: &[u32], queries: &[EngineQuery]) {
    let (e, lens) = build(kind, docs, deletes);
    for query in queries {
        let got = e.execute(query).expect("execute");
        let got = got.hits().expect("hits output");
        assert_eq!(bits(got), bits(&oracle(&e, &lens, query)), "{kind:?} {query:?}");
    }
}

/// BM25 parameters, both ends of `b`'s range included, and a shipped avgdl.
fn arb_bm25() -> impl Strategy<Value = (Bm25Params, f64)> {
    let b = prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64];
    (prop_oneof![Just(0.0), 0.0..3.0f64], b, 0.25..20.0f64)
        .prop_map(|(k1, b, avgdl)| (Bm25Params { k1, b }, avgdl))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wand_matches_exhaustive_on_both_engines(
        docs in prop::collection::vec(prop::collection::vec(0usize..VOCAB.len(), 1..16), 1..40),
        deletes in prop::collection::vec(0u32..64, 0..4),
        query in prop::collection::vec(0usize..VOCAB.len(), 1..6),
        // Indices past VOCAB name the unknown word; repeats are duplicates.
        weighted in prop::collection::vec((0usize..=VOCAB.len(), -4.0..4.0f64), 0..8),
        bm25 in arb_bm25(),
        k in prop_oneof![Just(0usize), Just(1), Just(3), Just(10), Just(1000)],
    ) {
        let (params, avgdl) = bm25;
        let text = query.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ");
        let terms: Vec<(String, f64)> = weighted
            .iter()
            .map(|&(i, w)| (VOCAB.get(i).copied().unwrap_or(UNKNOWN).to_string(), w))
            .collect();
        let queries: Vec<EngineQuery> = [
            EngineQuery::Like { text: text.clone(), k },
            EngineQuery::Rank { text, k, params },
            EngineQuery::Weighted { terms: terms.clone(), k, weighting: Weighting::TfIdf },
            EngineQuery::Weighted { terms, k, weighting: Weighting::Bm25 { params, avgdl } },
        ]
        .into();
        run(EngineKind::InPlace, &docs, &deletes, &queries);
        run(EngineKind::Segmented { l0_budget: 128, fanout: 2 }, &docs, &deletes, &queries);
    }
}
