//! Twin-oracle property test: the segment-tiered engine must be
//! *observationally identical* to the paper's in-place engine.
//!
//! Two `SearchEngine`s are fed the exact same randomized schedule of
//! document batches, deletions, and flushes — one on
//! [`EngineKind::InPlace`], one on [`EngineKind::Segmented`] with a tiny
//! L0 budget and fanout so that seals and merges fire constantly. After
//! every flush the full query surface is compared: boolean queries,
//! phrases, proximity windows, more-like-this (scores bit-exact), stored
//! documents, and term document frequencies. Any divergence means the
//! tiering leaked into query semantics.

use invidx_core::index::{EngineKind, IndexConfig};
use invidx_core::types::DocId;
use invidx_disk::sparse_array;
use invidx_ir::{EngineQuery, Hit, QueryOutput, SearchEngine};
use proptest::prelude::*;

/// A small closed vocabulary so generated docs, queries, and phrases
/// collide constantly.
const VOCAB: &[&str] = &[
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
];

#[derive(Debug, Clone)]
struct Batch {
    /// Each document is a sequence of vocabulary indices.
    docs: Vec<Vec<usize>>,
    /// Indices (mod docs-so-far) deleted after this batch's inserts.
    deletes: Vec<u32>,
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    (
        prop::collection::vec(prop::collection::vec(0usize..VOCAB.len(), 1..12), 1..6),
        prop::collection::vec(0u32..64, 0..3),
    )
        .prop_map(|(docs, deletes)| Batch { docs, deletes })
}

fn engines(l0_budget: u64, fanout: u32) -> (SearchEngine, SearchEngine) {
    let inplace = SearchEngine::create(sparse_array(2, 40_000, 256), IndexConfig::small())
        .expect("in-place engine");
    let seg_config =
        IndexConfig { engine: EngineKind::Segmented { l0_budget, fanout }, ..IndexConfig::small() };
    let segmented =
        SearchEngine::create(sparse_array(2, 40_000, 256), seg_config).expect("segmented engine");
    (inplace, segmented)
}

fn text(doc: &[usize]) -> String {
    doc.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ")
}

fn docs(e: &SearchEngine, q: &EngineQuery, what: &str) -> Vec<DocId> {
    e.execute(q).expect(what).docs().expect("docs output").docs().to_vec()
}

fn hits(e: &SearchEngine, q: &EngineQuery, what: &str) -> Vec<Hit> {
    e.execute(q).expect(what).hits().expect("hits output").to_vec()
}

/// Compare every query surface the engine exposes. `LIKE` scores must be
/// bit-exact, not approximately equal: both engines fold the same doc
/// frequencies in the same order.
fn assert_twins(a: &SearchEngine, b: &SearchEngine) {
    // QUERY: a fixed grammar sweep over the closed vocabulary.
    for w1 in ["alpha", "bravo", "charlie"] {
        for w2 in ["delta", "echo", "juliet"] {
            for q in [
                format!("{w1} and {w2}"),
                format!("{w1} or {w2}"),
                format!("({w1} or {w2}) and not golf"),
            ] {
                let query = EngineQuery::boolean(&q);
                let pa = docs(a, &query, "in-place boolean");
                let pb = docs(b, &query, "segmented boolean");
                assert_eq!(pa, pb, "QUERY diverged: {q}");
            }
        }
    }
    // PHRASE and NEAR.
    for pair in [("alpha", "bravo"), ("echo", "foxtrot"), ("india", "juliet")] {
        let (w1, w2) = pair;
        let phrase = EngineQuery::phrase(&format!("{w1} {w2}"));
        let pa = docs(a, &phrase, "in-place phrase");
        let pb = docs(b, &phrase, "segmented phrase");
        assert_eq!(pa, pb, "PHRASE diverged: {w1} {w2}");
        let near = EngineQuery::near(w1, w2, 3);
        let na = docs(a, &near, "in-place near");
        let nb = docs(b, &near, "segmented near");
        assert_eq!(na, nb, "NEAR diverged: {w1} {w2}");
    }
    // LIKE: ranking and scores bit-exact.
    let like = EngineQuery::like("alpha delta golf juliet", 8);
    let ha = hits(a, &like, "in-place like");
    let hb = hits(b, &like, "segmented like");
    assert_eq!(ha.len(), hb.len(), "LIKE lengths diverged");
    for (x, y) in ha.iter().zip(&hb) {
        assert_eq!(x.doc, y.doc, "LIKE ranking diverged");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "LIKE score diverged for doc {}", x.doc);
    }
    // DF over the whole vocabulary.
    let terms: Vec<String> = VOCAB.iter().map(|w| w.to_string()).collect();
    let dfs = EngineQuery::Dfs(terms);
    let da = a.execute(&dfs).expect("in-place dfs");
    let db = b.execute(&dfs).expect("segmented dfs");
    assert!(matches!(da, QueryOutput::Dfs { .. }), "DF answered {da:?}");
    assert_eq!(da, db, "DF diverged");
    // DOC: stored text round-trips identically.
    for d in 1..=a.total_docs() as u32 {
        let ta = a.document(DocId(d)).expect("in-place doc");
        let tb = b.document(DocId(d)).expect("segmented doc");
        assert_eq!(ta, tb, "DOC diverged for {d}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn segmented_engine_is_observationally_identical(
        batches in prop::collection::vec(arb_batch(), 1..6),
        // Tiny budgets so seals fire on nearly every flush; fanout 2 so
        // merges fire within a few seals.
        l0_budget in prop_oneof![Just(1u64), Just(128), Just(100_000)],
        fanout in 2u32..4,
    ) {
        let (mut inplace, mut segmented) = engines(l0_budget, fanout);
        let mut total = 0u32;
        for batch in &batches {
            for doc in &batch.docs {
                let t = text(doc);
                let da = inplace.add_document(&t).expect("in-place add");
                let db = segmented.add_document(&t).expect("segmented add");
                prop_assert_eq!(da, db, "doc id allocation diverged");
                total += 1;
            }
            for &pick in &batch.deletes {
                let victim = DocId(pick % total + 1);
                inplace.delete(victim);
                segmented.delete(victim);
            }
            inplace.flush().expect("in-place flush");
            segmented.flush().expect("segmented flush");
            assert_twins(&inplace, &segmented);
        }
        // The schedule must actually exercise the tiers when the budget
        // is small enough for a seal per flush.
        if l0_budget == 1 {
            let stats = segmented.segment_stats().expect("segmented stats");
            prop_assert!(stats.seals > 0, "no seal fired under a 1-byte L0 budget");
        }
    }
}
