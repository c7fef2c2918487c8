//! Compressed-vs-plain twin oracle: a compressed index must be
//! *observationally identical* to a plain one — only its device reads
//! shrink.
//!
//! Two `DurableEngine`s run the exact same randomized schedule of batches,
//! deletions, sweeps, compactions, and queries; they differ only in
//! `IndexConfig::codec`. After every flush the full query surface is
//! compared — boolean, phrase, proximity, LIKE and BM25 RANK (scores
//! bit-exact), document frequencies, stored texts — plus the structural
//! fields of every `BatchReport`: the codec's capacity guarantee means
//! allocation, promotion, and eviction decisions are byte-for-byte the
//! same as plain. Exercised across both `EngineKind`s.

use invidx_core::codec::PostingsCodec;
use invidx_core::index::{BatchReport, EngineKind, IndexConfig};
use invidx_core::types::DocId;
use invidx_disk::sparse_array;
use invidx_ir::{DurableEngine, EngineQuery, Hit, QueryOutput};
use proptest::prelude::*;

const VOCAB: &[&str] = &[
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
];

#[derive(Debug, Clone)]
struct Batch {
    docs: Vec<Vec<usize>>,
    deletes: Vec<u32>,
    /// In-place engine only: run a sweep (0), a compaction (1), or
    /// neither after the flush.
    maintenance: u8,
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    (
        prop::collection::vec(prop::collection::vec(0usize..VOCAB.len(), 1..12), 1..6),
        prop::collection::vec(0u32..64, 0..3),
        0u8..4,
    )
        .prop_map(|(docs, deletes, maintenance)| Batch { docs, deletes, maintenance })
}

fn engine(kind: EngineKind, codec: PostingsCodec) -> DurableEngine {
    let config = IndexConfig { engine: kind, codec, ..IndexConfig::small() };
    DurableEngine::without_log(sparse_array(2, 40_000, 256), config).expect("engine")
}

fn text(doc: &[usize]) -> String {
    doc.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ")
}

/// Structural batch-report fields: everything except the device-op
/// counters in `long_stats` (a compressed index legitimately reads fewer
/// blocks).
fn shape(r: &BatchReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.batch,
        r.words,
        r.postings,
        r.new_words,
        r.bucket_words,
        r.long_words,
        r.evictions,
        r.long_appends,
        r.long_words_total,
    )
}

fn docs(e: &DurableEngine, q: &EngineQuery, what: &str) -> Vec<DocId> {
    e.execute(q).expect(what).docs().expect("docs output").docs().to_vec()
}

fn hits(e: &DurableEngine, q: &EngineQuery, what: &str) -> Vec<Hit> {
    e.execute(q).expect(what).hits().expect("hits output").to_vec()
}

fn assert_twins(plain: &DurableEngine, packed: &DurableEngine) {
    for w1 in ["alpha", "bravo", "charlie"] {
        for w2 in ["delta", "echo", "juliet"] {
            let q = format!("({w1} or {w2}) and not golf");
            let query = EngineQuery::boolean(&q);
            assert_eq!(
                docs(plain, &query, "plain boolean"),
                docs(packed, &query, "packed boolean"),
                "QUERY diverged: {q}"
            );
        }
    }
    let phrase = EngineQuery::phrase("alpha bravo");
    assert_eq!(
        docs(plain, &phrase, "plain phrase"),
        docs(packed, &phrase, "packed phrase"),
        "PHRASE diverged"
    );
    let near = EngineQuery::near("echo", "foxtrot", 3);
    assert_eq!(
        docs(plain, &near, "plain near"),
        docs(packed, &near, "packed near"),
        "NEAR diverged"
    );
    // LIKE and BM25 RANK: ranking and scores bit-exact.
    let like = EngineQuery::like("alpha delta golf juliet", 8);
    let like_a = hits(plain, &like, "plain like");
    let like_b = hits(packed, &like, "packed like");
    assert_eq!(like_a.len(), like_b.len(), "LIKE lengths diverged");
    for (x, y) in like_a.iter().zip(&like_b) {
        assert_eq!(
            (x.doc, x.score.to_bits()),
            (y.doc, y.score.to_bits()),
            "LIKE diverged"
        );
    }
    let rank = EngineQuery::rank("alpha delta golf juliet", 8);
    let (ha, hb) = (hits(plain, &rank, "plain rank"), hits(packed, &rank, "packed rank"));
    assert_eq!(ha.len(), hb.len(), "RANK lengths diverged");
    for (x, y) in ha.iter().zip(&hb) {
        assert_eq!(
            (x.doc, x.score.to_bits()),
            (y.doc, y.score.to_bits()),
            "RANK diverged"
        );
    }
    let terms: Vec<String> = VOCAB.iter().map(|w| w.to_string()).collect();
    let dfs = EngineQuery::Dfs(terms);
    let df_plain = plain.execute(&dfs).expect("plain dfs");
    assert!(matches!(df_plain, QueryOutput::Dfs { .. }), "DF answered {df_plain:?}");
    assert_eq!(df_plain, packed.execute(&dfs).expect("packed dfs"), "DF diverged");
    for d in 1..=plain.total_docs() as u32 {
        assert_eq!(
            plain.document(DocId(d)).expect("plain doc"),
            packed.document(DocId(d)).expect("packed doc"),
            "DOC diverged for {d}"
        );
    }
}

fn run_schedule(kind: EngineKind, codec: PostingsCodec, batches: &[Batch]) {
    let mut plain = engine(kind, PostingsCodec::Plain);
    let mut packed = engine(kind, codec);
    let mut total = 0u32;
    for batch in batches {
        for doc in &batch.docs {
            let t = text(doc);
            let da = plain.add_document(&t).expect("plain add");
            let db = packed.add_document(&t).expect("packed add");
            assert_eq!(da, db, "doc id allocation diverged");
            total += 1;
        }
        for &pick in &batch.deletes {
            let victim = DocId(pick % total + 1);
            plain.delete(victim);
            packed.delete(victim);
        }
        let ra = plain.flush().expect("plain flush");
        let rb = packed.flush().expect("packed flush");
        assert_eq!(shape(&ra), shape(&rb), "batch report diverged");
        if matches!(kind, EngineKind::InPlace) {
            match batch.maintenance {
                0 => {
                    let sa = plain.sweep().expect("plain sweep");
                    let sb = packed.sweep().expect("packed sweep");
                    assert_eq!(sa.postings_removed, sb.postings_removed, "sweep diverged");
                }
                1 => {
                    let ca = plain.compact().expect("plain compact");
                    let cb = packed.compact().expect("packed compact");
                    assert_eq!(
                        (ca.lists_rewritten, ca.chunks_before, ca.chunks_after),
                        (cb.lists_rewritten, cb.chunks_before, cb.chunks_after),
                        "compact diverged"
                    );
                }
                _ => {}
            }
        }
        assert_twins(&plain, &packed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn compressed_in_place_engine_is_observationally_identical(
        batches in prop::collection::vec(arb_batch(), 1..5),
        codec in prop_oneof![Just(PostingsCodec::VarintDelta), Just(PostingsCodec::BitPacked)],
    ) {
        run_schedule(EngineKind::InPlace, codec, &batches);
    }

    #[test]
    fn compressed_segmented_engine_is_observationally_identical(
        batches in prop::collection::vec(arb_batch(), 1..5),
        codec in prop_oneof![Just(PostingsCodec::VarintDelta), Just(PostingsCodec::BitPacked)],
        l0_budget in prop_oneof![Just(1u64), Just(128), Just(100_000)],
    ) {
        run_schedule(
            EngineKind::Segmented { l0_budget, fanout: 2 },
            codec,
            &batches,
        );
    }
}
