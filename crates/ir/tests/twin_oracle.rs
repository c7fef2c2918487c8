//! Twin-oracle property test: the segment-tiered engine must be
//! *observationally identical* to the paper's in-place engine, and a
//! write-ahead log must be invisible to queries under either layout.
//!
//! Four `DurableEngine`s are fed the exact same randomized schedule of
//! document batches, deletions, and flushes: the reference — log-less on
//! [`EngineKind::InPlace`] — and three twins: log-less on
//! [`EngineKind::Segmented`] with a tiny L0 budget and fanout so that
//! seals and merges fire constantly, and both layouts again with a log.
//! After every flush the full query surface of each twin is compared
//! with the reference: boolean queries, phrases, proximity windows,
//! more-like-this (scores bit-exact), stored documents, and term document
//! frequencies. Any divergence means the tiering or the log leaked into
//! query semantics.

use invidx_core::index::{EngineKind, IndexConfig};
use invidx_core::types::DocId;
use invidx_disk::sparse_array;
use invidx_durable::{DurableOptions, StoreGeometry};
use invidx_ir::{DurableEngine, EngineQuery, Hit, QueryOutput};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The log-less in-place reference, its three twins by name (the
/// log-less segmented one first), and the store directories to remove.
fn engines(l0_budget: u64, fanout: u32) -> (DurableEngine, Vec<(&'static str, DurableEngine)>, Vec<PathBuf>) {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let seg_config =
        IndexConfig { engine: EngineKind::Segmented { l0_budget, fanout }, ..IndexConfig::small() };
    let log_less = |config| {
        DurableEngine::without_log(sparse_array(2, 40_000, 256), config).expect("log-less engine")
    };
    let mut dirs = Vec::new();
    let mut logged = |name: &str, config| {
        let dir = std::env::temp_dir()
            .join(format!("invidx-twin-{}-{case}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let geometry = StoreGeometry { disks: 2, blocks_per_disk: 40_000, block_size: 256 };
        // No fsync: the commit point is not under test, query parity is.
        let opts = DurableOptions { fsync_wal: false, ..Default::default() };
        let engine = DurableEngine::create(&dir, config, geometry, opts).expect("logged engine");
        dirs.push(dir);
        engine
    };
    let twins = vec![
        ("segmented", log_less(seg_config)),
        ("logged in-place", logged("inplace", IndexConfig::small())),
        ("logged segmented", logged("segmented", seg_config)),
    ];
    (log_less(IndexConfig::small()), twins, dirs)
}

fn text(doc: &[usize]) -> String {
    doc.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ")
}

fn docs(e: &DurableEngine, q: &EngineQuery, what: &str) -> Vec<DocId> {
    e.execute(q).expect(what).docs().expect("docs output").docs().to_vec()
}

fn hits(e: &DurableEngine, q: &EngineQuery, what: &str) -> Vec<Hit> {
    e.execute(q).expect(what).hits().expect("hits output").to_vec()
}

/// Compare every query surface the engine exposes. `LIKE` scores must be
/// bit-exact, not approximately equal: both engines fold the same doc
/// frequencies in the same order.
fn assert_twins(a: &DurableEngine, b: &DurableEngine, twin: &str) {
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
                assert_eq!(pa, pb, "{twin}: QUERY diverged: {q}");
            }
        }
    }
    // PHRASE and NEAR.
    for pair in [("alpha", "bravo"), ("echo", "foxtrot"), ("india", "juliet")] {
        let (w1, w2) = pair;
        let phrase = EngineQuery::phrase(&format!("{w1} {w2}"));
        let pa = docs(a, &phrase, "in-place phrase");
        let pb = docs(b, &phrase, "segmented phrase");
        assert_eq!(pa, pb, "{twin}: PHRASE diverged: {w1} {w2}");
        let near = EngineQuery::near(w1, w2, 3);
        let na = docs(a, &near, "in-place near");
        let nb = docs(b, &near, "segmented near");
        assert_eq!(na, nb, "{twin}: NEAR diverged: {w1} {w2}");
    }
    // LIKE: ranking and scores bit-exact.
    let like = EngineQuery::like("alpha delta golf juliet", 8);
    let ha = hits(a, &like, "in-place like");
    let hb = hits(b, &like, "segmented like");
    assert_eq!(ha.len(), hb.len(), "{twin}: LIKE lengths diverged");
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
    assert_eq!(da, db, "{twin}: DF diverged");
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
        let (mut inplace, mut twins, dirs) = engines(l0_budget, fanout);
        let mut total = 0u32;
        for batch in &batches {
            for doc in &batch.docs {
                let t = text(doc);
                let da = inplace.add_document(&t).expect("in-place add");
                for (name, twin) in &mut twins {
                    let db = twin.add_document(&t).expect("twin add");
                    prop_assert_eq!(da, db, "{}: doc id allocation diverged", name);
                }
                total += 1;
            }
            for &pick in &batch.deletes {
                let victim = DocId(pick % total + 1);
                inplace.delete(victim);
                twins.iter_mut().for_each(|(_, twin)| twin.delete(victim));
            }
            inplace.flush().expect("in-place flush");
            for (name, twin) in &mut twins {
                twin.flush().expect("twin flush");
                assert_twins(&inplace, twin, name);
            }
        }
        // The schedule must actually exercise the tiers when the budget
        // is small enough for a seal per flush.
        if l0_budget == 1 {
            let stats = twins[0].1.segment_stats().expect("segmented stats");
            prop_assert!(stats.seals > 0, "no seal fired under a 1-byte L0 budget");
        }
        dirs.iter().for_each(|dir| { std::fs::remove_dir_all(dir).ok(); });
    }
}
