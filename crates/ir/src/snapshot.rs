//! Immutable point-in-time engine views for the lock-free read path.
//!
//! The serving layer publishes an [`EngineSnapshot`] per committed batch:
//! a fully materialized copy of the deletion-filtered posting lists, the
//! stored document texts, and the vocabulary, behind `Arc`s so readers
//! share the bulk of the data across epochs. Queries against a snapshot
//! never touch the disk model — all I/O (and its disk accounting) happens
//! once, at materialization time, inside the writer's commit path.
//!
//! Materialization is incremental: [`crate::engine::EngineCore`] tracks
//! the words whose lists changed since the last snapshot (every intern
//! marks its word dirty; deletions, sweeps, and compactions dirty
//! everything), so re-materializing after a batch re-reads only the lists
//! that batch touched and `Arc`-shares the rest from the previous
//! snapshot.
//!
//! A snapshot has no evaluator of its own: it implements the evaluator's
//! `ReadContext` over its maps and [`EngineSnapshot::execute`] runs the
//! same crate-private `query::execute` as the live engine, so snapshot
//! answers — scores included, bit-exactly — match it by construction.

use crate::boolean::PostingSource;
use crate::engine::EngineCore;
use crate::query::{EngineQuery, QueryOutput, ReadContext};
use invidx_core::postings::PostingList;
use invidx_core::types::{DocId, Result, WordId};
use invidx_disk::DiskArray;
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable, self-contained view of an engine at one commit point.
///
/// Cheap to share (`Arc` fields), cheap to evolve (unchanged posting
/// lists and texts are pointer-shared with the previous snapshot), and
/// safe to query from any number of threads with no locking at all.
#[derive(Debug, Clone, Default)]
pub struct EngineSnapshot {
    vocab: Arc<HashMap<String, WordId>>,
    postings: HashMap<WordId, Arc<PostingList>>,
    texts: HashMap<DocId, Arc<str>>,
    /// Per-document token lengths for BM25 (shared across epochs — the
    /// map only grows, like `total_docs`).
    lens: Arc<HashMap<DocId, u32>>,
    total_docs: u64,
    total_tokens: u64,
    next_doc: u32,
}

impl EngineSnapshot {
    /// An empty view: no vocabulary, no documents. Every query matches
    /// nothing. Useful as a placeholder before the first materialization.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Total lexer tokens as of this snapshot (BM25 avgdl numerator).
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Evaluate a typed [`EngineQuery`] — the only read entry point, and
    /// the same evaluator the live engine runs.
    pub fn execute(&self, query: &EngineQuery) -> Result<QueryOutput> {
        crate::query::execute(self, query)
    }

    /// The stored text of a document.
    pub fn document(&self, doc: DocId) -> Result<Option<String>> {
        self.load_text(doc)
    }

    /// Documents added as of this snapshot.
    pub fn total_docs(&self) -> u64 {
        self.total_docs
    }

    /// Distinct words interned as of this snapshot.
    pub fn vocabulary_size(&self) -> usize {
        self.vocab.len()
    }
}

impl PostingSource for EngineSnapshot {
    fn postings(&self, word: WordId) -> Result<PostingList> {
        let _stage = invidx_obs::trace::stage("term");
        let list = self.postings.get(&word).map(|l| (**l).clone()).unwrap_or_default();
        invidx_obs::trace::add_items(list.len() as u64);
        Ok(list)
    }
}

impl ReadContext for EngineSnapshot {
    fn vocab(&self) -> &HashMap<String, WordId> {
        &self.vocab
    }

    fn doc_lengths(&self) -> &HashMap<DocId, u32> {
        &self.lens
    }

    fn total_docs(&self) -> u64 {
        self.total_docs
    }

    fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    fn load_text(&self, doc: DocId) -> Result<Option<String>> {
        Ok(self.texts.get(&doc).map(|t| t.to_string()))
    }

    /// Reads the materialized list's length in place — no clone.
    fn df(&self, word: WordId) -> Result<u64> {
        Ok(self.postings.get(&word).map_or(0, |l| l.len() as u64))
    }
}

/// Build the next snapshot from an engine's core and index.
///
/// Pass `prev` — the snapshot produced by the *previous* call on this
/// same engine — to re-read only the posting lists dirtied since then
/// and `Arc`-share everything else. With `prev = None`, or after a
/// conservative invalidation (`dirty_all`), every non-empty list is
/// re-read. Either way the reads go through the index's normal
/// [`PostingSource`] path, so `disk` trace stages charge here, at publish
/// time, not on queries.
pub(crate) fn materialize<S: PostingSource + ?Sized>(
    core: &mut EngineCore,
    index: &S,
    array: &DiskArray,
    prev: Option<&EngineSnapshot>,
) -> Result<EngineSnapshot> {
    let _stage = invidx_obs::trace::stage("materialize");
    let full = core.dirty_all || prev.is_none();
    let (mut postings, mut texts) = if full {
        (HashMap::new(), HashMap::new())
    } else {
        let p = prev.unwrap();
        (p.postings.clone(), p.texts.clone())
    };
    if full {
        for &id in core.vocab.values() {
            let list = index.postings(id)?;
            if !list.is_empty() {
                postings.insert(id, Arc::new(list));
            }
        }
        for (doc, _, _, _) in core.docs.extents() {
            if let Some(text) = core.docs.load(array, doc)? {
                texts.insert(doc, Arc::from(text.as_str()));
            }
        }
    } else {
        for &id in core.dirty.iter() {
            let list = index.postings(id)?;
            if list.is_empty() {
                postings.remove(&id);
            } else {
                postings.insert(id, Arc::new(list));
            }
        }
        let from = prev.map(|p| p.next_doc).unwrap_or(1);
        for id in from..core.next_doc {
            let doc = DocId(id);
            if let Some(text) = core.docs.load(array, doc)? {
                texts.insert(doc, Arc::from(text.as_str()));
            }
        }
    }
    // The vocabulary only grows; an unchanged length means an unchanged
    // map, so the Arc can be shared with the previous snapshot.
    let vocab = match prev {
        Some(p) if p.vocab.len() == core.vocab.len() => p.vocab.clone(),
        _ => Arc::new(core.vocab.clone()),
    };
    // Document lengths likewise only grow (deletions never retract an
    // entry): share the Arc whenever no document was added since `prev`.
    let lens = match prev {
        Some(p) if p.lens.len() == core.doc_lengths.len() => p.lens.clone(),
        _ => Arc::new(core.doc_lengths.clone()),
    };
    core.dirty.clear();
    core.dirty_all = false;
    Ok(EngineSnapshot {
        vocab,
        postings,
        texts,
        lens,
        total_docs: core.total_docs,
        total_tokens: core.total_tokens,
        next_doc: core.next_doc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::{Bm25Params, Weighting};
    use crate::DurableEngine;
    use invidx_core::index::{EngineKind, IndexConfig};
    use invidx_disk::sparse_array;
    use invidx_durable::{DurableOptions, StoreGeometry};

    fn ids(out: &QueryOutput) -> Vec<u32> {
        out.docs().expect("docs output").docs().iter().map(|d| d.0).collect()
    }

    fn corpus() -> Vec<String> {
        (0..30)
            .map(|i| {
                format!(
                    "shared w{} w{} anchor tail{} {}",
                    i % 5,
                    (i * 7) % 11,
                    i,
                    if i % 3 == 0 { "cat sat near the dog" } else { "mouse ran far away" }
                )
            })
            .collect()
    }

    /// At least one query of every [`EngineQuery`] variant. The `match`
    /// has no wildcard arm and each arm supplies the next variant's
    /// cases, so a new variant does not compile until it joins the table.
    fn table() -> Vec<EngineQuery> {
        // A negative weight and a duplicate term, each scored in order.
        let weighted: Vec<(String, f64)> =
            [("shared", 0.5), ("dog", 2.0), ("zebra", 1.0), ("mouse", -0.75), ("dog", 0.25)]
                .map(|(t, w)| (t.to_string(), w))
                .into();
        let params = Bm25Params::default();
        let mut table: Vec<EngineQuery> =
            ["shared", "cat and dog", "(cat and dog) or mouse", "shared and not cat", "w3 or w10", "nonexistent"]
                .map(EngineQuery::boolean)
                .into();
        loop {
            let next = match table.last().expect("seeded above") {
                EngineQuery::Boolean(_) => vec![
                    EngineQuery::phrase("cat sat near the dog"),
                    EngineQuery::phrase("Shared W3"),
                    EngineQuery::phrase("dog the near"),
                    EngineQuery::phrase(""),
                ],
                EngineQuery::Phrase(_) => vec![
                    EngineQuery::near("cat", "dog", 4),
                    EngineQuery::near("cat", "dog", 1),
                    EngineQuery::near("CAT", "unicorn", 9),
                ],
                EngineQuery::Near { .. } => vec![
                    EngineQuery::like("shared anchor cat dog", 10),
                    EngineQuery::like("mouse", 0),
                ],
                EngineQuery::Like { .. } => vec![
                    EngineQuery::rank("shared anchor cat dog", 10),
                    EngineQuery::Rank {
                        text: "shared anchor".into(),
                        k: 5,
                        params: Bm25Params { k1: 0.9, b: 0.4 },
                    },
                ],
                EngineQuery::Rank { .. } => [
                    Weighting::TfIdf,
                    Weighting::Bm25 { params, avgdl: 9.25 },
                    Weighting::Bm25 { params: Bm25Params { k1: 0.0, b: 1.0 }, avgdl: 0.5 },
                ]
                .map(|weighting| EngineQuery::Weighted { terms: weighted.clone(), k: 5, weighting })
                .into(),
                EngineQuery::Weighted { .. } => {
                    vec![EngineQuery::Dfs(["shared", "Cat", "zebra"].map(String::from).into())]
                }
                EngineQuery::Dfs(_) => [1u32, 2, 7, 26, 999].map(|d| EngineQuery::Doc(DocId(d))).into(),
                EngineQuery::Doc(_) => break,
            };
            table.extend(next);
        }
        table
    }

    /// Every table query on the live engine; each snapshot must answer
    /// `==` — and scores bit for bit, which `f64 ==` alone would not
    /// promise. Returns the answers for cross-engine comparison.
    fn answers(engine: &DurableEngine, snaps: &[(&str, &EngineSnapshot)]) -> Vec<QueryOutput> {
        let score_bits =
            |o: &QueryOutput| o.hits().map(|h| h.iter().map(|h| h.score.to_bits()).collect::<Vec<_>>());
        table()
            .iter()
            .map(|q| {
                let live = engine.execute(q).unwrap();
                for (what, snap) in snaps {
                    let counters = (engine.total_docs(), engine.vocabulary_size());
                    assert_eq!((snap.total_docs(), snap.vocabulary_size()), counters);
                    let got = snap.execute(q).unwrap();
                    assert_eq!(got, live, "{what} snapshot vs live engine: {q:?}");
                    assert_eq!(score_bits(&got), score_bits(&live), "{what} score bits: {q:?}");
                }
                live
            })
            .collect()
    }

    /// Two batches; after each, the live engine against a full snapshot
    /// and (after the second) the incremental one built off the first.
    fn drive(e: &mut DurableEngine) -> [Vec<QueryOutput>; 2] {
        let texts = corpus();
        for t in &texts[..20] {
            e.add_document(t).unwrap();
        }
        e.flush().unwrap();
        let snap1 = e.snapshot(None).unwrap();
        let first = answers(e, &[("full", &snap1)]);

        for t in &texts[20..] {
            e.add_document(t).unwrap();
        }
        e.flush().unwrap();
        let snap2 = e.snapshot(Some(&snap1)).unwrap();
        let full = e.snapshot(None).unwrap();
        let second = answers(e, &[("incremental", &snap2), ("full", &full)]);
        // The first snapshot still answers for its own epoch. (The corpus
        // lexer splits letter/digit runs, so "tail25" indexes as "tail"
        // and "25"; the digit token is unique to document 26.)
        assert_eq!(snap1.total_docs(), 20);
        let q = EngineQuery::boolean("25");
        assert_eq!(ids(&snap1.execute(&q).unwrap()), Vec::<u32>::new());
        assert_eq!(ids(&snap2.execute(&q).unwrap()), vec![26]);
        [first, second]
    }

    fn log_less(config: IndexConfig) -> DurableEngine {
        DurableEngine::without_log(sparse_array(2, 50_000, 256), config).unwrap()
    }

    fn segmented() -> IndexConfig {
        IndexConfig {
            engine: EngineKind::Segmented { l0_budget: 64, fanout: 2 },
            ..IndexConfig::small()
        }
    }

    #[test]
    fn snapshot_matches_live_engine_in_place() {
        let stages = drive(&mut log_less(IndexConfig::small()));
        // The table is not vacuous: it finds, ranks, counts, and fetches.
        let last = &stages[1];
        assert_eq!(ids(&last[1]), vec![1, 4, 7, 10, 13, 16, 19, 22, 25, 28]);
        assert!(last.iter().any(|o| o.hits().is_some_and(|h| h.len() == 10)));
        assert!(last.contains(&QueryOutput::Dfs { docs: 30, tokens: 370, dfs: vec![30, 10, 0] }));
        assert!(last.iter().any(|o| matches!(o, QueryOutput::Text(Some(_)))));
        assert!(last.contains(&QueryOutput::Text(None)));
    }

    #[test]
    fn snapshot_matches_live_engine_segmented() {
        let reference = drive(&mut log_less(IndexConfig::small()));
        assert_eq!(drive(&mut log_less(segmented())), reference);
    }

    #[test]
    fn snapshot_matches_durable_engine_fresh_and_reopened() {
        let reference = drive(&mut log_less(IndexConfig::small()));
        for (name, config) in [("inplace", IndexConfig::small()), ("segmented", segmented())] {
            let dir = std::env::temp_dir()
                .join(format!("invidx-snap-parity-{}-{name}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let geometry = StoreGeometry { disks: 2, blocks_per_disk: 20_000, block_size: 256 };
            let opts = DurableOptions::default();
            let mut e = DurableEngine::create(&dir, config, geometry, opts).unwrap();
            assert_eq!(drive(&mut e), reference, "{name}: fresh durable engine");
            drop(e);

            // Recovery dirties everything, so the first view is a full one;
            // one more batch then exercises the incremental path too.
            let mut e = DurableEngine::open(&dir, config, opts).unwrap();
            let full = e.snapshot(None).unwrap();
            assert_eq!(answers(&e, &[("reopened", &full)]), reference[1], "{name}: reopened");
            e.add_document("shared anchor cat sat near the dog again").unwrap();
            e.flush().unwrap();
            let incr = e.snapshot(Some(&full)).unwrap();
            answers(&e, &[("reopened incremental", &incr)]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn snapshot_tracks_deletions_via_dirty_all() {
        let mut e = log_less(IndexConfig::small());
        let d1 = e.add_document("target shared words").unwrap();
        e.add_document("other shared words").unwrap();
        e.flush().unwrap();
        let snap1 = e.snapshot(None).unwrap();
        let target = EngineQuery::boolean("target");
        assert_eq!(ids(&snap1.execute(&target).unwrap()), vec![1]);

        e.delete(d1);
        let snap2 = e.snapshot(Some(&snap1)).unwrap();
        assert!(ids(&snap2.execute(&target).unwrap()).is_empty(), "deletion must invalidate");
        assert_eq!(ids(&snap2.execute(&EngineQuery::boolean("shared")).unwrap()), vec![2]);
        // The old snapshot is untouched.
        assert_eq!(ids(&snap1.execute(&target).unwrap()), vec![1]);
    }

    #[test]
    fn incremental_rematerialization_shares_unchanged_lists() {
        let mut e = log_less(IndexConfig::small());
        e.add_document("stable words never touched again").unwrap();
        e.flush().unwrap();
        let snap1 = e.snapshot(None).unwrap();
        e.add_document("fresh vocabulary entirely disjoint").unwrap();
        e.flush().unwrap();
        let snap2 = e.snapshot(Some(&snap1)).unwrap();
        let stable = e.word_id("stable").unwrap();
        assert!(Arc::ptr_eq(&snap1.postings[&stable], &snap2.postings[&stable]));
        assert!(Arc::ptr_eq(&snap1.texts[&DocId(1)], &snap2.texts[&DocId(1)]));
        assert_eq!(ids(&snap2.execute(&EngineQuery::boolean("fresh")).unwrap()), vec![2]);
    }

    #[test]
    fn empty_snapshot_answers_nothing() {
        let s = EngineSnapshot::empty();
        for q in table() {
            match s.execute(&q).unwrap() {
                QueryOutput::Docs(list) => assert!(list.is_empty(), "{q:?}"),
                QueryOutput::Hits(hits) => assert!(hits.is_empty(), "{q:?}"),
                QueryOutput::Dfs { docs, tokens, dfs } => {
                    assert_eq!((docs, tokens), (0, 0));
                    assert!(dfs.iter().all(|&df| df == 0), "{q:?}");
                }
                QueryOutput::Text(text) => assert_eq!(text, None, "{q:?}"),
            }
        }
        assert_eq!(s.total_docs(), 0);
        assert_eq!(s.document(DocId(1)).unwrap(), None);
    }
}
