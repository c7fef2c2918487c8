//! [`DurableEngine`]: the search engine — text documents in, ranked
//! results out.
//!
//! It glues the corpus lexer (paper §4.2), a string → word-id interner
//! ("all words in batch updates are converted to unique integers"), the
//! index, and the one query evaluator ([`crate::query`]). The state that
//! is *not* the index proper — the document store, the vocabulary, the id
//! counters — lives in [`EngineCore`].
//!
//! Whether the store has a write-ahead log is the index's business, not
//! the engine's ([`invidx_durable::DurableIndex`]): [`DurableEngine::create`]
//! / [`DurableEngine::open`] build a logged store in a directory,
//! [`DurableEngine::without_log`] a log-less one over a bare disk array
//! (the paper's shadow-paged commit; what tests and ablations that need
//! no recovery run). The engine hands the index what a log would need and
//! the index takes it or not. With a log, the engine rides the WAL +
//! checkpoint discipline:
//!
//! * every flushed batch logs its **document texts** in the WAL record's
//!   metadata field, so replay can redo the document-store appends and
//!   re-intern the vocabulary (interning order is the lexer order, which
//!   is deterministic from the texts);
//! * every checkpoint embeds the full engine metadata blob, so recovery
//!   starts from a consistent (index, docstore, vocabulary) triple and
//!   replays only the batches after it.
//!
//! The ordering contract matters: the original run allocates each batch's
//! document extents *before* that batch's index apply, so recovery does the
//! same — [`RecoveryHooks::on_checkpoint_meta`] re-reserves the checkpoint's
//! document extents before any replay, and [`RecoveryHooks::before_apply`]
//! redoes a batch's document appends before its index postings land.
//!
//! There is one store, [`DurableSegmentedIndex`]: the paper's in-place
//! index as L0, plus sealed segments when [`IndexConfig::engine`] gives
//! it a seal budget. The engine never asks which kind it runs; the store
//! decides what a seal budget changes (whether it writes a manifest,
//! whether it may sweep).

use crate::boolean::PostingSource;
use crate::engine::{EngineCore, LiveReader};
use crate::query::{EngineQuery, QueryOutput};
use invidx_core::index::{
    BatchReport, CompactReport, DualIndex, IndexConfig, RebalanceReport, SweepReport,
};
use invidx_core::postings::PostingList;
use invidx_core::types::{DocId, WordId};
use invidx_disk::DiskArray;
use invidx_durable::{
    DurableError, DurableIndex, DurableOptions, FaultInjector, RecoveryHooks, RecoveryInfo,
    StoreGeometry, WalRecord,
};
use invidx_segment::{DurableSegmentedIndex, SegmentStats};
use std::path::Path;

impl PostingSource for DurableSegmentedIndex {
    fn postings(&self, word: WordId) -> invidx_core::Result<PostingList> {
        let _stage = invidx_obs::trace::stage("term");
        let list = DurableSegmentedIndex::postings(self, word)?;
        invidx_obs::trace::add_items(list.len() as u64);
        Ok(list)
    }
}

/// Per-batch WAL metadata: the documents added since the last flush, as
/// `u32 count`, then per document `u32 id | u32 len | utf8 text`.
fn encode_batch_meta(docs: &[(DocId, String)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + docs.iter().map(|(_, t)| 8 + t.len()).sum::<usize>());
    out.extend_from_slice(&(docs.len() as u32).to_le_bytes());
    for (d, text) in docs {
        out.extend_from_slice(&d.0.to_le_bytes());
        out.extend_from_slice(&(text.len() as u32).to_le_bytes());
        out.extend_from_slice(text.as_bytes());
    }
    out
}

fn decode_batch_meta(meta: &[u8]) -> invidx_durable::Result<Vec<(DocId, String)>> {
    if meta.is_empty() {
        return Ok(Vec::new());
    }
    let corrupt = |m: &str| DurableError::Corrupt(format!("batch meta: {m}"));
    let mut pos = 0usize;
    let mut take = |n: usize| -> invidx_durable::Result<&[u8]> {
        if pos + n > meta.len() {
            return Err(corrupt("truncated"));
        }
        let s = &meta[pos..pos + n];
        pos += n;
        Ok(s)
    };
    let count = u32::from_le_bytes(take(4)?.try_into().expect("4"));
    // The count came off the wire: a document costs at least 8 bytes.
    let mut out = Vec::with_capacity((count as usize).min(meta.len() / 8));
    for _ in 0..count {
        let doc = DocId(u32::from_le_bytes(take(4)?.try_into().expect("4")));
        let len = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
        let text = String::from_utf8(take(len)?.to_vec())
            .map_err(|_| corrupt("non-utf8 document"))?;
        out.push((doc, text));
    }
    if pos != meta.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(out)
}

/// Recovery participant: rebuilds the engine state alongside index replay.
struct EngineHooks {
    core: EngineCore,
}

impl RecoveryHooks for EngineHooks {
    fn on_checkpoint_meta(
        &mut self,
        meta: &[u8],
        index: &mut DualIndex,
    ) -> invidx_durable::Result<()> {
        // The batch-0 checkpoint of a fresh store carries no engine blob.
        if meta.is_empty() {
            return Ok(());
        }
        self.core = EngineCore::decode_meta(meta)?;
        for (_, disk, start, blocks) in self.core.docs.extents() {
            index.reserve_extent(disk, start, blocks)?;
        }
        Ok(())
    }

    fn before_apply(
        &mut self,
        record: &WalRecord,
        index: &mut DualIndex,
    ) -> invidx_durable::Result<()> {
        let WalRecord::Batch { meta, .. } = record else {
            return Ok(());
        };
        for (doc, text) in decode_batch_meta(meta)? {
            // Re-intern in lexer order: reproduces the original word-id
            // assignment, which the record's posting lists were built with.
            self.core.lex_and_intern(&text)?;
            self.core.docs.store(index.sidecar_array(), doc, &text)?;
            self.core.register_doc(doc, &text);
            self.core.next_doc = self.core.next_doc.max(doc.0 + 1);
            self.core.total_docs += 1;
        }
        Ok(())
    }
}

/// A text search engine over the dual-structure index.
///
/// Documents are stored alongside the index (in a [`crate::DocStore`]
/// sharing the same disks), enabling the paper's §1 positional conditions:
/// inverted lists prune the candidates, the stored text verifies
/// proximity and phrase predicates.
/// ```
/// use invidx_core::index::IndexConfig;
/// use invidx_disk::sparse_array;
/// use invidx_ir::{DurableEngine, EngineQuery};
///
/// let array = sparse_array(2, 50_000, 256);
/// let mut engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
/// engine.add_document("the cat sat on the mat").unwrap();
/// engine.add_document("the dog chased the cat").unwrap();
/// engine.flush().unwrap();
/// let both = engine.execute(&EngineQuery::boolean("cat and dog")).unwrap();
/// assert_eq!(both.docs().unwrap().len(), 1);
/// let near = engine.execute(&EngineQuery::near("dog", "cat", 3)).unwrap();
/// assert_eq!(near.docs().unwrap().len(), 1);
/// ```
///
/// In a store directory it is crash-safe:
/// ```
/// use invidx_core::index::IndexConfig;
/// use invidx_durable::{DurableOptions, StoreGeometry};
/// use invidx_ir::{DurableEngine, EngineQuery};
///
/// let dir = std::env::temp_dir().join(format!("invidx-deng-doc-{}", std::process::id()));
/// std::fs::remove_dir_all(&dir).ok();
/// let geometry = StoreGeometry { disks: 2, blocks_per_disk: 20_000, block_size: 256 };
/// let mut e = DurableEngine::create(&dir, IndexConfig::small(), geometry,
///                                   DurableOptions::default()).unwrap();
/// e.add_document("the cat sat on the mat").unwrap();
/// e.flush().unwrap();
/// drop(e);
/// // Reopen = recover: checkpoint + WAL replay restore everything.
/// let mut e = DurableEngine::open(&dir, IndexConfig::small(),
///                                 DurableOptions::default()).unwrap();
/// let cats = e.execute(&EngineQuery::boolean("cat")).unwrap();
/// assert_eq!(cats.docs().unwrap().len(), 1);
/// std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct DurableEngine {
    store: DurableSegmentedIndex,
    core: EngineCore,
    /// Documents added since the last flush; their texts become the next
    /// WAL record's metadata.
    pending_docs: Vec<(DocId, String)>,
}

impl DurableEngine {
    /// Create a fresh durable engine in `dir`.
    pub fn create(
        dir: &Path,
        config: IndexConfig,
        geometry: StoreGeometry,
        opts: DurableOptions,
    ) -> invidx_durable::Result<Self> {
        Self::create_with(dir, config, geometry, opts, FaultInjector::new())
    }

    /// [`Self::create`] with a caller-supplied fault injector (tests).
    pub fn create_with(
        dir: &Path,
        config: IndexConfig,
        geometry: StoreGeometry,
        opts: DurableOptions,
        injector: FaultInjector,
    ) -> invidx_durable::Result<Self> {
        let store = DurableSegmentedIndex::create_with(dir, config, geometry, opts, injector)?;
        Ok(Self { store, core: EngineCore::new(), pending_docs: Vec::new() })
    }

    /// A fresh engine on `array` with no write-ahead log and no store
    /// directory: batches commit through the paper's shadow-paged flush
    /// and nothing survives the process (see
    /// [`DurableIndex::without_log`]).
    pub fn without_log(array: DiskArray, config: IndexConfig) -> invidx_durable::Result<Self> {
        let store = DurableSegmentedIndex::without_log(array, config)?;
        Ok(Self { store, core: EngineCore::new(), pending_docs: Vec::new() })
    }

    /// Open (recover) a durable engine from `dir`: restore the checkpoint's
    /// engine metadata, then replay WAL batches — including their document
    /// appends and vocabulary growth.
    pub fn open(
        dir: &Path,
        config: IndexConfig,
        opts: DurableOptions,
    ) -> invidx_durable::Result<Self> {
        Self::open_with(dir, config, opts, FaultInjector::new())
    }

    /// [`Self::open`] with a caller-supplied fault injector (tests).
    pub fn open_with(
        dir: &Path,
        config: IndexConfig,
        opts: DurableOptions,
        injector: FaultInjector,
    ) -> invidx_durable::Result<Self> {
        let mut hooks = EngineHooks { core: EngineCore::new() };
        // A store with a manifest peels its slice off the checkpoint meta
        // and hands these hooks the engine blob.
        let store = DurableSegmentedIndex::open_with(dir, config, opts, injector, &mut hooks)?;
        Ok(Self { store, core: hooks.core, pending_docs: Vec::new() })
    }

    // ----- updates -----

    /// Add a document; returns its assigned id. The text goes through the
    /// paper's lexer: letter/digit tokens, lowercasing, header-line
    /// skipping, per-document dedup. Not yet durable — the document text
    /// is logged (and committed) by the next [`Self::flush`].
    pub fn add_document(&mut self, text: &str) -> invidx_durable::Result<DocId> {
        let words = self.core.lex_and_intern(text)?;
        let doc = DocId(self.core.next_doc);
        self.store.insert_document(doc, words)?;
        self.core.next_doc += 1;
        self.core.docs.store(self.store.l0_mut().inner_mut().sidecar_array(), doc, text)?;
        self.core.register_doc(doc, text);
        self.core.total_docs += 1;
        self.pending_docs.push((doc, text.to_string()));
        Ok(doc)
    }

    /// Add a batch of documents: parallel tokenize, serial intern in
    /// document order, sharded parallel invert. Produces the same ids,
    /// vocabulary, in-memory index, stored texts, and pending WAL batch
    /// as calling [`Self::add_document`] once per text — recovery replays
    /// the logged texts one at a time and converges on identical state.
    pub fn add_documents(&mut self, texts: &[&str]) -> invidx_durable::Result<Vec<DocId>> {
        let threads = self.store.inner().ingest_threads();
        let words = self.core.lex_batch(texts, threads)?;
        let mut ids = Vec::with_capacity(texts.len());
        let mut batch = Vec::with_capacity(texts.len());
        for per_doc in words {
            let doc = DocId(self.core.next_doc);
            self.core.next_doc += 1;
            batch.push((doc, per_doc));
            ids.push(doc);
        }
        self.store.insert_documents(batch, threads)?;
        for (doc, text) in ids.iter().zip(texts) {
            self.core.docs.store(self.store.l0_mut().inner_mut().sidecar_array(), *doc, text)?;
            self.core.register_doc(*doc, text);
            self.core.total_docs += 1;
            self.pending_docs.push((*doc, text.to_string()));
        }
        Ok(ids)
    }

    /// Logically delete a document; rides in the next WAL record.
    pub fn delete(&mut self, doc: DocId) {
        // Deletions can shrink any list; conservatively invalidate the
        // whole snapshot view (see `EngineCore::dirty_all`).
        self.core.dirty_all = true;
        self.store.delete_document(doc);
    }

    /// Flush the buffered batch: WAL-commit the postings, the deletions,
    /// and the batch's document texts, then apply. When the store has a
    /// seal budget, a flush that crosses it also seals a segment and runs
    /// one compaction tick, each committed durably.
    pub fn flush(&mut self) -> invidx_durable::Result<BatchReport> {
        self.stage_checkpoint_meta();
        let report = self.store.flush_with_meta(|| encode_batch_meta(&self.pending_docs))?;
        self.pending_docs.clear();
        Ok(report)
    }

    /// Hand the store the engine blob its next checkpoint must embed.
    fn stage_checkpoint_meta(&mut self) {
        self.store.set_checkpoint_meta(|| self.core.encode_meta());
    }

    /// Run a logged maintenance op, which may checkpoint, with the engine
    /// blob staged. Only an op the store accepts invalidates the snapshot
    /// view; a refused one changed nothing.
    fn maintain<T>(
        &mut self,
        op: impl FnOnce(&mut DurableSegmentedIndex) -> invidx_durable::Result<T>,
    ) -> invidx_durable::Result<T> {
        self.stage_checkpoint_meta();
        let report = op(&mut self.store)?;
        self.core.dirty_all = true;
        Ok(report)
    }

    /// Run the deletion sweep as a logged, replayable operation. Refused
    /// once a segment is sealed; from then on deletions are filtered at
    /// read time.
    pub fn sweep(&mut self) -> invidx_durable::Result<SweepReport> {
        self.maintain(|store| Ok(store.sweep()?))
    }

    /// Rewrite L0's fragmented long lists contiguously (logged; needs a
    /// batch boundary — flush first).
    pub fn compact(&mut self) -> invidx_durable::Result<CompactReport> {
        self.maintain(|store| store.l0_mut().compact())
    }

    /// Rehash L0's bucket space to a new geometry (logged; needs a batch
    /// boundary — flush first).
    pub fn rebalance(
        &mut self,
        num_buckets: usize,
        capacity_units: u64,
    ) -> invidx_durable::Result<RebalanceReport> {
        self.maintain(|store| store.l0_mut().rebalance(num_buckets, capacity_units))
    }

    /// Materialize an immutable point-in-time view of this engine for the
    /// lock-free serving read path (see [`crate::EngineSnapshot`]).
    pub fn snapshot(
        &mut self,
        prev: Option<&crate::EngineSnapshot>,
    ) -> invidx_core::Result<crate::EngineSnapshot> {
        let array = self.store.inner().array();
        crate::snapshot::materialize(&mut self.core, &self.store, array, prev)
    }

    /// Write a checkpoint now (embedding current engine metadata) and reset
    /// the WAL. Returns the checkpoint size in bytes.
    pub fn checkpoint(&mut self) -> invidx_durable::Result<u64> {
        self.stage_checkpoint_meta();
        Ok(self.store.checkpoint()?)
    }

    // ----- queries -----

    /// Total lexer tokens across all added documents (BM25 avgdl
    /// numerator).
    pub fn total_tokens(&self) -> u64 {
        self.core.total_tokens
    }

    fn reader(&self) -> LiveReader<'_, DurableSegmentedIndex> {
        LiveReader { core: &self.core, source: &self.store, array: self.store.inner().array() }
    }

    /// Evaluate a typed [`EngineQuery`] — the only read entry point,
    /// shared with [`crate::EngineSnapshot`]. `&self`: queries share the
    /// engine, so a serving layer can fan them out across threads while a
    /// single writer ingests.
    pub fn execute(&self, query: &EngineQuery) -> invidx_core::Result<QueryOutput> {
        crate::query::execute(&self.reader(), query)
    }

    // ----- replication -----

    /// Committed WAL records after `from_batch` — what a primary serves to
    /// a tailing replica. See [`DurableIndex::wal_records_from`] for the
    /// checkpoint caveat (primaries that ship their WAL must run with
    /// `checkpoint_every: 0`).
    /// (A store with a seal budget checkpoints on every seal, truncating
    /// the WAL, so only in-place primaries can ship their log.)
    pub fn wal_records_from(&self, from_batch: u64) -> invidx_durable::Result<Vec<WalRecord>> {
        self.store.l0().wal_records_from(from_batch)
    }

    /// Apply one shipped WAL record on a replica, re-running the primary's
    /// batch through this engine's own update path (re-lex, re-intern,
    /// re-store, re-flush). The replica converges on the same vocabulary,
    /// document store, and posting lists as the primary because the record
    /// carries the batch's document texts and interning order is the
    /// deterministic lexer order — the same argument that makes crash
    /// recovery exact. The record lands in the replica's *own* WAL, so a
    /// restarted replica recovers locally and resumes tailing from its
    /// committed batch count.
    ///
    /// Records must arrive in batch order with no gaps; a divergent doc id
    /// or batch number poisons nothing but returns `Corrupt`, and the
    /// caller should re-seed the replica.
    pub fn apply_replicated(&mut self, record: &WalRecord) -> invidx_durable::Result<u64> {
        // A replica recovers from, and is tailed through, its own log.
        self.store.l0().last_checkpoint_batch().ok_or(DurableError::NoLog)?;
        let expect = self.store.batches() + 1;
        if record.batch() != expect {
            return Err(DurableError::Corrupt(format!(
                "replica committed batch {}, shipped record is batch {} (gap or replay)",
                expect - 1,
                record.batch()
            )));
        }
        match record {
            WalRecord::Batch { deletes, meta, .. } => {
                for (doc, text) in decode_batch_meta(meta)? {
                    if doc.0 != self.core.next_doc {
                        return Err(DurableError::Corrupt(format!(
                            "shipped batch adds doc {}, replica expects doc {}",
                            doc.0, self.core.next_doc
                        )));
                    }
                    self.add_document(&text)?;
                }
                for &d in deletes {
                    self.delete(d);
                }
                self.flush()?;
            }
            WalRecord::Sweep { deletes, .. } => {
                for &d in deletes {
                    self.delete(d);
                }
                self.sweep()?;
            }
            WalRecord::Compact { .. } => {
                self.compact()?;
            }
            WalRecord::Rebalance { num_buckets, capacity_units, .. } => {
                self.rebalance(*num_buckets as usize, *capacity_units as u64)?;
            }
        }
        let now = self.store.batches();
        if now != record.batch() {
            return Err(DurableError::Corrupt(format!(
                "replicated apply produced batch {now}, record says {}",
                record.batch()
            )));
        }
        Ok(now)
    }

    /// The stored text of a document.
    pub fn document(&self, doc: DocId) -> invidx_core::Result<Option<String>> {
        self.core.docs.load(self.store.inner().array(), doc)
    }

    // ----- introspection -----

    /// The store's L0 index (batch count, WAL size, checkpoint state,
    /// recovery report, fault injector; `.inner()` for the dual-structure
    /// index itself) — the whole index when the store never seals.
    pub fn index(&self) -> &DurableIndex {
        self.store.l0()
    }

    /// Segment-tier statistics, when the store has a seal budget.
    pub fn segment_stats(&self) -> Option<SegmentStats> {
        self.store.can_seal().then(|| self.store.stats())
    }

    /// Documents added so far.
    pub fn total_docs(&self) -> u64 {
        self.core.total_docs
    }

    /// Distinct words interned so far.
    pub fn vocabulary_size(&self) -> usize {
        self.core.vocab.len()
    }

    /// Look up a word without interning.
    pub fn word_id(&self, word: &str) -> Option<WordId> {
        self.core.word_id(word)
    }

    /// What recovery did when this handle was opened (None for freshly
    /// created stores).
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.store.recovery()
    }
}

impl PostingSource for DurableEngine {
    fn postings(&self, word: WordId) -> invidx_core::Result<PostingList> {
        PostingSource::postings(&self.store, word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invidx_core::types::IndexError;
    use std::path::PathBuf;

    fn geom() -> StoreGeometry {
        StoreGeometry { disks: 2, blocks_per_disk: 20_000, block_size: 256 }
    }

    /// Documents matching a boolean query string.
    fn hits(e: &DurableEngine, query: &str) -> Vec<DocId> {
        e.execute(&EngineQuery::boolean(query)).unwrap().docs().unwrap().docs().to_vec()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("invidx-deng-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn batch_meta_round_trips() {
        let docs = vec![
            (DocId(1), "the cat sat".to_string()),
            (DocId(2), String::new()),
            (DocId(7), "caf\u{e9} \u{1F600}".to_string()),
        ];
        let meta = encode_batch_meta(&docs);
        assert_eq!(decode_batch_meta(&meta).unwrap(), docs);
        assert_eq!(decode_batch_meta(&[]).unwrap(), Vec::new());
        assert!(decode_batch_meta(&meta[..meta.len() - 1]).is_err());
    }

    #[test]
    fn durable_engine_survives_reopen_mid_wal() {
        let dir = tmpdir("reopen");
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        let mut e = DurableEngine::create(&dir, IndexConfig::small(), geom(), opts).unwrap();
        e.add_document("the cat sat on the mat").unwrap();
        e.add_document("the dog chased the cat").unwrap();
        e.flush().unwrap();
        e.add_document("a mouse ran past the sleeping dog").unwrap();
        e.flush().unwrap();
        let vocab = e.vocabulary_size();
        drop(e);

        // No checkpoint ran since creation: both batches replay from the WAL,
        // re-storing documents and re-interning the vocabulary.
        let mut e = DurableEngine::open(&dir, IndexConfig::small(), opts).unwrap();
        assert_eq!(e.recovery().unwrap().replayed_records, 2);
        assert_eq!(e.total_docs(), 3);
        assert_eq!(e.vocabulary_size(), vocab);
        assert_eq!(hits(&e, "cat and dog").len(), 1);
        assert_eq!(e.document(DocId(1)).unwrap().unwrap(), "the cat sat on the mat");
        let near = e.execute(&EngineQuery::near("mouse", "dog", 10)).unwrap();
        assert_eq!(near.docs().unwrap().len(), 1);
        // The engine keeps working after recovery with stable ids.
        let d4 = e.add_document("another cat arrives").unwrap();
        assert_eq!(d4, DocId(4));
        e.flush().unwrap();
        assert_eq!(hits(&e, "cat").len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_meta_restores_engine_without_replay() {
        let dir = tmpdir("ckptmeta");
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        let mut e = DurableEngine::create(&dir, IndexConfig::small(), geom(), opts).unwrap();
        e.add_document("alpha beta gamma").unwrap();
        e.add_document("beta gamma delta words").unwrap();
        e.flush().unwrap();
        e.checkpoint().unwrap();
        assert_eq!(e.index().wal_size(), 0);
        drop(e);

        let e = DurableEngine::open(&dir, IndexConfig::small(), opts).unwrap();
        assert_eq!(e.recovery().unwrap().replayed_records, 0);
        assert_eq!(e.total_docs(), 2);
        assert_eq!(hits(&e, "beta and gamma").len(), 2);
        assert_eq!(e.document(DocId(2)).unwrap().unwrap(), "beta gamma delta words");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_shipping_replica_converges_and_survives_restart() {
        let pdir = tmpdir("repl-primary");
        let rdir = tmpdir("repl-replica");
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        let mut primary = DurableEngine::create(&pdir, IndexConfig::small(), geom(), opts).unwrap();
        let mut replica = DurableEngine::create(&rdir, IndexConfig::small(), geom(), opts).unwrap();

        let d1 = primary.add_document("the cat sat on the mat").unwrap();
        primary.add_document("the dog chased the cat").unwrap();
        primary.flush().unwrap();
        primary.add_document("a mouse ran past the sleeping dog").unwrap();
        primary.delete(d1);
        primary.flush().unwrap();
        primary.sweep().unwrap();

        // Ship everything past the replica's committed batch count.
        for rec in primary.wal_records_from(replica.index().batches()).unwrap() {
            replica.apply_replicated(&rec).unwrap();
        }
        assert_eq!(replica.index().batches(), primary.index().batches());
        assert_eq!(replica.total_docs(), primary.total_docs());
        assert_eq!(replica.vocabulary_size(), primary.vocabulary_size());
        for q in ["cat", "dog and mouse", "cat and not dog"] {
            assert_eq!(hits(&replica, q), hits(&primary, q), "{q}");
        }
        let like = EngineQuery::like("cat dog", 5);
        let (ph, rh) = (primary.execute(&like).unwrap(), replica.execute(&like).unwrap());
        let (ph, rh) = (ph.hits().unwrap(), rh.hits().unwrap());
        assert_eq!(ph.len(), rh.len());
        for (a, b) in ph.iter().zip(rh) {
            assert_eq!((a.doc, a.score.to_bits()), (b.doc, b.score.to_bits()));
        }

        // The replica restarts from its own WAL and resumes tailing.
        drop(replica);
        let mut replica = DurableEngine::open(&rdir, IndexConfig::small(), opts).unwrap();
        primary.add_document("another cat arrives").unwrap();
        primary.flush().unwrap();
        let shipped = primary.wal_records_from(replica.index().batches()).unwrap();
        assert_eq!(shipped.len(), 1);
        for rec in shipped {
            replica.apply_replicated(&rec).unwrap();
        }
        assert_eq!(replica.index().batches(), primary.index().batches());
        assert_eq!(hits(&replica, "cat"), hits(&primary, "cat"));

        // Gap and divergence detection: replaying an old record is refused.
        let stale = primary.wal_records_from(0).unwrap();
        assert!(replica.apply_replicated(&stale[0]).is_err());
        std::fs::remove_dir_all(&pdir).ok();
        std::fs::remove_dir_all(&rdir).ok();
    }

    /// The vocabulary blob stores a word's length in 16 bits and the lexer
    /// caps nothing: a 70,000-letter token used to checkpoint a blob that
    /// no longer parsed, taking every document in the store with it.
    #[test]
    fn over_long_word_is_refused_and_the_store_reopens() {
        let dir = tmpdir("longword");
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        let mut e = DurableEngine::create(&dir, IndexConfig::small(), geom(), opts).unwrap();
        let hostile = format!("cat {} dog", "a".repeat(70_000));
        let refused = e.add_document(&hostile).unwrap_err();
        assert!(matches!(refused, DurableError::Index(IndexError::InvalidConfig(_))), "{refused}");
        assert!(e.add_documents(&["fine words", &hostile]).is_err());
        // Nothing of either refused call stuck: no ids, words or documents.
        assert_eq!((e.total_docs(), e.vocabulary_size()), (0, 0));
        assert_eq!(e.add_document("the cat sat").unwrap(), DocId(1));
        e.flush().unwrap();
        e.checkpoint().unwrap();
        drop(e);

        let e = DurableEngine::open(&dir, IndexConfig::small(), opts).unwrap();
        assert_eq!(hits(&e, "cat"), vec![DocId(1)]);
        assert!(hits(&e, "dog").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A shipped record is outside input: its document count must not be
    /// trusted with an allocation (this one used to abort the replica).
    #[test]
    fn hostile_batch_meta_count_is_an_error_not_an_abort() {
        let dir = tmpdir("hostilemeta");
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        let mut e = DurableEngine::create(&dir, IndexConfig::small(), geom(), opts).unwrap();
        let record = WalRecord::Batch {
            batch: 1,
            lists: vec![],
            deletes: vec![],
            meta: u32::MAX.to_le_bytes().to_vec(),
        };
        assert!(matches!(e.apply_replicated(&record).unwrap_err(), DurableError::Corrupt(_)));
        // So must the two counts in the checkpoint's engine blob.
        for count_at in [36, 44] {
            let mut blob = EngineCore::new().encode_meta();
            blob[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(matches!(EngineCore::decode_meta(&blob), Err(IndexError::Corruption(_))));
        }
        // The engine is alive and unharmed.
        e.add_document("the cat sat").unwrap();
        e.flush().unwrap();
        assert_eq!(hits(&e, "cat"), vec![DocId(1)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A maintenance op the store refuses changes nothing, so it must not
    /// force the next publish down the full-rebuild path.
    #[test]
    fn refused_maintenance_leaves_the_snapshot_clean() {
        use invidx_core::index::EngineKind;
        let dir = tmpdir("refused");
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        let config = IndexConfig {
            engine: EngineKind::Segmented { l0_budget: 1, fanout: 4 },
            ..IndexConfig::small()
        };
        let mut e = DurableEngine::create(&dir, config, geom(), opts).unwrap();
        e.add_document("the cat sat on the mat").unwrap();
        e.flush().unwrap();
        assert_eq!(e.segment_stats().unwrap().segments, 1);
        e.snapshot(None).unwrap();
        assert!(!e.core.dirty_all);

        assert!(e.sweep().is_err(), "a store with a sealed segment has no sweep");
        assert!(!e.core.dirty_all, "refused sweep");
        e.add_document("an unflushed dog").unwrap();
        assert!(e.compact().is_err(), "compaction needs a batch boundary");
        assert!(!e.core.dirty_all, "refused compact");
        assert!(e.rebalance(24, 60).is_err(), "rebalance needs a batch boundary");
        assert!(!e.core.dirty_all, "refused rebalance");

        // Accepted ops still invalidate.
        e.flush().unwrap();
        e.compact().unwrap();
        assert!(e.core.dirty_all);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deletes_and_sweep_survive_recovery() {
        let dir = tmpdir("sweep");
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        let mut e = DurableEngine::create(&dir, IndexConfig::small(), geom(), opts).unwrap();
        let d1 = e.add_document("shared words one").unwrap();
        e.add_document("shared words two").unwrap();
        e.flush().unwrap();
        e.delete(d1);
        e.sweep().unwrap();
        assert_eq!(hits(&e, "shared").len(), 1);
        drop(e);

        let e = DurableEngine::open(&dir, IndexConfig::small(), opts).unwrap();
        assert_eq!(hits(&e, "shared").len(), 1);
        assert_eq!(e.index().inner().pending_deletions(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
