//! The end-to-end search engine: text documents in, ranked results out.
//!
//! [`SearchEngine`] glues the corpus lexer (paper §4.2), a string → word-id
//! interner ("all words in batch updates are converted to unique
//! integers"), the dual-structure index, and the two query models of §1.
//! It also ships a small boolean query-string parser so examples and tests
//! can write `(cat and dog) or mouse` — the paper's own example query.
//!
//! The engine state that is *not* the index proper — the document store,
//! the vocabulary, and the id counters — lives in [`EngineCore`], shared
//! with the crash-safe [`crate::DurableEngine`]. `SearchEngine` persists
//! that state with an explicit metadata blob ([`SearchEngine::save_meta`]);
//! the durable engine carries the same blob in WAL records and checkpoints.

use crate::boolean::{PostingSource, Query};
use crate::docstore::DocStore;
use crate::proximity;
use crate::query::{EngineQuery, QueryOutput, ReadContext};
use crate::rank::Bm25Params;
use crate::vector::Hit;
use invidx_core::index::{BatchReport, DualIndex, EngineKind, IndexConfig, SweepReport};
use invidx_core::postings::PostingList;
use invidx_core::types::{DocId, IndexError, Result, WordId};
use invidx_corpus::lexer;
use invidx_disk::DiskArray;
use invidx_segment::{SegmentStats, SegmentedIndex};
use std::collections::{HashMap, HashSet};

impl PostingSource for SegmentedIndex {
    fn postings(&self, word: WordId) -> Result<PostingList> {
        let _stage = invidx_obs::trace::stage("term");
        let list = SegmentedIndex::postings(self, word)?;
        invidx_obs::trace::add_items(list.len() as u64);
        Ok(list)
    }
}

/// The index behind a [`SearchEngine`]: the paper's mutable in-place
/// store, or the segment-tiered store with that same structure demoted
/// to L0. Selected by [`IndexConfig::engine`] at creation.
pub(crate) enum Backend {
    /// Update-in-place dual-structure index (the paper's design).
    InPlace(DualIndex),
    /// L0 dual-structure index plus immutable sealed segments.
    Segmented(SegmentedIndex),
}

impl Backend {
    fn create(array: DiskArray, config: IndexConfig) -> Result<Self> {
        match config.engine {
            EngineKind::InPlace => Ok(Backend::InPlace(DualIndex::create(array, config)?)),
            EngineKind::Segmented { .. } => {
                Ok(Backend::Segmented(SegmentedIndex::create(array, config)?))
            }
        }
    }

    /// The dual-structure index: the whole store in-place, L0 when
    /// segmented. Its disk array is the one the document store shares.
    fn dual(&self) -> &DualIndex {
        match self {
            Backend::InPlace(ix) => ix,
            Backend::Segmented(ix) => ix.l0(),
        }
    }

    fn dual_mut(&mut self) -> &mut DualIndex {
        match self {
            Backend::InPlace(ix) => ix,
            Backend::Segmented(ix) => ix.l0_mut(),
        }
    }

    /// Segment-tier statistics, when this backend is segmented.
    fn segment_stats(&self) -> Option<SegmentStats> {
        match self {
            Backend::InPlace(_) => None,
            Backend::Segmented(ix) => Some(ix.stats()),
        }
    }

    fn insert_document(&mut self, doc: DocId, words: Vec<WordId>) -> Result<()> {
        match self {
            Backend::InPlace(ix) => ix.insert_document(doc, words),
            Backend::Segmented(ix) => Ok(ix.insert_document(doc, words)?),
        }
    }

    fn insert_documents(&mut self, docs: Vec<(DocId, Vec<WordId>)>, threads: usize) -> Result<()> {
        match self {
            Backend::InPlace(ix) => ix.insert_documents(docs, threads),
            Backend::Segmented(ix) => Ok(ix.insert_documents(docs, threads)?),
        }
    }

    fn delete_document(&mut self, doc: DocId) {
        match self {
            Backend::InPlace(ix) => ix.delete_document(doc),
            Backend::Segmented(ix) => ix.delete_document(doc),
        }
    }

    fn flush_batch(&mut self) -> Result<BatchReport> {
        match self {
            Backend::InPlace(ix) => ix.flush_batch(),
            Backend::Segmented(ix) => Ok(ix.flush_batch()?),
        }
    }

    fn sweep(&mut self) -> Result<SweepReport> {
        match self {
            Backend::InPlace(ix) => ix.sweep(),
            // Sweeping L0 would clear tombstones that sealed segments
            // still need for read-time filtering; deletions are instead
            // dropped for good when segments merge.
            Backend::Segmented(_) => Err(IndexError::InvalidConfig(
                "the segmented engine has no sweep; deletions are purged by compaction".into(),
            )),
        }
    }
}

impl PostingSource for Backend {
    fn postings(&self, word: WordId) -> Result<PostingList> {
        match self {
            Backend::InPlace(ix) => PostingSource::postings(ix, word),
            Backend::Segmented(ix) => PostingSource::postings(ix, word),
        }
    }
}

/// Engine state beyond the index itself: stored documents, the word
/// interner, and the id counters, shared by the plain and durable engines.
pub(crate) struct EngineCore {
    pub(crate) docs: DocStore,
    pub(crate) vocab: HashMap<String, WordId>,
    pub(crate) next_word: u64,
    pub(crate) next_doc: u32,
    pub(crate) total_docs: u64,
    /// Per-document token count (in-order, non-deduplicated lexer
    /// tokens) — the BM25 length norm. Deletions leave entries in place,
    /// mirroring `total_docs`, which also never decrements.
    pub(crate) doc_lengths: HashMap<DocId, u32>,
    /// Sum of all registered document lengths; `total_tokens /
    /// total_docs` is the corpus avgdl.
    pub(crate) total_tokens: u64,
    /// Words whose posting lists changed since the last snapshot
    /// materialization ([`crate::EngineSnapshot`]). Every interned word is
    /// marked: an intern happens exactly when a document contributes a
    /// posting for that word.
    pub(crate) dirty: HashSet<WordId>,
    /// Conservative invalidation: deletions, sweeps, and freshly
    /// constructed/recovered cores dirty every list at once.
    pub(crate) dirty_all: bool,
}

impl EngineCore {
    /// Fresh, empty state. Word id 0 is reserved (unknown words map to it
    /// and match nothing); document ids start at 1.
    pub(crate) fn new() -> Self {
        Self {
            docs: DocStore::new(),
            vocab: HashMap::new(),
            next_word: 1,
            next_doc: 1,
            total_docs: 0,
            doc_lengths: HashMap::new(),
            total_tokens: 0,
            dirty: HashSet::new(),
            dirty_all: true,
        }
    }

    /// Record a stored document's token length for BM25 length
    /// normalization. Call once per `docs.store`.
    pub(crate) fn register_doc(&mut self, doc: DocId, text: &str) {
        let len = lexer::tokenize_document(text).len() as u32;
        self.doc_lengths.insert(doc, len);
        self.total_tokens += len as u64;
    }

    /// Corpus average document length (see [`crate::rank::avgdl`]).
    pub(crate) fn avgdl(&self) -> f64 {
        crate::rank::avgdl(self.total_tokens, self.total_docs)
    }

    /// Intern a word (lowercased by the caller/lexer).
    pub(crate) fn intern(&mut self, word: &str) -> WordId {
        if let Some(&id) = self.vocab.get(word) {
            self.dirty.insert(id);
            return id;
        }
        let id = WordId(self.next_word);
        self.next_word += 1;
        self.vocab.insert(word.to_string(), id);
        self.dirty.insert(id);
        id
    }

    /// Look up a word without interning.
    pub(crate) fn word_id(&self, word: &str) -> Option<WordId> {
        self.vocab.get(&word.to_ascii_lowercase()).copied()
    }

    /// Lex a document and intern every word, in lexer order. Interning
    /// order determines word-id assignment, so recovery re-runs exactly
    /// this to reproduce the vocabulary.
    pub(crate) fn lex_and_intern(&mut self, text: &str) -> Vec<WordId> {
        lexer::document_words(text).iter().map(|w| self.intern(w)).collect()
    }

    /// Lex a batch of documents across `threads` workers, then intern
    /// serially in document order. Tokenization is pure per-document work,
    /// so it parallelizes freely; interning — the only order-sensitive
    /// step — stays sequential, which makes word-id assignment identical
    /// to calling [`Self::lex_and_intern`] once per document. Recovery
    /// replays documents one at a time and still reproduces the same
    /// vocabulary.
    pub(crate) fn lex_batch(&mut self, texts: &[&str], threads: usize) -> Vec<Vec<WordId>> {
        let threads = threads.max(1);
        if threads == 1 || texts.len() < 2 {
            return texts.iter().map(|t| self.lex_and_intern(t)).collect();
        }
        let chunk = texts.len().div_ceil(threads);
        let lexed: Vec<Vec<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = texts
                .chunks(chunk)
                .map(|group| {
                    s.spawn(move || {
                        group.iter().map(|t| lexer::document_words(t)).collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(texts.len());
            for h in handles {
                match h.join() {
                    Ok(group) => all.extend(group),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            all
        });
        invidx_obs::counter!(invidx_obs::names::INGEST_LEXED_DOCS).add(texts.len() as u64);
        lexed.iter().map(|words| words.iter().map(|w| self.intern(w)).collect()).collect()
    }

    /// Serialize everything beyond what the index persists itself:
    /// counters, vocabulary, document directory.
    pub(crate) fn encode_meta(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"IVXMETA2");
        out.extend_from_slice(&self.next_word.to_le_bytes());
        out.extend_from_slice(&self.next_doc.to_le_bytes());
        out.extend_from_slice(&self.total_docs.to_le_bytes());
        out.extend_from_slice(&self.total_tokens.to_le_bytes());
        out.extend_from_slice(&(self.doc_lengths.len() as u64).to_le_bytes());
        let mut lens: Vec<(&DocId, &u32)> = self.doc_lengths.iter().collect();
        lens.sort_by_key(|&(d, _)| d.0);
        for (d, len) in lens {
            out.extend_from_slice(&d.0.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&(self.vocab.len() as u64).to_le_bytes());
        let mut words: Vec<(&String, &WordId)> = self.vocab.iter().collect();
        words.sort_by_key(|&(_, id)| id.0);
        for (w, id) in words {
            out.extend_from_slice(&id.0.to_le_bytes());
            out.extend_from_slice(&(w.len() as u16).to_le_bytes());
            out.extend_from_slice(w.as_bytes());
        }
        let docs = self.docs.serialize();
        out.extend_from_slice(&(docs.len() as u64).to_le_bytes());
        out.extend_from_slice(&docs);
        out
    }

    /// Restore from [`EngineCore::encode_meta`] bytes.
    pub(crate) fn decode_meta(meta: &[u8]) -> Result<Self> {
        let corrupt = |m: &str| IndexError::Corruption(format!("engine meta: {m}"));
        let need = |ok: bool, m: &str| ok.then_some(()).ok_or_else(|| corrupt(m));
        need(meta.len() >= 8 && &meta[..8] == b"IVXMETA2", "bad magic")?;
        let mut pos = 8usize;
        let mut take = |n: usize| -> Result<&[u8]> {
            if pos + n > meta.len() {
                return Err(corrupt("truncated"));
            }
            let s = &meta[pos..pos + n];
            pos += n;
            Ok(s)
        };
        let width = |m: &str| IndexError::Corruption(format!("engine meta: short field {m}"));
        macro_rules! word_field {
            ($ty:ty, $n:expr, $m:expr) => {
                <$ty>::from_le_bytes(take($n)?.try_into().map_err(|_| width($m))?)
            };
        }
        let next_word = word_field!(u64, 8, "next_word");
        let next_doc = word_field!(u32, 4, "next_doc");
        let total_docs = word_field!(u64, 8, "total_docs");
        let total_tokens = word_field!(u64, 8, "total_tokens");
        let lens_len = word_field!(u64, 8, "lens_len") as usize;
        let mut doc_lengths = HashMap::with_capacity(lens_len);
        for _ in 0..lens_len {
            let doc = DocId(word_field!(u32, 4, "len_doc"));
            let len = word_field!(u32, 4, "len_val");
            doc_lengths.insert(doc, len);
        }
        let vocab_len = word_field!(u64, 8, "vocab_len") as usize;
        let mut vocab = HashMap::with_capacity(vocab_len);
        for _ in 0..vocab_len {
            let id = WordId(word_field!(u64, 8, "word_id"));
            let wlen = word_field!(u16, 2, "word_len") as usize;
            let word = String::from_utf8(take(wlen)?.to_vec())
                .map_err(|_| corrupt("non-utf8 word"))?;
            vocab.insert(word, id);
        }
        let dlen = word_field!(u64, 8, "doc_len") as usize;
        let docs = DocStore::deserialize(take(dlen)?)?;
        Ok(Self {
            docs,
            vocab,
            next_word,
            next_doc,
            total_docs,
            doc_lengths,
            total_tokens,
            dirty: HashSet::new(),
            dirty_all: true,
        })
    }
}

/// What a live engine lends the evaluator for one query: its core, its
/// index, and the disk array the stored texts are read from.
pub(crate) struct LiveReader<'a, S> {
    pub(crate) core: &'a EngineCore,
    pub(crate) source: &'a S,
    pub(crate) array: &'a DiskArray,
}

impl<S: PostingSource> PostingSource for LiveReader<'_, S> {
    fn postings(&self, word: WordId) -> Result<PostingList> {
        self.source.postings(word)
    }
}

impl<S: PostingSource> ReadContext for LiveReader<'_, S> {
    fn vocab(&self) -> &HashMap<String, WordId> {
        &self.core.vocab
    }

    fn doc_lengths(&self) -> &HashMap<DocId, u32> {
        &self.core.doc_lengths
    }

    fn total_docs(&self) -> u64 {
        self.core.total_docs
    }

    fn total_tokens(&self) -> u64 {
        self.core.total_tokens
    }

    fn load_text(&self, doc: DocId) -> Result<Option<String>> {
        self.core.docs.load(self.array, doc)
    }
}

/// A text search engine over the dual-structure index.
///
/// Documents are stored alongside the index (in a [`DocStore`] sharing the
/// same disks), enabling the paper's §1 positional conditions: inverted
/// lists prune the candidates, the stored text verifies proximity and
/// phrase predicates.
/// ```
/// use invidx_core::index::IndexConfig;
/// use invidx_disk::sparse_array;
/// use invidx_ir::{EngineQuery, SearchEngine};
///
/// let array = sparse_array(2, 50_000, 256);
/// let mut engine = SearchEngine::create(array, IndexConfig::small()).unwrap();
/// engine.add_document("the cat sat on the mat").unwrap();
/// engine.add_document("the dog chased the cat").unwrap();
/// engine.flush().unwrap();
/// let both = engine.execute(&EngineQuery::boolean("cat and dog")).unwrap();
/// assert_eq!(both.docs().unwrap().len(), 1);
/// let near = engine.execute(&EngineQuery::near("dog", "cat", 3)).unwrap();
/// assert_eq!(near.docs().unwrap().len(), 1);
/// ```
pub struct SearchEngine {
    backend: Backend,
    core: EngineCore,
}

impl SearchEngine {
    /// Create a fresh engine on the given disks. [`IndexConfig::engine`]
    /// picks the backend: in-place (the paper's design) or segmented.
    pub fn create(array: DiskArray, config: IndexConfig) -> Result<Self> {
        Ok(Self { backend: Backend::create(array, config)?, core: EngineCore::new() })
    }

    /// Serialize the engine's metadata (vocabulary, document directory,
    /// counters) — everything beyond what `DualIndex` persists itself.
    /// Write this beside the device files after each flush; pass it to
    /// [`SearchEngine::open`] to restore.
    pub fn save_meta(&self) -> Vec<u8> {
        self.core.encode_meta()
    }

    /// Assemble an engine from an already-recovered index plus
    /// [`SearchEngine::save_meta`] bytes. Document-store extents are
    /// re-reserved in the index's allocators.
    pub fn from_parts(mut index: DualIndex, meta: &[u8]) -> Result<Self> {
        let core = EngineCore::decode_meta(meta)?;
        for (_, disk, start, blocks) in core.docs.extents() {
            index.reserve_extent(disk, start, blocks)?;
        }
        Ok(Self { backend: Backend::InPlace(index), core })
    }

    /// Re-open an engine: recover the index from `array` (see
    /// [`DualIndex::open`]) and the engine metadata from `meta` bytes.
    /// Document-store extents are re-reserved in the allocators.
    /// In-place only: the segmented engine's manifest lives in a store
    /// directory, so it reopens through [`crate::DurableEngine`].
    pub fn open(array: DiskArray, config: IndexConfig, meta: &[u8]) -> Result<Self> {
        if !matches!(config.engine, EngineKind::InPlace) {
            return Err(IndexError::InvalidConfig(
                "the segmented engine reopens through DurableEngine (its manifest \
                 is part of the durable store directory)"
                    .into(),
            ));
        }
        Self::from_parts(DualIndex::open(array, config)?, meta)
    }

    /// The dual-structure index: the whole store for the in-place
    /// engine, the L0 tier for the segmented one.
    pub fn index(&self) -> &DualIndex {
        self.backend.dual()
    }

    /// Mutable access to the dual-structure index (see [`Self::index`]).
    pub fn index_mut(&mut self) -> &mut DualIndex {
        self.backend.dual_mut()
    }

    /// Segment-tier statistics, when running the segmented engine.
    pub fn segment_stats(&self) -> Option<SegmentStats> {
        self.backend.segment_stats()
    }

    /// Documents added so far.
    pub fn total_docs(&self) -> u64 {
        self.core.total_docs
    }

    /// Block-cache counters, if the index was configured with a cache
    /// (`IndexConfig::cache_blocks > 0`).
    pub fn cache_stats(&self) -> Option<invidx_core::cache::CacheStats> {
        self.backend.dual().cache_stats()
    }

    /// Distinct words interned so far.
    pub fn vocabulary_size(&self) -> usize {
        self.core.vocab.len()
    }

    /// Intern a word (lowercased by the caller/lexer).
    pub fn intern(&mut self, word: &str) -> WordId {
        self.core.intern(word)
    }

    /// Look up a word without interning.
    pub fn word_id(&self, word: &str) -> Option<WordId> {
        self.core.word_id(word)
    }

    /// Add a document; returns its assigned id. The text goes through the
    /// paper's lexer: letter/digit tokens, lowercasing, header-line
    /// skipping, per-document dedup.
    pub fn add_document(&mut self, text: &str) -> Result<DocId> {
        let words = self.core.lex_and_intern(text);
        let doc = DocId(self.core.next_doc);
        self.core.next_doc += 1;
        self.backend.insert_document(doc, words)?;
        self.core.docs.store(self.backend.dual_mut().sidecar_array(), doc, text)?;
        self.core.register_doc(doc, text);
        self.core.total_docs += 1;
        Ok(doc)
    }

    /// Add a batch of documents in one call. Texts are tokenized across
    /// the configured ingest-thread pool, interned serially in document
    /// order (identical word-id assignment to one-at-a-time adds), and
    /// inverted by the word-sharded parallel inverter. Document ids are
    /// assigned in input order and the result is byte-identical to
    /// calling [`Self::add_document`] for each text in turn.
    pub fn add_documents(&mut self, texts: &[&str]) -> Result<Vec<DocId>> {
        let threads = self.backend.dual().ingest_threads();
        let words = self.core.lex_batch(texts, threads);
        let mut ids = Vec::with_capacity(texts.len());
        let mut batch = Vec::with_capacity(texts.len());
        for per_doc in words {
            let doc = DocId(self.core.next_doc);
            self.core.next_doc += 1;
            batch.push((doc, per_doc));
            ids.push(doc);
        }
        self.backend.insert_documents(batch, threads)?;
        for (doc, text) in ids.iter().zip(texts) {
            self.core.docs.store(self.backend.dual_mut().sidecar_array(), *doc, text)?;
            self.core.register_doc(*doc, text);
            self.core.total_docs += 1;
        }
        Ok(ids)
    }

    /// The stored text of a document.
    pub fn document(&self, doc: DocId) -> Result<Option<String>> {
        self.core.docs.load(self.backend.dual().array(), doc)
    }

    /// Flush the current batch to disk. On the segmented engine this
    /// also runs the seal policy and one compaction tick.
    pub fn flush(&mut self) -> Result<BatchReport> {
        self.backend.flush_batch()
    }

    /// Logically delete a document.
    pub fn delete(&mut self, doc: DocId) {
        // A deletion can shrink any list the document appears in; the
        // dirty-word set only tracks additions, so invalidate everything.
        self.core.dirty_all = true;
        self.backend.delete_document(doc);
    }

    /// Run the deletion sweep (in-place engine only; the segmented
    /// engine purges deletions through compaction instead).
    pub fn sweep(&mut self) -> Result<SweepReport> {
        self.core.dirty_all = true;
        self.backend.sweep()
    }

    /// Materialize an immutable point-in-time view of this engine for the
    /// lock-free serving read path. Pass the previous snapshot to reuse
    /// unchanged posting lists and texts (only dirty words are re-read).
    pub fn snapshot(&mut self, prev: Option<&crate::EngineSnapshot>) -> Result<crate::EngineSnapshot> {
        let array = self.backend.dual().array();
        crate::snapshot::materialize(&mut self.core, &self.backend, array, prev)
    }

    /// Total lexer tokens across all added documents (BM25 avgdl
    /// numerator; ships with DF responses so a router can compute the
    /// corpus-global average document length).
    pub fn total_tokens(&self) -> u64 {
        self.core.total_tokens
    }

    fn reader(&self) -> LiveReader<'_, Backend> {
        LiveReader { core: &self.core, source: &self.backend, array: self.backend.dual().array() }
    }

    /// Evaluate a typed [`EngineQuery`] — the only read entry point,
    /// shared with [`crate::DurableEngine`] and [`crate::EngineSnapshot`].
    /// `&self`: queries share the engine, so a serving layer can fan them
    /// out across threads while a single writer ingests.
    pub fn execute(&self, query: &EngineQuery) -> Result<QueryOutput> {
        crate::query::execute(&self.reader(), query)
    }

    /// [`EngineQuery::Rank`] without early termination — the brute-force
    /// reference implementation tests and the ablation gate certify WAND
    /// against.
    pub fn rank_exhaustive(&self, text: &str, k: usize, params: Bm25Params) -> Result<Vec<Hit>> {
        let ctx = self.reader();
        crate::rank::rank_like_exhaustive(
            &ctx,
            &crate::query::text_words(&ctx, text),
            self.core.total_docs,
            &self.core.doc_lengths,
            self.core.avgdl(),
            params,
            k,
        )
    }
}

impl PostingSource for SearchEngine {
    fn postings(&self, word: WordId) -> Result<PostingList> {
        self.backend.postings(word)
    }
}

// ----- shared query helpers -----
//
// The text-verification passes and the query parser are free functions
// over (candidates, text loader, vocabulary) so the live engines and the
// materialized [`crate::EngineSnapshot`] run *identical* logic — snapshot
// parity with the engines is by construction, not by parallel maintenance.

/// Positional-window verification over pruned candidates: keep the
/// documents where `w1` and `w2` occur within `window` positions.
pub(crate) fn filter_within(
    candidates: &PostingList,
    mut load: impl FnMut(DocId) -> Result<Option<String>>,
    w1: &str,
    w2: &str,
    window: u32,
) -> Result<PostingList> {
    let (l1, l2) = (w1.to_ascii_lowercase(), w2.to_ascii_lowercase());
    let mut hits = Vec::new();
    for &doc in candidates.docs() {
        let Some(text) = load(doc)? else {
            continue;
        };
        let positions = lexer::document_word_positions(&text);
        let find = |w: &str| {
            positions
                .binary_search_by(|(t, _)| t.as_str().cmp(w))
                .ok()
                .map(|i| positions[i].1.as_slice())
                .unwrap_or(&[])
        };
        if proximity::within(find(&l1), find(&l2), window) {
            hits.push(doc);
        }
    }
    Ok(PostingList::from_sorted(hits))
}

/// Phrase verification over pruned candidates: keep the documents where
/// `words` occur contiguously, in order.
pub(crate) fn filter_phrase(
    candidates: &PostingList,
    mut load: impl FnMut(DocId) -> Result<Option<String>>,
    words: &[String],
) -> Result<PostingList> {
    let mut hits = Vec::new();
    for &doc in candidates.docs() {
        let Some(text) = load(doc)? else {
            continue;
        };
        let positions = lexer::document_word_positions(&text);
        let find = |w: &str| {
            positions
                .binary_search_by(|(t, _)| t.as_str().cmp(w))
                .ok()
                .map(|i| positions[i].1.as_slice())
                .unwrap_or(&[])
        };
        let term_positions: Vec<&[u32]> = words.iter().map(|w| find(w)).collect();
        if proximity::contains_phrase(&term_positions) {
            hits.push(doc);
        }
    }
    Ok(PostingList::from_sorted(hits))
}

/// Parse a boolean query string against a vocabulary. Unknown words become
/// empty-list terms (word id 0 is never interned, so they match nothing).
pub(crate) fn parse_query_with(vocab: &HashMap<String, WordId>, text: &str) -> Result<Query> {
    let tokens = lex_query(text)?;
    let mut p = Parser { tokens, pos: 0, vocab };
    let q = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(IndexError::InvalidConfig(format!("trailing tokens in query {text:?}")));
    }
    Ok(q)
}

// ----- boolean query-string parsing -----

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String),
    And,
    Or,
    Not,
    Open,
    Close,
}

fn lex_query(text: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    for raw in text
        .replace('(', " ( ")
        .replace(')', " ) ")
        .split_ascii_whitespace()
    {
        let lower = raw.to_ascii_lowercase();
        out.push(match lower.as_str() {
            "(" => Tok::Open,
            ")" => Tok::Close,
            "and" => Tok::And,
            "or" => Tok::Or,
            "not" => Tok::Not,
            w if w.chars().all(|c| c.is_ascii_alphanumeric()) => Tok::Word(w.to_string()),
            other => {
                return Err(IndexError::InvalidConfig(format!(
                    "bad token {other:?} in query"
                )))
            }
        });
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<Tok>,
    pos: usize,
    vocab: &'a HashMap<String, WordId>,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// expr := term (OR term)*
    fn expr(&mut self) -> Result<Query> {
        let first = self.term()?;
        if !self.eat(&Tok::Or) {
            return Ok(first);
        }
        let mut parts = vec![first, self.term()?];
        while self.eat(&Tok::Or) {
            parts.push(self.term()?);
        }
        Ok(Query::Or(parts))
    }

    /// term := factor ((AND NOT? | NOT) factor)*
    fn term(&mut self) -> Result<Query> {
        let mut acc = self.factor()?;
        loop {
            if self.eat(&Tok::And) {
                if self.eat(&Tok::Not) {
                    let rhs = self.factor()?;
                    acc = Query::and_not(acc, rhs);
                } else {
                    let rhs = self.factor()?;
                    acc = Query::and(acc, rhs);
                }
            } else {
                break;
            }
        }
        Ok(acc)
    }

    /// factor := word | '(' expr ')'
    fn factor(&mut self) -> Result<Query> {
        match self.peek().cloned() {
            Some(Tok::Open) => {
                self.pos += 1;
                let q = self.expr()?;
                if !self.eat(&Tok::Close) {
                    return Err(IndexError::InvalidConfig("unbalanced parentheses".into()));
                }
                Ok(q)
            }
            Some(Tok::Word(w)) => {
                self.pos += 1;
                // Unknown words map to the reserved id 0 => empty list.
                Ok(Query::Word(self.vocab.get(&w).copied().unwrap_or(WordId(0))))
            }
            Some(Tok::Not) => Err(IndexError::InvalidConfig(
                "NOT is only valid after AND (a AND NOT b)".into(),
            )),
            other => Err(IndexError::InvalidConfig(format!(
                "expected word or '(', found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invidx_disk::sparse_array;

    fn engine() -> SearchEngine {
        let array = sparse_array(2, 50_000, 256);
        SearchEngine::create(array, IndexConfig::small()).unwrap()
    }

    /// Documents matching a boolean query string.
    fn boolean(e: &SearchEngine, query: &str) -> Vec<u32> {
        doc_ids(&e.execute(&EngineQuery::boolean(query)).unwrap())
    }

    fn doc_ids(out: &QueryOutput) -> Vec<u32> {
        out.docs().expect("docs output").docs().iter().map(|d| d.0).collect()
    }

    #[test]
    fn add_documents_matches_sequential_adds() {
        let texts: Vec<String> = (0..24)
            .map(|i| format!("shared w{} w{} tail{}", i % 5, (i * 7) % 11, i))
            .collect();
        let refs: Vec<&str> = texts.iter().map(|t| t.as_str()).collect();

        let mut seq = engine();
        for t in &refs {
            seq.add_document(t).unwrap();
        }
        let config = IndexConfig { ingest_threads: 4, ..IndexConfig::small() };
        let mut par = SearchEngine::create(sparse_array(2, 50_000, 256), config).expect("create");
        let ids = par.add_documents(&refs).unwrap();

        assert_eq!(ids, (1..=24).map(DocId).collect::<Vec<_>>());
        assert_eq!(par.vocabulary_size(), seq.vocabulary_size());
        for word in ["shared", "w", "tail", "3", "10"] {
            assert_eq!(par.word_id(word), seq.word_id(word), "{word}");
            assert!(par.word_id(word).is_some(), "{word}");
        }
        for i in 1..=24 {
            assert_eq!(par.document(DocId(i)).unwrap(), seq.document(DocId(i)).unwrap());
        }
        seq.flush().unwrap();
        par.flush().unwrap();
        let a = boolean(&seq, "shared AND 3");
        assert_eq!(a, boolean(&par, "shared AND 3"));
        assert!(!a.is_empty());
    }

    #[test]
    fn end_to_end_boolean() {
        let mut e = engine();
        let d1 = e.add_document("the cat sat on the mat").unwrap();
        let d2 = e.add_document("the dog sat on the cat").unwrap();
        let d3 = e.add_document("a mouse ran away").unwrap();
        e.flush().unwrap();
        assert_eq!((d1.0, d2.0, d3.0), (1, 2, 3));
        assert_eq!(boolean(&e, "(cat and dog) or mouse"), vec![2, 3]);
        assert_eq!(boolean(&e, "cat and not dog"), vec![1]);
        assert_eq!(boolean(&e, "sat"), vec![1, 2]);
    }

    #[test]
    fn queries_see_unflushed_documents() {
        let mut e = engine();
        e.add_document("alpha beta gamma plus padding words").unwrap();
        assert_eq!(boolean(&e, "beta").len(), 1);
    }

    #[test]
    fn unknown_words_match_nothing() {
        let mut e = engine();
        e.add_document("something else entirely").unwrap();
        e.flush().unwrap();
        assert!(boolean(&e, "nonexistent").is_empty());
        assert!(boolean(&e, "something and nonexistent").is_empty());
        assert_eq!(boolean(&e, "something or nonexistent").len(), 1);
    }

    #[test]
    fn parser_rejects_malformed() {
        let e = engine();
        for bad in ["(cat and dog", "cat dog", "not cat", "cat and", "c@t"] {
            assert!(e.execute(&EngineQuery::boolean(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn vector_search_ranks_overlap() {
        let mut e = engine();
        e.add_document("rust database systems research paper").unwrap();
        e.add_document("rust compiler internals").unwrap();
        e.add_document("cooking with garlic").unwrap();
        e.flush().unwrap();
        let out = e.execute(&EngineQuery::like("rust database papers", 3)).unwrap();
        let hits = out.hits().unwrap();
        assert_eq!(hits[0].doc, DocId(1));
        assert!(hits.len() >= 2);
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn lexer_semantics_flow_through() {
        let mut e = engine();
        e.add_document("Date: ignored words here\nReal CONTENT body").unwrap();
        e.flush().unwrap();
        assert!(boolean(&e, "content").len() == 1);
        assert!(boolean(&e, "ignored").is_empty());
        // Uppercase query words are lowercased by the query lexer too.
        assert!(boolean(&e, "CONTENT").len() == 1);
    }

    #[test]
    fn delete_then_sweep_via_engine() {
        let mut e = engine();
        let d1 = e.add_document("shared words one").unwrap();
        e.add_document("shared words two").unwrap();
        e.flush().unwrap();
        e.delete(d1);
        assert_eq!(boolean(&e, "shared").len(), 1);
        let report = e.sweep().unwrap();
        assert!(report.postings_removed >= 2);
    }

    #[test]
    fn documents_are_stored_and_retrievable() {
        let mut e = engine();
        let d = e.add_document("the exact original text survives").unwrap();
        assert_eq!(
            e.document(d).unwrap().unwrap(),
            "the exact original text survives"
        );
        assert_eq!(e.document(DocId(999)).unwrap(), None);
    }

    #[test]
    fn proximity_queries() {
        let mut e = engine();
        let d1 = e.add_document("the cat sat right beside the dog today").unwrap();
        let d2 = e.add_document("a cat lived here while the dog lived far away beyond the river dog").unwrap();
        e.add_document("cat alone in this one").unwrap();
        e.flush().unwrap();
        // d1: cat@1 dog@6 -> distance 5. d2: cat@1, dog@6? positions:
        // a(0) cat(1) lived(2) here(3) while(4) the(5) dog(6)... also 5.
        let near = |w1, w2, window| doc_ids(&e.execute(&EngineQuery::near(w1, w2, window)).unwrap());
        assert_eq!(near("cat", "dog", 5), vec![d1.0, d2.0]);
        assert!(near("cat", "dog", 2).is_empty());
        // Unknown words match nothing.
        assert!(near("cat", "unicorn", 100).is_empty());
    }

    #[test]
    fn phrase_queries() {
        let mut e = engine();
        let d1 = e.add_document("incremental updates of inverted lists for retrieval").unwrap();
        e.add_document("inverted updates of incremental lists reversed order here").unwrap();
        e.flush().unwrap();
        let phrase = |p| doc_ids(&e.execute(&EngineQuery::phrase(p)).unwrap());
        assert_eq!(phrase("incremental updates of inverted lists"), vec![d1.0]);
        // Both docs contain all the words; only one has the phrase.
        assert_eq!(phrase("updates of").len(), 2);
        assert!(phrase("lists inverted").is_empty());
        assert!(phrase("").is_empty());
        assert!(phrase("unknownword updates").is_empty());
        // Case-insensitive, as everywhere.
        assert_eq!(phrase("Incremental UPDATES").len(), 1);
    }

    #[test]
    fn proximity_sees_unflushed_documents() {
        let mut e = engine();
        let d = e.add_document("alpha beta gamma delta words here").unwrap();
        let r = e.execute(&EngineQuery::near("alpha", "gamma", 2)).unwrap();
        assert_eq!(doc_ids(&r), vec![d.0]);
    }

    #[test]
    fn engine_persistence_round_trip() {
        use invidx_disk::{Disk, DiskArray, FileDevice, FitStrategy, FreeList};
        let dir = std::env::temp_dir().join(format!("invidx-eng-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file_array = |create: bool| {
            let disks = (0..2u16)
                .map(|d| {
                    let path = dir.join(format!("disk{d}.bin"));
                    let device: Box<dyn invidx_disk::BlockDevice> = if create {
                        Box::new(FileDevice::create(&path, 20_000, 256).unwrap())
                    } else {
                        Box::new(FileDevice::open(&path, 256).unwrap())
                    };
                    Disk { device, alloc: Box::new(FreeList::new(20_000, FitStrategy::FirstFit)) }
                })
                .collect();
            DiskArray::new(disks)
        };
        let config = IndexConfig::small();
        let meta = {
            let mut e = SearchEngine::create(file_array(true), config).unwrap();
            e.add_document("the cat sat beside the dog").unwrap();
            e.add_document("a mouse ran past the cat").unwrap();
            e.flush().unwrap();
            e.save_meta()
        };
        let mut e = SearchEngine::open(file_array(false), config, &meta).unwrap();
        assert_eq!(e.total_docs(), 2);
        assert_eq!(boolean(&e, "cat and dog").len(), 1);
        assert_eq!(e.document(DocId(1)).unwrap().unwrap(), "the cat sat beside the dog");
        assert_eq!(doc_ids(&e.execute(&EngineQuery::near("cat", "mouse", 5)).unwrap()).len(), 1);
        // The engine keeps working: new documents get fresh ids and the
        // vocabulary keeps interning consistently.
        let d3 = e.add_document("another cat arrives").unwrap();
        assert_eq!(d3, DocId(3));
        e.flush().unwrap();
        assert_eq!(boolean(&e, "cat").len(), 3);
        // Corrupt meta is rejected.
        assert!(SearchEngine::open(file_array(false), config, b"garbage").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vocabulary_interning_is_stable() {
        let mut e = engine();
        let a = e.intern("cat");
        let b = e.intern("cat");
        let c = e.intern("dog");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(e.vocabulary_size(), 2);
        assert_eq!(e.word_id("CAT"), Some(a));
        assert_eq!(e.word_id("missing"), None);
    }
}
