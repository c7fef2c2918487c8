//! What [`crate::DurableEngine`] is made of besides its index:
//! [`EngineCore`] (document store, vocabulary, id counters — the state
//! the engine logs per batch and embeds in checkpoints), the
//! [`LiveReader`] it lends the query evaluator, the text-verification
//! passes, and a small boolean query-string parser so examples and tests
//! can write `(cat and dog) or mouse` — the paper's own example query.

use crate::boolean::{PostingSource, Query};
use crate::docstore::DocStore;
use crate::proximity;
use crate::query::ReadContext;
use invidx_core::postings::PostingList;
use invidx_core::types::{DocId, IndexError, Result, WordId};
use invidx_corpus::lexer;
use invidx_disk::DiskArray;
use std::collections::{HashMap, HashSet};

/// Longest word the vocabulary holds: [`EngineCore::encode_meta`] stores a
/// word's length in 16 bits, and the lexer caps nothing.
const MAX_WORD_BYTES: usize = u16::MAX as usize;

/// Engine state beyond the index itself: stored documents, the word
/// interner, and the id counters.
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
    /// this to reproduce the vocabulary. A document with a word the
    /// vocabulary cannot hold is refused before anything is interned.
    pub(crate) fn lex_and_intern(&mut self, text: &str) -> Result<Vec<WordId>> {
        let words = lexer::document_words(text);
        check_word_lengths(&words)?;
        Ok(words.iter().map(|w| self.intern(w)).collect())
    }

    /// Lex a batch of documents across `threads` workers, then intern
    /// serially in document order. Tokenization is pure per-document work,
    /// so it parallelizes freely; interning — the only order-sensitive
    /// step — stays sequential, which makes word-id assignment identical
    /// to calling [`Self::lex_and_intern`] once per document. Recovery
    /// replays documents one at a time and still reproduces the same
    /// vocabulary. One over-long word refuses the whole batch before any
    /// of it is interned.
    pub(crate) fn lex_batch(&mut self, texts: &[&str], threads: usize) -> Result<Vec<Vec<WordId>>> {
        let threads = threads.max(1);
        let lexed: Vec<Vec<String>> = if threads == 1 || texts.len() < 2 {
            texts.iter().map(|t| lexer::document_words(t)).collect()
        } else {
            invidx_obs::counter!(invidx_obs::names::INGEST_LEXED_DOCS).add(texts.len() as u64);
            lex_parallel(texts, threads)
        };
        for words in &lexed {
            check_word_lengths(words)?;
        }
        Ok(lexed.iter().map(|words| words.iter().map(|w| self.intern(w)).collect()).collect())
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
        // Counts come from disk: never reserve more than the blob could hold.
        let lens_len = word_field!(u64, 8, "lens_len") as usize;
        let mut doc_lengths = HashMap::with_capacity(lens_len.min(meta.len() / 8));
        for _ in 0..lens_len {
            let doc = DocId(word_field!(u32, 4, "len_doc"));
            let len = word_field!(u32, 4, "len_val");
            doc_lengths.insert(doc, len);
        }
        let vocab_len = word_field!(u64, 8, "vocab_len") as usize;
        let mut vocab = HashMap::with_capacity(vocab_len.min(meta.len() / 10));
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

fn check_word_lengths(words: &[String]) -> Result<()> {
    match words.iter().find(|w| w.len() > MAX_WORD_BYTES) {
        None => Ok(()),
        Some(long) => Err(IndexError::InvalidConfig(format!(
            "document refused: a {}-byte word exceeds the vocabulary's {MAX_WORD_BYTES}-byte limit",
            long.len()
        ))),
    }
}

fn lex_parallel(texts: &[&str], threads: usize) -> Vec<Vec<String>> {
    let chunk = texts.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = texts
            .chunks(chunk)
            .map(|group| {
                s.spawn(move || group.iter().map(|t| lexer::document_words(t)).collect::<Vec<_>>())
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
    })
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

// ----- shared query helpers -----
//
// The text-verification passes and the query parser are free functions
// over (candidates, text loader, vocabulary) so the live engine and the
// materialized [`crate::EngineSnapshot`] run *identical* logic — snapshot
// parity with the engine is by construction, not by parallel maintenance.

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
    use crate::{DurableEngine, EngineQuery, QueryOutput};
    use invidx_core::index::IndexConfig;
    use invidx_disk::sparse_array;

    fn engine() -> DurableEngine {
        let array = sparse_array(2, 50_000, 256);
        DurableEngine::without_log(array, IndexConfig::small()).unwrap()
    }

    /// Documents matching a boolean query string.
    fn boolean(e: &DurableEngine, query: &str) -> Vec<u32> {
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
        let mut par = DurableEngine::without_log(sparse_array(2, 50_000, 256), config).expect("create");
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
    fn vocabulary_interning_is_stable() {
        let mut core = EngineCore::new();
        let a = core.intern("cat");
        let b = core.intern("cat");
        let c = core.intern("dog");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(core.vocab.len(), 2);
        assert_eq!(core.word_id("CAT"), Some(a));
        assert_eq!(core.word_id("missing"), None);
    }
}
