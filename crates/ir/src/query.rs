//! The unified typed query surface and its one evaluator.
//!
//! [`EngineQuery`] collapses every read verb (boolean, phrase, proximity,
//! LIKE, BM25 `Rank`, the router's weighted/DF phases, document fetch)
//! into one data type with a single `execute(&EngineQuery) ->
//! QueryOutput` entry point on [`crate::DurableEngine`] and
//! [`crate::EngineSnapshot`]. Both run the crate-private
//! `query::execute` — the only evaluator in the crate — written once
//! against `ReadContext`, the read-only state a query needs. The live
//! engine lends its core and backend, a snapshot lends its materialized
//! maps, and dispatch is static either way, so a new verb or a read-path
//! change lands in exactly one place and the two cannot drift apart.

use crate::boolean::{PostingSource, Query};
use crate::engine::{filter_phrase, filter_within, parse_query_with};
use crate::rank::{Bm25Params, Hit, Weighting};
use invidx_core::postings::PostingList;
use invidx_core::types::{DocId, Result, WordId};
use invidx_corpus::lexer;
use std::collections::HashMap;

/// One typed query, engine-agnostic. Construct directly, hand to any
/// engine's `execute`.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineQuery {
    /// Boolean query string, e.g. `"(cat and dog) or mouse"`.
    Boolean(String),
    /// Phrase query: the words occur contiguously, in order.
    Phrase(String),
    /// Proximity query: both words within `window` positions.
    Near {
        /// First word.
        w1: String,
        /// Second word.
        w2: String,
        /// Maximum token distance between the two.
        window: u32,
    },
    /// Vector-space LIKE: tf·idf overlap with a query document text
    /// ([`Weighting::TfIdf`] over local idf weights).
    Like {
        /// Query document text.
        text: String,
        /// Result budget.
        k: usize,
    },
    /// BM25 ranked top-k over a query document text ([`Weighting::Bm25`]
    /// over local idf weights and the corpus avgdl).
    Rank {
        /// Query document text.
        text: String,
        /// Result budget.
        k: usize,
        /// BM25 tuning parameters.
        params: Bm25Params,
    },
    /// Caller-supplied per-term weights in slice order under either
    /// weighting — the router's distributed second phase (`WLIKE` ships
    /// corpus-global idf with [`Weighting::TfIdf`], `WRANK` adds the
    /// global avgdl with [`Weighting::Bm25`]). Weights must be finite
    /// and BM25's parameters in range, or `execute` refuses the query.
    Weighted {
        /// `(term, weight)` in canonical order; duplicates accumulate.
        terms: Vec<(String, f64)>,
        /// Result budget.
        k: usize,
        /// How a weight becomes a document's contribution.
        weighting: Weighting,
    },
    /// Document frequency per term plus corpus counters (the router's
    /// distributed first phase).
    Dfs(Vec<String>),
    /// Fetch one stored document text.
    Doc(DocId),
}

impl EngineQuery {
    /// `Boolean` from a query string, e.g. `"(cat and dog) or mouse"`.
    pub fn boolean(query: &str) -> Self {
        Self::Boolean(query.to_string())
    }

    /// `Phrase` from the phrase text.
    pub fn phrase(phrase: &str) -> Self {
        Self::Phrase(phrase.to_string())
    }

    /// `Near`: both words within `window` positions of each other.
    pub fn near(w1: &str, w2: &str, window: u32) -> Self {
        Self::Near { w1: w1.to_string(), w2: w2.to_string(), window }
    }

    /// `Like` from a query document text.
    pub fn like(text: &str, k: usize) -> Self {
        Self::Like { text: text.to_string(), k }
    }

    /// `Rank` from a query document text, with default [`Bm25Params`].
    pub fn rank(text: &str, k: usize) -> Self {
        Self::Rank { text: text.to_string(), k, params: Bm25Params::default() }
    }
}

/// The result of executing an [`EngineQuery`]; the variant is determined
/// by the query variant.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Matching documents (`Boolean`, `Phrase`, `Near`).
    Docs(PostingList),
    /// Scored hits, best first (`Like`, `Rank`, `Weighted`).
    Hits(Vec<Hit>),
    /// Corpus counters and per-term document frequencies (`Dfs`).
    Dfs {
        /// Documents in this engine.
        docs: u64,
        /// Total lexer tokens across those documents.
        tokens: u64,
        /// Per requested term, its document frequency (0 if unknown).
        dfs: Vec<u64>,
    },
    /// A stored document text, if present (`Doc`).
    Text(Option<String>),
}

impl QueryOutput {
    /// The posting list, when this output carries one.
    pub fn docs(&self) -> Option<&PostingList> {
        match self {
            QueryOutput::Docs(list) => Some(list),
            _ => None,
        }
    }

    /// The scored hits, when this output carries them.
    pub fn hits(&self) -> Option<&[Hit]> {
        match self {
            QueryOutput::Hits(hits) => Some(hits),
            _ => None,
        }
    }
}

/// The read-only engine state one query evaluates against: a
/// [`PostingSource`] plus the vocabulary, corpus counters, BM25 length
/// norms, and stored texts.
pub(crate) trait ReadContext: PostingSource {
    /// The word interner.
    fn vocab(&self) -> &HashMap<String, WordId>;
    /// Per-document token lengths (the BM25 length norm).
    fn doc_lengths(&self) -> &HashMap<DocId, u32>;
    /// Documents added so far.
    fn total_docs(&self) -> u64;
    /// Total lexer tokens across those documents.
    fn total_tokens(&self) -> u64;
    /// The stored text of a document, if present.
    fn load_text(&self, doc: DocId) -> Result<Option<String>>;
    /// Document frequency of a word: the length of the same
    /// deletion-filtered posting list that scoring reads, so a router
    /// summing shard dfs computes exactly the idf an unsharded engine
    /// would.
    fn df(&self, word: WordId) -> Result<u64> {
        Ok(self.postings(word)?.len() as u64)
    }
}

/// The one evaluator: every engine's and snapshot's `execute` is this
/// function over its own [`ReadContext`].
pub(crate) fn execute<C: ReadContext>(ctx: &C, query: &EngineQuery) -> Result<QueryOutput> {
    Ok(match query {
        EngineQuery::Boolean(text) => {
            QueryOutput::Docs(parse_query_with(ctx.vocab(), text)?.eval(ctx)?)
        }
        EngineQuery::Phrase(text) => QueryOutput::Docs(eval_phrase(ctx, text)?),
        EngineQuery::Near { w1, w2, window } => QueryOutput::Docs(eval_near(ctx, w1, w2, *window)?),
        // Every ranked verb is one WAND run over `(weight, list)` terms.
        // Text terms run in the lexer's canonical (sorted, deduplicated)
        // order, so scores are bit-exact across runs and across
        // deployments: an unsharded engine and a sharded router computing
        // the same global weights produce identical f64 scores.
        EngineQuery::Like { text, k } => ranked(ctx, text_terms(ctx, text)?, Weighting::TfIdf, *k),
        EngineQuery::Rank { text, k, params } => {
            let avgdl = crate::rank::avgdl(ctx.total_tokens(), ctx.total_docs());
            let weighting = Weighting::Bm25 { params: *params, avgdl };
            weighting.check(&[])?;
            ranked(ctx, text_terms(ctx, text)?, weighting, *k)
        }
        EngineQuery::Weighted { terms, k, weighting } => {
            // Refused before any word is resolved, so every shard answers
            // the same request alike, whatever its vocabulary.
            weighting.check(terms)?;
            ranked(ctx, weighted_terms(ctx, terms)?, *weighting, *k)
        }
        EngineQuery::Dfs(terms) => QueryOutput::Dfs {
            docs: ctx.total_docs(),
            tokens: ctx.total_tokens(),
            dfs: terms
                .iter()
                .map(|t| word_id(ctx, t).map_or(Ok(0), |w| ctx.df(w)))
                .collect::<Result<_>>()?,
        },
        EngineQuery::Doc(doc) => QueryOutput::Text(ctx.load_text(*doc)?),
    })
}

/// Look up a word without interning.
fn word_id<C: ReadContext>(ctx: &C, word: &str) -> Option<WordId> {
    ctx.vocab().get(&word.to_ascii_lowercase()).copied()
}

/// The known words of a query document text (the paper's "a query may
/// be derived from a document" — §5.2.1) with their local idf and
/// postings, in the lexer's canonical order. Empty lists contribute
/// nothing and are dropped.
fn text_terms<C: ReadContext>(ctx: &C, text: &str) -> Result<Vec<(f64, PostingList)>> {
    let mut terms = Vec::new();
    for word in lexer::document_words(text).iter().filter_map(|w| ctx.vocab().get(w).copied()) {
        let list = ctx.postings(word)?;
        if !list.is_empty() {
            terms.push((crate::rank::idf(ctx.total_docs(), list.len() as u64), list));
        }
    }
    Ok(terms)
}

/// Resolve caller-weighted terms, keeping slice order (the router ships
/// corpus-global idf weights in canonical sorted-term order). Unknown
/// words and empty lists are skipped — they have no local postings, so
/// they contribute nothing anyway.
fn weighted_terms<C: ReadContext>(
    ctx: &C,
    terms: &[(String, f64)],
) -> Result<Vec<(f64, PostingList)>> {
    let mut out = Vec::with_capacity(terms.len());
    for (term, weight) in terms {
        if let Some(word) = word_id(ctx, term) {
            let list = ctx.postings(word)?;
            if !list.is_empty() {
                out.push((*weight, list));
            }
        }
    }
    Ok(out)
}

/// Run the one ranked evaluator over resolved terms.
fn ranked<C: ReadContext>(
    ctx: &C,
    terms: Vec<(f64, PostingList)>,
    weighting: Weighting,
    k: usize,
) -> QueryOutput {
    QueryOutput::Hits(crate::rank::wand(&terms, weighting, ctx.doc_lengths(), k))
}

/// Proximity query (paper §1: "requiring that 'cat' and 'dog' occur
/// within so many words of each other"): inverted lists prune to the
/// documents containing both words; the stored text verifies the
/// positional window.
fn eval_near<C: ReadContext>(ctx: &C, w1: &str, w2: &str, window: u32) -> Result<PostingList> {
    let (Some(a), Some(b)) = (word_id(ctx, w1), word_id(ctx, w2)) else {
        return Ok(PostingList::new());
    };
    let candidates = Query::and(Query::Word(a), Query::Word(b)).eval(ctx)?;
    filter_within(&candidates, |doc| ctx.load_text(doc), w1, w2, window)
}

/// Phrase query: the words of `phrase` occur contiguously, in order.
fn eval_phrase<C: ReadContext>(ctx: &C, phrase: &str) -> Result<PostingList> {
    let words: Vec<String> = lexer::tokenize_document(phrase);
    if words.is_empty() {
        return Ok(PostingList::new());
    }
    // Prune: AND over all words (unknown word => empty result).
    let mut ids = Vec::with_capacity(words.len());
    for w in &words {
        match ctx.vocab().get(w) {
            Some(&id) => ids.push(Query::Word(id)),
            None => return Ok(PostingList::new()),
        }
    }
    let candidates = Query::And(ids).eval(ctx)?;
    filter_phrase(&candidates, |doc| ctx.load_text(doc), &words)
}
