//! Seeded inputs: the document stream, the brute-force model built from
//! the generator's own rank sequences (not from the program's lexer), and
//! the query lists.
//!
//! Everything here is a pure function of `--seed`; the program under test
//! only ever sees the rendered texts and request lines.

use invidx_corpus::doc::{render, CorpusGenerator, CorpusParams};
use invidx_corpus::vocab::word_string;
use invidx_corpus::zipf::ZipfTable;
use invidx_ir::{Bm25Params, EngineQuery};
use invidx_serve::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf rank space of the corpus (NetNews-like; ~1.5 KB, ~165 tokens/doc).
pub const VOCAB_RANKS: usize = 300_000;
/// Query terms are Zipf(1.0) draws over the head of the vocabulary.
const QUERY_RANKS: usize = 20_000;
/// Result budget of `Rank` and `Like` queries.
pub const TOP_K: usize = 10;
/// `Near` window in tokens.
pub const NEAR_WINDOW: u32 = 5;
/// Phrase and Near queries are sampled so that the documents holding all
/// their words — the candidates whose text the engine re-lexes — number
/// within this band. Unbounded, phrases of head words cost 10 ms p50 and
/// 750 ms p90; with one or two candidates the cost is a step function of
/// the count and the class median flips between steps from seed to seed.
const POSITIONAL_CANDIDATES: std::ops::RangeInclusive<usize> = 4..=12;
/// Samples drawn before the band's lower edge is given up (small corpora
/// may hold no phrase with four candidates).
const BAND_ATTEMPTS: usize = 256;

/// The generated documents plus the model that answers queries by brute
/// force. Document `i` (0-based) gets engine id `i + 1` when ingested in
/// order, which the harness guarantees.
pub struct Corpus {
    pub texts: Vec<String>,
    /// Token sequence of each document as vocabulary ranks.
    tokens: Vec<Vec<u32>>,
    /// Rank -> ascending ids of the documents containing it.
    postings: Vec<Vec<u32>>,
}

impl Corpus {
    /// Generate `docs` documents from `seed`.
    pub fn generate(seed: u64, docs: usize) -> Self {
        let params = CorpusParams {
            days: usize::MAX,
            docs_per_weekday: 512,
            weekly_profile: [1.0; 7],
            vocab_ranks: VOCAB_RANKS,
            interrupted_day: None,
            seed,
            ..CorpusParams::default()
        };
        let mut texts = Vec::with_capacity(docs);
        let mut tokens = Vec::with_capacity(docs);
        let mut postings = vec![Vec::new(); VOCAB_RANKS + 1];
        'days: for day in CorpusGenerator::new(params) {
            for doc in &day.docs {
                if texts.len() == docs {
                    break 'days;
                }
                let id = texts.len() as u32 + 1;
                for &rank in &doc.word_ranks {
                    postings[rank as usize].push(id);
                }
                tokens.push(doc.occurrences.iter().map(|&r| r as u32).collect());
                // No trailing whitespace: the wire protocol's reply parser
                // trims it, and `Doc` answers are compared byte for byte.
                let mut text = render(doc);
                text.truncate(text.trim_end().len());
                texts.push(text);
            }
        }
        Self {
            texts,
            tokens,
            postings,
        }
    }

    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Bytes of document text in `texts[range]`.
    pub fn text_bytes(&self, range: std::ops::Range<usize>) -> u64 {
        self.texts[range].iter().map(|t| t.len() as u64).sum()
    }

    fn docs_with(&self, rank: u32, max_doc: u32) -> &[u32] {
        let list = &self.postings[rank as usize];
        &list[..list.partition_point(|&d| d <= max_doc)]
    }

    /// The model's answer to a document-set query when documents
    /// `1..=max_doc` are visible.
    pub fn matching_docs(&self, query: &Query, max_doc: u32) -> Vec<u32> {
        let with = |r: u32| self.docs_with(r, max_doc);
        match query {
            Query::Bool(BoolShape::One(a)) => with(*a).to_vec(),
            Query::Bool(BoolShape::And(a, b)) => intersect(with(*a), with(*b)),
            Query::Bool(BoolShape::Or(a, b)) => union(with(*a), with(*b)),
            Query::Bool(BoolShape::OrAnd(a, b, c)) => {
                intersect(&union(with(*a), with(*b)), with(*c))
            }
            Query::Bool(BoolShape::AndNot(a, b, c)) => {
                let keep = intersect(with(*a), with(*b));
                let drop = with(*c);
                keep.into_iter()
                    .filter(|d| drop.binary_search(d).is_err())
                    .collect()
            }
            Query::Phrase(words) => self
                .and_candidates(words, max_doc)
                .into_iter()
                .filter(|&d| {
                    self.tokens[d as usize - 1]
                        .windows(words.len())
                        .any(|w| w == &words[..])
                })
                .collect(),
            Query::Near(a, b) => intersect(with(*a), with(*b))
                .into_iter()
                .filter(|&d| {
                    let toks = &self.tokens[d as usize - 1];
                    let pos = |r: u32| toks.iter().enumerate().filter(move |(_, &t)| t == r);
                    pos(*a).any(|(i, _)| pos(*b).any(|(j, _)| i.abs_diff(j) as u32 <= NEAR_WINDOW))
                })
                .collect(),
            Query::Rank(_) | Query::Like(_) | Query::Doc(_) => {
                unreachable!("not a document-set query")
            }
        }
    }

    /// Documents containing every word (the candidates a positional query
    /// must examine).
    pub fn and_candidates(&self, words: &[u32], max_doc: u32) -> Vec<u32> {
        let mut acc = self.docs_with(words[0], max_doc).to_vec();
        for &w in &words[1..] {
            acc = intersect(&acc, self.docs_with(w, max_doc));
        }
        acc
    }

    /// Documents containing at least one of the words (where scored hits
    /// may come from).
    pub fn or_candidates(&self, words: &[u32], max_doc: u32) -> Vec<u32> {
        words.iter().fold(Vec::new(), |acc, &w| {
            union(&acc, self.docs_with(w, max_doc))
        })
    }
}

fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out: Vec<u32> = a.iter().chain(b).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The Boolean query shapes the benchmark issues, over vocabulary ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoolShape {
    One(u32),
    And(u32, u32),
    Or(u32, u32),
    /// `(a or b) and c`
    OrAnd(u32, u32, u32),
    /// `a and b and not c`
    AndNot(u32, u32, u32),
}

/// One query in model form (ranks, not strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    Bool(BoolShape),
    Rank(Vec<u32>),
    Like(Vec<u32>),
    Doc(u32),
    Phrase(Vec<u32>),
    Near(u32, u32),
}

/// Index of a query's verb in per-verb tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Bool = 0,
    Rank = 1,
    Like = 2,
    Doc = 3,
    Phrase = 4,
    Near = 5,
}

impl Verb {
    pub const ALL: [Verb; 6] = [
        Verb::Bool,
        Verb::Rank,
        Verb::Like,
        Verb::Doc,
        Verb::Phrase,
        Verb::Near,
    ];
}

impl Query {
    pub fn verb(&self) -> Verb {
        match self {
            Query::Bool(_) => Verb::Bool,
            Query::Rank(_) => Verb::Rank,
            Query::Like(_) => Verb::Like,
            Query::Doc(_) => Verb::Doc,
            Query::Phrase(_) => Verb::Phrase,
            Query::Near(..) => Verb::Near,
        }
    }

    /// The serving-layer request for this query.
    pub fn request(&self) -> Request {
        let w = |r: &u32| word_string(u64::from(*r));
        let text = |rs: &[u32]| rs.iter().map(w).collect::<Vec<_>>().join(" ");
        match self {
            Query::Bool(BoolShape::One(a)) => Request::Boolean(w(a)),
            Query::Bool(BoolShape::And(a, b)) => Request::Boolean(format!("{} and {}", w(a), w(b))),
            Query::Bool(BoolShape::Or(a, b)) => Request::Boolean(format!("{} or {}", w(a), w(b))),
            Query::Bool(BoolShape::OrAnd(a, b, c)) => {
                Request::Boolean(format!("({} or {}) and {}", w(a), w(b), w(c)))
            }
            Query::Bool(BoolShape::AndNot(a, b, c)) => {
                Request::Boolean(format!("{} and {} and not {}", w(a), w(b), w(c)))
            }
            Query::Rank(rs) => Request::Rank(TOP_K, text(rs)),
            Query::Like(rs) => Request::Like(TOP_K, text(rs)),
            Query::Doc(id) => Request::Doc(*id),
            Query::Phrase(rs) => Request::Phrase(text(rs)),
            Query::Near(a, b) => Request::Near(w(a), w(b), NEAR_WINDOW),
        }
    }
}

/// The engine-level query `QueryService::execute` would build from a
/// request under the default serve configuration — what the traced pass
/// hands to `EngineSnapshot::execute` directly.
pub fn engine_query(request: &Request) -> EngineQuery {
    match request.clone() {
        Request::Boolean(q) => EngineQuery::Boolean(q),
        Request::Phrase(p) => EngineQuery::Phrase(p),
        Request::Near(w1, w2, window) => EngineQuery::Near { w1, w2, window },
        Request::Like(k, text) => EngineQuery::Like { text, k },
        Request::Rank(k, text) => EngineQuery::Rank {
            text,
            k,
            params: Bm25Params::default(),
        },
        Request::Doc(id) => EngineQuery::Doc(invidx_core::DocId(id)),
        other => unreachable!("the benchmark never issues {other:?}"),
    }
}

/// How many queries of each verb a list holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub bool_: usize,
    pub rank: usize,
    pub like: usize,
    pub doc: usize,
    pub phrase: usize,
    pub near: usize,
}

impl Mix {
    pub fn total(&self) -> usize {
        self.bool_ + self.rank + self.like + self.doc + self.phrase + self.near
    }

    /// Scale every class by `factor`, never below `floor` samples for a
    /// class that is present at all.
    pub fn scaled(&self, factor: f64, floor: usize) -> Mix {
        let s = |n: usize| {
            if n == 0 {
                0
            } else {
                ((n as f64 * factor) as usize).max(floor)
            }
        };
        Mix {
            bool_: s(self.bool_),
            rank: s(self.rank),
            like: s(self.like),
            doc: s(self.doc),
            phrase: s(self.phrase),
            near: s(self.near),
        }
    }
}

/// Seeded query generator over a corpus whose first `visible` documents
/// are (or will be) indexed when the queries run.
pub struct QueryGen<'a> {
    corpus: &'a Corpus,
    visible: usize,
    zipf: ZipfTable,
    rng: StdRng,
}

impl<'a> QueryGen<'a> {
    pub fn new(corpus: &'a Corpus, visible: usize, seed: u64) -> Self {
        assert!(visible >= 1 && visible <= corpus.len());
        Self {
            corpus,
            visible,
            zipf: ZipfTable::new(QUERY_RANKS, 1.0),
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    fn term(&mut self) -> u32 {
        self.zipf.sample(&mut self.rng) as u32
    }

    fn terms(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.term()).collect()
    }

    fn boolean(&mut self) -> Query {
        let (a, b, c) = (self.term(), self.term(), self.term());
        Query::Bool(match self.rng.random_range(0..6u32) {
            0 | 1 => BoolShape::One(a),
            2 => BoolShape::And(a, b),
            3 => BoolShape::Or(a, b),
            4 => BoolShape::OrAnd(a, b, c),
            _ => BoolShape::AndNot(a, b, c),
        })
    }

    /// `len` consecutive distinct tokens of a stored document such that the
    /// words at positions `used` have [`POSITIONAL_CANDIDATES`] documents in
    /// common.
    fn consecutive(&mut self, len: usize, used: &[usize]) -> Vec<u32> {
        let (corpus, visible) = (self.corpus, self.visible);
        for attempt in 0.. {
            let toks = &corpus.tokens[self.rng.random_range(0..visible)];
            if toks.len() < len {
                continue;
            }
            let at = self.rng.random_range(0..=toks.len() - len);
            let words = &toks[at..at + len];
            let distinct = words
                .iter()
                .all(|w| words.iter().filter(|x| *x == w).count() == 1);
            let picked: Vec<u32> = used.iter().map(|&i| words[i]).collect();
            let candidates = corpus.and_candidates(&picked, visible as u32).len();
            let enough = attempt >= BAND_ATTEMPTS || candidates >= *POSITIONAL_CANDIDATES.start();
            if distinct && enough && candidates <= *POSITIONAL_CANDIDATES.end() {
                return words.to_vec();
            }
        }
        unreachable!("the sampling loop only ends by returning")
    }

    fn one(&mut self, verb: Verb) -> Query {
        match verb {
            Verb::Bool => self.boolean(),
            Verb::Rank => Query::Rank(self.terms(3)),
            Verb::Like => Query::Like(self.terms(4)),
            Verb::Doc => Query::Doc(self.rng.random_range(1..=self.visible as u32)),
            Verb::Phrase => {
                let len = self.rng.random_range(2..=3usize);
                Query::Phrase(self.consecutive(len, &[0, 1, len - 1][..len]))
            }
            Verb::Near => {
                let w = self.consecutive(3, &[0, 2]);
                Query::Near(w[0], w[2])
            }
        }
    }

    /// A list holding `mix` queries, interleaved in a seeded order.
    pub fn list(&mut self, mix: Mix) -> Vec<Query> {
        let counts = [mix.bool_, mix.rank, mix.like, mix.doc, mix.phrase, mix.near];
        let mut out = Vec::with_capacity(mix.total());
        for (verb, n) in Verb::ALL.into_iter().zip(counts) {
            for _ in 0..n {
                out.push(self.one(verb));
            }
        }
        // Fisher-Yates with the seeded generator.
        for i in (1..out.len()).rev() {
            out.swap(i, self.rng.random_range(0..=i));
        }
        out
    }

    /// `n` distinct Boolean/Rank/Doc queries (the `serve_mixed` request
    /// pool; no positional queries). One in eight is a `Rank`, two a `Doc`
    /// while fresh document ids are easy to draw, the rest Boolean.
    pub fn distinct_pool(&mut self, n: usize) -> Vec<Query> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(n);
        let mut doc_requests = 0;
        while out.len() < n {
            let verb = match out.len() % 8 {
                0 => Verb::Rank,
                1 | 2 if doc_requests * 2 < self.visible => Verb::Doc,
                _ => Verb::Bool,
            };
            let q = self.one(verb);
            if seen.insert(q.request().to_wire()) {
                doc_requests += usize::from(verb == Verb::Doc);
                out.push(q);
            }
        }
        out
    }

    /// `n` Zipf(1.0) draws of pool indices `0..pool`.
    pub fn pool_draws(&mut self, pool: usize, n: usize) -> Vec<u32> {
        let zipf = ZipfTable::new(pool, 1.0);
        (0..n)
            .map(|_| zipf.sample(&mut self.rng) as u32 - 1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_model_agrees_with_texts() {
        let a = Corpus::generate(7, 60);
        let b = Corpus::generate(7, 60);
        assert_eq!(a.texts, b.texts);
        assert_ne!(a.texts, Corpus::generate(8, 60).texts);
        // The model's postings are what a scan of the rendered text finds.
        let word = a.tokens[3][0];
        let needle = word_string(u64::from(word));
        let scanned: Vec<u32> = (1..=60u32)
            .filter(|&d| {
                a.texts[d as usize - 1]
                    .lines()
                    .skip(4)
                    .any(|l| l.split(' ').any(|w| w == needle))
            })
            .collect();
        assert_eq!(
            a.matching_docs(&Query::Bool(BoolShape::One(word)), 60),
            scanned
        );
        // Visibility bound: documents past `max_doc` never match.
        assert!(a
            .matching_docs(&Query::Bool(BoolShape::One(word)), 3)
            .iter()
            .all(|&d| d <= 3));
    }

    #[test]
    fn positional_queries_hit_their_source_document() {
        let c = Corpus::generate(11, 80);
        let mut g = QueryGen::new(&c, 80, 11);
        let list = g.list(Mix {
            bool_: 4,
            rank: 2,
            like: 2,
            doc: 2,
            phrase: 6,
            near: 6,
        });
        assert_eq!(list.len(), 22);
        for q in &list {
            if matches!(q, Query::Phrase(_) | Query::Near(..)) {
                assert!(
                    !c.matching_docs(q, 80).is_empty(),
                    "{q:?} sampled from a stored doc"
                );
            }
        }
        assert_eq!(g.distinct_pool(32).len(), 32);
        assert!(g.pool_draws(32, 100).iter().all(|&i| i < 32));
    }
}
