//! BM25 ranked retrieval with WAND early termination.
//!
//! The paper's vector model (§1, §5.2.1) scores documents by a weighted
//! sum of occurring words. This module upgrades that accumulator to the
//! BM25 weighting scheme over the same presence-only postings (tf is
//! binary — the abstracts-style index of the paper stores document
//! occurrence, not within-document frequency):
//!
//! ```text
//! score(d) = Σ_t idf_t · (k1 + 1) / (k1·(1 − b + b·len_d/avgdl) + 1)
//! ```
//!
//! with `idf_t = ln(1 + N/df_t)` — the exact expression the LIKE scorer
//! uses, so a BM25 deployment reuses the router's existing global-DF
//! machinery unchanged.
//!
//! Two evaluators share one scoring kernel:
//!
//! * [`rank_exhaustive`] — score every posting, select top-k with the
//!   bounded heap. The oracle.
//! * [`rank_wand`] — document-at-a-time WAND: terms carry an upper bound
//!   (their score at the minimum length norm), cursors advance past any
//!   document whose summed bounds cannot beat the current k-th score, and
//!   only surviving pivots are fully evaluated. Results are bit-identical
//!   to the exhaustive pass: full evaluation accumulates contributions in
//!   the *original term-slice order*, and the pruning test carries a small
//!   upward slack so float-summation order can never cause a false prune.
//!
//! Both accumulate per-document contributions in term-slice order, so —
//! exactly like [`crate::vector::search_seeded`] — two evaluators handed
//! the same `(term, idf)` slice produce bit-identical f64 scores. That is
//! what lets the scatter-gather router ship corpus-global idf weights and
//! a global `avgdl` to every shard and merge per-shard top-k knowing
//! equal documents score equally everywhere.

use crate::boolean::PostingSource;
use crate::vector::{top_k, HeapEntry, Hit};
use invidx_core::postings::PostingList;
use invidx_core::types::{DocId, Result, WordId};
use std::collections::{BinaryHeap, HashMap};

/// BM25 tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation. With binary tf it scales how strongly
    /// the length norm bites. Standard default 1.2.
    pub k1: f64,
    /// Length-normalization strength in `[0, 1]`; 0 disables length
    /// normalization entirely. Standard default 0.75.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

/// Corpus average document length (in lexer tokens). Degenerate corpora
/// (no documents, or only empty ones) pin the average to 1.0 so the
/// length norm stays finite.
pub fn avgdl(total_tokens: u64, total_docs: u64) -> f64 {
    if total_docs == 0 || total_tokens == 0 {
        1.0
    } else {
        total_tokens as f64 / total_docs as f64
    }
}

/// The per-document BM25 factor multiplying every term's idf. One
/// expression, used verbatim by both evaluators — bit-exactness between
/// them (and across deployments) depends on it.
#[inline]
fn bm25_norm(len: u32, avgdl: f64, p: Bm25Params) -> f64 {
    (p.k1 + 1.0) / (p.k1 * (1.0 - p.b + p.b * (len as f64 / avgdl)) + 1.0)
}

/// Relative slack applied to WAND's summed upper bounds before comparing
/// against the heap threshold. Each term's true contribution is ≤ its
/// bound, but the two sums run in different orders, and IEEE addition is
/// not associative — a bound sum a few ulps under the true score must not
/// prune a winner. 1e-9 is ~10⁷ ulps at these magnitudes: unmeasurable
/// for pruning power, decisive for the bit-exact oracle.
const UB_SLACK: f64 = 1.0 + 1e-9;

/// One query term ready for scoring: its idf weight and its
/// (deletion-filtered, sorted) posting list.
struct Term {
    idf: f64,
    list: PostingList,
}

/// Read each term's postings once and pair it with the caller-supplied
/// idf; empty lists are dropped (they contribute nothing to any score).
/// Slice order is preserved — both evaluators accumulate in this order.
fn load_terms<S: PostingSource + ?Sized>(
    source: &S,
    terms: &[(WordId, f64)],
) -> Result<Vec<Term>> {
    let mut out = Vec::with_capacity(terms.len());
    for &(word, idf) in terms {
        let list = source.postings(word)?;
        if !list.is_empty() {
            out.push(Term { idf, list });
        }
    }
    Ok(out)
}

/// BM25 top-k with locally computed idf weights: `idf = ln(1 + N/df)`
/// with `df` taken from each term's posting list. The single-engine
/// entry point — hand it the canonical (sorted, deduplicated) word list
/// and scores are bit-exact across runs and engines.
pub fn rank_like<S: PostingSource + ?Sized>(
    source: &S,
    words: &[WordId],
    total_docs: u64,
    lens: &HashMap<DocId, u32>,
    avgdl: f64,
    params: Bm25Params,
    k: usize,
) -> Result<Vec<Hit>> {
    Ok(wand(load_like_terms(source, words, total_docs)?, lens, avgdl, params, k))
}

/// [`rank_like`] without early termination: score every posting, select
/// with the bounded heap. Bit-identical results; kept public as the
/// brute-force oracle for tests and the ablation gate.
pub fn rank_like_exhaustive<S: PostingSource + ?Sized>(
    source: &S,
    words: &[WordId],
    total_docs: u64,
    lens: &HashMap<DocId, u32>,
    avgdl: f64,
    params: Bm25Params,
    k: usize,
) -> Result<Vec<Hit>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    Ok(exhaustive(&load_like_terms(source, words, total_docs)?, lens, avgdl, params, k))
}

/// Read each word's postings once, computing `idf = ln(1 + N/df)` from
/// the list itself; empties are dropped, slice order is preserved.
fn load_like_terms<S: PostingSource + ?Sized>(
    source: &S,
    words: &[WordId],
    total_docs: u64,
) -> Result<Vec<Term>> {
    let mut terms = Vec::with_capacity(words.len());
    for &word in words {
        let list = source.postings(word)?;
        if !list.is_empty() {
            let idf = (1.0 + total_docs as f64 / list.len() as f64).ln();
            terms.push(Term { idf, list });
        }
    }
    Ok(terms)
}

/// BM25 top-k with caller-supplied per-term idf weights in slice order
/// (the router's distributed phase: corpus-global idf and avgdl shipped
/// to every shard). Unknown/empty terms contribute nothing.
pub fn rank_seeded<S: PostingSource + ?Sized>(
    source: &S,
    terms: &[(WordId, f64)],
    lens: &HashMap<DocId, u32>,
    avgdl: f64,
    params: Bm25Params,
    k: usize,
) -> Result<Vec<Hit>> {
    if terms.is_empty() || k == 0 {
        return Ok(Vec::new());
    }
    Ok(wand(load_terms(source, terms)?, lens, avgdl, params, k))
}

/// Exhaustive BM25 oracle: score every posting of every term, then select
/// top-k. Same inputs and bit-identical outputs as [`rank_seeded`] —
/// kept public so tests and the ablation gate can assert exactly that.
pub fn rank_exhaustive<S: PostingSource + ?Sized>(
    source: &S,
    terms: &[(WordId, f64)],
    lens: &HashMap<DocId, u32>,
    avgdl: f64,
    params: Bm25Params,
    k: usize,
) -> Result<Vec<Hit>> {
    if terms.is_empty() || k == 0 {
        return Ok(Vec::new());
    }
    Ok(exhaustive(&load_terms(source, terms)?, lens, avgdl, params, k))
}

/// Score every posting of every term, then bounded-heap select.
fn exhaustive(
    terms: &[Term],
    lens: &HashMap<DocId, u32>,
    avgdl: f64,
    params: Bm25Params,
    k: usize,
) -> Vec<Hit> {
    let mut acc: HashMap<DocId, f64> = HashMap::new();
    for t in terms {
        for &d in t.list.docs() {
            let norm = bm25_norm(lens.get(&d).copied().unwrap_or(0), avgdl, params);
            *acc.entry(d).or_insert(0.0) += t.idf * norm;
        }
    }
    top_k(acc, k)
}

/// WAND early-terminated evaluation over pre-loaded terms.
///
/// Documents are visited in ascending id order (document-at-a-time). The
/// current k-th best score θ prunes: cursors sorted by current document,
/// the pivot is the first prefix whose summed upper bounds (with
/// [`UB_SLACK`]) exceed θ; everything before the pivot document is
/// skipped wholesale. Safe because ascending-id evaluation means a doc
/// scoring exactly θ always loses the `(score desc, doc asc)` tie to the
/// k incumbents — identical to the bounded-heap semantics of
/// [`crate::vector::top_k`].
fn wand(
    terms: Vec<Term>,
    lens: &HashMap<DocId, u32>,
    avgdl: f64,
    params: Bm25Params,
    k: usize,
) -> Vec<Hit> {
    // Upper bound per term: its score at the minimum possible length
    // norm (len = 0). Division by a larger denominator can only shrink
    // an IEEE quotient, so every real contribution ≤ its bound.
    struct Cursor {
        ord: usize,
        ub: f64,
        pos: usize,
    }
    if terms.is_empty() || k == 0 {
        return Vec::new();
    }
    let max_norm = bm25_norm(0, avgdl, params);
    let mut cursors: Vec<Cursor> = terms
        .iter()
        .enumerate()
        .map(|(ord, t)| Cursor { ord, ub: t.idf * max_norm, pos: 0 })
        .collect();
    // `k` can come straight off the wire: no more hits can come back than
    // there are postings, so that — not the request — bounds the heap.
    let postings: usize = terms.iter().map(|t| t.list.len()).sum();
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k.min(postings) + 1);
    loop {
        cursors.retain(|c| c.pos < terms[c.ord].list.len());
        if cursors.is_empty() {
            break;
        }
        let doc_at = |c: &Cursor| terms[c.ord].list.docs()[c.pos];
        cursors.sort_by_key(|c| (doc_at(c), c.ord));
        let theta = if heap.len() == k {
            heap.peek().map(|e| e.0.score).unwrap_or(f64::NEG_INFINITY)
        } else {
            f64::NEG_INFINITY
        };
        let mut sum = 0.0;
        let Some(pivot) = cursors.iter().position(|c| {
            sum += c.ub;
            sum * UB_SLACK > theta
        }) else {
            break; // no remaining document can enter the top-k
        };
        let pivot_doc = doc_at(&cursors[pivot]);
        if doc_at(&cursors[0]) == pivot_doc {
            // Every cursor at pivot_doc holds a contribution; accumulate
            // them in original term-slice order for bit-exactness with
            // the exhaustive accumulator.
            let norm = bm25_norm(lens.get(&pivot_doc).copied().unwrap_or(0), avgdl, params);
            let mut at_pivot: Vec<usize> =
                cursors.iter().filter(|c| doc_at(c) == pivot_doc).map(|c| c.ord).collect();
            at_pivot.sort_unstable();
            let mut score = 0.0;
            for ord in at_pivot {
                score += terms[ord].idf * norm;
            }
            heap.push(HeapEntry(Hit { doc: pivot_doc, score }));
            if heap.len() > k {
                heap.pop();
            }
            for c in cursors.iter_mut() {
                if doc_at(c) == pivot_doc {
                    c.pos += 1;
                }
            }
        } else {
            // Skip the leading cursor forward to the pivot document.
            let c = &mut cursors[0];
            let docs = terms[c.ord].list.docs();
            c.pos += docs[c.pos..].partition_point(|&d| d < pivot_doc);
        }
    }
    let mut hits: Vec<Hit> = heap.into_iter().map(|e| e.0).collect();
    hits.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then(a.doc.cmp(&b.doc))
    });
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;

    struct MapSource(Map<u64, Vec<u32>>);

    impl PostingSource for MapSource {
        fn postings(&self, word: WordId) -> Result<PostingList> {
            Ok(self
                .0
                .get(&word.0)
                .map(|v| PostingList::from_sorted(v.iter().map(|&d| DocId(d)).collect()))
                .unwrap_or_default())
        }
    }

    fn source() -> MapSource {
        let mut m = Map::new();
        m.insert(1, (1..=40).collect()); // common
        m.insert(2, vec![3, 7, 21, 33]); // rare
        m.insert(3, vec![7, 33]); // rarest
        MapSource(m)
    }

    fn lens() -> HashMap<DocId, u32> {
        (1..=40u32).map(|d| (DocId(d), 4 + (d * 7) % 23)).collect()
    }

    fn idf_terms(s: &MapSource, words: &[u64], n: u64) -> Vec<(WordId, f64)> {
        words
            .iter()
            .map(|&w| {
                let df = s.postings(WordId(w)).unwrap().len().max(1) as f64;
                (WordId(w), (1.0 + n as f64 / df).ln())
            })
            .collect()
    }

    #[test]
    fn wand_matches_exhaustive_bit_exactly() {
        let s = source();
        let lens = lens();
        let terms = idf_terms(&s, &[1, 2, 3], 40);
        for k in [1, 3, 5, 10, 40, 100] {
            let a = rank_exhaustive(&s, &terms, &lens, 12.5, Bm25Params::default(), k).unwrap();
            let b = rank_seeded(&s, &terms, &lens, 12.5, Bm25Params::default(), k).unwrap();
            assert_eq!(a.len(), b.len(), "k={k}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.doc, y.doc, "k={k}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "k={k} doc={:?}", x.doc);
            }
        }
    }

    #[test]
    fn shorter_documents_rank_higher_on_equal_overlap() {
        let mut m = Map::new();
        m.insert(1, vec![1, 2]);
        let s = MapSource(m);
        let lens: HashMap<DocId, u32> = [(DocId(1), 5), (DocId(2), 50)].into();
        let hits =
            rank_like(&s, &[WordId(1)], 2, &lens, 27.5, Bm25Params::default(), 2).unwrap();
        assert_eq!(hits[0].doc, DocId(1), "short doc must outrank long on same match");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn b_zero_disables_length_normalization() {
        let mut m = Map::new();
        m.insert(1, vec![1, 2]);
        let s = MapSource(m);
        let lens: HashMap<DocId, u32> = [(DocId(1), 5), (DocId(2), 50)].into();
        let p = Bm25Params { k1: 1.2, b: 0.0 };
        let hits = rank_like(&s, &[WordId(1)], 2, &lens, 27.5, p, 2).unwrap();
        assert_eq!(hits[0].score.to_bits(), hits[1].score.to_bits());
        assert_eq!(hits[0].doc, DocId(1), "tie breaks toward smaller id");
    }

    #[test]
    fn empty_inputs_and_unknown_words() {
        let s = source();
        let lens = lens();
        let p = Bm25Params::default();
        assert!(rank_like(&s, &[], 40, &lens, 10.0, p, 5).unwrap().is_empty());
        assert!(rank_like(&s, &[WordId(1)], 40, &lens, 10.0, p, 0).unwrap().is_empty());
        assert!(rank_seeded(&s, &[(WordId(404), 3.0)], &lens, 10.0, p, 5).unwrap().is_empty());
        assert!(rank_exhaustive(&s, &[], &lens, 10.0, p, 5).unwrap().is_empty());
    }

    #[test]
    fn avgdl_guards_degenerate_corpora() {
        assert_eq!(avgdl(0, 0), 1.0);
        assert_eq!(avgdl(0, 5), 1.0);
        assert_eq!(avgdl(100, 10), 10.0);
    }

    #[test]
    fn seeded_matches_like_when_weights_agree() {
        let s = source();
        let lens = lens();
        let words = [WordId(1), WordId(2), WordId(3)];
        let p = Bm25Params::default();
        let a = rank_like(&s, &words, 40, &lens, 12.5, p, 10).unwrap();
        let terms = idf_terms(&s, &[1, 2, 3], 40);
        let b = rank_seeded(&s, &terms, &lens, 12.5, p, 10).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.doc, x.score.to_bits()), (y.doc, y.score.to_bits()));
        }
    }
}
