//! Vector-space query model (paper §1, §5.2.1).
//!
//! "In a vector model system, the query specifies weights for the words,
//! and the system must locate documents that maximize the weighted sum of
//! occurring words. Vector model systems typically use inverted lists to
//! prune the set of candidate documents before the vector condition is
//! evaluated." The paper's query-performance analysis assumes this model:
//! queries "often contain many words (more than 100) and the words tend to
//! be frequently appearing words" — i.e. long-list reads dominate.
//!
//! Scoring is the classic tf·idf accumulator scheme: each query term
//! contributes `weight * idf(term)` to every document on its posting list;
//! top-k selection uses a bounded heap. (Our postings carry document
//! presence, not within-document frequency — the paper's abstracts-style
//! index — so tf is 0/1 and the weighted sum reduces to a weighted
//! idf overlap.)

use crate::boolean::PostingSource;
use invidx_core::types::{DocId, Result, WordId};
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// A weighted vector query.
#[derive(Debug, Clone, Default)]
pub struct VectorQuery {
    /// `(word, weight)` terms; duplicate words accumulate weight.
    pub terms: Vec<(WordId, f64)>,
}

impl VectorQuery {
    /// An empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one weighted term.
    pub fn term(mut self, word: WordId, weight: f64) -> Self {
        self.terms.push((word, weight));
        self
    }

    /// Build a uniform-weight query from words (the "query derived from a
    /// document" case — §5.2.1).
    pub fn from_words<I: IntoIterator<Item = WordId>>(words: I) -> Self {
        Self { terms: words.into_iter().map(|w| (w, 1.0)).collect() }
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the query has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// One scored result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The matching document.
    pub doc: DocId,
    /// Accumulated score.
    pub score: f64,
}

/// Min-heap adaptor so the `BinaryHeap` keeps the top-k *largest*.
#[derive(PartialEq)]
pub(crate) struct HeapEntry(pub(crate) Hit);

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse on score so BinaryHeap::pop evicts the lowest score; on
        // ties evict the larger doc id, keeping results deterministic and
        // biased toward smaller ids.
        other
            .0
            .score
            .partial_cmp(&self.0.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.0.doc.cmp(&other.0.doc))
    }
}

/// Evaluate a vector query over a posting source.
///
/// `total_docs` drives the idf term `ln(1 + N / df)`; pass the corpus
/// document count. Returns up to `k` hits, highest score first; ties break
/// toward smaller document ids.
pub fn search<S: PostingSource + ?Sized>(
    source: &S,
    query: &VectorQuery,
    total_docs: u64,
    k: usize,
) -> Result<Vec<Hit>> {
    if query.is_empty() || k == 0 {
        return Ok(Vec::new());
    }
    // Merge duplicate terms.
    let mut weights: HashMap<WordId, f64> = HashMap::new();
    for &(w, wt) in &query.terms {
        *weights.entry(w).or_insert(0.0) += wt;
    }
    // Accumulate scores document by document.
    let mut acc: HashMap<DocId, f64> = HashMap::new();
    for (&word, &weight) in &weights {
        let list = source.postings(word)?;
        if list.is_empty() {
            continue;
        }
        let idf = (1.0 + total_docs as f64 / list.len() as f64).ln();
        let contribution = weight * idf;
        for &d in list.docs() {
            *acc.entry(d).or_insert(0.0) += contribution;
        }
    }
    Ok(top_k(acc, k))
}

/// Evaluate a pre-weighted term list over a posting source.
///
/// Unlike [`search`], the weight of each term *is* its per-document
/// contribution — no idf is computed here — and accumulation runs in
/// **slice order**, so two evaluators handed the same `(term, weight)`
/// slice produce bit-identical f64 scores. That is the contract the
/// scatter-gather router depends on: it computes corpus-global idf weights
/// once, ships them to every shard in canonical (sorted-term) order, and
/// merges the per-shard top-k knowing equal docs score equally everywhere.
///
/// Terms with empty posting lists contribute nothing; duplicate terms
/// accumulate, exactly as repeated `+=` in slice order.
pub fn search_seeded<S: PostingSource + ?Sized>(
    source: &S,
    terms: &[(WordId, f64)],
    k: usize,
) -> Result<Vec<Hit>> {
    if terms.is_empty() || k == 0 {
        return Ok(Vec::new());
    }
    let mut acc: HashMap<DocId, f64> = HashMap::new();
    for &(word, contribution) in terms {
        let list = source.postings(word)?;
        for &d in list.docs() {
            *acc.entry(d).or_insert(0.0) += contribution;
        }
    }
    Ok(top_k(acc, k))
}

/// Evaluate a term list with locally computed idf weights, in slice order.
///
/// The single-engine counterpart of [`search_seeded`]: each term's weight
/// is `ln(1 + total_docs / df)` with `df` taken from its posting list, and
/// per-document accumulation runs in slice order. Handing this a sorted
/// term list makes `more_like_this` scores independent of hash-map
/// iteration order — the property that lets an unsharded engine serve as
/// a bit-exact oracle for a sharded deployment computing the same global
/// weights.
pub fn search_like<S: PostingSource + ?Sized>(
    source: &S,
    terms: &[WordId],
    total_docs: u64,
    k: usize,
) -> Result<Vec<Hit>> {
    if terms.is_empty() || k == 0 {
        return Ok(Vec::new());
    }
    let mut acc: HashMap<DocId, f64> = HashMap::new();
    for &word in terms {
        let list = source.postings(word)?;
        if list.is_empty() {
            continue;
        }
        let idf = (1.0 + total_docs as f64 / list.len() as f64).ln();
        for &d in list.docs() {
            *acc.entry(d).or_insert(0.0) += idf;
        }
    }
    Ok(top_k(acc, k))
}

/// Bounded-heap top-k selection shared by every search entry point. The
/// result is independent of accumulator iteration order: `(score desc,
/// doc asc)` is a total order, so the k winners and their ordering are
/// fully determined by the `(doc, score)` set itself.
pub(crate) fn top_k(acc: HashMap<DocId, f64>, k: usize) -> Vec<Hit> {
    // `k` can come straight off the wire: size the heap by what can be
    // returned, never by what was asked for.
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k.min(acc.len()) + 1);
    for (doc, score) in acc {
        heap.push(HeapEntry(Hit { doc, score }));
        if heap.len() > k {
            heap.pop();
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
    use invidx_core::postings::PostingList;
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
        m.insert(1, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]); // common
        m.insert(2, vec![3, 7]); // rare
        m.insert(3, vec![7]); // rarest
        MapSource(m)
    }

    #[test]
    fn rare_terms_score_higher() {
        let q = VectorQuery::from_words([WordId(1), WordId(2), WordId(3)]);
        let hits = search(&source(), &q, 10, 5).unwrap();
        // Doc 7 matches all three terms; doc 3 matches two; others one.
        assert_eq!(hits[0].doc, DocId(7));
        assert_eq!(hits[1].doc, DocId(3));
        assert!(hits[0].score > hits[1].score);
        assert!(hits[1].score > hits[2].score);
    }

    #[test]
    fn k_bounds_results() {
        let q = VectorQuery::from_words([WordId(1)]);
        let hits = search(&source(), &q, 10, 3).unwrap();
        assert_eq!(hits.len(), 3);
        // Ties broken toward smaller doc ids.
        assert_eq!(hits[0].doc, DocId(1));
        assert_eq!(hits[2].doc, DocId(3));
    }

    #[test]
    fn weights_scale_contributions() {
        let balanced = VectorQuery::new().term(WordId(2), 1.0).term(WordId(3), 1.0);
        let boosted = VectorQuery::new().term(WordId(2), 10.0).term(WordId(3), 1.0);
        let hb = search(&source(), &balanced, 10, 2).unwrap();
        let hw = search(&source(), &boosted, 10, 2).unwrap();
        // Boosting the term shared by docs 3 and 7 narrows the gap made by
        // doc 7's extra rarest term.
        let gap_b = hb[0].score - hb[1].score;
        let gap_w = hw[0].score - hw[1].score;
        assert!(gap_b > 0.0 && gap_w > 0.0);
        assert!(gap_w / hw[0].score < gap_b / hb[0].score);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        let q = VectorQuery::new().term(WordId(3), 1.0).term(WordId(3), 1.0);
        let single = VectorQuery::new().term(WordId(3), 2.0);
        let a = search(&source(), &q, 10, 1).unwrap();
        let b = search(&source(), &single, 10, 1).unwrap();
        assert_eq!(a[0].doc, b[0].doc);
        assert!((a[0].score - b[0].score).abs() < 1e-12);
    }

    #[test]
    fn empty_query_or_zero_k() {
        assert!(search(&source(), &VectorQuery::new(), 10, 5).unwrap().is_empty());
        let q = VectorQuery::from_words([WordId(1)]);
        assert!(search(&source(), &q, 10, 0).unwrap().is_empty());
    }

    #[test]
    fn unknown_words_ignored() {
        let q = VectorQuery::from_words([WordId(404), WordId(2)]);
        let hits = search(&source(), &q, 10, 5).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn seeded_search_matches_local_idf_path() {
        let s = source();
        let terms = [WordId(1), WordId(2), WordId(3)];
        let local = search_like(&s, &terms, 10, 5).unwrap();
        // Same weights, computed by the caller instead of the evaluator.
        let seeded: Vec<(WordId, f64)> = terms
            .iter()
            .map(|&w| {
                let df = s.postings(w).unwrap().len() as f64;
                (w, (1.0 + 10.0 / df).ln())
            })
            .collect();
        let routed = search_seeded(&s, &seeded, 5).unwrap();
        assert_eq!(local.len(), routed.len());
        for (a, b) in local.iter().zip(&routed) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "scores must be bit-identical");
        }
    }

    #[test]
    fn seeded_search_skips_unknown_and_respects_k() {
        let s = source();
        let terms = [(WordId(404), 9.0), (WordId(3), 1.5)];
        let hits = search_seeded(&s, &terms, 10).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, DocId(7));
        assert_eq!(hits[0].score.to_bits(), 1.5f64.to_bits());
        assert!(search_seeded(&s, &[], 10).unwrap().is_empty());
        assert!(search_seeded(&s, &terms, 0).unwrap().is_empty());
    }

    #[test]
    fn search_like_is_slice_order_deterministic() {
        let s = source();
        let a = search_like(&s, &[WordId(1), WordId(2), WordId(3)], 10, 10).unwrap();
        let b = search_like(&s, &[WordId(1), WordId(2), WordId(3)], 10, 10).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        // And agrees with the classic uniform-weight search on doc ranking.
        let q = VectorQuery::from_words([WordId(1), WordId(2), WordId(3)]);
        let classic = search(&s, &q, 10, 10).unwrap();
        assert_eq!(
            a.iter().map(|h| h.doc).collect::<Vec<_>>(),
            classic.iter().map(|h| h.doc).collect::<Vec<_>>()
        );
    }
}
