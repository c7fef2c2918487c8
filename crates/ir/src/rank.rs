//! Ranked retrieval: one top-k evaluator, WAND, under two weightings.
//!
//! The paper's vector model (§1, §5.2.1) scores documents by a weighted
//! sum of occurring words: "the query specifies weights for the words,
//! and the system must locate documents that maximize the weighted sum of
//! occurring words." Postings are presence-only (tf is binary — the
//! abstracts-style index of the paper stores document occurrence, not
//! within-document frequency), so every ranked verb is the same sum with
//! a per-document factor:
//!
//! ```text
//! score(d) = Σ_t w_t · factor(d)
//! TfIdf:  factor(d) = 1                                          (LIKE)
//! Bm25:   factor(d) = (k1 + 1) / (k1·(1 − b + b·len_d/avgdl) + 1)  (RANK)
//! ```
//!
//! with `w_t` either the local `idf_t = ln(1 + N/df_t)` ([`idf`]) or a
//! caller-supplied weight (the router ships corpus-global idf, so a
//! sharded deployment reuses the same DF exchange for both weightings).
//!
//! One evaluator, one oracle:
//!
//! * [`wand`] — document-at-a-time WAND, the only top-k evaluator every
//!   `LIKE`, `RANK` and weighted query reaches. Each term carries an
//!   upper bound (`max(w, 0)` times the weighting's largest factor),
//!   cursors advance past any document whose summed bounds cannot beat the
//!   current k-th score, and only surviving pivots are fully evaluated.
//! * [`exhaustive`] — score every posting, select top-k with the bounded
//!   heap. The test oracle WAND is certified against.
//!
//! Both accumulate per-document contributions in the *original
//! term-slice order* (duplicates included), so the two — and two shards
//! handed the same `(weight, list)` slice — produce bit-identical f64
//! scores. WAND's pruning test carries a small upward slack so
//! float-summation order can never cause a false prune. That is what lets
//! the scatter-gather router ship corpus-global weights and a global
//! `avgdl` to every shard and merge per-shard top-k knowing equal
//! documents score equally everywhere.

use invidx_core::postings::PostingList;
use invidx_core::types::{DocId, IndexError, Result};
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

/// How a term weight becomes a document's score contribution: the weight
/// times a per-document factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Weighting {
    /// The paper's vector model: factor 1, so a document scores the sum
    /// of its matching terms' weights.
    TfIdf,
    /// BM25 over presence-only postings: factor `bm25_norm(len_d)`.
    Bm25 {
        /// BM25 tuning parameters.
        params: Bm25Params,
        /// Corpus average document length (see [`avgdl`]).
        avgdl: f64,
    },
}

/// The smallest `avgdl` a corpus can produce — one token over `u64::MAX`
/// documents. Above it `len / avgdl` stays finite for every `u32` length,
/// so no BM25 factor is NaN.
const MIN_AVGDL: f64 = 1.0 / 18_446_744_073_709_551_616.0;

impl Weighting {
    /// The factor multiplying every term weight for `doc`. TfIdf never
    /// reads the length map.
    #[inline]
    fn factor(&self, lens: &HashMap<DocId, u32>, doc: DocId) -> f64 {
        match *self {
            Weighting::TfIdf => 1.0,
            Weighting::Bm25 { params, avgdl } => {
                bm25_norm(lens.get(&doc).copied().unwrap_or(0), avgdl, params)
            }
        }
    }

    /// The largest factor any document can get: BM25's at `len = 0`. For
    /// parameters [`Weighting::check`] accepts, each IEEE step of
    /// [`bm25_norm`] is monotone in `len`, so no document exceeds it.
    fn max_factor(&self) -> f64 {
        match *self {
            Weighting::TfIdf => 1.0,
            Weighting::Bm25 { params, avgdl } => bm25_norm(0, avgdl, params),
        }
    }

    /// Refuse what would make WAND's per-term bound unsound or a score
    /// NaN: BM25 with `k1 < 0`, `b ∉ [0, 1]` or `avgdl` below
    /// [`MIN_AVGDL`] (or any of them non-finite), and a weight whose
    /// product with the largest factor is not finite. Everything else —
    /// negative weights included — gets the oracle's answer.
    pub(crate) fn check(&self, terms: &[(String, f64)]) -> Result<()> {
        let refuse = |msg: String| Err(IndexError::InvalidConfig(msg));
        if let Weighting::Bm25 { params: Bm25Params { k1, b }, avgdl } = *self {
            if !(k1.is_finite() && k1 >= 0.0) {
                return refuse(format!("BM25 k1 {k1} is not a finite number >= 0"));
            }
            if !(0.0..=1.0).contains(&b) {
                return refuse(format!("BM25 b {b} is outside [0, 1]"));
            }
            if !(avgdl.is_finite() && avgdl >= MIN_AVGDL) {
                return refuse(format!(
                    "BM25 avgdl {avgdl} is not a finite number >= {MIN_AVGDL:e}"
                ));
            }
        }
        let max = self.max_factor();
        for (term, w) in terms {
            if !w.is_finite() {
                return refuse(format!("weight {w} of term {term:?} is not finite"));
            }
            if !(w * max).is_finite() {
                return refuse(format!(
                    "weight {w:e} of term {term:?} times the largest factor {max} overflows"
                ));
            }
        }
        Ok(())
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

/// A term's inverse document frequency, `ln(1 + N/df)`. One expression,
/// used by the local scorer and by the router's global weights alike —
/// a sharded score equals the unsharded one only because they agree to
/// the last bit.
pub fn idf(total_docs: u64, df: u64) -> f64 {
    (1.0 + total_docs as f64 / df as f64).ln()
}

/// The per-document BM25 factor multiplying every term's weight. One
/// expression, used verbatim by both evaluators — bit-exactness between
/// them (and across deployments) depends on it.
#[inline]
fn bm25_norm(len: u32, avgdl: f64, p: Bm25Params) -> f64 {
    (p.k1 + 1.0) / (p.k1 * (1.0 - p.b + p.b * (len as f64 / avgdl)) + 1.0)
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
struct HeapEntry(Hit);

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

/// Drain the heap best first: `(score desc, doc asc)`.
fn into_sorted(heap: BinaryHeap<HeapEntry>) -> Vec<Hit> {
    let mut hits: Vec<Hit> = heap.into_iter().map(|e| e.0).collect();
    hits.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then(a.doc.cmp(&b.doc))
    });
    hits
}

/// Relative slack applied to WAND's summed upper bounds before comparing
/// against the heap threshold. Each term's true contribution is ≤ its
/// bound, but the two sums run in different orders, and IEEE addition is
/// not associative — a bound sum a few ulps under the true score must not
/// prune a winner. 1e-9 is ~10⁷ ulps at these magnitudes: unmeasurable
/// for pruning power, decisive for the bit-exact oracle.
const UB_SLACK: f64 = 1.0 + 1e-9;

/// The oracle: score every posting of every `(weight, list)` term in
/// slice order, then bounded-heap select. Same inputs and bit-identical
/// outputs as [`wand`]; public so tests, the micro benchmark and the
/// ablation gate can assert exactly that.
pub fn exhaustive(
    terms: &[(f64, PostingList)],
    weighting: Weighting,
    lens: &HashMap<DocId, u32>,
    k: usize,
) -> Vec<Hit> {
    let mut acc: HashMap<DocId, f64> = HashMap::new();
    for (w, list) in terms {
        for &d in list.docs() {
            *acc.entry(d).or_insert(0.0) += w * weighting.factor(lens, d);
        }
    }
    // `k` can come straight off the wire: size the heap by what can be
    // returned, never by what was asked for. `(score desc, doc asc)` is a
    // total order, so the winners do not depend on the map's order.
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k.min(acc.len()) + 1);
    for (doc, score) in acc {
        heap.push(HeapEntry(Hit { doc, score }));
        if heap.len() > k {
            heap.pop();
        }
    }
    into_sorted(heap)
}

/// Top-k over `(weight, list)` terms in slice order: the one ranked
/// evaluator, document-at-a-time WAND. Lists must be sorted; `lens` is
/// read only by [`Weighting::Bm25`]. For every weighting and weights
/// `execute` accepts (finite weights; BM25 with `k1 ≥ 0`, `b ∈ [0, 1]`,
/// a positive finite `avgdl`) the answer is [`exhaustive`]'s, doc order
/// and score bits.
///
/// Documents are visited in ascending id order. The current k-th best
/// score θ prunes: cursors sorted by current document, the pivot is the
/// first prefix whose summed upper bounds (with `UB_SLACK`) exceed θ;
/// everything before the pivot document is skipped wholesale. Safe
/// because bounds are non-negative (so prefix sums only grow) and
/// ascending-id evaluation means a doc scoring exactly θ always loses the
/// `(score desc, doc asc)` tie to the k incumbents — identical to the
/// bounded-heap semantics of [`exhaustive`].
pub fn wand(
    terms: &[(f64, PostingList)],
    weighting: Weighting,
    lens: &HashMap<DocId, u32>,
    k: usize,
) -> Vec<Hit> {
    struct Cursor {
        ord: usize,
        ub: f64,
        pos: usize,
    }
    if terms.is_empty() || k == 0 {
        return Vec::new();
    }
    // A negative weight can only lower a score, so it bounds at 0; a
    // non-negative one at its product with the largest factor (rounding
    // is monotone, so every real contribution ≤ its bound).
    let max_factor = weighting.max_factor();
    let mut cursors: Vec<Cursor> = terms
        .iter()
        .enumerate()
        .map(|(ord, (w, _))| Cursor { ord, ub: w.max(0.0) * max_factor, pos: 0 })
        .collect();
    // `k` can come straight off the wire: no more hits can come back than
    // there are postings, so that — not the request — bounds the heap.
    let postings: usize = terms.iter().map(|(_, list)| list.len()).sum();
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k.min(postings) + 1);
    loop {
        cursors.retain(|c| c.pos < terms[c.ord].1.len());
        if cursors.is_empty() {
            break;
        }
        let doc_at = |c: &Cursor| terms[c.ord].1.docs()[c.pos];
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
            let factor = weighting.factor(lens, pivot_doc);
            let mut at_pivot: Vec<usize> =
                cursors.iter().filter(|c| doc_at(c) == pivot_doc).map(|c| c.ord).collect();
            at_pivot.sort_unstable();
            let mut score = 0.0;
            for ord in at_pivot {
                score += terms[ord].0 * factor;
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
            let docs = terms[c.ord].1.docs();
            c.pos += docs[c.pos..].partition_point(|&d| d < pivot_doc);
        }
    }
    into_sorted(heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::PostingSource;
    use crate::query::{execute, EngineQuery, ReadContext};
    use invidx_core::types::WordId;

    /// A minimal read context: three words over 40 documents.
    struct Ctx {
        vocab: HashMap<String, WordId>,
        lists: HashMap<WordId, Vec<u32>>,
        lens: HashMap<DocId, u32>,
    }

    impl PostingSource for Ctx {
        fn postings(&self, word: WordId) -> Result<PostingList> {
            Ok(self
                .lists
                .get(&word)
                .map(|v| PostingList::from_sorted(v.iter().map(|&d| DocId(d)).collect()))
                .unwrap_or_default())
        }
    }

    impl ReadContext for Ctx {
        fn vocab(&self) -> &HashMap<String, WordId> {
            &self.vocab
        }
        fn doc_lengths(&self) -> &HashMap<DocId, u32> {
            &self.lens
        }
        fn total_docs(&self) -> u64 {
            40
        }
        fn total_tokens(&self) -> u64 {
            self.lens.values().map(|&l| u64::from(l)).sum()
        }
        fn load_text(&self, _: DocId) -> Result<Option<String>> {
            Ok(None)
        }
    }

    fn ctx() -> Ctx {
        let words: [Vec<u32>; 3] = [(1..=40).collect(), vec![3, 7, 21, 33], vec![7, 33]];
        let mut vocab = HashMap::new();
        let mut lists = HashMap::new();
        for (i, (word, docs)) in ["common", "rare", "rarest"].iter().zip(words).enumerate() {
            vocab.insert(word.to_string(), WordId(i as u64 + 1));
            lists.insert(WordId(i as u64 + 1), docs);
        }
        let lens = (1..=40u32).map(|d| (DocId(d), 4 + (d * 7) % 23)).collect();
        Ctx { vocab, lists, lens }
    }

    fn run(c: &Ctx, query: EngineQuery) -> Vec<Hit> {
        execute(c, &query).unwrap().hits().unwrap().to_vec()
    }

    fn list(docs: &[u32]) -> PostingList {
        PostingList::from_sorted(docs.iter().map(|&d| DocId(d)).collect())
    }

    fn bits(hits: &[Hit]) -> Vec<(DocId, u64)> {
        hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
    }

    /// Each word's `(idf, list)` with the context's local idf.
    fn idf_terms(c: &Ctx, words: &[&str]) -> Vec<(f64, PostingList)> {
        words
            .iter()
            .map(|w| {
                let l = c.postings(c.vocab[*w]).unwrap();
                (idf(40, l.len() as u64), l)
            })
            .collect()
    }

    fn bm25(avgdl: f64) -> Weighting {
        Weighting::Bm25 { params: Bm25Params::default(), avgdl }
    }

    #[test]
    fn wand_matches_exhaustive_bit_exactly() {
        let c = ctx();
        let terms = idf_terms(&c, &["common", "rare", "rarest"]);
        for weighting in [Weighting::TfIdf, bm25(12.5)] {
            for k in [0, 1, 3, 5, 10, 40, 100] {
                let a = exhaustive(&terms, weighting, &c.lens, k);
                let b = wand(&terms, weighting, &c.lens, k);
                assert_eq!(bits(&a), bits(&b), "{weighting:?} k={k}");
            }
        }
    }

    #[test]
    fn negative_weights_get_the_oracles_answer() {
        // A bound of `w · max_factor` is negative for a negative weight,
        // which used to make prefix sums shrink and prune the winner: doc
        // 3 (score 2.0) lost to doc 1 (score 0.0) at k = 1.
        let terms = [(-3.0, list(&[1, 2])), (2.0, list(&[1, 3])), (1.0, list(&[1]))];
        let lens = HashMap::new();
        let b0 = Weighting::Bm25 { params: Bm25Params { k1: 1.2, b: 0.0 }, avgdl: 1.0 };
        for weighting in [Weighting::TfIdf, b0, bm25(3.0)] {
            for k in [1, 2, 3, 10] {
                let want = exhaustive(&terms, weighting, &lens, k);
                assert_eq!(bits(&wand(&terms, weighting, &lens, k)), bits(&want), "{weighting:?}");
            }
        }
        assert_eq!(bits(&wand(&terms, b0, &lens, 1)), vec![(DocId(3), 2.0f64.to_bits())]);
    }

    #[test]
    fn unsound_weightings_and_weights_are_refused() {
        let p = |k1, b| Weighting::Bm25 { params: Bm25Params { k1, b }, avgdl: 5.0 };
        let ok = [("cat".to_string(), -2.5)];
        for bad in [
            p(-0.1, 0.75),
            p(f64::NAN, 0.75),
            p(f64::INFINITY, 0.75),
            p(1.2, -2.0),
            p(1.2, 1.5),
            p(1.2, f64::NAN),
            Weighting::Bm25 { params: Bm25Params::default(), avgdl: -9.0 },
            Weighting::Bm25 { params: Bm25Params::default(), avgdl: 0.0 },
            Weighting::Bm25 { params: Bm25Params::default(), avgdl: 1e-300 },
            Weighting::Bm25 { params: Bm25Params::default(), avgdl: f64::INFINITY },
        ] {
            assert!(bad.check(&ok).is_err(), "{bad:?}");
        }
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Weighting::TfIdf.check(&[("cat".into(), w)]).is_err(), "{w}");
        }
        // Finite, but not once multiplied by BM25's largest factor (2.2).
        assert!(bm25(5.0).check(&[("cat".into(), f64::MAX)]).is_err());
        assert!(Weighting::TfIdf.check(&[("cat".into(), f64::MAX)]).is_ok());
        assert!(p(0.0, 0.0).check(&ok).is_ok() && p(1e300, 1.0).check(&ok).is_ok());
        assert!(bm25(MIN_AVGDL).check(&ok).is_ok());
    }

    #[test]
    fn shorter_documents_rank_higher_on_equal_overlap() {
        let terms = [(1.0, list(&[1, 2]))];
        let lens: HashMap<DocId, u32> = [(DocId(1), 5), (DocId(2), 50)].into();
        let hits = wand(&terms, bm25(27.5), &lens, 2);
        assert_eq!(hits[0].doc, DocId(1), "short doc must outrank long on same match");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn b_zero_disables_length_normalization() {
        let terms = [(1.0, list(&[1, 2]))];
        let lens: HashMap<DocId, u32> = [(DocId(1), 5), (DocId(2), 50)].into();
        let p = Bm25Params { k1: 1.2, b: 0.0 };
        let hits = wand(&terms, Weighting::Bm25 { params: p, avgdl: 27.5 }, &lens, 2);
        assert_eq!(hits[0].score.to_bits(), hits[1].score.to_bits());
        assert_eq!(hits[0].doc, DocId(1), "tie breaks toward smaller id");
    }

    #[test]
    fn empty_inputs_and_unknown_words() {
        let c = ctx();
        assert!(run(&c, EngineQuery::rank("unicorn", 5)).is_empty());
        assert!(wand(&[], Weighting::TfIdf, &c.lens, 5).is_empty());
        assert!(exhaustive(&[], bm25(10.0), &c.lens, 5).is_empty());
        assert!(wand(&[(1.0, PostingList::new())], Weighting::TfIdf, &c.lens, 5).is_empty());
    }

    #[test]
    fn empty_query_or_zero_k() {
        let c = ctx();
        assert!(run(&c, EngineQuery::like("", 5)).is_empty());
        assert!(run(&c, EngineQuery::like("common", 0)).is_empty());
    }

    #[test]
    fn unknown_words_ignored() {
        // An unknown word contributes nothing, wherever it sits.
        let c = ctx();
        let hits = run(&c, EngineQuery::like("unicorn rare", 10));
        assert_eq!(hits.len(), 4);
        assert_eq!(bits(&hits), bits(&run(&c, EngineQuery::like("rare", 10))));
        assert_eq!(bits(&hits), bits(&run(&c, EngineQuery::like("rare unicorn", 10))));
    }

    fn weighted(terms: Vec<(&str, f64)>, k: usize) -> EngineQuery {
        EngineQuery::Weighted {
            terms: terms.into_iter().map(|(t, w)| (t.to_string(), w)).collect(),
            k,
            weighting: Weighting::TfIdf,
        }
    }

    #[test]
    fn seeded_search_skips_unknown_and_respects_k() {
        let c = ctx();
        let hits = run(&c, weighted(vec![("unicorn", 9.0), ("rarest", 1.5)], 10));
        assert_eq!(bits(&hits), [7, 33].map(|d| (DocId(d), 1.5f64.to_bits())));
        assert!(run(&c, weighted(vec![], 10)).is_empty());
        assert!(run(&c, weighted(vec![("rarest", 1.5)], 0)).is_empty());
    }

    #[test]
    fn avgdl_guards_degenerate_corpora() {
        assert_eq!(avgdl(0, 0), 1.0);
        assert_eq!(avgdl(0, 5), 1.0);
        assert_eq!(avgdl(100, 10), 10.0);
        assert!(avgdl(1, u64::MAX) >= MIN_AVGDL);
    }

    #[test]
    fn seeded_matches_like_when_weights_agree() {
        // The router's second phase ships `idf(N, df)` per term; scored
        // under BM25, the shipped weights must reproduce RANK's bits.
        let c = ctx();
        let text = "rarest common rare";
        let shipped: Vec<(String, f64)> = ["common", "rare", "rarest"]
            .iter()
            .map(|w| (w.to_string(), idf(40, c.lists[&c.vocab[*w]].len() as u64)))
            .collect();
        let avgdl = avgdl(c.total_tokens(), 40);
        let params = Bm25Params::default();
        let local = EngineQuery::Rank { text: text.into(), k: 10, params };
        let weighting = Weighting::Bm25 { params, avgdl };
        let seeded = EngineQuery::Weighted { terms: shipped, k: 10, weighting };
        assert_eq!(bits(&run(&c, local)), bits(&run(&c, seeded)));
    }

    #[test]
    fn seeded_search_matches_local_idf_path() {
        // LIKE's local idf and the same weights computed by the caller
        // score bit-identically.
        let c = ctx();
        let shipped: Vec<(&str, f64)> = ["common", "rare", "rarest"]
            .iter()
            .map(|w| (*w, idf(40, c.lists[&c.vocab[*w]].len() as u64)))
            .collect();
        let local = run(&c, EngineQuery::like("common rare rarest", 5));
        assert_eq!(local.len(), 5);
        assert_eq!(bits(&local), bits(&run(&c, weighted(shipped, 5))));
    }

    #[test]
    fn search_like_is_slice_order_deterministic() {
        let c = ctx();
        let a = run(&c, EngineQuery::like("common rare rarest", 10));
        let b = run(&c, EngineQuery::like("common rare rarest", 10));
        assert_eq!(bits(&a), bits(&b));
        // And is the oracle's answer over the same slice, score bits included.
        let terms = idf_terms(&c, &["common", "rare", "rarest"]);
        assert_eq!(bits(&a), bits(&exhaustive(&terms, Weighting::TfIdf, &c.lens, 10)));
    }

    #[test]
    fn rare_terms_score_higher() {
        let hits = run(&ctx(), EngineQuery::like("common rare rarest", 5));
        // Docs 7 and 33 match all three terms; 3 and 21 two; others one.
        assert_eq!(hits.iter().map(|h| h.doc.0).collect::<Vec<_>>(), [7, 33, 3, 21, 1]);
        assert_eq!(hits[0].score.to_bits(), hits[1].score.to_bits());
        assert!(hits[1].score > hits[2].score && hits[3].score > hits[4].score);
    }

    #[test]
    fn k_bounds_results() {
        let hits = run(&ctx(), EngineQuery::like("common", 3));
        // Every document ties: the smallest ids win.
        assert_eq!(hits.iter().map(|h| h.doc.0).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn weights_scale_contributions() {
        let c = ctx();
        let terms = |w: f64| [(w, list(&[3, 7, 21, 33])), (1.0, list(&[7, 33]))];
        let balanced = wand(&terms(1.0), Weighting::TfIdf, &c.lens, 3);
        let boosted = wand(&terms(10.0), Weighting::TfIdf, &c.lens, 3);
        // Boosting the term docs 3 and 7 share narrows the gap doc 7's
        // extra term makes.
        let gap = |h: &[Hit]| (h[0].score - h[2].score) / h[0].score;
        assert_eq!((balanced[0].doc, balanced[2].doc), (DocId(7), DocId(3)));
        assert!(gap(&boosted) < gap(&balanced));
    }

    #[test]
    fn duplicate_terms_accumulate() {
        // Duplicates add in slice order, exactly as repeated `+=`.
        let c = ctx();
        let twice = [(1.0, list(&[7, 33])), (1.0, list(&[7, 33]))];
        let once = [(2.0, list(&[7, 33]))];
        for weighting in [Weighting::TfIdf, bm25(12.5)] {
            let a = wand(&twice, weighting, &c.lens, 1);
            assert_eq!(bits(&a), bits(&exhaustive(&twice, weighting, &c.lens, 1)));
            assert_eq!(bits(&a), bits(&wand(&once, weighting, &c.lens, 1)), "{weighting:?}");
        }
    }
}
