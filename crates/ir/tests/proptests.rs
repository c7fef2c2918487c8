//! Property-based tests for the IR layer: boolean evaluation against a
//! brute-force set model, algebraic laws, vector-search ranking
//! properties, and the query parser against generated well-formed
//! queries.

use invidx_core::postings::PostingList;
use invidx_core::types::{DocId, Result, WordId};
use invidx_ir::boolean::{PostingSource, Query};
use invidx_ir::vector::{search, VectorQuery};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone)]
struct MapSource(HashMap<u64, BTreeSet<u32>>);

impl PostingSource for MapSource {
    fn postings(&self, word: WordId) -> Result<PostingList> {
        Ok(self
            .0
            .get(&word.0)
            .map(|s| PostingList::from_sorted(s.iter().map(|&d| DocId(d)).collect()))
            .unwrap_or_default())
    }
}

fn arb_source() -> impl Strategy<Value = MapSource> {
    prop::collection::hash_map(
        1u64..8,
        prop::collection::btree_set(0u32..40, 0..20),
        0..8,
    )
    .prop_map(MapSource)
}

fn arb_query() -> impl Strategy<Value = Query> {
    let leaf = (1u64..10).prop_map(|w| Query::Word(WordId(w)));
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Query::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Query::Or),
            (inner.clone(), inner).prop_map(|(a, b)| Query::and_not(a, b)),
        ]
    })
}

/// Brute-force reference evaluation over doc-id sets.
fn reference(q: &Query, source: &MapSource, universe: &BTreeSet<u32>) -> BTreeSet<u32> {
    match q {
        Query::Word(w) => source.0.get(&w.0).cloned().unwrap_or_default(),
        Query::And(qs) => {
            let mut acc = universe.clone();
            for sub in qs {
                let s = reference(sub, source, universe);
                acc = acc.intersection(&s).copied().collect();
            }
            if qs.is_empty() {
                BTreeSet::new()
            } else {
                acc
            }
        }
        Query::Or(qs) => {
            let mut acc = BTreeSet::new();
            for sub in qs {
                acc.extend(reference(sub, source, universe));
            }
            acc
        }
        Query::AndNot(a, b) => {
            let sa = reference(a, source, universe);
            let sb = reference(b, source, universe);
            sa.difference(&sb).copied().collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn boolean_eval_matches_reference(q in arb_query(), source in arb_source()) {
        let universe: BTreeSet<u32> = source.0.values().flatten().copied().collect();
        let expected = reference(&q, &source, &universe);
        let src = source.clone();
        let got: BTreeSet<u32> =
            q.eval(&src).expect("eval").docs().iter().map(|d| d.0).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn de_morgan_within_and_not(source in arb_source(), a in 1u64..10, b in 1u64..10, c in 1u64..10) {
        // x AND NOT (a OR b) == (x AND NOT a) AND NOT b
        let x = Query::Word(WordId(c));
        let lhs = Query::and_not(
            x.clone(),
            Query::or(Query::Word(WordId(a)), Query::Word(WordId(b))),
        );
        let rhs = Query::and_not(
            Query::and_not(x, Query::Word(WordId(a))),
            Query::Word(WordId(b)),
        );
        let s1 = source.clone();
        let s2 = source.clone();
        prop_assert_eq!(lhs.eval(&s1).expect("lhs"), rhs.eval(&s2).expect("rhs"));
    }

    #[test]
    fn vector_scores_are_monotone_in_matches(source in arb_source(), k in 1usize..20) {
        // Every returned hit's score equals the sum of idf contributions of
        // the terms whose lists contain it — verified by recomputation.
        let words: Vec<WordId> = source.0.keys().map(|&w| WordId(w)).collect();
        if words.is_empty() {
            return Ok(());
        }
        let q = VectorQuery::from_words(words.clone());
        let total_docs = 50u64;
        let src = source.clone();
        let hits = search(&src, &q, total_docs, k).expect("search");
        prop_assert!(hits.len() <= k);
        // Scores are non-increasing.
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score - 1e-12);
        }
        for h in &hits {
            let mut expect = 0.0;
            for w in &words {
                if let Some(docs) = source.0.get(&w.0) {
                    if !docs.is_empty() && docs.contains(&h.doc.0) {
                        expect += (1.0 + total_docs as f64 / docs.len() as f64).ln();
                    }
                }
            }
            prop_assert!((h.score - expect).abs() < 1e-9, "doc {} score {} vs {}", h.doc, h.score, expect);
        }
    }
}

// ----- parser round trip on generated query strings -----

use invidx_core::index::IndexConfig;
use invidx_disk::sparse_array;
use invidx_ir::{DurableEngine, EngineQuery};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parser_handles_generated_well_formed_queries(
        words in prop::collection::vec("[a-z]{1,6}", 1..6),
        ops in prop::collection::vec(0u8..3, 0..5),
    ) {
        let array = sparse_array(1, 20_000, 256);
        let mut engine = DurableEngine::without_log(array, IndexConfig::small()).expect("engine");
        // Index one document so some words resolve.
        let text = words.join(" ");
        engine.add_document(&format!("{text} filler tokens to lengthen the body")).expect("add");
        // Build a query string by folding operators over the words.
        let mut q = words[0].clone();
        for (i, op) in ops.iter().enumerate() {
            let w = &words[(i + 1) % words.len()];
            q = match op {
                0 => format!("({q}) and {w}"),
                1 => format!("({q}) or {w}"),
                _ => format!("({q}) and not {w}"),
            };
        }
        // Must parse, evaluate, and stay within the corpus.
        let result = engine.execute(&EngineQuery::boolean(&q)).expect("eval");
        prop_assert!(result.docs().expect("docs output").len() <= 1);
    }
}
