//! IR engine against brute force, on generated corpus documents: boolean
//! queries, proximity, phrase, and more-like-this must agree with naive
//! scans over the rendered text.

use invidx::core::index::IndexConfig;
use invidx::core::policy::Policy;
use invidx::corpus::doc::{render, CorpusGenerator, CorpusParams};
use invidx::corpus::lexer;
use invidx::disk::sparse_array;
use invidx::ir::{DurableEngine, EngineQuery};
use std::collections::BTreeSet;

fn corpus_texts() -> Vec<String> {
    let params = CorpusParams {
        days: 2,
        docs_per_weekday: 50,
        vocab_ranks: 3_000,
        tokens_per_doc_median: 40.0,
        min_doc_chars: 150,
        interrupted_day: None,
        ..CorpusParams::default()
    };
    CorpusGenerator::new(params)
        .flat_map(|d| d.docs.into_iter())
        .map(|d| render(&d))
        .collect()
}

/// Ids of the documents a boolean, phrase, or proximity query matches.
fn doc_ids(engine: &DurableEngine, query: &EngineQuery) -> Vec<u32> {
    let out = engine.execute(query).expect("query");
    out.docs().expect("docs output").docs().iter().map(|d| d.0).collect()
}

fn build_engine(texts: &[String]) -> DurableEngine {
    let array = sparse_array(2, 500_000, 512);
    let config = IndexConfig::builder()
        .num_buckets(64)
        .bucket_capacity_units(150)
        .block_postings(25)
        .policy(Policy::query_optimized())
        .materialize_buckets(false)
        .build()
        .expect("valid config");
    let mut engine = DurableEngine::without_log(array, config).expect("engine");
    for (i, t) in texts.iter().enumerate() {
        engine.add_document(t).expect("add");
        if i % 40 == 39 {
            engine.flush().expect("flush");
        }
    }
    engine.flush().expect("final flush");
    engine
}

/// Documents (1-based ids) whose word set satisfies the predicate.
fn scan<F: Fn(&BTreeSet<String>) -> bool>(texts: &[String], pred: F) -> Vec<u32> {
    texts
        .iter()
        .enumerate()
        .filter(|(_, t)| pred(&lexer::document_words(t).into_iter().collect()))
        .map(|(i, _)| i as u32 + 1)
        .collect()
}

#[test]
fn boolean_queries_match_brute_force() {
    let texts = corpus_texts();
    let engine = build_engine(&texts);
    // Pick real words from the corpus: a frequent one and two rarer ones.
    let mut freq: std::collections::HashMap<String, usize> = Default::default();
    for t in &texts {
        for w in lexer::document_words(t) {
            *freq.entry(w).or_default() += 1;
        }
    }
    let mut by_count: Vec<(&String, &usize)> = freq.iter().collect();
    by_count.sort_by_key(|&(_, c)| std::cmp::Reverse(*c));
    let a = by_count[0].0.clone(); // most frequent
    let b = by_count[by_count.len() / 4].0.clone();
    let c = by_count[by_count.len() / 2].0.clone();

    let cases = vec![
        format!("{a}"),
        format!("{a} and {b}"),
        format!("{a} or {c}"),
        format!("({a} and {b}) or {c}"),
        format!("{a} and not {b}"),
        format!("({a} or {b}) and not ({c} and {a})"),
    ];
    for q in cases {
        let got = doc_ids(&engine, &EngineQuery::boolean(&q));
        let (wa, wb, wc) = (a.clone(), b.clone(), c.clone());
        // Re-evaluate with the brute-force scan using a closure per case.
        let brute: Vec<u32> = match q.as_str() {
            s if s == wa => scan(&texts, |set| set.contains(&wa)),
            s if s == format!("{wa} and {wb}") => {
                scan(&texts, |set| set.contains(&wa) && set.contains(&wb))
            }
            s if s == format!("{wa} or {wc}") => {
                scan(&texts, |set| set.contains(&wa) || set.contains(&wc))
            }
            s if s == format!("({wa} and {wb}) or {wc}") => scan(&texts, |set| {
                (set.contains(&wa) && set.contains(&wb)) || set.contains(&wc)
            }),
            s if s == format!("{wa} and not {wb}") => {
                scan(&texts, |set| set.contains(&wa) && !set.contains(&wb))
            }
            _ => scan(&texts, |set| {
                (set.contains(&wa) || set.contains(&wb))
                    && !(set.contains(&wc) && set.contains(&wa))
            }),
        };
        assert_eq!(got, brute, "query {q:?}");
    }
}

#[test]
fn proximity_matches_brute_force() {
    let texts = corpus_texts();
    let engine = build_engine(&texts);
    // Two words that co-occur somewhere.
    let sample = lexer::document_words(&texts[0]);
    let w1 = sample[sample.len() / 3].clone();
    let w2 = sample[2 * sample.len() / 3].clone();
    for window in [1u32, 3, 10, 50] {
        let got = doc_ids(&engine, &EngineQuery::near(&w1, &w2, window));
        let brute: Vec<u32> = texts
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                let toks: Vec<(String, u32)> = lexer::tokenize_with_positions(t);
                let pos = |w: &str| -> Vec<u32> {
                    toks.iter().filter(|(t, _)| t == w).map(|&(_, p)| p).collect()
                };
                let (p1, p2) = (pos(&w1), pos(&w2));
                p1.iter().any(|&a| p2.iter().any(|&b| a.abs_diff(b) <= window))
            })
            .map(|(i, _)| i as u32 + 1)
            .collect();
        assert_eq!(got, brute, "within({w1}, {w2}, {window})");
    }
}

#[test]
fn phrase_matches_brute_force() {
    let texts = corpus_texts();
    let engine = build_engine(&texts);
    // Take a real 3-token phrase from the middle of a document body.
    let toks = lexer::tokenize_document(&texts[3]);
    let phrase = format!("{} {} {}", toks[10], toks[11], toks[12]);
    let got = doc_ids(&engine, &EngineQuery::phrase(&phrase));
    let needle = [toks[10].clone(), toks[11].clone(), toks[12].clone()];
    let brute: Vec<u32> = texts
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            let stream = lexer::tokenize_document(t);
            stream.windows(3).any(|w| w == needle)
        })
        .map(|(i, _)| i as u32 + 1)
        .collect();
    assert!(brute.contains(&4), "document 4 must contain its own phrase");
    assert_eq!(got, brute, "phrase {phrase:?}");
}

#[test]
fn more_like_this_favours_the_source_document() {
    let texts = corpus_texts();
    let engine = build_engine(&texts);
    for probe in [0usize, 7, 42] {
        let out = engine.execute(&EngineQuery::like(&texts[probe], 3)).expect("mlt");
        let hits = out.hits().expect("hits output");
        assert_eq!(
            hits[0].doc.0,
            probe as u32 + 1,
            "a document must be most similar to itself"
        );
    }
}
