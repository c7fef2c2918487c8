//! Answer checking: every operation counts as attempted; an error, or an
//! answer the brute-force model disagrees with, counts as failed.

use crate::corpus::{Corpus, Query, TOP_K};
use invidx_serve::Payload;

/// Attempted/failed counts plus the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub examples: Vec<String>,
}

impl Tally {
    /// Count one operation; `outcome` is `Err(why)` when it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Mark an already-counted operation as failed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(why);
        }
    }

    /// Count `n` operations that completed without error and need no
    /// further check.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// Check one answer against the model with documents `1..=max_doc`
/// visible. Document-set and `Doc` answers must match exactly; scored
/// answers are checked for shape (k hits when k candidates exist, scores
/// non-increasing, ids distinct and among the candidates).
pub fn answer(corpus: &Corpus, query: &Query, max_doc: u32, got: &Payload) -> Result<(), String> {
    match (query, got) {
        (Query::Bool(_) | Query::Phrase(_) | Query::Near(..), Payload::Docs(ids)) => {
            let want = corpus.matching_docs(query, max_doc);
            if *ids == want {
                Ok(())
            } else {
                Err(format!(
                    "{query:?}: got {} docs, model says {}",
                    ids.len(),
                    want.len()
                ))
            }
        }
        (Query::Doc(id), Payload::Text(text)) => {
            let want = (*id <= max_doc).then(|| corpus.texts[*id as usize - 1].as_str());
            if text.as_deref() == want {
                Ok(())
            } else {
                Err(format!(
                    "DOC {id}: stored text differs from the generated one"
                ))
            }
        }
        (Query::Rank(words) | Query::Like(words), Payload::Hits(hits)) => {
            let candidates = corpus.or_candidates(words, max_doc);
            let want_len = TOP_K.min(candidates.len());
            let sorted = hits.windows(2).all(|w| w[0].1 >= w[1].1);
            let mut ids: Vec<u32> = hits.iter().map(|h| h.0).collect();
            ids.sort_unstable();
            ids.dedup();
            let known = ids.iter().all(|d| candidates.binary_search(d).is_ok());
            if hits.len() == want_len && ids.len() == hits.len() && sorted && known {
                Ok(())
            } else {
                Err(format!(
                    "{query:?}: {} hits (want {want_len}), sorted={sorted}, ids known={known}",
                    hits.len()
                ))
            }
        }
        (q, other) => Err(format!(
            "{q:?} answered with the wrong payload kind: {other:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::BoolShape;

    #[test]
    fn model_disagreement_is_a_failure() {
        let c = Corpus::generate(3, 40);
        let word = match &crate::corpus::QueryGen::new(&c, 40, 3).list(crate::corpus::Mix {
            bool_: 0,
            rank: 0,
            like: 0,
            doc: 0,
            phrase: 1,
            near: 0,
        })[0]
        {
            Query::Phrase(w) => w[0],
            other => panic!("{other:?}"),
        };
        let q = Query::Bool(BoolShape::One(word));
        let truth = c.matching_docs(&q, 40);
        assert!(answer(&c, &q, 40, &Payload::Docs(truth.clone())).is_ok());
        assert!(answer(&c, &q, 40, &Payload::Docs(vec![])).is_err());
        assert!(answer(&c, &q, 40, &Payload::Pong).is_err());
        assert!(answer(
            &c,
            &Query::Doc(2),
            40,
            &Payload::Text(Some(c.texts[1].clone()))
        )
        .is_ok());
        assert!(answer(&c, &Query::Doc(2), 1, &Payload::Text(None)).is_ok());
        // Scored answers: right count, descending, known ids.
        let rank = Query::Rank(vec![word]);
        let hits: Vec<(u32, f64)> = truth
            .iter()
            .take(TOP_K)
            .enumerate()
            .map(|(i, &d)| (d, 9.0 - i as f64))
            .collect();
        assert!(answer(&c, &rank, 40, &Payload::Hits(hits.clone())).is_ok());
        let mut unsorted = hits.clone();
        unsorted.reverse();
        assert_eq!(
            answer(&c, &rank, 40, &Payload::Hits(unsorted)).is_err(),
            hits.len() > 1
        );

        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("x".into()));
        t.passed(2);
        assert_eq!((t.attempted, t.failed, t.ok_share()), (4, 1, 0.75));
    }
}
