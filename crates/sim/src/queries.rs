//! Query-workload evaluation.
//!
//! The paper *estimates* query performance from directory metadata ("the
//! total number of chunks in the index [divided] by the number of words
//! with long lists", Figure 10) because "measuring query performance for a
//! policy is difficult since the typical workload depends on the
//! information retrieval model" (§5.2.1). This module closes that gap by
//! **executing** query workloads for both models it describes:
//!
//! * **vector-space IRM** — "a query may be derived from a document;
//!   consequently the query often contains many words (more than 100) and
//!   the words tend to be frequently appearing words". We sample whole
//!   synthetic documents (fresh RNG stream, same distribution) and use
//!   their word sets as queries.
//! * **boolean IRM** — "a query contains a few words (less than 10) and
//!   the words tend to be the less frequently appearing words since
//!   frequently appearing words do not discriminate strongly". We sample
//!   2–8 words biased away from the head of the frequency distribution.
//!
//! Each query's reads are traced and timed on the disk model, one batch
//! per query (queries are independent random accesses; coalescing across
//! queries would be unrealistic).

use crate::params::SimParams;
use invidx_core::index::DualIndex;
use invidx_core::types::{Result, WordId};
use invidx_corpus::doc::{CorpusGenerator, CorpusParams};
use invidx_disk::exercise;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A set of queries, each a list of distinct word ids.
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    /// The retrieval model the workload emulates.
    pub model: RetrievalModel,
    /// The queries.
    pub queries: Vec<Vec<WordId>>,
}

/// The two retrieval models of the paper's §1/§5.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetrievalModel {
    /// Many frequent words per query (document-derived).
    VectorSpace,
    /// Few, infrequent words per query.
    Boolean,
}

impl QueryWorkload {
    /// Build a vector-space workload: each query is the word set of a
    /// fresh synthetic document drawn from the corpus distribution.
    pub fn vector_space(corpus: &CorpusParams, n_queries: usize, seed: u64) -> Self {
        let params = CorpusParams {
            days: 1,
            docs_per_weekday: n_queries,
            weekly_profile: [1.0; 7],
            interrupted_day: None,
            min_doc_chars: 0,
            seed,
            ..corpus.clone()
        };
        let mut generator = CorpusGenerator::new(params);
        let day = generator.next_day().expect("one day");
        let queries = day
            .docs
            .into_iter()
            .take(n_queries)
            .map(|d| d.word_ranks.into_iter().map(WordId).collect())
            .collect();
        Self { model: RetrievalModel::VectorSpace, queries }
    }

    /// Build a boolean workload: `n_queries` queries of 2–8 words, biased
    /// toward *infrequent* words — "the words tend to be the less
    /// frequently appearing words since frequently appearing words do not
    /// discriminate strongly between documents". Ranks are drawn
    /// log-uniformly between 50 and the vocabulary size, putting most mass
    /// deep in the tail (bucket-resident or rare words) while still
    /// occasionally touching mid-frequency words.
    pub fn boolean(corpus: &CorpusParams, n_queries: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lo, hi) = (50.0f64, corpus.vocab_ranks as f64);
        let mut queries = Vec::with_capacity(n_queries);
        for _ in 0..n_queries {
            let n = rng.random_range(2..=8);
            let mut words: Vec<WordId> = Vec::with_capacity(n);
            while words.len() < n {
                let u: f64 = rng.random();
                let rank = (lo * (hi / lo).powf(u)).round() as u64;
                if !words.contains(&WordId(rank)) {
                    words.push(WordId(rank));
                }
            }
            queries.push(words);
        }
        Self { model: RetrievalModel::Boolean, queries }
    }

    /// Total words across queries.
    pub fn total_words(&self) -> usize {
        self.queries.iter().map(Vec::len).sum()
    }
}

/// Measured cost of executing a workload against an index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryCost {
    /// The retrieval model.
    pub model: RetrievalModel,
    /// Queries executed.
    pub queries: u64,
    /// Query words that had any postings.
    pub hit_words: u64,
    /// Query words found in buckets / long lists.
    pub short_words: u64,
    /// Query words found in long lists.
    pub long_words: u64,
    /// Read operations issued.
    pub read_ops: u64,
    /// Blocks read.
    pub read_blocks: u64,
    /// Postings retrieved.
    pub postings: u64,
    /// Modeled seconds on the disk model (each query an independent
    /// batch).
    pub modeled_seconds: f64,
}

impl QueryCost {
    /// Average read operations per query.
    pub fn ops_per_query(&self) -> f64 {
        self.read_ops as f64 / self.queries.max(1) as f64
    }

    /// Average modeled milliseconds per query.
    pub fn ms_per_query(&self) -> f64 {
        1e3 * self.modeled_seconds / self.queries.max(1) as f64
    }
}

/// Execute a workload against a live index, tracing and timing all reads.
///
/// Bucket reads are charged one operation per distinct bucket touched per
/// query (buckets are on disk; the paper assumes they are memory-resident
/// *during updates*, but a cold query must fetch the bucket region for the
/// word). Long-list reads come straight from the traced chunk reads.
pub fn execute(
    index: &DualIndex,
    params: &SimParams,
    workload: &QueryWorkload,
) -> Result<QueryCost> {
    let mut cost = QueryCost {
        model: workload.model,
        queries: workload.queries.len() as u64,
        hit_words: 0,
        short_words: 0,
        long_words: 0,
        read_ops: 0,
        read_blocks: 0,
        postings: 0,
        modeled_seconds: 0.0,
    };
    index.array().start_trace();
    for query in &workload.queries {
        let mut bucket_reads: Vec<(usize, invidx_core::WordId)> = Vec::new();
        for &word in query {
            match index.location(word) {
                invidx_core::WordLocation::Long => {
                    cost.long_words += 1;
                    cost.hit_words += 1;
                    cost.postings += index.postings(word)?.len() as u64;
                }
                invidx_core::WordLocation::Short => {
                    cost.short_words += 1;
                    cost.hit_words += 1;
                    cost.postings += index.postings(word)?.len() as u64;
                    let b = index.buckets().bucket_of(word);
                    if !bucket_reads.iter().any(|&(seen, _)| seen == b) {
                        bucket_reads.push((b, word));
                    }
                }
                _ => {}
            }
        }
        // Charge one bucket-region read per distinct bucket touched: the
        // bucket array is striped across disks; bucket i sits at a fixed
        // offset in its disk's stripe.
        for (_, word) in bucket_reads {
            index.charge_bucket_read(word)?;
        }
        index.array().end_batch();
    }
    let trace = index.array().take_trace();
    cost.read_ops = trace.ops.len() as u64;
    cost.read_blocks = trace.ops.iter().map(|op| op.blocks).sum();
    let timing = exercise(&trace, &params.exercise_config());
    cost.modeled_seconds = timing.total_seconds();
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{build_dual_index, Experiment};
    use invidx_core::policy::Policy;

    #[test]
    fn workloads_have_expected_shapes() {
        let corpus = CorpusParams::tiny();
        let v = QueryWorkload::vector_space(&corpus, 20, 1);
        assert_eq!(v.queries.len(), 20);
        let avg = v.total_words() as f64 / 20.0;
        assert!(avg > 20.0, "vector queries should be long, got {avg}");
        let b = QueryWorkload::boolean(&corpus, 20, 1);
        assert_eq!(b.queries.len(), 20);
        for q in &b.queries {
            assert!((2..=8).contains(&q.len()));
            assert!(q.iter().all(|w| w.0 >= 50));
        }
    }

    #[test]
    fn whole_style_beats_update_optimized_on_queries() {
        let params = SimParams::tiny();
        let exp = Experiment::prepare(params.clone()).unwrap();
        let workload = QueryWorkload::vector_space(&params.corpus, 30, 99);
        let run = |policy| {
            let (index, _) = build_dual_index(&params, policy, &exp.batches).unwrap();
            index.array().take_trace(); // drop the build trace
            execute(&index, &params, &workload).unwrap()
        };
        let whole = run(Policy::query_optimized());
        let new0 = run(Policy::update_optimized());
        assert_eq!(whole.postings, new0.postings, "same answers regardless of policy");
        assert!(
            whole.read_ops < new0.read_ops,
            "whole {} ops vs new0 {} ops",
            whole.read_ops,
            new0.read_ops
        );
        assert!(whole.modeled_seconds < new0.modeled_seconds);
        assert!(whole.ops_per_query() > 0.0);
        assert!(whole.ms_per_query() > 0.0);
    }

    #[test]
    fn boolean_queries_touch_more_buckets_than_long_lists() {
        let params = SimParams::tiny();
        let exp = Experiment::prepare(params.clone()).unwrap();
        let (index, _) = build_dual_index(&params, Policy::balanced(), &exp.batches).unwrap();
        index.array().take_trace();
        let boolean = execute(&index, &params, &QueryWorkload::boolean(&params.corpus, 50, 5))
            .unwrap();
        // "We would expect many query words to reside in buckets for this
        // model" — infrequent words are mostly short.
        assert!(
            boolean.short_words > boolean.long_words,
            "short {} vs long {}",
            boolean.short_words,
            boolean.long_words
        );
    }
}
