//! Ablation: real compressed postings under a ranked Zipf workload.
//!
//! Where `ablation_compression` models compression through the
//! `BlockPosting` knob, this ablation measures the *actual* codec layer:
//! the same corpus is built twice — plain fixed-width postings vs
//! bit-packed coding-block streams — and the same Zipf-seeded BM25 query
//! stream replays against both.
//!
//! Three properties are asserted (CI runs this binary as a gate):
//!
//! * the compressed build answers the ranked stream with strictly fewer
//!   device blocks read than the plain build — compression must turn
//!   smaller streams into fewer block fetches, not just smaller files (one
//!   read *op* per chunk survives either way, but it covers fewer blocks);
//! * WAND early-terminated top-k is **bit-identical** to the exhaustive
//!   scorer on every query of the stream (checked on both builds);
//! * ranked results are **bit-identical across codecs** — the codec is a
//!   storage layout, never a scoring change — and the stored long-list
//!   bytes actually shrink (`postings_bytes_stored < postings_bytes_raw`).

use invidx_bench::emit_table;
use invidx_core::codec::PostingsCodec;
use invidx_core::index::IndexConfig;
use invidx_core::policy::Policy;
use invidx_core::postings::PostingList;
use invidx_core::types::DocId;
use invidx_corpus::vocab::word_string;
use invidx_corpus::{doc, lexer, CorpusGenerator, CorpusParams};
use invidx_disk::sparse_array;
use invidx_ir::{rank, Bm25Params, DurableEngine, EngineQuery, Hit, PostingSource, Weighting};
use invidx_obs::names;
use invidx_sim::TextTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const DISKS: u16 = 2;
const BLOCKS_PER_DISK: u64 = 6_000;
const BLOCK_SIZE: usize = 512;
const QUERIES: usize = 400;
const TOP_K: usize = 10;

fn corpus() -> CorpusParams {
    CorpusParams {
        days: 3,
        docs_per_weekday: 300,
        vocab_ranks: 20_000,
        interrupted_day: None,
        ..CorpusParams::tiny()
    }
}

/// Build the engine with the given codec, returning it with each
/// document's token length (the oracle's BM25 norm) and the long-list
/// byte counters sampled across the build.
fn build(codec: PostingsCodec) -> (DurableEngine, HashMap<DocId, u32>, u64, u64) {
    let raw0 = invidx_obs::registry().counter(names::POSTINGS_BYTES_RAW).get();
    let stored0 = invidx_obs::registry().counter(names::POSTINGS_BYTES_STORED).get();
    let array = sparse_array(DISKS, BLOCKS_PER_DISK, BLOCK_SIZE);
    let config = IndexConfig::builder()
        .num_buckets(64)
        .bucket_capacity_units(100)
        .block_postings(25)
        .policy(Policy::balanced())
        .materialize_buckets(false)
        .postings_codec(codec)
        .build()
        .expect("valid config");
    let mut engine = DurableEngine::without_log(array, config).expect("create");
    let mut lens = HashMap::new();
    for day in CorpusGenerator::new(corpus()) {
        for d in &day.docs {
            let text = doc::render(d);
            let id = engine.add_document(&text).expect("add");
            lens.insert(id, lexer::tokenize_document(&text).len() as u32);
        }
        engine.flush().expect("flush");
    }
    let raw = invidx_obs::registry().counter(names::POSTINGS_BYTES_RAW).get() - raw0;
    let stored = invidx_obs::registry().counter(names::POSTINGS_BYTES_STORED).get() - stored0;
    (engine, lens, raw, stored)
}

/// The oracle's answer to `RANK q`: the query's known words with their
/// local idf, every posting scored by [`rank::exhaustive`].
fn exhaustive(engine: &DurableEngine, lens: &HashMap<DocId, u32>, q: &str) -> Vec<Hit> {
    let n = engine.total_docs();
    let terms: Vec<(f64, PostingList)> = lexer::document_words(q)
        .iter()
        .filter_map(|w| engine.word_id(w))
        .map(|w| engine.postings(w).expect("postings"))
        .filter(|list| !list.is_empty())
        .map(|list| (rank::idf(n, list.len() as u64), list))
        .collect();
    let avgdl = rank::avgdl(engine.total_tokens(), n);
    let weighting = Weighting::Bm25 { params: Bm25Params::default(), avgdl };
    rank::exhaustive(&terms, weighting, lens, TOP_K)
}

/// The ranked query stream: two words per query, ranks drawn Zipf-style
/// (∝ 1/r^1.2) over the head of the vocabulary — the classic query-log
/// skew, same seed for every build so the streams are identical.
fn query_stream(n: usize, seed: u64) -> Vec<String> {
    const HEAD: u64 = 2_000;
    let weights: Vec<f64> = (1..=HEAD).map(|r| 1.0 / (r as f64).powf(1.2)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let draw = |rng: &mut StdRng| {
        let mut u: f64 = rng.random::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return i as u64 + 1;
            }
        }
        HEAD
    };
    (0..n)
        .map(|_| {
            let a = draw(&mut rng);
            let b = draw(&mut rng);
            format!("{} {}", word_string(a), word_string(b))
        })
        .collect()
}

fn bits(hits: &[Hit]) -> Vec<(u32, u64)> {
    hits.iter().map(|h| (h.doc.0, h.score.to_bits())).collect()
}

fn main() {
    invidx_bench::init_metrics();
    let stream = query_stream(QUERIES, 11);
    let params = Bm25Params::default();

    let mut rows = Vec::new();
    // Device blocks read by the ranked stream, per codec.
    let mut reads = Vec::new();
    let mut plain_answers: Vec<Vec<(u32, u64)>> = Vec::new();
    for codec in [PostingsCodec::Plain, PostingsCodec::BitPacked] {
        let (engine, lens, raw, stored) = build(codec);
        engine.index().inner().array().take_trace(); // drop the build trace
        engine.index().inner().array().start_trace();
        let answers: Vec<Vec<(u32, u64)>> = stream
            .iter()
            .map(|q| {
                let query = EngineQuery::Rank { text: q.clone(), k: TOP_K, params };
                bits(engine.execute(&query).expect("rank").hits().expect("hits output"))
            })
            .collect();
        let trace = engine.index().inner().array().take_trace();
        let device_reads = trace.ops.len() as u64;
        let device_blocks: u64 = trace.ops.iter().map(|o| o.blocks).sum();

        // Gate: WAND must be bit-identical to the exhaustive scorer.
        for (q, got) in stream.iter().zip(&answers) {
            let brute = bits(&exhaustive(&engine, &lens, q));
            assert_eq!(got, &brute, "WAND diverged from exhaustive on {q:?} ({codec})");
        }
        // Gate: the codec is a storage layout, not a scoring change.
        if codec.is_compressed() {
            assert_eq!(answers, plain_answers, "ranked answers changed across codecs");
        } else {
            plain_answers = answers;
        }
        reads.push(device_blocks);
        invidx_obs::log_progress(
            "ablation",
            &format!(
                "{codec}: {device_reads} device reads over {device_blocks} blocks, \
                 {} KB raw -> {} KB stored",
                raw / 1024,
                stored / 1024
            ),
        );
        rows.push(vec![
            codec.to_string(),
            QUERIES.to_string(),
            device_reads.to_string(),
            device_blocks.to_string(),
            format!("{:.3}", device_blocks as f64 / QUERIES as f64),
            (raw / 1024).to_string(),
            (stored / 1024).to_string(),
            format!("{:.2}", raw as f64 / stored.max(1) as f64),
        ]);
        // Gate: compression must actually shrink the stored bytes.
        if codec.is_compressed() {
            assert!(stored < raw, "{codec}: stored {stored} B did not shrink below {raw} B");
        } else {
            assert_eq!(stored, raw, "plain stores postings verbatim");
        }
    }

    emit_table(&TextTable {
        id: "ablation_compression_ranked".into(),
        title: "Postings codec vs device reads (BM25 Zipf query stream)".into(),
        headers: vec![
            "Codec".into(),
            "Queries".into(),
            "Device reads".into(),
            "Device blocks".into(),
            "Blocks/query".into(),
            "Raw KB".into(),
            "Stored KB".into(),
            "Ratio".into(),
        ],
        rows,
    });

    assert!(
        reads[1] < reads[0],
        "compressed build must read strictly fewer device blocks: plain {} vs bitpacked {}",
        reads[0],
        reads[1]
    );
    invidx_obs::log_progress("ablation", "compression+ranked gates passed");
}
