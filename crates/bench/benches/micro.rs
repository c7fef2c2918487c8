//! Criterion micro-benchmarks for the hot paths of every substrate:
//! Zipf sampling, the lexer, posting codecs and merges, bucket operations,
//! the extent allocators, and trace coalescing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use invidx_core::bucket::BucketStore;
use invidx_core::codec::{self, PostingsCodec};
use invidx_core::postings::{fixed, varint, PostingList};
use invidx_core::types::{DocId, WordId};
use invidx_corpus::lexer;
use invidx_ir::{rank, Bm25Params, Weighting};
use invidx_corpus::zipf::{ZipfRejection, ZipfTable};
use invidx_disk::{
    coalesce_batch, BuddyAllocator, ExtentAllocator, FitStrategy, FreeList, IoOp, OpKind, Payload,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_zipf(c: &mut Criterion) {
    let mut g = c.benchmark_group("zipf");
    g.throughput(Throughput::Elements(1));
    let table = ZipfTable::new(1_000_000, 1.1);
    let mut rng = StdRng::seed_from_u64(7);
    g.bench_function("table_1M", |b| b.iter(|| black_box(table.sample(&mut rng))));
    let rej = ZipfRejection::new(1_000_000_000, 1.1);
    g.bench_function("rejection_1G", |b| b.iter(|| black_box(rej.sample(&mut rng))));
    g.finish();
}

fn bench_lexer(c: &mut Criterion) {
    let doc = {
        let params = invidx_corpus::CorpusParams {
            days: 1,
            docs_per_weekday: 1,
            tokens_per_doc_median: 300.0,
            min_doc_chars: 10,
            interrupted_day: None,
            ..invidx_corpus::CorpusParams::tiny()
        };
        let day = invidx_corpus::CorpusGenerator::new(params).next().expect("one day");
        invidx_corpus::doc::render(&day.docs[0])
    };
    let mut g = c.benchmark_group("lexer");
    g.throughput(Throughput::Bytes(doc.len() as u64));
    g.bench_function("document_words", |b| b.iter(|| black_box(lexer::document_words(&doc))));
    g.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let docs: Vec<DocId> = (0..10_000u32).map(|i| DocId(i * 3)).collect();
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Elements(docs.len() as u64));
    g.bench_function("fixed_encode", |b| {
        let mut buf = vec![0u8; fixed::encoded_len(docs.len())];
        b.iter(|| fixed::encode_into(black_box(&docs), &mut buf))
    });
    let fixed_bytes = {
        let mut buf = vec![0u8; fixed::encoded_len(docs.len())];
        fixed::encode_into(&docs, &mut buf);
        buf
    };
    g.bench_function("fixed_decode", |b| {
        b.iter(|| black_box(fixed::decode(&fixed_bytes, docs.len()).unwrap()))
    });
    g.bench_function("varint_encode", |b| b.iter(|| black_box(varint::encode(&docs))));
    let varint_bytes = varint::encode(&docs);
    g.bench_function("varint_decode", |b| {
        b.iter(|| black_box(varint::decode(&varint_bytes).unwrap()))
    });
    g.finish();
}

fn bench_codec_streams(c: &mut Criterion) {
    // Long-list shape: 10k postings, mixed small gaps — the regime the
    // coding-block streams are built for.
    let docs: Vec<DocId> = (0..10_000u32).map(|i| DocId(i * 3)).collect();
    let mut g = c.benchmark_group("codec_stream");
    g.throughput(Throughput::Elements(docs.len() as u64));
    for codec in [PostingsCodec::VarintDelta, PostingsCodec::BitPacked] {
        g.bench_function(format!("{codec}_encode"), |b| {
            b.iter(|| black_box(codec::encode_stream(codec, &docs, 128)))
        });
        let stream = codec::encode_stream(codec, &docs, 128);
        g.bench_function(format!("{codec}_decode"), |b| {
            b.iter(|| black_box(codec::decode_stream(&stream, docs.len() as u64).unwrap()))
        });
        // Skip-decode from the middle: the per-block max_doc entries let
        // half the stream go untouched.
        g.bench_function(format!("{codec}_skip_half"), |b| {
            b.iter(|| {
                black_box(codec::decode_stream_from(&stream, docs.len() as u64, 15_000).unwrap())
            })
        });
    }
    g.finish();
}

fn bench_ranked_topk(c: &mut Criterion) {
    // Synthetic postings: term `w` holds every `STRIDES[w]`-th doc id.
    const N: u32 = 50_000;
    const STRIDES: [u32; 5] = [2, 7, 31, 131, 997];
    let terms: Vec<(f64, PostingList)> = STRIDES
        .iter()
        .map(|&s| {
            let list = PostingList::from_sorted((0..N / s).map(|i| DocId(i * s)).collect());
            (rank::idf(N as u64, list.len() as u64), list)
        })
        .collect();
    let total: u64 = STRIDES.iter().map(|&s| (N / s) as u64).sum();
    let lens: std::collections::HashMap<DocId, u32> =
        (0..N).map(|d| (DocId(d), 5 + (d * 13) % 37)).collect();
    let avgdl = lens.values().map(|&l| l as u64).sum::<u64>() as f64 / N as f64;
    let bm25 = Weighting::Bm25 { params: Bm25Params::default(), avgdl };
    let mut g = c.benchmark_group("ranked_topk");
    g.throughput(Throughput::Elements(total));
    // RANK rows keep their names; LIKE is the same evaluator under TfIdf.
    for (verb, weighting) in [("", bm25), ("like_", Weighting::TfIdf)] {
        g.bench_function(format!("{verb}wand_top10"), |b| {
            b.iter(|| black_box(rank::wand(&terms, weighting, &lens, 10)))
        });
        g.bench_function(format!("{verb}exhaustive_top10"), |b| {
            b.iter(|| black_box(rank::exhaustive(&terms, weighting, &lens, 10)))
        });
    }
    g.finish();
}

fn bench_merges(c: &mut Criterion) {
    let a = PostingList::from_sorted((0..20_000u32).map(|i| DocId(i * 2)).collect());
    let b_list = PostingList::from_sorted((0..20_000u32).map(|i| DocId(i * 3)).collect());
    let mut g = c.benchmark_group("merge");
    g.throughput(Throughput::Elements((a.len() + b_list.len()) as u64));
    g.bench_function("union", |b| b.iter(|| black_box(a.union(&b_list))));
    g.bench_function("intersect", |b| b.iter(|| black_box(a.intersect(&b_list))));
    g.bench_function("difference", |b| b.iter(|| black_box(a.difference(&b_list))));
    g.finish();
}

fn bench_buckets(c: &mut Criterion) {
    let mut g = c.benchmark_group("bucket");
    g.bench_function("insert_small_lists", |b| {
        b.iter_batched(
            || BucketStore::new(64, 500).expect("store"),
            |mut store| {
                for i in 0..500u64 {
                    let list =
                        PostingList::from_sorted(vec![DocId(i as u32), DocId(i as u32 + 1)]);
                    black_box(store.insert(WordId(i + 1), &list).unwrap());
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("serialize_bucket", |b| {
        let mut store = BucketStore::new(1, 2000).expect("store");
        for i in 0..200u64 {
            let docs: Vec<DocId> = (0..8u32).map(|j| DocId(i as u32 * 10 + j)).collect();
            store.insert(WordId(i + 1), &PostingList::from_sorted(docs)).unwrap();
        }
        b.iter(|| black_box(store.serialize_bucket(0, 32 * 1024).unwrap()))
    });
    g.finish();
}

fn bench_allocators(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocator");
    fn churn(alloc: &mut dyn ExtentAllocator) {
        let mut held: Vec<(u64, u64)> = Vec::with_capacity(512);
        let mut state = 0xabcdefu64;
        for _ in 0..1000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !state.is_multiple_of(3) || held.is_empty() {
                let want = 1 + (state >> 33) % 16;
                if let Ok(s) = alloc.alloc(want) {
                    held.push((s, want));
                }
            } else {
                let idx = ((state >> 17) as usize) % held.len();
                let (s, l) = held.swap_remove(idx);
                alloc.free(s, l).unwrap();
            }
        }
        for (s, l) in held {
            alloc.free(s, l).unwrap();
        }
    }
    g.bench_function("first_fit_churn", |b| {
        b.iter_batched(
            || FreeList::new(1 << 20, FitStrategy::FirstFit),
            |mut a| churn(&mut a),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("best_fit_churn", |b| {
        b.iter_batched(
            || FreeList::new(1 << 20, FitStrategy::BestFit),
            |mut a| churn(&mut a),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("buddy_churn", |b| {
        b.iter_batched(|| BuddyAllocator::new(20), |mut a| churn(&mut a), BatchSize::SmallInput)
    });
    g.finish();
}

fn bench_coalescing(c: &mut Criterion) {
    let ops: Vec<IoOp> = (0..10_000u64)
        .map(|i| IoOp {
            kind: OpKind::Write,
            disk: (i % 8) as u16,
            start: (i / 8) * 2,
            blocks: 2,
            payload: Payload::LongList { word: i, postings: 100 },
        })
        .collect();
    let mut g = c.benchmark_group("exercise");
    g.throughput(Throughput::Elements(ops.len() as u64));
    g.bench_function("coalesce_10k_ops", |b| b.iter(|| black_box(coalesce_batch(&ops, 8, 128))));
    g.finish();
}

criterion_group!(
    benches,
    bench_zipf,
    bench_lexer,
    bench_codecs,
    bench_codec_streams,
    bench_ranked_topk,
    bench_merges,
    bench_buckets,
    bench_allocators,
    bench_coalescing
);
criterion_main!(benches);
