//! Functional tests for the segmented store, run without a log: seals,
//! merges, read equivalence with the in-place engine, and format
//! integrity.

use invidx_core::{DocId, DualIndex, EngineKind, IndexConfig, WordId};
use invidx_disk::{sparse_array, Payload};
use invidx_segment::DurableSegmentedIndex;

fn config(l0_budget: u64, fanout: u32) -> IndexConfig {
    IndexConfig { engine: EngineKind::Segmented { l0_budget, fanout }, ..IndexConfig::small() }
}

fn in_place_config() -> IndexConfig {
    IndexConfig::small()
}

/// Deterministic synthetic corpus: doc d contains word w iff d % (w+1) == 0
/// over a small vocabulary, so posting lists have very different lengths.
fn words_of(doc: u32, vocab: u64) -> Vec<WordId> {
    (0..vocab).filter(|w| (doc as u64).is_multiple_of(w + 1)).map(|w| WordId(w + 1)).collect()
}

fn drive(ix: &mut DurableSegmentedIndex, docs: std::ops::Range<u32>, batch: u32) {
    for chunk_start in docs.clone().step_by(batch as usize) {
        for d in chunk_start..(chunk_start + batch).min(docs.end) {
            ix.insert_document(DocId(d), words_of(d, 24)).unwrap();
        }
        ix.flush().unwrap();
    }
}

#[test]
fn seals_fire_when_l0_crosses_budget() {
    let mut ix = DurableSegmentedIndex::without_log(sparse_array(2, 200_000, 256), config(4096, 4)).unwrap();
    drive(&mut ix, 1..400, 40);
    let stats = ix.stats();
    assert!(stats.seals > 0, "no seal at budget 4096: {stats:?}");
    assert!(stats.segments > 0);
    assert!(stats.l0_bytes < 4096 * 4, "L0 should reset after seals");
    ix.verify_segments().unwrap();
}

#[test]
fn merges_keep_levels_under_fanout() {
    let mut ix = DurableSegmentedIndex::without_log(sparse_array(2, 400_000, 256), config(2048, 3)).unwrap();
    ix.set_merge_rate(0); // no rate limit: levels must stay < fanout
    drive(&mut ix, 1..800, 25);
    let stats = ix.stats();
    assert!(stats.merges > 0, "expected merges: {stats:?}");
    for (level, count, _) in &stats.levels {
        assert!(*count < 3, "level {level} holds {count} segments, fanout 3: {stats:?}");
    }
    assert!(
        stats.write_amplification(256) >= 1.0,
        "write amp must count rewrites: {stats:?}"
    );
    ix.verify_segments().unwrap();
}

#[test]
fn rate_limit_defers_but_eventually_drains() {
    let mut ix = DurableSegmentedIndex::without_log(sparse_array(2, 400_000, 256), config(2048, 3)).unwrap();
    ix.set_merge_rate(16); // absurdly small: every merge deferred
    drive(&mut ix, 1..200, 25);
    let throttled = ix.stats();
    ix.set_merge_rate(0);
    ix.tick().unwrap();
    let drained = ix.stats();
    assert!(drained.merges >= throttled.merges);
    for (level, count, _) in &drained.levels {
        assert!(*count < 3, "level {level}: {count} segments after drain");
    }
}

#[test]
fn postings_match_in_place_twin_with_deletes() {
    let mut seg = DurableSegmentedIndex::without_log(sparse_array(2, 400_000, 256), config(2048, 3)).unwrap();
    let mut flat = DualIndex::create(sparse_array(2, 400_000, 256), in_place_config()).unwrap();
    for chunk in 0..12 {
        for d in (chunk * 50 + 1)..(chunk * 50 + 51) {
            seg.insert_document(DocId(d), words_of(d, 24)).unwrap();
            flat.insert_document(DocId(d), words_of(d, 24)).unwrap();
        }
        if chunk == 5 {
            for d in [3u32, 60, 120, 121, 250] {
                seg.delete_document(DocId(d));
                flat.delete_document(DocId(d));
            }
        }
        seg.flush().unwrap();
        flat.flush_batch().unwrap();
    }
    assert!(seg.stats().seals > 0, "twin test must exercise sealed reads");
    for w in 1..=24u64 {
        let a = seg.postings(WordId(w)).unwrap();
        let b = flat.postings(WordId(w)).unwrap();
        assert_eq!(a.docs(), b.docs(), "postings diverge for word {w}");
        assert_eq!(
            seg.doc_frequency(WordId(w)),
            flat.doc_frequency(WordId(w)),
            "df diverges for word {w}"
        );
    }
}

#[test]
fn segment_io_is_traced_with_segment_payload() {
    let mut ix = DurableSegmentedIndex::without_log(sparse_array(2, 200_000, 256), config(2048, 4)).unwrap();
    ix.inner().array().start_trace();
    drive(&mut ix, 1..300, 30);
    let trace = ix.inner().array().take_trace();
    let seg_writes = trace
        .count(|op| matches!(op.payload, Payload::Segment { .. }) && op.kind == invidx_disk::OpKind::Write);
    assert!(seg_writes > 0, "segment writes must appear in the Figure-6 trace");
    // The text grammar round-trips segment ops.
    let parsed = invidx_disk::IoTrace::from_text(&trace.to_text()).unwrap();
    assert_eq!(parsed, trace);
}

#[test]
fn sealed_reads_go_through_the_block_cache() {
    let cfg = IndexConfig {
        cache_blocks: 4096,
        engine: EngineKind::Segmented { l0_budget: 2048, fanout: 4 },
        ..IndexConfig::small()
    };
    let mut ix = DurableSegmentedIndex::without_log(sparse_array(2, 200_000, 256), cfg).unwrap();
    drive(&mut ix, 1..300, 30);
    assert!(ix.stats().segments > 0);
    // First read warms the cache, second must hit.
    ix.postings(WordId(1)).unwrap();
    let before = ix.inner().block_cache().unwrap().stats();
    ix.postings(WordId(1)).unwrap();
    let after = ix.inner().block_cache().unwrap().stats();
    assert!(after.hits > before.hits, "repeat sealed read should hit cache");
}

#[test]
fn merge_frees_input_extents() {
    let mut ix = DurableSegmentedIndex::without_log(sparse_array(2, 400_000, 256), config(2048, 2)).unwrap();
    ix.set_merge_rate(0);
    drive(&mut ix, 1..600, 25);
    let stats = ix.stats();
    assert!(stats.merges > 0);
    // Everything allocated is reachable: used blocks ≈ live segments +
    // L0 + metadata. If merge inputs leaked, usage would exceed live
    // segment blocks by far more than the L0/meta footprint.
    let used: u64 = ix
        .inner()
        .array()
        .per_disk_usage()
        .iter()
        .map(|(free, total)| total - free)
        .sum();
    let bs = ix.inner().array().block_size() as u64;
    let meta_allowance = 2_000u64; // bucket stripes, directory, block 0
    assert!(
        used <= stats.segment_blocks + stats.l0_bytes / bs + meta_allowance,
        "used {used} blocks vs live {} — merge inputs leaked?",
        stats.segment_blocks
    );
}

/// Compressed segments must serve bit-identical postings to plain ones
/// across seals and merges, while storing strictly fewer payload bytes.
#[test]
fn compressed_segments_match_plain_twin() {
    use invidx_core::PostingsCodec;
    for codec in [PostingsCodec::VarintDelta, PostingsCodec::BitPacked] {
        let cfg = IndexConfig { codec, ..config(2048, 3) };
        let mut packed = DurableSegmentedIndex::without_log(sparse_array(2, 400_000, 256), cfg).unwrap();
        let mut plain = DurableSegmentedIndex::without_log(sparse_array(2, 400_000, 256), config(2048, 3)).unwrap();
        packed.set_merge_rate(0);
        plain.set_merge_rate(0);
        for chunk in 0..12 {
            for d in (chunk * 50 + 1)..(chunk * 50 + 51) {
                packed.insert_document(DocId(d), words_of(d, 24)).unwrap();
                plain.insert_document(DocId(d), words_of(d, 24)).unwrap();
            }
            if chunk == 4 {
                for d in [7u32, 24, 100, 199, 200] {
                    packed.delete_document(DocId(d));
                    plain.delete_document(DocId(d));
                }
            }
            packed.flush().unwrap();
            plain.flush().unwrap();
        }
        let (ps, fs) = (packed.stats(), plain.stats());
        assert!(ps.seals > 0 && ps.merges > 0, "codec {codec}: need tiers: {ps:?}");
        assert_eq!(ps.seals, fs.seals, "codec {codec}: seal counts diverge");
        assert_eq!(ps.merges, fs.merges, "codec {codec}: merge counts diverge");
        for w in 1..=24u64 {
            assert_eq!(
                packed.postings(WordId(w)).unwrap().docs(),
                plain.postings(WordId(w)).unwrap().docs(),
                "codec {codec}: postings diverge for word {w}"
            );
            assert_eq!(packed.doc_frequency(WordId(w)), plain.doc_frequency(WordId(w)));
        }
        packed.verify_segments().unwrap();
        assert!(
            ps.segment_blocks < fs.segment_blocks,
            "codec {codec}: compressed segments should occupy fewer blocks \
             ({} vs {})",
            ps.segment_blocks,
            fs.segment_blocks
        );
    }
}

/// `EngineKind::InPlace` is the store with no seal budget: however large
/// L0 grows it never seals, and a forced seal is refused.
#[test]
fn in_place_engine_kind_never_seals() {
    let mut ix = DurableSegmentedIndex::without_log(sparse_array(2, 200_000, 256), in_place_config()).unwrap();
    drive(&mut ix, 1..400, 40);
    let stats = ix.stats();
    assert_eq!((stats.seals, stats.segments, stats.generation), (0, 0, 0), "{stats:?}");
    assert!(stats.l0_bytes > 4096, "L0 holds everything: {stats:?}");
    assert!(ix.seal_now().is_err());
    assert_eq!(ix.stats().segments, 0);
}
