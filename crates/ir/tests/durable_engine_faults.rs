//! Crash → recover → query: fault-injected end-to-end tests for
//! [`DurableEngine`]. A simulated crash at the WAL commit point must roll
//! the engine back to the last committed batch — index postings, stored
//! document texts, vocabulary, and document-id assignment all consistent —
//! and a crash during checkpointing must leave the previous checkpoint +
//! WAL replay path intact.

use invidx_core::index::IndexConfig;
use invidx_core::types::DocId;
use invidx_durable::{DurableOptions, Fault, FaultInjector, FaultPoint, StoreGeometry};
use invidx_ir::{DurableEngine, EngineQuery};
use std::path::PathBuf;

fn geom() -> StoreGeometry {
    StoreGeometry { disks: 2, blocks_per_disk: 20_000, block_size: 256 }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("invidx-deng-it-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const BATCH_1: [&str; 2] = ["the cat sat on the mat", "the dog chased the cat"];
const BATCH_2: [&str; 2] = ["a mouse ran past the sleeping dog", "the cat watched the mouse"];
const BATCH_3: [&str; 2] = ["an owl arrived at midnight", "the owl and the cat stared"];

/// Documents matching a boolean query string.
fn matches(e: &DurableEngine, query: &str) -> Vec<DocId> {
    e.execute(&EngineQuery::boolean(query)).unwrap().docs().unwrap().docs().to_vec()
}

/// Assert the engine reflects exactly the first two committed batches.
fn verify_two_batches(e: &mut DurableEngine) {
    assert_eq!(e.total_docs(), 4);
    assert_eq!(matches(e, "cat").len(), 3);
    assert_eq!(matches(e, "cat and mouse").len(), 1);
    assert!(matches(e, "owl").is_empty(), "uncommitted batch leaked");
    assert_eq!(e.word_id("owl"), None, "uncommitted vocabulary leaked");
    for (i, text) in BATCH_1.iter().chain(&BATCH_2).enumerate() {
        let doc = DocId(i as u32 + 1);
        assert_eq!(e.document(doc).unwrap().as_deref(), Some(*text), "doc {doc}");
    }
    assert_eq!(e.document(DocId(5)).unwrap(), None);
    let near = e.execute(&EngineQuery::near("cat", "mouse", 5)).unwrap();
    assert_eq!(near.docs().unwrap().len(), 1);
}

/// The full crash → recover → query loop: kill the WAL fsync of batch 3,
/// recover, check batch-2 state, then keep living with the store.
#[test]
fn crash_at_commit_point_rolls_back_to_last_batch() {
    let dir = tmpdir("commit");
    let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
    let inj = FaultInjector::new();
    let mut e = DurableEngine::create_with(&dir, IndexConfig::small(), geom(), opts, inj.clone())
        .unwrap();
    for t in BATCH_1 {
        e.add_document(t).unwrap();
    }
    e.flush().unwrap();
    for t in BATCH_2 {
        e.add_document(t).unwrap();
    }
    e.flush().unwrap();
    // Batch 3 dies at the commit point: logged but never fsynced.
    for t in BATCH_3 {
        e.add_document(t).unwrap();
    }
    inj.arm(Fault::at(FaultPoint::WalFsync));
    assert!(e.flush().unwrap_err().is_injected());
    drop(e);
    inj.disarm();

    let mut e = DurableEngine::open(&dir, IndexConfig::small(), opts).unwrap();
    let info = *e.recovery().unwrap();
    assert_eq!(info.replayed_records, 2);
    verify_two_batches(&mut e);

    // Life goes on: the next document takes the id the lost batch had used.
    let d = e.add_document("an owl arrived at midnight").unwrap();
    assert_eq!(d, DocId(5));
    e.flush().unwrap();
    assert_eq!(matches(&e, "owl").len(), 1);

    // One more clean reopen for good measure.
    drop(e);
    let e = DurableEngine::open(&dir, IndexConfig::small(), opts).unwrap();
    assert_eq!(e.total_docs(), 5);
    assert_eq!(matches(&e, "owl or mouse").len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash while writing the checkpoint file must leave the previous
/// checkpoint + WAL intact: recovery replays everything committed.
#[test]
fn crash_during_checkpoint_keeps_wal_replay_path() {
    let dir = tmpdir("ckpt");
    let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
    let inj = FaultInjector::new();
    let mut e = DurableEngine::create_with(&dir, IndexConfig::small(), geom(), opts, inj.clone())
        .unwrap();
    for t in BATCH_1 {
        e.add_document(t).unwrap();
    }
    e.flush().unwrap();
    for t in BATCH_2 {
        e.add_document(t).unwrap();
    }
    e.flush().unwrap();
    inj.arm(Fault::at(FaultPoint::CheckpointWrite).after(64));
    assert!(e.checkpoint().unwrap_err().is_injected());
    drop(e);
    inj.disarm();

    let mut e = DurableEngine::open(&dir, IndexConfig::small(), opts).unwrap();
    let info = *e.recovery().unwrap();
    assert_eq!(info.checkpoint_batch, 0, "batch-0 checkpoint still rules");
    assert_eq!(info.replayed_records, 2);
    verify_two_batches(&mut e);

    // A clean checkpoint now embeds the engine metadata; the next recovery
    // restores from it without touching the (empty) WAL.
    e.checkpoint().unwrap();
    assert_eq!(e.index().wal_size(), 0);
    drop(e);
    let mut e = DurableEngine::open(&dir, IndexConfig::small(), opts).unwrap();
    assert_eq!(e.recovery().unwrap().replayed_records, 0);
    verify_two_batches(&mut e);
    std::fs::remove_dir_all(&dir).ok();
}

/// Mixed history: checkpoint mid-stream, more batches, then a crash while
/// applying — recovery = checkpoint meta + replay of the committed tail.
///
/// The apply phase only touches the device for long-list appends (short
/// lists live in in-memory buckets until the next checkpoint), so the
/// committed-but-crashed batch must hit a word already promoted to the
/// long store. We promote one by overflowing its bucket: `FILLER_DOCS`
/// documents sharing the word "filler" exceed the 40-unit bucket capacity
/// of [`IndexConfig::small`], so the batch-2 flush evicts it to the long
/// store, and batch 3's append to it is the device write the armed
/// [`FaultPoint::ApplyWrite`] intercepts.
#[test]
fn recovery_combines_checkpoint_meta_and_wal_replay() {
    const FILLER_DOCS: u32 = 45;
    let dir = tmpdir("mixed");
    let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
    let inj = FaultInjector::new();
    let mut e = DurableEngine::create_with(&dir, IndexConfig::small(), geom(), opts, inj.clone())
        .unwrap();
    for t in BATCH_1 {
        e.add_document(t).unwrap();
    }
    e.flush().unwrap();
    e.checkpoint().unwrap();
    for i in 0..FILLER_DOCS {
        e.add_document(&format!("filler entry {i}")).unwrap();
    }
    for t in BATCH_2 {
        e.add_document(t).unwrap();
    }
    e.flush().unwrap(); // committed in the WAL, past the checkpoint
    for t in BATCH_3 {
        e.add_document(t).unwrap();
    }
    e.add_document("one more filler entry").unwrap();
    // The crash hits the in-place apply: the record is committed, so the
    // batch must survive through replay.
    inj.arm(Fault::at(FaultPoint::ApplyWrite));
    e.flush().unwrap_err();
    assert_eq!(inj.fired(), Some(FaultPoint::ApplyWrite), "apply fault never struck");
    drop(e);
    inj.disarm();

    let e = DurableEngine::open(&dir, IndexConfig::small(), opts).unwrap();
    let info = *e.recovery().unwrap();
    assert_eq!(info.checkpoint_batch, 1);
    assert_eq!(info.replayed_records, 2, "batch 2 and the crashed-apply batch 3");
    let total = 2 + FILLER_DOCS as u64 + 2 + 2 + 1;
    assert_eq!(e.total_docs(), total);
    assert_eq!(matches(&e, "owl and cat").len(), 1);
    assert_eq!(matches(&e, "filler").len(), FILLER_DOCS as usize + 1);
    let owl_doc = DocId(2 + FILLER_DOCS + 2 + 2); // BATCH_3[1]'s id
    assert_eq!(e.document(owl_doc).unwrap().as_deref(), Some(BATCH_3[1]));
    assert!(e.word_id("owl").is_some());
    std::fs::remove_dir_all(&dir).ok();
}
