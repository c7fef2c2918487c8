//! The crash-consistency matrix: kill the durability pipeline at every
//! write site ([`FaultPoint::ALL`]), in every applicable failure mode,
//! then recover and prove the store holds *exactly* the last committed
//! batch — by diffing the full posting list of every word against an
//! independent model.

use invidx_core::{DocId, IndexConfig, PostingList, WordId};
use invidx_durable::{
    DurableIndex, DurableOptions, Fault, FaultInjector, FaultMode, FaultPoint, StoreGeometry,
};
use std::collections::BTreeSet;
use std::path::PathBuf;

const DOCS_PER_BATCH: u32 = 60;
const WORDS: u64 = 10;
/// Docs deleted while building batch 2 (they ride in record 2).
const DELETED: [u32; 2] = [3, 10];

fn geom() -> StoreGeometry {
    StoreGeometry { disks: 3, blocks_per_disk: 20_000, block_size: 256 }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("invidx-faults-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Word w appears in doc d iff d % w == 0 — deterministic and Zipf-ish.
fn insert_batch(ix: &mut DurableIndex, batch: u32) {
    let lo = (batch - 1) * DOCS_PER_BATCH + 1;
    let hi = batch * DOCS_PER_BATCH + 1;
    for d in lo..hi {
        let words = (1..=WORDS).filter(|w| (d as u64).is_multiple_of(*w)).map(WordId);
        ix.insert_document(DocId(d), words).unwrap();
    }
}

/// The model: expected postings for `word` after `batches` committed
/// batches (deletes apply from batch 2 on).
fn expected(word: u64, batches: u64) -> PostingList {
    let deleted: BTreeSet<u32> = if batches >= 2 { DELETED.into_iter().collect() } else { BTreeSet::new() };
    let hi = batches as u32 * DOCS_PER_BATCH;
    PostingList::from_sorted(
        (1..=hi)
            .filter(|d| (*d as u64).is_multiple_of(word) && !deleted.contains(d))
            .map(DocId)
            .collect(),
    )
}

fn verify_all_words(ix: &DurableIndex, batches: u64, tag: &str) {
    for w in 1..=WORDS {
        let got = ix.postings(WordId(w)).unwrap();
        let want = expected(w, batches);
        assert_eq!(
            got, want,
            "[{tag}] word {w} differs after recovery to batch {batches}: \
             got {} postings, want {}",
            got.len(),
            want.len()
        );
    }
    // And a word that never existed stays absent.
    assert!(ix.postings(WordId(999)).unwrap().is_empty(), "[{tag}] ghost word appeared");
}

/// Run the scenario: two committed batches, then batch 3 under an armed
/// fault (batch 3's flush also triggers the auto-checkpoint, so every
/// fault point has a write site to strike). Returns after proving the
/// recovered store matches the expected committed state AND accepts new
/// batches.
fn crash_and_recover(fault: Fault) {
    let tag = format!("{:?}-{:?}-{}", fault.point, fault.mode, fault.after);
    let dir = tmpdir(&tag);
    let inj = FaultInjector::new();
    let opts = DurableOptions { checkpoint_every: 3, ..Default::default() };
    let mut ix = DurableIndex::create_with(&dir, IndexConfig::small(), geom(), opts, inj.clone())
        .expect("create");

    insert_batch(&mut ix, 1);
    ix.flush().unwrap();
    for d in DELETED {
        ix.delete_document(DocId(d));
    }
    insert_batch(&mut ix, 2);
    ix.flush().unwrap();

    insert_batch(&mut ix, 3);
    inj.arm(fault);
    let err = ix.flush().expect_err(&format!("[{tag}] armed fault did not break the flush"));
    assert_eq!(
        inj.fired(),
        Some(fault.point),
        "[{tag}] flush failed ({err}) but not from the armed fault"
    );
    drop(ix);
    inj.disarm();

    // Recover. Faults before the WAL commit lose batch 3 entirely; faults
    // after it replay batch 3.
    let committed = if fault.point.before_commit() { 2 } else { 3 };
    let ix = DurableIndex::open_with(&dir, IndexConfig::small(), opts, inj.clone(), &mut ())
        .unwrap_or_else(|e| panic!("[{tag}] recovery failed: {e}"));
    assert_eq!(ix.batches(), committed, "[{tag}] wrong batch count after recovery");
    assert_eq!(inj.fired(), None, "[{tag}] injector fired during recovery");
    verify_all_words(&ix, committed, &tag);

    // The recovered store must keep working: commit another batch and
    // survive one more clean reopen.
    let mut ix = ix;
    insert_batch(&mut ix, committed as u32 + 1);
    ix.flush().unwrap_or_else(|e| panic!("[{tag}] post-recovery flush failed: {e}"));
    verify_all_words(&ix, committed + 1, &tag);
    drop(ix);
    let ix = DurableIndex::open(&dir, IndexConfig::small(), opts)
        .unwrap_or_else(|e| panic!("[{tag}] second recovery failed: {e}"));
    verify_all_words(&ix, committed + 1, &tag);
    drop(ix);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_at_wal_append_torn() {
    crash_and_recover(Fault::at(FaultPoint::WalAppend).after(5).mode(FaultMode::Torn));
}

#[test]
fn kill_at_wal_append_nothing_written() {
    crash_and_recover(Fault::at(FaultPoint::WalAppend).after(0).mode(FaultMode::Torn));
}

#[test]
fn kill_at_wal_append_lost_page_cache() {
    crash_and_recover(Fault::at(FaultPoint::WalAppend).after(64).mode(FaultMode::LoseUnsynced));
}

#[test]
fn kill_at_wal_append_corrupt_record() {
    crash_and_recover(Fault::at(FaultPoint::WalAppend).after(20).mode(FaultMode::CorruptByte));
}

#[test]
fn kill_at_wal_fsync() {
    crash_and_recover(Fault::at(FaultPoint::WalFsync));
}

#[test]
fn kill_at_first_apply_write() {
    crash_and_recover(Fault::at(FaultPoint::ApplyWrite).after(0));
}

#[test]
fn kill_mid_apply() {
    crash_and_recover(Fault::at(FaultPoint::ApplyWrite).after(1));
}

#[test]
fn kill_at_device_flush() {
    crash_and_recover(Fault::at(FaultPoint::DeviceFlush));
}

#[test]
fn kill_during_checkpoint_write() {
    crash_and_recover(Fault::at(FaultPoint::CheckpointWrite).after(100).mode(FaultMode::Torn));
}

#[test]
fn kill_during_checkpoint_write_corrupt() {
    crash_and_recover(Fault::at(FaultPoint::CheckpointWrite).after(40).mode(FaultMode::CorruptByte));
}

#[test]
fn kill_at_checkpoint_fsync() {
    crash_and_recover(Fault::at(FaultPoint::CheckpointFsync));
}

#[test]
fn kill_at_checkpoint_rename() {
    crash_and_recover(Fault::at(FaultPoint::CheckpointRename));
}

#[test]
fn kill_at_wal_truncate() {
    crash_and_recover(Fault::at(FaultPoint::WalTruncate));
}

/// Every fault point is exercised by the named tests above; this guards
/// against the matrix silently falling out of sync with the enum.
#[test]
fn matrix_covers_every_fault_point() {
    let covered = [
        FaultPoint::WalAppend,
        FaultPoint::WalFsync,
        FaultPoint::ApplyWrite,
        FaultPoint::DeviceFlush,
        FaultPoint::CheckpointWrite,
        FaultPoint::CheckpointFsync,
        FaultPoint::CheckpointRename,
        FaultPoint::WalTruncate,
    ];
    assert_eq!(covered, FaultPoint::ALL);
}

/// A crash while a *later* batch was being logged must not disturb state
/// already covered by a mid-stream checkpoint (restore-then-replay path,
/// not just restore).
#[test]
fn recovery_from_mid_stream_checkpoint_plus_replay() {
    let dir = tmpdir("midstream");
    let inj = FaultInjector::new();
    let opts = DurableOptions { checkpoint_every: 2, ..Default::default() };
    let mut ix =
        DurableIndex::create_with(&dir, IndexConfig::small(), geom(), opts, inj.clone()).unwrap();
    insert_batch(&mut ix, 1);
    ix.flush().unwrap();
    for d in DELETED {
        ix.delete_document(DocId(d));
    }
    insert_batch(&mut ix, 2);
    ix.flush().unwrap(); // auto-checkpoint at batch 2
    assert_eq!(ix.last_checkpoint_batch(), Some(2));
    insert_batch(&mut ix, 3);
    ix.flush().unwrap(); // logged past the checkpoint
    insert_batch(&mut ix, 4);
    inj.arm(Fault::at(FaultPoint::WalFsync));
    ix.flush().unwrap_err();
    drop(ix);
    inj.disarm();

    let ix = DurableIndex::open(&dir, IndexConfig::small(), opts).unwrap();
    let info = *ix.recovery().unwrap();
    assert_eq!(info.checkpoint_batch, 2);
    assert_eq!(info.replayed_records, 1, "batch 3 replays on top of the checkpoint");
    assert_eq!(ix.batches(), 3);
    verify_all_words(&ix, 3, "midstream");
    std::fs::remove_dir_all(&dir).ok();
}

/// Garbage appended to the WAL by outside forces is CRC-detected,
/// truncated, and never replayed.
#[test]
fn external_garbage_tail_is_truncated_not_replayed() {
    let dir = tmpdir("garbage");
    let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
    let mut ix = DurableIndex::create(&dir, IndexConfig::small(), geom(), opts).unwrap();
    insert_batch(&mut ix, 1);
    ix.flush().unwrap();
    drop(ix);
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let clean = bytes.len() as u64;
    bytes.extend_from_slice(&[0xAB; 37]); // torn header + junk
    std::fs::write(&wal, &bytes).unwrap();

    let ix = DurableIndex::open(&dir, IndexConfig::small(), opts).unwrap();
    let info = *ix.recovery().unwrap();
    assert_eq!(info.truncated_bytes, 37);
    assert_eq!(info.replayed_records, 1);
    assert_eq!(ix.batches(), 1);
    verify_all_words(&ix, 1, "garbage");
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), clean, "tail physically removed");
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupted checkpoint file must be reported as corruption, not
/// silently misread.
#[test]
fn corrupt_checkpoint_is_detected() {
    let dir = tmpdir("badckpt");
    let opts = DurableOptions::default();
    let mut ix = DurableIndex::create(&dir, IndexConfig::small(), geom(), opts).unwrap();
    insert_batch(&mut ix, 1);
    ix.flush().unwrap();
    ix.checkpoint().unwrap();
    drop(ix);
    let path = dir.join("index.ckpt");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let err = match DurableIndex::open(&dir, IndexConfig::small(), opts) {
        Err(e) => e,
        Ok(_) => panic!("corrupted checkpoint was accepted"),
    };
    assert!(
        err.to_string().contains("corrupt"),
        "expected a corruption error, got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Maintenance operations (sweep, compact, rebalance) under fire: a crash
/// right after the sweep's WAL commit must replay the sweep.
#[test]
fn sweep_replays_after_apply_crash() {
    let dir = tmpdir("sweepcrash");
    let inj = FaultInjector::new();
    let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
    let mut ix =
        DurableIndex::create_with(&dir, IndexConfig::small(), geom(), opts, inj.clone()).unwrap();
    insert_batch(&mut ix, 1);
    ix.flush().unwrap();
    for d in DELETED {
        ix.delete_document(DocId(d));
    }
    insert_batch(&mut ix, 2);
    ix.flush().unwrap();
    // The sweep rewrites long lists; kill its first device write.
    inj.arm(Fault::at(FaultPoint::ApplyWrite).after(0));
    ix.sweep().unwrap_err();
    assert_eq!(inj.fired(), Some(FaultPoint::ApplyWrite));
    drop(ix);
    inj.disarm();

    let ix = DurableIndex::open(&dir, IndexConfig::small(), opts).unwrap();
    assert_eq!(ix.batches(), 3, "sweep record committed, so recovery replays it");
    assert_eq!(ix.inner().pending_deletions(), 0, "sweep consumed the deletion filter");
    verify_all_words(&ix, 2, "sweepcrash");
    std::fs::remove_dir_all(&dir).ok();
}
