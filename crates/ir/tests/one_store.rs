//! One store, with or without a seal budget: [`EngineKind::InPlace`] is
//! the segmented store whose L0 never seals. These tests pin what that
//! must not change — every byte each kind writes to its store directory —
//! and the rules of state that replaced the old type distinction: a
//! manifest only when the store can seal, sweep only while no segment is
//! sealed, and a typed error for opening a segmented store as in-place.

use invidx_core::index::{EngineKind, IndexConfig};
use invidx_core::types::{DocId, IndexError};
use invidx_durable::{DurableError, DurableOptions, StoreGeometry};
use invidx_ir::{DurableEngine, EngineQuery};
use std::path::{Path, PathBuf};

fn geom() -> StoreGeometry {
    StoreGeometry { disks: 2, blocks_per_disk: 4_000, block_size: 256 }
}

fn opts() -> DurableOptions {
    DurableOptions { checkpoint_every: 3, fsync_wal: false, ..Default::default() }
}

fn segmented(l0_budget: u64) -> IndexConfig {
    IndexConfig { engine: EngineKind::Segmented { l0_budget, fanout: 2 }, ..IndexConfig::small() }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("invidx-one-store-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `n` deterministic documents of alphabetic two-syllable words (the
/// lexer drops tokens with digits), seeded by `seed`.
fn docs(seed: u64, n: usize) -> Vec<String> {
    const SYLLABLES: [&str; 8] = ["ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo"];
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..n)
        .map(|_| {
            let words = 6 + next() % 10;
            (0..words)
                .map(|_| format!("{}{}", SYLLABLES[next() % 8], SYLLABLES[next() % 8]))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn add_batch(e: &mut DurableEngine, seed: u64, n: usize) {
    let texts = docs(seed, n);
    let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
    e.add_documents(&texts).unwrap();
}

/// Answers that must survive a reopen unchanged.
fn answers(e: &DurableEngine) -> Vec<Vec<DocId>> {
    ["kalo", "mine or rusa", "tivo and kaka", "sasa or vovo or lolo"]
        .iter()
        .map(|q| e.execute(&EngineQuery::boolean(q)).unwrap().docs().unwrap().docs().to_vec())
        .collect()
}

/// 64-bit FNV-1a. Not CRC32: a file that ends in its own CRC32 (the
/// checkpoint, the manifest) has the same CRC32 whatever its contents.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

type Listing = Vec<(String, u64, u64)>;

/// Every file in the store directory as `(name, length, FNV-1a)`, sorted.
fn listing(dir: &Path) -> Listing {
    let mut files: Listing = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let bytes = std::fs::read(entry.path()).unwrap();
            (entry.file_name().to_string_lossy().into_owned(), bytes.len() as u64, fnv1a(&bytes))
        })
        .collect();
    files.sort();
    files
}

fn assert_files(dir: &Path, want: &[(&str, u64, u64)], when: &str) {
    let got = listing(dir);
    let rendered: String = got
        .iter()
        .map(|(name, len, hash)| format!("    ({name:?}, {len}, 0x{hash:016x}),\n"))
        .collect();
    let got: Vec<(&str, u64, u64)> = got.iter().map(|(n, l, h)| (n.as_str(), *l, *h)).collect();
    assert_eq!(got, want, "{when}: store files differ; this run wrote\n{rendered}");
}

/// The golden op stream: batches with deletes, an explicit checkpoint,
/// compact and rebalance, then (in-place) a sweep, a last batch, and a
/// drop without a checkpoint; reopen recovers by replay and takes one
/// more batch. The store directory is compared at both ends with bytes
/// captured from the two-layout engine this store replaced.
fn golden_run(
    name: &str,
    config: IndexConfig,
    before_drop: &[(&str, u64, u64)],
    after: &[(&str, u64, u64)],
) {
    let dir = tmpdir(name);
    let mut e = DurableEngine::create(&dir, config, geom(), opts()).unwrap();
    for b in 0..6u64 {
        add_batch(&mut e, b, 12);
        if b == 2 {
            e.delete(DocId(3));
            e.delete(DocId(17));
        }
        if b == 4 {
            e.delete(DocId(30));
        }
        e.flush().unwrap();
    }
    e.checkpoint().unwrap();
    e.compact().unwrap();
    e.rebalance(24, 60).unwrap();
    if let Some(stats) = e.segment_stats() {
        assert!(
            stats.seals >= 1 && stats.merges >= 1,
            "the segmented run must seal and merge: {stats:?}"
        );
    } else {
        assert!(e.sweep().unwrap().postings_removed > 0);
    }
    add_batch(&mut e, 6, 3);
    e.flush().unwrap();
    e.delete(DocId(40));
    e.flush().unwrap();
    assert!(e.index().wal_size() > 0, "the drop must leave records to replay");
    let want = answers(&e);
    assert_files(&dir, before_drop, "before the drop");
    drop(e);

    let mut e = DurableEngine::open(&dir, config, opts()).unwrap();
    assert!(e.recovery().unwrap().replayed_records > 0);
    assert_eq!(answers(&e), want);
    add_batch(&mut e, 7, 5);
    e.flush().unwrap();
    assert_files(&dir, after, "after reopen and one more batch");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn in_place_store_writes_the_same_bytes() {
    // No MANIFEST, and a checkpoint blob with no SEGCKPT1 wrapper.
    let before_drop = [
        ("disk-0.dat", 1024000, 0xc3af715835615838),
        ("disk-1.dat", 1024000, 0x25e9baca6a882add),
        ("index.ckpt", 21699, 0xf0052b68b26eef9f),
        ("wal.log", 702, 0x57b1c1c4ad009c55),
    ];
    let after = [
        ("disk-0.dat", 1024000, 0xa86a724c62bf822d),
        ("disk-1.dat", 1024000, 0x41251a926305f199),
        ("index.ckpt", 21975, 0x96731f4d29190abd),
        ("wal.log", 0, 0xcbf29ce484222325),
    ];
    golden_run("golden-inplace", IndexConfig::small(), &before_drop, &after);
}

#[test]
fn segmented_store_writes_the_same_bytes() {
    let before_drop = [
        ("MANIFEST", 3170, 0x99d233a172d92210),
        ("disk-0.dat", 1024000, 0x091e5647e44ad437),
        ("disk-1.dat", 1024000, 0xc595f144fc12d302),
        ("index.ckpt", 24309, 0xb7d901a8f5ed9154),
        ("wal.log", 37, 0x557517f63057f341),
    ];
    let after = [
        ("MANIFEST", 3170, 0x99d233a172d92210),
        ("disk-0.dat", 1024000, 0x5e82da81f8e785fa),
        ("disk-1.dat", 1024000, 0x310b3b1776c74f7c),
        ("index.ckpt", 24309, 0xb7d901a8f5ed9154),
        ("wal.log", 1004, 0xd1bc8a7a376725d0),
    ];
    golden_run("golden-segmented", segmented(600), &before_drop, &after);
}

/// Documents matching the first word of `text`.
fn first_word_hits(e: &DurableEngine, text: &str) -> Vec<DocId> {
    let word = text.split(' ').next().unwrap();
    e.execute(&EngineQuery::boolean(word)).unwrap().docs().unwrap().docs().to_vec()
}

/// Sweep is a rule of state: a store with a seal budget sweeps while no
/// segment is sealed, refuses once one is (with the old refusal text),
/// and recovers from either state.
#[test]
fn segmented_store_sweeps_until_its_first_seal() {
    let dir = tmpdir("sweep-rule");
    let config = segmented(4096);
    let first = docs(1, 4);
    let mut e = DurableEngine::create(&dir, config, geom(), opts()).unwrap();
    add_batch(&mut e, 1, 4);
    e.delete(DocId(2));
    e.flush().unwrap();
    assert_eq!(e.segment_stats().unwrap().segments, 0);
    assert!(e.sweep().unwrap().postings_removed > 0);
    assert_eq!(e.index().inner().pending_deletions(), 0);
    let swept = answers(&e);
    drop(e);

    // The sweep replays from the WAL; the store is still unsealed.
    let mut e = DurableEngine::open(&dir, config, opts()).unwrap();
    assert_eq!(answers(&e), swept);
    assert_eq!(e.index().inner().pending_deletions(), 0);
    assert!(!first_word_hits(&e, &first[1]).contains(&DocId(2)));
    add_batch(&mut e, 2, 60);
    e.delete(DocId(3));
    e.flush().unwrap();
    assert_eq!(e.segment_stats().unwrap().segments, 1, "the 60-document batch seals");
    let refused = e.sweep().unwrap_err();
    let text = "the segmented engine has no sweep; deletions are purged by compaction";
    assert!(
        matches!(&refused, DurableError::Index(IndexError::InvalidConfig(m)) if m == text),
        "{refused}"
    );
    let sealed = answers(&e);
    drop(e);

    let e = DurableEngine::open(&dir, config, opts()).unwrap();
    assert_eq!(e.segment_stats().unwrap().segments, 1);
    assert_eq!(answers(&e), sealed);
    assert!(!first_word_hits(&e, &first[1]).contains(&DocId(2)));
    assert!(!first_word_hits(&e, &first[2]).contains(&DocId(3)));
    std::fs::remove_dir_all(&dir).ok();
}

/// A store with a manifest cannot be opened as one that never seals: the
/// error is typed and names the requested kind, and it leaves the store
/// as it was.
#[test]
fn a_store_with_a_manifest_does_not_open_in_place() {
    let dir = tmpdir("kind-mismatch");
    let mut e = DurableEngine::create(&dir, segmented(4096), geom(), opts()).unwrap();
    add_batch(&mut e, 1, 4);
    e.flush().unwrap();
    drop(e);

    let Err(refused) = DurableEngine::open(&dir, IndexConfig::small(), opts()) else {
        panic!("a segmented store opened as in-place");
    };
    assert!(
        matches!(
            refused,
            DurableError::Index(IndexError::EngineMismatch { requested: EngineKind::InPlace })
        ),
        "{refused}"
    );
    assert!(refused.to_string().contains("InPlace"), "{refused}");
    let e = DurableEngine::open(&dir, segmented(4096), opts()).unwrap();
    assert_eq!(e.total_docs(), 4);
    std::fs::remove_dir_all(&dir).ok();
}
