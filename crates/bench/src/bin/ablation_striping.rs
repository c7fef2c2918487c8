//! Ablation: striping long lists across disks. The paper asks (§1): "If
//! multiple disks are available, can we stripe large lists across multiple
//! disks to improve performance?" and notes that the fill style's extents
//! "can be written to disk and read in parallel (e.g., with a disk array)"
//! (§5.4).
//!
//! Measured here: the time to read ONE long list of growing size under
//! whole (one contiguous chunk, one disk: one seek, serial transfer) vs
//! fill with several extent sizes (many seeks, but 8-way parallel
//! transfer). Expected: whole wins for short lists (seek-dominated); fill
//! overtakes once the serial transfer time of a single disk exceeds the
//! extra seeks amortized over all disks.

use invidx_bench::emit_table;
use invidx_core::longlist::{LongConfig, LongStore};
use invidx_core::policy::{Alloc, Limit, Policy, Style};
use invidx_core::postings::PostingList;
use invidx_core::types::{DocId, WordId};
use invidx_disk::{exercise, sparse_array, DiskProfile, ExerciseConfig};
use invidx_sim::TextTable;

const BLOCK_SIZE: usize = 4096;
const BLOCK_POSTINGS: u64 = 100;
const DISKS: u16 = 8;

/// Build one list of `postings` postings under `policy` and return the
/// modeled seconds to read it back (a single query batch: per-disk
/// parallel service).
fn read_time(policy: Policy, postings: u32) -> (f64, u64) {
    let mut array = sparse_array(DISKS, 2_000_000, BLOCK_SIZE);
    let mut store =
        LongStore::new(LongConfig {
        block_postings: BLOCK_POSTINGS,
        policy,
        codec: Default::default(),
    });
    let word = WordId(1);
    // Load in ten updates so fill actually distributes across disks.
    let step = (postings / 10).max(1);
    let mut start = 0u32;
    while start < postings {
        let end = (start + step).min(postings);
        let list = PostingList::from_sorted((start..end).map(DocId).collect());
        store.append(&mut array, word, &list).expect("append");
        store.free_released(&mut array).expect("release");
        start = end;
    }
    array.start_trace();
    let got = store.read_list(&array, word).expect("read");
    assert_eq!(got.len(), postings as usize);
    let mut trace = array.take_trace();
    trace.end_batch();
    let cfg = ExerciseConfig {
        profile: DiskProfile::seagate_1994(BLOCK_SIZE),
        disks: DISKS,
        buffer_blocks: 1 << 20, // queries may read a whole chunk at once
    };
    let ops = trace.ops.len() as u64;
    (exercise(&trace, &cfg).total_seconds(), ops)
}

fn main() {
    let policies = vec![
        ("whole z", Policy::new(Style::Whole, Limit::Fits, Alloc::Constant { k: 0 })),
        ("fill e=4", Policy::new(Style::Fill { extent_blocks: 4 }, Limit::Fits, Alloc::Constant { k: 0 })),
        ("fill e=16", Policy::new(Style::Fill { extent_blocks: 16 }, Limit::Fits, Alloc::Constant { k: 0 })),
        ("fill e=64", Policy::new(Style::Fill { extent_blocks: 64 }, Limit::Fits, Alloc::Constant { k: 0 })),
    ];
    let mut rows = Vec::new();
    for postings in [1_000u32, 10_000, 100_000, 1_000_000] {
        for (name, policy) in &policies {
            let (secs, ops) = read_time(*policy, postings);
            rows.push(vec![
                postings.to_string(),
                name.to_string(),
                ops.to_string(),
                format!("{:.1}", secs * 1e3),
            ]);
        }
    }
    emit_table(&TextTable {
        id: "ablation_striping".into(),
        title: format!(
            "Single-list read latency: contiguous vs striped extents ({DISKS} disks)"
        ),
        headers: vec![
            "Postings".into(),
            "Layout".into(),
            "Read ops".into(),
            "Read ms".into(),
        ],
        rows,
    });
}
