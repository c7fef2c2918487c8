//! What the segmented store ([`crate::DurableSegmentedIndex`]) reports
//! and the two writers it seals and merges with.

use crate::error::Result;
use crate::format::{self, SegmentMeta, SegmentWriter};
use invidx_core::{DualIndex, PostingList, WordId};
use invidx_disk::DiskArray;
use std::collections::BTreeMap;

/// A point-in-time summary of the tiered store, for `stats` surfaces and
/// the ablation harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Live sealed segments.
    pub segments: usize,
    /// `(level, segment count, blocks)` per live level, ascending.
    pub levels: Vec<(u32, usize, u64)>,
    /// Blocks held by live segments.
    pub segment_blocks: u64,
    /// Postings held by live segments.
    pub segment_postings: u64,
    /// Current L0 stored footprint in bytes.
    pub l0_bytes: u64,
    /// Seals performed over the store's lifetime.
    pub seals: u64,
    /// Merges performed over the store's lifetime.
    pub merges: u64,
    /// Cumulative segment bytes written (seals + merges) — the numerator
    /// of write amplification.
    pub bytes_written: u64,
    /// Manifest generation.
    pub generation: u64,
}

impl SegmentStats {
    /// Write amplification: segment bytes written per byte currently
    /// live in segments. 1.0 until the first merge rewrites data.
    pub fn write_amplification(&self, block_size: usize) -> f64 {
        let live = self.segment_blocks * block_size as u64;
        if live == 0 {
            return 0.0;
        }
        self.bytes_written as f64 / live as f64
    }
}

/// Collect L0's stored postings (buckets + long lists, raw — no deletion
/// filter) into a seal-ready writer. `None` when L0 stores nothing.
pub(crate) fn build_seal_writer(l0: &DualIndex, id: u64) -> Result<Option<SegmentWriter>> {
    let mut words: Vec<WordId> = l0.directory().words();
    words.extend(l0.buckets().iter().map(|(w, _)| w));
    words.sort_unstable();
    words.dedup();
    if words.is_empty() {
        return Ok(None);
    }
    let mut writer = SegmentWriter::new(id, 0, l0.config().codec);
    for word in words {
        let list = l0.stored_postings(word)?;
        writer.push(word, list.docs())?;
    }
    if writer.is_empty() {
        return Ok(None);
    }
    Ok(Some(writer))
}

/// Union `inputs` run-by-run into a writer for a segment at
/// `output_level`. Pure append-only set union: deletions stay filtered
/// at read time, so doc frequencies are preserved exactly.
pub(crate) fn merge_writer(
    inputs: &[SegmentMeta],
    id: u64,
    output_level: u32,
    array: &DiskArray,
) -> Result<SegmentWriter> {
    let mut map: BTreeMap<WordId, PostingList> = BTreeMap::new();
    for m in inputs {
        for t in &m.terms {
            let run = format::read_term(m, array, t.word)?;
            match map.entry(t.word) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(run);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let merged = o.get().union(&run);
                    o.insert(merged);
                }
            }
        }
    }
    let codec = inputs.first().map(|m| m.codec).unwrap_or_default();
    let mut writer = SegmentWriter::new(id, output_level, codec);
    for (word, list) in &map {
        writer.push(*word, list.docs())?;
    }
    Ok(writer)
}
