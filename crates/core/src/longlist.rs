//! Long-list storage: the paper's Figure 2 update algorithm.
//!
//! ```text
//! 1   if y <= Limit then
//! 2       UPDATE(M)                     update long list in-place
//! 3   else
//! 4       if Style = whole then
//! 5           b := READ(L)              read long list
//! 6           WRITE_RESERVED(M and b)   append and write with reserved space
//! 7       if Style = fill then
//! 8           WHILE (M not empty)
//! 9               WRITE(M, M)           write in-memory postings
//! 10      if Style = new then
//! 11          WRITE_RESERVED(M)         write with reserved space
//! ```
//!
//! where `y` is the in-memory list size, `Limit` is 0 or `z` (free space at
//! the end of the last chunk), and one consequence of lines 1–2 is that "an
//! in-memory inverted list is never split into two different chunks for an
//! in-place update".
//!
//! On-disk layout: "Each block of a long list contains postings for only
//! one word." A chunk of `B` blocks stores its postings packed
//! `BlockPosting` per block as fixed-width 4-byte doc ids; the directory
//! records how many postings each chunk holds, so no per-block header is
//! needed. `BlockPosting` "implicitly models the efficiency of the
//! compression algorithm applied to long lists" (§4.4).

use crate::codec::{self, PostingsCodec};
use crate::directory::{ChunkRef, Directory, LongEntry};
use crate::policy::{Limit, Policy, Style};
use crate::postings::{fixed, PostingList};
use crate::types::{DocId, IndexError, Result, WordId};
use invidx_disk::{DiskArray, IoOp, OpKind, Payload};

/// Configuration of the long-list store.
#[derive(Debug, Clone, Copy)]
pub struct LongConfig {
    /// Postings per block (Table 4's `BlockPosting`).
    pub block_postings: u64,
    /// The allocation policy in force.
    pub policy: Policy,
    /// How chunk bytes are encoded. Compressed codecs store coding-block
    /// streams; allocation stays in plain-equivalent units (see
    /// [`crate::codec`]), so only read sizes change.
    pub codec: PostingsCodec,
}

impl LongConfig {
    /// Validate against a block size: `block_postings` fixed-width postings
    /// must fit a block. Compressed codecs additionally require that a
    /// worst-case coding block (header + plain-escape payload) fits a
    /// block — the invariant that keeps compressed streams within the
    /// plain layout's allocation — and that a coding block's `u16` count
    /// field can hold `block_postings`.
    pub fn validate(&self, block_size: usize) -> Result<()> {
        if self.block_postings == 0 {
            return Err(IndexError::InvalidConfig("block_postings must be positive".into()));
        }
        if self.block_postings as usize * 4 > block_size {
            return Err(IndexError::InvalidConfig(format!(
                "{} postings of 4 bytes exceed the {}-byte block",
                self.block_postings, block_size
            )));
        }
        if self.codec.is_compressed() {
            if self.block_postings > u16::MAX as u64 {
                return Err(IndexError::InvalidConfig(format!(
                    "{} postings/block overflows a coding-block header (max {})",
                    self.block_postings,
                    u16::MAX
                )));
            }
            if codec::HEADER_LEN + self.block_postings as usize * 4 > block_size {
                return Err(IndexError::InvalidConfig(format!(
                    "codec {}: a worst-case coding block ({} header + {} postings of 4 bytes) \
                     exceeds the {}-byte block",
                    self.codec,
                    codec::HEADER_LEN,
                    self.block_postings,
                    block_size
                )));
            }
        }
        Ok(())
    }
}

/// Counters across the life of the store (the paper's Tables 5 & 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LongStats {
    /// In-place updates performed (`In-place` column).
    pub in_place_updates: u64,
    /// Appends to an already-long word — "the total possible number of
    /// in-place updates".
    pub possible_in_place: u64,
    /// First writes (bucket evictions becoming long lists).
    pub first_writes: u64,
    /// Whole-style full-list rewrites performed.
    pub whole_rewrites: u64,
    /// Logical read operations issued.
    pub read_ops: u64,
    /// Logical write operations issued.
    pub write_ops: u64,
}

impl LongStats {
    /// `Frac` column: fraction of possible in-place updates realized.
    pub fn in_place_fraction(&self) -> f64 {
        if self.possible_in_place == 0 {
            0.0
        } else {
            self.in_place_updates as f64 / self.possible_in_place as f64
        }
    }
}

/// The long-list half of the dual-structure index.
///
/// The read-op counter is atomic so that [`LongStore::read_list`] — the
/// query path — needs only `&self` and concurrent readers never serialize
/// on the store.
#[derive(Debug)]
pub struct LongStore {
    directory: Directory,
    config: LongConfig,
    stats: LongStats,
    read_ops: std::sync::atomic::AtomicU64,
}

impl LongStore {
    /// Create an empty store.
    pub fn new(config: LongConfig) -> Self {
        Self {
            directory: Directory::new(),
            config,
            stats: LongStats::default(),
            read_ops: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Rebuild from a recovered directory.
    pub fn from_directory(directory: Directory, config: LongConfig) -> Self {
        Self {
            directory,
            config,
            stats: LongStats::default(),
            read_ops: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LongConfig {
        &self.config
    }

    /// The directory (chunk metadata and statistics).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Mutable directory access (deletion sweep, flush bookkeeping).
    pub fn directory_mut(&mut self) -> &mut Directory {
        &mut self.directory
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LongStats {
        let mut s = self.stats;
        s.read_ops = self.read_ops.load(std::sync::atomic::Ordering::Relaxed);
        s
    }

    /// Does `word` have a long list?
    pub fn contains(&self, word: WordId) -> bool {
        self.directory.contains(word)
    }

    /// Append an in-memory list `postings` to `word`'s long list, creating
    /// it if absent — Figure 2, plus the §3 creation path ("Long lists are
    /// created initially by the overflow of a bucket").
    pub fn append(
        &mut self,
        array: &mut DiskArray,
        word: WordId,
        postings: &PostingList,
    ) -> Result<()> {
        if postings.is_empty() {
            return Ok(());
        }
        let bp = self.config.block_postings;
        let exists = self.directory.contains(word);
        if exists {
            self.stats.possible_in_place += 1;
        } else {
            self.stats.first_writes += 1;
        }
        let y = postings.len() as u64;
        // Line 1: `if y <= Limit` — Limit is the numeral 0 or the value z.
        let limit_value = match self.config.policy.limit {
            Limit::Never => 0,
            Limit::Fits => self.directory.get(word).map_or(0, |e| e.z(bp)),
        };
        if exists && y <= limit_value {
            return self.update_in_place(array, word, postings);
        }
        match self.config.policy.style {
            Style::Whole => self.append_whole(array, word, postings),
            Style::Fill { extent_blocks } => {
                self.append_fill(array, word, postings, extent_blocks)
            }
            Style::New => self.append_new(array, word, postings),
        }
    }

    /// `UPDATE(M)`: "reads the last block containing postings for word w,
    /// appends [the in-memory list] to it, and then writes the result back
    /// as an in-place update."
    fn update_in_place(
        &mut self,
        array: &mut DiskArray,
        word: WordId,
        postings: &PostingList,
    ) -> Result<()> {
        let bp = self.config.block_postings;
        let bs = array.block_size();
        let y = postings.len() as u64;
        let entry = self
            .directory
            .get(word)
            .ok_or_else(|| IndexError::Corruption(format!("in-place update of absent {word}")))?;
        let chunk = *entry
            .chunks
            .last()
            .ok_or_else(|| IndexError::Corruption(format!("empty chunk list for {word}")))?;
        let used = chunk.postings;
        debug_assert!(used + y <= chunk.capacity(bp), "in-place update overflows chunk");
        if self.config.codec.is_compressed() {
            return self.update_in_place_compressed(array, word, postings, chunk);
        }

        let start_block = used / bp;
        let partial = used % bp;
        let end_block = (used + y - 1) / bp;
        let nblocks = end_block - start_block + 1;
        let mut buf = vec![0u8; (nblocks as usize) * bs];

        if partial > 0 {
            // Read back the partially-filled last block.
            let op = IoOp {
                kind: OpKind::Read,
                disk: chunk.disk,
                start: chunk.start + start_block,
                blocks: 1,
                payload: Payload::LongList { word: word.0, postings: 0 },
            };
            array.read_op(op, &mut buf[..bs])?;
            self.read_ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // Opportunistic ordering check against the last stored posting.
            let existing = fixed::decode(&buf, partial as usize)?;
            if let (Some(&last), Some(&first)) = (existing.last(), postings.docs().first()) {
                if first <= last {
                    return Err(IndexError::OutOfOrderAppend { word, have: last, new: first });
                }
            }
        }
        // Lay the new postings into the buffer at their in-chunk positions.
        for (j, d) in postings.docs().iter().enumerate() {
            let global = used + j as u64;
            let block = global / bp - start_block;
            let off = (block as usize) * bs + ((global % bp) as usize) * 4;
            buf[off..off + 4].copy_from_slice(&d.0.to_le_bytes());
        }
        let op = IoOp {
            kind: OpKind::Write,
            disk: chunk.disk,
            start: chunk.start + start_block,
            blocks: nblocks,
            payload: Payload::LongList { word: word.0, postings: y },
        };
        array.write_op(op, &buf)?;
        self.stats.write_ops += 1;
        self.stats.in_place_updates += 1;
        invidx_obs::counter!(invidx_obs::names::LONG_IN_PLACE_UPDATES).inc();
        invidx_obs::counter!(invidx_obs::names::POSTINGS_BYTES_RAW).add(y * 4);
        invidx_obs::counter!(invidx_obs::names::POSTINGS_BYTES_STORED).add(y * 4);
        self.directory
            .get_mut(word)
            .and_then(|e| e.chunks.last_mut())
            .ok_or_else(|| {
                IndexError::Corruption(format!("directory entry for {word} vanished mid-update"))
            })?
            .postings += y;
        Ok(())
    }

    /// In-place update under a compressed codec: read the chunk's current
    /// coding-block stream, append, re-encode, and rewrite the stream's
    /// data blocks. Always one read + one write (a compressed tail block
    /// cannot be extended without re-encoding it, so the block-boundary
    /// read skip of the plain path does not apply). The capacity guarantee
    /// (`LongConfig::validate`) ensures the re-encoded stream still fits
    /// the chunk's allocation.
    fn update_in_place_compressed(
        &mut self,
        array: &mut DiskArray,
        word: WordId,
        postings: &PostingList,
        chunk: ChunkRef,
    ) -> Result<()> {
        let bp = self.config.block_postings;
        let bs = array.block_size();
        let y = postings.len() as u64;
        let old_blocks = chunk.bytes.div_ceil(bs as u64).max(1);
        let mut buf = vec![0u8; old_blocks as usize * bs];
        let op = IoOp {
            kind: OpKind::Read,
            disk: chunk.disk,
            start: chunk.start,
            blocks: old_blocks,
            payload: Payload::LongList { word: word.0, postings: 0 },
        };
        array.read_op(op, &mut buf)?;
        self.read_ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut docs = codec::decode_stream(&buf, chunk.postings)?;
        if let (Some(&last), Some(&first)) = (docs.last(), postings.docs().first()) {
            if first <= last {
                return Err(IndexError::OutOfOrderAppend { word, have: last, new: first });
            }
        }
        docs.extend_from_slice(postings.docs());
        let stream = codec::encode_stream(self.config.codec, &docs, bp);
        let stored = stream.len() as u64;
        let nblocks = stored.div_ceil(bs as u64);
        debug_assert!(nblocks <= chunk.blocks, "re-encoded stream overflows chunk");
        let mut out = vec![0u8; nblocks as usize * bs];
        out[..stream.len()].copy_from_slice(&stream);
        let op = IoOp {
            kind: OpKind::Write,
            disk: chunk.disk,
            start: chunk.start,
            blocks: nblocks,
            payload: Payload::LongList { word: word.0, postings: y },
        };
        array.write_op(op, &out)?;
        self.stats.write_ops += 1;
        self.stats.in_place_updates += 1;
        invidx_obs::counter!(invidx_obs::names::LONG_IN_PLACE_UPDATES).inc();
        invidx_obs::counter!(invidx_obs::names::POSTINGS_BYTES_RAW).add(docs.len() as u64 * 4);
        invidx_obs::counter!(invidx_obs::names::POSTINGS_BYTES_STORED).add(stored);
        let tail = self
            .directory
            .get_mut(word)
            .and_then(|e| e.chunks.last_mut())
            .ok_or_else(|| {
                IndexError::Corruption(format!("directory entry for {word} vanished mid-update"))
            })?;
        tail.postings += y;
        tail.bytes = stored;
        Ok(())
    }

    /// Pack `docs` into whole blocks starting at a block boundary. Returns
    /// the block-padded buffer and the encoded stream length in bytes (0
    /// under the plain codec, whose extent is implied by the posting
    /// count).
    fn encode_blocks(&self, docs: &[DocId], bs: usize) -> (Vec<u8>, u64) {
        let bp = self.config.block_postings as usize;
        if self.config.codec.is_compressed() {
            let stream = codec::encode_stream(self.config.codec, docs, bp as u64);
            let stored = stream.len() as u64;
            let nblocks = stream.len().div_ceil(bs).max(1);
            let mut buf = vec![0u8; nblocks * bs];
            buf[..stream.len()].copy_from_slice(&stream);
            return (buf, stored);
        }
        let nblocks = docs.len().div_ceil(bp).max(1);
        let mut buf = vec![0u8; nblocks * bs];
        for (chunk_idx, block_docs) in docs.chunks(bp).enumerate() {
            let off = chunk_idx * bs;
            fixed::encode_into(block_docs, &mut buf[off..off + block_docs.len() * 4]);
        }
        (buf, 0)
    }

    /// Write `docs` as a fresh chunk of `alloc_blocks` blocks on the next
    /// round-robin disk; the write op covers only the data blocks.
    fn write_fresh_chunk(
        &mut self,
        array: &mut DiskArray,
        word: WordId,
        docs: &[DocId],
        alloc_blocks: u64,
    ) -> Result<ChunkRef> {
        let bs = array.block_size();
        let disk = array.next_disk();
        let start = array.alloc_on(disk, alloc_blocks)?;
        let (buf, stored) = self.encode_blocks(docs, bs);
        let data_blocks = (buf.len() / bs) as u64;
        debug_assert!(data_blocks <= alloc_blocks);
        let op = IoOp {
            kind: OpKind::Write,
            disk,
            start,
            blocks: data_blocks,
            payload: Payload::LongList { word: word.0, postings: docs.len() as u64 },
        };
        array.write_op(op, &buf)?;
        self.stats.write_ops += 1;
        invidx_obs::counter!(invidx_obs::names::LONG_CHUNK_ALLOCS).inc();
        let raw = docs.len() as u64 * 4;
        invidx_obs::counter!(invidx_obs::names::POSTINGS_BYTES_RAW).add(raw);
        invidx_obs::counter!(invidx_obs::names::POSTINGS_BYTES_STORED)
            .add(if stored == 0 { raw } else { stored });
        Ok(ChunkRef { disk, start, blocks: alloc_blocks, postings: docs.len() as u64, bytes: stored })
    }

    /// Whole style: `b := READ(L); WRITE_RESERVED(M and b)`. The old chunks
    /// go on the RELEASE list — "used to delay the deallocation of long
    /// lists while they are copied" — and are freed at the next flush.
    fn append_whole(
        &mut self,
        array: &mut DiskArray,
        word: WordId,
        postings: &PostingList,
    ) -> Result<()> {
        let bp = self.config.block_postings;
        let old_chunks: Option<Vec<(u16, u64, u64)>> = self
            .directory
            .get(word)
            .map(|e| e.chunks.iter().map(|c| (c.disk, c.start, c.blocks)).collect());
        let mut combined = if let Some(old_chunks) = old_chunks {
            let old = self.read_list(array, word)?;
            for (disk, start, blocks) in old_chunks {
                self.directory.push_release(disk, start, blocks);
            }
            self.stats.whole_rewrites += 1;
            invidx_obs::counter!(invidx_obs::names::LONG_CHUNK_RELOCATIONS).inc();
            old
        } else {
            PostingList::new()
        };
        combined.append(word, postings)?;
        let x = combined.len() as u64;
        // "For the whole style x is typically the size of the entire long
        // list for a word."
        let alloc_blocks = self.config.policy.chunk_blocks(x, bp);
        let chunk = self.write_fresh_chunk(array, word, combined.docs(), alloc_blocks)?;
        self.directory.insert(word, LongEntry { chunks: vec![chunk] });
        Ok(())
    }

    /// New style: `WRITE_RESERVED(M)` — one fresh chunk sized by the
    /// allocation strategy, appended to the chunk list.
    fn append_new(
        &mut self,
        array: &mut DiskArray,
        word: WordId,
        postings: &PostingList,
    ) -> Result<()> {
        let bp = self.config.block_postings;
        // "For the new style x is typically the size of an in-memory list."
        let alloc_blocks = self.config.policy.chunk_blocks(postings.len() as u64, bp);
        let chunk = self.write_fresh_chunk(array, word, postings.docs(), alloc_blocks)?;
        self.directory.entry_mut(word).chunks.push(chunk);
        Ok(())
    }

    /// Fill style: `WHILE (M not empty) WRITE(M, M)` — carve the in-memory
    /// list into extents of exactly `extent_blocks` blocks, each on the
    /// next round-robin disk. "If a contains less than e blocks worth of
    /// postings, e blocks are still allocated."
    fn append_fill(
        &mut self,
        array: &mut DiskArray,
        word: WordId,
        postings: &PostingList,
        extent_blocks: u64,
    ) -> Result<()> {
        let bp = self.config.block_postings;
        let per_extent = (extent_blocks * bp) as usize;
        let mut rest = postings.clone();
        while !rest.is_empty() {
            let piece = rest.split_prefix(per_extent);
            let chunk = self.write_fresh_chunk(array, word, piece.docs(), extent_blocks)?;
            self.directory.entry_mut(word).chunks.push(chunk);
        }
        Ok(())
    }

    /// Read a word's complete long list: one read operation per chunk
    /// (covering its data blocks), concatenated in chunk order.
    ///
    /// `&self`: this is the query path; reads go through
    /// [`DiskArray::read_op`]'s shared-access interface and the op counter
    /// is atomic, so concurrent readers proceed without exclusive locks.
    pub fn read_list(&self, array: &DiskArray, word: WordId) -> Result<PostingList> {
        let bp = self.config.block_postings;
        let bs = array.block_size();
        let chunks: &[ChunkRef] = match self.directory.get(word) {
            Some(e) => &e.chunks,
            None => return Ok(PostingList::new()),
        };
        let mut docs: Vec<DocId> = Vec::new();
        let compressed = self.config.codec.is_compressed();
        for c in chunks {
            if c.postings == 0 {
                continue;
            }
            // Compressed chunks read only the stream's blocks — the device
            // saving compression buys; the allocation itself is unchanged.
            let data_blocks = if compressed {
                c.bytes.div_ceil(bs as u64).max(1)
            } else {
                c.postings.div_ceil(bp)
            };
            let mut buf = vec![0u8; data_blocks as usize * bs];
            let op = IoOp {
                kind: OpKind::Read,
                disk: c.disk,
                start: c.start,
                blocks: data_blocks,
                payload: Payload::LongList { word: word.0, postings: c.postings },
            };
            array.read_op(op, &mut buf)?;
            self.read_ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            invidx_obs::counter!(invidx_obs::names::LONG_READ_OPS).inc();
            if compressed {
                docs.extend(codec::decode_stream(&buf, c.postings)?);
            } else {
                let mut remaining = c.postings as usize;
                for block in buf.chunks(bs) {
                    let take = remaining.min(bp as usize);
                    docs.extend(fixed::decode(block, take)?);
                    remaining -= take;
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
        if !docs.windows(2).all(|w| w[0] < w[1]) {
            return Err(IndexError::Corruption(format!("unsorted long list for {word}")));
        }
        Ok(PostingList::from_sorted(docs))
    }

    /// Free all chunks on the release list (done during flush, after the
    /// directory commit point).
    pub fn free_released(&mut self, array: &mut DiskArray) -> Result<()> {
        for (disk, start, blocks) in self.directory.drain_release() {
            array.free_on(disk, start, blocks)?;
        }
        Ok(())
    }

    /// Rewrite one word's list as a single contiguous chunk (with the
    /// policy's reserved space) — regardless of the update style in force.
    /// Old chunks go on the RELEASE list. Returns the chunk count before
    /// the rewrite; a no-op (returning 1) when the list is already one
    /// chunk with no more reserved slack than the policy would grant.
    pub fn compact_word(&mut self, array: &mut DiskArray, word: WordId) -> Result<usize> {
        let bp = self.config.block_postings;
        let Some(entry) = self.directory.get(word) else {
            return Ok(0);
        };
        let before = entry.num_chunks();
        let target_blocks = self.config.policy.chunk_blocks(entry.total_postings(), bp);
        if before == 1 && entry.total_blocks() <= target_blocks {
            return Ok(1);
        }
        let old: Vec<(u16, u64, u64)> =
            entry.chunks.iter().map(|c| (c.disk, c.start, c.blocks)).collect();
        let docs = self.read_list(array, word)?;
        for (d, s, b) in old {
            self.directory.push_release(d, s, b);
        }
        invidx_obs::counter!(invidx_obs::names::LONG_CHUNK_RELOCATIONS).inc();
        let chunk = self.write_fresh_chunk(array, word, docs.docs(), target_blocks)?;
        self.directory.insert(word, LongEntry { chunks: vec![chunk] });
        Ok(before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Alloc;
    use invidx_disk::sparse_array;

    const BS: usize = 256;
    const BP: u64 = 10; // 10 postings per 256-byte block

    fn store(policy: Policy) -> (LongStore, DiskArray) {
        store_with(policy, PostingsCodec::Plain)
    }

    fn store_with(policy: Policy, codec: PostingsCodec) -> (LongStore, DiskArray) {
        let cfg = LongConfig { block_postings: BP, policy, codec };
        cfg.validate(BS).unwrap();
        (LongStore::new(cfg), sparse_array(3, 10_000, BS))
    }

    fn pl(range: std::ops::Range<u32>) -> PostingList {
        PostingList::from_sorted(range.map(DocId).collect())
    }

    fn all_policies() -> Vec<Policy> {
        let mut v = Policy::style_comparison_set();
        v.push(Policy::query_optimized());
        v.push(Policy::balanced());
        v.push(Policy::new(Style::New, Limit::Fits, Alloc::Block { k: 2 }));
        v.push(Policy::new(Style::Whole, Limit::Fits, Alloc::Constant { k: 25 }));
        v.push(Policy::new(Style::Fill { extent_blocks: 2 }, Limit::Fits, Alloc::Constant { k: 0 }));
        v
    }

    #[test]
    fn append_read_round_trip_under_every_policy() {
        for policy in all_policies() {
            let (mut s, mut a) = store(policy);
            let w = WordId(5);
            s.append(&mut a, w, &pl(0..7)).unwrap();
            s.append(&mut a, w, &pl(7..45)).unwrap();
            s.append(&mut a, w, &pl(45..48)).unwrap();
            s.append(&mut a, w, &pl(48..120)).unwrap();
            let got = s.read_list(&a, w).unwrap();
            assert_eq!(got, pl(0..120), "policy {policy}");
        }
    }

    #[test]
    fn multiple_words_are_independent() {
        for policy in all_policies() {
            let (mut s, mut a) = store(policy);
            for w in 0..20u64 {
                s.append(&mut a, WordId(w), &pl(0..(5 + w as u32))).unwrap();
            }
            for w in 0..20u64 {
                s.append(&mut a, WordId(w), &pl(100..(130 + w as u32))).unwrap();
            }
            for w in 0..20u64 {
                let got = s.read_list(&a, WordId(w)).unwrap();
                assert_eq!(got.len(), (5 + w as usize) + (30 + w as usize), "policy {policy}");
            }
        }
    }

    #[test]
    fn whole_style_keeps_single_chunk() {
        let (mut s, mut a) = store(Policy::new(Style::Whole, Limit::Never, Alloc::Constant { k: 0 }));
        let w = WordId(1);
        for i in 0..5u32 {
            s.append(&mut a, w, &pl(i * 10..(i + 1) * 10)).unwrap();
        }
        assert_eq!(s.directory().get(w).unwrap().num_chunks(), 1);
        // Old copies await release.
        assert!(s.directory().release_len() >= 4);
        s.free_released(&mut a).unwrap();
        assert_eq!(s.directory().release_len(), 0);
    }

    #[test]
    fn new_style_accumulates_chunks() {
        let (mut s, mut a) = store(Policy::update_optimized());
        let w = WordId(1);
        for i in 0..5u32 {
            s.append(&mut a, w, &pl(i * 10..(i + 1) * 10)).unwrap();
        }
        assert_eq!(s.directory().get(w).unwrap().num_chunks(), 5);
        assert_eq!(s.stats().in_place_updates, 0);
        assert_eq!(s.stats().possible_in_place, 4);
    }

    #[test]
    fn fill_style_bounds_chunk_size() {
        let e = 2u64;
        let (mut s, mut a) =
            store(Policy::new(Style::Fill { extent_blocks: e }, Limit::Never, Alloc::Constant { k: 0 }));
        let w = WordId(1);
        s.append(&mut a, w, &pl(0..55)).unwrap(); // 55 postings, 20/extent
        let entry = s.directory().get(w).unwrap();
        assert_eq!(entry.num_chunks(), 3);
        assert!(entry.chunks.iter().all(|c| c.blocks == e));
        assert_eq!(entry.chunks[0].postings, 20);
        assert_eq!(entry.chunks[2].postings, 15);
    }

    #[test]
    fn in_place_update_fills_block_tail() {
        // new z with k=0: chunk of 1 block holds 10; 7 used, 3 free -> a
        // 3-posting update goes in place.
        let (mut s, mut a) = store(Policy::new(Style::New, Limit::Fits, Alloc::Constant { k: 0 }));
        let w = WordId(1);
        s.append(&mut a, w, &pl(0..7)).unwrap();
        s.append(&mut a, w, &pl(7..10)).unwrap();
        let entry = s.directory().get(w).unwrap();
        assert_eq!(entry.num_chunks(), 1);
        assert_eq!(s.stats().in_place_updates, 1);
        assert_eq!(s.read_list(&a, w).unwrap(), pl(0..10));
    }

    #[test]
    fn in_place_never_splits_update() {
        // 7 used of 10: a 4-posting update does NOT fit and must go to a
        // new chunk whole — never split across the old tail and a new chunk.
        let (mut s, mut a) = store(Policy::new(Style::New, Limit::Fits, Alloc::Constant { k: 0 }));
        let w = WordId(1);
        s.append(&mut a, w, &pl(0..7)).unwrap();
        s.append(&mut a, w, &pl(7..11)).unwrap();
        let entry = s.directory().get(w).unwrap();
        assert_eq!(entry.num_chunks(), 2);
        assert_eq!(entry.chunks[0].postings, 7);
        assert_eq!(entry.chunks[1].postings, 4);
        assert_eq!(s.stats().in_place_updates, 0);
        assert_eq!(s.read_list(&a, w).unwrap(), pl(0..11));
    }

    #[test]
    fn reserved_space_enables_in_place() {
        // proportional k=2: first write of 10 postings reserves 20 -> 2
        // blocks; the next 10-posting update fits in place.
        let (mut s, mut a) = store(Policy::balanced());
        let w = WordId(1);
        s.append(&mut a, w, &pl(0..10)).unwrap();
        assert_eq!(s.directory().get(w).unwrap().chunks[0].blocks, 2);
        s.append(&mut a, w, &pl(10..20)).unwrap();
        assert_eq!(s.directory().get(w).unwrap().num_chunks(), 1);
        assert_eq!(s.stats().in_place_updates, 1);
        assert_eq!(s.stats().in_place_fraction(), 1.0);
        assert_eq!(s.read_list(&a, w).unwrap(), pl(0..20));
    }

    #[test]
    fn in_place_counts_one_read_one_write() {
        let (mut s, mut a) = store(Policy::balanced());
        let w = WordId(1);
        s.append(&mut a, w, &pl(0..10)).unwrap();
        let before = s.stats();
        a.start_trace();
        s.append(&mut a, w, &pl(10..15)).unwrap();
        let t = a.take_trace();
        // 10 used = block boundary -> no partial block, so the read is
        // skipped and only the write is issued.
        assert_eq!(t.ops.len(), 1);
        // Now 15 used: partial block -> read + write.
        a.start_trace();
        s.append(&mut a, w, &pl(15..18)).unwrap();
        let t = a.take_trace();
        assert_eq!(t.ops.len(), 2);
        assert_eq!(t.ops[0].kind, OpKind::Read);
        assert_eq!(t.ops[1].kind, OpKind::Write);
        assert_eq!(s.stats().in_place_updates, before.in_place_updates + 2);
    }

    #[test]
    fn out_of_order_append_detected_in_place() {
        let (mut s, mut a) = store(Policy::balanced());
        let w = WordId(1);
        s.append(&mut a, w, &pl(0..15)).unwrap();
        let bad = pl(3..5);
        assert!(matches!(
            s.append(&mut a, w, &bad),
            Err(IndexError::OutOfOrderAppend { .. })
        ));
    }

    #[test]
    fn whole_rewrite_reads_all_chunks() {
        let (mut s, mut a) = store(Policy::new(Style::Whole, Limit::Never, Alloc::Constant { k: 0 }));
        let w = WordId(1);
        s.append(&mut a, w, &pl(0..25)).unwrap();
        a.start_trace();
        s.append(&mut a, w, &pl(25..30)).unwrap();
        let t = a.take_trace();
        // One read of the single existing chunk + one write of the new one.
        assert_eq!(t.count(|op| op.kind == OpKind::Read), 1);
        assert_eq!(t.count(|op| op.kind == OpKind::Write), 1);
    }

    #[test]
    fn stats_track_possible_in_place() {
        let (mut s, mut a) = store(Policy::update_optimized());
        for i in 0..4u32 {
            s.append(&mut a, WordId(1), &pl(i * 10..(i + 1) * 10)).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.first_writes, 1);
        assert_eq!(st.possible_in_place, 3);
        assert_eq!(st.in_place_fraction(), 0.0);
    }

    #[test]
    fn empty_append_is_noop() {
        let (mut s, mut a) = store(Policy::balanced());
        s.append(&mut a, WordId(1), &PostingList::new()).unwrap();
        assert!(!s.contains(WordId(1)));
        assert_eq!(s.stats(), LongStats::default());
    }

    #[test]
    fn read_absent_word_is_empty() {
        let (s, a) = store(Policy::balanced());
        assert!(s.read_list(&a, WordId(404)).unwrap().is_empty());
    }

    #[test]
    fn config_validation() {
        let plain = |bp| LongConfig {
            block_postings: bp,
            policy: Policy::balanced(),
            codec: PostingsCodec::Plain,
        };
        assert!(plain(0).validate(256).is_err());
        assert!(plain(100).validate(256).is_err());
        assert!(plain(64).validate(256).is_ok());
        // Compressed codecs need header room for the worst-case coding
        // block: 64 postings fill a 256-byte block exactly, leaving none.
        let packed = |bp| LongConfig {
            block_postings: bp,
            policy: Policy::balanced(),
            codec: PostingsCodec::BitPacked,
        };
        assert!(packed(64).validate(256).is_err());
        assert!(packed(61).validate(256).is_ok());
        assert!(packed(100_000).validate(1 << 20).is_err(), "u16 count overflow");
    }

    #[test]
    fn compressed_round_trip_under_every_policy() {
        for codec in [PostingsCodec::VarintDelta, PostingsCodec::BitPacked] {
            for policy in all_policies() {
                let (mut s, mut a) = store_with(policy, codec);
                let w = WordId(5);
                s.append(&mut a, w, &pl(0..7)).unwrap();
                s.append(&mut a, w, &pl(7..45)).unwrap();
                s.append(&mut a, w, &pl(45..48)).unwrap();
                s.append(&mut a, w, &pl(48..120)).unwrap();
                let got = s.read_list(&a, w).unwrap();
                assert_eq!(got, pl(0..120), "{codec} under policy {policy}");
            }
        }
    }

    #[test]
    fn compressed_allocation_matches_plain() {
        // The capacity guarantee in action: chunk structure (blocks,
        // postings, chunk count) is identical to the plain layout under
        // every policy; only the stream bytes differ.
        for policy in all_policies() {
            let (mut p, mut pa) = store(policy);
            let (mut c, mut ca) = store_with(policy, PostingsCodec::BitPacked);
            for batch in [pl(0..7), pl(7..45), pl(45..48), pl(48..120), pl(120..500)] {
                p.append(&mut pa, WordId(5), &batch).unwrap();
                c.append(&mut ca, WordId(5), &batch).unwrap();
            }
            let pe = p.directory().get(WordId(5)).unwrap();
            let ce = c.directory().get(WordId(5)).unwrap();
            assert_eq!(pe.num_chunks(), ce.num_chunks(), "policy {policy}");
            for (pc, cc) in pe.chunks.iter().zip(&ce.chunks) {
                assert_eq!((pc.blocks, pc.postings), (cc.blocks, cc.postings));
                assert_eq!(pc.bytes, 0);
                assert!(cc.bytes > 0);
            }
        }
    }

    #[test]
    fn compressed_reads_fewer_blocks() {
        // 500 dense postings = 50 plain blocks; bit-packed gaps of 1 pack
        // to a fraction of that. The trace shows the read op covering
        // fewer device blocks.
        let policy = Policy::new(Style::Whole, Limit::Never, Alloc::Constant { k: 0 });
        let (mut p, mut pa) = store(policy);
        let (mut c, mut ca) = store_with(policy, PostingsCodec::BitPacked);
        p.append(&mut pa, WordId(1), &pl(0..500)).unwrap();
        c.append(&mut ca, WordId(1), &pl(0..500)).unwrap();
        let blocks_read = |s: &LongStore, a: &mut DiskArray| {
            a.start_trace();
            s.read_list(a, WordId(1)).unwrap();
            a.take_trace().ops.iter().map(|op| op.blocks).sum::<u64>()
        };
        let plain_blocks = blocks_read(&p, &mut pa);
        let packed_blocks = blocks_read(&c, &mut ca);
        assert_eq!(plain_blocks, 50);
        assert!(packed_blocks * 4 < plain_blocks, "{packed_blocks} vs {plain_blocks}");
    }

    #[test]
    fn compressed_in_place_update() {
        for codec in [PostingsCodec::VarintDelta, PostingsCodec::BitPacked] {
            let (mut s, mut a) = store_with(Policy::balanced(), codec);
            let w = WordId(1);
            s.append(&mut a, w, &pl(0..10)).unwrap();
            let bytes_before = s.directory().get(w).unwrap().chunks[0].bytes;
            a.start_trace();
            s.append(&mut a, w, &pl(10..15)).unwrap();
            let t = a.take_trace();
            // Compressed in-place is always read-stream + rewrite-stream.
            assert_eq!(t.ops.len(), 2);
            assert_eq!(t.ops[0].kind, OpKind::Read);
            assert_eq!(t.ops[1].kind, OpKind::Write);
            assert_eq!(s.stats().in_place_updates, 1);
            let chunk = &s.directory().get(w).unwrap().chunks[0];
            assert_eq!(chunk.postings, 15);
            assert!(chunk.bytes > bytes_before);
            assert_eq!(s.read_list(&a, w).unwrap(), pl(0..15));
            // Out-of-order appends are still detected through the codec.
            assert!(matches!(
                s.append(&mut a, w, &pl(3..5)),
                Err(IndexError::OutOfOrderAppend { .. })
            ));
        }
    }

    #[test]
    fn compressed_compact_word() {
        let (mut s, mut a) = store_with(Policy::update_optimized(), PostingsCodec::VarintDelta);
        let w = WordId(1);
        for i in 0..5u32 {
            s.append(&mut a, w, &pl(i * 30..(i + 1) * 30)).unwrap();
        }
        assert_eq!(s.directory().get(w).unwrap().num_chunks(), 5);
        assert_eq!(s.compact_word(&mut a, w).unwrap(), 5);
        let entry = s.directory().get(w).unwrap();
        assert_eq!(entry.num_chunks(), 1);
        assert!(entry.chunks[0].bytes > 0);
        s.free_released(&mut a).unwrap();
        assert_eq!(s.read_list(&a, w).unwrap(), pl(0..150));
    }

    #[test]
    fn utilization_reflects_reserved_space() {
        let (mut s, mut a) = store(Policy::new(Style::New, Limit::Fits, Alloc::Constant { k: 30 }));
        s.append(&mut a, WordId(1), &pl(0..10)).unwrap();
        // 10 postings in a 4-block (40-posting) chunk.
        assert!((s.directory().utilization(BP) - 0.25).abs() < 1e-12);
    }
}
