//! On-disk format of a sealed segment.
//!
//! A segment is a write-once artifact holding the postings of many words,
//! sorted by word id, laid out as one logical byte stream split across a
//! list of block extents on the disk array:
//!
//! ```text
//! +--------------------------+----------------------+-----------+
//! | postings runs (4B docs)  | term index           | footer    |
//! +--------------------------+----------------------+-----------+
//! ```
//!
//! * **postings runs** — for each term, its doc ids in ascending word
//!   order: fixed-width 4-byte little-endian values under the plain
//!   codec, or a self-describing coding-block stream (see
//!   [`invidx_core::codec`]) under a compressed one. The segment's codec
//!   is recorded in its metadata;
//! * **term index** — `(word u64, offset u64, postings u32, bytes u32)`
//!   entries in ascending word order, locating each run in the postings
//!   region;
//! * **footer** — magic, region lengths, and a CRC32 over everything
//!   before it, so a segment is self-describing and verifiable.
//!
//! The stream is padded to a whole number of blocks and written through
//! [`invidx_disk::DiskArray`] extents tagged [`Payload::Segment`], so
//! segment I/O shows up in Figure-6 traces and is charged to the same
//! simulated disks as every other structure.

use crate::error::{Result, SegmentError};
use invidx_core::codec as pcodec;
use invidx_core::{DocId, PostingList, PostingsCodec, WordId};
use invidx_disk::{DiskArray, IoOp, OpKind, Payload};
use invidx_durable::crc32;

/// Magic bytes opening the footer (v2 added per-run byte lengths and the
/// segment codec tag).
pub const FOOTER_MAGIC: &[u8; 8] = b"IVXSEG2\0";
/// Serialized footer length in bytes.
pub const FOOTER_LEN: usize = 8 + 8 + 8 + 4;
/// Bytes of one serialized term-index entry.
pub const TERM_ENTRY_LEN: usize = 8 + 8 + 4 + 4;
/// Largest single extent a segment writer allocates, in blocks. Long
/// segments stripe round-robin across disks in extents of this size.
pub const MAX_EXTENT_BLOCKS: u64 = 256;
/// Postings per coding block in compressed segment runs. Segments are
/// byte-addressed (runs need not align to device blocks), so this is a
/// format constant rather than the index's `BlockPosting` parameter.
pub const SEGMENT_CODING_POSTINGS: u64 = 128;

/// One contiguous run of blocks belonging to a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentExtent {
    /// Disk holding the extent.
    pub disk: u16,
    /// First block of the extent.
    pub start: u64,
    /// Extent length in blocks.
    pub blocks: u64,
}

/// Term-index entry: where one word's postings run lives in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermEntry {
    /// The word.
    pub word: WordId,
    /// Byte offset of the run inside the postings region.
    pub offset: u64,
    /// Postings in the run.
    pub postings: u32,
    /// Encoded byte length of the run (`postings * 4` under the plain
    /// codec, the coding-block stream length otherwise).
    pub bytes: u32,
}

/// Everything the engine needs to read a sealed segment: identity, tier
/// level, extent list, and the (in-memory copy of the) term index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Unique, monotonically assigned segment id.
    pub id: u64,
    /// Tier level: 0 for freshly sealed L0 snapshots, `n+1` for the
    /// output of a level-`n` merge.
    pub level: u32,
    /// Extents of the logical stream, in stream order.
    pub extents: Vec<SegmentExtent>,
    /// Term index, ascending by word.
    pub terms: Vec<TermEntry>,
    /// Length of the postings region in bytes.
    pub data_bytes: u64,
    /// CRC32 over postings region + term index.
    pub crc: u32,
    /// Codec the postings runs were written with.
    pub codec: PostingsCodec,
}

impl SegmentMeta {
    /// Total blocks occupied by the segment.
    pub fn blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.blocks).sum()
    }

    /// Total postings stored.
    pub fn postings(&self) -> u64 {
        self.terms.iter().map(|t| t.postings as u64).sum()
    }

    /// Logical stream length in bytes (before block padding).
    pub fn stream_bytes(&self) -> u64 {
        self.data_bytes + self.terms.len() as u64 * TERM_ENTRY_LEN as u64 + FOOTER_LEN as u64
    }

    /// Locate a word's run via binary search on the term index.
    pub fn find(&self, word: WordId) -> Option<TermEntry> {
        self.terms
            .binary_search_by_key(&word, |t| t.word)
            .ok()
            .map(|i| self.terms[i])
    }

    /// Serialize into `out` (manifest / checkpoint embedding).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.level.to_le_bytes());
        out.extend_from_slice(&self.data_bytes.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
        out.push(self.codec.as_u8());
        out.extend_from_slice(&(self.extents.len() as u32).to_le_bytes());
        for e in &self.extents {
            out.extend_from_slice(&e.disk.to_le_bytes());
            out.extend_from_slice(&e.start.to_le_bytes());
            out.extend_from_slice(&e.blocks.to_le_bytes());
        }
        out.extend_from_slice(&(self.terms.len() as u32).to_le_bytes());
        for t in &self.terms {
            out.extend_from_slice(&t.word.0.to_le_bytes());
            out.extend_from_slice(&t.offset.to_le_bytes());
            out.extend_from_slice(&t.postings.to_le_bytes());
            out.extend_from_slice(&t.bytes.to_le_bytes());
        }
    }

    /// Inverse of [`Self::encode_into`]; advances `pos`.
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Result<Self> {
        let id = take_u64(bytes, pos)?;
        let level = take_u32(bytes, pos)?;
        let data_bytes = take_u64(bytes, pos)?;
        let crc = take_u32(bytes, pos)?;
        let codec = PostingsCodec::from_u8(take_u8(bytes, pos)?)
            .map_err(|e| SegmentError::Corrupt(e.to_string()))?;
        let n_ext = take_u32(bytes, pos)? as usize;
        if n_ext > bytes.len() / 8 {
            return Err(SegmentError::Corrupt(format!("absurd extent count {n_ext}")));
        }
        let mut extents = Vec::with_capacity(n_ext);
        for _ in 0..n_ext {
            extents.push(SegmentExtent {
                disk: take_u16(bytes, pos)?,
                start: take_u64(bytes, pos)?,
                blocks: take_u64(bytes, pos)?,
            });
        }
        let n_terms = take_u32(bytes, pos)? as usize;
        if n_terms > bytes.len() / 4 {
            return Err(SegmentError::Corrupt(format!("absurd term count {n_terms}")));
        }
        let mut terms = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            terms.push(TermEntry {
                word: WordId(take_u64(bytes, pos)?),
                offset: take_u64(bytes, pos)?,
                postings: take_u32(bytes, pos)?,
                bytes: take_u32(bytes, pos)?,
            });
        }
        Ok(Self { id, level, extents, terms, data_bytes, crc, codec })
    }
}

pub(crate) fn take_u8(b: &[u8], pos: &mut usize) -> Result<u8> {
    let &v = b
        .get(*pos)
        .ok_or_else(|| SegmentError::Corrupt("truncated u8".into()))?;
    *pos += 1;
    Ok(v)
}

pub(crate) fn take_u16(b: &[u8], pos: &mut usize) -> Result<u16> {
    let s = b
        .get(*pos..*pos + 2)
        .ok_or_else(|| SegmentError::Corrupt("truncated u16".into()))?;
    *pos += 2;
    Ok(u16::from_le_bytes(s.try_into().unwrap()))
}

pub(crate) fn take_u32(b: &[u8], pos: &mut usize) -> Result<u32> {
    let s = b
        .get(*pos..*pos + 4)
        .ok_or_else(|| SegmentError::Corrupt("truncated u32".into()))?;
    *pos += 4;
    Ok(u32::from_le_bytes(s.try_into().unwrap()))
}

pub(crate) fn take_u64(b: &[u8], pos: &mut usize) -> Result<u64> {
    let s = b
        .get(*pos..*pos + 8)
        .ok_or_else(|| SegmentError::Corrupt("truncated u64".into()))?;
    *pos += 8;
    Ok(u64::from_le_bytes(s.try_into().unwrap()))
}

/// Builds one sealed segment: push terms in ascending word order, then
/// [`SegmentWriter::finish`] allocates extents and writes the stream.
pub struct SegmentWriter {
    id: u64,
    level: u32,
    codec: PostingsCodec,
    data: Vec<u8>,
    terms: Vec<TermEntry>,
}

impl SegmentWriter {
    /// Start a segment with the given identity, tier level, and postings
    /// codec.
    pub fn new(id: u64, level: u32, codec: PostingsCodec) -> Self {
        Self { id, level, codec, data: Vec::new(), terms: Vec::new() }
    }

    /// Append one word's postings run. Words must arrive in strictly
    /// ascending order; empty runs are skipped.
    pub fn push(&mut self, word: WordId, docs: &[DocId]) -> Result<()> {
        if docs.is_empty() {
            return Ok(());
        }
        if let Some(last) = self.terms.last() {
            if word <= last.word {
                return Err(SegmentError::Corrupt(format!(
                    "segment writer: {word:?} pushed after {:?}",
                    last.word
                )));
            }
        }
        let offset = self.data.len() as u64;
        if self.codec.is_compressed() {
            let stream = pcodec::encode_stream(self.codec, docs, SEGMENT_CODING_POSTINGS);
            self.data.extend_from_slice(&stream);
        } else {
            for d in docs {
                self.data.extend_from_slice(&d.0.to_le_bytes());
            }
        }
        self.terms.push(TermEntry {
            word,
            offset,
            postings: docs.len() as u32,
            bytes: (self.data.len() as u64 - offset) as u32,
        });
        Ok(())
    }

    /// Terms pushed so far.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Postings-region bytes accumulated so far.
    pub fn data_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Serialize the stream, allocate extents on the array, and write
    /// them out tagged [`Payload::Segment`]. Consumes the writer.
    pub fn finish(self, array: &mut DiskArray) -> Result<SegmentMeta> {
        let bs = array.block_size();
        let data_bytes = self.data.len() as u64;
        let mut stream = self.data;
        for t in &self.terms {
            stream.extend_from_slice(&t.word.0.to_le_bytes());
            stream.extend_from_slice(&t.offset.to_le_bytes());
            stream.extend_from_slice(&t.postings.to_le_bytes());
            stream.extend_from_slice(&t.bytes.to_le_bytes());
        }
        let crc = crc32(&stream);
        stream.extend_from_slice(FOOTER_MAGIC);
        stream.extend_from_slice(&data_bytes.to_le_bytes());
        stream.extend_from_slice(&(self.terms.len() as u64).to_le_bytes());
        stream.extend_from_slice(&crc.to_le_bytes());
        let total_blocks = (stream.len() as u64).div_ceil(bs as u64).max(1);
        stream.resize(total_blocks as usize * bs, 0);

        // Stripe the stream across disks in bounded extents so a large
        // merge output doesn't monopolize one spindle.
        let mut extents = Vec::new();
        let mut written = 0u64;
        while written < total_blocks {
            let want = (total_blocks - written).min(MAX_EXTENT_BLOCKS);
            let (disk, start) = alloc_somewhere(array, want)?;
            let op = IoOp {
                kind: OpKind::Write,
                disk,
                start,
                blocks: want,
                payload: Payload::Segment { segment: self.id },
            };
            let lo = (written * bs as u64) as usize;
            let hi = lo + (want * bs as u64) as usize;
            array.write_op(op, &stream[lo..hi])?;
            extents.push(SegmentExtent { disk, start, blocks: want });
            written += want;
        }
        invidx_obs::counter!(invidx_obs::names::SEGMENT_BYTES_WRITTEN)
            .add(total_blocks * bs as u64);
        Ok(SegmentMeta {
            id: self.id,
            level: self.level,
            extents,
            terms: self.terms,
            data_bytes,
            crc,
            codec: self.codec,
        })
    }
}

/// Allocate `blocks` on the array's next disk, falling back to any disk
/// with room.
fn alloc_somewhere(array: &mut DiskArray, blocks: u64) -> Result<(u16, u64)> {
    let first = array.next_disk();
    let n = array.num_disks();
    for i in 0..n {
        let disk = (first + i) % n;
        if let Ok(start) = array.alloc_on(disk, blocks) {
            return Ok((disk, start));
        }
    }
    Err(SegmentError::Corrupt(format!(
        "no disk has {blocks} contiguous free blocks for a segment extent"
    )))
}

/// Read one word's postings from a sealed segment. Returns an empty list
/// when the segment has no run for the word.
pub fn read_term(meta: &SegmentMeta, array: &DiskArray, word: WordId) -> Result<PostingList> {
    let Some(entry) = meta.find(word) else {
        return Ok(PostingList::new());
    };
    let bytes = read_range(meta, array, entry.offset, entry.bytes as u64)?;
    let docs = if meta.codec.is_compressed() {
        pcodec::decode_stream(&bytes, entry.postings as u64)
            .map_err(|e| SegmentError::Corrupt(format!("segment {}: {e}", meta.id)))?
    } else {
        let mut docs = Vec::with_capacity(entry.postings as usize);
        for chunk in bytes.chunks_exact(4) {
            docs.push(DocId(u32::from_le_bytes(chunk.try_into().unwrap())));
        }
        docs
    };
    if !docs.windows(2).all(|w| w[0] < w[1]) {
        return Err(SegmentError::Corrupt(format!(
            "segment {}: unsorted run for {word:?}",
            meta.id
        )));
    }
    Ok(PostingList::from_sorted(docs))
}

/// Read `len` bytes of the logical stream starting at `offset`, walking
/// the extent list and charging block-granular reads to the array.
pub fn read_range(meta: &SegmentMeta, array: &DiskArray, offset: u64, len: u64) -> Result<Vec<u8>> {
    let bs = array.block_size() as u64;
    let mut out = Vec::with_capacity(len as usize);
    let (mut remaining, mut pos) = (len, offset);
    let mut ext_base = 0u64; // logical byte offset where the extent starts
    for e in &meta.extents {
        let ext_bytes = e.blocks * bs;
        if remaining == 0 {
            break;
        }
        if pos >= ext_base + ext_bytes {
            ext_base += ext_bytes;
            continue;
        }
        // Overlap of [pos, pos+remaining) with this extent, block-aligned.
        let local = pos - ext_base;
        let take = remaining.min(ext_bytes - local);
        let blk0 = local / bs;
        let blk1 = (local + take).div_ceil(bs);
        let nblocks = blk1 - blk0;
        let mut buf = vec![0u8; (nblocks * bs) as usize];
        let op = IoOp {
            kind: OpKind::Read,
            disk: e.disk,
            start: e.start + blk0,
            blocks: nblocks,
            payload: Payload::Segment { segment: meta.id },
        };
        array.read_op(op, &mut buf)?;
        invidx_obs::counter!(invidx_obs::names::SEGMENT_READ_OPS).inc();
        let lo = (local - blk0 * bs) as usize;
        out.extend_from_slice(&buf[lo..lo + take as usize]);
        pos += take;
        remaining -= take;
        ext_base += ext_bytes;
    }
    if remaining != 0 {
        return Err(SegmentError::Corrupt(format!(
            "segment {}: read past end of stream ({remaining} bytes short)",
            meta.id
        )));
    }
    Ok(out)
}

/// Re-read the whole segment and check its footer and CRC against the
/// manifest's metadata. Used by recovery audits and tests.
pub fn verify(meta: &SegmentMeta, array: &DiskArray) -> Result<()> {
    let term_bytes = meta.terms.len() as u64 * TERM_ENTRY_LEN as u64;
    let body = read_range(meta, array, 0, meta.data_bytes + term_bytes)?;
    let footer = read_range(meta, array, meta.data_bytes + term_bytes, FOOTER_LEN as u64)?;
    if &footer[0..8] != FOOTER_MAGIC {
        return Err(SegmentError::Corrupt(format!("segment {}: bad footer magic", meta.id)));
    }
    let mut pos = 8;
    let data_bytes = take_u64(&footer, &mut pos)?;
    let n_terms = take_u64(&footer, &mut pos)?;
    let crc = take_u32(&footer, &mut pos)?;
    if data_bytes != meta.data_bytes || n_terms != meta.terms.len() as u64 {
        return Err(SegmentError::Corrupt(format!(
            "segment {}: footer disagrees with manifest (data {data_bytes}/{}, terms {n_terms}/{})",
            meta.id,
            meta.data_bytes,
            meta.terms.len()
        )));
    }
    if crc != meta.crc || crc32(&body) != meta.crc {
        return Err(SegmentError::Corrupt(format!("segment {}: CRC mismatch", meta.id)));
    }
    Ok(())
}
