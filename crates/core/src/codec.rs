//! Compressed postings codecs for long-list blocks.
//!
//! The paper models compression implicitly: `BlockPosting` "implicitly
//! models the efficiency of the compression algorithm applied to long
//! lists" (§4.4), so a plain chunk stores exactly `BlockPosting` 4-byte
//! doc ids per block. This module makes the compression *real*: a chunk's
//! data region becomes a stream of self-describing **coding blocks**, each
//! covering up to `BlockPosting` postings, so the same chunk needs fewer
//! device blocks to hold the same list — cutting device bytes per query.
//!
//! ## Stream layout
//!
//! A stream is a sequence of coding blocks. Each starts with a fixed
//! 10-byte header:
//!
//! ```text
//! mode:    u8    0 = plain escape, 1 = varint delta, 2 = bit-packed
//! count:   u16   postings in this coding block (1 ..= BlockPosting)
//! bytes:   u16   payload length in bytes
//! max_doc: u32   largest doc id in the block — the per-block skip entry
//! max_tf:  u8    largest within-document term frequency (1: postings
//!                carry document presence, not positions — the max-score
//!                metadata ranked retrieval bounds scores with)
//! ```
//!
//! Payloads:
//!
//! * **mode 0 (plain escape)** — `count` 4-byte little-endian doc ids.
//!   The encoder falls back to this whenever a compressed payload would
//!   exceed the plain one, so a coding block is never larger than
//!   `10 + 4·count` bytes.
//! * **mode 1 (varint delta)** — the first doc id `+1`, then the gaps
//!   between consecutive ids, all as LEB128 varints (gaps are ≥ 1 because
//!   posting lists are strictly increasing).
//! * **mode 2 (bit-packed, PFOR-style)** — `first_doc: u32` little-endian,
//!   `width: u8`, then `count − 1` values of `gap − 1` packed LSB-first at
//!   `width` bits each.
//!
//! ## The capacity guarantee
//!
//! Chunk allocation and the paper's Figure 2 policy machinery account for
//! space in *postings*: a chunk of `B` blocks holds up to
//! `B · BlockPosting` postings. Compressed streams keep that accounting
//! safe via one validated invariant: `10 + 4·BlockPosting ≤ block_size`
//! (see [`crate::longlist::LongConfig::validate`]). Then a stream of `n`
//! postings spans `ceil(n / BlockPosting)` coding blocks of at most
//! `block_size` bytes each — never more device blocks than the plain
//! layout — so every in-place update, fill extent, and reserved-space
//! decision the policy makes for plain data remains valid verbatim.

use crate::postings::fixed;
use crate::types::{DocId, IndexError, Result};

/// How long-list (and sealed-segment) postings are laid out on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PostingsCodec {
    /// The seed layout: fixed 4-byte little-endian doc ids,
    /// `BlockPosting` per block, no headers. Byte-identical to the paper
    /// reproduction's original format.
    #[default]
    Plain,
    /// Delta gaps as LEB128 varints inside self-describing coding blocks.
    VarintDelta,
    /// PFOR-style fixed-width bit packing of `gap − 1` values inside
    /// self-describing coding blocks.
    BitPacked,
}

impl PostingsCodec {
    /// Stable on-disk tag (superblock / checkpoint field).
    pub fn as_u8(self) -> u8 {
        match self {
            Self::Plain => 0,
            Self::VarintDelta => 1,
            Self::BitPacked => 2,
        }
    }

    /// Inverse of [`Self::as_u8`].
    pub fn from_u8(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(Self::Plain),
            1 => Ok(Self::VarintDelta),
            2 => Ok(Self::BitPacked),
            other => Err(IndexError::Corruption(format!("unknown postings codec tag {other}"))),
        }
    }

    /// Parse a human-readable codec name (CLI flags, configs).
    pub fn parse(name: &str) -> Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "plain" | "fixed" => Ok(Self::Plain),
            "varint" | "varint-delta" => Ok(Self::VarintDelta),
            "bitpacked" | "bit-packed" | "pfor" => Ok(Self::BitPacked),
            other => Err(IndexError::InvalidConfig(format!(
                "unknown postings codec {other:?} (expected plain, varint, or bitpacked)"
            ))),
        }
    }

    /// True for the codecs that store coding-block streams (everything
    /// except [`PostingsCodec::Plain`]).
    pub fn is_compressed(self) -> bool {
        !matches!(self, Self::Plain)
    }
}

impl std::fmt::Display for PostingsCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::Plain => "plain",
            Self::VarintDelta => "varint",
            Self::BitPacked => "bitpacked",
        };
        write!(f, "{name}")
    }
}

/// Fixed size of a coding-block header.
pub const HEADER_LEN: usize = 10;

const MODE_PLAIN: u8 = 0;
const MODE_VARINT: u8 = 1;
const MODE_PACKED: u8 = 2;

fn push_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or_else(|| IndexError::Corruption("codec varint truncated".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(IndexError::Corruption("codec varint overflow".into()));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn varint_payload(docs: &[DocId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(docs.len() * 2);
    let mut prev = 0u64;
    for (i, d) in docs.iter().enumerate() {
        let v = d.0 as u64;
        let gap = if i == 0 { v + 1 } else { v - prev };
        push_varint(gap, &mut out);
        prev = v;
    }
    out
}

fn packed_payload(docs: &[DocId]) -> Vec<u8> {
    let first = docs[0].0;
    // Width = bits needed for the largest (gap − 1); 0 when every gap is 1
    // (a dense run) or the block holds a single posting.
    let mut max_rel = 0u32;
    for w in docs.windows(2) {
        max_rel = max_rel.max(w[1].0 - w[0].0 - 1);
    }
    let width = (32 - max_rel.leading_zeros()) as u8;
    let nvals = docs.len() - 1;
    let mut out = Vec::with_capacity(5 + (nvals * width as usize).div_ceil(8));
    out.extend_from_slice(&first.to_le_bytes());
    out.push(width);
    if width > 0 {
        let mut acc = 0u64;
        let mut bits = 0u32;
        for w in docs.windows(2) {
            let v = (w[1].0 - w[0].0 - 1) as u64;
            acc |= v << bits;
            bits += width as u32;
            while bits >= 8 {
                out.push((acc & 0xff) as u8);
                acc >>= 8;
                bits -= 8;
            }
        }
        if bits > 0 {
            out.push((acc & 0xff) as u8);
        }
    }
    out
}

fn unpack_payload(payload: &[u8], count: usize) -> Result<Vec<DocId>> {
    if payload.len() < 5 {
        return Err(IndexError::Corruption("bit-packed payload truncated".into()));
    }
    let first = u32::from_le_bytes(payload[0..4].try_into().expect("4"));
    let width = payload[4] as u32;
    if width > 32 {
        return Err(IndexError::Corruption(format!("bit-packed width {width} exceeds 32")));
    }
    let nvals = count - 1;
    let need = 5 + (nvals * width as usize).div_ceil(8);
    if payload.len() < need {
        return Err(IndexError::Corruption("bit-packed payload truncated".into()));
    }
    let mut out = Vec::with_capacity(count);
    out.push(DocId(first));
    if nvals == 0 {
        return Ok(out);
    }
    let mut acc = 0u64;
    let mut bits = 0u32;
    let mut pos = 5usize;
    let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
    let mut prev = first as u64;
    for _ in 0..nvals {
        while bits < width {
            acc |= (payload[pos] as u64) << bits;
            pos += 1;
            bits += 8;
        }
        let rel = acc & mask;
        acc >>= width;
        bits -= width;
        let v = prev + rel + 1;
        if v > u32::MAX as u64 {
            return Err(IndexError::Corruption("bit-packed doc id overflow".into()));
        }
        out.push(DocId(v as u32));
        prev = v;
    }
    Ok(out)
}

/// Encode one coding block (≤ `BlockPosting` postings) for `codec`,
/// appending header + payload to `out`. Falls back to the plain escape
/// when compression would not pay.
fn encode_block(codec: PostingsCodec, docs: &[DocId], out: &mut Vec<u8>) {
    debug_assert!(!docs.is_empty() && docs.len() <= u16::MAX as usize);
    let plain_len = fixed::encoded_len(docs.len());
    let payload = match codec {
        PostingsCodec::Plain => unreachable!("plain lists are not coding-block streams"),
        PostingsCodec::VarintDelta => varint_payload(docs),
        PostingsCodec::BitPacked => packed_payload(docs),
    };
    let (mode, payload) = if payload.len() > plain_len {
        let mut raw = vec![0u8; plain_len];
        fixed::encode_into(docs, &mut raw);
        (MODE_PLAIN, raw)
    } else {
        let mode = match codec {
            PostingsCodec::VarintDelta => MODE_VARINT,
            PostingsCodec::BitPacked => MODE_PACKED,
            PostingsCodec::Plain => unreachable!(),
        };
        (mode, payload)
    };
    out.push(mode);
    out.extend_from_slice(&(docs.len() as u16).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    out.extend_from_slice(&docs.last().expect("non-empty").0.to_le_bytes());
    out.push(1); // max_tf: binary term frequency in a presence index.
    out.extend_from_slice(&payload);
}

/// Encode a sorted posting list as a coding-block stream, `block_postings`
/// postings per coding block. An empty list encodes to an empty stream.
pub fn encode_stream(codec: PostingsCodec, docs: &[DocId], block_postings: u64) -> Vec<u8> {
    debug_assert!(codec.is_compressed(), "plain lists use the fixed layout");
    let mut out = Vec::with_capacity(docs.len() + 16);
    for block in docs.chunks(block_postings as usize) {
        encode_block(codec, block, &mut out);
    }
    out
}

/// One decoded coding-block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Encoding mode of the payload.
    pub mode: u8,
    /// Postings in the block.
    pub count: u16,
    /// Payload length in bytes.
    pub bytes: u16,
    /// Largest doc id in the block — the skip entry.
    pub max_doc: u32,
    /// Largest within-document term frequency (1 for presence postings).
    pub max_tf: u8,
}

fn read_header(stream: &[u8], pos: usize) -> Result<BlockHeader> {
    if stream.len() < pos + HEADER_LEN {
        return Err(IndexError::Corruption("coding-block header truncated".into()));
    }
    let h = &stream[pos..pos + HEADER_LEN];
    Ok(BlockHeader {
        mode: h[0],
        count: u16::from_le_bytes(h[1..3].try_into().expect("2")),
        bytes: u16::from_le_bytes(h[3..5].try_into().expect("2")),
        max_doc: u32::from_le_bytes(h[5..9].try_into().expect("4")),
        max_tf: h[9],
    })
}

fn decode_payload(header: BlockHeader, payload: &[u8]) -> Result<Vec<DocId>> {
    let count = header.count as usize;
    let docs = match header.mode {
        MODE_PLAIN => fixed::decode(payload, count)?,
        MODE_VARINT => {
            let mut pos = 0usize;
            let mut out = Vec::with_capacity(count);
            let mut prev = 0u64;
            for i in 0..count {
                let gap = read_varint(payload, &mut pos)?;
                if gap == 0 {
                    return Err(IndexError::Corruption("zero gap in coding block".into()));
                }
                let v = if i == 0 { gap - 1 } else { prev + gap };
                if v > u32::MAX as u64 {
                    return Err(IndexError::Corruption("varint doc id overflow".into()));
                }
                out.push(DocId(v as u32));
                prev = v;
            }
            out
        }
        MODE_PACKED => unpack_payload(payload, count)?,
        other => {
            return Err(IndexError::Corruption(format!("unknown coding-block mode {other}")))
        }
    };
    if docs.last().map(|d| d.0) != Some(header.max_doc) {
        return Err(IndexError::Corruption("coding-block skip entry disagrees with payload".into()));
    }
    Ok(docs)
}

/// Decode a coding-block stream of exactly `expected` postings.
///
/// Trailing bytes after the last coding block (block padding) are ignored;
/// a stream that runs dry before `expected` postings, or whose headers
/// disagree with their payloads, is corruption.
pub fn decode_stream(stream: &[u8], expected: u64) -> Result<Vec<DocId>> {
    let mut docs: Vec<DocId> = Vec::with_capacity(expected as usize);
    let mut pos = 0usize;
    while (docs.len() as u64) < expected {
        let header = read_header(stream, pos)?;
        if header.count == 0 {
            return Err(IndexError::Corruption("empty coding block".into()));
        }
        pos += HEADER_LEN;
        if stream.len() < pos + header.bytes as usize {
            return Err(IndexError::Corruption("coding-block payload truncated".into()));
        }
        let block = decode_payload(header, &stream[pos..pos + header.bytes as usize])?;
        pos += header.bytes as usize;
        if docs.len() as u64 + block.len() as u64 > expected {
            return Err(IndexError::Corruption(format!(
                "coding blocks overrun the expected {expected} postings"
            )));
        }
        docs.extend(block);
    }
    Ok(docs)
}

/// Decode only the postings `≥ min_doc`, using each block's `max_doc` skip
/// entry to step over whole blocks without touching their payloads.
/// Returns the surviving postings; blocks are skipped, not partially
/// decoded, so the first surviving block may contribute ids `< min_doc`
/// that are then filtered.
pub fn decode_stream_from(stream: &[u8], expected: u64, min_doc: u32) -> Result<Vec<DocId>> {
    let mut docs: Vec<DocId> = Vec::new();
    let mut seen = 0u64;
    let mut pos = 0usize;
    while seen < expected {
        let header = read_header(stream, pos)?;
        if header.count == 0 {
            return Err(IndexError::Corruption("empty coding block".into()));
        }
        pos += HEADER_LEN;
        if stream.len() < pos + header.bytes as usize {
            return Err(IndexError::Corruption("coding-block payload truncated".into()));
        }
        if header.max_doc >= min_doc {
            let block = decode_payload(header, &stream[pos..pos + header.bytes as usize])?;
            docs.extend(block.into_iter().filter(|d| d.0 >= min_doc));
        }
        pos += header.bytes as usize;
        seen += header.count as u64;
        if seen > expected {
            return Err(IndexError::Corruption(format!(
                "coding blocks overrun the expected {expected} postings"
            )));
        }
    }
    Ok(docs)
}

/// Iterate the stream's block headers (skip entries + max-tf metadata)
/// without decoding any payload.
pub fn stream_headers(stream: &[u8], expected: u64) -> Result<Vec<BlockHeader>> {
    let mut out = Vec::new();
    let mut seen = 0u64;
    let mut pos = 0usize;
    while seen < expected {
        let header = read_header(stream, pos)?;
        if header.count == 0 {
            return Err(IndexError::Corruption("empty coding block".into()));
        }
        pos += HEADER_LEN + header.bytes as usize;
        if stream.len() < pos {
            return Err(IndexError::Corruption("coding-block payload truncated".into()));
        }
        seen += header.count as u64;
        out.push(header);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<DocId> {
        v.iter().map(|&i| DocId(i)).collect()
    }

    #[test]
    fn round_trip_both_codecs() {
        for codec in [PostingsCodec::VarintDelta, PostingsCodec::BitPacked] {
            for docs in [
                vec![],
                vec![0u32],
                vec![u32::MAX],
                vec![0, 1, 2, 3, 4],
                vec![5, 1000, 1001, 4_000_000_000],
                (0..1000u32).map(|i| i * 7).collect(),
                (0..95u32).collect(), // non-multiple of block size
            ] {
                let docs = ids(&docs);
                for bp in [1u64, 3, 10, 100] {
                    let stream = encode_stream(codec, &docs, bp);
                    let back = decode_stream(&stream, docs.len() as u64).unwrap();
                    assert_eq!(back, docs, "{codec} bp={bp}");
                }
            }
        }
    }

    #[test]
    fn coding_block_never_beats_plain_escape() {
        // Adversarial gaps: huge deltas make varint/packed payloads fat;
        // the escape keeps every block within 10 + 4·count bytes.
        let docs: Vec<DocId> =
            (0..64u32).map(|i| DocId(i.wrapping_mul(67_108_864))).collect::<Vec<_>>();
        let docs = {
            let mut v: Vec<u32> = docs.iter().map(|d| d.0).collect();
            v.sort_unstable();
            v.dedup();
            ids(&v)
        };
        for codec in [PostingsCodec::VarintDelta, PostingsCodec::BitPacked] {
            let bp = 10u64;
            let stream = encode_stream(codec, &docs, bp);
            let blocks = (docs.len() as u64).div_ceil(bp);
            assert!(
                stream.len() as u64 <= blocks * (HEADER_LEN as u64 + 4 * bp),
                "{codec} stream overran the escape bound"
            );
            assert_eq!(decode_stream(&stream, docs.len() as u64).unwrap(), docs);
        }
    }

    #[test]
    fn dense_lists_compress_well() {
        let docs = ids(&(1000..3000u32).collect::<Vec<_>>());
        for codec in [PostingsCodec::VarintDelta, PostingsCodec::BitPacked] {
            let stream = encode_stream(codec, &docs, 100);
            assert!(
                stream.len() < fixed::encoded_len(docs.len()) / 2,
                "{codec}: {} bytes for {} raw",
                stream.len(),
                fixed::encoded_len(docs.len())
            );
        }
    }

    #[test]
    fn skip_entries_match_block_maxima() {
        let docs = ids(&(0..55u32).map(|i| i * 3).collect::<Vec<_>>());
        let stream = encode_stream(PostingsCodec::BitPacked, &docs, 10);
        let headers = stream_headers(&stream, docs.len() as u64).unwrap();
        assert_eq!(headers.len(), 6);
        assert_eq!(headers[0].max_doc, 27);
        assert_eq!(headers[5].max_doc, 162);
        assert!(headers.iter().all(|h| h.max_tf == 1));
        // Skip-decode from the middle touches only the tail blocks.
        let tail = decode_stream_from(&stream, docs.len() as u64, 100).unwrap();
        assert_eq!(tail, ids(&(0..55u32).map(|i| i * 3).filter(|&d| d >= 100).collect::<Vec<_>>()));
    }

    #[test]
    fn truncation_and_corruption_detected() {
        let docs = ids(&(0..40u32).collect::<Vec<_>>());
        let stream = encode_stream(PostingsCodec::VarintDelta, &docs, 10);
        assert!(decode_stream(&stream[..stream.len() - 1], 40).is_err());
        assert!(decode_stream(&stream[..5], 40).is_err());
        // Wrong expected count: too many postings wanted.
        assert!(decode_stream(&stream, 41).is_err());
        // Flip the skip entry of the first block.
        let mut bad = stream.clone();
        bad[5] ^= 0xff;
        assert!(decode_stream(&bad, 40).is_err());
        // Unknown mode byte.
        let mut bad = stream;
        bad[0] = 9;
        assert!(decode_stream(&bad, 40).is_err());
    }

    #[test]
    fn trailing_padding_is_tolerated() {
        let docs = ids(&[1, 5, 9]);
        let mut stream = encode_stream(PostingsCodec::BitPacked, &docs, 10);
        stream.extend_from_slice(&[0u8; 300]);
        assert_eq!(decode_stream(&stream, 3).unwrap(), docs);
    }

    #[test]
    fn codec_tags_and_names_round_trip() {
        for codec in [PostingsCodec::Plain, PostingsCodec::VarintDelta, PostingsCodec::BitPacked] {
            assert_eq!(PostingsCodec::from_u8(codec.as_u8()).unwrap(), codec);
            assert_eq!(PostingsCodec::parse(&codec.to_string()).unwrap(), codec);
        }
        assert!(PostingsCodec::from_u8(9).is_err());
        assert!(PostingsCodec::parse("zstd").is_err());
        assert!(!PostingsCodec::Plain.is_compressed());
        assert!(PostingsCodec::BitPacked.is_compressed());
    }
}
