//! Core identifier and error types.

use std::fmt;

/// A word identifier. The paper converts all words to unique integers
/// before the index sees them (§4.2); interning from strings happens in the
//  IR layer.
/// Word 0 is reserved (it is the end-of-batch marker in trace files).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct WordId(pub u64);

impl fmt::Display for WordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A document identifier. "We assume that new documents are numbered with
/// identifiers in increasing order" (§3) — every append to an inverted list
/// carries doc ids greater than those already present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct DocId(pub u32);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, IndexError>;

/// Errors raised by the dual-structure index.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying disk failure.
    Disk(invidx_disk::DiskError),
    /// Postings must be appended in increasing document order.
    OutOfOrderAppend {
        /// The word being appended to.
        word: WordId,
        /// Largest document already present.
        have: DocId,
        /// Offending new document.
        new: DocId,
    },
    /// Documents must be added to a batch in increasing id order.
    OutOfOrderDocument {
        /// Largest document id already added.
        have: DocId,
        /// Offending new document.
        new: DocId,
    },
    /// On-disk bytes failed validation when loaded.
    Corruption(String),
    /// A configuration that cannot work (e.g. zero buckets).
    InvalidConfig(String),
    /// An existing on-disk index was written with a different postings
    /// codec than the caller requested. Re-encoding in place would be
    /// silent corruption; rebuild the index to change codecs.
    CodecMismatch {
        /// Codec tag recorded in the on-disk superblock.
        on_disk: crate::codec::PostingsCodec,
        /// Codec the caller's configuration asked for.
        requested: crate::codec::PostingsCodec,
    },
    /// An existing store has a segment manifest, so it can only be opened
    /// by a store that can seal ([`crate::index::EngineKind::Segmented`]).
    EngineMismatch {
        /// Engine kind the caller's configuration asked for.
        requested: crate::index::EngineKind,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Disk(e) => write!(f, "disk error: {e}"),
            Self::OutOfOrderAppend { word, have, new } => write!(
                f,
                "out-of-order append to {word}: have up to {have}, got {new}"
            ),
            Self::OutOfOrderDocument { have, new } => write!(
                f,
                "out-of-order document: have up to {have}, got {new}"
            ),
            Self::Corruption(msg) => write!(f, "index corruption: {msg}"),
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::CodecMismatch { on_disk, requested } => write!(
                f,
                "postings codec mismatch: on-disk index uses {on_disk}, caller requested {requested}"
            ),
            Self::EngineMismatch { requested } => write!(
                f,
                "engine mismatch: the store has a segment manifest, caller requested {requested:?}"
            ),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<invidx_disk::DiskError> for IndexError {
    fn from(e: invidx_disk::DiskError) -> Self {
        Self::Disk(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(WordId(42).to_string(), "w42");
        assert_eq!(DocId(7).to_string(), "d7");
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = IndexError::OutOfOrderAppend { word: WordId(1), have: DocId(5), new: DocId(3) };
        assert!(e.to_string().contains("out-of-order"));
        assert!(e.source().is_none());
        let e = IndexError::OutOfOrderDocument { have: DocId(5), new: DocId(3) };
        assert!(e.to_string().contains("out-of-order document"));
        assert!(!e.to_string().contains('w'), "no bogus word in document-order errors");
        let d: IndexError = invidx_disk::DiskError::EmptyAccess.into();
        assert!(d.source().is_some());
        let e = IndexError::CodecMismatch {
            on_disk: crate::codec::PostingsCodec::BitPacked,
            requested: crate::codec::PostingsCodec::Plain,
        };
        assert!(e.to_string().contains("bitpacked"));
        assert!(e.to_string().contains("plain"));
    }

    #[test]
    fn ordering_matches_numeric() {
        assert!(DocId(3) < DocId(10));
        assert!(WordId(3) < WordId(10));
    }
}
