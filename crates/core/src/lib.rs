//! # invidx-core — the dual-structure incremental inverted index
//!
//! The primary contribution of *Tomasic, Garcia-Molina & Shoens,
//! "Incremental Updates of Inverted Lists for Text Document Retrieval",
//! SIGMOD 1994*: an index that dynamically separates **short** inverted
//! lists (packed many-per-bucket in fixed-size regions) from **long**
//! inverted lists (variable-length contiguous chunk sequences on disk),
//! with a policy family — `Style × Limit × Alloc` — governing where long
//! lists grow, whether they grow in place, and how much space is reserved
//! for future growth.
//!
//! Quick tour:
//!
//! ```
//! use invidx_core::index::{DualIndex, IndexConfig};
//! use invidx_core::policy::Policy;
//! use invidx_core::types::{DocId, WordId};
//! use invidx_disk::sparse_array;
//!
//! let array = sparse_array(2, 10_000, 256);
//! let config = IndexConfig::small().with_policy(Policy::balanced());
//! let mut index = DualIndex::create(array, config).unwrap();
//! index.insert_document(DocId(1), [WordId(10), WordId(20)]).unwrap();
//! index.insert_document(DocId(2), [WordId(10)]).unwrap();
//! index.flush_batch().unwrap();
//! let list = index.postings(WordId(10)).unwrap();
//! assert_eq!(list.docs(), &[DocId(1), DocId(2)]);
//! ```
//!
//! Modules, bottom-up:
//!
//! * [`types`] — identifiers and errors;
//! * [`postings`] — sorted posting lists, merges, and codecs;
//! * [`memindex`] — the per-batch in-memory inverted index;
//! * [`bucket`] — fixed-capacity buckets with longest-list eviction;
//! * [`directory`] — long-list chunk metadata + the RELEASE list;
//! * [`policy`] — the `Style`/`Limit`/`Alloc` policy space (paper Table 2);
//! * [`longlist`] — the Figure 2 update algorithm over a disk array;
//! * [`index`] — [`index::DualIndex`]: updates, queries, deletion
//!   (filter + sweep), shadow-paged flush, and crash recovery;
//! * [`epoch`] — the batch-epoch counter the serving layer names snapshots by.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bucket;
pub mod codec;
pub mod directory;
pub mod epoch;
pub mod index;
pub mod longlist;
pub mod memindex;
pub mod parallel;
pub mod policy;
pub mod postings;
pub mod types;

pub use bucket::{Bucket, BucketStore, InsertOutcome};
pub use codec::PostingsCodec;
pub use directory::{ChunkRef, Directory, LongEntry};
pub use epoch::EpochCounter;
pub use index::{
    BatchReport, CompactReport, DualIndex, EngineKind, IndexConfig, IndexSnapshot,
    RebalanceReport, SweepReport, WordLocation,
};
pub use longlist::{LongConfig, LongStats, LongStore};
pub use memindex::MemIndex;
pub use parallel::{invert_batch, shard_of};
pub use policy::{Alloc, Limit, Policy, Style};
pub use postings::PostingList;
pub use types::{DocId, IndexError, Result, WordId};
