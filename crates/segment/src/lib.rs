//! # invidx-segment — the one store: an in-place L0 plus sealed segments
//!
//! The paper's in-place engine updates long lists where they sit, which
//! is ideal for incremental batches but accumulates fragmentation and
//! relocation churn as lists grow (§1's "massive reorganization"
//! trade-off). This crate adds the complementary design point: an
//! LSM-style tier of **immutable sealed segments** under the existing
//! dual structure, which becomes the mutable **L0**. The two are one
//! store: with no seal budget ([`invidx_core::EngineKind::InPlace`]) L0
//! never seals and the store is exactly the paper's in-place index.
//!
//! * [`format`] — the write-once segment artifact: sorted term runs,
//!   term index, CRC'd footer, block extents on the shared
//!   [`invidx_disk::DiskArray`] (traced as `Payload::Segment`), reads
//!   through the shared block cache;
//! * [`manifest`] — the generation-numbered source of truth for the
//!   live-segment set, persisted by atomic rename at the checkpoint's
//!   fault points;
//! * [`compact`] — the tiered, rate-limited, cooperative merge
//!   scheduler;
//! * [`durable`] — [`DurableSegmentedIndex`], the one store:
//!   seal-on-budget L0 + merged reads behind the same `postings()`
//!   interface; with a logged L0 and a budget also the manifest file,
//!   the manifest/checkpoint lockstep and roll-forward recovery;
//! * [`store`] — its [`SegmentStats`] and the seal/merge writers.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod compact;
pub mod durable;
pub mod error;
pub mod format;
pub mod manifest;
pub mod store;

pub use compact::{plan, CompactionPolicy, MergePlan};
pub use durable::{DurableSegmentedIndex, ProtocolSite};
pub use error::{Result, SegmentError};
pub use format::{SegmentExtent, SegmentMeta, SegmentWriter, TermEntry};
pub use manifest::{Manifest, ManifestFile, MANIFEST_FILE};
pub use store::SegmentStats;
