//! # invidx-disk — the disk substrate
//!
//! The paper evaluates its index-update policies against real 1994 hardware
//! (an IBM RS/6000 with eight SCSI-2 disks, raw partitions, §4.5). This
//! crate is the substitute substrate:
//!
//! * [`block`] — the raw-partition abstraction ([`block::BlockDevice`]) with
//!   dense, sparse, and file-backed implementations;
//! * [`freelist`] — per-disk extent allocation: the paper's first-fit free
//!   list, plus best-fit;
//! * [`buddy`] — a binary buddy allocator (the Cutting–Pedersen alternative
//!   the paper mentions), for ablations;
//! * [`model`] — disk service-time models (1994 SCSI-2, modern HDD, SSD,
//!   optical), used to *time* I/O traces;
//! * [`array`] — multi-disk arrays with the paper's round-robin placement
//!   cursor and I/O trace recording;
//! * [`trace`] — the I/O trace format (paper Figure 6);
//! * [`exercise`] — the "exercise disks" process: per-disk parallel
//!   execution with in-order coalescing up to `BufferBlock` blocks.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod array;
pub mod block;
pub mod buddy;
pub mod error;
pub mod exercise;
pub mod freelist;
pub mod model;
pub mod trace;

pub use array::{sparse_array, Disk, DiskArray};
pub use block::{BlockDevice, FileDevice, MemDevice, SparseDevice};
pub use buddy::BuddyAllocator;
pub use error::{DiskError, Result};
pub use exercise::{coalesce_batch, exercise, ExerciseConfig, ExerciseResult};
pub use freelist::{ExtentAllocator, FitStrategy, FreeList};
pub use model::DiskProfile;
pub use trace::{IoOp, IoTrace, OpKind, Payload};
