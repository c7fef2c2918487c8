//! The batch-epoch counter.
//!
//! The paper motivates in-place updates with "today's world of 7 days a
//! week, 24 hours a day continuous operation" (§1): the index must answer
//! queries while batches are applied. The serving layer does that with
//! published snapshots, and [`EpochCounter`] is the number that names
//! them.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone batch-epoch counter.
///
/// The serving layer's snapshot model hangs off this number: the epoch
/// advances exactly when the visible state of the index changes (a batch
/// flush, a sweep — anything that lands under the write lock), so any
/// result computed under the read lock is fully described by the epoch it
/// was computed at. Caches key their invalidation on it: an entry recorded
/// at epoch `e` is valid while the counter still reads `e`.
#[derive(Debug, Default)]
pub struct EpochCounter(AtomicU64);

impl EpochCounter {
    /// A counter starting at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter starting at an arbitrary epoch — used when the epoch is
    /// anchored to persistent state (a durable store's committed batch
    /// count), so epochs stay comparable across restarts and replicas.
    pub fn starting_at(epoch: u64) -> Self {
        Self(AtomicU64::new(epoch))
    }

    /// The current epoch.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Advance to the next epoch, returning the new value. Called with the
    /// writer lock held, after a mutation becomes visible to readers.
    pub fn bump(&self) -> u64 {
        self.0.fetch_add(1, Ordering::AcqRel) + 1
    }
}
