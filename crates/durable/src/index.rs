//! [`DurableIndex`]: [`invidx_core::DualIndex`] plus an optional
//! write-ahead log.
//!
//! Whether a store has a log is decided at construction and known only
//! here: [`DurableIndex::create`] / [`DurableIndex::open`] build one in a
//! store directory, [`DurableIndex::without_log`] wraps a caller-supplied
//! disk array with none. Without a log every mutating operation is the
//! paper's own shadow-paged commit ([`DualIndex::flush_batch`],
//! [`DualIndex::sweep`], [`DualIndex::compact`],
//! [`DualIndex::rebalance_buckets`]). With one it follows this shape:
//!
//! ```text
//! 1. encode a WAL record and append it           (not yet durable)
//! 2. fsync the WAL                               (COMMIT POINT)
//! 3. apply the operation to the in-place index   (redo on crash)
//! 4. every `checkpoint_every` records: checkpoint + reset the WAL
//! ```
//!
//! A crash before step 2 completes loses the operation entirely — recovery
//! truncates the torn record and the store reflects the previous batch. A
//! crash anywhere after step 2 replays the record against the last
//! checkpoint, and the deterministic-replay invariants (freed-extent
//! quarantine, exact extent re-reservation at restore) guarantee the replay
//! reproduces the original run block for block.
//!
//! Any error in steps 2–4 — injected or real — poisons the handle: the
//! in-place structures may be ahead of or behind the log, so the only safe
//! continuation is to drop the handle and re-open (recover) the store.

use crate::checkpoint::{Checkpoint, StoreGeometry};
use crate::error::{DurableError, Result};
use crate::fault::{FaultDevice, FaultInjector};
use crate::wal::{WalReader, WalRecord, WalWriter};
use invidx_core::{
    BatchReport, CompactReport, DocId, DualIndex, IndexConfig, IndexError, PostingList,
    RebalanceReport, SweepReport, WordId,
};
use invidx_disk::{Disk, DiskArray, FileDevice, FitStrategy, FreeList};
use invidx_obs::names;
use std::path::{Path, PathBuf};

/// WAL file name inside a durable store directory.
pub const WAL_FILE: &str = "wal.log";
/// Checkpoint file name inside a durable store directory.
pub const CKPT_FILE: &str = "index.ckpt";

/// Tuning knobs for the durability discipline.
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Checkpoint after this many committed WAL records (0 = only on
    /// explicit [`DurableIndex::checkpoint`] calls).
    pub checkpoint_every: u64,
    /// fsync the WAL at each commit. Turning this off surrenders the
    /// commit point to the OS page cache — only the durability-overhead
    /// ablation should do that.
    pub fsync_wal: bool,
    /// Overlap each flush's WAL append + fsync with the in-place batch
    /// apply on a background thread, joining before the flush returns.
    /// Crash-safe: if the process dies before the fsync lands, the record
    /// is lost and recovery sees the previous batch — the apply's device
    /// writes only touched blocks the checkpoint considers free or bytes
    /// past the committed posting counts, both invisible after recovery.
    /// Incompatible with deterministically ordered fault injection at the
    /// WAL fault points, so the kill-matrix tests leave it off.
    pub pipelined_wal: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self { checkpoint_every: 8, fsync_wal: true, pipelined_wal: false }
    }
}

impl DurableOptions {
    /// Start building options from the defaults; finish with
    /// [`DurableOptionsBuilder::build`].
    pub fn builder() -> DurableOptionsBuilder {
        DurableOptionsBuilder { opts: Self::default() }
    }
}

/// Builder for [`DurableOptions`]; obtain via [`DurableOptions::builder`].
#[derive(Debug, Clone)]
pub struct DurableOptionsBuilder {
    opts: DurableOptions,
}

impl DurableOptionsBuilder {
    /// Checkpoint after this many committed WAL records (0 = explicit
    /// checkpoints only).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.opts.checkpoint_every = every;
        self
    }

    /// fsync the WAL at each commit.
    pub fn fsync_wal(mut self, on: bool) -> Self {
        self.opts.fsync_wal = on;
        self
    }

    /// Overlap WAL append + fsync with the in-place batch apply.
    pub fn pipelined_wal(mut self, on: bool) -> Self {
        self.opts.pipelined_wal = on;
        self
    }

    /// Validate and return the options. (All current combinations are
    /// valid; validation exists so future invariants have a home and the
    /// builder matches [`invidx_core::IndexConfig::builder`]'s shape.)
    pub fn build(self) -> Result<DurableOptions> {
        Ok(self.opts)
    }
}

/// Hooks that let a higher layer (the IR engine) participate in recovery.
///
/// The engine stores state outside the index proper — a document store and
/// a vocabulary, both living in extents of the same disk array. Those
/// extents must be re-reserved from checkpoint metadata *before* WAL
/// replay applies index writes (`on_checkpoint_meta`), and each batch's
/// document appends must be redone *before* that batch's index postings
/// are applied (`before_apply`), because that is the order the original
/// run allocated in. Replay determinism depends on it.
pub trait RecoveryHooks {
    /// Called once, after the checkpoint snapshot restored the index and
    /// before any WAL record is replayed. `meta` is the blob passed to
    /// [`DurableIndex::set_checkpoint_meta`].
    fn on_checkpoint_meta(&mut self, meta: &[u8], index: &mut DualIndex) -> Result<()> {
        let _ = (meta, index);
        Ok(())
    }

    /// Called for each WAL record about to be replayed, before its index
    /// mutations are applied.
    fn before_apply(&mut self, record: &WalRecord, index: &mut DualIndex) -> Result<()> {
        let _ = (record, index);
        Ok(())
    }
}

/// The trivial hook set for stores with no higher-layer state.
impl RecoveryHooks for () {}

/// What recovery found and did while opening a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Batch number of the checkpoint the store was restored from.
    pub checkpoint_batch: u64,
    /// WAL records replayed past the checkpoint.
    pub replayed_records: u64,
    /// Stale records skipped because the checkpoint already covered them
    /// (a crash hit between the checkpoint rename and the WAL reset).
    pub skipped_records: u64,
    /// Torn/corrupt tail bytes truncated from the WAL.
    pub truncated_bytes: u64,
}

/// The write-ahead half of a [`DurableIndex`].
struct Log {
    wal: WalWriter,
    ckpt_path: PathBuf,
    opts: DurableOptions,
    /// Deletions issued since the last WAL record (they ride in the next
    /// `Batch` or `Sweep` record).
    pending_deletes: Vec<DocId>,
    /// Higher-layer blob stored in every checkpoint (vocabulary, document
    /// store directory, ...).
    ckpt_meta: Vec<u8>,
    records_since_ckpt: u64,
    last_ckpt_batch: u64,
    recovery: Option<RecoveryInfo>,
}

/// [`DualIndex`] plus, when opened in a store directory, WAL, checkpoints,
/// and recovery.
pub struct DurableIndex {
    inner: DualIndex,
    log: Option<Log>,
    injector: FaultInjector,
    poisoned: bool,
}

fn build_array(
    dir: &Path,
    geometry: StoreGeometry,
    injector: &FaultInjector,
    create: bool,
) -> Result<DiskArray> {
    let bs = geometry.block_size as usize;
    let mut disks = Vec::with_capacity(geometry.disks as usize);
    for i in 0..geometry.disks {
        let path = dir.join(format!("disk-{i}.dat"));
        let dev = if create {
            FileDevice::create(&path, geometry.blocks_per_disk, bs)?
        } else {
            FileDevice::open(&path, bs)?
        };
        disks.push(Disk {
            device: Box::new(FaultDevice::new(dev, injector.clone())),
            alloc: Box::new(FreeList::new(geometry.blocks_per_disk, FitStrategy::FirstFit)),
        });
    }
    Ok(DiskArray::new(disks))
}

impl DurableIndex {
    /// Create a fresh durable store in `dir`: device files, an initial
    /// batch-0 checkpoint, and an empty WAL.
    pub fn create(
        dir: &Path,
        config: IndexConfig,
        geometry: StoreGeometry,
        opts: DurableOptions,
    ) -> Result<Self> {
        Self::create_with(dir, config, geometry, opts, FaultInjector::new())
    }

    /// [`Self::create`] with a caller-supplied fault injector (tests).
    pub fn create_with(
        dir: &Path,
        config: IndexConfig,
        geometry: StoreGeometry,
        opts: DurableOptions,
        injector: FaultInjector,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let array = build_array(dir, geometry, &injector, true)?;
        let mut inner = DualIndex::create(array, config)?;
        inner.set_defer_frees(true);
        let wal = WalWriter::open(&dir.join(WAL_FILE), injector.clone())?;
        let log = Log {
            wal,
            ckpt_path: dir.join(CKPT_FILE),
            opts,
            pending_deletes: Vec::new(),
            ckpt_meta: Vec::new(),
            records_since_ckpt: 0,
            last_ckpt_batch: 0,
            recovery: None,
        };
        let mut me = Self { inner, log: Some(log), injector, poisoned: false };
        // An initial checkpoint so recovery always has a base to restore.
        me.checkpoint()?;
        Ok(me)
    }

    /// A fresh index on `array` with no write-ahead log, no checkpoint
    /// file and no store directory: each batch commits through the
    /// paper's shadow-paged metadata flush, and the array frees extents
    /// immediately (no quarantine — there is no replay to protect).
    pub fn without_log(array: DiskArray, config: IndexConfig) -> Result<Self> {
        let inner = DualIndex::create(array, config)?;
        Ok(Self { inner, log: None, injector: FaultInjector::new(), poisoned: false })
    }

    /// Open (recover) the store in `dir`: load the latest checkpoint,
    /// replay the WAL past it, truncate any torn tail.
    pub fn open(dir: &Path, config: IndexConfig, opts: DurableOptions) -> Result<Self> {
        Self::open_with(dir, config, opts, FaultInjector::new(), &mut ())
    }

    /// [`Self::open`] with a fault injector and recovery hooks.
    pub fn open_with(
        dir: &Path,
        config: IndexConfig,
        opts: DurableOptions,
        injector: FaultInjector,
        hooks: &mut dyn RecoveryHooks,
    ) -> Result<Self> {
        let _span = invidx_obs::span("recovery");
        invidx_obs::counter!(names::RECOVERY_OPENS).inc();
        let ckpt_path = dir.join(CKPT_FILE);
        // A temp file is a checkpoint attempt whose rename never happened.
        std::fs::remove_file(dir.join(format!("{CKPT_FILE}.tmp"))).ok();
        let ck = Checkpoint::load(&ckpt_path)?.ok_or_else(|| {
            DurableError::Corrupt(format!("no checkpoint at {}", ckpt_path.display()))
        })?;
        let array = build_array(dir, ck.geometry, &injector, false)?;
        let mut inner = DualIndex::restore(array, config, &ck.snapshot)?;
        hooks.on_checkpoint_meta(&ck.meta, &mut inner)?;
        // Free-space verification: restore plus hooks must have re-reserved
        // exactly the live extents the checkpoint knew about.
        let usage = inner.array().per_disk_usage();
        if usage.len() != ck.free_per_disk.len() {
            return Err(DurableError::Corrupt(format!(
                "checkpoint records {} disks, array has {}",
                ck.free_per_disk.len(),
                usage.len()
            )));
        }
        for (i, (&(free, _), &want)) in usage.iter().zip(&ck.free_per_disk).enumerate() {
            if free != want {
                return Err(DurableError::Corrupt(format!(
                    "disk {i}: {free} free blocks after restore, checkpoint recorded {want}"
                )));
            }
        }
        inner.set_defer_frees(true);

        let mut wal = WalWriter::open(&dir.join(WAL_FILE), injector.clone())?;
        let scan = WalReader::scan(&wal.read_all()?);
        let mut info = RecoveryInfo {
            checkpoint_batch: ck.batch_no(),
            truncated_bytes: scan.truncated,
            ..RecoveryInfo::default()
        };
        for rec in &scan.records {
            if rec.batch() <= ck.batch_no() {
                info.skipped_records += 1;
                continue;
            }
            hooks.before_apply(rec, &mut inner)?;
            Self::replay(&mut inner, rec)?;
            info.replayed_records += 1;
        }
        if scan.truncated > 0 {
            wal.truncate_to(scan.valid_len)?;
            invidx_obs::counter!(names::RECOVERY_TRUNCATED_BYTES).add(scan.truncated);
        }
        if info.skipped_records > 0 && info.replayed_records == 0 {
            // The whole log predates the checkpoint: the crash hit between
            // the checkpoint rename and the WAL reset. Finish the reset.
            wal.truncate_to(0)?;
        }
        invidx_obs::counter!(names::RECOVERY_REPLAYED_RECORDS).add(info.replayed_records);
        invidx_obs::event!("recovery", {
            "checkpoint_batch": info.checkpoint_batch,
            "replayed_records": info.replayed_records,
            "skipped_records": info.skipped_records,
            "truncated_bytes": info.truncated_bytes,
        });
        let log = Log {
            wal,
            ckpt_path,
            opts,
            pending_deletes: Vec::new(),
            ckpt_meta: ck.meta,
            records_since_ckpt: info.replayed_records,
            last_ckpt_batch: info.checkpoint_batch,
            recovery: Some(info),
        };
        Ok(Self { inner, log: Some(log), injector, poisoned: false })
    }

    fn replay(inner: &mut DualIndex, rec: &WalRecord) -> Result<()> {
        match rec {
            WalRecord::Batch { lists, deletes, .. } => {
                for &d in deletes {
                    inner.delete_document(d);
                }
                for (w, docs) in lists {
                    inner.insert_list(*w, &PostingList::from_sorted(docs.clone()))?;
                }
                inner.apply_batch()?;
            }
            WalRecord::Sweep { deletes, .. } => {
                for &d in deletes {
                    inner.delete_document(d);
                }
                Self::sweep_core(inner)?;
            }
            WalRecord::Compact { .. } => {
                Self::compact_core(inner)?;
            }
            WalRecord::Rebalance { num_buckets, capacity_units, .. } => {
                Self::rebalance_core(inner, *num_buckets as usize, *capacity_units as u64)?;
            }
        }
        if inner.batches() != rec.batch() {
            return Err(DurableError::Corrupt(format!(
                "replay produced batch {}, record says {}",
                inner.batches(),
                rec.batch()
            )));
        }
        Ok(())
    }

    // The apply half of the three logged maintenance records: what the
    // live operation runs after its commit point and what replay redoes.

    fn sweep_core(inner: &mut DualIndex) -> invidx_core::Result<SweepReport> {
        let report = inner.sweep()?;
        inner.free_released()?;
        inner.bump_batch();
        Ok(report)
    }

    fn compact_core(inner: &mut DualIndex) -> invidx_core::Result<CompactReport> {
        let report = inner.compact_lists()?;
        inner.bump_batch();
        Ok(report)
    }

    fn rebalance_core(
        inner: &mut DualIndex,
        num_buckets: usize,
        capacity_units: u64,
    ) -> invidx_core::Result<RebalanceReport> {
        let report = inner.rebalance_core(num_buckets, capacity_units)?;
        inner.free_released()?;
        inner.bump_batch();
        Ok(report)
    }

    // ----- the update path -----

    /// Add a document to the current (unflushed, volatile) batch.
    pub fn insert_document<I>(&mut self, doc: DocId, words: I) -> Result<()>
    where
        I: IntoIterator<Item = WordId>,
    {
        self.check_poison()?;
        Ok(self.inner.insert_document(doc, words)?)
    }

    /// Add a whole batch of documents, inverted in parallel across the
    /// configured worker pool (see [`DualIndex::insert_documents`]).
    pub fn insert_documents(&mut self, docs: Vec<(DocId, Vec<WordId>)>, threads: usize) -> Result<()> {
        self.check_poison()?;
        Ok(self.inner.insert_documents(docs, threads)?)
    }

    /// Logically delete a document. With a log, rides in the next record.
    pub fn delete_document(&mut self, doc: DocId) {
        self.inner.delete_document(doc);
        if let Some(log) = &mut self.log {
            log.pending_deletes.push(doc);
        }
    }

    /// Flush the buffered batch: log, commit, apply — or, without a log,
    /// the shadow-paged [`DualIndex::flush_batch`].
    pub fn flush(&mut self) -> Result<BatchReport> {
        self.flush_with_meta(Vec::new)
    }

    /// [`Self::flush`] carrying an opaque higher-layer blob in the WAL
    /// record (the IR engine logs its per-batch vocabulary and document
    /// store growth here, so recovery hooks can redo it). `meta` is only
    /// called when there is a record to put it in.
    pub fn flush_with_meta(&mut self, meta: impl FnOnce() -> Vec<u8>) -> Result<BatchReport> {
        self.check_poison()?;
        let Some(log) = &mut self.log else {
            return Ok(self.inner.flush_batch()?);
        };
        let _span = invidx_obs::span("durable_flush");
        let lists: Vec<(WordId, Vec<DocId>)> =
            self.inner.mem().iter().map(|(w, l)| (w, l.docs().to_vec())).collect();
        let record = WalRecord::Batch {
            batch: self.inner.batches() + 1,
            lists,
            deletes: std::mem::take(&mut log.pending_deletes),
            meta: meta(),
        };
        let flushed = if log.opts.pipelined_wal {
            log.flush_pipelined(&mut self.inner, &self.injector, &record)
        } else {
            log.apply_logged(&mut self.inner, &self.injector, &record, DualIndex::apply_batch)
        };
        self.poison_on_err(flushed)
    }

    /// Physically remove deleted documents' postings (§3's background
    /// sweep) — a logged, replayable operation when there is a log.
    pub fn sweep(&mut self) -> Result<SweepReport> {
        self.check_poison()?;
        let Some(log) = &mut self.log else {
            return Ok(self.inner.sweep()?);
        };
        if self.inner.pending_deletions() == 0 {
            return Ok(SweepReport::default());
        }
        // The record carries the whole deletion filter, pending ones included.
        log.pending_deletes.clear();
        let record = WalRecord::Sweep {
            batch: self.inner.batches() + 1,
            deletes: self.inner.deleted_docs().collect(),
        };
        let swept = log.apply_logged(&mut self.inner, &self.injector, &record, Self::sweep_core);
        self.poison_on_err(swept)
    }

    /// Rewrite fragmented long lists contiguously (logged when there is a
    /// log). Requires a batch boundary (flush first).
    pub fn compact(&mut self) -> Result<CompactReport> {
        self.check_poison()?;
        let Some(log) = &mut self.log else {
            return Ok(self.inner.compact()?);
        };
        Self::require_boundary(&self.inner, "compaction")?;
        let record = WalRecord::Compact { batch: self.inner.batches() + 1 };
        let compacted = log.apply_logged(&mut self.inner, &self.injector, &record, Self::compact_core);
        self.poison_on_err(compacted)
    }

    /// Rehash the bucket space to a new geometry (logged when there is a
    /// log). Requires a batch boundary (flush first).
    pub fn rebalance(&mut self, num_buckets: usize, capacity_units: u64) -> Result<RebalanceReport> {
        self.check_poison()?;
        let Some(log) = &mut self.log else {
            return Ok(self.inner.rebalance_buckets(num_buckets, capacity_units)?);
        };
        Self::require_boundary(&self.inner, "rebalance")?;
        let record = WalRecord::Rebalance {
            batch: self.inner.batches() + 1,
            num_buckets: num_buckets as u32,
            capacity_units: capacity_units as u32,
        };
        let rebalanced = log.apply_logged(&mut self.inner, &self.injector, &record, |inner| {
            Self::rebalance_core(inner, num_buckets, capacity_units)
        });
        self.poison_on_err(rebalanced)
    }

    fn require_boundary(inner: &DualIndex, what: &str) -> Result<()> {
        if !inner.mem().is_empty() {
            return Err(DurableError::Index(IndexError::InvalidConfig(format!(
                "{what} requires a batch boundary (flush first)"
            ))));
        }
        Ok(())
    }

    // ----- checkpointing -----

    /// Stage the higher-layer blob stored in every subsequent checkpoint.
    /// `meta` is only called when there is a checkpoint file to carry it.
    pub fn set_checkpoint_meta(&mut self, meta: impl FnOnce() -> Vec<u8>) {
        if let Some(log) = &mut self.log {
            log.ckpt_meta = meta();
        }
    }

    /// Write a checkpoint now, reset the WAL, and release quarantined
    /// extents. Returns the checkpoint size in bytes — 0, having done
    /// nothing, for a store without a log (its last flush is its
    /// checkpoint).
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.check_poison()?;
        let Some(log) = &mut self.log else {
            return Ok(0);
        };
        let written = log.checkpoint(&mut self.inner, &self.injector);
        self.poison_on_err(written)
    }

    /// Any error past a logged operation's first write — injected or real
    /// — leaves the in-place structures ahead of or behind the log.
    fn poison_on_err<T>(&mut self, result: Result<T>) -> Result<T> {
        self.poisoned |= result.is_err();
        result
    }

    fn check_poison(&self) -> Result<()> {
        if self.poisoned {
            return Err(DurableError::Poisoned);
        }
        Ok(())
    }

    // ----- read path and introspection -----

    /// The full posting list for a word (stored + unflushed, deletion
    /// filtered).
    pub fn postings(&self, word: WordId) -> Result<PostingList> {
        Ok(self.inner.postings(word)?)
    }

    /// Completed batches.
    pub fn batches(&self) -> u64 {
        self.inner.batches()
    }

    /// Current WAL size in bytes (0 without a log).
    pub fn wal_size(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.wal.len())
    }

    /// Committed WAL records with batch numbers above `from_batch`,
    /// decoded from the live log — the WAL-shipping read path. `&self` on
    /// purpose: a serving layer answers tail requests under its read lock
    /// while the single writer appends. A torn tail (a record mid-append
    /// on the other side of the lock) is simply not yet visible; the
    /// tailer picks it up on its next poll.
    ///
    /// Only useful on stores running `checkpoint_every: 0`: a checkpoint
    /// resets the WAL, so records at or below the checkpoint batch are
    /// gone and a lagging replica would see a gap it cannot replay across.
    /// [`DurableError::NoLog`] on a store without one.
    pub fn wal_records_from(&self, from_batch: u64) -> Result<Vec<WalRecord>> {
        let log = self.log.as_ref().ok_or(DurableError::NoLog)?;
        let scan = WalReader::scan(&log.wal.read_all()?);
        Ok(scan.records.into_iter().filter(|r| r.batch() > from_batch).collect())
    }

    /// Batch number the latest checkpoint covers (`None` without a log:
    /// there is no checkpoint file).
    pub fn last_checkpoint_batch(&self) -> Option<u64> {
        self.log.as_ref().map(|log| log.last_ckpt_batch)
    }

    /// What recovery did when this handle was opened (None for freshly
    /// created stores).
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.log.as_ref()?.recovery.as_ref()
    }

    /// Device shape of the store.
    pub fn geometry(&self) -> StoreGeometry {
        geometry_of(self.inner.array())
    }

    /// The fault injector wired through every write site.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Block-cache counters of the underlying index, if configured.
    pub fn cache_stats(&self) -> Option<invidx_core::cache::CacheStats> {
        self.inner.cache_stats()
    }

    /// Borrow the underlying index (queries, statistics).
    pub fn inner(&self) -> &DualIndex {
        &self.inner
    }

    /// Mutable access to the underlying index, for higher layers that keep
    /// their own state in the same disk array (the IR engine's document
    /// store). Mutations made here bypass the WAL: callers must make them
    /// replayable via [`RecoveryHooks`] and WAL-record/checkpoint metadata.
    pub fn inner_mut(&mut self) -> &mut DualIndex {
        &mut self.inner
    }
}

impl Log {
    /// One logged operation: append + fsync `record` (the commit point),
    /// run `apply` against the in-place index, then checkpoint if due.
    fn apply_logged<T>(
        &mut self,
        inner: &mut DualIndex,
        injector: &FaultInjector,
        record: &WalRecord,
        apply: impl FnOnce(&mut DualIndex) -> invidx_core::Result<T>,
    ) -> Result<T> {
        self.commit_record(record)?;
        let report = apply(inner)?;
        self.after_record(inner, injector)?;
        Ok(report)
    }

    /// Pipelined flush: serialize the record here, then overlap the log
    /// append + fsync with the in-place apply. The join lands before
    /// anything observable happens — the caller only sees `Ok` (and a
    /// checkpoint only runs) once the record is durable AND the apply
    /// finished. A crash in the window
    /// loses the record: the apply's stray device writes touched only
    /// blocks the last checkpoint considers free, or bytes past the
    /// committed posting counts, so recovery never reads them.
    fn flush_pipelined(
        &mut self,
        inner: &mut DualIndex,
        injector: &FaultInjector,
        record: &WalRecord,
    ) -> Result<BatchReport> {
        let frame = record.encode_frame();
        let fsync = self.opts.fsync_wal;
        let wal = &mut self.wal;
        let (wal_result, apply_result) = std::thread::scope(|s| {
            let logger = s.spawn(move || -> Result<u64> {
                let bytes = wal.append_frame(&frame)?;
                if fsync {
                    wal.sync()?;
                }
                Ok(bytes)
            });
            let apply = inner.apply_batch();
            let logged = match logger.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            (logged, apply)
        });
        let bytes = wal_result?;
        invidx_obs::counter!(names::WAL_APPENDS).inc();
        invidx_obs::counter!(names::WAL_BYTES).add(bytes);
        if fsync {
            invidx_obs::counter!(names::WAL_FSYNCS).inc();
        }
        let report = apply_result?;
        self.after_record(inner, injector)?;
        Ok(report)
    }

    fn commit_record(&mut self, record: &WalRecord) -> Result<()> {
        let bytes = self.wal.append(record)?;
        invidx_obs::counter!(names::WAL_APPENDS).inc();
        invidx_obs::counter!(names::WAL_BYTES).add(bytes);
        if self.opts.fsync_wal {
            self.wal.sync()?;
            invidx_obs::counter!(names::WAL_FSYNCS).inc();
        }
        Ok(())
    }

    fn after_record(&mut self, inner: &mut DualIndex, injector: &FaultInjector) -> Result<()> {
        self.records_since_ckpt += 1;
        if self.opts.checkpoint_every > 0 && self.records_since_ckpt >= self.opts.checkpoint_every {
            self.checkpoint(inner, injector)?;
        }
        Ok(())
    }

    fn checkpoint(&mut self, inner: &mut DualIndex, injector: &FaultInjector) -> Result<u64> {
        let _span = invidx_obs::span("checkpoint");
        // Everything the apply phase wrote must be on the platter before
        // the checkpoint can reference it.
        inner.flush_devices()?;
        let snapshot = inner.snapshot()?;
        let free_per_disk: Vec<u64> = inner
            .array()
            .per_disk_usage()
            .iter()
            .zip(inner.array().deferred_blocks_per_disk())
            .map(|(&(free, _), deferred)| free + deferred)
            .collect();
        let ck = Checkpoint {
            geometry: geometry_of(inner.array()),
            snapshot,
            free_per_disk,
            meta: self.ckpt_meta.clone(),
        };
        let batch = ck.batch_no();
        let bytes = ck.write(&self.ckpt_path, injector)?;
        invidx_obs::counter!(names::CHECKPOINT_WRITES).inc();
        invidx_obs::counter!(names::CHECKPOINT_BYTES).add(bytes);
        // The checkpoint is committed: records covering batches <= `batch`
        // are dead, and nothing can replay reads against quarantined
        // extents anymore.
        self.wal.truncate(injector)?;
        inner.release_deferred_frees()?;
        self.last_ckpt_batch = batch;
        self.records_since_ckpt = 0;
        invidx_obs::event!("checkpoint", { "batch": batch, "bytes": bytes });
        Ok(bytes)
    }
}

/// The shape of a homogeneous array (every array this crate builds is).
fn geometry_of(array: &DiskArray) -> StoreGeometry {
    let disks = array.num_disks();
    StoreGeometry {
        disks,
        blocks_per_disk: array.total_blocks() / u64::from(disks.max(1)),
        block_size: array.block_size() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> StoreGeometry {
        StoreGeometry { disks: 3, blocks_per_disk: 20_000, block_size: 256 }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("invidx-durable-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn load(ix: &mut DurableIndex, docs: std::ops::Range<u32>, words: u64) {
        for d in docs {
            let ws = (1..=words).filter(|w| (d as u64).is_multiple_of(*w)).map(WordId);
            ix.insert_document(DocId(d), ws).unwrap();
        }
    }

    #[test]
    fn create_flush_reopen_round_trip() {
        let dir = tmpdir("roundtrip");
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        let mut ix = DurableIndex::create(&dir, IndexConfig::small(), geom(), opts).unwrap();
        load(&mut ix, 1..40, 10);
        ix.flush().unwrap();
        load(&mut ix, 40..60, 10);
        ix.flush().unwrap();
        assert_eq!(ix.batches(), 2);
        assert!(ix.wal_size() > 0, "no checkpoint ran, both records still logged");
        let expect: Vec<_> =
            (1..=10u64).map(|w| ix.postings(WordId(w)).unwrap()).collect();
        drop(ix);
        // Reopen: batch 0 checkpoint + 2 replayed records.
        let ix = DurableIndex::open(&dir, IndexConfig::small(), opts).unwrap();
        let info = *ix.recovery().unwrap();
        assert_eq!(info.checkpoint_batch, 0);
        assert_eq!(info.replayed_records, 2);
        assert_eq!(info.truncated_bytes, 0);
        assert_eq!(ix.batches(), 2);
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(&ix.postings(WordId(i as u64 + 1)).unwrap(), want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_resets_wal_and_survives_reopen() {
        let dir = tmpdir("ckpt");
        let opts = DurableOptions { checkpoint_every: 2, ..Default::default() };
        let mut ix = DurableIndex::create(&dir, IndexConfig::small(), geom(), opts).unwrap();
        for b in 0..4u32 {
            load(&mut ix, b * 25 + 1..(b + 1) * 25 + 1, 8);
            ix.flush().unwrap();
        }
        // checkpoint_every=2 → checkpoints at batches 2 and 4, WAL empty.
        assert_eq!(ix.last_checkpoint_batch(), Some(4));
        assert_eq!(ix.wal_size(), 0);
        let want = ix.postings(WordId(1)).unwrap();
        drop(ix);
        let ix = DurableIndex::open(&dir, IndexConfig::small(), opts).unwrap();
        assert_eq!(ix.recovery().unwrap().replayed_records, 0);
        assert_eq!(ix.batches(), 4);
        assert_eq!(ix.postings(WordId(1)).unwrap(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maintenance_operations_replay() {
        let dir = tmpdir("maint");
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        let mut ix = DurableIndex::create(&dir, IndexConfig::small(), geom(), opts).unwrap();
        for b in 0..3u32 {
            load(&mut ix, b * 40 + 1..(b + 1) * 40 + 1, 8);
            ix.flush().unwrap();
        }
        ix.delete_document(DocId(7));
        ix.delete_document(DocId(14));
        ix.sweep().unwrap();
        ix.compact().unwrap();
        ix.rebalance(24, 60).unwrap();
        let batches = ix.batches();
        assert_eq!(batches, 6, "three flushes + sweep + compact + rebalance");
        let expect: Vec<_> =
            (1..=8u64).map(|w| ix.postings(WordId(w)).unwrap()).collect();
        drop(ix);
        let ix = DurableIndex::open(&dir, IndexConfig::small(), opts).unwrap();
        assert_eq!(ix.recovery().unwrap().replayed_records, 6);
        assert_eq!(ix.batches(), batches);
        assert_eq!(ix.inner().config().num_buckets, 24);
        for (i, want) in expect.iter().enumerate() {
            let got = ix.postings(WordId(i as u64 + 1)).unwrap();
            assert_eq!(&got, want, "word {} differs after replay", i + 1);
            assert!(!got.docs().contains(&DocId(7)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_handle_refuses_work() {
        let dir = tmpdir("poison");
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        let inj = FaultInjector::new();
        let mut ix = DurableIndex::create_with(
            &dir,
            IndexConfig::small(),
            geom(),
            opts,
            inj.clone(),
        )
        .unwrap();
        load(&mut ix, 1..20, 6);
        inj.arm(crate::fault::Fault::at(crate::fault::FaultPoint::WalFsync));
        assert!(ix.flush().unwrap_err().is_injected());
        assert!(matches!(ix.flush().unwrap_err(), DurableError::Poisoned));
        assert!(matches!(ix.checkpoint().unwrap_err(), DurableError::Poisoned));
        std::fs::remove_dir_all(&dir).ok();
    }
}
