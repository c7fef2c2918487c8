//! The dual-structure index: the paper's contribution, assembled.
//!
//! [`DualIndex`] ties together the in-memory batch index (§2 ¶1), the
//! bucket store for short lists, the policy-driven long-list store, and the
//! end-of-batch flush protocol:
//!
//! 1. documents accumulate in the in-memory index;
//! 2. `flush_batch` pushes each in-memory list to its word's long list (if
//!    one exists) or into bucket `h(w)`, promoting bucket overflows to long
//!    lists;
//! 3. "Periodically, the buckets and the directory are written to disk. At
//!    this time, the disk blocks for the previous buckets and directory are
//!    returned to free space [...] In addition, in the case of the whole
//!    strategy, the old long lists on the RELEASE list are returned to free
//!    space" — the flush is shadow-paged, making each batch an atomic
//!    restart point ("the algorithms and data structures are constructed so
//!    that the incremental update of the index can be restarted if it is
//!    aborted", §1).

use crate::bucket::BucketStore;
use crate::codec::PostingsCodec;
use crate::directory::Directory;
use crate::longlist::{LongConfig, LongStats, LongStore};
use crate::memindex::MemIndex;
use crate::policy::Policy;
use crate::postings::PostingList;
use crate::types::{DocId, IndexError, Result, WordId};
use invidx_disk::{DiskArray, IoOp, OpKind, Payload};
use std::collections::BTreeSet;

/// Which storage engine serves stored postings.
///
/// `InPlace` is the paper's dual structure: every flush mutates buckets
/// and long-list chunks where they live. `Segmented` keeps the same
/// machinery as a bounded "L0" but seals it into immutable, write-once
/// segment artifacts whenever its stored footprint crosses `l0_budget`
/// bytes; sealed segments are merged tier-by-tier once `fanout` of them
/// accumulate on a level (see the `invidx-segment` crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's in-place dual-structure update path.
    InPlace,
    /// LSM-style tiering: in-place machinery as L0, sealed segments above.
    Segmented {
        /// Seal L0 into a segment when its stored bytes exceed this.
        l0_budget: u64,
        /// Merge a level once this many segments accumulate on it.
        fanout: u32,
    },
}

impl EngineKind {
    /// Default L0 byte budget for `Segmented` when none is given.
    pub const DEFAULT_L0_BUDGET: u64 = 1 << 20;
    /// Default per-level fanout for `Segmented` when none is given.
    pub const DEFAULT_FANOUT: u32 = 4;

    /// A `Segmented` kind with the default budget and fanout.
    pub fn segmented() -> Self {
        Self::Segmented { l0_budget: Self::DEFAULT_L0_BUDGET, fanout: Self::DEFAULT_FANOUT }
    }
}

/// Index-level configuration (the tunables of the paper's Table 4, plus
/// the runtime knobs that grew around them: ingest parallelism, the
/// storage engine and the postings codec). Construct via
/// [`IndexConfig::builder`], which validates at `build()`.
#[derive(Debug, Clone, Copy)]
pub struct IndexConfig {
    /// Number of buckets (`Buckets`).
    pub num_buckets: usize,
    /// Capacity of each bucket in units (`BucketSize`): 1 per word + 1 per
    /// posting.
    pub bucket_capacity_units: u64,
    /// Postings per block (`BlockPosting`).
    pub block_postings: u64,
    /// Long-list allocation policy.
    pub policy: Policy,
    /// Physically write bucket contents at flush time. Experiments that
    /// only need traces and statistics turn this off; the I/O trace is
    /// identical either way, but queries-after-restart require it on.
    pub materialize_buckets: bool,
    /// Worker threads for batch inversion and the captured parallel apply
    /// (1 = fully sequential).
    pub ingest_threads: usize,
    /// Storage engine: in-place (the paper) or segment-tiered.
    pub engine: EngineKind,
    /// On-disk encoding of long-list (and sealed-segment) postings.
    /// Recorded in the superblock; changing it on an existing index is
    /// rejected at open time ([`IndexError::CodecMismatch`]).
    pub codec: PostingsCodec,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self::paper_base()
    }
}

impl IndexConfig {
    /// Start building a configuration from [`IndexConfig::paper_base`]
    /// defaults; finish with [`IndexConfigBuilder::build`], which
    /// validates the geometry-independent invariants up front.
    pub fn builder() -> IndexConfigBuilder {
        IndexConfigBuilder { config: Self::paper_base() }
    }

    /// The paper's base-case scale (Table 4 values are OCR-damaged in our
    /// copy; these are the documented reconstruction — see DESIGN.md).
    pub fn paper_base() -> Self {
        Self {
            num_buckets: 4096,
            bucket_capacity_units: 1000,
            block_postings: 100,
            policy: Policy::balanced(),
            materialize_buckets: true,
            ingest_threads: 1,
            engine: EngineKind::InPlace,
            codec: PostingsCodec::Plain,
        }
    }

    /// A small configuration for tests.
    pub fn small() -> Self {
        Self {
            num_buckets: 16,
            bucket_capacity_units: 40,
            block_postings: 10,
            policy: Policy::balanced(),
            materialize_buckets: true,
            ingest_threads: 1,
            engine: EngineKind::InPlace,
            codec: PostingsCodec::Plain,
        }
    }

    /// Replace the policy (builder-style).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Blocks per bucket region: `ceil(BucketSize / BlockPosting)` — one
    /// unit of bucket space is one posting's worth of block space.
    pub fn bucket_blocks(&self) -> u64 {
        self.bucket_capacity_units.div_ceil(self.block_postings)
    }

    /// The geometry-independent invariants (everything [`Self::validate`]
    /// can check without knowing the device block size).
    fn validate_shape(&self) -> Result<()> {
        if self.num_buckets == 0 {
            return Err(IndexError::InvalidConfig("num_buckets must be positive".into()));
        }
        if self.ingest_threads == 0 {
            return Err(IndexError::InvalidConfig(
                "ingest_threads must be at least 1 (1 = sequential)".into(),
            ));
        }
        if let EngineKind::Segmented { l0_budget, fanout } = self.engine {
            if l0_budget == 0 {
                return Err(IndexError::InvalidConfig(
                    "segmented engine needs a positive l0_budget".into(),
                ));
            }
            if fanout < 2 {
                return Err(IndexError::InvalidConfig(
                    "segmented engine needs a fanout of at least 2".into(),
                ));
            }
        }
        Ok(())
    }

    /// Validate against a device block size.
    pub fn validate(&self, block_size: usize) -> Result<()> {
        self.validate_shape()?;
        LongConfig { block_postings: self.block_postings, policy: self.policy, codec: self.codec }
            .validate(block_size)?;
        // The serialized worst case of a bucket must fit its block region.
        let worst = 4 + self.bucket_capacity_units as usize * 12;
        let region = self.bucket_blocks() as usize * block_size;
        if worst > region {
            return Err(IndexError::InvalidConfig(format!(
                "bucket worst-case {worst} bytes exceeds its {region}-byte region; \
                 raise block size or lower bucket capacity"
            )));
        }
        Ok(())
    }
}

/// Builder for [`IndexConfig`]; obtain via [`IndexConfig::builder`].
///
/// Every setter is infallible; [`Self::build`] runs the shape validation
/// (positive bucket count, positive ingest threads, a coherent segmented
/// engine) so misconfiguration surfaces at construction, not first use.
/// Device-geometry checks still run in [`DualIndex::create`]/
/// [`DualIndex::open`], which know the block size.
#[derive(Debug, Clone)]
pub struct IndexConfigBuilder {
    config: IndexConfig,
}

impl IndexConfigBuilder {
    /// Number of buckets (`Buckets`).
    pub fn num_buckets(mut self, n: usize) -> Self {
        self.config.num_buckets = n;
        self
    }

    /// Capacity of each bucket in units (`BucketSize`).
    pub fn bucket_capacity_units(mut self, units: u64) -> Self {
        self.config.bucket_capacity_units = units;
        self
    }

    /// Postings per block (`BlockPosting`).
    pub fn block_postings(mut self, postings: u64) -> Self {
        self.config.block_postings = postings;
        self
    }

    /// Long-list allocation policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Physically write bucket contents at flush time.
    pub fn materialize_buckets(mut self, on: bool) -> Self {
        self.config.materialize_buckets = on;
        self
    }

    /// Worker threads for batch inversion and the captured parallel apply.
    pub fn ingest_threads(mut self, threads: usize) -> Self {
        self.config.ingest_threads = threads;
        self
    }

    /// Storage engine: [`EngineKind::InPlace`] (default) or
    /// [`EngineKind::Segmented`].
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.config.engine = engine;
        self
    }

    /// On-disk postings codec ([`PostingsCodec::Plain`] by default).
    pub fn postings_codec(mut self, codec: PostingsCodec) -> Self {
        self.config.codec = codec;
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> Result<IndexConfig> {
        self.config.validate_shape()?;
        Ok(self.config)
    }
}

/// Where a word's postings live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordLocation {
    /// The word has a long list on disk.
    Long,
    /// The word has a short list in a bucket.
    Short,
    /// The word exists only in the current in-memory batch.
    MemoryOnly,
    /// The word has never been seen.
    Absent,
}

/// Per-batch flush report: the raw material of the paper's Figures 7–12.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct BatchReport {
    /// Batch number (0-based).
    pub batch: u64,
    /// Word-occurrence pairs in the update.
    pub words: u64,
    /// Postings in the update.
    pub postings: u64,
    /// Pairs whose word was previously unseen.
    pub new_words: u64,
    /// Pairs whose word was in a bucket.
    pub bucket_words: u64,
    /// Pairs whose word had a long list.
    pub long_words: u64,
    /// Bucket overflows promoted to long lists during this flush.
    pub evictions: u64,
    /// Long-list appends performed (long-word updates + evictions).
    pub long_appends: u64,
    /// Cumulative long-store counters after this batch.
    pub long_stats: LongStats,
    /// Words with long lists after this batch.
    pub long_words_total: u64,
    /// Chunks across all long lists after this batch.
    pub long_chunks_total: u64,
    /// Blocks allocated to long lists after this batch.
    pub long_blocks_total: u64,
    /// Postings stored in long lists after this batch.
    pub long_postings_total: u64,
    /// Long-list internal utilization (Figure 9's y-axis).
    pub utilization: f64,
    /// Average read operations per long list (Figure 10's y-axis).
    pub avg_reads_per_long_list: f64,
    /// Units occupied across all buckets after this batch.
    pub bucket_units: u64,
    /// Deltas of the global observability counters over this flush
    /// (allocator scans, chunk relocations, coalesces, …).
    pub obs: invidx_obs::ObsDelta,
}

/// Report of a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Long lists rewritten into one chunk.
    pub lists_rewritten: u64,
    /// Chunks across all long lists before.
    pub chunks_before: u64,
    /// Chunks after (= number of long words).
    pub chunks_after: u64,
    /// Net blocks returned to free space.
    pub blocks_freed: u64,
}

/// Report of a bucket-space rebalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Bucket count before.
    pub old_buckets: usize,
    /// Bucket count after.
    pub new_buckets: usize,
    /// Short lists rehashed into the new bucket array.
    pub moved_words: u64,
    /// Lists that overflowed to long lists during the move.
    pub evictions: u64,
}

/// Report of a deletion sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Postings physically removed.
    pub postings_removed: u64,
    /// Long lists rewritten.
    pub long_rewritten: u64,
    /// Short lists rewritten in their buckets.
    pub short_rewritten: u64,
    /// Words whose lists became empty and were dropped.
    pub words_dropped: u64,
}

const SUPERBLOCK_MAGIC: u64 = 0x1994_0dd5_1ecf_u64;
// Version 2 added the postings-codec tag after `block_postings`.
const SUPERBLOCK_VERSION: u32 = 2;

/// The dual-structure incremental inverted index.
pub struct DualIndex {
    config: IndexConfig,
    array: DiskArray,
    mem: MemIndex,
    buckets: BucketStore,
    longs: LongStore,
    deleted: BTreeSet<DocId>,
    batch_no: u64,
    /// Live on-disk bucket stripes, one per disk: `(disk, start, blocks)`.
    bucket_extents: Vec<(u16, u64, u64)>,
    /// Live on-disk directory extent.
    dir_extent: Option<(u16, u64, u64)>,
}

impl DualIndex {
    /// Create a fresh index over `array`. Block 0 of disk 0 is reserved for
    /// the superblock.
    pub fn create(mut array: DiskArray, config: IndexConfig) -> Result<Self> {
        config.validate(array.block_size())?;
        // Reserve the superblock home.
        reserve_on(&mut array, 0, 0, 1)?;
        let buckets = BucketStore::new(config.num_buckets, config.bucket_capacity_units)?;
        let longs = LongStore::new(LongConfig {
            block_postings: config.block_postings,
            policy: config.policy,
            codec: config.codec,
        });
        Ok(Self {
            config,
            array,
            mem: MemIndex::new(),
            buckets,
            longs,
            deleted: BTreeSet::new(),
            batch_no: 0,
            bucket_extents: Vec::new(),
            dir_extent: None,
        })
    }

    /// The configured ingest worker-pool size.
    pub fn ingest_threads(&self) -> usize {
        self.config.ingest_threads
    }

    /// Is this document logically deleted (pending sweep)?
    pub fn is_deleted(&self, doc: DocId) -> bool {
        self.deleted.contains(&doc)
    }

    /// Bytes of stored postings state in the in-place structures — the
    /// segmented engine's L0 occupancy metric: long-list blocks at block
    /// granularity plus bucket units at 4 bytes/unit (one fixed-width
    /// posting each).
    pub fn stored_bytes(&self) -> u64 {
        let bs = self.array.block_size() as u64;
        self.longs.directory().total_blocks() * bs + self.buckets.total_units() * 4
    }

    /// The configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Completed batches.
    pub fn batches(&self) -> u64 {
        self.batch_no
    }

    /// Borrow the disk array (trace control, usage statistics).
    pub fn array(&self) -> &DiskArray {
        &self.array
    }

    /// Quarantine freed extents instead of returning them to the
    /// allocators ([`DiskArray::defer_frees`]). Durable (WAL) mode runs
    /// with the quarantine on so replay can still read chunks the last
    /// checkpoint references.
    pub fn set_defer_frees(&mut self, on: bool) {
        self.array.defer_frees(on);
    }

    /// Return quarantined freed extents to the allocators — durable mode
    /// calls this right after a checkpoint commits.
    pub fn release_deferred_frees(&mut self) -> Result<()> {
        Ok(self.array.release_deferred()?)
    }

    /// Flush every device to stable storage.
    pub fn flush_devices(&mut self) -> Result<()> {
        Ok(self.array.flush()?)
    }

    /// Re-reserve an extent on a fresh allocator during recovery —
    /// sidecar stores (document store, vocabulary) re-claim their
    /// checkpointed extents with this before WAL replay runs.
    pub fn reserve_extent(&mut self, disk: u16, start: u64, blocks: u64) -> Result<()> {
        reserve_on(&mut self.array, disk, start, blocks)
    }

    /// The disk array as shared storage for sidecar stores that co-locate
    /// their extents with the index's (the IR layer's document store).
    /// Sidecar writes go through [`DiskArray::write_op`] and are traced
    /// like any index write.
    pub fn sidecar_array(&mut self) -> &mut DiskArray {
        &mut self.array
    }

    /// Borrow the long-list directory.
    pub fn directory(&self) -> &Directory {
        self.longs.directory()
    }

    /// Borrow the bucket store.
    pub fn buckets(&self) -> &BucketStore {
        &self.buckets
    }

    /// Borrow the in-memory batch index.
    pub fn mem(&self) -> &MemIndex {
        &self.mem
    }

    /// Long-store lifetime counters.
    pub fn long_stats(&self) -> LongStats {
        self.longs.stats()
    }

    // ----- update path -----

    /// Add a document to the current batch.
    pub fn insert_document<I>(&mut self, doc: DocId, words: I) -> Result<()>
    where
        I: IntoIterator<Item = WordId>,
    {
        self.mem.add_document(doc, words)
    }

    /// Add a whole batch of documents at once, inverting them across the
    /// configured ingest workers (word-sharded, merged deterministically —
    /// see [`crate::parallel::invert_batch`]). Equivalent to calling
    /// [`Self::insert_document`] for each document in order.
    pub fn insert_documents(&mut self, docs: Vec<(DocId, Vec<WordId>)>, threads: usize) -> Result<()> {
        if docs.is_empty() {
            return Ok(());
        }
        if let (Some(last), Some(first)) = (self.mem.last_doc(), docs.first().map(|d| d.0)) {
            if first <= last {
                return Err(IndexError::OutOfOrderDocument { have: last, new: first });
            }
        }
        let threads = threads.max(1);
        let batch = crate::parallel::invert_batch(docs, threads, threads)?;
        self.mem.absorb(batch)
    }

    /// Add a pre-built in-memory list (pipeline replay path).
    pub fn insert_list(&mut self, word: WordId, list: &PostingList) -> Result<()> {
        use invidx_obs::names;
        invidx_obs::counter!(names::CORE_MEM_LISTS).inc();
        invidx_obs::counter!(names::CORE_MEM_POSTINGS).add(list.len() as u64);
        self.mem.add_list(word, list)
    }

    /// Push the in-memory index to disk: the incremental batch update. The
    /// batch commits through the shadow-paged metadata flush (buckets +
    /// directory + superblock).
    pub fn flush_batch(&mut self) -> Result<BatchReport> {
        let _span = invidx_obs::span("flush_batch");
        let obs_before = invidx_obs::ObsDelta::capture();
        let mut report = self.apply_updates()?;
        // The superblock records *completed* batches. The flush writes the
        // new count, but the in-memory counter only advances once the
        // commit point succeeds — a failed flush must leave `batch_no`
        // matching the superblock on disk, so a retry cannot double-count.
        let committed = self.batch_no + 1;
        self.flush_metadata(committed)?;
        self.batch_no = committed;
        self.array.end_batch();
        self.finish_report(&mut report, &obs_before);
        Ok(report)
    }

    /// Apply the buffered batch to the stores WITHOUT the shadow-paged
    /// metadata flush — the durable (WAL) mode, where the write-ahead log is
    /// the commit point and bucket/directory state persists only at
    /// checkpoints. Released long-list chunks are freed immediately; callers
    /// must run the array with freed-extent quarantine
    /// ([`DiskArray::defer_frees`]) so that WAL replay can still read chunks
    /// referenced by the last checkpoint.
    pub fn apply_batch(&mut self) -> Result<BatchReport> {
        let _span = invidx_obs::span("apply_batch");
        let obs_before = invidx_obs::ObsDelta::capture();
        let mut report = self.apply_updates()?;
        self.batch_no += 1;
        self.longs.free_released(&mut self.array)?;
        self.array.end_batch();
        self.finish_report(&mut report, &obs_before);
        Ok(report)
    }

    fn apply_updates(&mut self) -> Result<BatchReport> {
        use invidx_obs::names;
        let overflow_counter = invidx_obs::counter!(names::CORE_BUCKET_OVERFLOWS);
        let migration_counter = invidx_obs::counter!(names::CORE_MIGRATIONS);
        let drained = self.mem.drain();
        let mut report = BatchReport {
            batch: self.batch_no,
            words: drained.len() as u64,
            postings: 0,
            new_words: 0,
            bucket_words: 0,
            long_words: 0,
            evictions: 0,
            long_appends: 0,
            long_stats: LongStats::default(),
            long_words_total: 0,
            long_chunks_total: 0,
            long_blocks_total: 0,
            long_postings_total: 0,
            utilization: 0.0,
            avg_reads_per_long_list: 0.0,
            bucket_units: 0,
            obs: invidx_obs::ObsDelta::default(),
        };
        let threads = self.config.ingest_threads;
        if threads > 1 {
            // Parallel apply: buffer long-list writes per target disk while
            // the drain loop runs (allocator calls and bucket mutations
            // still execute immediately, in word order), then land each
            // disk's writes on its own worker. Reads overlay the buffered
            // writes, so a list evicted and re-appended within one batch
            // still sees its own bytes. Device state, allocator state, and
            // trace are bit-identical to the sequential path.
            self.array.begin_capture();
        }
        let applied = self.apply_drained(drained, &mut report, overflow_counter, migration_counter);
        if threads > 1 {
            let per_disk = self.array.end_capture(threads)?;
            invidx_obs::counter!(names::INGEST_PARALLEL_BATCHES).inc();
            let registry = invidx_obs::registry();
            for (disk, (ops, blocks)) in per_disk.iter().enumerate() {
                if *ops > 0 {
                    registry
                        .counter(&names::per_disk(names::INGEST_APPLY_WRITES, disk as u16))
                        .add(*ops);
                    registry
                        .counter(&names::per_disk(names::INGEST_APPLY_BLOCKS, disk as u16))
                        .add(*blocks);
                }
            }
        }
        applied?;
        Ok(report)
    }

    /// The batch-apply drain loop: route each drained word to its long
    /// list or bucket, migrating eviction victims (Figure 7).
    fn apply_drained(
        &mut self,
        drained: Vec<(WordId, PostingList)>,
        report: &mut BatchReport,
        overflow_counter: &invidx_obs::Counter,
        migration_counter: &invidx_obs::Counter,
    ) -> Result<()> {
        for (word, list) in drained {
            report.postings += list.len() as u64;
            // Categorize the word-occurrence pair (Figure 7).
            if self.longs.contains(word) {
                report.long_words += 1;
                self.longs.append(&mut self.array, word, &list)?;
                report.long_appends += 1;
            } else {
                if self.buckets.get(word).is_some() {
                    report.bucket_words += 1;
                } else {
                    report.new_words += 1;
                }
                let outcome = self.buckets.insert(word, &list)?;
                if !outcome.evicted.is_empty() {
                    overflow_counter.inc();
                }
                for (w, evicted) in outcome.evicted {
                    migration_counter.inc();
                    self.longs.append(&mut self.array, w, &evicted)?;
                    report.evictions += 1;
                    report.long_appends += 1;
                }
            }
        }
        Ok(())
    }

    fn finish_report(&self, report: &mut BatchReport, obs_before: &invidx_obs::ObsDelta) {
        use invidx_obs::names;
        let dir = self.longs.directory();
        report.long_stats = self.longs.stats();
        report.long_words_total = dir.num_words() as u64;
        report.long_chunks_total = dir.total_chunks();
        report.long_blocks_total = dir.total_blocks();
        report.long_postings_total = dir.total_postings();
        report.utilization = dir.utilization(self.config.block_postings);
        report.avg_reads_per_long_list = dir.avg_reads_per_long_list();
        report.bucket_units = self.buckets.total_units();
        report.obs = invidx_obs::ObsDelta::capture().since(obs_before);
        invidx_obs::counter!(names::CORE_FLUSH_BATCHES).inc();
        invidx_obs::event!("flush_batch", {
            "batch": report.batch,
            "words": report.words,
            "postings": report.postings,
            "evictions": report.evictions,
            "long_appends": report.long_appends,
            "chunk_allocs": report.obs.chunk_allocs,
            "chunk_relocations": report.obs.chunk_relocations,
            "utilization": report.utilization,
        });
    }

    /// Drain the long-store RELEASE list into free space. In durable (WAL)
    /// mode there is no shadow-paged flush to do it, so wrappers call this
    /// after sweep/rebalance operations.
    pub fn free_released(&mut self) -> Result<()> {
        self.longs.free_released(&mut self.array)
    }

    /// Advance the batch counter without a flush. The durable (WAL) layer
    /// calls this after maintenance operations (sweep, compaction,
    /// rebalance) so that every WAL record carries a unique, monotonically
    /// increasing batch number — the property replay uses to skip records a
    /// checkpoint already covers.
    pub fn bump_batch(&mut self) {
        self.batch_no += 1;
        self.array.end_batch();
    }

    /// Shadow-write buckets and directory, commit via the superblock
    /// (which records `committed` as the completed-batch count), then free
    /// the previous generation and the release list. Callers advance
    /// `self.batch_no` only after this returns `Ok` — see
    /// [`Self::flush_batch`].
    fn flush_metadata(&mut self, committed: u64) -> Result<()> {
        let bs = self.array.block_size();
        let n = self.array.num_disks();
        let bucket_blocks = self.config.bucket_blocks();

        // New bucket stripes: bucket i lives on disk i % n, in index order.
        let mut new_bucket_extents = Vec::with_capacity(n as usize);
        for d in 0..n {
            let indices: Vec<usize> = (0..self.config.num_buckets)
                .filter(|i| (i % n as usize) as u16 == d)
                .collect();
            let stripe_blocks = indices.len() as u64 * bucket_blocks;
            if stripe_blocks == 0 {
                new_bucket_extents.push((d, 0, 0));
                continue;
            }
            let start = self.array.alloc_on(d, stripe_blocks)?;
            if self.config.materialize_buckets {
                let mut buf = Vec::with_capacity((stripe_blocks as usize) * bs);
                for &i in &indices {
                    buf.extend_from_slice(
                        &self.buckets.serialize_bucket(i, bucket_blocks as usize * bs)?,
                    );
                }
                let op = IoOp {
                    kind: OpKind::Write,
                    disk: d,
                    start,
                    blocks: stripe_blocks,
                    payload: Payload::Bucket,
                };
                self.array.write_op(op, &buf)?;
            } else {
                // Record the trace op without materializing bytes.
                self.array.trace_push(IoOp {
                    kind: OpKind::Write,
                    disk: d,
                    start,
                    blocks: stripe_blocks,
                    payload: Payload::Bucket,
                });
            }
            new_bucket_extents.push((d, start, stripe_blocks));
        }

        // New directory extent, on a rotating disk.
        let dir_bytes = self.longs.directory().serialize();
        let dir_blocks = (dir_bytes.len().div_ceil(bs) as u64).max(1);
        let dir_disk = (committed % n as u64) as u16;
        let dir_start = self.array.alloc_on(dir_disk, dir_blocks)?;
        let mut buf = dir_bytes;
        buf.resize(dir_blocks as usize * bs, 0);
        let op = IoOp {
            kind: OpKind::Write,
            disk: dir_disk,
            start: dir_start,
            blocks: dir_blocks,
            payload: Payload::Directory,
        };
        self.array.write_op(op, &buf)?;

        // Commit point: the superblock names the new generation. Written
        // untraced — the paper's model has no superblock; its cost is one
        // block per batch and is excluded from the measured trace.
        let old_buckets = std::mem::replace(&mut self.bucket_extents, new_bucket_extents);
        let old_dir = self.dir_extent.replace((dir_disk, dir_start, dir_blocks));
        self.write_superblock(committed)?;

        // Previous generation and released long-list chunks return to free
        // space only after the commit point.
        for (d, start, blocks) in old_buckets {
            if blocks > 0 {
                self.array.free_on(d, start, blocks)?;
            }
        }
        if let Some((d, start, blocks)) = old_dir {
            self.array.free_on(d, start, blocks)?;
        }
        self.longs.free_released(&mut self.array)?;
        self.array.flush()?;
        Ok(())
    }

    // ----- query path -----

    /// Where does this word's data live?
    pub fn location(&self, word: WordId) -> WordLocation {
        if self.longs.contains(word) {
            WordLocation::Long
        } else if self.buckets.get(word).is_some() {
            WordLocation::Short
        } else if self.mem.get(word).is_some() {
            WordLocation::MemoryOnly
        } else {
            WordLocation::Absent
        }
    }

    /// Read operations needed to fetch this word's stored postings — the
    /// paper's query-cost metric (1 bucket read for short lists, one read
    /// per chunk for long lists).
    ///
    /// Deliberately counts *device* reads only: postings still buffered in
    /// the current batch's in-memory index are served from memory at zero
    /// I/O cost, so a word that exists only in memory has `read_cost` 0
    /// even though [`Self::postings`] returns its list. Use
    /// [`Self::doc_frequency`] for a posting count that includes the
    /// unflushed batch.
    pub fn read_cost(&self, word: WordId) -> u64 {
        match self.location(word) {
            WordLocation::Long => {
                self.longs.directory().get(word).map_or(0, |e| e.num_chunks() as u64)
            }
            WordLocation::Short => 1,
            _ => 0,
        }
    }

    /// The on-disk home of a word's bucket in the current flushed
    /// generation: `(disk, start, bucket_blocks)`. Bucket `i` lives on
    /// disk `i % n`, at slot `i / n` within that disk's stripe (the flush
    /// writes buckets to each stripe in index order). `None` before the
    /// first shadow-paged flush — durable (WAL) mode never has an
    /// on-disk generation.
    pub fn bucket_extent_of(&self, word: WordId) -> Option<(u16, u64, u64)> {
        let n = self.array.num_disks() as usize;
        let b = self.buckets.bucket_of(word);
        let bucket_blocks = self.config.bucket_blocks();
        let (disk, stripe_start, stripe_blocks) = *self.bucket_extents.get(b % n)?;
        if stripe_blocks == 0 {
            return None;
        }
        Some((disk, stripe_start + (b / n) as u64 * bucket_blocks, bucket_blocks))
    }

    /// Charge one bucket read against the disk model. Live queries never
    /// read buckets from disk (they are memory-resident), so this models
    /// the paper's one-read-per-bucket query cost: a read op for the
    /// bucket's region is recorded in the trace, with no device transfer.
    ///
    /// Uses the real stripe extent of the current generation when one
    /// exists, falling back to a synthetic fixed-slot address before the
    /// first flush so exercisers always have an op to time.
    pub fn charge_bucket_read(&self, word: WordId) -> Result<()> {
        let bucket_blocks = self.config.bucket_blocks();
        let (disk, start, blocks) = self.bucket_extent_of(word).unwrap_or_else(|| {
            let n = self.array.num_disks() as usize;
            let b = self.buckets.bucket_of(word);
            ((b % n) as u16, (b / n) as u64 * bucket_blocks, bucket_blocks)
        });
        self.array.trace_push(IoOp {
            kind: OpKind::Read,
            disk,
            start,
            blocks,
            payload: Payload::Bucket,
        });
        Ok(())
    }

    /// The full posting list for a word: stored postings (long list or
    /// bucket — "a word w never has both"), merged with the unflushed
    /// in-memory postings, filtered through the deleted-document list.
    ///
    /// `&self`: long-list reads and trace recording both go through shared
    /// interfaces, so concurrent queries never serialize on the index.
    pub fn postings(&self, word: WordId) -> Result<PostingList> {
        let mut list = if self.longs.contains(word) {
            self.longs.read_list(&self.array, word)?
        } else {
            self.buckets.get(word).cloned().unwrap_or_default()
        };
        if let Some(m) = self.mem.get(word) {
            // In-memory postings are strictly newer than stored ones.
            list.append(word, m)?;
        }
        if !self.deleted.is_empty() {
            list.retain(|d| !self.deleted.contains(&d));
        }
        Ok(list)
    }

    /// The stored posting list for a word exactly as it sits on disk or
    /// in a bucket: no in-memory batch merge, no deletion filter. The
    /// segmented engine seals these raw lists so document frequencies
    /// stay bit-identical with the in-place engine (which also counts
    /// deleted-but-unswept postings).
    pub fn stored_postings(&self, word: WordId) -> Result<PostingList> {
        if self.longs.contains(word) {
            self.longs.read_list(&self.array, word)
        } else {
            Ok(self.buckets.get(word).cloned().unwrap_or_default())
        }
    }

    /// Document frequency (postings count) without reading long lists from
    /// disk — directory metadata suffices. Ignores the deletion filter.
    pub fn doc_frequency(&self, word: WordId) -> u64 {
        let stored = if let Some(e) = self.longs.directory().get(word) {
            e.total_postings()
        } else {
            self.buckets.get(word).map_or(0, |l| l.len() as u64)
        };
        stored + self.mem.get(word).map_or(0, |l| l.len() as u64)
    }

    // ----- deletion (§3's filter + background sweep) -----

    /// Logically delete a document: "existing implementations typically
    /// maintain a list of deleted document identifiers and filter any
    /// answer to a query through this list."
    pub fn delete_document(&mut self, doc: DocId) {
        self.deleted.insert(doc);
    }

    /// Number of pending logical deletions.
    pub fn pending_deletions(&self) -> usize {
        self.deleted.len()
    }

    /// The deletion filter's contents (checkpoint serialization support).
    pub fn deleted_docs(&self) -> impl Iterator<Item = DocId> + '_ {
        self.deleted.iter().copied()
    }

    /// The background sweep: "sweeps the lists in the index one list at a
    /// time, removing any deleted documents. After a sweep of the index,
    /// the list of deleted document identifiers can be thrown away."
    pub fn sweep(&mut self) -> Result<SweepReport> {
        let mut report = SweepReport::default();
        if self.deleted.is_empty() {
            return Ok(report);
        }
        let _span = invidx_obs::span("sweep");
        invidx_obs::counter!(invidx_obs::names::CORE_SWEEPS).inc();
        let deleted = std::mem::take(&mut self.deleted);

        // Long lists: read, filter, rewrite compacted.
        for word in self.longs.directory().words() {
            let list = self.longs.read_list(&self.array, word)?;
            let mut kept = list.clone();
            kept.retain(|d| !deleted.contains(&d));
            if kept.len() == list.len() {
                continue;
            }
            report.postings_removed += (list.len() - kept.len()) as u64;
            // Release the old chunks.
            let old = self.longs.directory_mut().remove(word).ok_or_else(|| {
                IndexError::Corruption(format!("sweep: listed word {word} missing from directory"))
            })?;
            for c in old.chunks {
                self.longs.directory_mut().push_release(c.disk, c.start, c.blocks);
            }
            if kept.is_empty() {
                report.words_dropped += 1;
            } else {
                self.longs.append(&mut self.array, word, &kept)?;
                report.long_rewritten += 1;
            }
        }

        // Short lists: buckets are memory-resident; rewrite in place. The
        // disk copy refreshes at the next flush.
        let short_words: Vec<WordId> = self.buckets.iter().map(|(w, _)| w).collect();
        for word in short_words {
            let Some(list) = self.buckets.get(word).cloned() else {
                continue;
            };
            let mut kept = list.clone();
            kept.retain(|d| !deleted.contains(&d));
            if kept.len() == list.len() {
                continue;
            }
            report.postings_removed += (list.len() - kept.len()) as u64;
            let dropped = kept.is_empty();
            self.buckets.remove(word);
            if dropped {
                report.words_dropped += 1;
            } else {
                self.buckets.insert(word, &kept)?;
                report.short_rewritten += 1;
            }
        }
        invidx_obs::event!("sweep", {
            "postings_removed": report.postings_removed,
            "long_rewritten": report.long_rewritten,
            "short_rewritten": report.short_rewritten,
            "words_dropped": report.words_dropped,
        });
        Ok(report)
    }

    // ----- segment-tiered support (L0 seal) -----

    /// Drop every stored posting — long-list chunks and bucket contents —
    /// returning their blocks to free space, while keeping the batch
    /// counter, document-ordering floor, and deletion filter intact.
    ///
    /// This is the segmented engine's "L0 reset": after its contents have
    /// been sealed into an immutable segment (and the manifest committed),
    /// the in-place machinery starts over empty. Requires a batch boundary;
    /// under [`DiskArray::defer_frees`] the freed extents are quarantined
    /// until the caller's next checkpoint, so recovery can still read the
    /// pre-seal chunks the last checkpoint references.
    pub fn seal_reset(&mut self) -> Result<()> {
        if !self.mem.is_empty() {
            return Err(IndexError::InvalidConfig(
                "seal_reset requires a batch boundary (flush first)".into(),
            ));
        }
        for word in self.longs.directory().words() {
            let entry = self.longs.directory_mut().remove(word).ok_or_else(|| {
                IndexError::Corruption(format!("seal_reset: word {word} missing from directory"))
            })?;
            for c in entry.chunks {
                self.longs.directory_mut().push_release(c.disk, c.start, c.blocks);
            }
        }
        self.longs.free_released(&mut self.array)?;
        self.buckets = BucketStore::new(self.config.num_buckets, self.config.bucket_capacity_units)?;
        invidx_obs::counter!(invidx_obs::names::CORE_SEAL_RESETS).inc();
        Ok(())
    }

    // ----- compaction -----

    /// Rewrite every fragmented long list as a single contiguous chunk —
    /// the explicit "massive reorganization" (§1) that in-place updates
    /// postpone, offered as an online operation for indexes built under
    /// update-leaning policies. Requires a batch boundary; committed
    /// through the shadow-paged metadata flush like any batch.
    pub fn compact(&mut self) -> Result<CompactReport> {
        let blocks_before = self.array.total_blocks() - self.array.free_blocks();
        let mut report = self.compact_core()?;
        self.flush_metadata(self.batch_no)?;
        let blocks_after = self.array.total_blocks() - self.array.free_blocks();
        report.blocks_freed = blocks_before.saturating_sub(blocks_after);
        invidx_obs::event!("compact", {
            "lists_rewritten": report.lists_rewritten,
            "chunks_before": report.chunks_before,
            "chunks_after": report.chunks_after,
            "blocks_freed": report.blocks_freed,
        });
        Ok(report)
    }

    /// Compaction for durable (WAL) mode: same long-list rewrites, but no
    /// shadow-paged metadata flush — the caller logs the operation in the
    /// WAL and persists state at the next checkpoint. Released chunks are
    /// freed immediately (into the quarantine under
    /// [`DiskArray::defer_frees`]), so `blocks_freed` reflects only what the
    /// allocator saw back.
    pub fn compact_lists(&mut self) -> Result<CompactReport> {
        let blocks_before = self.array.total_blocks() - self.array.free_blocks();
        let mut report = self.compact_core()?;
        self.longs.free_released(&mut self.array)?;
        let blocks_after = self.array.total_blocks() - self.array.free_blocks();
        report.blocks_freed = blocks_before.saturating_sub(blocks_after);
        Ok(report)
    }

    fn compact_core(&mut self) -> Result<CompactReport> {
        if !self.mem.is_empty() {
            return Err(IndexError::InvalidConfig(
                "compaction requires a batch boundary (flush first)".into(),
            ));
        }
        let _span = invidx_obs::span("compact");
        invidx_obs::counter!(invidx_obs::names::CORE_COMPACTIONS).inc();
        let mut report = CompactReport {
            lists_rewritten: 0,
            chunks_before: self.longs.directory().total_chunks(),
            chunks_after: 0,
            blocks_freed: 0,
        };
        for word in self.longs.directory().words() {
            let before = self.longs.compact_word(&mut self.array, word)?;
            if before > 1 {
                report.lists_rewritten += 1;
            }
        }
        report.chunks_after = self.longs.directory().total_chunks();
        Ok(report)
    }

    // ----- bucket-space rebalancing (§7 future work) -----

    /// Grow (or reshape) the bucket space: "as the size of the index grows
    /// from the addition of more documents, the performance of the index
    /// degrades. This implies that we need a strategy to rebalance the
    /// division between short and long lists [...] periodically, as the
    /// buckets are read, they can be expanded and written in a larger
    /// region of disk" (paper §7).
    ///
    /// Every short list is rehashed into a fresh bucket array of
    /// `num_buckets` buckets of `capacity_units` each; lists that no longer
    /// fit (when shrinking) overflow to long lists as usual. Must be called
    /// at a batch boundary (no buffered documents); the new layout is
    /// committed through the same shadow-paged metadata flush as a batch.
    pub fn rebalance_buckets(
        &mut self,
        num_buckets: usize,
        capacity_units: u64,
    ) -> Result<RebalanceReport> {
        let report = self.rebalance_core(num_buckets, capacity_units)?;
        // Commit the new generation (buckets + directory + superblock).
        self.flush_metadata(self.batch_no)?;
        invidx_obs::event!("rebalance_buckets", {
            "old_buckets": report.old_buckets,
            "new_buckets": report.new_buckets,
            "moved_words": report.moved_words,
            "evictions": report.evictions,
        });
        Ok(report)
    }

    /// Rebalance for durable (WAL) mode: rehash without the shadow-paged
    /// flush. The caller logs the operation and persists state at the next
    /// checkpoint; released chunks stay on the RELEASE list until the
    /// caller's [`Self::free_released`].
    pub fn rebalance_core(
        &mut self,
        num_buckets: usize,
        capacity_units: u64,
    ) -> Result<RebalanceReport> {
        if !self.mem.is_empty() {
            return Err(IndexError::InvalidConfig(
                "rebalance requires a batch boundary (flush first)".into(),
            ));
        }
        let _span = invidx_obs::span("rebalance_buckets");
        invidx_obs::counter!(invidx_obs::names::CORE_REBALANCES).inc();
        let candidate = IndexConfig {
            num_buckets,
            bucket_capacity_units: capacity_units,
            ..self.config
        };
        candidate.validate(self.array.block_size())?;
        let old = std::mem::replace(
            &mut self.buckets,
            BucketStore::new(num_buckets, capacity_units)?,
        );
        let mut report = RebalanceReport {
            old_buckets: self.config.num_buckets,
            new_buckets: num_buckets,
            moved_words: 0,
            evictions: 0,
        };
        self.config = candidate;
        let overflow_counter = invidx_obs::counter!(invidx_obs::names::CORE_BUCKET_OVERFLOWS);
        let migration_counter = invidx_obs::counter!(invidx_obs::names::CORE_MIGRATIONS);
        for (word, list) in old.iter() {
            report.moved_words += 1;
            let outcome = self.buckets.insert(word, list)?;
            if !outcome.evicted.is_empty() {
                overflow_counter.inc();
            }
            for (w, evicted) in outcome.evicted {
                migration_counter.inc();
                self.longs.append(&mut self.array, w, &evicted)?;
                report.evictions += 1;
            }
        }
        Ok(report)
    }

    // ----- persistence -----

    fn superblock_bytes(&self, committed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(&SUPERBLOCK_MAGIC.to_le_bytes());
        out.extend_from_slice(&SUPERBLOCK_VERSION.to_le_bytes());
        out.extend_from_slice(&committed.to_le_bytes());
        // Document-ordering ceiling: 0 = no documents yet.
        let ceiling = self.mem.last_doc().map_or(0u64, |d| d.0 as u64 + 1);
        out.extend_from_slice(&ceiling.to_le_bytes());
        out.extend_from_slice(&(self.config.num_buckets as u64).to_le_bytes());
        out.extend_from_slice(&self.config.bucket_capacity_units.to_le_bytes());
        out.extend_from_slice(&self.config.block_postings.to_le_bytes());
        out.push(self.config.codec.as_u8());
        let (dd, ds, db) = self.dir_extent.unwrap_or((0, 0, 0));
        out.extend_from_slice(&dd.to_le_bytes());
        out.extend_from_slice(&ds.to_le_bytes());
        out.extend_from_slice(&db.to_le_bytes());
        out.extend_from_slice(&(self.bucket_extents.len() as u16).to_le_bytes());
        for &(d, s, b) in &self.bucket_extents {
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    fn write_superblock(&mut self, committed: u64) -> Result<()> {
        let bs = self.array.block_size();
        let mut buf = self.superblock_bytes(committed);
        if buf.len() > bs {
            return Err(IndexError::InvalidConfig(format!(
                "superblock of {} bytes exceeds the {bs}-byte block; fewer disks required",
                buf.len()
            )));
        }
        buf.resize(bs, 0);
        self.array.write_untraced(0, 0, &buf)?;
        Ok(())
    }

    /// Re-open an index from a previously flushed state. The array must
    /// expose the same devices (e.g. [`invidx_disk::FileDevice`]s) with
    /// *fresh, fully-free* allocators; allocation state is reconstructed
    /// from the superblock and directory. Unflushed in-memory postings and
    /// the deletion filter do not survive a restart (they are volatile by
    /// design; the batch boundary is the recovery point).
    pub fn open(mut array: DiskArray, config: IndexConfig) -> Result<Self> {
        let bs = array.block_size();
        let mut sb = vec![0u8; bs];
        array.read_untraced(0, 0, &mut sb)?;
        let mut pos = 0usize;
        let mut take = |n: usize| {
            let s = &sb[pos..pos + n];
            pos += n;
            s.to_vec()
        };
        let magic = u64::from_le_bytes(take(8).try_into().expect("8"));
        if magic != SUPERBLOCK_MAGIC {
            return Err(IndexError::Corruption("bad superblock magic".into()));
        }
        let version = u32::from_le_bytes(take(4).try_into().expect("4"));
        if version != SUPERBLOCK_VERSION {
            return Err(IndexError::Corruption(format!("superblock version {version}")));
        }
        let batch_no = u64::from_le_bytes(take(8).try_into().expect("8"));
        let doc_ceiling = u64::from_le_bytes(take(8).try_into().expect("8"));
        let num_buckets = u64::from_le_bytes(take(8).try_into().expect("8")) as usize;
        let capacity = u64::from_le_bytes(take(8).try_into().expect("8"));
        let block_postings = u64::from_le_bytes(take(8).try_into().expect("8"));
        // Geometry is owned by the on-disk index (it can change at runtime
        // via `rebalance_buckets`); `block_postings` defines how stored
        // bytes are interpreted, so a caller expecting a different value is
        // an error rather than silently reinterpreting data.
        if block_postings != config.block_postings {
            return Err(IndexError::InvalidConfig(format!(
                "on-disk index uses {block_postings} postings/block, caller expected {}",
                config.block_postings
            )));
        }
        let on_disk_codec = PostingsCodec::from_u8(take(1)[0])?;
        // A codec change would reinterpret every stored chunk's bytes;
        // reject it as a typed error rather than decode garbage.
        if on_disk_codec != config.codec {
            return Err(IndexError::CodecMismatch {
                on_disk: on_disk_codec,
                requested: config.codec,
            });
        }
        let config = IndexConfig {
            num_buckets,
            bucket_capacity_units: capacity,
            ..config
        };
        config.validate(bs)?;
        let dir_disk = u16::from_le_bytes(take(2).try_into().expect("2"));
        let dir_start = u64::from_le_bytes(take(8).try_into().expect("8"));
        let dir_blocks = u64::from_le_bytes(take(8).try_into().expect("8"));
        let n_extents = u16::from_le_bytes(take(2).try_into().expect("2"));
        let mut bucket_extents = Vec::with_capacity(n_extents as usize);
        for _ in 0..n_extents {
            let d = u16::from_le_bytes(take(2).try_into().expect("2"));
            let s = u64::from_le_bytes(take(8).try_into().expect("8"));
            let b = u64::from_le_bytes(take(8).try_into().expect("8"));
            bucket_extents.push((d, s, b));
        }

        // Rebuild allocator state: superblock, directory, bucket stripes,
        // and every long-list chunk are live.
        reserve_on(&mut array, 0, 0, 1)?;
        let dir_extent = if dir_blocks > 0 {
            reserve_on(&mut array, dir_disk, dir_start, dir_blocks)?;
            Some((dir_disk, dir_start, dir_blocks))
        } else {
            None
        };
        for &(d, s, b) in &bucket_extents {
            if b > 0 {
                reserve_on(&mut array, d, s, b)?;
            }
        }

        // Load the directory.
        let directory = if let Some((d, s, b)) = dir_extent {
            let mut buf = vec![0u8; b as usize * bs];
            array.read_untraced(d, s, &mut buf)?;
            Directory::deserialize(&buf)?
        } else {
            Directory::new()
        };
        for (_, entry) in directory.iter() {
            for c in &entry.chunks {
                reserve_on(&mut array, c.disk, c.start, c.blocks)?;
            }
        }
        let longs = LongStore::from_directory(
            directory,
            LongConfig {
                block_postings: config.block_postings,
                policy: config.policy,
                codec: config.codec,
            },
        );

        // Load the buckets.
        let mut buckets = BucketStore::new(config.num_buckets, config.bucket_capacity_units)?;
        let bucket_blocks = config.bucket_blocks();
        if config.materialize_buckets {
            for &(d, s, b) in &bucket_extents {
                if b == 0 {
                    continue;
                }
                let n = array.num_disks() as usize;
                let indices: Vec<usize> =
                    (0..config.num_buckets).filter(|i| (i % n) as u16 == d).collect();
                let mut buf = vec![0u8; b as usize * bs];
                array.read_untraced(d, s, &mut buf)?;
                for (slot, &i) in indices.iter().enumerate() {
                    let off = slot * bucket_blocks as usize * bs;
                    buckets.load_bucket(i, &buf[off..off + bucket_blocks as usize * bs])?;
                }
            }
        }

        // Restore the document-ordering floor from the superblock ceiling
        // (which covers bucket, long-list, and drained postings alike).
        let mut mem = MemIndex::new();
        if doc_ceiling > 0 {
            mem.set_floor(DocId((doc_ceiling - 1) as u32));
        }

        Ok(Self {
            config,
            array,
            mem,
            buckets,
            longs,
            deleted: BTreeSet::new(),
            batch_no,
            bucket_extents,
            dir_extent,
        })
    }

    // ----- checkpoint serialization (durable mode) -----

    /// Capture the full logical state of the index (minus unflushed
    /// in-memory postings, which the WAL owns) for a checkpoint file.
    pub fn snapshot(&self) -> Result<IndexSnapshot> {
        let worst = 4 + self.config.bucket_capacity_units as usize * 12;
        let mut buckets = Vec::with_capacity(self.config.num_buckets);
        for i in 0..self.config.num_buckets {
            buckets.push(self.buckets.serialize_bucket(i, worst)?);
        }
        Ok(IndexSnapshot {
            batch_no: self.batch_no,
            doc_ceiling: self.mem.last_doc().map_or(0u64, |d| d.0 as u64 + 1),
            num_buckets: self.config.num_buckets as u64,
            bucket_capacity_units: self.config.bucket_capacity_units,
            block_postings: self.config.block_postings,
            codec: self.config.codec,
            deleted: self.deleted.iter().map(|d| d.0).collect(),
            directory: self.longs.directory().serialize(),
            buckets,
        })
    }

    /// Rebuild an index from a checkpoint snapshot. Like [`Self::open`],
    /// the array must expose the same devices with fresh, fully-free
    /// allocators; every long-list chunk named by the snapshot's directory
    /// (plus the block-0 home) is re-reserved, which makes subsequent WAL
    /// replay allocate exactly as the original run did.
    pub fn restore(mut array: DiskArray, config: IndexConfig, snap: &IndexSnapshot) -> Result<Self> {
        let bs = array.block_size();
        if snap.block_postings != config.block_postings {
            return Err(IndexError::InvalidConfig(format!(
                "checkpoint uses {} postings/block, caller expected {}",
                snap.block_postings, config.block_postings
            )));
        }
        if snap.codec != config.codec {
            return Err(IndexError::CodecMismatch {
                on_disk: snap.codec,
                requested: config.codec,
            });
        }
        let config = IndexConfig {
            num_buckets: snap.num_buckets as usize,
            bucket_capacity_units: snap.bucket_capacity_units,
            ..config
        };
        config.validate(bs)?;
        reserve_on(&mut array, 0, 0, 1)?;
        let directory = Directory::deserialize(&snap.directory)?;
        for (_, entry) in directory.iter() {
            for c in &entry.chunks {
                reserve_on(&mut array, c.disk, c.start, c.blocks)?;
            }
        }
        let longs = LongStore::from_directory(
            directory,
            LongConfig {
                block_postings: config.block_postings,
                policy: config.policy,
                codec: config.codec,
            },
        );
        let mut buckets = BucketStore::new(config.num_buckets, config.bucket_capacity_units)?;
        if snap.buckets.len() != config.num_buckets {
            return Err(IndexError::Corruption(format!(
                "checkpoint has {} buckets, geometry says {}",
                snap.buckets.len(),
                config.num_buckets
            )));
        }
        for (i, bytes) in snap.buckets.iter().enumerate() {
            buckets.load_bucket(i, bytes)?;
        }
        let mut mem = MemIndex::new();
        if snap.doc_ceiling > 0 {
            mem.set_floor(DocId((snap.doc_ceiling - 1) as u32));
        }
        Ok(Self {
            config,
            array,
            mem,
            buckets,
            longs,
            deleted: snap.deleted.iter().map(|&d| DocId(d)).collect(),
            batch_no: snap.batch_no,
            // Durable mode has no shadow-paged metadata generation on the
            // devices; these stay empty until a legacy flush_batch runs.
            bucket_extents: Vec::new(),
            dir_extent: None,
        })
    }
}

/// The full logical state of a [`DualIndex`] at a batch boundary, as
/// captured into (and restored from) a checkpoint file by the durable
/// layer. Byte encoding is delegated to [`IndexSnapshot::serialize`] /
/// [`IndexSnapshot::deserialize`] so the checkpoint format lives in one
/// place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSnapshot {
    /// Completed batches at snapshot time.
    pub batch_no: u64,
    /// Document-ordering ceiling (0 = no documents yet).
    pub doc_ceiling: u64,
    /// Bucket count (geometry is owned by the stored index).
    pub num_buckets: u64,
    /// Bucket capacity in units.
    pub bucket_capacity_units: u64,
    /// Postings per block.
    pub block_postings: u64,
    /// Postings codec the chunk bytes were written with.
    pub codec: PostingsCodec,
    /// Pending logical deletions.
    pub deleted: Vec<u32>,
    /// Serialized long-list directory.
    pub directory: Vec<u8>,
    /// Serialized buckets, in index order.
    pub buckets: Vec<Vec<u8>>,
}

impl IndexSnapshot {
    /// Encode to bytes (length-prefixed sections, little-endian).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self.deleted.len() * 4
                + self.directory.len()
                + self.buckets.iter().map(|b| 4 + b.len()).sum::<usize>(),
        );
        out.extend_from_slice(&self.batch_no.to_le_bytes());
        out.extend_from_slice(&self.doc_ceiling.to_le_bytes());
        out.extend_from_slice(&self.num_buckets.to_le_bytes());
        out.extend_from_slice(&self.bucket_capacity_units.to_le_bytes());
        out.extend_from_slice(&self.block_postings.to_le_bytes());
        out.push(self.codec.as_u8());
        out.extend_from_slice(&(self.deleted.len() as u32).to_le_bytes());
        for d in &self.deleted {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(&(self.directory.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.directory);
        out.extend_from_slice(&(self.buckets.len() as u32).to_le_bytes());
        for b in &self.buckets {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        out
    }

    /// Decode from bytes produced by [`Self::serialize`].
    pub fn deserialize(bytes: &[u8]) -> Result<Self> {
        let mut cur = SnapCursor { bytes, pos: 0 };
        let batch_no = cur.u64le()?;
        let doc_ceiling = cur.u64le()?;
        let num_buckets = cur.u64le()?;
        let bucket_capacity_units = cur.u64le()?;
        let block_postings = cur.u64le()?;
        let codec = PostingsCodec::from_u8(cur.take(1)?[0])?;
        let ndel = cur.u32le()? as usize;
        let mut deleted = Vec::with_capacity(ndel.min(1 << 20));
        for _ in 0..ndel {
            deleted.push(cur.u32le()?);
        }
        let dirlen = cur.u64le()? as usize;
        let directory = cur.take(dirlen)?.to_vec();
        let nbuckets = cur.u32le()? as usize;
        if nbuckets as u64 != num_buckets {
            return Err(IndexError::Corruption(format!(
                "snapshot bucket payload count {nbuckets} != geometry {num_buckets}"
            )));
        }
        let mut buckets = Vec::with_capacity(nbuckets.min(1 << 20));
        for _ in 0..nbuckets {
            let len = cur.u32le()? as usize;
            buckets.push(cur.take(len)?.to_vec());
        }
        if cur.pos != bytes.len() {
            return Err(IndexError::Corruption("trailing bytes after index snapshot".into()));
        }
        Ok(Self {
            batch_no,
            doc_ceiling,
            num_buckets,
            bucket_capacity_units,
            block_postings,
            codec,
            deleted,
            directory,
            buckets,
        })
    }
}

struct SnapCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(IndexError::Corruption("truncated index snapshot".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32le(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64le(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

fn reserve_on(array: &mut DiskArray, disk: u16, start: u64, blocks: u64) -> Result<()> {
    array.reserve_on(disk, start, blocks).map_err(IndexError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use invidx_disk::{sparse_array, Disk, FileDevice, FitStrategy, FreeList};

    fn small_index() -> DualIndex {
        let array = sparse_array(3, 50_000, 256);
        DualIndex::create(array, IndexConfig::small()).unwrap()
    }

    /// Insert `docs` documents where word w appears in every doc with
    /// id % w == 0 — deterministic, Zipf-ish (low words frequent).
    fn load(index: &mut DualIndex, doc_range: std::ops::Range<u32>, words: u64) {
        for d in doc_range {
            let doc_words = (1..=words).filter(|w| (d as u64).is_multiple_of(*w)).map(WordId);
            index.insert_document(DocId(d), doc_words).unwrap();
        }
    }

    #[test]
    fn basic_insert_flush_query() {
        let mut ix = small_index();
        load(&mut ix, 1..30, 10);
        ix.flush_batch().unwrap();
        // Word 1 in every doc, word 7 in multiples of 7.
        assert_eq!(ix.postings(WordId(1)).unwrap().len(), 29);
        let sevens = ix.postings(WordId(7)).unwrap();
        assert_eq!(
            sevens.docs().iter().map(|d| d.0).collect::<Vec<_>>(),
            vec![7, 14, 21, 28]
        );
        assert!(ix.postings(WordId(999)).unwrap().is_empty());
    }

    #[test]
    fn unflushed_postings_visible() {
        let mut ix = small_index();
        load(&mut ix, 1..10, 5);
        ix.flush_batch().unwrap();
        load(&mut ix, 10..15, 5);
        // Word 1: 9 stored + 5 in memory.
        assert_eq!(ix.postings(WordId(1)).unwrap().len(), 14);
        assert_eq!(ix.doc_frequency(WordId(1)), 14);
    }

    #[test]
    fn frequent_words_migrate_to_long_lists() {
        let mut ix = small_index();
        for batch in 0..6u32 {
            load(&mut ix, batch * 50 + 1..(batch + 1) * 50 + 1, 12);
            ix.flush_batch().unwrap();
        }
        // Word 1 (in every document) must long since it alone exceeds a
        // 40-unit bucket.
        assert_eq!(ix.location(WordId(1)), WordLocation::Long);
        // A rare word stays short.
        assert_eq!(ix.location(WordId(11)), WordLocation::Short);
        // Content is intact either way.
        assert_eq!(ix.postings(WordId(1)).unwrap().len(), 300);
        assert_eq!(ix.postings(WordId(11)).unwrap().len(), 300 / 11);
        // A word never has both a short and a long list.
        assert!(ix.buckets().get(WordId(1)).is_none());
    }

    #[test]
    fn batch_reports_categorize_words() {
        let mut ix = small_index();
        load(&mut ix, 1..40, 8);
        let r1 = ix.flush_batch().unwrap();
        assert_eq!(r1.new_words, 8);
        assert_eq!(r1.bucket_words + r1.long_words, 0);
        load(&mut ix, 40..80, 8);
        let r2 = ix.flush_batch().unwrap();
        // All 8 words were seen before; none are new.
        assert_eq!(r2.new_words, 0);
        assert_eq!(r2.bucket_words + r2.long_words, 8);
        assert_eq!(r2.batch, 1);
        assert!(r2.postings >= r2.words);
    }

    #[test]
    fn flush_of_empty_batch_is_valid() {
        let mut ix = small_index();
        let r = ix.flush_batch().unwrap();
        assert_eq!(r.words, 0);
        assert_eq!(ix.batches(), 1);
        // And queries still work.
        assert!(ix.postings(WordId(5)).unwrap().is_empty());
    }

    #[test]
    fn trace_contains_bucket_directory_and_longlist_ops() {
        let mut ix = small_index();
        ix.array().start_trace();
        for batch in 0..4u32 {
            load(&mut ix, batch * 60 + 1..(batch + 1) * 60 + 1, 10);
            ix.flush_batch().unwrap();
        }
        let trace = ix.array().take_trace();
        assert_eq!(trace.batches(), 4);
        assert!(trace.count(|op| matches!(op.payload, Payload::Bucket)) >= 4);
        assert!(trace.count(|op| matches!(op.payload, Payload::Directory)) == 4);
        assert!(trace.count(|op| matches!(op.payload, Payload::LongList { .. })) > 0);
    }

    #[test]
    fn shadow_paging_frees_previous_generation() {
        let mut ix = small_index();
        load(&mut ix, 1..50, 10);
        ix.flush_batch().unwrap();
        let free_after_1 = ix.array().free_blocks();
        for b in 1..5u32 {
            load(&mut ix, b * 50 + 1..(b + 1) * 50 + 1, 10);
            ix.flush_batch().unwrap();
        }
        let free_after_5 = ix.array().free_blocks();
        // Bucket + directory regions are constant-size; only long-list
        // growth consumes space. With ~10 long words the drop stays small
        // rather than accumulating whole bucket generations (~40+ blocks
        // per batch would leak otherwise).
        let consumed = free_after_1 - free_after_5;
        let long_blocks = ix.directory().total_blocks();
        assert!(
            consumed <= long_blocks + 16,
            "consumed {consumed} vs long-list blocks {long_blocks}"
        );
    }

    #[test]
    fn deletion_filter_and_sweep() {
        let mut ix = small_index();
        load(&mut ix, 1..60, 6);
        ix.flush_batch().unwrap();
        let before = ix.postings(WordId(2)).unwrap().len();
        ix.delete_document(DocId(2));
        ix.delete_document(DocId(4));
        assert_eq!(ix.pending_deletions(), 2);
        // Filtered immediately.
        assert_eq!(ix.postings(WordId(2)).unwrap().len(), before - 2);
        let report = ix.sweep().unwrap();
        assert_eq!(ix.pending_deletions(), 0);
        assert!(report.postings_removed >= 2);
        // Physically gone.
        assert_eq!(ix.postings(WordId(2)).unwrap().len(), before - 2);
        assert!(!ix.postings(WordId(2)).unwrap().docs().contains(&DocId(4)));
        // Sweep with nothing pending is a no-op.
        assert_eq!(ix.sweep().unwrap(), SweepReport::default());
    }

    #[test]
    fn sweep_drops_fully_deleted_words() {
        let mut ix = small_index();
        ix.insert_document(DocId(1), [WordId(3)]).unwrap();
        ix.insert_document(DocId(2), [WordId(3), WordId(4)]).unwrap();
        ix.flush_batch().unwrap();
        ix.delete_document(DocId(1));
        ix.delete_document(DocId(2));
        let report = ix.sweep().unwrap();
        assert_eq!(report.words_dropped, 2);
        assert_eq!(ix.location(WordId(3)), WordLocation::Absent);
    }

    #[test]
    fn read_cost_matches_location() {
        let mut ix = small_index();
        for b in 0..5u32 {
            load(&mut ix, b * 40 + 1..(b + 1) * 40 + 1, 10);
            ix.flush_batch().unwrap();
        }
        assert_eq!(ix.location(WordId(1)), WordLocation::Long);
        let cost = ix.read_cost(WordId(1));
        assert_eq!(cost, ix.directory().get(WordId(1)).unwrap().num_chunks() as u64);
        assert_eq!(ix.read_cost(WordId(9)), 1); // short (alone in bucket 9)
        assert_eq!(ix.read_cost(WordId(999)), 0); // absent
        ix.insert_document(DocId(9999), [WordId(999)]).unwrap();
        assert_eq!(ix.location(WordId(999)), WordLocation::MemoryOnly);
    }

    fn file_array(dir: &std::path::Path, n: u16, blocks: u64, bs: usize, create: bool) -> DiskArray {
        let disks = (0..n)
            .map(|d| {
                let path = dir.join(format!("disk{d}.bin"));
                let device = if create {
                    FileDevice::create(&path, blocks, bs).unwrap()
                } else {
                    FileDevice::open(&path, bs).unwrap()
                };
                Disk {
                    device: Box::new(device) as Box<dyn invidx_disk::BlockDevice>,
                    alloc: Box::new(FreeList::new(blocks, FitStrategy::FirstFit)),
                }
            })
            .collect();
        DiskArray::new(disks)
    }

    #[test]
    fn crash_recovery_from_files() {
        let dir = std::env::temp_dir().join(format!("invidx-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = IndexConfig::small();
        let expected: Vec<(WordId, usize)> = {
            let array = file_array(&dir, 2, 20_000, 256, true);
            let mut ix = DualIndex::create(array, config).unwrap();
            for b in 0..4u32 {
                load(&mut ix, b * 50 + 1..(b + 1) * 50 + 1, 10);
                ix.flush_batch().unwrap();
            }
            // Buffer an unflushed batch: it must NOT survive (the batch
            // boundary is the recovery point).
            load(&mut ix, 201..220, 10);
            (1..=10u64).map(|w| (WordId(w), 200 / w as usize)).collect()
        };
        // "Crash": drop the index, re-open from the files.
        let array = file_array(&dir, 2, 20_000, 256, false);
        let mut ix = DualIndex::open(array, config).unwrap();
        assert_eq!(ix.batches(), 4);
        for (w, n) in expected {
            assert_eq!(ix.postings(w).unwrap().len(), n, "word {w}");
        }
        // The index keeps working after recovery.
        load(&mut ix, 201..230, 10);
        ix.flush_batch().unwrap();
        assert_eq!(ix.postings(WordId(1)).unwrap().len(), 229);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_mismatched_config() {
        let dir = std::env::temp_dir().join(format!("invidx-badcfg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = IndexConfig::small();
        {
            let array = file_array(&dir, 1, 10_000, 256, true);
            let mut ix = DualIndex::create(array, config).unwrap();
            ix.flush_batch().unwrap();
        }
        // block_postings defines byte interpretation: mismatch is an error.
        let array = file_array(&dir, 1, 10_000, 256, false);
        let bad = IndexConfig { block_postings: 50, ..config };
        assert!(DualIndex::open(array, bad).is_err());
        // Bucket geometry is owned by the on-disk index: a caller value is
        // overridden by the superblock (rebalancing can change it).
        let array = file_array(&dir, 1, 10_000, 256, false);
        let other_geometry = IndexConfig { num_buckets: 99, ..config };
        let ix = DualIndex::open(array, other_geometry).unwrap();
        assert_eq!(ix.config().num_buckets, config.num_buckets);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_codec_change() {
        let dir = std::env::temp_dir().join(format!("invidx-codecsw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = IndexConfig { codec: PostingsCodec::VarintDelta, ..IndexConfig::small() };
        {
            let array = file_array(&dir, 1, 10_000, 256, true);
            let mut ix = DualIndex::create(array, config).unwrap();
            load(&mut ix, 1..30, 10);
            ix.flush_batch().unwrap();
        }
        // Reinterpreting compressed chunks as plain (or vice versa) is a
        // typed error, not silent garbage.
        let array = file_array(&dir, 1, 10_000, 256, false);
        let bad = IndexConfig { codec: PostingsCodec::Plain, ..config };
        assert!(matches!(
            DualIndex::open(array, bad),
            Err(IndexError::CodecMismatch {
                on_disk: PostingsCodec::VarintDelta,
                requested: PostingsCodec::Plain,
            })
        ));
        // The matching codec opens fine and reads back identical postings.
        let array = file_array(&dir, 1, 10_000, 256, false);
        let ix = DualIndex::open(array, config).unwrap();
        assert_eq!(ix.postings(WordId(1)).unwrap().len(), 29);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_index_round_trips_through_snapshot() {
        let dir = std::env::temp_dir().join(format!("invidx-codecsnap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = IndexConfig { codec: PostingsCodec::BitPacked, ..IndexConfig::small() };
        let (snap, expect) = {
            let array = file_array(&dir, 2, 20_000, 256, true);
            let mut ix = DualIndex::create(array, config).unwrap();
            load(&mut ix, 1..60, 10);
            ix.flush_batch().unwrap();
            let expect: Vec<_> =
                (1..=10u64).map(|w| ix.postings(WordId(w)).unwrap()).collect();
            (ix.snapshot().unwrap(), expect)
        };
        let restored_snap = IndexSnapshot::deserialize(&snap.serialize()).unwrap();
        assert_eq!(restored_snap, snap);
        // Restore requires the same codec.
        let bad = IndexConfig { codec: PostingsCodec::Plain, ..config };
        assert!(matches!(
            DualIndex::restore(file_array(&dir, 2, 20_000, 256, false), bad, &snap),
            Err(IndexError::CodecMismatch { .. })
        ));
        let restored =
            DualIndex::restore(file_array(&dir, 2, 20_000, 256, false), config, &snap).unwrap();
        for (w, want) in (1..=10u64).zip(&expect) {
            assert_eq!(&restored.postings(WordId(w)).unwrap(), want, "word {w}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebalance_grows_bucket_space_and_recovers() {
        let dir = std::env::temp_dir().join(format!("invidx-rebal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = IndexConfig::small();
        {
            let array = file_array(&dir, 2, 20_000, 256, true);
            let mut ix = DualIndex::create(array, config).unwrap();
            for b in 0..3u32 {
                load(&mut ix, b * 50 + 1..(b + 1) * 50 + 1, 10);
                ix.flush_batch().unwrap();
            }
            let short_before = ix.buckets().total_words();
            let report = ix.rebalance_buckets(64, 80).unwrap();
            assert_eq!(report.old_buckets, 16);
            assert_eq!(report.new_buckets, 64);
            assert_eq!(report.moved_words, short_before);
            assert_eq!(ix.config().num_buckets, 64);
            // Content unchanged.
            assert_eq!(ix.postings(WordId(1)).unwrap().len(), 150);
            assert_eq!(ix.postings(WordId(7)).unwrap().len(), 150 / 7);
            // Keeps working.
            load(&mut ix, 151..200, 10);
            ix.flush_batch().unwrap();
        }
        // The new geometry survives recovery (superblock is authoritative).
        let array = file_array(&dir, 2, 20_000, 256, false);
        let ix = DualIndex::open(array, config).unwrap();
        assert_eq!(ix.config().num_buckets, 64);
        assert_eq!(ix.config().bucket_capacity_units, 80);
        assert_eq!(ix.postings(WordId(1)).unwrap().len(), 199);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebalance_shrink_overflows_to_long_lists() {
        let mut ix = small_index();
        load(&mut ix, 1..80, 10);
        ix.flush_batch().unwrap();
        let long_before = ix.directory().num_words();
        // Shrink drastically: one tiny bucket forces most lists long.
        let report = ix.rebalance_buckets(1, 20).unwrap();
        assert!(report.evictions > 0);
        assert!(ix.directory().num_words() > long_before);
        assert!(ix.buckets().bucket(0).units() <= 20);
        // All content preserved.
        for w in 1..=10u64 {
            assert_eq!(ix.postings(WordId(w)).unwrap().len(), 79 / w as usize);
        }
    }

    #[test]
    fn compact_defragments_update_optimized_index() {
        let mut ix = small_index();
        // new 0 fragments heavily: one chunk per update per long word.
        let mut ix2 = DualIndex::create(
            sparse_array(3, 50_000, 256),
            IndexConfig::small().with_policy(Policy::update_optimized()),
        )
        .unwrap();
        std::mem::swap(&mut ix, &mut ix2);
        for b in 0..6u32 {
            load(&mut ix, b * 50 + 1..(b + 1) * 50 + 1, 10);
            ix.flush_batch().unwrap();
        }
        let frag_cost = ix.read_cost(WordId(1));
        assert!(frag_cost > 1, "expected fragmentation, got {frag_cost}");
        let free_before = ix.array().free_blocks();
        let report = ix.compact().unwrap();
        assert!(report.lists_rewritten > 0);
        assert_eq!(report.chunks_after, ix.directory().num_words() as u64);
        assert!(report.chunks_before > report.chunks_after);
        // Every long list now costs one read; content unchanged.
        for w in 1..=10u64 {
            if ix.location(WordId(w)) == WordLocation::Long {
                assert_eq!(ix.read_cost(WordId(w)), 1);
            }
            assert_eq!(ix.postings(WordId(w)).unwrap().len(), 300 / w as usize);
        }
        assert!(ix.array().free_blocks() >= free_before, "compaction must not leak");
        // And the index keeps working afterwards.
        load(&mut ix, 301..330, 10);
        ix.flush_batch().unwrap();
        assert_eq!(ix.postings(WordId(1)).unwrap().len(), 329);
    }

    #[test]
    fn compact_is_idempotent_and_gated() {
        let mut ix = small_index();
        load(&mut ix, 1..100, 10);
        assert!(ix.compact().is_err(), "buffered docs must block compaction");
        ix.flush_batch().unwrap();
        ix.compact().unwrap();
        let second = ix.compact().unwrap();
        assert_eq!(second.lists_rewritten, 0);
        assert_eq!(second.blocks_freed, 0);
    }

    #[test]
    fn rebalance_requires_batch_boundary() {
        let mut ix = small_index();
        ix.insert_document(DocId(1), [WordId(1)]).unwrap();
        assert!(ix.rebalance_buckets(32, 80).is_err());
        ix.flush_batch().unwrap();
        assert!(ix.rebalance_buckets(32, 80).is_ok());
    }

    #[test]
    fn open_rejects_uninitialized_device() {
        let array = sparse_array(1, 1_000, 256);
        assert!(matches!(
            DualIndex::open(array, IndexConfig::small()),
            Err(IndexError::Corruption(_))
        ));
    }

    #[test]
    fn config_validation_rejects_oversized_buckets() {
        // Bucket worst case exceeding the region must be caught.
        let config = IndexConfig {
            num_buckets: 4,
            bucket_capacity_units: 1000,
            block_postings: 1000,
            ..IndexConfig::small()
        };
        // 1000 postings * 4 bytes = 4000 > 256-byte block: LongConfig fails
        // first; with a big enough block the bucket check fires.
        assert!(config.validate(256).is_err());
        let config2 = IndexConfig { block_postings: 60, ..config };
        // bucket_blocks = ceil(1000/60) = 17 blocks * 256 = 4352 bytes,
        // worst case = 4 + 12000: rejected.
        assert!(config2.validate(256).is_err());
    }

    #[test]
    fn unmaterialized_buckets_trace_identical() {
        let run = |materialize: bool| {
            let array = sparse_array(2, 50_000, 256);
            let config = IndexConfig { materialize_buckets: materialize, ..IndexConfig::small() };
            let mut ix = DualIndex::create(array, config).unwrap();
            ix.array().start_trace();
            for b in 0..3u32 {
                load(&mut ix, b * 50 + 1..(b + 1) * 50 + 1, 10);
                ix.flush_batch().unwrap();
            }
            ix.array().take_trace()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn documents_must_arrive_in_order_across_batches() {
        let mut ix = small_index();
        ix.insert_document(DocId(10), [WordId(1)]).unwrap();
        ix.flush_batch().unwrap();
        assert!(ix.insert_document(DocId(10), [WordId(1)]).is_err());
        assert!(ix.insert_document(DocId(11), [WordId(1)]).is_ok());
    }

    /// Regression: `read_cost` counts device reads and must stay 0 for a word
    /// whose postings are still in the in-memory batch, while `postings` and
    /// `doc_frequency` already include that pending state.
    #[test]
    fn mem_only_word_has_zero_read_cost_but_live_postings() {
        let array = sparse_array(2, 6_000, 256);
        let config = IndexConfig::builder()
            .num_buckets(16)
            .bucket_capacity_units(40)
            .block_postings(8)
            .policy(Policy::balanced())
            .materialize_buckets(true)
            .ingest_threads(1)
            .build()
            .expect("valid config");
        let mut ix = DualIndex::create(array, config).expect("create");
        ix.insert_document(DocId(1), [WordId(99)]).expect("insert");
        ix.insert_document(DocId(2), [WordId(99)]).expect("insert");
        assert_eq!(ix.read_cost(WordId(99)), 0, "unflushed word costs no device reads");
        assert_eq!(ix.doc_frequency(WordId(99)), 2, "doc_frequency includes the mem batch");
        assert_eq!(ix.postings(WordId(99)).expect("read").len(), 2);
        ix.flush_batch().expect("flush");
        // Flushed to a bucket: still short, and doc_frequency is unchanged.
        assert_eq!(ix.doc_frequency(WordId(99)), 2);
        assert_eq!(ix.postings(WordId(99)).expect("read").len(), 2);
    }

    #[test]
    fn config_builder_validates_at_build() {
        assert!(IndexConfig::builder().build().is_ok());
        assert!(IndexConfig::builder().num_buckets(0).build().is_err());
        assert!(IndexConfig::builder().ingest_threads(0).build().is_err());
        let c = IndexConfig::builder().ingest_threads(2).build().expect("valid config");
        assert_eq!(c.ingest_threads, 2);
    }
}
