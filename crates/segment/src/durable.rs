//! The one store: [`DurableIndex`] as L0, sealed segments, a manifest,
//! and a cooperative compactor.
//!
//! Fresh batches land in L0's buckets and in-place long lists — the
//! paper's dual structure. When L0's stored footprint crosses the
//! configured byte budget at a batch boundary its contents are *sealed* —
//! written once, sorted by term, into an immutable segment — the manifest
//! commits the new segment, and L0 restarts empty. Reads merge the sealed
//! segments with L0 behind the same `postings()` interface, in doc-id
//! order, filtered through the shared deletion list. The tiered compactor
//! bounds read amplification by folding `fanout` same-level segments into
//! one at the next level.
//!
//! [`EngineKind::InPlace`] is this store with no seal budget: L0 never
//! seals, no merge is ever planned, and the store *is* the paper's
//! in-place index. What used to be a difference of type is a rule of
//! state:
//!
//! * **a manifest iff the store can seal** — only a store with a budget
//!   writes a `MANIFEST` file and wraps its checkpoint blob in `SEGCKPT1`;
//!   one without stages the caller's blob straight into L0, so its bytes
//!   are the in-place index's bytes, and opening a store that has a
//!   manifest under [`EngineKind::InPlace`] is
//!   [`IndexError::EngineMismatch`];
//! * **sweep iff no segment is sealed** — tombstones are needed only while
//!   a sealed segment may still hold a deleted document.
//!
//! A store opened in a directory ([`DurableSegmentedIndex::create`] /
//! [`DurableSegmentedIndex::open`]) has a logged L0 and, when it can
//! seal, a manifest *file*, and follows the commit protocol below. One
//! built over a bare disk array ([`DurableSegmentedIndex::without_log`])
//! keeps its manifest in memory only: seals and merges run the same steps
//! minus the manifest store and the checkpoints (which a log-less L0
//! answers with a no-op).
//!
//! ## Commit protocol
//!
//! The manifest file is the source of truth for the sealed-segment set.
//! Every manifest-changing operation checkpoints the L0 store
//! immediately after committing, so the WAL never has to replay *across*
//! a manifest change and at most **one** manifest generation can be
//! ahead of the checkpoint after a crash:
//!
//! ```text
//! seal:   write segment extents → flush devices → manifest gen+1
//!         → L0 seal-reset → checkpoint (carries gen+1)
//! merge:  checkpoint (empties the WAL) → write output extents
//!         → flush devices → manifest gen+1 → free input extents
//!         → checkpoint (carries gen+1)
//! ```
//!
//! ## Recovery
//!
//! The checkpoint's meta blob embeds the manifest state it was taken
//! under. On open, recovery hooks re-reserve that generation's segment
//! extents *before* free-space verification and WAL replay. Afterwards
//! the on-disk manifest is compared with the checkpoint's: if it is one
//! generation ahead, the interrupted operation is repaired and a fresh
//! checkpoint restores the lockstep invariant.
//!
//! A pending **seal** is rolled *back*: WAL replay already rebuilt the
//! sealed contents in L0, and — because the allocator's placement
//! cursor is not part of the checkpoint — the replayed chunks may
//! occupy the very blocks the orphaned segment was written to, so
//! adopting the segment is unsound. The segment is discarded (its id
//! stays burned) and a superseding manifest generation is committed.
//! A pending **merge** is rolled *forward* — output extents reserved
//! and verified, inputs freed. That is safe because [`Self::tick`]
//! checkpoints L0 before the first merge of a tick, so the WAL is
//! always empty across a merge protocol and replay can never compete
//! with the output segment for blocks.

use crate::compact::{self, CompactionPolicy};
use crate::error::{Result, SegmentError};
use crate::format::{self, SegmentMeta};
use crate::manifest::{Manifest, ManifestFile};
use crate::store::{build_seal_writer, merge_writer, SegmentStats};
use invidx_core::{
    BatchReport, DocId, DualIndex, EngineKind, IndexConfig, IndexError, PostingList, SweepReport,
    WordId,
};
use invidx_disk::DiskArray;
use invidx_durable::{
    DurableError, DurableIndex, DurableOptions, FaultInjector, RecoveryHooks, RecoveryInfo,
    StoreGeometry, WalRecord,
};
use std::path::Path;

/// Magic bytes opening a composite (segment-aware) checkpoint meta blob.
const META_MAGIC: &[u8; 8] = b"SEGCKPT1";

/// Process-kill sites inside the seal/merge protocol, for the recovery
/// matrix. A crash here stops the protocol cleanly at the site — exactly
/// the on-disk state a power cut at that instant would leave — and
/// surfaces as an `Injected`-style error the test catches before
/// dropping and reopening the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSite {
    /// After the segment's extents are written, before the device flush
    /// and manifest commit (the segment is orphaned garbage).
    AfterSegmentWrite,
    /// After the manifest rename committed the new generation, before
    /// the L0 reset / input frees and the checkpoint (the roll-forward
    /// window).
    AfterManifestCommit,
    /// Seal only: after the L0 reset, before the checkpoint.
    AfterL0Reset,
    /// Merge only: after the input extents were freed, before the
    /// checkpoint.
    AfterInputFree,
}

impl ProtocolSite {
    /// All sites, for building test matrices.
    pub const ALL: [ProtocolSite; 4] = [
        ProtocolSite::AfterSegmentWrite,
        ProtocolSite::AfterManifestCommit,
        ProtocolSite::AfterL0Reset,
        ProtocolSite::AfterInputFree,
    ];
}

/// The one store: L0 [`DurableIndex`], sealed segments, manifest (with
/// its file and checkpoint-embedded copy when L0 is logged and the store
/// can seal), cooperative compactor.
pub struct DurableSegmentedIndex {
    l0: DurableIndex,
    manifest: Manifest,
    /// Where the manifest persists; `None` for a store without a log or
    /// without a seal budget.
    file: Option<ManifestFile>,
    policy: CompactionPolicy,
    /// Seal L0 once its stored bytes reach this; `None` never seals.
    l0_budget: Option<u64>,
    user_meta: Vec<u8>,
    seals: u64,
    merges: u64,
    bytes_written: u64,
    crash_site: Option<ProtocolSite>,
    poisoned: bool,
}

impl DurableSegmentedIndex {
    /// Create a fresh store in `dir`; it seals iff `config.engine` is
    /// [`EngineKind::Segmented`].
    pub fn create(
        dir: &Path,
        config: IndexConfig,
        geometry: StoreGeometry,
        opts: DurableOptions,
    ) -> Result<Self> {
        Self::create_with(dir, config, geometry, opts, FaultInjector::new())
    }

    /// [`Self::create`] with a caller-supplied fault injector.
    pub fn create_with(
        dir: &Path,
        config: IndexConfig,
        geometry: StoreGeometry,
        opts: DurableOptions,
        injector: FaultInjector,
    ) -> Result<Self> {
        let params = engine_params(&config);
        let l0 = DurableIndex::create_with(dir, config, geometry, opts, injector)?;
        let file = params.0.map(|_| ManifestFile::in_dir(dir));
        let mut me = Self::assemble(l0, Manifest::new(), file, params, Vec::new());
        me.store_manifest()?;
        me.push_composite_meta();
        Ok(me)
    }

    /// A fresh store on `array` with no write-ahead log and no manifest
    /// file (see [`DurableIndex::without_log`]); it seals iff
    /// `config.engine` is [`EngineKind::Segmented`].
    pub fn without_log(array: DiskArray, config: IndexConfig) -> Result<Self> {
        let params = engine_params(&config);
        let l0 = DurableIndex::without_log(array, config)?;
        Ok(Self::assemble(l0, Manifest::new(), None, params, Vec::new()))
    }

    fn assemble(
        l0: DurableIndex,
        manifest: Manifest,
        file: Option<ManifestFile>,
        (l0_budget, fanout): (Option<u64>, u32),
        user_meta: Vec<u8>,
    ) -> Self {
        Self {
            l0,
            manifest,
            file,
            policy: CompactionPolicy::with_fanout(fanout),
            l0_budget,
            user_meta,
            seals: 0,
            merges: 0,
            bytes_written: 0,
            crash_site: None,
            poisoned: false,
        }
    }

    /// Persist the manifest, when it has a file to persist to.
    fn store_manifest(&self) -> Result<()> {
        if let Some(file) = &self.file {
            file.store(&self.manifest, self.l0.injector())?;
        }
        Ok(())
    }

    /// Open (recover) the store in `dir`.
    pub fn open(dir: &Path, config: IndexConfig, opts: DurableOptions) -> Result<Self> {
        Self::open_with(dir, config, opts, FaultInjector::new(), &mut ())
    }

    /// [`Self::open`] with a fault injector and caller recovery hooks
    /// (which see only the caller's own slice of the checkpoint meta).
    pub fn open_with(
        dir: &Path,
        config: IndexConfig,
        opts: DurableOptions,
        injector: FaultInjector,
        hooks: &mut dyn RecoveryHooks,
    ) -> Result<Self> {
        let params = engine_params(&config);
        let file = ManifestFile::in_dir(dir);
        if params.0.is_none() {
            // A store that cannot seal has no manifest, and the whole
            // checkpoint blob is the caller's.
            if file.path().exists() {
                return Err(IndexError::EngineMismatch { requested: config.engine }.into());
            }
            let l0 = DurableIndex::open_with(dir, config, opts, injector, hooks)?;
            return Ok(Self::assemble(l0, Manifest::new(), None, params, Vec::new()));
        }
        let disk_manifest = file.load()?;
        let mut seg_hooks = SegmentHooks { user: hooks, ckpt_manifest: None, user_meta: Vec::new() };
        let mut l0 = DurableIndex::open_with(dir, config, opts, injector, &mut seg_hooks)?;
        let ckpt_manifest = seg_hooks.ckpt_manifest.take().unwrap_or_default();
        let user_meta = seg_hooks.user_meta;
        let disk_manifest = match disk_manifest {
            Some(m) => m,
            // The manifest file never made it to disk (crash during the
            // very first store): the checkpoint's copy is authoritative.
            None => ckpt_manifest.clone(),
        };

        let mut me = match disk_manifest.generation {
            g if g == ckpt_manifest.generation => {
                let ckpt_ids: Vec<u64> = ckpt_manifest.segments.iter().map(|s| s.id).collect();
                let disk_ids: Vec<u64> = disk_manifest.segments.iter().map(|s| s.id).collect();
                if ckpt_ids != disk_ids {
                    return Err(SegmentError::Corrupt(format!(
                        "manifest gen {g} disagrees with checkpoint on live segments \
                         ({disk_ids:?} vs {ckpt_ids:?})"
                    )));
                }
                Self::assemble(l0, disk_manifest, Some(file), params, user_meta)
            }
            g if g == ckpt_manifest.generation + 1 => {
                // One manifest op committed but never checkpointed: roll
                // it forward against the replayed L0.
                let added: Vec<SegmentMeta> = disk_manifest
                    .segments
                    .iter()
                    .filter(|s| ckpt_manifest.segment(s.id).is_none())
                    .cloned()
                    .collect();
                let removed: Vec<SegmentMeta> = ckpt_manifest
                    .segments
                    .iter()
                    .filter(|s| disk_manifest.segment(s.id).is_none())
                    .cloned()
                    .collect();
                let pending_seal = removed.is_empty() && added.len() == 1;
                let repaired = if pending_seal {
                    // Roll back: replay rebuilt the sealed contents in
                    // L0 (possibly on the orphaned segment's blocks), so
                    // discard the segment and commit a superseding
                    // generation. The segment id stays burned.
                    let mut m = ckpt_manifest.clone();
                    m.generation = disk_manifest.generation + 1;
                    m.next_segment_id = disk_manifest.next_segment_id;
                    file.store(&m, l0.injector())?;
                    m
                } else {
                    // Roll a merge forward: the WAL was empty when it
                    // started, so nothing competed for its blocks.
                    for s in &added {
                        for e in &s.extents {
                            l0.inner_mut().reserve_extent(e.disk, e.start, e.blocks)?;
                        }
                        format::verify(s, l0.inner().array())?;
                    }
                    for s in &removed {
                        for e in &s.extents {
                            l0.inner_mut().sidecar_array().free_on(e.disk, e.start, e.blocks)?;
                        }
                    }
                    disk_manifest
                };
                invidx_obs::counter!(invidx_obs::names::SEGMENT_ROLLFORWARDS).inc();
                let mut me = Self::assemble(l0, repaired, Some(file), params, user_meta);
                me.push_composite_meta();
                me.l0.checkpoint()?;
                me
            }
            g => {
                return Err(SegmentError::Corrupt(format!(
                    "manifest generation {g} vs checkpoint generation {} — more than one \
                     uncheckpointed manifest op should be impossible",
                    ckpt_manifest.generation
                )));
            }
        };
        invidx_obs::gauge!(invidx_obs::names::SEGMENT_LIVE)
            .set(me.manifest.segments.len() as i64);
        me.push_composite_meta();
        Ok(me)
    }

    // ----- meta plumbing -----

    /// Stage the caller's blob for every subsequent checkpoint. A store
    /// with a manifest wraps it with the manifest state transparently; one
    /// without hands it to L0 as is. Like
    /// [`DurableIndex::set_checkpoint_meta`], only calls `meta` when there
    /// is a checkpoint file to carry it.
    pub fn set_checkpoint_meta(&mut self, meta: impl FnOnce() -> Vec<u8>) {
        if self.file.is_none() {
            return self.l0.set_checkpoint_meta(meta);
        }
        let (manifest, user_meta) = (&self.manifest, &mut self.user_meta);
        self.l0.set_checkpoint_meta(|| {
            *user_meta = meta();
            composite_meta(manifest, user_meta)
        });
    }

    /// The caller blob recovered from the checkpoint (open path).
    pub fn user_meta(&self) -> &[u8] {
        &self.user_meta
    }

    fn push_composite_meta(&mut self) {
        if self.file.is_some() {
            self.l0.set_checkpoint_meta(|| composite_meta(&self.manifest, &self.user_meta));
        }
    }

    // ----- updates -----

    /// Add a document to the current volatile batch.
    pub fn insert_document<I>(&mut self, doc: DocId, words: I) -> Result<()>
    where
        I: IntoIterator<Item = WordId>,
    {
        Ok(self.l0.insert_document(doc, words)?)
    }

    /// Bulk-add documents on `threads` threads.
    pub fn insert_documents(
        &mut self,
        docs: Vec<(DocId, Vec<WordId>)>,
        threads: usize,
    ) -> Result<()> {
        Ok(self.l0.insert_documents(docs, threads)?)
    }

    /// Logically delete a document.
    pub fn delete_document(&mut self, doc: DocId) {
        self.l0.delete_document(doc);
    }

    /// Commit the batch (WAL + apply), then run the seal policy and one
    /// compaction tick.
    pub fn flush(&mut self) -> Result<BatchReport> {
        self.flush_with_meta(Vec::new)
    }

    /// [`Self::flush`] carrying an opaque caller blob in the WAL record.
    pub fn flush_with_meta(&mut self, meta: impl FnOnce() -> Vec<u8>) -> Result<BatchReport> {
        self.check_poison()?;
        let report = self.l0.flush_with_meta(meta)?;
        let tiered = self.maybe_seal().and_then(|sealed| {
            let merges = self.tick()?;
            Ok(sealed.is_some() || merges > 0)
        });
        match tiered {
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
            Ok(tiered) => {
                // Without a log, seal/merge I/O trails the batch marker
                // L0's shadow-paged flush just wrote to the Figure-6
                // trace; give it its own so per-batch accounting (and the
                // text round-trip) sees it. A logged L0 marks batches at
                // its own records. (Only a store with a budget tiers, so
                // here no manifest file means no log.)
                if tiered && self.file.is_none() {
                    self.l0.inner().array().end_batch();
                }
                Ok(report)
            }
        }
    }

    /// Physically remove deleted documents' postings from L0 (§3's
    /// sweep), logged like any L0 maintenance op. Refused once a segment
    /// is sealed: clearing L0's tombstones would resurrect the deleted
    /// documents a sealed segment still holds, so from then on deletions
    /// stay tombstones, filtered at read time.
    pub fn sweep(&mut self) -> Result<SweepReport> {
        self.check_poison()?;
        if !self.manifest.segments.is_empty() {
            return Err(SegmentError::Usage(
                "the segmented engine has no sweep; deletions are purged by compaction".into(),
            ));
        }
        Ok(self.l0.sweep()?)
    }

    /// Seal L0 into a segment if it crossed the byte budget (never, for a
    /// store without one).
    pub fn maybe_seal(&mut self) -> Result<Option<u64>> {
        match self.l0_budget {
            Some(budget) if self.l0.inner().stored_bytes() >= budget => self.seal_now(),
            _ => Ok(None),
        }
    }

    /// Whether this store has a seal budget ([`EngineKind::Segmented`]).
    pub fn can_seal(&self) -> bool {
        self.l0_budget.is_some()
    }

    /// Unconditionally seal L0 (no-op when empty), committing the full
    /// protocol: extents → flush → manifest → reset → checkpoint.
    pub fn seal_now(&mut self) -> Result<Option<u64>> {
        self.check_poison()?;
        if !self.can_seal() {
            return Err(SegmentError::Usage("a store without a seal budget never seals".into()));
        }
        let Some(writer) = build_seal_writer(self.l0.inner(), self.manifest.peek_next_id())? else {
            return Ok(None);
        };
        let meta = writer.finish(self.l0.inner_mut().sidecar_array())?;
        let id = meta.id;
        self.bytes_written += meta.blocks() * self.l0.inner().array().block_size() as u64;
        self.crash_check(ProtocolSite::AfterSegmentWrite)?;
        self.l0.inner_mut().flush_devices()?;
        let batch = self.l0.batches();
        self.manifest.apply_seal(meta, batch);
        self.store_manifest()?;
        self.crash_check(ProtocolSite::AfterManifestCommit)?;
        self.l0.inner_mut().seal_reset()?;
        self.crash_check(ProtocolSite::AfterL0Reset)?;
        self.push_composite_meta();
        self.l0.checkpoint()?;
        self.seals += 1;
        Ok(Some(id))
    }

    /// One cooperative compaction tick: run merges lowest-level-first
    /// until the per-tick budget is spent or no level is over fanout,
    /// each merge committed through the protocol.
    pub fn tick(&mut self) -> Result<usize> {
        let mut budget = if self.policy.max_merge_blocks_per_tick == 0 {
            u64::MAX
        } else {
            self.policy.max_merge_blocks_per_tick
        };
        let mut done = 0;
        while let Some(plan) = compact::plan(&self.manifest, &self.policy, budget) {
            if done == 0 {
                // Empty the WAL before the first merge: recovery rolls
                // merges forward, which is only sound if replay cannot
                // allocate over the output segment's extents.
                self.push_composite_meta();
                self.l0.checkpoint()?;
            }
            budget = budget.saturating_sub(plan.input_blocks);
            let inputs: Vec<SegmentMeta> = plan
                .inputs
                .iter()
                .map(|id| {
                    self.manifest
                        .segment(*id)
                        .cloned()
                        .ok_or_else(|| SegmentError::Corrupt(format!("merge input {id} not live")))
                })
                .collect::<Result<_>>()?;
            let writer = merge_writer(
                &inputs,
                self.manifest.peek_next_id(),
                plan.output_level,
                self.l0.inner().array(),
            )?;
            let meta = writer.finish(self.l0.inner_mut().sidecar_array())?;
            self.bytes_written += meta.blocks() * self.l0.inner().array().block_size() as u64;
            self.crash_check(ProtocolSite::AfterSegmentWrite)?;
            self.l0.inner_mut().flush_devices()?;
            self.manifest.apply_merge(&plan.inputs, meta)?;
            self.store_manifest()?;
            self.crash_check(ProtocolSite::AfterManifestCommit)?;
            for m in &inputs {
                for e in &m.extents {
                    self.l0.inner_mut().sidecar_array().free_on(e.disk, e.start, e.blocks)?;
                }
            }
            self.crash_check(ProtocolSite::AfterInputFree)?;
            self.push_composite_meta();
            self.l0.checkpoint()?;
            self.merges += 1;
            done += 1;
        }
        Ok(done)
    }

    /// Override the compaction rate limit (blocks per tick, 0 = no cap).
    pub fn set_merge_rate(&mut self, blocks_per_tick: u64) {
        self.policy.max_merge_blocks_per_tick = blocks_per_tick;
    }

    /// Arm a one-shot process-kill at a protocol site (recovery matrix).
    pub fn inject_protocol_crash(&mut self, site: ProtocolSite) {
        self.crash_site = Some(site);
    }

    fn crash_check(&mut self, site: ProtocolSite) -> Result<()> {
        if self.crash_site == Some(site) {
            self.crash_site = None;
            self.poisoned = true;
            return Err(SegmentError::Usage(format!(
                "injected protocol crash at {site:?}"
            )));
        }
        Ok(())
    }

    fn check_poison(&self) -> Result<()> {
        if self.poisoned {
            return Err(SegmentError::Usage(
                "segmented store poisoned by an earlier error; reopen to recover".into(),
            ));
        }
        Ok(())
    }

    // ----- reads -----

    /// The full posting list for a word: sealed segments (oldest first)
    /// unioned with L0, filtered through the deletion list. Matches
    /// [`DualIndex::postings`] bit-for-bit on the same history.
    pub fn postings(&self, word: WordId) -> Result<PostingList> {
        let mut list = self.l0.postings(word)?;
        for seg in &self.manifest.segments {
            let mut run = format::read_term(seg, self.l0.inner().array(), word)?;
            if run.is_empty() {
                continue;
            }
            run.retain(|d| !self.l0.inner().is_deleted(d));
            list = list.union(&run);
        }
        Ok(list)
    }

    /// Document frequency from metadata only (term indexes are resident):
    /// segment run lengths plus L0's directory/bucket/mem counts. Like
    /// [`DualIndex::doc_frequency`], ignores the deletion filter.
    pub fn doc_frequency(&self, word: WordId) -> u64 {
        let sealed: u64 = self
            .manifest
            .segments
            .iter()
            .filter_map(|s| s.find(word))
            .map(|t| t.postings as u64)
            .sum();
        sealed + self.l0.inner().doc_frequency(word)
    }

    // ----- introspection / passthrough -----

    /// Write a checkpoint now (manifest state rides in the meta blob).
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.check_poison()?;
        Ok(self.l0.checkpoint()?)
    }

    /// The durable L0 store.
    pub fn l0(&self) -> &DurableIndex {
        &self.l0
    }

    /// Mutable access to the durable L0 store.
    pub fn l0_mut(&mut self) -> &mut DurableIndex {
        &mut self.l0
    }

    /// The underlying in-place index (L0's core).
    pub fn inner(&self) -> &DualIndex {
        self.l0.inner()
    }

    /// The live manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The fault injector.
    pub fn injector(&self) -> &FaultInjector {
        self.l0.injector()
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.l0.recovery()
    }

    /// Completed batches.
    pub fn batches(&self) -> u64 {
        self.l0.batches()
    }

    /// Tier shape and lifetime write counters.
    pub fn stats(&self) -> SegmentStats {
        let mut levels: Vec<(u32, usize, u64)> = Vec::new();
        for (level, segs) in self.manifest.levels() {
            levels.push((level, segs.len(), segs.iter().map(|s| s.blocks()).sum()));
        }
        SegmentStats {
            segments: self.manifest.segments.len(),
            levels,
            segment_blocks: self.manifest.total_blocks(),
            segment_postings: self.manifest.total_postings(),
            l0_bytes: self.l0.inner().stored_bytes(),
            seals: self.seals,
            merges: self.merges,
            bytes_written: self.bytes_written,
            generation: self.manifest.generation,
        }
    }

    /// Verify every live segment against its manifest CRC.
    pub fn verify_segments(&self) -> Result<()> {
        for s in &self.manifest.segments {
            format::verify(s, self.l0.inner().array())?;
        }
        Ok(())
    }
}

/// The seal budget (none for the in-place engine: its L0 never seals)
/// and the merge fanout.
fn engine_params(config: &IndexConfig) -> (Option<u64>, u32) {
    match config.engine {
        EngineKind::Segmented { l0_budget, fanout } => (Some(l0_budget), fanout),
        EngineKind::InPlace => (None, EngineKind::DEFAULT_FANOUT),
    }
}

/// Recovery hooks wrapper: peels the segment layer's slice off the
/// checkpoint meta, re-reserves that generation's segment extents before
/// free-space verification, and forwards the caller's slice.
struct SegmentHooks<'a> {
    user: &'a mut dyn RecoveryHooks,
    ckpt_manifest: Option<Manifest>,
    user_meta: Vec<u8>,
}

impl RecoveryHooks for SegmentHooks<'_> {
    fn on_checkpoint_meta(
        &mut self,
        meta: &[u8],
        index: &mut DualIndex,
    ) -> invidx_durable::Result<()> {
        let (manifest, user) = decode_composite(meta)?;
        for s in &manifest.segments {
            for e in &s.extents {
                index.reserve_extent(e.disk, e.start, e.blocks)?;
            }
        }
        self.ckpt_manifest = Some(manifest);
        self.user_meta = user.to_vec();
        self.user.on_checkpoint_meta(user, index)
    }

    fn before_apply(
        &mut self,
        record: &WalRecord,
        index: &mut DualIndex,
    ) -> invidx_durable::Result<()> {
        self.user.before_apply(record, index)
    }
}

/// The checkpoint meta blob of a segmented store: the manifest state the
/// checkpoint was taken under, then the caller's bytes.
fn composite_meta(manifest: &Manifest, user_meta: &[u8]) -> Vec<u8> {
    let manifest_bytes = manifest.encode();
    let mut out = Vec::with_capacity(16 + manifest_bytes.len() + user_meta.len());
    out.extend_from_slice(META_MAGIC);
    out.extend_from_slice(&(manifest_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&manifest_bytes);
    out.extend_from_slice(user_meta);
    out
}

/// Split a composite meta blob into (manifest, caller slice). Layout:
/// `SEGCKPT1 | manifest_len u64 | manifest | caller bytes`. A blob
/// without the segment magic (a pre-segmented store, or the implicit
/// empty meta of a fresh store) is all caller bytes with an empty
/// manifest.
fn decode_composite(meta: &[u8]) -> invidx_durable::Result<(Manifest, &[u8])> {
    if meta.len() < META_MAGIC.len() + 8 || &meta[..8] != META_MAGIC {
        return Ok((Manifest::default(), meta));
    }
    let len = u64::from_le_bytes(meta[8..16].try_into().unwrap()) as usize;
    let body = &meta[16..];
    if len > body.len() {
        return Err(DurableError::Corrupt(format!(
            "composite meta: manifest length {len} exceeds blob ({} bytes)",
            body.len()
        )));
    }
    let manifest = Manifest::decode(&body[..len])
        .map_err(|e| DurableError::Corrupt(format!("checkpoint manifest: {e}")))?;
    Ok((manifest, &body[len..]))
}
