//! The "compute disks" process (paper §4.4).
//!
//! "Takes as input the trace file of long list updates and computes the
//! sequence of I/O system calls required to implement the policies
//! described in Section 3. In addition, the write operations for saving the
//! buckets and the directory are added at the end of each batch update."
//!
//! This stage drives [`invidx_core::LongStore`] against a traced disk
//! array, synthesizing monotone document ids for each word's updates, and
//! reports the paper's §5.2 metrics after every batch: cumulative I/O
//! operations (Figure 8), long-list internal utilization (Figure 9), and
//! average reads per long list (Figure 10).

use crate::params::SimParams;
use invidx_core::longlist::{LongConfig, LongStats, LongStore};
use invidx_core::policy::Policy;
use invidx_core::postings::PostingList;
use invidx_core::types::{DocId, IndexError, Result, WordId};
use invidx_corpus::BatchUpdate;
use invidx_disk::{sparse_array, DiskArray, IoOp, IoTrace, OpKind, Payload};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-batch metrics from the compute-disks stage.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BatchDiskStats {
    /// Cumulative logical I/O operations (Figure 8's y-axis), including the
    /// bucket and directory writes.
    pub cumulative_ops: u64,
    /// Long-list internal utilization after this batch (Figure 9).
    pub utilization: f64,
    /// Average reads per long list after this batch (Figure 10).
    pub avg_reads_per_long_list: f64,
    /// Words with long lists.
    pub long_words: u64,
    /// Cumulative long-store counters.
    pub long_stats: LongStats,
}

/// Output of the compute-disks stage.
#[derive(Debug)]
pub struct DiskStageOutput {
    /// The policy that produced this run.
    pub policy: Policy,
    /// The full I/O trace (input to the exercise stage).
    pub trace: IoTrace,
    /// Per-batch metrics.
    pub per_batch: Vec<BatchDiskStats>,
    /// Final long-store counters.
    pub final_stats: LongStats,
    /// Final utilization.
    pub final_utilization: f64,
    /// Final average reads per long list.
    pub final_avg_reads: f64,
    /// Total blocks consumed at the end (long lists + metadata).
    pub blocks_in_use: u64,
}

/// Errors that identify the paper's "disks not large enough" case
/// distinctly from other failures.
pub fn is_out_of_space(err: &IndexError) -> bool {
    matches!(err, IndexError::Disk(invidx_disk::DiskError::OutOfSpace { .. }))
}

/// The compute-disks stage runner.
pub struct DiskStage {
    params: SimParams,
    policy: Policy,
    store: LongStore,
    array: DiskArray,
    counters: HashMap<WordId, u32>,
    batch_no: u64,
    /// Live metadata extents for shadow paging: per-disk bucket stripes +
    /// the directory extent.
    bucket_extents: Vec<(u16, u64, u64)>,
    dir_extent: Option<(u16, u64, u64)>,
}

impl DiskStage {
    /// Build a stage for one policy.
    pub fn new(params: SimParams, policy: Policy) -> Result<Self> {
        let config = LongConfig {
            block_postings: params.block_postings,
            policy,
            codec: Default::default(),
        };
        config.validate(params.block_size)?;
        let mut array = sparse_array(params.disks, params.blocks_per_disk, params.block_size);
        array.reserve_on(0, 0, 1)?; // superblock home, as in DualIndex
        array.start_trace();
        Ok(Self {
            params,
            policy,
            store: LongStore::new(config),
            array,
            counters: HashMap::new(),
            batch_no: 0,
            bucket_extents: Vec::new(),
            dir_extent: None,
        })
    }

    fn synth_postings(&mut self, word: WordId, count: u32) -> PostingList {
        let c = self.counters.entry(word).or_insert(0);
        let start = *c;
        *c += count;
        PostingList::from_sorted((start..start + count).map(DocId).collect())
    }

    /// Apply one batch of long-list updates, then the end-of-batch bucket
    /// and directory writes (mirroring `DualIndex::flush_metadata`).
    pub fn process_batch(&mut self, updates: &BatchUpdate) -> Result<()> {
        for &(w, count) in &updates.pairs {
            let word = WordId(w);
            let postings = self.synth_postings(word, count);
            self.store.append(&mut self.array, word, &postings)?;
        }
        self.batch_no += 1;
        self.flush_metadata()?;
        self.array.end_batch();
        Ok(())
    }

    fn flush_metadata(&mut self) -> Result<()> {
        let bs = self.params.block_size;
        // Bucket stripes, one write per disk.
        let mut new_extents = Vec::with_capacity(self.params.disks as usize);
        for d in 0..self.params.disks {
            let blocks = self.params.bucket_stripe_blocks(d);
            if blocks == 0 {
                new_extents.push((d, 0, 0));
                continue;
            }
            let start = self.array.alloc_on(d, blocks)?;
            self.array.trace_push(IoOp {
                kind: OpKind::Write,
                disk: d,
                start,
                blocks,
                payload: Payload::Bucket,
            });
            new_extents.push((d, start, blocks));
        }
        // Directory write on a rotating disk.
        let dir_bytes = self.store.directory().serialize();
        let dir_blocks = (dir_bytes.len().div_ceil(bs) as u64).max(1);
        let dir_disk = (self.batch_no % self.params.disks as u64) as u16;
        let dir_start = self.array.alloc_on(dir_disk, dir_blocks)?;
        let mut buf = dir_bytes;
        buf.resize(dir_blocks as usize * bs, 0);
        self.array.write_op(
            IoOp {
                kind: OpKind::Write,
                disk: dir_disk,
                start: dir_start,
                blocks: dir_blocks,
                payload: Payload::Directory,
            },
            &buf,
        )?;
        // Free the previous generation and released long-list chunks.
        for (d, s, b) in std::mem::replace(&mut self.bucket_extents, new_extents) {
            if b > 0 {
                self.array.free_on(d, s, b)?;
            }
        }
        if let Some((d, s, b)) = self.dir_extent.replace((dir_disk, dir_start, dir_blocks)) {
            self.array.free_on(d, s, b)?;
        }
        self.store.free_released(&mut self.array)?;
        Ok(())
    }

    /// Snapshot the per-batch metrics (call after `process_batch`).
    fn snapshot(&self) -> BatchDiskStats {
        let dir = self.store.directory();
        BatchDiskStats {
            cumulative_ops: self.array.with_trace(|t| t.map_or(0, |t| t.ops.len() as u64)),
            utilization: dir.utilization(self.params.block_postings),
            avg_reads_per_long_list: dir.avg_reads_per_long_list(),
            long_words: dir.num_words() as u64,
            long_stats: self.store.stats(),
        }
    }

    /// Run the stage over all batches.
    pub fn run(mut self, long_updates: &[BatchUpdate]) -> Result<DiskStageOutput> {
        let mut per_batch = Vec::with_capacity(long_updates.len());
        for b in long_updates {
            self.process_batch(b)?;
            per_batch.push(self.snapshot());
        }
        let dir = self.store.directory();
        let final_utilization = dir.utilization(self.params.block_postings);
        let final_avg_reads = dir.avg_reads_per_long_list();
        let blocks_in_use = self.array.total_blocks() - self.array.free_blocks();
        Ok(DiskStageOutput {
            policy: self.policy,
            trace: self.array.take_trace(),
            per_batch,
            final_stats: self.store.stats(),
            final_utilization,
            final_avg_reads,
            blocks_in_use,
        })
    }

    /// Access the long store (tests).
    pub fn store(&self) -> &LongStore {
        &self.store
    }
}

/// Convenience: run compute-disks for a policy over a long-update trace.
pub fn compute_disks(
    params: &SimParams,
    policy: Policy,
    long_updates: &[BatchUpdate],
) -> Result<DiskStageOutput> {
    DiskStage::new(params.clone(), policy)?.run(long_updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buckets::BucketPipeline;
    use invidx_corpus::generate_batches;

    fn long_updates(params: &SimParams) -> Vec<BatchUpdate> {
        let (batches, _) = generate_batches(params.corpus.clone());
        BucketPipeline::new(params.buckets, params.bucket_size)
            .unwrap()
            .run(&batches)
            .unwrap()
            .long_updates
    }

    #[test]
    fn all_policies_complete_and_report() {
        let params = SimParams::tiny();
        let updates = long_updates(&params);
        let total_updates: usize = updates.iter().map(|b| b.pairs.len()).sum();
        assert!(total_updates > 0, "tiny corpus must overflow some buckets");
        for policy in Policy::style_comparison_set() {
            let out = compute_disks(&params, policy, &updates).unwrap();
            assert_eq!(out.per_batch.len(), updates.len());
            assert_eq!(out.trace.batches(), updates.len());
            // Cumulative ops strictly increase (every batch writes
            // buckets + directory at minimum).
            for w in out.per_batch.windows(2) {
                assert!(w[1].cumulative_ops > w[0].cumulative_ops);
            }
            assert!(out.final_utilization > 0.0 && out.final_utilization <= 1.0);
        }
    }

    #[test]
    fn whole_style_has_one_read_per_list() {
        let params = SimParams::tiny();
        let updates = long_updates(&params);
        let whole = compute_disks(&params, Policy::query_optimized(), &updates).unwrap();
        assert!((whole.final_avg_reads - 1.0).abs() < 1e-9);
        let new0 = compute_disks(&params, Policy::update_optimized(), &updates).unwrap();
        assert!(new0.final_avg_reads > whole.final_avg_reads);
    }

    #[test]
    fn in_place_updates_double_io_ops() {
        // Figure 8's observation: in-place updates roughly double the
        // long-list I/O operations relative to Limit = 0 (one read + one
        // write instead of one write).
        use invidx_core::policy::{Alloc, Limit, Style};
        let params = SimParams::tiny();
        let updates = long_updates(&params);
        let count_long = |out: &DiskStageOutput| {
            out.trace.count(|op| matches!(op.payload, Payload::LongList { .. }))
        };
        let new0 = compute_disks(
            &params,
            Policy::new(Style::New, Limit::Never, Alloc::Constant { k: 0 }),
            &updates,
        )
        .unwrap();
        let newz = compute_disks(
            &params,
            Policy::new(Style::New, Limit::Fits, Alloc::Constant { k: 0 }),
            &updates,
        )
        .unwrap();
        // On the tiny corpus the ratio is attenuated (updates often exceed
        // the block-tail space); at full scale it approaches the paper's
        // factor of 2 — the fig08 bench reports it. Here assert direction
        // and the hard upper bound of 2 (read+write vs write).
        let ratio = count_long(&newz) as f64 / count_long(&new0) as f64;
        assert!(ratio > 1.05 && ratio <= 2.0 + 1e-9, "ratio {ratio}");
        // And the whole style is the upper bound on I/O operations.
        let whole0 = compute_disks(
            &params,
            Policy::new(Style::Whole, Limit::Never, Alloc::Constant { k: 0 }),
            &updates,
        )
        .unwrap();
        assert!(count_long(&whole0) >= count_long(&new0));
    }

    #[test]
    fn utilization_ordering_matches_paper() {
        // Figure 9: whole ~1.0; adding in-place updates improves new/fill;
        // fill/new without in-place waste the most space.
        use invidx_core::policy::{Alloc, Limit, Style};
        let params = SimParams::tiny();
        let updates = long_updates(&params);
        let util = |style, limit| {
            compute_disks(&params, Policy::new(style, limit, Alloc::Constant { k: 0 }), &updates)
                .unwrap()
                .final_utilization
        };
        let whole = util(Style::Whole, Limit::Never);
        let new0 = util(Style::New, Limit::Never);
        let newz = util(Style::New, Limit::Fits);
        let fill0 = util(Style::Fill { extent_blocks: 4 }, Limit::Never);
        let fillz = util(Style::Fill { extent_blocks: 4 }, Limit::Fits);
        assert!(whole > 0.9, "whole {whole}");
        assert!(newz > new0, "new z {newz} vs new 0 {new0}");
        assert!(fillz > fill0, "fill z {fillz} vs fill 0 {fill0}");
        assert!(whole > newz && whole > fillz);
    }

    #[test]
    fn counters_give_monotone_doc_ids_across_batches() {
        let params = SimParams::tiny();
        let updates = long_updates(&params);
        // Success of every policy run already implies ordering (LongStore
        // checks), but assert explicitly by reading a list back.
        let mut stage = DiskStage::new(params.clone(), Policy::query_optimized()).unwrap();
        for b in &updates {
            stage.process_batch(b).unwrap();
        }
        let first_word = stage.store.directory().iter().next().map(|(w, _)| w);
        if let Some(word) = first_word {
            let list = stage.store.read_list(&stage.array, word).unwrap();
            assert!(!list.is_empty());
        }
    }
}
