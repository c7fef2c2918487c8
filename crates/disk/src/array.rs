//! Multi-disk arrays with round-robin placement and trace recording.
//!
//! The paper's second allocation issue (§3): "When the list for a new word
//! w is added to the directory or a new chunk of a list for a word w is
//! allocated, a disk is chosen. [...] The strategy considered here is to
//! choose disk i+1 mod n" where `i` was the previous choice. [`DiskArray`]
//! implements that cursor over a set of per-disk (device, allocator) pairs
//! and optionally records every operation into an [`IoTrace`] — the same
//! trace the paper's "compute disks" process emits.

use crate::block::BlockDevice;
use crate::error::{DiskError, Result};
use crate::freelist::ExtentAllocator;
use crate::trace::{IoOp, IoTrace};
use parking_lot::Mutex;

/// One disk: a block device plus its free-space allocator.
pub struct Disk {
    /// Raw block storage.
    pub device: Box<dyn BlockDevice>,
    /// Extent allocator for this disk's free space.
    pub alloc: Box<dyn ExtentAllocator>,
}

/// A set of disks with a shared round-robin placement cursor.
///
/// The trace sink lives behind a mutex so that *read* operations only need
/// `&self`: queries through [`crate::BlockDevice::read`] are naturally
/// shareable, and the trace append is the only mutation on that path.
/// Concurrent readers therefore share the array, contending only on the
/// short trace push.
pub struct DiskArray {
    disks: Vec<Disk>,
    cursor: usize,
    trace: Mutex<Option<IoTrace>>,
    block_size: usize,
    /// When set, freed extents are quarantined here instead of returning to
    /// the allocators — crash-recovery epochs (see [`Self::defer_frees`]).
    deferred: Option<Vec<(u16, u64, u64)>>,
    /// When set, writes are buffered per disk instead of hitting devices —
    /// the parallel batch-apply window (see [`Self::begin_capture`]).
    capture: Mutex<Option<CaptureState>>,
}

/// Deferred-execution state for one capture window.
///
/// The plan records every operation in issue order so the trace stays
/// byte-identical to a sequential run; the per-disk write buffers preserve
/// each disk's issue order so the final device bytes do too (overlapping
/// writes land in their original relative order).
/// One disk's buffered `(start, blocks, data)` writes, in issue order.
type PendingWrites = Vec<(u64, u64, Vec<u8>)>;

struct CaptureState {
    /// All captured ops (reads and writes), in issue order.
    plan: Vec<IoOp>,
    /// Buffered writes per disk.
    pending: Vec<PendingWrites>,
}

/// Copy any captured-but-unexecuted writes that overlap `[start,
/// start+blocks)` into `buf` — the read-your-writes overlay that lets a
/// capture-mode read observe earlier same-batch writes. Later writes win,
/// exactly as they would on the device.
fn overlay_pending(
    pending: &[(u64, u64, Vec<u8>)],
    start: u64,
    blocks: u64,
    buf: &mut [u8],
    block_size: usize,
) {
    let read_end = start + blocks;
    for (w_start, w_blocks, data) in pending {
        let lo = start.max(*w_start);
        let hi = read_end.min(w_start + w_blocks);
        for b in lo..hi {
            let src = ((b - w_start) as usize) * block_size;
            let dst = ((b - start) as usize) * block_size;
            buf[dst..dst + block_size].copy_from_slice(&data[src..src + block_size]);
        }
    }
}

impl DiskArray {
    /// Assemble an array. All devices must share one block size.
    ///
    /// # Panics
    /// Panics if `disks` is empty or block sizes disagree.
    pub fn new(disks: Vec<Disk>) -> Self {
        assert!(!disks.is_empty(), "DiskArray requires at least one disk");
        let block_size = disks[0].device.block_size();
        assert!(
            disks.iter().all(|d| d.device.block_size() == block_size),
            "all devices must share one block size"
        );
        Self {
            disks,
            cursor: 0,
            trace: Mutex::new(None),
            block_size,
            deferred: None,
            capture: Mutex::new(None),
        }
    }

    /// Number of disks.
    pub fn num_disks(&self) -> u16 {
        self.disks.len() as u16
    }

    /// Shared block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Advance the round-robin cursor and return the chosen disk
    /// ("disk i+1 mod n").
    pub fn next_disk(&mut self) -> u16 {
        self.cursor = (self.cursor + 1) % self.disks.len();
        self.cursor as u16
    }

    /// Current cursor position (the disk chosen by the last `next_disk`).
    pub fn cursor(&self) -> u16 {
        self.cursor as u16
    }

    /// Begin recording operations into a fresh trace.
    pub fn start_trace(&self) {
        *self.trace.lock() = Some(IoTrace::new());
    }

    /// Mark the end of a batch in the recorded trace (no-op when not
    /// tracing).
    pub fn end_batch(&self) {
        if let Some(t) = self.trace.lock().as_mut() {
            t.end_batch();
        }
    }

    /// Stop recording and return the trace (empty if tracing never
    /// started).
    pub fn take_trace(&self) -> IoTrace {
        self.trace.lock().take().unwrap_or_default()
    }

    /// Inspect the trace recorded so far under the sink lock. The closure
    /// receives `None` when tracing is not active.
    pub fn with_trace<R>(&self, f: impl FnOnce(Option<&IoTrace>) -> R) -> R {
        f(self.trace.lock().as_ref())
    }

    fn disk_mut(&mut self, disk: u16) -> Result<&mut Disk> {
        let n = self.disks.len() as u64;
        self.disks.get_mut(disk as usize).ok_or(DiskError::OutOfRange {
            start: disk as u64,
            nblocks: 0,
            device: n,
        })
    }

    fn disk_ref(&self, disk: u16) -> Result<&Disk> {
        let n = self.disks.len() as u64;
        self.disks.get(disk as usize).ok_or(DiskError::OutOfRange {
            start: disk as u64,
            nblocks: 0,
            device: n,
        })
    }

    /// Allocate `blocks` contiguous blocks on a specific disk.
    pub fn alloc_on(&mut self, disk: u16, blocks: u64) -> Result<u64> {
        self.disk_mut(disk)?.alloc.alloc(blocks)
    }

    /// Free an extent on a disk. With [`Self::defer_frees`] active the
    /// extent is quarantined instead and only returns to the allocator at
    /// [`Self::release_deferred`] — blocks referenced by a prior checkpoint
    /// stay readable until the next checkpoint commits.
    pub fn free_on(&mut self, disk: u16, start: u64, blocks: u64) -> Result<()> {
        self.disk_ref(disk)?; // validate the disk index even when deferring
        if let Some(pending) = &mut self.deferred {
            pending.push((disk, start, blocks));
            return Ok(());
        }
        self.disk_mut(disk)?.alloc.free(start, blocks)
    }

    /// Switch freed-extent quarantine on or off. Turning it off does NOT
    /// release already-quarantined extents; call [`Self::release_deferred`]
    /// first.
    pub fn defer_frees(&mut self, on: bool) {
        match (on, &self.deferred) {
            (true, None) => self.deferred = Some(Vec::new()),
            (false, Some(p)) => {
                assert!(p.is_empty(), "release_deferred before disabling quarantine");
                self.deferred = None;
            }
            _ => {}
        }
    }

    /// Total quarantined blocks per disk (indexed by disk id).
    pub fn deferred_blocks_per_disk(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.disks.len()];
        if let Some(pending) = &self.deferred {
            for &(d, _, blocks) in pending {
                v[d as usize] += blocks;
            }
        }
        v
    }

    /// Return all quarantined extents to their allocators (after a
    /// checkpoint commits, nothing can replay reads against them).
    pub fn release_deferred(&mut self) -> Result<()> {
        let pending = match &mut self.deferred {
            Some(p) => std::mem::take(p),
            None => return Ok(()),
        };
        for (disk, start, blocks) in pending {
            self.disk_mut(disk)?.alloc.free(start, blocks)?;
        }
        Ok(())
    }

    /// Reserve a specific extent on a disk (crash-recovery support; see
    /// [`ExtentAllocator::reserve`]).
    pub fn reserve_on(&mut self, disk: u16, start: u64, blocks: u64) -> Result<()> {
        self.disk_mut(disk)?.alloc.reserve(start, blocks)
    }

    /// Append an operation to the trace without performing device I/O —
    /// for callers that deliberately skip materializing bytes but must
    /// keep the trace faithful. No-op when not tracing.
    pub fn trace_push(&self, op: IoOp) {
        if let Some(t) = self.trace.lock().as_mut() {
            t.push(op);
        }
    }

    /// Perform (and record) a write described by `op`. `data` must be
    /// exactly `op.blocks * block_size` bytes.
    ///
    /// Inside a capture window ([`Self::begin_capture`]) the write is
    /// buffered on its target disk instead of hitting the device; it lands
    /// at [`Self::end_capture`].
    pub fn write_op(&mut self, op: IoOp, data: &[u8]) -> Result<()> {
        debug_assert_eq!(data.len() as u64, op.blocks * self.block_size as u64);
        {
            let mut cap = self.capture.lock();
            if let Some(state) = cap.as_mut() {
                self.disk_ref(op.disk)?; // validate the disk index now
                state.pending[op.disk as usize].push((op.start, op.blocks, data.to_vec()));
                state.plan.push(op);
                return Ok(());
            }
        }
        self.disk_mut(op.disk)?.device.write(op.start, data)?;
        self.trace_push(op);
        Ok(())
    }

    /// Perform (and record) a read described by `op`. `buf` must be exactly
    /// `op.blocks * block_size` bytes.
    ///
    /// Takes `&self`: device reads are shareable and the trace append goes
    /// through the sink mutex, so concurrent queries need no exclusive
    /// access to the array.
    ///
    /// Inside a capture window the read still executes immediately, with
    /// any overlapping buffered writes overlaid on the result (a batch can
    /// read blocks it wrote moments earlier), and its trace entry is
    /// deferred into the capture plan so the recorded order matches a
    /// sequential run.
    pub fn read_op(&self, op: IoOp, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len() as u64, op.blocks * self.block_size as u64);
        let _stage = invidx_obs::trace::stage("disk");
        invidx_obs::trace::add_blocks(op.blocks);
        invidx_obs::trace::add_bytes(buf.len() as u64);
        {
            let mut cap = self.capture.lock();
            if let Some(state) = cap.as_mut() {
                self.disk_ref(op.disk)?.device.read(op.start, buf)?;
                overlay_pending(
                    &state.pending[op.disk as usize],
                    op.start,
                    op.blocks,
                    buf,
                    self.block_size,
                );
                state.plan.push(op);
                return Ok(());
            }
        }
        self.disk_ref(op.disk)?.device.read(op.start, buf)?;
        self.trace_push(op);
        Ok(())
    }

    /// Open a capture window: subsequent [`Self::write_op`]s are buffered
    /// per target disk and [`Self::read_op`]s overlay those buffers, while
    /// allocator calls ([`Self::alloc_on`], [`Self::free_on`],
    /// [`Self::next_disk`]) keep executing immediately in issue order. The
    /// window closes at [`Self::end_capture`], which applies each disk's
    /// buffered writes on its own worker thread. Because per-disk write
    /// order, allocator order, and the trace plan all preserve issue
    /// order, the resulting device bytes, free lists, and trace are
    /// byte-identical to executing the same operations sequentially.
    ///
    /// Untraced accesses ([`Self::read_untraced`], [`Self::write_untraced`])
    /// bypass the window — callers use them outside the measured batch.
    pub fn begin_capture(&mut self) {
        let n = self.disks.len();
        *self.capture.lock() =
            Some(CaptureState { plan: Vec::new(), pending: vec![Vec::new(); n] });
    }

    /// Close the capture window: execute each disk's buffered writes (in
    /// buffered order) across at most `threads` worker threads, then
    /// replay the captured op plan into the trace in issue order. Returns
    /// per-disk `(write_ops, blocks)` counts for instrumentation. A no-op
    /// returning empty counts when no window is open.
    pub fn end_capture(&mut self, threads: usize) -> Result<Vec<(u64, u64)>> {
        let state = self.capture.lock().take();
        let Some(CaptureState { plan, pending }) = state else {
            return Ok(Vec::new());
        };
        let per_disk: Vec<(u64, u64)> = pending
            .iter()
            .map(|w| (w.len() as u64, w.iter().map(|(_, b, _)| b).sum()))
            .collect();
        let mut work: Vec<(&mut Disk, PendingWrites)> =
            self.disks.iter_mut().zip(pending).collect();
        let groups = threads.clamp(1, work.len().max(1));
        let chunk = work.len().div_ceil(groups);
        let results: Vec<Result<()>> = std::thread::scope(|s| {
            let handles: Vec<_> = work
                .chunks_mut(chunk)
                .map(|group| {
                    s.spawn(move || -> Result<()> {
                        for (disk, writes) in group.iter_mut() {
                            for (start, _, data) in writes.drain(..) {
                                disk.device.write(start, &data)?;
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        drop(work);
        for r in results {
            r?;
        }
        for op in plan {
            self.trace_push(op);
        }
        Ok(per_disk)
    }

    /// Read without recording a trace operation (used for recovery-time
    /// loads that are not part of the measured update sequence).
    pub fn read_untraced(&self, disk: u16, start: u64, buf: &mut [u8]) -> Result<()> {
        self.disk_ref(disk)?.device.read(start, buf)
    }

    /// Write without recording a trace operation (superblock commits,
    /// checkpoint restores).
    pub fn write_untraced(&mut self, disk: u16, start: u64, data: &[u8]) -> Result<()> {
        self.disk_mut(disk)?.device.write(start, data)
    }

    /// Flush all devices.
    pub fn flush(&mut self) -> Result<()> {
        for d in &mut self.disks {
            d.device.flush()?;
        }
        Ok(())
    }

    /// Total free blocks across all disks.
    pub fn free_blocks(&self) -> u64 {
        self.disks.iter().map(|d| d.alloc.free_blocks()).sum()
    }

    /// Total blocks across all disks.
    pub fn total_blocks(&self) -> u64 {
        self.disks.iter().map(|d| d.alloc.total_blocks()).sum()
    }

    /// Per-disk `(free, total)` block counts.
    pub fn per_disk_usage(&self) -> Vec<(u64, u64)> {
        self.disks
            .iter()
            .map(|d| (d.alloc.free_blocks(), d.alloc.total_blocks()))
            .collect()
    }

    /// Access a disk's allocator (for inspection in tests/benches).
    pub fn allocator(&self, disk: u16) -> &dyn ExtentAllocator {
        &*self.disks[disk as usize].alloc
    }
}

/// Build a homogeneous array of `n` sparse in-memory disks with first-fit
/// free lists — the standard configuration for experiments.
pub fn sparse_array(n: u16, blocks_per_disk: u64, block_size: usize) -> DiskArray {
    use crate::block::SparseDevice;
    use crate::freelist::{FitStrategy, FreeList};
    let disks = (0..n)
        .map(|_| Disk {
            device: Box::new(SparseDevice::new(blocks_per_disk, block_size)) as Box<dyn BlockDevice>,
            alloc: Box::new(FreeList::new(blocks_per_disk, FitStrategy::FirstFit))
                as Box<dyn ExtentAllocator>,
        })
        .collect();
    DiskArray::new(disks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OpKind, Payload};

    #[test]
    fn round_robin_cycles() {
        let mut a = sparse_array(3, 100, 64);
        assert_eq!(a.next_disk(), 1);
        assert_eq!(a.next_disk(), 2);
        assert_eq!(a.next_disk(), 0);
        assert_eq!(a.next_disk(), 1);
    }

    #[test]
    fn alloc_write_read_round_trip() {
        let mut a = sparse_array(2, 100, 64);
        let start = a.alloc_on(1, 2).unwrap();
        let data: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let op = IoOp {
            kind: OpKind::Write,
            disk: 1,
            start,
            blocks: 2,
            payload: Payload::LongList { word: 7, postings: 32 },
        };
        a.write_op(op, &data).unwrap();
        let mut buf = vec![0u8; 128];
        let rop = IoOp { kind: OpKind::Read, ..op };
        a.read_op(rop, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn trace_records_in_order_with_batches() {
        let mut a = sparse_array(1, 100, 64);
        a.start_trace();
        let data = vec![0u8; 64];
        for i in 0..3 {
            let op = IoOp {
                kind: OpKind::Write,
                disk: 0,
                start: i,
                blocks: 1,
                payload: Payload::Bucket,
            };
            a.write_op(op, &data).unwrap();
        }
        a.end_batch();
        let t = a.take_trace();
        assert_eq!(t.batches(), 1);
        assert_eq!(t.batch_ops(0).len(), 3);
    }

    #[test]
    fn untraced_io_not_recorded() {
        let mut a = sparse_array(1, 100, 64);
        a.start_trace();
        a.write_untraced(0, 0, &[1u8; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        a.read_untraced(0, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        assert!(a.take_trace().ops.is_empty());
    }

    #[test]
    fn free_blocks_aggregates() {
        let mut a = sparse_array(2, 100, 64);
        assert_eq!(a.free_blocks(), 200);
        a.alloc_on(0, 10).unwrap();
        assert_eq!(a.free_blocks(), 190);
        assert_eq!(a.per_disk_usage(), vec![(90, 100), (100, 100)]);
    }

    #[test]
    fn cursor_reports_last_choice_and_flush_succeeds() {
        let mut a = sparse_array(4, 100, 64);
        assert_eq!(a.cursor(), 0);
        a.next_disk();
        a.next_disk();
        assert_eq!(a.cursor(), 2);
        a.flush().unwrap();
        assert_eq!(a.total_blocks(), 400);
    }

    #[test]
    fn capture_defers_writes_and_overlays_reads() {
        let mut a = sparse_array(2, 100, 64);
        a.start_trace();
        let wop = |disk, start| IoOp {
            kind: OpKind::Write,
            disk,
            start,
            blocks: 1,
            payload: Payload::Bucket,
        };
        a.begin_capture();
        a.write_op(wop(0, 3), &[7u8; 64]).unwrap();
        a.write_op(wop(1, 5), &[9u8; 64]).unwrap();
        // Device untouched while captured...
        let mut buf = vec![0u8; 64];
        a.read_untraced(0, 3, &mut buf).unwrap();
        assert_eq!(buf[0], 0);
        // ...but a capture-mode read sees the buffered bytes.
        let rop = IoOp { kind: OpKind::Read, ..wop(0, 3) };
        a.read_op(rop, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 64]);
        let per_disk = a.end_capture(4).unwrap();
        assert_eq!(per_disk, vec![(1, 1), (1, 1)]);
        a.read_untraced(0, 3, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 64]);
        a.read_untraced(1, 5, &mut buf).unwrap();
        assert_eq!(buf, vec![9u8; 64]);
        // Trace preserves issue order: write, write, read.
        let t = a.take_trace();
        assert_eq!(t.ops.len(), 3);
        assert_eq!((t.ops[0].kind, t.ops[0].disk), (OpKind::Write, 0));
        assert_eq!((t.ops[1].kind, t.ops[1].disk), (OpKind::Write, 1));
        assert_eq!((t.ops[2].kind, t.ops[2].disk), (OpKind::Read, 0));
    }

    #[test]
    fn capture_overlapping_writes_keep_issue_order() {
        let mut a = sparse_array(1, 100, 64);
        let wop = |start, blocks| IoOp {
            kind: OpKind::Write,
            disk: 0,
            start,
            blocks,
            payload: Payload::Bucket,
        };
        a.begin_capture();
        a.write_op(wop(2, 2), &[1u8; 128]).unwrap();
        a.write_op(wop(3, 1), &[2u8; 64]).unwrap();
        // A partial-overlap read: block 2 from the first write, block 3
        // from the second (later write wins).
        let mut buf = vec![0u8; 128];
        a.read_op(IoOp { kind: OpKind::Read, ..wop(2, 2) }, &mut buf).unwrap();
        assert_eq!(&buf[..64], &[1u8; 64][..]);
        assert_eq!(&buf[64..], &[2u8; 64][..]);
        a.end_capture(1).unwrap();
        let mut out = vec![0u8; 128];
        a.read_untraced(0, 2, &mut out).unwrap();
        assert_eq!(out, buf);
    }

    #[test]
    fn end_capture_without_window_is_a_noop() {
        let mut a = sparse_array(1, 100, 64);
        assert!(a.end_capture(8).unwrap().is_empty());
    }

    #[test]
    fn bad_disk_rejected() {
        let mut a = sparse_array(1, 100, 64);
        assert!(a.alloc_on(3, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn empty_array_rejected() {
        DiskArray::new(vec![]);
    }
}
