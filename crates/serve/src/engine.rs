//! The writer-side engine contract the serving layer sits on.
//!
//! [`ServeEngine`] is what [`crate::QueryService`]'s single writer needs
//! from an engine: add documents, flush, checkpoint, ship or apply WAL
//! records, and materialize the next [`EngineSnapshot`]. It has no read
//! methods — every served query runs `EngineSnapshot::execute` on the
//! published snapshot and never touches the live engine. The repo's one
//! engine, [`DurableEngine`], implements it; it stays a trait so tests can
//! substitute fakes. What the log-related methods answer for an engine
//! built without a log is decided below the engine
//! ([`invidx_durable::DurableIndex`]) and passed through here.

use invidx_core::index::BatchReport;
use invidx_core::types::DocId;
use invidx_durable::{DurableIndex, WalRecord};
use invidx_ir::{DurableEngine, EngineSnapshot};

/// Updates on `&mut self`, snapshots out — the contract that lets
/// [`crate::QueryService`] serialize writers while serving reads from
/// published copy-on-write snapshots.
pub trait ServeEngine: Send + Sync + 'static {
    /// Add a document to the current batch (not yet visible as a flushed
    /// epoch; the serving writer always pairs adds with a flush).
    fn add_document(&mut self, text: &str) -> std::result::Result<DocId, String>;
    /// Flush the current batch; the serving layer bumps the epoch on
    /// success.
    fn flush(&mut self) -> std::result::Result<BatchReport, String>;
    /// Write a durable checkpoint, if this engine has one. Returns
    /// `Ok(None)` for engines without durability; `Ok(Some(bytes))` with
    /// the checkpoint size otherwise.
    fn checkpoint(&mut self) -> std::result::Result<Option<u64>, String> {
        Ok(None)
    }

    /// Bytes of write-ahead log not yet folded into a checkpoint — the
    /// replay debt a crash would incur. `None` for volatile engines; the
    /// telemetry layer publishes it as the WAL-lag gauge.
    fn wal_bytes(&self) -> Option<u64> {
        None
    }

    /// Committed batches (0 for engines without a durable batch counter).
    /// Anchors serving epochs to persistent state: a service constructed
    /// with [`crate::QueryService::with_config_at`] over this value keeps
    /// epochs comparable across restarts and replicas, which is what
    /// replication lag (primary epoch − replica epoch) is measured in.
    fn batches(&self) -> u64 {
        0
    }

    /// Committed WAL records after `from_batch` — the primary half of WAL
    /// shipping. `Err` for engines without a WAL.
    fn wal_records_from(&self, from_batch: u64) -> std::result::Result<Vec<WalRecord>, String> {
        let _ = from_batch;
        Err("engine has no write-ahead log".into())
    }

    /// Apply one shipped WAL record (the replica half of WAL shipping);
    /// returns the new committed batch count. `Err` for engines without a
    /// WAL.
    fn apply_replicated(&mut self, record: &WalRecord) -> std::result::Result<u64, String> {
        let _ = record;
        Err("engine has no write-ahead log".into())
    }

    /// Materialize an immutable point-in-time view of the engine for the
    /// lock-free read path. The serving writer calls this at every commit
    /// point, passing the previously published view so unchanged posting
    /// lists and texts are shared rather than re-read.
    fn snapshot(
        &mut self,
        prev: Option<&EngineSnapshot>,
    ) -> std::result::Result<EngineSnapshot, String>;

    /// Documents indexed so far.
    fn total_docs(&self) -> u64;
    /// Distinct words interned so far.
    fn vocabulary_size(&self) -> usize;
}

/// The engine's index if it keeps a log — the index's own answer
/// ([`DurableIndex::last_checkpoint_batch`] is `None` without one), so the
/// log-related methods below report "no durability" for a log-less engine
/// exactly as the trait's defaults do.
fn logged(engine: &DurableEngine) -> Option<&DurableIndex> {
    engine.index().last_checkpoint_batch().map(|_| engine.index())
}

impl ServeEngine for DurableEngine {
    fn add_document(&mut self, text: &str) -> std::result::Result<DocId, String> {
        DurableEngine::add_document(self, text).map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> std::result::Result<BatchReport, String> {
        DurableEngine::flush(self).map_err(|e| e.to_string())
    }

    fn checkpoint(&mut self) -> std::result::Result<Option<u64>, String> {
        let bytes = DurableEngine::checkpoint(self).map_err(|e| e.to_string())?;
        Ok(logged(self).map(|_| bytes))
    }

    fn wal_bytes(&self) -> Option<u64> {
        logged(self).map(DurableIndex::wal_size)
    }

    fn batches(&self) -> u64 {
        logged(self).map_or(0, DurableIndex::batches)
    }

    fn wal_records_from(&self, from_batch: u64) -> std::result::Result<Vec<WalRecord>, String> {
        DurableEngine::wal_records_from(self, from_batch).map_err(|e| e.to_string())
    }

    fn apply_replicated(&mut self, record: &WalRecord) -> std::result::Result<u64, String> {
        DurableEngine::apply_replicated(self, record).map_err(|e| e.to_string())
    }

    fn snapshot(
        &mut self,
        prev: Option<&EngineSnapshot>,
    ) -> std::result::Result<EngineSnapshot, String> {
        DurableEngine::snapshot(self, prev).map_err(|e| e.to_string())
    }

    fn total_docs(&self) -> u64 {
        DurableEngine::total_docs(self)
    }

    fn vocabulary_size(&self) -> usize {
        DurableEngine::vocabulary_size(self)
    }
}
