//! The real stack the benchmark drives — `DurableEngine` under
//! `QueryService` — in the two storage configurations, plus the process
//! and directory accounting the metrics read.

use invidx_core::index::{EngineKind, IndexConfig};
use invidx_core::PostingsCodec;
use invidx_durable::{DurableOptions, StoreGeometry};
use invidx_ir::DurableEngine;
use invidx_serve::{QueryService, ServeConfig};
use std::path::Path;

pub type Service = QueryService<DurableEngine>;

/// 2 disks x 1 M blocks x 1 KiB (sparse device files).
pub const GEOMETRY: StoreGeometry = StoreGeometry {
    disks: 2,
    blocks_per_disk: 1_000_000,
    block_size: 1024,
};

/// The flush policy every run uses, stated in the output: real WAL,
/// fsync at each commit, checkpoint every 8 batches.
pub fn durable_options() -> DurableOptions {
    DurableOptions::default()
}

/// The two storage configurations the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// `EngineKind::InPlace` + `PostingsCodec::VarintDelta`.
    InplaceVarint,
    /// `EngineKind::Segmented { 1 MiB, 4 }` + `PostingsCodec::Plain`
    /// (segmented + a compressed codec fails reopen: see the matrix probe).
    SegmentedPlain,
}

impl Storage {
    pub fn name(self) -> &'static str {
        match self {
            Storage::InplaceVarint => "inplace_varint",
            Storage::SegmentedPlain => "segmented_plain",
        }
    }

    /// Reopening a store whose WAL holds batches past the last checkpoint
    /// fails under a compressed codec (`Corruption("coding blocks overrun
    /// the expected N postings")`: replay appends to compressed long
    /// lists; see the reopen matrix). Workloads on such a store checkpoint
    /// before they drop the engine — a clean shutdown — so that no
    /// operation of theirs fails; only `Plain` stores recover by replay.
    pub fn clean_shutdown_only(self) -> bool {
        self.index_config().codec.is_compressed()
    }

    pub fn index_config(self) -> IndexConfig {
        let (engine, codec) = match self {
            Storage::InplaceVarint => (EngineKind::InPlace, PostingsCodec::VarintDelta),
            Storage::SegmentedPlain => (
                EngineKind::Segmented {
                    l0_budget: 1 << 20,
                    fanout: 4,
                },
                PostingsCodec::Plain,
            ),
        };
        index_config(engine, codec)
    }
}

/// The CLI's default index shape with the given engine kind and codec.
pub fn index_config(engine: EngineKind, codec: PostingsCodec) -> IndexConfig {
    IndexConfig::builder()
        .num_buckets(512)
        .bucket_capacity_units(400)
        .block_postings(50)
        .engine(engine)
        .postings_codec(codec)
        .build()
        .expect("the CLI default index shape is valid")
}

pub fn create_engine(dir: &Path, config: IndexConfig) -> Result<DurableEngine, String> {
    DurableEngine::create(dir, config, GEOMETRY, durable_options()).map_err(|e| e.to_string())
}

pub fn open_engine(dir: &Path, config: IndexConfig) -> Result<DurableEngine, String> {
    DurableEngine::open(dir, config, durable_options()).map_err(|e| e.to_string())
}

/// Serving configuration: one reader thread (the machine has two cores:
/// one for the writer, one for the client), result cache on at its
/// default size or off.
pub fn serve_config(result_cache: bool) -> ServeConfig {
    let builder = ServeConfig::builder().readers(1);
    let builder = if result_cache {
        builder
    } else {
        builder.result_cache_capacity(0)
    };
    builder.build().expect("a valid serve configuration")
}

/// Wrap an engine for serving with the epoch anchored at its committed
/// batch count, so a response's epoch names the batches it reflects.
pub fn service(engine: DurableEngine, config: ServeConfig) -> Result<Service, String> {
    let epoch = engine.index().batches();
    QueryService::with_config_at(engine, config, epoch).map_err(|e| e.to_string())
}

/// Bytes the store occupies: device blocks allocated by the engine's own
/// accounting (the device files are sparse, so their length says nothing)
/// plus the WAL, checkpoint and manifest files as they are on disk.
pub fn stored_bytes(engine: &DurableEngine, dir: &Path) -> u64 {
    allocated_device_bytes(engine) + side_file_bytes(dir)
}

pub fn allocated_device_bytes(engine: &DurableEngine) -> u64 {
    let array = engine.index().inner().array();
    (array.total_blocks() - array.free_blocks()) * array.block_size() as u64
}

/// Total length of the non-device files in a store directory.
fn side_file_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| !e.file_name().to_string_lossy().starts_with("disk"))
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Process-level readings from `/proc/self`.
pub mod proc {
    fn field_kb(status: &str, key: &str) -> Option<u64> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn rss_peak_mb() -> f64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        field_kb(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0
    }

    /// Bytes this process has handed to write-like system calls (`wchar`).
    pub fn write_bytes() -> u64 {
        let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        field_kb(&io, "wchar:").unwrap_or(0)
    }

    /// User + system CPU seconds of the whole process (all threads).
    pub fn cpu_seconds() -> f64 {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the line, in clock ticks (100 Hz on Linux).
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let f: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        (ticks(11) + ticks(12)) as f64 / 100.0
    }

    /// Involuntary context switches summed over the live threads.
    pub fn involuntary_switches() -> u64 {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return 0;
        };
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
            .filter_map(|s| field_kb(&s, "nonvoluntary_ctxt_switches:"))
            .sum()
    }
}
