//! The well-known metric names of the index pipeline, in one place so
//! instrumentation sites, sinks, and report consumers agree on them.
//!
//! Naming follows Prometheus conventions: `_total` for counters, a unit
//! suffix (`_ms`, `_blocks`) for histograms, labels embedded in the full
//! name (`disk_ops_total{disk="3"}`).

/// Batches flushed by `DualIndex::flush_batch`.
pub const CORE_FLUSH_BATCHES: &str = "core_flush_batches_total";
/// Posting lists fed into the in-memory index.
pub const CORE_MEM_LISTS: &str = "core_mem_lists_total";
/// Postings fed into the in-memory index.
pub const CORE_MEM_POSTINGS: &str = "core_mem_postings_total";
/// Bucket inserts that overflowed (evicted at least one list).
pub const CORE_BUCKET_OVERFLOWS: &str = "core_bucket_overflows_total";
/// Short lists migrated to long lists (eviction victims).
pub const CORE_MIGRATIONS: &str = "core_short_to_long_migrations_total";
/// Deletion sweeps performed.
pub const CORE_SWEEPS: &str = "core_sweeps_total";
/// Compaction passes performed.
pub const CORE_COMPACTIONS: &str = "core_compactions_total";
/// Bucket-space rebalances performed.
pub const CORE_REBALANCES: &str = "core_rebalances_total";
/// L0 resets performed after sealing into a segment.
pub const CORE_SEAL_RESETS: &str = "core_seal_resets_total";

/// Segments sealed from L0 contents.
pub const SEGMENT_SEALS: &str = "segment_seals_total";
/// Tiered merges performed by the compaction scheduler.
pub const SEGMENT_MERGES: &str = "segment_merges_total";
/// Device bytes written into sealed segments (seals + merges) — the
/// numerator of write amplification.
pub const SEGMENT_BYTES_WRITTEN: &str = "segment_bytes_written_total";
/// Segment chunk reads issued by the segmented read path.
pub const SEGMENT_READ_OPS: &str = "segment_read_ops_total";
/// Live segments across all levels (gauge).
pub const SEGMENT_LIVE: &str = "segment_live";
/// Manifest generations committed.
pub const SEGMENT_MANIFEST_COMMITS: &str = "segment_manifest_commits_total";
/// Merges deferred by the rate limiter (picked up on a later tick).
pub const SEGMENT_MERGE_DEFERRALS: &str = "segment_merge_deferrals_total";
/// Interrupted seals/merges rolled forward by recovery.
pub const SEGMENT_ROLLFORWARDS: &str = "segment_rollforwards_total";

/// Fresh long-list chunks allocated and written.
pub const LONG_CHUNK_ALLOCS: &str = "long_chunk_allocs_total";
/// Long lists rewritten to a new location (whole-style rewrites and
/// compaction), releasing their old chunks.
pub const LONG_CHUNK_RELOCATIONS: &str = "long_chunk_relocations_total";
/// In-place updates of a long list's last chunk.
pub const LONG_IN_PLACE_UPDATES: &str = "long_in_place_updates_total";
/// Chunk read operations issued by long-list reads.
pub const LONG_READ_OPS: &str = "long_read_ops_total";
/// Raw (uncompressed, 4 bytes/posting) size of postings written to
/// long-list storage. With [`POSTINGS_BYTES_STORED`] this exposes the
/// live compression ratio per scrape.
pub const POSTINGS_BYTES_RAW: &str = "postings_bytes_raw_total";
/// Encoded size of postings written to long-list storage (equals
/// [`POSTINGS_BYTES_RAW`] under the plain codec).
pub const POSTINGS_BYTES_STORED: &str = "postings_bytes_stored_total";

/// Batches applied through the parallel (captured per-disk) ingest path.
pub const INGEST_PARALLEL_BATCHES: &str = "ingest_parallel_batches_total";
/// Captured long-list writes executed per disk during parallel apply.
pub const INGEST_APPLY_WRITES: &str = "ingest_apply_writes_total";
/// Blocks written per disk during parallel apply.
pub const INGEST_APPLY_BLOCKS: &str = "ingest_apply_blocks_total";
/// Batches inverted by the sharded parallel inverter.
pub const INGEST_INVERT_BATCHES: &str = "ingest_invert_batches_total";
/// Postings accumulated per word shard by the parallel inverter.
pub const INGEST_SHARD_POSTINGS: &str = "ingest_shard_postings_total";
/// Documents lexed by the parallel tokenization pool.
pub const INGEST_LEXED_DOCS: &str = "ingest_lexed_docs_total";

/// Extent allocations served by a free list.
pub const FREELIST_ALLOCS: &str = "freelist_allocs_total";
/// Extents returned to a free list.
pub const FREELIST_FREES: &str = "freelist_frees_total";
/// Neighbour merges performed while freeing (0–2 per free).
pub const FREELIST_COALESCES: &str = "freelist_coalesces_total";
/// Extents examined per allocation scan (histogram).
pub const FREELIST_SCAN_LEN: &str = "freelist_scan_len";
/// Free-extent count observed at each allocation (histogram).
pub const FREELIST_FRAGMENTS: &str = "freelist_fragments";

/// Physical requests served, labelled per disk.
pub const DISK_OPS: &str = "disk_ops_total";
/// Blocks transferred, labelled per disk.
pub const DISK_BLOCKS: &str = "disk_blocks_total";
/// Seek distance in blocks per positioning request (histogram).
pub const DISK_SEEK_DISTANCE: &str = "disk_seek_distance_blocks";
/// Per-request service time in milliseconds, labelled per disk
/// (histogram).
pub const DISK_SERVICE_MS: &str = "disk_service_time_ms";
/// Per-batch queue imbalance: busiest-disk time over mean disk time
/// (histogram; 1.0 = perfectly balanced).
pub const DISK_QUEUE_IMBALANCE: &str = "disk_queue_imbalance_ratio";

/// WAL records appended (one per committed batch/sweep/compact/rebalance).
pub const WAL_APPENDS: &str = "wal_appends_total";
/// Bytes appended to the write-ahead log.
pub const WAL_BYTES: &str = "wal_bytes_total";
/// fsync calls issued on the write-ahead log.
pub const WAL_FSYNCS: &str = "wal_fsyncs_total";
/// Checkpoint snapshots committed (atomic renames).
pub const CHECKPOINT_WRITES: &str = "checkpoint_writes_total";
/// Bytes written per checkpoint snapshot.
pub const CHECKPOINT_BYTES: &str = "checkpoint_bytes_total";
/// WAL records replayed during recovery.
pub const RECOVERY_REPLAYED_RECORDS: &str = "recovery_replayed_records_total";
/// Torn/corrupt WAL tail bytes truncated during recovery.
pub const RECOVERY_TRUNCATED_BYTES: &str = "recovery_truncated_bytes_total";
/// Recovery runs that found and used a checkpoint.
pub const RECOVERY_OPENS: &str = "recovery_opens_total";

/// Queries executed by the serving layer (cache hits included).
pub const SERVE_QUERIES: &str = "serve_queries_total";
/// Result-cache lookups that returned a current-epoch entry.
pub const SERVE_CACHE_HITS: &str = "serve_cache_hits_total";
/// Result-cache lookups that missed (absent entry).
pub const SERVE_CACHE_MISSES: &str = "serve_cache_misses_total";
/// Result-cache entries lazily discarded because their epoch was stale.
pub const SERVE_CACHE_STALE_DROPS: &str = "serve_cache_stale_drops_total";
/// Requests rejected at admission because the queue passed its high-water
/// mark.
pub const SERVE_SHED: &str = "serve_shed_total";
/// Requests that expired in the queue past their deadline.
pub const SERVE_TIMEOUTS: &str = "serve_timeouts_total";
/// Batches ingested (added + flushed) by the serving writer.
pub const SERVE_BATCHES: &str = "serve_batches_total";
/// End-to-end request latency in milliseconds (queue wait + execution;
/// histogram).
pub const SERVE_LATENCY_MS: &str = "serve_latency_ms";
/// Requests currently admitted and waiting in the work queue (gauge;
/// incremented on admission, decremented on every exit path).
pub const SERVE_QUEUE_DEPTH: &str = "serve_queue_depth";
/// Time spent waiting in the admission queue, milliseconds (histogram).
pub const SERVE_QUEUE_WAIT_MS: &str = "serve_queue_wait_ms";
/// Requests whose end-to-end latency crossed the slow-query threshold,
/// plus every shed/timed-out request (always logged).
pub const SERVE_SLOW_QUERIES: &str = "serve_slow_queries_total";
/// Requests sampled for tracing (each produces a span tree on the event
/// stream).
pub const SERVE_TRACES: &str = "serve_traces_total";
/// Live p50 latency over the sliding window, microseconds (gauge).
pub const SERVE_P50_US: &str = "serve_latency_p50_us";
/// Live p95 latency over the sliding window, microseconds (gauge).
pub const SERVE_P95_US: &str = "serve_latency_p95_us";
/// Live p99 latency over the sliding window, microseconds (gauge).
pub const SERVE_P99_US: &str = "serve_latency_p99_us";
/// Current index epoch as seen by the serving layer (gauge).
pub const SERVE_EPOCH: &str = "serve_epoch";
/// Metric scrapes that could not refresh writer-owned gauges (the writer
/// held its lock); the last-known values were re-published instead, so
/// dashboards can tell "no WAL growth" from "scrape skipped".
pub const SERVE_GAUGE_SCRAPE_SKIPPED: &str = "serve_gauge_scrape_skipped_total";
/// Snapshot publications deferred because materialization failed after a
/// durable commit (both the incremental and the full-rebuild attempt).
/// The epoch still advances with the commit; readers keep serving the
/// previous snapshot until the next successful publication.
pub const SERVE_PUBLISH_DEFERRED: &str = "serve_publish_deferred_total";
/// Committed batches not yet visible to readers: current epoch minus the
/// published snapshot's epoch (gauge; nonzero only while a deferred
/// publication is pending).
pub const SERVE_PUBLISH_LAG: &str = "serve_publish_lag_batches";

/// Requests accounted against the SLO (served, shed, or reaped).
pub const SLO_REQUESTS: &str = "slo_requests_total";
/// Requests that violated the SLO (missed the latency target, shed, or
/// reaped).
pub const SLO_VIOLATIONS: &str = "slo_violations_total";
/// Error budget remaining, ppm of the budget (gauge; 1e6 = untouched,
/// 0 = exhausted, negative = overspent).
pub const SLO_BUDGET_REMAINING_PPM: &str = "slo_error_budget_remaining_ppm";
/// Error-budget burn rate ×1000 (gauge; 1000 = exactly sustainable).
pub const SLO_BURN_RATE_X1000: &str = "slo_burn_rate_x1000";

/// Bytes of write-ahead log not yet folded into a checkpoint (gauge);
/// the replay debt a crash would incur — "WAL lag".
pub const INDEX_WAL_BYTES: &str = "index_wal_bytes";

/// Client requests admitted by the scatter-gather router (its own
/// admission, distinct from the per-shard `serve_*` counters it fans out
/// to — keep the namespaces disjoint or aggregation double-counts).
pub const ROUTER_QUERIES: &str = "router_queries_total";
/// Documents routed to a shard by the router's single writer.
pub const ROUTER_INGESTED_DOCS: &str = "router_ingested_docs_total";
/// Per-shard request failures observed by the router (timeouts and
/// transport errors; label with [`per_shard`]).
pub const ROUTER_SHARD_ERRORS: &str = "router_shard_errors_total";
/// Failover retries: a shard read re-sent to another replica after a
/// failure or deadline miss.
pub const ROUTER_RETRIES: &str = "router_retries_total";
/// Hedged reads: duplicate shard requests launched because the first
/// exceeded the hedge threshold.
pub const ROUTER_HEDGES: &str = "router_hedges_total";
/// Per-shard fan-out latency in milliseconds (histogram; label with
/// [`per_shard`]).
pub const ROUTER_SHARD_LATENCY_MS: &str = "router_shard_latency_ms";
/// Committed epoch per shard as observed by the router (gauge; label with
/// [`per_shard`]).
pub const ROUTER_SHARD_EPOCH: &str = "router_shard_epoch";

/// WAL records applied by a tailing replica.
pub const REPLICA_APPLIED_RECORDS: &str = "replica_applied_records_total";
/// Replication lag in batches: primary epoch minus replica epoch (gauge;
/// label with [`per_shard`]).
pub const REPLICA_LAG_BATCHES: &str = "replica_lag_batches";
/// Tail polls that failed (connection refused, torn reply); the tailer
/// backs off and retries.
pub const REPLICA_POLL_ERRORS: &str = "replica_poll_errors_total";

/// Attach a `disk` label to a base metric name.
pub fn per_disk(base: &str, disk: u16) -> String {
    format!("{base}{{disk=\"{disk}\"}}")
}

/// Attach a `shard` label to a base metric name.
pub fn per_shard(base: &str, shard: usize) -> String {
    format!("{base}{{shard=\"{shard}\"}}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn per_disk_labels() {
        assert_eq!(super::per_disk(super::DISK_OPS, 3), "disk_ops_total{disk=\"3\"}");
    }

    #[test]
    fn per_shard_labels() {
        assert_eq!(
            super::per_shard(super::INGEST_SHARD_POSTINGS, 2),
            "ingest_shard_postings_total{shard=\"2\"}"
        );
    }
}
