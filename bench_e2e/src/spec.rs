//! The benchmark's fixed vocabulary: the four workloads, and the metric
//! names, units, directions and bounds that `BENCHMARK.json` publishes
//! (a unit test keeps the two in step).

use crate::corpus::Mix;
use crate::stack::Storage;
use std::time::Duration;

/// `run_seconds` of `BENCHMARK.json`: operation counts below are sized
/// so the measured phases of one run take about this long on two cores;
/// `--seconds` scales them linearly from here.
pub const RUN_SECONDS: u64 = 14;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Drop -> open -> service -> first-answer cycles; `recover_s` is their median.
pub const RECOVER_CYCLES: usize = 7;
/// One Boolean/Doc answer in this many is checked against the model.
pub const CHECK_EVERY: usize = 16;
/// Distinct requests in the `serve_mixed` pool: 4x the result cache.
pub const POOL_REQUESTS: usize = 4096;

/// One workload: a configuration of the single scenario
/// set-up -> write phase -> per-verb read phase -> recover.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub storage: Storage,
    /// Documents loaded during set-up, in 500-document batches.
    pub preload_docs: usize,
    pub write_batches: usize,
    pub docs_per_batch: usize,
    /// `Some(interval)`: the writer starts one batch per interval while one
    /// client streams Zipf draws from a request pool over a persistent TCP
    /// connection to `invidx_serve::Server`, result cache on (reads beside
    /// writes). `None`: closed-loop writer, result cache off, reads follow.
    pub paced_stream: Option<Duration>,
    /// The per-verb read list replayed each round.
    pub mix: Mix,
    /// Timed rounds (one untimed warm-up round precedes them).
    pub rounds: usize,
}

/// Sample floors per round: a p50 needs >= 200 samples of its verb, and
/// the round as a whole holds 10 000 requests so its p99 has 100 beyond.
const FLOOR_MIX: Mix = Mix {
    bool_: 6000,
    rank: 400,
    like: 200,
    doc: 3100,
    phrase: 200,
    near: 100,
};
const FOCUS_MIX: Mix = Mix {
    bool_: 18_000,
    rank: 1800,
    like: 600,
    doc: 9000,
    phrase: 400,
    near: 200,
};

pub fn specs() -> [Spec; 4] {
    [
        Spec {
            name: "bulk_load",
            why: "large batches into an empty in-place index: lexing, inversion and apply do the work, per-batch fsync and publish are amortised",
            storage: Storage::InplaceVarint,
            preload_docs: 0,
            write_batches: 64,
            docs_per_batch: 160,
            paced_stream: None,
            mix: FLOOR_MIX,
            rounds: 9,
        },
        Spec {
            name: "trickle_update",
            why: "8-document batches into a loaded segmented index: per-batch fsync, checkpoint and snapshot publish dominate; seals show in the tail",
            storage: Storage::SegmentedPlain,
            preload_docs: 3000,
            write_batches: 200,
            docs_per_batch: 8,
            paced_stream: None,
            mix: FLOOR_MIX,
            rounds: 9,
        },
        Spec {
            name: "query_mix",
            why: "read-mostly, result cache off, in-process: every query reaches EngineSnapshot::execute, so the ir read path does the work",
            storage: Storage::InplaceVarint,
            preload_docs: 4000,
            write_batches: 64,
            docs_per_batch: 8,
            paced_stream: None,
            mix: FOCUS_MIX,
            rounds: 7,
        },
        Spec {
            name: "serve_mixed",
            why: "paced writes beside a closed-loop TCP client with the result cache on: parse, admission, cache invalidation, rendering and the wire do real work",
            storage: Storage::InplaceVarint,
            preload_docs: 2000,
            write_batches: 120,
            docs_per_batch: 8,
            paced_stream: Some(Duration::from_millis(100)),
            mix: FLOOR_MIX,
            rounds: 9,
        },
    ]
}

impl Spec {
    /// Scale the operation counts by `factor` (`--seconds / RUN_SECONDS`,
    /// or the `--quick` factor). Batch and document sizes, pacing and
    /// configuration never change, so code paths stay the same.
    pub fn scaled(&self, factor: f64) -> Spec {
        let n = |x: usize, floor: usize| ((x as f64 * factor).round() as usize).max(floor);
        Spec {
            preload_docs: if self.preload_docs == 0 {
                0
            } else {
                n(self.preload_docs, 500)
            },
            write_batches: n(self.write_batches, 8),
            mix: self.mix.scaled(factor, 20),
            ..self.clone()
        }
    }

    pub fn total_docs(&self) -> usize {
        self.preload_docs + self.write_batches * self.docs_per_batch
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (the driver's contract asks
/// for a uniform set), so every workload runs every phase.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ingest_docs_per_s", "1/s", Better::Higher, 0.25),
    e2e("batch_visible_ms_p50", "ms", Better::Lower, 0.25),
    e2e("batch_visible_ms_p95", "ms", Better::Lower, 0.25),
    e2e("query_qps", "1/s", Better::Higher, 0.25),
    e2e("bool_ms_p50", "ms", Better::Lower, 0.25),
    e2e("rank_ms_p50", "ms", Better::Lower, 0.25),
    e2e("like_ms_p50", "ms", Better::Lower, 0.25),
    e2e("phrase_ms_p50", "ms", Better::Lower, 0.25),
    e2e("query_ms_p99", "ms", Better::Lower, 0.25),
    e2e("recover_s", "s", Better::Lower, 0.25),
    e2e("rss_peak_mb", "MB", Better::Lower, 0.15),
    e2e("stored_bytes_per_text_byte", "B/B", Better::Lower, 0.05),
    e2e("written_bytes_per_text_byte", "B/B", Better::Lower, 0.05),
];

/// Per-layer metrics `(name, unit)`, printed by `--trace 1`. No bounds.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ok_share", "share"),
    ("corpus.lex_ms_per_kdoc", "ms"),
    ("core.invert_ms_per_kdoc", "ms"),
    ("ir.add_ms_per_kdoc", "ms"),
    ("ir.flush_ms_p50", "ms"),
    ("ir.flush_ms_p95", "ms"),
    ("ir.snapshot_incr_ms_p50", "ms"),
    ("ir.snapshot_incr_ms_p95", "ms"),
    ("ir.snapshot_drop_ms_p50", "ms"),
    ("ir.snapshot_full_ms", "ms"),
    ("durable.wal_bytes_per_batch", "B"),
    ("durable.wal_fsyncs_per_batch", "count"),
    ("durable.wal_append_fsync_ms_p50", "ms"),
    ("durable.checkpoints", "count"),
    ("durable.checkpoint_bytes", "B"),
    ("durable.checkpoint_ms_p50", "ms"),
    ("durable.open_ms", "ms"),
    ("durable.replayed_records", "count"),
    ("durable.reopen_matrix_ok_share", "share"),
    ("disk.write_ops_per_batch", "count"),
    ("disk.write_blocks_per_batch", "count"),
    ("disk.read_ops_per_batch", "count"),
    ("disk.allocated_bytes", "B"),
    ("disk.model_ms_per_batch", "ms"),
    ("core.long.relocations", "count"),
    ("core.long.in_place_updates", "count"),
    ("core.bucket_overflows", "count"),
    ("core.codec.stored_ratio", "B/B"),
    ("core.codec.encode_ns_per_posting", "ns"),
    ("core.codec.decode_ns_per_posting", "ns"),
    ("segment.seals", "count"),
    ("segment.merges", "count"),
    ("segment.bytes_written", "B"),
    ("segment.write_amp", "B/B"),
    ("segment.live_segments", "count"),
    ("trickle.batch_visible_ms_max", "ms"),
    ("ir.exec_us_mean.bool", "us"),
    ("ir.exec_us_mean.rank", "us"),
    ("ir.exec_us_mean.like", "us"),
    ("ir.exec_us_mean.phrase", "us"),
    ("ir.exec_us_mean.near", "us"),
    ("ir.exec_us_mean.doc", "us"),
    ("ir.exec_us_p99.bool", "us"),
    ("ir.exec_us_p99.rank", "us"),
    ("ir.phrase_candidates_mean", "count"),
    ("ir.phrase_hits_per_candidate", "share"),
    ("serve.execute_overhead_us", "us"),
    ("serve.cache.hit_share", "share"),
    ("serve.cache.stale_drops", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.request_parse_us", "us"),
    ("serve.response_render_us", "us"),
    ("serve.frontend_overhead_us", "us"),
    ("serve.tcp_overhead_us", "us"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.writer_late_share", "share"),
    ("serve.stream_requests", "count"),
    ("proc.cpu_s.ingest", "s"),
    ("proc.cpu_s.query", "s"),
    ("proc.invol_ctx_switches", "count"),
    ("bench.trace_overhead_share", "share"),
    ("bench.write_span_cover_share", "share"),
    ("bench.written_bytes_logged_share", "share"),
    ("bench.write_phase_s", "s"),
    ("bench.read_phase_s", "s"),
    ("bench.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>"` in BENCHMARK.json, in file order.
    fn names_in(json: &str) -> Vec<String> {
        json.split("\"name\":")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut want: Vec<String> = specs().iter().map(|s| s.name.to_string()).collect();
        want.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        want.extend(PER_LAYER.iter().map(|(n, _)| n.to_string()));
        assert_eq!(names_in(&json), want);
        for m in END_TO_END {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
    }

    #[test]
    fn scaling_keeps_shape_and_floors() {
        let s = &specs()[1];
        let q = s.scaled(0.1);
        assert_eq!(
            (q.docs_per_batch, q.storage, q.paced_stream),
            (s.docs_per_batch, s.storage, s.paced_stream)
        );
        assert_eq!((q.preload_docs, q.write_batches), (500, 20));
        assert!(q.mix.phrase >= 20 && q.mix.bool_ == 600);
        assert_eq!(specs()[0].scaled(0.1).preload_docs, 0);
        assert_eq!(s.scaled(1.0), *s);
    }
}
