//! The traced pass: the same inputs as the untraced pass, but each opaque
//! `ingest_batch` / `execute` call is replaced by the sequence of public
//! calls it makes, timed one by one as spans, plus reads of the program's
//! public counters and reports. Spans are recorded from here, around the
//! calls into each layer; no crate outside `bench_e2e/` is instrumented.
//! End-to-end metrics never come from this pass.

use crate::corpus::{engine_query, Query, Verb};
use crate::matrix;
use crate::run::{self, into_engine, Client, Outcome, Pool};
use crate::spans::Tracer;
use crate::spec::Spec;
use crate::stack::{self, Service};
use crate::stats::{mean, percentile};
use invidx_core::index::IndexConfig;
use invidx_core::{DocId, WordId};
use invidx_corpus::lexer;
use invidx_corpus::vocab::word_string;
use invidx_disk::{exercise, DiskProfile, ExerciseConfig, OpKind};
use invidx_durable::{FaultInjector, WalWriter};
use invidx_ir::{DurableEngine, EngineQuery, EngineSnapshot, PostingSource};
use invidx_obs::names;
use invidx_serve::{Frontend, Request, Response, Server};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Span names of direct `EngineSnapshot::execute` calls, indexed by `Verb`,
/// and the metric each one's mean feeds.
const EXEC_SPAN: [(&str, &str); 6] = [
    ("ir.exec.bool", "ir.exec_us_mean.bool"),
    ("ir.exec.rank", "ir.exec_us_mean.rank"),
    ("ir.exec.like", "ir.exec_us_mean.like"),
    ("ir.exec.doc", "ir.exec_us_mean.doc"),
    ("ir.exec.phrase", "ir.exec_us_mean.phrase"),
    ("ir.exec.near", "ir.exec_us_mean.near"),
];
/// The spans that together make up one `ingest_batch`.
const BATCH_SPANS: [&str; 4] = ["ir.add", "ir.flush", "ir.snapshot_incr", "ir.snapshot_drop"];
/// Requests used for each serve-layer overhead measurement.
const SERVE_SAMPLE: usize = 2000;
/// Explicit checkpoints timed per run; scratch WAL appends are 8x as many.
const REPEATS: usize = 5;
/// Recover cycles of the traced pass.
const TRACED_RECOVERS: usize = 3;

fn err<E: ToString>(e: E) -> String {
    e.to_string()
}

/// Mean microseconds per call of `f` over `items`.
fn mean_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for item in items {
        f(item);
    }
    t.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
}

/// The write path, call by call: `add_document` loop, `flush`,
/// incremental `snapshot`, and freeing the view it replaces — what one
/// `ingest_batch` does. Counter deltas, the batch reports and the array's
/// I/O trace give the layer counts. Returns the phase's wall seconds.
fn write_path(
    engine: &mut DurableEngine,
    view: &mut EngineSnapshot,
    docs: &[String],
    spec: &Spec,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    let batches = docs.chunks(spec.docs_per_batch).count() as f64;
    let watched = [
        names::WAL_BYTES,
        names::WAL_FSYNCS,
        names::CHECKPOINT_WRITES,
        names::CHECKPOINT_BYTES,
        names::POSTINGS_BYTES_RAW,
        names::POSTINGS_BYTES_STORED,
    ];
    let read = || watched.map(invidx_obs::counter_value);
    let before = read();
    let segments_before = engine.segment_stats();
    engine.index().inner().array().start_trace();
    let (mut relocations, mut in_place, mut overflows) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for (i, batch) in docs.chunks(spec.docs_per_batch).enumerate() {
        let op = i as u64;
        tracer.scope("batch", op, |t| -> Result<(), String> {
            t.leaf("ir.add", op, || {
                batch
                    .iter()
                    .try_for_each(|text| engine.add_document(text).map(drop))
            })
            .map_err(err)?;
            let report = t.leaf("ir.flush", op, || engine.flush()).map_err(err)?;
            let next = t
                .leaf("ir.snapshot_incr", op, || engine.snapshot(Some(view)))
                .map_err(err)?;
            // Publishing retires the previous view; freeing it is part of
            // what `ingest_batch` costs once no reader holds it.
            let retired = std::mem::replace(view, next);
            t.leaf("ir.snapshot_drop", op, || drop(retired));
            relocations += report.obs.chunk_relocations;
            in_place += report.obs.in_place_updates;
            overflows += report.obs.bucket_overflows;
            Ok(())
        })?;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let io = engine.index().inner().array().take_trace();
    let after = read();
    let delta = |i: usize| (after[i] - before[i]) as f64;
    out.set("durable.wal_bytes_per_batch", delta(0) / batches);
    out.set("durable.wal_fsyncs_per_batch", delta(1) / batches);
    out.set("durable.checkpoints", delta(2));
    out.set("durable.checkpoint_bytes", delta(3));
    out.set("core.codec.stored_ratio", delta(5) / delta(4).max(1.0));
    out.set("core.long.relocations", relocations as f64);
    out.set("core.long.in_place_updates", in_place as f64);
    out.set("core.bucket_overflows", overflows as f64);
    let of_kind = |kind: OpKind| io.ops.iter().filter(move |o| o.kind == kind);
    out.set(
        "disk.write_ops_per_batch",
        of_kind(OpKind::Write).count() as f64 / batches,
    );
    out.set(
        "disk.write_blocks_per_batch",
        of_kind(OpKind::Write).map(|o| o.blocks).sum::<u64>() as f64 / batches,
    );
    out.set(
        "disk.read_ops_per_batch",
        of_kind(OpKind::Read).count() as f64 / batches,
    );
    out.set(
        "disk.allocated_bytes",
        stack::allocated_device_bytes(engine) as f64,
    );
    // Modelled disk time (the paper's 1994 drive) is kept apart from wall clock.
    let model = exercise(
        &io,
        &ExerciseConfig {
            profile: DiskProfile::seagate_1994(stack::GEOMETRY.block_size as usize),
            disks: stack::GEOMETRY.disks,
            buffer_blocks: 32,
        },
    );
    out.set(
        "disk.model_ms_per_batch",
        model.total_seconds() * 1e3 / batches,
    );
    if let (Some(now), Some(then)) = (engine.segment_stats(), segments_before) {
        out.set("segment.seals", (now.seals - then.seals) as f64);
        out.set("segment.merges", (now.merges - then.merges) as f64);
        out.set(
            "segment.bytes_written",
            (now.bytes_written - then.bytes_written) as f64,
        );
        out.set(
            "segment.write_amp",
            now.write_amplification(stack::GEOMETRY.block_size as usize),
        );
        out.set("segment.live_segments", now.segments as f64);
    }
    Ok(wall_s)
}

/// WAL append + fsync in isolation: frames the size of this workload's
/// WAL records through `invidx_durable::WalWriter` on a scratch file.
fn wal_append_cost(frame_bytes: usize, out_dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let scratch = out_dir.join(format!("scratch_{}.wal", std::process::id()));
    let frame = vec![0u8; frame_bytes];
    let mut wal = WalWriter::open(&scratch, FaultInjector::new()).map_err(err)?;
    let timed: Result<Vec<f64>, _> = (0..REPEATS * 8)
        .map(|_| {
            let t = Instant::now();
            wal.append_frame(&frame)?;
            wal.sync()?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    drop(wal);
    let _ = std::fs::remove_file(&scratch);
    let mut append_ms = timed.map_err(|e: invidx_durable::DurableError| e.to_string())?;
    out.set(
        "durable.wal_append_fsync_ms_p50",
        percentile(&mut append_ms, 50.0),
    );
    Ok(())
}

/// Lexing, inversion and the postings codec on their own, over the
/// documents the write phase ingested and the index's own head lists.
fn lex_invert_codec(
    engine: &DurableEngine,
    docs: &[String],
    config: IndexConfig,
    out: &mut Outcome,
) -> Result<(), String> {
    let per_kdoc = 1e6 / docs.len() as f64;
    let t = Instant::now();
    let lexed: Vec<_> = docs
        .iter()
        .map(|text| lexer::document_word_positions(text))
        .collect();
    out.set(
        "corpus.lex_ms_per_kdoc",
        t.elapsed().as_secs_f64() * per_kdoc,
    );
    let mut ids: HashMap<&str, u64> = HashMap::new();
    let to_invert: Vec<(DocId, Vec<WordId>)> = lexed
        .iter()
        .enumerate()
        .map(|(d, words)| {
            let words = words
                .iter()
                .map(|(w, _)| {
                    let next = ids.len() as u64 + 1;
                    WordId(*ids.entry(w.as_str()).or_insert(next))
                })
                .collect();
            (DocId(d as u32 + 1), words)
        })
        .collect();
    let t = Instant::now();
    std::hint::black_box(invidx_core::invert_batch(to_invert, 1, 1).map_err(err)?);
    out.set(
        "core.invert_ms_per_kdoc",
        t.elapsed().as_secs_f64() * per_kdoc,
    );

    // `Plain` stores raw postings: there is no coding-block stream to time.
    if !config.codec.is_compressed() {
        return Ok(());
    }
    let lists: Vec<Vec<DocId>> = (1..=256u64)
        .filter_map(|rank| engine.word_id(&word_string(rank)))
        .filter_map(|word| engine.postings(word).ok())
        .map(|list| list.docs().to_vec())
        .collect();
    let per_posting = 1e9 / lists.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    let t = Instant::now();
    let streams: Vec<Vec<u8>> = lists
        .iter()
        .map(|docs| invidx_core::codec::encode_stream(config.codec, docs, config.block_postings))
        .collect();
    out.set(
        "core.codec.encode_ns_per_posting",
        t.elapsed().as_secs_f64() * per_posting,
    );
    let t = Instant::now();
    for (stream, docs) in streams.iter().zip(&lists) {
        let decoded = invidx_core::codec::decode_stream(stream, docs.len() as u64);
        std::hint::black_box(decoded.map_err(err)?);
    }
    out.set(
        "core.codec.decode_ns_per_posting",
        t.elapsed().as_secs_f64() * per_posting,
    );
    Ok(())
}

/// The read list against the snapshot directly (one warm-up round, one
/// traced round), and rows examined per row returned for the phrases.
fn direct_reads(
    view: &EngineSnapshot,
    list: &[(Query, Request)],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let queries: Vec<(Verb, EngineQuery)> = list
        .iter()
        .map(|(q, r)| (q.verb(), engine_query(r)))
        .collect();
    for (_, q) in &queries {
        let _ = std::hint::black_box(view.execute(q));
    }
    for (i, (verb, q)) in queries.iter().enumerate() {
        let (span, _) = EXEC_SPAN[*verb as usize];
        tracer
            .leaf(span, i as u64, || {
                std::hint::black_box(view.execute(q)).map(drop)
            })
            .map_err(err)?;
    }
    let matches = |q: EngineQuery| view.execute(&q).map(|o| o.docs().map_or(0, |l| l.len()));
    let (mut phrases, mut candidates, mut hits) = (0usize, 0usize, 0usize);
    for (query, request) in list {
        if let Query::Phrase(words) = query {
            let all_words: Vec<String> = words.iter().map(|r| word_string(u64::from(*r))).collect();
            phrases += 1;
            candidates += matches(EngineQuery::Boolean(all_words.join(" and "))).map_err(err)?;
            hits += matches(engine_query(request)).map_err(err)?;
        }
    }
    out.set(
        "ir.phrase_candidates_mean",
        candidates as f64 / phrases.max(1) as f64,
    );
    out.set(
        "ir.phrase_hits_per_candidate",
        hits as f64 / candidates.max(1) as f64,
    );
    Ok(())
}

/// The serving layers one by one on pool requests: parse, render, the
/// admission queue hop (`Frontend::call` - `execute`) and the wire (TCP
/// round trip - `Frontend::call`).
fn serve_layers(service: &Arc<Service>, pool: &Pool, out: &mut Outcome) -> Result<(), String> {
    let lines = &pool.lines[..SERVE_SAMPLE.min(pool.lines.len())];
    let parse = |l: &String| Request::parse(l);
    let parsed: Vec<Request> = lines
        .iter()
        .map(parse)
        .collect::<Result<_, _>>()
        .map_err(err)?;
    out.set(
        "serve.request_parse_us",
        mean_us(lines, |l| drop(std::hint::black_box(parse(l)))),
    );
    let responses: Vec<Response> = parsed
        .iter()
        .map(|r| service.execute(r))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    out.set(
        "serve.response_render_us",
        mean_us(&responses, |r| drop(std::hint::black_box(r.to_wire()))),
    );
    let config = stack::serve_config(false);
    let direct = mean_us(&parsed, |r| drop(std::hint::black_box(service.execute(r))));
    let frontend = Frontend::start_with(Arc::clone(service), config);
    let queued = mean_us(&parsed, |r| {
        drop(std::hint::black_box(frontend.call(r.clone())))
    });
    frontend.shutdown();
    let server = Server::bind("127.0.0.1:0", Arc::clone(service), config).map_err(err)?;
    let mut client = Client::connect(server.addr()).map_err(err)?;
    let wired = mean_us(lines, |l| {
        drop(std::hint::black_box(client.call(l).map(str::len)))
    });
    drop(client);
    server.shutdown();
    out.set("serve.frontend_overhead_us", queued - direct);
    out.set("serve.tcp_overhead_us", wired - queued);
    Ok(())
}

/// Recovery step by step (`open`, then the full snapshot a service builds
/// first), then explicit checkpoints on the reopened store.
fn recovery(
    mut engine: DurableEngine,
    spec: &Spec,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let config = spec.storage.index_config();
    if spec.storage.clean_shutdown_only() {
        engine.checkpoint().map_err(err)?;
    }
    for cycle in 0..TRACED_RECOVERS as u64 {
        drop(engine);
        engine = tracer.leaf("durable.open", cycle, || stack::open_engine(dir, config))?;
        tracer
            .leaf("ir.snapshot_full", cycle, || {
                engine.snapshot(None).map(drop)
            })
            .map_err(err)?;
    }
    let mut checkpoint_ms: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            engine.checkpoint().map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(err)?;
    out.set(
        "durable.checkpoint_ms_p50",
        percentile(&mut checkpoint_ms, 50.0),
    );
    Ok(())
}

/// Run the traced pass of one workload and fill in the per-layer metrics.
/// `untraced` is the same run's untraced pass: it supplies the totals the
/// trace overhead is measured against.
pub fn run(
    spec: &Spec,
    seed: u64,
    out_dir: &Path,
    untraced: &Outcome,
    quick: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::default();
    let dir = out_dir.join(format!("traced_{}_{}", spec.name, std::process::id()));
    let ready = run::setup(spec, seed, &dir)?;
    let mut engine = into_engine(ready.service)?;
    let write_docs = &ready.corpus.texts[spec.preload_docs..];
    let batches = write_docs.chunks(spec.docs_per_batch).count() as f64;

    let mut view = engine.snapshot(None).map_err(err)?;
    let traced_write_s = write_path(
        &mut engine,
        &mut view,
        write_docs,
        spec,
        &mut tracer,
        &mut out,
    )?;
    wal_append_cost(
        out.get("durable.wal_bytes_per_batch") as usize,
        out_dir,
        &mut out,
    )?;
    lex_invert_codec(&engine, write_docs, spec.storage.index_config(), &mut out)?;
    direct_reads(&view, &ready.list, &mut tracer, &mut out)?;
    drop(view);

    // The same list through the service: its overhead over the snapshot.
    let service = Arc::new(stack::service(engine, stack::serve_config(false))?);
    for (_, request) in &ready.list {
        let _ = std::hint::black_box(service.execute(request));
    }
    let round_start = Instant::now();
    for (i, (_, request)) in ready.list.iter().enumerate() {
        tracer
            .leaf("serve.execute", i as u64, || {
                std::hint::black_box(service.execute(request)).map(drop)
            })
            .map_err(err)?;
    }
    let traced_round_s = round_start.elapsed().as_secs_f64();
    if let Some(pool) = &ready.pool {
        serve_layers(&service, pool, &mut out)?;
    }
    recovery(into_engine(service)?, spec, &dir, &mut tracer, &mut out)?;
    let _ = std::fs::remove_dir_all(&dir);

    // ---- the reopen matrix (correctness probe, apart from ok_share) ----
    let (bulk_docs, trickle_batches) = if quick { (1000, 24) } else { (3000, 50) };
    let cells = matrix::reopen_matrix(seed, bulk_docs, trickle_batches, out_dir);
    let passed = cells.iter().filter(|c| c.outcome.is_ok()).count();
    out.set(
        "durable.reopen_matrix_ok_share",
        passed as f64 / cells.len() as f64,
    );
    out.note(format!(
        "reopen matrix: {passed} of {} cells reopen",
        cells.len()
    ));
    for cell in &cells {
        if let Err(why) = &cell.outcome {
            out.note(format!("  {} fails: {why}", cell.label));
        }
    }

    // ---- the per-layer table, from span self times ----
    let by_name = tracer.self_ms_by_name();
    let of = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    out.set(
        "ir.add_ms_per_kdoc",
        of("ir.add").iter().sum::<f64>() * 1e3 / write_docs.len() as f64,
    );
    for (span, p50, p95) in [
        ("ir.flush", "ir.flush_ms_p50", Some("ir.flush_ms_p95")),
        (
            "ir.snapshot_incr",
            "ir.snapshot_incr_ms_p50",
            Some("ir.snapshot_incr_ms_p95"),
        ),
        ("ir.snapshot_drop", "ir.snapshot_drop_ms_p50", None),
        ("ir.snapshot_full", "ir.snapshot_full_ms", None),
        ("durable.open", "durable.open_ms", None),
    ] {
        out.set(p50, percentile(&mut of(span), 50.0));
        if let Some(p95) = p95 {
            out.set(p95, percentile(&mut of(span), 95.0));
        }
    }
    let mut exec_ms = Vec::new();
    for (span, metric) in EXEC_SPAN {
        out.set(metric, mean(&of(span)) * 1e3);
        exec_ms.extend(of(span));
    }
    out.set(
        "ir.exec_us_p99.bool",
        percentile(&mut of("ir.exec.bool"), 99.0) * 1e3,
    );
    out.set(
        "ir.exec_us_p99.rank",
        percentile(&mut of("ir.exec.rank"), 99.0) * 1e3,
    );
    out.set(
        "serve.execute_overhead_us",
        (mean(&of("serve.execute")) - mean(&exec_ms)) * 1e3,
    );
    let untraced_batch_ms = untraced.get("bench.batch_visible_ms_mean");
    let span_batch_ms: f64 = BATCH_SPANS.iter().map(|n| mean(&of(n))).sum();
    out.set(
        "bench.write_span_cover_share",
        span_batch_ms / untraced_batch_ms,
    );
    let untraced_s = untraced_batch_ms * batches / 1e3 + untraced.get("bench.read_round_s");
    out.set(
        "bench.trace_overhead_share",
        (traced_write_s + traced_round_s) / untraced_s - 1.0,
    );
    out.set("bench.spans", tracer.spans().len() as f64);
    let trace_file = out_dir.join(format!("trace_{}.ndjson", spec.name));
    tracer
        .write_ndjson(&trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    out.note(format!(
        "spans: {} written to {}",
        tracer.spans().len(),
        trace_file.display()
    ));
    Ok(out)
}
