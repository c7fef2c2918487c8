//! Ablation: parallel batch ingest. Sweeps the ingest-thread count over
//! the same text corpus and measures wall-clock ingest time (lexing,
//! interning, inversion, flush). Lexing and inversion are pure CPU work
//! spread across the pool; interning, directory updates, and the commit
//! point stay sequential, so the sweep shows how far the parallel
//! pipeline bends the curve while the oracle tests guarantee the output
//! is byte-identical.
//!
//! With `INVIDX_MIN_SPEEDUP=<x>` the run exits non-zero unless the
//! 4-thread configuration reaches at least `x`× the single-thread
//! throughput — the CI smoke gate.

use invidx_bench::{emit_table, quick};
use invidx_core::index::IndexConfig;
use invidx_corpus::{CorpusGenerator, CorpusParams};
use invidx_disk::sparse_array;
use invidx_ir::DurableEngine;
use invidx_sim::TextTable;
use std::time::Instant;

fn corpus() -> CorpusParams {
    CorpusParams {
        days: if quick() { 2 } else { 4 },
        docs_per_weekday: if quick() { 300 } else { 1_000 },
        vocab_ranks: 50_000,
        interrupted_day: None,
        ..CorpusParams::tiny()
    }
}

/// Render a generated document's word ranks as text so ingest exercises
/// the real lexer; each rank becomes a distinct token, repeated to give
/// the tokenizer a realistic news-article amount of raw text per document
/// (real documents repeat their vocabulary heavily — the paper's corpus
/// averages ~0.5 KB of text per distinct word).
fn render(word_ranks: &[u64]) -> String {
    let mut text = String::with_capacity(word_ranks.len() * 200);
    text.push_str("body:\n");
    for r in word_ranks {
        for k in 0..24u64 {
            text.push('t');
            text.push_str(&r.to_string());
            text.push(if k % 8 == 7 { '\n' } else { ' ' });
        }
    }
    text
}

fn ingest(texts: &[&str], threads: usize, batch_docs: usize) -> (f64, usize, u64) {
    let array = sparse_array(4, 2_000_000, 512);
    let config = IndexConfig { ingest_threads: threads, ..IndexConfig::small() };
    let mut engine = DurableEngine::without_log(array, config).expect("create");
    let start = Instant::now();
    for group in texts.chunks(batch_docs) {
        engine.add_documents(group).expect("add");
        engine.flush().expect("flush");
    }
    (start.elapsed().as_secs_f64(), engine.vocabulary_size(), engine.index().batches())
}

fn main() {
    let texts: Vec<String> = CorpusGenerator::new(corpus())
        .flat_map(|day| day.docs.into_iter())
        .map(|d| render(&d.word_ranks))
        .collect();
    let refs: Vec<&str> = texts.iter().map(|t| t.as_str()).collect();
    invidx_obs::log_progress(
        "ablation",
        &format!("{} documents, {} bytes of text", refs.len(), texts.iter().map(String::len).sum::<usize>()),
    );

    let batch_docs = 500;
    let mut rows = Vec::new();
    let mut baseline = None;
    let mut speedup_at_4 = 1.0f64;
    let mut reference: Option<(usize, u64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let (secs, vocab, batches) = ingest(&refs, threads, batch_docs);
        // Cheap determinism cross-check on top of the oracle tests: every
        // thread count must build the same vocabulary and batch count.
        match reference {
            None => reference = Some((vocab, batches)),
            Some(expected) => assert_eq!((vocab, batches), expected, "threads={threads}"),
        }
        let base = *baseline.get_or_insert(secs);
        let speedup = base / secs;
        if threads == 4 {
            speedup_at_4 = speedup;
        }
        rows.push(vec![
            threads.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", refs.len() as f64 / secs),
            format!("{speedup:.2}"),
        ]);
    }
    emit_table(&TextTable {
        id: "ablation_parallel_ingest".into(),
        title: "Parallel ingest: threads vs wall-clock (sharded invert + per-disk apply)".into(),
        headers: vec!["Threads".into(), "Ingest s".into(), "Docs/s".into(), "Speedup".into()],
        rows,
    });

    if let Ok(min) = std::env::var("INVIDX_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("INVIDX_MIN_SPEEDUP must be a number");
        if speedup_at_4 < min {
            eprintln!("FAIL: 4-thread speedup {speedup_at_4:.2}x < required {min:.2}x");
            std::process::exit(1);
        }
        println!("OK: 4-thread speedup {speedup_at_4:.2}x >= {min:.2}x");
    }
}
