//! # invidx-bench — the reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (`src/bin/`),
//! plus ablations and criterion micro-benchmarks (`benches/`). Each binary
//! prints a terminal summary and writes TSV artifacts under `results/`.
//!
//! Environment knobs:
//!
//! * `INVIDX_QUICK=1` — run on the tiny corpus (CI-speed smoke run);
//! * `INVIDX_RESULTS=<dir>` — artifact directory (default `results/`);
//! * `INVIDX_METRICS=<path>` — drop observability artifacts: an NDJSON
//!   event stream at `<path>.ndjson`, plus a metrics snapshot next to each
//!   TSV artifact as `<path>.json` / `<path>.prom`.

use invidx_core::policy::Policy;
use invidx_obs::log_progress;
use invidx_sim::{Experiment, Figure, SimParams, TextTable};
use std::path::PathBuf;

/// Artifact output directory.
pub fn results_dir() -> PathBuf {
    std::env::var("INVIDX_RESULTS").map(PathBuf::from).unwrap_or_else(|_| {
        // Walk up from the executable's cwd to a directory with Cargo.toml.
        let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        while !dir.join("Cargo.toml").exists() {
            if !dir.pop() {
                dir = PathBuf::from(".");
                break;
            }
        }
        dir.join("results")
    })
}

/// The parameter set: full scale unless `INVIDX_QUICK` is set.
pub fn params() -> SimParams {
    if quick() {
        SimParams::tiny()
    } else {
        SimParams::default()
    }
}

/// True when running in quick (CI) mode.
pub fn quick() -> bool {
    std::env::var("INVIDX_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// The `INVIDX_METRICS` base path, if metrics artifacts were requested.
pub fn metrics_base() -> Option<PathBuf> {
    std::env::var_os("INVIDX_METRICS").map(PathBuf::from)
}

/// Initialize the NDJSON event sink when `INVIDX_METRICS` is set. Called
/// from [`prepare`]; binaries that skip `prepare` can call it directly.
pub fn init_metrics() {
    if let Some(base) = metrics_base() {
        let path = base.with_extension("ndjson");
        match invidx_obs::init_event_sink(&path) {
            Ok(()) => log_progress("bench", &format!("streaming events to {}", path.display())),
            Err(e) => log_progress("bench", &format!("cannot open event sink {}: {e}", path.display())),
        }
    }
}

/// Write JSON + Prometheus snapshots of the current metric registry to
/// `<INVIDX_METRICS>.json` / `<INVIDX_METRICS>.prom`. No-op when the knob
/// is unset. Binaries call this once after their last emit.
pub fn write_metrics_snapshot() {
    let Some(base) = metrics_base() else { return };
    let snap = invidx_obs::snapshot();
    if let Some(parent) = base.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    for (ext, body) in [("json", snap.to_json()), ("prom", snap.to_prometheus())] {
        let path = base.with_extension(ext);
        match std::fs::write(&path, body) {
            Ok(()) => log_progress("bench", &format!("wrote {}", path.display())),
            Err(e) => log_progress("bench", &format!("could not write {}: {e}", path.display())),
        }
    }
    invidx_obs::flush_events();
}

/// Prepare the experiment (corpus + bucket stage), reporting progress.
pub fn prepare() -> Experiment {
    init_metrics();
    let p = params();
    log_progress(
        "bench",
        &format!(
            "preparing experiment: {} batches, {} buckets x {} units{}",
            p.corpus.days,
            p.buckets,
            p.bucket_size,
            if quick() { " [quick mode]" } else { "" }
        ),
    );
    let t = std::time::Instant::now();
    let exp = Experiment::prepare(p).expect("experiment preparation");
    log_progress(
        "bench",
        &format!(
            "prepared in {:.1?}: {} postings, {} long-list updates",
            t.elapsed(),
            exp.corpus_stats.total_postings,
            exp.buckets.total_updates()
        ),
    );
    exp
}

/// Emit a figure: print the terminal summary and write `results/<id>.tsv`.
pub fn emit_figure(fig: &Figure) {
    print!("{}", fig.summary());
    let dir = results_dir();
    match invidx_sim::write_artifact(&dir, &format!("{}.tsv", fig.id), &fig.to_tsv()) {
        Ok(path) => log_progress("bench", &format!("wrote {}", path.display())),
        Err(e) => log_progress("bench", &format!("could not write artifact: {e}")),
    }
    write_metrics_snapshot();
}

/// Emit a table: print it and write `results/<id>.tsv`.
pub fn emit_table(table: &TextTable) {
    print!("{}", table.render());
    let dir = results_dir();
    match invidx_sim::write_artifact(&dir, &format!("{}.tsv", table.id), &table.to_tsv()) {
        Ok(path) => log_progress("bench", &format!("wrote {}", path.display())),
        Err(e) => log_progress("bench", &format!("could not write artifact: {e}")),
    }
    write_metrics_snapshot();
}

/// The six policy curves shown in Figures 8–10 and 13–14, labeled as in
/// the paper. `fill 0` is included; whether it fits depends on disk size —
/// when it does not, the harness reports out-of-space, matching the
/// paper's remark that its disks "were not large enough" for fill 0.
pub fn figure_policies() -> Vec<Policy> {
    Policy::style_comparison_set()
}

/// The `p`-quantile (nearest rank) of ascending microsecond latencies, in
/// milliseconds; 0 for no samples.
pub fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx] as f64 / 1e3
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else {
        format!("{s:.2}")
    }
}
