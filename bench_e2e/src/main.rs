//! `bench_e2e`: one command, one workload, every metric by name.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick]
//!     [--aa <n> | --sweep <n>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod check;
mod corpus;
mod json;
mod matrix;
mod run;
mod spans;
mod spec;
mod stack;
mod stats;
mod traced;

use json::Json;
use run::Outcome;
use spec::{Spec, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--quick` shrinks every operation count to this share: same code
/// paths, a few seconds per workload, numbers comparable with nothing.
const QUICK_FACTOR: f64 = 0.12;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    /// `--aa n`: n child runs with the same seed.
    aa: Option<usize>,
    /// `--sweep n`: n child runs with seeds `seed..seed+n`.
    sweep: Option<usize>,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = spec::specs().iter().map(|s| s.name).collect();
    format!(
        "usage: bench_e2e --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] \
         [--quick] [--aa <n>] [--sweep <n>] [--out-dir <dir>]",
        names.join("|")
    )
}

fn default_out_dir() -> PathBuf {
    // The driver runs from the checkout root; fall back to the crate's own
    // directory when started from elsewhere.
    if std::path::Path::new("bench_e2e/Cargo.toml").exists() {
        PathBuf::from("bench_e2e/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        aa: None,
        sweep: None,
        out_dir: default_out_dir(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--quick" => args.quick = true,
            "--aa" => args.aa = Some(number(value()?)? as usize),
            "--sweep" => args.sweep = Some(number(value()?)? as usize),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn find_spec(name: &str) -> Result<Spec, String> {
    spec::specs()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no workload {name:?}\n{}", usage()))
}

/// The result line the driver reads.
fn result_line(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(outcome.get(name))),
                ("unit".into(), Json::Str(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.tally.failed == 0)),
        ("attempted".into(), Json::Int(outcome.tally.attempted)),
        ("failed".into(), Json::Int(outcome.tally.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

fn run_workload(args: &Args) -> Result<(), String> {
    let base = find_spec(&args.workload)?;
    let factor =
        args.seconds as f64 / RUN_SECONDS as f64 * if args.quick { QUICK_FACTOR } else { 1.0 };
    let spec = base.scaled(factor);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;

    let mut outcome = run::run(&spec, args.seed, &args.out_dir)?;
    if args.trace {
        let traced = traced::run(&spec, args.seed, &args.out_dir, &outcome, args.quick)?;
        outcome.metrics.extend(traced.metrics);
        outcome.report.extend(traced.report);
    }

    // Every timer has stopped: build the whole report, print it at once.
    let mut lines = Vec::new();
    if args.quick {
        lines.push("QUICK MODE: shrunk operation counts, comparable with nothing, never for BENCHMARK.json".to_string());
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    lines.push(format!(
        "workload {} seed {} seconds {} (x{factor:.3}) storage {} cores {cores}",
        spec.name,
        args.seed,
        args.seconds,
        spec.storage.name()
    ));
    lines.push(format!(
        "  {} preload docs, {} batches x {} docs{}, read list {} requests x {} rounds",
        spec.preload_docs,
        spec.write_batches,
        spec.docs_per_batch,
        spec.paced_stream.map_or(String::new(), |p| format!(
            " paced every {} ms beside a TCP client",
            p.as_millis()
        )),
        spec.mix.total(),
        spec.rounds
    ));
    lines.push(format!("  flush policy: {:?}", stack::durable_options()));
    lines.push("end-to-end:".to_string());
    for m in END_TO_END {
        lines.push(format!(
            "  {:<32} {:>16.6} {}",
            m.name,
            outcome.get(m.name),
            m.unit
        ));
    }
    if args.trace {
        lines.push("per-layer:".to_string());
        for (name, unit) in PER_LAYER {
            lines.push(format!("  {:<36} {:>16.6} {unit}", name, outcome.get(name)));
        }
    }
    lines.append(&mut outcome.report);
    lines.push(format!(
        "checked: {} attempted, {} failed, ok_share {}",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.ok_share()
    ));
    lines.extend(
        outcome
            .tally
            .examples
            .iter()
            .map(|e| format!("  failed: {e}")),
    );
    let e2e_names: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    lines.push(result_line(
        &outcome,
        if args.trace { PER_LAYER } else { &e2e_names },
    ));
    println!("{}", lines.join("\n"));
    Ok(())
}

/// Pull `"<name>": {"value": <x>` out of a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// `--aa n` / `--sweep n`: run the workload n times as child processes
/// (so `rss_peak_mb` is per run) and compare the spread of every
/// end-to-end metric with its bound. `--aa` keeps the seed and uses
/// (max - min) / median; `--sweep` varies the seed and uses the driver's
/// rule, the interquartile range over the median.
fn repeat(args: &Args, runs: usize, vary_seed: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut all_correct = true;
    for i in 0..runs {
        let seed = args.seed + if vary_seed { i as u64 } else { 0 };
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--out-dir"])
            .arg(&args.out_dir);
        if args.quick {
            cmd.arg("--quick");
        }
        let output = cmd.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        if !output.status.success() || !line.starts_with('{') {
            return Err(format!(
                "run {i} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        all_correct &= line.contains("\"correct\": true");
        for (m, v) in END_TO_END.iter().zip(&mut values) {
            v.push(metric_in(line, m.name).ok_or_else(|| format!("run {i}: no {}", m.name))?);
        }
        eprintln!("run {} of {runs} (seed {seed}) done", i + 1);
    }
    println!(
        "{} x {runs}, {}: spread is {}",
        args.workload,
        if vary_seed { "seeds vary" } else { "same seed" },
        if vary_seed {
            "IQR / median"
        } else {
            "(max - min) / median"
        }
    );
    println!(
        "{:<30} {:>6} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "better", "min", "median", "max", "spread", "bound"
    );
    let mut inside = all_correct;
    for (m, v) in END_TO_END.iter().zip(&values) {
        let (q1, q2, q3) = stats::quartiles(v);
        let (min, max) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let spread = if vary_seed {
            (q3 - q1) / q2
        } else {
            (max - min) / q2
        };
        // Set-up time has a bound on its median only, as in the driver.
        let ok = spread <= m.bound || m.name == "setup_s";
        inside &= ok;
        println!(
            "{:<30} {:>6} {min:>14.5} {q2:>14.5} {max:>14.5} {:>7.2}% {:>5.0}%  {}",
            m.name,
            m.better.as_str(),
            spread * 100.0,
            m.bound * 100.0,
            if ok { "inside" } else { "OUTSIDE" }
        );
    }
    if !all_correct {
        println!("at least one run reported correct: false");
    }
    Ok(inside)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (args.aa, args.sweep) {
        (Some(n), _) => repeat(&args, n, false),
        (None, Some(n)) => repeat(&args, n, true),
        (None, None) => run_workload(&args).map(|()| true),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::FAILURE
        }
    }
}
