//! The untraced pass: one workload through the real stack, end to end.
//!
//! set-up (x3, median) -> write phase (closed-loop writer, or paced writer
//! beside a TCP client) -> per-verb read phase (result cache off, rounds)
//! -> recover cycles -> answers checked against the model.
//! Nothing is printed until the last timer has stopped.

use crate::check::{self, Tally};
use crate::corpus::{Corpus, Query, QueryGen, Verb};
use crate::spec::{Spec, CHECK_EVERY, POOL_REQUESTS, RECOVER_CYCLES, SETUPS};
use crate::stack::{self, proc, Service};
use crate::stats::{mean, median, median_of_rounds, percentile, percentile_sorted};
use invidx_ir::DurableEngine;
use invidx_obs::names;
use invidx_serve::{parse_response, Payload, Request, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Documents per set-up batch.
const PRELOAD_BATCH: usize = 500;
/// A paced batch counts as late when it starts this long after it was due.
const LATE: Duration = Duration::from_millis(1);

/// What one pass hands back: metric values by name, the tally behind
/// `correct`/`attempted`/`failed`, and the human-readable report.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    pub report: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn note(&mut self, line: String) {
        self.report.push(line);
    }
}

/// One persistent client connection speaking the line protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            reply: String::new(),
        })
    }

    /// Send one request line (newline included) and wait for its reply.
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }
}

/// The request pool of the paced-stream workload.
pub struct Pool {
    pub queries: Vec<Query>,
    /// Request lines, newline-terminated.
    pub lines: Vec<String>,
    /// Zipf(1.0) draws of pool indices, replayed cyclically.
    pub draws: Vec<u32>,
}

/// Everything set-up produces.
pub struct Ready {
    pub corpus: Corpus,
    pub dir: PathBuf,
    pub service: Arc<Service>,
    /// The per-verb read list with its serving-layer requests.
    pub list: Vec<(Query, Request)>,
    pub pool: Option<Pool>,
    /// `visible[e]` = documents visible at serving epoch `e`.
    pub visible: Vec<u32>,
}

/// Generate the inputs from the seed, create the store, load the
/// workload's starting documents and wrap the engine for serving.
pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> Result<Ready, String> {
    let corpus = Corpus::generate(seed, spec.total_docs());
    let list = QueryGen::new(&corpus, corpus.len(), seed)
        .list(spec.mix)
        .into_iter()
        .map(|q| {
            let request = q.request();
            (q, request)
        })
        .collect();
    let pool = spec.paced_stream.map(|_| {
        let mut generator = QueryGen::new(&corpus, spec.preload_docs, seed.wrapping_add(1));
        let queries = generator.distinct_pool(POOL_REQUESTS);
        let lines = queries
            .iter()
            .map(|q| q.request().to_wire() + "\n")
            .collect();
        let draws = generator.pool_draws(POOL_REQUESTS, 1 << 18);
        Pool {
            queries,
            lines,
            draws,
        }
    });
    let _ = std::fs::remove_dir_all(dir);
    let engine = stack::create_engine(dir, spec.storage.index_config())?;
    let service = stack::service(engine, stack::serve_config(spec.paced_stream.is_some()))?;
    let mut visible = vec![0u32];
    for batch in corpus.texts[..spec.preload_docs].chunks(PRELOAD_BATCH) {
        service.ingest_batch(batch).map_err(|e| e.to_string())?;
        visible.push(visible[visible.len() - 1] + batch.len() as u32);
    }
    Ok(Ready {
        corpus,
        dir: dir.to_path_buf(),
        service: Arc::new(service),
        list,
        pool,
        visible,
    })
}

/// What the write phase measured.
#[derive(Default)]
pub struct Written {
    pub batch_ms: Vec<f64>,
    pub wall_s: f64,
    pub docs: usize,
    pub text_bytes: u64,
    /// Bytes handed to the OS: the `wchar` delta of `/proc/self/io`, which
    /// counts file writes (devices, WAL, checkpoints, manifest) and leaves
    /// socket sends out.
    pub written_bytes: u64,
    /// WAL + checkpoint bytes by the program's own counters.
    pub logged_bytes: u64,
    pub stored_bytes: u64,
    pub cpu_s: f64,
    pub late: usize,
}

/// What the paced stream's client measured.
#[derive(Default)]
pub struct Streamed {
    pub latency_ms: Vec<f64>,
    pub wall_s: f64,
    /// `(pool index, reply line)` of every `CHECK_EVERY`-th request.
    pub sampled: Vec<(u32, String)>,
    pub errors: u64,
}

fn counter_sum(keys: &[&str]) -> u64 {
    keys.iter().map(|k| invidx_obs::counter_value(k)).sum()
}

/// Ingest the workload's batches one by one through
/// `QueryService::ingest_batch`, timing call to return (durable and
/// published). With `pace`, batch `i` starts at `i * pace`.
fn write_batches(
    ready: &mut Ready,
    spec: &Spec,
    tally: &mut Tally,
    stop: Option<&AtomicBool>,
) -> Written {
    let mut w = Written::default();
    let docs = &ready.corpus.texts[spec.preload_docs..];
    let (cpu0, wchar0) = (proc::cpu_seconds(), proc::write_bytes());
    let logged0 = counter_sum(&[names::WAL_BYTES, names::CHECKPOINT_BYTES]);
    let start = Instant::now();
    for (i, batch) in docs.chunks(spec.docs_per_batch).enumerate() {
        if let Some(pace) = spec.paced_stream {
            let due = pace * i as u32;
            match due.checked_sub(start.elapsed()) {
                Some(wait) => std::thread::sleep(wait),
                None if start.elapsed() - due > LATE => w.late += 1,
                None => {}
            }
        }
        let before = ready.service.epoch();
        let t = Instant::now();
        let result = ready.service.ingest_batch(batch);
        w.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.record(match result {
            Ok((_, epoch)) if epoch == before + 1 => Ok(()),
            Ok((_, epoch)) => Err(format!("batch {i}: epoch {before} -> {epoch}")),
            Err(e) => Err(format!("batch {i}: {e}")),
        });
        ready
            .visible
            .push(ready.visible[ready.visible.len() - 1] + batch.len() as u32);
        w.docs += batch.len();
        w.text_bytes += batch.iter().map(|t| t.len() as u64).sum::<u64>();
    }
    w.wall_s = start.elapsed().as_secs_f64();
    if let Some(stop) = stop {
        stop.store(true, Ordering::Release);
    }
    w.written_bytes = proc::write_bytes() - wchar0;
    w.logged_bytes = counter_sum(&[names::WAL_BYTES, names::CHECKPOINT_BYTES]) - logged0;
    w.cpu_s = proc::cpu_seconds() - cpu0;
    w.stored_bytes = ready
        .service
        .with_read(|_, engine| stack::stored_bytes(engine, &ready.dir));
    if spec.storage.clean_shutdown_only() {
        if let Err(e) = ready.service.checkpoint() {
            tally.fail(format!("checkpoint before shutdown: {e}"));
        }
    }
    w
}

/// Closed-loop client: one request outstanding, Zipf draws from the pool,
/// until the writer has finished its schedule.
fn stream_requests(client: &mut Client, pool: &Pool, stop: &AtomicBool) -> Streamed {
    let mut s = Streamed::default();
    let start = Instant::now();
    for (n, &draw) in pool.draws.iter().cycle().enumerate() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let t = Instant::now();
        let reply = client.call(&pool.lines[draw as usize]);
        s.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok(line) if n.is_multiple_of(CHECK_EVERY) => s.sampled.push((draw, line.to_string())),
            Ok(line) if line.starts_with("OK ") => {}
            _ => s.errors += 1,
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s
}

/// What the per-verb read phase measured.
pub struct Rounds {
    /// `per_verb[verb][round]` = that round's latencies in ms.
    pub per_verb: Vec<Vec<Vec<f64>>>,
    pub round_s: Vec<f64>,
    /// The last round's answer for every query that gets checked.
    pub saved: Vec<Option<Payload>>,
    pub cpu_s: f64,
}

/// Whether query `i` of the read list has its answer kept and checked:
/// every positional and scored query, one Boolean/Doc in `CHECK_EVERY`.
fn is_checked(i: usize, query: &Query) -> bool {
    !matches!(query.verb(), Verb::Bool | Verb::Doc) || i.is_multiple_of(CHECK_EVERY)
}

/// Replay the read list through `execute`: one untimed warm-up round,
/// then `rounds` timed ones with a per-call `Instant` sample.
pub fn read_rounds(
    list: &[(Query, Request)],
    rounds: usize,
    tally: &mut Tally,
    mut execute: impl FnMut(&Request) -> Result<Payload, String>,
) -> Rounds {
    let mut out = Rounds {
        per_verb: vec![vec![Vec::new(); rounds]; Verb::ALL.len()],
        round_s: Vec::with_capacity(rounds),
        saved: vec![None; list.len()],
        cpu_s: 0.0,
    };
    for (_, request) in list {
        let _ = std::hint::black_box(execute(request));
    }
    let cpu0 = proc::cpu_seconds();
    for round in 0..rounds {
        let start = Instant::now();
        for (i, (query, request)) in list.iter().enumerate() {
            let t = Instant::now();
            let result = execute(request);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.per_verb[query.verb() as usize][round].push(ms);
            match result {
                Ok(payload) if is_checked(i, query) => out.saved[i] = Some(payload),
                Ok(_) => {}
                Err(e) => {
                    out.saved[i] = None;
                    tally.fail(format!("{request:?}: {e}"));
                }
            }
        }
        out.round_s.push(start.elapsed().as_secs_f64());
        tally.passed(list.len() as u64);
    }
    out.cpu_s = proc::cpu_seconds() - cpu0;
    out
}

/// One drop -> open -> service -> first-answer cycle.
pub struct Recovered {
    pub service: Service,
    pub total_s: f64,
    pub replayed_records: u64,
}

pub fn recover_once(
    spec: &Spec,
    dir: &Path,
    probe: &Request,
) -> Result<(Recovered, Payload), String> {
    let t = Instant::now();
    let engine = stack::open_engine(dir, spec.storage.index_config())?;
    let replayed_records = engine.recovery().map_or(0, |r| r.replayed_records);
    let service = stack::service(engine, stack::serve_config(false))?;
    let first = service.execute(probe).map_err(|e| e.to_string())?;
    let total_s = t.elapsed().as_secs_f64();
    Ok((
        Recovered {
            service,
            total_s,
            replayed_records,
        },
        first.payload,
    ))
}

/// Take the engine back out of a service nobody else holds any more.
pub fn into_engine(service: Arc<Service>) -> Result<DurableEngine, String> {
    Arc::try_unwrap(service)
        .map(Service::into_engine)
        .map_err(|_| "the service is still shared".to_string())
}

/// Run one workload untraced and fill in every end-to-end metric (plus
/// the layer metrics this pass observes on the way).
pub fn run(spec: &Spec, seed: u64, out_dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = out_dir.join(format!("data_{}_{}", spec.name, std::process::id()));

    // ---- set-up, several times; the last one is kept ----
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(setup(spec, seed, &dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("SETUPS >= 1");
    out.set("setup_s", median(&setup_s));

    // ---- write phase ----
    let switches0 = proc::involuntary_switches();
    let (written, streamed) = match &spec.paced_stream {
        None => (write_batches(&mut ready, spec, &mut out.tally, None), None),
        Some(_) => {
            let config = stack::serve_config(true);
            let server = Server::bind("127.0.0.1:0", Arc::clone(&ready.service), config)
                .map_err(|e| format!("bind: {e}"))?;
            let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
            let pool = ready.pool.take().expect("a paced stream has a pool");
            let stop = AtomicBool::new(false);
            let (written, streamed) = std::thread::scope(|scope| {
                let reader = scope.spawn(|| stream_requests(&mut client, &pool, &stop));
                let written = write_batches(&mut ready, spec, &mut out.tally, Some(&stop));
                (written, reader.join().expect("the stream client panicked"))
            });
            let stats = ready.service.stats();
            out.set(
                "serve.cache.hit_share",
                ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
            );
            out.set("serve.cache.stale_drops", stats.cache_stale_drops as f64);
            out.set("serve.cache.evictions", stats.cache_evictions as f64);
            out.set("serve.shed", stats.shed as f64);
            out.set("serve.timeouts", stats.timeouts as f64);
            drop(client);
            server.shutdown();
            check_stream(&ready, &pool, &streamed, &mut out.tally);
            (written, Some(streamed))
        }
    };
    let busy_s = written.batch_ms.iter().sum::<f64>() / 1e3;
    out.set("ingest_docs_per_s", written.docs as f64 / busy_s);
    let mut sorted_ms = written.batch_ms.clone();
    sorted_ms.sort_unstable_by(f64::total_cmp);
    out.set("batch_visible_ms_p50", percentile_sorted(&sorted_ms, 50.0));
    out.set("batch_visible_ms_p95", percentile_sorted(&sorted_ms, 95.0));
    out.set(
        "trickle.batch_visible_ms_max",
        percentile_sorted(&sorted_ms, 100.0),
    );
    out.set(
        "stored_bytes_per_text_byte",
        written.stored_bytes as f64 / ready.corpus.text_bytes(0..ready.corpus.len()) as f64,
    );
    out.set(
        "written_bytes_per_text_byte",
        written.written_bytes as f64 / written.text_bytes as f64,
    );
    out.set(
        "bench.written_bytes_logged_share",
        ratio(written.logged_bytes, written.written_bytes),
    );
    out.set(
        "serve.writer_late_share",
        ratio(written.late as u64, written.batch_ms.len() as u64),
    );
    out.set("proc.cpu_s.ingest", written.cpu_s);
    out.set("bench.write_phase_s", written.wall_s);
    out.set("bench.batch_visible_ms_mean", mean(&written.batch_ms));

    // ---- per-verb read phase, result cache off ----
    if spec.paced_stream.is_some() {
        let engine = into_engine(ready.service)?;
        ready.service = Arc::new(stack::service(engine, stack::serve_config(false))?);
    }
    let service = Arc::clone(&ready.service);
    let mut rounds = read_rounds(&ready.list, spec.rounds, &mut out.tally, |request| {
        service
            .execute(request)
            .map(|r| r.payload)
            .map_err(|e| e.to_string())
    });
    drop(service);
    for (verb, name) in [
        (Verb::Bool, "bool_ms_p50"),
        (Verb::Rank, "rank_ms_p50"),
        (Verb::Like, "like_ms_p50"),
        (Verb::Phrase, "phrase_ms_p50"),
    ] {
        out.set(
            name,
            median_of_rounds(&mut rounds.per_verb[verb as usize], |r| percentile(r, 50.0)),
        );
    }
    match &streamed {
        // Reads beside writes: throughput and tail come from the stream.
        Some(s) => {
            out.set("query_qps", s.latency_ms.len() as f64 / s.wall_s);
            out.set("query_ms_p99", percentile(&mut s.latency_ms.clone(), 99.0));
            out.set("serve.stream_requests", s.latency_ms.len() as f64);
        }
        None => {
            let per_round_qps: Vec<f64> = rounds
                .round_s
                .iter()
                .map(|s| ready.list.len() as f64 / s)
                .collect();
            let mut all_by_round: Vec<Vec<f64>> = (0..spec.rounds)
                .map(|r| {
                    rounds
                        .per_verb
                        .iter()
                        .flat_map(|v| v[r].iter().copied())
                        .collect()
                })
                .collect();
            out.set("query_qps", median(&per_round_qps));
            out.set(
                "query_ms_p99",
                median_of_rounds(&mut all_by_round, |r| percentile(r, 99.0)),
            );
        }
    }
    out.set("proc.cpu_s.query", rounds.cpu_s);
    out.set("bench.read_phase_s", rounds.round_s.iter().sum());
    out.set("bench.read_round_s", median(&rounds.round_s));
    let final_docs = *ready.visible.last().expect("visible starts non-empty");
    for (i, (query, _)) in ready.list.iter().enumerate() {
        if let Some(payload) = &rounds.saved[i] {
            if let Err(why) = check::answer(&ready.corpus, query, final_docs, payload) {
                out.tally.fail(why);
            }
        }
    }

    // ---- recover cycles ----
    let probe_at = rounds.saved.iter().position(Option::is_some).unwrap_or(0);
    let probe = &ready.list[probe_at].1;
    drop(into_engine(ready.service)?);
    let mut recover_s = Vec::with_capacity(RECOVER_CYCLES);
    let mut recovered = None;
    for cycle in 0..RECOVER_CYCLES {
        drop(recovered.take());
        match recover_once(spec, &ready.dir, probe) {
            Ok((r, first)) => {
                let same = rounds.saved[probe_at].as_ref() == Some(&first);
                out.tally.record(if same {
                    Ok(())
                } else {
                    Err(format!("recover {cycle}: first answer differs"))
                });
                recover_s.push(r.total_s);
                out.set("durable.replayed_records", r.replayed_records as f64);
                recovered = Some(r);
            }
            Err(e) => out.tally.record(Err(format!("recover {cycle}: {e}"))),
        }
    }
    out.set("recover_s", median(&recover_s));
    // Scored answers must be identical on the recovered engine.
    if let Some(r) = &recovered {
        for (i, (query, request)) in ready.list.iter().enumerate() {
            if matches!(query.verb(), Verb::Rank | Verb::Like) {
                let again = r.service.execute(request).map(|resp| resp.payload).ok();
                if again != rounds.saved[i] {
                    out.tally
                        .fail(format!("{request:?}: differs after recovery"));
                }
            }
        }
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&ready.dir);

    out.set(
        "proc.invol_ctx_switches",
        proc::involuntary_switches().saturating_sub(switches0) as f64,
    );
    out.set("rss_peak_mb", proc::rss_peak_mb());
    out.set("ok_share", out.tally.ok_share());
    Ok(out)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Check the sampled stream replies: each reply's epoch stamp decides
/// which documents the model considers visible.
fn check_stream(ready: &Ready, pool: &Pool, streamed: &Streamed, tally: &mut Tally) {
    tally.passed(streamed.latency_ms.len() as u64);
    for _ in 0..streamed.errors {
        tally.fail("stream: error reply".into());
    }
    for (draw, line) in &streamed.sampled {
        let query = &pool.queries[*draw as usize];
        let outcome = match parse_response(line) {
            Ok(Ok(response)) => match ready.visible.get(response.epoch as usize) {
                Some(&max_doc) => check::answer(&ready.corpus, query, max_doc, &response.payload),
                None => Err(format!(
                    "reply stamped with unknown epoch {}",
                    response.epoch
                )),
            },
            Ok(Err(e)) => Err(format!("{query:?}: {e}")),
            Err(e) => Err(format!("unparsable reply: {e}")),
        };
        if let Err(why) = outcome {
            tally.fail(why);
        }
    }
}
