//! `invidx` — a persistent command-line search engine over the
//! dual-structure incremental inverted index.
//!
//! ```sh
//! invidx init  ./myindex --policy "whole z prop 1.2" --disks 4
//! invidx init  ./lsm --engine segmented --l0-budget 1048576 --fanout 4
//! invidx add   ./myindex docs/*.txt            # each invocation = one batch
//! invidx search ./myindex "(cat and dog) or mouse"
//! invidx search ./myindex --stdin < queries.txt   # one engine, many queries
//! invidx phrase ./myindex "inverted lists"
//! invidx near  ./myindex cat dog 5
//! invidx like  ./myindex "incremental index updates" 5
//! invidx rank  ./myindex "incremental index updates" 5   # BM25 top-k
//! invidx show  ./myindex 3
//! invidx checkpoint ./myindex
//! invidx recover ./myindex
//! invidx stats ./myindex
//! invidx serve ./myindex --addr 127.0.0.1:7700   # TCP query server
//! ```
//!
//! New indexes are **durable**: the directory holds one file per simulated
//! disk (`disk-<N>.dat`), a write-ahead log (`wal.log`), an atomically
//! renamed checkpoint (`index.ckpt`), and a plain-text config
//! (`invidx.conf`). Every `add` is one WAL-committed batch — kill the
//! process at any point and the next command recovers to the last
//! committed batch.

use invidx::core::codec::PostingsCodec;
use invidx::core::index::{EngineKind, IndexConfig};
use invidx::core::policy::Policy;
use invidx::core::types::DocId;
use invidx::durable::{DurableOptions, StoreGeometry};
use invidx::ir::{DurableEngine, EngineQuery, QueryOutput};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Conf {
    policy: Policy,
    disks: u16,
    blocks: u64,
    block_size: usize,
    num_buckets: usize,
    bucket_units: u64,
    block_postings: u64,
    /// Ingest worker threads used when a command doesn't override them.
    ingest_threads: usize,
    /// Storage engine: in-place dual-structure or segment-tiered.
    engine: EngineKind,
    /// Long-list postings codec (fixed at init; the superblock rejects a
    /// mismatched reopen).
    codec: PostingsCodec,
}

impl Conf {
    fn defaults() -> Self {
        Self {
            policy: Policy::balanced(),
            disks: 2,
            blocks: 250_000,
            block_size: 1024,
            num_buckets: 512,
            bucket_units: 400,
            block_postings: 50,
            ingest_threads: 1,
            engine: EngineKind::InPlace,
            codec: PostingsCodec::Plain,
        }
    }

    fn index_config(&self) -> Result<IndexConfig, String> {
        IndexConfig::builder()
            .num_buckets(self.num_buckets)
            .bucket_capacity_units(self.bucket_units)
            .block_postings(self.block_postings)
            .policy(self.policy)
            .materialize_buckets(true)
            .ingest_threads(self.ingest_threads)
            .engine(self.engine)
            .postings_codec(self.codec)
            .build()
            .map_err(|e| format!("bad index configuration: {e}"))
    }

    fn geometry(&self) -> StoreGeometry {
        StoreGeometry {
            disks: self.disks,
            blocks_per_disk: self.blocks,
            block_size: self.block_size as u32,
        }
    }

    fn save(&self, dir: &Path) -> std::io::Result<()> {
        let mut text = format!(
            "policy={}\ndisks={}\nblocks={}\nblock_size={}\nnum_buckets={}\n\
             bucket_units={}\nblock_postings={}\ningest_threads={}\ncodec={}\n",
            self.policy.label(),
            self.disks,
            self.blocks,
            self.block_size,
            self.num_buckets,
            self.bucket_units,
            self.block_postings,
            self.ingest_threads,
            self.codec
        );
        match self.engine {
            EngineKind::InPlace => text.push_str("engine=inplace\n"),
            EngineKind::Segmented { l0_budget, fanout } => {
                text.push_str(&format!("engine=segmented\nl0_budget={l0_budget}\nfanout={fanout}\n"));
            }
        }
        std::fs::write(dir.join("invidx.conf"), text)
    }

    fn load(dir: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(dir.join("invidx.conf"))
            .map_err(|e| format!("not an index directory ({e})"))?;
        let mut conf = Self::defaults();
        for line in text.lines() {
            let Some((k, v)) = line.split_once('=') else { continue };
            match k {
                "policy" => conf.policy = v.parse()?,
                "disks" => conf.disks = v.parse().map_err(|e| format!("disks: {e}"))?,
                "blocks" => conf.blocks = v.parse().map_err(|e| format!("blocks: {e}"))?,
                "block_size" => {
                    conf.block_size = v.parse().map_err(|e| format!("block_size: {e}"))?
                }
                "num_buckets" => {
                    conf.num_buckets = v.parse().map_err(|e| format!("num_buckets: {e}"))?
                }
                "bucket_units" => {
                    conf.bucket_units = v.parse().map_err(|e| format!("bucket_units: {e}"))?
                }
                "block_postings" => {
                    conf.block_postings = v.parse().map_err(|e| format!("block_postings: {e}"))?
                }
                // Retired key: stores made while the block cache existed
                // still carry it; its value no longer configures anything.
                "cache_blocks" => {}
                "ingest_threads" => {
                    conf.ingest_threads = v.parse().map_err(|e| format!("ingest_threads: {e}"))?
                }
                "codec" => {
                    conf.codec = PostingsCodec::parse(v).map_err(|e| format!("codec: {e}"))?
                }
                "engine" => {
                    conf.engine = match v {
                        "inplace" => EngineKind::InPlace,
                        "segmented" => EngineKind::segmented(),
                        other => return Err(format!("unknown engine {other:?}")),
                    }
                }
                "l0_budget" => {
                    let budget: u64 = v.parse().map_err(|e| format!("l0_budget: {e}"))?;
                    match &mut conf.engine {
                        EngineKind::Segmented { l0_budget, .. } => *l0_budget = budget,
                        EngineKind::InPlace => {
                            return Err("l0_budget requires engine=segmented".into())
                        }
                    }
                }
                "fanout" => {
                    let n: u32 = v.parse().map_err(|e| format!("fanout: {e}"))?;
                    match &mut conf.engine {
                        EngineKind::Segmented { fanout, .. } => *fanout = n,
                        EngineKind::InPlace => {
                            return Err("fanout requires engine=segmented".into())
                        }
                    }
                }
                _ => return Err(format!("unknown config key {k:?}")),
            }
        }
        Ok(conf)
    }
}

/// A durable store directory carries its checkpoint file.
fn is_durable(dir: &Path) -> bool {
    dir.join("index.ckpt").exists()
}

fn open_engine(dir: &Path) -> Result<(DurableEngine, Conf), String> {
    open_engine_with(dir, DurableOptions::default(), None)
}

fn open_engine_with(
    dir: &Path,
    options: DurableOptions,
    ingest_threads: Option<usize>,
) -> Result<(DurableEngine, Conf), String> {
    let mut conf = Conf::load(dir)?;
    if let Some(threads) = ingest_threads {
        conf.ingest_threads = threads;
    }
    if !is_durable(dir) && dir.join("engine.meta").exists() {
        return Err(format!(
            "{} holds the retired legacy layout (engine.meta, no WAL or checkpoint), which \
             this version cannot open: `invidx init` a new directory and `invidx add` the \
             documents again",
            dir.display()
        ));
    }
    let engine = DurableEngine::open(dir, conf.index_config()?, options)
        .map_err(|e| format!("cannot recover index: {e}"))?;
    Ok((engine, conf))
}

/// Serve the index over TCP until killed: line protocol, bounded admission
/// queue, epoch-invalidated result cache (see `crates/serve`).
fn cmd_serve(dir: &Path, args: &[String]) -> Result<(), String> {
    use invidx::serve::{QueryService, ServeConfig, Server};
    let mut addr = "127.0.0.1:7700".to_string();
    let mut builder = ServeConfig::builder();
    let mut events: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |flag: &str| {
            args.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match args[i].as_str() {
            "--addr" => addr = value("--addr")?,
            "--readers" => {
                builder = builder
                    .readers(value("--readers")?.parse().map_err(|e| format!("readers: {e}"))?)
            }
            "--high-water" => {
                builder = builder.high_water(
                    value("--high-water")?.parse().map_err(|e| format!("high-water: {e}"))?,
                )
            }
            "--deadline-ms" => {
                let ms: u64 =
                    value("--deadline-ms")?.parse().map_err(|e| format!("deadline-ms: {e}"))?;
                builder = builder.deadline(std::time::Duration::from_millis(ms));
            }
            "--cache" => {
                builder = builder.result_cache_capacity(
                    value("--cache")?.parse().map_err(|e| format!("cache: {e}"))?,
                )
            }
            "--trace-sample" => {
                builder = builder.trace_sample(
                    value("--trace-sample")?
                        .parse()
                        .map_err(|e| format!("trace-sample: {e}"))?,
                )
            }
            "--slow-ms" => {
                builder = builder
                    .slow_query_ms(value("--slow-ms")?.parse().map_err(|e| format!("slow-ms: {e}"))?)
            }
            "--slo-target-ms" => {
                builder = builder.slo_target_ms(
                    value("--slo-target-ms")?
                        .parse()
                        .map_err(|e| format!("slo-target-ms: {e}"))?,
                )
            }
            "--slo-objective-ppm" => {
                builder = builder.slo_objective_ppm(
                    value("--slo-objective-ppm")?
                        .parse()
                        .map_err(|e| format!("slo-objective-ppm: {e}"))?,
                )
            }
            "--events" => events = Some(PathBuf::from(value("--events")?)),
            other => return Err(format!("unknown serve option {other:?}")),
        }
        i += 2;
    }
    if let Some(path) = &events {
        invidx::obs::init_event_sink(path)
            .map_err(|e| format!("cannot open event sink {}: {e}", path.display()))?;
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let (engine, _) = open_engine(dir)?;
    println!(
        "serving {} ({} docs, {} words; durable: WAL + CHECKPOINT verb available)",
        dir.display(),
        engine.total_docs(),
        engine.vocabulary_size(),
    );
    // Anchor serving epochs at the store's committed batch count so they
    // stay comparable across restarts (and with any replica tailing us).
    let epoch = engine.index().batches();
    let service = std::sync::Arc::new(
        QueryService::with_config_at(engine, config, epoch).map_err(|e| e.to_string())?,
    );
    let server = Server::bind(&addr, service, config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "listening on {} ({} readers, high-water {}, deadline {} ms, cache {})",
        server.addr(),
        config.readers,
        config.high_water,
        config.deadline.as_millis(),
        config.result_cache_capacity,
    );
    println!(
        "telemetry: trace 1/{} (0 = off), slow-query {} ms, SLO {} ms @ {} ppm{}",
        config.trace_sample,
        config.slow_query_ms,
        config.slo_target_ms,
        config.slo_objective_ppm,
        events.as_deref().map(|p| format!(", events -> {}", p.display())).unwrap_or_default(),
    );
    println!("protocol: QUERY | PHRASE | NEAR | LIKE | RANK | DOC | STATS | METRICS | PING | ADD | FLUSH | CHECKPOINT | QUIT");
    serve_until_killed(server.addr())
}

/// Print the `nc` one-liner for a listening endpoint, then serve until
/// the process is killed; connection threads do the work.
fn serve_until_killed(addr: std::net::SocketAddr) -> ! {
    println!("try:      printf 'QUERY cat and dog\\nQUIT\\n' | nc {} {}", addr.ip(), addr.port());
    loop {
        std::thread::park();
    }
}

/// Create a sharded deployment: a `router.conf` naming the partitioner
/// plus one full durable index directory per shard under `shard-<N>/`.
fn cmd_shard_init(dir: &Path, args: &[String]) -> Result<(), String> {
    use invidx::router::Partitioner;
    let mut conf = Conf::defaults();
    let mut shards = 2usize;
    let mut scheme = "range".to_string();
    let mut chunk = 1u64;
    let mut i = 0;
    while i < args.len() {
        let value = |flag: &str| {
            args.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match args[i].as_str() {
            "--shards" => {
                shards = value("--shards")?.parse().map_err(|e| format!("shards: {e}"))?
            }
            "--partition" => scheme = value("--partition")?,
            "--chunk" => chunk = value("--chunk")?.parse().map_err(|e| format!("chunk: {e}"))?,
            "--policy" => conf.policy = value("--policy")?.parse()?,
            "--disks" => {
                conf.disks = value("--disks")?.parse().map_err(|e| format!("disks: {e}"))?
            }
            "--blocks" => {
                conf.blocks = value("--blocks")?.parse().map_err(|e| format!("blocks: {e}"))?
            }
            "--block-size" => {
                conf.block_size =
                    value("--block-size")?.parse().map_err(|e| format!("block-size: {e}"))?
            }
            "--codec" => {
                conf.codec =
                    PostingsCodec::parse(&value("--codec")?).map_err(|e| format!("codec: {e}"))?
            }
            other => return Err(format!("unknown shard-init option {other:?}")),
        }
        i += 2;
    }
    let partitioner = match scheme.as_str() {
        "range" => Partitioner::Range { shards, chunk },
        "hash" => Partitioner::Hash { shards },
        other => return Err(format!("unknown partition scheme {other:?} (range | hash)")),
    };
    partitioner.validate().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    if dir.join("router.conf").exists() {
        return Err(format!("{} is already a sharded deployment", dir.display()));
    }
    for shard in 0..shards {
        let shard_dir = dir.join(format!("shard-{shard}"));
        std::fs::create_dir_all(&shard_dir).map_err(|e| e.to_string())?;
        DurableEngine::create(
            &shard_dir,
            conf.index_config()?,
            conf.geometry(),
            DurableOptions::default(),
        )
        .map_err(|e| format!("cannot create shard {shard}: {e}"))?;
        conf.save(&shard_dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(dir.join("router.conf"), format!("partition={}\n", partitioner.to_wire()))
        .map_err(|e| e.to_string())?;
    println!(
        "initialized {} ({shards} shards, '{}' partitioning, durable stores under shard-N/)",
        dir.display(),
        partitioner.to_wire(),
    );
    Ok(())
}

/// Serve a sharded deployment until killed: per-shard durable primaries
/// shipping their WAL to in-process read replicas, fronted by the
/// scatter-gather router speaking the routed line protocol
/// (`OK <e0,e1,...> <payload>`).
fn cmd_route(dir: &Path, args: &[String]) -> Result<(), String> {
    use invidx::router::{
        LocalShard, Partitioner, ReadPolicy, ReplicaSet, ReplicaTailer, Router, ShardBackend,
        TailerOptions,
    };
    use invidx::serve::{QueryService, ServeConfig, ServeEngine, Server};
    use std::sync::Arc;
    use std::time::Duration;
    let mut addr = "127.0.0.1:7800".to_string();
    let mut replicas = 1usize;
    let mut deadline_ms = 2_000u64;
    let mut hedge_ms = 250u64;
    let mut attempts = 2usize;
    let mut poll_ms = 20u64;
    let mut cache = 1024usize;
    let mut i = 0;
    while i < args.len() {
        let value = |flag: &str| {
            args.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match args[i].as_str() {
            "--addr" => addr = value("--addr")?,
            "--replicas" => {
                replicas = value("--replicas")?.parse().map_err(|e| format!("replicas: {e}"))?
            }
            "--deadline-ms" => {
                deadline_ms =
                    value("--deadline-ms")?.parse().map_err(|e| format!("deadline-ms: {e}"))?
            }
            "--hedge-ms" => {
                hedge_ms = value("--hedge-ms")?.parse().map_err(|e| format!("hedge-ms: {e}"))?
            }
            "--attempts" => {
                attempts = value("--attempts")?.parse().map_err(|e| format!("attempts: {e}"))?
            }
            "--poll-ms" => {
                poll_ms = value("--poll-ms")?.parse().map_err(|e| format!("poll-ms: {e}"))?
            }
            "--cache" => cache = value("--cache")?.parse().map_err(|e| format!("cache: {e}"))?,
            other => return Err(format!("unknown route option {other:?}")),
        }
        i += 2;
    }
    let spec = std::fs::read_to_string(dir.join("router.conf"))
        .map_err(|e| format!("not a sharded deployment ({e})"))?;
    let partitioner = spec
        .lines()
        .find_map(|line| line.strip_prefix("partition="))
        .ok_or_else(|| "router.conf has no partition= line".to_string())
        .and_then(|v| Partitioner::parse(v).map_err(|e| e.to_string()))?;
    let shards = partitioner.shards();
    let config =
        ServeConfig::builder().result_cache_capacity(cache).build().map_err(|e| e.to_string())?;
    // Primaries ship their WAL, so checkpoints stay off while routing —
    // a checkpoint would reset the log the replicas tail.
    let ship = DurableOptions { checkpoint_every: 0, ..DurableOptions::default() };
    let mut writers = Vec::with_capacity(shards);
    let mut primary_servers = Vec::with_capacity(shards);
    for shard in 0..shards {
        let shard_dir = dir.join(format!("shard-{shard}"));
        let conf = Conf::load(&shard_dir)?;
        let engine = DurableEngine::open(&shard_dir, conf.index_config()?, ship)
            .map_err(|e| format!("cannot open shard {shard}: {e}"))?;
        let epoch = ServeEngine::batches(&engine);
        let service = Arc::new(
            QueryService::with_config_at(engine, config, epoch).map_err(|e| e.to_string())?,
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), config)
            .map_err(|e| format!("shard {shard} primary server: {e}"))?;
        writers.push(service);
        primary_servers.push(server);
    }
    // Each replica is its own durable store under the shard directory,
    // kept caught up by tailing the primary's WALTAIL endpoint; the
    // primary itself closes every replica set as the fallback read.
    let mut tailers = Vec::new();
    let mut readers = Vec::with_capacity(shards);
    for shard in 0..shards {
        let shard_dir = dir.join(format!("shard-{shard}"));
        let conf = Conf::load(&shard_dir)?;
        let mut backends: Vec<Arc<dyn ShardBackend>> = Vec::new();
        for r in 0..replicas {
            let rdir = shard_dir.join(format!("replica-{r}"));
            let engine = if is_durable(&rdir) {
                DurableEngine::open(&rdir, conf.index_config()?, ship)
            } else {
                std::fs::create_dir_all(&rdir).map_err(|e| e.to_string())?;
                DurableEngine::create(&rdir, conf.index_config()?, conf.geometry(), ship)
            }
            .map_err(|e| format!("shard {shard} replica {r}: {e}"))?;
            let epoch = ServeEngine::batches(&engine);
            let service = Arc::new(
                QueryService::with_config_at(engine, config, epoch).map_err(|e| e.to_string())?,
            );
            tailers.push(ReplicaTailer::start(
                Arc::clone(&service),
                primary_servers[shard].addr(),
                TailerOptions {
                    poll: Duration::from_millis(poll_ms),
                    timeout: Duration::from_secs(2),
                    shard,
                },
            ));
            backends.push(Arc::new(LocalShard::new(service, format!("shard-{shard}/replica-{r}"))));
        }
        backends.push(Arc::new(LocalShard::new(
            Arc::clone(&writers[shard]),
            format!("shard-{shard}/primary"),
        )));
        readers.push(ReplicaSet::new(backends).map_err(|e| e.to_string())?);
    }
    let policy = ReadPolicy {
        deadline: Duration::from_millis(deadline_ms),
        hedge_after: (hedge_ms > 0).then(|| Duration::from_millis(hedge_ms)),
        max_attempts: attempts,
    };
    let router =
        Arc::new(Router::new(writers, readers, partitioner, policy).map_err(|e| e.to_string())?);
    println!(
        "routing {} ({shards} shards x {replicas} replica(s), '{}' partitioning, {} docs)",
        dir.display(),
        partitioner.to_wire(),
        router.total_docs(),
    );
    let server =
        Server::start(&addr, router).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "listening on {} (deadline {deadline_ms} ms, hedge {} , attempts {attempts})",
        server.addr(),
        if hedge_ms > 0 { format!("{hedge_ms} ms") } else { "off".into() },
    );
    println!("protocol: QUERY | PHRASE | NEAR | LIKE | RANK | DF | WLIKE | WRANK | DOC | STATS | METRICS | PING | ADD | FLUSH | QUIT");
    // `tailers` stays alive here so the replicas keep catching up in the
    // background.
    let _tailers = tailers;
    serve_until_killed(server.addr())
}

fn cmd_init(dir: &Path, args: &[String]) -> Result<(), String> {
    let mut conf = Conf::defaults();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--policy" => {
                conf.policy = args.get(i + 1).ok_or("--policy needs a value")?.parse()?;
                i += 2;
            }
            "--disks" => {
                conf.disks =
                    args.get(i + 1).ok_or("--disks needs a value")?.parse().map_err(|e| {
                        format!("disks: {e}")
                    })?;
                i += 2;
            }
            "--blocks" => {
                conf.blocks = args
                    .get(i + 1)
                    .ok_or("--blocks needs a value")?
                    .parse()
                    .map_err(|e| format!("blocks: {e}"))?;
                i += 2;
            }
            "--block-size" => {
                conf.block_size = args
                    .get(i + 1)
                    .ok_or("--block-size needs a value")?
                    .parse()
                    .map_err(|e| format!("block-size: {e}"))?;
                i += 2;
            }
            "--ingest-threads" => {
                conf.ingest_threads = args
                    .get(i + 1)
                    .ok_or("--ingest-threads needs a value")?
                    .parse()
                    .map_err(|e| format!("ingest-threads: {e}"))?;
                i += 2;
            }
            "--codec" => {
                conf.codec =
                    PostingsCodec::parse(args.get(i + 1).ok_or("--codec needs a value")?)
                        .map_err(|e| format!("codec: {e}"))?;
                i += 2;
            }
            "--engine" => {
                conf.engine = match args.get(i + 1).ok_or("--engine needs a value")?.as_str() {
                    "inplace" => EngineKind::InPlace,
                    "segmented" => match conf.engine {
                        seg @ EngineKind::Segmented { .. } => seg,
                        EngineKind::InPlace => EngineKind::segmented(),
                    },
                    other => {
                        return Err(format!("unknown engine {other:?} (inplace | segmented)"))
                    }
                };
                i += 2;
            }
            "--l0-budget" => {
                let budget: u64 = args
                    .get(i + 1)
                    .ok_or("--l0-budget needs a byte count")?
                    .parse()
                    .map_err(|e| format!("l0-budget: {e}"))?;
                conf.engine = match conf.engine {
                    EngineKind::Segmented { fanout, .. } => {
                        EngineKind::Segmented { l0_budget: budget, fanout }
                    }
                    EngineKind::InPlace => EngineKind::Segmented {
                        l0_budget: budget,
                        fanout: EngineKind::DEFAULT_FANOUT,
                    },
                };
                i += 2;
            }
            "--fanout" => {
                let n: u32 = args
                    .get(i + 1)
                    .ok_or("--fanout needs a segment count")?
                    .parse()
                    .map_err(|e| format!("fanout: {e}"))?;
                conf.engine = match conf.engine {
                    EngineKind::Segmented { l0_budget, .. } => {
                        EngineKind::Segmented { l0_budget, fanout: n }
                    }
                    EngineKind::InPlace => EngineKind::Segmented {
                        l0_budget: EngineKind::DEFAULT_L0_BUDGET,
                        fanout: n,
                    },
                };
                i += 2;
            }
            other => return Err(format!("unknown init option {other:?}")),
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    if dir.join("invidx.conf").exists() {
        return Err(format!("{} is already an index", dir.display()));
    }
    // Creation writes the batch-0 checkpoint, so the store is already
    // recoverable before the first add.
    DurableEngine::create(dir, conf.index_config()?, conf.geometry(), DurableOptions::default())
        .map_err(|e| format!("cannot create index: {e}"))?;
    conf.save(dir).map_err(|e| e.to_string())?;
    let engine = match conf.engine {
        EngineKind::InPlace => "in-place".to_string(),
        EngineKind::Segmented { l0_budget, fanout } => {
            format!("segmented, l0 {l0_budget} B, fanout {fanout}")
        }
    };
    println!(
        "initialized {} ({} disks x {} blocks x {} B, policy '{}', {engine}, durable (WAL + checkpoints))",
        dir.display(),
        conf.disks,
        conf.blocks,
        conf.block_size,
        conf.policy
    );
    Ok(())
}

fn cmd_add(dir: &Path, args: &[String]) -> Result<(), String> {
    let mut threads =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let mut files: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ingest-threads" => {
                threads = args
                    .get(i + 1)
                    .ok_or("--ingest-threads needs a value")?
                    .parse()
                    .map_err(|e| format!("ingest-threads: {e}"))?;
                if threads == 0 {
                    return Err("--ingest-threads must be at least 1".into());
                }
                i += 2;
            }
            f => {
                files.push(&args[i]);
                let _ = f;
                i += 1;
            }
        }
    }
    if files.is_empty() {
        return Err("add needs at least one file".into());
    }
    // Parallel batches overlap the WAL fsync with the in-place apply; a
    // single-threaded add keeps the fully sequential commit path.
    let options = DurableOptions::builder()
        .pipelined_wal(threads > 1)
        .build()
        .map_err(|e| format!("durable options: {e}"))?;
    let (mut engine, _) = open_engine_with(dir, options, Some(threads))?;
    let mut texts = Vec::with_capacity(files.len());
    for f in files.iter() {
        texts.push(std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?);
    }
    let refs: Vec<&str> = texts.iter().map(|t| t.as_str()).collect();
    let docs = engine.add_documents(&refs).map_err(|e| e.to_string())?;
    for (f, doc) in files.iter().zip(&docs) {
        println!("{f} -> doc {}", doc.0);
    }
    let report = engine.flush().map_err(|e| format!("flush: {e}"))?;
    println!(
        "batch {}: {} words ({} new), {} postings, {} evictions to long lists",
        report.batch, report.words, report.new_words, report.postings, report.evictions
    );
    Ok(())
}

/// Run one typed query against the index and print its answer.
fn cmd_query(dir: &Path, query: EngineQuery) -> Result<(), String> {
    let (engine, _) = open_engine(dir)?;
    match engine.execute(&query).map_err(|e| format!("query: {e}"))? {
        QueryOutput::Docs(list) => print_docs(list.docs()),
        QueryOutput::Hits(hits) => {
            if hits.is_empty() {
                println!("no matches");
            }
            for h in hits {
                println!("doc {}\tscore {:.3}", h.doc.0, h.score);
            }
        }
        QueryOutput::Dfs { docs, tokens, dfs } => {
            println!("{docs} docs, {tokens} tokens, document frequencies {dfs:?}")
        }
        QueryOutput::Text(Some(text)) => println!("{text}"),
        QueryOutput::Text(None) => match query {
            EngineQuery::Doc(doc) => println!("doc {} not found", doc.0),
            _ => println!("not found"),
        },
    }
    Ok(())
}

/// Parse one numeric command-line operand.
fn operand<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{what}: {e}"))
}

/// Batch query mode: recover/open the engine once, then run every line of
/// stdin as a boolean query against it. Opening the engine dominates the
/// cost of a single query, so this is the way to run query workloads from
/// the shell; one result line per query, tab-separated for scripting.
fn cmd_search_stdin(dir: &Path) -> Result<(), String> {
    use std::io::BufRead;
    let (engine, _) = open_engine(dir)?;
    let started = std::time::Instant::now();
    let mut queries = 0u64;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let query = line.trim();
        if query.is_empty() || query.starts_with('#') {
            continue;
        }
        queries += 1;
        match engine.execute(&EngineQuery::boolean(query)) {
            Ok(QueryOutput::Docs(hits)) if hits.is_empty() => println!("{query}\t-"),
            Ok(QueryOutput::Docs(hits)) => println!(
                "{query}\t{}",
                hits.docs().iter().map(|d| d.0.to_string()).collect::<Vec<_>>().join(",")
            ),
            Ok(other) => println!("{query}\terror: unexpected answer {other:?}"),
            Err(e) => println!("{query}\terror: {e}"),
        }
    }
    eprintln!(
        "{queries} queries in {:.1} ms (one engine open)",
        started.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

fn cmd_compact(dir: &Path) -> Result<(), String> {
    let (mut engine, _) = open_engine(dir)?;
    let report = engine.compact().map_err(|e| format!("compact: {e}"))?;
    println!(
        "compacted {} long lists: {} -> {} chunks, {} blocks freed",
        report.lists_rewritten, report.chunks_before, report.chunks_after, report.blocks_freed
    );
    Ok(())
}

/// Force a checkpoint now: snapshot the index + engine state and reset the
/// WAL, so the next open restores without replay.
fn cmd_checkpoint(dir: &Path) -> Result<(), String> {
    let (mut engine, _) = open_engine(dir)?;
    let bytes = engine.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    println!(
        "checkpoint at batch {} ({bytes} B); WAL reset to {} B",
        engine.index().last_checkpoint_batch().unwrap_or(0),
        engine.index().wal_size()
    );
    Ok(())
}

/// Run recovery explicitly and report what it did. Every command on a
/// durable store recovers on open; this one just shows the numbers — after
/// a crash, `invidx recover` tells you how much WAL was replayed and
/// whether a torn tail was truncated.
fn cmd_recover(dir: &Path) -> Result<(), String> {
    let (engine, _) = open_engine(dir)?;
    let info = engine.recovery().copied().unwrap_or_default();
    println!("checkpoint batch    {}", info.checkpoint_batch);
    println!("replayed records    {}", info.replayed_records);
    println!("skipped records     {}", info.skipped_records);
    println!("truncated bytes     {}", info.truncated_bytes);
    println!(
        "recovered: {} docs, {} words, batch {}",
        engine.total_docs(),
        engine.vocabulary_size(),
        engine.index().inner().batches()
    );
    Ok(())
}

fn cmd_stats(dir: &Path, metrics: bool) -> Result<(), String> {
    let (engine, conf) = open_engine(dir)?;
    // The core dual-structure index; for segmented engines this is the L0
    // index, with sealed segments above it.
    let ix = engine.index().inner();
    let d = ix.directory();
    println!("policy              {}", conf.policy);
    match conf.engine {
        EngineKind::InPlace => println!("engine              in-place"),
        EngineKind::Segmented { l0_budget, fanout } => {
            println!("engine              segmented (l0 budget {l0_budget} B, fanout {fanout})")
        }
    }
    println!("durability          WAL + checkpoints");
    println!("wal size            {} B", engine.index().wal_size());
    println!("last checkpoint     batch {}", engine.index().last_checkpoint_batch().unwrap_or(0));
    if let Some(ss) = engine.segment_stats() {
        println!("manifest generation {}", ss.generation);
        println!("sealed segments     {}", ss.segments);
        for (level, count, blocks) in &ss.levels {
            println!("  level {level:<3}         {count} segments, {blocks} blocks");
        }
        println!("segment postings    {}", ss.segment_postings);
        println!("segment blocks      {}", ss.segment_blocks);
        println!("l0 stored bytes     {}", ss.l0_bytes);
        println!("seals / merges      {} / {}", ss.seals, ss.merges);
        println!(
            "write amplification {:.2}",
            ss.write_amplification(conf.block_size)
        );
    }
    println!("documents           {}", engine.total_docs());
    println!("vocabulary          {}", engine.vocabulary_size());
    println!("batches flushed     {}", ix.batches());
    println!("short words         {}", ix.buckets().total_words());
    println!("short postings      {}", ix.buckets().total_postings());
    println!("long words          {}", d.num_words());
    println!("long postings       {}", d.total_postings());
    println!("long chunks         {}", d.total_chunks());
    println!("postings codec      {}", conf.codec);
    let raw = d.total_postings() * 4;
    let stored = d.total_stored_bytes();
    println!(
        "postings bytes      {raw} raw / {stored} stored ({:.2}x)",
        raw as f64 / stored.max(1) as f64
    );
    println!("avg reads/long list {:.2}", d.avg_reads_per_long_list());
    println!("long utilization    {:.2}", d.utilization(conf.block_postings));
    let (free, total) = ix
        .array()
        .per_disk_usage()
        .iter()
        .fold((0u64, 0u64), |(f, t), &(df, dt)| (f + df, t + dt));
    println!("disk usage          {} / {} blocks", total - free, total);
    if metrics {
        publish_index_gauges(&engine, &conf);
        println!();
        print!("{}", invidx::obs::snapshot().to_prometheus());
    }
    Ok(())
}

/// Publish the opened index's state into the metric registry as gauges, so
/// the rendered registry describes the on-disk index and not just whatever
/// counters this process happened to touch.
fn publish_index_gauges(engine: &DurableEngine, conf: &Conf) {
    use invidx::obs::gauge;
    let ix = engine.index().inner();
    let d = ix.directory();
    gauge!("index_documents").set(engine.total_docs() as i64);
    gauge!("index_vocabulary").set(engine.vocabulary_size() as i64);
    gauge!("index_batches_flushed").set(ix.batches() as i64);
    gauge!("index_short_words").set(ix.buckets().total_words() as i64);
    gauge!("index_short_postings").set(ix.buckets().total_postings() as i64);
    gauge!("index_bucket_units").set(ix.buckets().total_units() as i64);
    gauge!("index_long_words").set(d.num_words() as i64);
    gauge!("index_long_postings").set(d.total_postings() as i64);
    gauge!("index_long_chunks").set(d.total_chunks() as i64);
    gauge!("index_long_blocks").set(d.total_blocks() as i64);
    gauge!("index_long_raw_bytes").set((d.total_postings() * 4) as i64);
    gauge!("index_long_stored_bytes").set(d.total_stored_bytes() as i64);
    gauge!("index_wal_bytes").set(engine.index().wal_size() as i64);
    gauge!("index_last_checkpoint_batch").set(engine.index().last_checkpoint_batch().unwrap_or(0) as i64);
    if let Some(ss) = engine.segment_stats() {
        gauge!("index_segments").set(ss.segments as i64);
        gauge!("index_segment_blocks").set(ss.segment_blocks as i64);
        gauge!("index_segment_postings").set(ss.segment_postings as i64);
        gauge!("index_manifest_generation").set(ss.generation as i64);
    }
    // Utilization is a fraction in (0, 1]: doubling bounds 0.125..1.0.
    invidx::obs::histogram!(
        "index_long_utilization",
        invidx::obs::Buckets::exponential(0.125, 2.0, 4)
    )
    .record(d.utilization(conf.block_postings));
    for (disk, &(free, total)) in ix.array().per_disk_usage().iter().enumerate() {
        let used = invidx::obs::registry()
            .gauge(&invidx::obs::names::per_disk("disk_used_blocks", disk as u16));
        used.set((total - free) as i64);
        let cap = invidx::obs::registry()
            .gauge(&invidx::obs::names::per_disk("disk_total_blocks", disk as u16));
        cap.set(total as i64);
    }
}

/// Render the metric registry for an on-disk index. The gauges reflect the
/// index state; counters cover the work this process performed (directory
/// load, long-list reads when `--read <word>` is given).
fn cmd_metrics(dir: &Path, args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut watch: Option<u64> = None;
    let mut read_words: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--read" => {
                read_words.push(args.get(i + 1).ok_or("--read needs a word")?.clone());
                i += 2;
            }
            "--watch" => {
                let secs: u64 = args
                    .get(i + 1)
                    .ok_or("--watch needs a period in seconds")?
                    .parse()
                    .map_err(|e| format!("watch: {e}"))?;
                if secs == 0 {
                    return Err("--watch period must be at least 1 second".into());
                }
                watch = Some(secs);
                i += 2;
            }
            other => return Err(format!("unknown metrics option {other:?}")),
        }
    }
    loop {
        // Reopen per tick: another process (an `add`, the server) may have
        // moved the on-disk index since the last render.
        let (engine, conf) = open_engine(dir)?;
        // Optional read traffic so counter/histogram metrics show live
        // values.
        for w in &read_words {
            let out = engine
                .execute(&EngineQuery::boolean(w))
                .map_err(|e| format!("read {w:?}: {e}"))?;
            let matches = out.docs().map_or(0, |list| list.len());
            invidx::obs::log_progress("invidx", &format!("{w:?}: {matches} match(es)"));
        }
        publish_index_gauges(&engine, &conf);
        let snap = invidx::obs::snapshot();
        let Some(secs) = watch else {
            if json {
                println!("{}", snap.to_json());
            } else {
                print!("{}", snap.to_prometheus());
            }
            return Ok(());
        };
        // Watch mode: clear the terminal and redraw, `watch(1)`-style.
        print!("\x1b[2J\x1b[H");
        println!("# invidx metrics {} — every {secs}s, ctrl-c to stop", dir.display());
        if json {
            println!("{}", snap.to_json());
        } else {
            print!("{}", snap.to_prometheus());
        }
        use std::io::Write as _;
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
}

/// One poll of a running server: scrape the `METRICS` and `STATS` verbs
/// over an existing connection.
fn poll_server(
    client: &mut invidx::serve::Client,
) -> Result<(u64, invidx::obs::Snapshot, invidx::serve::ServeStats), String> {
    let mut text = String::new();
    let epoch: u64 = client
        .framed("METRICS", "METRICS", |line| {
            text.push_str(line);
            text.push('\n');
            Ok(())
        })
        .map_err(|e| format!("scrape METRICS: {e}"))?
        .map_err(|e| format!("METRICS failed: {e}"))?;
    let snap = invidx::obs::parse_prometheus(&text)
        .map_err(|e| format!("malformed exposition from server: {e}"))?;
    let resp = client
        .call(&invidx::serve::Request::Stats)
        .map_err(|e| format!("read STATS: {e}"))?
        .map_err(|e| format!("STATS failed: {e}"))?;
    let invidx::serve::Payload::Stats(stats) = resp.payload else {
        return Err(format!("STATS returned a non-stats payload: {:?}", resp.payload));
    };
    Ok((epoch, snap, stats))
}

/// How long `top` waits on the server for a connect or a reply.
const TOP_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Live dashboard over a running `invidx serve`: polls `METRICS` + `STATS`
/// and renders qps, tail latency, cache hit rates, shedding, SLO budget,
/// and WAL lag. `--once` prints a single frame (scripts, CI smoke tests).
fn cmd_top(addr: &str, args: &[String]) -> Result<(), String> {
    let mut interval = 2u64;
    let mut once = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--interval" => {
                interval = args
                    .get(i + 1)
                    .ok_or("--interval needs seconds")?
                    .parse()
                    .map_err(|e| format!("interval: {e}"))?;
                if interval == 0 {
                    return Err("--interval must be at least 1 second".into());
                }
                i += 2;
            }
            "--once" => {
                once = true;
                i += 1;
            }
            other => return Err(format!("unknown top option {other:?}")),
        }
    }
    let mut client = invidx::serve::Client::connect(addr, TOP_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let gauge = |snap: &invidx::obs::Snapshot, name: &str| -> i64 {
        snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    };
    let counter = |snap: &invidx::obs::Snapshot, name: &str| -> u64 {
        snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    };
    let rate = |hits: u64, misses: u64| -> f64 {
        let total = hits + misses;
        if total == 0 { 0.0 } else { hits as f64 / total as f64 }
    };
    let mut prev: Option<(std::time::Instant, u64)> = None;
    loop {
        let (epoch, snap, stats) = poll_server(&mut client)?;
        let now = std::time::Instant::now();
        let queries = counter(&snap, "serve_queries_total");
        let qps = match prev {
            Some((t, q)) if now > t => (queries.saturating_sub(q)) as f64
                / now.duration_since(t).as_secs_f64(),
            _ => 0.0,
        };
        prev = Some((now, queries));
        if !once {
            print!("\x1b[2J\x1b[H");
        }
        println!("invidx top — {addr} (every {interval}s, ctrl-c to stop)");
        println!();
        println!("epoch               {epoch}");
        println!("documents           {}", stats.docs);
        println!("qps                 {qps:.1}");
        println!(
            "latency p50/p95/p99 {:.2} / {:.2} / {:.2} ms",
            gauge(&snap, "serve_latency_p50_us") as f64 / 1e3,
            gauge(&snap, "serve_latency_p95_us") as f64 / 1e3,
            gauge(&snap, "serve_latency_p99_us") as f64 / 1e3,
        );
        println!("queue depth         {}", gauge(&snap, "serve_queue_depth"));
        println!(
            "result cache        {:.1}% hit ({} hits / {} misses, {} evictions, {} stale)",
            rate(stats.cache_hits, stats.cache_misses) * 100.0,
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
            stats.cache_stale_drops,
        );
        println!(
            "shed / timeouts     {} / {} ({:.2}% shed)",
            stats.shed,
            stats.timeouts,
            rate(stats.shed, stats.queries) * 100.0,
        );
        println!(
            "slo                 {:.1}% budget left, burn {:.2}x ({} violations / {} requests)",
            gauge(&snap, "slo_error_budget_remaining_ppm") as f64 / 1e4,
            gauge(&snap, "slo_burn_rate_x1000") as f64 / 1e3,
            counter(&snap, "slo_violations_total"),
            counter(&snap, "slo_requests_total"),
        );
        println!(
            "tracing             {} traces, {} slow queries logged",
            counter(&snap, "serve_traces_total"),
            counter(&snap, "serve_slow_queries_total"),
        );
        println!("wal lag             {} B", gauge(&snap, "index_wal_bytes"));
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(interval));
    }
}

fn print_docs(docs: &[DocId]) {
    if docs.is_empty() {
        println!("no matches");
        return;
    }
    println!(
        "{} match(es): {}",
        docs.len(),
        docs.iter().map(|d| d.0.to_string()).collect::<Vec<_>>().join(", ")
    );
}

/// Result budget of `like` and `rank` when the command line names none.
const DEFAULT_K: usize = 10;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  invidx init <dir> [--policy P] [--disks N] [--blocks N] [--block-size N]\n               \
         [--engine inplace|segmented] [--l0-budget BYTES] [--fanout N] [--codec plain|varint|bitpacked]\n  \
         invidx add <dir> [--ingest-threads N] <file...>\n  \
         invidx search <dir> <boolean query | --stdin>\n  \
         invidx phrase <dir> <phrase>\n  invidx near <dir> <w1> <w2> <window>\n  \
         invidx like <dir> <text> [k]\n  invidx rank <dir> <text> [k]\n  \
         invidx show <dir> <doc id>\n  \
         invidx compact <dir>\n  invidx checkpoint <dir>\n  invidx recover <dir>\n  \
         invidx stats <dir> [--metrics]\n  \
         invidx metrics <dir> [--json] [--read <word>]... [--watch <secs>]\n  \
         invidx serve <dir> [--addr H:P] [--readers N] [--high-water N] [--deadline-ms N] [--cache N]\n               \
         [--trace-sample N] [--slow-ms N] [--slo-target-ms N] [--slo-objective-ppm N] [--events <file>]\n  \
         invidx shard-init <dir> --shards N [--partition range|hash] [--chunk N] [--policy P] [--disks N]\n               \
         [--blocks N] [--block-size N] [--codec plain|varint|bitpacked]\n  \
         invidx route <dir> [--addr H:P] [--replicas N] [--deadline-ms N] [--hedge-ms N] [--attempts N]\n               \
         [--poll-ms N] [--cache N]\n  \
         invidx top <addr> [--interval <secs>] [--once]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some((dir, rest)) = rest.split_first() else {
        return usage();
    };
    let dir = PathBuf::from(dir);
    let result = match (cmd.as_str(), rest) {
        ("init", opts) => cmd_init(&dir, opts),
        ("add", files) => cmd_add(&dir, files),
        ("search", [flag]) if flag == "--stdin" => cmd_search_stdin(&dir),
        ("search", [q]) => cmd_query(&dir, EngineQuery::boolean(q)),
        ("phrase", [p]) => cmd_query(&dir, EngineQuery::phrase(p)),
        ("near", [a, b, w]) => operand(w, "window")
            .and_then(|window| cmd_query(&dir, EngineQuery::near(a, b, window))),
        ("like", [t]) => cmd_query(&dir, EngineQuery::like(t, DEFAULT_K)),
        ("like", [t, k]) => {
            operand(k, "k").and_then(|k| cmd_query(&dir, EngineQuery::like(t, k)))
        }
        // BM25 ranked top-k (WAND early termination; see `crates/ir/src/rank.rs`).
        ("rank", [t]) => cmd_query(&dir, EngineQuery::rank(t, DEFAULT_K)),
        ("rank", [t, k]) => {
            operand(k, "k").and_then(|k| cmd_query(&dir, EngineQuery::rank(t, k)))
        }
        ("show", [id]) => {
            operand(id, "doc id").and_then(|id| cmd_query(&dir, EngineQuery::Doc(DocId(id))))
        }
        ("compact", []) => cmd_compact(&dir),
        ("checkpoint", []) => cmd_checkpoint(&dir),
        ("recover", []) => cmd_recover(&dir),
        ("stats", []) => cmd_stats(&dir, false),
        ("stats", [flag]) if flag == "--metrics" => cmd_stats(&dir, true),
        ("metrics", opts) => cmd_metrics(&dir, opts),
        ("serve", opts) => cmd_serve(&dir, opts),
        ("shard-init", opts) => cmd_shard_init(&dir, opts),
        ("route", opts) => cmd_route(&dir, opts),
        // For `top` the positional argument is a host:port, not a dir.
        ("top", opts) => cmd_top(&dir.to_string_lossy(), opts),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
