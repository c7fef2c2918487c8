//! [`QueryService`]: the lock-free read path over published snapshots.
//!
//! Readers never take a lock on the engine. Each request atomically loads
//! the current [`ServeSnapshot`] — an `Arc` carrying `(epoch, materialized
//! engine view)` published as one unit — so the
//! epoch always names exactly the state the result was computed from,
//! which is what the result cache keys its invalidation on and what the
//! oracle tests replay against. The writer serializes through one mutex,
//! builds the next snapshot off to the side (incrementally: only posting
//! lists the batch dirtied are re-read), and publishes it at the commit
//! point, after the flush succeeds and before the epoch becomes visible.
//!
//! Writer operations are batch-atomic: [`QueryService::ingest_batch`] adds
//! the documents, flushes, and publishes one snapshot, so queries either
//! see none of the batch (the old snapshot) or all of it (the new one) —
//! visible state only changes at publication. Past the flush the commit is
//! durable, so the epoch always advances with the engine's batch count; a
//! materialization failure defers publication (readers keep the previous
//! snapshot, the lag is gauged) rather than desynchronizing the two.
//!
//! The result cache is sharded per core ([`ShardedCache`]): independent
//! LRU shards selected by key hash, per-shard counters summed for STATS.
//! A reader stuck on one shard's mutex delays nothing but itself.

use crate::cache::Lookup;
use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::request::{Payload, Request, Response, ServeStats};
use crate::snapshot::{Published, ReadGate, ServeSnapshot, ShardedCache};
use invidx_core::epoch::EpochCounter;
use invidx_core::index::BatchReport;
use invidx_ir::{Bm25Params, EngineQuery, QueryOutput};
use invidx_obs::names;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Largest `k` a `RANK` request may ask for; larger requests are rejected
/// as bad requests instead of burning a reader thread on an unbounded
/// heap. `RANK` is scored with [`Bm25Params::default`] — the same values
/// the router ships in its distributed `WRANK`, which is what keeps
/// sharded scores bit-identical to a single engine's.
pub const MAX_RANK_K: usize = 1000;

/// One configuration for the whole serving stack — the result cache
/// ([`QueryService`]) and admission control ([`crate::Frontend`]) read
/// from the same struct, so a deployment is described in one place.
///
/// Construct through [`ServeConfig::builder`], which validates the shape
/// at `build()` (readers and high-water must be positive, the deadline
/// non-zero) instead of panicking at first use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Result-cache capacity in entries; 0 disables result caching.
    pub result_cache_capacity: usize,
    /// Reader threads draining the admission queue.
    pub readers: usize,
    /// Queue depth at which new requests are shed.
    pub high_water: usize,
    /// Default per-request deadline, measured from admission.
    pub deadline: std::time::Duration,
    /// Trace one in this many requests (0 = tracing off, 1 = every
    /// request). Sampled requests emit a span tree on the event stream.
    pub trace_sample: u32,
    /// Slow-query threshold in milliseconds; served requests at or above
    /// it are logged as `slow_query` events (0 disables the threshold;
    /// shed and timed-out requests are always logged).
    pub slow_query_ms: u64,
    /// SLO latency target in milliseconds.
    pub slo_target_ms: u64,
    /// SLO availability objective in ppm of requests meeting the target
    /// (e.g. 999_000 = 99.9%).
    pub slo_objective_ppm: u32,
    /// Simulated per-read device floor applied to uncached query requests
    /// (zero = off). A load-experiment hook: the snapshot read path never
    /// touches the device, so saturation benches that model a seek-bound
    /// store inject the bounded per-lane service rate here.
    pub read_floor: std::time::Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            result_cache_capacity: 1024,
            readers: 4,
            high_water: 128,
            deadline: std::time::Duration::from_millis(500),
            trace_sample: 0,
            slow_query_ms: 250,
            slo_target_ms: 50,
            slo_objective_ppm: 999_000,
            read_floor: std::time::Duration::ZERO,
        }
    }
}

impl ServeConfig {
    /// Start from the defaults and override what you need.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { config: Self::default() }
    }
}

/// Builder for [`ServeConfig`]; obtained from [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Result-cache capacity in entries; 0 disables result caching.
    pub fn result_cache_capacity(mut self, entries: usize) -> Self {
        self.config.result_cache_capacity = entries;
        self
    }

    /// Reader threads draining the admission queue.
    pub fn readers(mut self, readers: usize) -> Self {
        self.config.readers = readers;
        self
    }

    /// Queue depth at which new requests are shed.
    pub fn high_water(mut self, depth: usize) -> Self {
        self.config.high_water = depth;
        self
    }

    /// Default per-request deadline, measured from admission.
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.config.deadline = deadline;
        self
    }

    /// Trace one in `every` requests (0 = off, 1 = all).
    pub fn trace_sample(mut self, every: u32) -> Self {
        self.config.trace_sample = every;
        self
    }

    /// Slow-query threshold in milliseconds (0 disables the threshold).
    pub fn slow_query_ms(mut self, ms: u64) -> Self {
        self.config.slow_query_ms = ms;
        self
    }

    /// SLO latency target in milliseconds.
    pub fn slo_target_ms(mut self, ms: u64) -> Self {
        self.config.slo_target_ms = ms;
        self
    }

    /// SLO availability objective in ppm (e.g. 999_000 = 99.9%).
    pub fn slo_objective_ppm(mut self, ppm: u32) -> Self {
        self.config.slo_objective_ppm = ppm;
        self
    }

    /// Simulated per-read device floor for uncached queries (zero = off).
    pub fn read_floor(mut self, floor: std::time::Duration) -> Self {
        self.config.read_floor = floor;
        self
    }

    /// Validate and produce the config. All shape invariants are checked
    /// here, so a `ServeConfig` in hand is always safe to start a
    /// [`crate::Frontend`] with.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        let c = &self.config;
        if c.readers == 0 {
            return Err(ServeError::Config("readers must be >= 1".into()));
        }
        if c.high_water == 0 {
            return Err(ServeError::Config("high-water mark must be >= 1".into()));
        }
        if c.deadline.is_zero() {
            return Err(ServeError::Config("deadline must be non-zero".into()));
        }
        if c.slo_target_ms == 0 {
            return Err(ServeError::Config("SLO target must be non-zero".into()));
        }
        if !(1..=999_999).contains(&c.slo_objective_ppm) {
            return Err(ServeError::Config(
                "SLO objective must be in [1, 999999] ppm".into(),
            ));
        }
        Ok(self.config)
    }
}

/// Per-service counters, mirrored into the global `invidx-obs` registry so
/// dashboards see them, but readable per instance so tests don't race each
/// other through process-global state.
///
/// Each local counter is paired with its resolved global handle at
/// construction. (An earlier version mirrored through the `counter!`
/// macro inside a shared helper — but that macro caches its handle per
/// *call site*, so every name funneled through one helper incremented
/// whichever global counter was resolved first.)
#[derive(Debug)]
pub struct ServeCounters {
    queries: MirroredCounter,
    cache_hits: MirroredCounter,
    cache_misses: MirroredCounter,
    shed: MirroredCounter,
    timeouts: MirroredCounter,
    batches: MirroredCounter,
}

/// A per-instance counter plus its global-registry mirror.
#[derive(Debug)]
struct MirroredCounter {
    local: AtomicU64,
    global: std::sync::Arc<invidx_obs::Counter>,
}

impl MirroredCounter {
    fn new(name: &str) -> Self {
        Self { local: AtomicU64::new(0), global: invidx_obs::registry().counter(name) }
    }

    fn inc(&self) {
        self.local.fetch_add(1, Ordering::Relaxed);
        self.global.inc();
    }

    fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

impl Default for ServeCounters {
    fn default() -> Self {
        Self {
            queries: MirroredCounter::new(names::SERVE_QUERIES),
            cache_hits: MirroredCounter::new(names::SERVE_CACHE_HITS),
            cache_misses: MirroredCounter::new(names::SERVE_CACHE_MISSES),
            shed: MirroredCounter::new(names::SERVE_SHED),
            timeouts: MirroredCounter::new(names::SERVE_TIMEOUTS),
            batches: MirroredCounter::new(names::SERVE_BATCHES),
        }
    }
}

impl ServeCounters {

    /// Count one shed request (admission rejection).
    pub fn count_shed(&self) {
        self.shed.inc();
    }

    /// Count one queue-deadline expiry.
    pub fn count_timeout(&self) {
        self.timeouts.inc();
    }

    /// Requests shed so far.
    pub fn shed(&self) -> u64 {
        self.shed.get()
    }

    /// Requests expired so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.get()
    }

    /// Cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }
}

/// A serving handle over an engine: lock-free snapshot reads, one
/// serialized writer.
pub struct QueryService<E> {
    /// The live engine — touched only by writer operations (ingest,
    /// replication, checkpoint) and never on the query path.
    writer: Mutex<E>,
    epoch: EpochCounter,
    /// The published `(epoch, view, block stats)` readers load atomically.
    current: Published,
    cache: ShardedCache,
    counters: ServeCounters,
    telemetry: crate::telemetry::Telemetry,
    /// Stalls readers for `with_blocked_writer` (test determinism only).
    gate: ReadGate,
    /// Simulated device floor for uncached reads (see
    /// [`ServeConfig::read_floor`]); zero in production configs.
    read_floor: std::time::Duration,
    /// Last WAL-bytes value successfully read from the engine, re-published
    /// when a scrape can't reach a busy writer. `u64::MAX` = never known
    /// (volatile engine): nothing to re-publish.
    last_wal: AtomicU64,
}

impl<E: ServeEngine> QueryService<E> {
    /// Wrap an engine for serving. Materializes and publishes the initial
    /// snapshot, so an engine opened over existing data serves it at once;
    /// fails if that first materialization does.
    pub fn with_config(engine: E, config: ServeConfig) -> Result<Self, ServeError> {
        Self::with_config_at(engine, config, 0)
    }

    /// Wrap an engine for serving with the epoch anchored at `epoch` —
    /// normally the engine's committed batch count, so that epochs stay
    /// comparable across restarts and across a replication pair (the lag
    /// gauge is *primary epoch − replica epoch*, which only means anything
    /// when both sides count from the same durable state).
    pub fn with_config_at(
        mut engine: E,
        config: ServeConfig,
        epoch: u64,
    ) -> Result<Self, ServeError> {
        let view = engine.snapshot(None).map_err(ServeError::Engine)?;
        let wal = engine.wal_bytes();
        Ok(Self {
            writer: Mutex::new(engine),
            epoch: EpochCounter::starting_at(epoch),
            current: Published::new(ServeSnapshot { epoch, view: Arc::new(view) }),
            cache: ShardedCache::new(config.result_cache_capacity),
            counters: ServeCounters::default(),
            telemetry: crate::telemetry::Telemetry::new(&config),
            gate: ReadGate::default(),
            read_floor: config.read_floor,
            last_wal: AtomicU64::new(wal.unwrap_or(u64::MAX)),
        })
    }

    /// The current batch epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Unwrap the service and hand the engine back (e.g. to close it
    /// cleanly or reopen a durable store).
    pub fn into_engine(self) -> E {
        self.writer.into_inner()
    }

    /// The per-service counters (shared with the admission layer).
    pub fn counters(&self) -> &ServeCounters {
        &self.counters
    }

    /// The per-service telemetry (trace sampling, live quantiles, SLO).
    pub fn telemetry(&self) -> &crate::telemetry::Telemetry {
        &self.telemetry
    }

    /// Refresh derived gauges (live quantiles, SLO budget, epoch, WAL
    /// lag) in the global registry. Uses `try_lock` on the writer so a
    /// wedged writer cannot stall a metrics scrape; a skipped refresh is
    /// counted (`serve_gauge_scrape_skipped_total`) and the last-known
    /// WAL value is re-published, so dashboards can tell "no WAL growth"
    /// from "scrape skipped under a wedged writer". A scrape that does
    /// get the writer lock also retries any deferred snapshot publication
    /// (commit succeeded, materialization failed), so committed state
    /// becomes visible even on a write-quiet service.
    pub fn publish_gauges(&self) {
        self.telemetry.publish_gauges();
        let epoch = self.epoch.get();
        invidx_obs::gauge!(names::SERVE_EPOCH).set(epoch as i64);
        match self.writer.try_lock() {
            Some(mut engine) => {
                if self.current.load().epoch < epoch {
                    self.publish_committed(&mut engine, epoch);
                }
                if let Some(wal) = engine.wal_bytes() {
                    self.last_wal.store(wal, Ordering::Relaxed);
                    invidx_obs::gauge!(names::INDEX_WAL_BYTES).set(wal as i64);
                }
            }
            None => {
                invidx_obs::counter!(names::SERVE_GAUGE_SCRAPE_SKIPPED).inc();
                let last = self.last_wal.load(Ordering::Relaxed);
                if last != u64::MAX {
                    invidx_obs::gauge!(names::INDEX_WAL_BYTES).set(last as i64);
                }
            }
        }
        invidx_obs::gauge!(names::SERVE_PUBLISH_LAG)
            .set(epoch.saturating_sub(self.current.load().epoch) as i64);
    }

    /// Render the full Prometheus text exposition for this process,
    /// refreshing derived gauges first and flushing any buffered event
    /// sink so scrapes and trace files stay in step. Backs the `METRICS`
    /// protocol verb.
    pub fn render_metrics(&self) -> String {
        self.publish_gauges();
        invidx_obs::flush_events();
        invidx_obs::snapshot().to_prometheus()
    }

    /// Execute one read request against an atomically loaded snapshot,
    /// consulting the result cache for cacheable requests. Takes no
    /// engine lock: the snapshot pins a coherent `(epoch, state)` pair
    /// for the whole request, however long the writer runs concurrently.
    pub fn execute(&self, request: &Request) -> Result<Response, ServeError> {
        self.counters.queries.inc();
        // With the engine stage down to RAM speed, the prelude (gate
        // check, snapshot load, query normalization) is a visible slice
        // of the latency — stage it so traces still decompose.
        let (snap, key) = {
            let _stage = invidx_obs::trace::stage("snapshot");
            self.gate.wait_if_stalled();
            (self.current.load(), request.cache_key())
        };
        let epoch = snap.epoch;
        if let Some(key) = &key {
            let probe = {
                let _stage = invidx_obs::trace::stage("cache");
                invidx_obs::trace::add_items(1);
                self.cache.get(key, epoch)
            };
            let (cached, outcome) = probe;
            self.count_lookup(outcome);
            if let Some(payload) = cached {
                return Ok(Response { epoch, payload });
            }
        }
        let payload = {
            let _stage = invidx_obs::trace::stage("engine");
            self.run(&snap, request)?
        };
        if let Some(key) = key {
            // Stamped with the snapshot's own epoch: even if a newer
            // snapshot published meanwhile, the entry names the state it
            // was computed from and lazily drops as stale.
            let _stage = invidx_obs::trace::stage("cache");
            self.cache.insert(key, epoch, payload.clone());
        }
        Ok(Response { epoch, payload })
    }

    /// Translate the wire request into one typed [`EngineQuery`]
    /// ([`Request::engine_query`]) and run it through the snapshot's
    /// `execute`.
    fn run(&self, snap: &ServeSnapshot, request: &Request) -> Result<Payload, ServeError> {
        if !self.read_floor.is_zero() {
            if let Request::Boolean(_)
            | Request::Phrase(_)
            | Request::Near(..)
            | Request::Like(..)
            | Request::Rank(..)
            | Request::Doc(_) = request
            {
                std::thread::sleep(self.read_floor);
            }
        }
        let engine_err = |e: invidx_core::types::IndexError| match e {
            invidx_core::types::IndexError::InvalidConfig(msg) => ServeError::BadRequest(msg),
            other => ServeError::Engine(other.to_string()),
        };
        let Some(query) = request.engine_query(Bm25Params::default()) else {
            return match request {
                Request::Stats => Ok(Payload::Stats(self.stats_from(snap))),
                Request::Ping => Ok(Payload::Pong),
                other => Err(ServeError::BadRequest(format!("{} is not a query", other.to_wire()))),
            };
        };
        if let EngineQuery::Rank { k, .. } = &query {
            if *k > MAX_RANK_K {
                return Err(ServeError::BadRequest(format!(
                    "RANK k {k} exceeds the configured ceiling {MAX_RANK_K}"
                )));
            }
        }
        Ok(match snap.view.execute(&query).map_err(engine_err)? {
            QueryOutput::Docs(list) => Payload::Docs(to_ids(&list)),
            QueryOutput::Hits(hits) => {
                Payload::Hits(hits.into_iter().map(|h| (h.doc.0, h.score)).collect())
            }
            QueryOutput::Dfs { docs, tokens, dfs } => Payload::Df { docs, tokens, dfs },
            QueryOutput::Text(text) => Payload::Text(text),
        })
    }

    fn count_lookup(&self, outcome: Lookup) {
        match outcome {
            Lookup::Hit => self.counters.cache_hits.inc(),
            Lookup::Miss => self.counters.cache_misses.inc(),
            Lookup::Stale => {
                // A stale drop is also a miss from the caller's viewpoint.
                self.counters.cache_misses.inc();
                invidx_obs::counter!(names::SERVE_CACHE_STALE_DROPS).inc();
            }
        }
    }

    /// Build and publish the next snapshot from the engine's state. Must
    /// be called with the writer mutex held; `epoch` is what readers will
    /// see as the current epoch. An `incremental` materialization re-reads
    /// only the posting lists dirtied since the last *successful* snapshot
    /// (the engine clears its dirty set only when materialization
    /// completes) — that is where all disk traffic for the read path
    /// happens now.
    fn try_publish(
        &self,
        engine: &mut E,
        epoch: u64,
        incremental: bool,
    ) -> Result<(), ServeError> {
        let prev = self.current.load();
        let view = engine
            .snapshot(if incremental { Some(&prev.view) } else { None })
            .map_err(ServeError::Engine)?;
        if let Some(wal) = engine.wal_bytes() {
            self.last_wal.store(wal, Ordering::Relaxed);
        }
        self.current.publish(ServeSnapshot { epoch, view: Arc::new(view) });
        Ok(())
    }

    /// Publish after a commit the engine has already made durable. Past
    /// the commit point a materialization error must not unwind into the
    /// caller: the engine is at the next batch whatever happens here, and
    /// propagating an `Err` used to leave the epoch counter behind the
    /// batch count — a re-shipped WAL record was then rejected by the
    /// replica's gap check ("gap or replay"), wedging replication until a
    /// restart. So: try the incremental materialization, fall back to a
    /// full rebuild (the dirty set is intact after a failure, so both are
    /// safe), and if even that fails, *defer* — the caller still bumps
    /// the epoch in lockstep with the commit, readers keep the previous
    /// snapshot, and the still-dirty engine state folds into the next
    /// publication attempt (the next commit, or [`Self::publish_gauges`]'s
    /// catch-up). Deferrals are counted (`serve_publish_deferred_total`)
    /// and surface as the `serve_publish_lag_batches` gauge.
    fn publish_committed(&self, engine: &mut E, epoch: u64) {
        if self.try_publish(engine, epoch, true).is_ok() {
            return;
        }
        if self.try_publish(engine, epoch, false).is_err() {
            invidx_obs::counter!(names::SERVE_PUBLISH_DEFERRED).inc();
        }
    }

    /// Ingest one batch atomically: add every document, flush, publish
    /// the next snapshot, bump the epoch. Queries either see none of the
    /// batch (the old snapshot) or all of it (the new one). Returns the
    /// report and the new epoch. When telemetry samples this ingest, the
    /// batch emits a span tree (`add`/`flush`/`publish`, with the
    /// disk stages nested under `publish`).
    pub fn ingest_batch<S: AsRef<str>>(
        &self,
        texts: &[S],
    ) -> Result<(BatchReport, u64), ServeError> {
        let mut engine = self.writer.lock();
        let trace = self.telemetry.sample();
        if let Some(ctx) = trace {
            invidx_obs::trace::install(ctx);
        }
        let outcome = self.ingest_locked(&mut engine, texts);
        if let Some(ctx) = invidx_obs::trace::uninstall() {
            let label = format!("INGEST {}", texts.len());
            ctx.finish(&label, if outcome.is_ok() { "served" } else { "error" });
        }
        outcome
    }

    fn ingest_locked<S: AsRef<str>>(
        &self,
        engine: &mut E,
        texts: &[S],
    ) -> Result<(BatchReport, u64), ServeError> {
        {
            let _stage = invidx_obs::trace::stage("add");
            invidx_obs::trace::add_items(texts.len() as u64);
            for text in texts {
                engine.add_document(text.as_ref()).map_err(ServeError::Engine)?;
            }
        }
        let report = {
            let _stage = invidx_obs::trace::stage("flush");
            engine.flush().map_err(ServeError::Engine)?
        };
        // Publish before the epoch counter moves: a reader loads the
        // snapshot (state and epoch travel together), so at worst it
        // briefly sees the new state under the new epoch while `epoch()`
        // still reports the old value — never new state under an old
        // snapshot. The bump is unconditional: the flush committed, so the
        // epoch tracks the engine's batch count even when publication is
        // deferred (see `publish_committed`).
        let epoch = self.epoch.get() + 1;
        {
            let _stage = invidx_obs::trace::stage("publish");
            self.publish_committed(engine, epoch);
        }
        let epoch = self.epoch.bump();
        self.counters.batches.inc();
        Ok((report, epoch))
    }

    /// Apply one shipped WAL record under the writer mutex (the replica
    /// half of WAL shipping), publish, and bump the epoch, exactly as the
    /// equivalent local write would have. When the service was constructed
    /// with [`Self::with_config_at`] over the engine's batch count, this
    /// keeps `epoch == batches` on the replica, so replication lag is
    /// directly the primary/replica epoch delta. Returns the new epoch.
    ///
    /// The epoch advances with the commit even if snapshot publication
    /// fails (the record is in the replica's own WAL from the moment
    /// `apply_replicated` returns on the engine): returning an error with
    /// the epoch left behind would make the tailer re-request this batch
    /// and trip the engine's gap check, wedging replication. A deferred
    /// publication leaves readers on the previous snapshot until the next
    /// record or metrics scrape republishes.
    pub fn apply_replicated(&self, record: &invidx_durable::WalRecord) -> Result<u64, ServeError> {
        let mut engine = self.writer.lock();
        engine.apply_replicated(record).map_err(ServeError::Engine)?;
        self.publish_committed(&mut engine, self.epoch.get() + 1);
        let epoch = self.epoch.bump();
        self.counters.batches.inc();
        drop(engine);
        Ok(epoch)
    }

    /// Write a durable checkpoint (no-op `Ok(None)` for volatile engines).
    /// Readers keep serving from the published snapshot throughout; the
    /// visible state does not change, so the epoch does not move.
    pub fn checkpoint(&self) -> Result<Option<u64>, ServeError> {
        self.writer.lock().checkpoint().map_err(ServeError::Engine)
    }

    /// Hold the writer mutex *and* stall the read path for the duration of
    /// `f`, without touching the engine or the epoch — a deterministic way
    /// for tests to wedge the service the way a stuck writer once could.
    #[doc(hidden)]
    pub fn with_blocked_writer(&self, f: impl FnOnce()) {
        let _guard = self.writer.lock();
        // Drop-guard so a panicking closure still releases the readers.
        struct Unstall<'a>(&'a ReadGate);
        impl Drop for Unstall<'_> {
            fn drop(&mut self) {
                self.0.unstall();
            }
        }
        self.gate.stall();
        let _release = Unstall(&self.gate);
        f();
    }

    /// Hold every result-cache shard lock for the duration of `f` — the
    /// deterministic wedge for proving the writer no longer waits on the
    /// result cache.
    #[doc(hidden)]
    pub fn with_blocked_cache(&self, f: impl FnOnce()) {
        self.cache.with_blocked(f);
    }

    /// Run a closure with access to the live engine and the current epoch
    /// (oracle tests use this to snapshot ground truth; the router uses it
    /// for WAL shipping). Serializes with the writer.
    pub fn with_read<R>(&self, f: impl FnOnce(u64, &E) -> R) -> R {
        let engine = self.writer.lock();
        f(self.epoch.get(), &engine)
    }

    /// Serving counters plus engine totals, from the published snapshot.
    pub fn stats(&self) -> ServeStats {
        self.stats_from(&self.current.load())
    }

    fn stats_from(&self, snap: &ServeSnapshot) -> ServeStats {
        let (evictions, stale_drops) = self.cache.totals();
        ServeStats {
            docs: snap.view.total_docs(),
            queries: self.counters.queries.get(),
            cache_hits: self.counters.cache_hits.get(),
            cache_misses: self.counters.cache_misses.get(),
            cache_evictions: evictions,
            cache_stale_drops: stale_drops,
            shed: self.counters.shed.get(),
            timeouts: self.counters.timeouts.get(),
            batches: self.counters.batches.get(),
        }
    }
}

fn to_ids(list: &invidx_core::postings::PostingList) -> Vec<u32> {
    list.docs().iter().map(|d| d.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use invidx_core::index::IndexConfig;
    use invidx_disk::sparse_array;
    use invidx_ir::DurableEngine;

    fn service(cache: usize) -> QueryService<DurableEngine> {
        let array = sparse_array(2, 50_000, 256);
        let engine = DurableEngine::without_log(array, IndexConfig::small()).unwrap();
        let config = ServeConfig::builder().result_cache_capacity(cache).build().unwrap();
        QueryService::with_config(engine, config).unwrap()
    }

    #[test]
    fn builder_validates_shape() {
        let c = ServeConfig::builder()
            .result_cache_capacity(0)
            .readers(2)
            .high_water(7)
            .deadline(std::time::Duration::from_millis(100))
            .build()
            .unwrap();
        assert_eq!(
            (c.result_cache_capacity, c.readers, c.high_water),
            (0, 2, 7)
        );
        assert!(ServeConfig::builder().readers(0).build().is_err());
        assert!(ServeConfig::builder().high_water(0).build().is_err());
        assert!(ServeConfig::builder().deadline(std::time::Duration::ZERO).build().is_err());
    }

    /// `RANK` serves BM25 hits from the published snapshot, agrees
    /// bit-exactly with the live engine's WAND ranker, and enforces the
    /// k ceiling.
    #[test]
    fn rank_serves_bm25_from_the_snapshot() {
        let s = service(1024);
        s.ingest_batch(&[
            "the cat sat on the mat",
            "the dog chased the cat around",
            "a cat and a cat and a cat",
        ])
        .unwrap();
        let resp = s.execute(&Request::Rank(2, "cat dog".into())).unwrap();
        let Payload::Hits(hits) = resp.payload else { panic!("expected hits") };
        assert_eq!(hits.len(), 2);
        let oracle = s.with_read(|_, e| {
            let params = Bm25Params::default();
            e.execute(&EngineQuery::Rank { text: "cat dog".into(), k: 2, params }).unwrap()
        });
        assert_eq!(oracle.hits().unwrap().len(), 2);
        for (got, want) in hits.iter().zip(oracle.hits().unwrap()) {
            assert_eq!(
                (got.0, got.1.to_bits()),
                (want.doc.0, want.score.to_bits()),
                "served RANK must match the engine ranker bit-exactly"
            );
        }
        // Repeats come from the result cache and answer identically.
        let again = s.execute(&Request::Rank(2, "cat dog".into())).unwrap();
        assert_eq!(Payload::Hits(hits), again.payload);
        assert_eq!(s.stats().cache_hits, 1);
        // Beyond the ceiling: typed rejection, not an unbounded heap.
        assert!(s.execute(&Request::Rank(MAX_RANK_K, "cat".into())).is_ok());
        let err = s.execute(&Request::Rank(1001, "cat".into())).unwrap_err();
        assert_eq!(err.code(), "badrequest");
    }

    /// The DF payload carries the token count the router's distributed
    /// BM25 needs for the corpus-global average document length.
    #[test]
    fn df_carries_corpus_token_count() {
        let s = service(16);
        s.ingest_batch(&["one two three", "four five"]).unwrap();
        let resp = s.execute(&Request::Df(vec!["one".into(), "nope".into()])).unwrap();
        assert_eq!(
            resp.payload,
            Payload::Df { docs: 2, tokens: 5, dfs: vec![1, 0] }
        );
    }

    fn docs_of(resp: &Response) -> Vec<u32> {
        match &resp.payload {
            Payload::Docs(ids) => ids.clone(),
            other => panic!("expected docs, got {other:?}"),
        }
    }

    #[test]
    fn queries_see_batches_atomically() {
        let s = service(16);
        assert_eq!(s.epoch(), 0);
        let (report, epoch) =
            s.ingest_batch(&["the cat sat on the mat", "the dog chased the cat"]).unwrap();
        assert_eq!((report.batch, epoch), (0, 1)); // batches are 0-based, epochs count flushes
        let resp = s.execute(&Request::Boolean("cat and dog".into())).unwrap();
        assert_eq!((resp.epoch, docs_of(&resp)), (1, vec![2]));
        let resp = s.execute(&Request::Near("cat".into(), "dog".into(), 3)).unwrap();
        assert_eq!(docs_of(&resp), vec![2]);
        let resp = s.execute(&Request::Doc(1)).unwrap();
        assert_eq!(resp.payload, Payload::Text(Some("the cat sat on the mat".into())));
    }

    #[test]
    fn cache_serves_repeats_and_epoch_invalidates() {
        let s = service(16);
        s.ingest_batch(&["alpha beta gamma"]).unwrap();
        let q = Request::Boolean("alpha".into());
        let first = s.execute(&q).unwrap();
        let second = s.execute(&q).unwrap();
        assert_eq!(first, second);
        let stats = s.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        // New batch changes the answer; the stale entry must not serve.
        s.ingest_batch(&["alpha again here"]).unwrap();
        let third = s.execute(&q).unwrap();
        assert_eq!(docs_of(&third), vec![1, 2]);
        assert_eq!(third.epoch, 2);
        assert_eq!(s.stats().cache_stale_drops, 1);
    }

    #[test]
    fn uncacheable_requests_bypass_the_cache() {
        let s = service(16);
        s.ingest_batch(&["one document"]).unwrap();
        s.execute(&Request::Doc(1)).unwrap();
        s.execute(&Request::Ping).unwrap();
        s.execute(&Request::Stats).unwrap();
        let stats = s.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
        assert_eq!(stats.queries, 3);
    }

    #[test]
    fn bad_queries_are_typed_bad_requests() {
        let s = service(4);
        s.ingest_batch(&["some text"]).unwrap();
        let err = s.execute(&Request::Boolean("(cat and".into())).unwrap_err();
        assert_eq!(err.code(), "badrequest");
    }

    #[test]
    fn stats_snapshot_counts() {
        let s = service(2);
        s.ingest_batch(&["a b c", "b c d"]).unwrap();
        let q = Request::Boolean("b".into());
        s.execute(&q).unwrap();
        s.execute(&q).unwrap();
        let stats = s.stats();
        assert_eq!(stats.docs, 2);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.cache_hits, 1);
    }
}
