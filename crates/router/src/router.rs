//! The scatter-gather core: one logical index over N shards.
//!
//! Reads fan out to every shard's [`ReplicaSet`] concurrently and the
//! per-shard answers are merged; writes route each document to its owning
//! shard through the [`PartitionMap`] and flush per shard, batch-atomically.
//! Every routed response carries an **epoch vector** — one epoch per
//! shard — in place of the single-shard epoch, and the correctness claim
//! is the single-shard one lifted pointwise: the response equals what an
//! unsharded engine would answer over exactly the documents visible at
//! those per-shard epochs. On the wire the vector is the reply's stamp
//! (`OK 4,3,4 ...`, [`RoutedResponse::to_wire`]) over the shards' own
//! payload codec, and `impl Endpoint for Router` at the bottom of the
//! response types is all it takes for `invidx_serve::Server` to serve a
//! router: there is no second listener loop.
//!
//! Two merges deserve their footnotes:
//!
//! * **Doc lists** — shards own disjoint document sets and the partition
//!   map is monotone per shard, so translated per-shard lists are sorted
//!   and disjoint; the union is a plain k-way merge, no dedup needed.
//! * **LIKE scores** — ranking needs corpus-global idf, which no single
//!   shard knows. The router runs a two-phase exchange: a `DF` fan-out
//!   sums deletion-filtered document frequencies (shards are disjoint, so
//!   the sum *is* the global df), then the router computes
//!   `w = ln(1 + N/df)` — the same expression, the same f64 operations,
//!   as the unsharded scorer — and ships the weights bit-exactly in a
//!   `WLIKE` fan-out. Each shard accumulates contributions in the same
//!   canonical sorted-term order the unsharded engine uses, so per-doc
//!   scores match to the last ulp and per-shard top-k + merge is the
//!   exact global top-k. If an ingest lands between the two phases the
//!   epoch vectors differ and the router retries the exchange, so a
//!   successful `LIKE` is always computed at one consistent vector.

use crate::backend::{ReadPolicy, ReplicaSet};
use crate::partition::{PartitionMap, Partitioner};
use invidx_obs::names;
use invidx_serve::{
    Endpoint, Payload, QueryService, Request, Response, ServeEngine, ServeError, ServeStats,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Attempts at the two-phase LIKE exchange before giving up; each retry
/// only fires when an ingest moved some shard between the phases.
const LIKE_PHASE_RETRIES: usize = 8;

/// A per-router counter mirrored into the global registry (same pattern
/// as the serving layer's counters: local for tests, global for scrapes).
#[derive(Debug)]
struct Mirrored {
    local: AtomicU64,
    global: Arc<invidx_obs::Counter>,
}

impl Mirrored {
    fn new(name: &str) -> Self {
        Self { local: AtomicU64::new(0), global: invidx_obs::registry().counter(name) }
    }

    fn add(&self, n: u64) {
        if n > 0 {
            self.local.fetch_add(n, Ordering::Relaxed);
            self.global.add(n);
        }
    }

    fn inc(&self) {
        self.add(1)
    }

    fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

/// The router's own counters — deliberately in a `router_*` namespace
/// disjoint from the per-shard `serve_*` counters, so aggregating shard
/// stats never double-counts the router's admission work.
#[derive(Debug)]
pub struct RouterCounters {
    queries: Mirrored,
    ingested_docs: Mirrored,
    retries: Mirrored,
    hedges: Mirrored,
    shard_errors: Vec<Mirrored>,
}

impl RouterCounters {
    fn new(shards: usize) -> Self {
        Self {
            queries: Mirrored::new(names::ROUTER_QUERIES),
            ingested_docs: Mirrored::new(names::ROUTER_INGESTED_DOCS),
            retries: Mirrored::new(names::ROUTER_RETRIES),
            hedges: Mirrored::new(names::ROUTER_HEDGES),
            shard_errors: (0..shards)
                .map(|i| Mirrored::new(&names::per_shard(names::ROUTER_SHARD_ERRORS, i)))
                .collect(),
        }
    }

    /// Client requests admitted by the router.
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    /// Documents routed to shards by the writer path.
    pub fn ingested_docs(&self) -> u64 {
        self.ingested_docs.get()
    }

    /// Failover retries launched.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Hedged duplicates launched.
    pub fn hedges(&self) -> u64 {
        self.hedges.get()
    }

    /// Per-shard request failures observed (including ones a later
    /// attempt recovered from).
    pub fn shard_errors(&self, shard: usize) -> u64 {
        self.shard_errors[shard].get()
    }
}

/// A routed answer: the payload plus the per-shard epoch vector it was
/// computed at.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedResponse {
    /// Epoch per shard, in shard order.
    pub epochs: Vec<u64>,
    /// The merged result.
    pub payload: Payload,
}

impl RoutedResponse {
    /// Render as a response line: `OK <e0,e1,...> <payload>` — the
    /// single-shard wire form with the epoch widened to a vector.
    pub fn to_wire(&self) -> String {
        invidx_serve::reply_to_wire(&self.epochs, &self.payload)
    }
}

/// Parse a routed response line back into `Ok(RoutedResponse)` /
/// `Err(ServeError)` — the client half of the routed protocol.
pub fn parse_routed_response(
    line: &str,
) -> Result<Result<RoutedResponse, ServeError>, ServeError> {
    Ok(invidx_serve::parse_reply(line)?
        .map(|(epochs, payload)| RoutedResponse { epochs, payload }))
}

/// The routed line protocol is the single-shard one, one level up: the
/// same listener loop ([`invidx_serve::Server`]) serves a router once it
/// knows these five things. `CHECKPOINT` and `WALTAIL` stay with the
/// shards — durability plumbing belongs to each store.
impl<E: ServeEngine> Endpoint for Router<E> {
    const NAME: &'static str = "router";
    type Stamp = Vec<u64>;

    fn stamp(&self) -> Vec<u64> {
        self.epochs()
    }

    fn read(&self, request: Request) -> Result<(Vec<u64>, Payload), ServeError> {
        self.execute(&request).map(|r| (r.epochs, r.payload))
    }

    /// `FLUSHED` counts the documents routed, where a shard's own
    /// `FLUSHED` counts the postings they produced.
    fn flush(&self, staged: &[String]) -> Result<(Vec<u64>, u64), ServeError> {
        Ok((self.ingest(staged)?, staged.len() as u64))
    }

    fn metrics(&self) -> String {
        self.render_metrics()
    }
}

/// The scatter-gather router over N shards.
///
/// Reads go to the per-shard [`ReplicaSet`]s under the configured
/// [`ReadPolicy`]; writes go to the per-shard primary services. The
/// router is the deployment's **single writer**: all ingest must funnel
/// through [`Router::ingest`], which is what keeps the partition map's
/// dense id assignment aligned with every shard engine's own dense local
/// ids.
pub struct Router<E: ServeEngine> {
    writers: Vec<Arc<QueryService<E>>>,
    readers: Vec<ReplicaSet>,
    map: Mutex<PartitionMap>,
    policy: ReadPolicy,
    /// Last epoch observed per shard (from reads or writes); used for the
    /// epoch vector of answers that never touched a shard, and exported
    /// as the `router_shard_epoch` gauges.
    shard_epochs: Vec<AtomicU64>,
    counters: RouterCounters,
}

impl<E: ServeEngine> Router<E> {
    /// Assemble a router: one writer (primary service) and one replica
    /// set per shard, in shard order. The partition map is rebuilt from
    /// the primaries' document counts and cross-checked against them —
    /// a mismatch means the stores were not produced by this partitioner.
    pub fn new(
        writers: Vec<Arc<QueryService<E>>>,
        readers: Vec<ReplicaSet>,
        partitioner: Partitioner,
        policy: ReadPolicy,
    ) -> Result<Self, ServeError> {
        partitioner.validate()?;
        let shards = partitioner.shards();
        if writers.len() != shards || readers.len() != shards {
            return Err(ServeError::Config(format!(
                "partitioner wants {shards} shards, got {} writers / {} replica sets",
                writers.len(),
                readers.len()
            )));
        }
        let total: u64 = writers.iter().map(|w| w.with_read(|_, e| e.total_docs())).sum();
        let map = PartitionMap::rebuild(partitioner, total);
        for (i, w) in writers.iter().enumerate() {
            let have = w.with_read(|_, e| e.total_docs());
            if have != map.shard_docs(i) {
                return Err(ServeError::Config(format!(
                    "shard {i} holds {have} docs but the {partitioner:?} map assigns {}",
                    map.shard_docs(i)
                )));
            }
        }
        let shard_epochs = writers.iter().map(|w| AtomicU64::new(w.epoch())).collect();
        Ok(Self {
            writers,
            readers,
            map: Mutex::new(map),
            policy,
            shard_epochs,
            counters: RouterCounters::new(shards),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.readers.len()
    }

    /// The router's own counters.
    pub fn counters(&self) -> &RouterCounters {
        &self.counters
    }

    /// The per-shard primary services (the write path; replication
    /// sources).
    pub fn writers(&self) -> &[Arc<QueryService<E>>] {
        &self.writers
    }

    /// Total documents allocated across all shards.
    pub fn total_docs(&self) -> u64 {
        self.map.lock().total_docs()
    }

    /// Last observed epoch per shard.
    pub fn epochs(&self) -> Vec<u64> {
        self.shard_epochs.iter().map(|e| e.load(Ordering::Relaxed)).collect()
    }

    /// Refresh the router gauges and render the process-wide Prometheus
    /// exposition (the router server's `METRICS` verb). The exposition
    /// carries only `router_*`/`replica_*` series for the fan-out layer —
    /// per-shard serving counters live in the shards' own expositions.
    pub fn render_metrics(&self) -> String {
        for (i, e) in self.shard_epochs.iter().enumerate() {
            invidx_obs::registry()
                .gauge(&names::per_shard(names::ROUTER_SHARD_EPOCH, i))
                .set(e.load(Ordering::Relaxed) as i64);
        }
        invidx_obs::flush_events();
        invidx_obs::snapshot().to_prometheus()
    }

    /// Execute one client request: scatter, gather, merge.
    pub fn execute(&self, request: &Request) -> Result<RoutedResponse, ServeError> {
        self.counters.queries.inc();
        match request {
            Request::Boolean(_) | Request::Phrase(_) | Request::Near(_, _, _) => {
                let resps = self.fan_out(request)?;
                let payload = self.merge_docs(&resps)?;
                Ok(RoutedResponse { epochs: epochs_of(&resps), payload })
            }
            Request::Like(k, text) => self.like(*k, text),
            Request::Rank(k, text) => self.rank(*k, text),
            Request::WeightedLike(k, _) | Request::WeightedRank { k, .. } => {
                let resps = self.fan_out(request)?;
                let payload = self.merge_hits(&resps, *k)?;
                Ok(RoutedResponse { epochs: epochs_of(&resps), payload })
            }
            Request::Df(terms) => {
                let resps = self.fan_out(request)?;
                let (docs, tokens, dfs) = sum_dfs(&resps, terms.len())?;
                Ok(RoutedResponse {
                    epochs: epochs_of(&resps),
                    payload: Payload::Df { docs, tokens, dfs },
                })
            }
            Request::Doc(global) => self.doc(*global),
            Request::Stats => {
                let resps = self.fan_out(request)?;
                let payload = Payload::Stats(sum_stats(&resps)?);
                Ok(RoutedResponse { epochs: epochs_of(&resps), payload })
            }
            Request::Ping => {
                let resps = self.fan_out(request)?;
                Ok(RoutedResponse { epochs: epochs_of(&resps), payload: Payload::Pong })
            }
        }
    }

    /// Route one batch of documents: allocate global ids, deliver each
    /// document to its owning shard, flush every touched shard. Each
    /// shard's flush is batch-atomic (its readers see none or all of its
    /// slice); the batch as a whole becomes visible shard by shard, which
    /// the epoch vector makes observable rather than hiding. Returns the
    /// primaries' epoch vector after the flushes.
    ///
    /// The router is the single writer by contract; concurrent callers
    /// are serialized on the partition map, and the per-shard delivery
    /// order always matches the map's assignment order.
    pub fn ingest<S: AsRef<str>>(&self, texts: &[S]) -> Result<Vec<u64>, ServeError> {
        // Hold the map lock across assignment *and* delivery: local ids
        // are dense per shard, so a second batch must not interleave its
        // deliveries with ours.
        let mut map = self.map.lock();
        let mut per: Vec<Vec<&str>> = vec![Vec::new(); self.shards()];
        for text in texts {
            let (_global, shard, _local) = map.append();
            per[shard].push(text.as_ref());
        }
        for (shard, docs) in per.iter().enumerate() {
            if docs.is_empty() {
                continue;
            }
            let (_report, epoch) = self.writers[shard].ingest_batch(docs)?;
            self.shard_epochs[shard].store(epoch, Ordering::Relaxed);
        }
        self.counters.ingested_docs.add(texts.len() as u64);
        Ok(self.writers.iter().map(|w| w.epoch()).collect())
    }

    /// Fan one request out to every shard concurrently; fail if any shard
    /// fails after its replica set exhausted failover.
    fn fan_out(&self, request: &Request) -> Result<Vec<Response>, ServeError> {
        let results: Vec<(Result<Response, ServeError>, crate::backend::CallOutcome)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .readers
                    .iter()
                    .enumerate()
                    .map(|(shard, set)| {
                        scope.spawn(move || {
                            let started = Instant::now();
                            let out = set.call(request, &self.policy);
                            let ms = started.elapsed().as_secs_f64() * 1e3;
                            invidx_obs::registry()
                                .histogram(
                                    &names::per_shard(names::ROUTER_SHARD_LATENCY_MS, shard),
                                    invidx_obs::Buckets::time_ms(),
                                )
                                .record(ms);
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard fan-out thread")).collect()
            });
        let mut responses = Vec::with_capacity(results.len());
        let mut first_err = None;
        for (shard, (result, outcome)) in results.into_iter().enumerate() {
            self.counters.retries.add(outcome.retries);
            self.counters.hedges.add(outcome.hedges);
            self.counters.shard_errors[shard].add(outcome.errors);
            match result {
                Ok(resp) => {
                    self.shard_epochs[shard].store(resp.epoch, Ordering::Relaxed);
                    responses.push(resp);
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(responses),
        }
    }

    /// Point read: translate the global id and ask the owning shard.
    fn doc(&self, global: u32) -> Result<RoutedResponse, ServeError> {
        let located = self.map.lock().locate(global);
        let Some((shard, local)) = located else {
            // Never allocated: `None` at any epoch vector at or below the
            // primaries' current one; the cached vector qualifies.
            return Ok(RoutedResponse { epochs: self.epochs(), payload: Payload::Text(None) });
        };
        let (result, outcome) = self.readers[shard].call(&Request::Doc(local), &self.policy);
        self.counters.retries.add(outcome.retries);
        self.counters.hedges.add(outcome.hedges);
        self.counters.shard_errors[shard].add(outcome.errors);
        let resp = result?;
        self.shard_epochs[shard].store(resp.epoch, Ordering::Relaxed);
        let mut epochs = self.epochs();
        epochs[shard] = resp.epoch;
        Ok(RoutedResponse { epochs, payload: resp.payload })
    }

    /// The two-phase distributed LIKE (see the module docs for why this
    /// is bit-exact against an unsharded engine).
    fn like(&self, k: usize, text: &str) -> Result<RoutedResponse, ServeError> {
        self.two_phase(k, text, "LIKE", |k, terms, _totals| Request::WeightedLike(k, terms))
    }

    /// The two-phase distributed BM25 RANK: the same DF exchange as LIKE
    /// (idf is the identical expression), plus the summed token count —
    /// which makes the corpus-global average document length — and the
    /// `(k1, b)` a shard's own `RANK` uses, shipped bit-exactly in the
    /// `WRANK` fan-out.
    fn rank(&self, k: usize, text: &str) -> Result<RoutedResponse, ServeError> {
        let params = invidx_ir::Bm25Params::default();
        self.two_phase(k, text, "RANK", move |k, terms, (total_docs, total_tokens)| {
            // The identical expression the unsharded ranker evaluates, so
            // shipped bits equal locally computed bits.
            let avgdl = invidx_ir::rank::avgdl(total_tokens, total_docs);
            Request::WeightedRank {
                k,
                k1_bits: params.k1.to_bits(),
                b_bits: params.b.to_bits(),
                avgdl_bits: avgdl.to_bits(),
                terms,
            }
        })
    }

    /// The shared two-phase scatter skeleton: sum deletion-filtered DFs
    /// across the disjoint shards, turn them into corpus-global idf bits,
    /// fan the weighted phase out, and retry the whole exchange whenever
    /// an ingest moved any shard between the phases.
    fn two_phase(
        &self,
        k: usize,
        text: &str,
        verb: &str,
        build: impl Fn(usize, Vec<(String, u64)>, (u64, u64)) -> Request,
    ) -> Result<RoutedResponse, ServeError> {
        // The canonical term order: sorted, deduplicated — identical to
        // what the unsharded engine's scorer iterates.
        let words = invidx_corpus::lexer::document_words(text);
        if words.is_empty() {
            let resps = self.fan_out(&Request::Ping)?;
            return Ok(RoutedResponse { epochs: epochs_of(&resps), payload: Payload::Hits(vec![]) });
        }
        for _ in 0..LIKE_PHASE_RETRIES {
            let df_resps = self.fan_out(&Request::Df(words.clone()))?;
            let df_epochs = epochs_of(&df_resps);
            let (total_docs, total_tokens, dfs) = sum_dfs(&df_resps, words.len())?;
            // A term contributes iff some shard holds a live posting for
            // it — exactly the unsharded condition (df summed over
            // disjoint shards is the global deletion-filtered df).
            let terms: Vec<(String, u64)> = words
                .iter()
                .zip(&dfs)
                .filter(|(_, &df)| df > 0)
                .map(|(word, &df)| {
                    // The same expression, operation for operation, as the
                    // local scorer's idf — bit-exact is the whole point.
                    let weight = (1.0 + total_docs as f64 / df as f64).ln();
                    (word.clone(), weight.to_bits())
                })
                .collect();
            if terms.is_empty() {
                return Ok(RoutedResponse { epochs: df_epochs, payload: Payload::Hits(vec![]) });
            }
            let weighted = build(k, terms, (total_docs, total_tokens));
            let wl_resps = self.fan_out(&weighted)?;
            let epochs = epochs_of(&wl_resps);
            if epochs != df_epochs {
                // An ingest landed between the phases: the weights were
                // computed against state the scores no longer reflect.
                // Retry the whole exchange at the newer state.
                continue;
            }
            let payload = self.merge_hits(&wl_resps, k)?;
            return Ok(RoutedResponse { epochs, payload });
        }
        Err(ServeError::Engine(format!(
            "{verb} epochs moved through {LIKE_PHASE_RETRIES} two-phase exchanges"
        )))
    }

    /// Merge disjoint sorted per-shard doc lists into one sorted list.
    fn merge_docs(&self, resps: &[Response]) -> Result<Payload, ServeError> {
        let map = self.map.lock();
        let mut lists: Vec<Vec<u32>> = Vec::with_capacity(resps.len());
        for (shard, resp) in resps.iter().enumerate() {
            let Payload::Docs(ids) = &resp.payload else {
                return Err(ServeError::Engine(format!(
                    "shard {shard} answered a doc query with {:?}",
                    resp.payload
                )));
            };
            lists.push(
                ids.iter()
                    .map(|&local| {
                        map.global(shard, local).ok_or_else(|| {
                            ServeError::Engine(format!(
                                "shard {shard} returned local doc {local} beyond the map"
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?,
            );
        }
        drop(map);
        Ok(Payload::Docs(kway_merge(lists)))
    }

    /// Merge per-shard top-k hit lists into the exact global top-k.
    fn merge_hits(&self, resps: &[Response], k: usize) -> Result<Payload, ServeError> {
        let map = self.map.lock();
        let mut all: Vec<(u32, f64)> = Vec::new();
        for (shard, resp) in resps.iter().enumerate() {
            let Payload::Hits(hits) = &resp.payload else {
                return Err(ServeError::Engine(format!(
                    "shard {shard} answered a ranked query with {:?}",
                    resp.payload
                )));
            };
            for &(local, score) in hits {
                let global = map.global(shard, local).ok_or_else(|| {
                    ServeError::Engine(format!(
                        "shard {shard} returned local hit {local} beyond the map"
                    ))
                })?;
                all.push((global, score));
            }
        }
        drop(map);
        // The same total order the engines rank by: score descending,
        // then smaller (global) doc id. Each shard sent its k best under
        // this order, so the union's k best are the global k best.
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        Ok(Payload::Hits(all))
    }
}

/// The epoch vector of a full fan-out, in shard order.
fn epochs_of(resps: &[Response]) -> Vec<u64> {
    resps.iter().map(|r| r.epoch).collect()
}

/// Sum per-shard `DF` answers: disjoint shards make the sums global —
/// documents, lexer tokens, and per-term frequencies alike.
fn sum_dfs(resps: &[Response], terms: usize) -> Result<(u64, u64, Vec<u64>), ServeError> {
    let mut total_docs = 0u64;
    let mut total_tokens = 0u64;
    let mut sums = vec![0u64; terms];
    for (shard, resp) in resps.iter().enumerate() {
        let Payload::Df { docs, tokens, dfs } = &resp.payload else {
            return Err(ServeError::Engine(format!(
                "shard {shard} answered DF with {:?}",
                resp.payload
            )));
        };
        if dfs.len() != terms {
            return Err(ServeError::Engine(format!(
                "shard {shard} answered {} dfs for {terms} terms",
                dfs.len()
            )));
        }
        total_docs += docs;
        total_tokens += tokens;
        for (sum, df) in sums.iter_mut().zip(dfs) {
            *sum += df;
        }
    }
    Ok((total_docs, total_tokens, sums))
}

/// Field-by-field sum of per-shard serving stats. The router's own
/// counters are *not* folded in — they live under `router_*` names.
fn sum_stats(resps: &[Response]) -> Result<ServeStats, ServeError> {
    let mut sum = ServeStats::default();
    for (shard, resp) in resps.iter().enumerate() {
        let Payload::Stats(s) = &resp.payload else {
            return Err(ServeError::Engine(format!(
                "shard {shard} answered STATS with {:?}",
                resp.payload
            )));
        };
        let mut shard = *s;
        for ((_, total), (_, part)) in sum.fields_mut().into_iter().zip(shard.fields_mut()) {
            *total += *part;
        }
    }
    Ok(sum)
}

/// Merge already-sorted, pairwise-disjoint ascending lists.
fn kway_merge(mut lists: Vec<Vec<u32>>) -> Vec<u32> {
    lists.retain(|l| !l.is_empty());
    let total = lists.iter().map(Vec::len).sum();
    let mut heads = vec![0usize; lists.len()];
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let (winner, _) = lists
            .iter()
            .zip(&heads)
            .enumerate()
            .filter(|(_, (list, &head))| head < list.len())
            .map(|(i, (list, &head))| (i, list[head]))
            .min_by_key(|&(_, value)| value)
            .expect("non-empty remainder");
        out.push(lists[winner][heads[winner]]);
        heads[winner] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kway_merge_interleaves_sorted_disjoint_lists() {
        assert_eq!(
            kway_merge(vec![vec![1, 4, 9], vec![2, 3], vec![], vec![5]]),
            vec![1, 2, 3, 4, 5, 9]
        );
        assert_eq!(kway_merge(vec![]), Vec::<u32>::new());
    }

    #[test]
    fn routed_response_wire_round_trips() {
        let cases = vec![
            RoutedResponse { epochs: vec![3, 0, 7], payload: Payload::Docs(vec![1, 5]) },
            RoutedResponse { epochs: vec![1], payload: Payload::Hits(vec![(4, 0.1f64 + 0.2)]) },
            RoutedResponse {
                epochs: vec![2, 2],
                payload: Payload::Df { docs: 10, tokens: 44, dfs: vec![3, 0] },
            },
            RoutedResponse { epochs: vec![0, 0], payload: Payload::Text(None) },
            RoutedResponse { epochs: vec![9, 9], payload: Payload::Pong },
        ];
        for resp in cases {
            let line = resp.to_wire();
            assert_eq!(parse_routed_response(&line).unwrap().unwrap(), resp);
        }
        let err = parse_routed_response("ERR overloaded queue full").unwrap().unwrap_err();
        assert_eq!(err.code(), "overloaded");
        assert!(parse_routed_response("OK 1,x PONG").is_err());
        assert!(parse_routed_response("NOPE").is_err());
    }
}
