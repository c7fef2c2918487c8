//! # invidx-router — multi-shard serving over the incremental index
//!
//! One engine behind one lock serves until a single machine's reads or
//! writes saturate. This crate is the horizontal step: partition the
//! document space into N independent shards (each a full engine with its
//! own WAL, checkpoint, and caches), front them with a scatter-gather
//! [`Router`], and scale the *read* path further with WAL-shipped read
//! replicas per shard.
//!
//! The layers:
//!
//! * [`Partitioner`] / [`PartitionMap`] — a deterministic assignment of
//!   global document ids to `(shard, local id)` pairs. Both partitioners
//!   keep the local↔global mapping **monotone per shard**, so a shard's
//!   sorted posting lists stay sorted after translation and the router can
//!   merge them exactly.
//! * [`ShardBackend`] / [`ReplicaSet`] — where a shard's reads go: an
//!   in-process service, an admission front end, or a remote server over
//!   the line protocol (through `invidx_serve::Client`, as is every other
//!   socket this crate opens); a replica set spreads reads round-robin
//!   and fails over / hedges under a per-shard [`ReadPolicy`].
//! * [`Router`] — the scatter-gather core: fans `QUERY`/`PHRASE`/`NEAR`
//!   over every shard and merges disjoint doc lists; runs `LIKE` as a
//!   two-phase exchange (DF fan-out, then weight-shipped `WLIKE`) that
//!   reproduces the unsharded engine's scores **bit-exactly**; routes
//!   `DOC` point reads and all writes through the partition map. Every
//!   response carries a per-shard **epoch vector** instead of a single
//!   epoch.
//! * [`ReplicaTailer`] — the replication half: a replica polls its
//!   primary's `WALTAIL` endpoint, replays shipped records through its own
//!   update path, and reports lag as the epoch delta.
//! * `impl Endpoint for Router` — what makes the router servable by
//!   `invidx_serve::Server`, the same listener loop a shard runs: the
//!   line protocol one level up, with `OK <e0,e1,...> <payload>`
//!   responses, `FLUSHED` counting documents, and no `CHECKPOINT` /
//!   `WALTAIL` (those stay with each shard).
//!
//! The correctness claim mirrors the single-shard serving layer's, lifted
//! to vectors: a routed response with epoch vector `(e_0..e_{N-1})` equals
//! the answer an **unsharded** engine would give over exactly the
//! documents visible at those per-shard epochs. The oracle property tests
//! and the `ablation_sharding` harness check it, LIKE scores included.

pub mod backend;
pub mod partition;
pub mod replica;
pub mod router;

pub use backend::{
    CallOutcome, FrontendShard, LocalShard, ReadPolicy, RemoteShard, ReplicaSet, ShardBackend,
};
pub use partition::{PartitionMap, Partitioner};
pub use replica::{ReplicaTailer, TailerOptions};
pub use router::{parse_routed_response, RoutedResponse, Router, RouterCounters};
