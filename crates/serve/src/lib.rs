//! # invidx-serve — concurrent query serving over the incremental index
//!
//! The paper's engine (Tomasic, García-Molina & Shoens, SIGMOD '94) is an
//! *update* story: batches of postings folded into a dual bucket/long-list
//! structure. This crate is the complementary *read* story: serve queries
//! from many clients **while** those batches keep landing, without ever
//! returning a result that a single-threaded replay could not produce.
//!
//! The layers, bottom up:
//!
//! * [`ServeEngine`] — the engine contract: queries on `&self`, updates on
//!   `&mut self`, plus snapshot materialization for the read path.
//!   Implemented by `DurableEngine`.
//! * [`QueryService`] — lock-free reads over copy-on-write epoch
//!   snapshots: the single writer applies add+flush batches atomically,
//!   materializes the next immutable engine view off to the side, and
//!   publishes `(epoch, view)` as one atomic unit;
//!   readers load the current snapshot with no lock and consult a
//!   per-core sharded epoch-keyed LRU ([`ResultCache`] shards).
//! * [`Frontend`] — admission control: a bounded work queue with
//!   high-water load shedding ([`ServeError::Overloaded`]), per-request
//!   deadlines reaped in the queue ([`ServeError::Timeout`]), and a
//!   reader-thread pool.
//! * [`wire`] — the line protocol (`QUERY`/`PHRASE`/`NEAR`/`LIKE`/`RANK`/
//!   `DOC`/`ADD`/`FLUSH`/`CHECKPOINT`/`STATS`/`METRICS`/`PING`) you can
//!   drive with `nc`: one [`Server`] loop generic over an [`Endpoint`] —
//!   a [`Frontend`] here, the scatter-gather router in `invidx-router` —
//!   and one [`Client`], with every read from a socket bounded.
//!
//! The correctness invariant threaded through all of it: every response
//! carries the **epoch** it was computed at, and epoch + state travel in
//! one published snapshot, so `(epoch, result)` pairs are exactly
//! reproducible by replaying the same batches single-threaded and querying
//! at the same epoch. The stress tests and the `ablation_serving` load
//! generator check results against that oracle.

pub mod admission;
pub mod cache;
pub mod engine;
pub mod error;
pub mod request;
pub mod service;
pub(crate) mod snapshot;
pub mod telemetry;
pub mod wire;

pub use admission::{Frontend, Ticket};
pub use cache::{Lookup, ResultCache};
pub use engine::ServeEngine;
pub use error::ServeError;
pub use request::{
    error_to_wire, from_hex, normalize_query, parse_reply, parse_response, reply_to_wire, to_hex,
    Payload, Request, Response, ServeStats, Stamp,
};
pub use service::{QueryService, ServeConfig, ServeConfigBuilder, ServeCounters};
pub use telemetry::Telemetry;
pub use wire::{Client, Endpoint, Server};
