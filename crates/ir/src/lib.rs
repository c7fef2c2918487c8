//! # invidx-ir — information retrieval over the dual-structure index
//!
//! The paper's §1 describes the two retrieval models its index serves:
//! boolean systems ("(cat and dog) or mouse") evaluated by merging sorted
//! inverted lists, and vector-model systems that "locate documents that
//! maximize the weighted sum of occurring words", using inverted lists to
//! prune candidates. This crate provides both, plus [`DurableEngine`] — a
//! complete text-in/results-out engine combining the corpus lexer, a word
//! interner, and [`invidx_core::DualIndex`], crash-safe when built in a
//! store directory and log-less over a bare disk array — and the
//! immutable [`EngineSnapshot`] the serving layer reads from.
//!
//! Both answer queries through one method, `execute(&EngineQuery)`,
//! and one evaluator ([`query`]): the paper's index serves both retrieval
//! models through a single operation — fetch an inverted list
//! ([`PostingSource`]) — and so does this crate.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod boolean;
pub mod docstore;
pub mod durable_engine;
pub mod engine;
pub mod proximity;
pub mod query;
pub mod rank;
pub mod snapshot;
pub mod vector;

pub use boolean::{PostingSource, Query};
pub use docstore::DocStore;
pub use durable_engine::DurableEngine;
pub use query::{EngineQuery, QueryOutput};
pub use rank::{rank_exhaustive, rank_like, rank_seeded, Bm25Params};
pub use snapshot::EngineSnapshot;
pub use vector::{search, search_like, search_seeded, Hit, VectorQuery};
