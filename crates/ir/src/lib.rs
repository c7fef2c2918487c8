//! # invidx-ir — information retrieval over the dual-structure index
//!
//! The paper's §1 describes the two retrieval models its index serves:
//! boolean systems ("(cat and dog) or mouse") evaluated by merging sorted
//! inverted lists, and vector-model systems that "locate documents that
//! maximize the weighted sum of occurring words", using inverted lists to
//! prune candidates. This crate provides both — the vector model as one
//! ranked evaluator, [`rank::wand`], under a TF-IDF (`LIKE`) or BM25
//! (`RANK`) [`Weighting`] — plus [`DurableEngine`], a complete
//! text-in/results-out engine combining the corpus lexer, a word
//! interner, and the one store ([`invidx_segment::DurableSegmentedIndex`]:
//! the paper's [`invidx_core::DualIndex`] as L0, plus sealed segments when
//! the configuration gives it a seal budget), crash-safe when built in a
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

pub use boolean::{PostingSource, Query};
pub use docstore::DocStore;
pub use durable_engine::DurableEngine;
pub use query::{EngineQuery, QueryOutput};
pub use rank::{Bm25Params, Hit, Weighting};
pub use snapshot::EngineSnapshot;
