//! Error types for the durability layer.

use crate::fault::FaultPoint;
use invidx_core::IndexError;
use std::fmt;

/// Result alias for durable operations.
pub type Result<T> = std::result::Result<T, DurableError>;

/// Errors raised by the WAL, checkpoint, and recovery machinery.
#[derive(Debug)]
pub enum DurableError {
    /// An index-level failure while applying or restoring state.
    Index(IndexError),
    /// File I/O failure on the WAL or checkpoint files.
    Io(std::io::Error),
    /// A simulated crash fired by the fault-injection harness.
    Injected(FaultPoint),
    /// Corrupt WAL/checkpoint contents that CRC or structure checks caught.
    Corrupt(String),
    /// The durable store hit an earlier error and refuses further writes
    /// until reopened (recovery is the only safe path out).
    Poisoned,
    /// The operation reads or ships the write-ahead log of a store that
    /// was built without one ([`crate::DurableIndex::without_log`]).
    NoLog,
}

impl DurableError {
    /// Is this a simulated crash from the fault harness?
    pub fn is_injected(&self) -> bool {
        matches!(self, Self::Injected(_))
    }
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Index(e) => write!(f, "index error: {e}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Injected(p) => write!(f, "injected fault at {p:?}"),
            Self::Corrupt(msg) => write!(f, "corrupt durable state: {msg}"),
            Self::Poisoned => write!(f, "durable store poisoned by an earlier error; reopen to recover"),
            Self::NoLog => write!(f, "engine has no write-ahead log"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Index(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IndexError> for DurableError {
    fn from(e: IndexError) -> Self {
        Self::Index(e)
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<invidx_disk::DiskError> for DurableError {
    fn from(e: invidx_disk::DiskError) -> Self {
        Self::Index(IndexError::from(e))
    }
}
