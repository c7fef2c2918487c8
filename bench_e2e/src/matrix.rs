//! `durable.reopen_matrix_ok_share`: an untimed correctness probe kept
//! apart from `ok_share`. For 2 engine kinds x 3 codecs it loads documents
//! in 500-document batches, appends 8-document batches until the WAL holds
//! at least one batch past the last checkpoint, drops the engine and
//! reopens it. Under a compressed codec `DurableEngine::open` is known to
//! fail whenever it has WAL records to replay (`Corruption("coding blocks
//! overrun the expected N postings")`) — the reason `trickle_update` runs
//! `Plain` and the varint workloads shut down cleanly. The probe reports
//! it; it does not fix it.

use crate::corpus::Corpus;
use crate::stack;
use invidx_core::index::EngineKind;
use invidx_core::PostingsCodec;
use std::path::Path;

/// Extra 8-document batches held back to move a store off a checkpoint
/// boundary (a checkpoint lands at most every 8 batches, seals aside).
const SPARE_BATCHES: usize = 4;

/// One cell of the matrix.
pub struct Cell {
    pub label: String,
    /// `Err` carries the error `open` (or the load) returned.
    pub outcome: Result<(), String>,
}

fn probe_cell(
    corpus: &Corpus,
    bulk_docs: usize,
    dir: &Path,
    engine: EngineKind,
    codec: PostingsCodec,
) -> Result<(), String> {
    let config = stack::index_config(engine, codec);
    let _ = std::fs::remove_dir_all(dir);
    let mut e = stack::create_engine(dir, config)?;
    let (bulk, trickle) = corpus.texts.split_at(bulk_docs);
    let (trickle, spare) = trickle.split_at(trickle.len() - SPARE_BATCHES * 8);
    let mut spare = spare.chunks(8);
    let mut batches = bulk.chunks(500).chain(trickle.chunks(8));
    // A reopen right after a checkpoint replays nothing and proves nothing.
    while let Some(batch) = batches
        .next()
        .or_else(|| spare.next().filter(|_| e.index().wal_size() == 0))
    {
        for text in batch {
            e.add_document(text).map_err(|e| e.to_string())?;
        }
        e.flush().map_err(|e| e.to_string())?;
    }
    let docs = e.total_docs();
    drop(e);
    let reopened = stack::open_engine(dir, config)?;
    if reopened.total_docs() == docs {
        Ok(())
    } else {
        Err(format!(
            "reopened with {} of {docs} documents",
            reopened.total_docs()
        ))
    }
}

/// Run the six cells over `bulk_docs` bulk-loaded documents followed by
/// `trickle_batches` 8-document batches.
pub fn reopen_matrix(
    seed: u64,
    bulk_docs: usize,
    trickle_batches: usize,
    out_dir: &Path,
) -> Vec<Cell> {
    let corpus = Corpus::generate(seed, bulk_docs + (trickle_batches + SPARE_BATCHES) * 8);
    let dir = out_dir.join(format!("matrix_{}", std::process::id()));
    let kinds = [
        ("inplace", EngineKind::InPlace),
        (
            "segmented",
            EngineKind::Segmented {
                l0_budget: 1 << 20,
                fanout: 4,
            },
        ),
    ];
    let codecs = [
        ("plain", PostingsCodec::Plain),
        ("varint", PostingsCodec::VarintDelta),
        ("bitpacked", PostingsCodec::BitPacked),
    ];
    let mut cells = Vec::new();
    for (kind_name, kind) in kinds {
        for (codec_name, codec) in codecs {
            cells.push(Cell {
                label: format!("{kind_name}+{codec_name}"),
                outcome: probe_cell(&corpus, bulk_docs, &dir, kind, codec),
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    cells
}
