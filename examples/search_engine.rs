//! A small text search engine over the dual-structure index: real text in,
//! boolean and vector-space queries out — including the paper's own
//! example query `(cat and dog) or mouse`.
//!
//! ```sh
//! cargo run --example search_engine
//! ```

use invidx::core::index::IndexConfig;
use invidx::core::policy::Policy;
use invidx::disk::sparse_array;
use invidx::ir::{DurableEngine, EngineQuery};

const ARTICLES: &[(&str, &str)] = &[
    ("pets-1", "The cat and the dog shared a basket while the mouse watched from the wall."),
    ("pets-2", "A dog chased the mouse across the yard until the cat intervened."),
    ("pets-3", "Date: ignored header line\nOnly the mouse appears in this short note about cheese."),
    ("db-1", "Inverted lists map each word to the documents containing it; updates append postings."),
    ("db-2", "Incremental updates of inverted lists avoid rebuilding the index every weekend."),
    ("db-3", "Buckets hold short lists for infrequent words; long lists get contiguous chunks."),
    ("sys-1", "Disk seeks dominate scattered writes; sequential writes run at the data rate."),
    ("sys-2", "The RS6000 model 530 drove 8 SCSI disks in 1994 experiments."),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let array = sparse_array(2, 50_000, 256);
    let mut engine = DurableEngine::without_log(array, IndexConfig::small().with_policy(Policy::query_optimized()))?;

    let mut names = Vec::new();
    for (name, text) in ARTICLES {
        let id = engine.add_document(text)?;
        names.push((id, *name));
    }
    engine.flush()?;
    println!("indexed {} documents, {} distinct words\n", engine.total_docs(), engine.vocabulary_size());

    let label = |id: invidx::core::DocId| {
        names.iter().find(|(d, _)| *d == id).map(|(_, n)| *n).unwrap_or("?")
    };

    // The paper's boolean example.
    for query in ["(cat and dog) or mouse", "inverted and lists", "updates and not weekend", "disks or scsi"] {
        let out = engine.execute(&EngineQuery::boolean(query))?;
        let hits = out.docs().expect("a boolean query answers with documents");
        println!(
            "boolean {query:32} -> {:?}",
            hits.docs().iter().map(|&d| label(d)).collect::<Vec<_>>()
        );
    }

    // Vector-space: "a query may be derived from a document".
    println!();
    for probe in ["incremental inverted index updates", "cat mouse cheese"] {
        let out = engine.execute(&EngineQuery::like(probe, 3))?;
        println!("vector  {probe:32} ->");
        for h in out.hits().expect("LIKE answers with scored hits") {
            println!("    {:8} score {:.3}", label(h.doc), h.score);
        }
    }
    Ok(())
}
