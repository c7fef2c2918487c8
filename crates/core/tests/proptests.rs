//! Property-based tests for the dual-structure index core: posting-list
//! algebra against set models, codec round trips, bucket conservation, the
//! Figure 2 algorithm under arbitrary policies, and the full index against
//! a reference model.

use invidx_core::bucket::BucketStore;
use invidx_core::index::{DualIndex, IndexConfig};
use invidx_core::longlist::{LongConfig, LongStore};
use invidx_core::policy::{Alloc, Limit, Policy, Style};
use invidx_core::postings::{fixed, varint, PostingList};
use invidx_core::types::{DocId, WordId};
use invidx_disk::sparse_array;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn sorted_docs(max_len: usize) -> impl Strategy<Value = Vec<DocId>> {
    prop::collection::btree_set(0u32..5_000, 0..max_len)
        .prop_map(|s| s.into_iter().map(DocId).collect())
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    let style = prop_oneof![
        (1u64..6).prop_map(|e| Style::Fill { extent_blocks: e }),
        Just(Style::New),
        Just(Style::Whole),
    ];
    let limit = prop_oneof![Just(Limit::Never), Just(Limit::Fits)];
    let alloc = prop_oneof![
        (0u64..200).prop_map(|k| Alloc::Constant { k }),
        (1u64..8).prop_map(|k| Alloc::Block { k }),
        (10u64..40).prop_map(|k| Alloc::Proportional { k: k as f64 / 10.0 }),
    ];
    (style, limit, alloc).prop_map(|(s, l, a)| Policy::new(s, l, a))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn posting_algebra_matches_set_model(a in sorted_docs(80), b in sorted_docs(80)) {
        let pa = PostingList::from_sorted(a.clone());
        let pb = PostingList::from_sorted(b.clone());
        let sa: BTreeSet<DocId> = a.into_iter().collect();
        let sb: BTreeSet<DocId> = b.into_iter().collect();
        let as_vec = |s: BTreeSet<DocId>| s.into_iter().collect::<Vec<_>>();
        let union = pa.union(&pb);
        let intersect = pa.intersect(&pb);
        let difference = pa.difference(&pb);
        prop_assert_eq!(union.docs(), as_vec(sa.union(&sb).copied().collect()));
        prop_assert_eq!(intersect.docs(), as_vec(sa.intersection(&sb).copied().collect()));
        prop_assert_eq!(difference.docs(), as_vec(sa.difference(&sb).copied().collect()));
    }

    #[test]
    fn union_is_commutative_and_idempotent(a in sorted_docs(60), b in sorted_docs(60)) {
        let pa = PostingList::from_sorted(a);
        let pb = PostingList::from_sorted(b);
        prop_assert_eq!(pa.union(&pb), pb.union(&pa));
        prop_assert_eq!(pa.union(&pa), pa.clone());
        prop_assert_eq!(pa.intersect(&pa), pa.clone());
        prop_assert!(pa.difference(&pa).is_empty());
    }

    #[test]
    fn codecs_round_trip(docs in sorted_docs(200)) {
        let bytes = varint::encode(&docs);
        prop_assert_eq!(varint::decode(&bytes).expect("decode"), docs.clone());
        let mut buf = vec![0u8; fixed::encoded_len(docs.len())];
        fixed::encode_into(&docs, &mut buf);
        prop_assert_eq!(fixed::decode(&buf, docs.len()).expect("decode"), docs);
    }

    #[test]
    fn varint_never_longer_than_fixed_plus_header(docs in sorted_docs(200)) {
        let bytes = varint::encode(&docs);
        // Worst case: 5 bytes for the first doc id, then gaps <= original
        // values; the count header adds a handful of bytes.
        prop_assert!(bytes.len() <= fixed::encoded_len(docs.len()) + docs.len() + 10);
    }
}

// ----- bucket store conservation -----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bucket_store_conserves_postings_and_respects_capacity(
        inserts in prop::collection::vec((1u64..40, 1u32..30), 1..120),
        nbuckets in 1usize..8,
        capacity in 4u64..60,
    ) {
        let mut store = BucketStore::new(nbuckets, capacity).expect("store");
        let mut next: BTreeMap<u64, u32> = BTreeMap::new();
        let mut evicted_postings = 0u64;
        let mut inserted = 0u64;
        let mut long: BTreeSet<u64> = BTreeSet::new();
        for (word, count) in inserts {
            if long.contains(&word) {
                continue; // the index never re-inserts long words
            }
            let c = next.entry(word).or_insert(0);
            let docs: Vec<DocId> = (*c..*c + count).map(DocId).collect();
            *c += count;
            inserted += count as u64;
            let out = store.insert(WordId(word), &PostingList::from_sorted(docs)).expect("insert");
            for (w, list) in out.evicted {
                evicted_postings += list.len() as u64;
                long.insert(w.0);
            }
            // Capacity bound after every insert.
            for b in 0..nbuckets {
                prop_assert!(store.bucket(b).units() <= capacity);
            }
        }
        prop_assert_eq!(store.total_postings() + evicted_postings, inserted);
    }

    /// Checkpoint-path serialization: a bucket round-trips through
    /// `serialize_bucket`/`load_bucket` at EXACTLY its serialized size (the
    /// tightest block region that can hold it), survives padding up to the
    /// worst-case region, and is rejected one byte short of fitting.
    #[test]
    fn bucket_serialization_at_exact_region_boundary(
        inserts in prop::collection::vec((1u64..40, 1u32..30), 0..40),
        capacity in 8u64..80,
    ) {
        let mut store = BucketStore::new(1, capacity).expect("store");
        let mut next: BTreeMap<u64, u32> = BTreeMap::new();
        let mut long: BTreeSet<u64> = BTreeSet::new();
        for (word, count) in inserts {
            if long.contains(&word) {
                continue;
            }
            let c = next.entry(word).or_insert(0);
            let docs: Vec<DocId> = (*c..*c + count).map(DocId).collect();
            *c += count;
            let out = store.insert(WordId(word), &PostingList::from_sorted(docs)).expect("insert");
            for (w, _) in out.evicted {
                long.insert(w.0);
            }
        }
        // Exact size: 4-byte count + 12 bytes per word + 4 per posting.
        let exact = 4
            + store.bucket(0).iter().map(|(_, l)| 12 + 4 * l.len()).sum::<usize>();
        let tight = store.serialize_bucket(0, exact).expect("fits exactly");
        prop_assert_eq!(tight.len(), exact);
        let mut restored = BucketStore::new(1, capacity).expect("store");
        restored.load_bucket(0, &tight).expect("load");
        let got: Vec<_> = restored.bucket(0).iter().map(|(w, l)| (w, l.clone())).collect();
        let want: Vec<_> = store.bucket(0).iter().map(|(w, l)| (w, l.clone())).collect();
        prop_assert_eq!(got, want);
        // One byte short must be refused, never truncated.
        if exact > 4 {
            prop_assert!(store.serialize_bucket(0, exact - 1).is_err());
        }
        // Padding to the worst-case region (what checkpoints actually use)
        // round-trips identically.
        let worst = store.worst_case_bucket_bytes().max(exact);
        let padded = store.serialize_bucket(0, worst).expect("fits padded");
        prop_assert_eq!(padded.len(), worst);
        let mut restored2 = BucketStore::new(1, capacity).expect("store");
        restored2.load_bucket(0, &padded).expect("load padded");
        let got2: Vec<_> = restored2.bucket(0).iter().map(|(w, l)| (w, l.clone())).collect();
        let want2: Vec<_> = store.bucket(0).iter().map(|(w, l)| (w, l.clone())).collect();
        prop_assert_eq!(got2, want2);
    }
}

// ----- long store: Figure 2 under arbitrary policies -----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn long_store_preserves_content_under_any_policy(
        policy in arb_policy(),
        updates in prop::collection::vec((0u64..6, 1u32..60), 1..60),
    ) {
        let config = LongConfig { block_postings: 10, policy, codec: Default::default() };
        let mut store = LongStore::new(config);
        let mut array = sparse_array(3, 100_000, 256);
        let mut model: BTreeMap<u64, Vec<DocId>> = BTreeMap::new();
        let mut next: BTreeMap<u64, u32> = BTreeMap::new();
        for (word, count) in updates {
            let c = next.entry(word).or_insert(0);
            let docs: Vec<DocId> = (*c..*c + count).map(DocId).collect();
            *c += count;
            model.entry(word).or_default().extend(&docs);
            store
                .append(&mut array, WordId(word), &PostingList::from_sorted(docs))
                .expect("append");
            store.free_released(&mut array).expect("release");
        }
        for (&word, docs) in &model {
            let got = store.read_list(&array, WordId(word)).expect("read");
            prop_assert_eq!(got.docs(), docs.as_slice());
            // Whole style: exactly one chunk per word, always.
            if matches!(policy.style, Style::Whole) {
                prop_assert_eq!(store.directory().get(WordId(word)).expect("entry").num_chunks(), 1);
            }
        }
        // Utilization is a true fraction; chunk accounting is consistent.
        let util = store.directory().utilization(10);
        prop_assert!(util > 0.0 && util <= 1.0);
        prop_assert!(store.directory().total_postings() == model.values().map(|v| v.len() as u64).sum::<u64>());
    }
}

// ----- full index vs reference model -----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dual_index_matches_reference_model(
        policy in arb_policy(),
        // Documents: (number of words, word-seed) pairs; doc ids ascend.
        docs in prop::collection::vec((1usize..12, 0u64..1000), 1..80),
        flush_every in 1usize..10,
    ) {
        let array = sparse_array(2, 100_000, 256);
        let config = IndexConfig::builder()
            .num_buckets(8)
            .bucket_capacity_units(30)
            .block_postings(10)
            .policy(policy)
            .materialize_buckets(false)
            .build()
            .expect("valid config");
        let mut index = DualIndex::create(array, config).expect("create");
        let mut model: BTreeMap<u64, Vec<DocId>> = BTreeMap::new();
        for (i, (nwords, seed)) in docs.iter().enumerate() {
            let doc = DocId(i as u32 + 1);
            let words: BTreeSet<u64> =
                (0..*nwords).map(|j| 1 + (seed.wrapping_mul(31).wrapping_add(j as u64 * 7)) % 40).collect();
            index.insert_document(doc, words.iter().map(|&w| WordId(w))).expect("insert");
            for &w in &words {
                model.entry(w).or_default().push(doc);
            }
            if (i + 1) % flush_every == 0 {
                index.flush_batch().expect("flush");
            }
        }
        index.flush_batch().expect("flush");
        for (&w, docs) in &model {
            let got = index.postings(WordId(w)).expect("query");
            prop_assert_eq!(got.docs(), docs.as_slice(), "word {} under {}", w, policy);
        }
    }

    #[test]
    fn parallel_invert_matches_sequential_memindex(
        // Documents: (word-seed, word-count) pairs; doc ids ascend.
        docs in prop::collection::vec((0u64..500, 0usize..20), 0..60),
        workers in 1usize..9,
        shards in 1usize..33,
    ) {
        let batch: Vec<(DocId, Vec<WordId>)> = docs
            .iter()
            .enumerate()
            .map(|(i, (seed, n))| {
                let words = (0..*n)
                    .map(|j| WordId(1 + seed.wrapping_mul(17).wrapping_add(j as u64 * 13) % 200))
                    .collect();
                (DocId(i as u32 + 1), words)
            })
            .collect();
        let mut seq = invidx_core::memindex::MemIndex::new();
        for (doc, words) in &batch {
            seq.add_document(*doc, words.iter().copied()).expect("add");
        }
        let par = invidx_core::invert_batch(batch, workers, shards).expect("invert");
        prop_assert_eq!(par.postings(), seq.postings());
        prop_assert_eq!(par.documents(), seq.documents());
        prop_assert_eq!(par.last_doc(), seq.last_doc());
        let s: Vec<_> = seq.iter().collect();
        let p: Vec<_> = par.iter().collect();
        prop_assert_eq!(p, s, "workers {} shards {}", workers, shards);
    }
}
