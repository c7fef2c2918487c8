//! Copy-on-write snapshot publication and the per-core result cache.
//!
//! [`Published`] is the serving layer's RCU cell: the writer builds the
//! next [`ServeSnapshot`] off to the side and publishes it at the commit
//! point; readers follow a lock-free chain of `Arc` nodes to the newest
//! snapshot. Each reader thread caches its chain position per cell as a
//! `Weak` reference: between publications a load is pure atomic pointer
//! reads, and a publication orphans the old chain, so the next load
//! re-joins at the head (one brief mutex lock, held by the writer only
//! to swap a pointer). Holding the position weakly is load-bearing for
//! memory: a thread that served one query and then parked on an empty
//! queue pins nothing, so superseded snapshots — each O(docs + vocab) —
//! drop as soon as in-flight loads release them, however long the thread
//! stays idle. No reader ever blocks on the writer's materialization
//! work, and a stalled reader never blocks publication.
//!
//! [`ShardedCache`] splits the result cache into independent LRU shards
//! (one mutex each, selected by key hash), killing the global cache-mutex
//! convoy that coupled reader latency to cache contention. Per-shard
//! capacities sum exactly to the configured total and per-shard counters
//! are summed for STATS; eviction *order* is the one divergence from a
//! single LRU (each shard reaps its own least-recent entry under
//! capacity pressure).
//!
//! [`ReadGate`] preserves the old `RwLock` semantics tests rely on:
//! [`crate::QueryService::with_blocked_writer`] stalls the read path for
//! its duration, without putting a lock on the normal query path (the
//! fast path is a single relaxed atomic load).

use crate::cache::{Lookup, ResultCache};
use crate::request::Payload;
use invidx_ir::EngineSnapshot;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock, Weak};

/// Everything a reader needs to answer one request coherently: the epoch
/// and the materialized engine view it names (snapshot queries do no block
/// I/O themselves — all disk traffic happens at materialization, inside
/// the writer).
#[derive(Debug, Clone)]
pub(crate) struct ServeSnapshot {
    pub(crate) epoch: u64,
    pub(crate) view: Arc<EngineSnapshot>,
}

/// One link in the publication chain.
#[derive(Debug)]
struct Node {
    value: Arc<ServeSnapshot>,
    next: OnceLock<Arc<Node>>,
}

impl Drop for Node {
    fn drop(&mut self) {
        // Unlink iteratively: reader caches are weak so chains stay short
        // in steady state, but a reader mid-load (or a test) can still
        // hold an old node while many publications extend the chain, and
        // releasing it must not recurse one Arc drop per link — deep
        // enough to overflow the stack.
        let mut next = self.next.take();
        while let Some(node) = next {
            match Arc::try_unwrap(node) {
                Ok(mut n) => next = n.next.take(),
                Err(_) => break,
            }
        }
    }
}

/// Distinguishes publication cells in the per-thread chain cache.
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Each reader thread's last-seen node per publication cell, held
    /// weakly. The cached position accelerates repeat loads while its
    /// chain is current, but pins nothing: an idle thread must not keep
    /// superseded snapshots alive, and entries for destroyed cells are
    /// swept on the next fallback load (see [`Published::load`]) rather
    /// than accumulating for the thread's lifetime.
    static CHAIN_CACHE: RefCell<HashMap<u64, Weak<Node>>> = RefCell::new(HashMap::new());
}

/// A single-writer, many-reader publication cell (RCU-style).
///
/// The writer serializes through [`Published::publish`] (the service holds
/// its writer mutex there anyway); readers call [`Published::load`], which
/// locks nothing between publications after the thread's first touch, and
/// pays one pointer-swap-sized head lock per publication to re-join the
/// chain.
#[derive(Debug)]
pub(crate) struct Published {
    id: u64,
    head: Mutex<Arc<Node>>,
}

impl Published {
    pub(crate) fn new(initial: ServeSnapshot) -> Self {
        Self {
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            head: Mutex::new(Arc::new(Node {
                value: Arc::new(initial),
                next: OnceLock::new(),
            })),
        }
    }

    /// Publish the next snapshot. Readers parked anywhere on the chain
    /// reach it by following `next` links; new threads join at the head.
    pub(crate) fn publish(&self, value: ServeSnapshot) {
        let node = Arc::new(Node { value: Arc::new(value), next: OnceLock::new() });
        let mut head = self.head.lock();
        head.next
            .set(node.clone())
            .expect("single writer: the head node's next link is unset");
        *head = node;
    }

    /// The newest snapshot. Between publications this is lock-free after
    /// the calling thread's first touch: upgrade the cached `Weak` chain
    /// position, then chase `OnceLock` pointers to the tail. Once a
    /// publication has orphaned the cached chain the upgrade fails and
    /// the thread re-joins at the head — one short mutex lock per
    /// publication (the writer holds it only to swap a pointer), which is
    /// also when entries whose chains are gone (superseded nodes,
    /// destroyed cells) are swept from this thread's cache.
    pub(crate) fn load(&self) -> Arc<ServeSnapshot> {
        CHAIN_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let mut node = match cache.get(&self.id).and_then(Weak::upgrade) {
                Some(node) => node,
                None => {
                    cache.retain(|_, cached| cached.strong_count() > 0);
                    self.head.lock().clone()
                }
            };
            while let Some(next) = node.next.get() {
                node = next.clone();
            }
            cache.insert(self.id, Arc::downgrade(&node));
            node.value.clone()
        })
    }
}

/// The result cache, split into independently locked LRU shards.
///
/// Shard count adapts to the machine (one per available core) but never
/// exceeds the capacity — a capacity-1 cache stays one exact LRU slot,
/// which the stats-consistency tests rely on. Keys pick their shard by
/// hash, so repeat queries always land on the same shard, per-shard
/// capacities sum exactly to the configured total, and the summed
/// hit/miss/drop counters are exactly what the callers observed.
/// Eviction *order* is the one divergence from a single global LRU: each
/// shard reaps its own least-recent entry, so under capacity pressure a
/// hot shard can evict an entry a global LRU would have kept.
pub(crate) struct ShardedCache {
    shards: Vec<Mutex<ResultCache>>,
}

impl ShardedCache {
    pub(crate) fn new(capacity: usize) -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let n = capacity.min(cores).max(1);
        // Distribute the capacity exactly: the first `capacity % n` shards
        // take one extra slot, so the shards sum to `capacity` rather than
        // the rounded-up `n * ceil(capacity / n)`. With `n <= capacity`,
        // every shard holds at least one entry.
        let (base, extra) = (capacity / n, capacity % n);
        Self {
            shards: (0..n)
                .map(|i| Mutex::new(ResultCache::new(base + usize::from(i < extra))))
                .collect(),
        }
    }

    fn shard_of(&self, key: &str) -> &Mutex<ResultCache> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    pub(crate) fn get(&self, key: &str, epoch: u64) -> (Option<Payload>, Lookup) {
        self.shard_of(key).lock().get(key, epoch)
    }

    pub(crate) fn insert(&self, key: String, epoch: u64, value: Payload) {
        self.shard_of(&key).lock().insert(key, epoch, value);
    }

    /// `(evictions, stale_drops)` summed across shards.
    pub(crate) fn totals(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(e, s), shard| {
            let shard = shard.lock();
            (e + shard.evictions(), s + shard.stale_drops())
        })
    }

    /// Hold every shard lock for the duration of `f` — a deterministic
    /// way for tests to wedge the cache path and prove the writer no
    /// longer depends on it.
    #[doc(hidden)]
    pub(crate) fn with_blocked(&self, f: impl FnOnce()) {
        let _guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        f();
    }
}

/// Stalls the read path while [`crate::QueryService::with_blocked_writer`]
/// runs, mirroring the old write-lock semantics the admission and
/// gauge-hygiene tests are built around. The normal query path pays one
/// relaxed atomic load.
#[derive(Debug, Default)]
pub(crate) struct ReadGate {
    stalled: AtomicBool,
    lock: StdMutex<()>,
    cv: Condvar,
}

impl ReadGate {
    /// Fast path: one atomic load. When stalled, park until released.
    pub(crate) fn wait_if_stalled(&self) {
        if !self.stalled.load(Ordering::Acquire) {
            return;
        }
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while self.stalled.load(Ordering::Acquire) {
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub(crate) fn stall(&self) {
        self.stalled.store(true, Ordering::Release);
    }

    pub(crate) fn unstall(&self) {
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.stalled.store(false, Ordering::Release);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64) -> ServeSnapshot {
        ServeSnapshot { epoch, view: Arc::new(EngineSnapshot::empty()) }
    }

    #[test]
    fn publish_is_visible_to_old_and_new_readers() {
        let cell = Published::new(snap(0));
        assert_eq!(cell.load().epoch, 0);
        for e in 1..=100 {
            cell.publish(snap(e));
            assert_eq!(cell.load().epoch, e, "same-thread reader chases to the tail");
        }
        // A fresh thread joins at the head and sees the newest snapshot.
        let newest = std::thread::scope(|s| {
            s.spawn(|| cell.load().epoch).join().unwrap()
        });
        assert_eq!(newest, 100);
    }

    #[test]
    fn concurrent_readers_see_monotonic_epochs() {
        let cell = Arc::new(Published::new(snap(0)));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = cell.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let e = cell.load().epoch;
                        assert!(e >= last, "epoch went backwards: {last} -> {e}");
                        last = e;
                    }
                });
            }
            for e in 1..=500 {
                cell.publish(snap(e));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.load().epoch, 500);
    }

    #[test]
    fn long_chains_drop_without_overflowing() {
        let cell = Published::new(snap(0));
        // Pin the chain's origin node directly (reader caches are weak and
        // pin nothing), extend the chain far enough that a recursive drop
        // would blow the stack, then release it.
        let origin = cell.head.lock().clone();
        for e in 1..=200_000 {
            cell.publish(snap(e));
        }
        drop(origin);
        assert_eq!(cell.load().epoch, 200_000);
    }

    #[test]
    fn parked_reader_thread_does_not_pin_superseded_snapshots() {
        let cell = Arc::new(Published::new(snap(0)));
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let reader = cell.clone();
            s.spawn(move || {
                // Serve one load, then park — the idle replica / no-query
                // shape from the field: the thread must not keep every
                // later publication alive through its chain cache.
                reader.load();
                parked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
            parked_rx.recv().unwrap();
            let mut weaks = Vec::new();
            for e in 1..=50 {
                cell.publish(snap(e));
                weaks.push(Arc::downgrade(&cell.load()));
            }
            let (superseded, newest) = weaks.split_at(weaks.len() - 1);
            assert!(
                superseded.iter().all(|w| w.upgrade().is_none()),
                "superseded snapshots must drop while a reader thread is parked"
            );
            assert!(newest[0].upgrade().is_some(), "the published snapshot stays live");
            release_tx.send(()).unwrap();
        });
    }

    #[test]
    fn destroyed_cells_are_swept_from_reader_caches() {
        let a = Published::new(snap(1));
        let a_id = a.id;
        assert_eq!(a.load().epoch, 1);
        CHAIN_CACHE.with(|c| assert!(c.borrow().contains_key(&a_id), "load caches a position"));
        drop(a);
        // The next load that misses its cached position (here: a fresh
        // cell's first touch) sweeps entries whose chains are gone, so a
        // long-lived reader thread does not accumulate one entry per
        // destroyed service.
        let b = Published::new(snap(2));
        assert_eq!(b.load().epoch, 2);
        CHAIN_CACHE.with(|c| {
            assert!(!c.borrow().contains_key(&a_id), "dead cell entry must be swept")
        });
    }

    #[test]
    fn sharded_cache_sums_counters_and_stays_exact_at_capacity_one() {
        let c = ShardedCache::new(1);
        assert_eq!(c.shards.len(), 1, "capacity bounds the shard count");
        c.insert("a".into(), 0, Payload::Docs(vec![1]));
        c.insert("b".into(), 0, Payload::Docs(vec![2]));
        assert_eq!(c.totals(), (1, 0));
        assert_eq!(c.get("b", 0).1, Lookup::Hit);
        assert_eq!(c.get("b", 1).1, Lookup::Stale);
        assert_eq!(c.totals(), (1, 1));
    }

    #[test]
    fn sharded_cache_totals_sum_across_shards() {
        // Wide capacity → as many shards as the machine has cores; keys
        // hash across them. However the drops scatter, the summed totals
        // must equal what the caller observed. (All inserts happen at
        // epoch 0, so any capacity reap of a skewed shard counts as an
        // eviction — entries missing at probe time are plain misses.)
        let c = ShardedCache::new(256);
        for i in 0..40 {
            c.insert(format!("k{i}"), 0, Payload::Docs(vec![i]));
        }
        let mut observed_stale = 0;
        for i in 0..40 {
            if c.get(&format!("k{i}"), 1).1 == Lookup::Stale {
                observed_stale += 1;
            }
        }
        assert!(observed_stale > 0, "epoch bump must stale the entries");
        let (evictions, stale_drops) = c.totals();
        assert_eq!(stale_drops, observed_stale, "shard counters must sum to the totals");
        assert_eq!(evictions, 40 - observed_stale, "every other entry was a capacity reap");
    }

    #[test]
    fn sharded_cache_distributes_capacity_exactly() {
        for capacity in [1usize, 2, 3, 5, 8, 10, 17, 100, 256] {
            let c = ShardedCache::new(capacity);
            let total: usize = c.shards.iter().map(|s| s.lock().capacity()).sum();
            assert_eq!(total, capacity, "shard capacities must sum to the configured total");
            assert!(
                c.shards.iter().all(|s| s.lock().capacity() >= 1),
                "no shard may be a zero-capacity black hole"
            );
        }
        // Capacity 0 stays the single disabled shard.
        let disabled = ShardedCache::new(0);
        assert_eq!(disabled.shards.len(), 1);
        assert_eq!(disabled.shards[0].lock().capacity(), 0);
    }

    #[test]
    fn sharded_cache_routes_repeat_keys_to_one_shard() {
        let c = ShardedCache::new(1024);
        for i in 0..200 {
            c.insert(format!("q{i}"), 3, Payload::Docs(vec![i]));
        }
        for i in 0..200 {
            let (hit, outcome) = c.get(&format!("q{i}"), 3);
            assert_eq!(outcome, Lookup::Hit);
            assert_eq!(hit, Some(Payload::Docs(vec![i])));
        }
    }

    #[test]
    fn read_gate_blocks_until_released() {
        let gate = Arc::new(ReadGate::default());
        gate.stall();
        let passed = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let g = gate.clone();
            let p = passed.clone();
            s.spawn(move || {
                g.wait_if_stalled();
                p.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(!passed.load(Ordering::SeqCst), "reader must park while stalled");
            gate.unstall();
        });
        assert!(passed.load(Ordering::SeqCst));
        gate.wait_if_stalled(); // released gate is a no-op
    }
}
