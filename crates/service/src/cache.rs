//! A set-associative cache for effective-resistance pair results.
//!
//! Query traffic on real graphs is often skewed — a small set of popular
//! node pairs dominates — so a bounded cache in front of the sparse kernel
//! answers the repeats without touching a column. A batch with more pairs
//! than the cache holds (an all-edges sweep) bypasses it: it would evict
//! its own entries before a repeat could hit them, and flush the hot ones.
//! A probe must still be cheap when it misses, so it touches one line:
//!
//! * The cache is split into lock stripes (16 in the engine), each guarded
//!   by its own mutex, so parallel batch workers rarely contend on the same
//!   lock.
//! * Each stripe is a flat array of 64-byte, 64-byte-aligned *sets*. A set
//!   holds four `(key, value)` slots ordered most recent first: four `u64`
//!   keys, then four `f64` values.
//! * One SplitMix64 finalization of the key picks the stripe from its low
//!   bits and the set from its high bits. A lookup scans that set's four
//!   keys and nothing else — no hash-table probe sequence, no list links.
//! * A hit rotates its slot to the front of the set; an insert of a new key
//!   shifts the set back one slot, evicting the last (least recently used)
//!   one. Eviction is therefore LRU within a set rather than within a whole
//!   stripe, which costs about a point of hit ratio on Zipf traffic (pinned
//!   against an exact-LRU oracle in the tests).
//!
//! A stripe whose capacity is under four entries is one set of exactly that
//! width, so tiny caches stay exact LRU. Otherwise capacity rounds up to
//! whole sets. `u64::MAX` marks an empty slot; the engine's pair keys pack
//! two node ids below 2^32 and can never equal it, and the cache treats it
//! as an uncacheable key.

use std::sync::Mutex;

/// Lock stripes of the engine's pair cache.
pub(crate) const SHARDS: usize = 16;

/// Slots per set: four `u64` keys and four `f64` values fill a cache line.
const WAYS: usize = 4;

/// The key of an empty slot.
const EMPTY: u64 = u64::MAX;

/// One cache line of four slots, most recently used first. Occupied slots
/// always form a prefix: inserts and promotions only shift slots back.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Set {
    keys: [u64; WAYS],
    values: [f64; WAYS],
}

impl Set {
    const VACANT: Set = Set {
        keys: [EMPTY; WAYS],
        values: [0.0; WAYS],
    };

    /// Moves slot `way` to the front, shifting the slots before it back.
    fn promote(&mut self, way: usize) {
        let (key, value) = (self.keys[way], self.values[way]);
        for w in (1..=way).rev() {
            self.keys[w] = self.keys[w - 1];
            self.values[w] = self.values[w - 1];
        }
        self.keys[0] = key;
        self.values[0] = value;
    }
}

#[derive(Debug, Clone)]
struct Shard {
    sets: Vec<Set>,
    /// Slots in use per set: [`WAYS`], or the whole (smaller) capacity of a
    /// single-set stripe.
    ways: usize,
    /// Occupied slots across all sets.
    len: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        let ways = capacity.clamp(1, WAYS);
        Shard {
            sets: vec![Set::VACANT; capacity.div_ceil(ways).max(1)],
            ways,
            len: 0,
        }
    }

    fn get(&mut self, set: usize, key: u64) -> Option<f64> {
        let set = &mut self.sets[set];
        let way = set.keys[..self.ways].iter().position(|&k| k == key)?;
        set.promote(way);
        Some(set.values[0])
    }

    fn insert(&mut self, set: usize, key: u64, value: f64) {
        let set = &mut self.sets[set];
        let last = self.ways - 1;
        let way = match set.keys[..self.ways].iter().position(|&k| k == key) {
            Some(way) => way,
            None => {
                if set.keys[last] == EMPTY {
                    self.len += 1;
                }
                set.keys[last] = key;
                last
            }
        };
        set.values[way] = value;
        set.promote(way);
    }

    fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }
}

/// A thread-safe pair-result cache: independently locked stripes of
/// four-way LRU sets (see the module docs for the layout).
#[derive(Debug)]
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    mask: u64,
    /// Sets per stripe (every stripe has the same geometry).
    sets: u64,
    shard_capacity: usize,
}

impl ShardedLru {
    /// A cache holding about `capacity` entries across `shards` stripes.
    /// `shards` is rounded up to a power of two; each stripe gets an equal
    /// slice of the capacity (at least one entry), rounded up to whole
    /// four-entry sets.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shard_count = shards.max(1).next_power_of_two();
        let shard = Shard::new(capacity.div_ceil(shard_count).max(1));
        ShardedLru {
            mask: shard_count as u64 - 1,
            sets: shard.sets.len() as u64,
            shard_capacity: shard.capacity(),
            shards: (0..shard_count)
                .map(|_| Mutex::new(shard.clone()))
                .collect(),
        }
    }

    /// The stripe and set of `key`.
    fn locate(&self, key: u64) -> (usize, usize) {
        // SplitMix64 finalizer: adjacent keys land in unrelated stripes
        // (low bits) and sets (high bits, by multiply-shift range
        // reduction).
        let mut h = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (
            (h & self.mask) as usize,
            (((h >> 32) * self.sets) >> 32) as usize,
        )
    }

    fn shard(&self, stripe: usize) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[stripe].lock().expect("cache shard poisoned")
    }

    /// Looks a key up, marking it most recently used in its set.
    pub fn get(&self, key: u64) -> Option<f64> {
        if key == EMPTY {
            return None;
        }
        let (stripe, set) = self.locate(key);
        self.shard(stripe).get(set, key)
    }

    /// Inserts (or refreshes) a key, evicting its set's least recently used
    /// entry if the set is full.
    pub fn insert(&self, key: u64, value: f64) {
        if key == EMPTY {
            return;
        }
        let (stripe, set) = self.locate(key);
        self.shard(stripe).insert(set, key, value);
    }

    /// Drops every entry.
    pub fn clear(&self) {
        for stripe in 0..self.shards.len() {
            let mut shard = self.shard(stripe);
            shard.sets.fill(Set::VACANT);
            shard.len = 0;
        }
    }

    /// Number of cached entries across all stripes.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.shard(s).len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry capacity across all stripes.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shard_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Keys that all land in one set of a single-stripe cache.
    fn colliding_keys(cache: &ShardedLru, count: usize) -> Vec<u64> {
        let (_, target) = cache.locate(0);
        (0..)
            .filter(|&k| cache.locate(k).1 == target)
            .take(count)
            .collect()
    }

    fn set_keys(cache: &ShardedLru, key: u64) -> [u64; WAYS] {
        let (stripe, set) = cache.locate(key);
        cache.shard(stripe).sets[set].keys
    }

    #[test]
    fn a_set_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Set>(), 64);
        assert_eq!(std::mem::align_of::<Set>(), 64);
    }

    #[test]
    fn get_insert_and_update() {
        let cache = ShardedLru::new(64, 4);
        assert!(cache.get(1).is_none());
        cache.insert(1, 0.5);
        cache.insert(2, 1.5);
        assert_eq!(cache.get(1), Some(0.5));
        assert_eq!(cache.get(2), Some(1.5));
        cache.insert(1, 2.5);
        assert_eq!(cache.get(1), Some(2.5));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_is_lru_within_a_shard() {
        // One shard with capacity 2 makes the eviction order observable.
        let cache = ShardedLru::new(2, 1);
        cache.insert(1, 1.0);
        cache.insert(2, 2.0);
        assert_eq!(cache.get(1), Some(1.0)); // 1 is now most recent
        cache.insert(3, 3.0); // evicts 2
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(1), Some(1.0));
        assert_eq!(cache.get(3), Some(3.0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_hit_moves_to_the_front_of_its_set() {
        let cache = ShardedLru::new(64, 1);
        let keys = colliding_keys(&cache, WAYS);
        for &k in &keys {
            cache.insert(k, k as f64);
        }
        // Most recent first: the insertion order, reversed.
        assert_eq!(
            set_keys(&cache, keys[0]),
            [keys[3], keys[2], keys[1], keys[0]]
        );
        assert_eq!(cache.get(keys[1]), Some(keys[1] as f64));
        assert_eq!(
            set_keys(&cache, keys[0]),
            [keys[1], keys[3], keys[2], keys[0]]
        );
        // A hit already at the front leaves the set as it is.
        assert_eq!(cache.get(keys[1]), Some(keys[1] as f64));
        assert_eq!(
            set_keys(&cache, keys[0]),
            [keys[1], keys[3], keys[2], keys[0]]
        );
    }

    #[test]
    fn an_insert_into_a_full_set_evicts_its_least_recently_used_key() {
        let cache = ShardedLru::new(64, 1);
        let keys = colliding_keys(&cache, WAYS + 1);
        for &k in &keys[..WAYS] {
            cache.insert(k, k as f64);
        }
        // Touch the oldest key, so the second oldest is now the set's LRU.
        assert!(cache.get(keys[0]).is_some());
        cache.insert(keys[WAYS], 9.0);
        assert_eq!(cache.get(keys[1]), None, "the set's LRU key is evicted");
        for &k in [keys[0], keys[2], keys[3]].iter() {
            assert_eq!(cache.get(k), Some(k as f64));
        }
        assert_eq!(cache.get(keys[WAYS]), Some(9.0));
        assert_eq!(cache.len(), WAYS);
    }

    #[test]
    fn reinserting_a_present_key_updates_it_without_growing() {
        let cache = ShardedLru::new(64, 2);
        cache.insert(7, 1.0);
        cache.insert(8, 2.0);
        cache.insert(7, 3.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(7), Some(3.0));
        assert_eq!(cache.get(8), Some(2.0));
    }

    #[test]
    fn len_counts_exactly_the_keys_still_present() {
        let cache = ShardedLru::new(100, 4);
        // 100 over 4 stripes is 25 each, rounded up to 7 sets of 4.
        assert_eq!(cache.capacity(), 4 * 28);
        for i in 0..1_000u64 {
            cache.insert(i * 0x9e37, i as f64);
            assert!(cache.len() <= cache.capacity());
            if i % 97 == 0 {
                let present = (0..=i).filter(|&k| cache.get(k * 0x9e37).is_some()).count();
                assert_eq!(cache.len(), present, "after {i} inserts");
            }
        }
    }

    #[test]
    fn tiny_caches_are_one_exact_lru_set() {
        let cache = ShardedLru::new(3, 1);
        assert_eq!(cache.capacity(), 3);
        for k in 1..=3u64 {
            cache.insert(k, k as f64);
        }
        assert!(cache.get(1).is_some());
        cache.insert(4, 4.0); // evicts 2, the stripe's LRU key
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn the_empty_marker_is_never_cached() {
        let cache = ShardedLru::new(8, 1);
        assert_eq!(cache.get(EMPTY), None);
        cache.insert(EMPTY, 1.0);
        assert_eq!(cache.get(EMPTY), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn heavy_churn_keeps_size_bounded() {
        let cache = ShardedLru::new(128, 8);
        for i in 0..10_000u64 {
            cache.insert(i, i as f64);
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.capacity() >= 128);
        // The most recent keys should still be present in their shards.
        let recent_hits = (9_900..10_000u64)
            .filter(|&i| cache.get(i).is_some())
            .count();
        assert!(recent_hits > 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ShardedLru::new(1024, 16));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        let key = (i * 31 + t) % 2048;
                        if let Some(v) = cache.get(key) {
                            assert_eq!(v, key as f64);
                        } else {
                            cache.insert(key, key as f64);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
    }

    const NIL: u32 = u32::MAX;

    #[derive(Clone, Copy)]
    struct Node {
        key: u64,
        value: f64,
        prev: u32,
        next: u32,
    }

    /// The exact-LRU stripe the set-associative cache replaced — a hash map
    /// into a slab of doubly linked nodes — kept as the hit-ratio oracle.
    struct ExactLru {
        map: HashMap<u64, u32>,
        slab: Vec<Node>,
        head: u32,
        tail: u32,
        capacity: usize,
    }

    impl ExactLru {
        fn new(capacity: usize) -> Self {
            ExactLru {
                map: HashMap::with_capacity(capacity.min(1 << 20)),
                slab: Vec::new(),
                head: NIL,
                tail: NIL,
                capacity,
            }
        }

        fn unlink(&mut self, index: u32) {
            let node = self.slab[index as usize];
            match node.prev {
                NIL => self.head = node.next,
                prev => self.slab[prev as usize].next = node.next,
            }
            match node.next {
                NIL => self.tail = node.prev,
                next => self.slab[next as usize].prev = node.prev,
            }
        }

        fn push_front(&mut self, index: u32) {
            let old_head = self.head;
            {
                let node = &mut self.slab[index as usize];
                node.prev = NIL;
                node.next = old_head;
            }
            if old_head != NIL {
                self.slab[old_head as usize].prev = index;
            }
            self.head = index;
            if self.tail == NIL {
                self.tail = index;
            }
        }

        fn get(&mut self, key: u64) -> Option<f64> {
            let index = *self.map.get(&key)?;
            if self.head != index {
                self.unlink(index);
                self.push_front(index);
            }
            Some(self.slab[index as usize].value)
        }

        fn insert(&mut self, key: u64, value: f64) {
            if self.capacity == 0 {
                return;
            }
            if let Some(&index) = self.map.get(&key) {
                self.slab[index as usize].value = value;
                if self.head != index {
                    self.unlink(index);
                    self.push_front(index);
                }
                return;
            }
            let index = if self.map.len() >= self.capacity {
                let victim = self.tail;
                self.unlink(victim);
                self.map.remove(&self.slab[victim as usize].key);
                victim
            } else {
                self.slab.push(Node {
                    key: 0,
                    value: 0.0,
                    prev: NIL,
                    next: NIL,
                });
                (self.slab.len() - 1) as u32
            };
            {
                let node = &mut self.slab[index as usize];
                node.key = key;
                node.value = value;
            }
            self.map.insert(key, index);
            self.push_front(index);
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn hit_ratio_stays_within_two_points_of_exact_lru_on_zipf_traffic() {
        const KEYS: usize = 50_000;
        const DRAWS: usize = 200_000;
        const CAPACITY: usize = 4_096;
        const STRIPES: usize = 16;
        // Zipf(1.0) over KEYS ranks; each rank is a pair key of two random
        // node ids, as the engine would form it.
        let mut state = 2024u64;
        let pool: Vec<u64> = (0..KEYS)
            .map(|_| {
                let (a, b) = (splitmix64(&mut state) >> 40, splitmix64(&mut state) >> 40);
                (a.min(b) << 32) | a.max(b)
            })
            .collect();
        let mut mass = 0.0;
        let cdf: Vec<f64> = (1..=KEYS)
            .map(|rank| {
                mass += 1.0 / rank as f64;
                mass
            })
            .collect();
        let trace: Vec<u64> = (0..DRAWS)
            .map(|_| {
                let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                pool[cdf.partition_point(|&c| c <= u * mass).min(KEYS - 1)]
            })
            .collect();

        let cache = ShardedLru::new(CAPACITY, STRIPES);
        assert_eq!(cache.capacity(), CAPACITY);
        let mut oracle: Vec<ExactLru> = (0..STRIPES)
            .map(|_| ExactLru::new(CAPACITY / STRIPES))
            .collect();
        let (mut hits, mut oracle_hits) = (0usize, 0usize);
        for &key in &trace {
            if cache.get(key).is_some() {
                hits += 1;
            } else {
                cache.insert(key, key as f64);
            }
            // The oracle stripes exactly as the cache does.
            let stripe = &mut oracle[cache.locate(key).0];
            if stripe.get(key).is_some() {
                oracle_hits += 1;
            } else {
                stripe.insert(key, key as f64);
            }
        }
        let ratio = hits as f64 / DRAWS as f64;
        let exact = oracle_hits as f64 / DRAWS as f64;
        assert!(
            ratio >= exact - 0.02,
            "set-associative hit ratio {ratio:.4} vs exact LRU {exact:.4}"
        );
        assert!(cache.len() <= cache.capacity());
    }
}
