//! LRU block cache for the BlueStore-like store.
//!
//! BlueStore keeps recently accessed object data in an in-memory cache; the
//! paper leans on it when analyzing YCSB ("most of the reads hit the cache
//! in the object store", §V-E). This is that cache: an LRU over data-block
//! keys with a byte-capacity bound, write-through on updates. Values are
//! [`Payload`]s, so a cached block shares the writer's buffer.

use rablock_storage::{FxHashMap, Payload};

/// "No neighbour" in the recency list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    key: Vec<u8>,
    value: Payload,
    /// Towards the most recently used entry.
    prev: usize,
    /// Towards the least recently used entry.
    next: usize,
}

/// A byte-bounded LRU cache from block keys to block contents.
///
/// Entries live in a slab and are threaded on a doubly linked recency list,
/// so hit, insert and eviction are all O(1) however full the cache is (a
/// full cache evicts on every insert).
#[derive(Debug)]
pub struct BlockCache {
    capacity_bytes: usize,
    used_bytes: usize,
    map: FxHashMap<Vec<u8>, usize>,
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    /// Most recently used entry.
    head: usize,
    /// Least recently used entry: the next eviction victim.
    tail: usize,
    hits: u64,
    misses: u64,
}

impl BlockCache {
    /// A cache holding at most `capacity_bytes` of block data. A zero
    /// capacity disables caching entirely.
    pub fn new(capacity_bytes: usize) -> Self {
        BlockCache {
            capacity_bytes,
            used_bytes: 0,
            map: FxHashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    fn node(&mut self, i: usize) -> &mut Node {
        self.nodes[i].as_mut().expect("linked slot is occupied")
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let n = self.node(i);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node(n).prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        let old_head = self.head;
        let n = self.node(i);
        n.prev = NIL;
        n.next = old_head;
        match old_head {
            NIL => self.tail = i,
            h => self.node(h).prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn remove(&mut self, i: usize) {
        self.unlink(i);
        let node = self.nodes[i].take().expect("linked slot is occupied");
        self.map.remove(&node.key);
        self.used_bytes -= node.value.len() + node.key.len();
        self.free.push(i);
    }

    /// Looks up a block, refreshing its recency.
    pub fn get(&mut self, key: &[u8]) -> Option<Payload> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                self.touch(i);
                Some(self.node(i).value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts or replaces a block (write-through from the store).
    pub fn put(&mut self, key: &[u8], value: Payload) {
        if self.capacity_bytes == 0 || value.len() > self.capacity_bytes {
            return;
        }
        if let Some(i) = self.map.get(key).copied() {
            let new_len = value.len();
            let old = std::mem::replace(&mut self.node(i).value, value);
            self.used_bytes = self.used_bytes - old.len() + new_len;
            self.touch(i);
        } else {
            self.used_bytes += value.len() + key.len();
            let node = Some(Node {
                key: key.to_vec(),
                value,
                prev: NIL,
                next: NIL,
            });
            let i = match self.free.pop() {
                Some(i) => {
                    self.nodes[i] = node;
                    i
                }
                None => {
                    self.nodes.push(node);
                    self.nodes.len() - 1
                }
            };
            self.push_front(i);
            self.map.insert(key.to_vec(), i);
        }
        while self.used_bytes > self.capacity_bytes && self.tail != NIL {
            self.remove(self.tail);
        }
    }

    /// Drops a block (the backing data was invalidated).
    pub fn invalidate(&mut self, key: &[u8]) {
        if let Some(i) = self.map.get(key).copied() {
            self.remove(i);
        }
    }

    /// Resident bytes.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn block(fill: u8, len: usize) -> Payload {
        vec![fill; len].into()
    }

    #[test]
    fn hit_after_put() {
        let mut c = BlockCache::new(1 << 20);
        c.put(b"k", block(7, 100));
        assert_eq!(c.get(b"k").as_deref(), Some(&[7u8; 100][..]));
        assert_eq!(c.stats(), (1, 0));
    }

    #[test]
    fn cached_value_shares_the_writers_buffer() {
        let mut c = BlockCache::new(1 << 20);
        let data = block(7, 4096);
        c.put(b"k", data.clone());
        let got = c.get(b"k").expect("hit");
        assert!(std::ptr::eq(
            got.as_slice().as_ptr(),
            data.as_slice().as_ptr()
        ));
    }

    #[test]
    fn eviction_is_lru_and_respects_capacity() {
        let mut c = BlockCache::new(350);
        c.put(b"a", block(1, 100));
        c.put(b"b", block(2, 100));
        c.put(b"c", block(3, 100));
        // Touch "a" so "b" is now the oldest.
        assert!(c.get(b"a").is_some());
        c.put(b"d", block(4, 100));
        assert!(c.get(b"b").is_none(), "oldest evicted");
        assert!(c.get(b"a").is_some());
        assert!(c.get(b"d").is_some());
        assert!(c.used_bytes() <= 350);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = BlockCache::new(1 << 10);
        c.put(b"k", block(1, 64));
        c.invalidate(b"k");
        assert_eq!(c.get(b"k"), None);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = BlockCache::new(0);
        c.put(b"k", block(1, 8));
        assert_eq!(c.get(b"k"), None);
    }

    #[test]
    fn overwrite_updates_value_and_size() {
        let mut c = BlockCache::new(1 << 10);
        c.put(b"k", block(1, 100));
        c.put(b"k", block(2, 10));
        assert_eq!(c.get(b"k").as_deref(), Some(&[2u8; 10][..]));
        assert!(c.used_bytes() < 100);
    }

    /// The cache this one replaced, kept as the reference model: recency is
    /// a monotone tick per entry and eviction scans for the smallest one.
    /// Ticks are unique, so "smallest tick" and "list tail" name the same
    /// entry and the two caches must agree on every hit, miss and byte.
    struct ScanCache {
        capacity_bytes: usize,
        used_bytes: usize,
        map: HashMap<Vec<u8>, (Vec<u8>, u64)>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl ScanCache {
        fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
            self.tick += 1;
            let tick = self.tick;
            match self.map.get_mut(key) {
                Some((value, at)) => {
                    *at = tick;
                    self.hits += 1;
                    Some(value.clone())
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
            if self.capacity_bytes == 0 || value.len() > self.capacity_bytes {
                return;
            }
            self.tick += 1;
            if let Some((old, at)) = self.map.get_mut(&key) {
                self.used_bytes = self.used_bytes - old.len() + value.len();
                *old = value;
                *at = self.tick;
            } else {
                self.used_bytes += value.len() + key.len();
                self.map.insert(key, (value, self.tick));
            }
            while self.used_bytes > self.capacity_bytes {
                let victim = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, at))| *at)
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => self.invalidate(&k),
                    None => self.used_bytes = 0,
                }
            }
        }

        fn invalidate(&mut self, key: &[u8]) {
            if let Some((value, _)) = self.map.remove(key) {
                self.used_bytes -= value.len() + key.len();
            }
        }
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Put(u8, u8, u16),
        Get(u8),
        Invalidate(u8),
    }

    fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
        proptest::collection::vec(
            prop_oneof![
                4 => (0u8..24, any::<u8>(), 0u16..700).prop_map(|(k, f, l)| CacheOp::Put(k, f, l)),
                3 => (0u8..24).prop_map(CacheOp::Get),
                1 => (0u8..24).prop_map(CacheOp::Invalidate),
            ],
            1..400,
        )
    }

    proptest! {
        #[test]
        fn list_lru_matches_scan_lru(capacity in 0usize..3_000, script in cache_ops()) {
            let mut lru = BlockCache::new(capacity);
            let mut model = ScanCache {
                capacity_bytes: capacity,
                used_bytes: 0,
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
            };
            // Keys of different lengths, so key bytes matter to the budget.
            let key = |k: u8| vec![k; 1 + (k % 5) as usize];
            for op in script {
                match op {
                    CacheOp::Put(k, fill, len) => {
                        lru.put(&key(k), block(fill, len as usize));
                        model.put(key(k), vec![fill; len as usize]);
                    }
                    CacheOp::Get(k) => {
                        let got = lru.get(&key(k)).map(|p| p.to_vec());
                        prop_assert_eq!(got, model.get(&key(k)));
                    }
                    CacheOp::Invalidate(k) => {
                        lru.invalidate(&key(k));
                        model.invalidate(&key(k));
                    }
                }
                prop_assert_eq!(lru.used_bytes(), model.used_bytes);
                prop_assert_eq!(lru.stats(), (model.hits, model.misses));
                let mut resident: Vec<&Vec<u8>> = lru.map.keys().collect();
                let mut expected: Vec<&Vec<u8>> = model.map.keys().collect();
                resident.sort();
                expected.sort();
                prop_assert_eq!(resident, expected);
            }
        }
    }
}
