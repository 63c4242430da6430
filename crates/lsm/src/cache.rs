//! LRU block cache for the BlueStore-like store.
//!
//! BlueStore keeps recently accessed object data in an in-memory cache; the
//! paper leans on it when analyzing YCSB ("most of the reads hit the cache
//! in the object store", §V-E). This is that cache: an LRU over data-block
//! keys with a byte-capacity bound, write-through on updates. Values are
//! [`Payload`]s, so a cached block shares the writer's buffer.

use std::hash::BuildHasher;

use rablock_storage::{FxBuildHasher, Key, Payload};

/// "No neighbour" in the recency list, and "no slot" in an index bucket.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node {
    /// The entry's one copy of its key: the index finds slots by it.
    key: Key,
    value: Payload,
    /// Of `key`, so the index can move and regrow without rehashing.
    hash: u64,
    /// Towards the most recently used entry.
    prev: u32,
    /// Towards the least recently used entry.
    next: u32,
}

/// A byte-bounded LRU cache from block keys to block contents.
///
/// Entries live in a slab and are threaded on a doubly linked recency list,
/// so hit, insert and eviction are all O(1) however full the cache is (a
/// full cache evicts on every insert). The key-to-slot map is an
/// open-addressed table of slot numbers that compares against the slots'
/// own keys, so each entry's key is held once, inline when short.
#[derive(Debug)]
pub struct BlockCache {
    capacity_bytes: usize,
    used_bytes: usize,
    /// Slot numbers, `NIL` where empty: linear probing from a key's hash,
    /// a power of two long and at most half full.
    index: Vec<u32>,
    nodes: Vec<Option<Node>>,
    free: Vec<u32>,
    /// Most recently used entry.
    head: u32,
    /// Least recently used entry: the next eviction victim.
    tail: u32,
    hits: u64,
    misses: u64,
}

fn hash(key: &[u8]) -> u64 {
    FxBuildHasher::default().hash_one(key)
}

impl BlockCache {
    /// A cache holding at most `capacity_bytes` of block data. A zero
    /// capacity disables caching entirely.
    pub fn new(capacity_bytes: usize) -> Self {
        BlockCache {
            capacity_bytes,
            used_bytes: 0,
            index: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    fn node(&self, i: u32) -> &Node {
        self.nodes[i as usize]
            .as_ref()
            .expect("linked slot is occupied")
    }

    fn node_mut(&mut self, i: u32) -> &mut Node {
        self.nodes[i as usize]
            .as_mut()
            .expect("linked slot is occupied")
    }

    /// The slot holding `key`.
    fn find(&self, key: &[u8]) -> Option<u32> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let h = hash(key);
        let mut b = h as usize & mask;
        loop {
            match self.index[b] {
                NIL => return None,
                i => {
                    let n = self.node(i);
                    if n.hash == h && *n.key == *key {
                        return Some(i);
                    }
                }
            }
            b = (b + 1) & mask;
        }
    }

    /// Files slot `i` (whose key the index does not hold) in the index,
    /// doubling the table first if it would pass half full.
    fn index_insert(&mut self, i: u32) {
        let live = self.nodes.len() - self.free.len();
        if live * 2 > self.index.len() {
            let doubled = vec![NIL; (self.index.len() * 2).max(16)];
            let table = std::mem::replace(&mut self.index, doubled);
            for slot in table.into_iter().filter(|&s| s != NIL) {
                self.place(slot);
            }
        }
        self.place(i);
    }

    /// Puts slot `i` in the first empty bucket from its key's home.
    fn place(&mut self, i: u32) {
        let mask = self.index.len() - 1;
        let mut b = self.node(i).hash as usize & mask;
        while self.index[b] != NIL {
            b = (b + 1) & mask;
        }
        self.index[b] = i;
    }

    /// Takes slot `i` out of the index, shifting back each later entry of
    /// its probe run that may move into the hole, so no lookup ever stops
    /// short of an entry.
    fn index_remove(&mut self, i: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.node(i).hash as usize & mask;
        while self.index[hole] != i {
            hole = (hole + 1) & mask;
        }
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let slot = self.index[b];
            if slot == NIL {
                break;
            }
            let home = self.node(slot).hash as usize & mask;
            // The hole lies on the entry's path from its home.
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = b;
            }
        }
        self.index[hole] = NIL;
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = self.node(i);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        let n = self.node_mut(i);
        n.prev = NIL;
        n.next = old_head;
        match old_head {
            NIL => self.tail = i,
            h => self.node_mut(h).prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn remove(&mut self, i: u32) {
        self.unlink(i);
        self.index_remove(i);
        let node = self.nodes[i as usize]
            .take()
            .expect("linked slot is occupied");
        self.used_bytes -= node.value.len() + node.key.len();
        self.free.push(i);
    }

    /// Looks up a block, refreshing its recency.
    pub fn get(&mut self, key: &[u8]) -> Option<Payload> {
        match self.find(key) {
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
        if let Some(i) = self.find(key) {
            let new_len = value.len();
            let old = std::mem::replace(&mut self.node_mut(i).value, value);
            self.used_bytes = self.used_bytes - old.len() + new_len;
            self.touch(i);
        } else {
            self.used_bytes += value.len() + key.len();
            let node = Some(Node {
                key: Key::new(key),
                value,
                hash: hash(key),
                prev: NIL,
                next: NIL,
            });
            let i = match self.free.pop() {
                Some(i) => {
                    self.nodes[i as usize] = node;
                    i
                }
                None => {
                    self.nodes.push(node);
                    u32::try_from(self.nodes.len() - 1).expect("under 2^32 entries")
                }
            };
            self.index_insert(i);
            self.push_front(i);
        }
        while self.used_bytes > self.capacity_bytes && self.tail != NIL {
            self.remove(self.tail);
        }
    }

    /// Drops a block (the backing data was invalidated).
    pub fn invalidate(&mut self, key: &[u8]) {
        if let Some(i) = self.find(key) {
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
            // Keys of 0 to 64 bytes, so key bytes matter to the budget:
            // on both sides of the 22-byte inline limit, prefixes of each
            // other, some ending in 0x00.
            let key = |k: u8| -> Vec<u8> {
                (0..(k as usize * 17) % 65).map(|i| (i % 3 * i) as u8).collect()
            };
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
                let mut resident: Vec<&[u8]> = lru.nodes.iter().flatten().map(|n| &n.key[..]).collect();
                let mut expected: Vec<&[u8]> = model.map.keys().map(|k| &k[..]).collect();
                resident.sort();
                expected.sort();
                prop_assert_eq!(resident, expected);
            }
        }
    }
}
