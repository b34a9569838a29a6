//! Allocation helpers for the event loop: a per-loop buffer pool
//! for the read/write hot path and a minimal slab for connection slots.
//!
//! Both are single-threaded by construction (each event loop owns its own
//! pool and slab), so neither takes a lock.

/// Recycles `Vec<u8>` buffers between connections so the steady-state hot
/// path allocates nothing. Buffers that grew far beyond the nominal size
/// (a huge body, a slow-drain backlog) are dropped instead of pooled, so
/// one pathological connection cannot pin memory forever.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    /// Capacity a fresh buffer starts with.
    buf_capacity: usize,
    /// Most buffers kept around when idle.
    max_pooled: usize,
}

impl BufferPool {
    /// A pool handing out buffers of `buf_capacity`, keeping at most
    /// `max_pooled` idle ones.
    pub fn new(buf_capacity: usize, max_pooled: usize) -> BufferPool {
        BufferPool {
            free: Vec::new(),
            buf_capacity: buf_capacity.max(64),
            max_pooled,
        }
    }

    /// Check a buffer out (recycled when available, fresh otherwise).
    pub fn get(&mut self) -> Vec<u8> {
        self.free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.buf_capacity))
    }

    /// Return a buffer. Cleared, and dropped instead of pooled when it
    /// ballooned past 4× the nominal capacity or the pool is full.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        if buf.capacity() <= self.buf_capacity * 4 && self.free.len() < self.max_pooled {
            self.free.push(buf);
        }
    }

    /// Idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// Minimal slot map: stable `usize` keys, O(1) insert/remove via a free
/// list. Connection tokens in the event loop are slab keys.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<usize>,
    len: usize,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the slab empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store `value`, returning its key.
    pub fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        match self.free.pop() {
            Some(key) => {
                debug_assert!(self.entries[key].is_none());
                self.entries[key] = Some(value);
                key
            }
            None => {
                self.entries.push(Some(value));
                self.entries.len() - 1
            }
        }
    }

    /// The value under `key`, if occupied.
    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        self.entries.get_mut(key).and_then(Option::as_mut)
    }

    /// Remove and return the value under `key` (None when vacant).
    pub fn remove(&mut self, key: usize) -> Option<T> {
        let value = self.entries.get_mut(key).and_then(Option::take);
        if value.is_some() {
            self.free.push(key);
            self.len -= 1;
        }
        value
    }

    /// Keys of every occupied slot (snapshot; safe to mutate while
    /// iterating the returned list).
    pub fn keys(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|_| i))
            .collect()
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_and_caps() {
        let mut pool = BufferPool::new(1024, 2);
        let mut a = pool.get();
        a.extend_from_slice(b"data");
        pool.put(a);
        assert_eq!(pool.pooled(), 1);
        let b = pool.get();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert!(b.capacity() >= 1024);
        // Cap: only `max_pooled` buffers are kept.
        pool.put(Vec::with_capacity(1024));
        pool.put(Vec::with_capacity(1024));
        pool.put(Vec::with_capacity(1024));
        assert_eq!(pool.pooled(), 2);
        // Ballooned buffers are dropped, not pooled.
        let mut pool = BufferPool::new(1024, 8);
        pool.put(Vec::with_capacity(1024 * 64));
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn slab_reuses_slots() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_ne!(a, b);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.remove(a), None, "double remove is a no-op");
        let c = slab.insert("c");
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(slab.get_mut(b), Some(&mut "b"));
        assert_eq!(slab.keys().len(), 2);
    }
}
