//! A minimal slab for the event loop's connection slots. Each event loop
//! owns its own, so it takes no lock.

/// Minimal slot map: stable `usize` keys, O(1) insert/remove via a free
/// list. Connection tokens in the event loop are slab keys.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<usize>,
    len: usize,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub(crate) fn new() -> Slab<T> {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Is the slab empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store `value`, returning its key.
    pub(crate) fn insert(&mut self, value: T) -> usize {
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
    pub(crate) fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        self.entries.get_mut(key).and_then(Option::as_mut)
    }

    /// Remove and return the value under `key` (None when vacant).
    pub(crate) fn remove(&mut self, key: usize) -> Option<T> {
        let value = self.entries.get_mut(key).and_then(Option::take);
        if value.is_some() {
            self.free.push(key);
            self.len -= 1;
        }
        value
    }

    /// Keys of every occupied slot (snapshot; safe to mutate while
    /// iterating the returned list).
    pub(crate) fn keys(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|_| i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
