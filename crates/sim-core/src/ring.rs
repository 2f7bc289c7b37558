//! A bounded FIFO that keeps the most recent `capacity` elements.
//!
//! [`Ring`] stores its elements in fixed-size chunks of [`CHUNK`] elements
//! (or `capacity`, when that is smaller), held in a small deque. It grows
//! one chunk at a time, so the capacity is a bound, not a reservation: a
//! ring sized for millions of elements that holds a few thousand maps a
//! few thousand slots. Held elements are not copied into a doubled buffer,
//! so the heap is not left with the freed halves a doubling buffer leaves
//! behind. (A clone's chunks start at their length, so its tail chunk may
//! grow once.)
//!
//! At capacity each push evicts the oldest element and drops it there and
//! then (an element may own heap memory). A chunk drained by evictions is
//! kept and reused as the next tail chunk, so a full ring in steady state
//! allocates nothing.

use std::collections::VecDeque;

/// Elements per chunk of a ring whose capacity is at least this large.
pub const CHUNK: usize = 4096;

/// A bounded FIFO of chunks; see the module docs.
///
/// Counts every element ever pushed ([`Ring::recorded`]); those no longer
/// held were evicted to the bound ([`Ring::dropped`]). A ring of capacity
/// 0 keeps nothing and drops each push.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    /// Oldest chunk first. Only the front chunk (after evictions) and the
    /// back one (still filling) hold fewer than `chunk_len` elements.
    chunks: VecDeque<VecDeque<T>>,
    /// A drained chunk, kept for the next tail.
    spare: Option<VecDeque<T>>,
    chunk_len: usize,
    capacity: usize,
    recorded: u64,
}

impl<T> Default for Ring<T> {
    /// A ring of capacity 0.
    fn default() -> Self {
        Ring::with_chunk_len(0, 0)
    }
}

impl<T> Ring<T> {
    /// An empty ring keeping the most recent `capacity` elements. Allocates
    /// nothing until the first push.
    pub fn new(capacity: usize) -> Self {
        Ring::with_chunk_len(capacity, capacity.min(CHUNK))
    }

    fn with_chunk_len(capacity: usize, chunk_len: usize) -> Self {
        Ring {
            chunks: VecDeque::new(),
            spare: None,
            chunk_len,
            capacity,
            recorded: 0,
        }
    }

    /// Append `value`. At capacity the oldest element is evicted and
    /// dropped first.
    pub fn push(&mut self, value: T) {
        if self.capacity == 0 {
            self.recorded += 1;
            return;
        }
        if self.len() == self.capacity {
            self.evict_oldest();
        }
        self.recorded += 1;
        if self.chunks.back().is_none_or(|c| c.len() == self.chunk_len) {
            let chunk = self
                .spare
                .take()
                .unwrap_or_else(|| VecDeque::with_capacity(self.chunk_len));
            self.chunks.push_back(chunk);
        }
        self.chunks
            .back_mut()
            .expect("a tail chunk was just ensured")
            .push_back(value);
    }

    fn evict_oldest(&mut self) {
        let front = self.chunks.front_mut().expect("a full ring has a chunk");
        drop(front.pop_front());
        if front.is_empty() {
            self.spare = self.chunks.pop_front();
        }
    }

    /// Nothing but eviction removes an element, so the ring holds the
    /// last `min(recorded, capacity)` pushes.
    pub fn len(&self) -> usize {
        self.recorded.min(self.capacity as u64) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bound on [`Ring::len`].
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Elements ever pushed, evicted or not.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Elements evicted to the capacity bound; equals `recorded() - len()`.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.len() as u64
    }

    /// The most recently pushed element still held.
    pub fn back(&self) -> Option<&T> {
        self.chunks.back().and_then(VecDeque::back)
    }

    /// Oldest element first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::rc::Rc;

    fn contents<T: Copy>(r: &Ring<T>) -> Vec<T> {
        r.iter().copied().collect()
    }

    /// Pushes `0..n` into `r`, checking the counters after every push.
    fn push_counting(r: &mut Ring<u64>, n: u64) {
        for i in 0..n {
            r.push(i);
            assert_eq!(r.recorded(), r.len() as u64 + r.dropped());
            assert!(r.len() <= r.capacity());
            assert_eq!(r.back(), Some(&i));
        }
    }

    #[test]
    fn capacity_one_keeps_the_newest() {
        let mut r = Ring::new(1);
        push_counting(&mut r, 5);
        assert_eq!(contents(&r), vec![4]);
        assert_eq!((r.len(), r.recorded(), r.dropped()), (1, 5, 4));
        assert_eq!(r.chunk_len, 1);
    }

    #[test]
    fn capacity_zero_drops_every_push() {
        let mut r = Ring::<u64>::default();
        r.push(1);
        r.push(2);
        assert!(r.is_empty());
        assert_eq!((r.recorded(), r.dropped()), (2, 2));
        assert_eq!(r.back(), None);
    }

    #[test]
    fn capacity_off_the_chunk_grid_keeps_the_tail() {
        let cap = CHUNK + 904;
        let mut r = Ring::new(cap);
        push_counting(&mut r, 3 * CHUNK as u64 + 17);
        let n = 3 * CHUNK as u64 + 17;
        assert_eq!(contents(&r), (n - cap as u64..n).collect::<Vec<_>>());
        assert_eq!(r.dropped(), n - cap as u64);
    }

    #[test]
    fn evictions_cross_chunk_boundaries_in_order() {
        let mut r = Ring::with_chunk_len(10, 4);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.chunks.len(), 3);
        // Evict the whole first chunk and one element of the second.
        for i in 10..15 {
            r.push(i);
        }
        assert_eq!(contents(&r), (5..15).collect::<Vec<_>>());
        assert_eq!(r.chunks.front().map(VecDeque::len), Some(3));
        assert_eq!(r.dropped(), 5);
    }

    #[test]
    fn drained_chunks_are_reused_at_steady_state() {
        let mut r = Ring::with_chunk_len(8, 4);
        push_counting(&mut r, 8);
        let mut drains = 0;
        for i in 8..200 {
            r.push(i);
            drains += usize::from(r.spare.is_some());
            // Two full chunks plus the tail a push opens before the front
            // one drains. A tail allocated while a drained chunk sat in
            // `spare` would make four.
            assert!(r.chunks.len() + usize::from(r.spare.is_some()) <= 3);
            assert!(r.chunks.iter().all(|c| c.capacity() == 4), "never regrows");
        }
        assert!(drains > 0);
        assert_eq!(contents(&r), (192..200).collect::<Vec<_>>());
    }

    #[test]
    fn evicted_elements_are_dropped_at_once() {
        let first = Rc::new(0);
        let mut r = Ring::with_chunk_len(3, 2);
        r.push(Rc::clone(&first));
        r.push(Rc::new(1));
        r.push(Rc::new(2));
        assert_eq!(Rc::strong_count(&first), 2);
        r.push(Rc::new(3));
        assert_eq!(Rc::strong_count(&first), 1, "evicted, not parked");
    }

    #[test]
    fn clone_continues_like_the_original() {
        let mut a = Ring::with_chunk_len(7, 3);
        push_counting(&mut a, 11);
        let mut b = a.clone();
        for i in 11..30 {
            a.push(i);
            b.push(i);
        }
        assert_eq!(contents(&a), contents(&b));
        assert_eq!((a.recorded(), a.dropped()), (b.recorded(), b.dropped()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any push sequence leaves the ring holding what a plain deque
        /// trimmed to the capacity holds.
        #[test]
        fn matches_a_trimmed_deque(
            capacity in 0usize..40,
            chunk in 1usize..12,
            pushes in 0u64..300,
        ) {
            let mut r = Ring::with_chunk_len(capacity, chunk.min(capacity));
            let mut model = VecDeque::new();
            for i in 0..pushes {
                r.push(i);
                model.push_back(i);
                if model.len() > capacity {
                    model.pop_front();
                }
                prop_assert_eq!(r.len(), model.len());
                prop_assert_eq!(r.recorded(), r.len() as u64 + r.dropped());
                prop_assert_eq!(r.back(), model.back());
                prop_assert!(r.iter().eq(model.iter()));
            }
            prop_assert_eq!(r.dropped(), pushes.saturating_sub(capacity as u64));
        }
    }
}
