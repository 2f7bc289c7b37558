//! A bounded FIFO of variable-length, timestamped byte records.
//!
//! [`Ring`] keeps the most recent `capacity` records. Its user encodes
//! each record's payload through a [`Writer`] and decodes it through a
//! [`Reader`]; the ring frames it as
//!
//! ```text
//! varint(dt) varint(payload length) payload
//! ```
//!
//! where varints are unsigned LEB128 and `dt` is the record's time minus
//! the time of the record pushed before it. The ring keeps the absolute
//! time its front (oldest held) record's `dt` counts from: the time of
//! the record evicted last. Evicting a record adds its `dt` to that time,
//! and iteration rebuilds every record's time from there. Times must be
//! non-decreasing.
//!
//! Records live in chunks of [`CHUNK_BYTES`] bytes (a record larger than
//! that gets a chunk of its own size), held in a small deque. A record
//! never spans two chunks. The ring grows one chunk at a time, so the
//! capacity is a bound, not a reservation: a ring sized for millions of
//! records that holds a few thousand maps a few chunks. Held records are
//! never copied into a doubled buffer.
//!
//! At capacity each push evicts the oldest record first. A chunk drained
//! by evictions is kept and reused as the next tail chunk, so a full ring
//! in steady state allocates nothing.

use std::collections::VecDeque;

use crate::SimTime;

/// Bytes per chunk, unless one record needs more.
pub const CHUNK_BYTES: usize = 16 * 1024;

/// A bounded FIFO of byte records; see the module docs.
///
/// Counts every record ever pushed ([`Ring::recorded`]); those no longer
/// held were evicted to the bound ([`Ring::dropped`]). A ring of capacity
/// 0 keeps nothing and drops each push.
#[derive(Debug, Clone, Default)]
pub struct Ring {
    /// Framed records, oldest chunk first. No chunk is empty, and the
    /// front one's records start at `head`.
    chunks: VecDeque<Vec<u8>>,
    head: usize,
    /// A drained chunk, kept for the next tail.
    spare: Option<Vec<u8>>,
    /// The payload being encoded, before it is framed into a chunk.
    scratch: Vec<u8>,
    capacity: usize,
    recorded: u64,
    /// The time the front record's `dt` counts from: that of the record
    /// evicted last (0 before any eviction).
    base_t: u64,
    /// Time of the most recent push.
    back_t: u64,
}

impl Ring {
    /// An empty ring keeping the most recent `capacity` records. Allocates
    /// nothing until the first push.
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity,
            ..Ring::default()
        }
    }

    /// Append a record at time `t` whose payload `encode` writes. At
    /// capacity the oldest record is evicted first.
    pub fn push(&mut self, t: SimTime, encode: impl FnOnce(&mut Writer<'_>)) {
        if self.capacity == 0 {
            self.recorded += 1;
            return;
        }
        if self.len() == self.capacity {
            self.evict_oldest();
        }
        self.recorded += 1;
        let t = t.as_micros();
        debug_assert!(
            self.back_t <= t,
            "records must be pushed in non-decreasing time order"
        );
        let dt = t - self.back_t;
        self.back_t = t;

        self.scratch.clear();
        encode(&mut Writer(&mut self.scratch));
        let len = self.scratch.len() as u64;
        let need = varint_len(dt) + varint_len(len) + self.scratch.len();
        if self
            .chunks
            .back()
            .is_none_or(|c| c.capacity() - c.len() < need)
        {
            let chunk = match self.spare.take() {
                Some(c) if c.capacity() >= need => c,
                _ => Vec::with_capacity(need.max(CHUNK_BYTES)),
            };
            self.chunks.push_back(chunk);
        }
        let tail = self
            .chunks
            .back_mut()
            .expect("a tail chunk was just ensured");
        let mut w = Writer(tail);
        w.varint(dt).varint(len);
        tail.extend_from_slice(&self.scratch);
    }

    fn evict_oldest(&mut self) {
        let front = self.chunks.front().expect("a full ring has a chunk");
        let mut r = Reader(&front[self.head..]);
        self.base_t += r.varint();
        let len = r.varint() as usize;
        self.head = front.len() - r.0.len() + len;
        if self.head == front.len() {
            let mut drained = self.chunks.pop_front().expect("just read");
            drained.clear();
            self.spare = Some(drained);
            self.head = 0;
        }
    }

    /// Nothing but eviction removes a record, so the ring holds the last
    /// `min(recorded, capacity)` pushes.
    #[inline]
    pub fn len(&self) -> usize {
        self.recorded.min(self.capacity as u64) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bound on [`Ring::len`].
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records ever pushed, evicted or not.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records evicted to the capacity bound; equals `recorded() - len()`.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.len() as u64
    }

    /// Chunks currently allocated to held records.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Oldest record first: each record's time and a reader over its
    /// payload.
    pub fn iter(&self) -> Records<'_> {
        let mut chunks = self.chunks.iter();
        let cur = chunks.next().map_or(&[][..], |c| &c[self.head..]);
        Records {
            chunks,
            cur,
            t: self.base_t,
        }
    }
}

/// Iterator over a [`Ring`]'s records; see [`Ring::iter`].
pub struct Records<'a> {
    chunks: std::collections::vec_deque::Iter<'a, Vec<u8>>,
    cur: &'a [u8],
    t: u64,
}

impl<'a> Iterator for Records<'a> {
    type Item = (SimTime, Reader<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.cur.is_empty() {
            self.cur = self.chunks.next()?;
        }
        let mut r = Reader(self.cur);
        let dt = r.varint();
        let len = r.varint() as usize;
        let (payload, rest) = r.0.split_at(len);
        self.cur = rest;
        self.t += dt;
        Some((SimTime::from_micros(self.t), Reader(payload)))
    }
}

/// Bytes of `v` as an LEB128 varint.
#[inline]
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Appends one record's fields; see [`Ring::push`].
pub struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    /// An unsigned LEB128 varint: seven bits a byte, low bits first.
    #[inline]
    pub fn varint(&mut self, mut v: u64) -> &mut Self {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
        self
    }

    /// A `bool` as one byte.
    #[inline]
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.0.push(u8::from(b));
        self
    }

    /// An `f64`'s raw bits, little-endian, so every value (NaN payloads
    /// and `-0.0` included) reads back bit for bit.
    #[inline]
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.0.extend_from_slice(&x.to_bits().to_le_bytes());
        self
    }
}

/// Reads one record's fields back in the order a [`Writer`] wrote them.
/// Reading past the record's end panics.
pub struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    #[inline]
    pub fn varint(&mut self) -> u64 {
        match self.0.split_first() {
            Some((&b, rest)) if b < 0x80 => {
                self.0 = rest;
                u64::from(b)
            }
            _ => self.varint_long(),
        }
    }

    #[inline]
    fn varint_long(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let (&b, rest) = self.0.split_first().expect("varint ends in the record");
            self.0 = rest;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    #[inline]
    pub fn bool(&mut self) -> bool {
        let (&b, rest) = self.0.split_first().expect("bool in the record");
        self.0 = rest;
        b != 0
    }

    #[inline]
    pub fn f64(&mut self) -> f64 {
        let (bits, rest) = self.0.split_first_chunk().expect("f64 in the record");
        self.0 = rest;
        f64::from_bits(u64::from_le_bytes(*bits))
    }

    /// Whether every byte of the record has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pushes record `i` at time `i / 3` with `i % 5` padding bytes.
    fn push_nth(r: &mut Ring, i: u64) {
        r.push(SimTime::from_micros(i / 3), |w| {
            w.varint(i);
            for _ in 0..i % 5 {
                w.bool(true);
            }
        });
    }

    /// Each held record as (time, value), checking its padding.
    fn contents(r: &Ring) -> Vec<(u64, u64)> {
        r.iter()
            .map(|(t, mut rd)| {
                let i = rd.varint();
                for _ in 0..i % 5 {
                    assert!(rd.bool());
                }
                assert!(rd.is_empty());
                (t.as_micros(), i)
            })
            .collect()
    }

    fn expected(range: std::ops::Range<u64>) -> Vec<(u64, u64)> {
        range.map(|i| (i / 3, i)).collect()
    }

    /// Pushes `0..n` into `r`, checking the counters after every push.
    fn push_counting(r: &mut Ring, n: u64) {
        for i in 0..n {
            push_nth(r, i);
            assert_eq!(r.recorded(), r.len() as u64 + r.dropped());
            assert!(r.len() <= r.capacity());
            assert_eq!(r.back_t, i / 3);
        }
    }

    /// Records the first chunk of an uncapped ring fed `push_nth` holds.
    fn first_chunk_records() -> u64 {
        let mut r = Ring::new(usize::MAX);
        let mut i = 0;
        while r.chunk_count() < 2 {
            push_nth(&mut r, i);
            i += 1;
        }
        i - 1
    }

    #[test]
    fn varints_round_trip_at_every_length() {
        let mut buf = Vec::new();
        let mut values = vec![0, 1, u64::MAX];
        for bits in 1..64 {
            values.extend([(1u64 << bits) - 1, 1u64 << bits]);
        }
        for &v in &values {
            buf.clear();
            Writer(&mut buf).varint(v);
            assert_eq!(buf.len(), varint_len(v), "{v}");
            let mut r = Reader(&buf);
            assert_eq!(r.varint(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn capacity_one_keeps_the_newest() {
        let mut r = Ring::new(1);
        push_counting(&mut r, 5);
        assert_eq!(contents(&r), expected(4..5));
        assert_eq!((r.len(), r.recorded(), r.dropped()), (1, 5, 4));
        assert_eq!(r.chunk_count(), 1);
    }

    #[test]
    fn capacity_zero_drops_every_push() {
        let mut r = Ring::default();
        push_nth(&mut r, 1);
        push_nth(&mut r, 2);
        assert!(r.is_empty());
        assert_eq!((r.recorded(), r.dropped()), (2, 2));
        assert_eq!(r.iter().count(), 0);
    }

    /// A capped ring holds exactly the tail of an uncapped one fed the
    /// same records, times included: at capacity 1, one record either side
    /// of the first chunk boundary, and a capacity a third of a chunk past
    /// it.
    #[test]
    fn capacity_off_the_chunk_grid_keeps_the_tail() {
        let per_chunk = first_chunk_records();
        assert!(per_chunk > 100, "{per_chunk}");
        let n = 3 * per_chunk + 17;
        let mut all = Ring::new(usize::MAX);
        push_counting(&mut all, n);
        let all = contents(&all);
        for cap in [1, per_chunk - 1, per_chunk + 1, per_chunk + per_chunk / 3] {
            let mut r = Ring::new(cap as usize);
            push_counting(&mut r, n);
            assert_eq!(contents(&r), &all[(n - cap) as usize..], "cap {cap}");
            assert_eq!(r.dropped(), n - cap);
        }
    }

    #[test]
    fn evictions_cross_chunk_boundaries_in_order() {
        let per_chunk = first_chunk_records();
        let mut r = Ring::new(per_chunk as usize + 3);
        push_counting(&mut r, per_chunk + 3);
        assert_eq!(r.chunk_count(), 2);
        // Evict the whole first chunk and one record of the second.
        for i in per_chunk + 3..2 * per_chunk + 4 {
            push_nth(&mut r, i);
        }
        assert_eq!(contents(&r), expected(per_chunk + 1..2 * per_chunk + 4));
        assert_eq!(r.dropped(), per_chunk + 1);
    }

    #[test]
    fn drained_chunks_are_reused_at_steady_state() {
        // Fixed 12-byte frames (dt 0 or 1, length 10, ten payload bytes),
        // so every chunk holds the same number of records.
        let per_chunk = CHUNK_BYTES / 12;
        let push = |r: &mut Ring, i: usize| {
            r.push(SimTime::from_micros(i as u64 / 2), |w| {
                w.0.extend_from_slice(&[7; 10]);
            })
        };
        let mut r = Ring::new(per_chunk);
        let mut reuses = 0;
        for i in 0..10 * per_chunk {
            let had_spare = r.spare.is_some();
            push(&mut r, i);
            reuses += usize::from(had_spare && r.spare.is_none());
            // The front chunk draining while the tail fills, plus at most
            // one spare: a tail allocated beside a spare would make four.
            assert!(r.chunk_count() + usize::from(r.spare.is_some()) <= 3);
            assert!(r.chunks.iter().all(|c| c.capacity() == CHUNK_BYTES));
        }
        assert!(reuses > 0);
        let times: Vec<u64> = r.iter().map(|(t, _)| t.as_micros()).collect();
        let want: Vec<u64> = (9 * per_chunk..10 * per_chunk)
            .map(|i| i as u64 / 2)
            .collect();
        assert_eq!(times, want);
    }

    #[test]
    fn a_record_larger_than_a_chunk_gets_its_own() {
        let mut r = Ring::new(3);
        let big = |w: &mut Writer<'_>| w.0.resize(CHUNK_BYTES + 5, 0);
        push_nth(&mut r, 0);
        r.push(SimTime::from_micros(1), big);
        push_nth(&mut r, 6);
        assert_eq!(r.chunk_count(), 3);
        let lens: Vec<usize> = r.iter().map(|(_, rd)| rd.0.len()).collect();
        assert_eq!(lens, vec![1, CHUNK_BYTES + 5, 2]);
        push_nth(&mut r, 7);
        push_nth(&mut r, 8);
        assert_eq!(contents(&r), expected(6..9));
    }

    #[test]
    fn clone_continues_like_the_original() {
        let per_chunk = first_chunk_records();
        let mut a = Ring::new(per_chunk as usize + 7);
        push_counting(&mut a, per_chunk + 11);
        let mut b = a.clone();
        for i in per_chunk + 11..3 * per_chunk {
            push_nth(&mut a, i);
            push_nth(&mut b, i);
        }
        assert_eq!(contents(&a), contents(&b));
        assert_eq!((a.recorded(), a.dropped()), (b.recorded(), b.dropped()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any push sequence, with time gaps from zero to the whole range,
        /// leaves the ring holding what a plain deque trimmed to the
        /// capacity holds.
        #[test]
        fn matches_a_trimmed_deque(
            capacity in 0usize..40,
            pushes in 0u64..300,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let mut r = Ring::new(capacity);
            let mut model = VecDeque::new();
            let mut t = 0u64;
            for i in 0..pushes {
                let gap = match rng.below(4) {
                    0 => 0,
                    1 => rng.below(1000),
                    2 => rng.next_u64() >> rng.below(64),
                    _ => u64::MAX,
                };
                t = t.saturating_add(gap);
                // Up to four chunks' worth of bytes.
                let size = rng.below(4 * CHUNK_BYTES as u64) >> rng.below(20);
                r.push(SimTime::from_micros(t), |w| {
                    w.varint(i);
                    w.0.resize(w.0.len() + size as usize, 1);
                });
                model.push_back((t, i, size));
                if model.len() > capacity {
                    model.pop_front();
                }
                prop_assert_eq!(r.len(), model.len());
                prop_assert_eq!(r.recorded(), r.len() as u64 + r.dropped());
                let held: Vec<(u64, u64, u64)> = r
                    .iter()
                    .map(|(t, mut rd)| (t.as_micros(), rd.varint(), rd.0.len() as u64))
                    .collect();
                prop_assert!(held.iter().eq(model.iter()));
            }
            prop_assert_eq!(r.dropped(), pushes.saturating_sub(capacity as u64));
        }
    }
}
