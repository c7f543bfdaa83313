//! A fixed-capacity ring buffer with stable element addresses.
//!
//! The paper implements each per-pipeline FIFO "as an independent ring
//! buffer" (§3.2, citing the classic circular buffer). Beyond the usual
//! push/pop, MP5's `insert` operation replaces a *phantom* entry in the
//! middle of the queue with its data packet. To support that, every
//! pushed element gets a monotonically increasing **sequence number** that
//! remains a valid address for the element until it is popped, regardless
//! of how the head moves — exactly how a hardware ring addresses slots by
//! (wrapped) write pointer.

/// A circular buffer whose elements are addressable by the sequence
/// number assigned at push time.
///
/// Capacity may be `None`, meaning unbounded. The simulator uses
/// unbounded mode for the paper's "dynamically adapt FIFO sizes to ensure
/// no packet loss" sensitivity experiments (§4.3.1), and bounded mode
/// (default 8 entries, §4.2) for drop-behaviour experiments.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: std::collections::VecDeque<T>,
    /// Sequence number of the element currently at the head.
    head_seq: u64,
    /// Maximum number of elements; `None` = unbounded.
    capacity: Option<usize>,
    /// High-water mark of occupancy, for the paper's max-queue-depth
    /// statistics (§4.4 reports 11/8/7/7 for the four real applications).
    max_occupancy: usize,
}

impl<T> RingBuffer<T> {
    /// Creates a ring with the given capacity (`None` = unbounded).
    pub fn new(capacity: Option<usize>) -> Self {
        RingBuffer {
            buf: std::collections::VecDeque::with_capacity(capacity.unwrap_or(16)),
            head_seq: 0,
            capacity,
            max_occupancy: 0,
        }
    }

    /// Number of elements currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no elements are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True if a push would be rejected.
    #[inline]
    pub fn is_full(&self) -> bool {
        match self.capacity {
            Some(c) => self.buf.len() >= c,
            None => false,
        }
    }

    /// The configured capacity (`None` = unbounded).
    #[inline]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Highest occupancy ever observed.
    #[inline]
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Appends an element at the tail, returning its stable sequence
    /// number, or `Err(value)` if the ring is full.
    pub fn push_back(&mut self, value: T) -> Result<u64, T> {
        if self.is_full() {
            return Err(value);
        }
        Ok(self.push_unchecked(value))
    }

    /// Appends `make(v)` at the tail, returning its stable sequence
    /// number, or `Err(v)`, unconverted, if the ring is full: a caller
    /// that wraps its value in the element type gets its own value back.
    pub fn push_back_with<V>(&mut self, v: V, make: impl FnOnce(V) -> T) -> Result<u64, V> {
        if self.is_full() {
            return Err(v);
        }
        Ok(self.push_unchecked(make(v)))
    }

    /// Appends at the tail of a ring the caller checked is not full.
    #[inline]
    fn push_unchecked(&mut self, value: T) -> u64 {
        let seq = self.head_seq + self.buf.len() as u64;
        self.buf.push_back(value);
        self.max_occupancy = self.max_occupancy.max(self.buf.len());
        seq
    }

    /// Removes and returns the head element.
    pub fn pop_front(&mut self) -> Option<T> {
        let v = self.buf.pop_front();
        if v.is_some() {
            self.head_seq += 1;
        }
        v
    }

    /// Borrows the head element.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.buf.front()
    }

    /// Sequence number of the current head element (meaningful only if
    /// non-empty).
    #[inline]
    pub fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// Borrows the element with the given sequence number, if still
    /// queued.
    pub fn get(&self, seq: u64) -> Option<&T> {
        let off = seq.checked_sub(self.head_seq)? as usize;
        self.buf.get(off)
    }

    /// Mutably borrows the element with the given sequence number, if
    /// still queued. This is the primitive behind the logical FIFO's
    /// `insert` (replace-phantom-with-data) operation.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let off = seq.checked_sub(self.head_seq)? as usize;
        self.buf.get_mut(off)
    }

    /// Iterates over queued elements from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Rebuilds a ring from checkpointed parts: the queued elements in
    /// head-to-tail order, the head element's sequence number, and the
    /// statistics high-water mark. Reconstructing `head_seq` exactly is
    /// what keeps previously-issued [`FifoAddr`](crate::FifoAddr)-style
    /// sequence addresses valid after a restore. More items than the
    /// capacity holds is an `Err`.
    pub fn from_parts(
        items: Vec<T>,
        head_seq: u64,
        capacity: Option<usize>,
        max_occupancy: usize,
    ) -> Result<Self, String> {
        if let Some(c) = capacity.filter(|&c| items.len() > c) {
            return Err(format!(
                "a ring of capacity {c} holds {} entries",
                items.len()
            ));
        }
        let buf: std::collections::VecDeque<T> = items.into();
        Ok(RingBuffer {
            max_occupancy: max_occupancy.max(buf.len()),
            buf,
            head_seq,
            capacity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo_order() {
        let mut r = RingBuffer::new(Some(4));
        for i in 0..4 {
            r.push_back(i).unwrap();
        }
        assert!(r.is_full());
        assert_eq!(r.push_back(99), Err(99));
        for i in 0..4 {
            assert_eq!(r.pop_front(), Some(i));
        }
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn sequence_numbers_are_stable_across_pops() {
        let mut r = RingBuffer::new(Some(8));
        let s0 = r.push_back("a").unwrap();
        let s1 = r.push_back("b").unwrap();
        let s2 = r.push_back("c").unwrap();
        assert_eq!((s0, s1, s2), (0, 1, 2));
        r.pop_front();
        // "b" is still addressable by its original seq after the head moved.
        assert_eq!(r.get(s1), Some(&"b"));
        assert_eq!(r.get(s2), Some(&"c"));
        assert_eq!(r.get(s0), None, "popped element must not be addressable");
        *r.get_mut(s2).unwrap() = "C";
        assert_eq!(r.get(s2), Some(&"C"));
    }

    #[test]
    fn seq_wraps_logically_after_many_ops() {
        let mut r = RingBuffer::new(Some(2));
        for i in 0..1000u64 {
            let s = r.push_back(i).unwrap();
            assert_eq!(s, i);
            assert_eq!(r.pop_front(), Some(i));
        }
        assert_eq!(r.head_seq(), 1000);
    }

    #[test]
    fn unbounded_never_full() {
        let mut r = RingBuffer::new(None);
        for i in 0..10_000 {
            r.push_back(i).unwrap();
        }
        assert!(!r.is_full());
        assert_eq!(r.len(), 10_000);
        assert_eq!(r.max_occupancy(), 10_000);
    }

    #[test]
    fn from_parts_restores_sequence_addresses() {
        let mut r = RingBuffer::new(Some(4));
        for i in 0..4 {
            r.push_back(i).unwrap();
        }
        r.pop_front();
        r.pop_front();
        let items: Vec<i32> = r.iter().copied().collect();
        let restored =
            RingBuffer::from_parts(items, r.head_seq(), r.capacity(), r.max_occupancy()).unwrap();
        assert_eq!(restored.head_seq(), 2);
        assert_eq!(restored.get(2), Some(&2));
        assert_eq!(restored.get(3), Some(&3));
        assert_eq!(restored.get(0), None);
        assert_eq!(restored.max_occupancy(), 4);
        // New pushes continue the original sequence numbering.
        let mut restored = restored;
        assert_eq!(restored.push_back(9).unwrap(), 4);
        assert!(RingBuffer::from_parts(vec![1, 2, 3], 0, Some(2), 0).is_err());
    }

    #[test]
    fn max_occupancy_tracks_high_water() {
        let mut r = RingBuffer::new(Some(8));
        r.push_back(1).unwrap();
        r.push_back(2).unwrap();
        r.pop_front();
        r.pop_front();
        r.push_back(3).unwrap();
        assert_eq!(r.max_occupancy(), 2);
    }
}
