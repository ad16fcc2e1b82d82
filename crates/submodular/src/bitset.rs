//! Dense fixed-capacity bitset over `u64` blocks.
//!
//! The canonical subset representation used by the set-function library,
//! the budgeted greedy, and `sched-core`'s slot grids (interesting slots,
//! awake/busy rows). All bulk operations (`union_with`, `count`,
//! `intersection_count`, `set_range`) run a word at a time.

/// A set of `u32` element ids drawn from `0..capacity`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set with room for element ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            blocks: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing every id in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        s.set_range(0, capacity as u32);
        s
    }

    /// Builds a set from an iterator of element ids.
    pub fn from_iter(capacity: usize, ids: impl IntoIterator<Item = u32>) -> Self {
        let mut s = Self::new(capacity);
        for i in ids {
            s.insert(i);
        }
        s
    }

    /// Maximum id + 1 this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `id`; returns whether it was newly inserted.
    ///
    /// # Panics
    /// Panics if `id >= capacity`.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        assert!(
            (id as usize) < self.capacity,
            "id {id} out of capacity {}",
            self.capacity
        );
        let (b, m) = (id as usize / 64, 1u64 << (id % 64));
        let was = self.blocks[b] & m != 0;
        self.blocks[b] |= m;
        !was
    }

    /// Inserts every id in `[start, end)` with masked whole-word stores.
    /// An empty range (`start >= end`) is a no-op wherever it lies.
    ///
    /// # Panics
    /// Panics if `end > capacity` on a non-empty range.
    pub fn set_range(&mut self, start: u32, end: u32) {
        if start >= end {
            return;
        }
        assert!(
            end as usize <= self.capacity,
            "range end {end} out of capacity {}",
            self.capacity
        );
        let (first, last) = (start as usize / 64, (end - 1) as usize / 64);
        let lo = !0u64 << (start % 64);
        let hi = !0u64 >> (63 - (end - 1) % 64);
        if first == last {
            self.blocks[first] |= lo & hi;
        } else {
            self.blocks[first] |= lo;
            self.blocks[first + 1..last].fill(!0);
            self.blocks[last] |= hi;
        }
    }

    /// Removes `id`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, id: u32) -> bool {
        let (b, m) = (id as usize / 64, 1u64 << (id % 64));
        let was = self.blocks[b] & m != 0;
        self.blocks[b] &= !m;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let (b, m) = (id as usize / 64, 1u64 << (id % 64));
        (id as usize) < self.capacity && self.blocks[b] & m != 0
    }

    /// Number of elements.
    #[inline]
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// In-place union: `self ∪= other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place difference: `self \= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// `|self ∩ other|` without allocating.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Removes all elements, keeping capacity.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Copies the contents of `other` into `self` (capacities must match).
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.blocks.copy_from_slice(&other.blocks);
    }

    /// Iterates over contained ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut b = block;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let t = b.trailing_zeros();
                    b &= b - 1;
                    Some(bi as u32 * 64 + t)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(!s.contains(63));
        assert!(s.insert(63));
        assert!(!s.insert(63));
        assert!(s.contains(63));
        assert!(s.insert(64));
        assert_eq!(s.count(), 2);
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn iter_order_and_roundtrip() {
        let ids = [0u32, 1, 63, 64, 65, 99];
        let s = BitSet::from_iter(100, ids.iter().copied());
        let got: Vec<u32> = s.iter().collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn union_intersect_difference() {
        let a = BitSet::from_iter(10, [1, 2, 3]);
        let b = BitSet::from_iter(10, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(a.intersection_count(&b), 1);
    }

    #[test]
    fn subset_relation() {
        let a = BitSet::from_iter(10, [1, 2]);
        let b = BitSet::from_iter(10, [1, 2, 3]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(BitSet::new(10).is_subset(&a));
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 70);
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_insert_panics() {
        BitSet::new(5).insert(5);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_panics() {
        let mut a = BitSet::new(5);
        a.union_with(&BitSet::new(6));
    }

    #[test]
    fn copy_from_overwrites() {
        let mut a = BitSet::from_iter(10, [1, 2]);
        let b = BitSet::from_iter(10, [7]);
        a.copy_from(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn union_and_iter_order() {
        let mut a = BitSet::from_iter(100, [2, 65]);
        a.union_with(&BitSet::from_iter(100, [64, 99]));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 64, 65, 99]);
    }

    /// Capacities straddling the u64 word size: 63, 64, 65 — the boundary
    /// cases where a range mask must not leak into (or miss) the next word.
    #[test]
    fn word_boundary_horizons() {
        for horizon in [63u32, 64, 65] {
            let mut s = BitSet::new(horizon as usize);
            s.set_range(0, horizon);
            assert_eq!(s, BitSet::full(horizon as usize), "horizon {horizon}");
            assert_eq!(s.count(), horizon as usize, "horizon {horizon}");
            assert!((0..horizon).all(|t| s.contains(t)), "horizon {horizon}");

            // last id alone: the highest valid bit, possibly first of word 2
            let mut last = BitSet::new(horizon as usize);
            last.set_range(horizon - 1, horizon);
            assert_eq!(last.iter().collect::<Vec<_>>(), vec![horizon - 1]);
        }
    }

    #[test]
    fn set_range_spanning_words() {
        let mut s = BitSet::new(200);
        s.set_range(60, 140);
        assert_eq!(s.count(), 80);
        assert!(!s.contains(59) && s.contains(60) && s.contains(139) && !s.contains(140));
        assert_eq!(s.iter().collect::<Vec<_>>(), (60..140).collect::<Vec<_>>());
    }

    #[test]
    fn set_range_within_one_word() {
        let mut s = BitSet::new(64);
        s.set_range(3, 7);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 4, 5, 6]);
    }

    /// Empty ranges are no-ops anywhere, including past the capacity and on
    /// a zero-capacity set.
    #[test]
    fn degenerate_ranges_and_zero_universe() {
        let mut s = BitSet::new(64);
        s.set_range(64, 64);
        s.set_range(100, 100);
        s.set_range(7, 3);
        assert!(s.is_empty());

        let mut z = BitSet::new(0);
        z.set_range(0, 0);
        assert!(z.is_empty());
        assert_eq!(BitSet::full(0), z);
        z.union_with(&BitSet::new(0));
        assert_eq!(z.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_set_range_panics() {
        BitSet::new(65).set_range(60, 66);
    }

    #[test]
    fn matches_naive_reference_on_random_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let n = rng.gen_range(1..=150usize);
            let mut fast = BitSet::new(n);
            let mut naive = vec![false; n];
            for _ in 0..60 {
                match rng.gen_range(0..4) {
                    0 => {
                        let i = rng.gen_range(0..n as u32);
                        assert_eq!(fast.insert(i), !naive[i as usize]);
                        naive[i as usize] = true;
                    }
                    1 => {
                        let i = rng.gen_range(0..n as u32);
                        assert_eq!(fast.remove(i), naive[i as usize]);
                        naive[i as usize] = false;
                    }
                    2 => {
                        let s = rng.gen_range(0..=n as u32);
                        let e = rng.gen_range(s..=n as u32);
                        fast.set_range(s, e);
                        naive[s as usize..e as usize].fill(true);
                    }
                    _ => {
                        let i = rng.gen_range(0..n as u32);
                        assert_eq!(fast.contains(i), naive[i as usize]);
                    }
                }
            }
            assert_eq!(fast.count(), naive.iter().filter(|&&b| b).count());
            let ids: Vec<u32> = fast.iter().collect();
            let want: Vec<u32> = (0..n as u32).filter(|&i| naive[i as usize]).collect();
            assert_eq!(ids, want);
        }
    }
}
