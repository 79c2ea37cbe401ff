//! A fixed-width bitset used as the posting-list representation of the
//! query-evaluation index.
//!
//! The hidden-database experiments evaluate millions of conjunctive
//! queries against tables of a few hundred thousand rows; a flat `u64`
//! bitset per `(attribute, value)` pair makes each query an AND of `s`
//! bitsets plus a popcount. Postings stay uncompressed: each value
//! matches a sizeable fraction of rows, where compressed formats are
//! slower.
//!
//! Walk states are the exception. A deep drill-down node matches a few
//! dozen rows out of 100k, and ANDing its 1,563-word bitmap against a
//! posting wastes almost every word. Below a crossover a walk state
//! therefore holds its matching rows as sorted `u32` ids (see the
//! backend's `SelState`), and the kernels here that take an id slice
//! ([`Bitmap::count_among`], [`Bitmap::filter_into`]) test one posting
//! bit per id instead of scanning every word.

/// A fixed-length bitset over `len` bits backed by `u64` words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zeros bitmap over `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// An all-ones bitmap over `len` bits.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut b = Self { words: vec![u64::MAX; len.div_ceil(64)], len };
        b.clear_tail();
        b
    }

    /// Zeroes any bits beyond `len` in the final word, maintaining the
    /// invariant that trailing bits are always 0 (required for `count`).
    fn clear_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Number of set bits in `self & other` without materialising the
    /// intersection.
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[must_use]
    pub fn and_count(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Number of set bits in `self & b & c` in one fused pass — the
    /// 3-predicate counting kernel (no intermediate bitmap, one traversal
    /// instead of two).
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[must_use]
    pub fn and_count_3(&self, b: &Bitmap, c: &Bitmap) -> usize {
        assert_eq!(self.len, b.len, "bitmap length mismatch");
        assert_eq!(self.len, c.len, "bitmap length mismatch");
        self.words
            .iter()
            .zip(&b.words)
            .zip(&c.words)
            .map(|((x, y), z)| (x & y & z).count_ones() as usize)
            .sum()
    }

    /// Makes `self` the intersection `a & b` in one fused copy-and-AND
    /// pass, reusing `self`'s allocation when it is large enough — the
    /// scratch-buffer kernel behind walk-session `extend` steps.
    ///
    /// # Panics
    /// Panics if `a` and `b` differ in length.
    pub fn assign_and(&mut self, a: &Bitmap, b: &Bitmap) {
        assert_eq!(a.len, b.len, "bitmap length mismatch");
        self.len = a.len;
        self.words.clear();
        self.words.extend(a.words.iter().zip(&b.words).map(|(x, y)| x & y));
    }

    /// Makes `self` a copy of `other`, reusing `self`'s allocation when it
    /// is large enough (the derived `Clone::clone_from` always
    /// reallocates).
    pub fn copy_from(&mut self, other: &Bitmap) {
        self.len = other.len;
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// Bit `i` as 0 or 1, for branch-free accumulation. `i < len` is the
    /// caller's invariant (checked in debug builds only; an index past the
    /// last word still panics).
    #[inline]
    fn bit(&self, i: u32) -> usize {
        debug_assert!((i as usize) < self.len, "bit {i} out of range (len {})", self.len);
        ((self.words[i as usize / 64] >> (i % 64)) & 1) as usize
    }

    /// Number of `ids` whose bit is set: one bit test per id, no branch on
    /// the bits and no allocation — the count-only probe of a sparse walk
    /// state.
    ///
    /// # Panics
    /// Panics if an id lies past the last word (debug builds: past `len`).
    #[must_use]
    pub fn count_among(&self, ids: &[u32]) -> usize {
        ids.iter().map(|&i| self.bit(i)).sum()
    }

    /// Writes the `ids` whose bit is set to the front of `out`, in their
    /// order, and returns how many there are. Branch-free: every id is
    /// written and the count advances by its bit, so the cost does not
    /// depend on how well the bits can be predicted.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `ids`, or if an id lies past the
    /// last word (debug builds: past `len`).
    pub fn filter_into(&self, ids: &[u32], out: &mut [u32]) -> usize {
        let out = &mut out[..ids.len()];
        let mut n = 0;
        for &i in ids {
            out[n] = i;
            n += self.bit(i);
        }
        n
    }

    /// Writes the set bits of `self & other` to the front of `out` as
    /// ascending ids and returns how many there are, or `None` (with
    /// `out` unspecified) as soon as more than `out.len() - 64` of them
    /// turn up.
    ///
    /// Built for sparse results, where most words of the AND are zero or
    /// hold one bit: each word's first bit is written unconditionally and
    /// counted by whether the word was non-zero, so only the rare words
    /// with two or more bits take a data-dependent branch.
    ///
    /// # Panics
    /// Panics if lengths differ, `out` is shorter than 64, or `len`
    /// exceeds `u32::MAX + 1`.
    pub fn and_ones_into(&self, other: &Bitmap, out: &mut [u32]) -> Option<usize> {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        assert!(self.len <= 1 << 32, "row ids must fit in u32");
        // One word adds at most 64 ids before the limit check sees them.
        let limit = out.len() - 64;
        let mut n = 0;
        for (w, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let base = (w * 64) as u32;
            let mut bits = a & b;
            out[n] = base.wrapping_add(bits.trailing_zeros());
            n += usize::from(bits != 0);
            bits &= bits.wrapping_sub(1);
            while bits != 0 {
                out[n] = base + bits.trailing_zeros();
                n += 1;
                bits &= bits - 1;
            }
            if n > limit {
                return None;
            }
        }
        Some(n)
    }

    /// Iterator over the indices of set bits of `self & other`, ascending,
    /// without materialising the intersection.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn iter_and_ones<'a>(&'a self, other: &'a Bitmap) -> AndOnesIter<'a> {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let current = match (self.words.first(), other.words.first()) {
            (Some(a), Some(b)) => a & b,
            _ => 0,
        };
        AndOnesIter { a: &self.words, b: &other.words, word_idx: 0, current }
    }

    /// Whether `self & other` has any set bit (with early exit).
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[must_use]
    pub fn intersects(&self, other: &Bitmap) -> bool {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter { words: &self.words, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Collects up to `limit` set-bit indices, ascending. Used by the
    /// top-k interface to cut off result materialisation at `k`.
    #[must_use]
    pub fn first_ones(&self, limit: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(limit.min(self.len));
        for i in self.iter_ones() {
            if out.len() == limit {
                break;
            }
            out.push(i);
        }
        out
    }
}

/// Iterator over set-bit positions of a [`Bitmap`].
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// Iterator over set-bit positions of the intersection of two [`Bitmap`]s
/// (see [`Bitmap::iter_and_ones`]).
pub struct AndOnesIter<'a> {
    a: &'a [u64],
    b: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for AndOnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.a.len() {
                return None;
            }
            self.current = self.a[self.word_idx] & self.b[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(130);
        assert_eq!(z.count(), 0);
        let o = Bitmap::ones(130);
        assert_eq!(o.count(), 130);
        assert!(o.get(129));
    }

    #[test]
    fn ones_clears_tail_bits() {
        // count must not include bits beyond len in the last word
        let o = Bitmap::ones(65);
        assert_eq!(o.count(), 65);
        let o = Bitmap::ones(64);
        assert_eq!(o.count(), 64);
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::zeros(100);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(99);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1));
        assert_eq!(b.count(), 4);
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::zeros(10).set(10);
    }

    #[test]
    fn and_operations_agree() {
        let mut a = Bitmap::zeros(200);
        let mut b = Bitmap::zeros(200);
        for i in (0..200).step_by(3) {
            a.set(i);
        }
        for i in (0..200).step_by(5) {
            b.set(i);
        }
        let expected: Vec<usize> = (0..200).step_by(15).collect();
        assert_eq!(a.and_count(&b), expected.len());
        assert!(a.intersects(&b));
        let mut c = a.clone();
        c.and_with(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn disjoint_bitmaps_do_not_intersect() {
        let mut a = Bitmap::zeros(70);
        let mut b = Bitmap::zeros(70);
        a.set(3);
        b.set(4);
        assert!(!a.intersects(&b));
        assert_eq!(a.and_count(&b), 0);
    }

    #[test]
    fn fused_kernels_agree_with_composed_operations() {
        let mut a = Bitmap::zeros(300);
        let mut b = Bitmap::zeros(300);
        let mut c = Bitmap::zeros(300);
        for i in (0..300).step_by(2) {
            a.set(i);
        }
        for i in (0..300).step_by(3) {
            b.set(i);
        }
        for i in (0..300).step_by(5) {
            c.set(i);
        }
        // and_count_3 == count of a & b & c
        let mut ab = a.clone();
        ab.and_with(&b);
        let mut abc = ab.clone();
        abc.and_with(&c);
        assert_eq!(a.and_count_3(&b, &c), abc.count());
        // assign_and reuses the target buffer and matches and_with
        let mut scratch = Bitmap::zeros(1);
        scratch.assign_and(&a, &b);
        assert_eq!(scratch, ab);
        scratch.assign_and(&ab, &c);
        assert_eq!(scratch, abc);
        // iter_and_ones enumerates the same set
        assert_eq!(
            a.iter_and_ones(&b).collect::<Vec<_>>(),
            ab.iter_ones().collect::<Vec<_>>()
        );
        assert_eq!(a.iter_and_ones(&b).count(), a.and_count(&b));
    }

    #[test]
    fn and_ones_iterator_handles_empty_and_disjoint() {
        let a = Bitmap::zeros(0);
        assert_eq!(a.iter_and_ones(&a).count(), 0);
        let mut x = Bitmap::zeros(70);
        let mut y = Bitmap::zeros(70);
        x.set(3);
        y.set(4);
        assert_eq!(x.iter_and_ones(&y).count(), 0);
        y.set(3);
        assert_eq!(x.iter_and_ones(&y).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn first_ones_truncates() {
        let mut a = Bitmap::zeros(100);
        for i in 0..50 {
            a.set(i * 2);
        }
        assert_eq!(a.first_ones(3), vec![0, 2, 4]);
        assert_eq!(a.first_ones(100).len(), 50);
    }

    #[test]
    fn iter_ones_across_word_boundaries() {
        let mut a = Bitmap::zeros(192);
        for &i in &[0usize, 63, 64, 127, 128, 191] {
            a.set(i);
        }
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 191]);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn id_kernels_agree_with_bitmap_operations() {
        let mut a = Bitmap::zeros(200);
        let mut b = Bitmap::zeros(200);
        for i in (0..200).step_by(3) {
            a.set(i);
        }
        for i in (0..200).step_by(5).chain([199]) {
            b.set(i);
        }
        let ids: Vec<u32> = a.iter_ones().map(|i| i as u32).chain([199]).collect();
        let want: Vec<u32> = ids.iter().copied().filter(|&i| b.get(i as usize)).collect();
        assert_eq!(b.count_among(&ids), want.len());
        let mut out = vec![7; ids.len()];
        let n = b.filter_into(&ids, &mut out);
        assert_eq!(&out[..n], &want[..]);
        assert_eq!(b.count_among(&[]), 0);
        assert_eq!(b.filter_into(&[], &mut []), 0);
        // the AND read-out matches the iterator and respects its room
        let and: Vec<u32> = a.iter_and_ones(&b).map(|i| i as u32).collect();
        let mut room = vec![0; and.len() + 64];
        assert_eq!(a.and_ones_into(&b, &mut room), Some(and.len()));
        assert_eq!(&room[..and.len()], &and[..]);
        let mut tight = vec![0; and.len() - 1 + 64];
        assert_eq!(a.and_ones_into(&b, &mut tight), None);
        let mut empty = vec![0; 64];
        assert_eq!(Bitmap::zeros(0).and_ones_into(&Bitmap::zeros(0), &mut empty), Some(0));
    }

    #[test]
    fn and_read_out_handles_full_words_and_tail_bits() {
        let a = Bitmap::ones(130);
        let mut out = vec![0; 130 + 64];
        assert_eq!(a.and_ones_into(&a, &mut out), Some(130));
        assert_eq!(out[..130].to_vec(), (0..130).collect::<Vec<u32>>());
    }
}
