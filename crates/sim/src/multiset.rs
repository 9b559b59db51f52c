//! Finite multisets over an ordered value type, as used throughout Section 2
//! of the paper: receive sets are multisets of messages (`Multi(M)`), and the
//! preliminaries define sub-multiset inclusion, multiset union, `|M|`, and
//! `SET(M)`.

use std::fmt;

/// A finite multiset over `T`, backed by a sorted vector of
/// `(value, positive multiplicity)` entries.
///
/// This is the `Multi(V)` of Section 2. The receive set `N_r[i]` of every
/// round is a multiset of messages; constraint 4 of Definition 11 (receive
/// sets are sub-multisets of the round's broadcasts) is checked with
/// [`Multiset::is_submultiset_of`].
///
/// The sorted-vector backing (rather than a `BTreeMap`) is the canonical
/// entry layout every receive multiset shares: the engine pools a round's
/// `N_r` as such entries in one arena, and automata and traces read them
/// through a [`MultisetView`] ([`Multiset::view`] gives one over an owned
/// multiset). [`Multiset::clear`] keeps the allocation.
///
/// # Examples
///
/// ```
/// use wan_sim::Multiset;
///
/// let m: Multiset<u32> = [3, 1, 3].into_iter().collect();
/// assert_eq!(m.total(), 3);            // |M|
/// assert_eq!(m.count(&3), 2);
/// assert_eq!(m.support().count(), 2);  // SET(M) = {1, 3}
/// assert_eq!(m.min(), Some(&1));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Multiset<T: Ord> {
    /// Sorted by value; multiplicities are always ≥ 1, so the
    /// representation is canonical and the derived `PartialEq` is exact.
    entries: Vec<(T, usize)>,
    total: usize,
}

impl<T: Ord> Multiset<T> {
    /// The empty multiset.
    pub fn new() -> Self {
        Multiset {
            entries: Vec::new(),
            total: 0,
        }
    }

    /// Empties the multiset, keeping its storage for reuse.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.total = 0;
    }

    /// Inserts one occurrence of `value`.
    pub fn insert(&mut self, value: T) {
        self.insert_n(value, 1);
    }

    /// Inserts `n` occurrences of `value`. Inserting zero occurrences is a
    /// no-op.
    pub fn insert_n(&mut self, value: T, n: usize) {
        if n == 0 {
            return;
        }
        match self.entries.binary_search_by(|(v, _)| v.cmp(&value)) {
            Ok(i) => self.entries[i].1 += n,
            Err(i) => self.entries.insert(i, (value, n)),
        }
        self.total += n;
    }

    /// The multiplicity of `value` in the multiset (zero if absent).
    pub fn count(&self, value: &T) -> usize {
        self.view().count(value)
    }

    /// The total number of occurrences, the paper's `|M|`. Cached, so
    /// O(1), where a view sums its entries.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `true` iff the multiset contains no elements.
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// The number of *distinct* values, `|SET(M)|`.
    pub fn unique_len(&self) -> usize {
        self.view().unique_len()
    }

    /// Iterates over the distinct values in ascending order: the paper's
    /// `SET(M)`.
    pub fn support(&self) -> impl Iterator<Item = &T> {
        self.view().support()
    }

    /// Iterates over `(value, multiplicity)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, usize)> {
        self.view().iter()
    }

    /// The minimum value, if the multiset is non-empty. Algorithms 1 and 2
    /// update their estimate to `min{messages}`.
    pub fn min(&self) -> Option<&T> {
        self.view().min()
    }

    /// The maximum value, if the multiset is non-empty.
    pub fn max(&self) -> Option<&T> {
        self.view().max()
    }

    /// Sub-multiset inclusion (`M₁ ⊆ M₂` of Section 2): every value of `self`
    /// appears in `other` with at least the same multiplicity.
    pub fn is_submultiset_of(&self, other: &Multiset<T>) -> bool {
        self.view().is_submultiset_of(other)
    }

    /// A borrowed view of this multiset: the form an automaton receives
    /// its round's messages in ([`crate::RoundInput::received`]).
    pub fn view(&self) -> MultisetView<'_, T> {
        MultisetView::over(&self.entries)
    }

    /// Rebuilds a multiset from entries already in canonical form.
    fn from_canonical(entries: Vec<(T, usize)>) -> Multiset<T> {
        debug_assert_canonical(&entries);
        let total = entries.iter().map(|e| e.1).sum();
        Multiset { entries, total }
    }
}

/// Checks, in debug builds, that `entries` are canonical: sorted by value
/// with no repeats, and every multiplicity positive.
fn debug_assert_canonical<T: Ord>(entries: &[(T, usize)]) {
    debug_assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "multiset entries must be sorted and distinct"
    );
    debug_assert!(
        entries.iter().all(|e| e.1 >= 1),
        "multiset multiplicities must be positive"
    );
}

/// A borrowed multiset: a view over a canonical slice of sorted
/// `(value, multiplicity)` entries — an owned [`Multiset`]'s own, or a
/// span of a receive-multiset pool (the engine's round arena or a trace's).
/// It is the one implementation of the read side of the [`Multiset`] API
/// (an owned multiset reads through [`Multiset::view`]), without owning
/// (or allocating) anything; [`MultisetView::to_multiset`] materializes an
/// owned copy when one is needed.
#[derive(PartialEq, Eq)]
pub struct MultisetView<'a, T> {
    entries: &'a [(T, usize)],
}

// Manual impls: the derive would demand `T: Clone`/`T: Copy`, but a view
// is a borrowed slice regardless of the value type.
impl<T> Clone for MultisetView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for MultisetView<'_, T> {}

impl<'a, T: Ord> MultisetView<'a, T> {
    /// Wraps a canonical entry slice (sorted by value, multiplicities
    /// ≥ 1, both checked in debug builds). [`MultisetView::is_empty`]
    /// relies on the second: a zero-count entry would make an empty
    /// multiset look non-empty.
    pub(crate) fn over(entries: &'a [(T, usize)]) -> Self {
        debug_assert_canonical(entries);
        MultisetView { entries }
    }

    /// The total number of occurrences, the paper's `|M|`.
    pub fn total(self) -> usize {
        self.entries.iter().map(|e| e.1).sum()
    }

    /// `true` iff the multiset contains no elements.
    pub fn is_empty(self) -> bool {
        self.entries.is_empty()
    }

    /// The number of *distinct* values, `|SET(M)|`.
    pub fn unique_len(self) -> usize {
        self.entries.len()
    }

    /// The multiplicity of `value` (zero if absent).
    pub fn count(self, value: &T) -> usize {
        self.entries
            .binary_search_by(|(v, _)| v.cmp(value))
            .map(|i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// Iterates over the distinct values in ascending order (`SET(M)`).
    pub fn support(self) -> impl Iterator<Item = &'a T> {
        self.entries.iter().map(|(v, _)| v)
    }

    /// Iterates over `(value, multiplicity)` pairs in ascending value order.
    pub fn iter(self) -> impl Iterator<Item = (&'a T, usize)> {
        self.entries.iter().map(|e| (&e.0, e.1))
    }

    /// The minimum value, if non-empty.
    pub fn min(self) -> Option<&'a T> {
        self.entries.first().map(|(v, _)| v)
    }

    /// The maximum value, if non-empty.
    pub fn max(self) -> Option<&'a T> {
        self.entries.last().map(|(v, _)| v)
    }

    /// Sub-multiset inclusion against an owned multiset (`M₁ ⊆ M₂`).
    pub fn is_submultiset_of(self, other: &Multiset<T>) -> bool {
        self.entries.iter().all(|e| other.count(&e.0) >= e.1)
    }

    /// An owned copy.
    pub fn to_multiset(self) -> Multiset<T>
    where
        T: Clone,
    {
        Multiset::from_canonical(self.entries.to_vec())
    }
}

/// Formats like the seed-era `BTreeMap`-backed derive (`Multiset { counts:
/// {v: c, …}, total: t }`). [`Multiset`]'s `Debug` is this one, so
/// debug-rendered trace views are byte-identical to their owned-record
/// equivalents and to traces from before the representation change.
impl<T: Ord + fmt::Debug> fmt::Debug for MultisetView<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Counts<'a, T>(&'a [(T, usize)]);
        impl<T: fmt::Debug> fmt::Debug for Counts<'_, T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(v, c)| (v, c)))
                    .finish()
            }
        }
        f.debug_struct("Multiset")
            .field("counts", &Counts(self.entries))
            .field("total", &self.total())
            .finish()
    }
}

/// Formats as its [`MultisetView`] does.
impl<T: Ord + fmt::Debug> fmt::Debug for Multiset<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

impl<T: Ord + Clone> Multiset<T> {
    /// Multiset union (`M₁ ∪ M₂` of Section 2): multiplicities add.
    #[must_use]
    pub fn union(&self, other: &Multiset<T>) -> Multiset<T> {
        let mut out = self.clone();
        for (v, c) in other.iter() {
            out.insert_n(v.clone(), c);
        }
        out
    }
}

impl<T: Ord> FromIterator<T> for Multiset<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut m = Multiset::new();
        for v in iter {
            m.insert(v);
        }
        m
    }
}

impl<T: Ord> Extend<T> for Multiset<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<T: Ord + fmt::Display> fmt::Display for Multiset<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (v, c) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            if c == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{v}×{c}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_multiset() {
        let m: Multiset<u8> = Multiset::new();
        assert!(m.is_empty());
        assert_eq!(m.total(), 0);
        assert_eq!(m.unique_len(), 0);
        assert_eq!(m.min(), None);
        assert_eq!(m.max(), None);
        assert_eq!(m.to_string(), "{}");
    }

    #[test]
    fn insert_and_count() {
        let mut m = Multiset::new();
        m.insert(5u32);
        m.insert(5);
        m.insert(2);
        m.insert_n(9, 0);
        assert_eq!(m.count(&5), 2);
        assert_eq!(m.count(&2), 1);
        assert_eq!(m.count(&9), 0);
        assert_eq!(m.total(), 3);
        assert_eq!(m.unique_len(), 2);
        assert_eq!(m.min(), Some(&2));
        assert_eq!(m.max(), Some(&5));
    }

    #[test]
    fn clear_empties_and_reuses() {
        let mut m: Multiset<u8> = [1, 1, 2].into_iter().collect();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.total(), 0);
        assert_eq!(m.count(&1), 0);
        m.insert(9);
        assert_eq!(m.total(), 1);
        assert_eq!(m.min(), Some(&9));
    }

    #[test]
    fn debug_format_matches_map_backed_derive() {
        let m: Multiset<u8> = [7, 7, 4].into_iter().collect();
        assert_eq!(
            format!("{m:?}"),
            "Multiset { counts: {4: 1, 7: 2}, total: 3 }"
        );
    }

    #[test]
    fn views_read_like_their_multisets() {
        let m: Multiset<u8> = [7, 7, 4].into_iter().collect();
        let v = m.view();
        assert_eq!(v.total(), 3);
        assert_eq!(v.count(&7), 2);
        assert_eq!(v.min(), Some(&4));
        assert!(!v.is_empty() && Multiset::<u8>::new().view().is_empty());
        assert_eq!(format!("{v:?}"), format!("{m:?}"));
        assert_eq!(v.to_multiset(), m);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "multiplicities must be positive")]
    fn a_zero_count_span_is_not_a_multiset_view() {
        // A pool span holding a zero-count entry would read as non-empty
        // while it holds nothing.
        let _ = MultisetView::over(&[(1u8, 2), (3, 0)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted and distinct")]
    fn an_unsorted_span_is_not_a_multiset_view() {
        let _ = MultisetView::over(&[(3u8, 1), (1, 1)]);
    }

    #[test]
    fn submultiset_examples() {
        let small: Multiset<u8> = [1, 2].into_iter().collect();
        let big: Multiset<u8> = [1, 1, 2, 3].into_iter().collect();
        assert!(small.is_submultiset_of(&big));
        assert!(!big.is_submultiset_of(&small));
        // multiplicity matters
        let twice: Multiset<u8> = [2, 2].into_iter().collect();
        assert!(!twice.is_submultiset_of(&big));
    }

    #[test]
    fn display_with_multiplicity() {
        let m: Multiset<u8> = [7, 7, 4].into_iter().collect();
        assert_eq!(m.to_string(), "{4, 7×2}");
    }

    fn arb_multiset() -> impl Strategy<Value = Multiset<u8>> {
        proptest::collection::vec(0u8..8, 0..24).prop_map(|v| v.into_iter().collect())
    }

    proptest! {
        /// |M₁ ∪ M₂| = |M₁| + |M₂| (Section 2's union adds multiplicities).
        #[test]
        fn union_cardinality(a in arb_multiset(), b in arb_multiset()) {
            prop_assert_eq!(a.union(&b).total(), a.total() + b.total());
        }

        /// Union multiplicities are the sum of the parts.
        #[test]
        fn union_counts(a in arb_multiset(), b in arb_multiset(), v in 0u8..8) {
            prop_assert_eq!(a.union(&b).count(&v), a.count(&v) + b.count(&v));
        }

        /// Every multiset is a sub-multiset of itself and of any union that
        /// includes it.
        #[test]
        fn submultiset_reflexive_and_union(a in arb_multiset(), b in arb_multiset()) {
            prop_assert!(a.is_submultiset_of(&a));
            prop_assert!(a.is_submultiset_of(&a.union(&b)));
        }

        /// Sub-multiset inclusion is antisymmetric: mutual inclusion implies
        /// equality.
        #[test]
        fn submultiset_antisymmetric(a in arb_multiset(), b in arb_multiset()) {
            if a.is_submultiset_of(&b) && b.is_submultiset_of(&a) {
                prop_assert_eq!(a, b);
            }
        }

        /// total == sum of multiplicities; unique_len == support size.
        #[test]
        fn cardinality_invariants(a in arb_multiset()) {
            prop_assert_eq!(a.total(), a.iter().map(|(_, c)| c).sum::<usize>());
            prop_assert_eq!(a.unique_len(), a.support().count());
            prop_assert_eq!(a.is_empty(), a.total() == 0);
        }

        /// min/max agree with the support extremes.
        #[test]
        fn min_max(a in arb_multiset()) {
            prop_assert_eq!(a.min(), a.support().min());
            prop_assert_eq!(a.max(), a.support().max());
        }
    }
}
