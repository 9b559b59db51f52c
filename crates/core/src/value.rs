//! Consensus values and the binary encoding `V^{0,1}` of Section 7.

use std::fmt;

/// A consensus value: an element of some [`ValueDomain`]. Values are dense
/// integers `0 ≤ v < |V|`; the domain supplies the fixed-width binary
/// encoding that Algorithm 2 spells out bit by bit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Value(pub u64);

impl Value {
    /// The raw index of this value within its domain.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value(v)
    }
}

/// What Algorithm 1's proposal rounds read from `SET(messages)`: its
/// minimum, and whether it holds more than one value. Folded straight off
/// a receive multiset's support, so a transition collects no set.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct ValueSpread {
    /// The least value, if any.
    pub min: Option<Value>,
    /// Whether two or more distinct values were seen.
    pub several: bool,
}

impl ValueSpread {
    /// Folds `values` (repeats allowed) without allocating.
    pub fn of(values: impl IntoIterator<Item = Value>) -> ValueSpread {
        values
            .into_iter()
            .fold(ValueSpread::default(), |spread, v| match spread.min {
                None => ValueSpread {
                    min: Some(v),
                    several: false,
                },
                Some(min) => ValueSpread {
                    min: Some(min.min(v)),
                    several: spread.several || v != min,
                },
            })
    }

    /// Whether exactly one distinct value was seen.
    pub fn is_unique(self) -> bool {
        self.min.is_some() && !self.several
    }
}

/// A finite, totally ordered value set `V` with the binary representation
/// `V^{0,1}` used by Algorithm 2: each value is a bit string of length
/// `⌈lg |V|⌉` (at least 1), indexed MSB-first from 1 as in the paper's
/// `estimate[b]`.
///
/// # Examples
///
/// ```
/// use ccwan_core::{Value, ValueDomain};
///
/// let v = ValueDomain::new(6);     // V = {v0, …, v5}
/// assert_eq!(v.bits(), 3);         // ⌈lg 6⌉
/// // v5 = 101 in 3 bits, MSB first.
/// assert!(v.bit(Value(5), 1));
/// assert!(!v.bit(Value(5), 2));
/// assert!(v.bit(Value(5), 3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ValueDomain {
    size: u64,
}

impl ValueDomain {
    /// A domain of `size` values `{0, …, size−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` (consensus needs a non-empty value set) or if
    /// `size > 2^63` (the binary encoding must fit in `u64`).
    pub fn new(size: u64) -> Self {
        assert!(size >= 1, "a value domain must be non-empty");
        assert!(size <= 1 << 63, "value domain too large");
        ValueDomain { size }
    }

    /// A binary domain `{0, 1}` — commit/abort style decisions.
    pub fn binary() -> Self {
        ValueDomain::new(2)
    }

    /// `|V|`.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The encoding width `⌈lg |V|⌉`, with a minimum of 1 bit (the paper's
    /// `size ← ⌈lg |V|⌉` with the degenerate singleton domain still getting
    /// one propose round).
    pub fn bits(&self) -> u32 {
        if self.size <= 2 {
            1
        } else {
            64 - (self.size - 1).leading_zeros()
        }
    }

    /// Whether `v` is a member of the domain.
    pub fn contains(&self, v: Value) -> bool {
        v.0 < self.size
    }

    /// Bit `b` (1-indexed, MSB first) of `v`'s fixed-width encoding — the
    /// paper's `estimate[b]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in the domain or `b` is not in `1..=bits()`.
    pub fn bit(&self, v: Value, b: u32) -> bool {
        assert!(self.contains(v), "{v} outside domain of size {}", self.size);
        assert!(
            (1..=self.bits()).contains(&b),
            "bit index {b} outside 1..={}",
            self.bits()
        );
        (v.0 >> (self.bits() - b)) & 1 == 1
    }

    /// All values in ascending order.
    pub fn values(&self) -> impl Iterator<Item = Value> {
        (0..self.size).map(Value)
    }
}

impl fmt::Display for ValueDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V[{}]", self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bits_widths() {
        assert_eq!(ValueDomain::new(1).bits(), 1);
        assert_eq!(ValueDomain::new(2).bits(), 1);
        assert_eq!(ValueDomain::new(3).bits(), 2);
        assert_eq!(ValueDomain::new(4).bits(), 2);
        assert_eq!(ValueDomain::new(5).bits(), 3);
        assert_eq!(ValueDomain::new(8).bits(), 3);
        assert_eq!(ValueDomain::new(9).bits(), 4);
        assert_eq!(ValueDomain::new(1 << 20).bits(), 20);
    }

    #[test]
    fn msb_first_indexing() {
        let d = ValueDomain::new(8); // 3 bits
                                     // v6 = 110
        assert!(d.bit(Value(6), 1));
        assert!(d.bit(Value(6), 2));
        assert!(!d.bit(Value(6), 3));
        // v1 = 001
        assert!(!d.bit(Value(1), 1));
        assert!(!d.bit(Value(1), 2));
        assert!(d.bit(Value(1), 3));
    }

    #[test]
    fn membership_and_extremes() {
        let d = ValueDomain::new(5);
        assert!(d.contains(Value(4)));
        assert!(!d.contains(Value(5)));
        assert_eq!(d.values().count(), 5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_domain_rejected() {
        let _ = ValueDomain::new(0);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_bit_rejected() {
        let _ = ValueDomain::new(2).bit(Value(2), 1);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn out_of_range_bit_index_rejected() {
        let _ = ValueDomain::new(4).bit(Value(1), 3);
    }

    proptest! {
        /// The bit string read MSB-first reconstructs the value: the encoding
        /// is injective, which is all Algorithm 2 needs (distinct estimates
        /// differ at some propose round).
        #[test]
        fn encoding_roundtrip(size in 1u64..1000, raw in 0u64..1000) {
            let d = ValueDomain::new(size);
            let v = Value(raw % size);
            let mut acc = 0u64;
            for b in 1..=d.bits() {
                acc = (acc << 1) | u64::from(d.bit(v, b));
            }
            prop_assert_eq!(acc, v.0);
        }

        /// Width is always sufficient: every domain value fits in bits().
        #[test]
        fn width_sufficient(size in 1u64..100_000) {
            let d = ValueDomain::new(size);
            prop_assert!(u128::from(size) <= 1u128 << d.bits());
        }
    }
}
