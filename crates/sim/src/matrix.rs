//! The per-round delivery matrix, as a dense bitset.
//!
//! Which receivers get which broadcasts in one round. Keyed by *sender*:
//! `matrix.delivered(s, r)` says whether receiver `r` obtains the message
//! broadcast by `s`. Because every process broadcasts at most one message
//! per round, a sender-indexed boolean matrix expresses every receive
//! behaviour the model admits (constraint 4 of Definition 11); the engine
//! forces the diagonal (constraint 5: broadcasters receive their own
//! message).
//!
//! ## Representation
//!
//! The matrix is stored receiver-major as `u64` words: one row of
//! `⌈n/64⌉` words per process, where bit `s` of row `r` means "sender `s`
//! delivers to receiver `r`", plus a sender-presence bitmask of the same
//! width. Rows for every process (not just senders) keep addressing
//! branch-free; the invariant that only sender bits are ever set makes
//! [`DeliveryMatrix::received_count`] a popcount and the derived
//! `PartialEq` canonical. [`DeliveryMatrix::clear_and_resize`] re-keys the
//! matrix for a new round without releasing its storage, which is what
//! lets the engine's round buffers run allocation-free in steady state.

use crate::ids::ProcessId;
use std::fmt;

/// Which receivers get which broadcasts in one round (see the module docs
/// for the representation).
#[derive(Clone, PartialEq, Eq)]
pub struct DeliveryMatrix {
    n: usize,
    words_per_row: usize,
    /// `rows[r * words_per_row + w]`: delivery bits of receiver `r` for
    /// senders `64w..64(w+1)`.
    rows: Vec<u64>,
    /// Sender-presence bitmask, `words_per_row` words.
    senders: Vec<u64>,
}

impl DeliveryMatrix {
    /// An empty 0-process matrix, the natural initial value for a reusable
    /// buffer: the first [`DeliveryMatrix::clear_and_resize`] shapes it.
    pub fn empty() -> Self {
        DeliveryMatrix {
            n: 0,
            words_per_row: 0,
            rows: Vec::new(),
            senders: Vec::new(),
        }
    }

    /// A matrix for the given senders with *no* deliveries (the engine will
    /// still force self-delivery).
    ///
    /// # Panics
    ///
    /// Panics if any sender index is `≥ n`.
    pub fn none(senders: &[ProcessId], n: usize) -> Self {
        let mut m = Self::empty();
        m.clear_and_resize(senders, n);
        m
    }

    /// A matrix where every sender's message reaches every process.
    ///
    /// # Panics
    ///
    /// Panics if any sender index is `≥ n`.
    pub fn full(senders: &[ProcessId], n: usize) -> Self {
        let mut m = Self::none(senders, n);
        m.deliver_all();
        m
    }

    /// Re-keys the matrix for a new round — `n` processes, the given
    /// senders, no deliveries — reusing the existing storage. Writer-style
    /// loss adversaries ([`crate::LossAdversary::deliver_into`]) call this
    /// first, then add deliveries.
    ///
    /// # Panics
    ///
    /// Panics if any sender index is `≥ n`.
    pub fn clear_and_resize(&mut self, senders: &[ProcessId], n: usize) {
        self.n = n;
        self.words_per_row = n.div_ceil(64);
        self.rows.clear();
        self.rows.resize(n * self.words_per_row, 0);
        self.senders.clear();
        self.senders.resize(self.words_per_row, 0);
        for &s in senders {
            assert!(s.index() < n, "sender {s} out of range for n = {n}");
            self.senders[s.index() / 64] |= 1u64 << (s.index() % 64);
        }
    }

    /// Number of process indices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether `s` broadcast this round (has a row in the matrix).
    pub fn is_sender(&self, s: ProcessId) -> bool {
        s.index() < self.n && self.senders[s.index() / 64] & (1u64 << (s.index() % 64)) != 0
    }

    /// The senders this matrix covers, in ascending order.
    pub fn senders(&self) -> impl Iterator<Item = ProcessId> + '_ {
        bits(&self.senders).map(ProcessId)
    }

    /// Whether the matrix covers exactly `senders`, which must be strictly
    /// ascending (as the engine's broadcaster list is).
    pub(crate) fn is_keyed_by(&self, senders: &[ProcessId]) -> bool {
        let declared: u32 = self.senders.iter().map(|w| w.count_ones()).sum();
        declared as usize == senders.len() && senders.iter().all(|&s| self.is_sender(s))
    }

    fn row(&self, r: ProcessId) -> &[u64] {
        let start = r.index() * self.words_per_row;
        &self.rows[start..start + self.words_per_row]
    }

    fn row_mut(&mut self, r: ProcessId) -> &mut [u64] {
        let start = r.index() * self.words_per_row;
        &mut self.rows[start..start + self.words_per_row]
    }

    /// Whether receiver `r` gets sender `s`'s message. `false` if `s` is not
    /// a sender this round.
    pub fn delivered(&self, s: ProcessId, r: ProcessId) -> bool {
        self.is_sender(s) && self.row(r)[s.index() / 64] & (1u64 << (s.index() % 64)) != 0
    }

    /// Sets whether receiver `r` gets sender `s`'s message.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a sender in this matrix or `r` is out of range.
    pub fn set(&mut self, s: ProcessId, r: ProcessId, delivered: bool) {
        assert!(self.is_sender(s), "set() on a non-sender row");
        assert!(r.index() < self.n, "receiver {r} out of range");
        let (word, bit) = (s.index() / 64, 1u64 << (s.index() % 64));
        if delivered {
            self.row_mut(r)[word] |= bit;
        } else {
            self.row_mut(r)[word] &= !bit;
        }
    }

    /// Delivers sender `s`'s message to every process.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a sender in this matrix.
    pub fn deliver_all_from(&mut self, s: ProcessId) {
        assert!(self.is_sender(s), "deliver_all_from() on a non-sender row");
        let (word, bit) = (s.index() / 64, 1u64 << (s.index() % 64));
        for r in 0..self.n {
            self.rows[r * self.words_per_row + word] |= bit;
        }
    }

    /// Delivers every sender's message to every process (every receiver row
    /// becomes the sender mask).
    pub fn deliver_all(&mut self) {
        for r in 0..self.n {
            let start = r * self.words_per_row;
            self.rows[start..start + self.words_per_row].copy_from_slice(&self.senders);
        }
    }

    /// Forces `delivered(s, s) = true` for every sender: constraint 5 of
    /// Definition 11 (broadcasters always receive their own message). Called
    /// by the engine on every matrix an adversary returns.
    pub fn force_self_delivery(&mut self) {
        let wpr = self.words_per_row;
        for word in 0..wpr {
            let mut mask = self.senders[word];
            while mask != 0 {
                let s = word * 64 + mask.trailing_zeros() as usize;
                self.rows[s * wpr + word] |= mask & mask.wrapping_neg();
                mask &= mask - 1;
            }
        }
    }

    /// How many messages receiver `r` obtains under this matrix: a popcount
    /// of `r`'s row (only sender bits are ever set).
    pub fn received_count(&self, r: ProcessId) -> usize {
        self.row(r).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The senders whose messages receiver `r` obtains, in ascending order.
    pub fn delivered_to(&self, r: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        bits(self.row(r)).map(ProcessId)
    }

    /// Receiver `r`'s raw delivery words (`⌈n/64⌉` of them; bit `s` of
    /// word `s / 64` means sender `s` delivers to `r`). Only sender bits
    /// are ever set, so a popcount of this slice equals
    /// [`DeliveryMatrix::received_count`]. Exposed for word-wise batch
    /// consumers (the engine's receive assembly, masked adversaries).
    pub fn row_words(&self, r: ProcessId) -> &[u64] {
        self.row(r)
    }

    /// Every receiver's [`DeliveryMatrix::row_words`], concatenated in
    /// receiver order: [`DeliveryMatrix::words_per_row`] words each.
    pub(crate) fn all_row_words(&self) -> &[u64] {
        &self.rows
    }

    /// The row width, `⌈n/64⌉` words.
    pub(crate) fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Delivers sender `s`'s message to exactly the receivers `pred`
    /// accepts, probing every process in ascending index order (`0..n`).
    /// The strict probe order is load-bearing for adversaries whose
    /// predicate takes one RNG draw per probe (the random loss
    /// adversaries test each draw against their loss threshold): one call
    /// per process, in index order, keeps the stream — and therefore the
    /// delivery bits — identical to a hand-written per-receiver loop. The
    /// sender's word and bit are hoisted out of the probe loop.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a sender in this matrix.
    pub fn deliver_from_where(&mut self, s: ProcessId, mut pred: impl FnMut(ProcessId) -> bool) {
        assert!(
            self.is_sender(s),
            "deliver_from_where() on a non-sender row"
        );
        let (word, bit) = (s.index() / 64, 1u64 << (s.index() % 64));
        for r in 0..self.n {
            self.rows[r * self.words_per_row + word] |= bit * u64::from(pred(ProcessId(r)));
        }
    }

    /// Delivers sender `s`'s message to receiver `64·w + i` for every set
    /// bit `i` of `receivers`: up to 64 of one sender's decisions in one
    /// call, the sender-major counterpart of
    /// [`DeliveryMatrix::deliver_row_mask`]. Bits for receivers at or
    /// beyond `n` are ignored. One-word rows (`n ≤ 64`) take one
    /// branchless pass down the sender's column, which the compiler
    /// vectorizes; wider rows take one OR per set bit.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a sender in this matrix or `w` is not below
    /// `⌈n/64⌉`.
    #[inline]
    pub fn deliver_from_word(&mut self, s: ProcessId, w: usize, receivers: u64) {
        assert!(self.is_sender(s), "deliver_from_word() on a non-sender row");
        assert!(
            w < self.words_per_row,
            "receiver word {w} out of range for n = {}",
            self.n
        );
        let (word, shift) = (s.index() / 64, s.index() % 64);
        if self.words_per_row == 1 {
            for (r, row) in self.rows.iter_mut().enumerate() {
                *row |= ((receivers >> r) & 1) << shift;
            }
        } else {
            let first = 64 * w;
            let mut rest = receivers & low_bits(self.n - first);
            while rest != 0 {
                let r = first + rest.trailing_zeros() as usize;
                self.rows[r * self.words_per_row + word] |= 1 << shift;
                rest &= rest - 1;
            }
        }
    }

    /// ORs a sender mask into receiver `r`'s row in one pass of word-wise
    /// operations: every sender whose bit is set in `mask` delivers to
    /// `r`. Bits of non-senders are ignored (masked against the sender
    /// set), preserving the invariant that only sender bits are ever set.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is shorter than the row width.
    pub fn deliver_row_mask(&mut self, r: ProcessId, mask: &[u64]) {
        let row = &mut self.rows[r.index() * self.words_per_row..][..self.words_per_row];
        for (w, word) in row.iter_mut().enumerate() {
            *word |= mask[w] & self.senders[w];
        }
    }
}

/// The word whose low `min(k, 64)` bits are set.
pub(crate) fn low_bits(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1 << k) - 1
    }
}

/// Ascending indices of the set bits of a word slice.
fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        std::iter::successors((w != 0).then_some(w), |&rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
    })
}

impl fmt::Debug for DeliveryMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rows = f.debug_struct("DeliveryMatrix");
        rows.field("n", &self.n);
        let per_sender: Vec<(ProcessId, Vec<usize>)> = self
            .senders()
            .map(|s| {
                let receivers = (0..self.n)
                    .filter(|&r| self.delivered(s, ProcessId(r)))
                    .collect();
                (s, receivers)
            })
            .collect();
        rows.field("deliveries", &per_sender).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn delivery_matrix_basics() {
        let senders = [ProcessId(0), ProcessId(2)];
        let mut m = DeliveryMatrix::none(&senders, 4);
        assert_eq!(m.n(), 4);
        assert_eq!(m.senders().collect::<Vec<_>>(), senders);
        assert!(!m.delivered(ProcessId(0), ProcessId(1)));
        m.set(ProcessId(0), ProcessId(1), true);
        assert!(m.delivered(ProcessId(0), ProcessId(1)));
        // Non-senders never deliver.
        assert!(!m.delivered(ProcessId(1), ProcessId(0)));
        m.force_self_delivery();
        assert!(m.delivered(ProcessId(0), ProcessId(0)));
        assert!(m.delivered(ProcessId(2), ProcessId(2)));
        assert_eq!(m.received_count(ProcessId(0)), 1, "own message only");
        assert_eq!(m.received_count(ProcessId(1)), 1, "from sender 0");
        assert_eq!(m.received_count(ProcessId(3)), 0);
    }

    #[test]
    fn full_matrix_delivers_everything() {
        let senders = [ProcessId(1)];
        let m = DeliveryMatrix::full(&senders, 3);
        for r in 0..3 {
            assert!(m.delivered(ProcessId(1), ProcessId(r)));
        }
        assert_eq!(m.received_count(ProcessId(2)), 1);
    }

    #[test]
    #[should_panic(expected = "non-sender")]
    fn setting_non_sender_panics() {
        let mut m = DeliveryMatrix::none(&[ProcessId(0)], 2);
        m.set(ProcessId(1), ProcessId(0), true);
    }

    #[test]
    #[should_panic(expected = "non-sender")]
    fn deliver_all_from_non_sender_panics() {
        let mut m = DeliveryMatrix::none(&[ProcessId(0)], 2);
        m.deliver_all_from(ProcessId(1));
    }

    #[test]
    #[should_panic(expected = "non-sender")]
    fn deliver_from_word_non_sender_panics() {
        let mut m = DeliveryMatrix::none(&[ProcessId(0)], 2);
        m.deliver_from_word(ProcessId(1), 0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_sender_rejected() {
        let _ = DeliveryMatrix::none(&[ProcessId(5)], 2);
    }

    #[test]
    fn is_keyed_by_requires_exactly_the_declared_senders() {
        let m = DeliveryMatrix::none(&[ProcessId(1), ProcessId(64)], 70);
        assert!(m.is_keyed_by(&[ProcessId(1), ProcessId(64)]));
        assert!(
            !m.is_keyed_by(&[ProcessId(1)]),
            "one declared sender too many"
        );
        assert!(
            !m.is_keyed_by(&[ProcessId(1), ProcessId(2), ProcessId(64)]),
            "a broadcaster missing"
        );
        assert!(
            !m.is_keyed_by(&[ProcessId(1), ProcessId(65)]),
            "a different sender"
        );
        assert!(
            !m.is_keyed_by(&[ProcessId(1), ProcessId(70)]),
            "out of range"
        );
    }

    #[test]
    fn deliver_all_from_fills_row() {
        let mut m = DeliveryMatrix::none(&[ProcessId(0), ProcessId(1)], 3);
        m.deliver_all_from(ProcessId(1));
        assert!(m.delivered(ProcessId(1), ProcessId(2)));
        assert!(!m.delivered(ProcessId(0), ProcessId(2)));
    }

    #[test]
    fn clear_and_resize_rekeys_without_stale_state() {
        let mut m = DeliveryMatrix::full(&[ProcessId(0), ProcessId(1)], 3);
        m.clear_and_resize(&[ProcessId(2)], 5);
        assert_eq!(m.n(), 5);
        assert_eq!(m.senders().collect::<Vec<_>>(), vec![ProcessId(2)]);
        assert!(!m.delivered(ProcessId(0), ProcessId(1)), "old sender gone");
        assert!(!m.delivered(ProcessId(2), ProcessId(0)), "cleared");
        for r in 0..5 {
            assert_eq!(m.received_count(ProcessId(r)), 0);
        }
    }

    #[test]
    fn delivered_to_iterates_ascending_senders() {
        let senders = [ProcessId(0), ProcessId(2), ProcessId(3)];
        let mut m = DeliveryMatrix::none(&senders, 4);
        m.set(ProcessId(3), ProcessId(1), true);
        m.set(ProcessId(0), ProcessId(1), true);
        assert_eq!(
            m.delivered_to(ProcessId(1)).collect::<Vec<_>>(),
            vec![ProcessId(0), ProcessId(3)]
        );
        assert_eq!(m.delivered_to(ProcessId(2)).count(), 0);
    }

    #[test]
    fn works_beyond_one_word() {
        // n > 64 exercises the multi-word row layout.
        let n = 130;
        let senders: Vec<ProcessId> = [0usize, 63, 64, 127, 129].map(ProcessId).to_vec();
        let mut m = DeliveryMatrix::none(&senders, n);
        m.deliver_all_from(ProcessId(129));
        m.set(ProcessId(64), ProcessId(65), true);
        assert!(m.delivered(ProcessId(129), ProcessId(0)));
        assert!(m.delivered(ProcessId(64), ProcessId(65)));
        assert!(!m.delivered(ProcessId(63), ProcessId(65)));
        assert_eq!(m.received_count(ProcessId(65)), 2);
        m.force_self_delivery();
        for &s in &senders {
            assert!(m.delivered(s, s));
        }
        assert_eq!(m.senders().collect::<Vec<_>>(), senders);
    }

    /// The reference model the proptest drives the bitset against: the
    /// seed-era `BTreeMap<ProcessId, Vec<bool>>` representation.
    #[derive(Debug, Clone)]
    struct ModelMatrix {
        n: usize,
        rows: BTreeMap<ProcessId, Vec<bool>>,
    }

    impl ModelMatrix {
        fn none(senders: &[ProcessId], n: usize) -> Self {
            ModelMatrix {
                n,
                rows: senders.iter().map(|&s| (s, vec![false; n])).collect(),
            }
        }
        fn delivered(&self, s: ProcessId, r: ProcessId) -> bool {
            self.rows.get(&s).map(|row| row[r.index()]).unwrap_or(false)
        }
        fn set(&mut self, s: ProcessId, r: ProcessId, delivered: bool) {
            self.rows.get_mut(&s).expect("non-sender")[r.index()] = delivered;
        }
        fn deliver_all_from(&mut self, s: ProcessId) {
            self.rows.get_mut(&s).expect("non-sender").fill(true);
        }
        fn force_self_delivery(&mut self) {
            for (s, row) in self.rows.iter_mut() {
                row[s.index()] = true;
            }
        }
        fn received_count(&self, r: ProcessId) -> usize {
            self.rows.values().filter(|row| row[r.index()]).count()
        }
    }

    /// One step of the equivalence drive.
    #[derive(Debug, Clone)]
    enum Op {
        Set { s: usize, r: usize, delivered: bool },
        DeliverAllFrom { s: usize },
        ForceSelfDelivery,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (0usize..4, 0usize..200, 0usize..200, any::<bool>()).prop_map(|(kind, s, r, delivered)| {
            match kind {
                0 | 1 => Op::Set { s, r, delivered },
                2 => Op::DeliverAllFrom { s },
                _ => Op::ForceSelfDelivery,
            }
        })
    }

    proptest! {
        /// Random op sequences leave the bitset and the BTreeMap model in
        /// agreement on every observable — including n values that are not
        /// multiples of 64 and the non-sender panic contract (ops naming a
        /// non-sender or out-of-range receiver are skipped in both).
        #[test]
        fn bitset_matches_btreemap_model(
            n in 1usize..150,
            sender_picks in proptest::collection::vec(0usize..150, 0..12),
            ops in proptest::collection::vec(arb_op(), 0..40),
        ) {
            let mut senders: Vec<ProcessId> =
                sender_picks.into_iter().map(|s| ProcessId(s % n)).collect();
            senders.sort_unstable();
            senders.dedup();
            let mut bitset = DeliveryMatrix::none(&senders, n);
            let mut model = ModelMatrix::none(&senders, n);
            for op in ops {
                match op {
                    Op::Set { s, r, delivered } => {
                        let (s, r) = (ProcessId(s % n.max(1)), ProcessId(r % n));
                        if model.rows.contains_key(&s) {
                            bitset.set(s, r, delivered);
                            model.set(s, r, delivered);
                        }
                    }
                    Op::DeliverAllFrom { s } => {
                        let s = ProcessId(s % n.max(1));
                        if model.rows.contains_key(&s) {
                            bitset.deliver_all_from(s);
                            model.deliver_all_from(s);
                        }
                    }
                    Op::ForceSelfDelivery => {
                        bitset.force_self_delivery();
                        model.force_self_delivery();
                    }
                }
            }
            prop_assert_eq!(bitset.n(), model.n);
            prop_assert_eq!(
                bitset.senders().collect::<Vec<_>>(),
                model.rows.keys().copied().collect::<Vec<_>>()
            );
            for s in 0..n {
                for r in 0..n {
                    prop_assert_eq!(
                        bitset.delivered(ProcessId(s), ProcessId(r)),
                        model.delivered(ProcessId(s), ProcessId(r)),
                        "delivered({}, {})", s, r
                    );
                }
            }
            for r in 0..n {
                prop_assert_eq!(
                    bitset.received_count(ProcessId(r)),
                    model.received_count(ProcessId(r)),
                    "received_count({})", r
                );
                prop_assert_eq!(
                    bitset.delivered_to(ProcessId(r)).count(),
                    bitset.received_count(ProcessId(r))
                );
            }
        }

        /// Word-wise consumers agree with the per-bit reference on random
        /// matrices: row-word popcounts equal `received_count` and the
        /// number of senders `delivered_to` yields, and the masked row OR
        /// equals bit-by-bit sets.
        #[test]
        fn word_wise_paths_match_per_bit_reference(
            n in 1usize..150,
            sender_picks in proptest::collection::vec(0usize..150, 0..12),
            ops in proptest::collection::vec(arb_op(), 0..40),
            mask_rx in 0usize..150,
            mask_seed in 0u64..1_000_000,
        ) {
            let mut senders: Vec<ProcessId> =
                sender_picks.into_iter().map(|s| ProcessId(s % n)).collect();
            senders.sort_unstable();
            senders.dedup();
            let mut m = DeliveryMatrix::none(&senders, n);
            for op in ops {
                match op {
                    Op::Set { s, r, delivered } => {
                        let s = ProcessId(s % n);
                        if m.is_sender(s) {
                            m.set(s, ProcessId(r % n), delivered);
                        }
                    }
                    Op::DeliverAllFrom { s } => {
                        let s = ProcessId(s % n);
                        if m.is_sender(s) {
                            m.deliver_all_from(s);
                        }
                    }
                    Op::ForceSelfDelivery => m.force_self_delivery(),
                }
            }
            for r in 0..n {
                let r = ProcessId(r);
                let popcount: usize =
                    m.row_words(r).iter().map(|w| w.count_ones() as usize).sum();
                prop_assert_eq!(popcount, m.received_count(r));
                prop_assert_eq!(popcount, m.delivered_to(r).count());
            }
            // deliver_row_mask == per-bit sets of the mask ∩ senders.
            let rx = ProcessId(mask_rx % n);
            let words = n.div_ceil(64);
            let mask: Vec<u64> = (0..words)
                .map(|w| {
                    // Cheap deterministic word salad, bits above n cleared
                    // by the sender mask inside deliver_row_mask anyway.
                    mask_seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(w as u64)
                        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                })
                .collect();
            let mut masked = m.clone();
            masked.deliver_row_mask(rx, &mask);
            let mut bit_by_bit = m.clone();
            for s in 0..n {
                let s = ProcessId(s);
                if bit_by_bit.is_sender(s) && mask[s.index() / 64] & (1 << (s.index() % 64)) != 0 {
                    bit_by_bit.set(s, rx, true);
                }
            }
            prop_assert_eq!(&masked, &bit_by_bit);
        }

        /// `deliver_from_where` probes every process exactly once in
        /// ascending order and sets exactly the accepted bits — the
        /// RNG-stream contract masked adversaries rely on.
        #[test]
        fn deliver_from_where_probes_in_order(
            n in 1usize..150,
            s in 0usize..150,
            accept_seed in 0u64..1_000_000,
        ) {
            let s = ProcessId(s % n);
            let mut m = DeliveryMatrix::none(&[s], n);
            let mut probed = Vec::new();
            m.deliver_from_where(s, |r| {
                probed.push(r);
                accept_seed.wrapping_add(r.index() as u64).wrapping_mul(0x9E37) % 3 == 0
            });
            prop_assert_eq!(&probed, &(0..n).map(ProcessId).collect::<Vec<_>>());
            for r in 0..n {
                let expect =
                    accept_seed.wrapping_add(r as u64).wrapping_mul(0x9E37) % 3 == 0;
                prop_assert_eq!(m.delivered(s, ProcessId(r)), expect, "receiver {}", r);
            }
        }

        /// `deliver_from_word` sets exactly the sender's bit for the word's
        /// receivers below `n`, on one-word and multi-word rows alike, and
        /// leaves every other sender's bits alone.
        #[test]
        fn deliver_from_word_matches_per_bit_sets(
            n in 1usize..150,
            s in 0usize..150,
            w in 0usize..3,
            receivers in any::<u64>(),
            ops in proptest::collection::vec(arb_op(), 0..20),
        ) {
            let (s, w) = (ProcessId(s % n), w % n.div_ceil(64));
            let other = ProcessId((s.index() + 1) % n);
            let mut m = DeliveryMatrix::none(&[s, other], n);
            for op in ops {
                if let Op::Set { s, r, delivered } = op {
                    let s = ProcessId(s % n);
                    if m.is_sender(s) {
                        m.set(s, ProcessId(r % n), delivered);
                    }
                }
            }
            let mut bit_by_bit = m.clone();
            for i in 0..64 {
                let r = 64 * w + i;
                if r < n && receivers & (1 << i) != 0 {
                    bit_by_bit.set(s, ProcessId(r), true);
                }
            }
            m.deliver_from_word(s, w, receivers);
            prop_assert_eq!(&m, &bit_by_bit);
        }

        /// The panic contract matches the model: setting a non-sender row
        /// panics on both representations.
        #[test]
        fn non_sender_set_panics_like_model(n in 1usize..70, s in 0usize..70) {
            let s = s % n;
            // The only sender is (s + 1) % n — unless n == 1, where no
            // distinct non-sender exists.
            prop_assume!(n > 1);
            let sender = ProcessId((s + 1) % n);
            let mut m = DeliveryMatrix::none(&[sender], n);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.set(ProcessId(s), ProcessId(0), true);
            }));
            prop_assert!(caught.is_err(), "set() on non-sender must panic");
        }
    }
}
