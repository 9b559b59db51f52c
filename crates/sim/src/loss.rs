//! Message-loss adversaries.
//!
//! The model's receive behaviour is almost unconstrained: "any device can
//! lose any subset of the messages broadcast by other devices during the
//! round" (Section 1.3). Each type here is one resolved adversary:
//!
//! * [`NoLoss`] — every broadcast reaches everyone.
//! * [`TotalCollisionLoss`] — the classical *total collision model* of
//!   Section 1.2 (and the intra-group rule of alpha executions,
//!   Definition 24): a solo broadcast is delivered to all; concurrent
//!   broadcasts are lost everywhere (except, per constraint 5, at their own
//!   senders).
//! * [`PartitionLoss`] — the two-group constructions of Theorems 4 and 8 and
//!   Lemma 23: cross-group messages are lost; intra-group behaviour is
//!   configurable.
//! * [`RandomLoss`] — i.i.d. per-(sender, receiver) loss, the "20–50 %"
//!   empirical regime. Scenario-timeline events swap its rate and split or
//!   heal a partition mid-run.
//! * [`Ecf`] — a wrapper adding the *eventual collision freedom* property
//!   (Property 1) to any inner adversary from a given round on.
//!
//! An explicit per-round delivery schedule, for hand-built worst cases, is
//! the `deliveries` column of a [`crate::Script`].
//!
//! [`RandomLoss`] is the one adversary that decides pair by pair, so its
//! draws are the largest cost of a lossy round. Its SplitMix64 stream is
//! counter-based, which lets a large round compute the draws in parallel
//! lanes: a round of more than 256 pairs on a CPU with AVX-512 F and DQ
//! (detected at run time) takes each sender's draws for 64 receivers at a
//! time, eight to a vector, and writes one receiver bitmask per word.
//! Smaller rounds and other CPUs keep the per-pair loop. Both decide every
//! pair with the same draw. At n = 64 with 26 senders the kernel took
//! 0.8–1.2 ns per pair against 1.8–3.5 for the per-pair loop (see
//! [`RandomLoss`]).

use crate::fingerprint::{splitmix64, GAMMA};
use crate::ids::{ProcessId, Round};
use crate::matrix::low_bits;
use crate::scenario::ScenarioEvent;
use crate::traits::{DeliveryMatrix, LossAdversary};

/// Delivers every broadcast to every process.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLoss;

impl LossAdversary for NoLoss {
    fn deliver_into(
        &mut self,
        _round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        out.clear_and_resize(senders, n);
        out.deliver_all();
    }
    fn collision_free_from(&self) -> Option<Round> {
        Some(Round::FIRST)
    }
}

/// The total collision model of Section 1.2: if exactly one process
/// broadcasts, everyone receives its message; if two or more broadcast, all
/// messages are lost (senders still receive their own — constraint 5 — which
/// is also precisely the receive rule of alpha executions, Definition 24,
/// item 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct TotalCollisionLoss;

impl LossAdversary for TotalCollisionLoss {
    fn deliver_into(
        &mut self,
        _round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        out.clear_and_resize(senders, n);
        if senders.len() == 1 {
            out.deliver_all();
        }
    }
    fn collision_free_from(&self) -> Option<Round> {
        Some(Round::FIRST)
    }
}

/// Intra-group delivery rule for [`PartitionLoss`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraGroupRule {
    /// Within a group, every broadcast reaches every group member
    /// (Theorem 4/8 constructions: groups "lose all *and only*" the other
    /// group's messages).
    Full,
    /// Within a group, the [`TotalCollisionLoss`] rule applies: a message is
    /// delivered group-wide iff its sender is the group's only broadcaster
    /// (the Lemma 23 composition, which must mimic alpha executions inside
    /// each group).
    Solo,
}

/// Splits the index set into groups and loses every cross-group message,
/// optionally only up to a horizon round.
///
/// This is the workhorse of the Section 8 constructions: two groups that
/// cannot hear each other behave exactly like two independent executions.
#[derive(Clone)]
pub struct PartitionLoss {
    group_of: Vec<usize>,
    intra: IntraGroupRule,
    /// Cross-group loss applies to rounds `< heal_from`; from `heal_from` on
    /// every broadcast is delivered to everyone. `None` = partitioned
    /// forever.
    heal_from: Option<Round>,
    /// Reusable per-round scratch: the per-group delivering-sender bitmasks
    /// (flattened `groups × words_per_row`) and per-group broadcaster
    /// counts. Excluded from `Debug` (see the manual impl) so the rendered
    /// adversary stays byte-identical to the seed-era derive.
    group_masks: Vec<u64>,
    group_sender_counts: Vec<usize>,
}

impl std::fmt::Debug for PartitionLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Scratch buffers are representation, not identity: render exactly
        // the fields the seed-era `#[derive(Debug)]` rendered.
        f.debug_struct("PartitionLoss")
            .field("group_of", &self.group_of)
            .field("intra", &self.intra)
            .field("heal_from", &self.heal_from)
            .finish()
    }
}

impl PartitionLoss {
    /// Creates a partition adversary. `group_of[i]` is the group of process
    /// `i`.
    pub fn new(group_of: Vec<usize>, intra: IntraGroupRule) -> Self {
        PartitionLoss {
            group_of,
            intra,
            heal_from: None,
            group_masks: Vec::new(),
            group_sender_counts: Vec::new(),
        }
    }

    /// A two-group partition: processes with index `< split` form group 0,
    /// the rest group 1.
    pub fn two_groups(n: usize, split: usize, intra: IntraGroupRule) -> Self {
        assert!(split <= n, "split {split} exceeds n {n}");
        Self::new((0..n).map(|i| usize::from(i >= split)).collect(), intra)
    }

    /// Heals the partition from the given round on (used by the Theorem 4
    /// construction, which stops message loss after round `k`).
    #[must_use]
    pub fn healing_from(mut self, round: Round) -> Self {
        self.heal_from = Some(round);
        self
    }

    /// The group of process `i`.
    pub fn group_of(&self, i: ProcessId) -> usize {
        self.group_of[i.index()]
    }
}

impl LossAdversary for PartitionLoss {
    fn deliver_into(
        &mut self,
        round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        assert_eq!(
            self.group_of.len(),
            n,
            "group map does not cover all processes"
        );
        out.clear_and_resize(senders, n);
        if self.heal_from.is_some_and(|h| round >= h) {
            out.deliver_all();
            return;
        }
        // Word-wise: build one delivering-sender bitmask per group, then
        // OR each receiver's group mask into its row in whole words —
        // O(groups · words + n · words) instead of a per-(sender,
        // receiver) branch. No RNG is involved, so the delivery bits are
        // trivially identical to the scalar loop this replaces.
        let words = n.div_ceil(64);
        let groups = self.group_of.iter().max().map_or(0, |&g| g + 1);
        self.group_masks.clear();
        self.group_masks.resize(groups * words, 0);
        self.group_sender_counts.clear();
        self.group_sender_counts.resize(groups, 0);
        for &s in senders {
            let g = self.group_of(s);
            self.group_sender_counts[g] += 1;
        }
        for &s in senders {
            let g = self.group_of(s);
            let deliver_in_group = match self.intra {
                IntraGroupRule::Full => true,
                IntraGroupRule::Solo => self.group_sender_counts[g] == 1,
            };
            if deliver_in_group {
                self.group_masks[g * words + s.index() / 64] |= 1u64 << (s.index() % 64);
            }
        }
        for r in 0..n {
            let g = self.group_of[r];
            out.deliver_row_mask(ProcessId(r), &self.group_masks[g * words..(g + 1) * words]);
        }
    }

    fn collision_free_from(&self) -> Option<Round> {
        // Only collision-free once healed: before that a solo broadcast is
        // lost at the other group.
        self.heal_from
    }
}

/// Loses each (sender, receiver) pair independently with probability
/// `p_loss`. Deterministic given the seed.
///
/// Scheduled scenario events (see [`crate::scenario`]) shift the regime:
/// [`ScenarioEvent::SetLossRate`] swaps the loss probability,
/// [`ScenarioEvent::Split`] partitions the system at an index boundary
/// (cross-boundary messages are lost outright), and [`ScenarioEvent::Heal`]
/// removes the partition.
///
/// The draws are a SplitMix64 stream, the shim's `StdRng::seed_from_u64`
/// stream draw for draw: one draw per (sender, receiver) pair, sender
/// order then ascending receiver order, every round, whatever the regime.
/// Shifting the regime mid-run therefore never re-aligns the stream. The
/// stream is counter-based (draw `k` is [`splitmix64`]`(seed + k·γ)`), so
/// a round's draws need not be taken one after another.
///
/// # Kernels
///
/// Every kernel decides every pair with the same draw, so the delivery
/// bits never depend on which one ran:
///
/// * **per-pair** — one draw and one branchless bit write per pair, in
///   stream order. Rounds of at most 256 pairs (a full n = 16 round) and
///   hosts without AVX-512 run it.
/// * **avx512** — a round of more than 256 pairs on a host with AVX-512 F
///   and DQ (checked at run time, see [`RandomLoss::runs_avx512`])
///   computes each sender's draws for 64 receivers at a time, eight to a
///   vector, packs them into one receiver bitmask and hands the matrix
///   whole words ([`DeliveryMatrix::deliver_from_word`]). The
///   `engine_dispatch` bench's `loss_draws` lane (n = 64, 26 senders,
///   p = 0.6) read 1.8–3.5 ns per pair before it (median 2.1) and
///   0.8–1.2 with it (median 1.0), over 8 alternating runs on a 2-core
///   AVX-512 Xeon. Compiled for baseline x86-64 the same loop is slower
///   than the per-pair one, hence the run-time check.
/// * **whole-word** — unpartitioned rounds at `p_loss ∈ {0, 1}` deliver
///   every pair or none in whole words and advance the counter past the
///   round's draws.
#[derive(Debug, Clone)]
pub struct RandomLoss {
    p_loss: f64,
    boundary: Option<usize>,
    /// The SplitMix64 counter: the next draw is `splitmix64(state)`.
    state: u64,
}

impl RandomLoss {
    /// Creates a random-loss adversary at `p_loss`, unpartitioned.
    ///
    /// # Panics
    ///
    /// Panics if `p_loss` is not within `[0, 1]`.
    pub fn new(p_loss: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_loss), "p_loss must be in [0,1]");
        RandomLoss {
            p_loss,
            boundary: None,
            state: seed,
        }
    }

    /// Whether [`LossAdversary::deliver_into`] decides a round of `draws`
    /// pairs (senders × n) with the AVX-512 kernel on this host (outside
    /// the whole-word regimes).
    pub fn runs_avx512(draws: usize) -> bool {
        draws >= WIDE_ROUND_DRAWS && has_avx512()
    }
}

impl LossAdversary for RandomLoss {
    fn deliver_into(
        &mut self,
        _round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        out.clear_and_resize(senders, n);
        // One draw per (sender, receiver) pair in this exact order: the
        // stream is pinned by the determinism tests. A pair is delivered
        // iff its draw clears the loss threshold and, under a partition,
        // both ends are on the same side. On the per-pair paths
        // `deliver_from_where` probes receivers in ascending index order,
        // one predicate call (= one draw) per process; the kernel
        // computes the same draws from their counter values.
        let threshold = LossThreshold::new(self.p_loss);
        let draws = senders.len() * n;
        let state = &mut self.state;
        match self.boundary {
            // Unpartitioned, the degenerate regimes (threshold 0 delivers
            // every pair, threshold 2^53 none) deliver in whole-word masks
            // and just advance the counter, so later rounds see the exact
            // same draws as the per-pair loop.
            None if self.p_loss == 0.0 || self.p_loss == 1.0 => {
                if self.p_loss == 0.0 {
                    out.deliver_all();
                }
                *state = state.wrapping_add((draws as u64).wrapping_mul(GAMMA));
            }
            boundary if Self::runs_avx512(draws) => {
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: `runs_avx512` holds only where
                    // `is_x86_feature_detected!` found AVX-512 F and DQ on
                    // this CPU, the features `deliver_words_avx512` is
                    // compiled for.
                    *state = unsafe {
                        deliver_words_avx512(*state, threshold, boundary, senders, n, out)
                    };
                }
            }
            None => {
                for &s in senders {
                    out.deliver_from_where(s, |_| threshold.delivers(next_draw(state)));
                }
            }
            Some(b) => {
                for &s in senders {
                    let side = s.index() < b;
                    out.deliver_from_where(s, |r| {
                        threshold.delivers(next_draw(state)) && (r.index() < b) == side
                    });
                }
            }
        }
    }

    fn apply_event(&mut self, _round: Round, event: ScenarioEvent) {
        match event {
            ScenarioEvent::SetLossRate { p } => {
                assert!((0.0..=1.0).contains(&p), "p_loss must be in [0,1]");
                self.p_loss = p;
            }
            ScenarioEvent::Split { boundary } => self.boundary = Some(boundary),
            ScenarioEvent::Heal => self.boundary = None,
            _ => {}
        }
    }
}

/// The fewest pairs (senders × n) a round needs for the data-parallel
/// kernel: one more than a full n = 16 round. The kernel computes 64 draws
/// per sender whatever n is, so what it saves grows with n. Measured per
/// pair against the per-pair loop (p = 0.6): ×1.07–1.26 at n = 16 for
/// every sender count up to 16 and ×1.12 at n = 18; ×0.76–0.92 at
/// n = 20–28, ×0.62–0.67 at n = 32 and ×0.37–0.41 at n = 64 for every
/// sender count tried.
const WIDE_ROUND_DRAWS: usize = 16 * 16 + 1;

/// The draw at the counter `state`, advancing the counter past it.
fn next_draw(state: &mut u64) -> u64 {
    let x = splitmix64(*state);
    *state = state.wrapping_add(GAMMA);
    x
}

/// Whether this CPU has the AVX-512 subsets the data-parallel kernel is
/// compiled for: F, and DQ for the 64-bit multiply (`vpmullq`).
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

#[cfg(not(target_arch = "x86_64"))]
fn has_avx512() -> bool {
    false
}

/// The data-parallel kernel: decides the round's pairs exactly as the
/// per-pair loop does, from the counter `state` on, and returns the
/// counter after the round's last draw.
///
/// Each sender's receivers are taken 64 at a time: the word's 64 draws
/// are computed independently of one another (the stream is
/// counter-based), tested against the threshold and packed into one
/// receiver bitmask, the partition's same-side mask is ANDed in, and
/// [`DeliveryMatrix::deliver_from_word`] writes the word. A short last
/// word computes all 64 draws, and the matrix ignores the bits at or
/// beyond `n`; the counter advances by `n` draws per sender.
///
/// Always inlined, so that [`deliver_words_avx512`] compiles its own copy
/// for AVX-512; the tests call the portable copy directly.
#[inline(always)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn deliver_words(
    mut state: u64,
    threshold: LossThreshold,
    boundary: Option<usize>,
    senders: &[ProcessId],
    n: usize,
    out: &mut DeliveryMatrix,
) -> u64 {
    for &s in senders {
        for w in 0..n.div_ceil(64) {
            let first = 64 * w;
            let mut word = (0..64u64).fold(0, |word, i| {
                let x = splitmix64(state.wrapping_add((first as u64 + i).wrapping_mul(GAMMA)));
                word | u64::from(threshold.delivers(x)) << i
            });
            if let Some(b) = boundary {
                let below = low_bits(b.saturating_sub(first));
                word &= if s.index() < b { below } else { !below };
            }
            out.deliver_from_word(s, w, word);
        }
        state = state.wrapping_add((n as u64).wrapping_mul(GAMMA));
    }
    state
}

/// [`deliver_words`] compiled for AVX-512 F+DQ, where the draws of a word
/// run eight to a vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn deliver_words_avx512(
    state: u64,
    threshold: LossThreshold,
    boundary: Option<usize>,
    senders: &[ProcessId],
    n: usize,
    out: &mut DeliveryMatrix,
) -> u64 {
    deliver_words(state, threshold, boundary, senders, n, out)
}

/// The per-pair loss decision at probability `p`, computed once per round:
/// a pair whose draw `x` has `x >> 11 >= ceil(p · 2^53)` is delivered,
/// else lost.
///
/// This is the shim's `random_bool(p)` in integer form. `random_bool`
/// tests `(x >> 11) as f64 * 2^-53 < p`. Both sides scale exactly by
/// `2^53` (`x >> 11` is an integer below `2^53`), so the test holds iff
/// the integer `x >> 11` is below the real `p · 2^53`, i.e. below its
/// ceiling. Deciding pairs this way consumes the same draws in the same
/// order and yields the same delivery bits.
#[derive(Debug, Clone, Copy)]
struct LossThreshold(u64);

impl LossThreshold {
    fn new(p: f64) -> Self {
        LossThreshold((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// Whether the pair that drew `x` is delivered.
    #[inline(always)]
    fn delivers(self, x: u64) -> bool {
        x >> 11 >= self.0
    }
}

/// Adds *eventual collision freedom* (Property 1) to any inner adversary:
/// from round `r_cf` on, whenever exactly one process broadcasts, its message
/// is delivered to every process. Multi-broadcaster rounds remain entirely up
/// to the inner adversary, exactly as the property allows.
///
/// # Examples
///
/// ```
/// use wan_sim::loss::{Ecf, RandomLoss};
/// use wan_sim::{LossAdversary, ProcessId, Round};
///
/// let mut adv = Ecf::new(RandomLoss::new(0.9, 7), Round(10));
/// let senders = [ProcessId(2)];
/// // Before r_cf the inner adversary may drop the solo broadcast...
/// let _ = adv.deliver(Round(1), &senders, 4);
/// // ...from r_cf on it may not.
/// let m = adv.deliver(Round(10), &senders, 4);
/// assert!((0..4).all(|r| m.delivered(ProcessId(2), ProcessId(r))));
/// assert_eq!(adv.collision_free_from(), Some(Round(10)));
/// ```
#[derive(Debug, Clone)]
pub struct Ecf<A> {
    inner: A,
    r_cf: Round,
}

impl<A> Ecf<A> {
    /// Wraps `inner`, guaranteeing collision freedom from `r_cf` on.
    pub fn new(inner: A, r_cf: Round) -> Self {
        assert!(r_cf >= Round::FIRST, "r_cf must be a real round");
        Ecf { inner, r_cf }
    }

    /// The wrapped adversary.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: LossAdversary> LossAdversary for Ecf<A> {
    fn deliver_into(
        &mut self,
        round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        self.inner.deliver_into(round, senders, n, out);
        if round >= self.r_cf && senders.len() == 1 {
            out.deliver_all_from(senders[0]);
        }
    }

    fn collision_free_from(&self) -> Option<Round> {
        // The wrapper's guarantee can only improve on the inner one.
        match self.inner.collision_free_from() {
            Some(inner) if inner < self.r_cf => Some(inner),
            _ => Some(self.r_cf),
        }
    }

    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        self.inner.apply_event(round, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pids(ids: &[usize]) -> Vec<ProcessId> {
        ids.iter().copied().map(ProcessId).collect()
    }

    #[test]
    fn no_loss_delivers_all() {
        let m = NoLoss.deliver(Round(1), &pids(&[0, 3]), 4);
        assert!(m.delivered(ProcessId(0), ProcessId(2)));
        assert!(m.delivered(ProcessId(3), ProcessId(1)));
    }

    #[test]
    fn total_collision_rule() {
        let mut adv = TotalCollisionLoss;
        let solo = adv.deliver(Round(1), &pids(&[1]), 3);
        assert!((0..3).all(|r| solo.delivered(ProcessId(1), ProcessId(r))));
        let clash = adv.deliver(Round(2), &pids(&[0, 1]), 3);
        assert!((0..3).all(|r| !clash.delivered(ProcessId(0), ProcessId(r))));
        assert!((0..3).all(|r| !clash.delivered(ProcessId(1), ProcessId(r))));
    }

    #[test]
    fn partition_blocks_cross_group_full_intra() {
        let mut adv = PartitionLoss::two_groups(4, 2, IntraGroupRule::Full);
        let m = adv.deliver(Round(1), &pids(&[0, 2]), 4);
        // 0 reaches its group {0,1} only.
        assert!(m.delivered(ProcessId(0), ProcessId(1)));
        assert!(!m.delivered(ProcessId(0), ProcessId(2)));
        // 2 reaches its group {2,3} only.
        assert!(m.delivered(ProcessId(2), ProcessId(3)));
        assert!(!m.delivered(ProcessId(2), ProcessId(0)));
    }

    #[test]
    fn partition_solo_rule_mimics_alpha() {
        let mut adv = PartitionLoss::two_groups(4, 2, IntraGroupRule::Solo);
        // Two broadcasters in group 0: nothing delivered (even intra-group).
        let m = adv.deliver(Round(1), &pids(&[0, 1, 2]), 4);
        assert!(!m.delivered(ProcessId(0), ProcessId(1)));
        assert!(!m.delivered(ProcessId(1), ProcessId(0)));
        // Solo in group 1: delivered to its whole group only.
        assert!(m.delivered(ProcessId(2), ProcessId(3)));
        assert!(!m.delivered(ProcessId(2), ProcessId(1)));
    }

    #[test]
    fn partition_heals() {
        let mut adv = PartitionLoss::two_groups(2, 1, IntraGroupRule::Full).healing_from(Round(5));
        let before = adv.deliver(Round(4), &pids(&[0]), 2);
        assert!(!before.delivered(ProcessId(0), ProcessId(1)));
        let after = adv.deliver(Round(5), &pids(&[0]), 2);
        assert!(after.delivered(ProcessId(0), ProcessId(1)));
        assert_eq!(adv.collision_free_from(), Some(Round(5)));
    }

    #[test]
    fn random_loss_extremes() {
        let mut lossless = RandomLoss::new(0.0, 1);
        let m = lossless.deliver(Round(1), &pids(&[0]), 3);
        assert!((0..3).all(|r| m.delivered(ProcessId(0), ProcessId(r))));
        let mut lossy = RandomLoss::new(1.0, 1);
        let m = lossy.deliver(Round(1), &pids(&[0]), 3);
        assert!((0..3).all(|r| !m.delivered(ProcessId(0), ProcessId(r))));
    }

    #[test]
    fn random_loss_general_path_preserves_rng_stream() {
        // The masked delivery path must consume exactly one draw per
        // (sender, receiver) pair in sender-then-ascending-receiver
        // order — across rounds, so stream position carries over exactly
        // like the seed-era nested loop.
        let mut adv = RandomLoss::new(0.4, 77);
        let mut reference = StdRng::seed_from_u64(77);
        let n = 70; // multi-word rows
        let senders = pids(&[1, 3, 64]);
        for round in 1..10u64 {
            let m = adv.deliver(Round(round), &senders, n);
            for &s in &senders {
                for r in 0..n {
                    let expect = !reference.random_bool(0.4);
                    assert_eq!(
                        m.delivered(s, ProcessId(r)),
                        expect,
                        "round {round}, sender {s}, receiver {r}"
                    );
                }
            }
        }
    }

    /// A "generator" that always draws `x`: lets the shim's own
    /// `random_bool` be evaluated on a chosen draw.
    struct Fixed(u64);

    impl Rng for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn loss_threshold_is_random_bool_in_integer_form() {
        let unit = |k: u64| k as f64 / (1u64 << 53) as f64;
        let mut ps = vec![
            0.0,
            f64::from_bits(1), // 2^-1074, the least positive double
            unit(1),           // 2^-53
            0.3,
            0.5,
            0.6,
            1.0 - unit(1),
            1.0,
        ];
        // Seeded random p at full double precision (a random 64-bit
        // integer scaled by 2^-64), so most p · 2^53 are not integers.
        let mut pick = StdRng::seed_from_u64(0x1055);
        ps.extend((0..1000).map(|_| pick.next_u64() as f64 / 2f64.powi(64)));
        for (i, &p) in ps.iter().enumerate() {
            let threshold = LossThreshold::new(p);
            // The same stream, drawn both ways.
            let mut ints = StdRng::seed_from_u64(i as u64);
            let mut floats = ints.clone();
            for draw in 0..10_000 {
                assert_eq!(
                    threshold.delivers(ints.next_u64()),
                    !floats.random_bool(p),
                    "p = {p:e}, draw {draw}"
                );
            }
            // The draws on either side of the threshold, which a random
            // stream almost never hits.
            let LossThreshold(t) = threshold;
            for k in [t.saturating_sub(1), t, t + 1] {
                let x = k.min((1 << 53) - 1) << 11;
                assert_eq!(
                    threshold.delivers(x),
                    !Fixed(x).random_bool(p),
                    "p = {p:e}, x >> 11 = {}",
                    x >> 11
                );
            }
        }
    }

    #[test]
    fn random_loss_events_match_a_random_bool_reference() {
        // Mid-run rate swaps, splits and heals, the degenerate rates
        // included while split and unsplit, against the per-pair
        // `random_bool` loop on the same stream with a same-side mask. The
        // whole-word p ∈ {0, 1} path must neither bypass a partition nor
        // skip a draw.
        let events = [
            (3, ScenarioEvent::SetLossRate { p: 0.25 }),
            (4, ScenarioEvent::Split { boundary: 64 }),
            (5, ScenarioEvent::SetLossRate { p: 0.0 }),
            (6, ScenarioEvent::Heal),
            (7, ScenarioEvent::SetLossRate { p: 0.8 }),
            (8, ScenarioEvent::SetLossRate { p: 1.0 }),
            (9, ScenarioEvent::Split { boundary: 5 }),
            (10, ScenarioEvent::SetLossRate { p: 0.5 }),
            (11, ScenarioEvent::SetLossRate { p: 0.0 }),
            (11, ScenarioEvent::Split { boundary: 63 }),
            (12, ScenarioEvent::SetLossRate { p: 1.0 }),
            (13, ScenarioEvent::Heal),
            (14, ScenarioEvent::SetLossRate { p: 0.0 }),
            (15, ScenarioEvent::SetLossRate { p: 0.4 }),
        ];
        let n = 70; // multi-word rows
        let senders = pids(&[0, 5, 63, 64, 69]);
        let mut adv = RandomLoss::new(0.6, 31);
        let mut reference = StdRng::seed_from_u64(31);
        let (mut p, mut boundary) = (0.6, None);
        for round in 1..=16u64 {
            for &(_, event) in events.iter().filter(|&&(at, _)| at == round) {
                adv.apply_event(Round(round), event);
                match event {
                    ScenarioEvent::SetLossRate { p: q } => p = q,
                    ScenarioEvent::Split { boundary: b } => boundary = Some(b),
                    ScenarioEvent::Heal => boundary = None,
                    _ => {}
                }
            }
            let m = adv.deliver(Round(round), &senders, n);
            for &s in &senders {
                for r in 0..n {
                    let drawn = !reference.random_bool(p);
                    let same_side = boundary.is_none_or(|b| (s.index() < b) == (r < b));
                    assert_eq!(
                        m.delivered(s, ProcessId(r)),
                        drawn && same_side,
                        "round {round}, p = {p}, boundary {boundary:?}, sender {s}, receiver {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_loss_degenerate_p_advances_stream_like_scalar_loop() {
        // The whole-word p ∈ {0, 1} regimes skip the per-pair draws but
        // must leave the counter exactly where the per-pair loop would:
        // the next round's pairs must take the draws that follow the
        // skipped ones. 140 pairs make a stream one draw off show.
        for p in [0.0, 1.0] {
            let mut adv = RandomLoss::new(p, 9);
            let _ = adv.deliver(Round(1), &pids(&[0, 2]), 5);
            let _ = adv.deliver(Round(2), &pids(&[1]), 5);
            adv.apply_event(Round(3), ScenarioEvent::SetLossRate { p: 0.5 });
            let senders = pids(&[0, 69]);
            let m = adv.deliver(Round(3), &senders, 70);
            let mut reference = StdRng::seed_from_u64(9);
            for _ in 0..(2 + 1) * 5 {
                reference.next_u64();
            }
            for &s in &senders {
                for r in 0..70 {
                    assert_eq!(
                        m.delivered(s, ProcessId(r)),
                        !reference.random_bool(0.5),
                        "p = {p}: stream not advanced like the per-pair loop \
                         (sender {s}, receiver {r})"
                    );
                }
            }
        }
    }

    /// One instantiation of the data-parallel kernel.
    type Kernel =
        fn(u64, LossThreshold, Option<usize>, &[ProcessId], usize, &mut DeliveryMatrix) -> u64;

    /// The kernels under test: the portable instantiation always, the
    /// AVX-512 one where this host has the features it is compiled for.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("generic", deliver_words)];
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            kernels.push(("avx512", |state, threshold, boundary, senders, n, out| {
                // SAFETY: listed only where `has_avx512` found AVX-512 F
                // and DQ on this CPU.
                unsafe { deliver_words_avx512(state, threshold, boundary, senders, n, out) }
            }));
        }
        kernels
    }

    #[test]
    fn wide_rounds_select_the_avx512_kernel_where_the_host_has_it() {
        assert!(!RandomLoss::runs_avx512(16 * 16));
        assert_eq!(RandomLoss::runs_avx512(16 * 16 + 1), has_avx512());
    }

    proptest! {
        /// Each instantiation of the data-parallel kernel decides every
        /// pair exactly as `random_bool` on the same stream, masked to
        /// the partition's sides, over consecutive rounds on one counter.
        /// Every case runs each n below through six or more rounds that
        /// rotate through every boundary, each round drawing its sender
        /// set (none, all or random) and its p (0, 1 or random).
        #[test]
        fn data_parallel_kernels_match_random_bool_pair_by_pair(
            seed in any::<u64>(),
            rounds in proptest::collection::vec(
                (0usize..3, any::<u64>(), 0usize..3, 0.0f64..1.0),
                6..8,
            ),
            rotation in 0usize..6,
        ) {
            for (name, kernel) in kernels() {
                for n in [1usize, 4, 63, 64, 65, 70, 130] {
                    let mut state = seed;
                    let mut reference = StdRng::seed_from_u64(seed);
                    let mut out = DeliveryMatrix::empty();
                    for (i, &(who, picks, p_kind, p_any)) in rounds.iter().enumerate() {
                        let senders: Vec<ProcessId> = (0..n)
                            .filter(|&s| match who {
                                0 => false,
                                1 => true,
                                _ => splitmix64(picks ^ s as u64) & 1 == 1,
                            })
                            .map(ProcessId)
                            .collect();
                        let p = [0.0, 1.0, p_any][p_kind];
                        let boundary =
                            [None, Some(0), Some(5), Some(63), Some(64), Some(n)][(i + rotation) % 6];
                        out.clear_and_resize(&senders, n);
                        state = kernel(state, LossThreshold::new(p), boundary, &senders, n, &mut out);
                        for &s in &senders {
                            for r in 0..n {
                                let drawn = !reference.random_bool(p);
                                let same_side =
                                    boundary.is_none_or(|b| (s.index() < b) == (r < b));
                                prop_assert_eq!(
                                    out.delivered(s, ProcessId(r)),
                                    drawn && same_side,
                                    "{} kernel, n = {}, round {}, p = {}, boundary {:?}, \
                                     sender {}, receiver {}",
                                    name, n, i, p, boundary, s, r
                                );
                            }
                        }
                    }
                    prop_assert_eq!(
                        splitmix64(state),
                        reference.next_u64(),
                        "{} kernel, n = {}: counter not past exactly the rounds' draws",
                        name,
                        n
                    );
                }
            }
        }
    }

    #[test]
    fn partition_word_masks_match_scalar_reference() {
        // The per-group mask path against the seed-era per-(sender,
        // receiver) branch, across group shapes, intra rules, and
        // multi-word widths.
        for n in [1usize, 5, 64, 70] {
            for split in [0, n / 2, n] {
                for intra in [IntraGroupRule::Full, IntraGroupRule::Solo] {
                    let senders: Vec<ProcessId> = (0..n).step_by(3).map(ProcessId).collect();
                    let mut adv = PartitionLoss::two_groups(n, split, intra);
                    let fast = adv.deliver(Round(1), &senders, n);
                    let mut reference = DeliveryMatrix::none(&senders, n);
                    for &s in &senders {
                        let g = adv.group_of(s);
                        let deliver_in_group = match intra {
                            IntraGroupRule::Full => true,
                            IntraGroupRule::Solo => {
                                senders.iter().filter(|&&x| adv.group_of(x) == g).count() == 1
                            }
                        };
                        if deliver_in_group {
                            for r in 0..n {
                                if adv.group_of(ProcessId(r)) == g {
                                    reference.set(s, ProcessId(r), true);
                                }
                            }
                        }
                    }
                    assert_eq!(fast, reference, "n = {n}, split = {split}, {intra:?}");
                }
            }
        }
    }

    #[test]
    fn partition_debug_hides_scratch() {
        // The rendered adversary must stay the seed-era derive output
        // (scratch buffers are representation, not identity).
        let adv = PartitionLoss::two_groups(3, 1, IntraGroupRule::Full).healing_from(Round(4));
        assert_eq!(
            format!("{adv:?}"),
            "PartitionLoss { group_of: [0, 1, 1], intra: Full, heal_from: Some(Round(4)) }"
        );
    }

    #[test]
    fn random_loss_is_deterministic_per_seed() {
        let mut a = RandomLoss::new(0.5, 42);
        let mut b = RandomLoss::new(0.5, 42);
        for r in 1..20u64 {
            assert_eq!(
                a.deliver(Round(r), &pids(&[0, 1]), 4),
                b.deliver(Round(r), &pids(&[0, 1]), 4)
            );
        }
    }

    proptest! {
        /// From r_cf on, a solo broadcast is always delivered to everyone, no
        /// matter how lossy the inner adversary is (Property 1).
        #[test]
        fn ecf_guarantee(seed in 0u64..500, r_cf in 1u64..30, round in 1u64..60,
                         sender in 0usize..6, n in 1usize..7) {
            let sender = sender % n;
            let mut adv = Ecf::new(RandomLoss::new(1.0, seed), Round(r_cf));
            let senders = [ProcessId(sender)];
            let m = adv.deliver(Round(round), &senders, n);
            if round >= r_cf {
                prop_assert!((0..n).all(|r| m.delivered(ProcessId(sender), ProcessId(r))));
            }
        }

        /// ECF does not touch multi-broadcaster rounds.
        #[test]
        fn ecf_leaves_contended_rounds_alone(round in 1u64..40, n in 2usize..6) {
            let mut adv = Ecf::new(RandomLoss::new(1.0, 0), Round(1));
            let senders = [ProcessId(0), ProcessId(1)];
            let m = adv.deliver(Round(round), &senders, n);
            // Inner adversary loses everything; ECF must not add deliveries.
            for r in 0..n {
                prop_assert!(!m.delivered(ProcessId(0), ProcessId(r)));
                prop_assert!(!m.delivered(ProcessId(1), ProcessId(r)));
            }
        }
    }

    #[test]
    fn random_loss_split_blocks_cross_boundary_and_heals() {
        let mut adv = RandomLoss::new(0.0, 7);
        let senders = [ProcessId(0), ProcessId(2)];
        adv.apply_event(Round(1), ScenarioEvent::Split { boundary: 2 });
        let m = adv.deliver(Round(1), &senders, 4);
        assert!(
            m.delivered(ProcessId(0), ProcessId(1)),
            "intra-group survives"
        );
        assert!(
            m.delivered(ProcessId(2), ProcessId(3)),
            "intra-group survives"
        );
        assert!(
            !m.delivered(ProcessId(0), ProcessId(2)),
            "cross-boundary lost"
        );
        assert!(
            !m.delivered(ProcessId(2), ProcessId(1)),
            "cross-boundary lost"
        );
        adv.apply_event(Round(2), ScenarioEvent::Heal);
        let healed = adv.deliver(Round(2), &senders, 4);
        assert!(
            healed.delivered(ProcessId(0), ProcessId(3)),
            "heal restores delivery"
        );
    }

    #[test]
    fn random_loss_rate_swap_takes_effect() {
        let mut adv = RandomLoss::new(0.0, 3);
        let senders = [ProcessId(0)];
        assert!(adv
            .deliver(Round(1), &senders, 3)
            .delivered(ProcessId(0), ProcessId(2)));
        adv.apply_event(Round(2), ScenarioEvent::SetLossRate { p: 1.0 });
        let m = adv.deliver(Round(2), &senders, 3);
        assert!(
            !m.delivered(ProcessId(0), ProcessId(1)),
            "p = 1 loses everything"
        );
        assert!(!m.delivered(ProcessId(0), ProcessId(2)));
    }

    #[test]
    fn ecf_forwards_events_to_its_inner_adversary() {
        let mut adv = Ecf::new(RandomLoss::new(0.0, 3), Round(50));
        adv.apply_event(Round(1), ScenarioEvent::SetLossRate { p: 1.0 });
        // Two senders: ECF's solo guarantee does not apply, so the swapped
        // rate must show through.
        let senders = [ProcessId(0), ProcessId(1)];
        let m = adv.deliver(Round(1), &senders, 3);
        assert!(!m.delivered(ProcessId(0), ProcessId(2)));
        assert!(!m.delivered(ProcessId(1), ProcessId(2)));
    }
}
