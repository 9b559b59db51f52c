//! The slotted SINR channel.

use crate::config::PhyConfig;
use crate::hash;
use std::cell::RefCell;
use wan_sim::{ProcessId, Round};

/// Everything the radio resolved for one round: per-(sender, receiver)
/// deliveries and per-receiver carrier-sense collision flags.
///
/// The buffers are reusable: [`RadioChannel::resolve_into`] re-keys an
/// existing `PhyRound` without releasing its storage, so a steady-state
/// resolution allocates nothing. The delivery matrix is stored flat
/// (row-major by sender index) behind the [`PhyRound::delivered`]
/// accessor.
#[derive(Debug, Clone, Default)]
pub struct PhyRound {
    /// The broadcasters, in ascending order.
    senders: Vec<ProcessId>,
    /// Number of process indices (the row length of `delivered`).
    n: usize,
    /// `delivered[si * n + r]`: did receiver `r` decode sender
    /// `senders[si]`'s packet (self-reception excluded here; the engine
    /// adds it).
    delivered: Vec<bool>,
    /// Per-receiver collision flag from the carrier-sensing detector rule:
    /// some foreign slot was energy-busy but yielded no decode.
    collision: Vec<bool>,
}

impl PhyRound {
    /// An empty round, ready to be filled by
    /// [`RadioChannel::resolve_into`].
    pub fn new() -> Self {
        PhyRound::default()
    }

    /// The broadcasters, in ascending order.
    pub fn senders(&self) -> &[ProcessId] {
        &self.senders
    }

    /// Whether receiver `rx` decoded sender `senders[si]`'s packet.
    pub fn delivered(&self, si: usize, rx: usize) -> bool {
        self.delivered[si * self.n + rx]
    }

    /// Per-receiver carrier-sense collision flags (length `n`).
    pub fn collisions(&self) -> &[bool] {
        &self.collision
    }

    /// Whether receiver `rx` sensed a busy-but-undecoded slot.
    pub fn collision(&self, rx: ProcessId) -> bool {
        self.collision[rx.index()]
    }

    /// How many of the round's broadcasts receiver `r` decoded (not
    /// counting its own).
    pub fn decoded_by(&self, r: ProcessId) -> usize {
        (0..self.senders.len())
            .filter(|&si| self.delivered(si, r.index()))
            .count()
    }

    /// Re-keys the buffers for a new round, keeping their storage.
    fn clear_and_resize(&mut self, senders: &[ProcessId], n: usize) {
        self.senders.clear();
        self.senders.extend_from_slice(senders);
        self.n = n;
        self.delivered.clear();
        self.delivered.resize(senders.len() * n, false);
        self.collision.clear();
        self.collision.resize(n, false);
    }
}

/// Reusable intermediate buffers of [`RadioChannel::resolve_into`], kept
/// across calls so a steady-state resolution performs no heap allocation.
#[derive(Debug, Clone, Default)]
struct ResolveScratch {
    /// Slot chosen by each sender (parallel to the sender list).
    sender_slot: Vec<usize>,
    /// Each process's own transmit slot, or `NO_SLOT` for non-senders.
    own_slot: Vec<usize>,
    /// Per-sender fading-hash prefix over `(seed, salt, round, tx)`;
    /// the receiver index is folded in last (see [`hash::extend`]).
    fading_prefix: Vec<u64>,
    /// Counting-sort offsets: senders of slot `k` occupy
    /// `slot_senders[slot_start[k]..slot_start[k + 1]]`.
    slot_start: Vec<usize>,
    /// Write cursors used while building the counting sort.
    slot_cursor: Vec<usize>,
    /// Sender indices grouped by slot, ascending within each group (the
    /// counting sort is stable), so per-receiver power sums visit the
    /// same terms in the same order as the scalar reference.
    slot_senders: Vec<usize>,
    /// Received powers of the current slot: `power[k * n + rx]` for the
    /// `k`-th sender of the group.
    power: Vec<f64>,
    /// Per-receiver running power totals for the current slot.
    acc: Vec<f64>,
    /// Per-receiver "decoded someone this slot" flags.
    decoded: Vec<bool>,
}

/// Sentinel for "not transmitting" in `ResolveScratch::own_slot` (a real
/// slot index is always `< slots_per_round`).
const NO_SLOT: usize = usize::MAX;

/// The radio: static geometry and link gains, plus pure-function fading and
/// interference realizations per round.
#[derive(Debug, Clone)]
pub struct RadioChannel {
    cfg: PhyConfig,
    /// Node positions (metres).
    positions: Vec<(f64, f64)>,
    /// Static linear link gains (path loss × shadowing), row-major:
    /// entry `i * n + j` is the gain from `i` to `j`, symmetric. See
    /// [`RadioChannel::gain`].
    gain: Vec<f64>,
    /// Reusable per-resolve buffers (interior mutability keeps
    /// [`RadioChannel::resolve_into`] callable through `&self`, which
    /// every read-only consumer already relies on).
    scratch: RefCell<ResolveScratch>,
}

impl RadioChannel {
    /// Builds the radio: places nodes uniformly in the disc and fixes the
    /// static gains.
    ///
    /// Each link is computed once, for `i < j`, and stored at both
    /// `(i, j)` and `(j, i)`. That is exact: the shadowing draw is keyed
    /// by the unordered pair, and a swapped pair's coordinate differences
    /// only change sign, so its distance is bit-equal. The two buffers
    /// (positions, gains) are the only allocations.
    pub fn new(cfg: PhyConfig) -> Self {
        assert!(cfg.n >= 1, "need at least one node");
        assert!(cfg.slots_per_round >= 1, "need at least one slot");
        let n = cfg.n;
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let r = cfg.radius_m * hash::uniform(&[cfg.seed, 0xB0, i as u64]).sqrt();
                let theta = 2.0 * std::f64::consts::PI * hash::uniform(&[cfg.seed, 0xA1, i as u64]);
                (r * theta.cos(), r * theta.sin())
            })
            .collect();
        let mut gain = vec![0.0; n * n];
        for (i, &(xi, yi)) in positions.iter().enumerate() {
            for (j, &(xj, yj)) in positions.iter().enumerate().skip(i + 1) {
                let d = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt().max(1.0);
                let path = d.powf(-cfg.pathloss_exp);
                let shadow_db = cfg.shadowing_sigma_db
                    * hash::standard_normal(&[cfg.seed, 0x5D, i as u64, j as u64]);
                let g = path * PhyConfig::db_to_linear(shadow_db);
                gain[i * n + j] = g;
                gain[j * n + i] = g;
            }
        }
        RadioChannel {
            cfg,
            positions,
            gain,
            scratch: RefCell::new(ResolveScratch::default()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PhyConfig {
        &self.cfg
    }

    /// Node positions (for visualization / tests).
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// The static linear link gain from `i` to `j` (zero on the diagonal):
    /// one row-major indexed load, no pointer chase per SINR term.
    #[inline]
    pub fn gain(&self, i: usize, j: usize) -> f64 {
        self.gain[i * self.cfg.n + j]
    }

    /// Slot chosen by `sender` in `round`.
    fn slot_of(&self, round: Round, sender: ProcessId) -> usize {
        (hash::hash_tuple(&[self.cfg.seed, 0x510D, round.0, sender.index() as u64])
            % self.cfg.slots_per_round as u64) as usize
    }

    /// Rayleigh power fading for (round, tx, rx). The hot kernel inlines
    /// this via a hoisted [`hash::hash_tuple`] prefix plus
    /// [`hash::exponential_extend`]; the scalar reference keeps calling
    /// it whole so the oracle stays byte-for-byte the seed-era code.
    #[cfg(test)]
    fn fading(&self, round: Round, tx: ProcessId, rx: ProcessId) -> f64 {
        hash::exponential(&[
            self.cfg.seed,
            0xFAD3,
            round.0,
            tx.index() as u64,
            rx.index() as u64,
        ])
    }

    /// External interference burst power (linear mW) in (round, slot).
    fn interference_mw(&self, round: Round, slot: usize) -> f64 {
        if self.cfg.interference_prob <= 0.0 {
            return 0.0;
        }
        if self.cfg.interference_until.is_some_and(|u| round >= u) {
            return 0.0;
        }
        let u = hash::uniform(&[self.cfg.seed, 0x1F7, round.0, slot as u64]);
        if u < self.cfg.interference_prob {
            PhyConfig::dbm_to_mw(self.cfg.interference_power_dbm)
        } else {
            0.0
        }
    }

    /// Resolves one round — slot choices, fading, SINR decoding with
    /// capture, carrier sensing — into `out`, whose previous contents are
    /// discarded and whose storage is reused. After warm-up (buffers at
    /// steady-state capacity) a call performs no heap allocation.
    ///
    /// # Summation-order invariant
    ///
    /// Golden summaries, the trace fingerprint pins, and the
    /// serial-vs-parallel byte-identity tests all hash the delivered
    /// bits this function produces, and those bits come from `f64`
    /// comparisons against non-associative floating-point sums. The
    /// per-receiver slot power total MUST therefore accumulate the
    /// senders of a slot **in ascending sender-list order** — the order
    /// the original per-(rx, slot) scalar loop used — or rounding
    /// differences flip marginal SINR decisions and every golden
    /// changes. The slot-major kernel below preserves this by grouping
    /// senders with a *stable* counting sort and streaming each group in
    /// order; `resolve_scalar_reference` plus a proptest in the test
    /// module pin the equivalence bit-for-bit.
    pub fn resolve_into(&self, round: Round, senders: &[ProcessId], out: &mut PhyRound) {
        let n = self.cfg.n;
        let slots = self.cfg.slots_per_round;
        let p_tx = PhyConfig::dbm_to_mw(self.cfg.tx_power_dbm);
        let noise = PhyConfig::dbm_to_mw(self.cfg.noise_floor_dbm);
        let beta = PhyConfig::db_to_linear(self.cfg.sinr_threshold_db);
        let sense = PhyConfig::dbm_to_mw(self.cfg.sense_threshold_dbm);

        let mut scratch = self.scratch.borrow_mut();
        let ResolveScratch {
            sender_slot,
            own_slot,
            fading_prefix,
            slot_start,
            slot_cursor,
            slot_senders,
            power,
            acc,
            decoded,
        } = &mut *scratch;

        // Per-sender precomputation, hoisted out of the slot sweep: the
        // slot choice, the half-duplex mask, and the fading-hash prefix
        // (4 of the 5 splitmix rounds per (round, tx, rx) draw).
        sender_slot.clear();
        sender_slot.extend(senders.iter().map(|&s| self.slot_of(round, s)));
        own_slot.clear();
        own_slot.resize(n, NO_SLOT);
        fading_prefix.clear();
        for (si, &s) in senders.iter().enumerate() {
            own_slot[s.index()] = sender_slot[si];
            fading_prefix.push(hash::hash_tuple(&[
                self.cfg.seed,
                0xFAD3,
                round.0,
                s.index() as u64,
            ]));
        }

        // Stable counting sort of sender indices by slot: ascending
        // within each group, as the summation-order invariant requires.
        slot_start.clear();
        slot_start.resize(slots + 1, 0);
        for &sl in sender_slot.iter() {
            slot_start[sl + 1] += 1;
        }
        for k in 0..slots {
            slot_start[k + 1] += slot_start[k];
        }
        slot_cursor.clear();
        slot_cursor.extend_from_slice(&slot_start[..slots]);
        slot_senders.clear();
        slot_senders.resize(senders.len(), 0);
        for (si, &sl) in sender_slot.iter().enumerate() {
            slot_senders[slot_cursor[sl]] = si;
            slot_cursor[sl] += 1;
        }

        let ns = senders.len();
        if power.len() < ns * n {
            power.resize(ns * n, 0.0);
        }
        acc.clear();
        acc.resize(n, 0.0);
        decoded.clear();
        decoded.resize(n, false);

        out.clear_and_resize(senders, n);

        // Fixed-length reslices: one bounds check each here buys
        // check-free (and vectorizable, where `ln` permits) inner loops.
        let own_slot = &own_slot[..n];
        let acc = &mut acc[..n];
        let decoded = &mut decoded[..n];
        let delivered = &mut out.delivered[..ns * n];
        let collision = &mut out.collision[..n];

        // Bit-identity notes for the specializations below. All powers
        // are finite and non-negative (`p_tx > 0`, gains ≥ 0, fading
        // draws are finite and positive), so for every value `x` in
        // play: `x + 0.0 == x`, `x - 0.0 == x`, and `x - x == +0.0`
        // exactly. A zero gain (the diagonal) forces `p = +0.0`
        // regardless of the fading draw, so the draw may be skipped.
        // `interference_mw` returns literal `0.0` on quiet slots, which
        // lets the quiet-channel kernels drop the interference terms
        // from the seed-era expression without changing one bit.
        for slot in 0..slots {
            let group = &slot_senders[slot_start[slot]..slot_start[slot + 1]];
            let interference = self.interference_mw(round, slot);

            if group.is_empty() {
                // No transmitters: the slot total is pure interference,
                // sensed as a collision by everyone when above threshold
                // (nobody transmits here, so half-duplex never masks it).
                if interference >= sense {
                    collision.fill(true);
                }
                continue;
            }

            // Fused single-sender quiet-slot kernel: `total == p`, the
            // SINR denominator collapses to `noise + (p - p) == noise`
            // (exact — see above), so one pass decodes and senses.
            if interference == 0.0 {
                if let &[si] = group {
                    let tx = senders[si].index();
                    let prefix = fading_prefix[si];
                    let gain_row = &self.gain[tx * n..(tx + 1) * n];
                    let delivered_row = &mut delivered[si * n..(si + 1) * n];
                    for rx in 0..n {
                        let g = gain_row[rx];
                        let p = if g > 0.0 {
                            p_tx * g * hash::exponential_extend(prefix, rx as u64)
                        } else {
                            0.0
                        };
                        let ok = own_slot[rx] != slot;
                        let del = (p / noise >= beta) & ok;
                        delivered_row[rx] = del;
                        collision[rx] |= ok & !del & (p >= sense);
                    }
                    continue;
                }
            }

            // Pass 1: stream each sender's contiguous gain row into the
            // per-receiver accumulators, in group (= sender-list) order.
            // A sender's own entry is the zero diagonal gain, so its
            // accumulator contribution is an exact `+0.0` (and the
            // column is masked out below anyway).
            acc.fill(0.0);
            for (k, &si) in group.iter().enumerate() {
                let tx = senders[si].index();
                let prefix = fading_prefix[si];
                let gain_row = &self.gain[tx * n..(tx + 1) * n];
                let power_row = &mut power[k * n..(k + 1) * n];
                for rx in 0..n {
                    let g = gain_row[rx];
                    let p = if g > 0.0 {
                        p_tx * g * hash::exponential_extend(prefix, rx as u64)
                    } else {
                        0.0
                    };
                    power_row[rx] = p;
                    acc[rx] += p;
                }
            }

            // Pass 2: decode every receiver of the slot in one
            // branch-light sweep. Half-duplex is a hoisted mask: a node
            // neither decodes nor senses during its own transmit slot.
            decoded.fill(false);
            if interference == 0.0 {
                // Quiet channel: `total == acc[rx]` exactly, so the
                // denominator is `noise + (acc[rx] - p)`.
                for (k, &si) in group.iter().enumerate() {
                    let power_row = &power[k * n..(k + 1) * n];
                    let delivered_row = &mut delivered[si * n..(si + 1) * n];
                    for rx in 0..n {
                        let p = power_row[rx];
                        let sinr = p / (noise + (acc[rx] - p));
                        let del = (sinr >= beta) & (own_slot[rx] != slot);
                        delivered_row[rx] = del;
                        decoded[rx] |= del;
                    }
                }
                for rx in 0..n {
                    collision[rx] |= (own_slot[rx] != slot) & !decoded[rx] & (acc[rx] >= sense);
                }
            } else {
                // `noise + interference` is slot-constant; the rest of
                // the seed-era expression is kept verbatim (its
                // parenthesization is `(noise + interference) +
                // ((total - interference) - p)`).
                let ni = noise + interference;
                for (k, &si) in group.iter().enumerate() {
                    let power_row = &power[k * n..(k + 1) * n];
                    let delivered_row = &mut delivered[si * n..(si + 1) * n];
                    for rx in 0..n {
                        let p = power_row[rx];
                        let total = acc[rx] + interference;
                        let sinr = p / (ni + (total - interference - p));
                        let del = (sinr >= beta) & (own_slot[rx] != slot);
                        delivered_row[rx] = del;
                        decoded[rx] |= del;
                    }
                }
                for rx in 0..n {
                    collision[rx] |=
                        (own_slot[rx] != slot) & !decoded[rx] & (acc[rx] + interference >= sense);
                }
            }
        }
    }

    /// The seed-era per-(receiver, slot) scalar resolver, retained
    /// verbatim as the bit-identity oracle for the slot-major kernel
    /// (see the proptest in the test module).
    #[cfg(test)]
    fn resolve_scalar_reference(&self, round: Round, senders: &[ProcessId]) -> PhyRound {
        let n = self.cfg.n;
        let slots = self.cfg.slots_per_round;
        let p_tx = PhyConfig::dbm_to_mw(self.cfg.tx_power_dbm);
        let noise = PhyConfig::dbm_to_mw(self.cfg.noise_floor_dbm);
        let beta = PhyConfig::db_to_linear(self.cfg.sinr_threshold_db);
        let sense = PhyConfig::dbm_to_mw(self.cfg.sense_threshold_dbm);

        let sender_slot: Vec<usize> = senders.iter().map(|&s| self.slot_of(round, s)).collect();
        let mut own_slot = vec![NO_SLOT; n];
        for (si, &s) in senders.iter().enumerate() {
            own_slot[s.index()] = sender_slot[si];
        }

        let mut out = PhyRound::new();
        out.clear_and_resize(senders, n);
        let mut txs: Vec<(usize, f64)> = Vec::new();

        #[allow(clippy::needless_range_loop)] // `rx` indexes own_slot, gains, and out
        for rx in 0..n {
            for slot in 0..slots {
                if own_slot[rx] == slot {
                    continue;
                }
                txs.clear();
                for (si, &s) in senders.iter().enumerate() {
                    if sender_slot[si] == slot {
                        let p =
                            p_tx * self.gain(s.index(), rx) * self.fading(round, s, ProcessId(rx));
                        txs.push((si, p));
                    }
                }
                let interference = self.interference_mw(round, slot);
                let total: f64 = txs.iter().map(|(_, p)| p).sum::<f64>() + interference;

                let busy = total >= sense;
                let mut any_decoded = false;
                for &(si, p) in txs.iter() {
                    let sinr = p / (noise + interference + (total - interference - p));
                    if sinr >= beta {
                        out.delivered[si * n + rx] = true;
                        any_decoded = true;
                    }
                }
                if busy && !any_decoded {
                    out.collision[rx] = true;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wan_sim::StableHasher;

    fn channel(n: usize, seed: u64) -> RadioChannel {
        RadioChannel::new(PhyConfig::new(n, seed))
    }

    #[test]
    fn slot_major_matches_scalar_reference_exhaustively() {
        // Dense deterministic sweep: every sender-count from silence to
        // all-n, across rounds, on a channel with interference bursts in
        // play — the batched kernel must be bit-for-bit the scalar loop.
        let cfg = PhyConfig::new(6, 21).with_interference(0.5, Some(Round(30)));
        let ch = RadioChannel::new(cfg);
        let mut out = PhyRound::new();
        for r in 1..40u64 {
            for k in 0..=6usize {
                let senders: Vec<ProcessId> = (0..k).map(ProcessId).collect();
                ch.resolve_into(Round(r), &senders, &mut out);
                let reference = ch.resolve_scalar_reference(Round(r), &senders);
                assert_eq!(out.delivered, reference.delivered, "round {r}, {k} senders");
                assert_eq!(out.collision, reference.collision, "round {r}, {k} senders");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn slot_major_matches_scalar_reference(
            n in 1usize..20,
            slots in 1usize..12,
            seed in 0u64..1000,
            round in 1u64..500,
            sender_bits in 0u32..(1 << 20),
        ) {
            let mut cfg = PhyConfig::new(n, seed);
            cfg.slots_per_round = slots;
            if seed % 3 == 0 {
                cfg = cfg.with_interference(0.4, Some(Round(250)));
            }
            let ch = RadioChannel::new(cfg);
            let senders: Vec<ProcessId> = (0..n)
                .filter(|&i| sender_bits & (1 << i) != 0)
                .map(ProcessId)
                .collect();
            let mut batched = PhyRound::new();
            ch.resolve_into(Round(round), &senders, &mut batched);
            let reference = ch.resolve_scalar_reference(Round(round), &senders);
            prop_assert_eq!(&batched.delivered, &reference.delivered);
            prop_assert_eq!(&batched.collision, &reference.collision);
        }
    }

    #[test]
    fn solo_broadcast_reaches_almost_everyone() {
        // Across seeds and rounds, a solo broadcast in a quiet channel is
        // decoded at the overwhelming majority of receivers.
        let mut delivered = 0u64;
        let mut total = 0u64;
        let mut out = PhyRound::new();
        for seed in 0..10 {
            let ch = channel(8, seed);
            for r in 1..50u64 {
                ch.resolve_into(Round(r), &[ProcessId(0)], &mut out);
                for rx in 1..8 {
                    total += 1;
                    delivered += u64::from(out.delivered(0, rx));
                }
            }
        }
        let rate = delivered as f64 / total as f64;
        assert!(rate > 0.97, "solo delivery rate {rate}");
    }

    #[test]
    fn heavy_contention_loses_messages_but_is_sensed() {
        let ch = channel(8, 3);
        let senders: Vec<ProcessId> = (0..8).map(ProcessId).collect();
        let mut lost = 0u64;
        let mut total = 0u64;
        let mut sensed_when_total_loss = 0u64;
        let mut total_loss_rounds = 0u64;
        let mut out = PhyRound::new();
        for r in 1..200u64 {
            ch.resolve_into(Round(r), &senders, &mut out);
            for rx in 0..8 {
                for (si, s) in senders.iter().enumerate() {
                    if s.index() == rx {
                        continue;
                    }
                    total += 1;
                    lost += u64::from(!out.delivered(si, rx));
                }
                if out.decoded_by(ProcessId(rx)) == 0 {
                    total_loss_rounds += 1;
                    sensed_when_total_loss += u64::from(out.collision(ProcessId(rx)));
                }
            }
        }
        let loss = lost as f64 / total as f64;
        assert!(loss > 0.2, "contention should lose plenty: {loss}");
        if total_loss_rounds > 0 {
            let frac = sensed_when_total_loss as f64 / total_loss_rounds as f64;
            assert!(frac > 0.95, "zero-completeness proxy too weak: {frac}");
        }
    }

    #[test]
    fn capture_effect_exists() {
        // With two senders, some receiver sometimes decodes one of them —
        // the capture effect that breaks the total collision model.
        let ch = channel(8, 5);
        let mut captures = 0u64;
        let mut out = PhyRound::new();
        for r in 1..300u64 {
            ch.resolve_into(Round(r), &[ProcessId(0), ProcessId(1)], &mut out);
            for rx in 2..8 {
                if out.delivered(0, rx) ^ out.delivered(1, rx) {
                    captures += 1;
                }
            }
        }
        assert!(captures > 0, "no capture in 300 contended rounds");
    }

    #[test]
    fn interference_creates_false_positives_until_horizon() {
        let cfg = PhyConfig::new(4, 7).with_interference(0.9, Some(Round(100)));
        let ch = RadioChannel::new(cfg);
        // No senders at all: any collision flag is a false positive.
        let mut early = 0u64;
        let mut out = PhyRound::new();
        for r in 1..100u64 {
            ch.resolve_into(Round(r), &[], &mut out);
            early += out.collisions().iter().filter(|&&c| c).count() as u64;
        }
        assert!(early > 0, "interference should trigger false positives");
        for r in 100..200u64 {
            ch.resolve_into(Round(r), &[], &mut out);
            assert!(
                out.collisions().iter().all(|&c| !c),
                "false positive after interference horizon at round {r}"
            );
        }
    }

    #[test]
    fn resolution_is_deterministic() {
        let ch = channel(6, 11);
        let senders = [ProcessId(1), ProcessId(4)];
        let (mut a, mut b) = (PhyRound::new(), PhyRound::new());
        ch.resolve_into(Round(17), &senders, &mut a);
        ch.resolve_into(Round(17), &senders, &mut b);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.collision, b.collision);
    }

    #[test]
    fn resolve_into_reused_buffer_matches_fresh_buffer() {
        let ch = channel(6, 13);
        let mut reused = PhyRound::new();
        for r in 1..40u64 {
            let senders = [ProcessId(r as usize % 6), ProcessId((r as usize + 2) % 6)];
            ch.resolve_into(Round(r), &senders, &mut reused);
            let mut fresh = PhyRound::new();
            ch.resolve_into(Round(r), &senders, &mut fresh);
            assert_eq!(reused.senders(), fresh.senders());
            assert_eq!(reused.delivered, fresh.delivered);
            assert_eq!(reused.collision, fresh.collision);
        }
        // Shrinking rounds must not leak stale state.
        ch.resolve_into(Round(50), &[], &mut reused);
        assert!(reused.senders().is_empty());
        assert_eq!(reused.decoded_by(ProcessId(0)), 0);
    }

    #[test]
    fn gain_is_row_major_symmetric_and_matches_nested_reference() {
        // Bug-adjacent pin for the flat, half-computed layout: recompute
        // every ordered link the way the seed-era nested `Vec<Vec<f64>>`
        // did and require exact equality, plus the symmetry the shared
        // shadowing term implies.
        for (n, seed) in [(1, 0), (2, 5), (7, 42), (16, 42), (64, 7)] {
            let cfg = PhyConfig::new(n, seed);
            let ch = RadioChannel::new(cfg);
            let positions = ch.positions();
            let mut nested = vec![vec![0.0f64; cfg.n]; cfg.n];
            #[allow(clippy::needless_range_loop)] // `i`/`j` index positions and nested
            for i in 0..cfg.n {
                for j in 0..cfg.n {
                    if i == j {
                        continue;
                    }
                    let (a, b) = (i.min(j) as u64, i.max(j) as u64);
                    let (xi, yi) = positions[i];
                    let (xj, yj) = positions[j];
                    let d = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt().max(1.0);
                    let path = d.powf(-cfg.pathloss_exp);
                    let shadow_db =
                        cfg.shadowing_sigma_db * hash::standard_normal(&[cfg.seed, 0x5D, a, b]);
                    nested[i][j] = path * PhyConfig::db_to_linear(shadow_db);
                }
            }
            #[allow(clippy::needless_range_loop)] // `i`/`j` index both layouts
            for i in 0..cfg.n {
                for j in 0..cfg.n {
                    let g = ch.gain(i, j);
                    assert_eq!(g.to_bits(), nested[i][j].to_bits(), "n={n} gain({i}, {j})");
                    assert_eq!(
                        g.to_bits(),
                        ch.gain(j, i).to_bits(),
                        "n={n} symmetry ({i}, {j})"
                    );
                }
                assert_eq!(ch.gain(i, i), 0.0, "n={n} diagonal");
            }
        }
    }

    #[test]
    fn positions_and_gains_match_pinned_fingerprints() {
        // FNV-1a digests of the raw bits of `positions()` and of every
        // `gain(i, j)` in row-major order, recorded from the channel that
        // computed both halves of the matrix with a tuple-copying normal
        // draw. Any change to a single bit of the geometry fails here.
        let pinned: [(usize, u64, u64, u64); 4] = [
            (1, 0, 0x661e_d5ae_ae13_12ef, 0xa8c7_f832_281a_39c5),
            (2, 5, 0x20a6_45bb_4c15_f1f8, 0x7f84_05e4_913c_ff15),
            (16, 42, 0x99ef_2869_8c80_2f50, 0xb640_939f_6b48_9509),
            (64, 7, 0xba06_9422_72fb_c256, 0x0ebd_c6b5_3f53_1259),
        ];
        for (n, seed, positions_fp, gains_fp) in pinned {
            let ch = channel(n, seed);
            let mut positions = StableHasher::new();
            for &(x, y) in ch.positions() {
                positions.write_u64(x.to_bits());
                positions.write_u64(y.to_bits());
            }
            let mut gains = StableHasher::new();
            for i in 0..n {
                for j in 0..n {
                    gains.write_u64(ch.gain(i, j).to_bits());
                }
            }
            assert_eq!(
                positions.finish(),
                positions_fp,
                "positions, n={n} seed={seed}"
            );
            assert_eq!(gains.finish(), gains_fp, "gains, n={n} seed={seed}");
        }
    }
}
