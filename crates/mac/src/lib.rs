//! # wan-mac: the Abstract MAC layer
//!
//! Newport's *Consensus with an Abstract MAC Layer* (and the fault-tolerant
//! follow-up by Newport & Robinson) recasts the radio model of this paper
//! one abstraction up: instead of slot-level collisions resolved by a
//! collision detector, processes get an **acknowledged local broadcast**
//! service. A broadcast is either *delivered to every neighbour and
//! acknowledged* or *deferred* (still queued at the MAC layer); the service
//! guarantees two envelopes:
//!
//! * **ack latency `f_ack`** — every broadcast is delivered and
//!   acknowledged within `f_ack` consecutive attempts by its sender;
//! * **progress bound `f_prog`** — whenever at least one process is
//!   broadcasting, *some* broadcast is delivered within `f_prog`
//!   consecutive such rounds (receivers near a contended channel hear
//!   someone soon, even if a particular sender waits longer).
//!
//! Within those envelopes the MAC is free to defer however it likes — the
//! [`MacDelayPolicy`] is exactly that freedom, from the benign
//! ([`MacDelayPolicy::Eager`]: everything delivered immediately) through
//! seed-derived randomness to the worst case
//! ([`MacDelayPolicy::Adversarial`]: every delivery happens at the last
//! round its envelope allows).
//!
//! The layer is packaged as an adapter pair plugging into the formal
//! model's component traits, the same shape as `wan-phy`:
//!
//! * [`MacChannel`] is a [`wan_sim::LossAdversary`] — deliveries are the
//!   acknowledged broadcasts (all-or-none per sender per round: a cleared
//!   broadcast reaches *every* process, a deferred one reaches nobody but
//!   its sender);
//! * [`MacAckDetector`] is a [`wan_sim::CollisionDetector`] — the MAC
//!   layer's delivery bookkeeping surfaced in collision-detector
//!   vocabulary: advice is `±` at exactly the processes that missed a
//!   deferred broadcast this round. Because the MAC *knows* what it
//!   deferred, the advice is complete and accurate from round 1 — the
//!   model-level difference from the noisy detectors of the
//!   collision-detector environments, and the reason cross-model grids are
//!   interesting.
//!
//! Both halves share one per-round resolution through an `Rc<RefCell<…>>`
//! cell (the engine calls the loss adversary before the detector in the
//! same round), and both are writer-API components: steady-state rounds
//! perform zero allocations (the per-sender bookkeeping is sized once, on
//! first use).
//!
//! Scenario-timeline events compose ([`wan_sim::ScenarioEvent`]): a
//! `SetLossRate { p }` addressed to the loss adversary re-targets the delay
//! policy to `Random { defer: p }` mid-run, and `Split`/`Heal` partition
//! the acknowledged broadcast (deliveries stay within the partition side —
//! the fault model of the Newport–Robinson follow-up). Crash adversaries
//! are orthogonal, exactly as in every other environment.

use std::cell::RefCell;
use std::rc::Rc;
use wan_sim::{
    splitmix64, CdAdvice, CollisionDetector, DeliveryMatrix, LossAdversary, ProcessId, Round,
    ScenarioEvent, TransmissionEntry,
};

/// How the MAC layer spends the slack its envelopes allow.
///
/// `Copy` + scalar-only so it can ride inside a spec's environment plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MacDelayPolicy {
    /// No slack taken: every broadcast clears (is delivered and
    /// acknowledged) the round it is attempted.
    Eager,
    /// Seed-derived randomness: each attempt is deferred with probability
    /// `defer`, independently per `(round, sender)` — the MAC-layer
    /// analogue of a random-loss rate.
    Random {
        /// Per-attempt deferral probability, in `[0, 1]`.
        defer: f64,
    },
    /// Worst case within bounds: every broadcast is deferred until one of
    /// the envelopes (`f_ack` for its sender, `f_prog` for the channel)
    /// forces it through.
    Adversarial,
}

/// Configuration of one abstract MAC instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacConfig {
    /// Ack-latency envelope: a broadcast clears no later than its
    /// `f_ack`-th consecutive attempt. Must be ≥ 1.
    pub f_ack: u64,
    /// Progress envelope: at most `f_prog − 1` consecutive
    /// someone-is-broadcasting rounds may pass with no delivery at all.
    /// Must be ≥ 1.
    pub f_prog: u64,
    /// How the slack inside the envelopes is spent.
    pub policy: MacDelayPolicy,
    /// Seed for the [`MacDelayPolicy::Random`] deferral stream.
    pub seed: u64,
}

/// Shared per-round state of the adapter pair. Only [`MacChannel`] mutates
/// it; [`MacAckDetector`] asserts the round was resolved before advising.
#[derive(Debug)]
struct MacShared {
    cfg: MacConfig,
    /// Per-process count of consecutive deferred attempts (persists across
    /// rounds in which the process does not broadcast: an unacknowledged
    /// message stays queued at the MAC layer until it clears).
    pending: Vec<u32>,
    /// Consecutive someone-broadcast rounds with no delivery at all.
    blocked_streak: u64,
    /// Scratch: which senders cleared this round.
    cleared: Vec<bool>,
    /// Active partition boundary, if a `Split` event is in force.
    split: Option<usize>,
    /// The round the channel last resolved (pair-wiring discipline).
    resolved: Option<Round>,
}

impl MacShared {
    fn ensure_sized(&mut self, n: usize) {
        if self.pending.len() < n {
            self.pending.resize(n, 0);
            self.cleared.resize(n, false);
        }
    }
}

/// A deterministic uniform draw in `[0, 1)` from `(seed, round, sender)`.
fn hash01(seed: u64, round: Round, sender: ProcessId) -> f64 {
    let h = splitmix64(seed ^ splitmix64(round.0) ^ splitmix64(sender.index() as u64 ^ 0xACE));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The acknowledged-local-broadcast channel as a message-loss adversary.
///
/// Deliveries are all-or-none per sender: a broadcast that clears reaches
/// every process (every process on its partition side, under a `Split`); a
/// deferred broadcast reaches nobody but its sender (the engine forces
/// self-delivery, constraint 5). Clearing is decided by the
/// [`MacDelayPolicy`] and then *overridden* by the envelopes: a sender on
/// its `f_ack`-th consecutive attempt always clears, and if a round would
/// otherwise deliver nothing for the `f_prog`-th consecutive
/// someone-broadcast round, the longest-waiting sender (lowest index on
/// ties) is forced through.
#[derive(Debug, Clone)]
pub struct MacChannel {
    shared: Rc<RefCell<MacShared>>,
}

/// The MAC layer's delivery bookkeeping as a collision detector: advice is
/// `±` at exactly the processes that missed a deferred (or
/// partitioned-away) broadcast this round, `null` everywhere else.
///
/// Complete *and* accurate from round 1 — the acknowledged-broadcast
/// abstraction hands out reliable contention information by construction,
/// where the collision-detector model has to assume noise until `r_acc`.
#[derive(Debug, Clone)]
pub struct MacAckDetector {
    shared: Rc<RefCell<MacShared>>,
}

/// Builds the adapter pair over one abstract MAC instance.
///
/// # Panics
///
/// Panics if either envelope is zero (a zero bound promises nothing).
pub fn mac_components(cfg: MacConfig) -> (MacChannel, MacAckDetector) {
    assert!(cfg.f_ack >= 1, "f_ack must be at least 1");
    assert!(cfg.f_prog >= 1, "f_prog must be at least 1");
    let shared = Rc::new(RefCell::new(MacShared {
        cfg,
        pending: Vec::new(),
        blocked_streak: 0,
        cleared: Vec::new(),
        split: None,
        resolved: None,
    }));
    (
        MacChannel {
            shared: Rc::clone(&shared),
        },
        MacAckDetector { shared },
    )
}

impl LossAdversary for MacChannel {
    fn deliver_into(
        &mut self,
        round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        let shared = &mut *self.shared.borrow_mut();
        shared.ensure_sized(n);
        out.clear_and_resize(senders, n);

        // 1. Per-sender clearing decision: the policy proposes, the f_ack
        //    envelope disposes.
        let mut any_cleared = false;
        for &s in senders {
            let attempts = u64::from(shared.pending[s.index()]) + 1;
            let policy_clears = match shared.cfg.policy {
                MacDelayPolicy::Eager => true,
                MacDelayPolicy::Random { defer } => hash01(shared.cfg.seed, round, s) >= defer,
                MacDelayPolicy::Adversarial => false,
            };
            let cleared = policy_clears || attempts >= shared.cfg.f_ack;
            shared.cleared[s.index()] = cleared;
            any_cleared |= cleared;
        }

        // 2. The f_prog envelope: a someone-broadcast round that would
        //    deliver nothing, at the end of the progress budget, forces the
        //    longest-waiting sender through (lowest index on ties).
        if !senders.is_empty() {
            if !any_cleared && shared.blocked_streak + 1 >= shared.cfg.f_prog {
                let forced = senders
                    .iter()
                    .copied()
                    .max_by_key(|s| (shared.pending[s.index()], std::cmp::Reverse(s.index())))
                    .expect("senders is non-empty");
                shared.cleared[forced.index()] = true;
                any_cleared = true;
            }
            shared.blocked_streak = if any_cleared {
                0
            } else {
                shared.blocked_streak + 1
            };
        }

        // 3. Resolve deliveries and advance the per-sender attempt counts.
        for &s in senders {
            if shared.cleared[s.index()] {
                match shared.split {
                    None => out.deliver_all_from(s),
                    Some(boundary) => {
                        let side = s.index() < boundary;
                        out.deliver_from_where(s, |r| (r.index() < boundary) == side);
                    }
                }
                shared.pending[s.index()] = 0;
            } else {
                shared.pending[s.index()] += 1;
            }
        }
        shared.resolved = Some(round);
    }

    fn collision_free_from(&self) -> Option<Round> {
        // The MAC never promises per-round collision freedom: even a solo
        // broadcast may be deferred (up to f_ack - 1 times) in any round.
        // The environment's measurement reference is f_ack, declared at the
        // spec level, not here.
        None
    }

    fn apply_event(&mut self, _round: Round, event: ScenarioEvent) {
        let shared = &mut *self.shared.borrow_mut();
        match event {
            // A loss-rate swap re-targets the delay policy: at the MAC
            // abstraction the analogue of "more loss" is "more deferral".
            ScenarioEvent::SetLossRate { p } => {
                shared.cfg.policy = MacDelayPolicy::Random { defer: p }
            }
            ScenarioEvent::Split { boundary } => shared.split = Some(boundary),
            ScenarioEvent::Heal => shared.split = None,
            _ => {}
        }
    }
}

impl CollisionDetector for MacAckDetector {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        let shared = self.shared.borrow();
        let resolved = shared
            .resolved
            .expect("MacChannel must resolve the round before MacAckDetector advises");
        assert_eq!(
            resolved, round,
            "detector consulted for a round the MAC did not resolve"
        );
        // The MAC knows exactly who missed what: a process that received
        // fewer messages than were broadcast lost a deferred (or
        // partitioned-away) broadcast — surface it as ±. Nothing else is
        // ever flagged, so the advice is complete and accurate from round 1.
        for (slot, &received) in out.iter_mut().zip(tx.received.iter()) {
            *slot = if received < tx.sent_count {
                CdAdvice::Collision
            } else {
                CdAdvice::Null
            };
        }
    }

    fn accuracy_from(&self) -> Option<Round> {
        Some(Round::FIRST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(indices: &[usize]) -> Vec<ProcessId> {
        indices.iter().map(|&i| ProcessId(i)).collect()
    }

    fn resolve(
        channel: &mut MacChannel,
        round: u64,
        senders: &[usize],
        n: usize,
    ) -> DeliveryMatrix {
        let mut out = DeliveryMatrix::empty();
        channel.deliver_into(Round(round), &ids(senders), n, &mut out);
        out
    }

    fn delivered_everywhere(m: &DeliveryMatrix, s: usize, n: usize) -> bool {
        (0..n).all(|r| m.delivered(ProcessId(s), ProcessId(r)))
    }

    fn delivered_nowhere_else(m: &DeliveryMatrix, s: usize, n: usize) -> bool {
        (0..n)
            .filter(|&r| r != s)
            .all(|r| !m.delivered(ProcessId(s), ProcessId(r)))
    }

    #[test]
    fn eager_policy_clears_every_broadcast_immediately() {
        let (mut channel, _) = mac_components(MacConfig {
            f_ack: 4,
            f_prog: 2,
            policy: MacDelayPolicy::Eager,
            seed: 7,
        });
        for round in 1..=5 {
            let m = resolve(&mut channel, round, &[0, 2], 4);
            assert!(delivered_everywhere(&m, 0, 4));
            assert!(delivered_everywhere(&m, 2, 4));
        }
    }

    #[test]
    fn adversarial_policy_defers_until_the_envelopes_force_delivery() {
        let (mut channel, _) = mac_components(MacConfig {
            f_ack: 4,
            f_prog: 3,
            policy: MacDelayPolicy::Adversarial,
            seed: 7,
        });
        // Two senders every round. Rounds 1-2: everything deferred (the
        // progress budget is 3). Round 3: f_prog forces exactly one sender
        // through — the longest-waiting, tie broken to the lowest index.
        for round in 1..=2 {
            let m = resolve(&mut channel, round, &[0, 1], 3);
            assert!(delivered_nowhere_else(&m, 0, 3), "round {round}");
            assert!(delivered_nowhere_else(&m, 1, 3), "round {round}");
        }
        let m = resolve(&mut channel, 3, &[0, 1], 3);
        assert!(delivered_everywhere(&m, 0, 3), "f_prog forces sender 0");
        assert!(delivered_nowhere_else(&m, 1, 3), "sender 1 still deferred");
        // Round 4 is sender 1's fourth consecutive attempt: f_ack forces it.
        let m = resolve(&mut channel, 4, &[0, 1], 3);
        assert!(delivered_everywhere(&m, 1, 3), "f_ack forces sender 1");
    }

    #[test]
    fn ack_latency_never_exceeds_f_ack_attempts() {
        let (mut channel, _) = mac_components(MacConfig {
            f_ack: 3,
            f_prog: 100, // effectively off: only the f_ack envelope acts
            policy: MacDelayPolicy::Adversarial,
            seed: 1,
        });
        // A solo sender broadcasting every round clears exactly on its
        // f_ack-th attempt, every time.
        for cycle in 0..4u64 {
            for attempt in 1..=3u64 {
                let round = cycle * 3 + attempt;
                let m = resolve(&mut channel, round, &[1], 4);
                assert_eq!(
                    delivered_everywhere(&m, 1, 4),
                    attempt == 3,
                    "cycle {cycle} attempt {attempt}"
                );
            }
        }
    }

    #[test]
    fn pending_attempts_persist_across_silent_rounds() {
        let (mut channel, _) = mac_components(MacConfig {
            f_ack: 2,
            f_prog: 100,
            policy: MacDelayPolicy::Adversarial,
            seed: 1,
        });
        let m = resolve(&mut channel, 1, &[0], 2);
        assert!(delivered_nowhere_else(&m, 0, 2), "first attempt deferred");
        // Round 2: nobody broadcasts; the queued message stays pending.
        let _ = resolve(&mut channel, 2, &[], 2);
        // Round 3 is attempt 2 of the same queued message: f_ack clears it.
        let m = resolve(&mut channel, 3, &[0], 2);
        assert!(delivered_everywhere(&m, 0, 2));
    }

    #[test]
    fn random_policy_is_deterministic_in_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let (mut channel, _) = mac_components(MacConfig {
                f_ack: 6,
                f_prog: 2,
                policy: MacDelayPolicy::Random { defer: 0.5 },
                seed,
            });
            (1..=32)
                .map(|round| {
                    let m = resolve(&mut channel, round, &[0, 1, 2], 3);
                    delivered_everywhere(&m, 0, 3)
                })
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same deferral schedule");
        assert_ne!(run(42), run(43), "distinct seeds explore distinct slack");
    }

    #[test]
    fn detector_flags_exactly_the_processes_that_missed_something() {
        let (mut channel, mut detector) = mac_components(MacConfig {
            f_ack: 4,
            f_prog: 3,
            policy: MacDelayPolicy::Adversarial,
            seed: 7,
        });
        let m = resolve(&mut channel, 1, &[0, 1], 3);
        assert!(delivered_nowhere_else(&m, 0, 3));
        // Round 1: both broadcasts deferred. With self-delivery forced by
        // the engine, each sender receives its own message (count 1 of 2)
        // and the non-sender receives nothing (0 of 2): everyone lost
        // something, so everyone is advised ±.
        let tx = TransmissionEntry {
            sent_count: 2,
            received: vec![1, 1, 0],
        };
        let mut advice = [CdAdvice::Null; 3];
        detector.advise_into(Round(1), &tx, &mut advice);
        assert_eq!(advice, [CdAdvice::Collision; 3]);
        // A fully-delivered round is advised null everywhere.
        let (mut channel, mut detector) = mac_components(MacConfig {
            f_ack: 4,
            f_prog: 3,
            policy: MacDelayPolicy::Eager,
            seed: 7,
        });
        let _ = resolve(&mut channel, 1, &[0, 1], 3);
        let tx = TransmissionEntry {
            sent_count: 2,
            received: vec![2, 2, 2],
        };
        detector.advise_into(Round(1), &tx, &mut advice);
        assert_eq!(advice, [CdAdvice::Null; 3]);
        assert_eq!(detector.accuracy_from(), Some(Round::FIRST));
    }

    #[test]
    #[should_panic(expected = "resolve the round")]
    fn detector_requires_the_channel_first() {
        let (_, mut detector) = mac_components(MacConfig {
            f_ack: 2,
            f_prog: 2,
            policy: MacDelayPolicy::Eager,
            seed: 0,
        });
        let tx = TransmissionEntry {
            sent_count: 0,
            received: vec![0, 0],
        };
        let _ = detector.advise(Round(1), &tx);
    }

    #[test]
    fn split_confines_deliveries_and_heal_restores_them() {
        let (mut channel, _) = mac_components(MacConfig {
            f_ack: 2,
            f_prog: 2,
            policy: MacDelayPolicy::Eager,
            seed: 0,
        });
        channel.apply_event(Round(2), ScenarioEvent::Split { boundary: 2 });
        let m = resolve(&mut channel, 2, &[0, 3], 4);
        assert!(m.delivered(ProcessId(0), ProcessId(1)), "same side");
        assert!(!m.delivered(ProcessId(0), ProcessId(2)), "across the split");
        assert!(m.delivered(ProcessId(3), ProcessId(2)), "same side");
        assert!(!m.delivered(ProcessId(3), ProcessId(1)), "across the split");
        channel.apply_event(Round(3), ScenarioEvent::Heal);
        let m = resolve(&mut channel, 3, &[0], 4);
        assert!(delivered_everywhere(&m, 0, 4));
    }

    #[test]
    fn loss_rate_events_retarget_the_delay_policy() {
        let (mut channel, _) = mac_components(MacConfig {
            f_ack: 8,
            f_prog: 8,
            policy: MacDelayPolicy::Eager,
            seed: 5,
        });
        let m = resolve(&mut channel, 1, &[0], 2);
        assert!(delivered_everywhere(&m, 0, 2));
        channel.apply_event(Round(2), ScenarioEvent::SetLossRate { p: 1.0 });
        let m = resolve(&mut channel, 2, &[0], 2);
        assert!(
            delivered_nowhere_else(&m, 0, 2),
            "defer = 1.0 defers everything the envelopes allow"
        );
    }

    #[test]
    fn steady_state_resolution_does_not_allocate_new_buffers() {
        // The per-sender bookkeeping is sized once; afterwards the shared
        // state's vectors never grow. (The allocation *gate* for the full
        // engine path lives in the engine_dispatch bench.)
        let (mut channel, _) = mac_components(MacConfig {
            f_ack: 4,
            f_prog: 2,
            policy: MacDelayPolicy::Adversarial,
            seed: 3,
        });
        let mut out = DeliveryMatrix::empty();
        channel.deliver_into(Round(1), &ids(&[0, 1]), 8, &mut out);
        let (cap_p, cap_c) = {
            let shared = channel.shared.borrow();
            (shared.pending.capacity(), shared.cleared.capacity())
        };
        for round in 2..200 {
            channel.deliver_into(Round(round), &ids(&[0, 1]), 8, &mut out);
        }
        let shared = channel.shared.borrow();
        assert_eq!(shared.pending.capacity(), cap_p);
        assert_eq!(shared.cleared.capacity(), cap_c);
    }
}
