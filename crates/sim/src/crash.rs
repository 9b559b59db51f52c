//! Crash adversaries (Section 3.3): any number of processes may crash, at
//! any time, permanently.

use crate::ids::{ProcessId, Round};
use crate::scenario::ScenarioEvent;
use crate::traits::CrashAdversary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// No process ever crashes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCrashes;

impl CrashAdversary for NoCrashes {
    fn crashes_into(&mut self, _round: Round, _alive: &[bool], _out: &mut Vec<ProcessId>) {}
}

/// Crashes exactly the scheduled processes at the scheduled rounds — the tool
/// for building the worst-case failure schedules of the termination analyses
/// (e.g. the "led everyone into a leaf, then died" schedule of Section 7.4).
#[derive(Debug, Clone, Default)]
pub struct ScheduledCrashes {
    schedule: BTreeMap<Round, Vec<ProcessId>>,
}

impl ScheduledCrashes {
    /// An empty schedule (equivalent to [`NoCrashes`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a crash of process `p` at the start of `round`.
    #[must_use]
    pub fn crash(mut self, p: ProcessId, round: Round) -> Self {
        self.schedule.entry(round).or_default().push(p);
        self
    }

    /// Builds a schedule from `(process, round)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ProcessId, Round)>) -> Self {
        pairs
            .into_iter()
            .fold(Self::new(), |s, (p, r)| s.crash(p, r))
    }
}

impl CrashAdversary for ScheduledCrashes {
    fn crashes_into(&mut self, round: Round, _alive: &[bool], out: &mut Vec<ProcessId>) {
        if let Some(ps) = self.schedule.get(&round) {
            out.extend_from_slice(ps);
        }
    }
}

/// Crashes each still-alive process independently with probability `p` per
/// round, while respecting a cap on total crashes and an optional horizon
/// after which failures cease (so Theorem-3-style "after failures cease"
/// measurements are well-defined). Deterministic given the seed.
#[derive(Debug, Clone)]
pub struct RandomCrashes {
    p: f64,
    max_crashes: usize,
    stop_after: Option<Round>,
    crashed_so_far: usize,
    rng: StdRng,
}

impl RandomCrashes {
    /// Creates a random crash adversary.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn new(p: f64, max_crashes: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        RandomCrashes {
            p,
            max_crashes,
            stop_after: None,
            crashed_so_far: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// No crashes happen at or after `round`.
    #[must_use]
    pub fn ceasing_at(mut self, round: Round) -> Self {
        self.stop_after = Some(round);
        self
    }
}

impl CrashAdversary for RandomCrashes {
    fn crashes_into(&mut self, round: Round, alive: &[bool], out: &mut Vec<ProcessId>) {
        if self.stop_after.is_some_and(|stop| round >= stop) {
            return;
        }
        for (i, &a) in alive.iter().enumerate() {
            if a && self.crashed_so_far < self.max_crashes && self.rng.random_bool(self.p) {
                out.push(ProcessId(i));
                self.crashed_so_far += 1;
            }
        }
    }
}

/// A timeline-driven crash adversary: crashes happen only when a scheduled
/// [`ScenarioEvent::CrashBurst`] fires (see [`crate::scenario`]). A burst of
/// `count` takes down the `count` lowest-indexed processes still alive at
/// the start of the event round — deterministic, no RNG, so the burst is a
/// pure function of the timeline and the execution so far.
///
/// Wraps an inner adversary (default [`NoCrashes`]) whose crashes compose
/// with the bursts; a process is never reported twice in one round.
#[derive(Debug, Clone)]
pub struct TimelineCrashes<C = NoCrashes> {
    inner: C,
    pending: u32,
}

impl TimelineCrashes<NoCrashes> {
    /// Burst-only crashes: nothing fails unless the timeline says so.
    pub fn new() -> Self {
        TimelineCrashes::over(NoCrashes)
    }
}

impl Default for TimelineCrashes<NoCrashes> {
    fn default() -> Self {
        TimelineCrashes::new()
    }
}

impl<C> TimelineCrashes<C> {
    /// Composes scheduled bursts with an inner crash adversary.
    pub fn over(inner: C) -> Self {
        TimelineCrashes { inner, pending: 0 }
    }
}

impl<C: CrashAdversary> CrashAdversary for TimelineCrashes<C> {
    fn crashes_into(&mut self, round: Round, alive: &[bool], out: &mut Vec<ProcessId>) {
        self.inner.crashes_into(round, alive, out);
        if self.pending == 0 {
            return;
        }
        let mut remaining = self.pending;
        self.pending = 0;
        for (i, &a) in alive.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if a && !out.contains(&ProcessId(i)) {
                out.push(ProcessId(i));
                remaining -= 1;
            }
        }
    }

    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        match event {
            ScenarioEvent::CrashBurst { count } => {
                self.pending = self.pending.saturating_add(count);
            }
            other => self.inner.apply_event(round, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_crashes_fire_once() {
        let mut adv = ScheduledCrashes::new()
            .crash(ProcessId(1), Round(3))
            .crash(ProcessId(0), Round(3))
            .crash(ProcessId(2), Round(5));
        assert!(adv.crashes(Round(1), &[true; 3]).is_empty());
        assert_eq!(
            adv.crashes(Round(3), &[true; 3]),
            vec![ProcessId(1), ProcessId(0)]
        );
        assert_eq!(adv.crashes(Round(5), &[true; 3]), vec![ProcessId(2)]);
    }

    #[test]
    fn from_pairs_matches_builder() {
        let mut a = ScheduledCrashes::from_pairs([(ProcessId(0), Round(2))]);
        assert_eq!(a.crashes(Round(2), &[true]), vec![ProcessId(0)]);
    }

    #[test]
    fn random_crashes_respect_cap_and_horizon() {
        let mut adv = RandomCrashes::new(1.0, 2, 9).ceasing_at(Round(4));
        let alive = vec![true; 5];
        let first = adv.crashes(Round(1), &alive);
        assert_eq!(first.len(), 2, "cap of 2 respected even at p=1");
        assert!(adv.crashes(Round(2), &alive).is_empty(), "cap exhausted");
        let mut adv2 = RandomCrashes::new(1.0, 10, 9).ceasing_at(Round(4));
        assert!(
            adv2.crashes(Round(4), &alive).is_empty(),
            "horizon respected"
        );
    }

    #[test]
    fn no_crashes_is_empty() {
        assert!(NoCrashes.crashes(Round(1), &[true; 3]).is_empty());
    }

    #[test]
    fn timeline_bursts_take_the_lowest_alive_indices() {
        let mut adv = TimelineCrashes::new();
        assert!(
            adv.crashes(Round(1), &[true; 4]).is_empty(),
            "no event, no crash"
        );
        adv.apply_event(Round(2), ScenarioEvent::CrashBurst { count: 2 });
        assert_eq!(
            adv.crashes(Round(2), &[false, true, true, true]),
            vec![ProcessId(1), ProcessId(2)],
            "burst skips already-dead processes"
        );
        assert!(
            adv.crashes(Round(3), &[true; 4]).is_empty(),
            "burst fires once"
        );
    }

    #[test]
    fn timeline_bursts_compose_with_inner_crashes_without_duplicates() {
        let inner = ScheduledCrashes::new().crash(ProcessId(0), Round(2));
        let mut adv = TimelineCrashes::over(inner);
        adv.apply_event(Round(2), ScenarioEvent::CrashBurst { count: 1 });
        assert_eq!(
            adv.crashes(Round(2), &[true; 3]),
            vec![ProcessId(0), ProcessId(1)],
            "the burst must not re-report the scheduled crash"
        );
    }
}
