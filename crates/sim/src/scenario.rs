//! Fault-injection scenario timelines: mid-run environment changes as data.
//!
//! The formal model fixes the environment for a whole execution — one loss
//! regime, one crash schedule, one detector class. A [`ScenarioTimeline`]
//! relaxes that: it is a list of `(round, event)` entries describing how the
//! environment *shifts under* the algorithm — crash bursts, staggered
//! wake-up waves, loss-rate swaps, partition splits and heals, collision
//! detector degradation, contention-regime changes. Events are plain `Copy`
//! data (no closures), so a timeline is declared, compared, and replayed
//! bit-identically like every other spec field.
//!
//! A timeline is *compiled* ([`ScenarioTimeline::compile`]) into a dense
//! per-round [`CompiledSchedule`] the engine consults at the top of every
//! round: [`CompiledSchedule::events_at`] is an `O(1)`, allocation-free
//! slice lookup, so an engine round stays at zero allocations. The engine
//! routes each event to the component family it targets
//! ([`ScenarioEvent::target`]) through the `apply_event` hook on the four
//! component traits; components that do not understand an event ignore it.
//! In this crate [`crate::loss::RandomLoss`] handles the loss events (rate
//! swaps, splits, heals), [`crate::crash::TimelineCrashes`] the crash
//! bursts and [`StaggeredJoin`] the wake waves; `wan-cd`'s `Degrading` and
//! `wan-cm`'s `FairWakeUp` handle the rest.
//!
//! An empty timeline compiles to an empty schedule and the engine skips the
//! dispatch entirely — a scheduled engine with no events is bit-identical
//! to an unscheduled one.

use crate::advice::CmAdvice;
use crate::ids::{ProcessId, Round};
use crate::trace::TransmissionEntry;
use crate::traits::{CmView, ContentionManager};

/// Which component family a scheduled event is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventTarget {
    /// The crash adversary.
    Crash,
    /// The message-loss adversary.
    Loss,
    /// The collision detector.
    Detector,
    /// The contention manager.
    Manager,
}

/// One scheduled environment change. Deliberately scalar-only (`Copy`, no
/// closures, no heap): events must fingerprint stably and replay
/// bit-identically across processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioEvent {
    /// Crash the `count` lowest-indexed processes still alive at the start
    /// of the event round (handled by [`crate::crash::TimelineCrashes`]).
    CrashBurst {
        /// How many processes the burst takes down.
        count: u32,
    },
    /// Admit `count` more processes into contention — one step of a
    /// staggered join (handled by [`StaggeredJoin`]).
    WakeWave {
        /// How many processes this wave admits.
        count: u32,
    },
    /// Swap the per-(sender, receiver) loss probability (handled by
    /// [`crate::loss::RandomLoss`]).
    SetLossRate {
        /// The new loss probability, in `[0, 1]`.
        p: f64,
    },
    /// Partition the system: processes with index `< boundary` and
    /// `>= boundary` stop hearing each other (handled by
    /// [`crate::loss::RandomLoss`]).
    Split {
        /// First index of the second group.
        boundary: usize,
    },
    /// Heal a previous [`ScenarioEvent::Split`].
    Heal,
    /// Switch the collision detector to configured stage `slot` — a
    /// CD-quality degradation or upgrade (handled by `wan-cd`'s
    /// `Degrading` wrapper).
    CdSwitch {
        /// Index into the detector's configured stage list.
        slot: u8,
    },
    /// Change the contention regime: the pre-stabilization activation
    /// probability becomes `p` (handled by `wan-cm`'s `FairWakeUp`).
    ContentionShift {
        /// The new per-process activation probability, in `[0, 1]`.
        p: f64,
    },
}

impl ScenarioEvent {
    /// The component family this event is routed to.
    pub fn target(self) -> EventTarget {
        match self {
            ScenarioEvent::CrashBurst { .. } => EventTarget::Crash,
            ScenarioEvent::SetLossRate { .. }
            | ScenarioEvent::Split { .. }
            | ScenarioEvent::Heal => EventTarget::Loss,
            ScenarioEvent::CdSwitch { .. } => EventTarget::Detector,
            ScenarioEvent::WakeWave { .. } | ScenarioEvent::ContentionShift { .. } => {
                EventTarget::Manager
            }
        }
    }
}

/// A fault-injection timeline: `(round, event)` entries, as data. Build
/// with the [`ScenarioTimeline::at_round`] chain; compile once per run with
/// [`ScenarioTimeline::compile`].
///
/// The `Debug` rendering is the canonical form experiment fingerprints
/// absorb, so it must stay stable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioTimeline {
    entries: Vec<(Round, ScenarioEvent)>,
}

impl ScenarioTimeline {
    /// An empty timeline: the static environment, unchanged.
    pub fn new() -> Self {
        ScenarioTimeline::default()
    }

    /// Schedules `event` for the start of round `round` (builder form).
    /// Multiple events may share a round; they apply in insertion order.
    #[must_use]
    pub fn at_round(mut self, round: Round, event: ScenarioEvent) -> Self {
        assert!(round >= Round::FIRST, "events fire at real rounds");
        self.entries.push((round, event));
        self
    }

    /// Whether the timeline schedules no events.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scheduled entries, in insertion order.
    pub fn entries(&self) -> &[(Round, ScenarioEvent)] {
        &self.entries
    }

    /// The distinct rounds at which events fire, ascending — the checkpoint
    /// boundaries mid-run probes sample at.
    pub fn event_rounds(&self) -> Vec<u64> {
        let mut rounds: Vec<u64> = self.entries.iter().map(|&(r, _)| r.0).collect();
        rounds.sort_unstable();
        rounds.dedup();
        rounds
    }

    /// Compiles the timeline into a dense per-round schedule. A pure
    /// function of the entry list: same timeline, same schedule, always.
    ///
    /// # Panics
    ///
    /// Panics if any event round exceeds [`ScenarioTimeline::MAX_ROUND`]
    /// (the schedule is dense in the horizon).
    pub fn compile(&self) -> CompiledSchedule {
        let horizon = self.entries.iter().map(|&(r, _)| r.0).max().unwrap_or(0);
        assert!(
            horizon <= Self::MAX_ROUND,
            "scenario timelines are dense-compiled; event rounds must stay \
             within {} (got {horizon})",
            Self::MAX_ROUND
        );
        // Counting sort by round, stable in insertion order within a round.
        let slots = horizon as usize + 1;
        let mut starts = vec![0u32; slots + 1];
        for &(r, _) in &self.entries {
            starts[r.0 as usize + 1] += 1;
        }
        for i in 1..=slots {
            starts[i] += starts[i - 1];
        }
        let mut cursor = starts.clone();
        let mut events = vec![ScenarioEvent::Heal; self.entries.len()];
        for &(r, ev) in &self.entries {
            let at = cursor[r.0 as usize];
            events[at as usize] = ev;
            cursor[r.0 as usize] += 1;
        }
        CompiledSchedule { starts, events }
    }

    /// The largest event round a dense schedule accepts.
    pub const MAX_ROUND: u64 = 1 << 20;
}

/// A [`ScenarioTimeline`] compiled into a dense per-round lookup table
/// (CSR layout: `starts[r]..starts[r+1]` indexes into `events`). Built once
/// per run; consulted by the engine every round at zero allocation cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSchedule {
    starts: Vec<u32>,
    events: Vec<ScenarioEvent>,
}

impl CompiledSchedule {
    /// The events scheduled for round `round`, in insertion order. `O(1)`,
    /// allocation-free; rounds beyond the horizon return the empty slice.
    pub fn events_at(&self, round: Round) -> &[ScenarioEvent] {
        let r = round.0 as usize;
        if r + 1 >= self.starts.len() {
            return &[];
        }
        &self.events[self.starts[r] as usize..self.starts[r + 1] as usize]
    }

    /// Whether the schedule holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// A contention-manager wrapper modelling *staggered joins*: only the
/// `admitted` lowest-indexed processes may be advised `Active`; the rest
/// are forced `Passive` (asleep, not yet joined). A scheduled
/// [`ScenarioEvent::WakeWave`] admits more.
///
/// The inner manager's declared `r_wake` is forwarded unchanged, so a spec
/// using this wrapper must finish its wake waves before the inner manager
/// stabilizes for the declaration to stay honest.
#[derive(Debug, Clone)]
pub struct StaggeredJoin<M> {
    inner: M,
    admitted: usize,
}

impl<M> StaggeredJoin<M> {
    /// Wraps `inner` with `admitted` processes initially joined.
    pub fn new(inner: M, admitted: usize) -> Self {
        StaggeredJoin { inner, admitted }
    }

    /// How many processes are currently admitted.
    pub fn admitted(&self) -> usize {
        self.admitted
    }
}

impl<M: ContentionManager> ContentionManager for StaggeredJoin<M> {
    fn advise_into(&mut self, round: Round, view: &CmView<'_>, out: &mut [CmAdvice]) {
        self.inner.advise_into(round, view, out);
        for slot in out.iter_mut().skip(self.admitted) {
            *slot = CmAdvice::Passive;
        }
    }

    fn observe(&mut self, round: Round, tx: &TransmissionEntry, senders: &[ProcessId]) {
        self.inner.observe(round, tx, senders);
    }

    fn stabilized_from(&self) -> Option<Round> {
        self.inner.stabilized_from()
    }

    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        match event {
            ScenarioEvent::WakeWave { count } => {
                self.admitted = self.admitted.saturating_add(count as usize);
            }
            other => self.inner.apply_event(round, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> ScenarioTimeline {
        ScenarioTimeline::new()
            .at_round(Round(4), ScenarioEvent::CrashBurst { count: 1 })
            .at_round(Round(2), ScenarioEvent::SetLossRate { p: 0.25 })
            .at_round(Round(4), ScenarioEvent::Heal)
    }

    #[test]
    fn empty_timeline_compiles_to_empty_schedule() {
        let schedule = ScenarioTimeline::new().compile();
        assert!(schedule.is_empty());
        assert_eq!(schedule.events_at(Round(1)), &[]);
        assert_eq!(schedule.events_at(Round(1_000_000)), &[]);
    }

    #[test]
    fn events_land_on_their_rounds_in_insertion_order() {
        let schedule = timeline().compile();
        assert_eq!(schedule.len(), 3);
        assert_eq!(
            schedule.events_at(Round(2)),
            &[ScenarioEvent::SetLossRate { p: 0.25 }]
        );
        assert_eq!(
            schedule.events_at(Round(4)),
            &[ScenarioEvent::CrashBurst { count: 1 }, ScenarioEvent::Heal]
        );
        assert_eq!(schedule.events_at(Round(3)), &[]);
        assert_eq!(schedule.events_at(Round(5)), &[]);
    }

    #[test]
    fn compilation_is_pure() {
        assert_eq!(timeline().compile(), timeline().compile());
    }

    #[test]
    fn event_rounds_are_sorted_and_deduped() {
        assert_eq!(timeline().event_rounds(), vec![2, 4]);
        assert!(ScenarioTimeline::new().event_rounds().is_empty());
    }

    #[test]
    fn events_route_to_their_component_family() {
        use EventTarget::*;
        let cases = [
            (ScenarioEvent::CrashBurst { count: 2 }, Crash),
            (ScenarioEvent::WakeWave { count: 1 }, Manager),
            (ScenarioEvent::SetLossRate { p: 0.5 }, Loss),
            (ScenarioEvent::Split { boundary: 2 }, Loss),
            (ScenarioEvent::Heal, Loss),
            (ScenarioEvent::CdSwitch { slot: 1 }, Detector),
            (ScenarioEvent::ContentionShift { p: 0.1 }, Manager),
        ];
        for (event, target) in cases {
            assert_eq!(event.target(), target);
        }
    }

    #[test]
    fn staggered_join_gates_the_tail() {
        use crate::AllActive;
        let mut cm = StaggeredJoin::new(AllActive, 1);
        let alive = [true; 3];
        let view = CmView {
            n: 3,
            alive: &alive,
            contending: &alive,
        };
        let mut out = [CmAdvice::Passive; 3];
        cm.advise_into(Round(1), &view, &mut out);
        assert_eq!(
            out,
            [CmAdvice::Active, CmAdvice::Passive, CmAdvice::Passive]
        );
        cm.apply_event(Round(2), ScenarioEvent::WakeWave { count: 2 });
        cm.advise_into(Round(2), &view, &mut out);
        assert_eq!(out, [CmAdvice::Active; 3]);
    }
}
