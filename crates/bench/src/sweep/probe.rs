//! The composable observation API of the sweep subsystem: [`Probe`]s,
//! the typed [`MetricId`]/[`MetricValue`] vocabulary, and the
//! zero-steady-state-allocation [`ProbeSet`] that drives them.
//!
//! Every claim the paper makes is a *measurement over executions* —
//! decision rounds past the stabilization reference, broadcast and
//! contention counts, collision-detector accuracy, crash impact. A
//! [`Probe`] turns one such measurement into a reusable component:
//!
//! * [`Probe::observe`] is called once per round, as the engine executes
//!   it, with the borrowed [`RoundView`] — the same accessor every trace
//!   consumer reads — and must not allocate (the `engine_dispatch` bench
//!   gates the engine with the probe set as its observer at exactly 0
//!   allocs/round in steady state);
//! * [`Probe::finish`] folds the accumulated state, plus the end-of-cell
//!   context ([`CellEnd`]: judged outcome and the measurement reference
//!   round), into typed metrics on a reusable [`MetricRow`].
//!
//! A probe observes one cell: every cell builds a fresh [`ProbeSet`], so
//! a probe starts from its constructed state and is never reused.
//!
//! A [`ProbeManifest`] is the *data* form of a probe selection; it lives
//! on the `ScenarioSpec`. [`ProbeSet::from_manifest`] instantiates the
//! built-in probes; ad-hoc consumers (examples, one-off analyses) can
//! [`ProbeSet::push`] custom [`Probe`] implementations alongside them. A
//! [`ProbeSet`] is a [`RoundObserver`]: a sweep cell hands it to the run,
//! so the probes watch the live rounds and no trace is recorded. Feeding
//! a recorded [`wan_sim::ExecutionTrace`]'s views to a fresh set gives the
//! same row.

use std::fmt;
use wan_sim::{ProcessId, Round, RoundObserver, RoundView};

/// The typed vocabulary of metrics the built-in probes emit. Ordered
/// (`Ord`) so metric rows and columns have one canonical order; named
/// ([`MetricId::name`]) so `metrics` tables label their columns and
/// `metrics` globs can select them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricId {
    /// The measurement reference round (declared CST under ECF, the round
    /// failures cease under NOCF, the collision-freedom wrap round on the
    /// radio).
    Reference,
    /// The last decision round, if every correct process decided.
    LastDecision,
    /// Whether every correct process decided within the cap.
    Terminated,
    /// Whether agreement/validity held.
    Safe,
    /// Signed distance `last_decision − reference`: negative when the
    /// decision landed *before* the reference round — the value the
    /// saturating [`CoreColumns::worst_rounds_past`] (the golden `worst`
    /// field) cannot express.
    ///
    /// [`CoreColumns::worst_rounds_past`]: super::frame::CoreColumns::worst_rounds_past
    DecisionLatency,
    /// Rounds the engine executed (equals the cap for non-terminating
    /// cells).
    RoundsExecuted,
    /// Rounds the probe set observed (absent column on outcome-only
    /// manifests, whose probes read no round).
    RoundsObserved,
    /// Total broadcasts across all observed rounds.
    BroadcastsTotal,
    /// Rounds in which no process broadcast (Definition 22's `0`).
    SilentRounds,
    /// Rounds in which exactly one process broadcast (`1` — the
    /// collision-free case).
    SoloRounds,
    /// Rounds in which two or more processes broadcast (`2+`).
    ContendedRounds,
    /// Alive process-rounds where the detector reported `±` although the
    /// process received every message sent (an accuracy violation).
    CdFalsePositives,
    /// Alive process-rounds where the detector stayed `null` although the
    /// process lost at least one message (a completeness miss).
    CdMissedDetections,
    /// Alive process-rounds observed (the denominator of the two counts
    /// above).
    CdProcessRounds,
    /// Processes that crashed during the run.
    CrashCount,
    /// Round of the first crash, if any.
    FirstCrashRound,
    /// Process-rounds spent crashed (per-round dead-process count,
    /// summed).
    DeadProcessRounds,
    /// First round of the stable suffix in which exactly one process was
    /// advised active — the *observed* wake-up stabilization point
    /// (mirrors `ExecutionTrace::observed_wakeup_round`).
    ObservedWakeupRound,
    /// Scenario-timeline event boundaries the run actually reached
    /// (checkpoints configured past the executed horizon don't count).
    CheckpointCount,
    /// Minimum alive-process count sampled across the reached checkpoints
    /// (absent when the run reached none) — the depth of the injected
    /// churn as the run experienced it.
    CheckpointAliveMin,
    /// Cumulative CD accuracy violations + completeness misses observed up
    /// to the *last* reached checkpoint — detector quality at the moment
    /// the environment stopped changing.
    CheckpointCdViolations,
    /// The earliest configured checkpoint round at which every correct
    /// process had already decided (absent if the run never fully decided,
    /// or only decided after the final event boundary).
    CheckpointDecidedFrom,
    /// Largest number of consecutive attempts any acknowledged broadcast
    /// took to clear (abstract MAC environments; the measured ack latency
    /// the `f_ack` envelope bounds from above).
    AckAttemptsMax,
    /// Total deferred sender-rounds: alive broadcast attempts the MAC
    /// layer held back instead of delivering.
    AckDeferralsTotal,
    /// Rounds in which at least one process broadcast but the MAC layer
    /// delivered nothing at all.
    MacBlockedRounds,
    /// Longest run of consecutive such blocked rounds (silent rounds do
    /// not reset it — an undelivered broadcast stays queued); the measured
    /// progress latency the `f_prog` envelope bounds from above.
    MacBlockedStreakMax,
    /// An ad-hoc metric minted by a custom [`Probe`] (see the README's
    /// worked example and `examples/quickstart.rs`). Sorts after every
    /// built-in id and is not in [`MetricId::ALL`]; custom metrics flow
    /// through rows and frames (the registry only runs built-in
    /// manifests).
    Custom(&'static str),
}

impl MetricId {
    /// Every metric id, in canonical (`Ord`) order.
    pub const ALL: [MetricId; 26] = [
        MetricId::Reference,
        MetricId::LastDecision,
        MetricId::Terminated,
        MetricId::Safe,
        MetricId::DecisionLatency,
        MetricId::RoundsExecuted,
        MetricId::RoundsObserved,
        MetricId::BroadcastsTotal,
        MetricId::SilentRounds,
        MetricId::SoloRounds,
        MetricId::ContendedRounds,
        MetricId::CdFalsePositives,
        MetricId::CdMissedDetections,
        MetricId::CdProcessRounds,
        MetricId::CrashCount,
        MetricId::FirstCrashRound,
        MetricId::DeadProcessRounds,
        MetricId::ObservedWakeupRound,
        MetricId::CheckpointCount,
        MetricId::CheckpointAliveMin,
        MetricId::CheckpointCdViolations,
        MetricId::CheckpointDecidedFrom,
        MetricId::AckAttemptsMax,
        MetricId::AckDeferralsTotal,
        MetricId::MacBlockedRounds,
        MetricId::MacBlockedStreakMax,
    ];

    /// The stable snake_case name used in frame digests, `metrics` tables
    /// and `metrics` globs.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::Reference => "reference",
            MetricId::LastDecision => "last_decision",
            MetricId::Terminated => "terminated",
            MetricId::Safe => "safe",
            MetricId::DecisionLatency => "decision_latency",
            MetricId::RoundsExecuted => "rounds_executed",
            MetricId::RoundsObserved => "rounds_observed",
            MetricId::BroadcastsTotal => "broadcasts_total",
            MetricId::SilentRounds => "silent_rounds",
            MetricId::SoloRounds => "solo_rounds",
            MetricId::ContendedRounds => "contended_rounds",
            MetricId::CdFalsePositives => "cd_false_positives",
            MetricId::CdMissedDetections => "cd_missed_detections",
            MetricId::CdProcessRounds => "cd_process_rounds",
            MetricId::CrashCount => "crash_count",
            MetricId::FirstCrashRound => "first_crash_round",
            MetricId::DeadProcessRounds => "dead_process_rounds",
            MetricId::ObservedWakeupRound => "observed_wakeup_round",
            MetricId::CheckpointCount => "checkpoint_count",
            MetricId::CheckpointAliveMin => "checkpoint_alive_min",
            MetricId::CheckpointCdViolations => "checkpoint_cd_violations",
            MetricId::CheckpointDecidedFrom => "checkpoint_decided_from",
            MetricId::AckAttemptsMax => "ack_attempts_max",
            MetricId::AckDeferralsTotal => "ack_deferrals_total",
            MetricId::MacBlockedRounds => "mac_blocked_rounds",
            MetricId::MacBlockedStreakMax => "mac_blocked_streak_max",
            MetricId::Custom(name) => name,
        }
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// One typed metric value. Deliberately integer/bool only — no floats —
/// so rows hash, compare, and serialize deterministically; derived
/// statistics (means, fractions) are computed at render time from exact
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricValue {
    /// An unsigned count or round number.
    U64(u64),
    /// A signed quantity (e.g. [`MetricId::DecisionLatency`]).
    I64(i64),
    /// A flag.
    Bool(bool),
    /// An optional round number (`None` = "did not happen").
    OptU64(Option<u64>),
    /// An optional signed quantity.
    OptI64(Option<i64>),
}

impl MetricValue {
    /// The value as a signed 128-bit integer for aggregation (`true` = 1),
    /// or `None` for an absent optional.
    pub fn as_i128(self) -> Option<i128> {
        match self {
            MetricValue::U64(v) => Some(i128::from(v)),
            MetricValue::I64(v) => Some(i128::from(v)),
            MetricValue::Bool(b) => Some(i128::from(b)),
            MetricValue::OptU64(v) => v.map(i128::from),
            MetricValue::OptI64(v) => v.map(i128::from),
        }
    }
}

/// One cell's metrics: `(MetricId, MetricValue)` pairs in ascending id
/// order (sealed by [`ProbeSet::finish`]). Reusable — [`MetricRow::clear`]
/// keeps capacity, so filling a row in steady state allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricRow {
    entries: Vec<(MetricId, MetricValue)>,
}

impl MetricRow {
    /// An empty row.
    pub fn new() -> MetricRow {
        MetricRow::default()
    }

    /// Empties the row, keeping its capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Appends a metric. Each id may appear at most once per row
    /// (checked when [`ProbeSet::finish`] seals the row).
    pub fn set(&mut self, id: MetricId, value: MetricValue) {
        self.entries.push((id, value));
    }

    /// The value of `id`, if present.
    pub fn get(&self, id: MetricId) -> Option<MetricValue> {
        self.entries
            .iter()
            .find(|(entry, _)| *entry == id)
            .map(|&(_, value)| value)
    }

    /// The entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (MetricId, MetricValue)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of metrics in the row.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the row holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorts by id and asserts uniqueness, in every build — the canonical
    /// form frame columns rely on (a repeated id would become two columns
    /// of one name).
    fn seal(&mut self) {
        self.entries.sort_unstable_by_key(|&(id, _)| id);
        for pair in self.entries.windows(2) {
            assert!(
                pair[0].0 != pair[1].0,
                "two probes emitted the same metric id `{}`",
                pair[0].0
            );
        }
    }
}

/// End-of-cell context handed to [`Probe::finish`]: the judged outcome of
/// the run plus the cell's measurement reference round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellEnd {
    /// The measurement reference round.
    pub reference: u64,
    /// The last decision round, if every correct process decided.
    pub last_decision: Option<u64>,
    /// Whether every correct process decided within the cap.
    pub terminated: bool,
    /// Whether agreement/validity held.
    pub safe: bool,
    /// Rounds the engine executed.
    pub rounds_executed: u64,
}

/// One measurement over an execution, fed round views during the run and
/// asked for typed metrics at the end. Generic over the algorithm's
/// message type `M` because [`RoundView`] is; the built-in probes read
/// only message-independent columns (advice, counts, senders, liveness)
/// and therefore implement `Probe<M>` for every `M`.
///
/// The contract that keeps probed sweeps affordable: [`Probe::observe`]
/// must not allocate in steady state — accumulate into plain counters or
/// scratch sized once. The `engine_dispatch` bench measures the built-in
/// set as the engine's observer and CI gates it at 0 allocs/round.
pub trait Probe<M: Ord> {
    /// Observes one round.
    fn observe(&mut self, view: &RoundView<'_, M>);
    /// Folds the accumulated state and the end-of-cell context into
    /// metrics. Called exactly once per cell, after every round was
    /// observed.
    fn finish(&mut self, end: &CellEnd, out: &mut MetricRow);
}

/// The built-in probe selection, as *data*: which probes a scenario runs
/// with. Lives on `ScenarioSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProbeKind {
    /// The core outcome: reference, last decision, termination, safety,
    /// rounds executed. Outcome-only (no trace needed). The golden
    /// summary, the safety scan and the experiment tables read the first
    /// four through [`SpecFrame::core`](super::frame::SpecFrame::core).
    Core,
    /// Signed `last_decision − reference` distance. Outcome-only.
    DecisionLatency,
    /// Broadcast complexity: total broadcasts plus the Definition 22
    /// zero/one/two-plus round classification.
    BroadcastCount,
    /// Collision-detector accuracy/completeness violation counts.
    CdAccuracy,
    /// Crash schedule impact: crash count, first crash round, dead
    /// process-rounds.
    CrashExposure,
    /// The observed wake-up stabilization round.
    WakeupStabilization,
    /// Mid-run samples at scenario-timeline event boundaries: alive
    /// counts, cumulative CD violations, and the decided-by-checkpoint
    /// round. Only meaningful on specs with a non-empty timeline (the
    /// checkpoint rounds come from the spec via
    /// [`ProbeSet::from_manifest_at`]); with no checkpoints it emits the
    /// absent-sample row.
    CheckpointStats,
    /// Measured ack latency of an abstract MAC environment: the attempt
    /// count of the slowest-clearing broadcast and the total deferred
    /// sender-rounds, inferred from the received counts (a deferred
    /// broadcast reaches only its own sender). Meaningful on
    /// `EnvironmentPlan::AbsMac` specs; on collision environments the
    /// all-or-none delivery premise does not hold and the numbers are
    /// noise.
    AckLatency,
    /// Measured progress of an abstract MAC environment: rounds in which
    /// someone broadcast but nothing was delivered, and the longest such
    /// streak — the observed counterpart of the `f_prog` envelope.
    ProgressBound,
}

impl ProbeKind {
    /// Every built-in kind, in canonical order.
    pub const ALL: [ProbeKind; 9] = [
        ProbeKind::Core,
        ProbeKind::DecisionLatency,
        ProbeKind::BroadcastCount,
        ProbeKind::CdAccuracy,
        ProbeKind::CrashExposure,
        ProbeKind::WakeupStabilization,
        ProbeKind::CheckpointStats,
        ProbeKind::AckLatency,
        ProbeKind::ProgressBound,
    ];

    /// Whether this probe reads per-round views. Outcome-level probes
    /// ([`ProbeKind::Core`], [`ProbeKind::DecisionLatency`]) read only the
    /// end-of-cell [`CellEnd`].
    ///
    /// Nothing in this workspace branches on it, but the `sweepbench`
    /// benchmark calls [`ProbeManifest::needs_trace`] (which folds this
    /// over a manifest) to split its per-layer timings, so both stay.
    pub fn needs_trace(self) -> bool {
        !matches!(self, ProbeKind::Core | ProbeKind::DecisionLatency)
    }

    /// Instantiates the probe for message type `M`. `checkpoints` are the
    /// sorted scenario-timeline event rounds the spec's
    /// [`ProbeKind::CheckpointStats`] probe samples at; every other kind
    /// ignores them.
    fn build_at<M: Ord>(self, checkpoints: &[u64]) -> Box<dyn Probe<M>> {
        match self {
            ProbeKind::Core => Box::new(CoreOutcome),
            ProbeKind::DecisionLatency => Box::new(DecisionLatency),
            ProbeKind::BroadcastCount => Box::new(BroadcastCountProbe::default()),
            ProbeKind::CdAccuracy => Box::new(CdAccuracy::default()),
            ProbeKind::CrashExposure => Box::new(CrashExposure::default()),
            ProbeKind::WakeupStabilization => Box::new(WakeupStabilization::default()),
            ProbeKind::CheckpointStats => Box::new(CheckpointStats::at(checkpoints)),
            ProbeKind::AckLatency => Box::new(AckLatencyProbe::default()),
            ProbeKind::ProgressBound => Box::new(ProgressBoundProbe::default()),
        }
    }
}

/// A spec's probe selection. The kinds are kept sorted and deduplicated,
/// so two manifests selecting the same probes are equal regardless of
/// construction order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeManifest {
    kinds: Vec<ProbeKind>,
}

impl ProbeManifest {
    /// The default selection. Deliberately the *original*
    /// six probes, not [`ProbeKind::ALL`]: [`ProbeKind::CheckpointStats`]
    /// only says something on specs with a scenario timeline — and the
    /// MAC-envelope probes ([`ProbeKind::AckLatency`],
    /// [`ProbeKind::ProgressBound`]) only on `AbsMac` environments — and
    /// folding them in here would add columns to every standard spec (and
    /// so move every golden frame digest) for no information. Timeline and
    /// abstract-MAC specs opt in via [`ProbeManifest::of`].
    pub fn standard() -> ProbeManifest {
        ProbeManifest {
            kinds: vec![
                ProbeKind::Core,
                ProbeKind::DecisionLatency,
                ProbeKind::BroadcastCount,
                ProbeKind::CdAccuracy,
                ProbeKind::CrashExposure,
                ProbeKind::WakeupStabilization,
            ],
        }
    }

    /// The selection for pure-throughput sweeps: only the outcome-level
    /// probes ([`ProbeKind::Core`], [`ProbeKind::DecisionLatency`]), which
    /// read no round.
    pub fn outcome_only() -> ProbeManifest {
        ProbeManifest {
            kinds: vec![ProbeKind::Core, ProbeKind::DecisionLatency],
        }
    }

    /// An explicit selection. [`ProbeKind::Core`] is always included —
    /// the golden summary, the safety scan and the experiment tables read
    /// its columns.
    pub fn of(kinds: &[ProbeKind]) -> ProbeManifest {
        let mut kinds = kinds.to_vec();
        kinds.push(ProbeKind::Core);
        kinds.sort_unstable();
        kinds.dedup();
        ProbeManifest { kinds }
    }

    /// The selected kinds, in canonical order.
    pub fn kinds(&self) -> &[ProbeKind] {
        &self.kinds
    }

    /// Whether any selected probe reads per-round views
    /// ([`ProbeKind::needs_trace`]).
    pub fn needs_trace(&self) -> bool {
        self.kinds.iter().any(|k| k.needs_trace())
    }
}

impl Default for ProbeManifest {
    fn default() -> Self {
        ProbeManifest::standard()
    }
}

/// A composed set of probes driven over one cell's execution. Build one
/// per cell ([`ProbeSet::from_manifest`], plus [`ProbeSet::push`] for
/// custom probes), feed it [`RoundObserver::observe`] each round (as the
/// run's observer, or over a recorded trace's views), then
/// [`ProbeSet::finish`]. Steady-state observation performs zero
/// allocations; the boxes are the build-time cost.
pub struct ProbeSet<M: Ord> {
    probes: Vec<Box<dyn Probe<M>>>,
}

impl<M: Ord> ProbeSet<M> {
    /// Instantiates the manifest's built-in probes (with no timeline
    /// checkpoints — see [`ProbeSet::from_manifest_at`]).
    pub fn from_manifest(manifest: &ProbeManifest) -> ProbeSet<M> {
        ProbeSet::from_manifest_at(manifest, &[])
    }

    /// Instantiates the manifest's built-in probes, handing the spec's
    /// scenario-timeline event rounds to [`ProbeKind::CheckpointStats`]
    /// so it samples at exactly the rounds the environment changed.
    pub fn from_manifest_at(manifest: &ProbeManifest, checkpoints: &[u64]) -> ProbeSet<M> {
        ProbeSet {
            probes: manifest
                .kinds()
                .iter()
                .map(|k| k.build_at(checkpoints))
                .collect(),
        }
    }

    /// An empty set (compose with [`ProbeSet::push`]).
    pub fn new() -> ProbeSet<M> {
        ProbeSet { probes: Vec::new() }
    }

    /// Adds a custom probe alongside the built-ins. Its metrics join the
    /// same row; ids must not collide with another selected probe's.
    pub fn push(&mut self, probe: Box<dyn Probe<M>>) {
        self.probes.push(probe);
    }

    /// Number of composed probes.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Clears `out`, collects every probe's metrics into it, and seals it
    /// into canonical (ascending-id) order.
    pub fn finish(&mut self, end: &CellEnd, out: &mut MetricRow) {
        out.clear();
        for probe in &mut self.probes {
            probe.finish(end, out);
        }
        out.seal();
    }
}

/// The sweep's observer: feeds every round view to every probe.
impl<M: Ord> RoundObserver<M> for ProbeSet<M> {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        for probe in &mut self.probes {
            probe.observe(view);
        }
    }
}

impl<M: Ord> Default for ProbeSet<M> {
    fn default() -> Self {
        ProbeSet::new()
    }
}

impl<M: Ord> fmt::Debug for ProbeSet<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeSet")
            .field("probes", &self.probes.len())
            .finish()
    }
}

/// [`ProbeKind::Core`]: the cell's judged outcome as metrics.
struct CoreOutcome;

impl<M: Ord> Probe<M> for CoreOutcome {
    fn observe(&mut self, _view: &RoundView<'_, M>) {}
    fn finish(&mut self, end: &CellEnd, out: &mut MetricRow) {
        out.set(MetricId::Reference, MetricValue::U64(end.reference));
        out.set(
            MetricId::LastDecision,
            MetricValue::OptU64(end.last_decision),
        );
        out.set(MetricId::Terminated, MetricValue::Bool(end.terminated));
        out.set(MetricId::Safe, MetricValue::Bool(end.safe));
        out.set(
            MetricId::RoundsExecuted,
            MetricValue::U64(end.rounds_executed),
        );
    }
}

/// [`ProbeKind::DecisionLatency`]: the signed decision distance.
struct DecisionLatency;

impl<M: Ord> Probe<M> for DecisionLatency {
    fn observe(&mut self, _view: &RoundView<'_, M>) {}
    fn finish(&mut self, end: &CellEnd, out: &mut MetricRow) {
        let latency = end.last_decision.map(|d| d as i64 - end.reference as i64);
        out.set(MetricId::DecisionLatency, MetricValue::OptI64(latency));
    }
}

/// [`ProbeKind::BroadcastCount`]: Definition 22 round classification and
/// total broadcast complexity.
#[derive(Default)]
struct BroadcastCountProbe {
    total: u64,
    silent: u64,
    solo: u64,
    contended: u64,
}

impl<M: Ord> Probe<M> for BroadcastCountProbe {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        let sent = view.sent_count();
        self.total += sent as u64;
        match sent {
            0 => self.silent += 1,
            1 => self.solo += 1,
            _ => self.contended += 1,
        }
    }
    fn finish(&mut self, _end: &CellEnd, out: &mut MetricRow) {
        out.set(MetricId::BroadcastsTotal, MetricValue::U64(self.total));
        out.set(MetricId::SilentRounds, MetricValue::U64(self.silent));
        out.set(MetricId::SoloRounds, MetricValue::U64(self.solo));
        out.set(MetricId::ContendedRounds, MetricValue::U64(self.contended));
        out.set(
            MetricId::RoundsObserved,
            MetricValue::U64(self.silent + self.solo + self.contended),
        );
    }
}

/// [`ProbeKind::CdAccuracy`]: per-process-round accuracy violations
/// (advice `±` with nothing lost) and completeness misses (advice `null`
/// with messages lost), over alive processes. [`CheckpointStats`] folds
/// its CD violation count with this probe too.
#[derive(Default)]
struct CdAccuracy {
    false_positives: u64,
    missed: u64,
    process_rounds: u64,
}

impl CdAccuracy {
    /// Accuracy false positives plus completeness misses so far: the
    /// process-rounds whose advice disagrees with whether anything was
    /// lost.
    fn violations(&self) -> u64 {
        self.false_positives + self.missed
    }
}

impl<M: Ord> Probe<M> for CdAccuracy {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        let sent = view.sent_count();
        let advice = view.cd().iter().zip(view.received_counts());
        for ((cd, &count), &alive) in advice.zip(view.alive()) {
            if alive {
                let (collision, lost) = (cd.is_collision(), count < sent);
                self.process_rounds += 1;
                self.false_positives += u64::from(collision && !lost);
                self.missed += u64::from(!collision && lost);
            }
        }
    }
    fn finish(&mut self, _end: &CellEnd, out: &mut MetricRow) {
        out.set(
            MetricId::CdFalsePositives,
            MetricValue::U64(self.false_positives),
        );
        out.set(MetricId::CdMissedDetections, MetricValue::U64(self.missed));
        out.set(
            MetricId::CdProcessRounds,
            MetricValue::U64(self.process_rounds),
        );
    }
}

/// [`ProbeKind::CrashExposure`]: crash count, first crash round, and
/// dead process-rounds.
#[derive(Default)]
struct CrashExposure {
    crashes: u64,
    first_crash: Option<u64>,
    dead_process_rounds: u64,
}

impl<M: Ord> Probe<M> for CrashExposure {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        let crashed = view.crashed().len() as u64;
        self.crashes += crashed;
        if crashed > 0 && self.first_crash.is_none() {
            self.first_crash = Some(view.round().0);
        }
        self.dead_process_rounds += (view.n() - view.alive_count()) as u64;
    }
    fn finish(&mut self, _end: &CellEnd, out: &mut MetricRow) {
        out.set(MetricId::CrashCount, MetricValue::U64(self.crashes));
        out.set(
            MetricId::FirstCrashRound,
            MetricValue::OptU64(self.first_crash),
        );
        out.set(
            MetricId::DeadProcessRounds,
            MetricValue::U64(self.dead_process_rounds),
        );
    }
}

/// [`ProbeKind::WakeupStabilization`]: the first round of the stable
/// suffix with exactly one active advice — the same fold as
/// `ExecutionTrace::observed_wakeup_round`, as a streaming probe.
#[derive(Default)]
struct WakeupStabilization {
    candidate: Option<Round>,
}

impl<M: Ord> Probe<M> for WakeupStabilization {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        if view.active_count() == 1 {
            if self.candidate.is_none() {
                self.candidate = Some(view.round());
            }
        } else {
            self.candidate = None;
        }
    }
    fn finish(&mut self, _end: &CellEnd, out: &mut MetricRow) {
        out.set(
            MetricId::ObservedWakeupRound,
            MetricValue::OptU64(self.candidate.map(|r| r.0)),
        );
    }
}

/// [`ProbeKind::CheckpointStats`]: mid-run sampling at scenario-timeline
/// event boundaries. At each configured checkpoint round the run reaches,
/// it records the alive count and the cumulative CD violation count
/// (accuracy false positives + completeness misses, folded by an inner
/// [`CdAccuracy`]); at the end it reports how many checkpoints
/// were reached, the minimum alive count across them, the violation count
/// at the last one, and the earliest checkpoint by which every correct
/// process had decided ([`CellEnd::last_decision`]).
///
/// The checkpoint list is fixed at construction
/// ([`ProbeSet::from_manifest_at`]); membership tests are a binary search
/// on the sorted list, so observing stays allocation-free.
struct CheckpointStats {
    checkpoints: Vec<u64>,
    reached: u64,
    alive_min: Option<u64>,
    cd: CdAccuracy,
    cd_at_last: u64,
}

impl CheckpointStats {
    fn at(checkpoints: &[u64]) -> CheckpointStats {
        debug_assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]),
            "checkpoint rounds must be sorted and deduplicated"
        );
        CheckpointStats {
            checkpoints: checkpoints.to_vec(),
            reached: 0,
            alive_min: None,
            cd: CdAccuracy::default(),
            cd_at_last: 0,
        }
    }
}

impl<M: Ord> Probe<M> for CheckpointStats {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        self.cd.observe(view);
        if self.checkpoints.binary_search(&view.round().0).is_ok() {
            self.reached += 1;
            let alive = view.alive_count() as u64;
            self.alive_min = Some(self.alive_min.map_or(alive, |m| m.min(alive)));
            self.cd_at_last = self.cd.violations();
        }
    }
    fn finish(&mut self, end: &CellEnd, out: &mut MetricRow) {
        out.set(MetricId::CheckpointCount, MetricValue::U64(self.reached));
        out.set(
            MetricId::CheckpointAliveMin,
            MetricValue::OptU64(self.alive_min),
        );
        out.set(
            MetricId::CheckpointCdViolations,
            MetricValue::U64(self.cd_at_last),
        );
        let decided_from = end.last_decision.and_then(|d| {
            self.checkpoints
                .iter()
                .copied()
                .find(|&c| c >= d && c <= end.rounds_executed)
        });
        out.set(
            MetricId::CheckpointDecidedFrom,
            MetricValue::OptU64(decided_from),
        );
    }
}

/// Infers, from one round's received counts, how many broadcasts the MAC
/// layer cleared (delivered to everyone). Returns `None` on silent rounds.
///
/// The abstract MAC's deliveries are all-or-none per sender, and the
/// engine forces self-delivery, so with `|C|` cleared broadcasts an alive
/// non-sender receives exactly `|C|` messages, a cleared sender receives
/// `|C|`, and a deferred sender receives `|C| + 1` (only its own). When
/// every alive process is a sender the base is recovered from the count
/// sum instead: over `m` senders, `Σ counts = (m − 1)·|C| + m`. The
/// remaining blind spot — a solo sender with no other process alive — is
/// read as cleared. (The inference assumes an unpartitioned channel; the
/// registry's abstract-MAC grids schedule no `Split` events on probed
/// specs.)
fn mac_cleared_count<M: Ord>(view: &RoundView<'_, M>) -> Option<usize> {
    let m = view.sent_count();
    if m == 0 {
        return None;
    }
    let counts = view.received_counts();
    let alive = view.alive();
    for (i, &a) in alive.iter().enumerate() {
        if a && !view.is_sender(ProcessId(i)) {
            return Some(counts[i]);
        }
    }
    if m > 1 {
        let sum: usize = (0..counts.len())
            .filter(|&i| view.is_sender(ProcessId(i)))
            .map(|i| counts[i])
            .sum();
        Some((sum - m) / (m - 1))
    } else {
        let s = (0..counts.len())
            .find(|&i| view.is_sender(ProcessId(i)))
            .expect("a non-silent round has a sender");
        Some(counts[s])
    }
}

/// Whether alive sender `s` was deferred this round, given the cleared
/// count from [`mac_cleared_count`].
fn mac_deferred<M: Ord>(view: &RoundView<'_, M>, s: usize, cleared: usize) -> bool {
    view.received_counts()[s] == cleared + 1
}

/// [`ProbeKind::AckLatency`]: per-sender deferral streaks folded into the
/// measured ack latency. The per-process scratch is sized on the first
/// observed round, so steady-state observation is allocation-free.
#[derive(Default)]
struct AckLatencyProbe {
    streak: Vec<u64>,
    attempts_max: u64,
    deferrals_total: u64,
}

impl<M: Ord> Probe<M> for AckLatencyProbe {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        let Some(cleared) = mac_cleared_count(view) else {
            return; // silent round: queued attempts persist
        };
        if self.streak.len() < view.n() {
            self.streak.resize(view.n(), 0);
        }
        for (i, &alive) in view.alive().iter().enumerate() {
            if !alive || !view.is_sender(ProcessId(i)) {
                continue;
            }
            if mac_deferred(view, i, cleared) {
                self.streak[i] += 1;
                self.deferrals_total += 1;
            } else {
                self.attempts_max = self.attempts_max.max(self.streak[i] + 1);
                self.streak[i] = 0;
            }
        }
    }
    fn finish(&mut self, _end: &CellEnd, out: &mut MetricRow) {
        out.set(
            MetricId::AckAttemptsMax,
            MetricValue::U64(self.attempts_max),
        );
        out.set(
            MetricId::AckDeferralsTotal,
            MetricValue::U64(self.deferrals_total),
        );
    }
}

/// [`ProbeKind::ProgressBound`]: blocked someone-broadcast rounds (nothing
/// delivered) and the longest blocked streak. Mirrors the MAC layer's own
/// `f_prog` bookkeeping: silent rounds neither extend nor reset a streak.
#[derive(Default)]
struct ProgressBoundProbe {
    blocked_rounds: u64,
    streak: u64,
    streak_max: u64,
}

impl<M: Ord> Probe<M> for ProgressBoundProbe {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        let Some(cleared) = mac_cleared_count(view) else {
            return;
        };
        if cleared == 0 {
            self.blocked_rounds += 1;
            self.streak += 1;
            self.streak_max = self.streak_max.max(self.streak);
        } else {
            self.streak = 0;
        }
    }
    fn finish(&mut self, _end: &CellEnd, out: &mut MetricRow) {
        out.set(
            MetricId::MacBlockedRounds,
            MetricValue::U64(self.blocked_rounds),
        );
        out.set(
            MetricId::MacBlockedStreakMax,
            MetricValue::U64(self.streak_max),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wan_sim::trace::RoundRecord;
    use wan_sim::{CdAdvice, CmAdvice, ExecutionTrace, ProcessId};

    /// Feeds every recorded round to `probes`.
    fn replay(probes: &mut ProbeSet<u8>, trace: &ExecutionTrace<u8>) {
        for view in trace.rounds() {
            probes.observe(&view);
        }
    }

    fn record(round: u64, sent: Vec<Option<u8>>, active: usize) -> RoundRecord<u8> {
        let n = sent.len();
        let mut cm = vec![CmAdvice::Passive; n];
        for a in cm.iter_mut().take(active) {
            *a = CmAdvice::Active;
        }
        RoundRecord {
            round: Round(round),
            cm,
            cd: vec![CdAdvice::Null; n],
            received_counts: vec![sent.iter().flatten().count(); n],
            received: None,
            crashed: vec![],
            alive: vec![true; n],
            sent,
        }
    }

    fn end() -> CellEnd {
        CellEnd {
            reference: 6,
            last_decision: Some(8),
            terminated: true,
            safe: true,
            rounds_executed: 8,
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = MetricId::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MetricId::ALL.len());
    }

    #[test]
    fn rows_seal_in_canonical_order() {
        let mut row = MetricRow::new();
        row.set(MetricId::DecisionLatency, MetricValue::OptI64(Some(-3)));
        row.set(MetricId::Reference, MetricValue::U64(6));
        row.set(MetricId::LastDecision, MetricValue::OptU64(None));
        row.set(MetricId::Safe, MetricValue::Bool(true));
        row.seal();
        assert_eq!(
            row.iter().collect::<Vec<_>>(),
            [
                (MetricId::Reference, MetricValue::U64(6)),
                (MetricId::LastDecision, MetricValue::OptU64(None)),
                (MetricId::Safe, MetricValue::Bool(true)),
                (MetricId::DecisionLatency, MetricValue::OptI64(Some(-3))),
            ]
        );
    }

    /// A custom probe emitting one fixed metric.
    struct Emits(&'static str);

    impl<M: Ord> Probe<M> for Emits {
        fn observe(&mut self, _view: &RoundView<'_, M>) {}
        fn finish(&mut self, _end: &CellEnd, out: &mut MetricRow) {
            out.set(MetricId::Custom(self.0), MetricValue::U64(1));
        }
    }

    #[test]
    #[should_panic(expected = "two probes emitted the same metric id `dup`")]
    fn a_metric_id_emitted_twice_fails_the_seal_in_every_build() {
        let mut probes: ProbeSet<u8> = ProbeSet::from_manifest(&ProbeManifest::outcome_only());
        probes.push(Box::new(Emits("dup")));
        probes.push(Box::new(Emits("dup")));
        probes.finish(&end(), &mut MetricRow::new());
    }

    #[test]
    fn manifests_are_canonical_and_know_which_probes_read_rounds() {
        let standard = ProbeManifest::standard();
        let outcome = ProbeManifest::outcome_only();
        assert!(standard.needs_trace());
        assert!(!outcome.needs_trace());
        // Construction order does not matter; Core is always included.
        assert_eq!(
            ProbeManifest::of(&[ProbeKind::CdAccuracy, ProbeKind::BroadcastCount]),
            ProbeManifest::of(&[
                ProbeKind::BroadcastCount,
                ProbeKind::Core,
                ProbeKind::CdAccuracy
            ]),
        );
    }

    #[test]
    fn builtin_probes_fold_views_into_metrics() {
        let mut trace: ExecutionTrace<u8> = ExecutionTrace::new(3);
        trace.push_record(record(1, vec![None, None, None], 3));
        trace.push_record(record(2, vec![Some(1), Some(2), None], 2));
        trace.push_record(record(3, vec![Some(1), None, None], 1));
        let mut probes: ProbeSet<u8> = ProbeSet::from_manifest(&ProbeManifest::standard());
        let mut row = MetricRow::new();
        replay(&mut probes, &trace);
        probes.finish(&end(), &mut row);

        assert_eq!(row.get(MetricId::Reference), Some(MetricValue::U64(6)));
        assert_eq!(
            row.get(MetricId::DecisionLatency),
            Some(MetricValue::OptI64(Some(2)))
        );
        assert_eq!(
            row.get(MetricId::BroadcastsTotal),
            Some(MetricValue::U64(3))
        );
        assert_eq!(row.get(MetricId::SilentRounds), Some(MetricValue::U64(1)));
        assert_eq!(row.get(MetricId::SoloRounds), Some(MetricValue::U64(1)));
        assert_eq!(
            row.get(MetricId::ContendedRounds),
            Some(MetricValue::U64(1))
        );
        assert_eq!(row.get(MetricId::RoundsObserved), Some(MetricValue::U64(3)));
        assert_eq!(row.get(MetricId::CrashCount), Some(MetricValue::U64(0)));
        assert_eq!(
            row.get(MetricId::ObservedWakeupRound),
            Some(MetricValue::OptU64(Some(3)))
        );
    }

    #[test]
    fn decision_latency_is_signed() {
        let mut probes: ProbeSet<u8> = ProbeSet::from_manifest(&ProbeManifest::outcome_only());
        let mut row = MetricRow::new();
        let early = CellEnd {
            reference: 10,
            last_decision: Some(4),
            ..end()
        };
        probes.finish(&early, &mut row);
        assert_eq!(
            row.get(MetricId::DecisionLatency),
            Some(MetricValue::OptI64(Some(-6))),
            "a decision before the reference must come out negative, not saturated"
        );
    }

    #[test]
    fn cd_accuracy_counts_violations() {
        // Two senders, process 0 hears both (no loss), process 1 hears one
        // (lost one), process 2 is dead.
        let mut rec = record(1, vec![Some(1), Some(2), None], 1);
        rec.received_counts = vec![2, 1, 0];
        rec.cd = vec![CdAdvice::Collision, CdAdvice::Null, CdAdvice::Collision];
        rec.alive = vec![true, true, false];
        let mut trace: ExecutionTrace<u8> = ExecutionTrace::new(3);
        trace.push_record(rec);
        let mut probes: ProbeSet<u8> =
            ProbeSet::from_manifest(&ProbeManifest::of(&[ProbeKind::CdAccuracy]));
        let mut row = MetricRow::new();
        replay(&mut probes, &trace);
        probes.finish(&end(), &mut row);
        assert_eq!(
            row.get(MetricId::CdFalsePositives),
            Some(MetricValue::U64(1)),
            "process 0: ± with nothing lost"
        );
        assert_eq!(
            row.get(MetricId::CdMissedDetections),
            Some(MetricValue::U64(1)),
            "process 1: null with a loss"
        );
        assert_eq!(
            row.get(MetricId::CdProcessRounds),
            Some(MetricValue::U64(2)),
            "the dead process does not count"
        );
    }

    #[test]
    fn standard_manifest_excludes_checkpoint_stats() {
        // The default selection must not move when timeline probes are
        // added to the vocabulary — that would add columns to every
        // standard spec and move every golden frame digest for nothing.
        assert!(!ProbeManifest::standard()
            .kinds()
            .contains(&ProbeKind::CheckpointStats));
        let with = ProbeManifest::of(&[ProbeKind::CheckpointStats]);
        assert!(with.kinds().contains(&ProbeKind::CheckpointStats));
        assert!(with.needs_trace());
        // Same stability argument for the MAC-envelope probes: opt-in only.
        for kind in [ProbeKind::AckLatency, ProbeKind::ProgressBound] {
            assert!(!ProbeManifest::standard().kinds().contains(&kind));
            assert!(kind.needs_trace(), "{kind:?} reads per-round counts");
        }
    }

    #[test]
    fn mac_probes_read_envelopes_from_counts() {
        // Round 1: processes 0 and 1 broadcast, both deferred — each
        // receives only its own message, the non-sender nothing.
        let mut r1 = record(1, vec![Some(1), Some(2), None], 1);
        r1.received_counts = vec![1, 1, 0];
        // Round 2: 0 clears, 1 still deferred.
        let mut r2 = record(2, vec![Some(1), Some(2), None], 1);
        r2.received_counts = vec![1, 2, 1];
        // Round 3: silent — the queued attempt persists.
        let r3 = record(3, vec![None, None, None], 1);
        // Round 4: 1 finally clears, on its third attempt.
        let r4 = record(4, vec![None, Some(2), None], 1);
        let mut trace: ExecutionTrace<u8> = ExecutionTrace::new(3);
        for rec in [r1, r2, r3, r4] {
            trace.push_record(rec);
        }
        let mut probes: ProbeSet<u8> = ProbeSet::from_manifest(&ProbeManifest::of(&[
            ProbeKind::AckLatency,
            ProbeKind::ProgressBound,
        ]));
        let mut row = MetricRow::new();
        replay(&mut probes, &trace);
        probes.finish(&end(), &mut row);
        assert_eq!(
            row.get(MetricId::AckAttemptsMax),
            Some(MetricValue::U64(3)),
            "sender 1 cleared on its third consecutive attempt"
        );
        assert_eq!(
            row.get(MetricId::AckDeferralsTotal),
            Some(MetricValue::U64(3)),
            "two deferrals in round 1, one in round 2"
        );
        assert_eq!(
            row.get(MetricId::MacBlockedRounds),
            Some(MetricValue::U64(1)),
            "only round 1 delivered nothing while someone broadcast"
        );
        assert_eq!(
            row.get(MetricId::MacBlockedStreakMax),
            Some(MetricValue::U64(1))
        );
    }

    #[test]
    fn mac_cleared_count_handles_the_all_senders_round() {
        // Both alive processes broadcast and both are deferred: no alive
        // non-sender exists, so the base is recovered from the count sum.
        let mut rec = record(1, vec![Some(1), Some(2)], 1);
        rec.received_counts = vec![1, 1];
        let mut trace: ExecutionTrace<u8> = ExecutionTrace::new(2);
        trace.push_record(rec);
        let mut probes: ProbeSet<u8> = ProbeSet::from_manifest(&ProbeManifest::of(&[
            ProbeKind::AckLatency,
            ProbeKind::ProgressBound,
        ]));
        let mut row = MetricRow::new();
        replay(&mut probes, &trace);
        probes.finish(&end(), &mut row);
        assert_eq!(
            row.get(MetricId::AckDeferralsTotal),
            Some(MetricValue::U64(2))
        );
        assert_eq!(
            row.get(MetricId::MacBlockedRounds),
            Some(MetricValue::U64(1))
        );
    }

    #[test]
    fn checkpoint_stats_samples_at_event_boundaries() {
        let mut trace: ExecutionTrace<u8> = ExecutionTrace::new(3);
        trace.push_record(record(1, vec![Some(1), Some(2), None], 2));
        // Round 2: one process crashed, one alive process misses a loss.
        let mut rec = record(2, vec![Some(1), None, None], 1);
        rec.received_counts = vec![1, 0, 1];
        rec.alive = vec![true, true, false];
        trace.push_record(rec);
        trace.push_record(record(3, vec![None, None, None], 1));
        let mut probes: ProbeSet<u8> =
            ProbeSet::from_manifest_at(&ProbeManifest::of(&[ProbeKind::CheckpointStats]), &[2, 5]);
        let mut row = MetricRow::new();
        let end = CellEnd {
            reference: 1,
            last_decision: Some(2),
            terminated: true,
            safe: true,
            rounds_executed: 3,
        };
        replay(&mut probes, &trace);
        probes.finish(&end, &mut row);
        // Checkpoint 5 is past the executed horizon: only round 2 counts.
        assert_eq!(
            row.get(MetricId::CheckpointCount),
            Some(MetricValue::U64(1))
        );
        assert_eq!(
            row.get(MetricId::CheckpointAliveMin),
            Some(MetricValue::OptU64(Some(2)))
        );
        assert_eq!(
            row.get(MetricId::CheckpointCdViolations),
            Some(MetricValue::U64(1)),
            "the round-2 completeness miss is visible at the boundary"
        );
        assert_eq!(
            row.get(MetricId::CheckpointDecidedFrom),
            Some(MetricValue::OptU64(Some(2)))
        );
    }

    #[test]
    fn crash_exposure_tracks_crashes() {
        let mut rec = record(1, vec![None, None, None], 1);
        rec.crashed = vec![ProcessId(2)];
        rec.alive = vec![true, true, false];
        let mut trace: ExecutionTrace<u8> = ExecutionTrace::new(3);
        trace.push_record(rec);
        let mut second = record(2, vec![None, None, None], 1);
        second.alive = vec![true, true, false];
        trace.push_record(second);
        let mut probes: ProbeSet<u8> =
            ProbeSet::from_manifest(&ProbeManifest::of(&[ProbeKind::CrashExposure]));
        let mut row = MetricRow::new();
        replay(&mut probes, &trace);
        probes.finish(&end(), &mut row);
        assert_eq!(row.get(MetricId::CrashCount), Some(MetricValue::U64(1)));
        assert_eq!(
            row.get(MetricId::FirstCrashRound),
            Some(MetricValue::OptU64(Some(1)))
        );
        assert_eq!(
            row.get(MetricId::DeadProcessRounds),
            Some(MetricValue::U64(2))
        );
    }
}
