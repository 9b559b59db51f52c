//! Execution traces: the recorded history of a simulation, from which the
//! paper's transmission traces (Definition 4), CD/CM traces (Definitions
//! 5, 7) and basic broadcast count sequences (Definition 22) are derived.
//!
//! ## Observing rounds
//!
//! [`crate::Engine::advance`] executes one round and hands it to a
//! [`RoundObserver`] as a borrowed [`RoundView`] over the engine's own
//! round buffers. An [`ExecutionTrace`] is one such observer (it records
//! every view it is shown); the no-op `()` records nothing, and a pair
//! `(A, B)` feeds both halves. Whatever reads rounds — the trace
//! recorder, the sweep's probes, a test's own fold — reads them through
//! the same `RoundView`, live or recorded.
//!
//! ## Representation
//!
//! [`ExecutionTrace`] is a **columnar arena** (struct-of-arrays): one
//! grow-only flat buffer per column — CM advice, CD advice, receive
//! counts, liveness and the message assignment (each indexed by
//! `round * n + process`), plus pools of senders, receive-multiset
//! `(value, multiplicity)` entries and crashes, each cut into rounds by an
//! end-offset column — instead of one heap-allocated record per round.
//! Recording a round is a handful of `extend_from_slice` calls into warm
//! buffers (amortized O(1) allocation, arena growth only), and an empty
//! trace allocates nothing.
//!
//! [`RoundRecord`] remains as the owned per-round snapshot (the input to
//! [`ExecutionTrace::push_record`] and the retained representation of the
//! [`reference::ReferenceTrace`] test oracle). A `RoundView` debug-renders
//! byte-identically to the equivalent `RoundRecord`, so trace debug
//! strings and [`ExecutionTrace::fingerprint`] values are unchanged
//! across representations — the golden summaries and the
//! replay-determinism pins in the test suite carry over untouched.

use crate::advice::{CdAdvice, CmAdvice};
use crate::fingerprint::{absorb_debug, StableHasher};
use crate::ids::{ProcessId, Round};
use crate::multiset::{Multiset, MultisetView};
use std::fmt;
use std::ops::Range;

/// One entry of a transmission trace (Definition 4): the pair `(c, T)` where
/// `c` is the number of processes that broadcast this round and
/// `T(i) = |N_r[i]|` is how many messages process `i` received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransmissionEntry {
    /// `c`: how many processes broadcast this round.
    pub sent_count: usize,
    /// `T`: per-process received-message counts (length `n`).
    pub received: Vec<usize>,
}

impl TransmissionEntry {
    /// Number of process indices.
    pub fn n(&self) -> usize {
        self.received.len()
    }
}

/// The paper's three-way broadcast count of Definition 22: each round of an
/// execution is classified by whether zero, one, or two-or-more processes
/// broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BroadcastCount {
    /// No process broadcast.
    Zero,
    /// Exactly one process broadcast.
    One,
    /// Two or more processes broadcast.
    TwoPlus,
}

impl BroadcastCount {
    /// Classifies a raw sender count.
    pub fn of(count: usize) -> BroadcastCount {
        match count {
            0 => BroadcastCount::Zero,
            1 => BroadcastCount::One,
            _ => BroadcastCount::TwoPlus,
        }
    }
}

impl fmt::Display for BroadcastCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BroadcastCount::Zero => write!(f, "0"),
            BroadcastCount::One => write!(f, "1"),
            BroadcastCount::TwoPlus => write!(f, "2+"),
        }
    }
}

/// Everything that happened in one round, as an owned snapshot.
///
/// The arena-backed [`ExecutionTrace`] does not store these; it stores
/// columns and serves [`RoundView`]s. `RoundRecord` remains the *builder*
/// input ([`ExecutionTrace::push_record`]) for hand-assembled traces, the
/// output of [`RoundView::to_record`], and the retained representation of
/// the [`reference::ReferenceTrace`] oracle — its derived `Debug` is the
/// format contract every `RoundView` must render identically.
#[derive(Debug, Clone)]
pub struct RoundRecord<M: Ord> {
    /// The (1-based) round number.
    pub round: Round,
    /// Contention manager advice per process (the CM-trace entry, Def. 7).
    pub cm: Vec<CmAdvice>,
    /// The message each process broadcast, if any (the message assignment
    /// `M_r`).
    pub sent: Vec<Option<M>>,
    /// Collision detector advice per process (the CD-trace entry, Def. 5).
    pub cd: Vec<CdAdvice>,
    /// `T(i)`: how many messages each process received.
    pub received_counts: Vec<usize>,
    /// Full receive multisets (`N_r`), used by indistinguishability
    /// checks. Every engine-recorded round carries them; `None` builds a
    /// counts-only trace by hand.
    pub received: Option<Vec<Multiset<M>>>,
    /// Processes that crashed at the start of this round.
    pub crashed: Vec<ProcessId>,
    /// Liveness after this round's crashes.
    pub alive: Vec<bool>,
}

impl<M: Ord> RoundRecord<M> {
    /// The transmission-trace entry `(c, T)` for this round.
    pub fn transmission_entry(&self) -> TransmissionEntry {
        TransmissionEntry {
            sent_count: self.sent.iter().filter(|m| m.is_some()).count(),
            received: self.received_counts.clone(),
        }
    }

    /// Which processes broadcast this round, in ascending order.
    pub fn senders(&self) -> Vec<ProcessId> {
        self.sent
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.is_some().then_some(ProcessId(i)))
            .collect()
    }

    /// The basic broadcast count for this round (Definition 22).
    pub fn broadcast_count(&self) -> BroadcastCount {
        BroadcastCount::of(self.senders().len())
    }
}

/// Watches an execution round by round: [`crate::Engine::advance`] hands
/// every round it executes to its observer, once, in round order.
///
/// Observers on the sweep's hot path must not allocate per round (the
/// `engine_dispatch` bench gates the probe set at exactly zero); the trace
/// recorder pays amortized arena growth only.
pub trait RoundObserver<M: Ord> {
    /// Observes one completed round.
    fn observe(&mut self, view: &RoundView<'_, M>);
}

/// The no-op observer: the round executes and nothing is kept.
impl<M: Ord> RoundObserver<M> for () {
    fn observe(&mut self, _view: &RoundView<'_, M>) {}
}

/// Feeds every round to both observers, first `.0` then `.1`.
impl<M: Ord, A: RoundObserver<M>, B: RoundObserver<M>> RoundObserver<M> for (A, B) {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        self.0.observe(view);
        self.1.observe(view);
    }
}

/// The trace recorder: appends every observed round to the arena, receive
/// multisets included — a handful of `extend_from_slice` calls into warm
/// columns, no per-round records. A round's receive multisets arrive
/// pooled, so they append as one entry span plus its `n` ends, rebased
/// onto the trace's pool.
///
/// # Panics
///
/// Panics if the view's round is not the next round, its columns do not
/// all have length `n`, or its receive detail (multisets present or
/// absent) differs from previously recorded rounds.
impl<M: Ord + Clone> RoundObserver<M> for ExecutionTrace<M> {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        // Hard assert: the arena re-derives round numbers from position,
        // so an out-of-order append would silently rewrite the record's
        // round (and diverge from the retained-record oracle) if let
        // through in release builds.
        assert_eq!(view.round.trace_index(), self.len, "rounds append in order");
        assert_eq!(view.cm.len(), self.n, "cm arity");
        assert_eq!(view.sent.len(), self.n, "sent arity");
        assert_eq!(view.cd.len(), self.n, "cd arity");
        assert_eq!(view.received_counts.len(), self.n, "received_counts arity");
        assert_eq!(view.alive.len(), self.n, "alive arity");
        let full = view.has_receive_multisets();
        match self.recv_recorded {
            None => self.recv_recorded = Some(full),
            Some(prev) => assert_eq!(
                prev, full,
                "a trace records receive multisets for all rounds or none"
            ),
        }
        self.cm.extend_from_slice(view.cm);
        self.sent.extend_from_slice(view.sent);
        self.senders.extend_from_slice(view.senders);
        self.sender_ends.push(self.senders.len());
        self.cd.extend_from_slice(view.cd);
        self.received_counts.extend_from_slice(view.received_counts);
        if let Receives::Pooled {
            start,
            ends,
            entries,
        } = view.received
        {
            assert_eq!(ends.len(), self.n, "received arity");
            let base = self.recv_entries.len();
            let end = ends.last().map_or(start, |&end| end);
            self.recv_entries.extend_from_slice(&entries[start..end]);
            self.recv_ends
                .extend(ends.iter().map(|&end| base + (end - start)));
        }
        self.crashed.extend_from_slice(view.crashed);
        self.crash_ends.push(self.crashed.len());
        self.alive.extend_from_slice(view.alive);
        self.len += 1;
    }
}

/// The span of entry `i` in a pool cut by an end-offset column.
fn span(ends: &[usize], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    start..ends[i]
}

/// The full recorded history of a simulation, stored as a columnar arena
/// (see the module docs). Rounds are read through [`RoundView`]s.
#[derive(Clone)]
pub struct ExecutionTrace<M: Ord> {
    n: usize,
    /// Completed rounds.
    len: usize,
    /// CM advice, `len * n`.
    cm: Vec<CmAdvice>,
    /// CD advice, `len * n`.
    cd: Vec<CdAdvice>,
    /// Receive counts `T(i)`, `len * n`.
    received_counts: Vec<usize>,
    /// Liveness after the round's crashes, `len * n`.
    alive: Vec<bool>,
    /// The message assignment `M_r`, `len * n`.
    sent: Vec<Option<M>>,
    /// Broadcasters in (round, ascending process) order.
    senders: Vec<ProcessId>,
    /// End of each round's span of `senders`, `len`.
    sender_ends: Vec<usize>,
    /// Receive-multiset entries in (round, process, ascending value)
    /// order; empty when the trace records counts only.
    recv_entries: Vec<(M, usize)>,
    /// End of each `(round, process)` span of `recv_entries`, `len * n`
    /// when receive multisets are recorded.
    recv_ends: Vec<usize>,
    /// Whether receive multisets are recorded; fixed by the first
    /// appended round.
    recv_recorded: Option<bool>,
    /// Crashes in round order.
    crashed: Vec<ProcessId>,
    /// End of each round's span of `crashed`, `len`.
    crash_ends: Vec<usize>,
}

impl<M: Ord> ExecutionTrace<M> {
    /// An empty trace over `n` process indices. Allocates nothing until
    /// the first round is recorded.
    pub fn new(n: usize) -> Self {
        ExecutionTrace {
            n,
            len: 0,
            cm: Vec::new(),
            cd: Vec::new(),
            received_counts: Vec::new(),
            alive: Vec::new(),
            sent: Vec::new(),
            senders: Vec::new(),
            sender_ends: Vec::new(),
            recv_entries: Vec::new(),
            recv_ends: Vec::new(),
            recv_recorded: None,
            crashed: Vec::new(),
            crash_ends: Vec::new(),
        }
    }

    /// Number of process indices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of completed rounds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no round has completed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether receive multisets are recorded. Engine-recorded traces
    /// always carry them; `false` for hand-built counts-only traces and
    /// for empty traces.
    pub fn has_receive_multisets(&self) -> bool {
        self.recv_recorded == Some(true)
    }

    /// Appends an owned per-round snapshot — the hand-assembly path used
    /// by tests and the [`mod@reference`] oracle — by recording its view
    /// (the engine's rounds arrive through the [`RoundObserver`] impl
    /// directly).
    ///
    /// # Panics
    ///
    /// As the [`RoundObserver`] impl, and if the record's receive
    /// multisets are present but not `n` of them.
    pub fn push_record(&mut self, record: RoundRecord<M>)
    where
        M: Clone,
    {
        // Pool the record's multisets, as the engine pools a round's.
        let (mut entries, mut ends) = (Vec::new(), Vec::new());
        if let Some(received) = &record.received {
            for bucket in received {
                entries.extend(bucket.iter().map(|(v, c)| (v.clone(), c)));
                ends.push(entries.len());
            }
        }
        let senders = record.senders();
        self.observe(&RoundView {
            round: record.round,
            cm: &record.cm,
            sent: &record.sent,
            senders: &senders,
            cd: &record.cd,
            received_counts: &record.received_counts,
            received: match record.received {
                Some(_) => Receives::Pooled {
                    start: 0,
                    ends: &ends,
                    entries: &entries,
                },
                None => Receives::Absent,
            },
            crashed: &record.crashed,
            alive: &record.alive,
        });
    }

    /// The view of the round at trace position `index` (< `len`).
    fn view(&self, index: usize) -> RoundView<'_, M> {
        let cols = index * self.n..(index + 1) * self.n;
        RoundView {
            round: Round(index as u64 + 1),
            cm: &self.cm[cols.clone()],
            sent: &self.sent[cols.clone()],
            senders: &self.senders[span(&self.sender_ends, index)],
            cd: &self.cd[cols.clone()],
            received_counts: &self.received_counts[cols.clone()],
            received: if self.has_receive_multisets() {
                Receives::Pooled {
                    start: if cols.start == 0 {
                        0
                    } else {
                        self.recv_ends[cols.start - 1]
                    },
                    ends: &self.recv_ends[cols.clone()],
                    entries: &self.recv_entries,
                }
            } else {
                Receives::Absent
            },
            crashed: &self.crashed[span(&self.crash_ends, index)],
            alive: &self.alive[cols],
        }
    }

    /// The view of round `r`, if completed.
    pub fn round(&self, r: Round) -> Option<RoundView<'_, M>> {
        (r.trace_index() < self.len).then(|| self.view(r.trace_index()))
    }

    /// Iterates over all completed rounds in order.
    pub fn rounds(&self) -> impl Iterator<Item = RoundView<'_, M>> {
        (0..self.len).map(move |index| self.view(index))
    }

    /// The transmission trace (Definition 4) restricted to completed rounds.
    pub fn transmission_trace(&self) -> Vec<TransmissionEntry> {
        self.rounds().map(|r| r.transmission_entry()).collect()
    }

    /// The basic broadcast count sequence (Definition 22) over the first
    /// `k` rounds (or all completed rounds if fewer).
    pub fn broadcast_count_seq(&self, k: usize) -> Vec<BroadcastCount> {
        self.rounds().take(k).map(|r| r.broadcast_count()).collect()
    }

    /// The first round from which, in the recorded prefix, every round has at
    /// most one process advised `Active` — the *observed* wake-up
    /// stabilization point. `None` if some suffix round has two or more
    /// active processes (or the trace is empty).
    pub fn observed_wakeup_round(&self) -> Option<Round> {
        let mut candidate: Option<Round> = None;
        for rec in self.rounds() {
            if rec.active_count() == 1 {
                candidate.get_or_insert(rec.round());
            } else {
                candidate = None;
            }
        }
        candidate
    }

    /// A stable 64-bit content fingerprint of the whole recorded execution,
    /// streamed column-by-column through each round's [`RoundView`] debug
    /// rendering (which reads straight out of the arena — no per-round
    /// record is materialized) via [`StableHasher`].
    ///
    /// The stream is byte-for-byte the one the retained-record
    /// representation produced, so fingerprints are stable across the
    /// columnar refactor: two traces fingerprint equal iff their full
    /// debug renderings are byte-identical, which is exactly the
    /// replay-determinism contract the test suite pins, in 8 persistable
    /// bytes. `tests/trace_representation.rs` pins it for two cells of
    /// every scenario family, so any change to engine, component, or
    /// algorithm behavior that alters what a reference cell *does* fails
    /// those pins.
    pub fn fingerprint(&self) -> u64
    where
        M: fmt::Debug,
    {
        let mut h = StableHasher::new();
        h.write_usize(self.n);
        h.write_usize(self.len);
        for view in self.rounds() {
            absorb_debug(&mut h, &view);
        }
        h.finish()
    }

    /// Per-process observation stream used by indistinguishability checks
    /// (Definition 12): for each completed round, what process `i` sent and
    /// received plus the advice it saw. Requires full trace detail for the
    /// receive multisets.
    pub fn observations_of(&self, i: ProcessId) -> Vec<Observation<M>>
    where
        M: Clone,
    {
        self.rounds()
            .map(|rec| Observation {
                round: rec.round(),
                sent: rec.sent(i).cloned(),
                received: rec.received_of(i).map(|v| v.to_multiset()),
                received_count: rec.received_counts()[i.index()],
                cd: rec.cd()[i.index()],
                cm: rec.cm()[i.index()],
            })
            .collect()
    }
}

/// Renders exactly like the retained-record representation's derived
/// `Debug` (`ExecutionTrace { n: …, rounds: [RoundRecord { … }, …] }`), so
/// debug-rendered traces — and everything hashed from them — are
/// byte-identical across the columnar refactor.
impl<M: Ord + fmt::Debug> fmt::Debug for ExecutionTrace<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Rounds<'a, M: Ord>(&'a ExecutionTrace<M>);
        impl<M: Ord + fmt::Debug> fmt::Debug for Rounds<'_, M> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.rounds()).finish()
            }
        }
        f.debug_struct("ExecutionTrace")
            .field("n", &self.n)
            .field("rounds", &Rounds(self))
            .finish()
    }
}

/// A borrowed view of one round: the accessor type every round consumer
/// reads instead of owned `RoundRecord` fields. The engine shows each
/// round to its [`RoundObserver`] as a view over its live round buffers;
/// an [`ExecutionTrace`] serves views over its columns. Cheap to copy (a
/// handful of slices); every accessor returns a slice or value straight
/// out of the backing storage.
pub struct RoundView<'a, M: Ord> {
    pub(crate) round: Round,
    pub(crate) cm: &'a [CmAdvice],
    pub(crate) sent: &'a [Option<M>],
    /// The `Some` positions of `sent`, ascending.
    pub(crate) senders: &'a [ProcessId],
    pub(crate) cd: &'a [CdAdvice],
    pub(crate) received_counts: &'a [usize],
    pub(crate) received: Receives<'a, M>,
    pub(crate) crashed: &'a [ProcessId],
    pub(crate) alive: &'a [bool],
}

/// Where a view's receive multisets `N_r` live.
pub(crate) enum Receives<'a, M: Ord> {
    /// Not recorded (a hand-built counts-only trace).
    Absent,
    /// An entry pool — the engine's round arena (`start` 0) or a trace
    /// arena's: process `i`'s multiset spans `entries[ends[i - 1]..ends[i]]`,
    /// starting at `start` for `i = 0`.
    Pooled {
        start: usize,
        ends: &'a [usize],
        entries: &'a [(M, usize)],
    },
}

// Manual impls: the derive would demand `M: Clone`/`M: Copy`, but a view
// is a set of borrows regardless of the message type.
impl<M: Ord> Clone for Receives<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M: Ord> Copy for Receives<'_, M> {}
impl<M: Ord> Clone for RoundView<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M: Ord> Copy for RoundView<'_, M> {}

impl<'a, M: Ord> RoundView<'a, M> {
    /// The (1-based) round number.
    pub fn round(self) -> Round {
        self.round
    }

    /// Number of process indices.
    pub fn n(self) -> usize {
        self.cm.len()
    }

    /// Contention manager advice per process (the CM-trace entry, Def. 7).
    pub fn cm(self) -> &'a [CmAdvice] {
        self.cm
    }

    /// Collision detector advice per process (the CD-trace entry, Def. 5).
    pub fn cd(self) -> &'a [CdAdvice] {
        self.cd
    }

    /// `T(i)`: how many messages each process received.
    pub fn received_counts(self) -> &'a [usize] {
        self.received_counts
    }

    /// Liveness after this round's crashes.
    pub fn alive(self) -> &'a [bool] {
        self.alive
    }

    /// How many processes were alive after this round's crashes.
    pub fn alive_count(self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// How many processes were advised [`CmAdvice::Active`] this round —
    /// the quantity the wake-up stabilization analyses fold over.
    pub fn active_count(self) -> usize {
        self.cm.iter().filter(|a| a.is_active()).count()
    }

    /// Processes that crashed at the start of this round.
    pub fn crashed(self) -> &'a [ProcessId] {
        self.crashed
    }

    /// Whether process `i` broadcast this round.
    pub fn is_sender(self, i: ProcessId) -> bool {
        self.sent[i.index()].is_some()
    }

    /// `c`: how many processes broadcast this round.
    pub fn sent_count(self) -> usize {
        self.senders.len()
    }

    /// The message process `i` broadcast, if any (the entry `M_r(i)` of the
    /// round's message assignment).
    pub fn sent(self, i: ProcessId) -> Option<&'a M> {
        self.sent[i.index()].as_ref()
    }

    /// The messages broadcast this round, in ascending sender order.
    pub fn sent_messages(self) -> impl Iterator<Item = &'a M> {
        self.sent.iter().flatten()
    }

    /// Which processes broadcast this round, in ascending order.
    pub fn senders(self) -> &'a [ProcessId] {
        self.senders
    }

    fn has_receive_multisets(self) -> bool {
        !matches!(self.received, Receives::Absent)
    }

    /// Process `i`'s receive multiset `N_r[i]`; `None` only for rounds of
    /// a hand-built counts-only trace.
    pub fn received_of(self, i: ProcessId) -> Option<MultisetView<'a, M>> {
        match self.received {
            Receives::Absent => None,
            Receives::Pooled {
                start,
                ends,
                entries,
            } => {
                let i = i.index();
                let from = if i == 0 { start } else { ends[i - 1] };
                Some(MultisetView::over(&entries[from..ends[i]]))
            }
        }
    }

    /// The transmission-trace entry `(c, T)` for this round.
    pub fn transmission_entry(self) -> TransmissionEntry {
        TransmissionEntry {
            sent_count: self.sent_count(),
            received: self.received_counts.to_vec(),
        }
    }

    /// The basic broadcast count for this round (Definition 22).
    pub fn broadcast_count(self) -> BroadcastCount {
        BroadcastCount::of(self.sent_count())
    }

    /// Reassembles the owned snapshot of this round — the bridge back to
    /// the retained representation, used by the [`mod@reference`] oracle and
    /// by callers that must outlive the borrow.
    pub fn to_record(self) -> RoundRecord<M>
    where
        M: Clone,
    {
        RoundRecord {
            round: self.round,
            cm: self.cm.to_vec(),
            sent: self.sent.to_vec(),
            cd: self.cd.to_vec(),
            received_counts: self.received_counts.to_vec(),
            received: self.has_receive_multisets().then(|| {
                (0..self.n())
                    .map(|i| {
                        self.received_of(ProcessId(i))
                            .expect("full detail")
                            .to_multiset()
                    })
                    .collect()
            }),
            crashed: self.crashed.to_vec(),
            alive: self.alive.to_vec(),
        }
    }
}

/// Byte-identical to the derived `Debug` of the equivalent [`RoundRecord`]
/// — the format contract that keeps trace debug strings and fingerprints
/// stable across representations (pinned by the `views_render_like_records`
/// tests and the per-family fingerprint pins).
impl<M: Ord + fmt::Debug> fmt::Debug for RoundView<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct RecvList<'a, M: Ord>(RoundView<'a, M>);
        impl<M: Ord + fmt::Debug> fmt::Debug for RecvList<'_, M> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list()
                    .entries(
                        (0..self.0.n())
                            .map(|i| self.0.received_of(ProcessId(i)).expect("full detail")),
                    )
                    .finish()
            }
        }
        struct Recv<'a, M: Ord>(RoundView<'a, M>);
        impl<M: Ord + fmt::Debug> fmt::Debug for Recv<'_, M> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.has_receive_multisets() {
                    f.debug_tuple("Some").field(&RecvList(self.0)).finish()
                } else {
                    f.write_str("None")
                }
            }
        }
        f.debug_struct("RoundRecord")
            .field("round", &self.round)
            .field("cm", &self.cm)
            .field("sent", &self.sent)
            .field("cd", &self.cd)
            .field("received_counts", &self.received_counts)
            .field("received", &Recv(*self))
            .field("crashed", &self.crashed)
            .field("alive", &self.alive)
            .finish()
    }
}

/// One process's view of one round, per Definition 12: its outgoing message,
/// incoming message multiset, and the advice it received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation<M: Ord> {
    /// The round observed.
    pub round: Round,
    /// What this process broadcast.
    pub sent: Option<M>,
    /// What it received (when full detail was recorded).
    pub received: Option<Multiset<M>>,
    /// `|N_r[i]|` — always available.
    pub received_count: usize,
    /// Collision detector advice.
    pub cd: CdAdvice,
    /// Contention manager advice.
    pub cm: CmAdvice,
}

pub mod reference {
    //! The retained-record reference builder: an [`ExecutionTrace`]
    //! equivalent that stores one owned [`RoundRecord`] per round, exactly
    //! as the pre-columnar representation did.
    //!
    //! It exists purely as a **test oracle**: property tests push the same
    //! rounds into a [`ReferenceTrace`] and an arena-backed
    //! [`ExecutionTrace`] and assert that debug renderings and
    //! fingerprints agree, which is the contract that keeps the replay
    //! pins stable. Nothing on a hot path should use
    //! this type.

    use super::*;

    /// A trace that retains owned [`RoundRecord`]s — the pre-columnar
    /// representation, kept as the fingerprint/debug oracle.
    #[derive(Clone)]
    pub struct ReferenceTrace<M: Ord> {
        n: usize,
        rounds: Vec<RoundRecord<M>>,
    }

    impl<M: Ord> ReferenceTrace<M> {
        /// An empty reference trace over `n` process indices.
        pub fn new(n: usize) -> Self {
            ReferenceTrace {
                n,
                rounds: Vec::new(),
            }
        }

        /// Appends a completed round.
        pub fn push(&mut self, record: RoundRecord<M>) {
            debug_assert_eq!(record.round.trace_index(), self.rounds.len());
            self.rounds.push(record);
        }

        /// Rebuilds the retained form of an arena-backed trace, round by
        /// round through its views.
        pub fn from_trace(trace: &ExecutionTrace<M>) -> Self
        where
            M: Clone,
        {
            let mut out = ReferenceTrace::new(trace.n());
            for view in trace.rounds() {
                out.push(view.to_record());
            }
            out
        }

        /// The retained records.
        pub fn rounds(&self) -> &[RoundRecord<M>] {
            &self.rounds
        }

        /// The fingerprint algorithm of the retained representation:
        /// `n`, round count, then each owned record's derived debug
        /// rendering. [`ExecutionTrace::fingerprint`] must produce the
        /// same value for the same rounds.
        pub fn fingerprint(&self) -> u64
        where
            M: fmt::Debug,
        {
            let mut h = StableHasher::new();
            h.write_usize(self.n);
            h.write_usize(self.rounds.len());
            for record in &self.rounds {
                absorb_debug(&mut h, record);
            }
            h.finish()
        }
    }

    /// The derived-debug rendering of the retained representation.
    impl<M: Ord + fmt::Debug> fmt::Debug for ReferenceTrace<M> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("ExecutionTrace")
                .field("n", &self.n)
                .field("rounds", &self.rounds)
                .finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceTrace;
    use super::*;

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
            received_counts: vec![0; n],
            received: None,
            crashed: vec![],
            alive: vec![true; n],
            sent,
        }
    }

    fn full_record(round: u64, sent: Vec<Option<u8>>) -> RoundRecord<u8> {
        let n = sent.len();
        let broadcast: Multiset<u8> = sent.iter().flatten().copied().collect();
        let mut rec = record(round, sent, 1);
        rec.received_counts = vec![broadcast.total(); n];
        rec.received = Some(vec![broadcast; n]);
        rec
    }

    #[test]
    fn broadcast_count_classification() {
        assert_eq!(BroadcastCount::of(0), BroadcastCount::Zero);
        assert_eq!(BroadcastCount::of(1), BroadcastCount::One);
        assert_eq!(BroadcastCount::of(2), BroadcastCount::TwoPlus);
        assert_eq!(BroadcastCount::of(17), BroadcastCount::TwoPlus);
        assert_eq!(BroadcastCount::TwoPlus.to_string(), "2+");
    }

    #[test]
    fn trace_accumulates_and_derives() {
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(3);
        assert!(t.is_empty());
        t.push_record(record(1, vec![Some(1), None, None], 1));
        t.push_record(record(2, vec![Some(1), Some(2), None], 2));
        t.push_record(record(3, vec![None, None, None], 1));
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.broadcast_count_seq(10),
            vec![
                BroadcastCount::One,
                BroadcastCount::TwoPlus,
                BroadcastCount::Zero
            ]
        );
        assert_eq!(
            t.round(Round(2)).unwrap().senders(),
            vec![ProcessId(0), ProcessId(1)]
        );
        let tt = t.transmission_trace();
        assert_eq!(tt[1].sent_count, 2);
    }

    #[test]
    fn view_accessors_read_the_columns() {
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(3);
        t.push_record(record(1, vec![Some(7), None, Some(9)], 2));
        let v = t.round(Round(1)).unwrap();
        assert_eq!(v.round(), Round(1));
        assert_eq!(v.n(), 3);
        assert_eq!(
            v.cm(),
            [CmAdvice::Active, CmAdvice::Active, CmAdvice::Passive]
        );
        assert_eq!(v.cd(), [CdAdvice::Null; 3]);
        assert_eq!(v.received_counts(), [0, 0, 0]);
        assert_eq!(v.alive(), [true, true, true]);
        assert_eq!(v.crashed(), []);
        assert_eq!(v.sent_count(), 2);
        assert!(v.is_sender(ProcessId(0)) && !v.is_sender(ProcessId(1)));
        assert_eq!(v.sent(ProcessId(0)), Some(&7));
        assert_eq!(v.sent(ProcessId(1)), None);
        assert_eq!(v.sent(ProcessId(2)), Some(&9));
        assert!(v.sent_messages().eq(&[7, 9]));
        assert_eq!(v.senders(), vec![ProcessId(0), ProcessId(2)]);
        assert_eq!(v.broadcast_count(), BroadcastCount::TwoPlus);
        assert!(v.received_of(ProcessId(0)).is_none(), "counts-only trace");
    }

    #[test]
    fn out_of_range_rounds_are_none() {
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(2);
        assert!(t.round(Round(1)).is_none(), "empty trace has no rounds");
        t.push_record(record(1, vec![None, None], 0));
        assert!(t.round(Round(1)).is_some());
        assert!(t.round(Round(2)).is_none());
        assert!(t.round(Round(99)).is_none());
    }

    #[test]
    fn zero_process_trace_is_well_formed() {
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(0);
        assert_eq!(t.n(), 0);
        t.push_record(RoundRecord {
            round: Round(1),
            cm: vec![],
            sent: vec![],
            cd: vec![],
            received_counts: vec![],
            received: None,
            crashed: vec![],
            alive: vec![],
        });
        let v = t.round(Round(1)).unwrap();
        assert_eq!(v.sent_count(), 0);
        assert_eq!(v.senders(), vec![]);
        assert_eq!(v.cm(), [] as [CmAdvice; 0]);
        assert_eq!(v.transmission_entry().n(), 0);
        assert_eq!(t.fingerprint(), {
            let mut reference: ReferenceTrace<u8> = ReferenceTrace::new(0);
            reference.push(v.to_record());
            reference.fingerprint()
        });
    }

    #[test]
    fn full_detail_views_serve_receive_multisets() {
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(2);
        t.push_record(full_record(1, vec![Some(4), Some(4)]));
        assert!(t.has_receive_multisets());
        let v = t.round(Round(1)).unwrap();
        let m = v.received_of(ProcessId(1)).expect("full detail");
        assert_eq!(m.total(), 2);
        assert_eq!(m.count(&4), 2);
        assert_eq!(m.to_multiset(), vec![4u8, 4].into_iter().collect());
    }

    #[test]
    #[should_panic(expected = "all rounds or none")]
    fn mixed_detail_rejected() {
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(2);
        t.push_record(record(1, vec![None, None], 0));
        t.push_record(full_record(2, vec![Some(1), None]));
    }

    #[test]
    #[should_panic(expected = "received arity")]
    fn a_record_with_too_few_multisets_rejected() {
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(2);
        let mut rec = full_record(1, vec![Some(4), Some(4)]);
        rec.received.as_mut().expect("full detail").pop();
        t.push_record(rec);
    }

    #[test]
    fn pooled_rounds_append_rebased_onto_the_trace_pool() {
        // Copying a recorded trace round by round re-pools each round's
        // span from its offset in the source arena.
        let mut source: ExecutionTrace<u8> = ExecutionTrace::new(3);
        source.push_record(full_record(1, vec![Some(3), None, Some(1)]));
        source.push_record(full_record(2, vec![None, Some(2), Some(2)]));
        let mut copy: ExecutionTrace<u8> = ExecutionTrace::new(3);
        for view in source.rounds() {
            copy.observe(&view);
        }
        assert_eq!(format!("{copy:?}"), format!("{source:?}"));
        let v = copy.round(Round(2)).expect("recorded");
        assert_eq!(
            v.received_of(ProcessId(0))
                .expect("full detail")
                .to_multiset(),
            [2u8, 2].into_iter().collect()
        );
    }

    #[test]
    fn views_render_like_records() {
        // The byte-identity contract: a view's Debug output equals the
        // derived Debug of the equivalent owned record, for both detail
        // levels, and whole-trace renderings match the reference builder.
        let records = vec![
            full_record(1, vec![Some(3), None, Some(1)]),
            full_record(2, vec![None, None, None]),
        ];
        let mut arena: ExecutionTrace<u8> = ExecutionTrace::new(3);
        let mut reference: ReferenceTrace<u8> = ReferenceTrace::new(3);
        for rec in records {
            arena.push_record(rec.clone());
            reference.push(rec);
        }
        for (view, rec) in arena.rounds().zip(reference.rounds()) {
            assert_eq!(format!("{view:?}"), format!("{rec:?}"));
        }
        assert_eq!(format!("{arena:?}"), format!("{reference:?}"));
        assert_eq!(arena.fingerprint(), reference.fingerprint());

        let mut counts: ExecutionTrace<u8> = ExecutionTrace::new(2);
        let mut counts_ref: ReferenceTrace<u8> = ReferenceTrace::new(2);
        let rec = record(1, vec![Some(9), None], 1);
        counts.push_record(rec.clone());
        counts_ref.push(rec);
        assert_eq!(
            format!("{:?}", counts.round(Round(1)).unwrap()),
            format!("{:?}", counts_ref.rounds()[0])
        );
        assert_eq!(counts.fingerprint(), counts_ref.fingerprint());
    }

    #[test]
    fn round_trip_through_to_record_is_lossless() {
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(3);
        t.push_record(full_record(1, vec![Some(3), None, Some(1)]));
        let rebuilt = ReferenceTrace::from_trace(&t);
        assert_eq!(t.fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn observed_wakeup_round_finds_stable_suffix() {
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(2);
        t.push_record(record(1, vec![None, None], 2));
        t.push_record(record(2, vec![None, None], 1));
        t.push_record(record(3, vec![None, None], 1));
        assert_eq!(t.observed_wakeup_round(), Some(Round(2)));

        let mut unstable: ExecutionTrace<u8> = ExecutionTrace::new(2);
        unstable.push_record(record(1, vec![None, None], 1));
        unstable.push_record(record(2, vec![None, None], 2));
        assert_eq!(unstable.observed_wakeup_round(), None);
    }

    #[test]
    fn observations_extract_per_process_view() {
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(2);
        t.push_record(record(1, vec![Some(7), None], 1));
        let obs = t.observations_of(ProcessId(0));
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].sent, Some(7));
        assert_eq!(obs[0].cm, CmAdvice::Active);
        let obs1 = t.observations_of(ProcessId(1));
        assert_eq!(obs1[0].sent, None);
        assert_eq!(obs1[0].cm, CmAdvice::Passive);
    }

    #[test]
    fn wide_systems_cross_bitset_word_boundaries() {
        let n = 130;
        let mut sent: Vec<Option<u8>> = vec![None; n];
        sent[0] = Some(1);
        sent[63] = Some(2);
        sent[64] = Some(3);
        sent[129] = Some(4);
        let mut t: ExecutionTrace<u8> = ExecutionTrace::new(n);
        t.push_record(record(1, sent, 0));
        let v = t.round(Round(1)).unwrap();
        assert_eq!(v.sent_count(), 4);
        assert_eq!(v.sent(ProcessId(63)), Some(&2));
        assert_eq!(v.sent(ProcessId(64)), Some(&3));
        assert_eq!(v.sent(ProcessId(129)), Some(&4));
        assert_eq!(v.sent(ProcessId(128)), None);
        assert_eq!(
            v.senders(),
            vec![ProcessId(0), ProcessId(63), ProcessId(64), ProcessId(129)]
        );
    }
}
