//! The round engine: executes a system `(E, A)` per Definition 11.
//!
//! The engine runs its automata against one boxed [`Components`] bundle,
//! so every system — whatever detector, manager, loss and crash types its
//! environment picks at run time — executes on the same code path.

use crate::advice::{CdAdvice, CmAdvice};
use crate::automaton::{Automaton, RoundInput};
use crate::ids::{ProcessId, Round};
use crate::multiset::MultisetView;
use crate::scenario::{CompiledSchedule, EventTarget};
use crate::trace::{Receives, RoundObserver, RoundView, TransmissionEntry};
use crate::traits::{
    CmView, CollisionDetector, ContentionManager, CrashAdversary, DeliveryMatrix, LossAdversary,
};

/// The environment components a simulation runs against (an *environment* in
/// the sense of Definition 9, plus the resolved message-loss and crash
/// nondeterminism of Definition 11), as boxed trait objects, so an
/// experiment can mix component types at run time.
pub struct Components {
    /// The collision detector (`E.CD`).
    pub detector: Box<dyn CollisionDetector>,
    /// The contention manager (`E.CM`).
    pub manager: Box<dyn ContentionManager>,
    /// The resolved message-loss behaviour.
    pub loss: Box<dyn LossAdversary>,
    /// The resolved crash behaviour.
    pub crash: Box<dyn CrashAdversary>,
}

impl std::fmt::Debug for Components {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Components").finish_non_exhaustive()
    }
}

/// A running system `(E, A)`: `n` process automata plus the environment
/// components, executing synchronized rounds and showing each one to a
/// [`RoundObserver`].
///
/// Each call to [`Engine::advance`] executes one round in the order fixed
/// by Definition 11:
///
/// 1. the crash adversary selects processes to fail;
/// 2. the contention manager produces `W_r`;
/// 3. live processes produce messages (`M_r = msg_A(C_{r-1}, W_r)`);
/// 4. the loss adversary resolves deliveries (`N_r`), with self-delivery
///    forced (constraints 4–5);
/// 5. the collision detector produces `D_r` from the transmission entry
///    `(c, T)` (constraint 6);
/// 6. live processes transition (`C_r = trans_A(C_{r-1}, N_r, D_r, W_r)`).
///
/// The engine keeps no history: what a round leaves behind is whatever
/// its observer kept (an [`crate::ExecutionTrace`] records everything,
/// `()` nothing).
pub struct Engine<A: Automaton> {
    procs: Vec<A>,
    alive: Vec<bool>,
    components: Components,
    round: Round,
    schedule: Option<CompiledSchedule>,
    buffers: RoundBuffers<A::Msg>,
}

/// The engine's reusable per-round scratch state: every buffer
/// [`Engine::advance`] needs, cleared and refilled each round instead of
/// reallocated. After warm-up (once every buffer has reached its
/// steady-state capacity) a round performs no heap allocation; the
/// observer reads the buffers through a borrowed [`RoundView`].
struct RoundBuffers<M: Ord> {
    /// This round's crashes (variable length).
    crashed: Vec<ProcessId>,
    /// `alive[i] && procs[i].is_contending()`, length `n`.
    contending: Vec<bool>,
    /// Contention-manager advice `W_r`, length `n`.
    cm: Vec<CmAdvice>,
    /// Collision-detector advice `D_r`, length `n`.
    cd: Vec<CdAdvice>,
    /// The message assignment `M_r`, length `n`.
    sent: Vec<Option<M>>,
    /// Broadcasters this round, ascending (variable length).
    senders: Vec<ProcessId>,
    /// The resolved delivery matrix `N_r` (bitset; reused via
    /// [`DeliveryMatrix::clear_and_resize`]).
    matrix: DeliveryMatrix,
    /// The receive multisets `N_r`, pooled: process `i`'s canonical
    /// `(message, multiplicity)` entries, ascending, for every `i` in
    /// turn (variable length; during assembly, one slot per receiver and
    /// distinct message).
    recv_entries: Vec<(M, usize)>,
    /// End of each process's span of `recv_entries`, length `n`.
    recv_ends: Vec<usize>,
    /// The transmission entry `(c, T)`; its `received` vector is reused.
    tx: TransmissionEntry,
    /// This round's distinct messages, ascending (variable length).
    distinct: Vec<M>,
    /// One sender mask per distinct message, each a row's width
    /// (`⌈n/64⌉` words): bit `s` of mask `d` is set iff sender `s` sent
    /// `distinct[d]`.
    masks: Vec<u64>,
}

impl<M: Ord + Clone> RoundBuffers<M> {
    fn for_n(n: usize) -> Self {
        RoundBuffers {
            crashed: Vec::new(),
            contending: vec![false; n],
            cm: vec![CmAdvice::Passive; n],
            cd: vec![CdAdvice::Null; n],
            sent: (0..n).map(|_| None).collect(),
            senders: Vec::with_capacity(n),
            matrix: DeliveryMatrix::empty(),
            recv_entries: Vec::with_capacity(n),
            recv_ends: Vec::with_capacity(n),
            tx: TransmissionEntry {
                sent_count: 0,
                received: Vec::with_capacity(n),
            },
            distinct: Vec::with_capacity(n),
            masks: Vec::new(),
        }
    }

    /// Receive assembly: each process's receive multiset `N_r[i]`, into
    /// the pooled `recv_entries`/`recv_ends`, and its count `T(i)`, from
    /// the round's messages `sent`, broadcasters `senders` and
    /// forced-diagonal delivery matrix. One kernel builds one sender mask
    /// per distinct message, then takes receiver `r`'s count of message
    /// `d` as `popcount(row_r & mask_d)` and appends the round's multisets
    /// into one pooled arena.
    ///
    /// * **Ranking and masks, one pass over the senders.** A sender whose
    ///   message equals its predecessor's (every sender of a one-message
    ///   round) costs one comparison and one bit set; any other is ranked
    ///   by binary search, inserting its message into `distinct`
    ///   (ascending) with a new zeroed mask if it is not there yet. Any
    ///   number of distinct messages, from none to one per sender, takes
    ///   this path.
    /// * **Counts.** A row holds sender bits only and the masks partition
    ///   the senders, so `T(r)`, the row's popcount, is the sum of the
    ///   receiver's per-message counts.
    /// * **Branch-free appends.** The arena has a slot for every
    ///   (receiver, message) pair. Each pair writes its entry into the
    ///   slot at the cursor and advances the cursor only if its count is
    ///   non-zero, so the kept entries are canonical (multiplicities ≥ 1)
    ///   without a data-dependent branch; the arena is cut at the cursor
    ///   afterwards. A zero-count pair costs one clone of the message;
    ///   every message type here is a small value.
    ///
    /// # Panics
    ///
    /// Panics if the matrix's declared senders are not this round's
    /// broadcasters (the [`LossAdversary`] contract), since a delivery
    /// from a silent process has no message to deliver.
    fn assemble_receives(&mut self) {
        let RoundBuffers {
            sent,
            senders,
            matrix,
            recv_entries,
            recv_ends,
            tx,
            distinct,
            masks,
            ..
        } = self;
        assert!(
            matrix.is_keyed_by(senders),
            "delivery matrix may only deliver from this round's senders"
        );
        let w = matrix.words_per_row();

        distinct.clear();
        masks.clear();
        let mut d = 0;
        for &s in senders.iter() {
            let m = sent[s.index()].as_ref().expect("senders broadcast");
            if distinct.get(d) != Some(m) {
                d = match distinct.binary_search(m) {
                    Ok(d) => d,
                    Err(at) => {
                        distinct.insert(at, m.clone());
                        masks.splice(at * w..at * w, std::iter::repeat_n(0, w));
                        at
                    }
                };
            }
            masks[d * w + s.index() / 64] |= 1 << (s.index() % 64);
        }

        // One slot per (receiver, message) pair; only the first `cursor`
        // slots are kept. New slots are filled with a clone of the round's
        // first message (there is one whenever there is a slot).
        let n = matrix.n();
        tx.received.resize(n, 0);
        recv_ends.resize(n, 0);
        recv_entries.resize_with(n * distinct.len(), || (distinct[0].clone(), 0));
        let mut cursor = 0;
        let receivers = tx.received.iter_mut().zip(recv_ends.iter_mut());
        for (row, (count_r, end_r)) in matrix.all_row_words().chunks_exact(w).zip(receivers) {
            let mut total = 0;
            for (m, mask) in distinct.iter().zip(masks.chunks_exact(w)) {
                let count: usize = row
                    .iter()
                    .zip(mask)
                    .map(|(&row_word, &mask_word)| (row_word & mask_word).count_ones() as usize)
                    .sum();
                recv_entries[cursor] = (m.clone(), count);
                cursor += usize::from(count != 0);
                total += count;
            }
            *count_r = total;
            *end_r = cursor;
        }
        recv_entries.truncate(cursor);
    }
}

impl<A: Automaton> Engine<A> {
    /// Creates an engine over the given automata and environment bundle.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty (environments are defined over non-empty
    /// index sets, Definition 9).
    pub fn new(procs: Vec<A>, components: Components) -> Self {
        assert!(!procs.is_empty(), "a system needs at least one process");
        let n = procs.len();
        Engine {
            procs,
            alive: vec![true; n],
            components,
            round: Round::ZERO,
            schedule: None,
            buffers: RoundBuffers::for_n(n),
        }
    }

    /// Installs a compiled fault-injection schedule
    /// ([`crate::scenario::ScenarioTimeline::compile`]): at the start of
    /// each round, before crashes are selected, every event scheduled for
    /// that round is routed to its target component's `apply_event` hook.
    /// An empty schedule (or none) leaves the execution bit-identical to
    /// an unscheduled engine.
    #[must_use]
    pub fn with_schedule(mut self, schedule: CompiledSchedule) -> Self {
        self.set_schedule(schedule);
        self
    }

    /// In-place form of [`Engine::with_schedule`]. Must be called before
    /// the first round — events for already-executed rounds never fire.
    pub fn set_schedule(&mut self, schedule: CompiledSchedule) {
        assert_eq!(
            self.round,
            Round::ZERO,
            "a scenario schedule must be installed before the first round"
        );
        self.schedule = Some(schedule);
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// The last completed round ([`Round::ZERO`] before the first).
    pub fn current_round(&self) -> Round {
        self.round
    }

    /// The process automata (read-only).
    pub fn processes(&self) -> &[A] {
        &self.procs
    }

    /// Which processes have not crashed. A process that halted voluntarily
    /// is still *correct* (Definition 13) and remains `true` here.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Executes one round and shows it to `observer` — the one code path
    /// that runs a round.
    ///
    /// Every phase writes through the engine's reused round buffers, so after
    /// warm-up the round itself allocates nothing: components write their
    /// advice into reused slices, the loss adversary re-keys the reused
    /// bitset matrix, and the receive multisets refill one pooled arena. The
    /// observer then reads those buffers through one borrowed
    /// [`RoundView`]; it pays for whatever it keeps (nothing for `()` or
    /// the sweep's probes, amortized arena growth for an
    /// [`crate::ExecutionTrace`]).
    pub fn advance(&mut self, observer: &mut impl RoundObserver<A::Msg>) {
        let Engine {
            procs,
            alive,
            components:
                Components {
                    detector,
                    manager,
                    loss,
                    crash,
                },
            round,
            schedule,
            buffers: buf,
        } = self;
        let n = procs.len();
        let now = round.next();

        // 0. Scheduled scenario events fire at the start of the round,
        // before any component acts: each event is routed to the component
        // family it targets. No schedule (the common case) is one branch;
        // `events_at` is an O(1) slice lookup, so the hot path stays
        // allocation-free either way.
        if let Some(schedule) = schedule {
            for &event in schedule.events_at(now) {
                match event.target() {
                    EventTarget::Crash => crash.apply_event(now, event),
                    EventTarget::Loss => loss.apply_event(now, event),
                    EventTarget::Detector => detector.apply_event(now, event),
                    EventTarget::Manager => manager.apply_event(now, event),
                }
            }
        }

        // 1. Crashes take effect at the start of the round. A process
        // counts once: the list keeps the first naming of each process
        // still alive and drops the already-dead and the repeats.
        buf.crashed.clear();
        crash.crashes_into(now, alive, &mut buf.crashed);
        buf.crashed
            .retain(|p| std::mem::replace(&mut alive[p.index()], false));

        // 2. Contention manager advice. The buffer is pre-filled with the
        // same default the Vec-form wrapper uses, so a writer that
        // (wrongly) skips slots sees `Passive` — never last round's
        // advice.
        for (slot, (i, p)) in buf.contending.iter_mut().zip(procs.iter().enumerate()) {
            *slot = alive[i] && p.is_contending();
        }
        buf.cm.fill(CmAdvice::Passive);
        manager.advise_into(
            now,
            &CmView {
                n,
                alive,
                contending: &buf.contending,
            },
            &mut buf.cm,
        );

        // 3. Message generation.
        for (slot, (i, p)) in buf.sent.iter_mut().zip(procs.iter().enumerate()) {
            *slot = if alive[i] { p.message(buf.cm[i]) } else { None };
        }
        buf.senders.clear();
        buf.senders.extend(
            buf.sent
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.is_some().then_some(ProcessId(i))),
        );

        // 4. Loss resolution; self-delivery forced (constraint 5). Receive
        // assembly also fills the transmission entry's counts `T`.
        loss.deliver_into(now, &buf.senders, n, &mut buf.matrix);
        assert_eq!(buf.matrix.n(), n, "loss adversary returned wrong arity");
        buf.matrix.force_self_delivery();
        buf.assemble_receives();

        // 5. Collision detection from the transmission entry (c, T).
        buf.tx.sent_count = buf.senders.len();
        // Pre-filled like the Vec-form wrapper's default (see step 2).
        buf.cd.fill(CdAdvice::Null);
        detector.advise_into(now, &buf.tx, &mut buf.cd);

        // 6. Transitions for live processes, each reading its span of the
        // receive arena.
        let mut from = 0;
        for (i, (p, &to)) in procs.iter_mut().zip(&buf.recv_ends).enumerate() {
            if alive[i] {
                p.transition(RoundInput {
                    round: now,
                    received: MultisetView::over(&buf.recv_entries[from..to]),
                    cd: buf.cd[i],
                    cm: buf.cm[i],
                });
            }
            from = to;
        }

        // Channel feedback for adaptive managers.
        manager.observe(now, &buf.tx, &buf.senders);

        observer.observe(&RoundView {
            round: now,
            cm: &buf.cm,
            sent: &buf.sent,
            senders: &buf.senders,
            cd: &buf.cd,
            received_counts: &buf.tx.received,
            received: Receives::Pooled {
                start: 0,
                ends: &buf.recv_ends,
                entries: &buf.recv_entries,
            },
            crashed: &buf.crashed,
            alive,
        });
        *round = now;
    }

    /// Consumes the simulation and returns the automata.
    pub fn into_processes(self) -> Vec<A> {
        self.procs
    }
}

impl<A: Automaton + std::fmt::Debug> std::fmt::Debug for Engine<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n", &self.procs.len())
            .field("round", &self.round)
            .field("alive", &self.alive)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::{CdAdvice, CmAdvice};
    use crate::crash::{NoCrashes, ScheduledCrashes};
    use crate::loss::{NoLoss, TotalCollisionLoss};
    use crate::{AllActive, AlwaysNull, ExecutionTrace, Multiset};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Broadcasts its id every round; records everything it hears.
    #[derive(Debug)]
    struct Chatter {
        id: usize,
        heard: Vec<usize>,
        collisions: usize,
    }

    impl Automaton for Chatter {
        type Msg = usize;
        fn message(&self, cm: CmAdvice) -> Option<usize> {
            cm.is_active().then_some(self.id)
        }
        fn transition(&mut self, input: RoundInput<'_, usize>) {
            self.heard.extend(input.received.support().copied());
            if input.cd == CdAdvice::Collision {
                self.collisions += 1;
            }
        }
    }

    fn chatters(n: usize) -> Vec<Chatter> {
        (0..n)
            .map(|id| Chatter {
                id,
                heard: Vec::new(),
                collisions: 0,
            })
            .collect()
    }

    /// `n` chatters under `AlwaysNull` and `AllActive`, against the given
    /// loss and crash adversaries.
    fn system(
        n: usize,
        loss: impl LossAdversary + 'static,
        crash: impl CrashAdversary + 'static,
    ) -> Engine<Chatter> {
        Engine::new(
            chatters(n),
            Components {
                detector: Box::new(AlwaysNull),
                manager: Box::new(AllActive),
                loss: Box::new(loss),
                crash: Box::new(crash),
            },
        )
    }

    /// Runs `rounds` further rounds under `observer`.
    fn run(sim: &mut Engine<Chatter>, rounds: u64, observer: &mut impl RoundObserver<usize>) {
        for _ in 0..rounds {
            sim.advance(observer);
        }
    }

    /// Renders every live view it is shown.
    #[derive(Default)]
    struct Renders(Vec<String>);

    impl RoundObserver<usize> for Renders {
        fn observe(&mut self, view: &RoundView<'_, usize>) {
            self.0.push(format!("{view:?}"));
        }
    }

    #[test]
    fn lossless_round_delivers_everything() {
        let mut sim = system(3, NoLoss, NoCrashes);
        let mut trace = ExecutionTrace::new(3);
        sim.advance(&mut trace);
        let rec = trace.round(Round(1)).expect("recorded");
        assert_eq!(rec.transmission_entry().sent_count, 3);
        assert!(rec.received_counts().iter().all(|&c| c == 3));
        for p in sim.processes() {
            assert_eq!(p.heard, vec![0, 1, 2]);
        }
    }

    #[test]
    fn total_collision_loses_contended_round_but_senders_keep_own() {
        let mut sim = system(3, TotalCollisionLoss, NoCrashes);
        sim.advance(&mut ());
        // Constraint 5: each broadcaster still received its own message.
        for (i, p) in sim.processes().iter().enumerate() {
            assert_eq!(p.heard, vec![i]);
        }
    }

    #[test]
    fn crashed_process_is_silent_forever() {
        let crash = ScheduledCrashes::new().crash(ProcessId(0), Round(2));
        let mut sim = system(2, NoLoss, crash);
        let mut trace = ExecutionTrace::new(2);
        run(&mut sim, 3, &mut trace);
        assert_eq!(sim.alive(), &[false, true]);
        // Round 1: both broadcast. Rounds 2-3: only p1.
        assert_eq!(trace.round(Round(1)).unwrap().senders().len(), 2);
        assert_eq!(trace.round(Round(2)).unwrap().senders(), [ProcessId(1)]);
        assert_eq!(trace.round(Round(3)).unwrap().senders(), [ProcessId(1)]);
        // p0 heard round 1 only; it never transitions after crashing.
        assert_eq!(sim.processes()[0].heard, vec![0, 1]);
    }

    #[test]
    fn a_process_crashed_twice_in_one_round_is_reported_once() {
        let crash = ScheduledCrashes::new()
            .crash(ProcessId(0), Round(1))
            .crash(ProcessId(0), Round(1))
            .crash(ProcessId(1), Round(2))
            .crash(ProcessId(0), Round(2));
        let mut sim = system(3, NoLoss, crash);
        let mut trace = ExecutionTrace::new(3);
        run(&mut sim, 2, &mut trace);
        assert_eq!(trace.round(Round(1)).unwrap().crashed(), [ProcessId(0)]);
        assert_eq!(
            trace.round(Round(2)).unwrap().crashed(),
            [ProcessId(1)],
            "an already-dead process is not crashed again"
        );
        assert_eq!(sim.alive(), &[false, false, true]);
    }

    #[test]
    fn the_observer_does_not_perturb_the_execution() {
        let mut watched = system(3, NoLoss, NoCrashes);
        let mut unwatched = system(3, NoLoss, NoCrashes);
        let mut trace = ExecutionTrace::new(3);
        run(&mut watched, 6, &mut trace);
        run(&mut unwatched, 6, &mut ());
        assert_eq!(trace.len(), 6, "the recorder saw every round once");
        assert_eq!(watched.current_round(), unwatched.current_round());
        for (a, b) in watched.processes().iter().zip(unwatched.processes()) {
            assert_eq!(a.heard, b.heard, "execution must be identical");
            assert_eq!(a.collisions, b.collisions);
        }
    }

    #[test]
    fn live_views_render_like_recorded_ones() {
        // The view an observer gets live over the round buffers and the
        // view the recorded trace serves afterwards are the same round,
        // byte for byte (crashes and lost messages included).
        let crash = ScheduledCrashes::new().crash(ProcessId(1), Round(3));
        let mut sim = system(3, TotalCollisionLoss, crash);
        let mut both = (ExecutionTrace::new(3), Renders::default());
        run(&mut sim, 5, &mut both);
        let (trace, Renders(live)) = both;
        let recorded: Vec<String> = trace.rounds().map(|v| format!("{v:?}")).collect();
        assert_eq!(live, recorded);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_system_rejected() {
        let _ = system(0, NoLoss, NoCrashes);
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_no_schedule() {
        use crate::scenario::ScenarioTimeline;
        let mut plain = system(3, NoLoss, NoCrashes);
        let mut scheduled =
            system(3, NoLoss, NoCrashes).with_schedule(ScenarioTimeline::new().compile());
        let (mut plain_trace, mut scheduled_trace) =
            (ExecutionTrace::new(3), ExecutionTrace::new(3));
        run(&mut plain, 5, &mut plain_trace);
        run(&mut scheduled, 5, &mut scheduled_trace);
        assert_eq!(
            format!("{plain_trace:?}"),
            format!("{scheduled_trace:?}"),
            "an empty schedule must not perturb the execution"
        );
    }

    #[test]
    fn scheduled_crash_burst_fires_through_the_engine() {
        use crate::crash::TimelineCrashes;
        use crate::scenario::{ScenarioEvent, ScenarioTimeline};
        let timeline =
            ScenarioTimeline::new().at_round(Round(3), ScenarioEvent::CrashBurst { count: 2 });
        let mut sim = system(4, NoLoss, TimelineCrashes::new()).with_schedule(timeline.compile());
        run(&mut sim, 2, &mut ());
        assert_eq!(sim.alive(), &[true; 4], "nothing fails before the event");
        run(&mut sim, 1, &mut ());
        assert_eq!(
            sim.alive(),
            &[false, false, true, true],
            "the burst takes the two lowest-indexed alive processes at its round"
        );
        run(&mut sim, 2, &mut ());
        assert_eq!(sim.alive(), &[false, false, true, true], "bursts fire once");
    }

    #[test]
    #[should_panic(expected = "before the first round")]
    fn late_schedule_install_rejected() {
        use crate::scenario::ScenarioTimeline;
        let mut sim = system(2, NoLoss, NoCrashes);
        sim.advance(&mut ());
        sim.set_schedule(ScenarioTimeline::new().compile());
    }

    /// Breaks the [`LossAdversary`] contract: keys the matrix with process
    /// 0 whether or not it broadcast, and delivers from it to everyone.
    struct RogueLoss;

    impl LossAdversary for RogueLoss {
        fn deliver_into(
            &mut self,
            _round: Round,
            senders: &[ProcessId],
            n: usize,
            out: &mut DeliveryMatrix,
        ) {
            let mut keyed = senders.to_vec();
            if !keyed.contains(&ProcessId(0)) {
                keyed.insert(0, ProcessId(0));
            }
            out.clear_and_resize(&keyed, n);
            out.deliver_all_from(ProcessId(0));
        }
    }

    #[test]
    #[should_panic(expected = "delivery matrix may only deliver from this round's senders")]
    fn delivery_from_a_non_broadcaster_rejected() {
        // Process 0 crashes before round 1, so it sends nothing.
        let crash = ScheduledCrashes::new().crash(ProcessId(0), Round(1));
        let mut sim = system(3, RogueLoss, crash);
        sim.advance(&mut ());
    }

    /// The per-delivery receive assembly the kernel replaced, kept as the
    /// reference: one sorted insert per delivered message, each count
    /// `T(i)` from a separate row popcount, and the multisets pooled in
    /// process order.
    fn reference_receives<M: Ord + Clone>(
        sent: &[Option<M>],
        matrix: &DeliveryMatrix,
    ) -> (Vec<usize>, Vec<(M, usize)>, Vec<usize>) {
        let (mut entries, mut ends) = (Vec::new(), Vec::new());
        for r in (0..matrix.n()).map(ProcessId) {
            let mut bucket = Multiset::new();
            for s in matrix.delivered_to(r) {
                let msg = sent[s.index()]
                    .as_ref()
                    .expect("delivery matrix may only deliver from this round's senders");
                bucket.insert(msg.clone());
            }
            entries.extend(bucket.iter().map(|(v, c)| (v.clone(), c)));
            ends.push(entries.len());
        }
        let counts = (0..matrix.n())
            .map(|r| matrix.received_count(ProcessId(r)))
            .collect();
        (counts, entries, ends)
    }

    /// Who broadcasts in a generated round.
    #[derive(Debug, Clone, Copy)]
    enum Broadcasters {
        Nobody,
        Everyone,
        /// Each process independently silent (crashed or passive).
        Some,
    }

    /// Fills `buf` with a random round at `n` processes: messages drawn
    /// from `alphabet` values (`None`: all distinct, in no particular
    /// order), then a delivery matrix of the given density, diagonal
    /// forced as the engine forces it.
    fn random_round(
        buf: &mut RoundBuffers<u64>,
        rng: &mut StdRng,
        n: usize,
        alphabet: Option<u64>,
        who: Broadcasters,
        density: f64,
    ) {
        for (i, slot) in buf.sent.iter_mut().enumerate() {
            let speaks = match who {
                Broadcasters::Nobody => false,
                Broadcasters::Everyone => true,
                Broadcasters::Some => rng.random_bool(0.5),
            };
            let value = match alphabet {
                Some(k) => rng.next_u64() % k,
                None => (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5555,
            };
            *slot = speaks.then_some(value);
        }
        buf.senders.clear();
        buf.senders
            .extend((0..n).filter(|&i| buf.sent[i].is_some()).map(ProcessId));
        buf.matrix.clear_and_resize(&buf.senders, n);
        for &s in &buf.senders {
            buf.matrix
                .deliver_from_where(s, |_| rng.random_bool(density));
        }
        buf.matrix.force_self_delivery();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The masked-popcount kernel equals the per-delivery reference —
        /// every count `T(i)`, the pooled entries and their ends — across
        /// widths on both sides of every word boundary, alphabets of 1, 2,
        /// 3, 16 and 17 values and all distinct (so up to `n` distinct
        /// messages), silent and crashed processes, and rounds with no
        /// senders. One buffer set per width is reused across all of its
        /// rounds, as the engine reuses it, while the alphabet grows and
        /// then shrinks again, so a stale mask, rank or entry would show.
        #[test]
        fn masked_popcount_assembly_matches_per_delivery_reference(
            seed in any::<u64>(),
            density_permille in 0u64..=1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let density = density_permille as f64 / 1000.0;
            let alphabets = [Some(1), Some(2), Some(3), Some(16), Some(17), None];
            for n in [1usize, 4, 16, 31, 32, 33, 63, 64, 65, 130] {
                let mut buf = RoundBuffers::<u64>::for_n(n);
                for &alphabet in alphabets.iter().chain(alphabets.iter().rev()) {
                    for who in [Broadcasters::Nobody, Broadcasters::Everyone, Broadcasters::Some] {
                        random_round(&mut buf, &mut rng, n, alphabet, who, density);
                        let (counts, entries, ends) = reference_receives(&buf.sent, &buf.matrix);
                        buf.assemble_receives();
                        let at = format!("n = {n}, alphabet {alphabet:?}, {who:?}");
                        prop_assert_eq!(&buf.tx.received, &counts, "{}", at);
                        prop_assert_eq!(&buf.recv_entries, &entries, "{}", at);
                        prop_assert_eq!(&buf.recv_ends, &ends, "{}", at);
                    }
                }
            }
        }
    }
}
