//! Environment component traits: collision detectors (Definition 6),
//! contention managers (Definition 8), message-loss adversaries (the
//! unconstrained receive behaviour of Definition 11), and crash adversaries
//! (Section 3.3).
//!
//! ## The writer-API convention
//!
//! Every component trait has exactly one required per-round method: a
//! writer-style `*_into` that fills a caller-provided buffer
//! ([`CollisionDetector::advise_into`], [`ContentionManager::advise_into`],
//! [`LossAdversary::deliver_into`], [`CrashAdversary::crashes_into`]). The
//! engine calls only these, so its reusable round buffers make a
//! steady-state round allocation-free. The `Vec`-returning forms
//! (`advise`, `deliver`, `crashes`) are provided wrappers over the writer
//! for tests and one-off callers; they are not meant to be overridden.
//! A component that implements no writer does not compile.
//!
//! The engine holds every component as a `Box<dyn …>`
//! ([`crate::Components`]) and calls these methods through the box.

use crate::advice::{CdAdvice, CmAdvice};
use crate::ids::{ProcessId, Round};
use crate::scenario::ScenarioEvent;
use crate::trace::TransmissionEntry;

pub use crate::matrix::DeliveryMatrix;

/// A collision detector (Definition 6): a function from per-round
/// transmission information to per-process advice.
///
/// Per the definition, a detector sees only the transmission-trace entry
/// `(c, T)` — how many processes broadcast and how many messages each process
/// received — never sender identities or message contents. Class obligations
/// (completeness/accuracy, Properties 4–9) are defined and enforced in
/// `wan-cd`.
///
/// Implement [`CollisionDetector::advise_into`]; see the module docs.
pub trait CollisionDetector {
    /// Fills `out` (length `tx.received.len()`) with advice for every
    /// process index for round `round`, given the round's transmission
    /// entry, overwriting every slot.
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]);

    /// [`CollisionDetector::advise_into`] into a fresh vector.
    fn advise(&mut self, round: Round, tx: &TransmissionEntry) -> Vec<CdAdvice> {
        let mut out = vec![CdAdvice::Null; tx.received.len()];
        self.advise_into(round, tx, &mut out);
        out
    }

    /// The round `r_acc` from which this detector guarantees accuracy
    /// (Property 9), if it declares one. Used by the harness to compute the
    /// communication stabilization time (Definition 20). `None` means the
    /// detector makes no declared accuracy promise (or it must be measured).
    fn accuracy_from(&self) -> Option<Round> {
        None
    }

    /// A scheduled scenario event addressed to the detector (see
    /// [`crate::scenario`]), applied at the start of its round, before any
    /// advice is produced. Detectors that do not understand the event
    /// ignore it (the default). Must not allocate — the engine round is
    /// gated at zero allocations.
    fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {}
}

/// What a contention manager may look at when producing advice.
///
/// The paper's formal contention managers (Definition 8) are *oblivious* —
/// they are just sets of advice traces — and implementations of that kind
/// ignore this view entirely. Practical managers (the backoff manager of
/// `wan-cm`, which the paper says one could imagine "actively monitoring the
/// channel") use the channel feedback passed to
/// [`ContentionManager::observe`]; *fair* managers used in upper-bound
/// experiments additionally use `alive`/`contending` as an oracle so they
/// never stabilize on a halted process (see `wan-cm`'s `FairWakeUp`).
#[derive(Debug, Clone, Copy)]
pub struct CmView<'a> {
    /// Number of process indices in the system.
    pub n: usize,
    /// Which processes have not crashed.
    pub alive: &'a [bool],
    /// Which processes are alive *and* still contending
    /// ([`crate::Automaton::is_contending`]).
    pub contending: &'a [bool],
}

/// A contention manager (Definition 8): a source of per-round
/// `active`/`passive` advice. Wake-up and leader-election service properties
/// (Properties 2–3) live in `wan-cm`.
///
/// Implement [`ContentionManager::advise_into`]; see the module docs.
pub trait ContentionManager {
    /// Fills `out` (length `view.n`) with advice for every process index
    /// for round `round`, overwriting every slot.
    fn advise_into(&mut self, round: Round, view: &CmView<'_>, out: &mut [CmAdvice]);

    /// [`ContentionManager::advise_into`] into a fresh vector.
    fn advise(&mut self, round: Round, view: &CmView<'_>) -> Vec<CmAdvice> {
        let mut out = vec![CmAdvice::Passive; view.n];
        self.advise_into(round, view, &mut out);
        out
    }

    /// Channel feedback after the round completes: the transmission entry
    /// and which processes broadcast. Formal managers ignore this;
    /// backoff-style managers use it to adapt (a real MAC learns the winner
    /// of an uncontended round by decoding its frame).
    fn observe(&mut self, _round: Round, _tx: &TransmissionEntry, _senders: &[ProcessId]) {}

    /// The round `r_wake` from which the manager guarantees a single active
    /// process per round (Property 2), if declared. Managers whose
    /// stabilization is emergent (backoff) return `None` and are measured
    /// from the trace instead.
    fn stabilized_from(&self) -> Option<Round> {
        None
    }

    /// A scheduled scenario event addressed to the manager (see
    /// [`crate::scenario`]), applied at the start of its round, before
    /// advice. Ignored by default; must not allocate.
    fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {}
}

/// A message-loss adversary: decides, every round, which broadcasts reach
/// which receivers.
///
/// The formal model leaves receive behaviour almost entirely unconstrained
/// ("any process can lose any arbitrary subset of messages sent by other
/// processes during any round"); an implementation of this trait *is* that
/// nondeterminism, resolved. Concrete adversaries (no loss, the total
/// collision model, partitions, random loss, and the eventual collision
/// freedom wrapper of Property 1) live in [`crate::loss`]; explicit
/// per-round delivery rows are a [`crate::Script`] column.
///
/// Implement [`LossAdversary::deliver_into`]; see the module docs.
pub trait LossAdversary {
    /// Resolves the delivery matrix for round `round`, given which
    /// processes broadcast, into `out`, whose previous contents are
    /// arbitrary (typically the last round's matrix). Implementations must
    /// start with [`DeliveryMatrix::clear_and_resize`]`(senders, n)` and may
    /// only mark deliveries from the given senders. The engine forces
    /// self-delivery afterwards, so adversaries need not handle constraint
    /// 5 themselves.
    fn deliver_into(
        &mut self,
        round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    );

    /// [`LossAdversary::deliver_into`] into a fresh matrix.
    fn deliver(&mut self, round: Round, senders: &[ProcessId], n: usize) -> DeliveryMatrix {
        let mut out = DeliveryMatrix::empty();
        self.deliver_into(round, senders, n, &mut out);
        out
    }

    /// The round `r_cf` from which the adversary guarantees eventual
    /// collision freedom (Property 1: solo broadcasts are delivered to
    /// everyone), if declared. Used for CST computation (Definition 20).
    fn collision_free_from(&self) -> Option<Round> {
        None
    }

    /// A scheduled scenario event addressed to the loss adversary (see
    /// [`crate::scenario`]), applied at the start of its round, before
    /// deliveries are resolved. Ignored by default; must not allocate.
    fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {}
}

/// A crash adversary (Section 3.3): decides which processes crash each round.
///
/// Crashes take effect at the *start* of the round: a process crashed in
/// round `r` does not broadcast in `r` and never transitions again. (The
/// formal model crashes at the transition instead — i.e. the dying process's
/// round-`r` broadcast still happens; composing our start-of-round crashes
/// with the unconstrained loss adversary recovers that behaviour.)
///
/// Implement [`CrashAdversary::crashes_into`]; see the module docs.
pub trait CrashAdversary {
    /// *Appends* the processes to crash at the start of `round` to `out`
    /// (the engine clears the buffer between rounds). Crashing an
    /// already-crashed process is a no-op.
    fn crashes_into(&mut self, round: Round, alive: &[bool], out: &mut Vec<ProcessId>);

    /// [`CrashAdversary::crashes_into`] into a fresh vector.
    fn crashes(&mut self, round: Round, alive: &[bool]) -> Vec<ProcessId> {
        let mut out = Vec::new();
        self.crashes_into(round, alive, &mut out);
        out
    }

    /// A scheduled scenario event addressed to the crash adversary (see
    /// [`crate::scenario`]), applied at the start of its round, before the
    /// round's crashes are selected. Ignored by default; must not allocate.
    fn apply_event(&mut self, _round: Round, _event: ScenarioEvent) {}
}

/// Lets a generic wrapper (`wan_cd::CheckedDetector`) take a boxed
/// detector, such as the one [`crate::Script::over`] returns. Every
/// overridable method forwards, so no declaration or event is lost.
impl CollisionDetector for Box<dyn CollisionDetector> {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        (**self).advise_into(round, tx, out)
    }
    fn accuracy_from(&self) -> Option<Round> {
        (**self).accuracy_from()
    }
    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        (**self).apply_event(round, event)
    }
}

impl CrashAdversary for Box<dyn CrashAdversary> {
    fn crashes_into(&mut self, round: Round, alive: &[bool], out: &mut Vec<ProcessId>) {
        (**self).crashes_into(round, alive, out)
    }
    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        (**self).apply_event(round, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A manager that implements the writer form: the `Vec` wrapper must
    /// serve it.
    struct IntoOnlyManager;
    impl ContentionManager for IntoOnlyManager {
        fn advise_into(&mut self, _round: Round, _view: &CmView<'_>, out: &mut [CmAdvice]) {
            out.fill(CmAdvice::Active);
        }
    }

    #[test]
    fn writer_only_implementor_serves_the_vec_form() {
        let mut m = IntoOnlyManager;
        let alive = [true; 3];
        let view = CmView {
            n: 3,
            alive: &alive,
            contending: &alive,
        };
        assert_eq!(m.advise(Round(1), &view), vec![CmAdvice::Active; 3]);
    }
}
