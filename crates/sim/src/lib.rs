//! # wan-sim: the executable system model
//!
//! This crate implements, as a deterministic round-based simulator, the formal
//! model of Section 3 of Newport, *Consensus and Collision Detectors in
//! Wireless Ad Hoc Networks* (PODC 2005 / MIT M.S. thesis 2006):
//!
//! * a synchronous single-hop broadcast network of `n` crash-prone processes,
//! * **arbitrary, non-uniform message loss** — in any round, any process may
//!   lose any subset of the messages broadcast by other processes
//!   (constraint 4 of Definition 11), while broadcasters always receive their
//!   own message (constraint 5),
//! * receiver-side **collision detectors** that observe only how many
//!   messages were sent and how many each process received (Definition 6),
//! * **contention managers** that advise each process to be `Active` or
//!   `Passive` each round (Definition 8), and
//! * crash failures that silence a process permanently (Definition 13).
//!
//! The crate deliberately contains no policy: collision-detector classes live
//! in `wan-cd`, contention-manager classes in `wan-cm`, and the consensus
//! algorithms in `ccwan-core`. What lives here is the *execution* machinery
//! (Definition 11): the [`Automaton`] trait (Definition 1), the round engine
//! ([`Engine`], run against a boxed [`Components`] bundle), message-loss
//! adversaries including the eventual collision freedom wrapper
//! ([`loss::Ecf`], Property 1) and the classical *total collision model*
//! baseline of Section 1.2
//! ([`loss::TotalCollisionLoss`]), crash adversaries, [`Script`]s that
//! replay explicit per-round advice and deliveries ahead of any bundle
//! (the executions the Section 8 lower bounds choose), and full execution
//! traces ([`ExecutionTrace`], one [`RoundObserver`] of the engine's
//! rounds) from which transmission traces (Definition 4) and
//! broadcast-count sequences (Definition 22) are derived.
//!
//! Everything is deterministic given the seeds supplied to the stochastic
//! components; no wall-clock time is consulted anywhere.
//!
//! ## Example
//!
//! ```
//! use wan_sim::{Automaton, CmAdvice, RoundInput, Engine, Components};
//! use wan_sim::loss::NoLoss;
//! use wan_sim::crash::NoCrashes;
//! use wan_sim::{AlwaysNull, AllActive};
//!
//! /// A process that broadcasts its index once and counts what it hears.
//! struct Counter { id: usize, heard: usize, sent: bool }
//! impl Automaton for Counter {
//!     type Msg = usize;
//!     fn message(&self, cm: CmAdvice) -> Option<usize> {
//!         (cm == CmAdvice::Active && !self.sent).then_some(self.id)
//!     }
//!     fn transition(&mut self, input: RoundInput<'_, usize>) {
//!         self.sent = true;
//!         self.heard += input.received.total();
//!     }
//! }
//!
//! let procs = (0..4).map(|id| Counter { id, heard: 0, sent: false }).collect();
//! let mut sim = Engine::new(procs, Components {
//!     detector: Box::new(AlwaysNull),
//!     manager: Box::new(AllActive),
//!     loss: Box::new(NoLoss),
//!     crash: Box::new(NoCrashes),
//! });
//! sim.advance(&mut ()); // observe nothing; pass an `ExecutionTrace` to record
//! assert!(sim.processes().iter().all(|p| p.heard == 4));
//! ```

pub mod advice;
pub mod automaton;
pub mod crash;
pub mod engine;
pub mod fingerprint;
pub mod ids;
pub mod loss;
pub mod matrix;
pub mod multiset;
pub mod scenario;
pub mod script;
pub mod timeline;
pub mod trace;
pub mod traits;

pub use advice::{CdAdvice, CmAdvice};
pub use automaton::{Automaton, RoundInput};
pub use engine::{Components, Engine};
pub use fingerprint::{splitmix64, StableHasher};
pub use ids::{ProcessId, Round};
pub use multiset::{Multiset, MultisetView};
pub use scenario::{CompiledSchedule, EventTarget, ScenarioEvent, ScenarioTimeline, StaggeredJoin};
pub use script::Script;
pub use trace::{
    BroadcastCount, ExecutionTrace, RoundObserver, RoundRecord, RoundView, TransmissionEntry,
};
pub use traits::{
    CmView, CollisionDetector, ContentionManager, CrashAdversary, DeliveryMatrix, LossAdversary,
};

/// A trivial collision detector that returns `Null` to every process in every
/// round. It satisfies accuracy but **no** completeness property; it is used
/// by doctests and as a building block in tests. Real detector classes live
/// in `wan-cd`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysNull;

impl CollisionDetector for AlwaysNull {
    fn advise_into(&mut self, _round: Round, _tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        out.fill(CdAdvice::Null);
    }
    fn accuracy_from(&self) -> Option<Round> {
        Some(Round::FIRST)
    }
}

/// The trivial contention manager `NOCM` (Section 4.2): every process is told
/// to be `Active` in every round.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllActive;

impl ContentionManager for AllActive {
    fn advise_into(&mut self, _round: Round, _view: &CmView<'_>, out: &mut [CmAdvice]) {
        out.fill(CmAdvice::Active);
    }
}
