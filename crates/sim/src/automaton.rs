//! The process automaton of Definition 1.

use crate::advice::{CdAdvice, CmAdvice};
use crate::ids::Round;
use crate::multiset::MultisetView;

/// Everything a process observes at the end of a round: the round number, the
/// multiset of messages it received (`N_r[i]`), the collision detector advice
/// (`D_r[i]`), and the contention manager advice (`W_r[i]`).
///
/// This is the argument vector of the transition function `trans_A` of
/// Definition 1 (minus the state, which is `&mut self`).
#[derive(Debug)]
pub struct RoundInput<'a, M: Ord> {
    /// The (1-based) round that is ending.
    pub round: Round,
    /// Messages received this round (`N_r[i]`), including the process's
    /// own broadcast if it sent one (constraint 5 of Definition 11). A
    /// borrowed view into the engine's receive arena, which is rebuilt
    /// every round: it offers `SET(N_r[i])` ([`MultisetView::support`],
    /// ascending), its minimum, emptiness and multiplicities, and
    /// [`MultisetView::to_multiset`] copies it out. A hand-driven
    /// automaton passes [`crate::Multiset::view`].
    pub received: MultisetView<'a, M>,
    /// Collision detector advice for this round.
    pub cd: CdAdvice,
    /// Contention manager advice for this round (the same advice that was
    /// passed to [`Automaton::message`]).
    pub cm: CmAdvice,
}

/// A process automaton (Definition 1).
///
/// Each round the engine first calls [`Automaton::message`] with the
/// contention-manager advice (the message generation function `msg_A`), then,
/// after resolving deliveries and collision detection, calls
/// [`Automaton::transition`] (the state transition function `trans_A`).
///
/// Crash failures (the `fail` state) are handled by the engine: a crashed
/// process is never asked for messages or transitions again, which is
/// observationally identical to the paper's absorbing fail state with
/// `msg_A(fail, ·) = null`.
///
/// An *algorithm* (Definition 2) is a mapping from process indices to
/// automata; in this library that is any `FnMut(ProcessId) -> A` used to
/// populate a simulation. An algorithm is *anonymous* (Definition 3) when the
/// factory ignores the index.
pub trait Automaton {
    /// The message alphabet `M`. `Ord` is required so receive sets can be
    /// `Multiset`s with a deterministic iteration order (and so `min` in the
    /// Section 7 algorithms is well-defined).
    type Msg: Clone + Ord + std::fmt::Debug;

    /// The message generation function `msg_A`: what (if anything) this
    /// process broadcasts this round, given the contention manager advice.
    ///
    /// Note this takes `&self`: per Definition 1 the message depends only on
    /// the state at the *end of the previous round*, so implementations must
    /// not mutate state here.
    fn message(&self, cm: CmAdvice) -> Option<Self::Msg>;

    /// The state transition function `trans_A`, applied at the end of every
    /// round the process is alive.
    fn transition(&mut self, input: RoundInput<'_, Self::Msg>);

    /// Whether the process is still contending for the channel. The formal
    /// model has no such notion; it exists so *fair* contention managers
    /// can avoid stabilizing on a process that has halted (`wan-cm`'s
    /// `FairWakeUp` gives the rationale). Formal (oblivious) contention
    /// managers ignore it.
    fn is_contending(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiset::Multiset;

    /// A minimal automaton used to check the trait is implementable for
    /// unit-ish state machines.
    struct Echo {
        last: Option<u8>,
    }

    impl Automaton for Echo {
        type Msg = u8;
        fn message(&self, cm: CmAdvice) -> Option<u8> {
            cm.is_active().then_some(self.last.unwrap_or(0))
        }
        fn transition(&mut self, input: RoundInput<'_, u8>) {
            self.last = input.received.min().copied();
        }
    }

    #[test]
    fn echo_transitions() {
        let mut e = Echo { last: None };
        assert_eq!(e.message(CmAdvice::Active), Some(0));
        assert_eq!(e.message(CmAdvice::Passive), None);
        let recv: Multiset<u8> = [9, 3].into_iter().collect();
        e.transition(RoundInput {
            round: Round::FIRST,
            received: recv.view(),
            cd: CdAdvice::Null,
            cm: CmAdvice::Active,
        });
        assert_eq!(e.message(CmAdvice::Active), Some(3));
        assert!(e.is_contending());
    }
}
