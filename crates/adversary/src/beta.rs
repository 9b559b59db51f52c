//! The isolated executions of Theorem 9: no contention manager, and *no*
//! message is ever delivered except to its own sender.
//!
//! With an anonymous algorithm and a common initial value, all processes
//! behave identically, so each round either everyone broadcasts or no one
//! does — communication is reduced to one bit per round (silence = 0,
//! collision notification = 1), which is the heart of the `lg |V| − 1`
//! lower bound.

use ccwan_core::ConsensusAutomaton;
use wan_cd::ClassDetector;
use wan_sim::crash::NoCrashes;
use wan_sim::{
    AllActive, Components, DeliveryMatrix, Engine, ExecutionTrace, LossAdversary, ProcessId, Round,
};

/// A loss adversary that delivers nothing (the engine still forces
/// self-delivery, per constraint 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct OwnMessageOnly;

impl LossAdversary for OwnMessageOnly {
    fn deliver_into(
        &mut self,
        _round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        out.clear_and_resize(senders, n);
    }
}

/// The result of running a beta execution for `k` rounds.
pub struct BetaExecution<A: ConsensusAutomaton> {
    /// The automata after `k` rounds.
    pub processes: Vec<A>,
    /// The recorded trace.
    pub trace: ExecutionTrace<A::Msg>,
}

impl<A: ConsensusAutomaton> BetaExecution<A> {
    /// Runs `β` for `k` rounds: all-active advice, own-message-only
    /// delivery, perfect (complete and accurate) detector advice —
    /// which under this loss rule is `±` iff anyone broadcast and the
    /// observer lost something, i.e. `±` to non-broadcasters whenever
    /// `c ≥ 1` and to broadcasters whenever `c ≥ 2`.
    pub fn run(procs: Vec<A>, k: u64) -> Self {
        let components = Components {
            detector: Box::new(ClassDetector::perfect()),
            manager: Box::new(AllActive),
            loss: Box::new(OwnMessageOnly),
            crash: Box::new(NoCrashes),
        };
        let mut trace = ExecutionTrace::new(procs.len());
        let mut sim = Engine::new(procs, components);
        for _ in 0..k {
            sim.advance(&mut trace);
        }
        let processes = sim.into_processes();
        BetaExecution { processes, trace }
    }

    /// The *binary* broadcast sequence of Theorem 9: position `r` is `true`
    /// iff any process broadcast in round `r+1`.
    pub fn binary_broadcast_seq(&self, k: usize) -> Vec<bool> {
        self.trace
            .rounds()
            .take(k)
            .map(|rec| !rec.senders().is_empty())
            .collect()
    }

    /// Whether all processes broadcast in lockstep (all-or-none per round)
    /// — the symmetry at the core of the Theorem 9 argument.
    pub fn is_symmetric(&self) -> bool {
        self.trace.rounds().all(|rec| {
            let senders = rec.senders().len();
            senders == 0 || senders == self.trace.n()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccwan_core::alg4::{self, BstConsensus};
    use ccwan_core::{Value, ValueDomain};

    fn beta(n: usize, size: u64, v: u64, k: u64) -> BetaExecution<BstConsensus> {
        let domain = ValueDomain::new(size);
        let values = vec![Value(v); n];
        BetaExecution::run(alg4::processes(domain, &values), k)
    }

    #[test]
    fn uniform_start_is_symmetric() {
        let b = beta(4, 32, 19, 60);
        assert!(b.is_symmetric(), "anonymous processes diverged in beta");
    }

    #[test]
    fn bst_still_decides_in_beta() {
        // Algorithm 3 is designed for exactly this regime: it decides even
        // though no message is ever delivered.
        let b = beta(3, 32, 19, 8 * 6);
        assert!(b.processes.iter().all(|p| p.decision() == Some(Value(19))));
    }

    #[test]
    fn binary_seq_differs_between_values_eventually() {
        let b1 = beta(2, 32, 0, 40);
        let b2 = beta(2, 32, 31, 40);
        assert_ne!(
            b1.binary_broadcast_seq(40),
            b2.binary_broadcast_seq(40),
            "distinct values should eventually produce distinct vote patterns"
        );
    }

    #[test]
    fn beta_is_deterministic() {
        let a = beta(3, 16, 7, 30);
        let b = beta(3, 16, 7, 30);
        assert_eq!(a.binary_broadcast_seq(30), b.binary_broadcast_seq(30));
    }
}
