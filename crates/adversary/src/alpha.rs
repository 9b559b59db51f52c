//! Alpha executions (Definition 24).
//!
//! For a `V`-start algorithm `A`, index set `P` and value `v`, the alpha
//! execution `α_P(v)` is the *unique* execution in which:
//!
//! 1. every process starts with `v`,
//! 2. the contention manager designates `min(P)` as the only active process
//!    from round 1 (a `MAXLS` behaviour),
//! 3. a solo broadcast is delivered to everyone; concurrent broadcasts are
//!    delivered only to their own senders, and
//! 4. the collision detector is complete and accurate, which under rule 3
//!    pins its advice down exactly: `±` to everyone iff two or more
//!    processes broadcast.
//!
//! Alpha executions satisfy eventual collision freedom with `CST = 1` and
//! are fully deterministic, which is what makes the counting arguments of
//! Lemmas 21 and 22 (and their executable versions in
//! [`crate::sequences`]) possible.

use ccwan_core::ConsensusAutomaton;
use wan_cd::ClassDetector;
use wan_cm::LeaderElectionService;
use wan_sim::crash::NoCrashes;
use wan_sim::loss::TotalCollisionLoss;
use wan_sim::{BroadcastCount, Components, Engine, ExecutionTrace};

/// The result of running an alpha execution for `k` rounds.
pub struct AlphaExecution<A: ConsensusAutomaton> {
    /// The automata after `k` rounds.
    pub processes: Vec<A>,
    /// The recorded trace (full detail).
    pub trace: ExecutionTrace<A::Msg>,
}

impl<A: ConsensusAutomaton> AlphaExecution<A> {
    /// Runs `α` for `k` rounds over the given (freshly constructed)
    /// process vector. All processes are expected to share one initial
    /// value, but the runner does not enforce it — Theorem 8's variant
    /// reuses the same machinery with mixed values.
    pub fn run(procs: Vec<A>, k: u64) -> Self {
        let components = Components {
            detector: Box::new(ClassDetector::perfect()),
            manager: Box::new(LeaderElectionService::min_leader_from_start()),
            loss: Box::new(TotalCollisionLoss),
            crash: Box::new(NoCrashes),
        };
        let mut trace = ExecutionTrace::new(procs.len());
        let mut sim = Engine::new(procs, components);
        for _ in 0..k {
            sim.advance(&mut trace);
        }
        let processes = sim.into_processes();
        AlphaExecution { processes, trace }
    }

    /// The basic broadcast count sequence of the first `k` rounds
    /// (Definition 22).
    pub fn broadcast_seq(&self, k: usize) -> Vec<BroadcastCount> {
        self.trace.broadcast_count_seq(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccwan_core::alg2::{self, ZeroEcfConsensus};
    use ccwan_core::{Value, ValueDomain};
    use wan_sim::BroadcastCount;

    fn alpha_alg2(n: usize, size: u64, v: u64, k: u64) -> AlphaExecution<ZeroEcfConsensus> {
        let domain = ValueDomain::new(size);
        let values = vec![Value(v); n];
        AlphaExecution::run(alg2::processes(domain, &values), k)
    }

    #[test]
    fn alpha_is_deterministic() {
        let a = alpha_alg2(3, 16, 9, 20);
        let b = alpha_alg2(3, 16, 9, 20);
        assert_eq!(a.broadcast_seq(20), b.broadcast_seq(20));
    }

    #[test]
    fn corollary_2_index_set_independence() {
        // Corollary 2: alpha executions of an anonymous algorithm over
        // equal-sized disjoint index sets have the same broadcast count
        // sequence. In our dense-index model, disjointness is vacuous;
        // the meaningful check is independence from *which* automata
        // instances are used, i.e. two fresh builds agree (and different n
        // may differ).
        let a = alpha_alg2(4, 16, 5, 24);
        let b = alpha_alg2(4, 16, 5, 24);
        assert_eq!(a.broadcast_seq(24), b.broadcast_seq(24));
    }

    #[test]
    fn alg2_alpha_decides_and_seq_shape() {
        // In an alpha execution, Algorithm 2's first cycle succeeds: round 1
        // prepare is a solo broadcast by the leader, propose rounds follow
        // the (common) estimate bits, accept is silent -> decide.
        let _domain = ValueDomain::new(16); // bits = 4, cycle = 6
        let v = 9; // 1001
        let a = alpha_alg2(3, 16, v, 6);
        assert!(a.processes.iter().all(|p| p.decision() == Some(Value(v))));
        let seq = a.broadcast_seq(6);
        // prepare: One; bits 1,0,0,1 -> TwoPlus, Zero, Zero, TwoPlus (all
        // three processes broadcast on 1-bits); accept: Zero.
        assert_eq!(
            seq,
            vec![
                BroadcastCount::One,
                BroadcastCount::TwoPlus,
                BroadcastCount::Zero,
                BroadcastCount::Zero,
                BroadcastCount::TwoPlus,
                BroadcastCount::Zero,
            ]
        );
    }

    #[test]
    fn alpha_advice_is_collision_iff_contended() {
        let a = alpha_alg2(3, 16, 9, 6);
        for rec in a.trace.rounds() {
            let contended = rec.sent_count() >= 2;
            assert!(rec.cd().iter().all(|adv| adv.is_collision() == contended));
        }
    }
}
