//! Algorithm 3 of the paper (Section 7.4): anonymous consensus **without**
//! eventual collision freedom, using an always-accurate zero-complete
//! detector (`0-AC`) and no contention manager.
//!
//! Message delivery is never guaranteed, so processes communicate through
//! the collision detector alone: with zero completeness, "somebody
//! broadcast" is always observable (Noise Lemma), and with accuracy,
//! silence is never fabricated — one reliable bit per round. The algorithm
//! walks a balanced BST over the value space in lock-step, four rounds per
//! tree step:
//!
//! 1. **vote-val** — processes whose initial value *is* the current node's
//!    value broadcast;
//! 2. **vote-left** — processes whose initial value lies in the left
//!    subtree broadcast;
//! 3. **vote-right** — symmetric;
//! 4. **recurse** — everyone (identically!) decides the node value, or
//!    descends left, right, or ascends, based on which of the three voting
//!    rounds were audible.
//!
//! Because advice is accurate and zero-complete, all non-crashed processes
//! observe the *same* audibility vector (Lemma 14/15), so the walk never
//! diverges. Theorem 3: decides within `8·lg |V|` rounds after failures
//! cease (a crash can strand the walk in a subtree holding no live values,
//! forcing a climb back up — the paper's worst-case schedule, which
//! `tests/termination_bounds.rs` reproduces).
//!
//! We number rounds within the 4-round group exactly as the paper does (the
//! recurse round broadcasts nothing; the paper notes it could be folded
//! away to turn the 8 into a 6, and keeps it for clarity — so do we).

use crate::bst::BstNode;
use crate::consensus::ConsensusAutomaton;
use crate::value::{Value, ValueDomain};
use wan_sim::{Automaton, CmAdvice, RoundInput};

/// The only message: a contentless vote.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct VoteMsg;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    VoteVal,
    VoteLeft,
    VoteRight,
    Recurse,
}

/// One process of the paper's Algorithm 3 — an
/// `(E(0-AC, NoCM), V, NOCF)`-consensus algorithm. Anonymous; ignores the
/// contention manager entirely (it is designed for environments where no
/// broadcast is ever guaranteed to be delivered, so managing contention
/// buys nothing).
#[derive(Debug, Clone)]
pub struct BstConsensus {
    domain: ValueDomain,
    initial: Value,
    curr: BstNode,
    /// Ancestors of `curr` (the explicit parent stack).
    path: Vec<BstNode>,
    /// Audibility of the three voting rounds of the current group:
    /// `nav[j] = 1` iff messages or a collision were observed
    /// (the paper's navigation advice, Definition 21).
    nav: [bool; 3],
    decided: Option<Value>,
    halted: bool,
    rounds_done: u64,
}

impl BstConsensus {
    /// A process with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is not in `domain`.
    pub fn new(domain: ValueDomain, initial: Value) -> Self {
        assert!(domain.contains(initial), "initial value outside domain");
        BstConsensus {
            domain,
            initial,
            curr: BstNode::root(domain),
            path: Vec::new(),
            nav: [false; 3],
            decided: None,
            halted: false,
            rounds_done: 0,
        }
    }

    /// The node the walk currently points at.
    pub fn current_node(&self) -> BstNode {
        self.curr
    }

    /// Current depth in the tree (root = 0).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// The value domain the walk covers.
    pub fn domain(&self) -> ValueDomain {
        self.domain
    }

    fn phase(&self) -> Phase {
        match self.rounds_done % 4 {
            0 => Phase::VoteVal,
            1 => Phase::VoteLeft,
            2 => Phase::VoteRight,
            _ => Phase::Recurse,
        }
    }
}

impl Automaton for BstConsensus {
    type Msg = VoteMsg;

    fn message(&self, _cm: CmAdvice) -> Option<VoteMsg> {
        if self.halted {
            return None;
        }
        let vote = match self.phase() {
            Phase::VoteVal => self.initial == self.curr.value(),
            Phase::VoteLeft => self.curr.in_left(self.initial),
            Phase::VoteRight => self.curr.in_right(self.initial),
            Phase::Recurse => false,
        };
        vote.then_some(VoteMsg)
    }

    fn transition(&mut self, input: RoundInput<'_, VoteMsg>) {
        let phase = self.phase();
        self.rounds_done += 1;
        if self.halted {
            return;
        }
        let audible = !input.received.is_empty() || input.cd.is_collision();
        match phase {
            Phase::VoteVal => self.nav[0] = audible,
            Phase::VoteLeft => self.nav[1] = audible,
            Phase::VoteRight => self.nav[2] = audible,
            Phase::Recurse => {
                // Lines 25-33. With an accurate detector the audible
                // child directions always exist; the guards make the
                // automaton total anyway (a false positive outside 0-AC
                // must not panic the walk).
                if self.nav[0] {
                    self.decided = Some(self.curr.value());
                    self.halted = true;
                } else if self.nav[1] && self.curr.left().is_some() {
                    self.path.push(self.curr);
                    self.curr = self.curr.left().expect("guarded");
                } else if self.nav[2] && self.curr.right().is_some() {
                    self.path.push(self.curr);
                    self.curr = self.curr.right().expect("guarded");
                } else {
                    // No votes at all (the voters crashed): climb. At the
                    // root, stay put and retry.
                    if let Some(parent) = self.path.pop() {
                        self.curr = parent;
                    }
                }
                self.nav = [false; 3];
            }
        }
    }

    fn is_contending(&self) -> bool {
        !self.halted
    }
}

impl ConsensusAutomaton for BstConsensus {
    fn initial_value(&self) -> Value {
        self.initial
    }

    fn decision(&self) -> Option<Value> {
        self.decided
    }

    fn halted(&self) -> bool {
        self.halted
    }
}

/// Builds the full anonymous process vector for a run.
pub fn processes(domain: ValueDomain, initial_values: &[Value]) -> Vec<BstConsensus> {
    initial_values
        .iter()
        .map(|&v| BstConsensus::new(domain, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ConsensusRun;
    use wan_cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
    use wan_cm::NoCm;
    use wan_sim::crash::NoCrashes;
    use wan_sim::loss::RandomLoss;
    use wan_sim::{Components, Round};

    /// Components with an always-accurate perfect-silence detector and
    /// *total* message loss: the adversarial NOCF regime the algorithm is
    /// built for.
    fn nocf_components(p_loss: f64, seed: u64) -> Components {
        Components {
            detector: Box::new(CheckedDetector::new(
                ClassDetector::new(CdClass::ZERO_AC, FreedomPolicy::Quiet, seed),
                CdClass::ZERO_AC,
            )),
            manager: Box::new(NoCm),
            loss: Box::new(RandomLoss::new(p_loss, seed)),
            crash: Box::new(NoCrashes),
        }
    }

    #[test]
    fn decides_under_total_message_loss() {
        // Nothing is ever delivered (except own messages); only the
        // detector carries information.
        let domain = ValueDomain::new(16);
        let values: Vec<Value> = [11, 2, 2, 7].into_iter().map(Value).collect();
        let procs = processes(domain, &values);
        let mut run = ConsensusRun::new(procs, nocf_components(1.0, 3));
        let outcome = run.run_to_completion(Round(200));
        assert!(outcome.terminated);
        assert!(outcome.is_safe());
        // Theorem 3 bound (no failures): 8·lg|V| rounds.
        assert!(
            outcome.last_decision().unwrap() <= Round(8 * 4),
            "decided at {:?}",
            outcome.last_decision()
        );
    }

    #[test]
    fn decides_the_min_reachable_vote_first() {
        // All processes share value 5 in V[8]; the walk goes root(mid 4) ->
        // right... check it lands exactly on 5 and everyone agrees.
        let domain = ValueDomain::new(8);
        let procs = processes(domain, &[Value(5), Value(5)]);
        let mut run = ConsensusRun::new(procs, nocf_components(1.0, 0));
        let outcome = run.run_to_completion(Round(200));
        assert_eq!(outcome.agreed_value(), Some(Value(5)));
    }

    #[test]
    fn partial_loss_also_works() {
        let domain = ValueDomain::new(32);
        let values: Vec<Value> = [30, 1, 17].into_iter().map(Value).collect();
        let procs = processes(domain, &values);
        let mut run = ConsensusRun::new(procs, nocf_components(0.6, 9));
        let outcome = run.run_to_completion(Round(400));
        assert!(outcome.terminated);
        assert!(outcome.is_safe());
    }

    #[test]
    fn walk_is_synchronized_across_processes() {
        let domain = ValueDomain::new(64);
        let values: Vec<Value> = [60, 3].into_iter().map(Value).collect();
        let mut run = ConsensusRun::new(processes(domain, &values), nocf_components(1.0, 4));
        for _ in 0..40 {
            run.step();
            let nodes: Vec<BstNode> = run
                .sim()
                .processes()
                .iter()
                .map(|p| p.current_node())
                .collect();
            assert!(
                nodes.windows(2).all(|w| w[0] == w[1]),
                "walk diverged: {nodes:?}"
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Under any loss rate, the walk stays synchronized across
            /// processes, decisions agree, and the decided value is some
            /// process's initial value.
            #[test]
            fn walk_invariants(
                seed in 0u64..5000,
                loss in 0.0f64..1.0,
                v_size in 2u64..200,
                n in 2usize..6,
            ) {
                let domain = ValueDomain::new(v_size);
                let values: Vec<Value> =
                    (0..n).map(|i| Value((seed * 13 + i as u64) % v_size)).collect();
                let mut run = ConsensusRun::new(
                    processes(domain, &values),
                    nocf_components(loss, seed),
                );
                for _ in 0..(8 * domain.bits() + 8) {
                    run.step();
                    let nodes: Vec<BstNode> = run
                        .sim()
                        .processes()
                        .iter()
                        .map(|p| p.current_node())
                        .collect();
                    prop_assert!(
                        nodes.windows(2).all(|w| w[0] == w[1]),
                        "walk diverged: {nodes:?}"
                    );
                }
                let outcome = run.outcome();
                prop_assert!(outcome.is_safe(), "{:?}", outcome.safety_violations());
                prop_assert!(outcome.terminated, "undecided within 8·lg|V|+8");
            }
        }
    }

    #[test]
    fn singleton_domain_decides_immediately() {
        let domain = ValueDomain::new(1);
        let procs = processes(domain, &[Value(0), Value(0), Value(0)]);
        let mut run = ConsensusRun::new(procs, nocf_components(1.0, 5));
        let outcome = run.run_to_completion(Round(8));
        assert_eq!(outcome.agreed_value(), Some(Value(0)));
        assert!(outcome.last_decision().unwrap() <= Round(4));
    }
}
