//! The run harness: wires an algorithm to an environment, runs to
//! completion, and assembles a judged [`ConsensusOutcome`].

use crate::checker::ConsensusOutcome;
use crate::consensus::ConsensusAutomaton;
use wan_sim::{
    Automaton, CompiledSchedule, Components, Engine, ExecutionTrace, Round, RoundObserver,
};

/// A consensus run: an [`Engine`], the [`RoundObserver`] watching it, and
/// decision-round bookkeeping.
///
/// The observer defaults to an [`ExecutionTrace`] recording every round
/// ([`ConsensusRun::trace`]); [`ConsensusRun::with_observer`] swaps in any
/// other (`()` to keep nothing, the sweep's probe set to measure live).
pub struct ConsensusRun<A: ConsensusAutomaton, O = ExecutionTrace<<A as Automaton>::Msg>> {
    sim: Engine<A>,
    observer: O,
    decision_rounds: Vec<Option<Round>>,
}

impl<A: ConsensusAutomaton> ConsensusRun<A> {
    /// Builds a recorded run over the given processes and environment
    /// components.
    pub fn new(procs: Vec<A>, components: Components) -> Self {
        let sim = Engine::new(procs, components);
        let n = sim.n();
        ConsensusRun {
            sim,
            observer: ExecutionTrace::new(n),
            decision_rounds: vec![None; n],
        }
    }

    /// The recorded execution trace.
    pub fn trace(&self) -> &ExecutionTrace<A::Msg> {
        &self.observer
    }
}

impl<A: ConsensusAutomaton, O: RoundObserver<A::Msg>> ConsensusRun<A, O> {
    /// Replaces the observer. Must be called before the first round, so
    /// the observer watches the whole execution.
    ///
    /// # Panics
    ///
    /// Panics if a round has already run.
    pub fn with_observer<P: RoundObserver<A::Msg>>(self, observer: P) -> ConsensusRun<A, P> {
        assert_eq!(
            self.sim.current_round(),
            Round::ZERO,
            "an observer must be attached before the first round"
        );
        ConsensusRun {
            sim: self.sim,
            observer,
            decision_rounds: self.decision_rounds,
        }
    }

    /// Installs a compiled fault-injection schedule on the underlying
    /// engine ([`Engine::with_schedule`]): scheduled scenario events fire
    /// at the start of their rounds, before the components act. `None` is
    /// a no-op, so callers can thread an optional timeline through without
    /// branching. Must be applied before the first round.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Option<CompiledSchedule>) -> Self {
        if let Some(schedule) = schedule {
            self.sim.set_schedule(schedule);
        }
        self
    }

    /// The underlying engine (read-only).
    pub fn sim(&self) -> &Engine<A> {
        &self.sim
    }

    /// Consumes the run and returns its observer.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Executes one round, recording any new decisions.
    pub fn step(&mut self) {
        self.sim.advance(&mut self.observer);
        self.note_decisions();
    }

    /// Records each process's *first* decision round (decisions are only
    /// recorded from round 1 on — a process decided at construction keeps
    /// `None`) and returns whether every correct (non-crashed) process has
    /// decided, in one pass over the processes.
    fn note_decisions(&mut self) -> bool {
        let round = self.sim.current_round();
        let mut all_decided = true;
        for ((slot, p), &alive) in self
            .decision_rounds
            .iter_mut()
            .zip(self.sim.processes())
            .zip(self.sim.alive())
        {
            match p.decision() {
                Some(_) if round > Round::ZERO => {
                    slot.get_or_insert(round);
                }
                Some(_) => {}
                None if alive => all_decided = false,
                None => {}
            }
        }
        all_decided
    }

    /// Whether every correct (non-crashed) process has decided.
    pub fn all_correct_decided(&self) -> bool {
        self.sim
            .processes()
            .iter()
            .zip(self.sim.alive())
            .all(|(p, &alive)| !alive || p.decision().is_some())
    }

    /// Runs until every correct process has decided, or `cap` rounds have
    /// executed. Returns the judged outcome.
    pub fn run_to_completion(&mut self, cap: Round) -> ConsensusOutcome {
        let mut done = self.all_correct_decided();
        while !done && self.sim.current_round() < cap {
            self.sim.advance(&mut self.observer);
            done = self.note_decisions();
        }
        self.outcome()
    }

    /// Runs exactly `rounds` further rounds (for adversarial prefix studies
    /// that must not stop at the first decision).
    pub fn run_rounds(&mut self, rounds: u64) -> ConsensusOutcome {
        for _ in 0..rounds {
            self.step();
        }
        self.outcome()
    }

    /// Assembles the outcome so far.
    pub fn outcome(&self) -> ConsensusOutcome {
        ConsensusOutcome {
            initial_values: self
                .sim
                .processes()
                .iter()
                .map(|p| p.initial_value())
                .collect(),
            decisions: self.sim.processes().iter().map(|p| p.decision()).collect(),
            decision_rounds: self.decision_rounds.clone(),
            correct: self.sim.alive().to_vec(),
            rounds_executed: self.sim.current_round(),
            terminated: self.all_correct_decided(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use wan_sim::crash::NoCrashes;
    use wan_sim::loss::NoLoss;
    use wan_sim::{AllActive, AlwaysNull, Automaton, CmAdvice, RoundInput};

    /// Decides its initial value at the end of round `when`.
    struct TimedDecider {
        initial: Value,
        when: u64,
        decided: Option<Value>,
    }

    impl Automaton for TimedDecider {
        type Msg = u8;
        fn message(&self, _cm: CmAdvice) -> Option<u8> {
            None
        }
        fn transition(&mut self, input: RoundInput<'_, u8>) {
            if input.round.0 >= self.when {
                self.decided = Some(self.initial);
            }
        }
        fn is_contending(&self) -> bool {
            self.decided.is_none()
        }
    }

    impl ConsensusAutomaton for TimedDecider {
        fn initial_value(&self) -> Value {
            self.initial
        }
        fn decision(&self) -> Option<Value> {
            self.decided
        }
    }

    fn components() -> Components {
        Components {
            detector: Box::new(AlwaysNull),
            manager: Box::new(AllActive),
            loss: Box::new(NoLoss),
            crash: Box::new(NoCrashes),
        }
    }

    #[test]
    fn records_decision_rounds() {
        let procs = vec![
            TimedDecider {
                initial: Value(7),
                when: 2,
                decided: None,
            },
            TimedDecider {
                initial: Value(7),
                when: 5,
                decided: None,
            },
        ];
        let mut run = ConsensusRun::new(procs, components());
        let outcome = run.run_to_completion(Round(20));
        assert!(outcome.terminated);
        assert_eq!(
            outcome.decision_rounds,
            vec![Some(Round(2)), Some(Round(5))]
        );
        assert_eq!(outcome.agreed_value(), Some(Value(7)));
        assert_eq!(outcome.rounds_executed, Round(5));
        assert!(outcome.is_safe());
    }

    #[test]
    fn cap_stops_non_terminating_runs() {
        let procs = vec![TimedDecider {
            initial: Value(0),
            when: u64::MAX,
            decided: None,
        }];
        let mut run = ConsensusRun::new(procs, components());
        let outcome = run.run_to_completion(Round(8));
        assert!(!outcome.terminated);
        assert_eq!(outcome.rounds_executed, Round(8));
        assert_eq!(outcome.first_decision(), None);
    }

    #[test]
    fn every_observer_sees_the_same_run() {
        let procs = || {
            vec![
                TimedDecider {
                    initial: Value(3),
                    when: 2,
                    decided: None,
                },
                TimedDecider {
                    initial: Value(3),
                    when: 4,
                    decided: None,
                },
            ]
        };
        let mut recorded = ConsensusRun::new(procs(), components());
        let mut unobserved = ConsensusRun::new(procs(), components()).with_observer(());
        let outcome = recorded.run_to_completion(Round(10));
        assert_eq!(outcome, unobserved.run_to_completion(Round(10)));
        assert_eq!(
            recorded.trace().len(),
            4,
            "one recorded round per round run"
        );
    }

    #[test]
    #[should_panic(expected = "before the first round")]
    fn late_observer_rejected() {
        let mut run = ConsensusRun::new(
            vec![TimedDecider {
                initial: Value(0),
                when: 9,
                decided: None,
            }],
            components(),
        );
        run.step();
        let _ = run.with_observer(());
    }
}
