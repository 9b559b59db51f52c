//! Trace validators for the contention-manager service properties.

use wan_sim::{ExecutionTrace, ProcessId, Round};

/// Verifies the wake-up service property (Property 2) on a recorded trace:
/// from `r_wake` on, exactly one process is advised `Active` each round.
/// Returns the first offending round, or `Ok(())`.
pub fn verify_wakeup<M: Ord>(trace: &ExecutionTrace<M>, r_wake: Round) -> Result<(), Round> {
    for rec in trace.rounds() {
        if rec.round() < r_wake {
            continue;
        }
        let actives = rec.cm().iter().filter(|a| a.is_active()).count();
        if actives != 1 {
            return Err(rec.round());
        }
    }
    Ok(())
}

/// Verifies the leader election service property (Property 3) on a recorded
/// trace: from `r_lead` on, the *same single* process is advised `Active`.
/// Returns the elected leader on success, or the first offending round.
pub fn verify_leader_election<M: Ord>(
    trace: &ExecutionTrace<M>,
    r_lead: Round,
) -> Result<Option<ProcessId>, Round> {
    let mut leader: Option<ProcessId> = None;
    for rec in trace.rounds() {
        if rec.round() < r_lead {
            continue;
        }
        let actives: Vec<usize> = rec
            .cm()
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.is_active().then_some(i))
            .collect();
        match (actives.as_slice(), leader) {
            ([single], None) => leader = Some(ProcessId(*single)),
            ([single], Some(l)) if *single == l.index() => {}
            _ => return Err(rec.round()),
        }
    }
    Ok(leader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{LeaderElectionService, PreStabilization, WakeUpService};
    use wan_sim::crash::NoCrashes;
    use wan_sim::loss::NoLoss;
    use wan_sim::{AlwaysNull, Automaton, CmAdvice, Components, Engine, ProcessId, RoundInput};

    /// A process that broadcasts whenever advised active.
    struct Obedient;
    impl Automaton for Obedient {
        type Msg = u8;
        fn message(&self, cm: CmAdvice) -> Option<u8> {
            cm.is_active().then_some(0)
        }
        fn transition(&mut self, _input: RoundInput<'_, u8>) {}
    }

    fn run(manager: Box<dyn wan_sim::ContentionManager>, rounds: u64) -> ExecutionTrace<u8> {
        let mut sim = Engine::new(
            (0..4).map(|_| Obedient).collect(),
            Components {
                detector: Box::new(AlwaysNull),
                manager,
                loss: Box::new(NoLoss),
                crash: Box::new(NoCrashes),
            },
        );
        let mut trace = ExecutionTrace::new(4);
        for _ in 0..rounds {
            sim.advance(&mut trace);
        }
        trace
    }

    #[test]
    fn wakeup_service_passes_wakeup_check() {
        let trace = run(
            Box::new(WakeUpService::new(
                Round(4),
                ProcessId(2),
                PreStabilization::AllActive,
                0,
            )),
            12,
        );
        assert_eq!(verify_wakeup(&trace, Round(4)), Ok(()));
        // The chaos prefix fails the check when claimed too early.
        assert_eq!(verify_wakeup(&trace, Round(1)), Err(Round(1)));
    }

    #[test]
    fn rotating_wakeup_fails_leader_election_check() {
        let trace = run(
            Box::new(
                WakeUpService::new(Round(1), ProcessId(0), PreStabilization::AllPassive, 0)
                    .rotating(),
            ),
            6,
        );
        assert_eq!(verify_wakeup(&trace, Round(1)), Ok(()));
        assert_eq!(verify_leader_election(&trace, Round(1)), Err(Round(2)));
    }

    #[test]
    fn leader_election_passes_both_checks() {
        let trace = run(
            Box::new(LeaderElectionService::new(
                Round(3),
                ProcessId(1),
                PreStabilization::AllActive,
                0,
            )),
            10,
        );
        assert_eq!(verify_wakeup(&trace, Round(3)), Ok(()));
        assert_eq!(
            verify_leader_election(&trace, Round(3)),
            Ok(Some(ProcessId(1)))
        );
    }
}
