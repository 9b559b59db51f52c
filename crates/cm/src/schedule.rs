//! Formal (oblivious) contention managers with declared stabilization.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wan_sim::{CmAdvice, CmView, ContentionManager, ProcessId, Round};

/// What a formal manager does *before* its stabilization round. The service
/// properties say nothing about this prefix, so adversarial analyses get to
/// pick the worst case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreStabilization {
    /// Everyone active: maximum contention.
    AllActive,
    /// Everyone passive: pure silence (the Theorem 8 construction keeps the
    /// second group passive for the whole prefix).
    AllPassive,
    /// Each process active independently with probability `p` per round.
    Random {
        /// Per-process activation probability.
        p: f64,
    },
}

impl PreStabilization {
    /// Writes one round of pre-stabilization advice into `out` (one RNG
    /// draw per process, in index order, for `Random` — the stream the
    /// determinism tests pin).
    pub(crate) fn fill_advice(self, out: &mut [CmAdvice], rng: &mut StdRng) {
        match self {
            PreStabilization::AllActive => out.fill(CmAdvice::Active),
            PreStabilization::AllPassive => out.fill(CmAdvice::Passive),
            PreStabilization::Random { p } => {
                for slot in out.iter_mut() {
                    *slot = if rng.random_bool(p) {
                        CmAdvice::Active
                    } else {
                        CmAdvice::Passive
                    };
                }
            }
        }
    }
}

fn solo_into(out: &mut [CmAdvice], active: usize) {
    out.fill(CmAdvice::Passive);
    out[active] = CmAdvice::Active;
}

/// A wake-up service (Property 2) with declared stabilization round
/// `r_wake`: before it, [`PreStabilization`] chaos; from it on, exactly one
/// process is active per round.
///
/// With [`WakeUpService::rotating`], the active slot cycles through the
/// process indices after stabilization — still a valid wake-up service
/// (exactly one active per round) but *not* a leader election service,
/// exercising the gap between Properties 2 and 3.
#[derive(Debug, Clone)]
pub struct WakeUpService {
    r_wake: Round,
    designated: ProcessId,
    rotate: bool,
    pre: PreStabilization,
    rng: StdRng,
}

impl WakeUpService {
    /// A wake-up service stabilizing at `r_wake` on `designated`.
    pub fn new(r_wake: Round, designated: ProcessId, pre: PreStabilization, seed: u64) -> Self {
        WakeUpService {
            r_wake,
            designated,
            rotate: false,
            pre,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Rotate the post-stabilization active slot round-robin starting from
    /// the designated process.
    #[must_use]
    pub fn rotating(mut self) -> Self {
        self.rotate = true;
        self
    }
}

impl ContentionManager for WakeUpService {
    fn advise_into(&mut self, round: Round, view: &CmView<'_>, out: &mut [CmAdvice]) {
        if round < self.r_wake {
            self.pre.fill_advice(out, &mut self.rng);
        } else if self.rotate {
            let offset = round.since(self.r_wake) as usize;
            solo_into(out, (self.designated.index() + offset) % view.n);
        } else {
            solo_into(out, self.designated.index() % view.n);
        }
    }

    fn stabilized_from(&self) -> Option<Round> {
        Some(self.r_wake)
    }
}

/// A leader election service (Property 3): from `r_lead` on, the *same*
/// designated process is the unique active one. Lower bounds use this
/// stronger service (e.g. `MAXLS` designating `min(P)` in alpha executions,
/// Definition 24).
#[derive(Debug, Clone)]
pub struct LeaderElectionService {
    inner: WakeUpService,
}

impl LeaderElectionService {
    /// A leader election service stabilizing at `r_lead` on `leader`.
    pub fn new(r_lead: Round, leader: ProcessId, pre: PreStabilization, seed: u64) -> Self {
        LeaderElectionService {
            inner: WakeUpService::new(r_lead, leader, pre, seed),
        }
    }

    /// The `MAXLS`-style behaviour used by alpha executions (Definition 24):
    /// the minimum process index is the sole active process from round 1.
    pub fn min_leader_from_start() -> Self {
        LeaderElectionService::new(Round::FIRST, ProcessId(0), PreStabilization::AllPassive, 0)
    }

    /// The elected leader.
    pub fn leader(&self) -> ProcessId {
        self.inner.designated
    }
}

impl ContentionManager for LeaderElectionService {
    fn advise_into(&mut self, round: Round, view: &CmView<'_>, out: &mut [CmAdvice]) {
        self.inner.advise_into(round, view, out)
    }

    fn stabilized_from(&self) -> Option<Round> {
        self.inner.stabilized_from()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(n: usize, alive: &'a [bool], contending: &'a [bool]) -> CmView<'a> {
        CmView {
            n,
            alive,
            contending,
        }
    }

    fn actives(advice: &[CmAdvice]) -> Vec<usize> {
        advice
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.is_active().then_some(i))
            .collect()
    }

    #[test]
    fn wakeup_stabilizes_on_designated() {
        let alive = [true; 4];
        let mut ws = WakeUpService::new(Round(3), ProcessId(2), PreStabilization::AllActive, 0);
        let v = view(4, &alive, &alive);
        assert_eq!(actives(&ws.advise(Round(1), &v)).len(), 4);
        assert_eq!(actives(&ws.advise(Round(3), &v)), vec![2]);
        assert_eq!(actives(&ws.advise(Round(9), &v)), vec![2]);
        assert_eq!(ws.stabilized_from(), Some(Round(3)));
    }

    #[test]
    fn rotating_wakeup_is_not_a_leader_election() {
        let alive = [true; 3];
        let mut ws =
            WakeUpService::new(Round(1), ProcessId(0), PreStabilization::AllPassive, 0).rotating();
        let v = view(3, &alive, &alive);
        assert_eq!(actives(&ws.advise(Round(1), &v)), vec![0]);
        assert_eq!(actives(&ws.advise(Round(2), &v)), vec![1]);
        assert_eq!(actives(&ws.advise(Round(3), &v)), vec![2]);
        assert_eq!(actives(&ws.advise(Round(4), &v)), vec![0]);
    }

    #[test]
    fn leader_election_is_constant_after_stabilization() {
        let alive = [true; 3];
        let mut ls = LeaderElectionService::new(
            Round(2),
            ProcessId(1),
            PreStabilization::Random { p: 0.5 },
            7,
        );
        let v = view(3, &alive, &alive);
        let _ = ls.advise(Round(1), &v);
        for r in 2..10u64 {
            assert_eq!(actives(&ls.advise(Round(r), &v)), vec![1]);
        }
        assert_eq!(ls.leader(), ProcessId(1));
    }

    #[test]
    fn min_leader_from_start_matches_alpha_definition() {
        let alive = [true; 2];
        let mut ls = LeaderElectionService::min_leader_from_start();
        let v = view(2, &alive, &alive);
        assert_eq!(actives(&ls.advise(Round(1), &v)), vec![0]);
        assert_eq!(ls.stabilized_from(), Some(Round::FIRST));
    }
}
