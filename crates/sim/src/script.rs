//! Executions as data: environment choices written down round by round
//! and replayed ahead of a fallback environment.
//!
//! The Section 8 lower bounds *choose* environment behaviour inside a
//! class: Lemma 23 replays each alpha execution's collision advice into
//! `γ`, and Theorem 8 replays `γ`'s advice as `⋄AC` false positives in a
//! solo run. A [`Script`] is such a choice as plain data, which a program
//! can build as easily as a person. A collision-advice column that passes
//! `wan_cd::CheckedDetector` for a class is exactly a behaviour of the
//! maximal detector `MAXCD(class)` (Definition 15); the `MAXLS` behaviours
//! (Definition 14) are exactly the contention-advice columns that pass
//! `wan_cm::verify_leader_election`.

use crate::advice::{CdAdvice, CmAdvice};
use crate::engine::Components;
use crate::ids::{ProcessId, Round};
use crate::scenario::ScenarioEvent;
use crate::trace::TransmissionEntry;
use crate::traits::{CmView, CollisionDetector, ContentionManager, DeliveryMatrix, LossAdversary};

/// Per-round environment choices: row `r` of a column is the choice for
/// trace index `r` (round `r + 1`). Columns may differ in length, and an
/// empty one scripts nothing. Crashes are not a column: a
/// `ScheduledCrashes` fallback already scripts them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Script {
    /// Contention-manager advice, one entry per process index.
    pub cm: Vec<Vec<CmAdvice>>,
    /// Delivery rows. Replay masks a row to the round's actual senders, so
    /// a row may key every process that could send; a sender it does not
    /// key reaches no one but itself (the engine forces that delivery).
    pub deliveries: Vec<DeliveryMatrix>,
    /// Collision-detector advice, one entry per process index.
    pub cd: Vec<Vec<CdAdvice>>,
}

impl Script {
    /// The bundle that replays this script and then behaves like
    /// `fallback`. An empty column leaves its component as it is (the same
    /// box, the same declaration). A column of `len` rows replays them for
    /// rounds `1..=len` (panicking on a row of the wrong arity) without
    /// calling the fallback at all, so the fallback acts from round
    /// `len + 1` on as a fresh one would. It declares `r_acc`, `r_wake` or
    /// `r_cf` as the fallback does, but no earlier than round `len + 1`; a
    /// fallback that declares nothing still declares nothing. The crash
    /// adversary is always the fallback's.
    pub fn over(self, mut fallback: Components) -> Components {
        if !self.cd.is_empty() {
            fallback.detector = Box::new(Replay(self.cd, fallback.detector));
        }
        if !self.cm.is_empty() {
            fallback.manager = Box::new(Replay(self.cm, fallback.manager));
        }
        if !self.deliveries.is_empty() {
            fallback.loss = Box::new(Replay(self.deliveries, fallback.loss));
        }
        fallback
    }
}

/// One scripted column (its rows) ahead of its fallback component.
struct Replay<Row, F: ?Sized>(Vec<Row>, Box<F>);

impl<Row, F: ?Sized> Replay<Row, F> {
    /// The scripted row of `round`, if the script reaches it.
    fn row(&self, round: Round) -> Option<&Row> {
        self.0.get(round.trace_index())
    }

    /// The fallback's declaration, moved no earlier than the first
    /// unscripted round.
    fn declared(&self, fallback: Option<Round>) -> Option<Round> {
        fallback.map(|r| r.max(Round(self.0.len() as u64 + 1)))
    }
}

/// Copies a scripted advice row into `out`, panicking on an arity mismatch.
fn copy_row<T: Copy>(row: &[T], out: &mut [T], column: &str, round: Round) {
    assert_eq!(
        row.len(),
        out.len(),
        "scripted {column} arity mismatch at {round}"
    );
    out.copy_from_slice(row);
}

impl CollisionDetector for Replay<Vec<CdAdvice>, dyn CollisionDetector> {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        match self.row(round) {
            Some(row) => copy_row(row, out, "CD advice", round),
            None => self.1.advise_into(round, tx, out),
        }
    }

    fn accuracy_from(&self) -> Option<Round> {
        self.declared(self.1.accuracy_from())
    }

    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        if self.row(round).is_none() {
            self.1.apply_event(round, event);
        }
    }
}

impl ContentionManager for Replay<Vec<CmAdvice>, dyn ContentionManager> {
    fn advise_into(&mut self, round: Round, view: &CmView<'_>, out: &mut [CmAdvice]) {
        match self.row(round) {
            Some(row) => copy_row(row, out, "CM advice", round),
            None => self.1.advise_into(round, view, out),
        }
    }

    fn observe(&mut self, round: Round, tx: &TransmissionEntry, senders: &[ProcessId]) {
        if self.row(round).is_none() {
            self.1.observe(round, tx, senders);
        }
    }

    fn stabilized_from(&self) -> Option<Round> {
        self.declared(self.1.stabilized_from())
    }

    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        if self.row(round).is_none() {
            self.1.apply_event(round, event);
        }
    }
}

impl LossAdversary for Replay<DeliveryMatrix, dyn LossAdversary> {
    fn deliver_into(
        &mut self,
        round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        let Some(row) = self.row(round) else {
            return self.1.deliver_into(round, senders, n, out);
        };
        assert_eq!(row.n(), n, "scripted delivery arity mismatch at {round}");
        out.clear_and_resize(senders, n);
        for r in (0..n).map(ProcessId) {
            out.deliver_row_mask(r, row.row_words(r));
        }
    }

    fn collision_free_from(&self) -> Option<Round> {
        self.declared(self.1.collision_free_from())
    }

    fn apply_event(&mut self, round: Round, event: ScenarioEvent) {
        if self.row(round).is_none() {
            self.1.apply_event(round, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::NoCrashes;
    use crate::loss::{NoLoss, RandomLoss};
    use crate::AllActive;

    fn tx(c: usize, t: Vec<usize>) -> TransmissionEntry {
        TransmissionEntry {
            sent_count: c,
            received: t,
        }
    }

    fn pids(ids: &[usize]) -> Vec<ProcessId> {
        ids.iter().copied().map(ProcessId).collect()
    }

    fn view<'a>(n: usize, alive: &'a [bool]) -> CmView<'a> {
        CmView {
            n,
            alive,
            contending: alive,
        }
    }

    /// A detector that declares `r_acc` and reports `±` to everyone (so
    /// its advice is told apart from a script's) until a
    /// `CdSwitch { slot: 0 }` event quiets it.
    struct Switchable {
        r_acc: Option<Round>,
        advice: CdAdvice,
    }

    impl CollisionDetector for Switchable {
        fn advise_into(&mut self, _round: Round, _tx: &TransmissionEntry, out: &mut [CdAdvice]) {
            out.fill(self.advice);
        }
        fn accuracy_from(&self) -> Option<Round> {
            self.r_acc
        }
        fn apply_event(&mut self, _round: Round, event: ScenarioEvent) {
            if event == (ScenarioEvent::CdSwitch { slot: 0 }) {
                self.advice = CdAdvice::Null;
            }
        }
    }

    fn switchable(r_acc: Option<Round>) -> Box<dyn CollisionDetector> {
        Box::new(Switchable {
            r_acc,
            advice: CdAdvice::Collision,
        })
    }

    /// A manager that declares `r_wake` and tells everyone to be passive.
    struct Passive(Option<Round>);

    impl ContentionManager for Passive {
        fn advise_into(&mut self, _round: Round, _view: &CmView<'_>, out: &mut [CmAdvice]) {
            out.fill(CmAdvice::Passive);
        }
        fn stabilized_from(&self) -> Option<Round> {
            self.0
        }
    }

    fn fallback(r_acc: Option<Round>, r_wake: Option<Round>) -> Components {
        Components {
            detector: switchable(r_acc),
            manager: Box::new(Passive(r_wake)),
            loss: Box::new(NoLoss),
            crash: Box::new(NoCrashes),
        }
    }

    #[test]
    fn replays_cd_script_then_falls_back() {
        let script = Script {
            cd: vec![
                vec![CdAdvice::Collision, CdAdvice::Null],
                vec![CdAdvice::Null, CdAdvice::Null],
            ],
            ..Script::default()
        };
        let mut d = script.over(fallback(Some(Round::FIRST), None)).detector;
        assert_eq!(
            d.advise(Round(1), &tx(0, vec![0, 0])),
            vec![CdAdvice::Collision, CdAdvice::Null]
        );
        assert_eq!(
            d.advise(Round(2), &tx(0, vec![0, 0])),
            vec![CdAdvice::Null, CdAdvice::Null]
        );
        // Past the script: the fallback's behaviour.
        assert_eq!(
            d.advise(Round(3), &tx(2, vec![2, 1])),
            vec![CdAdvice::Collision; 2]
        );
    }

    #[test]
    fn replays_cm_script_then_falls_back() {
        let script = Script {
            cm: vec![vec![CmAdvice::Active, CmAdvice::Active]],
            ..Script::default()
        };
        let mut cm = script.over(fallback(None, Some(Round::FIRST))).manager;
        let alive = [true; 2];
        assert_eq!(
            cm.advise(Round(1), &view(2, &alive)),
            vec![CmAdvice::Active; 2]
        );
        assert_eq!(
            cm.advise(Round(2), &view(2, &alive)),
            vec![CmAdvice::Passive; 2]
        );
    }

    #[test]
    fn replays_delivery_rows_then_falls_back() {
        // One row that loses everything; the lossless fallback after it.
        let script = Script {
            deliveries: vec![DeliveryMatrix::none(&pids(&[0, 1]), 2)],
            ..Script::default()
        };
        let mut adv = script.over(fallback(None, None)).loss;
        let r1 = adv.deliver(Round(1), &pids(&[0]), 2);
        assert!(!r1.delivered(ProcessId(0), ProcessId(1)));
        let r2 = adv.deliver(Round(2), &pids(&[0]), 2);
        assert!(r2.delivered(ProcessId(0), ProcessId(1)));
    }

    #[test]
    fn delivery_row_keyed_by_everyone_delivers_only_from_the_senders() {
        let n = 70; // multi-word rows
        let everyone: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let script = Script {
            deliveries: vec![DeliveryMatrix::full(&everyone, n)],
            ..Script::default()
        };
        let mut adv = script.over(fallback(None, None)).loss;
        let senders = pids(&[3, 64]);
        let m = adv.deliver(Round(1), &senders, n);
        assert_eq!(m, DeliveryMatrix::full(&senders, n));
        assert_eq!(m.senders().collect::<Vec<_>>(), senders);
        assert!(everyone.iter().all(|&r| m.received_count(r) == 2));
    }

    #[test]
    fn declarations_are_the_fallbacks_but_no_earlier_than_the_first_unscripted_round() {
        let script = |len: usize| Script {
            cm: vec![vec![CmAdvice::Active; 2]; len],
            deliveries: vec![DeliveryMatrix::none(&pids(&[0, 1]), 2); len],
            cd: vec![vec![CdAdvice::Null; 2]; len],
        };
        // An earlier fallback declaration moves to round len + 1...
        let c = script(3).over(fallback(Some(Round::FIRST), Some(Round(2))));
        assert_eq!(c.detector.accuracy_from(), Some(Round(4)));
        assert_eq!(c.manager.stabilized_from(), Some(Round(4)));
        assert_eq!(c.loss.collision_free_from(), Some(Round(4)));
        // ...a later one stands...
        let c = script(3).over(fallback(Some(Round(9)), Some(Round(4))));
        assert_eq!(c.detector.accuracy_from(), Some(Round(9)));
        assert_eq!(c.manager.stabilized_from(), Some(Round(4)));
        // ...and none stays none.
        let c = script(3).over(fallback(None, None));
        assert_eq!(c.detector.accuracy_from(), None);
        assert_eq!(c.manager.stabilized_from(), None);
        // An empty column keeps its fallback's declaration.
        let c = Script::default().over(fallback(Some(Round::FIRST), Some(Round(2))));
        assert_eq!(c.detector.accuracy_from(), Some(Round::FIRST));
        assert_eq!(c.manager.stabilized_from(), Some(Round(2)));
        assert_eq!(c.loss.collision_free_from(), Some(Round::FIRST));
    }

    #[test]
    fn a_seeded_fallback_resumes_as_a_fresh_copy_would_after_the_script() {
        let len = 3;
        let n = 5;
        let senders = pids(&[0, 2, 4]);
        let script = Script {
            deliveries: vec![DeliveryMatrix::none(&senders, n); len],
            ..Script::default()
        };
        let mut adv = script
            .over(Components {
                loss: Box::new(RandomLoss::new(0.5, 11)),
                ..fallback(None, None)
            })
            .loss;
        let mut fresh = RandomLoss::new(0.5, 11);
        for round in 1..=len as u64 {
            assert_eq!(
                adv.deliver(Round(round), &senders, n),
                DeliveryMatrix::none(&senders, n)
            );
        }
        for round in len as u64 + 1..len as u64 + 10 {
            assert_eq!(
                adv.deliver(Round(round), &senders, n),
                fresh.deliver(Round(round), &senders, n),
                "round {round}"
            );
        }
    }

    /// The declaration through a generic consumer (as `CheckedDetector`
    /// reads it): only `Box<dyn CollisionDetector>`'s forwarding impl
    /// serves this call.
    fn declared_r_acc<D: CollisionDetector>(d: &D) -> Option<Round> {
        d.accuracy_from()
    }

    /// An event through a generic consumer: only the forwarding impl
    /// serves this call.
    fn hand_event<D: CollisionDetector>(d: &mut D, round: Round, event: ScenarioEvent) {
        d.apply_event(round, event);
    }

    #[test]
    fn boxed_detectors_forward_declaration_and_events_to_generic_wrappers() {
        let quiet = ScenarioEvent::CdSwitch { slot: 0 };
        let silence = tx(0, vec![0, 0]);
        let script = Script {
            cd: vec![vec![CdAdvice::Null; 2]],
            ..Script::default()
        };
        let mut d = script.over(fallback(Some(Round::FIRST), None)).detector;
        assert_eq!(declared_r_acc(&d), Some(Round(2)));
        // An event in a scripted round does not reach the fallback...
        hand_event(&mut d, Round(1), quiet);
        assert_eq!(d.advise(Round(2), &silence), vec![CdAdvice::Collision; 2]);
        // ...one after the script does.
        hand_event(&mut d, Round(3), quiet);
        assert_eq!(d.advise(Round(3), &silence), vec![CdAdvice::Null; 2]);
        // The same holds for any boxed detector.
        let mut plain = switchable(Some(Round(5)));
        assert_eq!(declared_r_acc(&plain), Some(Round(5)));
        hand_event(&mut plain, Round(1), quiet);
        assert_eq!(plain.advise(Round(1), &silence), vec![CdAdvice::Null; 2]);
    }

    #[test]
    #[should_panic(expected = "scripted CD advice arity mismatch at r1")]
    fn cd_arity_mismatch_panics() {
        let script = Script {
            cd: vec![vec![CdAdvice::Null]],
            ..Script::default()
        };
        let _ = script
            .over(fallback(None, None))
            .detector
            .advise(Round(1), &tx(0, vec![0, 0]));
    }

    #[test]
    #[should_panic(expected = "scripted CM advice arity mismatch at r1")]
    fn cm_arity_mismatch_panics() {
        let script = Script {
            cm: vec![vec![CmAdvice::Active]],
            ..Script::default()
        };
        let alive = [true; 2];
        let _ = script
            .over(Components {
                manager: Box::new(AllActive),
                ..fallback(None, None)
            })
            .manager
            .advise(Round(1), &view(2, &alive));
    }

    #[test]
    #[should_panic(expected = "scripted delivery arity mismatch at r1")]
    fn delivery_arity_mismatch_panics() {
        let script = Script {
            deliveries: vec![DeliveryMatrix::none(&[], 3)],
            ..Script::default()
        };
        let _ = script
            .over(fallback(None, None))
            .loss
            .deliver(Round(1), &[], 2);
    }
}
