//! The six Section 8 results, end-to-end: each executable construction
//! must establish its theorem.
//!
//! Each test also pins the whole report (`StableHasher::hash_str` of its
//! `Debug` rendering, evidence lines included), so the E6–E10 tables and
//! the `lower_bound_tour` example cannot drift unnoticed. Re-pin only on
//! a deliberate change to a construction, stating why.

use ccwan::adversary::theorems::{self, TheoremReport};
use ccwan::consensus::{IdSpace, ValueDomain};
use ccwan::sim::StableHasher;

/// Asserts that `r` established its theorem and renders as pinned;
/// `what` names the instance in a failure.
fn assert_pinned(what: &str, r: &TheoremReport, pin: u64) {
    assert!(r.established, "{what}: {:#?}", r.details);
    assert_eq!(
        StableHasher::hash_str(&format!("{r:?}")),
        pin,
        "{what}: report drifted from its pin: {r:#?}"
    );
}

#[test]
fn theorem_4_no_collision_detection() {
    let r = theorems::t4_no_cd(ValueDomain::new(8), 4, 300);
    assert_pinned("t4", &r, 0x401f9d182d3a4351);
}

#[test]
fn theorem_5_no_accuracy() {
    let r = theorems::t5_no_acc(ValueDomain::new(8), 4, 300);
    assert_pinned("t5", &r, 0x3413a89eff9b1cea);
}

#[test]
fn theorem_6_anonymous_half_ac_lower_bound() {
    for (v_size, pin) in [
        (16u64, 0x07db51161db6f1bd),
        (64, 0xd132490261c4afef),
        (256, 0x6e2c822883502199),
    ] {
        let r = theorems::t6_anon_half_ac(ValueDomain::new(v_size), 3);
        assert_pinned(&format!("|V|={v_size}"), &r, pin);
    }
}

#[test]
fn majority_half_gap() {
    let r = theorems::maj_half_gap(ValueDomain::new(4));
    assert_pinned("maj/half gap", &r, 0x09f51f93225d3317);
}

#[test]
fn theorem_7_nonanonymous_half_ac_lower_bound() {
    let r = theorems::t7_nonanon_half_ac(IdSpace::new(16), ValueDomain::new(1 << 12), 2);
    assert_pinned("t7", &r, 0x4ceeb424a2590d26);
}

#[test]
fn theorem_8_eventual_accuracy_without_ecf() {
    for (v_size, pin) in [(32u64, 0x672fddd2b5ae9025), (128, 0x4b150d1ce073c8c6)] {
        let r = theorems::t8_ev_accuracy_nocf(ValueDomain::new(v_size), 3);
        assert_pinned(&format!("|V|={v_size}"), &r, pin);
    }
}

#[test]
fn theorem_9_accuracy_without_ecf_lower_bound() {
    for (v_size, pin) in [(16u64, 0xb1b6b326efee05d1), (64, 0xe8614c9451198c23)] {
        let r = theorems::t9_accuracy_nocf(ValueDomain::new(v_size), 3);
        assert_pinned(&format!("|V|={v_size}"), &r, pin);
    }
}
