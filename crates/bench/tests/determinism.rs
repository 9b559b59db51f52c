//! Determinism contract of the cross-model `absmac/*` family, end to
//! end: serial and parallel runs produce byte-identical
//! [`ResultsFrame`]s — the acknowledged-broadcast channel's deferral
//! state is a pure function of `(spec, cell)` like every other
//! component — and no cell in either radio model breaks
//! agreement/validity.

use wan_bench::sweep::scan_safety;
use wan_bench::sweep::spec::absmac_specs;
use wan_bench::{Scale, SweepRunner};

/// Serial and parallel `absmac/*` sweeps produce byte-identical frames,
/// and no cell in either radio model breaks agreement/validity.
#[test]
fn absmac_sweeps_are_order_independent_and_safe() {
    let specs = absmac_specs(Scale::Quick);
    let serial = SweepRunner::serial().run_fresh(&specs);
    let parallel = SweepRunner::with_threads(4).run_fresh(&specs);
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "serial and parallel absmac sweeps must be byte-identical"
    );
    assert_eq!(serial, parallel);
    assert!(
        scan_safety(&specs, &serial).is_empty(),
        "no MAC delay policy within the envelopes may break agreement/validity"
    );
    assert!(serial
        .specs()
        .iter()
        .all(|spec| spec.core().terminated.iter().all(|&done| done)));
}
