//! The columnar-arena representation contract of `ExecutionTrace`.
//!
//! Three layers of pinning:
//!
//! 1. A property test: arbitrary round records pushed into the arena-backed
//!    [`ExecutionTrace`] and into the retained-record
//!    [`reference::ReferenceTrace`] oracle produce byte-identical debug
//!    renderings and equal fingerprints.
//! 2. Live traced cells of **all six scenario families** fingerprint
//!    identically under both representations
//!    (`ScenarioSpec::trace_reference_fingerprints`).
//! 3. Hard-coded fingerprints of each family's cells 0 and 1, matching
//!    the executions of the *pre-refactor* (retained-record)
//!    implementation: if these drift, the replay-determinism contract is
//!    broken — regenerating them is a semantic change, not a refresh.

use ccwan::bench::sweep::Registry;
use ccwan::bench::Scale;
use ccwan::sim::trace::reference::ReferenceTrace;
use ccwan::sim::{
    CdAdvice, CmAdvice, ExecutionTrace, Multiset, ProcessId, Round, RoundRecord, StableHasher,
};
use proptest::prelude::*;

/// One spec per scenario family, with the arena trace fingerprints of its
/// cells 0 and 1 (`trace_reference_fingerprints(case).0`) and the FNV hash
/// of its cell-0 traced debug rendering, all matching the retained-record
/// implementation from before the columnar refactor landed.
const FAMILY_PINS: [(&str, [u64; 2], u64); 6] = [
    (
        "lattice/maj-AC",
        [0x395e7b13f896830a, 0x5c05c7a0977e1f77],
        0xb729569ed1dcb5c0,
    ),
    (
        "alg1/n4-v16",
        [0x602c70c24814c762, 0xed003fafd3403e79],
        0x9cf4b8552e64273e,
    ),
    (
        "alg2/v16",
        [0xede3066d458bc8af, 0xaca05606faebd68b],
        0xd599ecc9824c5b96,
    ),
    (
        "alg3/v8-i8",
        [0x24f8da76d3fe0deb, 0x60da3229d603ff74],
        0x74cb3a09fd303b25,
    ),
    (
        "bst/v16-leafcrash",
        [0xc19e29b1ae49145c, 0xc19e29b1ae49145c],
        0x0e35b191e8d20271,
    ),
    (
        "ablation/alg2-zero",
        [0x0f3d1b233e57bdb8, 0x36aba95ad74db140],
        0x42980c26785f1ab9,
    ),
];

#[test]
fn all_six_families_fingerprint_like_the_reference_builder() {
    let registry = Registry::standard(Scale::Quick);
    for (name, _, _) in FAMILY_PINS {
        let spec = registry.get(name).expect("pinned spec in registry");
        for case in 0..2 {
            let (arena, reference) = spec.trace_reference_fingerprints(case);
            assert_eq!(
                arena, reference,
                "{name} case {case}: arena and retained-record fingerprints diverged"
            );
        }
    }
}

#[test]
fn family_fingerprints_match_pre_refactor_values() {
    let registry = Registry::standard(Scale::Quick);
    for (name, arena, trace_hash) in FAMILY_PINS {
        let spec = registry.get(name).expect("pinned spec in registry");
        for (case, pin) in (0u64..).zip(arena) {
            assert_eq!(
                spec.trace_reference_fingerprints(case).0,
                pin,
                "{name} case {case}: trace fingerprint drifted from the pre-refactor pin"
            );
        }
        assert_eq!(
            StableHasher::hash_str(&spec.trace_fingerprint(0)),
            trace_hash,
            "{name}: traced debug rendering drifted from the pre-refactor pin"
        );
    }
}

/// SplitMix64 — the record generator's deterministic stream (the proptest
/// shim samples only flat primitives, so records derive from a seed).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pseudorandom round record over `n` processes with small-u8 messages.
fn gen_record(n: usize, round: u64, full: bool, state: &mut u64) -> RoundRecord<u8> {
    let sent: Vec<Option<u8>> = (0..n)
        .map(|_| (!mix(state).is_multiple_of(3)).then(|| (mix(state) % 6) as u8))
        .collect();
    let cm: Vec<CmAdvice> = (0..n)
        .map(|_| {
            if mix(state).is_multiple_of(2) {
                CmAdvice::Active
            } else {
                CmAdvice::Passive
            }
        })
        .collect();
    let cd: Vec<CdAdvice> = (0..n)
        .map(|_| {
            if mix(state).is_multiple_of(3) {
                CdAdvice::Collision
            } else {
                CdAdvice::Null
            }
        })
        .collect();
    let alive: Vec<bool> = (0..n).map(|_| !mix(state).is_multiple_of(4)).collect();
    let mut crashed: Vec<ProcessId> = (0..mix(state) % 3)
        .filter(|_| n > 0)
        .map(|_| ProcessId((mix(state) % n as u64) as usize))
        .collect();
    crashed.sort_unstable();
    crashed.dedup();
    let recv: Vec<Multiset<u8>> = (0..n)
        .map(|_| {
            (0..mix(state) % 5)
                .map(|_| (mix(state) % 6) as u8)
                .collect()
        })
        .collect();
    let received_counts = recv.iter().map(|m| m.total()).collect();
    RoundRecord {
        round: Round(round),
        cm,
        sent,
        cd,
        received_counts,
        received: full.then_some(recv),
        crashed,
        alive,
    }
}

/// A pseudorandom same-detail record sequence over a shared `n`.
fn gen_rounds(seed: u64) -> (usize, Vec<RoundRecord<u8>>) {
    let mut state = seed;
    let n = (mix(&mut state) % 5) as usize;
    let full = mix(&mut state).is_multiple_of(2);
    let len = 1 + (mix(&mut state) % 5) as usize;
    let records = (0..len)
        .map(|r| gen_record(n, r as u64 + 1, full, &mut state))
        .collect();
    (n, records)
}

proptest! {
    /// The arena and the retained-record oracle agree on every derived
    /// artifact: fingerprint, whole-trace debug rendering, and per-round
    /// views vs. records.
    #[test]
    fn arena_matches_reference_builder(seed in 0u64..u64::MAX) {
        let (n, records) = gen_rounds(seed);
        let mut arena: ExecutionTrace<u8> = ExecutionTrace::new(n);
        let mut reference: ReferenceTrace<u8> = ReferenceTrace::new(n);
        for rec in &records {
            arena.push_record(rec.clone());
            reference.push(rec.clone());
        }
        prop_assert_eq!(arena.len(), records.len());
        prop_assert_eq!(arena.fingerprint(), reference.fingerprint());
        prop_assert_eq!(format!("{arena:?}"), format!("{reference:?}"));
        for (view, rec) in arena.rounds().zip(reference.rounds().iter()) {
            prop_assert_eq!(format!("{view:?}"), format!("{rec:?}"));
            prop_assert_eq!(view.senders(), rec.senders());
            prop_assert_eq!(view.broadcast_count(), rec.broadcast_count());
            prop_assert_eq!(view.transmission_entry(), rec.transmission_entry());
        }
    }

    /// Round-tripping the arena through `to_record` and back preserves the
    /// fingerprint (views are lossless).
    #[test]
    fn views_round_trip_losslessly(seed in 0u64..u64::MAX) {
        let (n, records) = gen_rounds(seed);
        let mut arena: ExecutionTrace<u8> = ExecutionTrace::new(n);
        for rec in records {
            arena.push_record(rec);
        }
        let rebuilt = ReferenceTrace::from_trace(&arena);
        prop_assert_eq!(arena.fingerprint(), rebuilt.fingerprint());
    }
}
