//! Deterministic hash-derived randomness.
//!
//! Radio realizations (fading, slot choices, interference) must be a pure
//! function of (seed, round, slot, node, …) so that executions replay
//! exactly and no hidden RNG state couples independent draws. A
//! splitmix64 finalizer over the packed inputs provides that.

/// The splitmix64 finalizer, the one `wan-sim` defines for the whole
/// workspace.
pub use wan_sim::splitmix64;

/// Hashes a tuple of values into one word.
pub fn hash_tuple(parts: &[u64]) -> u64 {
    let mut acc = 0x51_7C_C1_B7_27_22_0A_95u64;
    for &p in parts {
        acc = splitmix64(acc ^ p);
    }
    acc
}

/// Extends a [`hash_tuple`] accumulator by one more part.
///
/// Because `hash_tuple` folds its parts strictly left-to-right,
/// `extend(hash_tuple(&parts[..k]), parts[k])` equals
/// `hash_tuple(&parts[..=k])` bit-for-bit. Hot loops use this to hoist
/// the shared prefix of a tuple (e.g. `(seed, salt, round, tx)`) out of
/// an inner loop that varies only the last part.
#[inline]
pub fn extend(acc: u64, part: u64) -> u64 {
    splitmix64(acc ^ part)
}

/// The `[0, 1)` uniform encoded by a finished hash word (53-bit
/// mantissa) — the same construction [`uniform`] applies to
/// `hash_tuple`'s output.
#[inline]
fn unit_from(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// An exponential(1) draw from a prefix accumulator plus final part:
/// bit-identical to `exponential(&[..prefix parts.., last])`.
#[inline]
pub fn exponential_extend(prefix: u64, last: u64) -> f64 {
    let u = unit_from(extend(prefix, last));
    let u = if u <= 0.0 { f64::MIN_POSITIVE } else { u };
    -u.ln()
}

/// A uniform draw in `[0, 1)` from hashed inputs (53-bit mantissa).
pub fn uniform(parts: &[u64]) -> f64 {
    (hash_tuple(parts) >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform draw that is never exactly zero (safe for `ln`).
pub fn uniform_open(parts: &[u64]) -> f64 {
    let u = uniform(parts);
    if u <= 0.0 {
        f64::MIN_POSITIVE
    } else {
        u
    }
}

/// An exponential(1) draw — Rayleigh *power* fading.
pub fn exponential(parts: &[u64]) -> f64 {
    -uniform_open(parts).ln()
}

/// A standard normal draw via Box–Muller (used for log-normal shadowing).
///
/// The two uniforms are the tuple extended by the salts `0xA5A5` and
/// `0x5A5A`. The tuple is hashed once and each salt folded in with
/// [`extend`], so a draw allocates nothing.
pub fn standard_normal(parts: &[u64]) -> f64 {
    let prefix = hash_tuple(parts);
    let u1 = unit_from(extend(prefix, 0xA5A5));
    let u1 = if u1 <= 0.0 { f64::MIN_POSITIVE } else { u1 };
    let u2 = unit_from(extend(prefix, 0x5A5A));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed-era `standard_normal`, which copied its tuple and pushed
    /// each salt in turn: the bit-identity oracle for the prefix form.
    fn standard_normal_reference(parts: &[u64]) -> f64 {
        let mut with_salt = parts.to_vec();
        with_salt.push(0xA5A5);
        let u1 = uniform_open(&with_salt);
        with_salt.pop();
        with_salt.push(0x5A5A);
        let u2 = uniform(&with_salt);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn standard_normal_matches_seed_era_reference() {
        let mut tuples: Vec<Vec<u64>> = Vec::new();
        // Arbitrary words, every tuple length from 1 to 5.
        let mut state = 0x00DD_BA11_u64;
        for len in 1..=5usize {
            for _ in 0..1_000 {
                tuples.push(
                    (0..len)
                        .map(|_| {
                            state = splitmix64(state);
                            state
                        })
                        .collect(),
                );
            }
        }
        // The shadowing tuple of `RadioChannel::new` ...
        for seed in [0, 7, 42] {
            for a in 0..64u64 {
                for b in a + 1..64 {
                    tuples.push(vec![seed, 0x5D, a, b]);
                }
            }
        }
        // ... and the resynchronization jitter tuple of `sync`.
        for seed in [1, 9] {
            for r in 0..50u64 {
                for i in 0..20u64 {
                    tuples.push(vec![seed, 0x2E5, r, i]);
                }
            }
        }
        assert!(tuples.len() >= 10_000, "{} tuples", tuples.len());
        for parts in &tuples {
            assert_eq!(
                standard_normal(parts).to_bits(),
                standard_normal_reference(parts).to_bits(),
                "tuple {parts:?}"
            );
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_tuple(&[1, 2, 3]), hash_tuple(&[1, 2, 3]));
        assert_ne!(hash_tuple(&[1, 2, 3]), hash_tuple(&[1, 2, 4]));
        assert_eq!(uniform(&[9, 9]), uniform(&[9, 9]));
    }

    #[test]
    fn prefix_extension_is_bit_identical() {
        // The whole point of the prefix helpers: hoisting the shared
        // tuple prefix must not change a single bit of any draw.
        for round in 0..50u64 {
            for rx in 0..16u64 {
                let parts = [42, 0xFAD3, round, 7, rx];
                let prefix = hash_tuple(&parts[..4]);
                assert_eq!(extend(prefix, rx), hash_tuple(&parts));
                assert_eq!(
                    exponential_extend(prefix, rx).to_bits(),
                    exponential(&parts).to_bits(),
                    "round {round} rx {rx}"
                );
            }
        }
    }

    #[test]
    fn uniform_in_range() {
        for i in 0..1000u64 {
            let u = uniform(&[42, i]);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_positive_with_unit_mean() {
        let mean: f64 = (0..20_000u64).map(|i| exponential(&[7, i])).sum::<f64>() / 20_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let n = 20_000u64;
        let draws: Vec<f64> = (0..n).map(|i| standard_normal(&[3, i])).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }
}
