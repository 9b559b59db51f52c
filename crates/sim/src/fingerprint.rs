//! Stable content fingerprints, and the workspace's one SplitMix64
//! finalizer.
//!
//! Golden summaries (in `wan-bench`) digest sweep results with
//! [`StableHasher`], and the test suite pins replayed executions by
//! [`crate::ExecutionTrace::fingerprint`]. The hasher lives here, next to
//! [`crate::ExecutionTrace`], because the trace fingerprint must observe
//! every field a trace records.
//!
//! [`splitmix64`] mixes one word into another, stably in the same sense.
//! [`crate::loss::RandomLoss`] draws its stream from it, the sweep derives
//! cell seeds with it, and the radio and abstract-MAC channels hash their
//! realizations with it.
//!
//! The hash is FNV-1a (64-bit): dependency-free, byte-order independent,
//! and — unlike [`std::hash::DefaultHasher`] — **stable across processes,
//! platforms, and std releases**, which is what makes it safe to commit in
//! golden files and test pins. It is *not* collision-resistant against an
//! adversary.

use std::fmt::{self, Write};

/// The SplitMix64 increment, `⌊2^64 / φ⌋` (odd): the step between the
/// counter values of consecutive draws.
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer (Steele, Lea & Flood 2014) of `x + γ`: a
/// high-quality 64-bit mixer.
///
/// Draw `k` (from 0) of the SplitMix64 stream seeded with `seed` is
/// `splitmix64(seed + k·γ)`, so any draw can be computed without the ones
/// before it.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// An incremental FNV-1a (64-bit) hasher with a stable, documented output.
///
/// Implements [`fmt::Write`], so arbitrary `Debug`/`Display` renderings can
/// be streamed through it without materializing intermediate strings:
///
/// ```
/// use std::fmt::Write;
/// use wan_sim::fingerprint::StableHasher;
///
/// let mut h = StableHasher::new();
/// write!(h, "{:?}", (1u8, "x")).unwrap();
/// let a = h.finish();
/// assert_eq!(a, StableHasher::hash_str("(1, \"x\")"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A hasher at the standard FNV-1a offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// A hasher whose stream is prefixed with `salt` — independent lanes
    /// for multi-word keys.
    pub fn with_salt(salt: u64) -> Self {
        let mut h = StableHasher::new();
        h.write_u64(salt);
        h
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` as eight big-endian bytes (length-prefix-free:
    /// callers hashing variable-length sequences must write the length
    /// themselves).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_be_bytes());
    }

    /// Absorbs a `usize` (as `u64`, so 32- and 64-bit platforms agree).
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// One-shot convenience: the fingerprint of a string.
    pub fn hash_str(s: &str) -> u64 {
        let mut h = StableHasher::new();
        h.write_bytes(s.as_bytes());
        h.finish()
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Write for StableHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Streams a value's `Debug` rendering into `hasher` without allocating.
pub fn absorb_debug<T: fmt::Debug>(hasher: &mut StableHasher, value: &T) {
    // Writing into a StableHasher is infallible.
    let _ = write!(hasher, "{value:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_draw_k_is_the_shim_streams_draw_k() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in [0, 1, 0x10, u64::MAX] {
            let mut stream = StdRng::seed_from_u64(seed);
            for k in 0..100u64 {
                let z = seed.wrapping_add(k.wrapping_mul(GAMMA));
                assert_eq!(splitmix64(z), stream.next_u64(), "seed {seed}, draw {k}");
            }
        }
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(StableHasher::hash_str(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(StableHasher::hash_str("a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(StableHasher::hash_str("foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn salted_lanes_differ() {
        let mut a = StableHasher::with_salt(1);
        let mut b = StableHasher::with_salt(2);
        a.write_bytes(b"same payload");
        b.write_bytes(b"same payload");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fmt_write_matches_byte_writes() {
        let mut via_fmt = StableHasher::new();
        write!(via_fmt, "round {} of {}", 3, 9).unwrap();
        assert_eq!(via_fmt.finish(), StableHasher::hash_str("round 3 of 9"));
    }

    #[test]
    fn absorb_debug_streams_the_debug_rendering() {
        let mut h = StableHasher::new();
        absorb_debug(&mut h, &vec![Some(1u8), None]);
        assert_eq!(h.finish(), StableHasher::hash_str("[Some(1), None]"));
    }
}
