//! Measuring which formal detector properties the physical radio actually
//! satisfies, and how much it loses — the executable versions of the
//! paper's Section 1 empirical claims (experiments E11/E12).

use crate::channel::{PhyRound, RadioChannel};
use crate::config::PhyConfig;
use crate::hash;
use wan_sim::{ProcessId, Round};

/// Aggregated per-round property satisfaction and loss statistics.
#[derive(Debug, Clone, Default)]
pub struct PropertyStats {
    /// Rounds measured.
    pub rounds: u64,
    /// (round, process) observations.
    pub observations: u64,
    /// Fraction of *rounds* in which zero completeness held at every
    /// process (the paper's "zero completeness in 100% of rounds").
    pub zero_complete_rounds: f64,
    /// Fraction of rounds in which majority completeness held at every
    /// process (the paper's "majority completeness in over 90% of rounds").
    pub majority_complete_rounds: f64,
    /// Fraction of rounds in which half completeness held everywhere.
    pub half_complete_rounds: f64,
    /// Fraction of rounds in which full completeness held everywhere.
    pub full_complete_rounds: f64,
    /// Fraction of rounds in which accuracy held everywhere (no false
    /// positives at fully-served receivers).
    pub accurate_rounds: f64,
    /// Fraction of (sender, foreign receiver) pairs whose packet was lost.
    pub loss_fraction: f64,
    /// Mean number of broadcasters per round under the offered load.
    pub mean_offered: f64,
}

/// Drives the radio with a Bernoulli offered load (`p_tx` per node per
/// round) for `rounds` rounds and measures property satisfaction.
///
/// Per the formal definitions, `T(i)` counts a broadcaster's own message
/// (constraint 5 forces self-delivery), and property predicates are
/// evaluated per process per round exactly as in `wan_cd`.
pub fn measure_properties(
    cfg: PhyConfig,
    rounds: u64,
    p_tx: f64,
    workload_seed: u64,
) -> PropertyStats {
    assert!((0.0..=1.0).contains(&p_tx), "p_tx out of range");
    let channel = RadioChannel::new(cfg);
    let n = cfg.n;

    let mut stats = PropertyStats {
        rounds,
        ..Default::default()
    };
    let mut zero_rounds = 0u64;
    let mut maj_rounds = 0u64;
    let mut half_rounds = 0u64;
    let mut full_rounds = 0u64;
    let mut acc_rounds = 0u64;
    let mut lost_pairs = 0u64;
    let mut total_pairs = 0u64;
    let mut offered = 0u64;
    let mut senders: Vec<ProcessId> = Vec::with_capacity(n);
    let mut outcome = PhyRound::new();

    for r in 1..=rounds {
        let round = Round(r);
        senders.clear();
        senders.extend(
            (0..n)
                .filter(|&i| hash::uniform(&[workload_seed, 0x10AD, r, i as u64]) < p_tx)
                .map(ProcessId),
        );
        offered += senders.len() as u64;
        channel.resolve_into(round, &senders, &mut outcome);
        let c = senders.len();

        let (mut zero_ok, mut maj_ok, mut half_ok, mut full_ok, mut acc_ok) =
            (true, true, true, true, true);
        for rx in 0..n {
            stats.observations += 1;
            let own = senders.iter().any(|s| s.index() == rx);
            // T(i): decoded foreign packets plus own forced self-delivery.
            let t = outcome.decoded_by(ProcessId(rx)) + usize::from(own);
            let flagged = outcome.collision(ProcessId(rx));
            if c > 0 && t == 0 && !flagged {
                zero_ok = false;
            }
            if c > 0 && 2 * t <= c && !flagged {
                maj_ok = false;
            }
            if c > 0 && 2 * t < c && !flagged {
                half_ok = false;
            }
            if t < c && !flagged {
                full_ok = false;
            }
            if t == c && flagged {
                acc_ok = false;
            }
            for (si, s) in senders.iter().enumerate() {
                if s.index() == rx {
                    continue;
                }
                total_pairs += 1;
                lost_pairs += u64::from(!outcome.delivered(si, rx));
            }
        }
        zero_rounds += u64::from(zero_ok);
        maj_rounds += u64::from(maj_ok);
        half_rounds += u64::from(half_ok);
        full_rounds += u64::from(full_ok);
        acc_rounds += u64::from(acc_ok);
    }

    let frac = |x: u64| x as f64 / rounds.max(1) as f64;
    stats.zero_complete_rounds = frac(zero_rounds);
    stats.majority_complete_rounds = frac(maj_rounds);
    stats.half_complete_rounds = frac(half_rounds);
    stats.full_complete_rounds = frac(full_rounds);
    stats.accurate_rounds = frac(acc_rounds);
    stats.loss_fraction = if total_pairs > 0 {
        lost_pairs as f64 / total_pairs as f64
    } else {
        0.0
    };
    stats.mean_offered = offered as f64 / rounds.max(1) as f64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_1_3_detector_claims_reproduce() {
        // The paper: "simple detection schemes can achieve zero completeness
        // in 100% of rounds, and majority completeness in over 90% of
        // rounds."
        let stats = measure_properties(PhyConfig::new(8, 3), 600, 0.4, 17);
        assert!(
            stats.zero_complete_rounds >= 0.99,
            "zero completeness {:.3}",
            stats.zero_complete_rounds
        );
        assert!(
            stats.majority_complete_rounds > 0.9,
            "majority completeness {:.3}",
            stats.majority_complete_rounds
        );
        // Without interference the carrier-sensing rule is accurate.
        assert!(
            stats.accurate_rounds >= 0.99,
            "accuracy {:.3}",
            stats.accurate_rounds
        );
    }

    #[test]
    fn section_1_1_loss_claim_reproduces() {
        // The paper: 20-50% loss under load despite collision avoidance.
        let stats = measure_properties(PhyConfig::new(8, 5), 600, 0.5, 23);
        assert!(
            stats.loss_fraction > 0.2,
            "loss under load {:.3}",
            stats.loss_fraction
        );
    }

    #[test]
    fn light_load_loses_little() {
        let stats = measure_properties(PhyConfig::new(8, 7), 600, 0.05, 29);
        assert!(
            stats.loss_fraction < 0.15,
            "light-load loss {:.3}",
            stats.loss_fraction
        );
    }

    #[test]
    fn interference_degrades_accuracy() {
        let quiet = measure_properties(PhyConfig::new(6, 9), 400, 0.2, 31);
        let noisy = measure_properties(
            PhyConfig::new(6, 9).with_interference(0.5, None),
            400,
            0.2,
            31,
        );
        assert!(noisy.accurate_rounds < quiet.accurate_rounds);
    }

    #[test]
    #[should_panic(expected = "p_tx")]
    fn bad_load_rejected() {
        let _ = measure_properties(PhyConfig::new(4, 1), 10, 1.5, 0);
    }
}
