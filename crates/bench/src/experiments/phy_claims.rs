//! E11–E13: the physical-layer claims behind the model, measured.

use crate::sweep::{spec::phy_e2e_specs, MetricId, MetricValue, SweepRunner};
use crate::{Scale, Table};
use wan_phy::{measure_properties, simulate_sync, PhyConfig, SyncConfig};

/// E11 (Section 1.3 claim): how often each completeness/accuracy property
/// holds for the carrier-sensing detector, per offered load.
pub fn e11_detector_properties(scale: Scale) -> Table {
    let mut t = Table::new(
        "E11 (Section 1.3): carrier-sensing detector — fraction of rounds each property held",
        &[
            "offered load p_tx",
            "zero-complete",
            "maj-complete",
            "half-complete",
            "complete",
            "accurate",
        ],
    );
    let rounds = scale.rounds();
    for p_tx in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let stats = measure_properties(PhyConfig::new(8, 3), rounds, p_tx, 17);
        t.row(vec![
            format!("{p_tx:.1}"),
            format!("{:.3}", stats.zero_complete_rounds),
            format!("{:.3}", stats.majority_complete_rounds),
            format!("{:.3}", stats.half_complete_rounds),
            format!("{:.3}", stats.full_complete_rounds),
            format!("{:.3}", stats.accurate_rounds),
        ]);
    }
    t.note(
        "Paper claim: zero completeness ≈ 100% of rounds, majority completeness > 90%; \
         full completeness is what capture makes unattainable.",
    );
    let sync = simulate_sync(SyncConfig::default(), 10_000);
    t.note(format!(
        "Round synchronization substrate: max skew {:.1} µs over 10k rounds \
         ({:.2}% of a 10 ms round) with 100-round resync — synchronized rounds are sound.",
        sync.max_skew_us,
        100.0 * sync.skew_fraction_of_round
    ));
    t
}

/// E12 (Section 1.1 claim): message loss of 20–50% under load despite
/// carrier sensing.
pub fn e12_loss_under_load(scale: Scale) -> Table {
    let mut t = Table::new(
        "E12 (Section 1.1): message loss fraction vs offered load",
        &[
            "offered load p_tx",
            "mean broadcasters/round",
            "loss fraction",
        ],
    );
    let rounds = scale.rounds();
    for p_tx in [0.05, 0.1, 0.3, 0.5, 0.7, 0.9] {
        let stats = measure_properties(PhyConfig::new(8, 5), rounds, p_tx, 23);
        t.row(vec![
            format!("{p_tx:.2}"),
            format!("{:.2}", stats.mean_offered),
            format!("{:.3}", stats.loss_fraction),
        ]);
    }
    t.note("Paper claim (from [30,38,70,73]): 20–50% loss under load.");
    t
}

/// E13 (Section 4 encapsulation): the backoff contention manager's
/// measured stabilization, and consensus end-to-end over the real radio —
/// as a scenario sweep over the registry's `phy/` family. What the
/// pre-probe version hand-rolled (a serial seed loop retaining full
/// traces to fish out the wake-up round) is now four parallel,
/// golden-gated specs whose wake-up/latency/CD measurements are probe
/// metric columns.
pub fn e13_backoff_and_end_to_end(scale: Scale) -> Table {
    let mut t = Table::new(
        "E13: backoff contention manager stabilization and end-to-end consensus over the radio",
        &[
            "n",
            "mean r_wake (measured)",
            "max r_wake",
            "mean decision round",
            "CD misses/process-round",
            "success",
        ],
    );
    let specs = phy_e2e_specs(scale);
    let results = SweepRunner::parallel().run_fresh(&specs);
    for (i, spec) in specs.iter().enumerate() {
        let frame = results.spec(i);
        let core = frame.core();
        // Like the pre-probe loop: the stabilization statistics cover
        // *successful* cells only, so a capped or unsafe run cannot skew
        // the wake/decision columns while the success column flags it.
        let mut wakes: Vec<u64> = Vec::new();
        let mut decisions: Vec<u64> = Vec::new();
        let mut successes = 0u64;
        for idx in 0..frame.len() {
            if !(core.terminated[idx] && core.safe[idx]) {
                continue;
            }
            successes += 1;
            let row = frame.row(idx);
            if let Some(MetricValue::OptU64(Some(wake))) = row.get(MetricId::ObservedWakeupRound) {
                wakes.push(wake);
            }
            if let Some(decided) = core.last_decision[idx] {
                decisions.push(decided);
            }
        }
        let mean = |v: &[u64]| {
            if v.is_empty() {
                "—".to_string()
            } else {
                format!("{:.1}", v.iter().sum::<u64>() as f64 / v.len() as f64)
            }
        };
        let miss_rate = frame
            .column(MetricId::CdMissedDetections)
            .zip(frame.column(MetricId::CdProcessRounds))
            .map_or_else(
                || "—".to_string(),
                |(miss, total)| format!("{:.4}", miss.sum() as f64 / total.sum().max(1) as f64),
            );
        t.row(vec![
            spec.n.to_string(),
            mean(&wakes),
            wakes
                .iter()
                .max()
                .map_or_else(|| "—".to_string(), |m| m.to_string()),
            mean(&decisions),
            miss_rate,
            format!("{successes}/{}", frame.len()),
        ]);
    }
    t.note(
        "Algorithm 2 over the slotted SINR radio with the carrier-sensing detector and the \
         window-doubling backoff manager: the full stack, no formal-model shortcuts. \
         r_wake is the wakeup-stabilization probe's metric (first round of the stable \
         single-active suffix); CD misses are the accuracy probe's completeness-miss count — \
         all columns of the same sweep the check gate covers.",
    );
    t
}
