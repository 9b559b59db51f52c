//! E2–E5: the upper-bound (algorithm) experiments, as scenario sweeps.

use crate::sweep::{
    spec::{alg1_grid_specs, alg2_staircase_specs, alg3_crossover_specs, bst_nocf_specs},
    MetricId, SweepRunner,
};
use crate::{Scale, Table};
use ccwan_core::ValueDomain;

/// E2 (Theorem 1): Algorithm 1 decides within 2 rounds of CST — constant in
/// both `n` and `|V|`.
pub fn e2_alg1_constant_rounds(scale: Scale) -> Table {
    let mut t = Table::new(
        "E2 (Theorem 1): Algorithm 1 — worst rounds past CST (bound: 2)",
        &["n", "|V|", "CST", "measured worst", "bound"],
    );
    let specs = alg1_grid_specs(scale);
    let results = SweepRunner::parallel().run_fresh(&specs);
    for (i, spec) in specs.iter().enumerate() {
        t.row(vec![
            spec.n.to_string(),
            spec.v_size.to_string(),
            "8".into(),
            results.worst_rounds_past(i).to_string(),
            "2".into(),
        ]);
    }
    t.note("Constant in n and |V|: the defining property of maj-complete detection.");
    t
}

/// E3 (Theorem 2): Algorithm 2 decides within `2(⌈lg|V|⌉+1)` rounds of CST —
/// the logarithmic staircase.
pub fn e3_alg2_log_rounds(scale: Scale) -> Table {
    let mut t = Table::new(
        "E3 (Theorem 2): Algorithm 2 — worst rounds past CST vs |V| (bound: 2(⌈lg|V|⌉+1))",
        &[
            "|V|",
            "⌈lg|V|⌉",
            "measured worst",
            "median latency",
            "bound",
            "mean broadcasts",
        ],
    );
    let specs = alg2_staircase_specs(scale);
    let results = SweepRunner::parallel().run_fresh(&specs);
    for (i, spec) in specs.iter().enumerate() {
        let domain = ValueDomain::new(spec.v_size);
        let bound = 2 * (u64::from(domain.bits()) + 1);
        let frame = results.spec(i);
        let median_latency = frame
            .column(MetricId::DecisionLatency)
            .and_then(|col| col.percentile(50))
            .map_or_else(|| "—".to_string(), |v| v.to_string());
        let mean_broadcasts = frame
            .column(MetricId::BroadcastsTotal)
            .and_then(|col| col.mean())
            .map_or_else(|| "—".to_string(), |m| format!("{m:.1}"));
        t.row(vec![
            spec.v_size.to_string(),
            domain.bits().to_string(),
            results.worst_rounds_past(i).to_string(),
            median_latency,
            bound.to_string(),
            mean_broadcasts,
        ]);
    }
    t.note(
        "Logarithmic in |V|: matches the Theorem 6 lower bound shape (E7). The latency and \
         broadcast columns are probe metrics from the same sweep (signed distance to CST; \
         Newport-style broadcast complexity) — no extra runs.",
    );
    t
}

/// E4 (Section 7.3): the non-anonymous protocol — rounds past CST scale
/// with `min{lg |V|, lg |I|}` (×4 slot interleaving).
pub fn e4_nonanon_min_crossover(scale: Scale) -> Table {
    let mut t = Table::new(
        "E4 (Section 7.3): non-anonymous protocol — rounds past CST vs (|V|, |I|)",
        &["|V|", "|I|", "mode", "min{lg|V|, lg|I|}", "measured worst"],
    );
    let specs = alg3_crossover_specs(scale);
    let results = SweepRunner::parallel().run_fresh(&specs);
    for (i, spec) in specs.iter().enumerate() {
        let v_bits = spec.v_size.ilog2();
        let i_bits = match spec.algorithm {
            crate::sweep::Algorithm::Alg3 { id_bits } => id_bits,
            _ => unreachable!("crossover specs are Alg3"),
        };
        let mode = if v_bits <= i_bits {
            "direct (Alg 2 on V)"
        } else {
            "elect (Alg 2 on I)"
        };
        t.row(vec![
            format!("2^{v_bits}"),
            format!("2^{i_bits}"),
            mode.into(),
            v_bits.min(i_bits).to_string(),
            results.worst_rounds_past(i).to_string(),
        ]);
    }
    t.note(
        "The measured column tracks min{lg|V|, lg|I|} (×4 for the elect/value/veto/sync \
         interleaving), not max: unique identifiers only help when |I| < |V|.",
    );
    t
}

/// E5 (Theorem 3): the BST algorithm under NOCF — rounds to decide after
/// failures cease, against the `8·lg|V|` bound, including the paper's
/// worst-case "walked into a leaf, then died" crash schedule.
pub fn e5_bst_nocf_bound(scale: Scale) -> Table {
    let mut t = Table::new(
        "E5 (Theorem 3): BST algorithm (0-AC, no CM, no ECF) — rounds after failures cease vs 8·lg|V|",
        &[
            "|V|",
            "schedule",
            "rounds after failures cease",
            "bound 8⌈lg|V|⌉ (+group slack)",
            "observed first crash",
        ],
    );
    let specs = bst_nocf_specs(scale);
    let results = SweepRunner::parallel().run_fresh(&specs);
    for (i, spec) in specs.iter().enumerate() {
        let bound = 8 * u64::from(ValueDomain::new(spec.v_size).bits()) + 8;
        let schedule = match spec.crash {
            None => "no failures".to_string(),
            Some(plan) => format!("leaf-walk leader crashes at r{}", plan.round),
        };
        // The crash-exposure probe confirms the schedule executed as
        // declared (every cell sees the same scripted round).
        let first_crash = results
            .spec(i)
            .column(MetricId::FirstCrashRound)
            .and_then(|col| col.max())
            .map_or_else(|| "—".to_string(), |r| format!("r{r}"));
        t.row(vec![
            spec.v_size.to_string(),
            schedule,
            results.worst_rounds_past(i).to_string(),
            bound.to_string(),
            first_crash,
        ]);
    }
    t.note(
        "Total message loss every round (only the collision detector carries information); \
         the crash schedule forces the full climb-and-descend the Theorem 3 analysis charges for.",
    );
    t
}
