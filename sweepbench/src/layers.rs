//! The traced run: per-layer attribution, timing each call into the
//! library from outside it.
//!
//! Each cell is decomposed by running spec variants as separate whole
//! passes, in alternating order (timing variants back to back per cell
//! skews whichever runs first):
//!
//! * registered — the spec as registered, through `run_cell`;
//! * outcome-only — a clone with `ProbeManifest::outcome_only()`, which
//!   runs the engine untraced and folds no round-level probe;
//! * set-up — the outcome-only clone with `cap = 0`, which builds the
//!   cell (seed, components, automata, buffers, probe set) and executes
//!   no round;
//! * untraced — a plain end-to-end pass, the baseline of
//!   `bench.trace_overhead`.
//!
//! Then set-up = set-up variant, engine = outcome-only − set-up, and
//! observe (trace recording plus probe folding) = registered −
//! outcome-only.

use crate::check::Checker;
use crate::workload::Workload;
use crate::{alloc, metric, pass, percentile, Metric};
use std::hint::black_box;
use std::time::{Duration, Instant};
use wan_bench::sweep::{scan_safety, CellRow, MetricRow, MetricValue, SweepSummary};
use wan_bench::{
    MetricId, ProbeManifest, Registry, ResultsFrame, Scale, ScenarioSpec, SweepRunner,
};
use wan_phy::{PhyConfig, PhyRound, RadioChannel};
use wan_sim::{ProcessId, Round};

/// The registry's families, reported one by one on `registry-full` (and
/// as 0 on workloads without them).
const FAMILIES: [&str; 10] = [
    "lattice", "alg1", "alg2", "alg3", "bst", "phy", "ablation", "churn", "dense", "absmac",
];

/// Repetitions of each micro-timing; the metric is their median.
const REPS: usize = 21;

/// Cells per size from which the radio's broadcast density is measured.
const DENSITY_SEEDS: u64 = 100;

/// Sender sets per `resolve_into` batch.
const PHY_ROUNDS: usize = 512;

/// Per-cell timings of one variant over its passes. Interference from
/// other tenants of a shared host only adds time, in bursts that can
/// cover half a run, so each cell's cost is its fastest pass.
struct CellTimes {
    /// Fastest nanoseconds seen per cell.
    ns: Vec<f64>,
    /// Every per-cell time seen, in µs.
    samples: Vec<f64>,
    /// Allocation calls per cell (identical on every pass).
    allocs: Vec<u64>,
}

impl CellTimes {
    fn new(cells: usize) -> CellTimes {
        CellTimes {
            ns: vec![f64::INFINITY; cells],
            samples: Vec::new(),
            allocs: vec![0; cells],
        }
    }

    /// Runs every cell of `specs` once, timing and counting each call.
    fn pass(&mut self, specs: &[ScenarioSpec], cells: &[(usize, u64)]) -> Vec<CellRow> {
        let mut rows = Vec::with_capacity(cells.len());
        for (k, &(i, case)) in cells.iter().enumerate() {
            let allocs = alloc::calls();
            let start = Instant::now();
            let row = specs[i].run_cell(i, case);
            let ns = start.elapsed().as_nanos() as f64;
            self.allocs[k] = alloc::calls() - allocs;
            self.ns[k] = self.ns[k].min(ns);
            self.samples.push(ns / 1e3);
            rows.push(row);
        }
        rows
    }

    /// Nanoseconds summed over the cells `keep` selects.
    fn total(&self, keep: impl Fn(usize) -> bool) -> f64 {
        (0..self.ns.len())
            .filter(|&k| keep(k))
            .map(|k| self.ns[k])
            .sum()
    }

    fn allocs(&self) -> f64 {
        self.allocs.iter().sum::<u64>() as f64
    }
}

/// The outcome fields the outcome-only clone must reproduce.
const CORE: [MetricId; 5] = [
    MetricId::Reference,
    MetricId::LastDecision,
    MetricId::Terminated,
    MetricId::Safe,
    MetricId::RoundsExecuted,
];

type Core = [Option<MetricValue>; 5];

fn core_of(metrics: &MetricRow) -> Core {
    CORE.map(|id| metrics.get(id))
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

#[derive(Clone, Copy)]
enum Variant {
    Untraced,
    Registered,
    OutcomeOnly,
    Setup,
}

const CYCLE: [Variant; 4] = [
    Variant::Untraced,
    Variant::Registered,
    Variant::OutcomeOnly,
    Variant::Setup,
];

/// Runs the traced variant for `seconds` and returns every per-layer
/// metric.
pub fn run(
    specs: &[ScenarioSpec],
    seed: u64,
    seconds: Duration,
    checker: &mut Checker,
) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let registry_us: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let registry = black_box(Registry::standard(Scale::Full));
            let us = micros(start);
            drop(registry);
            us
        })
        .collect();
    metrics.push(metric(
        "registry.standard_us",
        percentile(&registry_us, 50.0),
        "us",
    ));
    metrics.extend(phy_layer(seed));

    let cells: Vec<(usize, u64)> = specs
        .iter()
        .enumerate()
        .flat_map(|(i, spec)| (0..spec.seeds).map(move |case| (i, case)))
        .collect();
    let outcome_only: Vec<ScenarioSpec> = specs
        .iter()
        .map(|spec| ScenarioSpec {
            probes: ProbeManifest::outcome_only(),
            ..spec.clone()
        })
        .collect();
    let set_up: Vec<ScenarioSpec> = outcome_only
        .iter()
        .map(|spec| ScenarioSpec {
            cap: 0,
            ..spec.clone()
        })
        .collect();

    // The warm-up pass also fixes what the outcome-only clone must match.
    let cores: Vec<Core> = pass(specs, checker)
        .1
        .specs()
        .iter()
        .flat_map(|spec| (0..spec.len()).map(|idx| core_of(&spec.row(idx))))
        .collect();
    let mut registered = CellTimes::new(cells.len());
    let mut outcome = CellTimes::new(cells.len());
    let mut setup = CellTimes::new(cells.len());
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut from_rows_us, mut summary_us, mut scan_us, mut diff_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    let start = Instant::now();
    let mut cycle = 0;
    while cycle < 2 || start.elapsed() < seconds {
        let mut order = CYCLE;
        if cycle % 2 == 1 {
            order.reverse();
        }
        for variant in order {
            match variant {
                Variant::Untraced => untraced_s.push(pass(specs, checker).0),
                Variant::Registered => {
                    let pass_start = Instant::now();
                    let rows = registered.pass(specs, &cells);
                    let t = Instant::now();
                    let frame = ResultsFrame::from_rows(specs, rows);
                    from_rows_us.push(micros(t));
                    let t = Instant::now();
                    let summary = SweepSummary::from_results(Scale::Full, specs, &frame);
                    summary_us.push(micros(t));
                    let t = Instant::now();
                    let violations = scan_safety(specs, &frame);
                    scan_us.push(micros(t));
                    let t = Instant::now();
                    let drift = checker
                        .reference()
                        .map_or_else(Vec::new, |r| r.diff(&summary));
                    diff_us.push(micros(t));
                    traced_s.push(pass_start.elapsed().as_secs_f64());
                    checker.record(&frame, summary, &violations, &drift);
                }
                Variant::OutcomeOnly => {
                    let rows = outcome.pass(&outcome_only, &cells);
                    let wrong = rows
                        .iter()
                        .zip(&cores)
                        .filter(|(row, core)| core_of(&row.metrics) != **core)
                        .count() as u64;
                    checker.record_cells(rows.len() as u64, wrong, || {
                        format!("{wrong} outcome-only cells differ from the registered cell")
                    });
                }
                Variant::Setup => {
                    let rows = setup.pass(&set_up, &cells);
                    let wrong = rows
                        .iter()
                        .filter(|row| {
                            row.metrics.get(MetricId::RoundsExecuted) != Some(MetricValue::U64(0))
                        })
                        .count() as u64;
                    checker.record_cells(rows.len() as u64, wrong, || {
                        format!("{wrong} cap = 0 cells executed rounds")
                    });
                }
            }
        }
        cycle += 1;
    }

    let n = cells.len();
    let rounds: Vec<u64> = cores
        .iter()
        .map(|core| match core[4] {
            Some(MetricValue::U64(rounds)) => rounds,
            _ => 0,
        })
        .collect();
    let rounds_in = |keep: &dyn Fn(usize) -> bool| -> f64 {
        (0..n).filter(|&k| keep(k)).map(|k| rounds[k]).sum::<u64>() as f64
    };
    let all = |_: usize| true;
    let traced = |k: usize| specs[cells[k].0].probes.needs_trace();
    let untraced = |k: usize| !traced(k);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let total_rounds = rounds_in(&all);
    let rounds_f: Vec<f64> = rounds.iter().map(|&r| r as f64).collect();
    let (reg, out, set) = (registered.total(all), outcome.total(all), setup.total(all));
    let observed = |keep: &dyn Fn(usize) -> bool| registered.total(keep) - outcome.total(keep);

    metrics.extend([
        metric(
            "spec.cell_us.p50",
            percentile(&registered.samples, 50.0),
            "us",
        ),
        metric(
            "spec.cell_us.p99",
            percentile(&registered.samples, 99.0),
            "us",
        ),
        metric("spec.cells", n as f64, "count"),
        metric("spec.rounds", total_rounds, "count"),
        metric("spec.rounds.p50", percentile(&rounds_f, 50.0), "count"),
        metric("spec.rounds.p99", percentile(&rounds_f, 99.0), "count"),
        metric(
            "spec.allocs_per_cell",
            registered.allocs() / n as f64,
            "allocs/cell",
        ),
        metric("spec.setup_us.p50", percentile(&setup.samples, 50.0), "us"),
        metric("spec.setup_share", set / reg, "ratio"),
        metric(
            "spec.setup_allocs_per_cell",
            setup.allocs() / n as f64,
            "allocs/cell",
        ),
        metric("engine.ns_per_round", (out - set) / total_rounds, "ns"),
        metric(
            "engine.allocs_per_round",
            (outcome.allocs() - setup.allocs()) / total_rounds,
            "allocs/round",
        ),
        metric(
            "observe.share",
            ratio(observed(&traced), registered.total(traced)),
            "ratio",
        ),
        metric(
            "observe.ns_per_round",
            ratio(observed(&traced), rounds_in(&traced)),
            "ns",
        ),
        metric(
            "observe.share_outcome_only",
            ratio(observed(&untraced), registered.total(untraced)),
            "ratio",
        ),
        metric("frame.from_rows_us", percentile(&from_rows_us, 50.0), "us"),
        metric("golden.summary_us", percentile(&summary_us, 50.0), "us"),
        metric("golden.scan_safety_us", percentile(&scan_us, 50.0), "us"),
        metric("golden.diff_us", percentile(&diff_us, 50.0), "us"),
    ]);
    for family in FAMILIES {
        let member = |k: usize| specs[cells[k].0].name.split('/').next() == Some(family);
        let cells_in = (0..n).filter(|&k| member(k)).count() as f64;
        let reg = registered.total(member);
        metrics.extend([
            metric(
                format!("family.{family}.us_per_cell"),
                ratio(reg / 1e3, cells_in),
                "us",
            ),
            metric(
                format!("family.{family}.ns_per_round"),
                ratio(reg, rounds_in(&member)),
                "ns",
            ),
            metric(
                format!("family.{family}.setup_share"),
                ratio(setup.total(member), reg),
                "ratio",
            ),
        ]);
    }
    metrics.extend([
        metric("bench.pass_s.p50", percentile(&untraced_s, 50.0), "s"),
        metric("bench.pass_s.p90", percentile(&untraced_s, 90.0), "s"),
        metric(
            "bench.trace_overhead",
            percentile(&traced_s, 10.0) / percentile(&untraced_s, 10.0) - 1.0,
            "ratio",
        ),
    ]);
    metrics
}

/// SplitMix64: the benchmark's own seeded stream for phy sender sets.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw from [0, 1).
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// `resolve_into` called directly, on sender sets drawn from `seed` at the
/// broadcast density the `radio` workload measures at each size, and
/// `RadioChannel::new` at n = 64.
fn phy_layer(seed: u64) -> Vec<Metric> {
    let radio: Vec<ScenarioSpec> = Workload::Radio
        .specs(seed)
        .into_iter()
        .map(|spec| ScenarioSpec {
            seeds: DENSITY_SEEDS,
            ..spec
        })
        .collect();
    let frame = SweepRunner::serial().run_fresh(&radio);
    let mut state = seed ^ 0x5EED_F00D;
    let mut metrics = Vec::new();
    for (i, spec) in radio.iter().enumerate() {
        let sum = |id: MetricId| frame.spec(i).column(id).map_or(0, |c| c.sum()) as f64;
        let density =
            sum(MetricId::BroadcastsTotal) / (sum(MetricId::RoundsExecuted) * spec.n as f64);
        let channel = RadioChannel::new(PhyConfig::new(spec.n, splitmix(&mut state)));
        let senders: Vec<Vec<ProcessId>> = (0..PHY_ROUNDS)
            .map(|_| {
                (0..spec.n)
                    .filter(|_| unit(&mut state) < density)
                    .map(ProcessId)
                    .collect()
            })
            .collect();
        let mut out = PhyRound::new();
        let mut batch = || {
            let start = Instant::now();
            for (r, set) in senders.iter().enumerate() {
                channel.resolve_into(Round(r as u64 + 1), black_box(set), &mut out);
                black_box(&out);
            }
            start.elapsed().as_nanos() as f64 / PHY_ROUNDS as f64
        };
        batch();
        let per_call: Vec<f64> = (0..REPS).map(|_| batch()).collect();
        metrics.push(metric(
            format!("phy.resolve_ns.n{}", spec.n),
            percentile(&per_call, 50.0),
            "ns",
        ));
    }
    let new_us: Vec<f64> = (0..REPS)
        .map(|_| {
            let cfg = PhyConfig::new(64, splitmix(&mut state));
            let start = Instant::now();
            let channel = black_box(RadioChannel::new(cfg));
            let us = micros(start);
            drop(channel);
            us
        })
        .collect();
    metrics.push(metric(
        "phy.channel_new_us.n64",
        percentile(&new_us, 50.0),
        "us",
    ));
    metrics
}
