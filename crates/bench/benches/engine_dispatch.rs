//! `engine_dispatch`: the rounds the registry runs, timed on real registry
//! cells, and the allocation gates of the round engine's hot paths.
//!
//! Sections of the report (stdout, and `BENCH_engine.json` at the
//! workspace root with the host it was measured on):
//!
//! * `registry` — five full-scale registry specs (`dense` at n = 4 and 8,
//!   `absmac`, `churn`, `phy`; their families take about 85 % of a full
//!   registry pass), each timed over all of its cells through
//!   `ScenarioSpec::run_cell`. A lane times the spec as registered, with
//!   the `probes` kinds it registers, and reports µs per cell and ns per
//!   round (rounds from the cells' `rounds_executed`, set-up included).
//!   Where the registered manifest is not `ProbeManifest::outcome_only()`
//!   (whose probes read no round), the lane also times an outcome-only
//!   clone and reports the probe ratio: registered over outcome-only.
//!   `dense` registers outcome-only, so its lanes have no ratio. Every
//!   cell a lane times is checked safe and terminated, and its execution
//!   the same under both manifests, when the lane is built.
//! * `allocation` — steady-state allocations and bytes per round of engine
//!   lanes, labelled by round observer: `none` (`()`), `probes` (the
//!   sweep's standard `ProbeSet`) and `trace` (`ExecutionTrace`). The real
//!   Algorithm 1 and 2 automata on the registry's ECF stack run under all
//!   three at n = 8 and 50; the churn and abstract-MAC stacks run under
//!   `none` and `probes`, driving 50 `Fixed` automata that each send a
//!   distinct message whenever the contention manager lets them.
//! * `phy_resolve` — the SINR radio's `resolve_into`, ns and allocations
//!   per call, and the allocations of one `RadioChannel::new`;
//! * `loss_draws` — `RandomLoss::deliver_into` at `long-wide`'s shape
//!   (p = 0.6, 40 % senders), in ns per pair with the kernel the host
//!   selects;
//! * `assembly` — engine rounds whose cost is mostly receive assembly
//!   (`long-wide`'s shapes, 40 % of the processes sending one or six
//!   distinct messages at 40 % delivery, replayed from pre-drawn
//!   matrices), in ns per round.
//!
//! Every timed lane is calibrated once, then the lanes are sampled in turn
//! in one loop, so a slow phase of a shared host hits every lane alike.
//! Each figure is the median of its samples, and a ratio the median of its
//! per-sweep ratios. A host phase can still move every absolute figure of
//! one process together; the ratios within a process are the robust
//! numbers.
//!
//! The process runs under a **counting global allocator**. The allocation
//! gates make the bench exit nonzero (which is what the CI bench step
//! gates on):
//!
//! * a round under the `none` or `probes` observer must be exactly
//!   zero-allocation after warm-up;
//! * a round under the `trace` observer must stay O(1) amortized — arena
//!   growth only, gated at < 1 allocation/round in the steady-state
//!   window;
//! * `RadioChannel::resolve_into` into a reused `PhyRound`,
//!   `RandomLoss::deliver_into` into a reused `DeliveryMatrix` and an
//!   `assembly` round must each be exactly zero-allocation after warm-up;
//! * `RadioChannel::new` must make exactly 2 allocations (its positions
//!   and gains) at every lane's n.
//!
//! The bench uses public API only, so the same file builds against an
//! earlier checkout for a before/after. Run with:
//!
//! ```text
//! cargo bench -p wan-bench --bench engine_dispatch          # full
//! CCWAN_BENCH_QUICK=1 cargo bench -p wan-bench --bench engine_dispatch
//! ```

use ccwan_core::{alg1, alg2, ConsensusAutomaton, ConsensusRun, Value, ValueDomain};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use wan_bench::experiments::helpers::EnvPlan;
use wan_bench::sweep::MetricValue;
use wan_bench::{MetricId, ProbeManifest, ProbeSet, Registry, Scale, ScenarioSpec};
use wan_cd::{CdClass, CheckedDetector, ClassDetector, Degrading, FreedomPolicy};
use wan_cm::FairWakeUp;
use wan_mac::{mac_components, MacConfig, MacDelayPolicy};
use wan_phy::{PhyConfig, PhyRound, RadioChannel};
use wan_sim::crash::{NoCrashes, TimelineCrashes};
use wan_sim::loss::{Ecf, RandomLoss};
use wan_sim::{
    AllActive, AlwaysNull, Automaton, CmAdvice, Components, DeliveryMatrix, Engine, ExecutionTrace,
    LossAdversary, ProcessId, Round, RoundInput, RoundObserver, ScenarioEvent, ScenarioTimeline,
    StaggeredJoin,
};

/// The `registry` lanes: full-scale specs of the families that take most
/// of a registry pass.
const REGISTRY_LANES: [&str; 5] = [
    "dense/n4-l30-c0-maj",
    "dense/n8-l60-c0-zero",
    "absmac/mac-n8-l30-c0-zero",
    "churn/b1-r6-harsh",
    "phy/n16",
];

/// Wall time one sample of a timed lane is calibrated to.
const SAMPLE_NS: f64 = 30e6;

/// A pass-through allocator that counts allocation events and bytes, so the
/// zero-allocation claim of the round engine is machine-checkable rather
/// than asserted by inspection. Deallocations are
/// not counted: the claim is about allocator *pressure* per round.
struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counters are plain atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn alloc_snapshot() -> (u64, u64) {
    (ALLOC_CALLS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Steady-state allocator pressure of `run(rounds)`: warm the system up
/// (buffers reach capacity, traces reach their growth plateau), then
/// measure a long window and average per round.
fn steady_state_allocs(mut run: impl FnMut(u64)) -> (f64, f64) {
    const WARMUP: u64 = 200;
    const MEASURE: u64 = 800;
    run(WARMUP);
    let (calls0, bytes0) = alloc_snapshot();
    run(MEASURE);
    let (calls1, bytes1) = alloc_snapshot();
    (
        (calls1 - calls0) as f64 / MEASURE as f64,
        (bytes1 - bytes0) as f64 / MEASURE as f64,
    )
}

/// A timed lane: `run(units)` does that many units of the lane's work.
/// `units` is how many one sample takes, once calibrated, and `samples`
/// are the lane's samples in ns per unit, in sweep order.
struct Timed {
    run: Box<dyn FnMut(u64)>,
    units: u64,
    samples: Vec<f64>,
}

impl Timed {
    fn new(run: impl FnMut(u64) + 'static) -> Timed {
        Timed {
            run: Box::new(run),
            units: 0,
            samples: Vec::new(),
        }
    }

    /// Nanoseconds per unit over `units` units under one timer.
    fn time_ns(&mut self, units: u64) -> f64 {
        let start = Instant::now();
        (self.run)(units);
        start.elapsed().as_nanos() as f64 / units as f64
    }

    /// Doubles the units until a sample takes an eighth of `SAMPLE_NS`,
    /// then scales them to `SAMPLE_NS` (which also warms the lane).
    fn calibrate(&mut self) {
        let mut units = 1u64;
        self.units = loop {
            let ns = self.time_ns(units) * units as f64;
            if ns >= SAMPLE_NS / 8.0 {
                break (units as f64 * SAMPLE_NS / ns).ceil() as u64;
            }
            units *= 2;
        };
    }

    fn sample(&mut self) {
        let ns = self.time_ns(self.units);
        self.samples.push(ns);
    }

    fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// Calibrates every lane once, then samples the lanes in turn, `sweeps`
/// times, so a slow phase of the host hits every lane alike.
fn round_robin(lanes: &mut [&mut Timed], sweeps: usize) {
    for lane in lanes.iter_mut() {
        lane.calibrate();
    }
    for _ in 0..sweeps {
        for lane in lanes.iter_mut() {
            lane.sample();
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    xs[xs.len() / 2]
}

/// The measured machine: CPU model and available cores.
fn host() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{cpu}, {cores} cores available")
}

/// The report's sections, in the order of their first rows: each a name
/// and its rows, already written as JSON.
struct Report(Vec<(&'static str, Vec<String>)>);

impl Report {
    /// Prints one row of `section` as `section key=value …` and keeps it
    /// for the JSON. `fields` are keys with their values written as JSON.
    fn row(&mut self, section: &'static str, fields: &[(&'static str, String)]) {
        let pairs: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("{section} {}", pairs.join(" "));
        let fields: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("      \"{key}\": {value}"))
            .collect();
        let row = format!("    {{\n{}\n    }}", fields.join(",\n"));
        match self.0.iter_mut().find(|(name, _)| *name == section) {
            Some((_, rows)) => rows.push(row),
            None => self.0.push((section, vec![row])),
        }
    }

    /// The whole document, after `header` (lines of top-level fields).
    fn json(&self, header: &[(&str, String)]) -> String {
        let header = header
            .iter()
            .map(|(key, value)| format!("  \"{key}\": {value}"));
        let sections = self
            .0
            .iter()
            .map(|(name, rows)| format!("  \"{name}\": [\n{}\n  ]", rows.join(",\n")));
        let body: Vec<String> = header.chain(sections).collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }
}

fn quoted(text: &str) -> String {
    format!("\"{text}\"")
}

/// A timed micro lane and its row, less its timed figure: the row's
/// section and fields, and the key of the timed figure, which is the
/// lane's ns per unit over `per`.
struct Pending {
    section: &'static str,
    fields: Vec<(&'static str, String)>,
    key: &'static str,
    per: f64,
    run: Timed,
}

/// A `registry` lane: one full-scale registry spec as registered, and
/// under `ProbeManifest::outcome_only()` where it registers other probes.
struct RegistryLane {
    name: &'static str,
    cells: u64,
    rounds: u64,
    probes: usize,
    registered: Timed,
    outcome_only: Option<Timed>,
}

impl RegistryLane {
    /// Builds the lane, running every cell once under each manifest it
    /// times: each must be safe and terminated, and execute the same
    /// rounds under each.
    fn new(registry: &Registry, name: &'static str) -> RegistryLane {
        let registered = registry
            .get(name)
            .unwrap_or_else(|| panic!("no registry spec {name}"))
            .clone();
        let outcome_only =
            (registered.probes != ProbeManifest::outcome_only()).then(|| ScenarioSpec {
                probes: ProbeManifest::outcome_only(),
                ..registered.clone()
            });
        let mut rounds = 0;
        for case in 0..registered.seeds {
            let executed: Vec<_> = std::iter::once(&registered)
                .chain(&outcome_only)
                .map(|spec| {
                    let metrics = spec.run_cell(0, case).metrics;
                    for flag in [MetricId::Safe, MetricId::Terminated] {
                        assert_eq!(
                            metrics.get(flag),
                            Some(MetricValue::Bool(true)),
                            "{name} case {case}: a timed cell must be safe and terminated ({flag:?})"
                        );
                    }
                    metrics.get(MetricId::RoundsExecuted)
                })
                .collect();
            assert!(
                executed.iter().all(|e| *e == executed[0]),
                "{name} case {case}: the probes changed the execution"
            );
            let Some(MetricValue::U64(executed)) = executed[0] else {
                panic!("{name} case {case}: no rounds_executed");
            };
            rounds += executed;
        }
        RegistryLane {
            name,
            cells: registered.seeds,
            rounds,
            probes: registered.probes.kinds().len(),
            registered: passes(registered),
            outcome_only: outcome_only.map(passes),
        }
    }

    /// The lane's timed clones, registered first.
    fn timed(&mut self) -> impl Iterator<Item = &mut Timed> {
        std::iter::once(&mut self.registered).chain(&mut self.outcome_only)
    }
}

/// `spec` as a timed lane, each unit one pass over every cell.
fn passes(spec: ScenarioSpec) -> Timed {
    Timed::new(move |passes| {
        for _ in 0..passes {
            for case in 0..spec.seeds {
                black_box(spec.run_cell(0, case));
            }
        }
    })
}

/// A round observer the allocation gates build afresh for `n` processes.
trait Observer<M: Ord>: RoundObserver<M> + 'static {
    /// The lane label.
    const NAME: &'static str;
    fn fresh(n: usize) -> Self;
}

impl<M: Ord> Observer<M> for () {
    const NAME: &'static str = "none";
    fn fresh(_n: usize) -> Self {}
}

impl<M: Ord + 'static> Observer<M> for ProbeSet<M> {
    const NAME: &'static str = "probes";
    fn fresh(_n: usize) -> Self {
        ProbeSet::from_manifest(&ProbeManifest::standard())
    }
}

impl<M: Ord + Clone + 'static> Observer<M> for ExecutionTrace<M> {
    const NAME: &'static str = "trace";
    fn fresh(n: usize) -> Self {
        ExecutionTrace::new(n)
    }
}

/// One allocation lane: `advance(rounds)` executes that many further
/// rounds under the lane's observer.
struct Lane {
    stack: &'static str,
    processes: usize,
    observer: &'static str,
    advance: Box<dyn FnMut(u64)>,
}

/// A lane driving `engine` under a fresh `O`.
fn lane<O: Observer<u64>>(stack: &'static str, mut engine: Engine<Fixed>) -> Lane {
    let processes = engine.n();
    let mut observer = O::fresh(processes);
    Lane {
        stack,
        processes,
        observer: O::NAME,
        advance: Box::new(move |rounds| {
            for _ in 0..rounds {
                engine.advance(&mut observer);
            }
            black_box(&observer);
        }),
    }
}

/// A real consensus automaton at `n` on the registry's ECF stack
/// (`EnvPlan::components`), driven through `ConsensusRun::step` under a
/// fresh `O`, exactly as a sweep cell runs. Stabilization comes only at
/// round 100 000, so every measured round is pre-stabilization (loss 0.6,
/// detector noise 0.3) and no process may decide inside the window: a
/// halted automaton would stop doing the work the lane gates. (At n = 4,
/// seed 7, both algorithms decide inside it.)
fn consensus_lane<A, O>(
    stack: &'static str,
    n: usize,
    class: CdClass,
    procs: fn(ValueDomain, &[Value]) -> Vec<A>,
) -> Lane
where
    A: ConsensusAutomaton + 'static,
    O: Observer<A::Msg>,
{
    let plan = EnvPlan {
        r_cf: 100_000,
        r_acc: 100_000,
        r_wake: 100_000,
        loss: 0.6,
        noise: 0.3,
    };
    let values: Vec<Value> = (0..n as u64).map(|i| Value(i % 16)).collect();
    let mut run = ConsensusRun::new(
        procs(ValueDomain::new(16), &values),
        plan.components(class, 7),
    )
    .with_observer(O::fresh(n));
    Lane {
        stack,
        processes: n,
        observer: O::NAME,
        advance: Box::new(move |rounds| {
            for _ in 0..rounds {
                run.step();
            }
            assert!(
                run.sim().processes().iter().all(|p| p.decision().is_none()),
                "{stack} n={n}: a process decided inside the measured window"
            );
        }),
    }
}

/// The gates of one consensus automaton: under `none`, `probes` and
/// `trace`, at n = 8 and 50.
fn consensus_lanes<A>(
    stack: &'static str,
    class: CdClass,
    procs: fn(ValueDomain, &[Value]) -> Vec<A>,
) -> Vec<Lane>
where
    A: ConsensusAutomaton + 'static,
{
    [8, 50]
        .into_iter()
        .flat_map(|n| {
            [
                consensus_lane::<A, ()>(stack, n, class, procs),
                consensus_lane::<A, ProbeSet<A::Msg>>(stack, n, class, procs),
                consensus_lane::<A, ExecutionTrace<A::Msg>>(stack, n, class, procs),
            ]
        })
        .collect()
}

/// Sends a fixed message, or nothing, every round the contention manager
/// lets it, and ignores what it hears: the automaton of the `assembly`
/// lanes and of the churn and abstract-MAC allocation lanes.
struct Fixed(Option<u64>);

impl Automaton for Fixed {
    type Msg = u64;
    fn message(&self, cm: CmAdvice) -> Option<u64> {
        self.0.filter(|_| cm.is_active())
    }
    fn transition(&mut self, input: RoundInput<'_, u64>) {
        black_box(input.received);
    }
}

/// `n` `Fixed` automata: `contenders` of them, evenly spaced, send one of
/// `messages` distinct values every round they may; the others stay
/// silent.
/// Returns the senders and the automata.
fn fixed(n: usize, contenders: usize, messages: u64) -> (Vec<ProcessId>, Vec<Fixed>) {
    let senders: Vec<ProcessId> = (0..contenders)
        .map(|j| ProcessId(j * n / contenders))
        .collect();
    let mut procs: Vec<Fixed> = (0..n).map(|_| Fixed(None)).collect();
    for (j, s) in senders.iter().enumerate() {
        procs[s.index()] = Fixed(Some(j as u64 * 7 % messages));
    }
    (senders, procs)
}

/// Replays pre-drawn delivery matrices in a cycle, one per round, each
/// copied row by row into the engine's matrix.
struct Replayed(Vec<DeliveryMatrix>, usize);

impl LossAdversary for Replayed {
    fn deliver_into(
        &mut self,
        _round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        let Replayed(rounds, next) = self;
        out.clear_and_resize(senders, n);
        for r in (0..n).map(ProcessId) {
            out.deliver_row_mask(r, rounds[*next].row_words(r));
        }
        *next = (*next + 1) % rounds.len();
    }
}

/// An engine whose rounds cost mostly receive assembly: `fixed(n,
/// contenders, messages)` against deliveries replayed from 64 rounds drawn
/// at `long-wide`'s p = 0.6 (40 % delivery), with the trivial detector and
/// manager.
fn assembly_engine(n: usize, contenders: usize, messages: u64) -> Engine<Fixed> {
    let (senders, procs) = fixed(n, contenders, messages);
    let mut draws = RandomLoss::new(0.6, 11);
    let rounds = (1..=64)
        .map(|r| draws.deliver(Round(r), &senders, n))
        .collect();
    Engine::new(
        procs,
        black_box(Components {
            detector: Box::new(AlwaysNull),
            manager: Box::new(AllActive),
            loss: Box::new(Replayed(rounds, 0)),
            crash: Box::new(NoCrashes),
        }),
    )
}

/// The full churn stack at n = 50 with a compiled scenario schedule
/// installed: the per-round timeline hook, the timeline-aware components,
/// *and* mid-window event application (`SetLossRate` / `CdSwitch` fire
/// inside the measured steady state, after the crash burst and wake wave
/// land during warm-up) must all stay allocation-free. Each of the 50
/// processes sends its own message whenever the manager lets it.
fn churn() -> Engine<Fixed> {
    let timeline = ScenarioTimeline::new()
        .at_round(Round(4), ScenarioEvent::WakeWave { count: 25 })
        .at_round(Round(10), ScenarioEvent::CrashBurst { count: 1 })
        .at_round(Round(12), ScenarioEvent::SetLossRate { p: 0.6 })
        .at_round(Round(12), ScenarioEvent::CdSwitch { slot: 1 })
        .at_round(Round(450), ScenarioEvent::CdSwitch { slot: 0 })
        .at_round(Round(600), ScenarioEvent::SetLossRate { p: 0.3 });
    let detector = Degrading::new(vec![
        ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Quiet, 7).accurate_from(Round(8)),
        ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Quiet, 8).accurate_from(Round(8)),
    ]);
    Engine::new(
        fixed(50, 50, 50).1,
        black_box(Components {
            detector: Box::new(detector),
            manager: Box::new(StaggeredJoin::new(FairWakeUp::immediate(), 25)),
            loss: Box::new(Ecf::new(RandomLoss::new(0.3, 7), Round(8))),
            crash: Box::new(TimelineCrashes::over(NoCrashes)),
        }),
    )
    .with_schedule(timeline.compile())
}

/// The abstract MAC stack at n = 50 as the `absmac/mac-…` sweep arms
/// assemble it (acknowledged-broadcast channel resolving every round, its
/// bookkeeping detector under the in-class wrap): the pending/attempt
/// tracking and the per-round three-pass resolve must reuse their
/// buffers with all 50 processes sending distinct messages every round.
fn absmac() -> Engine<Fixed> {
    let (channel, detector) = mac_components(MacConfig {
        f_ack: 6,
        f_prog: 2,
        policy: MacDelayPolicy::Random { defer: 0.3 },
        seed: 7,
    });
    Engine::new(
        fixed(50, 50, 50).1,
        black_box(Components {
            detector: Box::new(CheckedDetector::new(detector, CdClass::ZERO_EV_AC)),
            manager: Box::new(AllActive),
            loss: Box::new(channel),
            crash: Box::new(TimelineCrashes::over(NoCrashes)),
        }),
    )
}

fn main() {
    let quick = std::env::var_os("CCWAN_BENCH_QUICK").is_some();
    let sweeps = if quick { 7 } else { 21 };
    let mut report = Report(Vec::new());
    let mut violations: Vec<String> = Vec::new();

    let registry = Registry::standard(Scale::Full);
    let mut registry_lanes: Vec<RegistryLane> = REGISTRY_LANES
        .into_iter()
        .map(|name| RegistryLane::new(&registry, name))
        .collect();
    let mut micro: Vec<Pending> = Vec::new();

    // Steady-state allocator pressure per round, labelled by observer:
    // `none` and `probes` must be exactly zero, `trace` arena growth only.
    let mut lanes = vec![
        lane::<()>("churn", churn()),
        lane::<()>("absmac", absmac()),
        lane::<ProbeSet<u64>>("churn", churn()),
        lane::<ProbeSet<u64>>("absmac", absmac()),
    ];
    lanes.extend(consensus_lanes("alg1", CdClass::MAJ_EV_AC, alg1::processes));
    lanes.extend(consensus_lanes(
        "alg2",
        CdClass::ZERO_EV_AC,
        alg2::processes,
    ));
    for lane in lanes {
        let (stack, n, observer) = (lane.stack, lane.processes, lane.observer);
        let (allocs, bytes) = steady_state_allocs(lane.advance);
        // The trace arena may grow (amortized doubling), so its gate is
        // O(1) amortized rather than exactly zero: averaged over the
        // steady-state window, recording a round must cost less than one
        // allocation.
        let gated = if observer == "trace" {
            allocs >= 1.0
        } else {
            allocs != 0.0
        };
        if gated {
            violations.push(format!(
                "{stack}/n{n} under {observer}: {allocs} allocs/round ({bytes} bytes/round)"
            ));
        }
        report.row(
            "allocation",
            &[
                ("stack", quoted(stack)),
                ("processes", n.to_string()),
                ("observer", quoted(observer)),
                ("allocs_per_round", format!("{allocs:.3}")),
                ("bytes_per_round", format!("{bytes:.1}")),
            ],
        );
    }

    // The SINR radio: `resolve_into` into a reused `PhyRound` must be
    // allocation-free in steady state (the scratch buffers and the round's
    // output buffers all keep their storage), up to the n = 128
    // wide-system cell. Building the radio must cost exactly its two
    // buffers (positions and gains) at every n.
    for (n, contenders) in [(8, 4), (32, 16), (64, 32), (128, 64)] {
        let (calls0, _) = alloc_snapshot();
        let channel = black_box(RadioChannel::new(PhyConfig::new(n, 11)));
        let allocs_per_new = alloc_snapshot().0 - calls0;
        if allocs_per_new != 2 {
            violations.push(format!(
                "phy RadioChannel::new n={n}: {allocs_per_new} allocs (want 2)"
            ));
        }
        let senders: Vec<ProcessId> = (0..contenders).map(ProcessId).collect();
        let mut out = PhyRound::new();
        let mut next_round = 1u64;
        let mut resolve = move |count: u64| {
            for _ in 0..count {
                channel.resolve_into(Round(next_round), &senders, &mut out);
                next_round += 1;
            }
            black_box(&out);
        };
        let (allocs, bytes) = steady_state_allocs(&mut resolve);
        if allocs != 0.0 {
            violations.push(format!(
                "phy resolve n={n} senders={contenders}: {allocs} allocs/call"
            ));
        }
        micro.push(Pending {
            section: "phy_resolve",
            fields: vec![
                ("n", n.to_string()),
                ("senders", contenders.to_string()),
                ("allocs_per_call", format!("{allocs:.3}")),
                ("bytes_per_call", format!("{bytes:.1}")),
                ("allocs_per_new", allocs_per_new.to_string()),
            ],
            key: "ns_per_call",
            per: 1.0,
            run: Timed::new(resolve),
        });
    }

    // Loss draws: `RandomLoss::deliver_into` alone, into a reused matrix,
    // at `long-wide`'s shape (p = 0.6, 40 % of the processes sending).
    // Each lane names the kernel this host selects for its round size and
    // is gated at exactly 0 allocs/call.
    for n in [16, 64] {
        let contenders = (0.4 * n as f64).round() as usize;
        let senders: Vec<ProcessId> = (0..contenders)
            .map(|j| ProcessId(j * n / contenders))
            .collect();
        let pairs = contenders * n;
        let kernel = if RandomLoss::runs_avx512(pairs) {
            "avx512"
        } else {
            "per-pair"
        };
        let mut loss = RandomLoss::new(0.6, 7);
        let mut out = DeliveryMatrix::empty();
        let mut next_round = 1u64;
        let mut deliver = move |count: u64| {
            for _ in 0..count {
                loss.deliver_into(Round(next_round), &senders, n, &mut out);
                next_round += 1;
            }
            black_box(&out);
        };
        let (allocs, bytes) = steady_state_allocs(&mut deliver);
        if allocs != 0.0 {
            violations.push(format!(
                "loss draws n={n} senders={contenders}: {allocs} allocs/call"
            ));
        }
        micro.push(Pending {
            section: "loss_draws",
            fields: vec![
                ("n", n.to_string()),
                ("senders", contenders.to_string()),
                ("p_loss", "0.6".to_string()),
                ("kernel", quoted(kernel)),
                ("allocs_per_call", format!("{allocs:.3}")),
                ("bytes_per_call", format!("{bytes:.1}")),
            ],
            key: "ns_per_pair",
            per: pairs as f64,
            run: Timed::new(deliver),
        });
    }

    // Receive assembly: engine rounds built so that assembly is most of
    // their cost (see `assembly_engine`), at `long-wide`'s shapes — n = 64
    // with one distinct message (most of its rounds) and with six, and
    // n = 16. Each lane is gated at exactly 0 allocs/round.
    for (n, contenders, messages) in [(64, 28, 1), (64, 28, 6), (16, 6, 1)] {
        let mut engine = assembly_engine(n, contenders, messages);
        let mut advance = move |count: u64| {
            for _ in 0..count {
                engine.advance(&mut ());
            }
        };
        let (allocs, bytes) = steady_state_allocs(&mut advance);
        if allocs != 0.0 {
            violations.push(format!(
                "assembly n={n} senders={contenders} messages={messages}: {allocs} allocs/round"
            ));
        }
        micro.push(Pending {
            section: "assembly",
            fields: vec![
                ("n", n.to_string()),
                ("senders", contenders.to_string()),
                ("messages", messages.to_string()),
                ("delivery", "0.4".to_string()),
                ("allocs_per_round", format!("{allocs:.3}")),
                ("bytes_per_round", format!("{bytes:.1}")),
            ],
            key: "ns_per_round",
            per: 1.0,
            run: Timed::new(advance),
        });
    }

    let mut timed: Vec<&mut Timed> = registry_lanes
        .iter_mut()
        .flat_map(RegistryLane::timed)
        .chain(micro.iter_mut().map(|lane| &mut lane.run))
        .collect();
    round_robin(&mut timed, sweeps);
    for lane in &registry_lanes {
        let ns_per_pass = lane.registered.median();
        let us_per_cell = ns_per_pass / lane.cells as f64 / 1e3;
        let ns_per_round = ns_per_pass / lane.rounds as f64;
        let mut fields = vec![
            ("spec", quoted(lane.name)),
            ("cells", lane.cells.to_string()),
            ("rounds", lane.rounds.to_string()),
            ("probes", lane.probes.to_string()),
            ("us_per_cell", format!("{us_per_cell:.2}")),
            ("ns_per_round", format!("{ns_per_round:.1}")),
        ];
        if let Some(outcome_only) = &lane.outcome_only {
            let registered = &lane.registered.samples;
            let ratios: Vec<f64> = registered
                .iter()
                .zip(&outcome_only.samples)
                .map(|(registered, outcome_only)| registered / outcome_only)
                .collect();
            fields.push(("probe_ratio", format!("{:.3}", median(&ratios))));
        }
        report.row("registry", &fields);
    }
    for lane in micro {
        let mut fields = lane.fields;
        fields.push((lane.key, format!("{:.2}", lane.run.median() / lane.per)));
        report.row(lane.section, &fields);
    }

    let json = report.json(&[
        ("bench", quoted("engine_dispatch")),
        ("host", quoted(&host())),
        (
            "method",
            quoted(&format!(
                "every timed lane calibrated once to ~{} ms a sample, then all sampled \
                 round-robin {sweeps} times; medians, and ratios the median of per-sweep ratios",
                SAMPLE_NS / 1e6
            )),
        ),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(out, &json).expect("write BENCH_engine.json");
    println!("\nwrote {out}");

    // The CI gates, checked after the JSON is written so a regression
    // still leaves the numbers on disk.
    assert!(
        violations.is_empty(),
        "allocation gates failed:\n  {}",
        violations.join("\n  ")
    );
}
