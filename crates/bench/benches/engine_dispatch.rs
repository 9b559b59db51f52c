//! `engine_dispatch`: the round engine on its one code path,
//! `Engine::advance`, under each kind of round observer — `()` (keep
//! nothing), the sweep's standard `ProbeSet` (measure live) and
//! `ExecutionTrace` (record everything).
//!
//! Two synthetic stacks drive a `Beacon` automaton whose per-round work is
//! a few adds, so the engine dominates the profile:
//!
//! * `storm` — trivial components (`AlwaysNull`/`AllActive`/`NoLoss`/
//!   `NoCrashes`): every process broadcasts every round;
//! * `ecf` — a realistic experiment stack (in-class detector, fair
//!   wake-up, ECF-wrapped random loss).
//!
//! Every stack is a boxed `Components` bundle, as in every registry cell,
//! so each lane pays the registry's virtual calls.
//!
//! The bench reports the observers' per-run overhead against `()`
//! (interleaved paired sampling: the two variants alternate back to back
//! and the reported ratio is the median of per-pair ratios, which cancels
//! the drift of a shared machine) and the unobserved engine's
//! rounds/sec and messages/sec.
//!
//! The process also runs under a **counting global allocator** and reports
//! steady-state allocations/round and bytes/round of every lane, plus
//! allocations/call of the SINR radio's `resolve_into` and of
//! `RandomLoss::deliver_into`, and the allocations of one
//! `RadioChannel::new`. The lanes add the
//! churn and abstract-MAC stacks and the real Algorithm 1 and Algorithm 2
//! automata on the registry's ECF stack. The allocation gates make
//! the bench exit nonzero (which is what the CI bench-smoke step gates
//! on):
//!
//! * a round under the `none` or `probes` observer must be exactly
//!   zero-allocation after warm-up;
//! * a round under the `trace` observer must stay O(1) amortized — arena
//!   growth only, gated at < 1 allocation/round in the steady-state
//!   window;
//! * `RadioChannel::resolve_into` into a reused `PhyRound` must be
//!   exactly zero-allocation after warm-up;
//! * `RadioChannel::new` must make exactly 2 allocations (its positions
//!   and gains) at every lane's n;
//! * `RandomLoss::deliver_into` into a reused `DeliveryMatrix` (the
//!   `loss_draws` lanes, n = 16 and 64 at `long-wide`'s p = 0.6 and 40 %
//!   senders, timed in ns per pair with the kernel the host selects) must
//!   be exactly zero-allocation after warm-up;
//! * an engine round whose cost is mostly receive assembly (the
//!   `assembly` lanes: `long-wide`'s shapes, 40 % of the processes
//!   sending one or six distinct messages at 40 % delivery, replayed
//!   from pre-drawn matrices, timed in ns per round) must be exactly
//!   zero-allocation after warm-up.
//!
//! Besides the stdout report, the bench writes machine-readable results,
//! with the host they were measured on, to `BENCH_engine.json` at the
//! workspace root. Run with:
//!
//! ```text
//! cargo bench -p wan-bench --bench engine_dispatch          # full
//! CCWAN_BENCH_QUICK=1 cargo bench -p wan-bench --bench engine_dispatch
//! ```

use ccwan_core::{alg1, alg2, ConsensusAutomaton, ConsensusRun, Value, ValueDomain};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use wan_bench::experiments::helpers::EnvPlan;
use wan_bench::sweep::{ProbeManifest, ProbeSet};
use wan_cd::{CdClass, CheckedDetector, ClassDetector, Degrading, FreedomPolicy};
use wan_cm::FairWakeUp;
use wan_mac::{mac_components, MacConfig, MacDelayPolicy};
use wan_phy::{PhyConfig, PhyRound, RadioChannel};
use wan_sim::crash::{NoCrashes, TimelineCrashes};
use wan_sim::loss::{Ecf, NoLoss, RandomLoss};
use wan_sim::{
    AllActive, AlwaysNull, Automaton, CmAdvice, Components, DeliveryMatrix, Engine, ExecutionTrace,
    LossAdversary, ProcessId, Round, RoundInput, RoundObserver, ScenarioEvent, ScenarioTimeline,
    StaggeredJoin,
};

const ROUNDS: u64 = 1000;

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

/// Broadcasts its id every round and folds what it hears into a checksum:
/// per-round automaton work is a few adds, so the engine dominates the
/// profile.
struct Beacon {
    id: usize,
    checksum: u64,
}

impl Automaton for Beacon {
    type Msg = u64;
    fn message(&self, cm: CmAdvice) -> Option<u64> {
        cm.is_active().then_some(self.id as u64)
    }
    fn transition(&mut self, input: RoundInput<'_, u64>) {
        self.checksum = self
            .checksum
            .wrapping_add(input.received.total() as u64)
            .wrapping_add(input.round.0);
    }
}

fn beacons(n: usize) -> Vec<Beacon> {
    (0..n).map(|id| Beacon { id, checksum: 0 }).collect()
}

/// `n` beacons against `components`. `black_box` keeps the component
/// types opaque, as they are in registry-driven sweeps.
fn beacon_engine(n: usize, components: Components) -> Engine<Beacon> {
    Engine::new(beacons(n), black_box(components))
}

/// The `storm` stack: every process broadcasts every round.
fn storm(n: usize) -> Engine<Beacon> {
    beacon_engine(
        n,
        Components {
            detector: Box::new(AlwaysNull),
            manager: Box::new(AllActive),
            loss: Box::new(NoLoss),
            crash: Box::new(NoCrashes),
        },
    )
}

/// The `ecf` stack.
fn ecf(n: usize) -> Engine<Beacon> {
    beacon_engine(
        n,
        Components {
            detector: Box::new(
                ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Quiet, 7)
                    .accurate_from(Round(8)),
            ),
            manager: Box::new(FairWakeUp::immediate()),
            loss: Box::new(Ecf::new(RandomLoss::new(0.3, 7), Round(8))),
            crash: Box::new(NoCrashes),
        },
    )
}

fn checksum(procs: &[Beacon]) -> u64 {
    procs.iter().fold(0u64, |a, p| a.wrapping_add(p.checksum))
}

/// A round observer the bench can build afresh for `n` processes.
trait Observer: RoundObserver<u64> {
    /// The lane label.
    const NAME: &'static str;
    fn fresh(n: usize) -> Self;
}

impl Observer for () {
    const NAME: &'static str = "none";
    fn fresh(_n: usize) -> Self {}
}

impl Observer for ProbeSet<u64> {
    const NAME: &'static str = "probes";
    fn fresh(_n: usize) -> Self {
        ProbeSet::from_manifest(&ProbeManifest::standard())
    }
}

impl Observer for ExecutionTrace<u64> {
    const NAME: &'static str = "trace";
    fn fresh(n: usize) -> Self {
        ExecutionTrace::new(n)
    }
}

/// One `ROUNDS`-round run of `engine` under a fresh `O`; returns the
/// processes' checksum.
fn run_under<O: Observer>(mut engine: Engine<Beacon>) -> u64 {
    let mut observer = O::fresh(engine.n());
    for _ in 0..ROUNDS {
        engine.advance(&mut observer);
    }
    black_box(&observer);
    checksum(engine.processes())
}

fn run_storm<const N: usize, O: Observer>() -> u64 {
    run_under::<O>(storm(N))
}

fn run_ecf<const N: usize, O: Observer>() -> u64 {
    run_under::<O>(ecf(N))
}

/// Broadcasts in one `ROUNDS`-round run of `engine` (for the
/// messages/sec figure): counted off a recorded trace, not assumed.
fn broadcasts(mut engine: Engine<Beacon>) -> u64 {
    let mut trace = ExecutionTrace::new(engine.n());
    for _ in 0..ROUNDS {
        engine.advance(&mut trace);
    }
    trace.rounds().map(|v| v.sent_count() as u64).sum()
}

fn broadcasts_storm<const N: usize>() -> u64 {
    broadcasts(storm(N))
}

fn broadcasts_ecf<const N: usize>() -> u64 {
    broadcasts(ecf(N))
}

/// Nanoseconds per run, over `iters` back-to-back runs under one timer.
fn time_ns(f: fn() -> u64, iters: u64) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Interleaved paired comparison: alternates `base`/`other` samples and
/// returns (median `other`/`base` ratio, base median ns, other median ns).
fn paired_ratio(base: fn() -> u64, other: fn() -> u64) -> (f64, f64, f64) {
    let quick = std::env::var_os("CCWAN_BENCH_QUICK").is_some();
    let pairs = if quick { 7 } else { 21 };
    // Calibrate so one sample costs ~60 ms.
    let once = time_ns(base, 1);
    let iters = ((60_000_000.0 / once) as u64).max(1);
    // Warm both variants.
    time_ns(base, iters);
    time_ns(other, iters);
    let mut ratios = Vec::with_capacity(pairs);
    let mut base_ns = Vec::with_capacity(pairs);
    let mut other_ns = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let b = time_ns(base, iters);
        let o = time_ns(other, iters);
        ratios.push(o / b);
        base_ns.push(b);
        other_ns.push(o);
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        xs[xs.len() / 2]
    };
    (
        median(&mut ratios),
        median(&mut base_ns),
        median(&mut other_ns),
    )
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

/// One allocation lane: `advance(rounds)` executes that many further
/// rounds under the lane's observer.
struct Lane {
    stack: &'static str,
    processes: usize,
    observer: &'static str,
    advance: Box<dyn FnMut(u64)>,
}

/// A lane driving `engine` under a fresh `O`.
fn lane<O: Observer + 'static>(stack: &'static str, mut engine: Engine<Beacon>) -> Lane {
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

/// Sends a fixed message every round, or nothing, and ignores what it
/// hears: the `assembly` lanes' automaton.
struct Fixed(Option<u64>);

impl Automaton for Fixed {
    type Msg = u64;
    fn message(&self, _cm: CmAdvice) -> Option<u64> {
        self.0
    }
    fn transition(&mut self, input: RoundInput<'_, u64>) {
        black_box(input.received);
    }
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

/// An engine whose rounds cost mostly receive assembly: `contenders` of
/// `n` processes, evenly spaced, send one of `messages` distinct values
/// every round; the others stay silent. Deliveries replay 64 rounds drawn
/// at `long-wide`'s p = 0.6 (40 % delivery), the detector and manager are
/// the trivial ones, and the automata do no work.
fn assembly_engine(n: usize, contenders: usize, messages: u64) -> Engine<Fixed> {
    let senders: Vec<ProcessId> = (0..contenders)
        .map(|j| ProcessId(j * n / contenders))
        .collect();
    let mut procs: Vec<Fixed> = (0..n).map(|_| Fixed(None)).collect();
    for (j, s) in senders.iter().enumerate() {
        procs[s.index()] = Fixed(Some(j as u64 * 7 % messages));
    }
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

/// A real consensus automaton at n = 50 on the registry's ECF stack
/// (`EnvPlan::components`), driven through `ConsensusRun::step` with the
/// standard probe set as the observer, exactly as a sweep cell runs.
/// Stabilization comes only at round 100 000, so every measured round is
/// pre-stabilization (loss 0.6, detector noise 0.3) and no process may
/// decide inside the window: a halted automaton would stop doing the work
/// the lane gates.
fn consensus_lane<A>(
    stack: &'static str,
    class: CdClass,
    procs: fn(ValueDomain, &[Value]) -> Vec<A>,
) -> Lane
where
    A: ConsensusAutomaton + 'static,
    A::Msg: 'static,
{
    const N: usize = 50;
    let plan = EnvPlan {
        r_cf: 100_000,
        r_acc: 100_000,
        r_wake: 100_000,
        loss: 0.6,
        noise: 0.3,
    };
    let values: Vec<Value> = (0..N as u64).map(|i| Value(i % 16)).collect();
    let mut run = ConsensusRun::new(
        procs(ValueDomain::new(16), &values),
        plan.components(class, 7),
    )
    .with_observer(ProbeSet::from_manifest(&ProbeManifest::standard()));
    Lane {
        stack,
        processes: N,
        observer: "probes",
        advance: Box::new(move |rounds| {
            for _ in 0..rounds {
                run.step();
            }
            assert!(
                run.sim().processes().iter().all(|p| p.decision().is_none()),
                "{stack}: a process decided inside the measured window"
            );
        }),
    }
}

fn main() {
    let quick = std::env::var_os("CCWAN_BENCH_QUICK").is_some();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"engine_dispatch\",");
    let _ = writeln!(json, "  \"host\": \"{}\",", host());
    let _ = writeln!(json, "  \"rounds_per_run\": {ROUNDS},");
    let _ = writeln!(
        json,
        "  \"method\": \"interleaved paired sampling; ratio = median of per-pair observed/unobserved run times\","
    );

    // What each observer adds to a run of the same engine, against the
    // no-op `()`.
    type OverheadCell = (&'static str, usize, &'static str, fn() -> u64, fn() -> u64);
    let overhead_cells: [OverheadCell; 4] = [
        (
            "storm",
            4,
            "probes",
            run_storm::<4, ()>,
            run_storm::<4, ProbeSet<u64>>,
        ),
        (
            "storm",
            4,
            "trace",
            run_storm::<4, ()>,
            run_storm::<4, ExecutionTrace<u64>>,
        ),
        (
            "ecf",
            50,
            "probes",
            run_ecf::<50, ()>,
            run_ecf::<50, ProbeSet<u64>>,
        ),
        (
            "ecf",
            50,
            "trace",
            run_ecf::<50, ()>,
            run_ecf::<50, ExecutionTrace<u64>>,
        ),
    ];
    let _ = writeln!(json, "  \"observer_overhead\": [");
    let count = overhead_cells.len();
    for (i, (stack, n, observer, none_f, observed_f)) in overhead_cells.into_iter().enumerate() {
        assert_eq!(none_f(), observed_f(), "the observer changed the execution");
        let (ratio, none_ns, observed_ns) = paired_ratio(none_f, observed_f);
        println!(
            "paired {stack:<6} n={n:<3} none {none_ns:>14.1} ns/run  {observer:<6} \
             {observed_ns:>14.1} ns/run  ratio {ratio:.3}x"
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"stack\": \"{stack}\",");
        let _ = writeln!(json, "      \"processes\": {n},");
        let _ = writeln!(json, "      \"observer\": \"{observer}\",");
        let _ = writeln!(json, "      \"none_ns_per_run\": {none_ns:.1},");
        let _ = writeln!(json, "      \"observed_ns_per_run\": {observed_ns:.1},");
        let _ = writeln!(json, "      \"ratio_observed_over_none\": {ratio:.3}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // Throughput of the unobserved engine: simulated rounds/sec and
    // broadcasts/sec per stack. Message counts come off one recorded
    // trace of the identical run, not an assumption about the contention
    // manager.
    type ThroughputCell = (&'static str, usize, fn() -> u64, fn() -> u64);
    let throughput_cells: [ThroughputCell; 4] = [
        ("storm", 4, run_storm::<4, ()>, broadcasts_storm::<4>),
        ("ecf", 4, run_ecf::<4, ()>, broadcasts_ecf::<4>),
        ("storm", 50, run_storm::<50, ()>, broadcasts_storm::<50>),
        ("ecf", 50, run_ecf::<50, ()>, broadcasts_ecf::<50>),
    ];
    let _ = writeln!(json, "  \"throughput\": [");
    let count = throughput_cells.len();
    for (i, (stack, n, run_f, broadcasts_f)) in throughput_cells.into_iter().enumerate() {
        let messages = broadcasts_f();
        // Calibrate to ~40 ms per sample, take the median of several.
        let once = time_ns(run_f, 1);
        let iters = ((40_000_000.0 / once) as u64).max(1);
        time_ns(run_f, iters); // warm
        let samples = if quick { 5 } else { 11 };
        let mut ns: Vec<f64> = (0..samples).map(|_| time_ns(run_f, iters)).collect();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let ns_per_run = ns[ns.len() / 2];
        let rounds_per_sec = ROUNDS as f64 * 1e9 / ns_per_run;
        let messages_per_sec = messages as f64 * 1e9 / ns_per_run;
        println!(
            "thru   {stack:<6} n={n:<3} {rounds_per_sec:>14.0} rounds/sec  \
             {messages_per_sec:>14.0} messages/sec  ({messages} msgs/run)"
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"stack\": \"{stack}\",");
        let _ = writeln!(json, "      \"processes\": {n},");
        let _ = writeln!(json, "      \"ns_per_run\": {ns_per_run:.1},");
        let _ = writeln!(json, "      \"messages_per_run\": {messages},");
        let _ = writeln!(json, "      \"rounds_per_sec\": {rounds_per_sec:.0},");
        let _ = writeln!(json, "      \"messages_per_sec\": {messages_per_sec:.0}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // Steady-state allocator pressure per round, via the counting global
    // allocator, labelled by observer: `none` and `probes` must be exactly
    // zero, `trace` arena growth only (the CI gates, asserted below).
    // The full churn stack with a compiled scenario schedule installed:
    // the per-round timeline hook, the timeline-aware components, *and*
    // mid-window event application (`SetLossRate` / `CdSwitch` fire
    // inside the measured steady state, after the crash burst and wake
    // wave land during warm-up) must all stay allocation-free.
    let churn = || {
        let timeline = ScenarioTimeline::new()
            .at_round(Round(4), ScenarioEvent::WakeWave { count: 25 })
            .at_round(Round(10), ScenarioEvent::CrashBurst { count: 1 })
            .at_round(Round(12), ScenarioEvent::SetLossRate { p: 0.6 })
            .at_round(Round(12), ScenarioEvent::CdSwitch { slot: 1 })
            .at_round(Round(450), ScenarioEvent::CdSwitch { slot: 0 })
            .at_round(Round(600), ScenarioEvent::SetLossRate { p: 0.3 });
        let detector = Degrading::new(vec![
            ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Quiet, 7).accurate_from(Round(8)),
            ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Quiet, 8)
                .accurate_from(Round(8)),
        ]);
        let manager = StaggeredJoin::new(FairWakeUp::immediate(), 25);
        let loss = Ecf::new(RandomLoss::new(0.3, 7), Round(8));
        beacon_engine(
            50,
            Components {
                detector: Box::new(detector),
                manager: Box::new(manager),
                loss: Box::new(loss),
                crash: Box::new(TimelineCrashes::over(NoCrashes)),
            },
        )
        .with_schedule(timeline.compile())
    };
    // The abstract MAC stack as the `absmac/mac-…` sweep arms assemble it
    // (acknowledged-broadcast channel resolving every round, its
    // bookkeeping detector under the in-class wrap): the pending/attempt
    // tracking and the per-round three-pass resolve must reuse their
    // buffers.
    let absmac = || {
        let (channel, detector) = mac_components(MacConfig {
            f_ack: 6,
            f_prog: 2,
            policy: MacDelayPolicy::Random { defer: 0.3 },
            seed: 7,
        });
        beacon_engine(
            50,
            Components {
                detector: Box::new(CheckedDetector::new(detector, CdClass::ZERO_EV_AC)),
                manager: Box::new(AllActive),
                loss: Box::new(channel),
                crash: Box::new(TimelineCrashes::over(NoCrashes)),
            },
        )
    };
    let lanes: Vec<Lane> = vec![
        lane::<()>("storm", storm(4)),
        lane::<()>("storm", storm(50)),
        lane::<()>("ecf", ecf(4)),
        lane::<()>("ecf", ecf(50)),
        lane::<()>("churn", churn()),
        lane::<()>("absmac", absmac()),
        lane::<ProbeSet<u64>>("storm", storm(4)),
        lane::<ProbeSet<u64>>("ecf", ecf(50)),
        lane::<ProbeSet<u64>>("churn", churn()),
        lane::<ProbeSet<u64>>("absmac", absmac()),
        consensus_lane("alg1", CdClass::MAJ_EV_AC, alg1::processes),
        consensus_lane("alg2", CdClass::ZERO_EV_AC, alg2::processes),
        lane::<ExecutionTrace<u64>>("storm", storm(4)),
        lane::<ExecutionTrace<u64>>("storm", storm(50)),
        lane::<ExecutionTrace<u64>>("ecf", ecf(50)),
    ];

    let _ = writeln!(json, "  \"allocation\": [");
    let count = lanes.len();
    let mut alloc_violations: Vec<String> = Vec::new();
    for (i, lane) in lanes.into_iter().enumerate() {
        let Lane {
            stack,
            processes: n,
            observer,
            advance,
        } = lane;
        let (allocs, bytes) = steady_state_allocs(advance);
        println!(
            "allocs {stack:<6} n={n:<3} {observer:<6} {allocs:>10.3} allocs/round  \
             {bytes:>12.1} bytes/round"
        );
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
            alloc_violations.push(format!(
                "{stack}/n{n} under {observer}: {allocs} allocs/round \
                 ({bytes} bytes/round)"
            ));
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"stack\": \"{stack}\",");
        let _ = writeln!(json, "      \"processes\": {n},");
        let _ = writeln!(json, "      \"observer\": \"{observer}\",");
        let _ = writeln!(json, "      \"allocs_per_round\": {allocs:.3},");
        let _ = writeln!(json, "      \"bytes_per_round\": {bytes:.1}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // The SINR radio: `resolve_into` into a reused `PhyRound` must be
    // allocation-free in steady state (the scratch buffers and the round's
    // output buffers all keep their storage). Every batched lane — up to
    // the n = 128 wide-system cell — is gated at exactly 0 allocs/call.
    // Building the radio must cost exactly its two buffers (positions and
    // gains) at every n.
    let _ = writeln!(json, "  \"phy_resolve\": [");
    let phy_cells: [(usize, usize); 4] = [(8, 4), (32, 16), (64, 32), (128, 64)];
    let count = phy_cells.len();
    for (i, (n, contenders)) in phy_cells.into_iter().enumerate() {
        let (calls0, _) = alloc_snapshot();
        let channel = black_box(RadioChannel::new(PhyConfig::new(n, 11)));
        let allocs_per_new = alloc_snapshot().0 - calls0;
        if allocs_per_new != 2 {
            alloc_violations.push(format!(
                "phy RadioChannel::new n={n}: {allocs_per_new} allocs (want 2)"
            ));
        }
        let senders: Vec<ProcessId> = (0..contenders).map(ProcessId).collect();
        let mut out = PhyRound::new();
        let mut next_round = 1u64;
        let mut resolve_rounds = |count: u64| {
            for _ in 0..count {
                channel.resolve_into(Round(next_round), &senders, &mut out);
                next_round += 1;
            }
        };
        let (allocs, bytes) = steady_state_allocs(&mut resolve_rounds);
        // Median of calibrated samples (like the throughput section): a
        // single short window is too noisy to gate a speedup target on.
        let mut sample_ns = |iters: u64| {
            let start = std::time::Instant::now();
            resolve_rounds(iters);
            start.elapsed().as_nanos() as f64 / iters as f64
        };
        let once = sample_ns(20);
        let iters = ((30_000_000.0 / once) as u64).clamp(50, 20_000);
        let samples = if quick { 5 } else { 9 };
        let mut ns: Vec<f64> = (0..samples).map(|_| sample_ns(iters)).collect();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let ns_per_call = ns[ns.len() / 2];
        println!(
            "phy    n={n:<3} senders={contenders:<3} {allocs:>10.3} allocs/call  \
             {bytes:>12.1} bytes/call  {ns_per_call:>10.1} ns/call  \
             {allocs_per_new} allocs/new"
        );
        if allocs != 0.0 {
            alloc_violations.push(format!(
                "phy resolve n={n} senders={contenders}: {allocs} allocs/call"
            ));
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"n\": {n},");
        let _ = writeln!(json, "      \"senders\": {contenders},");
        let _ = writeln!(json, "      \"allocs_per_call\": {allocs:.3},");
        let _ = writeln!(json, "      \"bytes_per_call\": {bytes:.1},");
        let _ = writeln!(json, "      \"ns_per_call\": {ns_per_call:.1},");
        let _ = writeln!(json, "      \"allocs_per_new\": {allocs_per_new}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // Loss draws: `RandomLoss::deliver_into` alone, into a reused matrix,
    // at `long-wide`'s shape (p = 0.6, 40 % of the processes sending).
    // Each lane names the kernel this host selects for its round size and
    // is gated at exactly 0 allocs/call.
    let _ = writeln!(json, "  \"loss_draws\": [");
    let loss_cells: [usize; 2] = [16, 64];
    let count = loss_cells.len();
    for (i, n) in loss_cells.into_iter().enumerate() {
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
        let mut deliver_rounds = |count: u64| {
            for _ in 0..count {
                loss.deliver_into(Round(next_round), &senders, n, &mut out);
                next_round += 1;
            }
            black_box(&out);
        };
        let (allocs, bytes) = steady_state_allocs(&mut deliver_rounds);
        let mut sample_ns = |iters: u64| {
            let start = std::time::Instant::now();
            deliver_rounds(iters);
            start.elapsed().as_nanos() as f64 / iters as f64
        };
        let once = sample_ns(1_000);
        let iters = ((30_000_000.0 / once) as u64).max(1_000);
        let samples = if quick { 5 } else { 11 };
        let mut ns: Vec<f64> = (0..samples).map(|_| sample_ns(iters)).collect();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let ns_per_pair = ns[ns.len() / 2] / pairs as f64;
        println!(
            "loss   n={n:<3} senders={contenders:<3} {kernel:<8} {ns_per_pair:>8.2} ns/pair  \
             {allocs:>10.3} allocs/call  {bytes:>12.1} bytes/call"
        );
        if allocs != 0.0 {
            alloc_violations.push(format!(
                "loss draws n={n} senders={contenders}: {allocs} allocs/call"
            ));
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"n\": {n},");
        let _ = writeln!(json, "      \"senders\": {contenders},");
        let _ = writeln!(json, "      \"p_loss\": 0.6,");
        let _ = writeln!(json, "      \"kernel\": \"{kernel}\",");
        let _ = writeln!(json, "      \"ns_per_pair\": {ns_per_pair:.2},");
        let _ = writeln!(json, "      \"allocs_per_call\": {allocs:.3},");
        let _ = writeln!(json, "      \"bytes_per_call\": {bytes:.1}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // Receive assembly: engine rounds built so that assembly is most of
    // their cost (see `assembly_engine`), at `long-wide`'s shapes — n = 64
    // with one distinct message (most of its rounds) and with six, and
    // n = 16. Each lane is gated at exactly 0 allocs/round.
    let _ = writeln!(json, "  \"assembly\": [");
    let assembly_cells: [(usize, usize, u64); 3] = [(64, 28, 1), (64, 28, 6), (16, 6, 1)];
    let count = assembly_cells.len();
    for (i, (n, contenders, messages)) in assembly_cells.into_iter().enumerate() {
        let mut engine = assembly_engine(n, contenders, messages);
        let mut advance_rounds = |count: u64| {
            for _ in 0..count {
                engine.advance(&mut ());
            }
        };
        let (allocs, bytes) = steady_state_allocs(&mut advance_rounds);
        let mut sample_ns = |iters: u64| {
            let start = std::time::Instant::now();
            advance_rounds(iters);
            start.elapsed().as_nanos() as f64 / iters as f64
        };
        let once = sample_ns(1_000);
        let iters = ((30_000_000.0 / once) as u64).max(1_000);
        let samples = if quick { 5 } else { 11 };
        let mut ns: Vec<f64> = (0..samples).map(|_| sample_ns(iters)).collect();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let ns_per_round = ns[ns.len() / 2];
        println!(
            "assembly n={n:<3} senders={contenders:<3} messages={messages:<2} \
             {ns_per_round:>8.1} ns/round  {allocs:>10.3} allocs/round  {bytes:>12.1} bytes/round"
        );
        if allocs != 0.0 {
            alloc_violations.push(format!(
                "assembly n={n} senders={contenders} messages={messages}: {allocs} allocs/round"
            ));
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"n\": {n},");
        let _ = writeln!(json, "      \"senders\": {contenders},");
        let _ = writeln!(json, "      \"messages\": {messages},");
        let _ = writeln!(json, "      \"delivery\": 0.4,");
        let _ = writeln!(json, "      \"ns_per_round\": {ns_per_round:.1},");
        let _ = writeln!(json, "      \"allocs_per_round\": {allocs:.3},");
        let _ = writeln!(json, "      \"bytes_per_round\": {bytes:.1}");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(out, &json).expect("write BENCH_engine.json");
    println!("\nwrote {out}:\n{json}");

    // The CI gates: rounds under `none` and `probes`, phy resolve, loss
    // draws and assembly rounds must be allocation-free in steady state,
    // rounds under `trace` O(1) amortized (arena growth only), and a
    // radio's construction exactly its two buffers. (Checked after the
    // JSON is written so a regression still leaves the numbers on disk.)
    assert!(
        alloc_violations.is_empty(),
        "allocation gates failed:\n  {}",
        alloc_violations.join("\n  ")
    );
}
