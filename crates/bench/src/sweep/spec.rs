//! Scenario specifications and the standard registry.

use super::probe::{CellEnd, MetricRow, ProbeManifest, ProbeSet};
use crate::experiments::helpers::EnvPlan;
use crate::Scale;
use ccwan_core::{
    alg1, alg2, alg3, alg4, ConsensusAutomaton, ConsensusOutcome, ConsensusRun, Cst, IdSpace, Uid,
    Value, ValueDomain,
};
use wan_cd::{CdClass, CheckedDetector, ClassDetector, Degrading, FreedomPolicy};
use wan_cm::{BackoffCm, FairWakeUp, NoCm, PreStabilization};
use wan_mac::{mac_components, MacConfig, MacDelayPolicy};
use wan_phy::{phy_components, PhyConfig};
use wan_sim::crash::{NoCrashes, ScheduledCrashes, TimelineCrashes};
use wan_sim::loss::{Ecf, RandomLoss};
use wan_sim::{
    splitmix64, CompiledSchedule, Components, CrashAdversary, ProcessId, Round, ScenarioEvent,
    ScenarioTimeline, StaggeredJoin,
};

/// Which consensus algorithm a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1 (Section 7.1): constant rounds, needs maj-completeness.
    Alg1,
    /// Algorithm 2 (Section 7.2): log |V| rounds, zero-completeness.
    Alg2,
    /// The Section 7.3 non-anonymous protocol over an id space of
    /// `2^id_bits` identifiers.
    Alg3 {
        /// lg of the identifier-space size.
        id_bits: u32,
    },
    /// Algorithm 3 of Section 7.4 (the BST walk): no CM, no ECF.
    Alg4,
}

/// The environment family a scenario runs against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnvironmentPlan {
    /// Eventual-collision-freedom setting: certified in-class detector
    /// (noisy until `r_acc`), fair wake-up manager, ECF-wrapped random
    /// loss. The declared CST is the measurement reference.
    Ecf(EnvPlan),
    /// No collision freedom, ever: total message loss, no contention
    /// manager, quiet in-class detector (Theorem 3's setting). The
    /// measurement reference is the round failures cease.
    Nocf,
    /// The slotted SINR radio, end to end: carrier-sensing detector
    /// (class-certified), window-doubling backoff manager, SINR decodes as
    /// the loss adversary wrapped in an explicit `r_cf = 1` ECF
    /// declaration (the radio gives collision freedom only statistically;
    /// the wrapper makes the measurement reference well-defined). The
    /// backoff manager declares no `r_wake` — the wake-up stabilization
    /// probe measures it from the trace instead.
    Phy,
    /// The fault-injection setting: every service is timeline-aware, so
    /// the spec's [`ScenarioTimeline`] can change the environment mid-run
    /// — a [`Degrading`] detector switching between the spec's class and
    /// [`ChurnPlan::degraded`], a [`StaggeredJoin`] gate over the fair
    /// wake-up service, ECF-wrapped [`RandomLoss`] (rate swaps, partition
    /// split/heal), and [`TimelineCrashes`] over the spec's crash
    /// schedule. The declared CST is the measurement reference, exactly as
    /// under [`EnvironmentPlan::Ecf`].
    Churn(ChurnPlan),
    /// The abstract MAC layer (Newport's *Consensus with an Abstract MAC
    /// Layer*): acknowledged local broadcast with `f_ack`/`f_prog`
    /// envelopes in place of slot-level collisions. The channel is the
    /// loss adversary (all-or-none deliveries within the envelopes), the
    /// MAC's own delivery bookkeeping is the collision detector (complete
    /// and accurate from round 1), and **no contention manager runs** —
    /// the acknowledged-broadcast abstraction subsumes contention
    /// resolution, which is exactly the model difference the cross-model
    /// grid measures. The measurement reference is `f_ack`: the round by
    /// which any single broadcast is guaranteed through.
    AbsMac(AbsMacPlan),
}

/// Parameters of the [`EnvironmentPlan::Churn`] environment. The static
/// fields mirror [`EnvPlan`]; the churn-specific ones configure the
/// timeline-aware services (what the scheduled events switch *between*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    /// Collision-freedom round `r_cf`.
    pub r_cf: u64,
    /// Detector accuracy round `r_acc` (both detector stages declare it).
    pub r_acc: u64,
    /// Wake-up stabilization round `r_wake`.
    pub r_wake: u64,
    /// Initial loss probability (a scheduled
    /// [`ScenarioEvent::SetLossRate`] replaces it mid-run).
    pub loss: f64,
    /// Detector freedom-slack false-positive probability before `r_acc`.
    pub noise: f64,
    /// The stage-1 detector class a [`ScenarioEvent::CdSwitch`] degrades
    /// to (stage 0 is the spec's own class).
    pub degraded: CdClass,
    /// Processes admitted by the [`StaggeredJoin`] gate at round 1
    /// (clamped to `n`); scheduled [`ScenarioEvent::WakeWave`]s admit the
    /// rest.
    pub join_admit: usize,
}

/// Parameters of the [`EnvironmentPlan::AbsMac`] environment: the two
/// Newport envelopes plus the delay policy spending the slack between
/// them. Scalar-only and `Copy`, like every environment plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsMacPlan {
    /// Ack-latency envelope: a broadcast clears no later than its
    /// `f_ack`-th consecutive attempt.
    pub f_ack: u64,
    /// Progress envelope: at most `f_prog − 1` consecutive
    /// someone-is-broadcasting rounds may deliver nothing.
    pub f_prog: u64,
    /// How the MAC spends the slack within the envelopes.
    pub policy: MacDelayPolicy,
}

/// A scheduled crash of one process (Definition 13 resolved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Index of the process to crash.
    pub process: usize,
    /// Round at whose start it crashes.
    pub round: u64,
}

/// One experiment configuration: everything needed to reproduce a family
/// of consensus runs, as data. A spec expands into `seeds` independent
/// *cells*; cell `k` is a pure function of `(spec, k)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry name, e.g. `"lattice/maj-ac"`. Also salts the cell seeds.
    pub name: String,
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// The collision-detector class the environment honours.
    pub class: CdClass,
    /// The environment family.
    pub env: EnvironmentPlan,
    /// The crash schedule, if any.
    pub crash: Option<CrashPlan>,
    /// The fault-injection timeline: scheduled mid-run environment
    /// changes, as plain data ([`ScenarioTimeline`]). Compiled once per
    /// cell into a [`CompiledSchedule`] the engine applies between steps.
    /// Empty for every static spec — and an empty timeline is structurally
    /// absent: it compiles to no schedule, so pre-timeline specs keep
    /// their goldens and bit-identical executions.
    pub timeline: ScenarioTimeline,
    /// Number of processes.
    pub n: usize,
    /// Value-domain size `|V|`.
    pub v_size: u64,
    /// Initial values: explicit, or derived per-cell from the cell seed
    /// when `None`.
    pub fixed_values: Option<Vec<u64>>,
    /// How many cells (seed indices) the spec expands into.
    pub seeds: u64,
    /// Round cap per run.
    pub cap: u64,
    /// Which probes observe each cell ([`ProbeManifest`]). The cell's
    /// probe set is the run's observer: it watches every round live, and
    /// no trace is recorded.
    pub probes: ProbeManifest,
}

/// The outcome of one executed cell: its coordinates plus the typed
/// metrics its probe manifest emitted, in canonical (ascending
/// [`MetricId`](super::probe::MetricId)) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRow {
    /// Index of the spec in the sweep's spec list.
    pub spec_index: usize,
    /// Cell (seed) index within the spec.
    pub case: u64,
    /// The derived RNG seed the cell ran with.
    pub cell_seed: u64,
    /// The probe measurements.
    pub metrics: MetricRow,
}

impl ScenarioSpec {
    /// The deterministic RNG seed of cell `case`: a SplitMix64 mix of the
    /// spec name hash and the case index. Independent of thread schedule
    /// and of every other cell.
    pub fn cell_seed(&self, case: u64) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in self.name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        splitmix64(h ^ splitmix64(case))
    }

    /// The initial values of cell `case`.
    pub fn initial_values(&self, case: u64) -> Vec<Value> {
        if let Some(fixed) = &self.fixed_values {
            assert_eq!(fixed.len(), self.n, "fixed values arity");
            return fixed.iter().map(|&v| Value(v % self.v_size)).collect();
        }
        let seed = self.cell_seed(case);
        (0..self.n as u64)
            .map(|i| Value(splitmix64(seed ^ i) % self.v_size))
            .collect()
    }

    fn components(&self, seed: u64) -> (Components, u64) {
        let crash: Box<dyn CrashAdversary> = match self.crash {
            None => Box::new(NoCrashes),
            Some(plan) => {
                Box::new(ScheduledCrashes::new().crash(ProcessId(plan.process), Round(plan.round)))
            }
        };
        match self.env {
            EnvironmentPlan::Ecf(plan) => {
                let components = plan.components_with_crash(self.class, seed, crash);
                let reference = Cst::from_components(&components)
                    .value()
                    .expect("an ECF scenario's components declare a CST")
                    .0;
                (components, reference)
            }
            EnvironmentPlan::Nocf => {
                let components = Components {
                    detector: Box::new(ClassDetector::new(self.class, FreedomPolicy::Quiet, seed)),
                    manager: Box::new(NoCm),
                    loss: Box::new(RandomLoss::new(1.0, seed)),
                    crash,
                };
                let reference = self.crash.map_or(0, |plan| plan.round);
                (components, reference)
            }
            EnvironmentPlan::Phy => {
                let (loss, detector) = phy_components(PhyConfig::new(self.n, seed));
                let components = Components {
                    detector: Box::new(CheckedDetector::new(detector, self.class)),
                    manager: Box::new(BackoffCm::new(seed ^ 0xBAC0)),
                    // The radio gives ECF only statistically; the wrapper
                    // makes r_cf explicit so the reference is well-defined.
                    loss: Box::new(Ecf::new(loss, Round(1))),
                    crash,
                };
                (components, 1)
            }
            EnvironmentPlan::Churn(plan) => {
                let policy = if plan.noise > 0.0 {
                    FreedomPolicy::Random { p: plan.noise }
                } else {
                    FreedomPolicy::Quiet
                };
                // Stage 0 is the spec's class, stage 1 the degraded one.
                // No CheckedDetector wrap here: the two stages have
                // *different* class obligations, so no single class is the
                // right certification target mid-switch — safety under
                // churn is judged at the consensus level (the sweep-wide
                // safety gate), not per-advice.
                let stages = vec![
                    ClassDetector::new(self.class, policy, seed ^ 0xCD)
                        .accurate_from(Round(plan.r_acc)),
                    ClassDetector::new(plan.degraded, policy, seed ^ 0xDE)
                        .accurate_from(Round(plan.r_acc)),
                ];
                let components = Components {
                    detector: Box::new(Degrading::new(stages)),
                    manager: Box::new(StaggeredJoin::new(
                        FairWakeUp::new(
                            Round(plan.r_wake),
                            PreStabilization::Random { p: 0.4 },
                            seed ^ 0xC3,
                        ),
                        plan.join_admit.min(self.n),
                    )),
                    loss: Box::new(Ecf::new(
                        RandomLoss::new(plan.loss, seed ^ 0x10),
                        Round(plan.r_cf),
                    )),
                    crash: Box::new(TimelineCrashes::over(crash)),
                };
                let reference = Cst::from_components(&components)
                    .value()
                    .expect("a churn scenario's components declare a CST")
                    .0;
                (components, reference)
            }
            EnvironmentPlan::AbsMac(plan) => {
                let (channel, detector) = mac_components(MacConfig {
                    f_ack: plan.f_ack,
                    f_prog: plan.f_prog,
                    policy: plan.policy,
                    seed,
                });
                let components = Components {
                    detector: Box::new(CheckedDetector::new(detector, self.class)),
                    // The abstract MAC's selling point: acknowledged
                    // broadcast subsumes contention resolution, so no
                    // contention manager runs at all.
                    manager: Box::new(NoCm),
                    loss: Box::new(channel),
                    // Timeline-aware crashes, so PR 7 churn events compose
                    // with the MAC exactly as they do under Churn.
                    crash: Box::new(TimelineCrashes::over(crash)),
                };
                // The channel declares no per-round collision freedom
                // (even a solo broadcast may be deferred); the reference
                // is the f_ack envelope — the round by which any single
                // broadcast is guaranteed through.
                (components, plan.f_ack)
            }
        }
    }

    /// Executes cell `case` and returns its probe measurements: the
    /// spec's [`ProbeManifest`] is instantiated as a [`ProbeSet`] and
    /// handed to the run as its observer, so the probes watch each round
    /// as it executes and the cell records no trace.
    pub fn run_cell(&self, spec_index: usize, case: u64) -> CellRow {
        let checkpoints = self.timeline.event_rounds();
        let (metrics, _) = self.with_cell(
            case,
            RunProbed {
                manifest: &self.probes,
                checkpoints: &checkpoints,
            },
        );
        CellRow {
            spec_index,
            case,
            cell_seed: self.cell_seed(case),
            metrics,
        }
    }

    /// The one statement of cell setup and algorithm dispatch: derives the
    /// cell's seed, components, and initial values, instantiates the
    /// spec'd algorithm's processes, and hands everything to `visitor`.
    /// Every cell-shaped entry point — [`ScenarioSpec::run_cell`],
    /// [`ScenarioSpec::trace_fingerprint`],
    /// [`ScenarioSpec::trace_reference_fingerprints`] — goes through here,
    /// so they cannot configure a cell differently by construction. Also
    /// returns the cell's measurement reference round.
    fn with_cell<V: CellVisitor>(&self, case: u64, visitor: V) -> (V::Out, u64) {
        let seed = self.cell_seed(case);
        let (components, reference) = self.components(seed);
        // One compilation per cell; an empty timeline compiles to no
        // schedule at all, keeping static specs on the exact pre-timeline
        // engine path.
        let schedule = (!self.timeline.is_empty()).then(|| self.timeline.compile());
        let values = self.initial_values(case);
        let domain = ValueDomain::new(self.v_size);
        let out = match self.algorithm {
            Algorithm::Alg1 => visitor.visit(
                alg1::processes(domain, &values),
                components,
                schedule,
                self.cap,
                reference,
            ),
            Algorithm::Alg2 => visitor.visit(
                alg2::processes(domain, &values),
                components,
                schedule,
                self.cap,
                reference,
            ),
            Algorithm::Alg3 { id_bits } => {
                // Checked before any id is drawn: `unique_assignments`
                // would probe forever for a free id, and `1 << 64`
                // overflows.
                assert!(
                    id_bits < 64,
                    "spec {}: id_bits = {id_bits} does not fit a u64 id space",
                    self.name
                );
                let ids = IdSpace::new(1 << id_bits);
                assert!(
                    self.n as u64 <= ids.size(),
                    "spec {}: n = {} processes need distinct ids, but id_bits = {id_bits} \
                     gives only {}",
                    self.name,
                    self.n,
                    ids.size()
                );
                let assignments = unique_assignments(&values, ids, seed);
                visitor.visit(
                    alg3::processes(ids, domain, &assignments, seed),
                    components,
                    schedule,
                    self.cap,
                    reference,
                )
            }
            Algorithm::Alg4 => visitor.visit(
                alg4::processes(domain, &values),
                components,
                schedule,
                self.cap,
                reference,
            ),
        };
        (out, reference)
    }

    /// Executes cell `case` with full trace recording and returns a debug
    /// fingerprint of the entire execution (every round record). Two calls
    /// with the same `(spec, case)` must produce byte-identical strings —
    /// the determinism contract the test suite pins down.
    pub fn trace_fingerprint(&self, case: u64) -> String {
        self.with_cell(case, TraceOf).0
    }

    /// Executes cell `case` under the trace recorder and returns the pair
    /// `(arena fingerprint, retained-reference fingerprint)`: the columnar
    /// [`wan_sim::ExecutionTrace::fingerprint`] of the recorded trace, and
    /// the fingerprint of the same rounds rebuilt into the
    /// pre-columnar [`wan_sim::trace::reference::ReferenceTrace`] oracle.
    /// The two must always be equal — the representation-identity contract
    /// the test suite pins across every scenario family.
    pub fn trace_reference_fingerprints(&self, case: u64) -> (u64, u64) {
        self.with_cell(case, FingerprintPairOf).0
    }
}

/// The algorithm-generic callback [`ScenarioSpec::with_cell`] dispatches
/// to (a trait rather than a closure: the process type differs per
/// `Algorithm` arm, so the callee must be generic).
trait CellVisitor {
    type Out;
    fn visit<A: ConsensusAutomaton>(
        self,
        procs: Vec<A>,
        components: Components,
        schedule: Option<CompiledSchedule>,
        cap: u64,
        reference: u64,
    ) -> Self::Out;
}

/// [`ScenarioSpec::run_cell`]: runs the cell with the manifest's probes
/// as its observer and folds the outcome into a sealed [`MetricRow`].
struct RunProbed<'a> {
    manifest: &'a ProbeManifest,
    /// The spec's timeline event rounds — the sample points of
    /// [`super::probe::ProbeKind::CheckpointStats`].
    checkpoints: &'a [u64],
}

impl RunProbed<'_> {
    /// A fresh probe set for one cell.
    fn probes<M: Ord>(&self) -> ProbeSet<M> {
        ProbeSet::from_manifest_at(self.manifest, self.checkpoints)
    }
}

impl CellVisitor for RunProbed<'_> {
    type Out = MetricRow;
    fn visit<A: ConsensusAutomaton>(
        self,
        procs: Vec<A>,
        components: Components,
        schedule: Option<CompiledSchedule>,
        cap: u64,
        reference: u64,
    ) -> Self::Out {
        let mut run = ConsensusRun::new(procs, components)
            .with_schedule(schedule)
            .with_observer(self.probes());
        let outcome = run.run_to_completion(Round(cap));
        finish_row(run.into_observer(), &outcome, reference)
    }
}

/// Folds a cell's observed probes and judged outcome into its sealed row.
fn finish_row<M: Ord>(
    mut probes: ProbeSet<M>,
    outcome: &ConsensusOutcome,
    reference: u64,
) -> MetricRow {
    let end = CellEnd {
        reference,
        last_decision: outcome.last_decision().map(|r| r.0),
        terminated: outcome.terminated,
        safe: outcome.is_safe(),
        rounds_executed: outcome.rounds_executed.0,
    };
    let mut row = MetricRow::new();
    probes.finish(&end, &mut row);
    row
}

/// [`ScenarioSpec::trace_fingerprint`].
struct TraceOf;

impl CellVisitor for TraceOf {
    type Out = String;
    fn visit<A: ConsensusAutomaton>(
        self,
        procs: Vec<A>,
        components: Components,
        schedule: Option<CompiledSchedule>,
        cap: u64,
        _reference: u64,
    ) -> Self::Out {
        trace_of(procs, components, schedule, cap)
    }
}

/// [`ScenarioSpec::trace_reference_fingerprints`].
struct FingerprintPairOf;

impl CellVisitor for FingerprintPairOf {
    type Out = (u64, u64);
    fn visit<A: ConsensusAutomaton>(
        self,
        procs: Vec<A>,
        components: Components,
        schedule: Option<CompiledSchedule>,
        cap: u64,
        _reference: u64,
    ) -> Self::Out {
        let mut run = ConsensusRun::new(procs, components).with_schedule(schedule);
        run.run_to_completion(Round(cap));
        let rebuilt = wan_sim::trace::reference::ReferenceTrace::from_trace(run.trace());
        (run.trace().fingerprint(), rebuilt.fingerprint())
    }
}

/// Distinct UIDs for the Section 7.3 protocol, derived from the cell seed,
/// linear-probing around collisions in small id spaces.
fn unique_assignments(values: &[Value], ids: IdSpace, seed: u64) -> Vec<(Uid, Value)> {
    let mut seen = std::collections::BTreeSet::new();
    values
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            let mut u = Uid(splitmix64(seed ^ (j as u64).wrapping_add(0x1D)) % ids.size());
            while !seen.insert(u) {
                u = Uid((u.0 + 1) % ids.size());
            }
            (u, v)
        })
        .collect()
}

fn trace_of<A: ConsensusAutomaton>(
    procs: Vec<A>,
    components: Components,
    schedule: Option<CompiledSchedule>,
    cap: u64,
) -> String {
    let mut run = ConsensusRun::new(procs, components).with_schedule(schedule);
    let outcome = run.run_to_completion(Round(cap));
    format!("{outcome:?}\n{:?}", run.trace())
}

/// The named catalogue of standard scenario families.
#[derive(Debug, Clone)]
pub struct Registry {
    specs: Vec<ScenarioSpec>,
}

impl Registry {
    /// Every standard scenario at the given scale: the Figure 1 lattice,
    /// the Theorem 1/2 scaling grids, the Section 7.3 crossover, the
    /// Theorem 3 NOCF family, the end-to-end radio family, and the
    /// ablation arms.
    pub fn standard(scale: Scale) -> Self {
        let mut specs = Vec::new();
        specs.extend(lattice_specs(scale));
        specs.extend(alg1_grid_specs(scale));
        specs.extend(alg2_staircase_specs(scale));
        specs.extend(alg3_crossover_specs(scale));
        specs.extend(bst_nocf_specs(scale));
        specs.extend(phy_e2e_specs(scale));
        specs.extend(ablation_specs(scale));
        specs.extend(churn_specs(scale));
        specs.extend(dense_specs(scale));
        specs.extend(absmac_specs(scale));
        let registry = Registry { specs };
        let mut names: Vec<&str> = registry.specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            registry.specs.len(),
            "registry names must be unique"
        );
        registry
    }

    /// All specs, in registration order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// Looks a spec up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.specs.iter().map(|s| s.name.as_str())
    }
}

/// E1: one spec per Figure 1 class, running the weakest algorithm whose
/// class requirement the detector meets.
pub fn lattice_specs(scale: Scale) -> Vec<ScenarioSpec> {
    CdClass::FIGURE_1
        .into_iter()
        .map(|class| {
            let algorithm = if class.completeness.implies(wan_cd::Completeness::Majority) {
                Algorithm::Alg1
            } else {
                Algorithm::Alg2
            };
            ScenarioSpec {
                name: format!("lattice/{class}"),
                algorithm,
                class,
                env: EnvironmentPlan::Ecf(EnvPlan::chaos(6)),
                crash: None,
                timeline: ScenarioTimeline::new(),
                n: 4,
                v_size: 16,
                fixed_values: None,
                seeds: scale.seeds(),
                cap: 500,
                probes: ProbeManifest::standard(),
            }
        })
        .collect()
}

/// E2: Algorithm 1 over the (n, |V|) grid — the bound is constant in both.
pub fn alg1_grid_specs(scale: Scale) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for n in [2usize, 4, 8] {
        for v_size in [2u64, 16, 256] {
            specs.push(ScenarioSpec {
                name: format!("alg1/n{n}-v{v_size}"),
                algorithm: Algorithm::Alg1,
                class: CdClass::MAJ_EV_AC,
                env: EnvironmentPlan::Ecf(EnvPlan::chaos(8)),
                crash: None,
                timeline: ScenarioTimeline::new(),
                n,
                v_size,
                fixed_values: None,
                seeds: scale.seeds(),
                cap: 600,
                // The constant-round grid is a pure-throughput family:
                // outcome metrics only.
                probes: ProbeManifest::outcome_only(),
            });
        }
    }
    specs
}

/// E3: Algorithm 2 over |V| — the logarithmic staircase.
pub fn alg2_staircase_specs(scale: Scale) -> Vec<ScenarioSpec> {
    [2u64, 4, 16, 64, 256, 1024, 4096]
        .into_iter()
        .map(|v_size| ScenarioSpec {
            name: format!("alg2/v{v_size}"),
            algorithm: Algorithm::Alg2,
            class: CdClass::ZERO_EV_AC,
            env: EnvironmentPlan::Ecf(EnvPlan::chaos(8)),
            crash: None,
            timeline: ScenarioTimeline::new(),
            n: 4,
            v_size,
            fixed_values: None,
            seeds: scale.seeds(),
            cap: 800,
            probes: ProbeManifest::standard(),
        })
        .collect()
}

/// E4: the Section 7.3 protocol over the (|V|, |I|) grid.
pub fn alg3_crossover_specs(scale: Scale) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for v_bits in [2u32, 8, 16] {
        for i_bits in [2u32, 8, 16] {
            specs.push(ScenarioSpec {
                name: format!("alg3/v{v_bits}-i{i_bits}"),
                algorithm: Algorithm::Alg3 { id_bits: i_bits },
                class: CdClass::ZERO_EV_AC,
                env: EnvironmentPlan::Ecf(EnvPlan::chaos(4)),
                crash: None,
                timeline: ScenarioTimeline::new(),
                n: 3,
                v_size: 1 << v_bits,
                fixed_values: None,
                seeds: scale.seeds(),
                cap: 4000,
                probes: ProbeManifest::standard(),
            });
        }
    }
    specs
}

/// E5: the BST algorithm under NOCF, clean and under the adversarial
/// "walk to the deepest-left leaf, then die" crash schedule.
pub fn bst_nocf_specs(scale: Scale) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for v_bits in [2u32, 4, 6, 8] {
        let v_size = 1u64 << v_bits;
        let domain = ValueDomain::new(v_size);
        let bound = 8 * u64::from(domain.bits()) + 8;
        specs.push(ScenarioSpec {
            name: format!("bst/v{v_size}-clean"),
            algorithm: Algorithm::Alg4,
            class: CdClass::ZERO_AC,
            env: EnvironmentPlan::Nocf,
            crash: None,
            timeline: ScenarioTimeline::new(),
            n: 3,
            v_size,
            fixed_values: None,
            seeds: scale.seeds(),
            cap: 10 * bound,
            probes: ProbeManifest::standard(),
        });

        // The adversarial schedule: process 0 holds the deepest-left value
        // and leads the walk there, then crashes at the start of the exact
        // round it would vote for it; the others hold the rightmost value,
        // forcing a full climb and re-descent.
        let mut node = ccwan_core::bst::BstNode::root(domain);
        let mut steps = 0u64;
        while node.value() != Value(0) {
            node = node.left().expect("value 0 is leftmost");
            steps += 1;
        }
        let crash_round = 4 * steps + 1; // the leaf's vote-val round
        let mut fixed = vec![v_size - 1; 3];
        fixed[0] = 0;
        specs.push(ScenarioSpec {
            name: format!("bst/v{v_size}-leafcrash"),
            algorithm: Algorithm::Alg4,
            class: CdClass::ZERO_AC,
            env: EnvironmentPlan::Nocf,
            crash: Some(CrashPlan {
                process: 0,
                round: crash_round,
            }),
            timeline: ScenarioTimeline::new(),
            n: 3,
            v_size,
            fixed_values: Some(fixed),
            seeds: scale.seeds(),
            cap: 20 * bound,
            probes: ProbeManifest::standard(),
        });
    }
    specs
}

/// E14's sweep arms: Algorithms 1 and 2 run inside their classes under
/// arbitrary loss, with the fixed value profile the bespoke rows use.
/// E13's sweep arms: Algorithm 2 end to end over the slotted SINR radio —
/// carrier-sensing detector, window-doubling backoff, SINR decodes as the
/// loss adversary — one spec per system size. The wake-up stabilization
/// and CD-accuracy probes carry the measurements the bespoke E13 loop used
/// to hand-roll from retained traces.
pub fn phy_e2e_specs(scale: Scale) -> Vec<ScenarioSpec> {
    [2usize, 4, 8, 16]
        .into_iter()
        .map(|n| ScenarioSpec {
            name: format!("phy/n{n}"),
            algorithm: Algorithm::Alg2,
            class: CdClass::ZERO_EV_AC,
            env: EnvironmentPlan::Phy,
            crash: None,
            timeline: ScenarioTimeline::new(),
            n,
            v_size: 16,
            fixed_values: None,
            seeds: scale.seeds(),
            cap: 3000,
            probes: ProbeManifest::standard(),
        })
        .collect()
}

pub fn ablation_specs(scale: Scale) -> Vec<ScenarioSpec> {
    let plan = EnvironmentPlan::Ecf(EnvPlan::chaos(6));
    vec![
        ScenarioSpec {
            name: "ablation/alg1-maj".into(),
            algorithm: Algorithm::Alg1,
            class: CdClass::MAJ_EV_AC,
            env: plan,
            crash: None,
            timeline: ScenarioTimeline::new(),
            n: 3,
            v_size: 16,
            fixed_values: Some(vec![3, 7, 7]),
            seeds: scale.seeds(),
            cap: 400,
            probes: ProbeManifest::standard(),
        },
        ScenarioSpec {
            name: "ablation/alg2-zero".into(),
            algorithm: Algorithm::Alg2,
            class: CdClass::ZERO_EV_AC,
            env: plan,
            crash: None,
            timeline: ScenarioTimeline::new(),
            n: 3,
            v_size: 16,
            fixed_values: Some(vec![3, 7, 7]),
            seeds: scale.seeds(),
            cap: 400,
            probes: ProbeManifest::standard(),
        },
    ]
}

/// E-churn: the fault-injection family. Algorithm 2 (whose agreement and
/// validity hold under *any* loss/crash behaviour — exactly why it can be
/// safety-gated under injected faults) runs in a [`EnvironmentPlan::Churn`]
/// environment whose timeline changes mid-run:
///
/// * a burst-size × burst-round × shift-magnitude grid — at the burst
///   round, `burst` processes crash, the loss regime swaps, and the
///   detector degrades from the spec's maj-⋄AC stage to the zero-⋄AC
///   stage (a *mild* shift eases loss and upgrades the detector back six
///   rounds later; a *harsh* shift spikes loss and opens a network
///   partition that heals six rounds later);
/// * a staggered-join arm (`churn/join-wave`): only one process admitted
///   at round 1, wake waves admitting the rest before `r_wake`, plus a
///   contention-regime shift;
/// * `churn/static-baseline`: identical parameters, empty timeline — the
///   graceful-degradation reference every churn metric is read against.
///
/// All events land before the declared CST (`max(r_cf, r_acc, r_wake)` =
/// 32), so the Theorem 2 termination bound still applies to the settled
/// suffix; safety is checked unconditionally by the sweep-wide gate.
pub fn churn_specs(scale: Scale) -> Vec<ScenarioSpec> {
    let n = 5usize;
    let plan = ChurnPlan {
        r_cf: 32,
        r_acc: 32,
        r_wake: 8,
        loss: 0.6,
        noise: 0.3,
        degraded: CdClass::ZERO_EV_AC,
        join_admit: n,
    };
    let probes = ProbeManifest::of(&[
        super::probe::ProbeKind::DecisionLatency,
        super::probe::ProbeKind::BroadcastCount,
        super::probe::ProbeKind::CdAccuracy,
        super::probe::ProbeKind::CrashExposure,
        super::probe::ProbeKind::WakeupStabilization,
        super::probe::ProbeKind::CheckpointStats,
    ]);
    let spec = |name: String, env: ChurnPlan, timeline: ScenarioTimeline| ScenarioSpec {
        name,
        algorithm: Algorithm::Alg2,
        class: CdClass::MAJ_EV_AC,
        env: EnvironmentPlan::Churn(env),
        crash: None,
        timeline,
        n,
        v_size: 16,
        fixed_values: None,
        seeds: scale.seeds(),
        cap: 1500,
        probes: probes.clone(),
    };
    let mut specs = Vec::new();
    for burst in [1u32, 2] {
        for burst_round in [6u64, 12] {
            let mild = ScenarioTimeline::new()
                .at_round(
                    Round(burst_round),
                    ScenarioEvent::CrashBurst { count: burst },
                )
                .at_round(Round(burst_round), ScenarioEvent::SetLossRate { p: 0.3 })
                .at_round(Round(burst_round), ScenarioEvent::CdSwitch { slot: 1 })
                .at_round(Round(burst_round + 6), ScenarioEvent::CdSwitch { slot: 0 });
            let harsh = ScenarioTimeline::new()
                .at_round(
                    Round(burst_round),
                    ScenarioEvent::CrashBurst { count: burst },
                )
                .at_round(Round(burst_round), ScenarioEvent::SetLossRate { p: 0.85 })
                .at_round(Round(burst_round), ScenarioEvent::CdSwitch { slot: 1 })
                .at_round(Round(burst_round + 2), ScenarioEvent::Split { boundary: 2 })
                .at_round(Round(burst_round + 6), ScenarioEvent::Heal);
            for (shift, timeline) in [("mild", mild), ("harsh", harsh)] {
                specs.push(spec(
                    format!("churn/b{burst}-r{burst_round}-{shift}"),
                    plan,
                    timeline,
                ));
            }
        }
    }
    specs.push(spec(
        "churn/join-wave".into(),
        ChurnPlan {
            join_admit: 1,
            ..plan
        },
        ScenarioTimeline::new()
            .at_round(Round(2), ScenarioEvent::WakeWave { count: 2 })
            .at_round(Round(4), ScenarioEvent::WakeWave { count: 2 })
            .at_round(Round(5), ScenarioEvent::ContentionShift { p: 0.7 }),
    ));
    specs.push(spec(
        "churn/static-baseline".into(),
        plan,
        ScenarioTimeline::new(),
    ));
    specs
}

/// E-dense: the confidence-interval grid — n × loss × crash × CD-class,
/// with [`Scale::dense_seeds`] seeds per cell (hundreds at full scale, so
/// per-cell rates carry real error bars instead of 25-sample noise).
///
/// The grid crosses the two workhorse algorithm/class pairings (Algorithm
/// 1 in maj-⋄AC, Algorithm 2 in 0-⋄AC) with system size, pre-CST loss
/// severity, and an early single-process crash (round 4, inside the chaos
/// prefix — the regime where a crash interacts with loss and detector
/// noise). At `Scale::Full` this family alone is 3200 cells — roughly the
/// whole rest of the registry combined.
pub fn dense_specs(scale: Scale) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for n in [4usize, 8] {
        for loss in [0.3f64, 0.6] {
            for crash in [
                None,
                Some(CrashPlan {
                    process: 0,
                    round: 4,
                }),
            ] {
                for (tag, algorithm, class) in [
                    ("maj", Algorithm::Alg1, CdClass::MAJ_EV_AC),
                    ("zero", Algorithm::Alg2, CdClass::ZERO_EV_AC),
                ] {
                    let c = u8::from(crash.is_some());
                    let l = (loss * 100.0) as u32;
                    specs.push(ScenarioSpec {
                        name: format!("dense/n{n}-l{l}-c{c}-{tag}"),
                        algorithm,
                        class,
                        env: EnvironmentPlan::Ecf(EnvPlan {
                            r_cf: 8,
                            r_acc: 8,
                            r_wake: 8,
                            loss,
                            noise: 0.3,
                        }),
                        crash,
                        timeline: ScenarioTimeline::new(),
                        n,
                        v_size: 16,
                        fixed_values: None,
                        seeds: scale.dense_seeds(),
                        cap: 600,
                        // Pure grid throughput: outcome metrics only (the
                        // family's cost is its cell count, not its per-cell
                        // work).
                        probes: ProbeManifest::outcome_only(),
                    });
                }
            }
        }
    }
    specs
}

/// E-absmac: the cross-model comparison grid. The same two workhorse
/// algorithm/class pairings as the dense grid (Algorithm 1 in maj-⋄AC,
/// Algorithm 2 in 0-⋄AC) run over matched n × severity × crash axes under
/// **both** radio models:
///
/// * `absmac/cd-…` — the paper's collision-detector model: an
///   [`EnvironmentPlan::Ecf`] environment with `r_cf = r_acc = r_wake = 6`
///   (declared CST 6) and random loss at the severity knob;
/// * `absmac/mac-…` — the abstract MAC layer: `f_ack = 6`, `f_prog = 2`,
///   with [`MacDelayPolicy::Random`] deferring each attempt at the same
///   severity knob.
///
/// The severity axis tops out at 0.3: per-sender deferral compounds
/// across concurrent senders, and by defer 0.6 at `n = 8` a contended
/// round where *every* broadcast clears simultaneously essentially never
/// occurs — the CD-style algorithms then livelock stochastically, the
/// same mechanism the adversarial pin below exhibits deterministically.
///
/// Both models get the same measurement reference (6), so
/// `decision_latency` reads head to head, and the MAC arms carry the
/// [`super::probe::ProbeKind::AckLatency`] /
/// [`super::probe::ProbeKind::ProgressBound`] probes that measure the
/// envelopes from the trace.
///
/// One extra spec (`absmac/mac-adversarial`) pins the worst case within
/// bounds — every delivery deferred until an envelope forces it. Under
/// that policy the CD-model algorithms genuinely **livelock on
/// disagreeing inputs** (measured here, any envelope): they rely on
/// eventual collision freedom, and the adversarial MAC never grants a
/// clean contended round — the model separation Newport's MAC-native
/// algorithms exist to close. What the adversary *cannot* block is the
/// zero-completeness silence argument, so the pin runs Algorithm 2 on
/// agreeing inputs and must decide at exactly round `⌈lg|V|⌉ + 2 = 6`
/// while the probes record the forced deliveries.
pub fn absmac_specs(scale: Scale) -> Vec<ScenarioSpec> {
    let mac_probes = ProbeManifest::of(&[
        super::probe::ProbeKind::DecisionLatency,
        super::probe::ProbeKind::BroadcastCount,
        super::probe::ProbeKind::CdAccuracy,
        super::probe::ProbeKind::CrashExposure,
        super::probe::ProbeKind::AckLatency,
        super::probe::ProbeKind::ProgressBound,
    ]);
    let mut specs = Vec::new();
    for n in [4usize, 8] {
        for severity in [0.15f64, 0.3] {
            for crash in [
                None,
                Some(CrashPlan {
                    process: 0,
                    round: 4,
                }),
            ] {
                for (tag, algorithm, class) in [
                    ("maj", Algorithm::Alg1, CdClass::MAJ_EV_AC),
                    ("zero", Algorithm::Alg2, CdClass::ZERO_EV_AC),
                ] {
                    let c = u8::from(crash.is_some());
                    let l = (severity * 100.0) as u32;
                    let base = ScenarioSpec {
                        name: String::new(),
                        algorithm,
                        class,
                        env: EnvironmentPlan::Nocf, // overwritten below
                        crash,
                        timeline: ScenarioTimeline::new(),
                        n,
                        v_size: 16,
                        fixed_values: None,
                        seeds: scale.seeds(),
                        cap: 600,
                        probes: ProbeManifest::standard(),
                    };
                    specs.push(ScenarioSpec {
                        name: format!("absmac/cd-n{n}-l{l}-c{c}-{tag}"),
                        env: EnvironmentPlan::Ecf(EnvPlan {
                            r_cf: 6,
                            r_acc: 6,
                            r_wake: 6,
                            loss: severity,
                            noise: 0.3,
                        }),
                        ..base.clone()
                    });
                    specs.push(ScenarioSpec {
                        name: format!("absmac/mac-n{n}-l{l}-c{c}-{tag}"),
                        env: EnvironmentPlan::AbsMac(AbsMacPlan {
                            f_ack: 6,
                            f_prog: 2,
                            policy: MacDelayPolicy::Random { defer: severity },
                        }),
                        probes: mac_probes.clone(),
                        ..base
                    });
                }
            }
        }
    }
    specs.push(ScenarioSpec {
        name: "absmac/mac-adversarial".into(),
        algorithm: Algorithm::Alg2,
        class: CdClass::ZERO_EV_AC,
        env: EnvironmentPlan::AbsMac(AbsMacPlan {
            f_ack: 6,
            f_prog: 2,
            policy: MacDelayPolicy::Adversarial,
        }),
        crash: None,
        timeline: ScenarioTimeline::new(),
        n: 4,
        v_size: 16,
        // Agreeing inputs: with disagreement, CD-model algorithms livelock
        // under the adversarial MAC (see the family docs above).
        fixed_values: Some(vec![7, 7, 7, 7]),
        seeds: scale.seeds(),
        cap: 600,
        probes: mac_probes,
    });
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::probe::{MetricId, MetricValue};
    use wan_sim::RoundObserver;

    /// Whether the row's core flag `id` (`Safe`, `Terminated`) is set.
    fn flag(row: &CellRow, id: MetricId) -> bool {
        row.metrics.get(id) == Some(MetricValue::Bool(true))
    }

    #[test]
    fn registry_names_unique_and_resolvable() {
        let registry = Registry::standard(Scale::Quick);
        assert!(registry.specs().len() >= 30);
        let spec = registry.get("lattice/maj-AC").or_else(|| {
            // Class display names are defined in wan-cd; fall back to the
            // first lattice entry if the exact rendering differs.
            registry
                .specs()
                .iter()
                .find(|s| s.name.starts_with("lattice/"))
        });
        assert!(spec.is_some());
    }

    #[test]
    fn cell_seeds_differ_across_cases_and_specs() {
        let registry = Registry::standard(Scale::Quick);
        let a = &registry.specs()[0];
        let b = &registry.specs()[1];
        assert_ne!(a.cell_seed(0), a.cell_seed(1));
        assert_ne!(a.cell_seed(0), b.cell_seed(0));
        assert_eq!(a.cell_seed(3), a.cell_seed(3));
    }

    /// The first alg3 spec with its id space cut to `id_bits`.
    fn alg3_with_id_bits(id_bits: u32) -> ScenarioSpec {
        ScenarioSpec {
            algorithm: Algorithm::Alg3 { id_bits },
            ..alg3_crossover_specs(Scale::Quick)[0].clone()
        }
    }

    #[test]
    #[should_panic(expected = "alg3/v2-i2: n = 3 processes need distinct ids, but id_bits = 1")]
    fn alg3_with_fewer_ids_than_processes_panics() {
        let spec = alg3_with_id_bits(1);
        assert_eq!(spec.n, 3);
        spec.run_cell(0, 0);
    }

    #[test]
    #[should_panic(expected = "alg3/v2-i2: id_bits = 64 does not fit a u64 id space")]
    fn alg3_with_an_id_space_past_u64_panics() {
        alg3_with_id_bits(64).run_cell(0, 0);
    }

    #[test]
    #[should_panic(expected = "collision detector violated AC: missed collision")]
    fn phy_cells_certify_their_detector_against_the_spec_class() {
        // Carrier sensing cannot meet AC: a capture decodes one same-slot
        // sender and hides the other's loss. The cell's certifying wrap
        // must stop the run.
        let spec = ScenarioSpec {
            class: CdClass::AC,
            ..phy_e2e_specs(Scale::Quick)[2].clone()
        };
        assert_eq!((spec.algorithm, spec.n), (Algorithm::Alg2, 8));
        spec.run_cell(0, 0);
    }

    #[test]
    fn run_cell_is_deterministic() {
        let spec = &lattice_specs(Scale::Quick)[0];
        let one = spec.run_cell(0, 2);
        let two = spec.run_cell(0, 2);
        assert_eq!(one, two);
        assert!(flag(&one, MetricId::Safe));
        assert!(flag(&one, MetricId::Terminated));
        // A standard-manifest cell carries round-derived metrics.
        assert!(one.metrics.get(MetricId::BroadcastsTotal).is_some());
    }

    /// The first quick-scale spec of every registry family.
    fn one_spec_per_family() -> Vec<ScenarioSpec> {
        let mut families: Vec<&str> = Vec::new();
        let registry = Registry::standard(Scale::Quick);
        let specs: Vec<ScenarioSpec> = registry
            .specs()
            .iter()
            .filter(|spec| {
                let family = spec.name.split('/').next().expect("family prefix");
                let first = !families.contains(&family);
                if first {
                    families.push(family);
                }
                first
            })
            .cloned()
            .collect();
        assert_eq!(
            specs
                .iter()
                .map(|s| s.name.split('/').next().unwrap())
                .collect::<Vec<_>>(),
            [
                "lattice", "alg1", "alg2", "alg3", "bst", "phy", "ablation", "churn", "dense",
                "absmac"
            ]
        );
        specs
    }

    /// Which observer a test run hands the cell.
    #[derive(Clone, Copy)]
    enum Watch {
        Nothing,
        Probes,
        Recorder,
    }

    /// Runs a cell under one observer and returns its outcome plus, for the
    /// probe set and the trace recorder, its metric row — the recorder's
    /// by feeding the recorded views to a fresh probe set afterwards.
    struct Watched<'a> {
        watch: Watch,
        probed: RunProbed<'a>,
    }

    impl CellVisitor for Watched<'_> {
        type Out = (ConsensusOutcome, Option<MetricRow>);
        fn visit<A: ConsensusAutomaton>(
            self,
            procs: Vec<A>,
            components: Components,
            schedule: Option<CompiledSchedule>,
            cap: u64,
            reference: u64,
        ) -> Self::Out {
            let mut run = ConsensusRun::new(procs, components).with_schedule(schedule);
            let cap = Round(cap);
            match self.watch {
                Watch::Nothing => (run.with_observer(()).run_to_completion(cap), None),
                Watch::Probes => {
                    let mut run = run.with_observer(self.probed.probes());
                    let outcome = run.run_to_completion(cap);
                    let row = finish_row(run.into_observer(), &outcome, reference);
                    (outcome, Some(row))
                }
                Watch::Recorder => {
                    let outcome = run.run_to_completion(cap);
                    let mut probes = self.probed.probes();
                    for view in run.trace().rounds() {
                        probes.observe(&view);
                    }
                    let row = finish_row(probes, &outcome, reference);
                    (outcome, Some(row))
                }
            }
        }
    }

    fn watched(
        spec: &ScenarioSpec,
        case: u64,
        watch: Watch,
    ) -> (ConsensusOutcome, Option<MetricRow>) {
        let checkpoints = spec.timeline.event_rounds();
        let probed = RunProbed {
            manifest: &spec.probes,
            checkpoints: &checkpoints,
        };
        spec.with_cell(case, Watched { watch, probed }).0
    }

    #[test]
    fn every_observer_sees_the_same_execution() {
        for spec in one_spec_per_family() {
            let (unwatched, _) = watched(&spec, 1, Watch::Nothing);
            for watch in [Watch::Probes, Watch::Recorder] {
                assert_eq!(
                    watched(&spec, 1, watch).0,
                    unwatched,
                    "{}: the observer changed the execution",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn live_probe_rows_equal_rows_replayed_from_the_recorded_trace() {
        for spec in one_spec_per_family() {
            let live = spec.run_cell(0, 1).metrics;
            let (_, replayed) = watched(&spec, 1, Watch::Recorder);
            assert_eq!(
                Some(live),
                replayed,
                "{}: live probes and replayed probes disagree",
                spec.name
            );
        }
    }

    #[test]
    fn phy_cells_ride_the_sweep_substrate() {
        let spec = &phy_e2e_specs(Scale::Quick)[0];
        let row = spec.run_cell(0, 0);
        assert_eq!(
            row.metrics.get(MetricId::Reference),
            Some(MetricValue::U64(1)),
            "the radio's ECF wrap declares r_cf = 1"
        );
        assert!(
            flag(&row, MetricId::Safe),
            "Algorithm 2 in class must stay safe on the radio"
        );
        assert!(
            row.metrics.get(MetricId::ObservedWakeupRound).is_some(),
            "the backoff manager's r_wake is measured, not declared"
        );
    }

    #[test]
    fn dense_grid_covers_the_cross_and_stays_safe_under_crash() {
        let specs = dense_specs(Scale::Quick);
        assert_eq!(specs.len(), 16, "n × loss × crash × class = 2⁴ specs");
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "dense names must be unique");
        // Every arm of the cross must decide safely — in particular the
        // crash arms, where a round-4 crash lands inside the chaos prefix.
        for name in ["dense/n4-l60-c1-maj", "dense/n8-l60-c1-zero"] {
            let spec = specs
                .iter()
                .find(|s| s.name == name)
                .expect("the crash arms register");
            let row = spec.run_cell(0, 0);
            assert!(
                flag(&row, MetricId::Safe),
                "{name}: agreement/validity under crash"
            );
            assert!(
                flag(&row, MetricId::Terminated),
                "{name}: must decide within the cap"
            );
        }
    }

    #[test]
    fn churn_cells_inject_faults_and_stay_safe() {
        let specs = churn_specs(Scale::Quick);
        let burst = specs
            .iter()
            .find(|s| s.name == "churn/b2-r6-mild")
            .expect("the burst grid registers");
        let row = burst.run_cell(0, 0);
        assert!(
            flag(&row, MetricId::Safe),
            "agreement/validity must survive the injected schedule"
        );
        assert!(
            flag(&row, MetricId::Terminated),
            "the settled suffix still decides"
        );
        assert_eq!(
            row.metrics.get(MetricId::CrashCount),
            Some(MetricValue::U64(2)),
            "the scheduled burst crashes exactly two processes"
        );
        assert_eq!(
            row.metrics.get(MetricId::FirstCrashRound),
            Some(MetricValue::OptU64(Some(6)))
        );
        // The checkpoint probe sampled the event boundaries.
        let Some(MetricValue::U64(reached)) = row.metrics.get(MetricId::CheckpointCount) else {
            panic!("churn specs carry checkpoint stats");
        };
        assert!(reached >= 1, "at least the burst-round boundary is reached");
        let Some(MetricValue::OptU64(Some(alive_min))) =
            row.metrics.get(MetricId::CheckpointAliveMin)
        else {
            panic!("a reached checkpoint samples the alive count");
        };
        assert_eq!(alive_min, 3, "5 processes minus the burst of 2");
    }

    #[test]
    fn static_baseline_rides_the_same_environment_without_events() {
        let specs = churn_specs(Scale::Quick);
        let baseline = specs
            .iter()
            .find(|s| s.name == "churn/static-baseline")
            .expect("the baseline registers");
        assert!(baseline.timeline.is_empty());
        let row = baseline.run_cell(0, 0);
        assert!(flag(&row, MetricId::Safe) && flag(&row, MetricId::Terminated));
        assert_eq!(
            row.metrics.get(MetricId::CrashCount),
            Some(MetricValue::U64(0)),
            "no events, no crashes"
        );
        assert_eq!(
            row.metrics.get(MetricId::CheckpointCount),
            Some(MetricValue::U64(0)),
            "no event boundaries to sample"
        );
    }

    #[test]
    fn absmac_grid_pairs_both_models_at_matched_coordinates() {
        let specs = absmac_specs(Scale::Quick);
        assert_eq!(
            specs.len(),
            33,
            "2 models × 2 algs × 2 n × 2 severity × 2 crash + the adversarial pin"
        );
        // Every cd spec has a mac partner at the same grid coordinates,
        // and both declare the same measurement reference (6).
        for spec in specs.iter().filter(|s| s.name.starts_with("absmac/cd-")) {
            let partner = spec.name.replacen("absmac/cd-", "absmac/mac-", 1);
            let mac = specs
                .iter()
                .find(|s| s.name == partner)
                .unwrap_or_else(|| panic!("{} has no mac partner", spec.name));
            assert_eq!(spec.algorithm, mac.algorithm);
            assert_eq!(spec.n, mac.n);
            assert_eq!(spec.crash, mac.crash);
            assert!(matches!(spec.env, EnvironmentPlan::Ecf(_)));
            assert!(matches!(mac.env, EnvironmentPlan::AbsMac(_)));
        }
    }

    #[test]
    fn absmac_cells_stay_safe_and_measure_the_envelopes() {
        let specs = absmac_specs(Scale::Quick);
        // The crashed MAC arm at the harsher severity, plus the
        // worst-case-within-bounds pin: both must decide safely, and the
        // envelope probes must see the deferrals the policy injects.
        for name in ["absmac/mac-n4-l30-c1-maj", "absmac/mac-adversarial"] {
            let spec = specs
                .iter()
                .find(|s| s.name == name)
                .expect("the mac arms register");
            let row = spec.run_cell(0, 0);
            assert!(
                flag(&row, MetricId::Safe),
                "{name}: agreement/validity under the MAC"
            );
            assert!(
                flag(&row, MetricId::Terminated),
                "{name}: must decide within the cap"
            );
            assert_eq!(
                row.metrics.get(MetricId::Reference),
                Some(MetricValue::U64(6)),
                "the reference is f_ack"
            );
            let Some(MetricValue::U64(attempts)) = row.metrics.get(MetricId::AckAttemptsMax) else {
                panic!("{name}: mac arms carry the ack-latency probe");
            };
            assert!(
                (1..=6).contains(&attempts),
                "{name}: measured ack latency {attempts} must sit inside f_ack = 6"
            );
            let Some(MetricValue::U64(streak)) = row.metrics.get(MetricId::MacBlockedStreakMax)
            else {
                panic!("{name}: mac arms carry the progress-bound probe");
            };
            assert!(
                streak <= 1,
                "{name}: blocked streaks must respect f_prog = 2 (at most 1 blocked round)"
            );
        }
        // The MAC's own bookkeeping is an exactly-truthful detector, so
        // the in-class certification records no violations.
        let adversarial = specs
            .iter()
            .find(|s| s.name == "absmac/mac-adversarial")
            .expect("registered");
        let row = adversarial.run_cell(0, 0);
        assert_eq!(
            row.metrics.get(MetricId::CdFalsePositives),
            Some(MetricValue::U64(0)),
            "the MAC detector never cries wolf"
        );
        assert_eq!(
            row.metrics.get(MetricId::CdMissedDetections),
            Some(MetricValue::U64(0)),
            "the MAC detector never misses a deferred broadcast"
        );
        let Some(MetricValue::U64(deferrals)) = row.metrics.get(MetricId::AckDeferralsTotal) else {
            panic!("mac arms carry the deferral count");
        };
        assert!(deferrals > 0, "the adversarial policy actually defers");
    }
}
