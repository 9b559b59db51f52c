//! The three workloads, built from public `ScenarioSpec` fields, and their
//! expected outputs.

use std::path::PathBuf;
use wan_bench::experiments::helpers::EnvPlan;
use wan_bench::sweep::{Algorithm, CrashPlan, EnvironmentPlan, ScenarioSpec, SweepSummary};
use wan_bench::{ProbeManifest, Registry, Scale};
use wan_cd::CdClass;
use wan_sim::ScenarioTimeline;

/// Seeds (cells) per spec of `long-wide`, whose cells all run 102 or 108
/// rounds.
const LONG_WIDE_SEEDS: u64 = 20;

/// Seeds (cells) per spec of `radio`. Radio cells are heavy-tailed (at
/// n = 16, p99 about 400 rounds against a median of 24), so a pass needs
/// many of them for its total work to be steady from seed to seed, and
/// few enough that a run still holds dozens of passes.
const RADIO_SEEDS: u64 = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full standard registry: what `run_experiments check` runs.
    RegistryFull,
    /// Long ECF cells at n = 16/64: engine work dominates.
    LongWide,
    /// The SINR radio at n = 16/32/64: `wan-phy` dominates.
    Radio,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "registry-full" => Some(Workload::RegistryFull),
            "long-wide" => Some(Workload::LongWide),
            "radio" => Some(Workload::Radio),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RegistryFull => "registry-full",
            Workload::LongWide => "long-wide",
            Workload::Radio => "radio",
        }
    }

    /// The workload's specs at seed 0. Any other seed salts every spec
    /// name, and so every cell seed, keeping the shape of each cell.
    pub fn specs(self, seed: u64) -> Vec<ScenarioSpec> {
        let mut specs = match self {
            Workload::RegistryFull => Registry::standard(Scale::Full).specs().to_vec(),
            Workload::LongWide => long_wide_specs(),
            Workload::Radio => radio_specs(),
        };
        if seed != 0 {
            for spec in &mut specs {
                spec.name = format!("{}~{seed:016x}", spec.name);
            }
        }
        specs
    }

    /// Where the workload's expected summary at seed 0 lives. The full
    /// registry is checked against the committed golden file, read-only;
    /// the other two keep theirs in this package.
    pub fn expected_path(self) -> PathBuf {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        match self {
            Workload::RegistryFull => root.join("../golden/sweeps/registry_full.json"),
            Workload::LongWide | Workload::Radio => {
                root.join("expected").join(format!("{}.json", self.name()))
            }
        }
    }
}

/// What a run needs before its first cell.
pub struct Setup {
    pub specs: Vec<ScenarioSpec>,
    /// The expected summary, used only at seed 0. It is loaded at every
    /// seed, so that set-up does the same work whatever the seed.
    pub expected: SweepSummary,
}

/// Builds the specs and loads the expected output.
pub fn set_up(workload: Workload, seed: u64) -> Result<Setup, String> {
    let specs = workload.specs(seed);
    let path = workload.expected_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|err| format!("reading {}: {err}", path.display()))?;
    let expected =
        SweepSummary::parse(&text).map_err(|err| format!("{}: {err}", path.display()))?;
    Ok(Setup { specs, expected })
}

/// ECF with CST at round 100 (`r_cf = r_acc = r_wake = 100`, loss 0.6,
/// noise 0.3): n ∈ {16, 64} × {Alg1/maj-⋄AC, Alg2/0-⋄AC} × {no crash, p0
/// crashes at round 50}.
fn long_wide_specs() -> Vec<ScenarioSpec> {
    let plan = EnvPlan {
        r_cf: 100,
        r_acc: 100,
        r_wake: 100,
        loss: 0.6,
        noise: 0.3,
    };
    let mut specs = Vec::new();
    for n in [16usize, 64] {
        for (tag, algorithm, class) in [
            ("maj", Algorithm::Alg1, CdClass::MAJ_EV_AC),
            ("zero", Algorithm::Alg2, CdClass::ZERO_EV_AC),
        ] {
            for crash in [
                None,
                Some(CrashPlan {
                    process: 0,
                    round: 50,
                }),
            ] {
                let c = u8::from(crash.is_some());
                specs.push(ScenarioSpec {
                    name: format!("long-wide/n{n}-c{c}-{tag}"),
                    algorithm,
                    class,
                    env: EnvironmentPlan::Ecf(plan),
                    crash,
                    timeline: ScenarioTimeline::new(),
                    n,
                    v_size: 16,
                    fixed_values: None,
                    seeds: LONG_WIDE_SEEDS,
                    cap: 600,
                    probes: ProbeManifest::standard(),
                });
            }
        }
    }
    specs
}

/// The registry's `phy/*` shape (Alg2/0-⋄AC end to end over the SINR
/// radio) at the larger sizes n ∈ {16, 32, 64}.
fn radio_specs() -> Vec<ScenarioSpec> {
    [16usize, 32, 64]
        .into_iter()
        .map(|n| ScenarioSpec {
            name: format!("radio/n{n}"),
            algorithm: Algorithm::Alg2,
            class: CdClass::ZERO_EV_AC,
            env: EnvironmentPlan::Phy,
            crash: None,
            timeline: ScenarioTimeline::new(),
            n,
            v_size: 16,
            fixed_values: None,
            seeds: RADIO_SEEDS,
            cap: 3000,
            probes: ProbeManifest::standard(),
        })
        .collect()
}
