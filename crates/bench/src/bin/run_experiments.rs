//! Runs the experiment suite and the registry regression gate.
//!
//! ```text
//! run_experiments [run]          [--quick] [--only eN]
//! run_experiments check          [--quick]
//! run_experiments bless          [--quick]
//! run_experiments metrics <glob> [--quick]
//! run_experiments help
//! ```
//!
//! Every sweep executes every cell, in this process, through the
//! work-stealing [`SweepRunner`]; results are byte-identical at any thread
//! count. `CCWAN_SWEEP_THREADS` sets the worker count and must be a
//! positive integer: any other value aborts the run rather than falling
//! back to the default.
//!
//! * `run` prints every experiment table (`--only eN` narrows to one). A
//!   bare invocation means `run`.
//! * `check` replays the standard scenario registry against the committed
//!   golden summary (`golden/sweeps/`, override with `CCWAN_GOLDEN_DIR`)
//!   and exits nonzero on any drift — the CI regression gate, covering
//!   the per-spec frame summaries (probe metrics included) since golden
//!   format v2. The safety scan runs first ([`golden::gate`]): a cell
//!   that breaks agreement or validity fails the gate and is never
//!   blessed. `bless` rewrites the golden file after an intentional
//!   behavior change. Either way the observed summary is also written
//!   under `target/sweep-summaries/` for CI artifact upload.
//! * `metrics <glob>` runs the standard registry sweep and prints a
//!   per-spec summary table of every probe metric whose name matches the
//!   glob (`*` and `?` wildcards, e.g. `cd_*` or `*_rounds`). Ordering is
//!   stable — registry order, then canonical metric order — and the table
//!   is a pure function of the results frame, so stdout is byte-identical
//!   at any worker count.

use std::path::{Path, PathBuf};
use wan_bench::sweep::{golden, MetricId, Registry, ResultsFrame, SweepRunner, SweepSummary};
use wan_bench::{experiments, Scale, Table};

type Experiment = fn(Scale) -> Table;

/// Experiment ids in suite order; `--only` dispatches here, so a filtered
/// run executes only the requested experiment.
const EXPERIMENTS: [(&str, Experiment); 16] = [
    ("e1", experiments::lattice::e1_figure1_lattice),
    ("e2", experiments::upper_bounds::e2_alg1_constant_rounds),
    ("e3", experiments::upper_bounds::e3_alg2_log_rounds),
    ("e4", experiments::upper_bounds::e4_nonanon_min_crossover),
    ("e5", experiments::upper_bounds::e5_bst_nocf_bound),
    ("e6", experiments::lower_bounds::e6_impossibility),
    ("e7", experiments::lower_bounds::e7_anon_half_ac),
    ("e8", experiments::lower_bounds::e8_nonanon_half_ac),
    ("e9", experiments::lower_bounds::e9_ev_accuracy_nocf),
    ("e10", experiments::lower_bounds::e10_accuracy_nocf),
    ("e11", experiments::phy_claims::e11_detector_properties),
    ("e12", experiments::phy_claims::e12_loss_under_load),
    ("e13", experiments::phy_claims::e13_backoff_and_end_to_end),
    (
        "e14",
        experiments::ablation::e14_model_and_detector_ablation,
    ),
    ("e15", experiments::extensions::e15_occasional_detectors),
    ("e16", experiments::extensions::e16_counting_separation),
];

const USAGE: &str = "\
usage: run_experiments [command] [options]

commands:
  run            print every experiment table (the default command)
  check          gate the standard registry against golden/sweeps/
  bless          regenerate the golden summary after an intended change
  metrics <glob> per-spec summary of probe metrics; the glob selects
                 metric names or registry spec names (e.g. 'absmac/*')

options:
  --quick        CI-sized sweeps instead of paper-sized
  --only eN      (run) a single experiment (e1..e16)
  --help, help   this text

environment:
  CCWAN_SWEEP_THREADS  sweep worker threads, a positive integer
                       (default: available cores)
  CCWAN_GOLDEN_DIR     golden summary directory (default: golden/sweeps)";

/// What `main` dispatches on once the command line is understood.
enum Command {
    Run { only: Option<String> },
    Check,
    Bless,
    Metrics { glob: String },
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{USAGE}");
        return;
    }
    let (command, quick) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n\nrun `run_experiments help` for usage");
            std::process::exit(2);
        }
    };
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let code = match command {
        Command::Run { only } => run_suite(scale, only.as_deref()),
        Command::Check => run_check(scale, false),
        Command::Bless => run_check(scale, true),
        Command::Metrics { glob } => run_metrics(scale, &glob),
    };
    std::process::exit(code);
}

/// Parses the command line into `(command, quick)`. The first argument
/// selects the command unless it is a flag, in which case the command is
/// `run`.
fn parse(args: &[String]) -> Result<(Command, bool), String> {
    let (word, rest) = match args.split_first() {
        Some((first, rest)) if !first.starts_with('-') => (first.as_str(), rest),
        _ => ("run", args),
    };
    let mut quick = false;
    let mut only: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--quick" => quick = true,
            "--only" => {
                i += 1;
                only = Some(
                    rest.get(i)
                        .ok_or("--only requires an experiment id (e1..e16)")?
                        .to_lowercase(),
                );
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            value => positional.push(value),
        }
        i += 1;
    }

    if only.is_some() && word != "run" {
        return Err(format!("--only does not apply to `{word}`"));
    }
    let command = match (word, positional.as_slice()) {
        ("run", []) => {
            if let Some(filter) = &only {
                if !EXPERIMENTS.iter().any(|(id, _)| id == filter) {
                    return Err(format!(
                        "unknown experiment {filter:?}; expected one of e1..e{}",
                        EXPERIMENTS.len()
                    ));
                }
            }
            Command::Run { only }
        }
        ("check", []) => Command::Check,
        ("bless", []) => Command::Bless,
        ("metrics", [glob]) => Command::Metrics {
            glob: glob.to_string(),
        },
        ("metrics", []) => return Err("`metrics` requires a glob (e.g. 'cd_*')".into()),
        ("metrics", _) => return Err("`metrics` takes exactly one glob".into()),
        ("run" | "check" | "bless", [extra, ..]) => {
            return Err(format!("`{word}` takes no positional argument {extra:?}"));
        }
        (other, _) => return Err(format!("unknown command {other:?}")),
    };
    Ok((command, quick))
}

fn run_suite(scale: Scale, only: Option<&str>) -> i32 {
    println!("# ccwan experiment suite ({scale:?})");
    for (id, experiment) in EXPERIMENTS {
        if only.is_some_and(|filter| filter != id) {
            continue;
        }
        println!("{}", experiment(scale));
    }
    0
}

/// Minimal glob matching (`*` = any run, `?` = any one character) for
/// `metrics` selection.
fn glob_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[u8], t: &[u8]) -> bool {
        match (p.first(), t.first()) {
            (None, None) => true,
            (Some(b'*'), _) => inner(&p[1..], t) || (!t.is_empty() && inner(p, &t[1..])),
            (Some(b'?'), Some(_)) => inner(&p[1..], &t[1..]),
            (Some(a), Some(b)) if a == b => inner(&p[1..], &t[1..]),
            _ => false,
        }
    }
    inner(pattern.as_bytes(), text.as_bytes())
}

/// `metrics <glob>`: one row per (registry spec, selected metric), with
/// exact summary statistics from the results frame. Pure function of the
/// frame, so stdout is byte-identical at any worker count.
///
/// The glob selects either way: matched against **metric names** it shows
/// that metric across every spec; matched against **registry spec names**
/// (e.g. `absmac/*`) it shows every metric those specs emit — the
/// side-by-side view a scenario family (such as the cross-model
/// `absmac/cd-…` / `absmac/mac-…` pairs) is read with.
fn run_metrics(scale: Scale, glob: &str) -> i32 {
    let registry = Registry::standard(scale);
    let spec_selected = registry
        .specs()
        .iter()
        .any(|spec| glob_match(glob, &spec.name));
    let selected: Vec<MetricId> = MetricId::ALL
        .into_iter()
        .filter(|id| spec_selected || glob_match(glob, id.name()))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "metrics: {glob:?} matches no metric and no registry spec; known metrics: {}",
            MetricId::ALL.map(|id| id.name()).join(", ")
        );
        return 2;
    }
    let frame: ResultsFrame = SweepRunner::parallel().run_fresh(registry.specs());
    let mut table = Table::new(
        format!("Probe metrics matching {glob:?} over the standard registry ({scale:?})"),
        &[
            "spec", "metric", "cells", "present", "min", "p50", "max", "sum",
        ],
    );
    let fmt_opt = |v: Option<i128>| v.map_or_else(|| "—".to_string(), |v| v.to_string());
    for (i, spec) in registry.specs().iter().enumerate() {
        if spec_selected && !glob_match(glob, &spec.name) {
            continue;
        }
        let spec_frame = frame.spec(i);
        for &id in &selected {
            let Some(column) = spec_frame.column(id) else {
                continue; // this spec's manifest does not emit the metric
            };
            table.row(vec![
                spec.name.clone(),
                id.name().to_string(),
                column.len().to_string(),
                column.count_present().to_string(),
                fmt_opt(column.min()),
                fmt_opt(column.percentile(50)),
                fmt_opt(column.max()),
                column.sum().to_string(),
            ]);
        }
    }
    table.note(format!(
        "{} metric(s) selected; optional metrics count `present` of `cells`; \
         specs whose probe manifest omits a metric are skipped.",
        selected.len()
    ));
    println!("{table}");
    0
}

/// `check` / `bless`: summarize a fresh run of the standard registry,
/// record the observed summary for artifact upload, then apply
/// [`golden::gate`] (safety scan first, then bless or compare).
fn run_check(scale: Scale, bless: bool) -> i32 {
    let (observed, violations) = SweepSummary::measure_gated(scale, &SweepRunner::parallel());
    let file_name = golden::golden_file_name(scale);
    let observed_path = Path::new("target/sweep-summaries").join(file_name);
    if let Err(err) = golden::atomic_write(&observed_path, observed.to_json().as_bytes()) {
        eprintln!(
            "check: could not record observed summary at {}: {err}",
            observed_path.display()
        );
    }
    let golden_dir = PathBuf::from(
        std::env::var("CCWAN_GOLDEN_DIR").unwrap_or_else(|_| "golden/sweeps".to_string()),
    );
    match golden::gate(&observed, violations, &golden_dir.join(file_name), bless) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(err) => {
            eprintln!("{err}");
            1
        }
    }
}
