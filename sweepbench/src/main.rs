//! `sweepbench`: times fresh passes over the scenario registry through the
//! public sweep API, from outside the library.
//!
//! ```text
//! cargo run --release --manifest-path sweepbench/Cargo.toml -- \
//!     --workload registry-full --seed 0 --seconds 40 --trace 0
//! ```
//!
//! The load is a closed loop on one thread: a pass runs every cell of the
//! workload fresh, assembles the frame, summarizes it, scans safety and
//! diffs against the expected output; the next pass starts when that one
//! ends. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced variant, which times each call and reports the per-layer
//! metrics. The last line of stdout is one JSON object; the lines before
//! it print every metric with its unit. Any failed cell makes the run exit
//! nonzero. See `README.md` for the metrics and the workloads.

mod alloc;
mod check;
mod layers;
mod workload;

use check::Checker;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wan_bench::sweep::{scan_safety, SweepSummary};
use wan_bench::{MetricId, ResultsFrame, Scale, ScenarioSpec, SweepRunner};
use workload::{Setup, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Timed passes per run, at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: sweepbench --workload <registry-full|long-wide|radio> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--bless]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = Duration::from_secs(40);
    let mut trace = false;
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or(bad("seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bless,
    })
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    let name = name.into();
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    Metric { name, value, unit }
}

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Rounds executed by every cell of a frame, from `rounds_executed`.
pub fn rounds_of(frame: &ResultsFrame) -> u64 {
    frame
        .specs()
        .iter()
        .filter_map(|spec| spec.column(MetricId::RoundsExecuted))
        .map(|column| column.sum() as u64)
        .sum()
}

/// One untraced pass. Returns its wall time in seconds and the frame,
/// which the checker has already seen.
pub fn pass(specs: &[ScenarioSpec], checker: &mut Checker) -> (f64, ResultsFrame) {
    let start = Instant::now();
    let frame = SweepRunner::serial().run_fresh(specs);
    let summary = SweepSummary::from_results(Scale::Full, specs, &frame);
    let violations = scan_safety(specs, &frame);
    let drift = checker
        .reference()
        .map_or_else(Vec::new, |r| r.diff(&summary));
    let elapsed = start.elapsed().as_secs_f64();
    checker.record(&frame, summary, &violations, &drift);
    (elapsed, frame)
}

/// Builds the specs and loads the expected output; returns the set-up and
/// its wall time in seconds.
fn timed_set_up(workload: Workload, seed: u64) -> Result<(Setup, f64), String> {
    let start = Instant::now();
    let setup = workload::set_up(workload, seed)?;
    Ok((setup, start.elapsed().as_secs_f64()))
}

/// The end-to-end metrics: a warm-up pass, then closed-loop passes for
/// `seconds`. Pass time is the fastest pass and the rates the fastest
/// pass's: interference from other tenants of a shared host only adds
/// time, and can slow every pass of a half-minute window by a quarter, so
/// the median follows the host while the fastest of a long enough run
/// finds the program's own cost. The set-up is repeated before every
/// pass, outside the pass's time, so that the samples of `setup_s` span
/// the run as the passes do.
fn end_to_end(
    args: &Args,
    specs: &[ScenarioSpec],
    first_setup_s: f64,
    checker: &mut Checker,
) -> Vec<Metric> {
    pass(specs, checker);
    let mut setup_s = vec![first_setup_s];
    let (mut times, mut cells_per_s, mut rounds_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while times.len() < MIN_PASSES || start.elapsed() < args.seconds {
        let (_, elapsed) =
            timed_set_up(args.workload, args.seed).expect("the same set-up succeeded before");
        setup_s.push(elapsed);
        let (elapsed, frame) = pass(specs, checker);
        times.push(elapsed);
        cells_per_s.push(frame.cell_count() as f64 / elapsed);
        rounds_per_s.push(rounds_of(&frame) as f64 / elapsed);
    }
    vec![
        metric("setup_s", percentile(&setup_s, 50.0), "s"),
        metric("pass_s.min", percentile(&times, 0.0), "s"),
        metric("cells_per_s", percentile(&cells_per_s, 100.0), "1/s"),
        metric("rounds_per_s", percentile(&rounds_per_s, 100.0), "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Writes the seed-0 expected summary of a hand-built workload. Re-bless
/// only together with the registry goldens, in a commit of its own.
fn bless(workload: Workload) -> ExitCode {
    if workload == Workload::RegistryFull {
        eprintln!(
            "sweepbench: registry-full is checked against the committed registry golden; \
             bless that with `run_experiments bless`"
        );
        return ExitCode::FAILURE;
    }
    let specs = workload.specs(0);
    let frame = SweepRunner::serial().run_fresh(&specs);
    let summary = SweepSummary::from_results(Scale::Full, &specs, &frame);
    if let Some(bad) = summary
        .specs
        .iter()
        .find(|row| row.safe != row.cells || row.terminated != row.cells)
    {
        eprintln!(
            "sweepbench: refusing to bless: spec {} has failing cells",
            bad.name
        );
        return ExitCode::FAILURE;
    }
    let path = workload.expected_path();
    let written =
        std::fs::create_dir_all(path.parent().expect("expected files sit in a directory"))
            .and_then(|()| std::fs::write(&path, summary.to_json()));
    match written {
        Ok(()) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("sweepbench: writing {}: {err}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("sweepbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return bless(args.workload);
    }

    let (setup, setup_s) = match timed_set_up(args.workload, args.seed) {
        Ok(timed) => timed,
        Err(err) => {
            eprintln!("sweepbench: set-up failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut checker = Checker::new((args.seed == 0).then_some(setup.expected));
    let metrics = if args.trace {
        layers::run(&setup.specs, args.seed, args.seconds, &mut checker)
    } else {
        end_to_end(&args, &setup.specs, setup_s, &mut checker)
    };

    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        fields.join(", ")
    );
    if checker.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
