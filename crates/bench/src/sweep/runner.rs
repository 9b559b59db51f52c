//! The parallel sweep runner: fans independent cells across OS threads.

use super::frame::ResultsFrame;
use super::spec::ScenarioSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Executes scenario sweeps, fanning `(spec, case)` cells across a fixed
/// number of worker threads.
///
/// Cells are claimed from a shared atomic counter (work stealing at cell
/// granularity — cells are far from uniform in cost, so static chunking
/// would leave cores idle), and every result carries its cell index, so
/// the assembled [`ResultsFrame`] is in deterministic cell order no matter
/// how the OS schedules the workers. Combined with per-cell seeding
/// ([`ScenarioSpec::cell_seed`]) and deterministic probes, serial and
/// parallel sweeps are *byte-identical*, which `tests/determinism.rs` and
/// `tests/probe_determinism.rs` pin down.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner using every available core, or as many workers as
    /// `CCWAN_SWEEP_THREADS` names.
    ///
    /// # Panics
    ///
    /// If `CCWAN_SWEEP_THREADS` is set to anything but a positive integer.
    pub fn parallel() -> Self {
        let value = std::env::var_os(THREADS_VAR).map(|v| v.to_string_lossy().into_owned());
        SweepRunner {
            threads: threads_from_env(value.as_deref()),
        }
    }

    /// A single-threaded runner (the reference execution order).
    pub fn serial() -> Self {
        SweepRunner { threads: 1 }
    }

    /// A runner with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// Runs every cell of every spec in this process and returns the
    /// assembled columnar frame — the one sweep entry point. Each cell's
    /// probes watch its rounds live ([`ScenarioSpec::run_cell`]).
    pub fn run_fresh(&self, specs: &[ScenarioSpec]) -> ResultsFrame {
        let cells: Vec<(usize, u64)> = expand(specs);
        let rows = self.map_described(
            cells.len(),
            |idx| {
                let (spec_index, case) = cells[idx];
                specs[spec_index].run_cell(spec_index, case)
            },
            |idx| describe_cell(specs, cells[idx]),
        );
        ResultsFrame::from_rows(specs, rows)
    }

    /// Parallel deterministic map: applies `job` to `0..count` across the
    /// worker threads and returns the results in index order. The generic
    /// escape hatch for work that is not a consensus cell (e.g. the
    /// Section 8 theorem drivers). Panics are hardened as in
    /// [`SweepRunner::map_described`], with the bare task index as the
    /// context.
    pub fn map<T, F>(&self, count: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_described(count, job, |idx| format!("task {idx}"))
    }

    /// [`SweepRunner::map`] with a failure label: `describe(idx)` is
    /// evaluated only when task `idx` panicked, and its rendering joins
    /// the re-raised panic message (the sweep entry points pass the spec
    /// name, case, and seed).
    ///
    /// A panicking task cannot poison or hang the pool: the panic is
    /// caught on the worker, the remaining workers stop claiming work,
    /// every thread is joined cleanly, and the *lowest-indexed* failure is
    /// re-raised on the caller's thread with its context attached —
    /// deterministic no matter which worker hit it first.
    pub fn map_described<T, F, D>(&self, count: usize, job: F, describe: D) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        D: Fn(usize) -> String,
    {
        let run = |idx: usize| {
            catch_unwind(AssertUnwindSafe(|| job(idx))).map_err(|payload| panic_message(&*payload))
        };
        if self.threads == 1 || count <= 1 {
            return (0..count)
                .map(|idx| match run(idx) {
                    Ok(value) => value,
                    Err(msg) => panic!("sweep cell panicked: {}: {msg}", describe(idx)),
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let workers = self.threads.min(count);
        let mut indexed: Vec<(usize, T)> = Vec::with_capacity(count);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                return local;
                            }
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= count {
                                return local;
                            }
                            match run(idx) {
                                Ok(value) => local.push((idx, value)),
                                Err(msg) => {
                                    let mut slot =
                                        failure.lock().unwrap_or_else(|e| e.into_inner());
                                    if slot.as_ref().is_none_or(|&(first, _)| idx < first) {
                                        *slot = Some((idx, msg));
                                    }
                                    abort.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                // Workers return normally even on task panics (caught
                // above); a dead thread here is a harness bug, not a cell
                // failure.
                indexed.extend(handle.join().expect("sweep worker thread died"));
            }
        });
        if let Some((idx, msg)) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
            panic!("sweep cell panicked: {}: {msg}", describe(idx));
        }
        indexed.sort_by_key(|&(idx, _)| idx);
        debug_assert_eq!(indexed.len(), count);
        indexed.into_iter().map(|(_, value)| value).collect()
    }
}

/// The environment variable that sets [`SweepRunner::parallel`]'s worker
/// count.
const THREADS_VAR: &str = "CCWAN_SWEEP_THREADS";

/// The worker count for a `CCWAN_SWEEP_THREADS` value: every available
/// core when unset, that many workers for a positive integer, and a panic
/// naming the variable and the value for anything else (`abc`, `0`, `-1`,
/// empty), so a typo cannot quietly run at the default count.
fn threads_from_env(value: Option<&str>) -> usize {
    let Some(text) = value else {
        return std::thread::available_parallelism().map_or(1, |n| n.get());
    };
    match text.parse::<usize>() {
        Ok(threads) if threads > 0 => threads,
        _ => panic!("{THREADS_VAR} must be a positive integer, got {text:?}"),
    }
}

/// The panic-facing rendering of one `(spec, case)` cell.
fn describe_cell(specs: &[ScenarioSpec], (spec_index, case): (usize, u64)) -> String {
    let spec = &specs[spec_index];
    format!(
        "spec `{}` case {case} seed {:#018x}",
        spec.name,
        spec.cell_seed(case)
    )
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Expands specs into the canonical spec-major, then case cell order.
fn expand(specs: &[ScenarioSpec]) -> Vec<(usize, u64)> {
    specs
        .iter()
        .enumerate()
        .flat_map(|(i, spec)| (0..spec.seeds).map(move |k| (i, k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::spec::lattice_specs;
    use crate::Scale;

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 8] {
            let runner = SweepRunner::with_threads(threads);
            let out = runner.map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        let specs = &lattice_specs(Scale::Quick)[..2];
        let serial = SweepRunner::serial().run_fresh(specs);
        let parallel = SweepRunner::with_threads(4).run_fresh(specs);
        assert_eq!(serial, parallel);
        assert_eq!(
            serial.cell_count(),
            specs.iter().map(|s| s.seeds as usize).sum::<usize>()
        );
    }

    #[test]
    fn worker_panic_is_caught_reported_and_does_not_hang() {
        for threads in [1, 4] {
            let runner = SweepRunner::with_threads(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                runner.map_described(
                    64,
                    |i| {
                        if i == 13 {
                            panic!("boom at {i}");
                        }
                        i
                    },
                    |i| format!("cell #{i}"),
                )
            }));
            let payload = caught.expect_err("the worker panic must propagate to the caller");
            let msg = panic_message(&*payload);
            assert!(
                msg.contains("cell #13") && msg.contains("boom at 13"),
                "panic context missing from: {msg}"
            );
        }
    }

    #[test]
    fn lowest_indexed_failure_wins() {
        // Several failing tasks: the re-raised failure must be the
        // lowest-indexed one, independent of worker scheduling.
        let runner = SweepRunner::with_threads(8);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            runner.map_described(
                32,
                |i| {
                    if i % 7 == 3 {
                        panic!("bad task");
                    }
                    i
                },
                |i| format!("task-{i}"),
            )
        }));
        let msg = panic_message(&*caught.expect_err("must propagate"));
        assert!(msg.contains("task-3"), "expected task-3 first, got: {msg}");
    }

    #[test]
    fn thread_count_variable_is_unset_or_a_positive_integer() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(threads_from_env(None), cores);
        assert_eq!(threads_from_env(Some("1")), 1);
        assert_eq!(threads_from_env(Some("4")), 4);
        for bad in ["abc", "0", "-1", ""] {
            let caught = catch_unwind(|| threads_from_env(Some(bad)));
            let msg = panic_message(&*caught.expect_err(bad));
            assert!(
                msg.contains(THREADS_VAR) && msg.contains(&format!("{bad:?}")),
                "{bad:?}: {msg}"
            );
        }
    }

    #[test]
    fn worst_rounds_past_covers_all_cells() {
        let specs = lattice_specs(Scale::Quick);
        let results = SweepRunner::parallel().run_fresh(&specs[..1]);
        // Theorem 1: within 2 rounds of CST for a maj-complete class.
        assert!(results.worst_rounds_past(0) <= 2);
    }
}
