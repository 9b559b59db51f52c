//! Human-readable execution timelines.
//!
//! Renders a recorded [`ExecutionTrace`] as a per-process ASCII chart, one
//! column per round — the fastest way to *see* why an execution behaved as
//! it did (who broadcast, who heard what, where the collision advice fired,
//! who was active, who crashed):
//!
//! ```text
//! round  |  1  2  3  4  5
//! p0     | *B  .  ±  B  .
//! p1     |  B  .  ±  2  .
//! p2     |  B ×✝  .  .  .
//! ```
//!
//! Cell legend: `B` broadcast, `*` contention-manager active, `±` collision
//! advice, digits = messages received (when not broadcasting), `.` nothing,
//! `✝` crashed this round, `×` prefix for dead processes.

use crate::ids::ProcessId;
use crate::trace::ExecutionTrace;
use std::fmt::Write as _;

/// Options for [`render_timeline`].
#[derive(Debug, Clone, Copy)]
pub struct TimelineOptions {
    /// First round to render (1-based; default 1).
    pub from_round: u64,
    /// Maximum number of rounds to render (default 80).
    pub max_rounds: usize,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            from_round: 1,
            max_rounds: 80,
        }
    }
}

/// Renders the trace as an ASCII timeline.
pub fn render_timeline<M: Ord>(trace: &ExecutionTrace<M>, options: TimelineOptions) -> String {
    let records: Vec<_> = trace
        .rounds()
        .filter(|r| r.round().0 >= options.from_round)
        .take(options.max_rounds)
        .collect();
    let mut out = String::new();

    // Header row.
    let label_width = format!("p{}", trace.n().saturating_sub(1)).len().max(5);
    let _ = write!(out, "{:<label_width$} |", "round");
    for rec in &records {
        let _ = write!(out, " {:>3}", rec.round().0);
    }
    out.push('\n');

    for i in 0..trace.n() {
        let pid = ProcessId(i);
        let _ = write!(out, "{:<label_width$} |", pid.to_string());
        let mut is_dead = false;
        for rec in &records {
            let crashed_now = rec.crashed().contains(&pid);
            let mut cell = String::new();
            if is_dead {
                cell.push('×');
            } else {
                if rec.cm()[i].is_active() {
                    cell.push('*');
                }
                if rec.is_sender(pid) {
                    cell.push('B');
                } else if rec.cd()[i].is_collision() {
                    cell.push('±');
                } else {
                    let t = rec.received_counts()[i];
                    if t > 0 {
                        let _ = write!(cell, "{}", t.min(9));
                    } else {
                        cell.push('.');
                    }
                }
            }
            if crashed_now {
                cell.push('✝');
                is_dead = true;
            }
            let _ = write!(out, " {cell:>3}");
        }
        out.push('\n');
    }
    out
}

/// Convenience: render with defaults.
pub fn timeline<M: Ord>(trace: &ExecutionTrace<M>) -> String {
    render_timeline(trace, TimelineOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::{CdAdvice, CmAdvice};
    use crate::ids::Round;
    use crate::trace::RoundRecord;

    fn record(
        round: u64,
        cm: Vec<CmAdvice>,
        sent: Vec<Option<u8>>,
        cd: Vec<CdAdvice>,
        counts: Vec<usize>,
        crashed: Vec<ProcessId>,
    ) -> RoundRecord<u8> {
        let n = sent.len();
        RoundRecord {
            round: Round(round),
            cm,
            sent,
            cd,
            received_counts: counts,
            received: None,
            crashed,
            alive: vec![true; n],
        }
    }

    fn sample_trace() -> ExecutionTrace<u8> {
        let mut t = ExecutionTrace::new(3);
        t.push_record(record(
            1,
            vec![CmAdvice::Active, CmAdvice::Passive, CmAdvice::Passive],
            vec![Some(7), None, None],
            vec![CdAdvice::Null; 3],
            vec![1, 1, 0],
            vec![],
        ));
        t.push_record(record(
            2,
            vec![CmAdvice::Passive; 3],
            vec![None, Some(9), None],
            vec![CdAdvice::Null, CdAdvice::Null, CdAdvice::Collision],
            vec![1, 1, 0],
            vec![ProcessId(2)],
        ));
        t.push_record(record(
            3,
            vec![CmAdvice::Passive; 3],
            vec![None, None, None],
            vec![CdAdvice::Null; 3],
            vec![0, 0, 0],
            vec![],
        ));
        t
    }

    #[test]
    fn renders_the_sample_trace_exactly() {
        // p0 is told to speak and broadcasts in round 1; p1 broadcasts in
        // round 2; p2 gets collision advice and crashes in round 2.
        assert_eq!(
            timeline(&sample_trace()),
            "round |   1   2   3\n\
             p0    |  *B   1   .\n\
             p1    |   1   B   .\n\
             p2    |   .  ±✝   ×\n"
        );
    }

    #[test]
    fn renders_all_cell_kinds() {
        let s = timeline(&sample_trace());
        // Active broadcaster.
        assert!(s.contains("*B"), "{s}");
        // Received count.
        assert!(s.contains(" 1"), "{s}");
        // Collision advice and crash marker.
        assert!(s.contains('±'), "{s}");
        assert!(s.contains('✝'), "{s}");
        // Dead process renders ×.
        assert!(s.contains('×'), "{s}");
        // Three process rows plus header.
        assert_eq!(s.lines().count(), 4, "{s}");
    }

    #[test]
    fn respects_round_window() {
        let s = render_timeline(
            &sample_trace(),
            TimelineOptions {
                from_round: 2,
                max_rounds: 1,
            },
        );
        assert!(s.lines().next().unwrap().contains('2'));
        assert!(!s.lines().next().unwrap().contains('3'));
    }

    #[test]
    fn renders_live_simulation_traces() {
        use crate::crash::NoCrashes;
        use crate::loss::NoLoss;
        use crate::{AllActive, AlwaysNull, Automaton, Components, Engine, RoundInput};

        struct Beacon;
        impl Automaton for Beacon {
            type Msg = u8;
            fn message(&self, cm: CmAdvice) -> Option<u8> {
                cm.is_active().then_some(1)
            }
            fn transition(&mut self, _input: RoundInput<'_, u8>) {}
        }
        let mut sim = Engine::new(
            vec![Beacon, Beacon],
            Components {
                detector: Box::new(AlwaysNull),
                manager: Box::new(AllActive),
                loss: Box::new(NoLoss),
                crash: Box::new(NoCrashes),
            },
        );
        let mut trace = ExecutionTrace::new(2);
        for _ in 0..4 {
            sim.advance(&mut trace);
        }
        let s = timeline(&trace);
        assert!(s.contains("*B"));
        assert_eq!(s.lines().count(), 3);
    }
}
