//! The correctness gate every simulation passes through.
//!
//! A simulation counts as correct only when every stage it ran passed:
//! the run reached `RunOutcome::Done`, the final audit is clean, the
//! final-memory invariant holds and, where the event log is on, the
//! axiomatic TSO checker accepts the execution. A stage that fails is
//! recorded with its message (the wedge report, audit report or checker
//! error), never skipped.

use wb_tso::{ExecutionLog, TsoChecker};
use writersblock::RunOutcome;

/// Failures collected from one simulation.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// Record the result of `stage`.
    pub fn require(&mut self, stage: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(format!("{stage}: {e}"));
        }
    }

    /// Did every recorded stage pass?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failure messages, one per failed stage.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// `Done`, or the outcome with its wedge report.
pub fn outcome_done(outcome: &RunOutcome) -> Result<(), String> {
    if outcome.is_done() {
        Ok(())
    } else {
        Err(outcome.to_string())
    }
}

/// Run the axiomatic TSO checker over `log`.
pub fn tso_check(log: &ExecutionLog) -> Result<(), String> {
    TsoChecker::new(log).check().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_mem::Addr;
    use wb_tso::{MemEvent, MemOp};

    /// Table 1's message-passing shape with the forbidden outcome: the
    /// reader sees the new flag but the old data.
    fn mp_violation() -> ExecutionLog {
        const X: u64 = 0x100;
        const Y: u64 = 0x200;
        let mut log = ExecutionLog::new();
        let st = |seq, addr, at| MemEvent {
            core: 1,
            seq,
            addr: Addr::new(addr),
            op: MemOp::Store {
                value: 1,
                performed_at: at,
            },
        };
        let ld = |seq, addr, value| MemEvent {
            core: 0,
            seq,
            addr: Addr::new(addr),
            op: MemOp::Load { value },
        };
        log.push(st(0, X, 10));
        log.push(st(1, Y, 20));
        log.push(ld(0, Y, 1));
        log.push(ld(1, X, 0));
        log
    }

    #[test]
    fn tso_violation_counts_as_failed() {
        let mut gate = Gate::default();
        gate.require("outcome", outcome_done(&RunOutcome::Done));
        gate.require("tso", tso_check(&mp_violation()));
        assert!(!gate.passed());
        assert_eq!(gate.failures().len(), 1);
        assert!(
            gate.failures()[0].starts_with("tso: "),
            "{:?}",
            gate.failures()
        );
    }

    #[test]
    fn unfinished_run_counts_as_failed() {
        let mut gate = Gate::default();
        gate.require("outcome", outcome_done(&RunOutcome::Budget));
        assert!(!gate.passed());
    }
}
