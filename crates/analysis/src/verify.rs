//! Simulation self-verification: audit every honest node of a finished
//! simnet run with [`AuditedSimulation::audit_honest`].

use std::fmt;

use dagrider_rbc::ReliableBroadcast;
use dagrider_simactor::DagRiderNode;
use dagrider_simnet::{Scheduler, Simulation};
use dagrider_types::ProcessId;

use crate::auditor::DagAuditor;
use crate::violation::InvariantViolation;

/// Per-process audit results for one simulation.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// `(process, its violations)`, one entry per audited process.
    per_process: Vec<(ProcessId, Vec<InvariantViolation>)>,
}

impl AuditReport {
    /// Whether no process had any violation.
    pub fn is_clean(&self) -> bool {
        self.per_process.iter().all(|(_, v)| v.is_empty())
    }

    /// Total number of violations across all processes.
    pub fn violation_count(&self) -> usize {
        self.per_process.iter().map(|(_, v)| v.len()).sum()
    }

    /// Per-process results.
    pub fn per_process(&self) -> &[(ProcessId, Vec<InvariantViolation>)] {
        &self.per_process
    }

    /// Iterates over every `(process, violation)` pair.
    pub fn violations(&self) -> impl Iterator<Item = (ProcessId, &InvariantViolation)> {
        self.per_process.iter().flat_map(|(p, vs)| vs.iter().map(move |v| (*p, v)))
    }

    /// Panics with the formatted report if any violation was found.
    ///
    /// # Panics
    ///
    /// Panics when the report is not clean.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "DAG audit failed:\n{self}");
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean ({} processes)", self.per_process.len());
        }
        for (process, violations) in &self.per_process {
            for violation in violations {
                writeln!(f, "{process}: {violation}")?;
            }
        }
        Ok(())
    }
}

/// Extension trait wiring the [`DagAuditor`] into simnet runs.
pub trait AuditedSimulation {
    /// Audits the DAG and commit record of every honest (non-crashed,
    /// non-Byzantine) process.
    fn audit_honest(&self) -> AuditReport;
}

impl<B, S> AuditedSimulation for Simulation<DagRiderNode<B>, S>
where
    B: ReliableBroadcast,
    S: Scheduler,
{
    fn audit_honest(&self) -> AuditReport {
        let auditor = DagAuditor::new(self.committee());
        let per_process = self
            .honest_processes()
            .map(|p| {
                let node = self.actor(p);
                let mut violations = auditor.audit_dag(node.dag());
                violations.extend(auditor.audit_commits(node.dag(), node.commits()));
                // Complete traces (no ring overwrites) are audited too.
                if node.tracer().is_some_and(|tracer| tracer.dropped() == 0) {
                    violations.extend(auditor.audit_trace(&node.trace_records()));
                }
                (p, violations)
            })
            .collect();
        AuditReport { per_process }
    }
}
