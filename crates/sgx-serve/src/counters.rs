//! Service-level robustness counters with exact conservation laws.
//!
//! Named `ServiceCounters` (not `Counters`) on purpose: the simulator's
//! machine counters flow through `Core::commit(Charge)` and are checked
//! by the existing conservation tests; these count *scheduler decisions*
//! (queries, not cycles) and carry their own conservation laws, checked
//! by [`ServiceCounters::reconcile`].

/// Per-tenant (and, summed, global) service decision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Queries submitted by sessions (before admission).
    pub submitted: u64,
    /// Queries accepted into a queue or dispatched directly.
    pub admitted: u64,
    /// Queries shed by admission control (queue full or deadline
    /// infeasible).
    pub rejected: u64,
    /// Queries that finished all plan steps within their deadline.
    pub completed: u64,
    /// Queries abandoned at a deadline — in the queue or mid-plan.
    pub timed_out: u64,
    /// Transient-fault step retries performed across all executed
    /// queries (bounded exponential backoff each).
    pub retries: u64,
    /// Queries dispatched with the degraded (cheaper) plan variant.
    pub degraded: u64,
}

impl ServiceCounters {
    /// Element-wise accumulate.
    pub fn add(&mut self, other: &ServiceCounters) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.timed_out += other.timed_out;
        self.retries += other.retries;
        self.degraded += other.degraded;
    }

    /// Check this counter set's internal conservation laws (valid after
    /// a drained run): every submitted query was either admitted or
    /// rejected, and every admitted query either completed or timed out
    /// — nothing is lost, nothing is double-counted.
    pub fn reconcile(&self) -> Result<(), String> {
        if self.submitted != self.admitted + self.rejected {
            return Err(format!(
                "submitted {} != admitted {} + rejected {}",
                self.submitted, self.admitted, self.rejected
            ));
        }
        if self.admitted != self.completed + self.timed_out {
            return Err(format!(
                "admitted {} != completed {} + timed_out {} (run not drained?)",
                self.admitted, self.completed, self.timed_out
            ));
        }
        if self.degraded > self.admitted {
            return Err(format!(
                "degraded {} > admitted {}",
                self.degraded, self.admitted
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_accepts_conserved_counts() {
        let c = ServiceCounters {
            submitted: 10,
            admitted: 7,
            rejected: 3,
            completed: 5,
            timed_out: 2,
            retries: 4,
            degraded: 1,
        };
        assert!(c.reconcile().is_ok());
    }

    #[test]
    fn reconcile_rejects_lost_queries() {
        let mut c = ServiceCounters { submitted: 10, admitted: 7, rejected: 3, ..Default::default() };
        c.completed = 5;
        c.timed_out = 1; // one query vanished
        let err = c.reconcile().map(|_| String::new());
        assert!(err.is_err());
        c.timed_out = 2;
        assert!(c.reconcile().is_ok());
        c.rejected = 2; // now submission side is off
        assert!(c.reconcile().is_err());
    }

    #[test]
    fn add_is_elementwise() {
        let mut a = ServiceCounters { submitted: 1, retries: 2, ..Default::default() };
        let b = ServiceCounters { submitted: 3, retries: 5, degraded: 1, ..Default::default() };
        a.add(&b);
        assert_eq!(a.submitted, 4);
        assert_eq!(a.retries, 7);
        assert_eq!(a.degraded, 1);
    }
}
