//! The agent's link to its driver: one place an op is submitted under the
//! retry discipline, one place a backoff is accounted, one place faults
//! are suspended for a recovery section — and the registry the whole stack
//! beneath the agent records into.
//!
//! Components reach the switch only through the `&mut Health` they are
//! handed: [`submit`](Health::submit) for an op the loop may retry,
//! [`driver_mut`](Health::driver_mut) for the un-retried typed calls of
//! bring-up and of a transaction's opening.

use crate::driver_api::{DriverApi, DriverOp, DriverResponse};
use crate::report::{AgentError, IterationReport};
use mantis_faults::RetryPolicy;
use mantis_telemetry::{scopes, CounterId, GaugeId, HistId, NameId, Scope, Telemetry};
use p4_ast::Value;
use rmt_sim::{Clock, Nanos};
use std::sync::Arc;

/// Telemetry handles behind every record the agent's own components make
/// — each iteration's, and the ones only a fault brings out — resolved once
/// per attached registry.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AgentMetrics {
    pub(crate) span_iteration: NameId,
    pub(crate) span_measure: NameId,
    pub(crate) span_react: NameId,
    pub(crate) span_update: NameId,
    pub(crate) span_sync: NameId,
    pub(crate) iterations: CounterId,
    pub(crate) busy_ns: CounterId,
    pub(crate) staged_table_ops: CounterId,
    pub(crate) hist_iteration: HistId,
    pub(crate) hist_measure: HistId,
    pub(crate) hist_react: HistId,
    pub(crate) hist_update: HistId,
    pub(crate) hist_sync: HistId,
    pub(crate) retries: CounterId,
    pub(crate) retry_backoff: HistId,
    pub(crate) rollbacks: CounterId,
    pub(crate) quarantine_skips: CounterId,
    pub(crate) quarantined: GaugeId,
    pub(crate) degraded: GaugeId,
    pub(crate) quarantine: NameId,
}

impl AgentMetrics {
    fn resolve(tel: &Telemetry) -> Self {
        AgentMetrics {
            span_iteration: tel.intern(scopes::SPAN_ITERATION),
            span_measure: tel.intern(scopes::SPAN_MEASURE),
            span_react: tel.intern(scopes::SPAN_REACT),
            span_update: tel.intern(scopes::SPAN_UPDATE),
            span_sync: tel.intern(scopes::SPAN_SYNC),
            iterations: tel.register_counter(scopes::CTR_ITERATIONS),
            busy_ns: tel.register_counter(scopes::CTR_BUSY_NS),
            staged_table_ops: tel.register_counter(scopes::CTR_STAGED_TABLE_OPS),
            hist_iteration: tel.register_hist(scopes::HIST_ITERATION_NS),
            hist_measure: tel.register_hist(scopes::HIST_MEASURE_NS),
            hist_react: tel.register_hist(scopes::HIST_REACT_NS),
            hist_update: tel.register_hist(scopes::HIST_UPDATE_NS),
            hist_sync: tel.register_hist(scopes::HIST_SYNC_NS),
            retries: tel.register_counter(scopes::CTR_RETRIES),
            retry_backoff: tel.register_hist(scopes::HIST_RETRY_BACKOFF_NS),
            rollbacks: tel.register_counter(scopes::CTR_ROLLBACKS),
            quarantine_skips: tel.register_counter(scopes::CTR_QUARANTINE_SKIPS),
            quarantined: tel.register_gauge(scopes::GAUGE_QUARANTINED),
            degraded: tel.register_gauge(scopes::GAUGE_DEGRADED),
            quarantine: tel.intern("quarantine"),
        }
    }
}

/// A driver under an agent's retry discipline.
pub(crate) struct Health {
    driver: Box<dyn DriverApi>,
    clock: Clock,
    /// The stack's registry: the agent's components, the driver and —
    /// behind a remote driver — the channel and the plane-side driver all
    /// record into it, in program order.
    telemetry: Arc<Telemetry>,
    metrics: AgentMetrics,
    /// Bounds the retries of one op, and of one apply.
    pub(crate) policy: RetryPolicy,
    /// Retries accounted since [`reset_retries`](Health::reset_retries).
    retries: u32,
    /// Iterations completed and the virtual time they were busy for: this
    /// agent's own, whoever else shares its registry.
    pub(crate) iterations: u64,
    pub(crate) busy_ns: Nanos,
}

impl Health {
    /// Every agent starts on an (enabled) registry of its own;
    /// [`set_telemetry`](Health::set_telemetry) swaps in a shared one when
    /// the caller wants the full trace.
    pub(crate) fn new(mut driver: Box<dyn DriverApi>) -> Self {
        let telemetry = Telemetry::shared();
        driver.set_telemetry(telemetry.clone());
        Health {
            clock: driver.clock().clone(),
            driver,
            metrics: AgentMetrics::resolve(&telemetry),
            telemetry,
            policy: RetryPolicy::default(),
            retries: 0,
            iterations: 0,
            busy_ns: 0,
        }
    }

    pub(crate) fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.driver.set_telemetry(telemetry.clone());
        self.metrics = AgentMetrics::resolve(&telemetry);
        self.telemetry = telemetry;
    }

    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    pub(crate) fn metrics(&self) -> AgentMetrics {
        self.metrics
    }

    pub(crate) fn clock(&self) -> &Clock {
        &self.clock
    }

    pub(crate) fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Close `closing`, then open `opening` — the loop's spans that change
    /// hands now; the time is handed back.
    pub(crate) fn spans(&self, closing: &[NameId], opening: &[NameId]) -> Nanos {
        let now = self.now();
        let tel = &self.telemetry;
        for span in closing {
            tel.end(Scope::Agent, *span, now);
        }
        for span in opening {
            tel.begin(Scope::Agent, *span, now);
        }
        now
    }

    /// An iteration that took `report` ended at `t1`: its closing span and
    /// its figures, in the registry's and in this agent's own account.
    pub(crate) fn close_iteration(&mut self, t1: Nanos, report: &IterationReport) {
        self.iterations += 1;
        self.busy_ns += report.duration_ns;
        let (m, tel) = (self.metrics, &self.telemetry);
        tel.end(Scope::Agent, m.span_iteration, t1);
        tel.add(m.iterations, 1);
        tel.add(m.busy_ns, i128::from(report.duration_ns));
        tel.add(m.staged_table_ops, report.staged_table_ops as i128);
        tel.record(m.hist_iteration, report.duration_ns);
        tel.record(m.hist_measure, report.measure_ns);
        tel.record(m.hist_react, report.react_ns);
        tel.record(m.hist_update, report.update_ns);
        tel.record(m.hist_sync, report.sync_ns);
    }

    pub(crate) fn driver(&self) -> &dyn DriverApi {
        self.driver.as_ref()
    }

    pub(crate) fn driver_mut(&mut self) -> &mut dyn DriverApi {
        self.driver.as_mut()
    }

    pub(crate) fn retries(&self) -> u32 {
        self.retries
    }

    pub(crate) fn reset_retries(&mut self) {
        self.retries = 0;
    }

    /// Submit one op, retrying it on transient failure with bounded
    /// exponential backoff on the virtual clock.
    pub(crate) fn submit(&mut self, op: &DriverOp) -> Result<DriverResponse, AgentError> {
        self.submit_reusing(op, &mut Vec::new())
    }

    /// [`submit`](Health::submit), lending `spare` to a register read as
    /// [`DriverApi::submit_reusing`] does.
    pub(crate) fn submit_reusing(
        &mut self,
        op: &DriverOp,
        spare: &mut Vec<Value>,
    ) -> Result<DriverResponse, AgentError> {
        let mut attempt = 0u32;
        loop {
            match self.driver.submit_reusing(op, spare) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_transient() && self.retry_after(&mut attempt) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// A transient failure ended attempt `attempt` of an op, or of a whole
    /// apply. If the policy allows another, account the retry — count,
    /// counters, the backoff spent on the virtual clock — and say so.
    pub(crate) fn retry_after(&mut self, attempt: &mut u32) -> bool {
        if !self.policy.allows(*attempt) {
            return false;
        }
        let backoff = self.policy.backoff(*attempt);
        *attempt += 1;
        self.retries += 1;
        self.telemetry.add(self.metrics.retries, 1);
        self.telemetry.record(self.metrics.retry_backoff, backoff);
        self.clock.advance(backoff);
        true
    }

    /// Run a recovery section with fault injection suspended (nestable):
    /// recovery replays known-good state and must not itself be injected.
    /// Injection resumes on every way out of `f`, its errors included.
    pub(crate) fn without_faults<T>(&mut self, f: impl FnOnce(&mut Health) -> T) -> T {
        self.driver.suspend_faults();
        let out = f(self);
        self.driver.resume_faults();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{switch_for, Hooked};
    use p4r_compiler::CompilerOptions;
    use rmt_sim::DriverError;
    use std::cell::Cell;
    use std::rc::Rc;

    const PROGRAM: &str = r#"
header_type h_t { fields { a : 8; } } header h_t h;
register r { width : 32; instance_count : 4; }
action nop() { no_op(); }
table t { actions { nop; } default_action : nop(); }
control ingress { apply(t); }
"#;

    /// A link whose driver fails the `nth` op it sees (1-based) `times`
    /// times over with `error`, plus the count of ops that reached it.
    fn link(nth: u32, times: u32, error: DriverError) -> (Health, Rc<Cell<u32>>, Rc<Cell<i32>>) {
        let (_, switch) = switch_for(PROGRAM, &CompilerOptions::default(), 1);
        let seen = Rc::new(Cell::new(0u32));
        let (count, mut left) = (seen.clone(), times);
        let hook = move |_: &DriverOp| {
            count.set(count.get() + 1);
            let fail = count.get() >= nth && left > 0;
            left -= u32::from(fail);
            fail.then(|| error.clone())
        };
        let driver = Hooked::new(switch, Box::new(hook));
        let suspended = driver.suspended.clone();
        (Health::new(Box::new(driver)), seen, suspended)
    }

    fn transient() -> DriverError {
        DriverError::Injected {
            op: "register_write",
            persistent: false,
        }
    }

    fn write(h: &mut Health, index: u32) -> Result<DriverResponse, AgentError> {
        let reg = h.driver().register_id("r").unwrap();
        let value = p4_ast::Value::new(7, 32);
        h.submit(&DriverOp::RegisterWrite { reg, index, value })
    }

    #[test]
    fn a_transient_failure_is_retried_and_each_retry_counted_once() {
        // Op 2 fails twice, then lands.
        let (mut h, seen, _) = link(2, 2, transient());
        write(&mut h, 0).unwrap();
        assert_eq!((h.retries(), seen.get()), (0, 1));
        let t0 = h.now();
        write(&mut h, 1).unwrap();
        // Two retries: one count, one counter tick and one backoff each,
        // in the registry as soon as counted.
        assert_eq!((h.retries(), seen.get()), (2, 4));
        let snap = h.telemetry().snapshot();
        assert_eq!(snap.counter(scopes::CTR_RETRIES), 2);
        let backoffs = snap.hist(scopes::HIST_RETRY_BACKOFF_NS).map(|b| b.count);
        assert_eq!(backoffs, Some(2));
        let backoff = h.policy.backoff(0) + h.policy.backoff(1);
        assert!(h.now() - t0 >= backoff, "backoff is spent on the clock");
        // The count is the iteration's: the loop resets it.
        h.reset_retries();
        write(&mut h, 2).unwrap();
        assert_eq!(h.retries(), 0);
        assert_eq!(h.telemetry().counter(scopes::CTR_RETRIES), 2);
        // One retry accounted on its own is in the registry on return.
        let (mut h, _, _) = link(1, 1, transient());
        let mut attempt = 0;
        assert!(h.retry_after(&mut attempt));
        assert_eq!(h.telemetry().counter(scopes::CTR_RETRIES), 1);
    }

    #[test]
    fn retries_stop_at_the_policy_and_hard_errors_are_not_retried() {
        // More transient failures than the policy allows: the error
        // surfaces after `max_retries` retries, still transient.
        let (mut h, seen, _) = link(1, u32::MAX, transient());
        let max = h.policy.max_retries;
        let err = write(&mut h, 0).unwrap_err();
        assert!(err.is_transient());
        assert_eq!((h.retries(), seen.get()), (max, max + 1));
        // The apply-level retry draws on the same routine and budget.
        let mut attempt = max;
        assert!(!h.retry_after(&mut attempt));
        assert_eq!((attempt, h.retries()), (max, max));

        let hard = DriverError::Injected {
            op: "register_write",
            persistent: true,
        };
        for error in [
            hard,
            DriverError::Crashed {
                op: "register_write",
            },
        ] {
            let (mut h, seen, _) = link(1, 1, error);
            let err = write(&mut h, 0).unwrap_err();
            assert!(!err.is_transient());
            assert_eq!((h.retries(), seen.get()), (0, 1), "{err}");
        }
    }

    #[test]
    fn without_faults_resumes_on_every_way_out() {
        let (mut h, seen, suspended) = link(1, u32::MAX, transient());
        // Inside the section nothing injects, sections nest, and the value
        // of the closure — here an error — comes out.
        let out: Result<(), AgentError> = h.without_faults(|h| {
            assert_eq!(suspended.get(), 1);
            h.without_faults(|h| write(h, 0)).unwrap();
            assert_eq!(suspended.get(), 1);
            Err(AgentError::from(transient()))
        });
        assert!(out.is_err());
        assert_eq!(suspended.get(), 0, "resumed on the error path");
        assert_eq!((h.retries(), seen.get()), (0, 0));
        // Resumed for real: the next op is injected again.
        assert!(write(&mut h, 0).is_err());
    }
}
