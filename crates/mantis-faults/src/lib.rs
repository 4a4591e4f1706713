//! # mantis-faults
//!
//! Deterministic fault injection for the Mantis reproduction, plus the
//! pure recovery policies (retry backoff, circuit breaker) the agent uses
//! to survive the injected faults.
//!
//! Everything here is **virtual-clock-native and seed-deterministic**:
//! a [`FaultPlan`] schedules faults at driver-op counts or virtual-time
//! windows, a [`FaultInjector`] executes the plan one `decide()` call per
//! driver operation, and two identical runs under the same plan make
//! byte-identical decisions. No wall clock, no global RNG.
//!
//! The crate is dependency-free (it defines its own `Nanos`, like
//! `mantis-telemetry`) so that `rmt-sim`, `mantis-agent`, `netsim`, and
//! `bench` can all depend on it without cycles.
//!
//! Fault taxonomy (DESIGN.md §8):
//!
//! * [`FaultEffect::Fail`] — the driver op fails *before* touching the
//!   device, like a PCIe/gRPC transport error. Bounded rules
//!   (`max_hits`) model transient faults; unbounded rules are persistent.
//! * [`FaultEffect::Delay`] — the op succeeds but its modeled latency is
//!   multiplied (driver latency spike, e.g. a congested PCIe bus).
//! * [`FaultEffect::StaleRead`] — a register read returns the previously
//!   observed values (a snapshot that missed the latest sync).
//! * [`FaultEffect::CorruptRead`] — a register read returns bit-flipped
//!   values (single-event upset on the readout path).
//! * [`LinkFlap`] — a scheduled down/up of a switch port, wired through
//!   `netsim`.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod ddmin;

pub use ddmin::ddmin;

use std::fmt;

/// Virtual nanoseconds (mirrors `rmt_sim::Nanos`).
pub type Nanos = u64;

// -- fault plan --------------------------------------------------------------

/// Which driver operation class a rule applies to. Driver ops are named
/// by the same `&'static str` labels `mantis-agent`'s `LocalDriver`
/// accounts them under (`table_add`, `table_mod`, `table_del`,
/// `set_default`, `init_flip`, `register_read`, `field_poll`,
/// `register_write`, `port_set`, `default_read`, `table_dump`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// Any driver operation.
    Any,
    /// Any table mutation (`table_add`/`table_mod`/`table_del`/
    /// `set_default`/`init_flip`).
    AnyTableOp,
    /// Any register/field read (`register_read`/`field_poll`).
    AnyRead,
    /// Any control-plane channel frame (`control_req`/`control_resp` —
    /// the op labels `mantis-control`'s `Channel` consults the injector
    /// with, one per frame per direction). Driver-level ops never match.
    Control,
    /// Exactly the named op class.
    Named(&'static str),
}

impl FaultOp {
    /// Does this selector cover the driver op `op`?
    pub fn matches(&self, op: &str) -> bool {
        match self {
            FaultOp::Any => true,
            FaultOp::AnyTableOp => matches!(
                op,
                "table_add" | "table_mod" | "table_del" | "set_default" | "init_flip"
            ),
            FaultOp::AnyRead => {
                matches!(op, "register_read" | "field_poll")
            }
            FaultOp::Control => matches!(op, "control_req" | "control_resp"),
            FaultOp::Named(n) => *n == op,
        }
    }
}

/// What happens to a matched operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEffect {
    /// The op fails before reaching the device (no state mutated).
    Fail,
    /// The op succeeds but costs `factor_milli / 1000 ×` its modeled
    /// latency (integer millis keep the plan hashable and deterministic).
    Delay { factor_milli: u32 },
    /// A register read returns the last values observed for that range
    /// (zeros if never read before).
    StaleRead,
    /// A register read returns values XOR'd with `xor` (masked to the
    /// register width by the driver).
    CorruptRead { xor: u64 },
    /// A control-channel frame is delivered twice (at-least-once
    /// transport). Meaningless for driver-level ops, which treat it as
    /// no injection; the channel re-delivers and the endpoint's
    /// sequence-number dedup must absorb it.
    Duplicate,
    /// The agent process dies at this op (the ISSUE's `FaultOp::Crash`:
    /// combined with an op selector and a one-op window it kills the
    /// agent at any dialogue phase, including between per-pipe commits).
    /// The op surfaces `DriverError::Crashed`; the agent aborts without
    /// rollback — a dead process repairs nothing — and a restarted agent
    /// must `reconcile()` device state back before resuming.
    Crash,
}

/// When a rule is armed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultWindow {
    /// Driver-op count window `[lo, hi)`, counted across all ops the
    /// injector sees.
    Ops { lo: u64, hi: u64 },
    /// Virtual-time window `[lo, hi)` in nanoseconds.
    Time { lo: Nanos, hi: Nanos },
    /// Always armed.
    Always,
}

impl FaultWindow {
    fn contains(&self, op_count: u64, now: Nanos) -> bool {
        match self {
            FaultWindow::Ops { lo, hi } => op_count >= *lo && op_count < *hi,
            FaultWindow::Time { lo, hi } => now >= *lo && now < *hi,
            FaultWindow::Always => true,
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    pub op: FaultOp,
    pub effect: FaultEffect,
    pub window: FaultWindow,
    /// Injection budget. `Some(n)` → at most `n` injections (a transient
    /// fault: retries eventually pass). `None` → every matched op in the
    /// window is hit (a persistent fault).
    pub max_hits: Option<u32>,
    /// Restrict the rule to ops addressed at one hardware pipe.
    /// `None` matches every op; `Some(p)` matches only ops the driver
    /// reports as targeting pipe `p` (ops with no pipe affinity — e.g.
    /// all-pipes writes — never match a pipe-scoped rule).
    pub pipe: Option<u16>,
    /// Restrict the rule to one fabric switch's driver. `None` matches
    /// every switch; `Some(s)` matches only injectors whose identity
    /// ([`FaultInjector::set_switch`]) is switch `s` — a single-switch
    /// testbed's injector has no identity and never matches a
    /// switch-scoped rule.
    pub switch: Option<u16>,
}

impl FaultRule {
    /// A rule matching every pipe and every switch (the common case); use
    /// `.on_pipe(p)` / `.on_switch(s)` to scope it.
    pub fn new(
        op: FaultOp,
        effect: FaultEffect,
        window: FaultWindow,
        max_hits: Option<u32>,
    ) -> Self {
        FaultRule {
            op,
            effect,
            window,
            max_hits,
            pipe: None,
            switch: None,
        }
    }

    /// Scope this rule to ops targeting hardware pipe `pipe`.
    pub fn on_pipe(mut self, pipe: u16) -> Self {
        self.pipe = Some(pipe);
        self
    }

    /// Scope this rule to the driver of fabric switch `switch`.
    pub fn on_switch(mut self, switch: u16) -> Self {
        self.switch = Some(switch);
        self
    }

    /// Is this rule transient (bounded hit budget)? `Fail` rules use this
    /// to report `persistent` through `DriverError::Injected`.
    pub fn is_transient(&self) -> bool {
        self.max_hits.is_some()
    }
}

/// A scheduled link flap: the port goes down at `down_at` and (if
/// `up_at > down_at`) comes back at `up_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFlap {
    /// Fabric switch index the port belongs to (0 on a single-switch
    /// testbed). When the port is one end of an inter-switch link, the
    /// scheduler downs *both* endpoints — a wire fault, not a one-sided
    /// admin-down.
    pub switch: u32,
    /// Switch port (matches `rmt_sim::PortId`, widened for independence).
    pub port: u32,
    pub down_at: Nanos,
    pub up_at: Nanos,
}

/// A deterministic fault schedule: driver-op rules plus link flaps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub rules: Vec<FaultRule>,
    pub link_flaps: Vec<LinkFlap>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a rule (builder-style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Fail up to `hits` matched ops inside the window (transient).
    pub fn fail_transient(self, op: FaultOp, window: FaultWindow, hits: u32) -> Self {
        self.rule(FaultRule::new(op, FaultEffect::Fail, window, Some(hits)))
    }

    /// Fail every matched op inside the window (persistent).
    pub fn fail_persistent(self, op: FaultOp, window: FaultWindow) -> Self {
        self.rule(FaultRule::new(op, FaultEffect::Fail, window, None))
    }

    /// Multiply the latency of up to `hits` matched ops by
    /// `factor_milli/1000`.
    pub fn delay(self, op: FaultOp, window: FaultWindow, factor_milli: u32, hits: u32) -> Self {
        self.rule(FaultRule::new(
            op,
            FaultEffect::Delay { factor_milli },
            window,
            Some(hits),
        ))
    }

    /// Deliver up to `hits` matched ops twice (duplicated control
    /// frames; a no-op for driver-level ops).
    pub fn duplicate(self, op: FaultOp, window: FaultWindow, hits: u32) -> Self {
        self.rule(FaultRule::new(
            op,
            FaultEffect::Duplicate,
            window,
            Some(hits),
        ))
    }

    /// Drop up to `hits` control-channel frames inside the window (the
    /// frame is lost in flight; the sender sees a transport timeout).
    pub fn drop_frames(self, window: FaultWindow, hits: u32) -> Self {
        self.fail_transient(FaultOp::Control, window, hits)
    }

    /// Duplicate up to `hits` control-channel frames inside the window.
    pub fn duplicate_frames(self, window: FaultWindow, hits: u32) -> Self {
        self.duplicate(FaultOp::Control, window, hits)
    }

    /// Sever every control-channel frame of switch `switch`'s channels
    /// from `at` onward — the persistent partition that forces a
    /// controller failover.
    pub fn sever_control(self, switch: u16, at: Nanos) -> Self {
        self.rule(
            FaultRule::new(
                FaultOp::Control,
                FaultEffect::Fail,
                FaultWindow::Time {
                    lo: at,
                    hi: Nanos::MAX,
                },
                None,
            )
            .on_switch(switch),
        )
    }

    /// Kill the agent at its `at_op`-th driver op (one-shot). The hit op
    /// surfaces `DriverError::Crashed`; because driver ops are issued in
    /// a fixed order per dialogue iteration, choosing `at_op` selects the
    /// crash's dialogue phase — including between two per-pipe commits.
    pub fn crash_at_op(self, at_op: u64) -> Self {
        self.rule(FaultRule::new(
            FaultOp::Any,
            FaultEffect::Crash,
            FaultWindow::Ops {
                lo: at_op,
                hi: at_op + 1,
            },
            Some(1),
        ))
    }

    /// Kill fabric switch `switch`'s agent at its `at_op`-th driver op.
    pub fn crash_at_op_on(self, switch: u16, at_op: u64) -> Self {
        self.rule(
            FaultRule::new(
                FaultOp::Any,
                FaultEffect::Crash,
                FaultWindow::Ops {
                    lo: at_op,
                    hi: at_op + 1,
                },
                Some(1),
            )
            .on_switch(switch),
        )
    }

    /// Schedule a link flap on switch 0 (*the* switch of a single-switch
    /// testbed).
    pub fn flap(self, port: u32, down_at: Nanos, up_at: Nanos) -> Self {
        self.flap_on(0, port, down_at, up_at)
    }

    /// Schedule a link flap on fabric switch `switch`.
    pub fn flap_on(mut self, switch: u32, port: u32, down_at: Nanos, up_at: Nanos) -> Self {
        self.link_flaps.push(LinkFlap {
            switch,
            port,
            down_at,
            up_at,
        });
        self
    }

    /// Are all `Fail` rules transient (bounded)? A plan satisfying this is
    /// recoverable by bounded retry, which is what the equality property
    /// test (`faults are invisible`) requires.
    pub fn all_failures_transient(&self) -> bool {
        self.rules
            .iter()
            .filter(|r| r.effect == FaultEffect::Fail)
            .all(|r| r.is_transient())
    }

    /// Generate a seeded, all-transient plan: a handful of bounded `Fail`
    /// and `Delay` rules scattered over the first `ops_hint` driver ops.
    /// Deterministic in `seed`; every `Fail` budget is ≤ 2 consecutive
    /// hits so a retry policy with ≥ 3 attempts always recovers.
    pub fn random_transient(seed: u64, ops_hint: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        let n_rules = 1 + (rng.next() % 4) as usize; // 1..=4 rules
        for _ in 0..n_rules {
            let lo = rng.next() % ops_hint.max(1);
            let len = 1 + rng.next() % 16;
            let window = FaultWindow::Ops { lo, hi: lo + len };
            let op = match rng.next() % 4 {
                0 => FaultOp::AnyTableOp,
                1 => FaultOp::AnyRead,
                2 => FaultOp::Named("init_flip"),
                _ => FaultOp::Any,
            };
            match rng.next() % 3 {
                0 => {
                    plan = plan.delay(
                        op,
                        window,
                        1_500 + (rng.next() % 4_000) as u32,
                        1 + (rng.next() % 3) as u32,
                    );
                }
                _ => {
                    plan = plan.fail_transient(op, window, 1 + (rng.next() % 2) as u32);
                }
            }
        }
        plan
    }
}

// -- injector ----------------------------------------------------------------

/// The decision the injector hands back for one driver op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Injection {
    Fail { persistent: bool },
    Delay { factor_milli: u32 },
    Stale,
    Corrupt { xor: u64 },
    Duplicate,
    Crash,
}

/// Executes a [`FaultPlan`]: one [`decide`](FaultInjector::decide) call
/// per driver op, first armed matching rule wins. Recovery code
/// (rollback) runs with faults [`suspend`](FaultInjector::suspend)ed —
/// modeling a journaled recovery path that bypasses the faulty transport.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    op_count: u64,
    hits: Vec<u32>,
    injected_total: u64,
    suspended: u32,
    /// Fabric identity of the driver this injector serves; switch-scoped
    /// rules match only when it agrees. `None` on single-switch testbeds.
    switch: Option<u16>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        let hits = vec![0; plan.rules.len()];
        FaultInjector {
            plan,
            op_count: 0,
            hits,
            injected_total: 0,
            suspended: 0,
            switch: None,
        }
    }

    /// Declare which fabric switch this injector's driver controls, so
    /// [`FaultRule::on_switch`]-scoped rules can match it.
    pub fn set_switch(&mut self, switch: Option<u16>) {
        self.switch = switch;
    }

    pub fn switch(&self) -> Option<u16> {
        self.switch
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Driver ops consulted so far (faulted or not).
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// Total injections performed.
    pub fn injected_total(&self) -> u64 {
        self.injected_total
    }

    /// Enter a fault-free section (nestable).
    pub fn suspend(&mut self) {
        self.suspended += 1;
    }

    /// Leave a fault-free section.
    ///
    /// # Panics
    /// Panics on unbalanced resume (invariant: suspend/resume nest).
    pub fn resume(&mut self) {
        assert!(
            self.suspended > 0,
            "FaultInjector::resume without matching suspend (invariant: suspend/resume nest)"
        );
        self.suspended -= 1;
    }

    /// Consult the plan for one driver op at virtual time `now`. Always
    /// counts the op; returns the first armed matching rule's effect, or
    /// `None`. Suspended injectors count but never inject. Ops with no
    /// pipe affinity (all-pipes writes, aggregated reads) never match
    /// pipe-scoped rules; use [`decide_on`](FaultInjector::decide_on) for
    /// ops addressed at one pipe.
    pub fn decide(&mut self, op: &str, now: Nanos) -> Option<Injection> {
        self.decide_on(op, None, now)
    }

    /// Like [`decide`](FaultInjector::decide), for a driver op targeting
    /// hardware pipe `pipe` (when `Some`). Pipe-scoped rules match only
    /// when the pipes agree.
    pub fn decide_on(&mut self, op: &str, pipe: Option<u16>, now: Nanos) -> Option<Injection> {
        let count = self.op_count;
        self.op_count += 1;
        if self.suspended > 0 {
            return None;
        }
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if !rule.op.matches(op) || !rule.window.contains(count, now) {
                continue;
            }
            if rule.pipe.is_some() && rule.pipe != pipe {
                continue;
            }
            if rule.switch.is_some() && rule.switch != self.switch {
                continue;
            }
            if let Some(budget) = rule.max_hits {
                if self.hits[i] >= budget {
                    continue;
                }
            }
            self.hits[i] += 1;
            self.injected_total += 1;
            let inj = match &rule.effect {
                FaultEffect::Fail => Injection::Fail {
                    persistent: !rule.is_transient(),
                },
                FaultEffect::Delay { factor_milli } => Injection::Delay {
                    factor_milli: *factor_milli,
                },
                FaultEffect::StaleRead => Injection::Stale,
                FaultEffect::CorruptRead { xor } => Injection::Corrupt { xor: *xor },
                FaultEffect::Duplicate => Injection::Duplicate,
                FaultEffect::Crash => Injection::Crash,
            };
            return Some(inj);
        }
        None
    }
}

// -- retry policy ------------------------------------------------------------

/// Deterministic bounded exponential backoff on the virtual clock.
///
/// Attempt `k` (0-based) that fails is followed by a backoff of
/// `min(base_ns · (factor_milli/1000)^k, max_backoff_ns)` virtual
/// nanoseconds before attempt `k+1`. No jitter: two identical runs back
/// off identically (the determinism contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = max_retries + 1).
    pub max_retries: u32,
    pub base_ns: Nanos,
    /// Multiplier per retry, in millis (2000 = ×2).
    pub factor_milli: u32,
    pub max_backoff_ns: Nanos,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_ns: 2_000,
            factor_milli: 2_000,
            max_backoff_ns: 100_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (0-based index of the retry).
    pub fn backoff(&self, attempt: u32) -> Nanos {
        let mut b = self.base_ns as u128;
        for _ in 0..attempt {
            b = b * self.factor_milli as u128 / 1_000;
            if b >= self.max_backoff_ns as u128 {
                return self.max_backoff_ns;
            }
        }
        (b as Nanos).min(self.max_backoff_ns)
    }

    /// May a failed attempt `attempt` (0-based) be retried?
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }
}

// -- circuit breaker ---------------------------------------------------------

/// Breaker configuration: trip after `threshold` consecutive failures,
/// quarantine for `cooldown_ns`, then allow one half-open probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    pub threshold: u32,
    pub cooldown_ns: Nanos,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            cooldown_ns: 1_000_000, // 1 ms of virtual time
        }
    }
}

/// Breaker state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy; counts consecutive failures.
    Closed { failures: u32 },
    /// Quarantined until `until`.
    Open { until: Nanos },
    /// Cooldown elapsed; one probe execution allowed.
    HalfOpen,
}

/// A per-reaction circuit breaker: after `threshold` consecutive
/// failures the reaction is quarantined (skipped) for `cooldown_ns`,
/// then probed half-open; a successful probe closes the breaker, a
/// failed probe re-opens it.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Times the breaker tripped open.
    pub trips: u64,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed { failures: 0 },
            trips: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn config(&self) -> BreakerConfig {
        self.cfg
    }

    /// Is the guarded reaction currently quarantined (skipped) at `now`?
    /// An elapsed cooldown still reads as not-quarantined: `allow` will
    /// transition to half-open.
    pub fn is_quarantined(&self, now: Nanos) -> bool {
        matches!(self.state, BreakerState::Open { until } if now < until)
    }

    /// May the reaction execute at `now`? Transitions `Open → HalfOpen`
    /// when the cooldown has elapsed.
    pub fn allow(&mut self, now: Nanos) -> bool {
        match self.state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => {
                if now >= until {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful execution (closes the breaker).
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed { failures: 0 };
    }

    /// Record a failed execution at `now`. Returns `true` if this failure
    /// tripped (or re-tripped) the breaker open.
    pub fn on_failure(&mut self, now: Nanos) -> bool {
        match self.state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.cfg.threshold {
                    self.state = BreakerState::Open {
                        until: now + self.cfg.cooldown_ns,
                    };
                    self.trips += 1;
                    true
                } else {
                    self.state = BreakerState::Closed { failures };
                    false
                }
            }
            BreakerState::HalfOpen => {
                // Failed probe: straight back to quarantine.
                self.state = BreakerState::Open {
                    until: now + self.cfg.cooldown_ns,
                };
                self.trips += 1;
                true
            }
            BreakerState::Open { .. } => true,
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed { failures } => write!(f, "closed({failures})"),
            BreakerState::Open { until } => write!(f, "open(until {until})"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

// -- seeded RNG --------------------------------------------------------------

/// SplitMix64 — the tiny deterministic generator behind
/// [`FaultPlan::random_transient`] and the [`chaos`] schedule generator.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let p = RetryPolicy {
            max_retries: 10,
            base_ns: 1_000,
            factor_milli: 2_000,
            max_backoff_ns: 10_000,
        };
        let a: Vec<Nanos> = (0..8).map(|k| p.backoff(k)).collect();
        let b: Vec<Nanos> = (0..8).map(|k| p.backoff(k)).collect();
        assert_eq!(a, b, "backoff must be a pure function of the attempt");
        assert_eq!(a[0], 1_000);
        assert_eq!(a[1], 2_000);
        assert_eq!(a[2], 4_000);
        assert_eq!(a[3], 8_000);
        assert_eq!(a[4], 10_000, "capped");
        assert_eq!(a[7], 10_000);
        assert!(p.allows(9));
        assert!(!p.allows(10));
    }

    #[test]
    fn breaker_trips_after_threshold_and_probes_after_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            threshold: 3,
            cooldown_ns: 1_000,
        });
        assert!(b.allow(0));
        assert!(!b.on_failure(10));
        assert!(!b.on_failure(20));
        assert!(b.on_failure(30), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open { until: 1_030 });
        assert!(b.is_quarantined(31));
        assert!(!b.allow(500), "quarantined during cooldown");
        // Cooldown elapses → half-open probe allowed.
        assert!(b.allow(1_030));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Successful probe closes it.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed { failures: 0 });
        assert_eq!(b.trips, 1);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            threshold: 1,
            cooldown_ns: 100,
        });
        assert!(b.on_failure(0));
        assert!(b.allow(100));
        assert!(b.on_failure(100), "failed probe re-trips");
        assert_eq!(b.state(), BreakerState::Open { until: 200 });
        assert_eq!(b.trips, 2);
        // Success resets the consecutive-failure count entirely.
        let mut b = CircuitBreaker::new(BreakerConfig {
            threshold: 2,
            cooldown_ns: 100,
        });
        assert!(!b.on_failure(0));
        b.on_success();
        assert!(!b.on_failure(10), "threshold counts restart after close");
        assert!(b.on_failure(20), "second consecutive failure trips");
    }

    #[test]
    fn injector_respects_windows_and_budgets() {
        let plan = FaultPlan::new()
            .fail_transient(
                FaultOp::Named("table_add"),
                FaultWindow::Ops { lo: 1, hi: 10 },
                2,
            )
            .delay(
                FaultOp::AnyRead,
                FaultWindow::Time { lo: 50, hi: 100 },
                3_000,
                1,
            );
        let mut inj = FaultInjector::new(plan);
        // Op 0: outside the ops window.
        assert_eq!(inj.decide("table_add", 0), None);
        // Ops 1, 2: within window and budget.
        assert_eq!(
            inj.decide("table_add", 0),
            Some(Injection::Fail { persistent: false })
        );
        assert_eq!(inj.decide("table_mod", 0), None, "op class must match");
        assert_eq!(
            inj.decide("table_add", 0),
            Some(Injection::Fail { persistent: false })
        );
        // Budget exhausted.
        assert_eq!(inj.decide("table_add", 0), None);
        // Time-windowed delay on reads.
        assert_eq!(inj.decide("register_read", 49), None);
        assert_eq!(
            inj.decide("register_read", 50),
            Some(Injection::Delay {
                factor_milli: 3_000
            })
        );
        assert_eq!(inj.decide("register_read", 51), None, "delay budget spent");
        assert_eq!(inj.injected_total(), 3);
    }

    #[test]
    fn pipe_scoped_rules_match_only_their_pipe() {
        let plan = FaultPlan::new().rule(
            FaultRule::new(
                FaultOp::Named("init_flip"),
                FaultEffect::Fail,
                FaultWindow::Always,
                None,
            )
            .on_pipe(2),
        );
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.decide_on("init_flip", Some(0), 0), None);
        assert_eq!(inj.decide_on("init_flip", Some(1), 0), None);
        assert_eq!(
            inj.decide_on("init_flip", Some(2), 0),
            Some(Injection::Fail { persistent: true })
        );
        // Ops with no pipe affinity never match a pipe-scoped rule.
        assert_eq!(inj.decide("init_flip", 0), None);
        // Unscoped rules match pipe-addressed ops fine.
        let mut inj = FaultInjector::new(
            FaultPlan::new().fail_persistent(FaultOp::Named("init_flip"), FaultWindow::Always),
        );
        assert_eq!(
            inj.decide_on("init_flip", Some(3), 0),
            Some(Injection::Fail { persistent: true })
        );
    }

    #[test]
    fn switch_scoped_rules_match_only_their_switch() {
        let plan = FaultPlan::new().rule(
            FaultRule::new(
                FaultOp::Named("init_flip"),
                FaultEffect::Fail,
                FaultWindow::Always,
                None,
            )
            .on_switch(1),
        );
        // An injector with no fabric identity (single-switch testbed)
        // never matches a switch-scoped rule.
        let mut inj = FaultInjector::new(plan.clone());
        assert_eq!(inj.decide("init_flip", 0), None);
        // The wrong switch doesn't match either.
        let mut inj = FaultInjector::new(plan.clone());
        inj.set_switch(Some(0));
        assert_eq!(inj.decide("init_flip", 0), None);
        // The scoped switch does.
        let mut inj = FaultInjector::new(plan);
        inj.set_switch(Some(1));
        assert_eq!(
            inj.decide("init_flip", 0),
            Some(Injection::Fail { persistent: true })
        );
        // Unscoped rules match any identity.
        let mut inj = FaultInjector::new(
            FaultPlan::new().fail_persistent(FaultOp::Named("init_flip"), FaultWindow::Always),
        );
        inj.set_switch(Some(3));
        assert_eq!(
            inj.decide("init_flip", 0),
            Some(Injection::Fail { persistent: true })
        );
    }

    #[test]
    fn control_rules_match_only_channel_frames() {
        let plan = FaultPlan::new()
            .drop_frames(FaultWindow::Ops { lo: 0, hi: 10 }, 1)
            .duplicate_frames(FaultWindow::Always, 1);
        let mut inj = FaultInjector::new(plan);
        // Driver-level ops never match a Control rule.
        assert_eq!(inj.decide("table_add", 0), None);
        assert_eq!(inj.decide("register_read", 0), None);
        // The first frame is dropped, the second duplicated, the rest clean.
        assert_eq!(
            inj.decide("control_req", 0),
            Some(Injection::Fail { persistent: false })
        );
        assert_eq!(inj.decide("control_resp", 0), Some(Injection::Duplicate));
        assert_eq!(inj.decide("control_req", 0), None);
    }

    #[test]
    fn sever_control_is_switch_scoped_and_persistent() {
        let plan = FaultPlan::new().sever_control(1, 5_000);
        let mut inj = FaultInjector::new(plan.clone());
        inj.set_switch(Some(1));
        assert_eq!(inj.decide("control_req", 4_999), None, "before severance");
        for t in [5_000, 50_000, Nanos::MAX - 1] {
            assert_eq!(
                inj.decide("control_req", t),
                Some(Injection::Fail { persistent: true })
            );
        }
        // Other switches' channels are untouched.
        let mut other = FaultInjector::new(plan);
        other.set_switch(Some(0));
        assert_eq!(other.decide("control_req", 10_000), None);
    }

    #[test]
    fn persistent_rules_report_persistent_and_never_exhaust() {
        let plan =
            FaultPlan::new().fail_persistent(FaultOp::Named("port_set"), FaultWindow::Always);
        let mut inj = FaultInjector::new(plan);
        for _ in 0..100 {
            assert_eq!(
                inj.decide("port_set", 0),
                Some(Injection::Fail { persistent: true })
            );
        }
    }

    #[test]
    fn suspension_counts_ops_but_injects_nothing() {
        let plan = FaultPlan::new().fail_persistent(FaultOp::Any, FaultWindow::Always);
        let mut inj = FaultInjector::new(plan);
        inj.suspend();
        inj.suspend();
        assert_eq!(inj.decide("table_add", 0), None);
        inj.resume();
        assert_eq!(inj.decide("table_add", 0), None);
        inj.resume();
        assert!(inj.decide("table_add", 0).is_some());
        assert_eq!(inj.op_count(), 3);
        assert_eq!(inj.injected_total(), 1);
    }

    #[test]
    fn random_transient_plans_are_seed_deterministic_and_all_transient() {
        for seed in 0..64u64 {
            let a = FaultPlan::random_transient(seed, 200);
            let b = FaultPlan::random_transient(seed, 200);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(
                a.all_failures_transient(),
                "seed {seed} has persistent rule"
            );
            assert!(!a.rules.is_empty());
            for r in &a.rules {
                if let Some(h) = r.max_hits {
                    assert!(h <= 3, "budget {h} too large for bounded retry");
                }
            }
        }
        assert_ne!(
            FaultPlan::random_transient(1, 200),
            FaultPlan::random_transient(2, 200),
            "different seeds should differ"
        );
    }
}
